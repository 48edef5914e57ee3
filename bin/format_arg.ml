(* The --format option of tsg-lint and tsg-analyze, over Diagnostic's one
   table of format names. *)

let term =
  Cmdliner.Arg.(
    value
    & opt (enum Tsg_util.Diagnostic.formats) Tsg_util.Diagnostic.Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: $(b,text) (file:line: severity [RULE] message), \
           $(b,machine) (tab-separated: file, line, severity, rule, \
           message), or $(b,json).")
