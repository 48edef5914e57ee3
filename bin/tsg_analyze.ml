(* tsg-analyze: domain-safety & determinism static analyzer over the
   project's own typed trees.

     dune build @check
     tsg-analyze                      # lib/ and bin/ under _build/default
     tsg-analyze --format json lib
     tsg-analyze --allowlist analyze.allow --strict

   Reads the .cmt files dune's @check alias leaves next to every
   compiled unit and checks the DOM/DET/IO1/REG rule family (see
   DESIGN.md for the catalog, `--list-rules` for a quick reference).
   Findings print like tsg-lint: `file:line: severity [RULE] message`.
   Exit status: 0 clean, 1 warnings only, 2 errors (or warnings under
   --strict). *)

module Diagnostic = Tsg_util.Diagnostic
module Registry = Diagnostic.Registry
module Cmt_load = Tsg_analysis.Cmt_load
module Analyze = Tsg_analysis.Analyze

open Cmdliner

let list_rules () =
  print_endline "Rules (tsg-analyze):";
  List.iter
    (fun (e : Registry.entry) ->
      Printf.printf "  %-8s %-9s %s\n" e.code
        (Diagnostic.severity_to_string e.default_severity)
        e.summary)
    Registry.rules;
  print_endline "";
  print_endline "Protocol error codes (tsg-serve/tsg-router wire protocol):";
  List.iter
    (fun (code, summary) -> Printf.printf "  %-12s %s\n" code summary)
    Registry.protocol_errors;
  0

let run paths root allowlist_file rules show_rules fmt suppress strict quiet =
  if show_rules then list_rules ()
  else begin
    let allowlist =
      match allowlist_file with
      | None -> Ok []
      | Some f -> Analyze.parse_allowlist f
    in
    match allowlist with
    | Error msg ->
      Printf.eprintf "tsg-analyze: bad allowlist: %s\n" msg;
      2
    | Ok allowlist ->
      let paths = if paths = [] then [ "lib"; "bin" ] else paths in
      let roots =
        List.map
          (fun p -> if Filename.is_relative p then Filename.concat root p else p)
          paths
      in
      let cmts = Cmt_load.discover roots in
      if cmts = [] then begin
        Printf.eprintf
          "tsg-analyze: no .cmt files under %s (build them with `dune build \
           @check`)\n"
          (String.concat ", " roots);
        2
      end
      else begin
        let c = Diagnostic.collector ~suppress () in
        let units = Cmt_load.load_all c cmts in
        let rules = match rules with [] -> None | l -> Some l in
        let summary =
          Analyze.run ?rules ~allowlist ?allowlist_file c units
        in
        Diagnostic.print ~format:fmt stdout c;
        if not quiet then begin
          let extra =
            (match summary.Analyze.suppressed with
            | 0 -> []
            | n -> [ Printf.sprintf "%d suppressed in source" n ])
            @
            match summary.Analyze.allowlisted with
            | 0 -> []
            | n -> [ Printf.sprintf "%d allowlisted" n ]
          in
          Printf.eprintf "tsg-analyze: %d units: %s%s\n" summary.Analyze.units
            (Diagnostic.summary c)
            (match extra with
            | [] -> ""
            | l -> Printf.sprintf " (%s)" (String.concat ", " l))
        end;
        let code = Diagnostic.exit_code c in
        if strict && code = 1 then 2 else code
      end
  end

let paths_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"PATH"
        ~doc:
          "Directories (or .cmt files) to analyze, relative to $(b,--root) \
           when relative. Defaults to $(b,lib bin).")

let root_arg =
  Arg.(
    value
    & opt string "_build/default"
    & info [ "root" ] ~docv:"DIR"
        ~doc:"Build directory that holds the compiled .cmt trees.")

let allowlist_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "allowlist" ] ~docv:"FILE"
        ~doc:
          "Grandfathered findings: one $(i,RULE FILE IDENT) triple per \
           line, # comments. Stale entries are reported (ANA003).")

let rules_arg =
  Arg.(
    value & opt_all string []
    & info [ "rules" ] ~docv:"RULE"
        ~doc:"Check only this rule code (repeatable); default: all rules.")

let list_rules_arg =
  Arg.(
    value & flag
    & info [ "list-rules" ]
        ~doc:"Print the rule and protocol-code catalog and exit.")

let suppress_arg =
  Arg.(
    value & opt_all string []
    & info [ "suppress" ] ~docv:"RULE"
        ~doc:"Drop findings with this rule code, e.g. DET002 (repeatable).")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ] ~doc:"Exit 2 on warnings too, not only on errors.")

let quiet_arg =
  Arg.(
    value & flag & info [ "quiet"; "q" ] ~doc:"Skip the summary line on stderr.")

let cmd =
  let doc =
    "check the project's typed trees for domain-safety and determinism \
     violations"
  in
  Cmd.v
    (Cmd.info "tsg-analyze" ~doc)
    Term.(
      const run $ paths_arg $ root_arg $ allowlist_arg $ rules_arg
      $ list_rules_arg $ Format_arg.term $ suppress_arg $ strict_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)
