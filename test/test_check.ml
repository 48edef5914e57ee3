(* tsg_check: the lint passes, the diagnostics engine, and the
   occurrence-index self check.

   The corruption tests follow one scheme: take a well-formed artifact,
   break exactly one invariant, and assert that the lint run reports
   exactly the matching rule code anchored to the offending file:line. *)

module Prng = Tsg_util.Prng
module Diagnostic = Tsg_util.Diagnostic
module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Serial = Tsg_graph.Serial
module Taxonomy = Tsg_taxonomy.Taxonomy
module Taxonomy_io = Tsg_taxonomy.Taxonomy_io
module Synth_taxonomy = Tsg_taxonomy.Synth_taxonomy
module Gspan = Tsg_gspan.Gspan
module Pattern_io = Tsg_core.Pattern_io
module Relabel = Tsg_core.Relabel
module Occ_index = Tsg_core.Occ_index
module Taxogram = Tsg_core.Taxogram
module Synth_graph = Tsg_data.Synth_graph
module Lint = Tsg_check.Lint
module Check_patterns = Tsg_check.Check_patterns
module Pattern = Tsg_core.Pattern
module Gen_iso = Tsg_iso.Gen_iso

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- harness ---------------------------------------------------------------- *)

let write_tmp suffix content =
  let path = Filename.temp_file "tsgcheck" suffix in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

(* run the full lint driver over throwaway files built from the given
   artifact texts and hand back the collector *)
let lint ?tax ?db ?pat ?(deep = false) () =
  let files = ref [] in
  let mk suffix content =
    let path = write_tmp suffix content in
    files := path :: !files;
    path
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove !files)
    (fun () ->
      let c = Diagnostic.collector () in
      let taxonomy = Option.map (mk ".tax") tax in
      let dbs = match db with None -> [] | Some s -> [ mk ".db" s ] in
      let patterns = match pat with None -> [] | Some s -> [ mk ".pat" s ] in
      ignore (Lint.run c ?taxonomy ~dbs ~patterns ~deep ());
      c)

let rules c =
  String.concat "; "
    (List.map (fun d -> Diagnostic.to_string d) (Diagnostic.items c))

(* the seeded corruption contract: the rule code fires, carries a file,
   and anchors to the expected line *)
let assert_rule ?line c rule =
  match
    List.find_opt (fun d -> d.Diagnostic.rule = rule) (Diagnostic.items c)
  with
  | None -> Alcotest.failf "expected %s among [%s]" rule (rules c)
  | Some d ->
    check bool (rule ^ " carries a file") true (d.Diagnostic.file <> None);
    (match line with
    | Some l ->
      check (Alcotest.option int) (rule ^ " line") (Some l) d.Diagnostic.line
    | None ->
      check bool (rule ^ " carries a line") true (d.Diagnostic.line <> None))

let assert_no_rule c rule =
  if List.exists (fun d -> d.Diagnostic.rule = rule) (Diagnostic.items c) then
    Alcotest.failf "unexpected %s among [%s]" rule (rules c)

(* --- well-formed baselines -------------------------------------------------- *)

let tax_ok = "c root\nc a\nc b\nc x\ni a root\ni b root\ni x root\n"
let db_ok = "t # 0\nv 0 a\nv 1 b\ne 0 1 e0\nt # 1\nv 0 a\nv 1 b\ne 0 1 e0\n"
let pat_ab support = Printf.sprintf "p # 0 support %d/2\nv 0 a\nv 1 b\ne 0 1 e0\n" support

let test_clean_artifacts () =
  let c = lint ~tax:tax_ok ~db:db_ok ~pat:(pat_ab 2) ~deep:true () in
  check int "no findings" 0 (List.length (Diagnostic.items c));
  check int "exit 0" 0 (Diagnostic.exit_code c)

(* --- taxonomy corruptions --------------------------------------------------- *)

let test_tax001_duplicate_decl () =
  let c = lint ~tax:(tax_ok ^ "c a\n") () in
  assert_rule ~line:8 c "TAX001";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_tax002_unknown_concept () =
  let c = lint ~tax:(tax_ok ^ "i zzz root\n") () in
  assert_rule ~line:8 c "TAX002";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_tax003_self_edge () =
  let c = lint ~tax:(tax_ok ^ "i a a\n") () in
  assert_rule ~line:8 c "TAX003";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_tax004_duplicate_edge () =
  let c = lint ~tax:(tax_ok ^ "i a root\n") () in
  assert_rule ~line:8 c "TAX004";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_tax005_cycle () =
  let c = lint ~tax:(tax_ok ^ "i root x\n") () in
  assert_rule c "TAX005";
  check int "exit 2" 2 (Diagnostic.exit_code c);
  (* the witness names a concrete closed is-a walk *)
  let d =
    List.find (fun d -> d.Diagnostic.rule = "TAX005") (Diagnostic.items c)
  in
  check bool "cycle witness" true
    (String.length d.Diagnostic.message > 0
    && String.contains d.Diagnostic.message '>')

let test_tax007_isolated_concept () =
  let c = lint ~tax:"c root\nc a\nc iso\ni a root\n" () in
  assert_rule ~line:3 c "TAX007";
  check int "warning only: exit 1" 1 (Diagnostic.exit_code c)

let test_tax009_syntax () =
  let c = lint ~tax:"c root\nbogus line\n" () in
  assert_rule ~line:2 c "TAX009";
  check int "exit 2" 2 (Diagnostic.exit_code c)

(* --- database corruptions --------------------------------------------------- *)

let test_db001_duplicate_node () =
  let c = lint ~tax:tax_ok ~db:"t # 0\nv 0 a\nv 1 b\nv 1 a\ne 0 1 e0\n" () in
  assert_rule ~line:4 c "DB001";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_db002_dangling_endpoint () =
  let c = lint ~tax:tax_ok ~db:"t # 0\nv 0 a\nv 1 b\ne 0 5 e0\n" () in
  assert_rule ~line:4 c "DB002";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_db003_self_loop () =
  let c = lint ~tax:tax_ok ~db:"t # 0\nv 0 a\nv 1 b\ne 0 0 e0\n" () in
  assert_rule ~line:4 c "DB003";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_db004_duplicate_edge () =
  let c =
    lint ~tax:tax_ok ~db:"t # 0\nv 0 a\nv 1 b\ne 0 1 e0\ne 1 0 e1\n" ()
  in
  assert_rule ~line:5 c "DB004";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_db005_unknown_label () =
  let c = lint ~tax:tax_ok ~db:"t # 0\nv 0 a\nv 1 zzz\ne 0 1 e0\n" () in
  assert_rule ~line:3 c "DB005";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_db007_bad_line () =
  let c = lint ~tax:tax_ok ~db:"t # 0\nv 0 a\nwhat is this\n" () in
  assert_rule ~line:3 c "DB007";
  check int "exit 2" 2 (Diagnostic.exit_code c)

(* --- pattern-set corruptions ------------------------------------------------ *)

let test_pat001_disconnected () =
  let c = lint ~tax:tax_ok ~pat:"p # 0 support 1/2\nv 0 a\nv 1 b\n" () in
  assert_rule ~line:1 c "PAT001";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_pat002_non_canonical () =
  (* label a precedes b, so the minimum DFS code roots at the a node;
     numbering the b node 0 breaks canonical form *)
  let c = lint ~tax:tax_ok ~pat:"p # 0 support 1/2\nv 0 b\nv 1 a\ne 0 1 e0\n" () in
  assert_rule ~line:1 c "PAT002";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_pat003_duplicate () =
  let c = lint ~tax:tax_ok ~pat:(pat_ab 1 ^ pat_ab 1) () in
  assert_rule ~line:5 c "PAT003";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_pat004_support_monotonicity () =
  (* root-root generalizes a-b, yet records smaller support *)
  let general = "p # 0 support 1/2\nv 0 root\nv 1 root\ne 0 1 e0\n" in
  let c = lint ~tax:tax_ok ~pat:(general ^ pat_ab 2) () in
  assert_rule ~line:1 c "PAT004";
  check int "exit 2" 2 (Diagnostic.exit_code c)

(* two isomorphic disconnected patterns generalize each other; the finding
   must not depend on which of them comes first *)
let test_pat004_mutual_pair_order () =
  let pair support =
    Printf.sprintf "p # 0 support %d/2\nv 0 a\nv 1 b\n" support
  in
  List.iter
    (fun (pat, low_line) ->
      let c = lint ~tax:tax_ok ~pat () in
      assert_rule ~line:low_line c "PAT004";
      assert_no_rule c "PAT005")
    [ (pair 1 ^ pair 2, 1); (pair 2 ^ pair 1, 4) ]

let test_pat005_over_generalized () =
  (* equal support: the equal-support rule should have eliminated root-root *)
  let general = "p # 0 support 2/2\nv 0 root\nv 1 root\ne 0 1 e0\n" in
  let c = lint ~tax:tax_ok ~pat:(general ^ pat_ab 2) () in
  assert_rule ~line:1 c "PAT005";
  check int "warning only: exit 1" 1 (Diagnostic.exit_code c)

let test_pat006_db_size_mismatch () =
  let other = "p # 1 support 1/3\nv 0 a\nv 1 a\ne 0 1 e0\n" in
  let c = lint ~tax:tax_ok ~pat:(pat_ab 1 ^ other) () in
  assert_rule ~line:5 c "PAT006";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_pat007_unknown_label () =
  let c = lint ~tax:tax_ok ~pat:"p # 0 support 1/2\nv 0 zzz\n" () in
  assert_rule ~line:1 c "PAT007";
  check int "exit 2" 2 (Diagnostic.exit_code c)

(* an unknown label must keep a pattern out of the generalized-iso tests:
   they index the taxonomy by label and would raise Invalid_argument on it
   when a same-size pattern gives them a partner *)
let test_pat007_unknown_label_beside_same_size () =
  let connected = "p # 0 support 1/2\nv 0 a\nv 1 zzz\ne 0 1 e0\n" in
  let disconnected = "p # 0 support 1/2\nv 0 a\nv 1 zzz\n" in
  let other = "p # 1 support 1/2\nv 0 a\nv 1 b\n" in
  List.iter
    (fun pat ->
      let c = lint ~tax:tax_ok ~pat () in
      assert_rule ~line:1 c "PAT007";
      assert_no_rule c "PAT004";
      assert_no_rule c "PAT005";
      check int "exit 2" 2 (Diagnostic.exit_code c))
    [ connected ^ pat_ab 1; disconnected ^ other ]

let test_pat009_syntax () =
  let c = lint ~tax:tax_ok ~pat:"p # 0 support 1/2\nv 0 a\nbogus\n" () in
  assert_rule ~line:3 c "PAT009";
  check int "exit 2" 2 (Diagnostic.exit_code c)

(* --- cross-artifact corruptions --------------------------------------------- *)

let test_x001_unmatchable_pattern () =
  (* x is a taxonomy concept, but nothing in the database specializes it *)
  let c = lint ~tax:tax_ok ~db:db_ok ~pat:"p # 0 support 1/2\nv 0 x\n" () in
  assert_rule ~line:1 c "X001";
  check int "warning only: exit 1" 1 (Diagnostic.exit_code c)

let test_x003_support_mismatch () =
  (* a-b occurs in both graphs, the header claims one *)
  let c = lint ~tax:tax_ok ~db:db_ok ~pat:(pat_ab 1) ~deep:true () in
  assert_rule ~line:1 c "X003";
  check int "exit 2" 2 (Diagnostic.exit_code c);
  (* without --deep the mismatch goes unnoticed (it needs brute force) *)
  assert_no_rule (lint ~tax:tax_ok ~db:db_ok ~pat:(pat_ab 1) ()) "X003"

let test_io001_unreadable () =
  let c = Diagnostic.collector () in
  ignore (Lint.run c ~taxonomy:"/nonexistent/no.tax" ());
  match
    List.find_opt (fun d -> d.Diagnostic.rule = "IO001") (Diagnostic.items c)
  with
  | None -> Alcotest.failf "expected IO001 among [%s]" (rules c)
  | Some d ->
    (* a whole-file failure: named file, no line *)
    check (Alcotest.option Alcotest.string) "file" (Some "/nonexistent/no.tax")
      d.Diagnostic.file;
    check (Alcotest.option int) "no line" None d.Diagnostic.line;
    check int "exit 2" 2 (Diagnostic.exit_code c)

(* --- diagnostics engine ----------------------------------------------------- *)

let test_suppression () =
  let c = Diagnostic.collector ~suppress:[ "TAX007" ] () in
  Diagnostic.emitf c ~rule:"TAX007" Diagnostic.Warning "dropped";
  Diagnostic.emitf c ~rule:"TAX005" Diagnostic.Error "kept";
  check int "kept" 1 (List.length (Diagnostic.items c));
  check int "suppressed" 1 (Diagnostic.suppressed_count c);
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_rendering () =
  let d =
    Diagnostic.make ~file:"f.tax" ~line:3 ~rule:"TAX005" Diagnostic.Error
      "is-a cycle: a -> b -> a"
  in
  check Alcotest.string "human form"
    "f.tax:3: error [TAX005] is-a cycle: a -> b -> a" (Diagnostic.to_string d);
  check Alcotest.string "machine form"
    "f.tax\t3\terror\tTAX005\tis-a cycle: a -> b -> a"
    (Diagnostic.to_machine d);
  let bare = Diagnostic.make ~rule:"X002" Diagnostic.Warning "w" in
  check Alcotest.string "no location" "warning [X002] w"
    (Diagnostic.to_string bare);
  check Alcotest.string "machine placeholders" "-\t-\twarning\tX002\tw"
    (Diagnostic.to_machine bare)

(* --- generated artifacts lint clean (qcheck) -------------------------------- *)

let arb_seed = QCheck.make QCheck.Gen.(int_bound 1_000_000)

let random_taxonomy rng =
  let concepts = 4 + Prng.int rng 12 in
  Synth_taxonomy.generate rng
    {
      Synth_taxonomy.concepts;
      relationships = concepts + Prng.int rng 6;
      depth = 2 + Prng.int rng 3;
    }

let edge_label_names n = Label.of_names (List.init n (Printf.sprintf "e%d"))

let random_db rng tax =
  Synth_graph.generate rng
    {
      Synth_graph.graph_count = 3 + Prng.int rng 5;
      max_edges = 6;
      edge_density = 0.3;
      edge_label_count = 2;
      node_label = Synth_graph.uniform_labels tax;
    }

let synth_lint_clean_prop =
  QCheck.Test.make ~name:"synth taxonomy + database lint clean" ~count:60
    arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax = random_taxonomy rng in
      let db = random_db rng tax in
      let c =
        lint
          ~tax:(Taxonomy_io.to_string tax)
          ~db:
            (Serial.db_to_string
               ~node_labels:(Taxonomy.labels tax)
               ~edge_labels:(edge_label_names 2) db)
          ()
      in
      not (Diagnostic.has_errors c))

let miner_output_lint_clean_prop =
  QCheck.Test.make ~name:"tsg-mine output lints clean (deep)" ~count:25
    arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax = random_taxonomy rng in
      let db = random_db rng tax in
      let r =
        Taxogram.run (Taxogram.Spec.collect ~config:{ Taxogram.min_support = 0.5; max_edges = Some 3; enhancements = Tsg_core.Specialize.all_on; } ())
          tax db
      in
      let edge_labels = edge_label_names 2 in
      let c =
        lint
          ~tax:(Taxonomy_io.to_string tax)
          ~db:
            (Serial.db_to_string
               ~node_labels:(Taxonomy.labels tax)
               ~edge_labels db)
          ~pat:
            (Pattern_io.to_string
               ~node_labels:(Taxonomy.labels tax)
               ~edge_labels ~db_size:(Db.size db) r.Taxogram.patterns)
          ~deep:true ()
      in
      if Diagnostic.has_errors c then
        QCheck.Test.fail_reportf "lint errors: %s" (rules c)
      else true)

(* --- occurrence-index self check (qcheck) ------------------------------------ *)

let random_instance rng =
  let tax = random_taxonomy rng in
  let nlabels = Taxonomy.label_count tax in
  let graphs =
    List.init
      (2 + Prng.int rng 3)
      (fun _ ->
        let n = 2 + Prng.int rng 3 in
        let labels = Array.init n (fun _ -> Prng.int rng nlabels) in
        let edges = ref [] in
        for v = 1 to n - 1 do
          edges := (v, Prng.int rng v, Prng.int rng 2) :: !edges
        done;
        Graph.build ~labels ~edges:!edges)
  in
  (tax, Db.of_list graphs)

(* every class is checked unpruned and at a random threshold: the index
   built with [min_support] must pass the self-check given the same
   threshold, and fail it without one whenever the threshold left a label
   out *)
let self_check_thresholds rng ~tax ~db ?keep_label cls =
  let unpruned = Occ_index.build ~taxonomy:tax ~original:db ?keep_label cls in
  let min_support = 1 + Prng.int rng (Db.size db) in
  let pruned =
    Occ_index.build ~taxonomy:tax ~original:db ?keep_label ~min_support cls
  in
  let check ?min_support oi =
    Occ_index.self_check ~taxonomy:tax ~original:db ?keep_label ?min_support oi
  in
  let dropped =
    (Occ_index.size pruned).Occ_index.entries
    < (Occ_index.size unpruned).Occ_index.entries
  in
  match check unpruned @ check ~min_support pruned with
  | [] -> (not dropped) || check pruned <> []
  | problems ->
    QCheck.Test.fail_reportf "self_check (min_support %d): %s" min_support
      (String.concat "; " problems)

let occ_index_self_check_prop =
  QCheck.Test.make
    ~name:"occ_index self_check agrees with brute-force gen-iso" ~count:40
    arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let relabeled = Relabel.db tax db in
      let classes = Gspan.mine_list ~max_edges:3 ~min_support:2 relabeled in
      List.for_all (self_check_thresholds rng ~tax ~db) classes)

let occ_index_self_check_filtered_prop =
  QCheck.Test.make ~name:"occ_index self_check honours keep_label" ~count:40
    arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let keep_label l = l mod 2 = 0 in
      let relabeled = Relabel.db tax db in
      let classes = Gspan.mine_list ~max_edges:3 ~min_support:2 relabeled in
      List.for_all (self_check_thresholds rng ~tax ~db ~keep_label) classes)

(* --- pairwise rules: class buckets = all pairs (qcheck) ------------------- *)

(* The reference: the all-pairs loop Check_patterns ran before it compared
   pairs only within pattern classes. Every pair with equal node and edge
   counts is visited; equal canonical keys are duplicates, otherwise both
   generalized-iso directions are tried. *)
let all_pairs_oracle ?file ?taxonomy (entries : (Pattern.t * int option) array)
    =
  let c = Diagnostic.collector () in
  let n = Array.length entries in
  let keys =
    Array.map
      (fun ((p : Pattern.t), _) ->
        if Graph.is_connected p.Pattern.graph then Some (Pattern.key p)
        else None)
      entries
  in
  for i = 0 to n - 1 do
    let pi, line_i = entries.(i) in
    let gi = pi.Pattern.graph in
    for j = i + 1 to n - 1 do
      let pj, line_j = entries.(j) in
      let gj = pj.Pattern.graph in
      if
        Graph.node_count gi = Graph.node_count gj
        && Graph.edge_count gi = Graph.edge_count gj
      then begin
        let duplicate =
          match (keys.(i), keys.(j)) with
          | Some a, Some b -> a = b
          | _ -> false
        in
        if duplicate then
          Diagnostic.emitf c ?file ?line:line_j ~rule:"PAT003"
            Diagnostic.Error "pattern #%d duplicates pattern #%d" j i
        else
          match taxonomy with
          | None -> ()
          | Some tax ->
            let report gen_idx gen_line spec_idx (gen : Pattern.t)
                (spec : Pattern.t) =
              if gen.Pattern.support_count < spec.Pattern.support_count then
                Diagnostic.emitf c ?file ?line:gen_line ~rule:"PAT004"
                  Diagnostic.Error
                  "pattern #%d generalizes pattern #%d but records smaller \
                   support (%d < %d)"
                  gen_idx spec_idx gen.Pattern.support_count
                  spec.Pattern.support_count
              else if gen.Pattern.support_count = spec.Pattern.support_count
              then
                Diagnostic.emitf c ?file ?line:gen_line ~rule:"PAT005"
                  Diagnostic.Warning
                  "pattern #%d is over-generalized: specialization #%d has \
                   equal support %d"
                  gen_idx spec_idx gen.Pattern.support_count
            in
            (* a pair that generalizes both ways is oriented by support:
               the lower-support pattern is the generalization *)
            let ij = Gen_iso.graph_isomorphic tax gi gj
            and ji = Gen_iso.graph_isomorphic tax gj gi in
            if ij && ji && pj.Pattern.support_count < pi.Pattern.support_count
            then report j line_j i pj pi
            else if ij then report i line_i j pi pj
            else if ji then report j line_j i pj pi
      end
    done
  done;
  Diagnostic.items c

let pairwise_rules = [ "PAT003"; "PAT004"; "PAT005" ]

(* collectors hand findings back sorted, so equal lists mean the same
   findings reported in the same order *)
let pairwise c =
  List.filter
    (fun d -> List.mem d.Diagnostic.rule pairwise_rules)
    (Diagnostic.items c)

let with_support (p : Pattern.t) support_count = { p with Pattern.support_count }

(* A mined pattern set made to trip the pairwise rules: supports nudged at
   random, connected generalization pairs forced to equal (PAT005) or
   smaller (PAT004) support, entries duplicated (PAT003), and a
   disconnected generalization pair with smaller support (PAT004); then
   shuffled. Also returns how many connected generalization pairs were
   forced. *)
let pairwise_case rng tax db =
  let mined =
    (Taxogram.run
       (Taxogram.Spec.collect
          ~config:
            {
              Taxogram.min_support = 0.3;
              max_edges = Some 3;
              enhancements = Tsg_core.Specialize.all_on;
            }
          ())
       tax db)
      .Taxogram.patterns
  in
  QCheck.assume (mined <> []);
  let ps =
    Array.of_list
      (List.map
         (fun (p : Pattern.t) ->
           if Prng.int rng 5 = 0 then
             with_support p (max 1 (p.Pattern.support_count + Prng.int_in rng (-1) 1))
           else p)
         mined)
  in
  let n = Array.length ps in
  (* each pattern joins at most one forced pair, so no later pair undoes
     an earlier one *)
  let touched = Array.make n false in
  let forced = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let gi = ps.(i).Pattern.graph and gj = ps.(j).Pattern.graph in
      if
        !forced < 4 && i <> j
        && (not touched.(i))
        && (not touched.(j))
        && Graph.node_count gi = Graph.node_count gj
        && Graph.edge_count gi = Graph.edge_count gj
        && Pattern.key ps.(i) <> Pattern.key ps.(j)
        && Gen_iso.graph_isomorphic tax gi gj
      then begin
        let spec = ps.(j).Pattern.support_count in
        ps.(i) <- with_support ps.(i) (if !forced mod 2 = 0 then spec else spec - 1);
        touched.(i) <- true;
        touched.(j) <- true;
        incr forced
      end
    done
  done;
  let dups = List.init (1 + Prng.int rng 3) (fun _ -> ps.(Prng.int rng n)) in
  let disconnected =
    let p = ps.(Prng.int rng n) in
    let g = p.Pattern.graph in
    let labels =
      Array.append (Graph.node_labels g)
        [| Synth_graph.uniform_labels tax rng |]
    in
    let spec =
      Graph.build ~labels ~edges:(Array.to_list (Graph.edges g))
    in
    let gen = Relabel.graph tax spec in
    let make g sup =
      with_support (Pattern.make ~db_size:(Db.size db) g p.Pattern.support_set) sup
    in
    [ make spec 2; make gen 1 ]
  in
  let all = Array.of_list (Array.to_list ps @ dups @ disconnected) in
  Prng.shuffle rng all;
  (Array.to_list all, !forced)

let pairwise_equivalence_prop =
  QCheck.Test.make ~name:"pairwise rules: class buckets = all pairs" ~count:40
    arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax = random_taxonomy rng in
      let db = random_db rng tax in
      let node_labels = Taxonomy.labels tax in
      let db_size = Db.size db in
      let found, forced = pairwise_case rng tax db in
      let in_memory = Array.of_list (List.map (fun p -> (p, None)) found) in
      let file = "set.pat" in
      let located =
        List.mapi
          (fun k p ->
            {
              Pattern_io.pattern = p;
              header_line = 1 + (10 * k);
              recorded_db_size = db_size;
            })
          found
      in
      let with_lines =
        Array.of_list
          (List.map
             (fun (l : Pattern_io.located) ->
               (l.Pattern_io.pattern, Some l.Pattern_io.header_line))
             located)
      in
      let validated = Diagnostic.collector () in
      Check_patterns.validate validated ~taxonomy:tax ~node_labels ~db_size
        found;
      let linted = Diagnostic.collector () in
      Check_patterns.check_located linted ~file ~taxonomy:tax ~node_labels
        ~edge_labels:(edge_label_names 2) located;
      let untaxed = Diagnostic.collector () in
      Check_patterns.validate untaxed ~node_labels ~db_size found;
      let expected = all_pairs_oracle ~taxonomy:tax in_memory in
      let fired rule = List.exists (fun d -> d.Diagnostic.rule = rule) expected in
      let same name actual oracle =
        if actual <> oracle then
          QCheck.Test.fail_reportf "%s: got [%s], all pairs give [%s]" name
            (String.concat "; " (List.map Diagnostic.to_string actual))
            (String.concat "; " (List.map Diagnostic.to_string oracle))
        else true
      in
      same "validate" (pairwise validated) expected
      && same "check_located" (pairwise linted)
           (all_pairs_oracle ~file ~taxonomy:tax with_lines)
      && same "no taxonomy" (pairwise untaxed) (all_pairs_oracle in_memory)
      && fired "PAT003" && fired "PAT004"
      && (forced = 0 || fired "PAT005"))

(* Save-time validation tests a connected pair in one direction only, from
   the smaller node-depth sum. Label c has parents at depths 0 (r) and 2
   (b), so its depth is 3: a shortest-path depth of 1 would orient b-b/b-c
   and a-a/a-c the wrong way (or not at all) and lose their findings. a-b,
   d-b and r-c have equal depth sums and do not generalize each other. *)
let test_depth_oriented_pairs () =
  let tax =
    Taxonomy.build
      ~names:[ "r"; "a"; "b"; "c"; "d" ]
      ~is_a:[ ("a", "r"); ("b", "a"); ("c", "b"); ("c", "r"); ("d", "r") ]
  in
  check int "longest-path depth" 3 (Taxonomy.depth tax (Taxonomy.id_of_name tax "c"));
  let node_labels = Taxonomy.labels tax in
  let db_size = 6 in
  let edge x y support =
    let l = Taxonomy.id_of_name tax in
    with_support
      (Pattern.make ~db_size
         (Graph.build ~labels:[| l x; l y |] ~edges:[ (0, 1, 0) ])
         (Tsg_util.Bitset.of_list db_size [ 0 ]))
      support
  in
  let found =
    [
      edge "b" "c" 3;
      edge "b" "b" 2 (* generalizes #0 with smaller support: PAT004 *);
      edge "a" "c" 4;
      edge "a" "a" 4 (* generalizes #2 with equal support: PAT005 *);
      edge "a" "b" 5;
      edge "d" "b" 5;
      edge "r" "c" 5;
    ]
  in
  let in_memory = Array.of_list (List.map (fun p -> (p, None)) found) in
  let expected = all_pairs_oracle ~taxonomy:tax in_memory in
  let has rule message =
    List.exists
      (fun d -> d.Diagnostic.rule = rule && d.Diagnostic.message = message)
      expected
  in
  check bool "oracle: PAT004 on b-b" true
    (has "PAT004"
       "pattern #1 generalizes pattern #0 but records smaller support (2 < 3)");
  check bool "oracle: PAT005 on a-a" true
    (has "PAT005"
       "pattern #3 is over-generalized: specialization #2 has equal support 4");
  let validated = Diagnostic.collector () in
  Check_patterns.validate validated ~taxonomy:tax ~node_labels ~db_size found;
  let show ds = String.concat "; " (List.map Diagnostic.to_string ds) in
  check Alcotest.string "validate = all pairs" (show expected)
    (show (pairwise validated));
  let located =
    List.mapi
      (fun k p ->
        { Pattern_io.pattern = p; header_line = 1 + (4 * k); recorded_db_size = db_size })
      found
  in
  let linted = Diagnostic.collector () in
  Check_patterns.check_located linted ~file:"set.pat" ~taxonomy:tax
    ~node_labels ~edge_labels:(edge_label_names 1) located;
  let with_lines =
    Array.of_list
      (List.map
         (fun (l : Pattern_io.located) ->
           (l.Pattern_io.pattern, Some l.Pattern_io.header_line))
         located)
  in
  check Alcotest.string "check_located = all pairs"
    (show (all_pairs_oracle ~file:"set.pat" ~taxonomy:tax with_lines))
    (show (pairwise linted))

(* --- suites ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "check"
    [
      ( "baseline",
        [
          Alcotest.test_case "clean artifacts, zero findings" `Quick
            test_clean_artifacts;
        ] );
      ( "taxonomy corruptions",
        [
          Alcotest.test_case "TAX001 duplicate decl" `Quick
            test_tax001_duplicate_decl;
          Alcotest.test_case "TAX002 unknown concept" `Quick
            test_tax002_unknown_concept;
          Alcotest.test_case "TAX003 self is-a" `Quick test_tax003_self_edge;
          Alcotest.test_case "TAX004 duplicate is-a" `Quick
            test_tax004_duplicate_edge;
          Alcotest.test_case "TAX005 cycle" `Quick test_tax005_cycle;
          Alcotest.test_case "TAX007 isolated concept" `Quick
            test_tax007_isolated_concept;
          Alcotest.test_case "TAX009 syntax" `Quick test_tax009_syntax;
        ] );
      ( "database corruptions",
        [
          Alcotest.test_case "DB001 duplicate node" `Quick
            test_db001_duplicate_node;
          Alcotest.test_case "DB002 dangling endpoint" `Quick
            test_db002_dangling_endpoint;
          Alcotest.test_case "DB003 self loop" `Quick test_db003_self_loop;
          Alcotest.test_case "DB004 duplicate edge" `Quick
            test_db004_duplicate_edge;
          Alcotest.test_case "DB005 unknown label" `Quick
            test_db005_unknown_label;
          Alcotest.test_case "DB007 bad line" `Quick test_db007_bad_line;
        ] );
      ( "pattern corruptions",
        [
          Alcotest.test_case "PAT001 disconnected" `Quick
            test_pat001_disconnected;
          Alcotest.test_case "PAT002 non-canonical numbering" `Quick
            test_pat002_non_canonical;
          Alcotest.test_case "PAT003 duplicate" `Quick test_pat003_duplicate;
          Alcotest.test_case "PAT004 support monotonicity" `Quick
            test_pat004_support_monotonicity;
          Alcotest.test_case "PAT004 mutual pair, either order" `Quick
            test_pat004_mutual_pair_order;
          Alcotest.test_case "PAT005 over-generalized" `Quick
            test_pat005_over_generalized;
          Alcotest.test_case "PAT004/PAT005 depth-oriented pairs" `Quick
            test_depth_oriented_pairs;
          Alcotest.test_case "PAT006 db size mismatch" `Quick
            test_pat006_db_size_mismatch;
          Alcotest.test_case "PAT007 unknown label" `Quick
            test_pat007_unknown_label;
          Alcotest.test_case "PAT007 beside a same-size pattern" `Quick
            test_pat007_unknown_label_beside_same_size;
          Alcotest.test_case "PAT009 syntax" `Quick test_pat009_syntax;
        ] );
      ( "cross-artifact",
        [
          Alcotest.test_case "X001 unmatchable pattern" `Quick
            test_x001_unmatchable_pattern;
          Alcotest.test_case "X003 support mismatch (deep)" `Quick
            test_x003_support_mismatch;
          Alcotest.test_case "IO001 unreadable file" `Quick
            test_io001_unreadable;
        ] );
      ( "diagnostics engine",
        [
          Alcotest.test_case "suppression" `Quick test_suppression;
          Alcotest.test_case "rendering" `Quick test_rendering;
        ] );
      ( "properties",
        qsuite
          [
            synth_lint_clean_prop;
            miner_output_lint_clean_prop;
            occ_index_self_check_prop;
            occ_index_self_check_filtered_prop;
            pairwise_equivalence_prop;
          ] );
    ]
