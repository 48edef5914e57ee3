module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Taxonomy = Tsg_taxonomy.Taxonomy
module Bitset = Tsg_util.Bitset
module Gspan = Tsg_gspan.Gspan

type t = {
  class_graph : Graph.t;
  class_support_set : Bitset.t;
  occ_count : int;
  occ_gid : int array;
  entries : (Label.id, Bitset.t) Hashtbl.t array;
  all_occs : Bitset.t;
  db_size : int;
  run_end : Bitset.t;
}

let keep_all _ = true

(* [l]'s reflexive ancestors that an index keeps, ascending: those passing
   [keep_label], and always the most general one, which is the class label
   wherever [l] occurs (the one root among [l]'s ancestors) *)
let kept_row ~taxonomy ~keep_label l =
  Bitset.fold
    (fun a acc ->
      if Taxonomy.is_root taxonomy a || keep_label a then a :: acc else acc)
    (Taxonomy.ancestor_set taxonomy l)
    []
  |> List.rev |> Array.of_list

type ancestors = { keep_label : Label.id -> bool; kept : Label.id array array }

let kept_ancestors ~taxonomy ?(keep_label = keep_all) () =
  {
    keep_label;
    kept =
      Array.init (Taxonomy.label_count taxonomy) (kept_row ~taxonomy ~keep_label);
  }

(* the table [build] derives when it is not given one, kept for the next
   build with the same taxonomy and filter (physically equal), so a caller
   passing only [keep_label] derives it once per run rather than once per
   class. The slot holds one immutable value, replaced atomically, so
   domains may share it. *)
let derived : (Taxonomy.t * ancestors) option Atomic.t = Atomic.make None

let derived_ancestors ~taxonomy ~keep_label =
  match Atomic.get derived with
  | Some (t, a) when t == taxonomy && a.keep_label == keep_label -> a
  | _ ->
    let a = kept_ancestors ~taxonomy ~keep_label () in
    Atomic.set derived (Some (taxonomy, a));
    a

(* brute-force counts of one covered label at one position *)
type expected = { mutable occs : int; mutable graphs : int; mutable last : int }

let self_check ~taxonomy ~original ?(keep_label = keep_all) ?(min_support = 0)
    t =
  let issues = ref [] in
  let add fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
  let lname l = Taxonomy.name taxonomy l in
  let positions = Graph.node_count t.class_graph in
  (* brute-force generalized-iso embeddings over the original database *)
  let maps = ref [] in
  let bf_count = ref 0 in
  Db.iteri
    (fun gid g ->
      Tsg_iso.Gen_iso.iter_embeddings taxonomy ~pattern:t.class_graph ~target:g
        (fun map ->
          incr bf_count;
          maps := (gid, Array.copy map) :: !maps))
    original;
  let maps = List.rev !maps in
  if !bf_count <> t.occ_count then
    add "index holds %d occurrences but brute force finds %d embeddings"
      t.occ_count !bf_count;
  let db_n = Db.size original in
  let bf_per_gid = Array.make db_n 0 in
  List.iter (fun (gid, _) -> bf_per_gid.(gid) <- bf_per_gid.(gid) + 1) maps;
  let idx_per_gid = Array.make db_n 0 in
  Array.iter (fun gid -> idx_per_gid.(gid) <- idx_per_gid.(gid) + 1) t.occ_gid;
  for gid = 0 to db_n - 1 do
    if bf_per_gid.(gid) <> idx_per_gid.(gid) then
      add "graph %d: %d occurrences indexed but %d brute-force embeddings" gid
        idx_per_gid.(gid) bf_per_gid.(gid)
  done;
  let support = Bitset.create db_n in
  List.iter (fun (gid, _) -> Bitset.set support gid) maps;
  if not (Bitset.equal support t.class_support_set) then
    add "class support set disagrees with brute-force support set";
  if Bitset.cardinal t.all_occs <> t.occ_count then
    add "all_occs holds %d members for %d occurrences"
      (Bitset.cardinal t.all_occs) t.occ_count;
  for pos = 0 to positions - 1 do
    let class_label = Graph.node_label t.class_graph pos in
    (* expected OIE cardinalities and graph counts per covered ancestor
       label; [maps] is in graph order, so a new graph shows as a new id *)
    let expected = Hashtbl.create 16 in
    List.iter
      (fun (gid, map) ->
        let g = Db.get original gid in
        let original_label = Graph.node_label g map.(pos) in
        Bitset.iter
          (fun anc ->
            if anc = class_label || keep_label anc then begin
              let e =
                match Hashtbl.find_opt expected anc with
                | Some e -> e
                | None ->
                  let e = { occs = 0; graphs = 0; last = -1 } in
                  Hashtbl.add expected anc e;
                  e
              in
              e.occs <- e.occs + 1;
              if e.last <> gid then begin
                e.last <- gid;
                e.graphs <- e.graphs + 1
              end
            end)
          (Taxonomy.ancestor_set taxonomy original_label))
      maps;
    (* a threshold leaves out every label but the class label spanning
       fewer graphs *)
    let wanted l e = l = class_label || e.graphs >= min_support in
    let table = t.entries.(pos) in
    Hashtbl.iter
      (fun l set ->
        match Hashtbl.find_opt expected l with
        | None ->
          add "position %d: label %s indexed but covers no embedding" pos
            (lname l)
        | Some e when not (wanted l e) ->
          add "position %d: label %s indexed but spans %d graphs, below %d"
            pos (lname l) e.graphs min_support
        | Some e ->
          if e.occs <> Bitset.cardinal set then
            add "position %d, label %s: OcS cardinality %d but %d embeddings"
              pos (lname l) (Bitset.cardinal set) e.occs)
      table;
    Hashtbl.iter
      (fun l e ->
        if wanted l e && not (Hashtbl.mem table l) then
          add "position %d: label %s covered by %d embeddings missing from OIE"
            pos (lname l) e.occs)
      expected;
    (* a specialization's occurrence set is contained in its ancestors' *)
    Hashtbl.iter
      (fun l set ->
        Hashtbl.iter
          (fun l' set' ->
            if l <> l'
               && Taxonomy.is_ancestor taxonomy ~anc:l' l
               && not (Bitset.subset set set')
            then
              add "position %d: OcS(%s) not within OcS(ancestor %s)" pos
                (lname l) (lname l'))
          table)
      table
  done;
  List.rev !issues

(* keep the debug-mode brute-force cross-check affordable *)
let debug_check_max_occs = 2_000

let debug_check_max_db = 500

let build ~taxonomy ~original ?keep_label ?ancestors ?(min_support = 0)
    (p : Gspan.pattern) =
  Tsg_util.Fault.inject "occ_index.build";
  let { keep_label; kept } =
    match (ancestors, keep_label) with
    | Some a, None -> a
    | None, keep_label ->
      derived_ancestors ~taxonomy
        ~keep_label:(Option.value keep_label ~default:keep_all)
    | Some _, Some _ ->
      invalid_arg "Occ_index.build: pass ~keep_label or ~ancestors, not both"
  in
  let positions = Graph.node_count p.graph in
  let embeddings = Array.of_list p.embeddings in
  let in_graph_order = ref true in
  for i = 1 to Array.length embeddings - 1 do
    if embeddings.(i - 1).Gspan.graph_id > embeddings.(i).Gspan.graph_id then
      in_graph_order := false
  done;
  if not !in_graph_order then
    Array.stable_sort
      (fun (a : Gspan.embedding) b -> compare a.graph_id b.graph_id)
      embeddings;
  let occ_count = Array.length embeddings in
  let occ_gid = Array.map (fun e -> e.Gspan.graph_id) embeddings in
  (* the last occurrence of each graph closes that graph's run *)
  let run_end = Bitset.create occ_count in
  for o = 0 to occ_count - 1 do
    if o = occ_count - 1 || occ_gid.(o + 1) <> occ_gid.(o) then
      Bitset.set run_end o
  done;
  (* one occurrence set per label, in a dense slot array allocated once:
     a position fills the slots of the labels it covers, moves those
     spanning at least [min_support] graphs (and the class label) into its
     table and clears only the touched slots for the next position *)
  let slots = Array.make (Taxonomy.label_count taxonomy) None in
  let entries =
    Array.init positions (fun pos ->
        let class_label = Graph.node_label p.graph pos in
        let touched = ref [] in
        Array.iteri
          (fun occ (e : Gspan.embedding) ->
            let original_label =
              Graph.node_label (Db.get original e.graph_id) e.map.(pos)
            in
            Array.iter
              (fun anc ->
                match slots.(anc) with
                | Some set -> Bitset.set set occ
                | None ->
                  let set = Bitset.create occ_count in
                  Bitset.set set occ;
                  slots.(anc) <- Some set;
                  touched := anc :: !touched)
              kept.(original_label))
          embeddings;
        let table = Hashtbl.create (List.length !touched) in
        List.iter
          (fun l ->
            let set = Option.get slots.(l) in
            slots.(l) <- None;
            if
              l = class_label
              || min_support <= 1
              || Bitset.run_count set ~ends:run_end >= min_support
            then Hashtbl.add table l set)
          !touched;
        table)
  in
  let all_occs = Bitset.full occ_count in
  let t =
    {
      class_graph = p.graph;
      class_support_set = Bitset.copy p.support_set;
      occ_count;
      occ_gid;
      entries;
      all_occs;
      db_size = Db.size original;
      run_end;
    }
  in
  if
    Tsg_util.Debug.checks_enabled ()
    && occ_count <= debug_check_max_occs
    && Db.size original <= debug_check_max_db
  then begin
    match self_check ~taxonomy ~original ~keep_label ~min_support t with
    | [] -> ()
    | issues ->
      failwith ("Occ_index.self_check: " ^ String.concat "; " issues)
  end;
  t

let occurrence_set t ~position label =
  Hashtbl.find_opt t.entries.(position) label

let covered_labels t ~position =
  Hashtbl.fold (fun l _ acc -> l :: acc) t.entries.(position) []
  |> List.sort compare

let check_capacity t occs =
  if Bitset.capacity occs <> t.occ_count then
    invalid_arg "Occ_index: occurrence set of another index"

let distinct_graph_count t occs =
  check_capacity t occs;
  Bitset.run_count occs ~ends:t.run_end

let inter_graph_count t a b =
  check_capacity t a;
  Bitset.inter_run_count a b ~ends:t.run_end

let graph_set t occs =
  check_capacity t occs;
  let hits = Bitset.create t.occ_count in
  Bitset.run_ends_into ~dst:hits occs ~ends:t.run_end;
  let set = Bitset.create t.db_size in
  Bitset.iter (fun o -> Bitset.set set t.occ_gid.(o)) hits;
  set

type size = { positions : int; entries : int; set_members : int }

let size (t : t) =
  let entries = ref 0 and set_members = ref 0 in
  Array.iter
    (fun table ->
      entries := !entries + Hashtbl.length table;
      Hashtbl.iter (fun _ s -> set_members := !set_members + Bitset.cardinal s)
        table)
    t.entries;
  {
    positions = Array.length t.entries;
    entries = !entries;
    set_members = !set_members;
  }
