module Graph = Tsg_graph.Graph
module Taxonomy = Tsg_taxonomy.Taxonomy
module Bitset = Tsg_util.Bitset
module Arena = Tsg_util.Arena

type enhancements = {
  child_pruning : bool;
  label_prefilter : bool;
  start_preprocess : bool;
  collapse_equal_children : bool;
}

let all_on =
  {
    child_pruning = true;
    label_prefilter = true;
    start_preprocess = true;
    collapse_equal_children = true;
  }

let all_off =
  {
    child_pruning = false;
    label_prefilter = false;
    start_preprocess = false;
    collapse_equal_children = false;
  }

type stats = {
  mutable intersections : int;
  mutable visited : int;
  mutable emitted : int;
  mutable over_generalized : int;
}

let fresh_stats () =
  { intersections = 0; visited = 0; emitted = 0; over_generalized = 0 }

exception Out_of_time

module Int_tbl = Hashtbl.Make (Int)

(* a covered label at one position: its occurrence set, the set's size and
   the number of distinct graphs it spans *)
type entry = { label : int; set : Bitset.t; card : int; graphs : int }

let enumerate ~taxonomy ~min_support ~enhancements ?stats
    ?(budget = Tsg_util.Timer.Budget.unlimited) (oi : Occ_index.t) emit =
  let stats = Option.value ~default:(fresh_stats ()) stats in
  let positions = Graph.node_count oi.class_graph in
  (* memo key of a (position, label) pair *)
  let label_count = Taxonomy.label_count taxonomy in
  let slot pos l = (pos * label_count) + l in
  let entry l set =
    {
      label = l;
      set;
      card = Bitset.cardinal set;
      graphs = Occ_index.distinct_graph_count oi set;
    }
  in
  let own pos l =
    entry l (Option.get (Occ_index.occurrence_set oi ~position:pos l))
  in
  (* memoized per (position, label), so each child's size and graph count
     are computed once per parent *)
  let children_memo : entry list Int_tbl.t = Int_tbl.create 64 in
  let children pos l =
    let k = slot pos l in
    match Int_tbl.find_opt children_memo k with
    | Some cs -> cs
    | None ->
      let cs =
        List.filter_map
          (fun c ->
            Option.map (entry c)
              (Occ_index.occurrence_set oi ~position:pos c))
          (Taxonomy.children taxonomy l)
      in
      Int_tbl.add children_memo k cs;
      cs
  in
  (* a child's occurrence set lies within its parent's, so the two sets
     are equal exactly when their sizes are *)
  let same_set (e : entry) (c : entry) = c.card = e.card in
  (* (d): a label is collapsed when a child shares its occurrence set — any
     pattern through it is over-generalized, so enumeration skips it and
     exposes its children directly. *)
  let collapsed pos (e : entry) =
    enhancements.collapse_equal_children
    && List.exists (same_set e) (children pos e.label)
  in
  (* (a), applied once per label: a child spanning fewer than [min_support]
     graphs bounds every test against it below [min_support], so no such
     test descends; nor does one match the support of a visited pattern,
     which is at least [min_support] (classes come out of gSpan frequent).
     Its descendants' sets lie within its own, so nothing a collapsed
     child would expose survives either. *)
  let pruned (e : entry) =
    enhancements.child_pruning && e.graphs < min_support
  in
  let effective_memo : entry array Int_tbl.t = Int_tbl.create 64 in
  let effective_children pos l =
    let k = slot pos l in
    match Int_tbl.find_opt effective_memo k with
    | Some cs -> cs
    | None ->
      let seen = Hashtbl.create 8 in
      let out = ref [] in
      let rec go (c : entry) =
        if not (Hashtbl.mem seen c.label) then begin
          Hashtbl.add seen c.label ();
          if pruned c then ()
          else if collapsed pos c then List.iter go (children pos c.label)
          else out := c :: !out
        end
      in
      List.iter go (children pos l);
      let cs = Array.of_list (List.rev !out) in
      Int_tbl.add effective_memo k cs;
      cs
  in
  (* (c): advance a start label [l] to a child [c] with the same occurrence
     set — every pattern through [l] is then over-generalized — but only
     when every covered label strictly below [l] is also below [c], so no
     specialization is lost on a DAG (always true on a tree). A label a
     threshold left out of the index carries only infrequent patterns, so
     it need not be below [c] *)
  let dominates pos ~above c =
    let below = Taxonomy.descendant_set taxonomy above
    and dset = Taxonomy.descendant_set taxonomy c in
    Hashtbl.to_seq_keys oi.entries.(pos)
    |> Seq.for_all (fun x ->
           x = above || (not (Bitset.mem below x)) || Bitset.mem dset x)
  in
  let advance_start pos l =
    if not enhancements.start_preprocess then l
    else begin
      let rec go (e : entry) =
        match
          List.find_opt
            (fun c -> same_set e c && dominates pos ~above:e.label c.label)
            (children pos e.label)
        with
        | Some c -> go c
        | None -> e.label
      in
      go (own pos l)
    end
  in
  let visited : (int array, unit) Hashtbl.t = Hashtbl.create 256 in
  (* automorphic classes (e.g. an a-a edge) reach the same pattern through
     several label vectors; emit one representative per isomorphism class *)
  let emitted_keys : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let emit_pattern labels ocs =
    let graph = Graph.relabel oi.class_graph (fun v -> labels.(v)) in
    let key = Tsg_gspan.Min_code.canonical_key graph in
    if not (Hashtbl.mem emitted_keys key) then begin
      Hashtbl.add emitted_keys key ();
      stats.emitted <- stats.emitted + 1;
      let support_set = Occ_index.graph_set oi ocs in
      emit (Pattern.make ~db_size:oi.db_size graph support_set)
    end
  in
  (* visit: labels/ocs/support describe the current pattern; positions
     before [start] are frozen (the PNS), but the over-generalization check
     still spans all positions. *)
  let rec visit labels ocs support start =
    stats.visited <- stats.visited + 1;
    if
      stats.visited land 1023 = 0
      && Tsg_util.Timer.Budget.exceeded budget
    then raise Out_of_time;
    let over_generalized = ref false in
    (* A candidate's support is counted by a fused intersect-and-count pass
       that builds nothing. Only on descent is the intersection written, into
       one arena scratch per recursion level, and handed to the recursive
       call directly — the child level borrows its own scratch, so ours is
       only overwritten once that call has returned. The steady-state
       allocation rate of this loop (the dominant one in Step 3) is zero. *)
    let scratch = Arena.acquire (Bitset.capacity ocs) in
    for pos = 0 to positions - 1 do
      Array.iter
        (fun (c : entry) ->
          stats.intersections <- stats.intersections + 1;
          let support' = Occ_index.inter_graph_count oi ocs c.set in
          if support' = support then over_generalized := true;
          let descend =
            pos >= start && support' > 0
            && ((not enhancements.child_pruning) || support' >= min_support)
          in
          if descend then begin
            let labels' = Array.copy labels in
            labels'.(pos) <- c.label;
            if not (Hashtbl.mem visited labels') then begin
              Hashtbl.add visited labels' ();
              Bitset.inter_into ~dst:scratch ocs c.set;
              visit labels' scratch support' pos
            end
          end)
        (effective_children pos labels.(pos))
    done;
    Arena.release scratch;
    if !over_generalized then
      stats.over_generalized <- stats.over_generalized + 1
    else if support >= min_support then emit_pattern labels ocs
  in
  let start_labels =
    Array.init positions (fun pos ->
        advance_start pos (Graph.node_label oi.class_graph pos))
  in
  let start_ocs =
    Array.to_seq start_labels
    |> Seq.mapi (fun pos l -> (own pos l).set)
    |> Seq.fold_left
         (fun acc set ->
           match acc with
           | None -> Some (Bitset.copy set)
           | Some a ->
             Bitset.inter_into ~dst:a a set;
             Some a)
         None
  in
  match start_ocs with
  | None -> () (* no positions: cannot happen, classes have >= 1 edge *)
  | Some ocs ->
    let support = Occ_index.distinct_graph_count oi ocs in
    Hashtbl.add visited (Array.copy start_labels) ();
    if support > 0 then visit start_labels ocs support 0
