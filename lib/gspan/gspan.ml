module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Bitset = Tsg_util.Bitset

type embedding = { graph_id : int; map : int array }

type pattern = {
  code : Dfs_code.t;
  graph : Tsg_graph.Graph.t;
  support_set : Bitset.t;
  support : int;
  embeddings : embedding list;
}

let support_of_embeddings db embs =
  let set = Bitset.create (Db.size db) in
  List.iter (fun e -> Bitset.set set e.graph_id) embs;
  set

let single_edge_seeds db =
  let table = Hashtbl.create 256 in
  Db.iteri
    (fun gid g ->
      Array.iter
        (fun (u, v, le) ->
          let lu = Graph.node_label g u and lv = Graph.node_label g v in
          let orientations =
            if lu < lv then [ (u, v, lu, lv) ]
            else if lv < lu then [ (v, u, lv, lu) ]
            else [ (u, v, lu, lv); (v, u, lv, lu) ]
          in
          List.iter
            (fun (a, b, la, lb) ->
              let key = (la, le, lb) in
              let emb = { graph_id = gid; map = [| a; b |] } in
              let existing =
                Option.value ~default:[] (Hashtbl.find_opt table key)
              in
              Hashtbl.replace table key (emb :: existing))
            orientations)
        (Graph.edges g))
    db;
  Hashtbl.fold (fun key embs acc -> (key, List.rev embs) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Candidate extensions are keyed by one int packing (slot, edge label,
   to-label), with the database's label bounds as radixes. A backward
   extension's slot is its target's DFS index, a forward one's is [n] plus
   its anchor's, so a slot is below twice the largest graph's node count.
   Every edge of [db] is in some seed, so the seed keys bound its labels. *)
type radix = { node_labels : int; edge_labels : int }

let radix_of db seeds =
  let nl, el =
    List.fold_left
      (fun (nl, el) ((la, le, lb), _) ->
        (* [la <= lb]: the seed orientation *)
        if min la le < 0 then
          invalid_arg "Gspan.mine: labels must be non-negative";
        (max nl (lb + 1), max el (le + 1)))
      (1, 1) seeds
  in
  if nl > max_int / el / max 1 (2 * Db.max_graph_nodes db) then
    invalid_arg "Gspan.mine: label ids too large";
  { node_labels = nl; edge_labels = el }

let pack radix slot le lto =
  (((slot * radix.edge_labels) + le) * radix.node_labels) + lto

module Int_tbl = Hashtbl.Make (Int)

(* A candidate's distinct-graph count; [survivor] is set, between the
   counting and the building pass, on the few that are frequent and
   minimal. *)
type candidate = {
  mutable count : int;
  mutable last_gid : int;
  mutable survivor : survivor option;
}

and survivor = {
  ext_code : Dfs_code.t;
  set : Bitset.t;
  mutable embs : embedding list;  (** reversed *)
}

let rec index_of map w j =
  if j = Array.length map then -1
  else if map.(j) = w then j
  else index_of map w (j + 1)

(* [visit key emb w] for each candidate extension of each embedding, [w]
   being the new node of a forward extension and [-1] for a backward one.
   A candidate meets the embeddings in list order and, within one, the
   neighbors of its anchor in adjacency order: the order its extended
   embeddings are listed in. *)
let iter_candidates db radix ~labels ~rpath ~is_back embeddings visit =
  let n = Array.length labels in
  List.iter
    (fun emb ->
      let g = Db.get db emb.graph_id and map = emb.map in
      for k = 0 to Array.length rpath - 1 do
        let i = rpath.(k) in
        let nbrs = Graph.neighbors g map.(i) in
        for t = 0 to Array.length nbrs - 1 do
          let w, le = nbrs.(t) in
          let j = index_of map w 0 in
          if j < 0 then
            visit (pack radix (n + i) le (Graph.node_label g w)) emb w
          else if k = 0 && is_back.(j) then
            visit (pack radix j le labels.(j)) emb (-1)
        done
      done)
    embeddings

(* The frequent, minimal one-edge extensions of [code], sorted by
   [Dfs_code.compare_edge]: count first, build later. Pass 1 counts each
   candidate's distinct graphs (embeddings come in non-decreasing graph
   id order, so comparing with the last graph id counted is exact) and
   allocates only one table entry per candidate. Only the survivors'
   extended embeddings and support sets are built, in pass 2. *)
let extensions ~min_support radix db code embeddings =
  let n = Dfs_code.node_count code in
  let labels = Array.make n 0 in
  Array.iter
    (fun (e : Dfs_code.edge) ->
      labels.(e.from_i) <- e.from_label;
      labels.(e.to_i) <- e.to_label)
    code;
  let rpath = Array.of_list (Dfs_code.rightmost_path code) in
  let r = rpath.(0) in
  let is_back = Array.make n false in
  Array.iter
    (fun i -> is_back.(i) <- i <> r && not (Dfs_code.has_edge code r i))
    rpath;
  let iter = iter_candidates db radix ~labels ~rpath ~is_back embeddings in
  let table = Int_tbl.create 64 in
  iter (fun key emb _ ->
      let gid = emb.graph_id in
      match Int_tbl.find table key with
      | c ->
        if c.last_gid <> gid then begin
          c.last_gid <- gid;
          c.count <- c.count + 1
        end
      | exception Not_found ->
        Int_tbl.add table key { count = 1; last_gid = gid; survivor = None });
  let edge_of key =
    let lto = key mod radix.node_labels
    and rest = key / radix.node_labels in
    let le = rest mod radix.edge_labels
    and slot = rest / radix.edge_labels in
    let from_i, to_i = if slot < n then (r, slot) else (slot - n, n) in
    {
      Dfs_code.from_i;
      to_i;
      from_label = labels.(from_i);
      edge_label = le;
      to_label = lto;
    }
  in
  let survivors =
    Int_tbl.fold
      (fun key c acc ->
        if c.count < min_support then acc
        else
          let code' = Array.append code [| edge_of key |] in
          if not (Min_code.is_min code') then acc
          else begin
            let set = Bitset.create (Db.size db) in
            let s = { ext_code = code'; set; embs = [] } in
            c.survivor <- Some s;
            s :: acc
          end)
      table []
  in
  if survivors <> [] then
    iter (fun key emb w ->
        match (Int_tbl.find table key).survivor with
        | None -> ()
        | Some s ->
          Bitset.set s.set emb.graph_id;
          let emb' =
            if w < 0 then emb
            else { emb with map = Array.append emb.map [| w |] }
          in
          s.embs <- emb' :: s.embs);
  let last = Array.length code in
  List.sort
    (fun a b -> Dfs_code.compare_edge a.ext_code.(last) b.ext_code.(last))
    survivors

(* explore one seed's rightmost-path extension subtree; [grow] is only
   entered with a frequent, minimal code *)
let explore_subtree ~max_edges ~min_support radix db root_edge root_embs
    root_set report =
  let rec grow code embeddings support_set =
    report
      {
        code;
        graph = Dfs_code.to_graph code;
        support_set;
        support = Bitset.cardinal support_set;
        embeddings;
      };
    if Array.length code < max_edges then
      List.iter
        (fun s -> grow s.ext_code (List.rev s.embs) s.set)
        (extensions ~min_support radix db code embeddings)
  in
  grow [| root_edge |] root_embs root_set

let mine_seed_tasks ?max_edges ~min_support db =
  if min_support < 1 then invalid_arg "Gspan.mine: min_support must be >= 1";
  let max_edges = Option.value ~default:max_int max_edges in
  if max_edges < 1 then []
  else
    let seeds = single_edge_seeds db in
    let radix = radix_of db seeds in
    List.filter_map
      (fun ((la, le, lb), embs) ->
        let set = support_of_embeddings db embs in
        if Bitset.cardinal set >= min_support then
          let edge =
            {
              Dfs_code.from_i = 0;
              to_i = 1;
              from_label = la;
              edge_label = le;
              to_label = lb;
            }
          in
          Some
            ( (la, le, lb),
              fun report ->
                explore_subtree ~max_edges ~min_support radix db edge embs set
                  report
            )
        else None)
      seeds

let mine_tasks ?max_edges ~min_support db =
  List.map snd (mine_seed_tasks ?max_edges ~min_support db)

let mine ?max_edges ~min_support db report =
  List.iter (fun task -> task report) (mine_tasks ?max_edges ~min_support db)

let mine_list ?max_edges ~min_support db =
  let acc = ref [] in
  mine ?max_edges ~min_support db (fun p -> acc := p :: !acc);
  List.rev !acc

let frequent_labels ~min_support db =
  let counts = Hashtbl.create 256 in
  Db.iteri
    (fun _ g ->
      List.iter
        (fun l ->
          Hashtbl.replace counts l
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
        (Graph.distinct_node_labels g))
    db;
  Hashtbl.fold
    (fun l c acc -> if c >= min_support then l :: acc else acc)
    counts []
  |> List.sort compare
