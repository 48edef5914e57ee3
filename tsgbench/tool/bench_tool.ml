(* bench_tool: the in-process half of the tsgbench benchmark.

     bench_tool gen mine <deep|wide> SEED K DIR   K mining inputs
     bench_tool gen serve SEED DIR                taxonomy, db, patterns, query pool
     bench_tool gen ingest SEED COMMITS DIR       forest taxonomy, base corpus, churn plan
     bench_tool queries TAX DB SEED OUT           query pool over any database
     bench_tool replay-mine TAX DB SUPPORT MAXE OUT.pat [SPANS]
     bench_tool replay-query TAX PAT REQUESTS ROUTER S0 S1 SPANS
     bench_tool replay-ingest TAX BASE CHURN ARTIFACT PUSHPORT WAL SPANS
     bench_tool check-support TAX DB PAT SEED N
     bench_tool oracle-contains TAX PAT REQUESTS
     bench_tool oracle-ingest TAX DB SUPPORT MAXE SEQ
     bench_tool calibrate ROUNDS                  host speed probe

   The replay commands call the same public functions the shipped
   binaries call, in the same order, and wrap each call in a span kept in
   memory until the command ends, when spans and counts are written as
   JSON lines. MAXE is a pattern-size cap, 0 for none. Exit code 1 means
   a correctness check failed, 2 a usage error. *)

module Prng = Tsg_util.Prng
module Bitset = Tsg_util.Bitset
module Diagnostic = Tsg_util.Diagnostic
module Metrics = Tsg_util.Metrics
module Arena = Tsg_util.Arena
module Label = Tsg_graph.Label
module Graph = Tsg_graph.Graph
module Serial = Tsg_graph.Serial
module Db = Tsg_graph.Db
module Taxonomy = Tsg_taxonomy.Taxonomy
module Taxonomy_io = Tsg_taxonomy.Taxonomy_io
module Datasets = Tsg_data.Datasets
module Synth_graph = Tsg_data.Synth_graph
module Gen_iso = Tsg_iso.Gen_iso
module Gspan = Tsg_gspan.Gspan
module Relabel = Tsg_core.Relabel
module Occ_index = Tsg_core.Occ_index
module Specialize = Tsg_core.Specialize
module Pattern = Tsg_core.Pattern
module Pattern_io = Tsg_core.Pattern_io
module Taxogram = Tsg_core.Taxogram
module Store = Tsg_query.Store
module Engine = Tsg_query.Engine
module Protocol = Tsg_query.Protocol
module Serve = Tsg_query.Serve
module Epoch = Tsg_query.Epoch
module Merge = Tsg_cluster.Merge
module Replica = Tsg_cluster.Replica
module Shard_map = Tsg_cluster.Shard_map
module Wal = Tsg_pipeline.Wal
module Corpus = Tsg_pipeline.Corpus
module Incremental = Tsg_pipeline.Incremental
module Publish = Tsg_pipeline.Publish

exception Check_failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* ------------------------------------------------------------------ *)
(* spans and counts *)

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  t0 : float;
  t1 : float;
  minor_words : float;  (* allocation inside the span; stage spans only *)
  major_collections : int;
}

let spans = ref []
let counts = ref []
let stack = ref []
let next_id = ref 0

(* [gc] spans also record the minor words allocated and the major
   collections run while they were open *)
let span ?(gc = false) name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let m0 = if gc then Gc.minor_words () else 0.0 in
  let c0 = if gc then (Gc.quick_stat ()).Gc.major_collections else 0 in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      let minor_words = if gc then Gc.minor_words () -. m0 else 0.0 in
      let major_collections =
        if gc then (Gc.quick_stat ()).Gc.major_collections - c0 else 0
      in
      stack := List.tl !stack;
      spans :=
        { id; parent; name; t0; t1; minor_words; major_collections } :: !spans)
    f

let count name v = counts := (name, v) :: !counts

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_trace path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"kind\":\"span\",\"id\":%d,\"parent\":%d,\"name\":%s,\"start\":%.6f,\"end\":%.6f,\"minor_words\":%.0f,\"major_collections\":%d}\n"
            s.id s.parent (json_string s.name) s.t0 s.t1 s.minor_words
            s.major_collections)
        (List.rev !spans);
      List.iter
        (fun (name, v) ->
          Printf.fprintf oc "{\"kind\":\"count\",\"name\":%s,\"value\":%.17g}\n"
            (json_string name) v)
        (List.rev !counts))

(* ------------------------------------------------------------------ *)
(* input generation *)

(* the taxonomies are fixed per workload; the seed drives the graphs, so
   runs with different seeds differ in data, not in taxonomy shape *)
let taxonomy_seed = 20080325

let edge_names n = Label.of_names (List.init n (Printf.sprintf "e%d"))

let save_db path tax edge_labels db =
  Serial.save_db path ~node_labels:(Taxonomy.labels tax) ~edge_labels db

(* Figure 4.5 at depth 12: 1000 concepts, 2000 is-a edges, per-level label
   sampling, TD12 scaled to 240 graphs (at 120 the pattern count varies
   too much from seed to seed for a steady benchmark) *)
let deep_taxonomy () =
  Tsg_taxonomy.Synth_taxonomy.generate (Prng.of_int taxonomy_seed)
    { concepts = 1000; relationships = 2000; depth = 12 }

let deep_db tax rng =
  let spec = Datasets.scale 0.06 (Datasets.td_spec ~depth:12) in
  let sampler = Synth_graph.per_level_labels tax () in
  (Datasets.build rng ~node_label:sampler spec, spec.Datasets.edge_label_count)

(* NC40 over the 800-concept GO stand-in, scaled to 1000 graphs *)
let wide_taxonomy () =
  Tsg_taxonomy.Go_like.generate ~concepts:800 (Prng.of_int taxonomy_seed)

let wide_db tax rng =
  let spec = Datasets.scale 0.25 (List.nth Datasets.nc_series 3) in
  ( Datasets.build rng ~node_label:(Synth_graph.uniform_labels tax) spec,
    spec.Datasets.edge_label_count )

let gen_mine ~kind ~seed ~k ~dir =
  let tax, make =
    match kind with
    | "deep" -> (deep_taxonomy (), deep_db)
    | "wide" -> (wide_taxonomy (), wide_db)
    | _ -> failf "unknown mine workload %s" kind
  in
  Taxonomy_io.save (Filename.concat dir "in.tax") tax;
  let base = Prng.of_int seed in
  for i = 0 to k - 1 do
    let db, n_edge_labels = make tax (Prng.split base) in
    save_db
      (Filename.concat dir (Printf.sprintf "in_%d.db" i))
      tax (edge_names n_edge_labels) db
  done

(* ------------------------------------------------------------------ *)
(* query pool *)

(* a connected subgraph of [g] grown edge by edge from a random edge *)
let sample_subgraph rng g ~edges:want =
  let all = Graph.edges g in
  if Array.length all = 0 then None
  else begin
    let u0, v0, l0 = all.(Prng.int rng (Array.length all)) in
    let chosen = Hashtbl.create 8 in
    let key u v = if u < v then (u, v) else (v, u) in
    Hashtbl.replace chosen (key u0 v0) l0;
    let nodes = Hashtbl.create 8 in
    Hashtbl.replace nodes u0 ();
    Hashtbl.replace nodes v0 ();
    let stuck = ref false in
    while Hashtbl.length chosen < want && not !stuck do
      let frontier =
        Array.of_list
          (Hashtbl.fold
             (fun n () acc ->
               Array.fold_left
                 (fun acc (m, l) ->
                   if Hashtbl.mem chosen (key n m) then acc else (n, m, l) :: acc)
                 acc (Graph.neighbors g n))
             nodes [])
      in
      if Array.length frontier = 0 then stuck := true
      else begin
        Array.sort compare frontier;
        let n, m, l = frontier.(Prng.int rng (Array.length frontier)) in
        Hashtbl.replace chosen (key n m) l;
        Hashtbl.replace nodes m ()
      end
    done;
    let old_nodes = List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) nodes []) in
    let index = Hashtbl.create 8 in
    List.iteri (fun i n -> Hashtbl.replace index n i) old_nodes;
    let labels = Array.of_list (List.map (Graph.node_label g) old_nodes) in
    let edges =
      List.sort compare
        (Hashtbl.fold
           (fun (u, v) l acc -> (Hashtbl.find index u, Hashtbl.find index v, l) :: acc)
           chosen [])
    in
    Some (Graph.build ~labels ~edges)
  end

(* kinds: sub (small connected subgraphs of database graphs), heavy (whole
   database graphs), hot (a small set the load repeats, for the LRU),
   label (by-label spread across taxonomy levels), topk *)
let gen_queries ~tax ~edge_labels ~db ~seed path =
  let rng = Prng.of_int (seed + 17) in
  let names = Taxonomy.labels tax in
  let line g =
    "contains " ^ Protocol.format_graph ~names ~edge_labels g
  in
  let graphs = Array.of_list (Db.to_list db) in
  let pick_graph () = graphs.(Prng.int rng (Array.length graphs)) in
  let rec sub () =
    match sample_subgraph rng (pick_graph ()) ~edges:(1 + Prng.int rng 4) with
    | Some g -> g
    | None -> sub ()
  in
  let out = Buffer.create 65536 in
  let add kind l = Buffer.add_string out (kind ^ "\t" ^ l ^ "\n") in
  (* a pool big enough that fresh subgraph queries rarely repeat: their
     latency is the cold, iso-bound one *)
  for _ = 1 to 2000 do add "sub" (line (sub ())) done;
  for _ = 1 to 16 do add "hot" (line (sub ())) done;
  for _ = 1 to 40 do
    let g = pick_graph () in
    if Graph.edge_count g > 0 && Graph.is_connected g then add "heavy" (line g)
  done;
  (* by-label: a taxonomy level first, then a concept within it, so deep
     and shallow concepts (long and short replies) both appear *)
  let by_level = Hashtbl.create 16 in
  for l = 0 to Taxonomy.label_count tax - 1 do
    if not (Taxonomy.is_artificial tax l) then begin
      let d = Taxonomy.depth tax l in
      Hashtbl.replace by_level d (l :: Option.value ~default:[] (Hashtbl.find_opt by_level d))
    end
  done;
  let levels =
    Array.of_list (List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) by_level []))
  in
  for _ = 1 to 100 do
    let level = Hashtbl.find by_level levels.(Prng.int rng (Array.length levels)) in
    let level = Array.of_list (List.sort compare level) in
    add "label" ("by-label " ^ Taxonomy.name tax level.(Prng.int rng (Array.length level)))
  done;
  List.iter (fun k -> add "topk" (Printf.sprintf "top-k %d support" k)) [ 1; 5; 10; 25; 50; 100 ];
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc out)

let load_inputs tax_path db_path =
  let tax = Taxonomy_io.load tax_path in
  let edge_labels = Label.create () in
  let db =
    Serial.load_db ~node_labels:(Taxonomy.labels tax) ~edge_labels db_path
  in
  (tax, edge_labels, db)

(* ------------------------------------------------------------------ *)
(* mining replay: the calls tsg-mine --domains 1 --save makes *)

(* Taxogram's enhancement (b): keep only ancestor labels frequent enough
   to matter (the same rule as Taxogram's internal label prefilter) *)
let frequent_label_filter taxonomy db ~min_support =
  let n = Taxonomy.label_count taxonomy in
  let counts = Array.make n 0 in
  let stamp = Array.make n (-1) in
  Db.iteri
    (fun gid g ->
      List.iter
        (fun l ->
          Bitset.iter
            (fun anc ->
              if stamp.(anc) <> gid then begin
                stamp.(anc) <- gid;
                counts.(anc) <- counts.(anc) + 1
              end)
            (Taxonomy.ancestor_set taxonomy l))
        (Graph.distinct_node_labels g))
    db;
  fun l -> l >= 0 && l < n && counts.(l) >= min_support

let same_size_pairs patterns =
  let h = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let k = (Pattern.node_count p, Pattern.edge_count p) in
      Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)))
    patterns;
  Hashtbl.fold (fun _ c acc -> acc + (c * (c - 1) / 2)) h 0

let replay_mine ~tax_path ~db_path ~support ~max_edges ~out =
  Arena.reset_stats ();
  span "mine.replay" (fun () ->
      let taxonomy, edge_labels, db =
        span ~gc:true "stage.load" (fun () ->
            span "lint.inputs" (fun () ->
                let c = Diagnostic.collector () in
                ignore (Tsg_check.Lint.run c ~taxonomy:tax_path ~dbs:[ db_path ] ());
                if Diagnostic.has_errors c then
                  failf "inputs fail validation: %s" (Diagnostic.summary c));
            let taxonomy = span "taxonomy_io.load" (fun () -> Taxonomy_io.load tax_path) in
            let edge_labels = Label.create () in
            let db =
              span "serial.load_db" (fun () ->
                  Serial.load_db ~node_labels:(Taxonomy.labels taxonomy) ~edge_labels
                    db_path)
            in
            span "check_db.validate" (fun () ->
                let c = Diagnostic.collector () in
                Tsg_check.Check_db.validate c ~taxonomy db;
                if Diagnostic.has_errors c then
                  failf "db fails validation: %s" (Diagnostic.summary c));
            (taxonomy, edge_labels, db))
      in
      let enhancements = Specialize.all_on in
      let stats = Specialize.fresh_stats () in
      let classes = ref 0 and members = ref 0 in
      let found =
        span ~gc:true "stage.mine" (fun () ->
            let relabeled = span "relabel.db" (fun () -> Relabel.db taxonomy db) in
            let min_support = Db.support_count_to_threshold db support in
            let keep_label =
              span "relabel.label_filter" (fun () ->
                  frequent_label_filter taxonomy db ~min_support)
            in
            let seeds =
              span "gspan" (fun () ->
                  Gspan.mine_seed_tasks ?max_edges ~min_support relabeled)
            in
            let found = ref [] in
            List.iter
              (fun (_, subtree) ->
                span "gspan" (fun () ->
                    subtree (fun cp ->
                        incr classes;
                        let oi =
                          span "occ_index.build" (fun () ->
                              Occ_index.build ~taxonomy ~original:db ~keep_label cp)
                        in
                        members := !members + (Occ_index.size oi).Occ_index.set_members;
                        span "specialize.enumerate" (fun () ->
                            Specialize.enumerate ~taxonomy ~min_support ~enhancements
                              ~stats oi (fun p -> found := p :: !found)))))
              seeds;
            !found)
      in
      let sorted =
        span ~gc:true "stage.sort" (fun () ->
            let canonical = span "pattern.sort" (fun () -> Pattern.sort found) in
            (* tsg-mine lists highest support first *)
            span "cli.order" (fun () ->
                List.sort
                  (fun (a : Pattern.t) b -> compare b.Pattern.support_count a.Pattern.support_count)
                  canonical))
      in
      span ~gc:true "stage.validate" (fun () ->
          span "check_patterns.validate" (fun () ->
              let c = Diagnostic.collector () in
              Tsg_check.Check_patterns.validate c ~taxonomy
                ~node_labels:(Taxonomy.labels taxonomy) ~db_size:(Db.size db) sorted;
              if Diagnostic.has_errors c then
                failf "pattern set fails validation: %s" (Diagnostic.summary c)));
      span ~gc:true "stage.save" (fun () ->
          span "pattern_io.save" (fun () ->
              Pattern_io.save out ~node_labels:(Taxonomy.labels taxonomy) ~edge_labels
                ~db_size:(Db.size db) sorted));
      let a = Arena.stats () in
      count "gspan.classes" (float_of_int !classes);
      count "occ_index.set_members" (float_of_int !members);
      count "specialize.intersections" (float_of_int stats.Specialize.intersections);
      count "specialize.visited" (float_of_int stats.Specialize.visited);
      count "specialize.emitted" (float_of_int stats.Specialize.emitted);
      count "check_patterns.pairs" (float_of_int (same_size_pairs sorted));
      count "pattern_io.bytes" (float_of_int (Unix.stat out).Unix.st_size);
      count "arena.hits" (float_of_int a.Arena.hits);
      count "arena.misses" (float_of_int a.Arena.misses))

(* ------------------------------------------------------------------ *)
(* serve inputs *)

let gen_serve ~seed ~dir =
  let tax = deep_taxonomy () in
  let db, n_edge_labels = deep_db tax (Prng.split (Prng.of_int seed)) in
  let p name = Filename.concat dir name in
  Taxonomy_io.save (p "serve.tax") tax;
  save_db (p "serve.db") tax (edge_names n_edge_labels) db;
  replay_mine ~tax_path:(p "serve.tax") ~db_path:(p "serve.db") ~support:0.3
    ~max_edges:None ~out:(p "serve.pat");
  let tax, edge_labels, db = load_inputs (p "serve.tax") (p "serve.db") in
  gen_queries ~tax ~edge_labels ~db ~seed (p "queries.tsv")

(* ------------------------------------------------------------------ *)
(* ingest inputs: the bench pipeline experiment's forest shape *)

(* eight independent trees: D_mg relabels every node to its tree root, so
   many roots give the incremental engine a wide root partition for a
   small delta to stay local in *)
let forest () =
  let names = ref [] and is_a = ref [] in
  for t = 0 to 7 do
    let root = Printf.sprintf "f%d" t in
    names := root :: !names;
    for c = 0 to 3 do
      let mid = Printf.sprintf "f%d_%d" t c in
      names := mid :: !names;
      is_a := (mid, root) :: !is_a;
      for l = 0 to 3 do
        let leaf = Printf.sprintf "f%d_%d_%d" t c l in
        names := leaf :: !names;
        is_a := (leaf, mid) :: !is_a
      done
    done
  done;
  Taxonomy.build ~names:(List.rev !names) ~is_a:(List.rev !is_a)

let ingest_base_graphs = 2000
let ingest_support = 0.03
let ingest_max_edges = 5

let gen_ingest ~seed ~commits ~dir =
  let rng = Prng.of_int seed in
  let tax = forest () in
  let sampler = Synth_graph.uniform_labels tax in
  let edge_labels = Label.of_names [ "b0"; "b1"; "b2"; "b3" ] in
  let payload g =
    Serial.db_to_string ~node_labels:(Taxonomy.labels tax) ~edge_labels
      (Db.of_list [ g ])
  in
  let add buf g =
    Buffer.add_string buf "add\n";
    Buffer.add_string buf (payload g);
    Buffer.add_string buf ".\n"
  in
  let big () =
    Synth_graph.generate_graph rng ~max_edges:12 ~edge_density:0.35
      ~edge_label_count:4 ~node_label:sampler
  in
  let small () =
    Synth_graph.generate_graph rng ~max_edges:2 ~edge_density:0.5
      ~edge_label_count:4 ~node_label:sampler
  in
  let seq = ref 0 in
  let live = ref [] in
  let base = Buffer.create (1 lsl 16) in
  let base_graphs =
    List.init ingest_base_graphs (fun _ ->
        let g = big () in
        add base g;
        incr seq;
        g)
  in
  for _ = 1 to 4 do
    add base (small ());
    incr seq;
    live := !live @ [ !seq ]
  done;
  (* each commit retires two live churn graphs and adds two fresh ones,
     so the corpus size, and with it the absolute support, stays put *)
  let churn = Buffer.create (1 lsl 16) in
  for _ = 1 to commits do
    for _ = 1 to 2 do
      let i = Prng.int rng (List.length !live) in
      let victim = List.nth !live i in
      live := List.filter (fun s -> s <> victim) !live;
      Buffer.add_string churn (Printf.sprintf "remove %d\n" victim);
      incr seq
    done;
    for _ = 1 to 2 do
      add churn (small ());
      incr seq;
      live := !live @ [ !seq ]
    done;
    Buffer.add_string churn "commit\n"
  done;
  let p name = Filename.concat dir name in
  Taxonomy_io.save (p "ingest.tax") tax;
  let write name buf =
    Out_channel.with_open_bin (p name) (fun oc -> Buffer.output_buffer oc buf)
  in
  write "base.delta" base;
  (* the base corpus as a database too, for the traced mining replay *)
  save_db (p "base.db") tax edge_labels (Db.of_list base_graphs);
  write "churn.delta" churn;
  Out_channel.with_open_bin (p "live.pat") (fun _ -> ())

(* ------------------------------------------------------------------ *)
(* query replay: the calls tsg-serve and tsg-router make per request *)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let replay_query ~tax_path ~pat_path ~requests ~router ~shard0 ~shard1 =
  let taxonomy = Taxonomy_io.load tax_path in
  let edge_labels = Label.create () in
  let store =
    span "store.load" (fun () -> Store.load ~taxonomy ~edge_labels [ pat_path ])
  in
  let metrics = Metrics.create () in
  let engine = Engine.create ~metrics store in
  let hits = Metrics.counter metrics "cache.hits" in
  (* the two shards exactly as tsg-serve --shard i/2 slices them *)
  let map = Shard_map.create ~shards:2 () in
  let shard_engine i =
    let s =
      Store.slice store ~keep:(fun idx ->
          Shard_map.shard_of_key map (Pattern.key (Store.pattern store idx)) = i)
    in
    Engine.create ~metrics:(Metrics.create ()) s
  in
  let shards = [ shard_engine 0; shard_engine 1 ] in
  let replica port name =
    Replica.create ~host:Unix.inet_addr_loopback ~port ~name ()
  in
  let r_router = replica router "router" in
  let r_shards = [ replica shard0 "shard0"; replica shard1 "shard1" ] in
  let size = float_of_int (Store.size store) in
  let cands_total = ref 0 and answers_total = ref 0 in
  let mismatches = ref 0 in
  let lines = read_lines requests in
  List.iteri
    (fun i line ->
      let q =
        span "protocol.parse" (fun () ->
            Protocol.parse ~taxonomy ~edge_labels line)
      in
      let q = match q with Some q -> q | None -> failf "empty request %S" line in
      (match q with
      | Protocol.Contains g ->
        ignore (span "engine.cache_key" (fun () -> Engine.cache_key g));
        let cands = span "store.candidates" (fun () -> Store.candidates store g) in
        let answers =
          span "gen_iso.tests" (fun () ->
              Bitset.fold
                (fun idx acc ->
                  let pattern = (Store.pattern store idx).Pattern.graph in
                  if Gen_iso.subgraph_isomorphic taxonomy ~pattern ~target:g then acc + 1
                  else acc)
                cands 0)
        in
        let n_cands = Bitset.cardinal cands in
        cands_total := !cands_total + n_cands;
        answers_total := !answers_total + answers;
        count "store.prefilter" (float_of_int n_cands /. size);
        count "gen_iso.tests" (float_of_int n_cands);
        (* the request's own lookup hits only when an earlier request had
           the same canonical key *)
        let before = Metrics.value hits in
        let t0 = Unix.gettimeofday () in
        ignore (Engine.contains engine g);
        let dt = Unix.gettimeofday () -. t0 in
        count
          (if Metrics.value hits > before then "engine.contains_hit_s"
           else "engine.contains_cold_s")
          dt;
        (* the same request again is a cache hit by construction *)
        span "engine.contains_hit" (fun () -> ignore (Engine.contains engine g))
      | Protocol.By_label l ->
        span "engine.by_label" (fun () -> ignore (Engine.by_label engine l))
      | Protocol.Top_k (k, o) ->
        span "engine.top_k" (fun () -> ignore (Engine.top_k engine ~k o))
      | _ -> failf "not a data query: %S" line);
      let single = span "serve.answer" (fun () -> Serve.answer engine q) in
      (match Merge.verb_of_query q with
      | Some verb ->
        let blocks = List.map (fun e -> Serve.answer e q) shards in
        let merged = span "merge.merge" (fun () -> Merge.merge verb blocks) in
        if merged <> single then incr mismatches
      | None -> ());
      (* live round trips on a sample: each shard directly, then the router *)
      if i < 200 then begin
        List.iteri
          (fun k r ->
            match
              span (Printf.sprintf "replica.call.shard%d" k) (fun () -> Replica.call r line)
            with
            | Ok _ -> ()
            | Error msg -> failf "shard %d: %s" k msg)
          r_shards;
        match span "replica.call.router" (fun () -> Replica.call r_router line) with
        | Ok reply ->
          if reply <> single then incr mismatches
        | Error msg -> failf "router: %s" msg
      end)
    lines;
  List.iter Replica.close (r_router :: r_shards);
  count "store.candidate_precision"
    (if !cands_total = 0 then 1.0
     else float_of_int !answers_total /. float_of_int !cands_total);
  if !mismatches > 0 then failf "%d replies differ from the unsharded engine" !mismatches

(* ------------------------------------------------------------------ *)
(* ingest replay: the calls tsg-pipe makes per delta and per commit *)

let parse_deltas path =
  (* blocks of ops, each closed by a commit line *)
  let lines = String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) in
  let rec go blocks cur = function
    | [] -> List.rev (if cur = [] then blocks else List.rev cur :: blocks)
    | "" :: rest -> go blocks cur rest
    | "commit" :: rest -> go (List.rev cur :: blocks) [] rest
    | "add" :: rest ->
      let buf = Buffer.create 256 in
      let rec payload = function
        | "." :: rest -> rest
        | l :: rest ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n';
          payload rest
        | [] -> failf "unterminated add payload in %s" path
      in
      let rest = payload rest in
      go blocks (Wal.Add (Buffer.contents buf) :: cur) rest
    | l :: rest -> (
      match String.split_on_char ' ' l with
      | [ "remove"; s ] -> go blocks (Wal.Remove (Int64.of_string s) :: cur) rest
      | _ -> failf "bad delta line %S" l)
  in
  go [] [] lines

let replay_ingest ~tax_path ~base ~churn ~artifact ~port ~wal_path =
  let taxonomy = Taxonomy_io.load tax_path in
  let config =
    { Taxogram.default_config with min_support = ingest_support;
      max_edges = Some ingest_max_edges }
  in
  let exec = Tsg_util.Pool.Exec.create ~domains:1 () in
  let corpus = Corpus.create ~taxonomy () in
  let engine = Incremental.create ~corpus ~config ~exec () in
  let writer = Wal.open_writer wal_path in
  let host = Unix.inet_addr_loopback in
  let seq = ref 0L in
  let apply ~traced op =
    seq := Int64.add !seq 1L;
    let r = { Wal.seq = !seq; op } in
    let size0 = (Unix.stat wal_path).Unix.st_size in
    let wrap name f = if traced then span name f else f () in
    wrap "wal.append" (fun () -> Wal.append writer r);
    if traced then
      count "wal.bytes" (float_of_int ((Unix.stat wal_path).Unix.st_size - size0));
    match wrap "corpus.apply" (fun () -> Corpus.apply corpus r) with
    | Ok g -> Incremental.mark_dirty engine g
    | Error d -> failf "delta rejected: %s" (Diagnostic.to_string d)
  in
  let commit ~traced =
    let wrap name f = if traced then span name f else f () in
    let stats = wrap "incremental.refresh" (fun () -> Incremental.refresh engine) in
    let previous =
      if Sys.file_exists artifact then Some (In_channel.with_open_bin artifact In_channel.input_all)
      else None
    in
    let text = wrap "publish.render" (fun () -> Incremental.render engine) in
    wrap "safe_io.write" (fun () -> Publish.write artifact text);
    (match wrap "publish.push" (fun () -> Publish.push ~host ~port ~artifact ~previous) with
    | Ok _ -> ()
    | Error d -> failf "push failed: %s" (Diagnostic.to_string d));
    ignore (wrap "epoch.checksum" (fun () -> Epoch.contents_sum [ text ]));
    if traced then begin
      count "incremental.roots_mined" (float_of_int stats.Incremental.roots_mined);
      count "incremental.roots_cached" (float_of_int stats.Incremental.roots_cached);
      count "publish.bytes" (float_of_int (String.length text))
    end
  in
  List.iter
    (fun block ->
      List.iter (apply ~traced:false) block;
      commit ~traced:false)
    (parse_deltas base);
  List.iter
    (fun block ->
      span "ingest.commit" (fun () ->
          List.iter (apply ~traced:true) block;
          commit ~traced:true))
    (parse_deltas churn);
  Wal.close writer

(* ------------------------------------------------------------------ *)
(* oracles *)

let check_support ~tax_path ~db_path ~pat_path ~seed ~n =
  let tax, edge_labels, db = load_inputs tax_path db_path in
  let patterns =
    Array.of_list
      (fst (Pattern_io.load pat_path ~node_labels:(Taxonomy.labels tax) ~edge_labels))
  in
  let rng = Prng.of_int seed in
  let n = min n (Array.length patterns) in
  let bad = ref 0 in
  for _ = 1 to n do
    let p = patterns.(Prng.int rng (Array.length patterns)) in
    let actual = Gen_iso.support_count tax ~pattern:p.Pattern.graph db in
    if actual <> p.Pattern.support_count then incr bad
  done;
  Printf.printf "checked %d mismatches %d\n" n !bad;
  !bad = 0

let oracle_contains ~tax_path ~pat_path ~requests =
  let taxonomy = Taxonomy_io.load tax_path in
  let edge_labels = Label.create () in
  let store = Store.load ~taxonomy ~edge_labels [ pat_path ] in
  let engine = Engine.create ~metrics:(Metrics.create ()) store in
  List.iter
    (fun line ->
      match Protocol.parse ~taxonomy ~edge_labels line with
      | Some (Protocol.Contains g) ->
        let ids = List.sort compare (Engine.contains_brute engine g) in
        print_endline (String.concat " " (List.map (fun i -> string_of_int (Store.external_id store i)) ids))
      | _ -> failf "not a contains query: %S" line)
    (read_lines requests)

let oracle_ingest ~tax_path ~db_path ~support ~max_edges ~seq =
  let tax, edge_labels, db = load_inputs tax_path db_path in
  let config = { Taxogram.default_config with min_support = support; max_edges } in
  let r = Taxogram.run (Taxogram.Spec.collect ~config ~domains:1 ()) tax db in
  let text =
    Publish.render ~epoch_seq:seq ~taxonomy:tax ~edge_labels ~db_size:(Db.size db)
      r.Taxogram.patterns
  in
  Printf.printf "checksum %016Lx patterns %d\n" (Epoch.contents_sum [ text ])
    r.Taxogram.pattern_count

(* ------------------------------------------------------------------ *)
(* host speed probe *)

(* A fixed kernel that uses nothing from the repository's libraries, so no
   change to them can move it: hashing, allocation and sorting over a
   cache-sized working set, then a dependent random walk over a 32 MB
   array, so both a slower core and contended memory show in its time.
   Its time tracks how fast the shared host is running right now. *)
let calibrate ~rounds =
  let size = 1 lsl 22 in
  let table = Array.init size (fun i -> i * 2654435761 land (size - 1)) in
  for _ = 1 to rounds do
    let t0 = Unix.gettimeofday () in
    let h = Hashtbl.create 4096 in
    let l = ref [] in
    for i = 0 to 40_000 do
      let k = i * 7919 land 0xfffff in
      Hashtbl.replace h k i;
      l := (k lxor i) :: !l
    done;
    let sorted = List.sort compare !l in
    let j = ref 0 in
    for _ = 1 to 60_000 do
      j := table.(!j);
      table.(!j) <- (table.(!j) + 1) land (size - 1)
    done;
    ignore (Sys.opaque_identity (sorted, Hashtbl.length h, !j));
    Printf.printf "%.6f\n%!" (Unix.gettimeofday () -. t0)
  done

(* ------------------------------------------------------------------ *)

let max_edges_of s = match int_of_string s with 0 -> None | n -> Some n

let main args =
  match args with
  | [ "gen"; "mine"; kind; seed; k; dir ] ->
    gen_mine ~kind ~seed:(int_of_string seed) ~k:(int_of_string k) ~dir;
    0
  | [ "gen"; "serve"; seed; dir ] ->
    gen_serve ~seed:(int_of_string seed) ~dir;
    0
  | [ "gen"; "ingest"; seed; commits; dir ] ->
    gen_ingest ~seed:(int_of_string seed) ~commits:(int_of_string commits) ~dir;
    0
  | [ "queries"; tax_path; db_path; seed; out ] ->
    let tax, edge_labels, db = load_inputs tax_path db_path in
    gen_queries ~tax ~edge_labels ~db ~seed:(int_of_string seed) out;
    0
  | "replay-mine" :: tax_path :: db_path :: support :: max_edges :: out :: trace ->
    replay_mine ~tax_path ~db_path ~support:(float_of_string support)
      ~max_edges:(max_edges_of max_edges) ~out;
    List.iter write_trace trace;
    0
  | [ "replay-query"; tax_path; pat_path; requests; router; s0; s1; trace ] ->
    Fun.protect
      ~finally:(fun () -> write_trace trace)
      (fun () ->
        replay_query ~tax_path ~pat_path ~requests ~router:(int_of_string router)
          ~shard0:(int_of_string s0) ~shard1:(int_of_string s1));
    0
  | [ "replay-ingest"; tax_path; base; churn; artifact; port; wal_path; trace ] ->
    replay_ingest ~tax_path ~base ~churn ~artifact ~port:(int_of_string port) ~wal_path;
    write_trace trace;
    0
  | [ "check-support"; tax_path; db_path; pat_path; seed; n ] ->
    if check_support ~tax_path ~db_path ~pat_path ~seed:(int_of_string seed)
         ~n:(int_of_string n)
    then 0
    else 1
  | [ "oracle-contains"; tax_path; pat_path; requests ] ->
    oracle_contains ~tax_path ~pat_path ~requests;
    0
  | [ "oracle-ingest"; tax_path; db_path; support; max_edges; seq ] ->
    oracle_ingest ~tax_path ~db_path ~support:(float_of_string support)
      ~max_edges:(max_edges_of max_edges) ~seq:(Int64.of_string seq);
    0
  | [ "calibrate"; rounds ] ->
    calibrate ~rounds:(int_of_string rounds);
    0
  | _ ->
    prerr_endline "bench_tool: bad arguments (see the header of bench_tool.ml)";
    2

let () =
  let code =
    try main (List.tl (Array.to_list Sys.argv)) with
    | Check_failed msg ->
      Printf.eprintf "bench_tool: check failed: %s\n" msg;
      1
  in
  exit code
