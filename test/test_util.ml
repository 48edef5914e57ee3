module Bitset = Tsg_util.Bitset
module Prng = Tsg_util.Prng
module Stats = Tsg_util.Stats
module Text_table = Tsg_util.Text_table
module Timer = Tsg_util.Timer

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let flt = Alcotest.float 1e-9

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Bitset -------------------------------------------------------------- *)

let test_bitset_basics () =
  let b = Bitset.create 100 in
  check bool "fresh is empty" true (Bitset.is_empty b);
  check int "capacity" 100 (Bitset.capacity b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 64;
  Bitset.set b 99;
  check bool "mem 0" true (Bitset.mem b 0);
  check bool "mem 63" true (Bitset.mem b 63);
  check bool "mem 64" true (Bitset.mem b 64);
  check bool "mem 99" true (Bitset.mem b 99);
  check bool "not mem 1" false (Bitset.mem b 1);
  check int "cardinal" 4 (Bitset.cardinal b);
  Bitset.unset b 63;
  check bool "unset" false (Bitset.mem b 63);
  check int "cardinal after unset" 3 (Bitset.cardinal b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "set out of range" (Invalid_argument
    "Bitset: index 10 out of bounds (capacity 10)") (fun () -> Bitset.set b 10);
  Alcotest.check_raises "negative" (Invalid_argument
    "Bitset: index -1 out of bounds (capacity 10)") (fun () ->
      ignore (Bitset.mem b (-1)))

let test_bitset_zero_capacity () =
  let b = Bitset.create 0 in
  check bool "empty" true (Bitset.is_empty b);
  check int "cardinal" 0 (Bitset.cardinal b);
  check bool "equal itself" true (Bitset.equal b (Bitset.create 0))

let test_bitset_set_ops () =
  let a = Bitset.of_list 10 [ 1; 3; 5; 7 ] in
  let b = Bitset.of_list 10 [ 3; 4; 5; 9 ] in
  check (Alcotest.list int) "inter" [ 3; 5 ] (Bitset.to_list (Bitset.inter a b));
  check (Alcotest.list int) "union" [ 1; 3; 4; 5; 7; 9 ]
    (Bitset.to_list (Bitset.union a b));
  check (Alcotest.list int) "diff" [ 1; 7 ] (Bitset.to_list (Bitset.diff a b));
  check int "inter_cardinal" 2 (Bitset.inter_cardinal a b);
  check bool "subset no" false (Bitset.subset a b);
  check bool "subset yes" true (Bitset.subset (Bitset.of_list 10 [ 3; 5 ]) a);
  check bool "subset self" true (Bitset.subset a a)

let test_bitset_inter_into_aliasing () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] in
  let b = Bitset.of_list 10 [ 2; 3; 4 ] in
  Bitset.inter_into ~dst:a a b;
  check (Alcotest.list int) "dst aliases a" [ 2; 3 ] (Bitset.to_list a)

let test_bitset_copy_independent () =
  let a = Bitset.of_list 10 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.set b 2;
  check bool "copy does not leak" false (Bitset.mem a 2);
  check bool "copy has both" true (Bitset.mem b 1 && Bitset.mem b 2)

let test_bitset_full_clear_choose () =
  let b = Bitset.full 70 in
  check int "full cardinal" 70 (Bitset.cardinal b);
  check (Alcotest.option int) "choose smallest" (Some 0) (Bitset.choose b);
  Bitset.unset b 0;
  check (Alcotest.option int) "choose next" (Some 1) (Bitset.choose b);
  Bitset.clear b;
  check bool "cleared" true (Bitset.is_empty b);
  check (Alcotest.option int) "choose empty" None (Bitset.choose b)

let test_bitset_iter_order () =
  let b = Bitset.of_list 200 [ 150; 3; 64; 127 ] in
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) b;
  check (Alcotest.list int) "ascending" [ 3; 64; 127; 150 ] (List.rev !seen)

let test_bitset_exists_forall () =
  let b = Bitset.of_list 10 [ 2; 4; 6 ] in
  check bool "exists even" true (Bitset.exists (fun i -> i mod 2 = 0) b);
  check bool "exists odd" false (Bitset.exists (fun i -> i mod 2 = 1) b);
  check bool "forall even" true (Bitset.for_all (fun i -> i mod 2 = 0) b);
  check bool "forall >2" false (Bitset.for_all (fun i -> i > 2) b)

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.check_raises "inter mismatch"
    (Invalid_argument "Bitset.inter: capacity mismatch") (fun () ->
      ignore (Bitset.inter a b))

(* model-based property: bitset ops agree with a set-of-ints model *)
module Int_set = Set.Make (Int)

let bitset_model_prop =
  QCheck.Test.make ~name:"bitset agrees with Set model" ~count:200
    QCheck.(pair (list (int_bound 99)) (list (int_bound 99)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      let ma = Int_set.of_list xs and mb = Int_set.of_list ys in
      let eq bs m = Bitset.to_list bs = Int_set.elements m in
      eq (Bitset.inter a b) (Int_set.inter ma mb)
      && eq (Bitset.union a b) (Int_set.union ma mb)
      && eq (Bitset.diff a b) (Int_set.diff ma mb)
      && Bitset.cardinal a = Int_set.cardinal ma
      && Bitset.subset a b = Int_set.subset ma mb
      && Bitset.inter_cardinal a b = Int_set.cardinal (Int_set.inter ma mb))

(* iter, fold, to_list, cardinal (pop-count) must all agree on the same
   population, whatever mix of set/unset produced it *)
let bitset_iteration_consistency_prop =
  QCheck.Test.make ~name:"iter/fold/cardinal agree on population" ~count:300
    QCheck.(pair (int_range 1 130) (list (pair (int_bound 129) bool)))
    (fun (cap, ops) ->
      let b = Bitset.create cap in
      List.iter
        (fun (i, on) ->
          let i = i mod cap in
          if on then Bitset.set b i else Bitset.unset b i)
        ops;
      let via_iter = ref [] in
      Bitset.iter (fun i -> via_iter := i :: !via_iter) b;
      let via_iter = List.rev !via_iter in
      let via_fold = List.rev (Bitset.fold (fun i acc -> i :: acc) b []) in
      let counted = Bitset.fold (fun _ acc -> acc + 1) b 0 in
      via_iter = via_fold
      && via_iter = Bitset.to_list b
      && counted = Bitset.cardinal b
      && List.for_all (Bitset.mem b) via_iter
      && via_iter = List.sort_uniq compare via_iter)

let bitset_popcount_ops_prop =
  QCheck.Test.make ~name:"pop-count distributes over set ops" ~count:300
    QCheck.(pair (list (int_bound 99)) (list (int_bound 99)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      let inter = Bitset.cardinal (Bitset.inter a b) in
      Bitset.inter_cardinal a b = inter
      && Bitset.cardinal (Bitset.union a b)
         = Bitset.cardinal a + Bitset.cardinal b - inter
      && Bitset.cardinal (Bitset.diff a b) = Bitset.cardinal a - inter)

(* --- Bitset word kernels -------------------------------------------------- *)

(* naive references: member-by-member scans over the capacity *)
let scan_members b =
  List.filter (Bitset.mem b) (List.init (Bitset.capacity b) Fun.id)

(* the members of [ends] closing a run that [t] meets, position by position *)
let scan_run_ends t ~ends =
  let hit = ref false and out = ref [] in
  for i = 0 to Bitset.capacity t - 1 do
    if Bitset.mem t i then hit := true;
    if Bitset.mem ends i then begin
      if !hit then out := i :: !out;
      hit := false
    end
  done;
  List.rev !out

(* the Kernighan popcount the SWAR one replaced, over words rebuilt from
   the members *)
let kernighan_cardinal b =
  let w = Sys.int_size in
  let words = Array.make ((Bitset.capacity b + w - 1) / w) 0 in
  List.iter
    (fun i -> words.(i / w) <- words.(i / w) lor (1 lsl (i mod w)))
    (scan_members b);
  let rec pop x acc = if x = 0 then acc else pop (x land (x - 1)) (acc + 1) in
  Array.fold_left (fun acc x -> pop x acc) 0 words

let check_kernels msg t ~ends =
  let expected = scan_run_ends t ~ends in
  let dst = Bitset.create (Bitset.capacity t) in
  Bitset.run_ends_into ~dst t ~ends;
  check int (msg ^ ": run_count") (List.length expected)
    (Bitset.run_count t ~ends);
  check (Alcotest.list int) (msg ^ ": run ends") expected (Bitset.to_list dst);
  check (Alcotest.list int) (msg ^ ": to_list") (scan_members t)
    (Bitset.to_list t);
  check int (msg ^ ": cardinal") (kernighan_cardinal t) (Bitset.cardinal t)

(* the fused kernel against the run ends of the built intersection *)
let check_inter msg t u ~ends =
  let expected = List.length (scan_run_ends (Bitset.inter t u) ~ends) in
  check int (msg ^ ": inter_run_count") expected
    (Bitset.inter_run_count t u ~ends);
  check int (msg ^ ": inter_run_count swapped") expected
    (Bitset.inter_run_count u t ~ends)

let test_bitset_run_kernels () =
  let w = Sys.int_size in
  let of_list = Bitset.of_list in
  check_kernels "capacity 0" (Bitset.create 0) ~ends:(Bitset.create 0);
  (* bit 62 alone makes the word min_int *)
  let top = of_list (2 * w) [ w - 1 ] in
  check int "min_int word cardinal" 1 (Bitset.cardinal top);
  check (Alcotest.list int) "min_int word members" [ w - 1 ]
    (Bitset.to_list top);
  check_kernels "top bit closes its own run" top
    ~ends:(of_list (2 * w) [ w - 1; (2 * w) - 1 ]);
  check_kernels "top bit carries into the next word" top
    ~ends:(of_list (2 * w) [ (2 * w) - 1 ]);
  check_kernels "full words" (Bitset.full (3 * w))
    ~ends:(of_list (3 * w) [ w - 1; w; (3 * w) - 1 ]);
  (* one run over four words: members only at its ends, zero middle words *)
  let n = 4 * w in
  let ends = of_list n [ n - 1 ] in
  check_kernels "four-word run, first word" (of_list n [ 5 ]) ~ends;
  check_kernels "four-word run, both ends" (of_list n [ 5; n - 2 ]) ~ends;
  check int "four-word run counts once" 1
    (Bitset.run_count (of_list n [ 5; 2 * w; n - 1 ]) ~ends);
  (* members after the last end close no run *)
  let ends = of_list 100 [ 10 ] in
  check_kernels "after the last end" (of_list 100 [ 50 ]) ~ends;
  check_kernels "before and after the last end" (of_list 100 [ 5; 50 ]) ~ends;
  check int "no end, no run" 0
    (Bitset.run_count (Bitset.full 100) ~ends:(Bitset.create 100));
  (* dst may alias an operand *)
  let t = of_list 100 [ 3; 40 ] in
  Bitset.run_ends_into ~dst:t t ~ends:(of_list 100 [ 10; 20; 99 ]);
  check (Alcotest.list int) "dst aliases t" [ 10; 99 ] (Bitset.to_list t);
  Alcotest.check_raises "run_count capacity mismatch"
    (Invalid_argument "Bitset.run_count: capacity mismatch") (fun () ->
      ignore (Bitset.run_count (Bitset.create 10) ~ends:(Bitset.create 11)));
  (* the fused count: a run met by each operand but not by both is not
     counted; a run met by both in different words is *)
  let n = 3 * w in
  let ends = of_list n [ w - 1; n - 1 ] in
  check_inter "disjoint within runs" (of_list n [ 1; w + 1 ])
    (of_list n [ 2; w + 2 ]) ~ends;
  check_inter "shared member across words" (of_list n [ 1; (2 * w) + 3 ])
    (of_list n [ (2 * w) + 3 ]) ~ends;
  check_inter "top bit carries" (of_list n [ w - 1; w ]) (of_list n [ w - 1 ])
    ~ends:(of_list n [ n - 1 ]);
  Alcotest.check_raises "inter_run_count capacity mismatch"
    (Invalid_argument "Bitset.inter_run_count: capacity mismatch") (fun () ->
      ignore
        (Bitset.inter_run_count (Bitset.create 10) (Bitset.create 11)
           ~ends:(Bitset.create 10)))

(* capacities at and around word multiples; densities from one end in
   several words (runs longer than a word) to every position an end;
   sometimes the top bit of every word set, sometimes no end after the
   last member *)
let bitset_run_kernels_prop =
  QCheck.Test.make ~name:"run kernels/iter/cardinal = per-bit scans" ~count:500
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.of_int seed in
      let w = Sys.int_size in
      let cap =
        match Prng.int rng 3 with
        | 0 -> w * Prng.int rng 6
        | 1 -> max 0 ((w * Prng.int rng 6) + Prng.int rng 3 - 1)
        | _ -> Prng.int rng (6 * w)
      in
      let pick a = a.(Prng.int rng (Array.length a)) in
      let random density =
        let b = Bitset.create cap in
        for i = 0 to cap - 1 do
          if Prng.float rng 1.0 < density then Bitset.set b i
        done;
        b
      in
      let t = random (pick [| 0.0; 0.01; 0.05; 0.3; 0.8; 1.0 |]) in
      let ends = random (pick [| 0.0; 0.004; 0.02; 0.1; 0.5; 1.0 |]) in
      if Prng.bool rng then
        for i = 0 to cap - 1 do
          if i mod w = w - 1 then
            Bitset.set (if Prng.bool rng then t else ends) i
        done;
      (match List.rev (scan_members t) with
      | last :: _ when Prng.int rng 4 = 0 ->
        for i = last to cap - 1 do
          Bitset.unset ends i
        done
      | _ -> ());
      check_kernels "random" t ~ends;
      check_inter "random" t (random (pick [| 0.0; 0.1; 0.5; 1.0 |])) ~ends;
      true)

(* --- Metrics -------------------------------------------------------------- *)

module Metrics = Tsg_util.Metrics

let test_metrics_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m "requests" in
  check int "starts at zero" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.incr ~n:4 c;
  check int "accumulates" 5 (Metrics.value c);
  let c' = Metrics.counter m "requests" in
  Metrics.incr c';
  check int "same name, same counter" 6 (Metrics.value c);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Metrics.incr ~n:(-1) c)

let test_metrics_hit_rate () =
  let m = Metrics.create () in
  let hits = Metrics.counter m "hits" and misses = Metrics.counter m "misses" in
  check flt "empty is 0" 0.0 (Metrics.hit_rate ~hits ~misses);
  Metrics.incr ~n:3 hits;
  Metrics.incr ~n:1 misses;
  check flt "3/4" 0.75 (Metrics.hit_rate ~hits ~misses)

let test_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "latency" in
  check int "empty count" 0 (Metrics.count h);
  check flt "empty mean" 0.0 (Metrics.mean h);
  check flt "empty percentile" 0.0 (Metrics.percentile h 99.0);
  List.iter (Metrics.observe h) [ 0.001; 0.002; 0.004; 0.1 ];
  check int "count" 4 (Metrics.count h);
  check (Alcotest.float 1e-9) "sum" 0.107 (Metrics.sum h);
  check (Alcotest.float 1e-9) "mean" 0.02675 (Metrics.mean h);
  check flt "max" 0.1 (Metrics.max_value h);
  (* bucket upper bounds: the p50 of {1,2,4,100}ms sits in the 2ms bucket *)
  check flt "p50 bound" 0.002 (Metrics.percentile h 50.0);
  check bool "p100 covers max" true (Metrics.percentile h 100.0 >= 0.1);
  Metrics.observe h (-5.0);
  check int "negative clamps, still counted" 5 (Metrics.count h);
  check flt "clamped to zero" 0.1 (Metrics.max_value h)

let test_metrics_render () =
  let m = Metrics.create () in
  Metrics.incr ~n:7 (Metrics.counter m "cache.hits");
  Metrics.observe (Metrics.histogram m "latency.contains") 0.003;
  let rendered = Metrics.render m in
  check bool "counter row" true (contains rendered "cache.hits");
  check bool "counter value" true (contains rendered "7");
  check bool "histogram row" true (contains rendered "latency.contains")

(* --- Prng ---------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.of_int 1234 and b = Prng.of_int 1234 in
  let seq r = List.init 20 (fun _ -> Prng.int r 1000) in
  check (Alcotest.list int) "same seed same stream" (seq a) (seq b)

let test_prng_different_seeds () =
  let a = Prng.of_int 1 and b = Prng.of_int 2 in
  let seq r = List.init 20 (fun _ -> Prng.int r 1_000_000) in
  check bool "different" true (seq a <> seq b)

let test_prng_split () =
  let parent = Prng.of_int 99 in
  let child = Prng.split parent in
  let a = List.init 10 (fun _ -> Prng.int parent 1000) in
  let b = List.init 10 (fun _ -> Prng.int child 1000) in
  check bool "streams differ" true (a <> b)

let test_prng_copy () =
  let a = Prng.of_int 5 in
  ignore (Prng.int a 10);
  let b = Prng.copy a in
  check int "copy continues identically" (Prng.int a 1000) (Prng.int b 1000)

let test_prng_shuffle_permutation () =
  let rng = Prng.of_int 3 in
  let arr = Array.init 50 (fun i -> i) in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array int) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_sample () =
  let rng = Prng.of_int 8 in
  let arr = Array.init 20 (fun i -> i) in
  let s = Prng.sample rng arr 10 in
  check int "length" 10 (List.length s);
  check int "distinct" 10 (List.length (List.sort_uniq compare s))

let test_prng_degenerate () =
  let rng = Prng.of_int 4 in
  check int "int 1 is 0" 0 (Prng.int rng 1);
  check int "int_in singleton" 7 (Prng.int_in rng 7 7);
  check bool "bernoulli 0" false (Prng.bernoulli rng 0.0);
  check int "geometric p=1" 0 (Prng.geometric rng 1.0);
  Alcotest.check_raises "int 0 rejected"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0))

let prng_bounds_prop =
  QCheck.Test.make ~name:"Prng.int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Prng.of_int seed in
      let x = Prng.int rng n in
      0 <= x && x < n)

let prng_float_prop =
  QCheck.Test.make ~name:"Prng.float within [0,x)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.0))
    (fun (seed, x) ->
      let rng = Prng.of_int seed in
      let f = Prng.float rng x in
      0.0 <= f && f < x)

(* --- Stats --------------------------------------------------------------- *)

let test_stats_mean_median () =
  check flt "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check flt "mean_int" 2.0 (Stats.mean_int [ 1; 2; 3 ]);
  check flt "median odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  check flt "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check bool "mean empty nan" true (Float.is_nan (Stats.mean []));
  check bool "median empty nan" true (Float.is_nan (Stats.median []))

let test_stats_stddev () =
  check flt "constant" 0.0 (Stats.stddev [ 2.0; 2.0; 2.0 ]);
  check (Alcotest.float 1e-6) "known" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_min_max_percentile () =
  let xs = [ 3.0; 1.0; 4.0; 1.5; 9.0 ] in
  check flt "min" 1.0 (Stats.minimum xs);
  check flt "max" 9.0 (Stats.maximum xs);
  check flt "p0" 1.0 (Stats.percentile 0.0 xs);
  check flt "p100" 9.0 (Stats.percentile 100.0 xs);
  check flt "p50 = median elt" 3.0 (Stats.percentile 50.0 xs)

let test_stats_round_to () =
  check flt "2 places" 3.14 (Stats.round_to 2 3.14159);
  check flt "0 places" 3.0 (Stats.round_to 0 3.14159)

(* --- Text_table ---------------------------------------------------------- *)

let test_table_render () =
  let t = Text_table.create [ "name"; "value" ] in
  Text_table.add_row t [ "alpha"; "1" ];
  Text_table.add_row t [ "b"; "22" ];
  let rendered = Text_table.render t in
  check bool "aligned header" true
    (String.length (List.hd (String.split_on_char '\n' rendered)) > 10);
  check bool "contains alpha" true
    (String.length rendered > 0
    && contains rendered "alpha")

let test_table_short_rows_padded () =
  let t = Text_table.create [ "a"; "b"; "c" ] in
  Text_table.add_row t [ "only" ];
  let lines = String.split_on_char '\n' (Text_table.render t) in
  check int "three lines" 3 (List.length lines);
  let widths = List.map String.length lines in
  check bool "all lines same width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_csv () =
  let t = Text_table.create [ "name"; "value" ] in
  Text_table.add_row t [ "plain"; "1" ];
  Text_table.add_row t [ "with,comma"; "say \"hi\"" ];
  let csv = Text_table.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check int "three lines" 3 (List.length lines);
  check Alcotest.string "header" "name,value" (List.nth lines 0);
  check Alcotest.string "plain row" "plain,1" (List.nth lines 1);
  check Alcotest.string "quoted row" "\"with,comma\",\"say \"\"hi\"\"\""
    (List.nth lines 2)

let test_table_int_row () =
  let t = Text_table.create [ "id"; "x"; "y" ] in
  Text_table.add_int_row t "row" [ 10; 20 ];
  check bool "renders ints" true (contains (Text_table.render t) "20")

(* --- Timer --------------------------------------------------------------- *)

let test_timer_budget () =
  check bool "unlimited" false (Timer.Budget.exceeded Timer.Budget.unlimited);
  check bool "unlimited remaining" true
    (Timer.Budget.remaining_s Timer.Budget.unlimited = infinity);
  let b = Timer.Budget.of_seconds (-1.0) in
  check bool "past deadline" true (Timer.Budget.exceeded b);
  check flt "no remaining" 0.0 (Timer.Budget.remaining_s b)

let test_timer_monotone () =
  let t = Timer.start () in
  let a = Timer.elapsed_s t in
  let b = Timer.elapsed_s t in
  check bool "non-negative, monotone" true (a >= 0.0 && b >= a);
  let x, dt = Timer.time (fun () -> 42) in
  check int "time returns value" 42 x;
  check bool "time non-negative" true (dt >= 0.0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "util"
    [
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "zero capacity" `Quick test_bitset_zero_capacity;
          Alcotest.test_case "set ops" `Quick test_bitset_set_ops;
          Alcotest.test_case "inter_into aliasing" `Quick
            test_bitset_inter_into_aliasing;
          Alcotest.test_case "copy independent" `Quick
            test_bitset_copy_independent;
          Alcotest.test_case "full/clear/choose" `Quick
            test_bitset_full_clear_choose;
          Alcotest.test_case "iter order" `Quick test_bitset_iter_order;
          Alcotest.test_case "exists/forall" `Quick test_bitset_exists_forall;
          Alcotest.test_case "capacity mismatch" `Quick
            test_bitset_capacity_mismatch;
          Alcotest.test_case "run kernels" `Quick test_bitset_run_kernels;
        ]
        @ qsuite
            [
              bitset_model_prop;
              bitset_iteration_consistency_prop;
              bitset_popcount_ops_prop;
              bitset_run_kernels_prop;
            ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "hit rate" `Quick test_metrics_hit_rate;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "render" `Quick test_metrics_render;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_different_seeds;
          Alcotest.test_case "split" `Quick test_prng_split;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "shuffle permutes" `Quick
            test_prng_shuffle_permutation;
          Alcotest.test_case "sample distinct" `Quick test_prng_sample;
          Alcotest.test_case "degenerate params" `Quick test_prng_degenerate;
        ]
        @ qsuite [ prng_bounds_prop; prng_float_prop ] );
      ( "stats",
        [
          Alcotest.test_case "mean/median" `Quick test_stats_mean_median;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min/max/percentile" `Quick
            test_stats_min_max_percentile;
          Alcotest.test_case "round_to" `Quick test_stats_round_to;
        ] );
      ( "text_table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "short rows padded" `Quick
            test_table_short_rows_padded;
          Alcotest.test_case "int rows" `Quick test_table_int_row;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
      ( "timer",
        [
          Alcotest.test_case "budget" `Quick test_timer_budget;
          Alcotest.test_case "monotone" `Quick test_timer_monotone;
        ] );
    ]
