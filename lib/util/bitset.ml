type t = { mutable words : int array; capacity : int }

let bits_per_word = Sys.int_size

let words_for n = if n = 0 then 0 else (n - 1) / bits_per_word + 1

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make (words_for n) 0; capacity = n }

let capacity t = t.capacity

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let check t i =
  if i < 0 || i >= t.capacity then
    invalid_arg
      (Printf.sprintf "Bitset: index %d out of bounds (capacity %d)" i
         t.capacity)

let set t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let unset t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

(* SWAR popcount of a 63-bit word: 2-, 4- then 8-bit partial sums, added
   into the top byte by one multiply. The masks stop below bit 62, so every
   constant is a non-negative [int]; bit 62 is a field of its own. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let equal a b =
  a.capacity = b.capacity
  && Array.for_all2 (fun x y -> x = y) a.words b.words

let same_capacity a b op =
  if a.capacity <> b.capacity then
    invalid_arg (Printf.sprintf "Bitset.%s: capacity mismatch" op)

let subset a b =
  same_capacity a b "subset";
  let ok = ref true in
  let n = Array.length a.words in
  let i = ref 0 in
  while !ok && !i < n do
    if a.words.(!i) land lnot b.words.(!i) <> 0 then ok := false;
    incr i
  done;
  !ok

let inter_into ~dst a b =
  same_capacity a b "inter";
  same_capacity dst a "inter";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- a.words.(i) land b.words.(i)
  done

let inter a b =
  let dst = create a.capacity in
  inter_into ~dst a b;
  dst

let inter_cardinal a b =
  same_capacity a b "inter_cardinal";
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(i) land b.words.(i))
  done;
  !acc

let union_into ~dst a b =
  same_capacity a b "union";
  same_capacity dst a "union";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- a.words.(i) lor b.words.(i)
  done

let union a b =
  let dst = create a.capacity in
  union_into ~dst a b;
  dst

let diff a b =
  same_capacity a b "diff";
  let dst = create a.capacity in
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- a.words.(i) land lnot b.words.(i)
  done;
  dst

(* lowest set bit first: [x land (-x)] isolates it, and the number of
   ones below it is its index *)
let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let x = ref t.words.(w) in
    while !x <> 0 do
      let low = !x land (- !x) in
      f ((w * bits_per_word) + popcount (low - 1));
      x := !x lxor low
    done
  done

(* Runs are the blocks of positions closed by a member of [ends]. Per word,
   adding the set's non-end bits [a] to the non-end mask [b] ripples a carry
   from each member up to the end closing its run, which absorbs it, so
   [(s lor x) land h] are the hit ends. The carry out of the top bit (the
   majority of the top bits of [a], [b] and the carry into them, here
   [a lor (b land lnot s)] as [a] lies within [b]) continues a run. The
   scanned set is [t ∩ u], formed a word at a time; [u == t] scans [t]. *)
let run_scan ?dst t u ~ends =
  same_capacity t u "inter_run_count";
  same_capacity t ends "run_count";
  Option.iter (fun d -> same_capacity d t "run_ends_into") dst;
  let count = ref 0 and carry = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    let x = t.words.(w) land u.words.(w) in
    let hits =
      if x lor !carry = 0 then 0
      else begin
        let h = ends.words.(w) in
        let a = x land lnot h and b = lnot h in
        let s = a + b + !carry in
        carry := (a lor (b land lnot s)) lsr (bits_per_word - 1);
        (s lor x) land h
      end
    in
    if hits <> 0 then count := !count + popcount hits;
    match dst with Some d -> d.words.(w) <- hits | None -> ()
  done;
  !count

let run_count t ~ends = run_scan t t ~ends

let inter_run_count a b ~ends = run_scan a b ~ends

let run_ends_into ~dst t ~ends = ignore (run_scan ~dst t t ~ends)

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

exception Found

let exists p t =
  try
    iter (fun i -> if p i then raise Found) t;
    false
  with Found -> true

let for_all p t = not (exists (fun i -> not (p i)) t)

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n members =
  let t = create n in
  List.iter (fun i -> set t i) members;
  t

let full n =
  let t = create n in
  for i = 0 to n - 1 do
    set t i
  done;
  t

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let choose t =
  match Array.find_index (fun x -> x <> 0) t.words with
  | None -> None
  | Some w ->
    let x = t.words.(w) in
    Some ((w * bits_per_word) + popcount ((x land (-x)) - 1))

let pp ppf t =
  Format.fprintf ppf "@[<hov 1>{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (to_list t)
