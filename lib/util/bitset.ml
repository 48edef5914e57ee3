type t = { mutable words : int array; capacity : int }

let bits_per_word = Sys.int_size

let words_for n = if n = 0 then 0 else (n - 1) / bits_per_word + 1

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make (words_for n) 0; capacity = n }

let capacity t = t.capacity

let word_count t = Array.length t.words

let word t w = t.words.(w)

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

(* Kernighan-style popcount per word; words are at most 63 bits wide. *)
let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

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

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = 0 to bits_per_word - 1 do
        if word land (1 lsl b) <> 0 then f ((w * bits_per_word) + b)
      done
  done

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
  let n = Array.length t.words in
  let rec scan w =
    if w >= n then None
    else if t.words.(w) = 0 then scan (w + 1)
    else
      let word = t.words.(w) in
      let rec bit b =
        if word land (1 lsl b) <> 0 then Some ((w * bits_per_word) + b)
        else bit (b + 1)
      in
      bit 0
  in
  scan 0

let pp ppf t =
  Format.fprintf ppf "@[<hov 1>{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (to_list t)
