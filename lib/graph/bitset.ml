type t = { n : int; words : int array }

let bits_per_word = 63 (* OCaml native ints: use 63 low bits, portable *)

(* Division by 63 as a multiply-shift: ocamlopt does not strength-reduce
   division by a non-power-of-two constant, and the partitioner flip loops
   pay that latency once per neighbor. With M = ceil(2^36 / 63) the excess
   M*63 - 2^36 = 62, so floor(i*M / 2^36) = i/63 for all
   0 <= i <= 2^36/62 > 2^30 (Granlund–Montgomery), and i*M stays well
   under 2^62. test_bitset checks it against [/] and [mod] on [0, 2^30).
   [create] refuses capacities above [max_capacity], so every member —
   and every word count computed below — stays inside the proven range;
   graph node ids are capped at [Graph.max_packed_n] = 2^30 - 1. *)
let word_index i = (i * 1090785346) lsr 36
let bit_index i = i - (bits_per_word * word_index i)

let max_capacity = 1 lsl 30

let create n =
  if n < 0 || n > max_capacity then
    invalid_arg "Bitset.create: capacity outside [0, 2^30]";
  { n; words = Array.make (word_index (n + bits_per_word - 1) + 1) 0 }

let capacity s = s.n
let word_count s = Array.length s.words
let unsafe_words s = s.words

let check s i =
  assert (i >= 0 && i < s.n)

let mem s i =
  check s i;
  s.words.(word_index i) land (1 lsl bit_index i) <> 0

let add s i =
  check s i;
  let w = word_index i in
  s.words.(w) <- s.words.(w) lor (1 lsl bit_index i)

let remove s i =
  check s i;
  let w = word_index i in
  s.words.(w) <- s.words.(w) land lnot (1 lsl bit_index i)

let set s i b = if b then add s i else remove s i

let flip s i =
  check s i;
  let w = word_index i in
  s.words.(w) <- s.words.(w) lxor (1 lsl bit_index i)

(* SWAR popcount over one 63-bit word. Bit 62 is the native sign bit, so the
   0x5555… mask does not fit as a literal (max_int = 0x3FFF…); it is built by
   shifting. All steps are carry-free within their fields, and the final
   byte-sum multiply needs only 7 product bits (count <= 63 < 128), so the
   mod-2^63 arithmetic is exact. *)
let m1 = (0x2AAAAAAAAAAAAAAA lsl 1) lor 1 (* 0x5555555555555555, 63-bit *)
let m2 = 0x3333333333333333
let m4 = 0x0F0F0F0F0F0F0F0F
let h01 = 0x0101010101010101

let popcount_word x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * h01) lsr 56

let cardinal s =
  let words = s.words in
  let acc = ref 0 in
  for i = 0 to Array.length words - 1 do
    acc := !acc + popcount_word (Array.unsafe_get words i)
  done;
  !acc

let inter_cardinal a b =
  assert (a.n = b.n);
  let wa = a.words and wb = b.words in
  let acc = ref 0 in
  for i = 0 to Array.length wa - 1 do
    acc := !acc + popcount_word (Array.unsafe_get wa i land Array.unsafe_get wb i)
  done;
  !acc

let copy s = { s with words = Array.copy s.words }
let clear s = Array.fill s.words 0 (Array.length s.words) 0

(* Restore [dst] to the contents of [src] without allocating; capacities must
   match. Used by the kernel scratch arenas. *)
let blit ~src ~dst =
  assert (src.n = dst.n);
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let fill s =
  let wlast = s.n / bits_per_word and r = s.n mod bits_per_word in
  Array.fill s.words 0 wlast (-1);
  if r > 0 then s.words.(wlast) <- (1 lsl r) - 1

let complement s =
  let c = create s.n in
  let wn = Array.length s.words in
  for i = 0 to wn - 1 do
    c.words.(i) <- lnot s.words.(i)
  done;
  (* re-establish the invariant that bits >= n are zero *)
  let wlast = s.n / bits_per_word and r = s.n mod bits_per_word in
  for i = wlast to wn - 1 do
    c.words.(i) <- 0
  done;
  if r > 0 then c.words.(wlast) <- lnot s.words.(wlast) land ((1 lsl r) - 1);
  c

let zip_words op a b =
  assert (a.n = b.n);
  let r = create a.n in
  Array.iteri (fun i w -> r.words.(i) <- op w b.words.(i)) a.words;
  r

let union a b = zip_words ( lor ) a b
let inter a b = zip_words ( land ) a b
let diff a b = zip_words (fun x y -> x land lnot y) a b

let equal a b =
  assert (a.n = b.n);
  a.words = b.words

let subset a b =
  assert (a.n = b.n);
  let ok = ref true in
  Array.iteri (fun i w -> if w land lnot b.words.(i) <> 0 then ok := false) a.words;
  !ok

let is_empty s = Array.for_all (fun w -> w = 0) s.words

(* Number of trailing zeros of a nonzero word: isolate the lowest set bit and
   popcount the run of ones below it. Branch-free; works for bit 62 because
   [min_int - 1] wraps to [max_int]. *)
let ntz x = popcount_word ((x land -x) - 1)

let iter s f =
  let words = s.words in
  for w = 0 to Array.length words - 1 do
    let word = ref (Array.unsafe_get words w) in
    let base = w * bits_per_word in
    while !word <> 0 do
      let x = !word in
      f (base + ntz x);
      word := x land (x - 1)
    done
  done

let fold s init f =
  let acc = ref init in
  iter s (fun i -> acc := f !acc i);
  !acc

let elements s = List.rev (fold s [] (fun acc i -> i :: acc))

let of_list n l =
  let s = create n in
  List.iter (add s) l;
  s

let choose s =
  let r = ref (-1) in
  (try
     iter s (fun i ->
         r := i;
         raise Exit)
   with Exit -> ());
  if !r < 0 then raise Not_found else !r

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (elements s)
