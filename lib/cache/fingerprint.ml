type t = int64

(* FNV-1a, 64-bit *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let seed = fnv_offset

(* Every stream below is a plain loop over a local accumulator: no
   closure captures it, so ocamlopt keeps it unboxed and a combinator
   allocates only the one boxed result it returns. *)
let byte (h : t) (b : int) : t =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

(* tags keep differently-typed streams from colliding *)
let tag_int = 0x01
let tag_string = 0x02
let tag_array = 0x03
let tag_bitset = 0x04
let tag_graph = 0x05

let raw_int h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := byte !h ((v lsr (8 * shift)) land 0xff)
  done;
  !h

let int h v = raw_int (byte h tag_int) v

let bytes h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let string h s = bytes (raw_int (byte h tag_string) (String.length s)) s

let int_array h a =
  let h = ref (raw_int (byte h tag_array) (Array.length a)) in
  for i = 0 to Array.length a - 1 do
    let v = Array.unsafe_get a i in
    for shift = 0 to 7 do
      h := byte !h ((v lsr (8 * shift)) land 0xff)
    done
  done;
  !h

(* Word-granularity absorption for the bulk combinators below: one
   xor-multiply per native word instead of eight byte steps. Still FNV-1a
   in shape (and as stable: no [Hashtbl.hash], no [Marshal]), but a
   distinct stream from the byte-fed combinators — [bitset] and [graph]
   feed their type tags through [byte] first, so the two stream kinds
   cannot be confused. *)
let word (h : t) (v : int) : t = Int64.mul (Int64.logxor h (Int64.of_int v)) fnv_prime

let bitset h s =
  let module Bitset = Bfly_graph.Bitset in
  let h = byte h tag_bitset in
  let h = raw_int h (Bitset.capacity s) in
  (* the backing words are canonical for the set (tail bits are zero by
     invariant), so hashing them word-wise is both exact and O(n/63) *)
  let words = Bitset.unsafe_words s in
  let acc = ref h in
  for i = 0 to Bitset.word_count s - 1 do
    acc := word !acc (Array.unsafe_get words i)
  done;
  !acc

(* The graph's edge list is normalized and sorted (the canonical form),
   and its CSR rows are ascending, so the entries v > u of rows
   u = 0, 1, ... are that list in order: fold it in place, with no copy,
   no re-sort and no closure. *)
let graph_stream h g =
  let module G = Bfly_graph.Graph in
  let h = byte h tag_graph in
  let h = raw_int h (G.n_nodes g) in
  let h = raw_int h (G.n_edges g) in
  let offsets = G.csr_offsets g and adj = G.csr_adj g in
  let acc = ref h in
  for u = 0 to G.n_nodes g - 1 do
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let v = Array.unsafe_get adj i in
      if v > u then acc := word (word !acc u) v
    done
  done;
  !acc

(* A graph never changes, so its fingerprint from [seed] — the only
   starting point the cache keys use — is computed once per graph and
   kept in it; any other starting point streams the edges afresh. *)
let from_seed g = graph_stream seed g

let graph h g =
  if Int64.equal h seed then Bfly_graph.Graph.fingerprint g from_seed
  else graph_stream h g

let hex_digits = "0123456789abcdef"

let to_hex h =
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    let nibble = Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) land 15 in
    Bytes.unsafe_set b i (String.unsafe_get hex_digits nibble)
  done;
  Bytes.unsafe_to_string b
