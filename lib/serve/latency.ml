type t = {
  ring : int array;
  mutable filled : int;  (** entries of [ring] holding samples *)
  mutable cursor : int;
  mutable total : int;
  mutable max_ns : int;
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Latency.create: capacity must be >= 1";
  { ring = Array.make capacity 0; filled = 0; cursor = 0; total = 0; max_ns = 0 }

let record t ~ns =
  let ns = max 0 ns in
  t.ring.(t.cursor) <- ns;
  t.cursor <- (t.cursor + 1) mod Array.length t.ring;
  if t.filled < Array.length t.ring then t.filled <- t.filled + 1;
  t.total <- t.total + 1;
  if ns > t.max_ns then t.max_ns <- ns

let count t = t.total
let max_ns t = t.max_ns

(* nearest rank: the smallest sample with at least q·n samples at or below
   it, i.e. index ceil(q·n) - 1 of the sorted array *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let q = Float.max 0. (Float.min 1. q) in
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let window t = Array.sub t.ring 0 t.filled

let p t ~q =
  let w = window t in
  Array.sort Int.compare w;
  quantile w q
