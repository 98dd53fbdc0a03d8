module G = Bfly_graph.Graph
module Perm = Bfly_graph.Perm

type t = { log_n : int; n : int; graph : G.t }

let build_graph log_n =
  let n = 1 lsl log_n in
  let node ~col ~level = (level * n) + col in
  let edges = ref [] in
  for i = 0 to log_n - 1 do
    let mask = 1 lsl (log_n - i - 1) in
    let next = (i + 1) mod log_n in
    for w = 0 to n - 1 do
      edges := (node ~col:w ~level:i, node ~col:w ~level:next) :: !edges;
      edges :=
        (node ~col:w ~level:i, node ~col:(w lxor mask) ~level:next) :: !edges
    done
  done;
  G.of_edge_list ~n:(n * log_n) !edges

let create ~log_n =
  if log_n < 2 then invalid_arg "Wrapped.create: log_n must be >= 2";
  { log_n; n = 1 lsl log_n; graph = build_graph log_n }

let of_inputs n =
  match Butterfly.log2_exact n with
  | Some log_n when log_n >= 2 -> create ~log_n
  | _ -> invalid_arg "Wrapped.of_inputs: need a power of two with log n >= 2"

let log_n t = t.log_n
let n t = t.n
let size t = t.n * t.log_n
let levels t = t.log_n
let graph t = t.graph

let node t ~col ~level =
  assert (col >= 0 && col < t.n && level >= 0 && level < t.log_n);
  (level * t.n) + col

let col_of t idx = idx mod t.n
let level_of t idx = idx / t.n
let cross_mask t i = 1 lsl (t.log_n - i - 1)
let level_nodes t i = List.init t.n (fun w -> node t ~col:w ~level:i)
let column_nodes t w = List.init t.log_n (fun i -> node t ~col:w ~level:i)

(* rotate the log_n-bit word right by one in bit-index space: bit j moves to
   bit (j-1) mod log_n *)
let rotate_right t w =
  let low = w land 1 in
  (w lsr 1) lor (low lsl (t.log_n - 1))

let rotation_automorphism t =
  Perm.of_array
    (Array.init (size t) (fun idx ->
         let w = col_of t idx and i = level_of t idx in
         node t ~col:(rotate_right t w) ~level:((i + 1) mod t.log_n)))

let column_xor_automorphism t c =
  assert (c >= 0 && c < t.n);
  Perm.of_array
    (Array.init (size t) (fun idx ->
         let w = col_of t idx and i = level_of t idx in
         node t ~col:(w lxor c) ~level:i))

let theoretical_diameter t = 3 * t.log_n / 2

let sub_butterfly_nodes t ~top_level ~dim ~col =
  assert (dim >= 0 && dim < t.log_n);
  assert (top_level >= 0 && top_level < t.log_n);
  (* the window spans boundaries top_level .. top_level+dim-1 (mod log n),
     flipping masks at bit indices log_n-1-(top_level+j) mod log_n; columns in
     the component agree with [col] outside those bit indices *)
  let window_mask = ref 0 in
  for j = 0 to dim - 1 do
    let boundary = (top_level + j) mod t.log_n in
    window_mask := !window_mask lor cross_mask t boundary
  done;
  let fixed = col land lnot !window_mask in
  let cols =
    List.filter
      (fun w -> w land lnot !window_mask = fixed)
      (List.init t.n (fun w -> w))
  in
  List.concat_map
    (fun j ->
      let level = (top_level + j) mod t.log_n in
      List.map (fun w -> node t ~col:w ~level) cols)
    (List.init (dim + 1) (fun j -> j))

let unfold_to_butterfly t =
  let b = Butterfly.create ~log_n:t.log_n in
  let map =
    Array.init (size t) (fun idx ->
        Butterfly.node b ~col:(col_of t idx) ~level:(level_of t idx))
  in
  (b, map)

let label t idx =
  let w = col_of t idx and i = level_of t idx in
  let bits = String.init t.log_n (fun b ->
      if w land (1 lsl (t.log_n - 1 - b)) <> 0 then '1' else '0')
  in
  Printf.sprintf "<%s,%d>" bits i
