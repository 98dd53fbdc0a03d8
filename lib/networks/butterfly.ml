module G = Bfly_graph.Graph
module Perm = Bfly_graph.Perm

type t = { log_n : int; n : int; graph : G.t }

let build_graph log_n =
  let n = 1 lsl log_n in
  let node ~col ~level = (level * n) + col in
  let edges = ref [] in
  for i = 0 to log_n - 1 do
    let mask = 1 lsl (log_n - i - 1) in
    for w = 0 to n - 1 do
      edges := (node ~col:w ~level:i, node ~col:w ~level:(i + 1)) :: !edges;
      edges :=
        (node ~col:w ~level:i, node ~col:(w lxor mask) ~level:(i + 1)) :: !edges
    done
  done;
  G.of_edge_list ~n:(n * (log_n + 1)) !edges

let create ~log_n =
  if log_n < 0 then invalid_arg "Butterfly.create: negative dimension";
  { log_n; n = 1 lsl log_n; graph = build_graph log_n }

(* A bit test, not a doubling loop: doubling toward an [n] above 2^61
   overflows to 0 and never terminates. *)
let log2_exact n =
  if n > 0 && n land (n - 1) = 0 then begin
    let rec go l v = if v = 1 then l else go (l + 1) (v lsr 1) in
    Some (go 0 n)
  end
  else None

let of_inputs n =
  match log2_exact n with
  | Some log_n -> create ~log_n
  | None -> invalid_arg "Butterfly.of_inputs: not a power of two"

let log_n t = t.log_n
let n t = t.n
let size t = t.n * (t.log_n + 1)
let levels t = t.log_n + 1
let graph t = t.graph

let node t ~col ~level =
  assert (col >= 0 && col < t.n && level >= 0 && level <= t.log_n);
  (level * t.n) + col

let col_of t idx = idx mod t.n
let level_of t idx = idx / t.n
let cross_mask t i = 1 lsl (t.log_n - i - 1)

let level_nodes t i = List.init t.n (fun w -> node t ~col:w ~level:i)
let column_nodes t w = List.init (levels t) (fun i -> node t ~col:w ~level:i)
let inputs t = level_nodes t 0
let outputs t = level_nodes t t.log_n

let monotone_path t ~input_col ~output_col =
  (* descend level by level; at boundary i choose the cross edge exactly when
     input and output columns differ in bit position i+1 *)
  let rec go i col acc =
    if i > t.log_n then List.rev acc
    else begin
      let next_col =
        if i = t.log_n then col
        else begin
          let mask = cross_mask t i in
          if (input_col lxor output_col) land mask <> 0 then col lxor mask else col
        end
      in
      go (i + 1) next_col (node t ~col ~level:i :: acc)
    end
  in
  go 0 input_col []

(* [component_class t ~lo ~hi w] identifies the connected component of
   [B_n[lo,hi]] (the subgraph induced by levels lo..hi) containing column
   [w]: components are classes of columns agreeing outside the bit window
   flipped by levels lo+1..hi (Lemma 2.4). Classes are densely numbered in
   [0, n / 2^(hi-lo)). *)
let component_class t ~lo ~hi w =
  assert (0 <= lo && lo <= hi && hi <= t.log_n);
  let low_bits = t.log_n - hi in
  let top = w lsr (t.log_n - lo) in
  let bottom = w land ((1 lsl low_bits) - 1) in
  (top lsl low_bits) lor bottom

let component_count t ~lo ~hi = t.n lsr (hi - lo)

let component_nodes t ~lo ~hi cls =
  let out = ref [] in
  for w = t.n - 1 downto 0 do
    if component_class t ~lo ~hi w = cls then
      for level = hi downto lo do
        out := node t ~col:w ~level :: !out
      done
  done;
  !out

let bit_reverse log_n w =
  let r = ref 0 in
  for b = 0 to log_n - 1 do
    if w land (1 lsl b) <> 0 then r := !r lor (1 lsl (log_n - 1 - b))
  done;
  !r

let reversal_automorphism t =
  Perm.of_array
    (Array.init (size t) (fun idx ->
         let w = col_of t idx and i = level_of t idx in
         node t ~col:(bit_reverse t.log_n w) ~level:(t.log_n - i)))

let column_xor_automorphism t c =
  assert (c >= 0 && c < t.n);
  Perm.of_array
    (Array.init (size t) (fun idx ->
         let w = col_of t idx and i = level_of t idx in
         node t ~col:(w lxor c) ~level:i))

let theoretical_diameter t =
  assert (t.log_n >= 1);
  2 * t.log_n

let sub_butterfly_nodes t ~top_level ~dim ~col =
  let lo = top_level and hi = top_level + dim in
  assert (0 <= lo && hi <= t.log_n);
  component_nodes t ~lo ~hi (component_class t ~lo ~hi col)

let label t idx =
  let w = col_of t idx and i = level_of t idx in
  let bits = String.init t.log_n (fun b ->
      if w land (1 lsl (t.log_n - 1 - b)) <> 0 then '1' else '0')
  in
  Printf.sprintf "<%s,%d>" (if t.log_n = 0 then "·" else bits) i
