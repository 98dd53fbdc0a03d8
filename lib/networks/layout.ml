type t = {
  width : int;
  height : int;
  positions : (int * int) array;
  tracks_per_boundary : int array;
}

let area t = t.width * t.height

(* Greedy left-edge packing of intervals onto tracks; optimal (equals the
   maximum overlap) for interval graphs. Intervals are [(lo, hi)] inclusive;
   two intervals sharing an endpoint conflict (the via point is occupied). *)
let pack_intervals intervals =
  let sorted = List.sort compare intervals in
  (* tracks hold the rightmost occupied column per track *)
  let tracks = ref [] in
  let place (lo, hi) =
    let rec go acc = function
      | [] -> List.rev ((hi : int) :: acc) (* new track *)
      | last :: rest when last < lo -> List.rev_append acc (hi :: rest)
      | last :: rest -> go (last :: acc) rest
    in
    tracks := go [] !tracks
  in
  List.iter place sorted;
  List.length !tracks

let butterfly_grid b =
  let n = Butterfly.n b in
  let log_n = Butterfly.log_n b in
  (* a node column plus a private vertical wiring track per column *)
  let width = max 1 (2 * n) in
  let xpos col = 2 * col in
  let tracks_per_boundary =
    Array.init log_n (fun i ->
        let mask = Butterfly.cross_mask b i in
        let intervals = ref [] in
        for w = 0 to n - 1 do
          let w' = w lxor mask in
          intervals := (xpos (min w w'), xpos (max w w')) :: !intervals
        done;
        pack_intervals !intervals)
  in
  (* node rows interleaved with routing blocks *)
  let row_of_level = Array.make (log_n + 1) 0 in
  let y = ref 0 in
  for level = 0 to log_n do
    row_of_level.(level) <- !y;
    incr y;
    if level < log_n then y := !y + tracks_per_boundary.(level)
  done;
  let height = !y in
  let positions =
    Array.init (Butterfly.size b) (fun idx ->
        (xpos (Butterfly.col_of b idx), row_of_level.(Butterfly.level_of b idx)))
  in
  { width; height; positions; tracks_per_boundary }

let thompson_lower_bound ~bw = bw * bw
