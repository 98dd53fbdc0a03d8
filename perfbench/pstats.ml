(* Percentiles, medians and digests shared by the runner and its tests. *)

(* Nearest-rank percentile of an ascending, non-empty array: the sample at
   1-based rank ceil(pct * n / 100). Integer arithmetic keeps the rank
   exact (0.9 *. 10. is 9.000000000000002 in floating point). *)
let rank ~n ~pct = max 1 (min n (((pct * n) + 99) / 100))

let percentile sorted ~pct = sorted.(rank ~n:(Array.length sorted) ~pct - 1)

(* Samples strictly above the percentile's rank. A percentile is only
   reported as a tail figure when at least [min_beyond] samples lie beyond
   it; fewer than that and one outlier moves it. *)
let beyond ~n ~pct = n - rank ~n ~pct

let min_beyond = 10

let reportable ~n ~pct = n > 0 && beyond ~n ~pct >= min_beyond

let sort_floats xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sort_floats xs with
  | [||] -> invalid_arg "Pstats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A percentile taken per window and summarised by the median across
   windows: [samples] are [(t, x)] pairs, window [i] holds the samples with
   [i * width <= t < (i + 1) * width]. One stall (a collection pause, the
   cold start) moves one window's figure, not the result. Returns the
   median, the fewest samples beyond the percentile in any window, and the
   per-window figures in window order. *)
let windowed ~pct ~width samples =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (t, x) ->
      let w = t / width in
      Hashtbl.replace tbl w (x :: Option.value ~default:[] (Hashtbl.find_opt tbl w)))
    samples;
  let per_window =
    Hashtbl.fold
      (fun w xs acc ->
        let a = sort_floats xs in
        let n = Array.length a in
        (w, percentile a ~pct, beyond ~n ~pct) :: acc)
      tbl []
    |> List.sort compare
  in
  match per_window with
  | [] -> invalid_arg "Pstats.windowed: no samples"
  | _ ->
      ( median (List.map (fun (_, v, _) -> v) per_window),
        List.fold_left (fun m (_, _, b) -> min m b) max_int per_window,
        List.map (fun (_, v, _) -> v) per_window )

(* 64-bit FNV-1a over a sequence of strings; each string is followed by a
   0 byte so ["ab"; "c"] and ["a"; "bc"] digest differently. *)
module Fnv = struct
  type t = Int64.t

  let init = 0xcbf29ce484222325L
  let prime = 0x100000001b3L

  let byte h c = Int64.mul (Int64.logxor h (Int64.of_int c)) prime

  let add h s =
    let h = ref h in
    String.iter (fun c -> h := byte !h (Char.code c)) s;
    byte !h 0

  let to_hex h = Printf.sprintf "%016Lx" h
  let of_list ss = to_hex (List.fold_left add init ss)
end
