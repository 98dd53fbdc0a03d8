(** Grid (VLSI) layouts of butterflies (Section 1.1–1.2).

    The paper cites the layout area of [B_n] as [(1 ± o(1))n²] and uses
    Thompson's bound [A >= BW(G)²]. This module realizes the classical
    [Θ(n²)] layout concretely — levels as node rows, one horizontal
    routing track per overlapping cross-wire bundle — and measures its
    exact bounding-box area, so the upper construction and the
    Thompson lower bound can be compared numerically (experiment E14).

    The model is the standard Thompson grid: unit-width wires on grid
    tracks, nodes on grid points, at most one wire per track segment.
    Straight edges run vertically in the column's own track; the cross
    edges of boundary [i] are routed on a private block of horizontal
    tracks between the two node rows, one track per wire, using a
    left-edge greedy interval packing (optimal for interval graphs). *)

type t = {
  width : int;  (** grid columns *)
  height : int;  (** grid rows *)
  positions : (int * int) array;  (** node index -> (x, y) *)
  tracks_per_boundary : int array;  (** horizontal tracks used at each level boundary *)
}

(** Bounding-box area, [width · height]. *)
val area : t -> int

(** [butterfly_grid b] lays out [B_n]. *)
val butterfly_grid : Butterfly.t -> t

(** Thompson's lower bound [A >= bw²] for a graph of bisection width [bw]. *)
val thompson_lower_bound : bw:int -> int
