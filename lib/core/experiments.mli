(** The reproduction harness: one renderer per experiment of DESIGN.md's
    index. Each renderer computes the experiment's data and renders the
    table the paper's claim corresponds to. {!all} lists every one of
    them, in order, by ID; the four below are also exported on their own
    for the tests that call them directly.

    Sizes are chosen so that the whole suite completes in minutes on a
    laptop; the underlying library functions scale further. *)

val e2_mos_convergence : unit -> string
(** Lemmas 2.17–2.19: [BW(MOS_{j,j}, M2)/j² → √2−1]. *)

val e4_ccc_bisection : unit -> string
(** Lemma 3.3: [BW(CCC_n) = n/2]. *)

val e15_io_separation : unit -> string
(** Section 1.2 (after Kruskal–Snir): the directed input/output separation
    of [B_n] is [n/2] — exact by max-flow enumeration at small [n], the
    column construction beyond. *)

val e16_level_bisection : unit -> string
(** Lemma 2.12(1), constructively: random bisections of [B_n] transformed
    into level-bisecting cuts of no greater capacity. *)

val all : (string * (unit -> string)) list
(** [(ID, renderer)] pairs for every experiment — [E1]…[E18], [A1]…[A4],
    [D1], [F1], [F2] — in the order the bench prints them. *)
