(** Embedding-based lower bounds (Section 1.4).

    Given an embedding of a guest [G] into a host [H] with load 1 and
    congestion [c], removing the host edges of a cut disconnects, in [G],
    at most [c] guest edges per host edge; hence
    [BW(H) >= BW(G)/c] and [EE(H,k) >= EE(G,k)/c]. *)

(** [bw_via e ~guest_bw] measures the congestion [c] of [e] and returns
    [⌈guest_bw / c⌉]. The caller must ensure the node map is injective (load 1);
    checked by assertion. *)
val bw_via : Embedding.t -> guest_bw:int -> int

(** [ee_via_kn e ~k] is the lower bound [⌈k(N−k)/c⌉] on [EE(host, k)]
    obtained when the guest is the complete graph [K_N] embedded with
    load 1 (Section 1.4). *)
val ee_via_kn : Embedding.t -> k:int -> int

(** Lemma 3.1's quantitative core: from the [K_{n,n}]-into-[B_n] embedding,
    any cut of [B_n] bisecting its inputs (or outputs, or inputs and
    outputs together) has capacity at least [⌈(n²/2)/c⌉] where [c] is the
    measured congestion — equal to [n] since [c = n/2]. *)
val input_bisection_bound : Bfly_networks.Butterfly.t -> int

(** [wrapped_bw_lower_bound w] is the Lemma 3.2 lower bound [BW(W_n) >= n],
    derived computationally: the wraparound argument reduces any bisection
    of [W_n] to a cut of [B_n] bisecting level 0, bounded by
    {!input_bisection_bound}. *)
val wrapped_bw_lower_bound : Bfly_networks.Wrapped.t -> int

(** [ccc_bw_lower_bound c] is Lemma 3.3's bound [BW(CCC_n) >= n/2]: the
    measured congestion-2 embedding of [W_n] divides
    {!wrapped_bw_lower_bound}. *)
val ccc_bw_lower_bound : Bfly_networks.Ccc.t -> int
