(** The paper's theorems as executable sanity oracles.

    Each check recomputes a proven statement on a concrete instance —
    [BW(W_n) = n] (Lemma 3.2), [BW(CCC_n) = n/2] (Lemma 3.3), the
    Lemma 2.12 level-cut / Lemma 2.13 mesh-of-stars sandwich around
    [BW(B_n)], and the Section 4 [Θ(k/log k)] expansion envelopes — and
    reports a named pass/fail with a human-readable detail string. A
    failure here means a solver and a theorem disagree: one of them is
    wrong, and it is not the theorem. *)

type check = { name : string; ok : bool; detail : string }
(** One named theorem check with a human-readable account of what was
    compared. *)

(** [check_json c] is the [{"name":..,"ok":..,"detail":..}] rendering used
    by [bfly_tool check]. *)
val check_json : check -> Bfly_obs.Json.t

(** {2 Product-network bounds (arXiv:1202.6291)}

    Certified bisection bounds for the data-center fabrics of
    {!Bfly_networks.Fabric}: Cartesian products of paths (meshes), rings
    (tori), and complete graphs (BCube-style Hamming graphs). Each
    function is {e parity-aware}: the even-side formulas are only claimed
    exact when the largest side is even, the all-odd closed forms only
    when every side is odd, and anything uncovered is reported as a lower
    bound with [exact = None] — never as an asserted equality. *)

(** The arithmetic itself lives in {!Bfly_networks.Fabric.bounds} (pure
    spec arithmetic, so the experiment harness can use it below this
    library in the dependency order); this is the same type, re-exported
    where the oracle battery checks it. *)
type product_bound = Bfly_networks.Fabric.bound = {
  lower : int;  (** Certified lower bound on the bisection width. *)
  exact : int option;
      (** The exact bisection width when a theorem covers the instance;
          [None] when only the lower bound is certified. *)
  method_ : string;  (** Which theorem produced the bound. *)
}

(** Bounds for the mesh [P_{a_1} × … × P_{a_d}]. Largest side even:
    exactly [N/a_max] (the planar cut across the longest side is
    optimal). All sides odd: exactly [Σ_{i<d} Π_{j<=i} a_j] with dims
    ascending — e.g. [BW = n + 1] for the odd n×n grid, 13 for the 3×3×3
    mesh (Azizoğlu–Eğecioğlu). Mixed parity with the longest side odd:
    [N/a_max] as a lower bound only (mesh 2×3×3 has BW 9 > 6).
    @raise Invalid_argument on empty dims or sides < 1. *)
val mesh_bounds : dims:int list -> product_bound

(** Bounds for the torus [C_{a_1} × … × C_{a_d}]: exactly twice the mesh
    bound in every covered case ([2N/a_max] even-side, twice the all-odd
    form otherwise — e.g. 26 for the 3×3×3 torus).
    @raise Invalid_argument on empty dims or sides < 3. *)
val torus_bounds : dims:int list -> product_bound

(** Bounds for the Hamming graph [H(levels, ports)] = [K_ports^levels]
    (the BCube-style core). Even [ports]: exactly
    [(ports²/4)·ports^(levels-1)]. [ports = 3]: exactly
    [3^levels - 1] (it {e is} the all-odd torus). Other odd [ports]:
    the spanning-torus lower bound [2·(ports^levels - 1)/(ports - 1)]
    only. *)
val hamming_bounds : ports:int -> levels:int -> product_bound

(** Dispatch on a fabric spec. [Product] specs that are not purely paths
    or purely rings fall back to the spanning-mesh lower bound (every
    factor has a Hamiltonian path, so the same-size mesh is a spanning
    subgraph). *)
val fabric_bounds : Bfly_networks.Fabric.spec -> product_bound

(** [BW(G × K_2) <= min(2·BW(G), |V(G)|)] for even [|V(G)|], and
    [<= |V(G)|] in general (the doubled bisection is unbalanced when
    [|V(G)|] is odd), checked with the exact solver on a small [G]. *)
val product_k2_identity : name:string -> Bfly_graph.Graph.t -> check

(** The product-network battery: sandwiches over representative
    mesh/torus/BCube/mixed-product instances plus the [G × K_2]
    identities; [smoke] keeps only the small instances. *)
val product_networks : smoke:bool -> check list

(** All of the above on the standard small instances; [smoke] restricts to
    the cheapest sizes. Records the [check.bounds] timer. *)
val all : smoke:bool -> check list
