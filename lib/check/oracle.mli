(** Solver-pair oracles: each runs two independent routes to the same
    quantity on one instance — optimized vs. {!Reference}, parallel vs. the
    sequential engine, heuristic upper bound vs. exact — and validates
    every returned witness through {!Invariants}.

    Oracles are size-guarded: on an instance too large for their reference
    side they return [Skip] rather than burn exponential time, so the
    {!Fuzzer} can throw arbitrary instances at the whole battery.

    Randomized oracles draw {e only} from the supplied [rng]; a fixed seed
    therefore reproduces a run exactly (including at any [BFLY_DOMAINS]
    setting — the solvers are deterministic by construction). Each oracle
    counts its runs and failures under
    [check.oracle.<name>.{runs,failures}] in {!Bfly_obs.Metrics}. *)

type verdict = Pass | Skip of string | Fail of string

type t = {
  name : string;
  run : rng:Random.State.t -> Bfly_graph.Graph.t -> verdict;
}

(** The full battery, in a fixed order. *)
val all : t list
