(** The [bfly_tool check] entry point: theorem oracles ({!Bounds}), family
    agreement checks (heuristics vs. exact and embedding revalidation on
    the B/W/CCC families), and the random-instance {!Fuzzer}, folded into
    one machine-readable summary.

    The summary is a single JSON object:
    [{"tool":"bfly_check","seed":..,"rounds":..,"smoke":..,
      "families":[{"name":..,"ok":..,"detail":..},...],
      "fuzz":{...,"counterexamples":[...]},"ok":true}]
    and is deterministic for a fixed [(seed, rounds, smoke)]. *)

(** [execute ?chaos ~seed ~rounds ~smoke ()] runs everything. [smoke]
    restricts the bound and family checks to the cheapest instances and
    caps fuzz rounds at 5. With [chaos] (default [false]) the fuzzing
    stage — and only it; the theorem checks stay fault-free — runs inside
    {!Bfly_resil.Fault.scope} with every fault class armed at rate 0.05,
    seeded by [seed]: injected disk errors, cache corruption, worker
    crashes and deadline expiries must not change any oracle verdict nor
    shrink the domain pool. Returns the summary JSON and whether every
    check passed. *)
val execute :
  ?chaos:bool ->
  seed:int ->
  rounds:int ->
  smoke:bool ->
  unit ->
  Bfly_obs.Json.t * bool
