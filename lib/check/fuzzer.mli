(** Seeded random-instance fuzzing with counterexample shrinking.

    Each round derives an independent RNG from [(seed, round)], draws one
    instance from a mix of generator families (connected random graphs,
    random 3-regular multigraphs, G(n,p), cycles, grids, binary trees) and
    runs the whole {!Oracle} battery on it, each oracle on its own RNG
    derived from [(seed, round, oracle index)]. A failing oracle's
    instance is then {e shrunk}: single-node and single-edge deletions are
    retried greedily (re-running the oracle with its original seed) until
    no smaller instance still fails, and the minimized instance is
    reported with enough seed information to replay it.

    Determinism: same [seed] and [rounds] — same instances, same oracle
    randomness, same summary, at any [BFLY_DOMAINS] setting.

    Metrics: counters [check.fuzz.rounds], [check.fuzz.oracle_runs],
    [check.fuzz.skips], [check.fuzz.failures], [check.fuzz.shrink_attempts],
    [check.fuzz.shrink_steps]; timer [check.fuzz]. *)

(** A minimized failing instance. [seed]/[round]/[oracle] replay it;
    [n]/[edges] are the shrunk graph; [shrink_steps] counts accepted
    shrinking moves from the original instance. *)
type counterexample = {
  oracle : string;
  seed : int;
  round : int;
  instance : string;  (** generator family of the original instance *)
  n : int;
  edges : (int * int) list;
  message : string;
  shrink_steps : int;
}

type summary = {
  seed : int;
  rounds : int;
  oracle_runs : int;
  passed : int;
  skipped : int;
  failed : int;
  chaos : bool;  (** whether this run injected faults *)
  faults_injected : int;  (** faults fired during the run (chaos mode) *)
  crashes_survived : int;
      (** oracle runs that raised an injected fault and were absorbed *)
  pool_stable : bool;
      (** the {!Bfly_graph.Parallel} pool did not shrink across the run *)
  counterexamples : counterexample list;
}

(** JSON rendering of a report, as embedded in the [bfly_tool check]
    summary document. *)
val summary_json : summary -> Bfly_obs.Json.t

(** [run ?oracles ?chaos ~seed ~rounds ()] — [oracles] defaults to
    {!Oracle.all}; the parameter exists so tests can aim the machinery at
    a deliberately broken solver and watch it get caught.

    With [chaos] (default [false]) the caller is expected to have armed
    {!Bfly_resil.Fault} (see {!Run.execute}); each oracle invocation then
    runs under a fresh ambient {!Bfly_resil.Cancel} token, and an injected
    fault escaping an oracle is counted in [crashes_survived] (the run
    carries on) instead of failing. Oracle verdicts reached despite
    injected disk errors, cache corruption, worker crashes and deadline
    expiries must still all pass: faults may cost work, never
    correctness. *)
val run :
  ?oracles:Oracle.t list ->
  ?chaos:bool ->
  seed:int ->
  rounds:int ->
  unit ->
  summary
