(** Request batching: a FIFO of solver batches, coalescing by fingerprint
    with single-flight semantics.

    A {e batch} is one pending solve plus every request waiting on it.
    {!add} either opens a new batch (the fingerprint was not pending or
    in flight) or attaches the request to the existing one — N concurrent
    requests for one instance trigger one solve. The fingerprint stays
    mapped from {!add} until {!finish}, {e through} the running phase:
    under the concurrent dispatcher a duplicate arriving while its twin
    solves joins that in-flight batch ([`Joined]) rather than opening a
    second solve, which is what keeps a cold run's cache misses equal to
    the sequential replay's whatever the dispatch interleaving.

    Past completion, a bounded memo takes over: {!finish} keeps the [Ok]
    output of every {!Job.memoizable} batch, up to 1,024 fingerprints
    (least recently used evicted first), and {!recall} hands it to a
    later twin, which the server then answers without queueing. The memo
    holds only bytes this batcher's own solves produced, so it removes no
    check; it lives and dies with its server.

    Batches leave in arrival order of their {e first} request; waiters
    within a batch keep their own arrival order, so responses can be
    written deterministically.

    Not thread-safe: the owning {!Server} serializes every call under its
    lock. *)

type waiter = {
  id : string;  (** request id, echoed in the response *)
  reply : string -> unit;  (** response sink for this request's origin *)
  t0 : int;  (** submit timestamp ([Span.now_ns]) for latency accounting *)
  release : unit -> unit;
      (** per-client admission release, called (under the server lock)
          exactly once when the waiter is answered *)
}

type batch = {
  fp : string;
  spec : Job.spec;
  deadline : Bfly_resil.Budget.t option;
  mutable waiters : waiter list;  (** reverse arrival order *)
  mutable running : bool;  (** popped by {!next}, not yet {!finish}ed *)
}

type t

val create : unit -> t

val add :
  t ->
  fp:string ->
  spec:Job.spec ->
  deadline:Bfly_resil.Budget.t option ->
  waiter ->
  [ `New | `Coalesced | `Joined ]
(** Queue a request under its fingerprint. [`Coalesced] means a
    still-queued batch absorbed it, [`Joined] an already-running one. *)

val next : t -> batch option
(** Pop the oldest pending batch and mark it running. Its fingerprint
    remains mapped (accepting joiners) until {!finish}. *)

val finish : t -> batch -> (string, string) result -> waiter list
(** Close out a batch {!next} returned with its solve's result: unmap its
    fingerprint, remember an [Ok] output when {!Job.memoizable} holds for
    the batch, and return its waiters in arrival order — including any
    that joined while it ran. The caller answers them and calls each
    [release]. *)

val recall :
  t ->
  fp:string ->
  spec:Job.spec ->
  deadline:Bfly_resil.Budget.t option ->
  string option
(** The output an earlier finished batch with this fingerprint produced,
    while it is still in the memo and {!Job.memoizable} still holds
    (marking it most recently used). *)

val pending_requests : t -> int
(** Requests waiting or in flight (coalesced and joined ones included) —
    the depth admission control bounds. *)

val pending_batches : t -> int
(** Batches queued and not yet picked up by {!next}. *)
