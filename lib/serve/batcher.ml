type waiter = {
  id : string;
  reply : string -> unit;
  t0 : int;
  release : unit -> unit;
}

type batch = {
  fp : string;
  spec : Job.spec;
  deadline : Bfly_resil.Budget.t option;
  mutable waiters : waiter list;
  mutable running : bool;
}

type t = {
  fifo : batch Queue.t;
  by_fp : (string, batch) Hashtbl.t;
  memo : string Bfly_cache.Lru.t; (* [Ok] outputs of finished batches *)
  mutable requests : int; (* queued + running waiters *)
}

let memo_capacity = 1024

let create () =
  {
    fifo = Queue.create ();
    by_fp = Hashtbl.create 64;
    memo = Bfly_cache.Lru.create ~capacity:memo_capacity;
    requests = 0;
  }

let recall t ~fp ~spec ~deadline =
  if Job.memoizable ?deadline spec then Bfly_cache.Lru.find t.memo fp
  else None

let add t ~fp ~spec ~deadline waiter =
  t.requests <- t.requests + 1;
  match Hashtbl.find_opt t.by_fp fp with
  | Some b ->
      b.waiters <- waiter :: b.waiters;
      if b.running then `Joined else `Coalesced
  | None ->
      let b = { fp; spec; deadline; waiters = [ waiter ]; running = false } in
      Hashtbl.add t.by_fp fp b;
      Queue.add b t.fifo;
      `New

let next t =
  match Queue.take_opt t.fifo with
  | None -> None
  | Some b ->
      (* the fingerprint stays mapped while the batch runs: a duplicate
         arriving mid-solve joins the in-flight batch (single-flight)
         instead of opening a second solve of the same instance *)
      b.running <- true;
      Some b

let finish t b result =
  (* only [finish] unmaps a fingerprint, and only [next] marks batches
     running, so the table entry is necessarily this batch *)
  Hashtbl.remove t.by_fp b.fp;
  (match result with
  | Ok output when Job.memoizable ?deadline:b.deadline b.spec ->
      ignore (Bfly_cache.Lru.add t.memo b.fp output)
  | Ok _ | Error _ -> ());
  b.running <- false;
  let waiters = List.rev b.waiters in
  b.waiters <- [];
  t.requests <- t.requests - List.length waiters;
  waiters

let pending_requests t = t.requests
let pending_batches t = Queue.length t.fifo
