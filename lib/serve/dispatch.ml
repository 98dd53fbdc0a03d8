module Parallel = Bfly_graph.Parallel

type t = {
  server : Server.t;
  cap : int;
  m : Mutex.t;
  idle : Condition.t;
  mutable spawned : int; (* detached worker jobs alive; under [m] *)
}

let create ?cap server =
  let cap =
    match cap with
    | Some k when k >= 1 -> k
    | Some _ -> invalid_arg "Dispatch.create: cap must be >= 1"
    | None -> Parallel.domain_count ()
  in
  { server; cap; m = Mutex.create (); idle = Condition.create (); spawned = 0 }

(* One detached pool job: execute batches until the server's queue is
   empty, then retire. The retire path rechecks the queue under [m] —
   [pump] counts a retiring worker as alive, so a batch submitted in the
   gap between our empty [take_batch] and here may have been left to us;
   the recheck picks it up instead of stranding it. *)
let rec work t =
  match Server.take_batch t.server with
  | Some b ->
      Server.execute_batch t.server b;
      work t
  | None ->
      Mutex.lock t.m;
      if Server.queued_batches t.server > 0 then begin
        Mutex.unlock t.m;
        work t
      end
      else begin
        t.spawned <- t.spawned - 1;
        if t.spawned = 0 then Condition.broadcast t.idle;
        Mutex.unlock t.m
      end

let pump t =
  Mutex.lock t.m;
  let n = max 0 (min (t.cap - t.spawned) (Server.queued_batches t.server)) in
  t.spawned <- t.spawned + n;
  Mutex.unlock t.m;
  (* [m] must be released first: with one configured domain
     [Parallel.async] runs the job inline, and [work]'s retire path takes
     [m] itself *)
  for _ = 1 to n do
    Parallel.async (fun () -> work t)
  done

let busy t =
  Mutex.lock t.m;
  let b = t.spawned > 0 in
  Mutex.unlock t.m;
  b

let wait_idle t =
  Mutex.lock t.m;
  while t.spawned > 0 do
    Condition.wait t.idle t.m
  done;
  Mutex.unlock t.m
