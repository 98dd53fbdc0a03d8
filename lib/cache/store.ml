module Metrics = Bfly_obs.Metrics
module Span = Bfly_obs.Span

let c_hit = Metrics.counter "cache.hit"
let c_hit_mem = Metrics.counter "cache.hit.mem"
let c_hit_disk = Metrics.counter "cache.hit.disk"
let c_miss = Metrics.counter "cache.miss"
let c_evict = Metrics.counter "cache.evict"
let c_verify_fail = Metrics.counter "cache.verify_fail"
let t_lookup = Metrics.timer "cache.lookup"
let t_store = Metrics.timer "cache.store"

let mutex = Mutex.create ()
let lru : Codec.payload Lru.t = Lru.create ~capacity:0

let locked f =
  Mutex.lock mutex;
  (* keep the memory tier in sync with the (mutable) configured bound *)
  Metrics.add c_evict (Lru.set_capacity lru (Config.lru_capacity ()));
  let r = try f () with e -> Mutex.unlock mutex; raise e in
  Mutex.unlock mutex;
  r

(* Serve [payload] if it decodes and verifies; otherwise evict the entry
   from both tiers. [tier] is the hit counter to credit. *)
let serve ~key ~decode ~verify ~tier payload =
  match decode payload with
  | Some v when verify v ->
      Metrics.incr c_hit;
      Metrics.incr tier;
      Some v
  | _ ->
      Metrics.incr c_verify_fail;
      Metrics.incr c_evict;
      locked (fun () -> Lru.remove lru (Key.digest key));
      Disk.remove ~dir:(Config.dir ()) key;
      None

let lookup ~key ~decode ~verify =
  if not (Config.enabled ()) then None
  else
    Span.time t_lookup @@ fun () ->
    let digest = Key.digest key in
    let mem = locked (fun () -> Lru.find lru digest) in
    let result =
      match mem with
      | Some payload -> serve ~key ~decode ~verify ~tier:c_hit_mem payload
      | None -> (
          match Disk.load ~dir:(Config.dir ()) key with
          | Disk.Hit payload -> (
              match serve ~key ~decode ~verify ~tier:c_hit_disk payload with
              | Some v ->
                  locked (fun () ->
                      Metrics.add c_evict (Lru.add lru digest payload));
                  Some v
              | None -> None)
          | Disk.Corrupt ->
              Metrics.incr c_verify_fail;
              Metrics.incr c_evict;
              Disk.remove ~dir:(Config.dir ()) key;
              None
          | Disk.Miss -> None)
    in
    (match result with None -> Metrics.incr c_miss | Some _ -> ());
    result

let put ~key ~encode v =
  if Config.enabled () then
    Span.time t_store @@ fun () ->
    let payload = encode v in
    Disk.store ~dir:(Config.dir ()) key payload;
    locked (fun () ->
        Metrics.add c_evict (Lru.add lru (Key.digest key) payload))

let memoize ~key ~encode ~decode ~verify ~compute =
  match lookup ~key ~decode ~verify with
  | Some v -> v
  | None ->
      let v = compute () in
      put ~key ~encode v;
      v

let drop ~key =
  locked (fun () -> Lru.remove lru (Key.digest key));
  Disk.remove ~dir:(Config.dir ()) key

let sweep_tmp ?max_age_s () = Disk.sweep_tmp ?max_age_s ~dir:(Config.dir ()) ()

let reset_memory () = locked (fun () -> Lru.clear lru)
let memory_length () = locked (fun () -> Lru.length lru)

let clear () =
  reset_memory ();
  Disk.clear ~dir:(Config.dir ())

type stats = {
  enabled : bool;
  dir : string;
  memory_entries : int;
  memory_capacity : int;
  disk : Disk.stats;
  solvers : (string * int) list;
}

let stats () =
  let dir = Config.dir () in
  {
    enabled = Config.enabled ();
    dir;
    memory_entries = memory_length ();
    memory_capacity = Config.lru_capacity ();
    disk = Disk.stats ~dir;
    solvers = Disk.solvers ~dir;
  }
