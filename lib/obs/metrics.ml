type counter = int Atomic.t

type gauge = float Atomic.t

type timer = {
  t_count : int Atomic.t;
  t_total : int Atomic.t;
  t_max : int Atomic.t;
}

(* The registry: one table per metric kind, guarded by a single mutex.
   Lookups take the lock; updates through a handle are lock-free. *)
let lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32
let timers : (string, timer) Hashtbl.t = Hashtbl.create 32

let registered tbl name make =
  Mutex.lock lock;
  let v =
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
        let v = make () in
        Hashtbl.add tbl name v;
        v
  in
  Mutex.unlock lock;
  v

let counter name = registered counters name (fun () -> Atomic.make 0)
let gauge name = registered gauges name (fun () -> Atomic.make 0.)

let timer name =
  registered timers name (fun () ->
      { t_count = Atomic.make 0; t_total = Atomic.make 0; t_max = Atomic.make 0 })

let incr c = ignore (Atomic.fetch_and_add c 1)
(* adding 0 — e.g. "evicted nothing" on every cache probe — skips the
   atomic write, which would otherwise bounce the counter's cache line
   between domains *)
let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c n)
let set g v = Atomic.set g v

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

(* high-water marks (e.g. serve.concurrency) raced by many domains: keep
   the maximum, atomically, instead of last-writer-wins *)
let rec set_max g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then set_max g v

let record t ~ns =
  let ns = max 0 ns in
  ignore (Atomic.fetch_and_add t.t_count 1);
  ignore (Atomic.fetch_and_add t.t_total ns);
  atomic_max t.t_max ns

let counter_value = Atomic.get
let gauge_value = Atomic.get

type timer_stat = { count : int; total_ns : int; max_ns : int }

let timer_stat t =
  {
    count = Atomic.get t.t_count;
    total_ns = Atomic.get t.t_total;
    max_ns = Atomic.get t.t_max;
  }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  timers : (string * timer_stat) list;
}

let sorted_bindings tbl read =
  Mutex.lock lock;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  Mutex.unlock lock;
  rows
  |> List.map (fun (k, v) -> (k, read v))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  {
    counters = sorted_bindings counters Atomic.get;
    gauges = sorted_bindings gauges Atomic.get;
    timers = sorted_bindings timers timer_stat;
  }

let reset () =
  Mutex.lock lock;
  Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
  Hashtbl.iter (fun _ g -> Atomic.set g 0.) gauges;
  Hashtbl.iter
    (fun _ t ->
      Atomic.set t.t_count 0;
      Atomic.set t.t_total 0;
      Atomic.set t.t_max 0)
    timers;
  Mutex.unlock lock

let to_json () =
  let s = snapshot () in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.gauges));
      ( "timers",
        Json.Obj
          (List.map
             (fun (k, st) ->
               ( k,
                 Json.Obj
                   [
                     ("count", Json.Int st.count);
                     ("total_ns", Json.Int st.total_ns);
                     ("max_ns", Json.Int st.max_ns);
                   ] ))
             s.timers) );
    ]

let to_json_string () = Json.to_string (to_json ())
