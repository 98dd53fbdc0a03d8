type counter = int Atomic.t

type gauge = float Atomic.t

type timer = {
  t_count : int Atomic.t;
  t_total : int Atomic.t;
  t_max : int Atomic.t;
  t_buckets : int Atomic.t array Atomic.t;  (** [[||]] until the first record *)
}

(* Registries hold counters and timers; gauges (last write wins, which no
   sum honours) live in one process-wide table. One mutex guards every
   table and the list of registries; updates through a handle are
   lock-free. *)
type registry = {
  r_counters : (string, counter) Hashtbl.t;
  r_timers : (string, timer) Hashtbl.t;
}

let lock = Mutex.create ()
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32
let fresh () = { r_counters = Hashtbl.create 32; r_timers = Hashtbl.create 8 }
let process = fresh ()
let registries = ref [ process ]

let registry () =
  let r = fresh () in
  Mutex.protect lock (fun () -> registries := r :: !registries);
  r

let registered tbl name make =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
          let v = make () in
          Hashtbl.add tbl name v;
          v)

let counter ?(registry = process) name =
  registered registry.r_counters name (fun () -> Atomic.make 0)

let gauge name = registered gauges name (fun () -> Atomic.make 0.)

let timer ?(registry = process) name =
  registered registry.r_timers name (fun () ->
      {
        t_count = Atomic.make 0;
        t_total = Atomic.make 0;
        t_max = Atomic.make 0;
        t_buckets = Atomic.make [||];
      })

(* ---- the histogram ----

   Values below 16 are their own buckets. Above, value v with highest set
   bit e (2^e <= v < 2^(e+1), e >= 4) falls in sub-bucket
   (v lsr (e - 4)) land 15 of its power of two: 16 linear sub-buckets of
   width 2^(e - 4), so a bucket's lower edge is at most 1/16 below any
   value in it. The top power of a 63-bit int is 2^61: 944 buckets. *)
let n_buckets = (61 - 3) * 16 + 16

let bucket v =
  if v < 16 then v
  else
    let e = ref 4 in
    while v lsr (!e + 1) <> 0 do
      incr e
    done;
    ((!e - 3) lsl 4) lor ((v lsr (!e - 4)) land 15)

let lower_edge b = if b < 16 then b else (16 + (b land 15)) lsl ((b lsr 4) - 1)

(* allocated on the first record; a racing domain adopts the winner's *)
let buckets t =
  let b = Atomic.get t.t_buckets in
  if Array.length b > 0 then b
  else
    let fresh = Array.init n_buckets (fun _ -> Atomic.make 0) in
    if Atomic.compare_and_set t.t_buckets b fresh then fresh
    else Atomic.get t.t_buckets

let incr c = ignore (Atomic.fetch_and_add c 1)
(* adding 0 — e.g. "evicted nothing" on every cache probe — skips the
   atomic write, which would otherwise bounce the counter's cache line
   between domains *)
let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c n)
let set g v = Atomic.set g v

let rec atomic_max (cell : int Atomic.t) v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

(* high-water marks (e.g. serve.concurrency) raced by many domains: keep
   the maximum, atomically, instead of last-writer-wins *)
let rec set_max g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then set_max g v

let record t ~ns =
  let ns = max 0 ns in
  ignore (Atomic.fetch_and_add (buckets t).(bucket ns) 1);
  ignore (Atomic.fetch_and_add t.t_count 1);
  ignore (Atomic.fetch_and_add t.t_total ns);
  atomic_max t.t_max ns

let counter_value = Atomic.get
let gauge_value = Atomic.get

type timer_stat = {
  count : int;
  total_ns : int;
  max_ns : int;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
}

(* The timers [ts] as one: counts and totals added, the largest max, and
   quantiles by nearest rank over the added bucket counts — the lower
   edge of the bucket holding sample ceil(q·n), n being the buckets' own
   total (a record racing this read may have counted itself and not yet
   its bucket). With no sample the rank is 0 and the edge that of bucket
   0, which is 0. *)
let stat ts =
  let sum f = List.fold_left (fun a t -> a + Atomic.get (f t)) 0 ts in
  let hist = Array.make n_buckets 0 in
  List.iter
    (fun t ->
      Array.iteri (fun i c -> hist.(i) <- hist.(i) + Atomic.get c) (Atomic.get t.t_buckets))
    ts;
  let n = Array.fold_left ( + ) 0 hist in
  let at q =
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    let b = ref 0 and seen = ref hist.(0) in
    while !seen < rank do
      b := !b + 1;
      seen := !seen + hist.(!b)
    done;
    lower_edge !b
  in
  {
    count = sum (fun t -> t.t_count);
    total_ns = sum (fun t -> t.t_total);
    max_ns = List.fold_left (fun a t -> max a (Atomic.get t.t_max)) 0 ts;
    p50_ns = at 0.5;
    p90_ns = at 0.9;
    p99_ns = at 0.99;
  }

let timer_stat t = stat [ t ]

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  timers : (string * timer_stat) list;
}

(* rows read, the values of one name combined, sorted by name *)
let merged read combine rows =
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows
  |> List.fold_left
       (fun acc (k, v) ->
         match acc with
         | (k', w) :: rest when String.equal k k' -> (k, combine w (read v)) :: rest
         | _ -> (k, read v) :: acc)
       []
  |> List.rev

(* The process view: each name summed over every registry. *)
let snapshot () =
  let rows tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let counters, timers, gauges =
    Mutex.protect lock (fun () ->
        ( List.concat_map (fun r -> rows r.r_counters) !registries,
          List.concat_map (fun r -> rows r.r_timers) !registries,
          rows gauges ))
  in
  {
    counters = merged Atomic.get ( + ) counters;
    gauges = merged Atomic.get (fun v _ -> v) gauges;
    timers = List.map (fun (k, ts) -> (k, stat ts)) (merged (fun t -> [ t ]) ( @ ) timers);
  }

let reset () =
  let zero c = Atomic.set c 0 in
  Mutex.protect lock (fun () ->
      Hashtbl.iter (fun _ g -> Atomic.set g 0.) gauges;
      List.iter
        (fun r ->
          Hashtbl.iter (fun _ c -> zero c) r.r_counters;
          Hashtbl.iter
            (fun _ t ->
              List.iter zero [ t.t_count; t.t_total; t.t_max ];
              Array.iter zero (Atomic.get t.t_buckets))
            r.r_timers)
        !registries)

let to_json () =
  let s = snapshot () in
  let obj f rows = Json.Obj (List.map (fun (k, v) -> (k, f v)) rows) in
  let int v = Json.Int v in
  Json.Obj
    [
      ("counters", obj int s.counters);
      ("gauges", obj (fun v -> Json.Float v) s.gauges);
      ( "timers",
        obj
          (fun st ->
            obj int
              [
                ("count", st.count);
                ("total_ns", st.total_ns);
                ("max_ns", st.max_ns);
                ("p50_ns", st.p50_ns);
                ("p90_ns", st.p90_ns);
                ("p99_ns", st.p99_ns);
              ])
          s.timers );
    ]

let to_json_string () = Json.to_string (to_json ())
