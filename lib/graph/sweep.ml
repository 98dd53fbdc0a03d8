module Metrics = Bfly_obs.Metrics
module Span = Bfly_obs.Span

type point = { n : int; seed : int }

let points ~sizes ~seeds =
  List.concat_map
    (fun n -> List.init seeds (fun i -> { n; seed = i + 1 }))
    sizes

let c_points = Metrics.counter "sweep.points"
let t_sweep = Metrics.timer "graph.sweep"

let run ?cancel ~sizes ~seeds f =
  if seeds < 0 then invalid_arg "Sweep.run: seeds must be >= 0";
  let pts = Array.of_list (points ~sizes ~seeds) in
  let out = Array.make (Array.length pts) None in
  let tasks =
    Array.mapi
      (fun i { n; seed } () ->
        out.(i) <- Some (f ~n ~seed);
        Metrics.incr c_points)
      pts
  in
  Span.time t_sweep (fun () -> Parallel.run_tasks ?cancel tasks);
  Array.map
    (function
      | Some v -> v
      | None ->
          (* unreachable: run_tasks either completes every task or raises *)
          invalid_arg "Sweep.run: task produced no result")
    out
