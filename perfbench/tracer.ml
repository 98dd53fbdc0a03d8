(* In-memory spans for the traced run, written out once at the end as
   Chrome trace-event JSON (the format chrome://tracing and Perfetto open).

   Spans are recorded from the benchmark's own files, around the calls it
   makes into each layer. The spans of one job or request share an [id];
   [parent] links a span to the span that caused it, and a span's self
   time is its duration minus the part of it its children cover. *)

module Json = Bfly_obs.Json

type span = {
  name : string;
  id : int;
  parent : int option;  (** index of the parent span *)
  t0 : int;  (** monotonic ns *)
  mutable t1 : int;
  mutable args : (string * Json.t) list;
}

type t = { mutable spans : span array; mutable count : int }

let create () = { spans = [||]; count = 0 }

(* Record a span; returns its index for children to point at. A span
   opened before its children are known is closed with {!close}. *)
let add t ?parent ?(args = []) ~name ~id ~t0 ~t1 () =
  let s = { name; id; parent; t0; t1; args } in
  if t.count = Array.length t.spans then
    t.spans <- Array.append t.spans (Array.make (max 64 t.count) s);
  t.spans.(t.count) <- s;
  t.count <- t.count + 1;
  t.count - 1

let close t i ?args ~t1 () =
  let s = t.spans.(i) in
  s.t1 <- t1;
  Option.iter (fun a -> s.args <- a) args

let spans t = Array.sub t.spans 0 t.count

(* Length of the union of [(a, b)] intervals clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* Self time per span. *)
let self_times spans =
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s ->
      Option.iter (fun p -> children.(p) <- (s.t0, s.t1) :: children.(p)) s.parent)
    spans;
  Array.mapi
    (fun i s -> s.t1 - s.t0 - covered ~lo:s.t0 ~hi:s.t1 children.(i))
    spans

(* Total and self time per span name, in ms, sorted by name. *)
let summary spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let n, total, own =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (n + 1, total + (s.t1 - s.t0), own + self.(i)))
    spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (name, (n, total, own)) ->
         ( name,
           Json.Obj
             [
               ("count", Json.Int n);
               ("total_ms", Json.Float (float_of_int total /. 1e6));
               ("self_ms", Json.Float (float_of_int own /. 1e6));
             ] ))

let to_chrome ?(meta = []) spans =
  let origin = Array.fold_left (fun m s -> min m s.t0) max_int spans in
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (List.hd (String.split_on_char '.' s.name)));
        ("ph", Json.Str "X");
        ("ts", us (s.t0 - origin));
        ("dur", us (s.t1 - s.t0));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj (("id", Json.Int s.id) :: s.args));
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (Array.to_list (Array.map event spans)));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj (("summary", Json.Obj (summary spans)) :: meta));
    ]
