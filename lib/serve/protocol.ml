module Json = Bfly_obs.Json
module Budget = Bfly_resil.Budget

type payload =
  | Job of { spec : Job.spec; deadline : Budget.t option }
  | Stats

type request = { id : string; payload : payload }

(* ---- request parsing ---- *)

let ( let* ) = Result.bind

(* A request's own fields are [id], [job] and [deadline]; every other field
   belongs to the job and is read by Job.of_fields, the reader the CLI
   shares. *)
let parse_request ~default_id line =
  match Json.of_string line with
  | Error m -> Error ("request is not valid JSON: " ^ m, default_id)
  | Ok obj when Json.duplicate_key obj <> None ->
      (* first-key-wins lookup would silently ignore the later value; an
         ambiguous request is malformed, not a preference *)
      let k = Option.get (Json.duplicate_key obj) in
      Error (Printf.sprintf "duplicate key %S in request object" k, default_id)
  | Ok (Json.Obj _ as obj) -> (
      let field k = Json.member k obj in
      let id =
        match field "id" with
        | Some (Json.Str s) -> s
        | Some (Json.Int i) -> string_of_int i
        | _ -> default_id
      in
      let payload =
        match field "job" with
        | None -> Error "field \"job\" is required"
        | Some (Json.Str "stats") -> Ok Stats
        | Some (Json.Str job) ->
            let* deadline =
              match field "deadline" with
              | None -> Ok None
              | Some (Json.Str s) -> (
                  match Budget.of_string s with
                  | Ok b -> Ok (Some b)
                  | Error e -> Error ("bad deadline: " ^ e))
              | Some _ -> Error "field \"deadline\" must be a string"
            in
            let* spec = Job.of_fields job field in
            Ok (Job { spec; deadline })
        | Some _ -> Error "field \"job\" must be a string"
      in
      match payload with
      | Ok payload -> Ok { id; payload }
      | Error m -> Error (m, id))
  | Ok _ -> Error ("request must be a JSON object", default_id)

(* ---- responses ---- *)

let ok_response ~id ~batch ~output =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str id);
         ("ok", Json.Bool true);
         ("batch", Json.Int batch);
         ("output", Json.Str output);
       ])

let error_response ~id msg =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Str id); ("ok", Json.Bool false); ("error", Json.Str msg) ])

let stats_response ~id stats =
  let fields = match stats with Json.Obj f -> f | v -> [ ("stats", v) ] in
  Json.to_string
    (Json.Obj ([ ("id", Json.Str id); ("ok", Json.Bool true) ] @ fields))
