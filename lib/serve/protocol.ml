module Json = Bfly_obs.Json
module Budget = Bfly_resil.Budget

type payload =
  | Job of { spec : Job.spec; deadline : Budget.t option }
  | Stats

type request = { id : string; payload : payload }

(* ---- request parsing ---- *)

let ( let* ) = Result.bind

let id_of ~default_id = function
  | Some (Json.Str s) -> s
  | Some (Json.Int i) -> string_of_int i
  | _ -> default_id

(* A request's own fields are [id], [job] and [deadline]; every other field
   belongs to the job and is read by Job.of_fields, the reader the CLI
   shares. *)
let parse_request ~default_id line =
  match Json.of_string line with
  | Error m -> Error ("request is not valid JSON: " ^ m, default_id)
  | Ok obj when Json.duplicate_key obj <> None ->
      (* first-key-wins lookup would silently ignore the later value; an
         ambiguous request is malformed, not a preference — but an id that
         occurs once at the top level still addresses the answer *)
      let top = match obj with Json.Obj fields -> fields | _ -> [] in
      let id =
        match List.filter (fun (k, _) -> String.equal k "id") top with
        | [ (_, v) ] -> id_of ~default_id (Some v)
        | _ -> default_id
      in
      let k = Option.get (Json.duplicate_key obj) in
      Error (Printf.sprintf "duplicate key %S in request object" k, id)
  | Ok (Json.Obj _ as obj) -> (
      let field k = Json.member k obj in
      let id = id_of ~default_id (field "id") in
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

(* Each line is written into one string of its exact length, with the
   bytes [Json.to_string] gives the same object: the fixed parts are
   copied, [id] and the payload are quoted by [Json.blit_quoted]. *)
let put b o s =
  Bytes.blit_string s 0 b o (String.length s);
  o + String.length s

let ok_head = "{\"id\":"
let ok_batch = ",\"ok\":true,\"batch\":"
let ok_output = ",\"output\":"
let error_field = ",\"ok\":false,\"error\":"

let ok_response ~id ~batch ~output =
  let batch = Json.decimal batch in
  let b =
    Bytes.create
      (String.length ok_head + Json.quoted_length id + String.length ok_batch
     + String.length batch + String.length ok_output
     + Json.quoted_length output + 1)
  in
  let o = Json.blit_quoted id b (put b 0 ok_head) in
  let o = put b (put b o ok_batch) batch in
  let o = Json.blit_quoted output b (put b o ok_output) in
  Bytes.set b o '}';
  Bytes.unsafe_to_string b

let error_response ~id msg =
  let b =
    Bytes.create
      (String.length ok_head + Json.quoted_length id
     + String.length error_field + Json.quoted_length msg + 1)
  in
  let o = Json.blit_quoted id b (put b 0 ok_head) in
  let o = Json.blit_quoted msg b (put b o error_field) in
  Bytes.set b o '}';
  Bytes.unsafe_to_string b

let stats_response ~id stats =
  let fields = match stats with Json.Obj f -> f | v -> [ ("stats", v) ] in
  let buf = Buffer.create 512 in
  Buffer.add_string buf ok_head;
  Json.to_buffer buf (Json.Str id);
  Buffer.add_string buf ",\"ok\":true";
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      Json.to_buffer buf (Json.Str k);
      Buffer.add_char buf ':';
      Json.to_buffer buf v)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf
