type t = { solver : string; digest : string; description : string }

(* The library-wide version salt, folded into every key. Bump it whenever
   a cached solver's semantics change so stale stores self-invalidate. *)
let code_salt = "bfly-cache/2026-08-06.1"

(* The description "<solver>?<k>=<v>&...&v=<salt>&c=<code salt>#<fp>":
   parameters in call-site order, and a key without parameters reads
   "<solver>?&v=...". Appended to one buffer, with no [Printf]. *)
let render ~solver ~salt ~params ~fp_hex =
  let b = Buffer.create 128 in
  Buffer.add_string b solver;
  Buffer.add_char b '?';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b '&';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v)
    params;
  List.iter (Buffer.add_string b) [ "&v="; salt; "&c="; code_salt; "#"; fp_hex ];
  Buffer.contents b

let make ~solver ~salt ~params ~fingerprint =
  let description =
    render ~solver ~salt ~params ~fp_hex:(Fingerprint.to_hex fingerprint)
  in
  let digest = Fingerprint.(to_hex (string seed description)) in
  { solver; digest; description }

let solver k = k.solver
let digest k = k.digest
let description k = k.description

let sanitize s =
  String.map (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    s

let filename k = String.concat "" [ sanitize k.solver; "-"; k.digest; ".entry" ]
