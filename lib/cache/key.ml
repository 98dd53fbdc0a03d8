type t = { solver : string; digest : string; description : string }

(* The library-wide version salt, folded into every key. Bump it whenever
   a cached solver's semantics change so stale stores self-invalidate. *)
let code_salt = "bfly-cache/2026-08-06.1"

let make ~solver ~salt ~params ~fingerprint =
  let params_str =
    String.concat "&"
      (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) params)
  in
  let fp_hex = Fingerprint.to_hex fingerprint in
  let description =
    Printf.sprintf "%s?%s&v=%s&c=%s#%s" solver params_str salt code_salt
      fp_hex
  in
  let digest =
    Fingerprint.(to_hex (string seed description))
  in
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

let filename k = Printf.sprintf "%s-%s.entry" (sanitize k.solver) k.digest
