module Bitset = Bfly_graph.Bitset

type field =
  | Int of int
  | Str of string
  | Bits of { capacity : int; elements : int list }

type payload = (string * field) list

let valid_name n =
  n <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       n

let encode p =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, field) ->
      if not (valid_name name) then
        invalid_arg ("Codec.encode: bad field name " ^ name);
      match field with
      | Int v -> Buffer.add_string buf (Printf.sprintf "i %s %d\n" name v)
      | Str s ->
          Buffer.add_string buf
            (Printf.sprintf "s %s %d\n" name (String.length s));
          Buffer.add_string buf s;
          Buffer.add_char buf '\n'
      | Bits { capacity; elements } ->
          Buffer.add_string buf
            (Printf.sprintf "b %s %d %d" name capacity (List.length elements));
          List.iter (fun e -> Buffer.add_string buf (" " ^ string_of_int e)) elements;
          Buffer.add_char buf '\n')
    p;
  Buffer.contents buf

exception Malformed

let decode s =
  let len = String.length s in
  let pos = ref 0 in
  let line () =
    (* next newline-terminated line; a last line without '\n' is malformed *)
    match String.index_from_opt s !pos '\n' with
    | None -> raise Malformed
    | Some nl ->
        let l = String.sub s !pos (nl - !pos) in
        pos := nl + 1;
        l
  in
  let parse_int str = match int_of_string_opt str with
    | Some v -> v
    | None -> raise Malformed
  in
  let fields = ref [] in
  (* "b" records carry one token per set member, so they are parsed with a
     cursor instead of [String.split_on_char]: token boundaries are
     identical (maximal runs between single spaces; an empty run is a token
     and fails the integer parse just as it used to), but no token list is
     materialized and all-digit tokens parse without a substring. *)
  let tok_end l p =
    match String.index_from_opt l p ' ' with
    | Some e -> e
    | None -> String.length l
  in
  let parse_tok l p e =
    (* = [parse_int (String.sub l p (e - p))]; <= 18 digits cannot
       overflow a 63-bit int, longer or non-decimal tokens take the
       substring path so exotic forms keep their [int_of_string] meaning *)
    let n = e - p in
    if n > 0 && n <= 18 then begin
      let v = ref 0 and ok = ref true in
      for i = p to e - 1 do
        let d = Char.code (String.unsafe_get l i) - Char.code '0' in
        if d < 0 || d > 9 then ok := false else v := (10 * !v) + d
      done;
      if !ok then !v else parse_int (String.sub l p n)
    end
    else parse_int (String.sub l p n)
  in
  let parse_bits l =
    let llen = String.length l in
    let p = 2 in
    let e = tok_end l p in
    let name = String.sub l p (e - p) in
    if not (valid_name name) || e >= llen then raise Malformed;
    let p = e + 1 in
    let e = tok_end l p in
    let capacity = parse_tok l p e in
    if e >= llen then raise Malformed;
    let p = e + 1 in
    let e = tok_end l p in
    let count = parse_tok l p e in
    if capacity < 0 then raise Malformed;
    (* members strictly increasing and in range: the canonical form *)
    let elements = ref [] in
    let seen = ref 0 in
    let prev = ref (-1) in
    let p = ref e in
    while !p < llen do
      let q = !p + 1 in
      let e = tok_end l q in
      let v = parse_tok l q e in
      if v <= !prev || v >= capacity then raise Malformed;
      prev := v;
      incr seen;
      elements := v :: !elements;
      p := e
    done;
    if count <> !seen then raise Malformed;
    (name, Bits { capacity; elements = List.rev !elements })
  in
  try
    while !pos < len do
      let l = line () in
      if String.length l >= 2 && l.[0] = 'b' && l.[1] = ' ' then
        fields := parse_bits l :: !fields
      else
        match String.split_on_char ' ' l with
        | [ "i"; name; v ] when valid_name name ->
            fields := (name, Int (parse_int v)) :: !fields
        | [ "s"; name; n ] when valid_name name ->
            let n = parse_int n in
            if n < 0 || !pos + n + 1 > len then raise Malformed;
            let str = String.sub s !pos n in
            if s.[!pos + n] <> '\n' then raise Malformed;
            pos := !pos + n + 1;
            fields := (name, Str str) :: !fields
        | _ -> raise Malformed
    done;
    Some (List.rev !fields)
  with Malformed -> None

let bits s =
  Bits { capacity = Bitset.capacity s; elements = Bitset.elements s }

let get_int p name =
  match List.assoc_opt name p with Some (Int v) -> Some v | _ -> None

let get_bits p name ~capacity =
  match List.assoc_opt name p with
  | Some (Bits { capacity = c; elements }) when c = capacity ->
      Some (Bitset.of_list capacity elements)
  | _ -> None
