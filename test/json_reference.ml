(* The JSON parser, printer and duplicate-key screen as they were before
   the parser kept its state in one record: a closure per call, an option
   per peeked byte, a buffer per string, [List.mem] over earlier keys. They
   are kept here, and only here, as the reference the differential tests
   in [Test_json] hold [Bfly_obs.Json] to: equal trees, byte-equal error
   messages and printed bytes, equal duplicate-key answers. *)

open Bfly_obs.Json

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then
        (* %.17g is lossless for doubles; trim the common integral case *)
        let s = Printf.sprintf "%.17g" f in
        let s =
          let short = Printf.sprintf "%.12g" f in
          if float_of_string short = f then short else s
        in
        Buffer.add_string buf s
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

exception Parse_error of string

let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let error fmt =
    Printf.ksprintf (fun m -> raise (Parse_error m)) fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> error "expected '%c' at byte %d, found '%c'" c !pos c'
    | None -> error "expected '%c' at byte %d, found end of input" c !pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else error "invalid literal at byte %d" !pos
  in
  (* add one Unicode scalar value to [buf] as UTF-8 *)
  let add_utf8 buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then error "truncated \\u escape at byte %d" !pos;
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | c -> error "bad hex digit '%c' at byte %d" c !pos
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string at byte %d" n;
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then error "unterminated escape at byte %d" n;
           match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'; advance ()
           | '\\' -> Buffer.add_char buf '\\'; advance ()
           | '/' -> Buffer.add_char buf '/'; advance ()
           | 'b' -> Buffer.add_char buf '\b'; advance ()
           | 'f' -> Buffer.add_char buf '\012'; advance ()
           | 'n' -> Buffer.add_char buf '\n'; advance ()
           | 'r' -> Buffer.add_char buf '\r'; advance ()
           | 't' -> Buffer.add_char buf '\t'; advance ()
           | 'u' ->
               advance ();
               let u = hex4 () in
               (* high surrogate must pair with a following \uDC00-\uDFFF *)
               if u >= 0xd800 && u <= 0xdbff then begin
                 if
                   !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                 then begin
                   pos := !pos + 2;
                   let lo = hex4 () in
                   if lo < 0xdc00 || lo > 0xdfff then
                     error "unpaired surrogate at byte %d" !pos;
                   add_utf8 buf
                     (0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00))
                 end
                 else error "unpaired surrogate at byte %d" !pos
               end
               else if u >= 0xdc00 && u <= 0xdfff then
                 error "unpaired surrogate at byte %d" !pos
               else add_utf8 buf u
           | c -> error "bad escape '\\%c' at byte %d" c !pos);
          go ()
      | c when Char.code c < 0x20 ->
          error "unescaped control character at byte %d" !pos
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      if !pos = d0 then error "expected digit at byte %d" !pos
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value depth =
    if depth > max_depth then error "nesting deeper than %d at byte %d" max_depth !pos;
    skip_ws ();
    match peek () with
    | None -> error "expected a value at byte %d, found end of input" !pos
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields_loop ()
            | Some '}' -> advance ()
            | _ -> error "expected ',' or '}' at byte %d" !pos
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items_loop ()
            | Some ']' -> advance ()
            | _ -> error "expected ',' or ']' at byte %d" !pos
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> error "unexpected character '%c' at byte %d" c !pos
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then error "trailing garbage at byte %d" !pos;
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

let rec duplicate_key t =
  let first f xs =
    List.fold_left
      (fun acc x -> match acc with Some _ -> acc | None -> f x)
      None xs
  in
  match t with
  | Obj fields ->
      let rec dup seen = function
        | [] -> None
        | (k, _) :: rest -> if List.mem k seen then Some k else dup (k :: seen) rest
      in
      (match dup [] fields with
      | Some k -> Some k
      | None -> first (fun (_, v) -> duplicate_key v) fields)
  | List xs -> first duplicate_key xs
  | _ -> None
