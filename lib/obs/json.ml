type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* The serialization of [Str s]: quotes, backslashes and control
   characters are escaped; everything else passes through byte-for-byte
   (valid UTF-8 in, valid UTF-8 out). [quoted_length] sizes it and
   [blit_quoted] writes it, so a caller can render a line into one string
   of its exact length. *)
let quoted_length s =
  let len = ref 2 in
  for i = 0 to String.length s - 1 do
    len :=
      !len
      +
      match String.unsafe_get s i with
      | '"' | '\\' | '\n' | '\r' | '\t' -> 2
      | c when Char.code c < 0x20 -> 6
      | _ -> 1
  done;
  !len

let hex_digits = "0123456789abcdef"

let put2 b o c1 c2 =
  Bytes.unsafe_set b o c1;
  Bytes.unsafe_set b (o + 1) c2;
  o + 2

let blit_quoted s b off =
  Bytes.set b off '"';
  let o = ref (off + 1) in
  for i = 0 to String.length s - 1 do
    o :=
      match String.unsafe_get s i with
      | '"' -> put2 b !o '\\' '"'
      | '\\' -> put2 b !o '\\' '\\'
      | '\n' -> put2 b !o '\\' 'n'
      | '\r' -> put2 b !o '\\' 'r'
      | '\t' -> put2 b !o '\\' 't'
      | c when Char.code c < 0x20 ->
          (* \u00XX, lower-case hex *)
          let o = put2 b (put2 b !o '\\' 'u') '0' '0' in
          put2 b o hex_digits.[Char.code c lsr 4] hex_digits.[Char.code c land 15]
      | c ->
          Bytes.unsafe_set b !o c;
          !o + 1
  done;
  Bytes.set b !o '"';
  !o + 1

(* [string_of_int] goes through the C formatter, which parses "%d" and
   calls snprintf each time; a digit loop writes the same bytes several
   times faster. Negative numbers are rare here and keep the formatter,
   which also covers [min_int]. *)
let decimal n =
  if n < 0 then string_of_int n
  else begin
    let len = ref 1 and m = ref n in
    while !m >= 10 do
      m := !m / 10;
      incr len
    done;
    let b = Bytes.create !len in
    let m = ref n in
    for i = !len - 1 downto 0 do
      Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!m mod 10)));
      m := !m / 10
    done;
    Bytes.unsafe_to_string b
  end

(* A string is copied only when it needs escaping. *)
let add_quoted buf s =
  let l = quoted_length s in
  if l = String.length s + 2 then begin
    Buffer.add_char buf '"';
    Buffer.add_string buf s;
    Buffer.add_char buf '"'
  end
  else begin
    let b = Bytes.create l in
    ignore (blit_quoted s b 0);
    Buffer.add_bytes buf b
  end

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (decimal i)
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
  | Str s -> add_quoted buf s
  | List items ->
      Buffer.add_char buf '[';
      add_items buf items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      add_fields buf fields;
      Buffer.add_char buf '}'

and add_items buf = function
  | [] -> ()
  | [ v ] -> to_buffer buf v
  | v :: rest ->
      to_buffer buf v;
      Buffer.add_char buf ',';
      add_items buf rest

and add_fields buf = function
  | [] -> ()
  | [ f ] -> add_field buf f
  | f :: rest ->
      add_field buf f;
      Buffer.add_char buf ',';
      add_fields buf rest

and add_field buf (k, v) =
  add_quoted buf k;
  Buffer.add_char buf ':';
  to_buffer buf v

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ---- parsing ---- *)

exception Parse_error of string

let max_depth = 512

(* The parser's whole state, one record per document: reading a byte
   allocates nothing, and every function below is closed, so a parse
   allocates the tree and nothing else. *)
type parser = { s : string; n : int; mutable pos : int }

let error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* the next byte is [c] *)
let at p c = p.pos < p.n && String.unsafe_get p.s p.pos = c
let advance p = p.pos <- p.pos + 1

let skip_ws p =
  while
    p.pos < p.n
    && match String.unsafe_get p.s p.pos with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    advance p
  done

let expect p c =
  if p.pos >= p.n then
    error "expected '%c' at byte %d, found end of input" c p.pos
  else
    let c' = String.unsafe_get p.s p.pos in
    if c' = c then advance p
    else error "expected '%c' at byte %d, found '%c'" c p.pos c'

let literal p word v =
  let l = String.length word in
  let i = ref 0 in
  while !i < l && p.pos + !i < p.n && p.s.[p.pos + !i] = word.[!i] do
    incr i
  done;
  if !i = l then begin
    p.pos <- p.pos + l;
    v
  end
  else error "invalid literal at byte %d" p.pos

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

let hex4 p =
  if p.pos + 4 > p.n then error "truncated \\u escape at byte %d" p.pos;
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match p.s.[p.pos] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | c -> error "bad hex digit '%c' at byte %d" c p.pos
    in
    v := (!v * 16) + d;
    advance p
  done;
  !v

(* The decoder for strings with escapes: reads from [p.pos] up to and
   including the closing quote, appending the decoded bytes to [buf]. *)
let rec decode p buf =
  if p.pos >= p.n then error "unterminated string at byte %d" p.n;
  match p.s.[p.pos] with
  | '"' -> advance p
  | '\\' ->
      advance p;
      (if p.pos >= p.n then error "unterminated escape at byte %d" p.n;
       match p.s.[p.pos] with
       | '"' -> Buffer.add_char buf '"'; advance p
       | '\\' -> Buffer.add_char buf '\\'; advance p
       | '/' -> Buffer.add_char buf '/'; advance p
       | 'b' -> Buffer.add_char buf '\b'; advance p
       | 'f' -> Buffer.add_char buf '\012'; advance p
       | 'n' -> Buffer.add_char buf '\n'; advance p
       | 'r' -> Buffer.add_char buf '\r'; advance p
       | 't' -> Buffer.add_char buf '\t'; advance p
       | 'u' ->
           advance p;
           let u = hex4 p in
           (* high surrogate must pair with a following \uDC00-\uDFFF *)
           if u >= 0xd800 && u <= 0xdbff then begin
             if p.pos + 1 < p.n && p.s.[p.pos] = '\\' && p.s.[p.pos + 1] = 'u'
             then begin
               p.pos <- p.pos + 2;
               let lo = hex4 p in
               if lo < 0xdc00 || lo > 0xdfff then
                 error "unpaired surrogate at byte %d" p.pos;
               add_utf8 buf (0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00))
             end
             else error "unpaired surrogate at byte %d" p.pos
           end
           else if u >= 0xdc00 && u <= 0xdfff then
             error "unpaired surrogate at byte %d" p.pos
           else add_utf8 buf u
       | c -> error "bad escape '\\%c' at byte %d" c p.pos);
      decode p buf
  | c when Char.code c < 0x20 ->
      error "unescaped control character at byte %d" p.pos
  | c ->
      Buffer.add_char buf c;
      advance p;
      decode p buf

(* A plain string (no escape before its closing quote) is one [String.sub];
   anything else goes on through [decode], which also reports a control
   byte or the end of input at the byte it stops on. *)
let parse_string p =
  expect p '"';
  let start = p.pos in
  let i = ref start in
  while
    !i < p.n
    &&
    let c = String.unsafe_get p.s !i in
    c <> '"' && c <> '\\' && Char.code c >= 0x20
  do
    incr i
  done;
  if !i < p.n && String.unsafe_get p.s !i = '"' then begin
    p.pos <- !i + 1;
    String.sub p.s start (!i - start)
  end
  else begin
    let buf = Buffer.create (16 + !i - start) in
    Buffer.add_substring buf p.s start (!i - start);
    p.pos <- !i;
    decode p buf;
    Buffer.contents buf
  end

let digits p =
  let d0 = p.pos in
  while p.pos < p.n && match p.s.[p.pos] with '0' .. '9' -> true | _ -> false do
    advance p
  done;
  if p.pos = d0 then error "expected digit at byte %d" p.pos

(* An integer of at most 18 digits cannot overflow and is read in place;
   longer ones, and every fraction or exponent, go through the standard
   conversions of their text. *)
let parse_number p =
  let start = p.pos in
  if at p '-' then advance p;
  digits p;
  let is_float = ref false in
  if at p '.' then begin
    is_float := true;
    advance p;
    digits p
  end;
  if at p 'e' || at p 'E' then begin
    is_float := true;
    advance p;
    if at p '+' || at p '-' then advance p;
    digits p
  end;
  let neg = p.s.[start] = '-' in
  let d0 = if neg then start + 1 else start in
  if (not !is_float) && p.pos - d0 <= 18 then begin
    let v = ref 0 in
    for i = d0 to p.pos - 1 do
      v := (10 * !v) + Char.code (String.unsafe_get p.s i) - 48
    done;
    Int (if neg then - !v else !v)
  end
  else
    let text = String.sub p.s start (p.pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)

let rec parse_value p depth =
  if depth > max_depth then
    error "nesting deeper than %d at byte %d" max_depth p.pos;
  skip_ws p;
  if p.pos >= p.n then
    error "expected a value at byte %d, found end of input" p.pos;
  match String.unsafe_get p.s p.pos with
  | '{' ->
      advance p;
      skip_ws p;
      if at p '}' then begin
        advance p;
        Obj []
      end
      else Obj (parse_fields p depth)
  | '[' ->
      advance p;
      skip_ws p;
      if at p ']' then begin
        advance p;
        List []
      end
      else List (parse_items p depth)
  | '"' -> Str (parse_string p)
  | 't' -> literal p "true" (Bool true)
  | 'f' -> literal p "false" (Bool false)
  | 'n' -> literal p "null" Null
  | '-' | '0' .. '9' -> parse_number p
  | c -> error "unexpected character '%c' at byte %d" c p.pos

(* Lists are built in order ([tail_mod_cons]), so a long one needs neither
   a reversal nor a stack frame per element. *)
and[@tail_mod_cons] parse_fields p depth =
  skip_ws p;
  let k = parse_string p in
  skip_ws p;
  expect p ':';
  let v = parse_value p (depth + 1) in
  skip_ws p;
  if at p ',' then begin
    advance p;
    (k, v) :: parse_fields p depth
  end
  else begin
    if not (at p '}') then error "expected ',' or '}' at byte %d" p.pos;
    advance p;
    [ (k, v) ]
  end

and[@tail_mod_cons] parse_items p depth =
  let v = parse_value p (depth + 1) in
  skip_ws p;
  if at p ',' then begin
    advance p;
    v :: parse_items p depth
  end
  else begin
    if not (at p ']') then error "expected ',' or ']' at byte %d" p.pos;
    advance p;
    [ v ]
  end

let of_string s =
  let p = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value p 0 in
    skip_ws p;
    if p.pos <> p.n then error "trailing garbage at byte %d" p.pos;
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

(* ---- accessors ---- *)

let rec assoc k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else assoc k rest

let member k = function Obj fields -> assoc k fields | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
      Some (int_of_float f)
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List l -> Some l | _ -> None

(* Up to [pairwise_keys] keys, each key is compared with the ones before
   it; above, a sorted copy of (key, position) pairs puts every repeat
   next to its earlier occurrences, and the smallest position with an
   equal neighbour before it is the first second occurrence. *)
let pairwise_keys = 16

let rec occurs_before k fields stop =
  fields != stop
  &&
  match fields with
  | (k', _) :: rest -> String.equal k k' || occurs_before k rest stop
  | [] -> false

let rec first_repeat fields = function
  | [] -> None
  | ((k, _) :: rest) as l ->
      if occurs_before k fields l then Some k else first_repeat fields rest

let first_repeat_sorted fields =
  let keys = Array.of_list (List.mapi (fun i (k, _) -> (k, i)) fields) in
  Array.stable_sort
    (fun (a, i) (b, j) ->
      let c = String.compare a b in
      if c <> 0 then c else Int.compare i j)
    keys;
  let best = ref (-1) in
  for x = 1 to Array.length keys - 1 do
    let k, i = keys.(x) in
    if
      String.equal k (fst keys.(x - 1))
      && (!best < 0 || i < snd keys.(!best))
    then best := x
  done;
  if !best < 0 then None else Some (fst keys.(!best))

let rec duplicate_key = function
  | Obj fields -> (
      let own =
        if List.compare_length_with fields pairwise_keys <= 0 then
          first_repeat fields fields
        else first_repeat_sorted fields
      in
      match own with Some _ -> own | None -> first_in_fields fields)
  | List xs -> first_in_items xs
  | _ -> None

and first_in_fields = function
  | [] -> None
  | (_, v) :: rest -> (
      match duplicate_key v with None -> first_in_fields rest | d -> d)

and first_in_items = function
  | [] -> None
  | v :: rest -> (
      match duplicate_key v with None -> first_in_items rest | d -> d)
