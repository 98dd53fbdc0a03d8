(* Differential tests for the JSON parser, printer and duplicate-key
   screen: [Bfly_obs.Json] against [Json_reference], the implementation it
   replaced, on random documents, their printed text and mutations of that
   text: byte flips, truncation, inserted escapes and surrogates,
   duplicated keys, nesting at the 512-level cap, integers around 18/19
   digits and past [max_int], [-0], leading zeros and raw control bytes.
   Both must give equal trees, byte-equal error messages, equal
   duplicate-key answers and byte-equal printed text. *)

open Tu
module Json = Bfly_obs.Json
module Ref = Json_reference

(* trees, with floats compared bit for bit ([-0.] is not [0.]) *)
let rec equal a b =
  match (a, b) with
  | Json.Float x, Json.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | List xs, List ys -> List.equal equal xs ys
  | Obj xs, Obj ys ->
      List.equal (fun (k, v) (k', v') -> String.equal k k' && equal v v') xs ys
  | a, b -> a = b

(* the two parsers agree on [text]: equal trees and duplicate-key answers,
   or byte-equal errors *)
let agree text =
  match (Json.of_string text, Ref.of_string text) with
  | Ok a, Ok b -> equal a b && Json.duplicate_key a = Ref.duplicate_key b
  | Error a, Error b -> String.equal a b
  | _ -> false

let pick rng a = a.(Random.State.int rng (Array.length a))

let utf8 = [| "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\xe4\xb8\xad" |]

let gen_string rng =
  String.concat ""
    (List.init (Random.State.int rng 10) (fun _ ->
         match Random.State.int rng 8 with
         | 0 -> String.make 1 (Char.chr (Random.State.int rng 0x20))
         | 1 -> pick rng [| "\""; "\\"; "/" |]
         | 2 -> pick rng utf8
         | 3 -> String.make 1 (Char.chr (0x80 + Random.State.int rng 0x80))
         | _ -> String.make 1 (Char.chr (0x20 + Random.State.int rng 0x5f))))

let gen_int rng =
  match Random.State.int rng 6 with
  | 0 -> Random.State.int rng 100 - 50
  | 1 -> max_int
  | 2 -> min_int
  | 3 -> pick rng [| 999_999_999_999_999_999; 1_000_000_000_000_000_000; -1_000_000_000_000_000_000 |]
  | _ -> Int64.to_int (Random.State.bits64 rng)

let gen_float rng =
  match Random.State.int rng 5 with
  | 0 -> Random.State.float rng 1e6 -. 5e5
  | 1 -> Float.of_int (Random.State.int rng 1000)
  | 2 -> pick rng [| -0.; 0.1; 1e300; 1e-300; 5e-324; Float.infinity; Float.nan |]
  | 3 -> Int64.float_of_bits (Random.State.bits64 rng)
  | _ -> Random.State.float rng 1.

(* Objects of up to 40 keys, so both the pairwise and the sorted screen
   run: keys are drawn from a small pool (repeats are common), or are
   distinct with now and then one or two later repeats. *)
let gen_keys rng =
  let n = Random.State.int rng (if Random.State.int rng 3 = 0 then 40 else 6) in
  if Random.State.bool rng then
    List.init n (fun _ -> pick rng [| "a"; "b"; "c"; "id"; "job"; ""; "\"q\""; "\xc3\xa9" |])
  else
    let keys = Array.init n (fun i -> "k" ^ string_of_int i) in
    for _ = 1 to Random.State.int rng 3 do
      if n >= 2 then begin
        let i = Random.State.int rng (n - 1) in
        let j = i + 1 + Random.State.int rng (n - 1 - i) in
        keys.(j) <- keys.(i)
      end
    done;
    Array.to_list keys

let rec gen_tree rng depth =
  match Random.State.int rng (if depth <= 0 then 5 else 7) with
  | 0 -> Json.Null
  | 1 -> Bool (Random.State.bool rng)
  | 2 -> Int (gen_int rng)
  | 3 -> Float (gen_float rng)
  | 4 -> Str (gen_string rng)
  | 5 -> List (List.init (Random.State.int rng 5) (fun _ -> gen_tree rng (depth - 1)))
  | _ -> Obj (List.map (fun k -> (k, gen_tree rng (depth - 1))) (gen_keys rng))

let escapes =
  [| "\\n"; "\\\""; "\\\\"; "\\/"; "\\b"; "\\f"; "\\r"; "\\t"; "\\u0041";
     "\\u00e9"; "\\u20AC"; "\\ud83d\\ude00"; "\\uD83D\\uDE00"; "\\ud83d";
     "\\ude00"; "\\ud83d\\u0041"; "\\ud83dx"; "\\ud83d\\"; "\\ud83d\\u";
     "\\u12"; "\\uZZZZ"; "\\x"; "\\"; "\\u" |]

let numbers =
  [| "0"; "-0"; "-0.0"; "00"; "007"; "-007"; "1."; ".5"; "1e"; "1e+"; "1E-5";
     "-"; "--1"; "+1"; "1e999"; "-1e-999"; "123456789012345678";
     "1234567890123456789"; "999999999999999999"; "-999999999999999999";
     "9999999999999999999"; string_of_int max_int; "4611686018427387904";
     string_of_int min_int; "-4611686018427387905"; "000000000000000000001";
     "-000000000000000000000"; "1.5e3"; "2E+2" |]

let gen_number rng =
  if Random.State.bool rng then pick rng numbers
  else
    (if Random.State.bool rng then "-" else "")
    ^ String.init (1 + Random.State.int rng 25) (fun _ ->
          Char.chr (48 + Random.State.int rng 10))

let insert text i s =
  String.sub text 0 i ^ s ^ String.sub text i (String.length text - i)

(* a position right after a quote (inside a string or a key) half the
   time, anywhere the other half *)
let position rng text =
  let n = String.length text in
  let quotes = List.filter (fun i -> text.[i] = '"') (List.init n Fun.id) in
  if quotes <> [] && Random.State.bool rng then
    1 + pick rng (Array.of_list quotes)
  else Random.State.int rng (n + 1)

let mutate rng text =
  let n = String.length text in
  match Random.State.int rng 8 with
  | 0 when n > 0 ->
      let b = Bytes.of_string text in
      Bytes.set b (Random.State.int rng n)
        (if Random.State.bool rng then Char.chr (Random.State.int rng 256)
         else pick rng [| '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; '-'; '.'; 'e'; '0'; '\000'; '\031'; '\127' |]);
      Bytes.to_string b
  | 1 -> String.sub text 0 (Random.State.int rng (n + 1))
  | 2 -> insert text (position rng text) (pick rng escapes)
  | 3 -> insert text (Random.State.int rng (n + 1)) (gen_number rng)
  | 4 -> insert text (position rng text) (String.make 1 (Char.chr (Random.State.int rng 0x20)))
  | 5 -> insert text (Random.State.int rng (n + 1)) (pick rng [| " "; "\t"; "\r\n"; "  " |])
  | 6 when n > 0 ->
      let i = Random.State.int rng n in
      String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
  | _ -> text

let prop_documents =
  qcheck ~count:2000 "parser: random documents and mutations agree with the reference"
    (seeded QCheck2.Gen.unit)
    (fun ((), seed) ->
      let rng = rng seed in
      let text = Ref.to_string (gen_tree rng 4) in
      let mutated = ref text in
      for _ = 1 to Random.State.int rng 4 do
        mutated := mutate rng !mutated
      done;
      agree text && agree !mutated)

let prop_numbers =
  qcheck ~count:1000 "parser: number tokens agree with the reference"
    (seeded QCheck2.Gen.unit)
    (fun ((), seed) ->
      let rng = rng seed in
      let tok = gen_number rng in
      List.for_all agree
        [ tok; " " ^ tok ^ " "; "[" ^ tok ^ "]"; "{\"n\":" ^ tok ^ "}";
          "[" ^ tok ^ "," ^ gen_number rng ^ "]"; tok ^ "x" ])

let prop_printer =
  qcheck ~count:1000 "printer: bytes equal the reference's"
    (seeded QCheck2.Gen.unit)
    (fun ((), seed) ->
      let t = gen_tree (rng seed) 4 in
      String.equal (Json.to_string t) (Ref.to_string t)
      && Json.duplicate_key t = Ref.duplicate_key t)

let test_nesting_cap () =
  List.iter
    (fun d ->
      let nest o c inner =
        let rep s = String.concat "" (List.init d (fun _ -> s)) in
        rep o ^ inner ^ rep c
      in
      List.iter
        (fun text ->
          checkb (Printf.sprintf "depth %d: %s..." d (String.sub text 0 8)) true (agree text);
          checkb "truncated" true (agree (String.sub text 0 (String.length text - 1))))
        [ nest "[" "]" ""; nest "[" "]" "1"; nest "{\"a\":" "}" "1"; nest "[{\"a\":" "}]" "[]" ])
    [ 511; 512; 513; 514 ];
  (* the 513th bracket opens the 512th nested level, which holds a value
     no deeper than the cap only when it is empty *)
  let deep d = String.make d '[' ^ String.make d ']' in
  checkb "513 brackets parse" true (Result.is_ok (Json.of_string (deep 513)));
  Alcotest.(check string) "514 brackets" "nesting deeper than 512 at byte 513"
    (match Json.of_string (deep 514) with Ok _ -> "parsed" | Error m -> m)

let obj keys = Json.Obj (List.map (fun k -> (k, Json.Int 0)) keys)
let padded keys = List.init 20 (fun i -> "p" ^ string_of_int i) @ keys

let test_duplicate_key_answers () =
  let dup = Alcotest.(check (option string)) in
  dup "[a,b,b,a] reports b" (Some "b") (Json.duplicate_key (obj [ "a"; "b"; "b"; "a" ]));
  dup "[a,b,b,a] after 20 keys reports b" (Some "b")
    (Json.duplicate_key (obj (padded [ "a"; "b"; "b"; "a" ])));
  dup "[a,b,a,b] after 20 keys reports a" (Some "a")
    (Json.duplicate_key (obj (padded [ "a"; "b"; "a"; "b" ])));
  dup "distinct keys" None (Json.duplicate_key (obj (padded [ "a"; "b" ])));
  let with_child keys =
    Json.Obj (("x", obj [ "d"; "d" ]) :: List.map (fun k -> (k, Json.Null)) keys)
  in
  dup "own keys before a child's" (Some "a") (Json.duplicate_key (with_child [ "a"; "a" ]));
  dup "own keys before a child's, sorted" (Some "a")
    (Json.duplicate_key (with_child (padded [ "a"; "a" ])));
  dup "a child's when its own are distinct" (Some "d")
    (Json.duplicate_key (with_child (padded [ "a" ])));
  dup "first child in order" (Some "e")
    (Json.duplicate_key (Json.List [ obj [ "e"; "e" ]; obj [ "d"; "d" ] ]))

(* About 23,000 keys fit in one request line under the transport's
   262,144-byte cap; screening them used to compare every key with every
   earlier one (0.88 s at 10,000 keys, 5.4 s at 25,000). *)
let test_many_keys () =
  let line ~last =
    let b = Buffer.create 262_144 in
    Buffer.add_string b "{\"id\":\"wide\"";
    for i = 0 to 22_999 do
      Printf.bprintf b ",\"k%d\":0" i
    done;
    Buffer.add_string b last;
    Buffer.add_char b '}';
    Buffer.contents b
  in
  List.iter
    (fun (last, expected) ->
      let text = line ~last in
      checkb "fits under max_line" true (String.length text < 262_144);
      let best = ref infinity and answer = ref None in
      for _ = 1 to 3 do
        let t0 = Unix.gettimeofday () in
        (match Json.of_string text with
        | Ok doc -> answer := Json.duplicate_key doc
        | Error e -> Alcotest.fail e);
        best := Float.min !best (Unix.gettimeofday () -. t0)
      done;
      Alcotest.(check (option string)) "answer" expected !answer;
      checkb (Printf.sprintf "parsed and screened in %.1f ms < 50 ms" (!best *. 1e3)) true
        (!best < 0.05))
    [ ("", None); (",\"k0\":1", Some "k0"); (",\"k22998\":1,\"k5\":2", Some "k22998") ]

let suite =
  [
    prop_documents;
    prop_numbers;
    prop_printer;
    case "parser: nesting at 511-514 levels agrees" test_nesting_cap;
    case "duplicate_key: second occurrence first, own keys first"
      test_duplicate_key_answers;
    case "duplicate_key: 23,000 keys screened in under 50 ms" test_many_keys;
  ]
