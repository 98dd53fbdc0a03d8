module Bitset = Bfly_graph.Bitset
open Tu

let test_empty () =
  let s = Bitset.create 100 in
  check "empty cardinal" 0 (Bitset.cardinal s);
  checkb "is_empty" true (Bitset.is_empty s);
  checkb "no member" false (Bitset.mem s 50);
  check "capacity" 100 (Bitset.capacity s)

let test_add_remove () =
  let s = Bitset.create 200 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 199;
  check "cardinal after adds" 4 (Bitset.cardinal s);
  checkb "mem 63 (word boundary)" true (Bitset.mem s 63);
  checkb "mem 64 (word boundary)" true (Bitset.mem s 64);
  Bitset.remove s 63;
  checkb "removed" false (Bitset.mem s 63);
  check "cardinal after remove" 3 (Bitset.cardinal s);
  Bitset.remove s 63;
  check "idempotent remove" 3 (Bitset.cardinal s);
  Bitset.add s 0;
  check "idempotent add" 3 (Bitset.cardinal s)

let test_flip_set () =
  let s = Bitset.create 10 in
  Bitset.flip s 3;
  checkb "flip on" true (Bitset.mem s 3);
  Bitset.flip s 3;
  checkb "flip off" false (Bitset.mem s 3);
  Bitset.set s 5 true;
  checkb "set true" true (Bitset.mem s 5);
  Bitset.set s 5 false;
  checkb "set false" false (Bitset.mem s 5)

let test_elements_order () =
  let s = Bitset.of_list 150 [ 149; 0; 77; 63; 64; 5 ] in
  Alcotest.(check (list int))
    "sorted elements" [ 0; 5; 63; 64; 77; 149 ] (Bitset.elements s)

let test_set_ops () =
  let a = Bitset.of_list 70 [ 1; 2; 3; 65 ] in
  let b = Bitset.of_list 70 [ 3; 4; 65; 69 ] in
  Alcotest.(check (list int))
    "union" [ 1; 2; 3; 4; 65; 69 ]
    (Bitset.elements (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 3; 65 ] (Bitset.elements (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Bitset.elements (Bitset.diff a b));
  checkb "subset no" false (Bitset.subset a b);
  checkb "subset yes" true (Bitset.subset (Bitset.inter a b) a)

let test_complement () =
  let s = Bitset.of_list 5 [ 0; 2; 4 ] in
  Alcotest.(check (list int))
    "complement" [ 1; 3 ]
    (Bitset.elements (Bitset.complement s))

let test_copy_independent () =
  let s = Bitset.of_list 10 [ 1 ] in
  let c = Bitset.copy s in
  Bitset.add c 2;
  checkb "copy independent" false (Bitset.mem s 2);
  checkb "copy has" true (Bitset.mem c 2)

let test_fill_clear () =
  let s = Bitset.create 130 in
  Bitset.fill s;
  check "full" 130 (Bitset.cardinal s);
  checkb "equal to own copy" true (Bitset.equal s (Bitset.copy s));
  Bitset.clear s;
  check "cleared" 0 (Bitset.cardinal s)

let test_choose () =
  let s = Bitset.of_list 100 [ 42; 77 ] in
  check "choose smallest" 42 (Bitset.choose s);
  Alcotest.check_raises "choose empty" Not_found (fun () ->
      ignore (Bitset.choose (Bitset.create 4)))

let test_iter_fold () =
  let s = Bitset.of_list 300 [ 7; 250; 62; 63 ] in
  let sum = Bitset.fold s 0 ( + ) in
  check "fold sum" (7 + 250 + 62 + 63) sum

let prop_model =
  qcheck ~count:200 "bitset matches list model"
    QCheck2.Gen.(list (int_bound 199))
    (fun l ->
      let s = Bitset.of_list 200 l in
      let model = List.sort_uniq compare l in
      Bitset.elements s = model && Bitset.cardinal s = List.length model)

let prop_union_commutes =
  qcheck ~count:200 "union commutes, inter distributes"
    QCheck2.Gen.(pair (list (int_bound 99)) (list (int_bound 99)))
    (fun (la, lb) ->
      let a = Bitset.of_list 100 la and b = Bitset.of_list 100 lb in
      Bitset.equal (Bitset.union a b) (Bitset.union b a)
      && Bitset.equal (Bitset.inter a b) (Bitset.inter b a)
      && Bitset.equal
           (Bitset.diff a b)
           (Bitset.inter a (Bitset.complement b)))

(* The multiply-shift reciprocal behind every element operation: equal to
   [/] and [mod] by 63 on the whole proven domain [0, 2^30), sampled
   uniformly plus the word boundaries and both ends. *)
let prop_word_index =
  qcheck ~count:2000 "word_index/bit_index = / and mod 63 on [0, 2^30)"
    QCheck2.Gen.(
      oneof
        [
          int_bound ((1 lsl 30) - 1);
          map (fun k -> (63 * k) + 62) (int_bound 17043520);
          map (fun d -> (1 lsl 30) - 1 - d) (int_bound 200);
          int_bound 200;
        ])
    (fun i -> Bitset.word_index i = i / 63 && Bitset.bit_index i = i mod 63)

(* [mem]/[add]/[remove]/[flip] against a bool array, at every capacity
   from 0 to 190 (0 to 3 full words plus tails), over random op
   sequences. *)
let prop_ops_match_naive =
  qcheck ~count:300 "mem/add/remove/flip match a naive model, capacity 0-190"
    QCheck2.Gen.(
      pair (int_bound 190) (list_size (int_bound 60) (pair (int_bound 3) nat)))
    (fun (cap, ops) ->
      let s = Bitset.create cap and model = Array.make cap false in
      List.iter
        (fun (op, x) ->
          if cap > 0 then
            let i = x mod cap in
            match op with
            | 0 -> Bitset.add s i; model.(i) <- true
            | 1 -> Bitset.remove s i; model.(i) <- false
            | 2 -> Bitset.flip s i; model.(i) <- not model.(i)
            | _ -> Bitset.set s i (i land 1 = 0); model.(i) <- i land 1 = 0)
        ops;
      let members = List.filter (fun i -> model.(i)) (List.init cap Fun.id) in
      List.for_all (fun i -> Bitset.mem s i = model.(i)) (List.init cap Fun.id)
      && Bitset.elements s = members
      && Bitset.cardinal s = List.length members)

let test_capacity_bounds () =
  let refused n =
    match Bitset.create n with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  checkb "negative capacity refused" true (refused (-1));
  checkb "capacity beyond 2^30 refused" true (refused (Bitset.max_capacity + 1));
  check "max_capacity is 2^30" (1 lsl 30) Bitset.max_capacity;
  check "capacity 0 accepted" 0 (Bitset.capacity (Bitset.create 0))

let suite =
  [
    case "empty" test_empty;
    case "add/remove across word boundaries" test_add_remove;
    case "flip and set" test_flip_set;
    case "elements sorted" test_elements_order;
    case "union/inter/diff/subset" test_set_ops;
    case "complement" test_complement;
    case "copy independence" test_copy_independent;
    case "fill and clear" test_fill_clear;
    case "choose" test_choose;
    case "iter/fold" test_iter_fold;
    prop_model;
    prop_union_commutes;
    prop_word_index;
    prop_ops_match_naive;
    case "create refuses capacities beyond 2^30" test_capacity_bounds;
  ]
