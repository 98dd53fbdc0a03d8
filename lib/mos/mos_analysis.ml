let f x y = x +. y -. Float.min 1.0 (2.0 *. x *. y)
let f_min = sqrt 2.0 -. 1.0
let f_argmin = sqrt 0.5

(* Minimum capacity with |S∩M1| = a, |S∩M3| = b and m2_in_a middle nodes in
   S. Mixed paths (one endpoint class in S) cost 1 regardless of where the
   middle sits; an S–S path with its middle outside S costs 2, as does an
   S̄–S̄ path with its middle in S. Greedy placement: S middles go on S–S
   paths first, then mixed, then S̄–S̄. *)
let capacity_at ~j ~a ~b ~m2_in_a =
  assert (0 <= a && a <= j && 0 <= b && b <= j);
  assert (0 <= m2_in_a && m2_in_a <= j * j);
  let n_ss = a * b in
  let n_mix = (a * (j - b)) + ((j - a) * b) in
  n_mix + (2 * max 0 (n_ss - m2_in_a)) + (2 * max 0 (m2_in_a - n_ss - n_mix))

let balanced_middles m2 =
  if m2 mod 2 = 0 then [ m2 / 2 ] else [ m2 / 2; (m2 / 2) + 1 ]

(* The scan returns its argmin so a cached entry carries a witness:
   on a hit, [capacity_at] re-derives the value from the witness before
   it is served. *)
let bw_m2_scan j =
  let m2 = j * j in
  let best = ref (max_int, 0, 0, 0) in
  for a = 0 to j do
    for b = 0 to j do
      List.iter
        (fun m2_in_a ->
          let c = capacity_at ~j ~a ~b ~m2_in_a in
          let bc, _, _, _ = !best in
          if c < bc then best := (c, a, b, m2_in_a))
        (balanced_middles m2)
    done
  done;
  !best

let bw_m2_verify j (v, a, b, m2_in_a) =
  0 <= a && a <= j && 0 <= b && b <= j
  && List.mem m2_in_a (balanced_middles (j * j))
  && capacity_at ~j ~a ~b ~m2_in_a = v

let bw_m2 j =
  if j < 1 then invalid_arg "Mos_analysis.bw_m2: j must be >= 1";
  let open Bfly_cache in
  let key =
    Key.make ~solver:"mos.bw_m2" ~salt:"bw_m2/1"
      ~params:[ ("j", Bfly_obs.Json.decimal j) ]
      ~fingerprint:(Fingerprint.int Fingerprint.seed j)
  in
  let encode (v, a, b, m2_in_a) =
    [
      ("value", Codec.Int v);
      ("a", Codec.Int a);
      ("b", Codec.Int b);
      ("m2_in_a", Codec.Int m2_in_a);
    ]
  in
  let decode payload =
    match
      ( Codec.get_int payload "value",
        Codec.get_int payload "a",
        Codec.get_int payload "b",
        Codec.get_int payload "m2_in_a" )
    with
    | Some v, Some a, Some b, Some m -> Some (v, a, b, m)
    | _ -> None
  in
  let v, _, _, _ =
    Store.memoize ~key ~encode ~decode ~verify:(bw_m2_verify j)
      ~compute:(fun () -> bw_m2_scan j)
  in
  v

let bw_m2_brute j =
  if j > 4 then invalid_arg "Mos_analysis.bw_m2_brute: j too large";
  let mos = Bfly_networks.Mesh_of_stars.create ~j ~k:j in
  let g = Bfly_networks.Mesh_of_stars.graph mos in
  let u = Bfly_networks.Mesh_of_stars.m2_set mos in
  let c, _ = Bfly_cuts.Exact.bisection_width_exhaustive ~u g in
  c

let lemma_2_17_value j a b =
  let x = float_of_int a /. float_of_int j and y = float_of_int b /. float_of_int j in
  int_of_float (Float.round (f x y *. float_of_int (j * j)))

let butterfly_lower_bound n =
  if n < 2 || n land (n - 1) <> 0 then
    invalid_arg "Mos_analysis.butterfly_lower_bound: n must be a power of two >= 2";
  (* Lemma 2.13: BW(B_n)/n >= 2·BW(MOS_{n,n}, M2)/n² *)
  let bw = bw_m2 n in
  ((2 * bw) + n - 1) / n

let convergence_row j =
  let bw = bw_m2 j in
  let density = float_of_int bw /. float_of_int (j * j) in
  (bw, density, density /. f_min)
