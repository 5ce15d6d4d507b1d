(* Field, FFT and polynomial tests. *)

open Zebra_field

let rng = Zebra_rng.Chacha20.create ~seed:"test_field"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n
let fresh_fp () = Fp.random random_bytes

let fp = Alcotest.testable Fp.pp Fp.equal

let qtest name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* Generator: random field element via an int seed expanded through ChaCha. *)
let arb_fp =
  QCheck2.Gen.map
    (fun seed ->
      let r = Zebra_rng.Chacha20.create ~seed:(Printf.sprintf "fp-%d" seed) in
      Fp.random (Zebra_rng.Chacha20.bytes r))
    QCheck2.Gen.(int_bound 1_000_000)

(* --- Fp --- *)

let test_constants () =
  Alcotest.check fp "0+1=1" Fp.one (Fp.add Fp.zero Fp.one);
  Alcotest.check fp "1+1=2" Fp.two (Fp.add Fp.one Fp.one);
  Alcotest.check fp "p=0" Fp.zero (Fp.of_nat Fp.modulus)

let test_negative_of_int () =
  Alcotest.check fp "-1 + 1 = 0" Fp.zero (Fp.add (Fp.of_int (-1)) Fp.one);
  Alcotest.check fp "-5 = neg 5" (Fp.neg (Fp.of_int 5)) (Fp.of_int (-5))

let test_bytes_roundtrip () =
  let x = fresh_fp () in
  Alcotest.check fp "roundtrip" x (Fp.of_bytes_be_exn (Fp.to_bytes_be x))

let test_bytes_noncanonical () =
  let b = Bytes.make 32 '\xff' in
  Alcotest.check_raises "non-canonical rejected"
    (Invalid_argument "Fp.of_bytes_be_exn: not canonical") (fun () ->
      ignore (Fp.of_bytes_be_exn b))

let test_root_of_unity () =
  let w = Fp.root_of_unity 10 in
  Alcotest.check fp "w^1024 = 1" Fp.one (Fp.pow_int w 1024);
  Alcotest.(check bool) "w^512 <> 1" false (Fp.equal Fp.one (Fp.pow_int w 512))

let test_max_two_adic_root () =
  let w = Fp.root_of_unity 28 in
  Alcotest.check fp "order 2^28" Fp.one (Fp.pow w (Zebra_numeric.Nat.pow Zebra_numeric.Nat.two 28));
  Alcotest.(check bool) "primitive" false
    (Fp.equal Fp.one (Fp.pow w (Zebra_numeric.Nat.pow Zebra_numeric.Nat.two 27)))

let test_batch_inv () =
  let a = Array.init 20 (fun _ -> fresh_fp ()) in
  let inv = Fp.batch_inv a in
  Array.iteri (fun i x -> Alcotest.check fp "x * x^-1" Fp.one (Fp.mul x inv.(i))) a

let test_batch_inv_zero () =
  Alcotest.check_raises "zero in batch" Division_by_zero (fun () ->
      ignore (Fp.batch_inv [| Fp.one; Fp.zero |]))

let prop_field_laws =
  qtest "field laws" (QCheck2.Gen.triple arb_fp arb_fp arb_fp) (fun (a, b, c) ->
      Fp.equal (Fp.mul a (Fp.add b c)) (Fp.add (Fp.mul a b) (Fp.mul a c))
      && Fp.equal (Fp.mul a b) (Fp.mul b a)
      && Fp.equal (Fp.add (Fp.sub a b) b) a
      && Fp.equal (Fp.sub Fp.zero a) (Fp.neg a))

let prop_inverse =
  qtest "multiplicative inverse" arb_fp (fun a ->
      Fp.is_zero a || Fp.equal Fp.one (Fp.mul a (Fp.inv a)))

let prop_sqr =
  qtest "sqr = mul self" arb_fp (fun a -> Fp.equal (Fp.sqr a) (Fp.mul a a))

(* --- in-place kernels, Vec, bucketed dots (PR 10) --- *)

module Nat = Zebra_numeric.Nat

(* Edge-heavy generator: the in-place kernels must agree with the pure
   ops at 0, 1, p-1 and p-2 as well as on random elements. *)
let arb_fp_edge =
  QCheck2.Gen.frequency
    [
      (6, arb_fp);
      (1, QCheck2.Gen.return Fp.zero);
      (1, QCheck2.Gen.return Fp.one);
      (1, QCheck2.Gen.return (Fp.neg Fp.one));
      (1, QCheck2.Gen.return (Fp.neg Fp.two));
    ]

let prop_into_kernels =
  qtest "in-place kernels = pure ops" ~count:300 (QCheck2.Gen.pair arb_fp_edge arb_fp_edge)
    (fun (a, b) ->
      let dst = Fp.buffer () in
      Fp.add_into ~dst a b;
      let ok_add = Fp.equal dst (Fp.add a b) in
      Fp.sub_into ~dst a b;
      let ok_sub = Fp.equal dst (Fp.sub a b) in
      Fp.mul_into ~dst a b;
      let ok_mul = Fp.equal dst (Fp.mul a b) in
      Fp.sqr_into ~dst a;
      let ok_sqr = Fp.equal dst (Fp.sqr a) in
      Fp.neg_into ~dst a;
      let ok_neg = Fp.equal dst (Fp.neg a) in
      (* Aliased destinations (dst == an operand) for the elementwise
         kernels, as the documented aliasing rules permit. *)
      let buf = Fp.copy a in
      Fp.add_into ~dst:buf buf b;
      let ok_add_alias = Fp.equal buf (Fp.add a b) in
      let buf = Fp.copy a in
      Fp.sub_into ~dst:buf buf b;
      let ok_sub_alias = Fp.equal buf (Fp.sub a b) in
      let buf = Fp.copy b in
      Fp.sub_into ~dst:buf a buf;
      let ok_sub_alias2 = Fp.equal buf (Fp.sub a b) in
      let buf = Fp.copy a in
      Fp.neg_into ~dst:buf buf;
      let ok_neg_alias = Fp.equal buf (Fp.neg a) in
      ok_add && ok_sub && ok_mul && ok_sqr && ok_neg && ok_add_alias && ok_sub_alias
      && ok_sub_alias2 && ok_neg_alias)

let test_mul_into_alias_rejected () =
  let a = Fp.copy Fp.two in
  Alcotest.check_raises "dst aliasing a source is rejected"
    (Invalid_argument "Modular.mul_off: destination overlaps a source") (fun () ->
      Fp.mul_into ~dst:a a Fp.one)

(* Reference binary exponentiation; Fp.pow now uses a 4-bit sliding
   window and must return limb-identical results. *)
let naive_pow b e =
  let nb = Nat.num_bits e in
  if nb = 0 then Fp.one
  else begin
    let acc = ref b in
    for i = nb - 2 downto 0 do
      acc := Fp.sqr !acc;
      if Nat.testbit e i then acc := Fp.mul !acc b
    done;
    !acc
  end

let prop_pow_window =
  qtest "sliding-window pow = square-and-multiply" ~count:60 QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let r = Zebra_rng.Chacha20.create ~seed:(Printf.sprintf "pow-%d" seed) in
      let rb n = Zebra_rng.Chacha20.bytes r n in
      let b = Fp.random rb in
      let e = Nat.of_bytes_be (rb 32) in
      Fp.equal (Fp.pow b e) (naive_pow b e)
      && Fp.equal (Fp.pow b Nat.zero) Fp.one
      && Fp.equal (Fp.pow b Nat.one) b
      && List.for_all
           (fun k ->
             let e = Nat.of_int k in
             Fp.equal (Fp.pow b e) (naive_pow b e))
           [ 2; 15; 16; 17; 255; 257 ])

let prop_bucket_dot =
  qtest "bucketed sparse dot = naive sum" ~count:200 QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let r = Zebra_rng.Chacha20.create ~seed:(Printf.sprintf "dot-%d" seed) in
      let rb n = Zebra_rng.Chacha20.bytes r n in
      let byte () = Char.code (Bytes.get (rb 1) 0) in
      let nw = 1 + (byte () mod 8) in
      (* Witness values skew to 0/1 like real boolean wires. *)
      let w =
        Array.init nw (fun _ ->
            match byte () mod 4 with 0 -> Fp.zero | 1 -> Fp.one | _ -> Fp.random rb)
      in
      (* Coefficients skew to +-1 like real constraint rows. *)
      let len = byte () mod 24 in
      let coefs =
        Array.init len (fun _ ->
            match byte () mod 4 with 0 -> Fp.one | 1 -> Fp.neg Fp.one | _ -> Fp.random rb)
      in
      let idx = Array.init len (fun _ -> byte () mod nw) in
      let cls = Fp.classify_coefs coefs in
      let scratch = Fp.dot_scratch () in
      let check lo hi =
        let init = Fp.random rb in
        let acc = Fp.copy init in
        Fp.dot_sparse_acc ~scratch ~acc ~cls ~coefs ~idx ~w ~lo ~hi;
        let naive = ref init in
        for k = lo to hi - 1 do
          naive := Fp.add !naive (Fp.mul coefs.(k) w.(idx.(k)))
        done;
        Fp.equal acc !naive
      in
      check 0 len && check (len / 3) (len - (len / 4)))

let test_vec_roundtrip () =
  let a = Array.init 10 (fun _ -> fresh_fp ()) in
  let v = Fp.Vec.of_array a in
  Alcotest.(check int) "length" 10 (Fp.Vec.length v);
  Array.iteri (fun i x -> Alcotest.check fp (Printf.sprintf "get %d" i) x (Fp.Vec.get v i)) a;
  let b = Fp.Vec.to_array v in
  Array.iteri (fun i x -> Alcotest.check fp (Printf.sprintf "to_array %d" i) x b.(i)) a;
  (* Fvec is the same type as Fp.Vec — the alias module interoperates. *)
  Alcotest.(check int) "Fvec alias" 10 (Fvec.length v);
  Fp.Vec.swap v 0 9;
  Alcotest.check fp "swap" a.(9) (Fp.Vec.get v 0);
  (* [set] copies the value in: mutating vector slots afterwards must
     never reach back into the element we stored. *)
  let x = fresh_fp () in
  let x_saved = Fp.copy x in
  Fp.Vec.set v 1 x;
  Fp.Vec.set v 1 Fp.zero;
  Alcotest.check fp "set copies" x_saved x;
  Alcotest.(check bool) "is_zero" true (Fp.Vec.is_zero v 1)

let test_vec_slot_ops () =
  let x = fresh_fp () and y = fresh_fp () and c = fresh_fp () in
  let tmp = Fp.buffer () in
  let v = Fp.Vec.of_array [| x; y |] in
  Fp.Vec.butterfly ~tmp v 0 1 c;
  Alcotest.check fp "butterfly +" (Fp.add x (Fp.mul c y)) (Fp.Vec.get v 0);
  Alcotest.check fp "butterfly -" (Fp.sub x (Fp.mul c y)) (Fp.Vec.get v 1);
  let v = Fp.Vec.of_array [| x; y |] in
  Fp.Vec.mul_slot_elt ~tmp v 0 c;
  Alcotest.check fp "mul_slot_elt" (Fp.mul x c) (Fp.Vec.get v 0);
  Fp.Vec.add_slots v 0 v 0 v 1;
  Alcotest.check fp "add_slots (aliased dst)" (Fp.add (Fp.mul x c) y) (Fp.Vec.get v 0);
  let v = Fp.Vec.of_array [| x; y |] in
  Fp.Vec.mul_into_elt ~dst:tmp v 0 v 1;
  Alcotest.check fp "mul_into_elt" (Fp.mul x y) tmp;
  Fp.Vec.mul_elt_into ~dst:tmp v 1 c;
  Alcotest.check fp "mul_elt_into" (Fp.mul y c) tmp;
  Fp.Vec.set_mul v 0 c c;
  Alcotest.check fp "set_mul" (Fp.sqr c) (Fp.Vec.get v 0);
  Fp.Vec.sub_elt_into ~dst:tmp c v 1;
  Alcotest.check fp "sub_elt_into" (Fp.sub c y) tmp;
  Fp.set_zero tmp;
  Fp.Vec.add_elt_acc ~acc:tmp v 1;
  Fp.Vec.add_elt_acc ~acc:tmp v 1;
  Alcotest.check fp "add_elt_acc" (Fp.add y y) tmp;
  let v = Fp.Vec.of_array [| x |] in
  Fp.Vec.add_slot_elt v 0 c;
  Alcotest.check fp "add_slot_elt" (Fp.add x c) (Fp.Vec.get v 0);
  Fp.Vec.sub_slot_elt v 0 c;
  Alcotest.check fp "sub_slot_elt" x (Fp.Vec.get v 0)

(* [transform t d a] runs the in-place vector transform [t] on a copy of
   [a] and returns the result as an array. *)
let transform t d a =
  let v = Fp.Vec.of_array a in
  t d v;
  Fp.Vec.to_array v

let test_fft_vec_matches_eval () =
  let d = Fft.domain 16 in
  let a = Array.init 16 (fun _ -> fresh_fp ()) in
  let p = Poly.of_coeffs (Array.copy a) in
  (* Forward transforms evaluate [a] on the domain (resp. its coset);
     inverse transforms return coefficients whose evaluations there give
     back [a].  Every variant is checked slot for slot against Horner. *)
  let shifts =
    [
      ("fft", Fp.one, Fft.fft_vec, Fft.ifft_vec);
      ("coset", Fp.generator, Fft.coset_fft_vec, Fft.coset_ifft_vec);
    ]
  in
  List.iter
    (fun (name, shift, fwd, inv) ->
      let evals = transform fwd d a in
      let q = Poly.of_coeffs (transform inv d a) in
      for i = 0 to 15 do
        let x = Fp.mul shift (Fft.element d i) in
        Alcotest.check fp (Printf.sprintf "%s forward %d" name i) (Poly.eval p x) evals.(i);
        Alcotest.check fp (Printf.sprintf "%s inverse %d" name i) a.(i) (Poly.eval q x)
      done)
    shifts

(* --- FFT --- *)

let rand_poly n = Array.init n (fun _ -> fresh_fp ())

let test_fft_roundtrip () =
  List.iter
    (fun n ->
      let d = Fft.domain n in
      let a = rand_poly (Fft.size d) in
      let b = transform Fft.ifft_vec d (transform Fft.fft_vec d a) in
      Array.iteri (fun i x -> Alcotest.check fp (Printf.sprintf "n=%d i=%d" n i) a.(i) x) b)
    [ 1; 2; 4; 8; 64; 256 ]

let test_fft_matches_eval () =
  let d = Fft.domain 8 in
  let coeffs = rand_poly 8 in
  let p = Poly.of_coeffs (Array.copy coeffs) in
  let evals = transform Fft.fft_vec d coeffs in
  for i = 0 to 7 do
    Alcotest.check fp (Printf.sprintf "eval at w^%d" i) (Poly.eval p (Fft.element d i)) evals.(i)
  done

let test_coset_fft_matches_eval () =
  let d = Fft.domain 8 in
  let coeffs = rand_poly 8 in
  let p = Poly.of_coeffs (Array.copy coeffs) in
  let evals = transform Fft.coset_fft_vec d coeffs in
  let g = Fp.generator in
  for i = 0 to 7 do
    let x = Fp.mul g (Fft.element d i) in
    Alcotest.check fp (Printf.sprintf "coset eval %d" i) (Poly.eval p x) evals.(i)
  done

let test_coset_roundtrip () =
  let d = Fft.domain 16 in
  let a = rand_poly 16 in
  let b = transform Fft.coset_ifft_vec d (transform Fft.coset_fft_vec d a) in
  Array.iteri (fun i x -> Alcotest.check fp (Printf.sprintf "i=%d" i) a.(i) x) b

let test_vanishing () =
  let d = Fft.domain 8 in
  for i = 0 to 7 do
    Alcotest.check fp "Z(w^i)=0" Fp.zero (Fft.vanishing_at d (Fft.element d i))
  done;
  let g = Fp.generator in
  Alcotest.check fp "Z on coset" (Fft.vanishing_on_coset d)
    (Fft.vanishing_at d (Fp.mul g Fp.one))

let test_lagrange_at () =
  let d = Fft.domain 8 in
  let x = fresh_fp () in
  let ls = Fft.lagrange_at d x in
  (* Sum of all Lagrange basis polys is 1. *)
  let sum = Array.fold_left Fp.add Fp.zero ls in
  Alcotest.check fp "partition of unity" Fp.one sum;
  (* Against the naive interpolation through an indicator function. *)
  let pts = List.init 8 (fun i -> (Fft.element d i, if i = 3 then Fp.one else Fp.zero)) in
  let l3 = Poly.interpolate pts in
  Alcotest.check fp "L_3(x)" (Poly.eval l3 x) ls.(3)

(* --- Poly --- *)

let test_poly_divmod () =
  let p = Poly.of_coeffs (rand_poly 10) in
  let d = Poly.of_coeffs (rand_poly 4) in
  let q, r = Poly.divmod p d in
  Alcotest.(check bool) "deg r < deg d" true (Poly.degree r < Poly.degree d);
  Alcotest.(check bool) "p = q*d + r" true (Poly.equal p (Poly.add (Poly.mul q d) r))

let test_poly_interpolate_roundtrip () =
  let pts = List.init 6 (fun i -> (Fp.of_int (i + 1), fresh_fp ())) in
  let p = Poly.interpolate pts in
  List.iter (fun (x, y) -> Alcotest.check fp "through point" y (Poly.eval p x)) pts

let test_poly_interpolate_duplicate () =
  Alcotest.check_raises "duplicate x" (Invalid_argument "Poly.interpolate: duplicate x")
    (fun () -> ignore (Poly.interpolate [ (Fp.one, Fp.one); (Fp.one, Fp.two) ]))

let prop_poly_mul_eval =
  qtest "eval is ring hom" (QCheck2.Gen.pair arb_fp (QCheck2.Gen.int_bound 8))
    (fun (x, n) ->
      let a = Poly.of_coeffs (rand_poly (n + 1)) in
      let b = Poly.of_coeffs (rand_poly (n + 2)) in
      Fp.equal (Poly.eval (Poly.mul a b) x) (Fp.mul (Poly.eval a x) (Poly.eval b x))
      && Fp.equal (Poly.eval (Poly.add a b) x) (Fp.add (Poly.eval a x) (Poly.eval b x)))

let () =
  Alcotest.run "field"
    [
      ( "fp",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "negative of_int" `Quick test_negative_of_int;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "non-canonical bytes" `Quick test_bytes_noncanonical;
          Alcotest.test_case "root of unity" `Quick test_root_of_unity;
          Alcotest.test_case "2^28 root" `Quick test_max_two_adic_root;
          Alcotest.test_case "batch inversion" `Quick test_batch_inv;
          Alcotest.test_case "batch inversion zero" `Quick test_batch_inv_zero;
          prop_field_laws; prop_inverse; prop_sqr;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "mul_into alias rejected" `Quick test_mul_into_alias_rejected;
          Alcotest.test_case "vec roundtrip" `Quick test_vec_roundtrip;
          Alcotest.test_case "vec slot ops" `Quick test_vec_slot_ops;
          Alcotest.test_case "fft vec = Poly eval" `Quick test_fft_vec_matches_eval;
          prop_into_kernels; prop_pow_window; prop_bucket_dot;
        ] );
      ( "fft",
        [
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "matches Horner" `Quick test_fft_matches_eval;
          Alcotest.test_case "coset matches Horner" `Quick test_coset_fft_matches_eval;
          Alcotest.test_case "coset roundtrip" `Quick test_coset_roundtrip;
          Alcotest.test_case "vanishing polynomial" `Quick test_vanishing;
          Alcotest.test_case "lagrange at point" `Quick test_lagrange_at;
        ] );
      ( "poly",
        [
          Alcotest.test_case "divmod" `Quick test_poly_divmod;
          Alcotest.test_case "interpolation" `Quick test_poly_interpolate_roundtrip;
          Alcotest.test_case "duplicate abscissae" `Quick test_poly_interpolate_duplicate;
          prop_poly_mul_eval;
        ] );
    ]
