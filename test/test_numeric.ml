(* Unit and property tests for the arbitrary-precision substrate. *)

open Zebra_numeric

let rng = Zebra_rng.Chacha20.create ~seed:"test_numeric"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

let nat = Alcotest.testable Nat.pp Nat.equal

(* Random Nat of up to [bits] bits for qcheck generators; derives randomness
   from the qcheck state so shrinking stays meaningful. *)
let arb_nat ?(bits = 256) () =
  let max_bytes = (bits + 7) / 8 in
  QCheck2.Gen.map
    (fun ints -> Nat.of_bytes_be (Bytes.of_string (String.concat "" (List.map (String.make 1) (List.map Char.chr ints)))))
    QCheck2.Gen.(list_size (int_range 0 max_bytes) (int_bound 255))

let qtest name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- Nat unit tests --- *)

let test_of_int_roundtrip () =
  List.iter
    (fun v -> Alcotest.(check (option int)) "roundtrip" (Some v) (Nat.to_int_opt (Nat.of_int v)))
    [ 0; 1; 2; 42; 0x7fffffff; 0x80000000; max_int ]

let test_decimal_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) "decimal" s (Nat.to_decimal_string (Nat.of_decimal_string s)))
    [ "0"; "1"; "4294967296"; "340282366920938463463374607431768211456";
      "21888242871839275222246405745257275088548364400416034343698204186575808495617" ]

let test_hex_roundtrip () =
  let x = Nat.of_hex "deadbeef00112233445566778899aabbccddeeff" in
  Alcotest.(check string) "hex" "deadbeef00112233445566778899aabbccddeeff" (Nat.to_hex x)

let test_bytes_roundtrip () =
  let b = Bytes.of_string "\x01\x02\x03\xff\x00\x10" in
  let x = Nat.of_bytes_be b in
  Alcotest.(check bytes) "bytes" b (Nat.to_bytes_be ~len:6 x)

let test_sub_underflow () =
  Alcotest.check_raises "sub underflow" (Invalid_argument "Nat.sub: negative result") (fun () ->
      ignore (Nat.sub Nat.one Nat.two))

let test_divmod_small_cases () =
  let x = Nat.of_decimal_string "123456789123456789" in
  let q, r = Nat.divmod x (Nat.of_int 1000) in
  Alcotest.(check string) "q" "123456789123456" (Nat.to_decimal_string q);
  Alcotest.(check string) "r" "789" (Nat.to_decimal_string r)

let test_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod Nat.one Nat.zero))

let test_pow () =
  Alcotest.(check string) "2^100" "1267650600228229401496703205376"
    (Nat.to_decimal_string (Nat.pow Nat.two 100))

let test_num_bits () =
  Alcotest.(check int) "bits 0" 0 (Nat.num_bits Nat.zero);
  Alcotest.(check int) "bits 1" 1 (Nat.num_bits Nat.one);
  Alcotest.(check int) "bits 2^100" 101 (Nat.num_bits (Nat.pow Nat.two 100))

let test_shift_inverse () =
  let x = Nat.of_hex "123456789abcdef0123456789abcdef" in
  Alcotest.check nat "shift" x (Nat.shift_right (Nat.shift_left x 77) 77)

(* --- Nat properties --- *)

let pair g = QCheck2.Gen.pair g g
let triple g = QCheck2.Gen.triple g g g

let prop_add_comm =
  qtest "add commutative" (pair (arb_nat ())) (fun (a, b) -> Nat.equal (Nat.add a b) (Nat.add b a))

let prop_add_assoc =
  qtest "add associative" (triple (arb_nat ())) (fun (a, b, c) ->
      Nat.equal (Nat.add (Nat.add a b) c) (Nat.add a (Nat.add b c)))

let prop_mul_comm =
  qtest "mul commutative" (pair (arb_nat ())) (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul b a))

let prop_karatsuba_matches_schoolbook =
  qtest "karatsuba = schoolbook" ~count:50 (pair (arb_nat ~bits:4000 ())) (fun (a, b) ->
      Nat.equal (Nat.mul a b) (Nat.mul_schoolbook a b))

let test_karatsuba_asymmetric () =
  (* very different operand sizes stress the split logic *)
  let a = Nat.pow (Nat.of_int 3) 700 in
  let b = Nat.of_int 12345 in
  Alcotest.(check bool) "asymmetric" true (Nat.equal (Nat.mul a b) (Nat.mul_schoolbook a b));
  Alcotest.(check bool) "swapped" true (Nat.equal (Nat.mul b a) (Nat.mul_schoolbook b a))

let prop_mul_assoc =
  qtest "mul associative" (triple (arb_nat ~bits:128 ())) (fun (a, b, c) ->
      Nat.equal (Nat.mul (Nat.mul a b) c) (Nat.mul a (Nat.mul b c)))

let prop_distrib =
  qtest "mul distributes over add" (triple (arb_nat ~bits:128 ())) (fun (a, b, c) ->
      Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)))

let prop_add_sub =
  qtest "sub inverts add" (pair (arb_nat ())) (fun (a, b) ->
      Nat.equal a (Nat.sub (Nat.add a b) b))

let prop_divmod =
  qtest "divmod identity" (pair (arb_nat ~bits:512 ())) (fun (a, b) ->
      if Nat.is_zero b then true
      else begin
        let q, r = Nat.divmod a b in
        Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0
      end)

let prop_bytes_roundtrip =
  qtest "bytes roundtrip" (arb_nat ~bits:520 ()) (fun a ->
      Nat.equal a (Nat.of_bytes_be (Nat.to_bytes_be a)))

let prop_decimal_roundtrip =
  qtest "decimal roundtrip" (arb_nat ~bits:300 ()) (fun a ->
      Nat.equal a (Nat.of_decimal_string (Nat.to_decimal_string a)))

let prop_shift =
  qtest "shift_left is mul by 2^k"
    (QCheck2.Gen.pair (arb_nat ()) (QCheck2.Gen.int_bound 100))
    (fun (a, k) -> Nat.equal (Nat.shift_left a k) (Nat.mul a (Nat.pow Nat.two k)))

let prop_gcd =
  qtest "gcd divides both" (pair (arb_nat ~bits:128 ())) (fun (a, b) ->
      if Nat.is_zero a && Nat.is_zero b then true
      else begin
        let g = Nat.gcd a b in
        (not (Nat.is_zero g))
        && Nat.is_zero (Nat.rem a g)
        && Nat.is_zero (Nat.rem b g)
      end)

(* --- Modular --- *)

let p256 =
  (* the BN254 scalar prime, also used by the field layer *)
  Nat.of_decimal_string
    "21888242871839275222246405745257275088548364400416034343698204186575808495617"

let test_mont_roundtrip () =
  let ctx = Modular.create p256 in
  let x = Nat.of_decimal_string "123456789123456789123456789" in
  Alcotest.check nat "mont roundtrip" x (Modular.of_mont ctx (Modular.to_mont ctx x))

let test_mod_mul_small () =
  let ctx = Modular.create (Nat.of_int 97) in
  Alcotest.check nat "13*17 mod 97" (Nat.of_int (13 * 17 mod 97))
    (Modular.mul ctx (Nat.of_int 13) (Nat.of_int 17))

let test_mod_pow_fermat () =
  let ctx = Modular.create p256 in
  let a = Nat.of_decimal_string "987654321987654321" in
  (* a^(p-1) = 1 mod p *)
  Alcotest.check nat "fermat" Nat.one (Modular.pow ctx a (Nat.sub p256 Nat.one))

let test_mod_inverse () =
  let ctx = Modular.create p256 in
  let a = Nat.of_decimal_string "31415926535897932384626433832795" in
  let ai = Modular.inv ctx a in
  Alcotest.check nat "a * a^-1 = 1" Nat.one (Modular.mul ctx a ai)

let test_inverse_even_modulus () =
  (* 3^-1 mod 40 = 27 (RSA keygen path: inverse modulo even lambda) *)
  Alcotest.check nat "3^-1 mod 40" (Nat.of_int 27)
    (Modular.inverse (Nat.of_int 3) (Nat.of_int 40))

let test_inverse_not_coprime () =
  Alcotest.check_raises "non coprime" Division_by_zero (fun () ->
      ignore (Modular.inverse (Nat.of_int 6) (Nat.of_int 9)))

let prop_mod_mul_matches_nat =
  qtest "mod mul matches Nat" (pair (arb_nat ~bits:300 ())) (fun (a, b) ->
      let ctx = Modular.create p256 in
      Nat.equal (Modular.mul ctx a b) (Nat.rem (Nat.mul a b) p256))

let prop_mod_add_matches_nat =
  qtest "mod add matches Nat" (pair (arb_nat ~bits:300 ())) (fun (a, b) ->
      let ctx = Modular.create p256 in
      Nat.equal (Modular.add ctx a b) (Nat.rem (Nat.add a b) p256))

let prop_mod_inv =
  qtest "inverse property" (arb_nat ~bits:250 ()) (fun a ->
      let ctx = Modular.create p256 in
      let a = Nat.rem a p256 in
      if Nat.is_zero a then true
      else Nat.equal Nat.one (Modular.mul ctx a (Modular.inv ctx a)))

let prop_mod_pow_agree_small =
  qtest "pow matches repeated mul" (QCheck2.Gen.pair (arb_nat ~bits:64 ()) (QCheck2.Gen.int_bound 30))
    (fun (a, e) ->
      let m = Nat.of_int 1000003 in
      let ctx = Modular.create m in
      let expected = Nat.rem (Nat.pow a e) m in
      Nat.equal expected (Modular.pow ctx a (Nat.of_int e)))

(* The 4-bit sliding-window [mont_pow] must agree with a plain binary
   ladder for wide exponents too (the RSA/Miller-Rabin regime), over
   both a large and a tiny odd modulus. *)
let prop_mod_pow_wide =
  qtest "sliding-window pow matches binary ladder" ~count:30
    (QCheck2.Gen.pair (arb_nat ~bits:250 ()) (arb_nat ~bits:250 ()))
    (fun (a, e) ->
      let ladder ctx m b e =
        let b = Nat.rem b m in
        let nb = Nat.num_bits e in
        let acc = ref Nat.one in
        for i = nb - 1 downto 0 do
          acc := Modular.mul ctx !acc !acc;
          if Nat.testbit e i then acc := Modular.mul ctx !acc b
        done;
        !acc
      in
      let ctx = Modular.create p256 in
      let tiny = Nat.of_int 3 in
      let ctx3 = Modular.create tiny in
      Nat.equal (Modular.pow ctx a e) (ladder ctx p256 a e)
      && Nat.equal (Modular.pow ctx3 a e) (ladder ctx3 tiny a e))

(* --- Prime --- *)

let test_small_primes () =
  let primes = [ 2; 3; 5; 7; 11; 101; 65537; 999983 ] in
  let composites = [ 0; 1; 4; 100; 65535; 999981 ] in
  List.iter
    (fun p -> Alcotest.(check bool) (string_of_int p) true (Prime.is_prime ~random_bytes (Nat.of_int p)))
    primes;
  List.iter
    (fun c -> Alcotest.(check bool) (string_of_int c) false (Prime.is_prime ~random_bytes (Nat.of_int c)))
    composites

let test_known_large_prime () =
  (* 2^127 - 1 is a Mersenne prime; 2^128 + 1 is composite *)
  let m127 = Nat.sub (Nat.pow Nat.two 127) Nat.one in
  Alcotest.(check bool) "2^127-1 prime" true (Prime.is_prime ~random_bytes m127);
  let f128 = Nat.add (Nat.pow Nat.two 128) Nat.one in
  Alcotest.(check bool) "2^128+1 composite" false (Prime.is_prime ~random_bytes f128)

let test_carmichael () =
  (* 561 = 3*11*17 fools the Fermat test but not Miller-Rabin *)
  Alcotest.(check bool) "561" false (Prime.is_prime ~random_bytes (Nat.of_int 561));
  Alcotest.(check bool) "1105" false (Prime.is_prime ~random_bytes (Nat.of_int 1105))

let test_generate_prime () =
  let p = Prime.generate ~bits:128 ~random_bytes in
  Alcotest.(check int) "exact bits" 128 (Nat.num_bits p);
  Alcotest.(check bool) "is prime" true (Prime.is_prime ~random_bytes p)

(* Every generated prime has exactly [bits] bits with the top two set, on
   independent seeded streams and at widths including odd ones (the
   [bits - bits/2] half of an odd-width RSA modulus). *)
let prop_generate_top_two_bits =
  qtest "generate sets exactly the top two bits" ~count:40
    QCheck2.Gen.(pair (int_bound 1_000_000) (oneofl [ 8; 9; 63; 128; 255; 256; 257 ]))
    (fun (seed, bits) ->
      let stream = Zebra_rng.Chacha20.create ~seed:(Printf.sprintf "prime-%d" seed) in
      let random_bytes = Zebra_rng.Chacha20.bytes stream in
      let p = Prime.generate ~bits ~random_bytes in
      Nat.num_bits p = bits
      && Nat.equal (Nat.shift_right p (bits - 2)) (Nat.of_int 3)
      && Prime.is_prime ~random_bytes p)

let test_random_below () =
  let bound = Nat.of_int 10 in
  for _ = 1 to 50 do
    let x = Prime.random_below ~random_bytes bound in
    Alcotest.(check bool) "in range" true (Nat.compare x bound < 0)
  done

let test_modular_tiny_modulus () =
  (* Smallest legal modulus and extreme residues. *)
  let ctx = Modular.create (Nat.of_int 3) in
  Alcotest.check nat "2*2 mod 3" Nat.one (Modular.mul ctx Nat.two Nat.two);
  Alcotest.check nat "2^-1 mod 3" Nat.two (Modular.inv ctx Nat.two)

let test_modular_extreme_residues () =
  let ctx = Modular.create p256 in
  let m1 = Nat.sub p256 Nat.one in
  (* (m-1)^2 = 1 mod m *)
  Alcotest.check nat "(m-1)^2" Nat.one (Modular.mul ctx m1 m1);
  (* operands >= m are reduced *)
  Alcotest.check nat "reduction" (Nat.of_int 4)
    (Modular.mul ctx (Nat.add p256 Nat.two) (Nat.add p256 Nat.two));
  Alcotest.check nat "even modulus rejected..." Nat.one (Modular.pow ctx m1 Nat.zero)

let test_modular_even_modulus_rejected () =
  Alcotest.check_raises "even" (Invalid_argument "Modular.create: even modulus") (fun () ->
      ignore (Modular.create (Nat.of_int 100)))

let test_p256_is_prime () =
  Alcotest.(check bool) "BN254 scalar prime" true (Prime.is_prime ~rounds:16 ~random_bytes p256)

(* --- The unrolled 9-limb Montgomery kernel --- *)

(* Every modulus of 249 to 279 bits has 9 limbs and takes the unrolled
   path: the BN254 prime (the accumulator stays below 2^255, so the
   overflow limb is never set and the final subtraction is rare), the
   widest odd 9-limb value (both are common) and one in between. *)
let width9_moduli =
  [
    p256;
    Nat.sub (Nat.shift_left Nat.one 279) Nat.one;
    Nat.add (Nat.shift_left Nat.one 269) (Nat.of_int 12345);
  ]

let radix = Nat.shift_left Nat.one (9 * Nat.limb_bits)

let limbs9 x =
  let l = Nat.limbs x in
  Array.init 9 (fun i -> if i < Array.length l then l.(i) else 0)

(* The CIOS accumulator before its final subtraction: the unique
   T = (a b + q m) / R with q < R and a b + q m = 0 mod R. *)
let cios_t m a b =
  let ab = Nat.mul a b in
  let m_inv = Modular.inverse m radix in
  let q = Nat.rem (Nat.mul (Nat.sub radix (Nat.rem ab radix)) m_inv) radix in
  Nat.shift_right (Nat.add ab (Nat.mul q m)) (9 * Nat.limb_bits)

(* Both kernels on the same context and raw limb inputs, each into a
   fresh buffer; [true] when they agree with each other and with T mod m. *)
let kernels_agree m a b =
  let ctx = Modular.create m in
  let la = limbs9 a and lb = limbs9 b in
  let r9 = Array.make 9 0 and rg = Array.make 9 0 in
  Modular.mul_off ctx r9 0 la 0 lb 0;
  Modular.mul_off_generic ctx rg 0 la 0 lb 0;
  let t = cios_t m a b in
  let expect = if Nat.compare t m >= 0 then Nat.sub t m else t in
  r9 = rg && Nat.equal (Nat.of_limbs r9) expect

let prop_mul9_matches_generic =
  qtest "9-limb mul = generic CIOS" ~count:300
    QCheck2.Gen.(pair (int_bound 2) (pair (arb_nat ~bits:280 ()) (arb_nat ~bits:280 ())))
    (fun (k, (a, b)) ->
      let m = List.nth width9_moduli k in
      kernels_agree m (Nat.rem a m) (Nat.rem b m))

let test_mul9_edges () =
  List.iter
    (fun m ->
      let ctx = Modular.create m in
      Alcotest.(check int) "9 limbs" 9 (Modular.num_limbs ctx);
      let m1 = Nat.sub m Nat.one in
      let r_mod = Nat.rem radix m in
      let edges = [ Nat.zero; Nat.one; Nat.two; m1; Nat.sub m Nat.two; r_mod ] in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              Alcotest.(check bool)
                (Printf.sprintf "edge %s * %s" (Nat.to_hex a) (Nat.to_hex b))
                true (kernels_agree m a b))
            edges)
        edges)
    width9_moduli

(* Inputs chosen, by the model above, so that the accumulator takes each
   branch of the final step: at least m (the final subtraction) and at
   least 2^279 (the overflow limb).  A fixed ChaCha stream finds them. *)
let test_mul9_final_branches () =
  let rng = Zebra_rng.Chacha20.create ~seed:"mul9-branches" in
  let random_bytes n = Zebra_rng.Chacha20.bytes rng n in
  let wide = List.nth width9_moduli 1 in
  let find pred =
    let rec go k =
      if k = 0 then Alcotest.fail "no input takes the branch"
      else
        let a = Prime.random_below ~random_bytes wide in
        let b = Prime.random_below ~random_bytes wide in
        if pred (cios_t wide a b) then (a, b) else go (k - 1)
    in
    go 10_000
  in
  List.iter
    (fun (name, pred) ->
      List.iter
        (fun _ ->
          let a, b = find pred in
          Alcotest.(check bool) name true (kernels_agree wide a b))
        (List.init 20 Fun.id))
    [
      ("final subtraction", fun t -> Nat.compare t wide >= 0);
      ("overflow limb", fun t -> Nat.num_bits t > 9 * Nat.limb_bits);
    ]

let test_mul9_rejects_bad_regions () =
  let ctx = Modular.create p256 in
  let buf = Array.make 27 0 in
  let x = limbs9 (Nat.of_int 7) in
  Array.blit x 0 buf 0 9;
  Array.blit x 0 buf 18 9;
  let overlap = Invalid_argument "Modular.mul_off: destination overlaps a source" in
  Alcotest.check_raises "dst = a" overlap (fun () -> Modular.mul_off ctx buf 0 buf 0 buf 18);
  Alcotest.check_raises "dst overlaps b" overlap (fun () ->
      Modular.mul_off ctx buf 13 buf 0 buf 18);
  Alcotest.check_raises "region past the end" (Invalid_argument "Modular.mul_off: region out of bounds")
    (fun () -> Modular.mul_off ctx buf 19 x 0 x 0);
  (* disjoint regions of one array, squaring from a shared source *)
  Modular.mul_off ctx buf 9 buf 0 buf 0;
  let r = Array.sub buf 9 9 in
  let rg = Array.make 9 0 in
  Modular.mul_off_generic ctx rg 0 x 0 x 0;
  Alcotest.(check (array int)) "disjoint regions" rg r

let () =
  Alcotest.run "numeric"
    [
      ( "nat-units",
        [
          Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "decimal roundtrip" `Quick test_decimal_roundtrip;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "sub underflow" `Quick test_sub_underflow;
          Alcotest.test_case "divmod small" `Quick test_divmod_small_cases;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "num_bits" `Quick test_num_bits;
          Alcotest.test_case "shift inverse" `Quick test_shift_inverse;
        ] );
      ( "nat-props",
        [
          Alcotest.test_case "karatsuba asymmetric" `Quick test_karatsuba_asymmetric;
          prop_add_comm; prop_add_assoc; prop_mul_comm; prop_mul_assoc; prop_distrib;
          prop_karatsuba_matches_schoolbook;
          prop_add_sub; prop_divmod; prop_bytes_roundtrip; prop_decimal_roundtrip;
          prop_shift; prop_gcd;
        ] );
      ( "modular",
        [
          Alcotest.test_case "mont roundtrip" `Quick test_mont_roundtrip;
          Alcotest.test_case "mul small" `Quick test_mod_mul_small;
          Alcotest.test_case "fermat" `Quick test_mod_pow_fermat;
          Alcotest.test_case "inverse" `Quick test_mod_inverse;
          Alcotest.test_case "inverse even modulus" `Quick test_inverse_even_modulus;
          Alcotest.test_case "inverse non-coprime" `Quick test_inverse_not_coprime;
          prop_mod_mul_matches_nat; prop_mod_add_matches_nat; prop_mod_inv;
          prop_mod_pow_agree_small; prop_mod_pow_wide;
          prop_mul9_matches_generic;
          Alcotest.test_case "9-limb mul edges" `Quick test_mul9_edges;
          Alcotest.test_case "9-limb mul final branches" `Quick test_mul9_final_branches;
          Alcotest.test_case "9-limb mul bad regions" `Quick test_mul9_rejects_bad_regions;
        ] );
      ( "prime",
        [
          Alcotest.test_case "small primes" `Quick test_small_primes;
          Alcotest.test_case "large known prime" `Quick test_known_large_prime;
          Alcotest.test_case "carmichael numbers" `Quick test_carmichael;
          Alcotest.test_case "generate 128-bit" `Quick test_generate_prime;
          prop_generate_top_two_bits;
          Alcotest.test_case "random_below range" `Quick test_random_below;
          Alcotest.test_case "BN254 modulus primality" `Quick test_p256_is_prime;
          Alcotest.test_case "tiny modulus" `Quick test_modular_tiny_modulus;
          Alcotest.test_case "extreme residues" `Quick test_modular_extreme_residues;
          Alcotest.test_case "even modulus" `Quick test_modular_even_modulus_rejected;
        ] );
    ]
