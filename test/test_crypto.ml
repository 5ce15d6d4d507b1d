(* RSA (keygen / PKCS#1 / OAEP) and ElGamal tests. *)

open Zebra_numeric
open Zebra_field
module Rsa = Zebra_rsa.Rsa
module Pkcs1 = Zebra_rsa.Pkcs1
module Oaep = Zebra_rsa.Oaep
module Elgamal = Zebra_elgamal.Elgamal
module Sha256 = Zebra_hashing.Sha256

let rng = Zebra_rng.Chacha20.create ~seed:"test_crypto"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

(* One 512-bit key shared by most tests (keygen is the slow part).  OAEP
   with SHA-256 needs at least 2*32+2 bytes of padding, so its tests use a
   768-bit key. *)
let key = lazy (Rsa.generate ~bits:512 ~random_bytes)

let key768 = lazy (Rsa.generate ~bits:768 ~random_bytes)

let fp = Alcotest.testable Fp.pp Fp.equal

(* --- RSA --- *)

let test_keygen_shape () =
  let k = Lazy.force key in
  Alcotest.(check int) "modulus bits" 512 (Nat.num_bits k.Rsa.pub.Rsa.n);
  Alcotest.(check bool) "n = p*q" true (Nat.equal k.Rsa.pub.Rsa.n (Nat.mul k.Rsa.p k.Rsa.q));
  Alcotest.(check bool) "p prime" true (Prime.is_prime ~random_bytes k.Rsa.p);
  Alcotest.(check bool) "q prime" true (Prime.is_prime ~random_bytes k.Rsa.q)

(* Keygen accepts its first prime pair: on a fresh stream, the key's
   factors are the stream's first two [Prime.generate] outputs, so no pair
   was thrown away for a short modulus. *)
let test_keygen_first_pair () =
  List.iter
    (fun seed ->
      let stream () = Zebra_rng.Chacha20.bytes (Zebra_rng.Chacha20.create ~seed) in
      let k = Rsa.generate ~bits:512 ~random_bytes:(stream ()) in
      let random_bytes = stream () in
      let p = Prime.generate ~bits:256 ~random_bytes in
      let q = Prime.generate ~bits:256 ~random_bytes in
      Alcotest.(check bool) (seed ^ ": n = p*q of the first pair") true
        (Nat.equal k.Rsa.pub.Rsa.n (Nat.mul p q)))
    (List.init 8 (Printf.sprintf "keygen-first-pair-%d"))

let test_raw_roundtrip () =
  let k = Lazy.force key in
  let m = Prime.random_below ~random_bytes k.Rsa.pub.Rsa.n in
  Alcotest.(check bool) "decrypt(encrypt(m)) = m" true
    (Nat.equal m (Rsa.raw_private k (Rsa.raw_public k.Rsa.pub m)))

let test_crt_matches_direct () =
  let k = Lazy.force key in
  let c = Prime.random_below ~random_bytes k.Rsa.pub.Rsa.n in
  let direct =
    let ctx = Modular.create k.Rsa.pub.Rsa.n in
    Modular.pow ctx c k.Rsa.d
  in
  Alcotest.(check bool) "CRT = direct" true (Nat.equal direct (Rsa.raw_private k c))

let test_pubkey_serialization () =
  let k = Lazy.force key in
  let pk' = Rsa.public_key_of_bytes (Rsa.public_key_to_bytes k.Rsa.pub) in
  Alcotest.(check bool) "roundtrip" true (Rsa.equal_public_key k.Rsa.pub pk')

(* --- PKCS1 signatures --- *)

let test_sign_verify () =
  let k = Lazy.force key in
  let msg = Bytes.of_string "publish task 42 with budget 1000" in
  let signature = Pkcs1.sign k msg in
  Alcotest.(check bool) "valid" true (Pkcs1.verify k.Rsa.pub ~msg ~signature)

let test_sign_tamper_msg () =
  let k = Lazy.force key in
  let msg = Bytes.of_string "pay worker A" in
  let signature = Pkcs1.sign k msg in
  Alcotest.(check bool) "tampered message rejected" false
    (Pkcs1.verify k.Rsa.pub ~msg:(Bytes.of_string "pay worker B") ~signature)

let test_sign_tamper_sig () =
  let k = Lazy.force key in
  let msg = Bytes.of_string "hello" in
  let signature = Pkcs1.sign k msg in
  Bytes.set signature 5 (Char.chr (Char.code (Bytes.get signature 5) lxor 0x40));
  Alcotest.(check bool) "tampered signature rejected" false
    (Pkcs1.verify k.Rsa.pub ~msg ~signature)

let test_sign_wrong_key () =
  let k = Lazy.force key in
  let other = Rsa.generate ~bits:512 ~random_bytes in
  let msg = Bytes.of_string "hello" in
  let signature = Pkcs1.sign other msg in
  Alcotest.(check bool) "wrong key rejected" false (Pkcs1.verify k.Rsa.pub ~msg ~signature)

let test_sign_garbage () =
  let k = Lazy.force key in
  Alcotest.(check bool) "empty sig" false
    (Pkcs1.verify k.Rsa.pub ~msg:(Bytes.of_string "x") ~signature:Bytes.empty);
  Alcotest.(check bool) "all-ff sig" false
    (Pkcs1.verify k.Rsa.pub ~msg:(Bytes.of_string "x")
       ~signature:(Bytes.make (Rsa.key_bytes k.Rsa.pub) '\xff'))

(* --- OAEP --- *)

let test_mgf1_vector () =
  (* Cross-checked reference value for MGF1-SHA256("foo", 8). *)
  let out = Oaep.mgf1 ~seed:(Bytes.of_string "foo") 8 in
  Alcotest.(check int) "len" 8 (Bytes.length out);
  (* determinism + prefix property *)
  let out16 = Oaep.mgf1 ~seed:(Bytes.of_string "foo") 16 in
  Alcotest.(check bytes) "prefix consistent" out (Bytes.sub out16 0 8)

let test_oaep_roundtrip () =
  let k = Lazy.force key768 in
  let msg = Bytes.of_string "the answer is B" in
  let ct = Oaep.encrypt ~random_bytes k.Rsa.pub msg in
  Alcotest.(check (option bytes)) "roundtrip" (Some msg) (Oaep.decrypt k ct)

let test_oaep_randomized () =
  let k = Lazy.force key768 in
  let msg = Bytes.of_string "same plaintext" in
  let c1 = Oaep.encrypt ~random_bytes k.Rsa.pub msg in
  let c2 = Oaep.encrypt ~random_bytes k.Rsa.pub msg in
  Alcotest.(check bool) "ciphertexts differ" false (Bytes.equal c1 c2)

let test_oaep_max_len () =
  let k = Lazy.force key768 in
  let maxl = Oaep.max_message_len k.Rsa.pub in
  let msg = Bytes.make maxl 'x' in
  Alcotest.(check (option bytes)) "max-length roundtrip" (Some msg)
    (Oaep.decrypt k (Oaep.encrypt ~random_bytes k.Rsa.pub msg));
  Alcotest.check_raises "too long" (Invalid_argument "Oaep.encrypt: message too long")
    (fun () -> ignore (Oaep.encrypt ~random_bytes k.Rsa.pub (Bytes.make (maxl + 1) 'x')))

let test_oaep_tamper () =
  let k = Lazy.force key768 in
  let ct = Oaep.encrypt ~random_bytes k.Rsa.pub (Bytes.of_string "secret") in
  Bytes.set ct 3 (Char.chr (Char.code (Bytes.get ct 3) lxor 1));
  Alcotest.(check (option bytes)) "tampered ciphertext rejected" None (Oaep.decrypt k ct)

let test_oaep_empty_message () =
  let k = Lazy.force key768 in
  let ct = Oaep.encrypt ~random_bytes k.Rsa.pub Bytes.empty in
  Alcotest.(check (option bytes)) "empty message" (Some Bytes.empty) (Oaep.decrypt k ct)

(* --- ElGamal --- *)

let test_elgamal_roundtrip () =
  let sk, pk = Elgamal.generate ~random_bytes in
  let m = Elgamal.encode_answer 3 in
  let ct = Elgamal.encrypt ~random_bytes pk m in
  Alcotest.check fp "roundtrip" m (Elgamal.decrypt sk ct)

let test_elgamal_randomized () =
  let _, pk = Elgamal.generate ~random_bytes in
  let m = Elgamal.encode_answer 1 in
  let c1 = Elgamal.encrypt ~random_bytes pk m in
  let c2 = Elgamal.encrypt ~random_bytes pk m in
  Alcotest.(check bool) "ciphertexts differ" false (Elgamal.equal_ciphertext c1 c2)

let test_elgamal_pair () =
  let sk, pk = Elgamal.generate ~random_bytes in
  let sk', _ = Elgamal.generate ~random_bytes in
  Alcotest.(check bool) "matching pair" true (Elgamal.pair sk pk);
  Alcotest.(check bool) "mismatched pair" false (Elgamal.pair sk' pk)

let test_elgamal_wrong_key () =
  let _, pk = Elgamal.generate ~random_bytes in
  let sk', _ = Elgamal.generate ~random_bytes in
  let m = Elgamal.encode_answer 2 in
  let ct = Elgamal.encrypt ~random_bytes pk m in
  Alcotest.(check bool) "wrong key garbles" false (Fp.equal m (Elgamal.decrypt sk' ct))

let test_elgamal_secret_bits () =
  let sk, pk = Elgamal.generate ~random_bytes in
  let bits = Elgamal.secret_bits sk in
  Alcotest.(check int) "bit width" Elgamal.exponent_bits (Array.length bits);
  (* reconstruct pk from bits: g^(sum b_i 2^i) *)
  let acc = ref Fp.one in
  for i = Array.length bits - 1 downto 0 do
    acc := Fp.sqr !acc;
    if bits.(i) then acc := Fp.mul !acc Elgamal.g
  done;
  Alcotest.check fp "bits reconstruct pk" pk !acc

let test_answer_encoding () =
  Alcotest.(check (option int)) "decode 0" (Some 0) (Elgamal.decode_answer ~max:9 (Elgamal.encode_answer 0));
  Alcotest.(check (option int)) "decode 9" (Some 9) (Elgamal.decode_answer ~max:9 (Elgamal.encode_answer 9));
  Alcotest.(check (option int)) "out of range" None (Elgamal.decode_answer ~max:3 (Elgamal.encode_answer 7));
  Alcotest.(check bool) "nonzero encoding" false (Fp.is_zero (Elgamal.encode_answer 0))

let test_missing_sentinel () =
  Alcotest.(check bool) "missing is missing" true (Elgamal.is_missing Elgamal.missing);
  let _, pk = Elgamal.generate ~random_bytes in
  let ct = Elgamal.encrypt ~random_bytes pk (Elgamal.encode_answer 0) in
  Alcotest.(check bool) "real ct is not missing" false (Elgamal.is_missing ct)

let test_ciphertext_serialization () =
  let _, pk = Elgamal.generate ~random_bytes in
  let ct = Elgamal.encrypt ~random_bytes pk (Elgamal.encode_answer 5) in
  Alcotest.(check bool) "roundtrip" true
    (Elgamal.equal_ciphertext ct (Elgamal.ciphertext_of_bytes (Elgamal.ciphertext_to_bytes ct)))

let () =
  Alcotest.run "crypto"
    [
      ( "rsa",
        [
          Alcotest.test_case "keygen shape" `Quick test_keygen_shape;
          Alcotest.test_case "keygen accepts the first prime pair" `Quick test_keygen_first_pair;
          Alcotest.test_case "raw roundtrip" `Quick test_raw_roundtrip;
          Alcotest.test_case "CRT matches direct" `Quick test_crt_matches_direct;
          Alcotest.test_case "pubkey serialisation" `Quick test_pubkey_serialization;
        ] );
      ( "pkcs1",
        [
          Alcotest.test_case "sign/verify" `Quick test_sign_verify;
          Alcotest.test_case "tampered message" `Quick test_sign_tamper_msg;
          Alcotest.test_case "tampered signature" `Quick test_sign_tamper_sig;
          Alcotest.test_case "wrong key" `Quick test_sign_wrong_key;
          Alcotest.test_case "garbage signatures" `Quick test_sign_garbage;
        ] );
      ( "oaep",
        [
          Alcotest.test_case "mgf1" `Quick test_mgf1_vector;
          Alcotest.test_case "roundtrip" `Quick test_oaep_roundtrip;
          Alcotest.test_case "randomised" `Quick test_oaep_randomized;
          Alcotest.test_case "max length" `Quick test_oaep_max_len;
          Alcotest.test_case "tampered" `Quick test_oaep_tamper;
          Alcotest.test_case "empty message" `Quick test_oaep_empty_message;
        ] );
      ( "elgamal",
        [
          Alcotest.test_case "roundtrip" `Quick test_elgamal_roundtrip;
          Alcotest.test_case "randomised" `Quick test_elgamal_randomized;
          Alcotest.test_case "pair check" `Quick test_elgamal_pair;
          Alcotest.test_case "wrong key" `Quick test_elgamal_wrong_key;
          Alcotest.test_case "secret bits" `Quick test_elgamal_secret_bits;
          Alcotest.test_case "answer encoding" `Quick test_answer_encoding;
          Alcotest.test_case "missing sentinel" `Quick test_missing_sentinel;
          Alcotest.test_case "ciphertext serialisation" `Quick test_ciphertext_serialization;
        ] );
    ]
