(* Codec unit tests and decoder fuzzing: every deserialiser in the system
   must fail cleanly (Decode_error / Invalid_argument), never crash or
   loop, on arbitrary bytes. *)

module Codec = Zebra_codec.Codec

let rng = Zebra_rng.Chacha20.create ~seed:"test_codec"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

let qtest name ?(count = 300) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- basic roundtrips --- *)

let test_scalar_roundtrips () =
  let b =
    Codec.encode
      (fun w () ->
        Codec.u8 w 200;
        Codec.u32 w 0xdeadbeef;
        Codec.u64 w 123456789012345;
        Codec.bool w true;
        Codec.string w "zebra";
        Codec.option w Codec.u32 (Some 7);
        Codec.option w Codec.u32 None;
        Codec.list w Codec.u8 [ 1; 2; 3 ];
        Codec.array w Codec.u8 [| 4; 5 |])
      ()
  in
  Codec.decode
    (fun r ->
      Alcotest.(check int) "u8" 200 (Codec.read_u8 r);
      Alcotest.(check int) "u32" 0xdeadbeef (Codec.read_u32 r);
      Alcotest.(check int) "u64" 123456789012345 (Codec.read_u64 r);
      Alcotest.(check bool) "bool" true (Codec.read_bool r);
      Alcotest.(check string) "string" "zebra" (Codec.read_string r);
      Alcotest.(check (option int)) "some" (Some 7) (Codec.read_option r Codec.read_u32);
      Alcotest.(check (option int)) "none" None (Codec.read_option r Codec.read_u32);
      Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.read_list r Codec.read_u8);
      Alcotest.(check (array int)) "array" [| 4; 5 |] (Codec.read_array r Codec.read_u8))
    b

let test_trailing_bytes_rejected () =
  let b = Bytes.of_string "\x01\x02" in
  Alcotest.check_raises "trailing" (Codec.Decode_error "trailing bytes") (fun () ->
      ignore (Codec.decode (fun r -> Codec.read_u8 r) b))

let test_truncated_rejected () =
  Alcotest.check_raises "truncated" (Codec.Decode_error "unexpected end of input") (fun () ->
      ignore (Codec.decode (fun r -> Codec.read_u32 r) (Bytes.of_string "\x01")))

let test_range_checks () =
  let w = Codec.writer () in
  Alcotest.check_raises "u8 range" (Invalid_argument "Codec.u8") (fun () -> Codec.u8 w 256);
  Alcotest.check_raises "u32 range" (Invalid_argument "Codec.u32") (fun () ->
      Codec.u32 w (-1))

(* A verification key whose first I/O table claims 2^28 entries but holds
   one: the decoder must reject the count against the bytes left instead of
   allocating a 2^28-slot array first. *)
let test_lying_count_bounded () =
  let fp = Zebra_field.Fp.to_bytes_be Zebra_field.Fp.one in
  let w = Codec.writer () in
  Codec.u32 w 0;
  for _ = 1 to 5 do
    Codec.bytes w fp
  done;
  Codec.u32 w (1 lsl 28);
  Codec.bytes w fp;
  let b = Codec.to_bytes w in
  Alcotest.(check int) "specimen size" 224 (Bytes.length b);
  let before = Gc.allocated_bytes () in
  (match Zebra_snark.Snark.vk_of_bytes b with
  | _ -> Alcotest.fail "accepted a lying count"
  | exception Codec.Decode_error _ -> ());
  let allocated = Gc.allocated_bytes () -. before in
  if allocated > 16. *. 224. then
    Alcotest.failf "decoding a %d-byte vk allocated %.0f bytes" (Bytes.length b) allocated

(* --- fuzzing every decoder in the system --- *)

(* A decoder survives a buffer if it returns or raises a *declared* failure
   (Decode_error or Invalid_argument); anything else is a bug. *)
let survives decode buf =
  match decode buf with
  | _ -> true
  | exception Codec.Decode_error _ -> true
  | exception Invalid_argument _ -> true
  | exception _ -> false

let gen_bytes =
  QCheck2.Gen.map
    (fun (n, seed) ->
      let r = Zebra_rng.Chacha20.create ~seed:(Printf.sprintf "fuzz-%d" seed) in
      Zebra_rng.Chacha20.bytes r n)
    QCheck2.Gen.(pair (int_range 0 600) (int_bound 1_000_000))

(* Mutations of valid encodings reach deeper branches than pure noise. *)
let mutated valid =
  QCheck2.Gen.map
    (fun (pos, delta) ->
      let b = Bytes.copy valid in
      if Bytes.length b = 0 then b
      else begin
        let i = pos mod Bytes.length b in
        Bytes.set b i (Char.chr ((Char.code (Bytes.get b i) + 1 + delta) land 0xff));
        b
      end)
    QCheck2.Gen.(pair (int_bound 10_000) (int_bound 254))

let fuzz name decode =
  qtest ("noise: " ^ name) gen_bytes (fun b -> survives decode b)

let fuzz_mutated name valid decode =
  qtest ("mutate: " ^ name) (mutated valid) (fun b -> survives decode b)

(* Valid specimens for mutation. *)
let specimen_policy = Zebralancer.Policy.to_bytes (Zebralancer.Policy.Majority { choices = 4 })

let specimen_params =
  Zebralancer.Task_contract.params_to_bytes
    {
      Zebralancer.Task_contract.budget = 100;
      n = 2;
      answer_deadline = 10;
      instruct_deadline = 20;
      epk = Zebra_field.Fp.one;
      ra_root = Zebra_field.Fp.two;
      auth_vk = random_bytes 40;
      reward_vk = random_bytes 40;
      policy = Zebralancer.Policy.Majority { choices = 4 };
      requester_attestation = random_bytes 30;
      max_per_worker = 1;
      ra_rsa_pub = Bytes.empty;
      data_digest = Bytes.empty;
    }

let specimen_ct =
  let _, pk = Zebra_elgamal.Elgamal.generate ~random_bytes in
  Zebra_elgamal.Elgamal.ciphertext_to_bytes
    (Zebra_elgamal.Elgamal.encrypt ~random_bytes pk (Zebra_elgamal.Elgamal.encode_answer 1))

let () =
  Alcotest.run "codec"
    [
      ( "units",
        [
          Alcotest.test_case "scalar roundtrips" `Quick test_scalar_roundtrips;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes_rejected;
          Alcotest.test_case "truncated" `Quick test_truncated_rejected;
          Alcotest.test_case "range checks" `Quick test_range_checks;
          Alcotest.test_case "lying count bounded" `Quick test_lying_count_bounded;
        ] );
      ( "fuzz",
        [
          fuzz "policy" Zebralancer.Policy.of_bytes;
          fuzz "task params" Zebralancer.Task_contract.params_of_bytes;
          fuzz "task storage" Zebralancer.Task_contract.storage_of_bytes;
          fuzz "elgamal ciphertext" Zebra_elgamal.Elgamal.ciphertext_of_bytes;
          fuzz "snark proof" Zebra_snark.Snark.proof_of_bytes;
          fuzz "snark vk" Zebra_snark.Snark.vk_of_bytes;
          fuzz "cpla attestation" Zebra_anonauth.Cpla.attestation_of_bytes;
          fuzz "plain attestation" Zebralancer.Plain_auth.attestation_of_bytes;
          fuzz "rsa pubkey" Zebra_rsa.Rsa.public_key_of_bytes;
          fuzz "transaction" Zebra_chain.Tx.of_bytes;
          fuzz_mutated "policy" specimen_policy Zebralancer.Policy.of_bytes;
          fuzz_mutated "task params" specimen_params Zebralancer.Task_contract.params_of_bytes;
          fuzz_mutated "ciphertext" specimen_ct Zebra_elgamal.Elgamal.ciphertext_of_bytes;
        ] );
    ]
