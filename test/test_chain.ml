(* Blockchain substrate tests: transactions, contract runtime, replicated
   execution, adversarial reordering, and ledger invariants. *)

open Zebra_chain
module Codec = Zebra_codec.Codec

let rng = Zebra_rng.Chacha20.create ~seed:"test_chain"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

(* Wallet creation is RSA keygen; reuse a pool across tests. *)
let wallet_pool = lazy (Array.init 6 (fun _ -> Wallet.generate ~bits:512 ~random_bytes ()))

let wallet i = (Lazy.force wallet_pool).(i)

(* --- Toy contracts for runtime tests --- *)

(* A counter: payload "inc" increments; "get" logs the value; init arg sets
   the start; "boom" reverts. *)
module Counter = struct
  type storage = int

  let name = "test-counter"
  let init _ctx args = if Bytes.length args = 0 then 0 else Codec.decode Codec.read_u64 args

  let receive ctx st payload =
    match Bytes.to_string payload with
    | "inc" -> (st + 1, [])
    | "get" -> (st, [ Contract.Log (string_of_int st) ])
    | "boom" -> raise (Contract.Revert "boom")
    | "height" -> (st, [ Contract.Log (string_of_int ctx.Contract.height) ])
    | _ -> raise (Contract.Revert "unknown method")

  let encode st = Codec.encode Codec.u64 st
  let decode b = Codec.decode Codec.read_u64 b
end

(* Escrow: deposits held; payload = 20-byte payee address releases all. *)
module Escrow = struct
  type storage = unit

  let name = "test-escrow"
  let init _ _ = ()

  let receive ctx () payload =
    if Bytes.length payload <> 20 then raise (Contract.Revert "bad payee")
    else ((), [ Contract.Transfer (Address.of_bytes payload, ctx.Contract.self_balance) ])

  let encode () = Bytes.empty
  let decode _ = ()
end

let () = Contract.register (module Counter)
let () = Contract.register (module Escrow)

let fresh_net ?(num_nodes = 3) ?(fund = [ 0; 1; 2 ]) () =
  let genesis = List.map (fun i -> (Wallet.address (wallet i), 1_000_000)) fund in
  Network.create ~num_nodes ~genesis ()

let check_ok (r : State.receipt) =
  match r.State.status with
  | State.Ok _ -> ()
  | State.Failed e -> Alcotest.failf "tx failed: %s" e

let created (r : State.receipt) =
  match r.State.status with
  | State.Ok (Some a) -> a
  | _ -> Alcotest.fail "expected contract creation"

(* --- Address / Tx --- *)

let test_address_derivation () =
  let w = wallet 0 in
  let a = Wallet.address w in
  Alcotest.(check int) "hex length" 40 (String.length (Address.to_hex a));
  Alcotest.(check bool) "roundtrip" true (Address.equal a (Address.of_hex (Address.to_hex a)));
  Alcotest.(check bool) "deterministic contract addr" true
    (Address.equal (Address.of_creator a 3) (Address.of_creator a 3));
  Alcotest.(check bool) "nonce changes addr" false
    (Address.equal (Address.of_creator a 3) (Address.of_creator a 4))

let test_tx_roundtrip () =
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:42
      ~payload:(Bytes.of_string "hello")
  in
  Alcotest.(check bool) "validates" true (Tx.validate tx);
  let tx' = Tx.of_bytes (Tx.to_bytes tx) in
  Alcotest.(check bool) "roundtrip validates" true (Tx.validate tx');
  Alcotest.(check bytes) "same hash" (Tx.hash tx) (Tx.hash tx')

let test_tx_tamper () =
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:42
      ~payload:Bytes.empty
  in
  let b = Tx.to_bytes tx in
  (* Flip a bit inside the value field region; signature must fail. *)
  Bytes.set b (Bytes.length b - 70) (Char.chr (Char.code (Bytes.get b (Bytes.length b - 70)) lxor 1));
  match Tx.of_bytes b with
  | tx' -> Alcotest.(check bool) "tampered rejected" false (Tx.validate tx')
  | exception _ -> () (* decode failure is equally a rejection *)

(* --- Transfers & ledger --- *)

let test_plain_transfer () =
  let net = fresh_net () in
  let a0 = Wallet.address (wallet 0) and a1 = Wallet.address (wallet 1) in
  let tx = Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call a1) ~value:500 ~payload:Bytes.empty in
  Network.submit net tx;
  List.iter check_ok (Network.mine net);
  Alcotest.(check int) "sender debited" 999_500 (Network.balance net a0);
  Alcotest.(check int) "receiver credited" 1_000_500 (Network.balance net a1)

let test_insufficient_funds () =
  let net = fresh_net () in
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1)))
      ~value:2_000_000 ~payload:Bytes.empty
  in
  Network.submit net tx;
  (match Network.mine net with
  | [ { State.status = State.Failed "insufficient funds"; _ } ] -> ()
  | _ -> Alcotest.fail "expected failure");
  Alcotest.(check int) "no debit" 1_000_000 (Network.balance net (Wallet.address (wallet 0)))

let test_nonce_enforcement () =
  let net = fresh_net () in
  let mk nonce =
    Tx.make ~wallet:(wallet 0) ~nonce ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
      ~payload:Bytes.empty
  in
  Network.submit net (mk 5);
  (match Network.mine net with
  | [ { State.status = State.Failed "bad nonce"; _ } ] -> ()
  | _ -> Alcotest.fail "expected bad nonce");
  (* replay protection: same tx twice *)
  let tx = mk 0 in
  Network.submit net tx;
  Network.submit net tx;
  match Network.mine net with
  | [ r1; r2 ] ->
    check_ok r1;
    (match r2.State.status with
    | State.Failed "bad nonce" -> ()
    | _ -> Alcotest.fail "replay accepted")
  | _ -> Alcotest.fail "expected two receipts"

let test_supply_conservation () =
  let net = fresh_net () in
  let before = Network.total_supply net in
  List.iteri
    (fun i dst ->
      Network.submit net
        (Tx.make ~wallet:(wallet 0) ~nonce:i ~dst:(Tx.Call (Wallet.address (wallet dst)))
           ~value:(100 * (i + 1)) ~payload:Bytes.empty))
    [ 1; 2; 1 ];
  ignore (Network.mine net);
  Alcotest.(check int) "conserved" before (Network.total_supply net)

(* --- Contracts --- *)

let test_contract_lifecycle () =
  let net = fresh_net () in
  let create =
    Tx.make ~wallet:(wallet 0) ~nonce:0
      ~dst:(Tx.Create { behavior = "test-counter"; args = Codec.encode Codec.u64 10 })
      ~value:0 ~payload:Bytes.empty
  in
  Network.submit net create;
  let addr =
    match Network.mine net with [ r ] -> created r | _ -> Alcotest.fail "one receipt"
  in
  Alcotest.(check bool) "is contract" true (Network.is_contract net addr);
  List.iter
    (fun _ ->
      Network.submit net
        (Tx.make ~wallet:(wallet 1) ~nonce:(Network.nonce net (Wallet.address (wallet 1)))
           ~dst:(Tx.Call addr) ~value:0 ~payload:(Bytes.of_string "inc"));
      List.iter check_ok (Network.mine net))
    [ (); (); () ];
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:(Network.nonce net (Wallet.address (wallet 1)))
       ~dst:(Tx.Call addr) ~value:0 ~payload:(Bytes.of_string "get"));
  (match Network.mine net with
  | [ { State.logs = [ v ]; _ } ] -> Alcotest.(check string) "counter" "13" v
  | _ -> Alcotest.fail "expected one log");
  Alcotest.(check int) "height visible to contract" 5 (Network.height net)

let test_unknown_behavior () =
  let net = fresh_net () in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0
       ~dst:(Tx.Create { behavior = "no-such-contract"; args = Bytes.empty })
       ~value:0 ~payload:Bytes.empty);
  match Network.mine net with
  | [ { State.status = State.Failed msg; _ } ] ->
    Alcotest.(check string) "reason" "unknown behavior no-such-contract" msg
  | _ -> Alcotest.fail "expected failure"

let test_revert_rolls_back () =
  let net = fresh_net () in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0
       ~dst:(Tx.Create { behavior = "test-counter"; args = Bytes.empty })
       ~value:100 ~payload:Bytes.empty);
  let addr = created (List.hd (Network.mine net)) in
  let before = Network.balance net (Wallet.address (wallet 0)) in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:1 ~dst:(Tx.Call addr) ~value:50
       ~payload:(Bytes.of_string "boom"));
  (match Network.mine net with
  | [ { State.status = State.Failed "boom"; _ } ] -> ()
  | _ -> Alcotest.fail "expected revert");
  Alcotest.(check int) "value returned on revert" before
    (Network.balance net (Wallet.address (wallet 0)));
  Alcotest.(check int) "nonce still advanced" 2 (Network.nonce net (Wallet.address (wallet 0)))

let test_escrow_transfer_action () =
  let net = fresh_net () in
  let payee = Wallet.address (wallet 2) in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0
       ~dst:(Tx.Create { behavior = "test-escrow"; args = Bytes.empty })
       ~value:700 ~payload:Bytes.empty);
  let addr = created (List.hd (Network.mine net)) in
  Alcotest.(check int) "escrow funded" 700 (Network.balance net addr);
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call addr) ~value:0
       ~payload:(Address.to_bytes payee));
  List.iter check_ok (Network.mine net);
  Alcotest.(check int) "payee received" 1_000_700 (Network.balance net payee);
  Alcotest.(check int) "escrow drained" 0 (Network.balance net addr)

(* --- Replication & consensus --- *)

let test_replicas_agree () =
  let net = fresh_net ~num_nodes:4 () in
  for i = 0 to 5 do
    Network.submit net
      (Tx.make ~wallet:(wallet 0) ~nonce:i ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:7
         ~payload:Bytes.empty);
    ignore (Network.mine net)
  done;
  (* Network.mine raises Consensus_failure on divergence; reaching here with
     4 replicas is the assertion. *)
  Alcotest.(check int) "height" 6 (Network.height net)

let test_adversary_reorder () =
  (* The adversary reverses the block order: the later-submitted transfer
     executes first.  Both still execute; balances must reflect the
     adversary's order (nonce forces a unique valid serialisation here, so
     we use two different senders). *)
  let net = fresh_net () in
  Network.set_adversary net (Some List.rev);
  let a2 = Wallet.address (wallet 2) in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call a2) ~value:1 ~payload:Bytes.empty);
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call a2) ~value:2 ~payload:Bytes.empty);
  List.iter check_ok (Network.mine net);
  Alcotest.(check int) "both executed" 1_000_003 (Network.balance net a2)

let test_adversary_cannot_forge () =
  let net = fresh_net () in
  (* Adversary injects a doctored transaction: it is filtered out. *)
  let doctored =
    let tx =
      Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
        ~payload:Bytes.empty
    in
    let b = Tx.to_bytes tx in
    Bytes.set b 60 (Char.chr (Char.code (Bytes.get b 60) lxor 1));
    try Some (Tx.of_bytes b) with _ -> None
  in
  Network.set_adversary net
    (Some (fun txs -> match doctored with Some d -> d :: txs | None -> txs));
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 2))) ~value:5
       ~payload:Bytes.empty);
  let receipts = Network.mine net in
  Alcotest.(check int) "only the honest tx executed" 1 (List.length receipts)

(* Regression for the set_adversary contract: a duplicated transaction is
   mined twice but executes once — the copy fails nonce replay and the
   canonical receipt stays the first, successful one. *)
let test_adversary_duplicate_rejected () =
  let net = fresh_net () in
  Network.set_adversary net (Some (fun txs -> txs @ txs));
  let a1 = Wallet.address (wallet 1) in
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call a1) ~value:5 ~payload:Bytes.empty
  in
  Network.submit net tx;
  let receipts = Network.mine net in
  Alcotest.(check int) "both copies mined" 2 (List.length receipts);
  Alcotest.(check int) "value moved exactly once" 1_000_005 (Network.balance net a1);
  Alcotest.(check int) "sender nonce advanced once" 1
    (Network.nonce net (Wallet.address (wallet 0)));
  match Network.receipt net (Tx.hash tx) with
  | Some { State.status = State.Ok _; _ } -> ()
  | Some { State.status = State.Failed e; _ } ->
    Alcotest.failf "canonical receipt overwritten by the duplicate: %s" e
  | None -> Alcotest.fail "no receipt recorded"

(* Regression for the other half of the contract: an omitted transaction is
   requeued, so the adversary can delay but not censor. *)
let test_adversary_drop_requeues () =
  let net = fresh_net () in
  let calls = ref 0 in
  Network.set_adversary net
    (Some (fun txs -> (incr calls; if !calls = 1 then [] else txs)));
  let a1 = Wallet.address (wallet 1) in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call a1) ~value:3 ~payload:Bytes.empty);
  let r1 = Network.mine net in
  Alcotest.(check int) "censored block is empty" 0 (List.length r1);
  Alcotest.(check int) "tx back in the mempool" 1 (Network.pending net);
  Alcotest.(check int) "no transfer yet" 1_000_000 (Network.balance net a1);
  let r2 = Network.mine net in
  Alcotest.(check int) "included in the next block" 1 (List.length r2);
  Alcotest.(check int) "delayed, not censored" 1_000_003 (Network.balance net a1)

let test_block_chain_integrity () =
  let net = fresh_net () in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
       ~payload:Bytes.empty);
  ignore (Network.mine net);
  ignore (Network.mine net);
  match Network.blocks net with
  | [ b1; b2 ] ->
    Alcotest.(check bytes) "linkage" (Block.hash b1) b2.Block.header.Block.prev_hash;
    Alcotest.(check int) "heights" 1 b1.Block.header.Block.height
  | _ -> Alcotest.fail "expected two blocks"

let test_tx_inclusion_proof () =
  let net = fresh_net () in
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
      ~payload:Bytes.empty
  in
  Network.submit net tx;
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 2))) ~value:1
       ~payload:Bytes.empty);
  ignore (Network.mine net);
  let b = List.hd (Network.blocks net) in
  let proof = Block.tx_proof b 0 in
  Alcotest.(check bool) "inclusion verifies" true (Block.verify_tx_inclusion b tx proof)

let test_replay_determinism () =
  (* A late-joining node replays all blocks from genesis and must arrive at
     the exact same state root (the ledger's "correct computation"). *)
  let net = fresh_net () in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0
       ~dst:(Tx.Create { behavior = "test-counter"; args = Bytes.empty })
       ~value:100 ~payload:Bytes.empty);
  let addr = created (List.hd (Network.mine net)) in
  List.iteri
    (fun i payload ->
      Network.submit net
        (Tx.make ~wallet:(wallet 1) ~nonce:i ~dst:(Tx.Call addr) ~value:0
           ~payload:(Bytes.of_string payload));
      ignore (Network.mine net))
    [ "inc"; "inc"; "boom"; "get" ];
  Alcotest.(check bytes) "replayed root equals live root" (Network.state_root net)
    (Network.replay net)

let test_pow_mining () =
  (* With a difficulty target, every mined block carries a valid seal and
     tampering with the nonce invalidates it. *)
  let net = fresh_net () in
  let net12 =
    Network.create ~difficulty:12 ~num_nodes:2
      ~genesis:[ (Wallet.address (wallet 0), 1000) ] ()
  in
  ignore net;
  Network.submit net12
    (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
       ~payload:Bytes.empty);
  List.iter check_ok (Network.mine net12);
  let b = List.hd (Network.blocks net12) in
  Alcotest.(check bool) "seal meets target" true
    (Block.meets_difficulty b.Block.header 12);
  let unsealed = { b.Block.header with Block.nonce = b.Block.header.Block.nonce + 1 } in
  (* overwhelmingly likely to fail the 12-bit target *)
  Alcotest.(check bool) "tampered nonce fails" false (Block.meets_difficulty unsealed 12);
  (* a light client at the same difficulty follows; one at a higher target
     refuses *)
  let lc = Light_client.create ~difficulty:12 () in
  (match Light_client.sync lc (Network.blocks net12) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sync: %s" e);
  let strict = Light_client.create ~difficulty:28 () in
  match Light_client.sync strict (Network.blocks net12) with
  | Error "insufficient proof of work" -> ()
  | _ -> Alcotest.fail "under-sealed header accepted"

let test_pow_difficulty_zero_default () =
  let net = fresh_net () in
  ignore (Network.mine net);
  let b = List.hd (Network.blocks net) in
  Alcotest.(check int) "nonce zero at difficulty 0" 0 b.Block.header.Block.nonce

let test_mine_until () =
  let net = fresh_net () in
  Network.mine_until net ~height:10;
  Alcotest.(check int) "height reached" 10 (Network.height net)

(* --- Fee-ordered mempool & sharded parallel execution --- *)

let qtest name ~count gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let with_domains n f =
  let prev = Zebra_parallel.Parallel.default_domains () in
  Fun.protect
    ~finally:(fun () -> Zebra_parallel.Parallel.set_default_domains prev)
    (fun () ->
      Zebra_parallel.Parallel.set_default_domains n;
      f ())

let last_block net =
  match List.rev (Network.blocks net) with
  | b :: _ -> b
  | [] -> Alcotest.fail "no blocks mined"

let applied_ok = function
  | Network.Applied r | Network.Conflict_retry r -> check_ok r
  | Network.Rejected e -> Alcotest.failf "tx rejected: %s" e

let test_fee_ordering () =
  let net = fresh_net () in
  let a3 = Wallet.address (wallet 3) in
  let mk i fee value =
    Tx.make_ext ~wallet:(wallet i) ~fee ~footprint:[] ~nonce:0 ~dst:(Tx.Call a3) ~value
      ~payload:Bytes.empty
  in
  (* Submission order low / high / mid; the seal must order by fee. *)
  let t_low = mk 0 1 1 and t_high = mk 1 9 2 and t_mid = mk 2 5 3 in
  List.iter (Network.submit net) [ t_low; t_high; t_mid ];
  let results = Network.mine_ext net in
  Alcotest.(check int) "three outcomes" 3 (List.length results);
  List.iter applied_ok results;
  let order = List.map Tx.hash (last_block net).Block.txs in
  Alcotest.(check (list bytes))
    "sealed fee-descending" [ Tx.hash t_high; Tx.hash t_mid; Tx.hash t_low ] order;
  Alcotest.(check int) "all three transferred" 6 (Network.balance net a3)

let test_fee_ordering_keeps_nonce_lanes () =
  (* Same sender, fees inverted relative to nonces: fee ordering must not
     break the sender's nonce sequence. *)
  let net = fresh_net () in
  let a3 = Wallet.address (wallet 3) in
  let mk nonce fee value =
    Tx.make_ext ~wallet:(wallet 0) ~fee ~footprint:[] ~nonce ~dst:(Tx.Call a3) ~value
      ~payload:Bytes.empty
  in
  let t0 = mk 0 0 10 and t1 = mk 1 9 20 in
  Network.submit net t0;
  Network.submit net t1;
  let results = Network.mine_ext net in
  List.iter applied_ok results;
  let order = List.map Tx.hash (last_block net).Block.txs in
  Alcotest.(check (list bytes)) "nonce order survives fee inversion"
    [ Tx.hash t0; Tx.hash t1 ] order;
  Alcotest.(check int) "both executed" 30 (Network.balance net a3)

let test_submit_r_typed_rejection () =
  let net = fresh_net () in
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
      ~payload:Bytes.empty
  in
  (match Network.submit_r net tx with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid tx refused: %s" (Network.submit_error_to_string e));
  let b = Tx.to_bytes tx in
  Bytes.set b 60 (Char.chr (Char.code (Bytes.get b 60) lxor 1));
  match Tx.of_bytes b with
  | exception _ -> () (* decode failure is equally a rejection *)
  | doctored -> (
    match Network.submit_r net doctored with
    | Error Network.Invalid_signature -> ()
    | Ok () -> Alcotest.fail "tampered tx accepted")

let test_mine_ext_rejected_classification () =
  (* An invalidly-signed candidate smuggled in by the adversary shows up as
     [Rejected] in the typed outcomes, in candidate order, and never
     executes. *)
  let net = fresh_net () in
  let doctored =
    let tx =
      Tx.make ~wallet:(wallet 0) ~nonce:5 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
        ~payload:Bytes.empty
    in
    let b = Tx.to_bytes tx in
    Bytes.set b 60 (Char.chr (Char.code (Bytes.get b 60) lxor 1));
    try Some (Tx.of_bytes b) with _ -> None
  in
  Network.set_adversary net
    (Some (fun txs -> match doctored with Some d -> d :: txs | None -> txs));
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 2))) ~value:5
       ~payload:Bytes.empty);
  match (doctored, Network.mine_ext net) with
  | None, _ -> () (* tampering happened to break decoding; nothing to classify *)
  | Some _, [ Network.Rejected _; honest ] -> applied_ok honest
  | Some _, rs -> Alcotest.failf "unexpected outcomes (%d)" (List.length rs)

let test_conflict_retry_classification () =
  let net = fresh_net () in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0
       ~dst:(Tx.Create { behavior = "test-escrow"; args = Bytes.empty })
       ~value:600 ~payload:Bytes.empty);
  let escrow = created (List.hd (Network.mine net)) in
  let sender = Wallet.address (wallet 1) in
  (* A payee in the sender's or contract's shard would not escape; pick one
     from a provably different shard so the test cannot be vacuous. *)
  let payee =
    let clashes a =
      State.shard_of_address a = State.shard_of_address sender
      || State.shard_of_address a = State.shard_of_address escrow
    in
    let rec pick i =
      if i > 5 then Alcotest.fail "wallet pool has no distinct-shard payee"
      else
        let a = Wallet.address (wallet i) in
        if clashes a then pick (i + 1) else a
    in
    pick 2
  in
  let before = Network.balance net payee in
  (* Undeclared payee: the release touches a shard outside the declared
     footprint, so the block falls back to serial and the tx is classified
     [Conflict_retry] — with the exact receipt it would always have had. *)
  Network.submit net
    (Tx.make_ext ~wallet:(wallet 1) ~fee:0 ~footprint:[] ~nonce:0 ~dst:(Tx.Call escrow)
       ~value:0 ~payload:(Address.to_bytes payee));
  (match Network.mine_ext net with
  | [ Network.Conflict_retry r ] -> check_ok r
  | [ Network.Applied _ ] -> Alcotest.fail "undeclared payee did not escape"
  | _ -> Alcotest.fail "unexpected outcomes");
  Alcotest.(check int) "escrow still drained correctly" (before + 600)
    (Network.balance net payee);
  (* Declared payee: same call shape, footprint declared, no escape. *)
  Network.submit net
    (Tx.make_ext ~wallet:(wallet 1) ~fee:0 ~footprint:[ payee ] ~nonce:1 ~dst:(Tx.Call escrow)
       ~value:0 ~payload:(Address.to_bytes payee));
  match Network.mine_ext net with
  | [ Network.Applied r ] -> check_ok r
  | [ Network.Conflict_retry _ ] -> Alcotest.fail "declared footprint still escaped"
  | _ -> Alcotest.fail "unexpected outcomes"

(* The determinism property behind the whole executor: for any mix of
   transfers and contract calls — declared or undeclared footprints, any
   fee schedule — the sharded parallel root equals the serial replay root,
   and is byte-identical at 1 and 4 domains. *)
let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 8)
      (map2
         (fun kind (a, b, c) ->
           if kind = 0 then `Transfer (a mod 3, b mod 4, 1 + (c mod 50), c mod 10)
           else `Release (a mod 3, b mod 6, c mod 10, b mod 2 = 0))
         (int_bound 1)
         (triple (int_bound 1000) (int_bound 1000) (int_bound 1000))))

let run_sharded_scenario ops =
  let net = fresh_net () in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0
       ~dst:(Tx.Create { behavior = "test-escrow"; args = Bytes.empty })
       ~value:500 ~payload:Bytes.empty);
  let escrow = created (List.hd (Network.mine net)) in
  let nonces = Array.make 3 0 in
  nonces.(0) <- 1;
  List.iteri
    (fun i op ->
      let sender =
        match op with `Transfer (s, _, _, _) | `Release (s, _, _, _) -> s
      in
      (match op with
      | `Transfer (s, d, value, fee) ->
        Network.submit net
          (Tx.make_ext ~wallet:(wallet s) ~fee ~footprint:[] ~nonce:nonces.(s)
             ~dst:(Tx.Call (Wallet.address (wallet d)))
             ~value ~payload:Bytes.empty)
      | `Release (s, p, fee, declared) ->
        let payee = Wallet.address (wallet p) in
        let footprint = if declared then [ payee ] else [] in
        Network.submit net
          (Tx.make_ext ~wallet:(wallet s) ~fee ~footprint ~nonce:nonces.(s)
             ~dst:(Tx.Call escrow) ~value:1 ~payload:(Address.to_bytes payee)));
      nonces.(sender) <- nonces.(sender) + 1;
      if i mod 3 = 2 then ignore (Network.mine_ext net))
    ops;
  ignore (Network.mine_ext net);
  (Network.state_root net, Network.replay net)

let prop_parallel_equals_serial =
  qtest "sharded parallel root == serial root at 1 and 4 domains" ~count:5 gen_ops
    (fun ops ->
      let root1, replay1 = with_domains 1 (fun () -> run_sharded_scenario ops) in
      let root4, replay4 = with_domains 4 (fun () -> run_sharded_scenario ops) in
      Bytes.equal root1 replay1 && Bytes.equal root4 replay4 && Bytes.equal root1 root4)

(* --- partitions, fork choice and reorgs --- *)

let all_replicas_agree net =
  let root = Network.state_root net in
  for node = 0 to Network.num_nodes net - 1 do
    Alcotest.(check bytes)
      (Printf.sprintf "node %d on the canonical root" node)
      root
      (Network.node_state_root net node)
  done

let test_partition_heal () =
  let net = fresh_net ~num_nodes:3 () in
  let a1 = Wallet.address (wallet 1) in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call a1) ~value:5 ~payload:Bytes.empty);
  ignore (Network.mine net);
  Network.start_partition net ~minority:[ 2 ];
  Alcotest.(check bool) "partition active" true (Network.partition_active net);
  (* the majority mines the pending transfer; the minority mines an empty
     sibling branch of equal length *)
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:1 ~dst:(Tx.Call a1) ~value:7 ~payload:Bytes.empty);
  ignore (Network.mine net);
  ignore (Network.mine net);
  let h = Network.height net in
  let tip () = match List.rev (Network.blocks net) with b :: _ -> b | [] -> assert false in
  let majority_tip = tip () in
  let r = Network.heal_partition net in
  Alcotest.(check bool) "partition over" false (Network.partition_active net);
  Alcotest.(check int) "equal-length branches: height is stable" h (Network.height net);
  if r.Network.adopted_fork then begin
    (* equal lengths: the adopted minority tip hashes below the majority's *)
    Alcotest.(check bool) "tie broken toward the smaller tip hash" true
      (Bytes.compare (Block.hash (tip ())) (Block.hash majority_tip) < 0);
    Alcotest.(check int) "the whole majority branch reorged" 2 r.Network.reorged_blocks;
    Alcotest.(check bool) "orphaned transfer requeued" true (r.Network.requeued_txs >= 1)
  end
  else Alcotest.(check int) "canonical chain kept: nothing requeued" 0 r.Network.requeued_txs;
  (* either way: one more block lands any requeued orphans and every
     replica — including the healed minority — is back on one root *)
  ignore (Network.mine net);
  Alcotest.(check int) "both transfers settled exactly once" 1_000_012 (Network.balance net a1);
  all_replicas_agree net

(* A partition with a lead: that side's branch is one block longer at the
   heal, so the fork choice goes its way on length — by construction, not
   by tip hash.  The canonical chain grows one block per tick either way. *)
let test_partition_heal_lead () =
  List.iter
    (fun (lead, adopted) ->
      let net = fresh_net ~num_nodes:3 () in
      let a1 = Wallet.address (wallet 1) in
      ignore (Network.mine net);
      Network.start_partition ~lead net ~minority:[ 2 ];
      Network.submit net
        (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call a1) ~value:7 ~payload:Bytes.empty);
      ignore (Network.mine net);
      ignore (Network.mine net);
      Alcotest.(check int) "one canonical block per tick" 3 (Network.height net);
      let r = Network.heal_partition net in
      Alcotest.(check bool) "the leading side wins" adopted r.Network.adopted_fork;
      Alcotest.(check int) "height after the heal" (if adopted then 4 else 3)
        (Network.height net);
      Alcotest.(check int) "orphaned majority blocks" (if adopted then 2 else 0)
        r.Network.reorged_blocks;
      Alcotest.(check int) "requeued transfers" (if adopted then 1 else 0) r.Network.requeued_txs;
      ignore (Network.mine net);
      Alcotest.(check int) "the transfer settled exactly once" 1_000_007 (Network.balance net a1);
      all_replicas_agree net)
    [ (Network.Majority, false); (Network.Minority, true) ]

let test_partition_rejects_bad_splits () =
  let net = fresh_net ~num_nodes:3 () in
  List.iter
    (fun minority ->
      match Network.start_partition net ~minority with
      | () -> Alcotest.failf "accepted bad minority"
      | exception Invalid_argument _ -> ())
    [ []; [ 0 ]; [ 7 ]; [ 0; 1; 2 ] ];
  Network.start_partition net ~minority:[ 2 ];
  (match Network.start_partition net ~minority:[ 1 ] with
  | () -> Alcotest.fail "accepted a second partition"
  | exception Invalid_argument _ -> ());
  ignore (Network.heal_partition net)

let test_fork_tip_choice () =
  let net = fresh_net ~num_nodes:3 () in
  Alcotest.(check (option bool)) "no tip to fork at genesis" None
    (Network.fork_tip net ~permute:List.rev);
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:3
       ~payload:Bytes.empty);
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 2))) ~value:4
       ~payload:Bytes.empty);
  ignore (Network.mine net);
  let tip_before =
    match List.rev (Network.blocks net) with b :: _ -> b | [] -> assert false
  in
  Alcotest.(check (option bool)) "identity permutation is not a fork" None
    (Network.fork_tip net ~permute:(fun txs -> txs));
  (* the miner re-seals its sibling until it hashes below the tip, so the
     fork choice at equal height (the smaller hash wins) adopts it *)
  Alcotest.(check (option bool)) "re-sealed sibling adopted" (Some true)
    (Network.fork_tip net ~permute:List.rev);
  let tip_after = match List.rev (Network.blocks net) with b :: _ -> b | [] -> assert false in
  Alcotest.(check bool) "adopted sibling hashes below the old tip" true
    (Bytes.compare (Block.hash tip_after) (Block.hash tip_before) < 0);
  Alcotest.(check int) "height unchanged" 1 (Network.height net);
  (* the chain keeps working after the depth-1 reorg *)
  Network.submit net
    (Tx.make ~wallet:(wallet 2) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 0))) ~value:1
       ~payload:Bytes.empty);
  ignore (Network.mine net);
  all_replicas_agree net;
  Alcotest.(check int) "transfers settled exactly once (received 3, sent 4)" 999_999
    (Network.balance net (Wallet.address (wallet 1)))

let () =
  Alcotest.run "chain"
    [
      ( "tx",
        [
          Alcotest.test_case "address derivation" `Quick test_address_derivation;
          Alcotest.test_case "tx roundtrip" `Quick test_tx_roundtrip;
          Alcotest.test_case "tx tamper" `Quick test_tx_tamper;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "plain transfer" `Quick test_plain_transfer;
          Alcotest.test_case "insufficient funds" `Quick test_insufficient_funds;
          Alcotest.test_case "nonce / replay" `Quick test_nonce_enforcement;
          Alcotest.test_case "supply conservation" `Quick test_supply_conservation;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "lifecycle" `Quick test_contract_lifecycle;
          Alcotest.test_case "unknown behavior" `Quick test_unknown_behavior;
          Alcotest.test_case "revert rollback" `Quick test_revert_rolls_back;
          Alcotest.test_case "escrow actions" `Quick test_escrow_transfer_action;
        ] );
      ( "network",
        [
          Alcotest.test_case "replicas agree" `Quick test_replicas_agree;
          Alcotest.test_case "adversary reorder" `Quick test_adversary_reorder;
          Alcotest.test_case "adversary cannot forge" `Quick test_adversary_cannot_forge;
          Alcotest.test_case "adversary duplicate rejected" `Quick
            test_adversary_duplicate_rejected;
          Alcotest.test_case "adversary drop requeues" `Quick test_adversary_drop_requeues;
          Alcotest.test_case "block linkage" `Quick test_block_chain_integrity;
          Alcotest.test_case "tx inclusion proof" `Quick test_tx_inclusion_proof;
          Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
          Alcotest.test_case "proof-of-work seal" `Quick test_pow_mining;
          Alcotest.test_case "difficulty 0 default" `Quick test_pow_difficulty_zero_default;
          Alcotest.test_case "mine_until" `Quick test_mine_until;
        ] );
      ( "sharded exec",
        [
          Alcotest.test_case "fee ordering" `Quick test_fee_ordering;
          Alcotest.test_case "fee ordering keeps nonce lanes" `Quick
            test_fee_ordering_keeps_nonce_lanes;
          Alcotest.test_case "submit_r typed rejection" `Quick test_submit_r_typed_rejection;
          Alcotest.test_case "mine_ext rejected classification" `Quick
            test_mine_ext_rejected_classification;
          Alcotest.test_case "conflict retry classification" `Quick
            test_conflict_retry_classification;
          prop_parallel_equals_serial;
        ] );
      ( "forks",
        [
          Alcotest.test_case "partition heal fork choice" `Quick test_partition_heal;
          Alcotest.test_case "partition heal with a lead" `Quick test_partition_heal_lead;
          Alcotest.test_case "partition rejects bad splits" `Quick
            test_partition_rejects_bad_splits;
          Alcotest.test_case "byzantine sibling fork choice" `Quick test_fork_tip_choice;
        ] );
    ]
