(* Fault-injection layer tests: the deterministic schedule, the network
   and store fault hooks, the protocol retry drivers that ride the faults
   out, and the end-to-end chaos invariants (settle-or-typed-error,
   replica agreement, supply conservation, trace replayability). *)

open Zebralancer
open Zebra_chain
module Faults = Zebra_faults.Faults

let rng = Zebra_rng.Chacha20.create ~seed:"test_faults"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

let qtest name ?(count = 50) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let wallet_pool = lazy (Array.init 3 (fun _ -> Wallet.generate ~bits:512 ~random_bytes ()))
let wallet i = (Lazy.force wallet_pool).(i)

let fresh_net ?(num_nodes = 3) () =
  let genesis = List.init 3 (fun i -> (Wallet.address (wallet i), 1_000_000)) in
  Network.create ~num_nodes ~genesis ()

let transfer ~from ~to_ ~nonce ~value =
  Tx.make ~wallet:(wallet from) ~nonce ~dst:(Tx.Call (Wallet.address (wallet to_))) ~value
    ~payload:Bytes.empty

(* --- plan DSL --- *)

let test_plan_roundtrip () =
  List.iter
    (fun s ->
      let spec = Faults.spec_of_string s in
      Alcotest.(check string) s s (Faults.spec_to_string spec))
    [
      "none";
      "drop=0.1";
      "drop=0.2,delay=0.1:3,dup=0.05,reorder=0.5";
      "lose=0.3,corrupt=0.1";
      "crash=1:5-9,crash=2:12-14,withhold,noinstruct";
      "partition=2|1:6-9";
      "partition=2|1:6-9:majority";
      "partition=2|1:6-9:minority";
      "byzmine=0:fork";
      "byzmine=1:reorder";
      "eclipse=1:6-8,collude=2";
      "drop=0.1,crash=2:12-14,partition=2|1:6-9,byzmine=1:censor,eclipse=1:6-8,collude=2,withhold";
    ];
  Alcotest.(check string) "empty spells none" "none" (Faults.spec_to_string (Faults.spec_of_string ""))

let test_plan_rejects_malformed () =
  List.iter
    (fun s ->
      match Faults.spec_of_string s with
      | _ -> Alcotest.failf "accepted malformed plan %S" s
      | exception Invalid_argument _ -> ())
    [
      "drop=1.5";
      "drop=x";
      "delay=0.1:0";
      "crash=1:9-5";
      "crash=-1:2-3";
      "warp=0.1";
      "withhold=1";
      "partition=2|1:9-5";
      "partition=0|1:2-3";
      "partition=2|1";
      "partition=2|1:6-9:sideways";
      "byzmine=1:evil";
      "byzmine=-1:reorder";
      "byzmine=1:reorder,byzmine=2:censor";
      "eclipse=1:9-5";
      "eclipse=-1:2-3";
      "collude=-1";
      (* a partition window may not touch a crash window (margins included):
         fork choice over a replica that is also rebooting is undefined *)
      "crash=1:6-9,partition=2|1:8-12";
      "partition=2|1:6-9,partition=2|1:9-12";
    ]

let prop_schedule_deterministic =
  qtest "unit_float: pure function of (seed, site, a, b)" ~count:200
    QCheck2.Gen.(triple (int_range 1 7) (int_range 0 1000) (int_range 0 1000))
    (fun (site, a, b) ->
      let t1 = Faults.create ~seed:"s" Faults.none in
      let t2 = Faults.create ~seed:"s" Faults.none in
      let t3 = Faults.create ~seed:"other" Faults.none in
      let site = Int32.of_int site in
      let u1 = Faults.unit_float t1 ~site ~a ~b in
      let u2 = Faults.unit_float t2 ~site ~a ~b in
      let u3 = Faults.unit_float t3 ~site ~a ~b in
      u1 = u2 && u1 >= 0. && u1 < 1. && (u1 <> u3 || a = b (* different seeds: collisions only by chance *)))

(* --- network faults --- *)

let test_delay_exactly_k_blocks () =
  let net = fresh_net () in
  let f = Faults.create ~seed:"delay" { Faults.none with Faults.delay = 1.0; delay_blocks = 2 } in
  Faults.attach f net;
  let tx = transfer ~from:0 ~to_:1 ~nonce:0 ~value:5 in
  Network.submit net tx;
  ignore (Network.mine net);
  (* postponed at height 1, release 3 *)
  Alcotest.(check int) "held in the delay buffer" 1 (Network.delayed net);
  Alcotest.(check (option reject)) "not mined at height 1" None (Network.receipt net (Tx.hash tx));
  ignore (Network.mine net);
  Alcotest.(check (option reject)) "not mined at height 2" None (Network.receipt net (Tx.hash tx));
  ignore (Network.mine net);
  (* the release is exempt from a fresh delay draw: exactly k blocks late *)
  (match Network.receipt net (Tx.hash tx) with
  | Some { State.status = State.Ok _; _ } -> ()
  | _ -> Alcotest.fail "released transaction must execute at height 3");
  Alcotest.(check int) "value arrived" 1_000_005 (Network.balance net (Wallet.address (wallet 1)));
  Alcotest.(check int) "one delay event" 1
    (List.length (List.filter (fun l -> String.length l >= 4) (Faults.trace f)))

(* Regression: a fault-delayed transaction rejoins {e ahead} of the
   fee-ordered mempool.  Under a sustained high-fee flood the zero-fee
   victim must still land exactly at its release height, first in the
   block — otherwise the bounded delay the protocol's retry drivers ride
   out (see [Protocol]) would silently become fee starvation. *)
let test_delayed_exempt_from_fee_flood () =
  let net = fresh_net () in
  let victim = transfer ~from:0 ~to_:2 ~nonce:0 ~value:7 in
  let held = ref false in
  Network.set_mempool_fault net
    (Some
       (fun ~height txs ->
         if !held then (txs, [])
         else
           let now, hold =
             List.partition (fun tx -> not (Bytes.equal (Tx.hash tx) (Tx.hash victim))) txs
           in
           if hold <> [] then held := true;
           (now, List.map (fun tx -> (height + 2, tx)) hold)));
  let flood_nonce = ref 0 in
  let flood () =
    for _ = 1 to 3 do
      Network.submit net
        (Tx.make_ext ~wallet:(wallet 1) ~fee:9 ~footprint:[] ~nonce:!flood_nonce
           ~dst:(Tx.Call (Wallet.address (wallet 0)))
           ~value:1 ~payload:Bytes.empty);
      incr flood_nonce
    done
  in
  let before = Network.balance net (Wallet.address (wallet 2)) in
  Network.submit net victim;
  flood ();
  ignore (Network.mine net);
  (* postponed at height 1, release 3; the flood mines on around it *)
  Alcotest.(check int) "held in the delay buffer" 1 (Network.delayed net);
  flood ();
  ignore (Network.mine net);
  Alcotest.(check (option reject)) "not mined at height 2" None
    (Network.receipt net (Tx.hash victim));
  flood ();
  ignore (Network.mine net);
  (match Network.receipt net (Tx.hash victim) with
  | Some { State.status = State.Ok _; _ } -> ()
  | _ -> Alcotest.fail "released transaction must execute at height 3");
  Alcotest.(check int) "value arrived despite the flood" (before + 7)
    (Network.balance net (Wallet.address (wallet 2)));
  let release_block =
    match List.rev (Network.blocks net) with b :: _ -> b | [] -> assert false
  in
  match release_block.Block.txs with
  | first :: _ ->
    Alcotest.(check bytes) "released tx sealed ahead of the fee-9 flood" (Tx.hash victim)
      (Tx.hash first)
  | [] -> Alcotest.fail "release block is empty"

let test_drop_needs_resubmit () =
  let net = fresh_net () in
  let f = Faults.create ~seed:"drop" { Faults.none with Faults.drop = 1.0 } in
  Faults.attach f net;
  let tx = transfer ~from:0 ~to_:1 ~nonce:0 ~value:5 in
  Network.submit net tx;
  ignore (Network.mine net);
  Alcotest.(check (option reject)) "dropped" None (Network.receipt net (Tx.hash tx));
  Alcotest.(check int) "not pending either: the broadcast is gone" 0 (Network.pending net);
  Alcotest.(check int) "not delayed" 0 (Network.delayed net);
  (* the client's resubmission after the fault clears succeeds *)
  Faults.detach net;
  Network.submit net tx;
  ignore (Network.mine net);
  match Network.receipt net (Tx.hash tx) with
  | Some { State.status = State.Ok _; _ } -> ()
  | _ -> Alcotest.fail "resubmission must mine"

let test_crash_and_resync () =
  let net = fresh_net ~num_nodes:3 () in
  let f =
    Faults.create ~seed:"crash"
      { Faults.none with Faults.crashes = [ { Faults.node = 1; from_height = 2; to_height = 3 } ] }
  in
  Faults.attach f net;
  Network.submit net (transfer ~from:0 ~to_:1 ~nonce:0 ~value:1);
  ignore (Network.mine net);
  Alcotest.(check bool) "up at height 1" true (Network.node_up net 1);
  Network.submit net (transfer ~from:0 ~to_:1 ~nonce:1 ~value:2);
  ignore (Network.mine net);
  Alcotest.(check bool) "down during the window" false (Network.node_up net 1);
  Network.submit net (transfer ~from:2 ~to_:0 ~nonce:0 ~value:3);
  ignore (Network.mine net);
  Alcotest.(check bool) "still down at the window end" false (Network.node_up net 1);
  ignore (Network.mine net);
  (* restarted before block 4 formed: replayed blocks 2-3 from peers *)
  Alcotest.(check bool) "back up at height 4" true (Network.node_up net 1);
  let root = Network.state_root net in
  for node = 0 to Network.num_nodes net - 1 do
    Alcotest.(check bytes)
      (Printf.sprintf "node %d agrees after resync" node)
      root
      (Network.node_state_root net node)
  done;
  let trace = Faults.trace f in
  Alcotest.(check bool) "crash traced" true
    (List.exists (fun l -> l = "h=2 node.crash node=1 until=3") trace);
  Alcotest.(check bool) "resync traced" true
    (List.exists (fun l -> l = "h=4 node.restart node=1 resync=ok") trace)

let test_crash_refuses_last_replica () =
  let net = fresh_net ~num_nodes:1 () in
  let f =
    Faults.create ~seed:"last"
      { Faults.none with Faults.crashes = [ { Faults.node = 0; from_height = 1; to_height = 2 } ] }
  in
  Faults.attach f net;
  Network.submit net (transfer ~from:0 ~to_:1 ~nonce:0 ~value:1);
  let receipts = Network.mine net in
  (* the schedule wanted node 0 down, the network refused, the block mined *)
  Alcotest.(check int) "block still executed" 1 (List.length receipts);
  let has_prefix p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  Alcotest.(check bool) "refusal traced" true
    (List.exists (has_prefix "h=1 node.crash node=0 refused") (Faults.trace f));
  Alcotest.(check bool) "node stayed up" true (Network.node_up net 0)

(* A heal won by a minority lead raises the height by one; the block
   hook must still fire for the height the heal skipped, so a crash
   window starting right after it is not lost. *)
let test_lead_heal_keeps_schedule () =
  let net = fresh_net ~num_nodes:3 () in
  let f =
    Faults.create ~seed:"lead-heal"
      (Faults.spec_of_string "partition=2|1:2-3:minority,crash=1:5-6")
  in
  Faults.attach f net;
  ignore (Network.mine net);
  Network.submit net (transfer ~from:0 ~to_:1 ~nonce:0 ~value:1);
  for _ = 1 to 3 do
    ignore (Network.mine net)
  done;
  Alcotest.(check int) "the heal sealed one extra block" 5 (Network.height net);
  Alcotest.(check bool) "crash fired at the skipped height" false (Network.node_up net 1);
  ignore (Network.mine net);
  ignore (Network.mine net);
  Alcotest.(check bool) "restarted after the window" true (Network.node_up net 1);
  let trace = Faults.trace f in
  Alcotest.(check bool) "minority adopted" true
    (List.mem "h=4 partition.heal fork adopted: reorged 2 block(s), requeued 1 tx(s)" trace);
  Alcotest.(check bool) "crash traced" true (List.mem "h=5 node.crash node=1 until=6" trace)

(* A majority lead adds no canonical block — the minority seals one block
   fewer — so a delayed transaction due at the heal height still lands
   exactly k blocks late. *)
let test_majority_lead_keeps_delay () =
  let net = fresh_net ~num_nodes:3 () in
  let f =
    Faults.create ~seed:"lead-delay"
      (Faults.spec_of_string "delay=1.0:2,partition=2|1:2-3:majority")
  in
  Faults.attach f net;
  ignore (Network.mine net);
  let tx = transfer ~from:0 ~to_:1 ~nonce:0 ~value:5 in
  Network.submit net tx;
  (* postponed at height 2, release 4: the heal height *)
  ignore (Network.mine net);
  ignore (Network.mine net);
  Alcotest.(check int) "held in the delay buffer" 1 (Network.delayed net);
  ignore (Network.mine net);
  Alcotest.(check int) "one canonical block per tick" 4 (Network.height net);
  Alcotest.(check bool) "released into block 4, exactly k blocks late" true
    (List.exists
       (fun (b : Block.t) ->
         b.Block.header.Block.height = 4
         && List.exists (fun t -> Bytes.equal (Tx.hash t) (Tx.hash tx)) b.Block.txs)
       (Network.blocks net));
  Alcotest.(check bool) "canonical chain kept" true
    (List.mem "h=4 partition.heal canonical chain kept" (Faults.trace f));
  Alcotest.(check bytes) "healed minority back on the canonical root" (Network.state_root net)
    (Network.node_state_root net 2)

let test_finish_restarts_down_nodes () =
  let net = fresh_net ~num_nodes:3 () in
  let f =
    Faults.create ~seed:"finish"
      { Faults.none with Faults.crashes = [ { Faults.node = 2; from_height = 1; to_height = 99 } ] }
  in
  Faults.attach f net;
  Network.submit net (transfer ~from:0 ~to_:1 ~nonce:0 ~value:4);
  ignore (Network.mine net);
  ignore (Network.mine net);
  Alcotest.(check bool) "down mid-run" false (Network.node_up net 2);
  Faults.finish f net;
  Alcotest.(check bool) "finish brings it back" true (Network.node_up net 2);
  Alcotest.(check bytes) "and it agrees" (Network.state_root net) (Network.node_state_root net 2)

(* --- protocol retry over faults --- *)

let test_protocol_timeout_is_typed () =
  (* Total broadcast loss: every phase must fail with Timed_out after
     exactly max_attempts broadcasts — never an exception. *)
  let sys = Protocol.create_system ~seed:"test-faults-timeout" () in
  let f = Faults.create ~seed:"timeout" { Faults.none with Faults.drop = 1.0 } in
  Faults.attach f sys.Protocol.net;
  (match Protocol.enroll_r sys with
  | Error (Protocol.Timed_out { attempts; _ }) ->
    Alcotest.(check int) "gave up after max_attempts" Protocol.default_retry.Protocol.max_attempts
      attempts
  | Error e -> Alcotest.failf "wrong error: %s" (Protocol.error_to_string e)
  | Ok _ -> Alcotest.fail "cannot succeed under total loss");
  Faults.detach sys.Protocol.net;
  (* the same system recovers once the fault clears *)
  match Protocol.enroll_r sys with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean retry failed: %s" (Protocol.error_to_string e)

let test_protocol_rides_out_bounded_delay () =
  let sys = Protocol.create_system ~seed:"test-faults-delay" () in
  let f =
    Faults.create ~seed:"ride" { Faults.none with Faults.delay = 1.0; delay_blocks = 2 }
  in
  Faults.attach f sys.Protocol.net;
  (* delay_blocks = backoff_blocks: every transaction arrives exactly at
     the edge of the confirmation window *)
  (match Protocol.enroll_r sys with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "bounded delay must be ridden out: %s" (Protocol.error_to_string e));
  Faults.detach sys.Protocol.net

(* --- end-to-end chaos rounds --- *)

let check_invariants name (o : Chaos.outcome) =
  Alcotest.(check bool) (name ^ ": replicas agree") true o.Chaos.replicas_agree;
  Alcotest.(check bool) (name ^ ": supply conserved") true o.Chaos.supply_conserved;
  Alcotest.(check bool) (name ^ ": store recovered") true o.Chaos.store_recovered;
  let why = match o.Chaos.indexer_error with None -> "" | Some e -> " (" ^ e ^ ")" in
  Alcotest.(check bool) (name ^ ": indexer agrees" ^ why) true o.Chaos.indexer_agrees

let trace_has (o : Chaos.outcome) needle =
  let contains line =
    let n = String.length needle and m = String.length line in
    let rec go i = i + n <= m && (String.sub line i n = needle || go (i + 1)) in
    go 0
  in
  List.exists contains o.Chaos.trace

let test_chaos_drop_recovers () =
  let plan = Faults.spec_of_string "drop=0.15,delay=0.15:2,dup=0.1" in
  let o = Chaos.run ~seed:"chaos-smoke" ~plan () in
  (match o.Chaos.settlement with
  | Chaos.Rewarded rewards -> Alcotest.(check int) "all three rewarded" 3 (Array.length rewards)
  | s -> Alcotest.failf "expected rewards, got %s" (Chaos.settlement_to_string s));
  check_invariants "drop" o;
  Alcotest.(check bool) "faults actually fired" true (o.Chaos.trace <> [])

let test_chaos_crash_restart_agreement () =
  let plan = Faults.spec_of_string "crash=1:6-9,drop=0.1" in
  let o = Chaos.run ~seed:"chaos-crash" ~plan () in
  (match o.Chaos.settlement with
  | Chaos.Rewarded _ -> ()
  | s -> Alcotest.failf "expected rewards, got %s" (Chaos.settlement_to_string s));
  check_invariants "crash" o;
  Alcotest.(check bool) "crash traced" true
    (List.exists (fun l -> l = "h=6 node.crash node=1 until=9") o.Chaos.trace);
  Alcotest.(check bool) "resync traced" true
    (List.exists (fun l -> l = "h=10 node.restart node=1 resync=ok") o.Chaos.trace)

let test_chaos_withholding_worker () =
  let plan = Faults.spec_of_string "withhold" in
  let o = Chaos.run ~n:3 ~seed:"chaos-withhold" ~plan () in
  (match o.Chaos.settlement with
  | Chaos.Rewarded rewards ->
    (* the circuit arity stays n; the withheld slot is a zero pad *)
    Alcotest.(check int) "reward vector keeps the circuit arity" 3 (Array.length rewards);
    Alcotest.(check bool) "payout within budget" true
      (Array.fold_left ( + ) 0 rewards <= 60)
  | s -> Alcotest.failf "expected rewards, got %s" (Chaos.settlement_to_string s));
  check_invariants "withhold" o

let test_chaos_timeout_fallback_payout () =
  let plan = Faults.spec_of_string "noinstruct" in
  let o = Chaos.run ~seed:"chaos-noinstruct" ~plan () in
  (match o.Chaos.settlement with
  | Chaos.Finalized -> ()
  | s -> Alcotest.failf "expected the timeout fallback, got %s" (Chaos.settlement_to_string s));
  check_invariants "noinstruct" o

let test_chaos_trace_replays () =
  let plan = Faults.spec_of_string "drop=0.2,delay=0.2:2,dup=0.1,reorder=0.3,lose=0.1" in
  let o1 = Chaos.run ~seed:"chaos-replay" ~plan () in
  let o2 = Chaos.run ~seed:"chaos-replay" ~plan () in
  Alcotest.(check (list string)) "identical fault trace" o1.Chaos.trace o2.Chaos.trace;
  Alcotest.(check string) "identical state root" o1.Chaos.state_root o2.Chaos.state_root;
  Alcotest.(check string) "identical settlement"
    (Chaos.settlement_to_string o1.Chaos.settlement)
    (Chaos.settlement_to_string o2.Chaos.settlement);
  Alcotest.(check int) "identical height" o1.Chaos.final_height o2.Chaos.final_height

(* Chaos under the sharded parallel executor: the same (seed, plan) pair
   must produce the identical outcome — trace, settlement, root — at 1 and
   4 domains, with the fee-ordered mempool and footprint-declared
   settlement transactions in the loop.  This is the in-suite twin of the
   scripts/check.sh chaos gate. *)
let test_chaos_identical_across_domains () =
  let with_domains n f =
    let prev = Zebra_parallel.Parallel.default_domains () in
    Fun.protect
      ~finally:(fun () -> Zebra_parallel.Parallel.set_default_domains prev)
      (fun () ->
        Zebra_parallel.Parallel.set_default_domains n;
        f ())
  in
  let plan = Faults.spec_of_string "drop=0.1,delay=0.2:2,dup=0.05" in
  let run_at n = with_domains n (fun () -> Chaos.run ~seed:"chaos-domains" ~plan ()) in
  let o1 = run_at 1 in
  let o4 = run_at 4 in
  Alcotest.(check string) "outcome identical at 1 and 4 domains"
    (Chaos.outcome_to_string o1) (Chaos.outcome_to_string o4);
  (match o4.Chaos.settlement with
  | Chaos.Rewarded _ | Chaos.Finalized -> ()
  | Chaos.Aborted _ -> Alcotest.fail "bounded plan must settle");
  check_invariants "domains" o4

(* --- byzantine adversary corpus --- *)

(* Partition where fork choice keeps the canonical chain: the majority
   seals one block more than the minority, so it wins on length whatever
   the tip hashes.  The minority full-syncs, nothing reorgs, the indexer
   never notices. *)
let test_chaos_partition_keep () =
  let plan = Faults.spec_of_string "partition=2|1:6-9:majority" in
  let o = Chaos.run ~seed:"part-1" ~plan () in
  (match o.Chaos.settlement with
  | Chaos.Rewarded _ -> ()
  | s -> Alcotest.failf "expected rewards, got %s" (Chaos.settlement_to_string s));
  check_invariants "partition-keep" o;
  Alcotest.(check bool) "partition traced" true (trace_has o "partition.start majority=2 minority=1");
  Alcotest.(check bool) "canonical chain kept" true (trace_has o "partition.heal canonical chain kept");
  Alcotest.(check int) "no reorg seen by the indexer" 0 o.Chaos.indexer_reorgs

(* Partition where fork choice adopts the minority branch: the minority
   seals one block more, so it wins on length whatever the tip hashes.
   The whole majority-side history since the fork point reorgs, its
   transactions are requeued and re-settle exactly once, and the indexer
   detects the invalidated cursor and re-indexes from genesis. *)
let test_chaos_partition_reorg () =
  let plan = Faults.spec_of_string "partition=2|1:6-9:minority" in
  let o = Chaos.run ~seed:"part-2" ~plan () in
  (match o.Chaos.settlement with
  | Chaos.Rewarded _ -> ()
  | s -> Alcotest.failf "expected rewards, got %s" (Chaos.settlement_to_string s));
  check_invariants "partition-reorg" o;
  Alcotest.(check bool) "minority branch adopted" true
    (trace_has o "partition.heal fork adopted: reorged 4 block(s)");
  Alcotest.(check int) "indexer survived exactly one reorg" 1 o.Chaos.indexer_reorgs

let test_chaos_byzantine_reorder () =
  let plan = Faults.spec_of_string "byzmine=1:reorder,drop=0.05" in
  let o = Chaos.run ~seed:"byz-1" ~plan () in
  (match o.Chaos.settlement with
  | Chaos.Rewarded _ -> ()
  | s -> Alcotest.failf "expected rewards, got %s" (Chaos.settlement_to_string s));
  check_invariants "byz-reorder" o;
  Alcotest.(check bool) "reorder traced" true (trace_has o "byzmine.reorder node=1")

let test_chaos_byzantine_censor () =
  let plan = Faults.spec_of_string "byzmine=2:censor" in
  let o = Chaos.run ~seed:"byz-1" ~plan () in
  (match o.Chaos.settlement with
  | Chaos.Rewarded _ -> ()
  | s -> Alcotest.failf "censorship is bounded delay, got %s" (Chaos.settlement_to_string s));
  check_invariants "byz-censor" o;
  Alcotest.(check bool) "censorship traced" true (trace_has o "byzmine.censor node=2")

(* A byzantine miner whose conflicting sibling block WINS fork choice (it
   re-seals the sibling until it hashes below the tip): a depth-1 reorg
   every replica adopts, after which the round still settles and the
   indexer still agrees. *)
let test_chaos_byzantine_fork_adopted () =
  let plan = Faults.spec_of_string "byzmine=0:fork" in
  let o = Chaos.run ~seed:"byz-20" ~plan () in
  (match o.Chaos.settlement with
  | Chaos.Rewarded _ -> ()
  | s -> Alcotest.failf "expected rewards, got %s" (Chaos.settlement_to_string s));
  check_invariants "byz-fork" o;
  Alcotest.(check bool) "adopted sibling traced" true
    (trace_has o "sibling adopted (reorg depth 1)");
  Alcotest.(check bool) "no sibling lost the fork choice" false (trace_has o "sibling rejected")

(* Eclipse of one worker: its submission is held for the window and lands
   at release, inside the answer deadline — everyone still gets paid. *)
let test_chaos_eclipse_release () =
  let plan = Faults.spec_of_string "eclipse=1:6-9" in
  let o = Chaos.run ~seed:"ec-1" ~plan () in
  (match o.Chaos.settlement with
  | Chaos.Rewarded rewards ->
    Alcotest.(check (array int)) "eclipsed worker still paid" [| 20; 20; 20 |] rewards
  | s -> Alcotest.failf "expected rewards, got %s" (Chaos.settlement_to_string s));
  check_invariants "eclipse" o;
  Alcotest.(check bool) "hold traced" true (trace_has o "eclipse.hold")

(* Collusion below the majority threshold: the deviant answer loses the
   vote and the colluder is the one who goes unpaid. *)
let test_chaos_collusion_minority_unpaid () =
  let plan = Faults.spec_of_string "collude=1" in
  let o = Chaos.run ~seed:"col-1" ~plan () in
  (match o.Chaos.settlement with
  | Chaos.Rewarded rewards ->
    Alcotest.(check (array int)) "colluder unpaid, honest majority paid" [| 20; 20; 0 |] rewards
  | s -> Alcotest.failf "expected rewards, got %s" (Chaos.settlement_to_string s));
  check_invariants "collude-minority" o

(* Collusion AT the majority threshold: 2 of 3 workers flip the vote, the
   honest worker goes unpaid.  The ledger invariants all hold — the attack
   succeeds against the policy, not the chain — which is exactly the
   documented limit of majority-vote incentives. *)
let test_chaos_collusion_majority_flips () =
  let plan = Faults.spec_of_string "collude=2" in
  let o = Chaos.run ~seed:"col-2" ~plan () in
  (match o.Chaos.settlement with
  | Chaos.Rewarded rewards ->
    Alcotest.(check (array int)) "colluding majority captures the reward" [| 0; 20; 20 |] rewards
  | s -> Alcotest.failf "expected rewards, got %s" (Chaos.settlement_to_string s));
  check_invariants "collude-majority" o

(* Fee-ordered sealing must preserve per-sender nonce order no matter what
   the fault pipeline does to the mempool (drops, delays, duplicates,
   shuffles).  Canonical receipts only — a duplicate's second inclusion
   fails nonce replay by design. *)
let prop_fee_order_keeps_nonce_lanes_under_faults =
  qtest "fee-ordered sealing keeps nonce lanes under random fault plans" ~count:15
    QCheck2.Gen.(triple (int_range 0 30) (int_range 0 30) (int_range 0 20))
    (fun (drop, delay, dup) ->
      let pct x = float_of_int x /. 100. in
      let net = fresh_net () in
      let plan =
        {
          Faults.none with
          Faults.drop = pct drop;
          delay = pct delay;
          delay_blocks = 2;
          duplicate = pct dup;
          reorder = 0.5;
        }
      in
      let f = Faults.create ~seed:(Printf.sprintf "lanes-%d-%d-%d" drop delay dup) plan in
      Faults.attach f net;
      (* 3 senders x 3 nonces with clashing fees, so the miner is tempted
         to seal high-fee later-nonce txs first *)
      for nonce = 0 to 2 do
        for s = 0 to 2 do
          Network.submit net
            (Tx.make_ext ~wallet:(wallet s)
               ~fee:((7 * s) + (5 * (2 - nonce)) mod 9)
               ~footprint:[] ~nonce
               ~dst:(Tx.Call (Wallet.address (wallet ((s + 1) mod 3))))
               ~value:1 ~payload:Bytes.empty)
        done
      done;
      for _ = 1 to 8 do
        ignore (Network.mine net)
      done;
      Faults.detach net;
      let seen = Hashtbl.create 16 in
      let last_nonce = Hashtbl.create 4 in
      let ordered = ref true in
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun (tx : Tx.t) ->
              let h = tx |> Tx.hash |> Bytes.to_string in
              if not (Hashtbl.mem seen h) then begin
                Hashtbl.add seen h ();
                match Network.receipt net (Tx.hash tx) with
                | Some { State.status = State.Ok _; _ } ->
                  let k = Address.to_hex tx.Tx.sender in
                  (match Hashtbl.find_opt last_nonce k with
                  | Some p when tx.Tx.nonce <= p -> ordered := false
                  | _ -> ());
                  Hashtbl.replace last_nonce k tx.Tx.nonce
                | _ -> ()
              end)
            b.Block.txs)
        (Network.blocks net);
      !ordered)

(* The tentpole property: ANY bounded seeded plan settles with a payout or
   a typed error — no exception — and never breaks replica agreement or
   supply conservation.  Expensive (a full system boot per case), so the
   case count stays small; the seeds still vary per run via qcheck. *)
let prop_bounded_plans_settle_or_typed_error =
  qtest "bounded plans: settle or typed error, invariants hold" ~count:4
    QCheck2.Gen.(
      map2
        (fun (drop, delay, dup) (reorder, crash, flags) -> (drop, delay, dup, reorder, crash, flags))
        (triple (int_range 0 25) (int_range 0 25) (int_range 0 15))
        (triple (int_range 0 50) (int_range 0 2) (int_range 0 3)))
    (fun (drop, delay, dup, reorder, crash, flags) ->
      let pct x = float_of_int x /. 100. in
      let plan =
        {
          Faults.none with
          Faults.drop = pct drop;
          delay = pct delay;
          delay_blocks = 2;
          duplicate = pct dup;
          reorder = pct reorder;
          crashes =
            (match crash with
            | 1 -> [ { Faults.node = 1; from_height = 6; to_height = 8 } ]
            | 2 -> [ { Faults.node = 2; from_height = 5; to_height = 9 } ]
            | _ -> []);
          withhold_worker = flags land 1 = 1;
          no_instruction = flags land 2 = 2;
        }
      in
      let seed = Printf.sprintf "prop-%d-%d-%d-%d-%d-%d" drop delay dup reorder crash flags in
      let o = Chaos.run ~n:2 ~budget:40 ~seed ~plan () in
      let settled_or_typed =
        match o.Chaos.settlement with
        | Chaos.Rewarded _ | Chaos.Finalized | Chaos.Aborted _ -> true
      in
      settled_or_typed && o.Chaos.replicas_agree && o.Chaos.supply_conserved)

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "DSL roundtrip" `Quick test_plan_roundtrip;
          Alcotest.test_case "DSL rejects malformed" `Quick test_plan_rejects_malformed;
          prop_schedule_deterministic;
        ] );
      ( "network",
        [
          Alcotest.test_case "delay is exactly k blocks" `Quick test_delay_exactly_k_blocks;
          Alcotest.test_case "delayed exempt from fee flood" `Quick
            test_delayed_exempt_from_fee_flood;
          Alcotest.test_case "drop needs resubmit" `Quick test_drop_needs_resubmit;
          Alcotest.test_case "crash and resync" `Quick test_crash_and_resync;
          Alcotest.test_case "last replica protected" `Quick test_crash_refuses_last_replica;
          Alcotest.test_case "finish restarts down nodes" `Quick test_finish_restarts_down_nodes;
          Alcotest.test_case "lead heal keeps the schedule" `Quick test_lead_heal_keeps_schedule;
          Alcotest.test_case "majority lead keeps the delay" `Quick test_majority_lead_keeps_delay;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "timeout is typed" `Quick test_protocol_timeout_is_typed;
          Alcotest.test_case "bounded delay ridden out" `Quick
            test_protocol_rides_out_bounded_delay;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "drop plan recovers" `Quick test_chaos_drop_recovers;
          Alcotest.test_case "crash-restart agreement" `Quick test_chaos_crash_restart_agreement;
          Alcotest.test_case "withholding worker" `Quick test_chaos_withholding_worker;
          Alcotest.test_case "timeout fallback payout" `Quick test_chaos_timeout_fallback_payout;
          Alcotest.test_case "trace replays" `Quick test_chaos_trace_replays;
          Alcotest.test_case "identical across domains" `Quick
            test_chaos_identical_across_domains;
          prop_bounded_plans_settle_or_typed_error;
        ] );
      ( "byzantine",
        [
          Alcotest.test_case "partition heal keeps canonical" `Quick test_chaos_partition_keep;
          Alcotest.test_case "partition heal adopts minority (reorg)" `Quick
            test_chaos_partition_reorg;
          Alcotest.test_case "byzantine miner reorders" `Quick test_chaos_byzantine_reorder;
          Alcotest.test_case "byzantine miner censors" `Quick test_chaos_byzantine_censor;
          Alcotest.test_case "byzantine sibling adopted" `Quick
            test_chaos_byzantine_fork_adopted;
          Alcotest.test_case "eclipsed worker released in time" `Quick
            test_chaos_eclipse_release;
          Alcotest.test_case "colluding minority unpaid" `Quick
            test_chaos_collusion_minority_unpaid;
          Alcotest.test_case "colluding majority flips the vote" `Quick
            test_chaos_collusion_majority_flips;
          prop_fee_order_keeps_nonce_lanes_under_faults;
        ] );
    ]
