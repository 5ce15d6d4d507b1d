open Zebralancer
module Network = Zebra_chain.Network
module Wallet = Zebra_chain.Wallet
module Address = Zebra_chain.Address
module Tx = Zebra_chain.Tx
module State = Zebra_chain.State
module Cpla = Zebra_anonauth.Cpla
module Ra = Zebra_anonauth.Ra
module Source = Zebra_rng.Source
module Sha256 = Zebra_hashing.Sha256

type shape = {
  workload : string;
  requesters : int;
  workers : int;
  n : int;
  depth : int;
  replicas : int;
  window : int;
}

type system = {
  shape : shape;
  sys : Protocol.system;
  requester_ids : Protocol.identity array;
  worker_ids : Protocol.identity array;
  circuit : Reward_circuit.t;
  supply0 : int;
}

let policy = Policy.Majority { choices = 4 }
let system_seed = "zbench/system"

(* Fee tiers as in [Load]: fundings first, then settlements, then
   deployments, then submissions. *)
let fee_funding = 3
let fee_instruct = 2
let fee_publish = 1

let network s = s.sys.Protocol.net
let faucet s = s.sys.Protocol.faucet

let boot shape =
  let sys =
    Trace.call "protocol.create_system" (fun () ->
        Protocol.create_system ~num_nodes:shape.replicas ~tree_depth:shape.depth
          ~seed:system_seed ())
  in
  let net = sys.Protocol.net in
  let enroll k =
    Array.init k (fun _ ->
        let key =
          Trace.call "cpla.keygen" (fun () ->
              Cpla.keygen_rng ~composition:(Cpla.composition sys.Protocol.cpla)
                ~rng:sys.Protocol.rng ())
        in
        let cert_index = Trace.call "ra.register" (fun () -> Ra.register sys.Protocol.ra key.Cpla.pk) in
        { Protocol.key; cert_index })
  in
  let requester_ids = enroll shape.requesters in
  let worker_ids = enroll shape.workers in
  let faucet = sys.Protocol.faucet in
  let root_tx =
    Trace.call "tx.make_ext" (fun () ->
        Tx.make_ext ~wallet:faucet ~fee:0 ~footprint:[]
          ~nonce:(Network.nonce net (Wallet.address faucet))
          ~dst:(Tx.Call sys.Protocol.ra_contract) ~value:0
          ~payload:(Ra_contract.set_root_msg (Ra.root sys.Protocol.ra)))
  in
  (match Trace.call "network.submit_r" (fun () -> Network.submit_r net root_tx) with
  | Ok () -> ()
  | Error e -> failwith ("RA root update refused: " ^ Network.submit_error_to_string e));
  ignore (Trace.call "network.mine_ext" (fun () -> Network.mine_ext net));
  (match Network.receipt net (Tx.hash root_tx) with
  | Some { State.status = State.Ok _; _ } -> ()
  | _ -> failwith "RA root update failed");
  let circuit =
    Trace.call "reward_circuit.setup_cached" (fun () ->
        Reward_circuit.setup_cached sys.Protocol.keycache
          ~seed:(sys.Protocol.setup_seed ^ "/reward-circuit")
          ~policy ~n:shape.n)
  in
  { shape; sys; requester_ids; worker_ids; circuit; supply0 = Network.total_supply net }

let replicas_agree s =
  let net = network s in
  let root0 = Network.node_state_root net 0 in
  let ok = ref true in
  for i = 1 to Network.num_nodes net - 1 do
    if not (Bytes.equal (Network.node_state_root net i) root0) then ok := false
  done;
  !ok

let supply_conserved s = Network.total_supply (network s) = s.supply0

(* --- seeded marketplace inputs --- *)

let rand_int src bound =
  let b = Source.bytes src 4 in
  (Bytes.get_uint16_le b 0 lor (Bytes.get_uint16_le b 2 lsl 16)) mod bound

(* [k] distinct indices below [m]: a partial Fisher-Yates shuffle. *)
let pick src ~k m =
  let a = Array.init m Fun.id in
  for i = 0 to k - 1 do
    let j = i + rand_int src (m - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 k

type stage =
  | Ready
  | Wait_fund of Wallet.t * Tx.t
  | Wait_publish of Requester.task * Tx.t
  | Wait_answers of Requester.task * Tx.t list
  | Wait_instruct of Tx.t
  | Settled
  | Failed

type task = {
  index : int;
  requester : Protocol.identity;
  crew : (Protocol.identity * int) array;  (* worker, answer *)
  budget : int;
  mutable stage : stage;
  mutable fund_ns : int64;
  mutable fund_height : int;
  mutable own_s : float;
  mutable wallet_s : float;
}

type task_report = {
  index : int;
  settle_s : float;
  settle_blocks : int;
  own_s : float;
  fund_block : int;
  reward_block : int;
}

type report = {
  settled : task_report list;
  settle_times_s : float list;
  failed_tasks : (int * string) list;
  broadcasts : int;
  rejected_broadcasts : int;
  rejected_exec : int;
  failed_receipts : int;
  conflict_retries : int;
  loop_s : float;
  submit_s : (int * float) array;
  publish_s : (int * float) array;
  instruct_s : (int * float) array;
  pending : float array;
  txs_per_block : float array;
  tx_kinds : (string, string) Hashtbl.t;
}

let run s ~seed ~tasks ?admit ?per_round ?(before_mine = ignore) () =
  let shape = s.shape in
  let sys = s.sys in
  let net = sys.Protocol.net in
  let rb = Protocol.random_bytes sys in
  let inputs = Source.of_seed (Printf.sprintf "zbench/%s/inputs/%s" shape.workload seed) in
  let new_task index =
    let requester = s.requester_ids.(rand_int inputs shape.requesters) in
    let crew =
      Array.map
        (fun w -> (s.worker_ids.(w), rand_int inputs 4))
        (pick inputs ~k:shape.n shape.workers)
    in
    {
      index;
      requester;
      crew;
      budget = 40 + rand_int inputs 41;
      stage = Ready;
      fund_ns = 0L;
      fund_height = 0;
      own_s = 0.;
      wallet_s = 0.;
    }
  in
  let faucet_addr = Wallet.address sys.Protocol.faucet in
  let faucet_nonce = ref (Network.nonce net faucet_addr) in
  let active = ref [] (* in admission order *) and next_index = ref 0 in
  let settled = ref [] and settle_times = ref [] and failed = ref [] in
  let broadcasts = ref 0 and rejected_broadcasts = ref 0 and rejected_exec = ref 0 in
  let failed_receipts = ref 0 and conflicts = ref 0 in
  let submit_s = ref [] and publish_s = ref [] and instruct_s = ref [] in
  let pending = ref [] and txs_per_block = ref [] in
  let kinds = Hashtbl.create 256 in
  let t0 = Trace.now_ns () in
  (* Every call made on a task's behalf is charged to it. *)
  let task_call (st : task) name f =
    let r, dt = Trace.timed ~id:st.index name f in
    st.own_s <- st.own_s +. dt;
    (r, dt)
  in
  let fail (st : task) reason =
    st.stage <- Failed;
    failed := (st.index, reason) :: !failed
  in
  let broadcast st kind tx =
    incr broadcasts;
    Hashtbl.replace kinds (Sha256.to_hex (Tx.hash tx)) kind;
    match fst (task_call st "network.submit_r" (fun () -> Network.submit_r net tx)) with
    | Ok () -> true
    | Error e ->
      incr rejected_broadcasts;
      fail st ("broadcast refused: " ^ Network.submit_error_to_string e);
      false
  in
  let receipt st tx = fst (task_call st "network.receipt" (fun () -> Network.receipt net (Tx.hash tx))) in
  let start (st : task) =
    let wallet, dt = task_call st "wallet.generate" (fun () -> Wallet.generate ~random_bytes:rb ()) in
    st.wallet_s <- dt;
    let tx, _ =
      task_call st "tx.make_ext" (fun () ->
          Tx.make_ext ~wallet:sys.Protocol.faucet ~fee:fee_funding ~footprint:[]
            ~nonce:!faucet_nonce
            ~dst:(Tx.Call (Wallet.address wallet))
            ~value:(st.budget + 1) ~payload:Bytes.empty)
    in
    incr faucet_nonce;
    if broadcast st "fund" tx then begin
      st.fund_ns <- Trace.now_ns ();
      st.fund_height <- Network.height net;
      st.stage <- Wait_fund (wallet, tx)
    end
  in
  let publish (st : task) wallet =
    let id = st.requester in
    let height = Network.height net in
    let ra_path, _ = task_call st "ra.path" (fun () -> Ra.path sys.Protocol.ra id.Protocol.cert_index) in
    let (task, tx), dt =
      task_call st "requester.create_task" (fun () ->
          Requester.create_task ~circuit:s.circuit ~fee:fee_publish ~random_bytes:rb
            ~cpla:sys.Protocol.cpla ~key:id.Protocol.key ~cert_index:id.Protocol.cert_index
            ~ra_path ~ra_root:(Ra.root sys.Protocol.ra) ~wallet ~nonce:0 ~policy ~n:shape.n
            ~budget:st.budget ~answer_deadline:(height + 20) ~instruct_deadline:(height + 60) ())
    in
    publish_s := (st.index, st.wallet_s +. dt) :: !publish_s;
    if broadcast st "publish" tx then st.stage <- Wait_publish (task, tx)
  in
  let submit_answers (st : task) (task : Requester.task) =
    let contract = task.Requester.contract in
    let storage, _ = task_call st "protocol.task_storage" (fun () -> Protocol.task_storage sys contract) in
    let txs =
      Array.to_list st.crew
      |> List.map (fun ((id : Protocol.identity), answer) ->
             let tx, dt =
               task_call st "bench.submit" (fun () ->
                   let wallet = Trace.call ~id:st.index "wallet.generate" (fun () -> Wallet.generate ~random_bytes:rb ()) in
                   let ra_path = Trace.call ~id:st.index "ra.path" (fun () -> Ra.path sys.Protocol.ra id.Protocol.cert_index) in
                   Trace.call ~id:st.index "worker.submit_tx" (fun () ->
                       Worker.submit_tx ~random_bytes:rb ~cpla:sys.Protocol.cpla ~storage ~contract
                         ~wallet ~key:id.Protocol.key ~cert_index:id.Protocol.cert_index ~ra_path
                         ~answer ~nonce:0))
             in
             submit_s := (st.index, dt) :: !submit_s;
             tx)
    in
    if List.for_all (broadcast st "submit") txs then st.stage <- Wait_answers (task, txs)
  in
  let instruct (st : task) (task : Requester.task) =
    let storage, _ =
      task_call st "protocol.task_storage" (fun () ->
          Protocol.task_storage sys task.Requester.contract)
    in
    let (_rewards, tx), dt =
      task_call st "requester.instruct" (fun () ->
          Requester.instruct ~fee:fee_instruct ~random_bytes:rb task ~storage
            ~nonce:(Network.nonce net (Wallet.address task.Requester.wallet)))
    in
    instruct_s := (st.index, dt) :: !instruct_s;
    if broadcast st "instruct" tx then st.stage <- Wait_instruct tx
  in
  (* One receipt gates each stage; on this fault-free network a missing
     receipt after its block is a failure, not something to wait out. *)
  let landed st what tx k =
    match receipt st tx with
    | Some { State.status = State.Ok created; _ } -> k created
    | Some { State.status = State.Failed e; _ } ->
      incr failed_receipts;
      fail st (what ^ " failed: " ^ e)
    | None -> fail st (what ^ " not mined")
  in
  let advance (st : task) =
    match st.stage with
    | Ready | Settled | Failed -> ()
    | Wait_fund (wallet, tx) -> landed st "funding" tx (fun _ -> publish st wallet)
    | Wait_publish (task, tx) ->
      landed st "publish" tx (fun created ->
          match created with
          | Some a when Address.equal a task.Requester.contract -> submit_answers st task
          | _ -> fail st "publish: contract address mismatch")
    | Wait_answers (task, txs) ->
      let rec all = function
        | [] -> instruct st task
        | tx :: rest -> landed st "submission" tx (fun _ -> all rest)
      in
      all txs
    | Wait_instruct tx ->
      landed st "instruct" tx (fun _ ->
          let settle_s = Trace.seconds_since st.fund_ns in
          let height = Network.height net in
          st.stage <- Settled;
          settle_times := Trace.seconds_since t0 :: !settle_times;
          settled :=
            {
              index = st.index;
              settle_s;
              settle_blocks = height - st.fund_height;
              own_s = st.own_s;
              fund_block = st.fund_height + 1;
              reward_block = height;
            }
            :: !settled)
  in
  let admission_open () = match admit with Some k -> !next_index < k | None -> true in
  let done_tasks () = List.length !settled + List.length !failed in
  Trace.call "bench.loop" (fun () ->
      while done_tasks () < tasks && (admission_open () || !active <> []) do
        (* As [Load.run]: admit tasks until the window is full, here at
           most [per_round] a round. *)
        let admitted = ref 0 in
        let round_open () = match per_round with Some k -> !admitted < k | None -> true in
        while admission_open () && round_open () && List.length !active < shape.window do
          incr admitted;
          let st = new_task !next_index in
          incr next_index;
          active := !active @ [ st ];
          start st
        done;
        before_mine ();
        pending := float_of_int (Network.pending net) :: !pending;
        let results = Trace.call "network.mine_ext" (fun () -> Network.mine_ext net) in
        txs_per_block := float_of_int (List.length results) :: !txs_per_block;
        List.iter
          (function
            | Network.Conflict_retry _ -> incr conflicts
            | Network.Rejected _ -> incr rejected_exec
            | Network.Applied _ -> ())
          results;
        (* Oldest first; once the last counted task is done, the rest of
           the round would be work on tasks that are abandoned anyway. *)
        List.iter (fun st -> if done_tasks () < tasks then advance st) !active;
        active := List.filter (fun (st : task) -> st.stage <> Settled && st.stage <> Failed) !active
      done);
  let arr l = Array.of_list (List.rev l) in
  {
    settled = List.rev !settled;
    settle_times_s = List.rev !settle_times;
    failed_tasks = List.rev !failed;
    broadcasts = !broadcasts;
    rejected_broadcasts = !rejected_broadcasts;
    rejected_exec = !rejected_exec;
    failed_receipts = !failed_receipts;
    conflict_retries = !conflicts;
    loop_s = Trace.seconds_since t0;
    submit_s = arr !submit_s;
    publish_s = arr !publish_s;
    instruct_s = arr !instruct_s;
    pending = arr !pending;
    txs_per_block = arr !txs_per_block;
    tx_kinds = kinds;
  }
