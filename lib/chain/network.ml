module Sha256 = Zebra_hashing.Sha256
module Obs = Zebra_obs.Obs

exception Consensus_failure of string

(* Metrics (all no-ops until [Obs.set_enabled true]). *)
let m_submitted = Obs.Counter.make "chain.submitted"
let m_blocks = Obs.Counter.make "chain.blocks"
let m_txs = Obs.Counter.make "chain.txs"
let m_mempool_depth = Obs.Gauge.make "chain.mempool.depth"
let m_txs_per_block = Obs.Histogram.make "chain.mine.txs_per_block"

type node = {
  id : int;
  mutable state : State.t;
  mutable up : bool;
  mutable applied_height : int;  (** last block height executed on [state] *)
}

type mempool_fault = height:int -> Tx.t list -> Tx.t list * (int * Tx.t) list

type side = Majority | Minority

(* An active partition: the minority side mines its own branch off the last
   common block.  Both sides extend by one block per clock tick, so the two
   branches have equal length at heal time unless one side has the lead:
   on the first tick the minority then seals no block (majority lead) or
   two (minority lead).  Length decides, and only equal lengths fall to the
   tip-hash tie-break — chain height never moves backwards across a heal. *)
type partition_state = {
  p_minority : int list;  (* node ids on the minority side; never node 0 *)
  p_fork_height : int;  (* height of the last common block *)
  p_lead : side option;
  mutable p_chain : Block.t list;  (* minority branch, newest first *)
}

type t = {
  genesis : (Address.t * int) list;
  difficulty : int;
  nodes : node array;
  mutable mempool : Tx.t list; (* reversed arrival order *)
  mutable adversary : (Tx.t list -> Tx.t list) option;
  mutable fault : mempool_fault option;
  mutable delayed : (int * Tx.t) list; (* (release_height, tx), oldest first *)
  mutable block_hook : (height:int -> unit) option;
  mutable chain : Block.t list; (* newest first *)
  mutable partition : partition_state option;
  receipts : (string, State.receipt) Hashtbl.t;
  mutable logs : string list; (* reversed *)
}

let create ?(difficulty = 0) ~num_nodes ~genesis () =
  if num_nodes < 1 then invalid_arg "Network.create: need at least one node";
  if difficulty < 0 || difficulty > 32 then invalid_arg "Network.create: difficulty out of range";
  {
    genesis;
    difficulty;
    nodes =
      Array.init num_nodes (fun id ->
          { id; state = State.create ~genesis; up = true; applied_height = 0 });
    mempool = [];
    adversary = None;
    fault = None;
    delayed = [];
    block_hook = None;
    chain = [];
    partition = None;
    receipts = Hashtbl.create 64;
    logs = [];
  }

let num_nodes t = Array.length t.nodes
let difficulty t = t.difficulty

let height t = match t.chain with [] -> 0 | b :: _ -> b.Block.header.Block.height

type submit_error = Invalid_signature

let submit_error_to_string = function
  | Invalid_signature -> "invalid transaction signature"

let submit_r t tx =
  if not (Tx.validate tx) then Error Invalid_signature
  else begin
    t.mempool <- tx :: t.mempool;
    Obs.Counter.incr m_submitted;
    Obs.Gauge.set m_mempool_depth (float_of_int (List.length t.mempool));
    Ok ()
  end

let submit t tx =
  match submit_r t tx with
  | Ok () -> ()
  | Error e -> invalid_arg ("Network.submit: " ^ submit_error_to_string e)

let pending t = List.length t.mempool
let delayed t = List.length t.delayed

let set_adversary t f = t.adversary <- f
let set_mempool_fault t f = t.fault <- f
let set_block_hook t f = t.block_hook <- f

let tip_hash t = match t.chain with [] -> Block.genesis_hash | b :: _ -> Block.hash b

(* During a partition only the majority side serves reads and extends the
   canonical chain; minority nodes follow their own branch until the heal. *)
let in_minority t id =
  match t.partition with None -> false | Some p -> List.mem id p.p_minority

(* The first live replica: the node every read-only view answers from.
   [crash_node] refuses to take the last replica down and partitions keep
   node 0 on the majority side, so this is total. *)
let live_node t =
  let rec find i =
    if i >= Array.length t.nodes then
      raise (Consensus_failure "no live replica")
    else if t.nodes.(i).up && not (in_minority t i) then t.nodes.(i)
    else find (i + 1)
  in
  find 0

let node_up t i = t.nodes.(i).up

let node_state_root t i = State.root (t.nodes.(i).state)

let live_count t = Array.fold_left (fun acc n -> if n.up then acc + 1 else acc) 0 t.nodes

let crash_node t ~node =
  if node < 0 || node >= Array.length t.nodes then
    invalid_arg "Network.crash_node: no such node";
  let n = t.nodes.(node) in
  if n.up then begin
    if live_count t <= 1 then
      invalid_arg "Network.crash_node: cannot crash the last live replica";
    n.up <- false
  end

let blocks t = List.rev t.chain
let genesis t = t.genesis

let restart_node t ~node =
  if node < 0 || node >= Array.length t.nodes then
    invalid_arg "Network.restart_node: no such node";
  let n = t.nodes.(node) in
  if not n.up then begin
    (* Re-sync from peers: replay every block mined while the node was
       down.  Deterministic execution means the node must land on the
       canonical state root recorded in the tip header. *)
    List.iter
      (fun (b : Block.t) ->
        if b.Block.header.Block.height > n.applied_height then
          List.iter
            (fun tx ->
              ignore (State.apply_tx n.state ~height:b.Block.header.Block.height tx))
            b.Block.txs)
      (blocks t);
    n.applied_height <- height t;
    (match t.chain with
    | [] -> ()
    | tip :: _ ->
      if not (Bytes.equal (State.root n.state) tip.Block.header.Block.state_root) then
        raise
          (Consensus_failure
             (Printf.sprintf "node %d failed to resync: state root diverges at height %d"
                node (height t))));
    n.up <- true
  end

(* --- forks and partitions --- *)

let replay_fresh t =
  let fresh = State.create ~genesis:t.genesis in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun tx -> ignore (State.apply_tx fresh ~height:b.Block.header.Block.height tx))
        b.Block.txs)
    (blocks t);
  fresh

(* Re-derive everything that hangs off the canonical chain after a reorg:
   every node full-syncs by a fresh replay from genesis, and the receipts
   and logs are rebuilt from the new chain — first-wins per transaction
   hash, exactly as live mining records them. *)
let rebuild_from_chain t =
  Hashtbl.reset t.receipts;
  t.logs <- [];
  let reference = State.create ~genesis:t.genesis in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun tx ->
          let r = State.apply_tx reference ~height:b.Block.header.Block.height tx in
          let k = Sha256.to_hex r.State.tx_hash in
          if not (Hashtbl.mem t.receipts k) then Hashtbl.replace t.receipts k r;
          t.logs <- List.rev_append r.State.logs t.logs)
        b.Block.txs)
    (blocks t);
  (match t.chain with
  | [] -> ()
  | tip :: _ ->
    if not (Bytes.equal (State.root reference) tip.Block.header.Block.state_root) then
      raise (Consensus_failure "reorg replay diverges from the adopted tip root"));
  Array.iter
    (fun n ->
      n.state <- replay_fresh t;
      n.applied_height <- height t)
    t.nodes

let partition_active t = t.partition <> None

(* The minority extends its own (empty) branch — the mempool lives on the
   majority side.  Every live minority replica executes the block and all
   must land on one root. *)
let extend_minority t p =
  match Array.to_list t.nodes |> List.filter (fun n -> n.up && List.mem n.id p.p_minority) with
  | [] -> ()
  | nodes ->
    let h = p.p_fork_height + List.length p.p_chain + 1 in
    List.iter (fun node -> ignore (Exec.apply_block node.state ~height:h [])) nodes;
    let root = State.root (List.hd nodes).state in
    List.iter
      (fun node ->
        if not (Bytes.equal (State.root node.state) root) then
          raise (Consensus_failure (Printf.sprintf "minority branch diverges at height %d" h)))
      nodes;
    List.iter (fun node -> node.applied_height <- h) nodes;
    let prev_hash =
      match p.p_chain with
      | b :: _ -> Block.hash b
      | [] ->
        if p.p_fork_height = 0 then Block.genesis_hash
        else Block.hash (List.nth t.chain (height t - p.p_fork_height))
    in
    p.p_chain <-
      Block.make ~difficulty:t.difficulty ~height:h ~prev_hash ~state_root:root [] :: p.p_chain

let start_partition ?lead t ~minority =
  if t.partition <> None then invalid_arg "Network.start_partition: partition already active";
  let n = Array.length t.nodes in
  let minority = List.sort_uniq compare minority in
  if minority = [] then invalid_arg "Network.start_partition: empty minority";
  if List.mem 0 minority then
    invalid_arg "Network.start_partition: node 0 must stay on the majority side";
  List.iter
    (fun id -> if id < 0 || id >= n then invalid_arg "Network.start_partition: no such node")
    minority;
  if List.length minority >= n then invalid_arg "Network.start_partition: minority too large";
  t.partition <-
    Some { p_minority = minority; p_fork_height = height t; p_lead = lead; p_chain = [] }

type heal_report = { adopted_fork : bool; reorged_blocks : int; requeued_txs : int }

let rec split_at k l =
  if k = 0 then ([], l)
  else match l with [] -> ([], []) | x :: tl -> let a, b = split_at (k - 1) tl in (x :: a, b)

let heal_partition t =
  match t.partition with
  | None -> invalid_arg "Network.heal_partition: no active partition"
  | Some p ->
    t.partition <- None;
    let main_len = height t - p.p_fork_height in
    let fork_len = List.length p.p_chain in
    (* Fork choice: longest chain wins; equal lengths break the tie toward
       the lexicographically smaller tip hash. *)
    let adopt =
      fork_len > main_len
      || fork_len = main_len && fork_len > 0
         &&
         (match (p.p_chain, t.chain) with
         | fb :: _, mb :: _ -> Bytes.compare (Block.hash fb) (Block.hash mb) < 0
         | _ -> false)
    in
    if not adopt then begin
      (* Majority branch kept: minority nodes full-sync back onto it. *)
      Array.iter
        (fun node ->
          if List.mem node.id p.p_minority then begin
            node.state <- replay_fresh t;
            node.applied_height <- height t
          end)
        t.nodes;
      { adopted_fork = false; reorged_blocks = 0; requeued_txs = 0 }
    end
    else begin
      (* Fork choice picked the minority branch: the majority blocks above
         the fork point are orphaned.  Their transactions rejoin the front
         of the mempool in block order (minus any already on the adopted
         branch) so the next block re-mines them; receipts, logs and every
         node state are rebuilt from the adopted chain. *)
      let abandoned, common = split_at main_len t.chain in
      t.chain <- p.p_chain @ common;
      let on_adopted = Hashtbl.create 64 in
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun tx -> Hashtbl.replace on_adopted (Sha256.to_hex (Tx.hash tx)) ())
            b.Block.txs)
        p.p_chain;
      let orphaned =
        List.concat_map
          (fun (b : Block.t) ->
            List.filter
              (fun tx -> not (Hashtbl.mem on_adopted (Sha256.to_hex (Tx.hash tx))))
              b.Block.txs)
          (List.rev abandoned)
      in
      t.mempool <- t.mempool @ List.rev orphaned;
      rebuild_from_chain t;
      { adopted_fork = true; reorged_blocks = main_len; requeued_txs = List.length orphaned }
    end

(* A byzantine miner mines a conflicting sibling of the current tip (same
   parent, same height, permuted transactions).  Between two equal-length
   chains the fork choice is the lexicographically smaller tip hash, so
   the sibling is adopted — a one-block reorg — exactly when its hash
   sorts below the honest tip's.  The miner re-seals the sibling up to
   [sibling_reseals] times to get there: each seal is a fresh uniform hash,
   so it loses only to a tip hashing in about the lowest 2^-16 of the
   range.  [None] means there was nothing to fork (no tip, an active
   partition, or an identity permutation). *)
let sibling_reseals = 1 lsl 16

let fork_tip t ~permute =
  match t.chain with
  | [] -> None
  | _ when t.partition <> None -> None
  | tip :: rest ->
    let txs' = permute tip.Block.txs in
    let same =
      List.length txs' = List.length tip.Block.txs
      && List.for_all2 (fun a b -> Bytes.equal (Tx.hash a) (Tx.hash b)) txs' tip.Block.txs
    in
    if same then None
    else begin
      let st = State.create ~genesis:t.genesis in
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun tx -> ignore (State.apply_tx st ~height:b.Block.header.Block.height tx))
            b.Block.txs)
        (List.rev rest);
      let h = tip.Block.header.Block.height in
      List.iter (fun tx -> ignore (State.apply_tx st ~height:h tx)) txs';
      let beats b = Bytes.compare (Block.hash b) (Block.hash tip) < 0 in
      let rec reseal b tries =
        if beats b || tries = 0 then b
        else reseal (Block.reseal ~difficulty:t.difficulty b) (tries - 1)
      in
      let sibling =
        reseal
          (Block.make ~difficulty:t.difficulty ~height:h
             ~prev_hash:tip.Block.header.Block.prev_hash ~state_root:(State.root st) txs')
          sibling_reseals
      in
      if beats sibling then begin
        t.chain <- sibling :: rest;
        rebuild_from_chain t;
        Some true
      end
      else Some false
    end

type exec_result =
  | Applied of State.receipt
  | Conflict_retry of State.receipt
  | Rejected of string

(* Highest fee first, stable on arrival order; each sender's transactions
   are then re-slotted into that sender's positions in nonce order, so fee
   ordering can never wedge a sender behind its own later nonce.  The
   per-sender fixup touches only that sender's slots, so the result does
   not depend on hashtable iteration order. *)
let fee_order txs =
  match txs with
  | [] | [ _ ] -> txs
  | _ ->
    let arr = Array.of_list (List.stable_sort (fun a b -> compare b.Tx.fee a.Tx.fee) txs) in
    let by_sender = Hashtbl.create 8 in
    Array.iteri
      (fun i tx ->
        let k = Address.to_hex tx.Tx.sender in
        let prev = try Hashtbl.find by_sender k with Not_found -> [] in
        Hashtbl.replace by_sender k (i :: prev))
      arr;
    Hashtbl.iter
      (fun _ rev_positions ->
        match rev_positions with
        | [] | [ _ ] -> ()
        | _ ->
          let ps = List.rev rev_positions in
          let txs = List.map (fun i -> arr.(i)) ps in
          let txs = List.stable_sort (fun a b -> compare a.Tx.nonce b.Tx.nonce) txs in
          List.iter2 (fun i tx -> arr.(i) <- tx) ps txs)
      by_sender;
    Array.to_list arr

let mine_ext t =
  Obs.with_span "chain.mine" @@ fun () ->
  (* The block hook fires before the block forms so a fault controller can
     take a replica down (or bring one back) effective this very height.  A
     heal that adopts a longer branch moves the tip, so the hook fires
     again for each height it has not seen. *)
  (match t.block_hook with
  | None -> ()
  | Some f ->
    let rec fire h =
      f ~height:h;
      if height t + 1 > h then fire (height t + 1)
    in
    fire (height t + 1));
  let new_height = height t + 1 in
  let fifo = List.rev t.mempool in
  t.mempool <- [];
  Obs.Gauge.set m_mempool_depth 0.;
  (* Delayed transactions whose release height arrived rejoin ahead of the
     fresh mempool (they were broadcast earlier).  They do NOT pass through
     the fault pipeline again: a delay fault holds a transaction back
     exactly its k blocks — re-drawing the coin on release would turn the
     bounded delay into possible censorship. *)
  let released, still = List.partition (fun (h, _) -> h <= new_height) t.delayed in
  t.delayed <- still;
  (* The fault pipeline draws its decisions on the arrival-order (FIFO)
     candidates; the survivors are then fee-ordered.  Released delayed
     transactions go ahead of the fee-ordered fresh mempool, exempt from
     both re-drawn fault coins and fee competition — otherwise a high-fee
     flood could starve a delayed transaction indefinitely, turning the
     bounded delay into censorship. *)
  let scheduled =
    match t.fault with
    | None -> List.map snd released @ fee_order fifo
    | Some f ->
      let now, postponed = f ~height:new_height fifo in
      t.delayed <- t.delayed @ postponed;
      List.map snd released @ fee_order now
  in
  let ordered =
    match t.adversary with
    | None -> scheduled
    | Some f ->
      let out = f scheduled in
      (* A reordering adversary may also omit or duplicate transactions,
         but cannot censor under synchrony: anything it left out of this
         block stays pending for a later one. *)
      let kept = Hashtbl.create 16 in
      List.iter (fun tx -> Hashtbl.replace kept (Sha256.to_hex (Tx.hash tx)) ()) out;
      let omitted =
        List.filter (fun tx -> not (Hashtbl.mem kept (Sha256.to_hex (Tx.hash tx)))) scheduled
      in
      t.mempool <- List.rev omitted;
      out
  in
  let tagged = List.map (fun tx -> (tx, Tx.validate tx)) ordered in
  let valid = List.filter_map (fun (tx, ok) -> if ok then Some tx else None) tagged in
  Obs.Histogram.observe m_txs_per_block (float_of_int (List.length valid));
  Obs.Counter.add m_txs (List.length valid);
  (* During a partition only the majority side sees the mempool and mines
     the canonical-candidate branch; the minority side extends its own
     (empty) branch below.  Fork choice at heal time decides which one
     survives. *)
  let live = Array.to_list t.nodes |> List.filter (fun n -> n.up && not (in_minority t n.id)) in
  (* Every live node executes the block independently; receipts must agree.
     The exec span gets one sample per node per block, so its histogram is
     the distribution of per-node block execution time. *)
  let all_results =
    List.map
      (fun node ->
        Obs.with_span "chain.mine.exec" (fun () ->
            Exec.apply_block node.state ~height:new_height valid))
      live
  in
  let all_receipts = List.map (List.map fst) all_results in
  let block =
    Obs.with_span "chain.mine.consensus" @@ fun () ->
    let roots = List.map (fun node -> State.root node.state) live in
    let root0 = List.hd roots in
    List.iteri
      (fun i r ->
        if not (Bytes.equal r root0) then
          raise
            (Consensus_failure
               (Printf.sprintf "node %d state root diverges at height %d"
                  (List.nth live i).id new_height)))
      roots;
    let block =
      Block.make ~difficulty:t.difficulty ~height:new_height ~prev_hash:(tip_hash t)
        ~state_root:root0 valid
    in
    (match Block.validate ~difficulty:t.difficulty ~prev_hash:(tip_hash t) ~prev_height:(height t) block with
    | Ok () -> ()
    | Error e -> raise (Consensus_failure ("miner produced invalid block: " ^ e)));
    block
  in
  t.chain <- block :: t.chain;
  List.iter (fun n -> n.applied_height <- new_height) live;
  Obs.Counter.incr m_blocks;
  (* The partitioned minority mines one block per tick too — empty, since
     the mempool lives on the majority side — so both branches grow at the
     same rate.  A lead changes only the minority's first tick, so the
     canonical chain still grows one block per call. *)
  (match t.partition with
  | None -> ()
  | Some p -> (
    match p.p_lead with
    | Some Majority when new_height = p.p_fork_height + 1 -> ()
    | Some Minority when new_height = p.p_fork_height + 1 ->
      extend_minority t p;
      extend_minority t p
    | _ -> extend_minority t p));
  let rs = List.hd all_receipts in
  (* First-wins per transaction hash: a duplicated transaction (fault
     injection) re-executes and fails on nonce replay, but must not
     overwrite the canonical receipt of its first execution. *)
  List.iter
    (fun (r : State.receipt) ->
      let k = Sha256.to_hex r.State.tx_hash in
      if not (Hashtbl.mem t.receipts k) then Hashtbl.replace t.receipts k r;
      t.logs <- List.rev_append r.State.logs t.logs)
    rs;
  (* Classify in block-candidate order: invalid candidates become
     [Rejected], executed ones [Applied] or [Conflict_retry] (escaped the
     declared footprint and was re-run in the serial fallback). *)
  let rec classify tagged results =
    match (tagged, results) with
    | [], [] -> []
    | (_, false) :: tl, results -> Rejected "invalid signature" :: classify tl results
    | (_, true) :: tl, (r, retried) :: results ->
      (if retried then Conflict_retry r else Applied r) :: classify tl results
    | _ -> assert false
  in
  classify tagged (List.hd all_results)

let mine t =
  List.filter_map
    (function Applied r | Conflict_retry r -> Some r | Rejected _ -> None)
    (mine_ext t)

let mine_until t ~height:target =
  while height t < target do
    ignore (mine t)
  done

let node0 t = (live_node t).state

let balance t addr = State.balance (node0 t) addr
let nonce t addr = State.nonce (node0 t) addr
let contract_storage t addr = State.contract_storage (node0 t) addr
let is_contract t addr = State.is_contract (node0 t) addr

let receipt t tx_hash = Hashtbl.find_opt t.receipts (Sha256.to_hex tx_hash)

let total_supply t = State.total_supply (node0 t)

let all_logs t = List.rev t.logs

let state_root t = State.root (node0 t)

let replay t =
  let fresh = State.create ~genesis:t.genesis in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun tx -> ignore (State.apply_tx fresh ~height:b.Block.header.Block.height tx))
        b.Block.txs)
    (blocks t);
  State.root fresh
