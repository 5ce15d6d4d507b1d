module Chacha20 = Zebra_rng.Chacha20
module Sha256 = Zebra_hashing.Sha256
module Network = Zebra_chain.Network
module Tx = Zebra_chain.Tx
module Address = Zebra_chain.Address
module Store = Zebra_store.Store
module Obs = Zebra_obs.Obs

(* Metrics (inert until [Obs.set_enabled true]). *)
let m_dropped = Obs.Counter.make "faults.mempool.dropped"
let m_delayed = Obs.Counter.make "faults.mempool.delayed"
let m_duplicated = Obs.Counter.make "faults.mempool.duplicated"
let m_reordered = Obs.Counter.make "faults.mempool.reordered"
let m_crashes = Obs.Counter.make "faults.node.crashes"
let m_restarts = Obs.Counter.make "faults.node.restarts"
let m_lost = Obs.Counter.make "faults.store.lost"
let m_corrupted = Obs.Counter.make "faults.store.corrupted"
let m_partitions = Obs.Counter.make "faults.net.partitions"
let m_byz_reordered = Obs.Counter.make "faults.byz.reordered"
let m_byz_censored = Obs.Counter.make "faults.byz.censored"
let m_byz_forks = Obs.Counter.make "faults.byz.forks_adopted"
let m_eclipsed = Obs.Counter.make "faults.eclipse.held"

type crash_window = { node : int; from_height : int; to_height : int }

type partition_window = {
  p_majority : int;
  p_minority : int;
  p_from : int;
  p_to : int;
  p_lead : Network.side option;
}

let side_to_string = function Network.Majority -> "majority" | Network.Minority -> "minority"

type byz_mode = Byz_reorder | Byz_censor | Byz_fork

let byz_mode_to_string = function
  | Byz_reorder -> "reorder"
  | Byz_censor -> "censor"
  | Byz_fork -> "fork"

type eclipse_window = { victim : int; e_from : int; e_to : int }

type spec = {
  drop : float;
  delay : float;
  delay_blocks : int;
  duplicate : float;
  reorder : float;
  store_lose : float;
  store_corrupt : float;
  crashes : crash_window list;
  partitions : partition_window list;
  byzmine : (int * byz_mode) option;
  eclipses : eclipse_window list;
  collude : int;
  withhold_worker : bool;
  no_instruction : bool;
}

let none =
  {
    drop = 0.;
    delay = 0.;
    delay_blocks = 2;
    duplicate = 0.;
    reorder = 0.;
    store_lose = 0.;
    store_corrupt = 0.;
    crashes = [];
    partitions = [];
    byzmine = None;
    eclipses = [];
    collude = 0;
    withhold_worker = false;
    no_instruction = false;
  }

let check_spec s =
  let prob name p =
    if not (p >= 0. && p <= 1.) then
      invalid_arg (Printf.sprintf "Faults: %s=%g is not a probability" name p)
  in
  prob "drop" s.drop;
  prob "delay" s.delay;
  prob "dup" s.duplicate;
  prob "reorder" s.reorder;
  prob "lose" s.store_lose;
  prob "corrupt" s.store_corrupt;
  if s.delay_blocks < 1 then invalid_arg "Faults: delay needs k >= 1 blocks";
  List.iter
    (fun { node; from_height; to_height } ->
      if node < 0 then invalid_arg "Faults: crash node must be >= 0";
      if from_height < 1 || to_height < from_height then
        invalid_arg "Faults: crash range must be 1 <= from <= to")
    s.crashes;
  List.iter
    (fun { p_majority; p_minority; p_from; p_to; _ } ->
      if p_majority < 1 || p_minority < 1 then
        invalid_arg "Faults: partition sides must each have >= 1 node";
      if p_from < 1 || p_to < p_from then
        invalid_arg "Faults: partition range must be 1 <= from <= to")
    s.partitions;
  (* A partition rewires the replica topology wholesale; overlapping it
     with another partition or a crash window would make the heal-time
     replay semantics ambiguous, so the plan must keep them disjoint. *)
  let rec pairwise = function
    | [] | [ _ ] -> ()
    | p :: rest ->
      List.iter
        (fun q ->
          if p.p_from <= q.p_to && q.p_from <= p.p_to then
            invalid_arg "Faults: partition windows must not overlap")
        rest;
      pairwise rest
  in
  pairwise s.partitions;
  List.iter
    (fun p ->
      List.iter
        (fun (c : crash_window) ->
          if p.p_from <= c.to_height + 1 && c.from_height <= p.p_to + 1 then
            invalid_arg "Faults: partition and crash windows must not overlap")
        s.crashes)
    s.partitions;
  (match s.byzmine with
  | Some (node, _) when node < 0 -> invalid_arg "Faults: byzmine node must be >= 0"
  | _ -> ());
  List.iter
    (fun { victim; e_from; e_to } ->
      if victim < 0 then invalid_arg "Faults: eclipse victim must be >= 0";
      if e_from < 1 || e_to < e_from then
        invalid_arg "Faults: eclipse range must be 1 <= from <= to")
    s.eclipses;
  if s.collude < 0 then invalid_arg "Faults: collude count must be >= 0";
  s

(* --- plan DSL ---

   A plan is a comma-separated list of clauses:
     drop=P | delay=P:K | dup=P | reorder=P | lose=P | corrupt=P
     | crash=NODE:FROM-TO | partition=A|B:FROM-TO[:LEAD] | byzmine=NODE:MODE
     | eclipse=WORKER:FROM-TO | collude=K | withhold | noinstruct
   and the empty plan spells "none".  [spec_to_string] renders the
   canonical form, so (seed, plan) is a complete, printable repro. *)

let spec_of_string str =
  let str = String.trim str in
  if str = "" || str = "none" then none
  else
    let parse_float what v =
      match float_of_string_opt v with
      | Some f -> f
      | None -> invalid_arg (Printf.sprintf "Faults: bad %s value %S" what v)
    in
    let parse_int what v =
      match int_of_string_opt v with
      | Some i -> i
      | None -> invalid_arg (Printf.sprintf "Faults: bad %s value %S" what v)
    in
    let clause acc item =
      match String.index_opt item '=' with
      | None -> (
        match item with
        | "withhold" -> { acc with withhold_worker = true }
        | "noinstruct" -> { acc with no_instruction = true }
        | other -> invalid_arg (Printf.sprintf "Faults: unknown plan clause %S" other))
      | Some i -> (
        let k = String.sub item 0 i in
        let v = String.sub item (i + 1) (String.length item - i - 1) in
        match k with
        | "drop" -> { acc with drop = parse_float k v }
        | "dup" -> { acc with duplicate = parse_float k v }
        | "reorder" -> { acc with reorder = parse_float k v }
        | "lose" -> { acc with store_lose = parse_float k v }
        | "corrupt" -> { acc with store_corrupt = parse_float k v }
        | "delay" -> (
          match String.split_on_char ':' v with
          | [ p ] -> { acc with delay = parse_float k p }
          | [ p; blocks ] ->
            { acc with delay = parse_float k p; delay_blocks = parse_int "delay blocks" blocks }
          | _ -> invalid_arg (Printf.sprintf "Faults: bad delay clause %S" item))
        | "crash" -> (
          match String.split_on_char ':' v with
          | [ node; range ] -> (
            match String.split_on_char '-' range with
            | [ f; t ] ->
              let w =
                {
                  node = parse_int "crash node" node;
                  from_height = parse_int "crash from" f;
                  to_height = parse_int "crash to" t;
                }
              in
              { acc with crashes = acc.crashes @ [ w ] }
            | _ -> invalid_arg (Printf.sprintf "Faults: bad crash range %S" range))
          | _ -> invalid_arg (Printf.sprintf "Faults: bad crash clause %S (want crash=NODE:FROM-TO)" item))
        | "partition" -> (
          let bad () =
            invalid_arg
              (Printf.sprintf
                 "Faults: bad partition clause %S (want partition=A|B:FROM-TO[:majority|minority])"
                 item)
          in
          let window sides range p_lead =
            match (String.split_on_char '|' sides, String.split_on_char '-' range) with
            | [ a; b ], [ f; t ] ->
              {
                p_majority = parse_int "partition majority" a;
                p_minority = parse_int "partition minority" b;
                p_from = parse_int "partition from" f;
                p_to = parse_int "partition to" t;
                p_lead;
              }
            | _ -> bad ()
          in
          let w =
            match String.split_on_char ':' v with
            | [ sides; range ] -> window sides range None
            | [ sides; range; "majority" ] -> window sides range (Some Network.Majority)
            | [ sides; range; "minority" ] -> window sides range (Some Network.Minority)
            | _ -> bad ()
          in
          { acc with partitions = acc.partitions @ [ w ] })
        | "byzmine" -> (
          match String.split_on_char ':' v with
          | [ node; mode ] ->
            let mode =
              match mode with
              | "reorder" -> Byz_reorder
              | "censor" -> Byz_censor
              | "fork" -> Byz_fork
              | m -> invalid_arg (Printf.sprintf "Faults: unknown byzmine mode %S" m)
            in
            if acc.byzmine <> None then invalid_arg "Faults: at most one byzmine clause per plan";
            { acc with byzmine = Some (parse_int "byzmine node" node, mode) }
          | _ ->
            invalid_arg
              (Printf.sprintf "Faults: bad byzmine clause %S (want byzmine=NODE:reorder|censor|fork)"
                 item))
        | "eclipse" -> (
          match String.split_on_char ':' v with
          | [ victim; range ] -> (
            match String.split_on_char '-' range with
            | [ f; t ] ->
              let w =
                {
                  victim = parse_int "eclipse victim" victim;
                  e_from = parse_int "eclipse from" f;
                  e_to = parse_int "eclipse to" t;
                }
              in
              { acc with eclipses = acc.eclipses @ [ w ] }
            | _ -> invalid_arg (Printf.sprintf "Faults: bad eclipse range %S" range))
          | _ ->
            invalid_arg
              (Printf.sprintf "Faults: bad eclipse clause %S (want eclipse=WORKER:FROM-TO)" item))
        | "collude" -> { acc with collude = parse_int "collude" v }
        | other -> invalid_arg (Printf.sprintf "Faults: unknown plan clause %S" other))
    in
    check_spec
      (List.fold_left clause none
         (List.filter (fun s -> s <> "") (List.map String.trim (String.split_on_char ',' str))))

let spec_to_string s =
  let parts = ref [] in
  let add p = parts := p :: !parts in
  if s.drop > 0. then add (Printf.sprintf "drop=%g" s.drop);
  if s.delay > 0. then add (Printf.sprintf "delay=%g:%d" s.delay s.delay_blocks);
  if s.duplicate > 0. then add (Printf.sprintf "dup=%g" s.duplicate);
  if s.reorder > 0. then add (Printf.sprintf "reorder=%g" s.reorder);
  if s.store_lose > 0. then add (Printf.sprintf "lose=%g" s.store_lose);
  if s.store_corrupt > 0. then add (Printf.sprintf "corrupt=%g" s.store_corrupt);
  List.iter
    (fun { node; from_height; to_height } ->
      add (Printf.sprintf "crash=%d:%d-%d" node from_height to_height))
    s.crashes;
  List.iter
    (fun { p_majority; p_minority; p_from; p_to; p_lead } ->
      add
        (Printf.sprintf "partition=%d|%d:%d-%d%s" p_majority p_minority p_from p_to
           (match p_lead with None -> "" | Some side -> ":" ^ side_to_string side)))
    s.partitions;
  (match s.byzmine with
  | None -> ()
  | Some (node, mode) -> add (Printf.sprintf "byzmine=%d:%s" node (byz_mode_to_string mode)));
  List.iter
    (fun { victim; e_from; e_to } -> add (Printf.sprintf "eclipse=%d:%d-%d" victim e_from e_to))
    s.eclipses;
  if s.collude > 0 then add (Printf.sprintf "collude=%d" s.collude);
  if s.withhold_worker then add "withhold";
  if s.no_instruction then add "noinstruct";
  match List.rev !parts with [] -> "none" | ps -> String.concat "," ps

(* --- the controller --- *)

type t = {
  spec : spec;
  key : bytes;  (* 32-byte ChaCha20 key derived from the seed *)
  mutable trace : string list;  (* newest first *)
  mutable store_ops : int;  (* occurrence index for store-fetch decisions *)
  mutable cur_height : int;  (* height being mined; set by the block hook *)
  mutable eclipsed : (string * int) list;  (* sender hex -> eclipse victim index *)
}

let create ~seed spec =
  ignore (check_spec spec);
  {
    spec;
    key = Sha256.digest (Bytes.of_string seed);
    trace = [];
    store_ops = 0;
    cur_height = 0;
    eclipsed = [];
  }

let set_eclipsed t ~victim ~sender_hex = t.eclipsed <- (sender_hex, victim) :: t.eclipsed

let spec t = t.spec

let trace t = List.rev t.trace

let record t fmt = Printf.ksprintf (fun line -> t.trace <- line :: t.trace) fmt

(* --- the schedule ---

   Every decision is one ChaCha20 block keyed by the seed, with the nonce
   naming the decision site and its coordinates (block height and index
   within the block for mempool faults; an occurrence index for store
   fetches).  Decisions are therefore a pure function of
   (seed, site, height, index): order-independent, replayable from the
   (seed, plan) pair alone, and — because no decision ever reads the
   protocol's RNG stream or the domain pool — invariant under
   ZEBRA_DOMAINS (the same rule PR 2 imposes on the prover's RNG). *)

let site_drop = 1l
and site_delay = 2l
and site_dup = 3l
and site_reorder = 4l
and site_shuffle = 5l
and site_store_lose = 6l
and site_store_corrupt = 7l
and site_byz_reorder = 9l
and site_byz_censor = 10l
and site_byz_fork = 11l
and site_byz_shuffle = 12l

let unit_float t ~site ~a ~b =
  let nonce = Bytes.create 12 in
  Bytes.set_int32_be nonce 0 site;
  Bytes.set_int32_be nonce 4 (Int32.of_int a);
  Bytes.set_int32_be nonce 8 (Int32.of_int b);
  let block = Chacha20.block ~key:t.key ~counter:0l ~nonce in
  (* top 53 bits of the first 8 bytes -> uniform in [0, 1) *)
  let u = Bytes.get_int64_be block 0 in
  Int64.to_float (Int64.shift_right_logical u 11) /. 9007199254740992.

let rand_below t ~site ~a ~b bound =
  int_of_float (unit_float t ~site ~a ~b *. float_of_int bound)

let short_hash tx = String.sub (Sha256.to_hex (Tx.hash tx)) 0 8

(* Deterministic Fisher-Yates keyed on (site, height, position). *)
let shuffle_at t ~site ~height txs =
  let a = Array.of_list txs in
  for i = Array.length a - 1 downto 1 do
    let j = rand_below t ~site ~a:height ~b:i (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let shuffle t ~height txs = shuffle_at t ~site:site_shuffle ~height txs

(* The height (inclusive) until which an eclipsed sender's traffic is held,
   or [None] if the sender is not eclipsed at this height. *)
let eclipse_until t ~height sender_hex =
  match List.assoc_opt sender_hex t.eclipsed with
  | None -> None
  | Some victim ->
    List.find_map
      (fun { victim = v; e_from; e_to } ->
        if v = victim && height >= e_from && height <= e_to then Some e_to else None)
      t.spec.eclipses

(* The mempool pipeline: per transaction, at most one of drop / delay /
   duplicate fires (in that precedence), then the surviving block order may
   be shuffled as a whole. *)
let pipeline t ~height txs =
  let now = ref [] and postponed = ref [] in
  List.iteri
    (fun i tx ->
      match eclipse_until t ~height (Address.to_hex tx.Tx.sender) with
      | Some until ->
        (* Eclipse: the adversary controls all of the victim's links, so
           every transaction the victim broadcasts during the window is
           held until the eclipse lifts — a deterministic total hold, no
           coin.  Release goes through the delay-exemption path, so under
           synchrony the victim is delayed, never censored. *)
        Obs.Counter.incr m_eclipsed;
        record t "h=%d eclipse.hold tx=%s until=%d" height (short_hash tx) (until + 1);
        postponed := (until + 1, tx) :: !postponed
      | None ->
      if t.spec.drop > 0. && unit_float t ~site:site_drop ~a:height ~b:i < t.spec.drop
      then begin
        Obs.Counter.incr m_dropped;
        record t "h=%d mempool.drop tx=%s" height (short_hash tx)
      end
      else if
        t.spec.delay > 0. && unit_float t ~site:site_delay ~a:height ~b:i < t.spec.delay
      then begin
        let release = height + t.spec.delay_blocks in
        Obs.Counter.incr m_delayed;
        record t "h=%d mempool.delay tx=%s until=%d" height (short_hash tx) release;
        postponed := (release, tx) :: !postponed
      end
      else begin
        now := tx :: !now;
        if
          t.spec.duplicate > 0.
          && unit_float t ~site:site_dup ~a:height ~b:i < t.spec.duplicate
        then begin
          Obs.Counter.incr m_duplicated;
          record t "h=%d mempool.dup tx=%s" height (short_hash tx);
          now := tx :: !now
        end
      end)
    txs;
  let now = List.rev !now in
  let now =
    if
      t.spec.reorder > 0.
      && List.length now > 1
      && unit_float t ~site:site_reorder ~a:height ~b:0 < t.spec.reorder
    then begin
      Obs.Counter.incr m_reordered;
      record t "h=%d mempool.reorder n=%d" height (List.length now);
      shuffle t ~height now
    end
    else now
  in
  (now, List.rev !postponed)

let record_heal t ~height ~suffix (r : Network.heal_report) =
  if r.Network.adopted_fork then
    record t "h=%d partition.heal fork adopted: reorged %d block(s), requeued %d tx(s)%s" height
      r.Network.reorged_blocks r.Network.requeued_txs suffix
  else record t "h=%d partition.heal canonical chain kept%s" height suffix

(* The partition, crash and byzantine-fork schedules, driven off the
   network's block clock.  A crash window [from-to] means the node misses
   exactly blocks from..to and re-syncs before block to+1 forms; a
   partition window splits the replicas over the same heights and runs the
   fork choice at to+1. *)
let on_block t net ~height =
  t.cur_height <- height;
  List.iter
    (fun { p_majority; p_minority; p_from; p_to; p_lead } ->
      if height = p_from then begin
        let n = Network.num_nodes net in
        if p_majority + p_minority <> n then
          record t "h=%d partition.start refused (%d|%d does not cover %d nodes)" height
            p_majority p_minority n
        else begin
          (* The minority side is always the last [p_minority] replica ids,
             so node 0 (the canonical read replica) stays on the majority
             side and the split is a pure function of the plan. *)
          let minority = List.init p_minority (fun i -> n - p_minority + i) in
          match Network.start_partition ?lead:p_lead net ~minority with
          | () ->
            Obs.Counter.incr m_partitions;
            record t "h=%d partition.start majority=%d minority=%d until=%d%s" height p_majority
              p_minority p_to
              (match p_lead with None -> "" | Some side -> " lead=" ^ side_to_string side)
          | exception Invalid_argument why ->
            record t "h=%d partition.start refused (%s)" height why
        end
      end
      else if height = p_to + 1 && Network.partition_active net then
        record_heal t ~height ~suffix:"" (Network.heal_partition net))
    t.spec.partitions;
  List.iter
    (fun { node; from_height; to_height } ->
      if height = from_height then begin
        match Network.crash_node net ~node with
        | () ->
          Obs.Counter.incr m_crashes;
          record t "h=%d node.crash node=%d until=%d" height node to_height
        | exception Invalid_argument why ->
          record t "h=%d node.crash node=%d refused (%s)" height node why
      end
      else if height = to_height + 1 then begin
        match Network.restart_node net ~node with
        | () ->
          Obs.Counter.incr m_restarts;
          record t "h=%d node.restart node=%d resync=ok" height node
        | exception Network.Consensus_failure why ->
          record t "h=%d node.restart node=%d resync=FAILED (%s)" height node why;
          raise (Network.Consensus_failure why)
      end)
    t.spec.crashes;
  match t.spec.byzmine with
  | Some (node, Byz_fork)
    when (not (Network.partition_active net))
         && unit_float t ~site:site_byz_fork ~a:height ~b:0 < 0.25 -> (
    (* The byzantine miner mines a conflicting sibling of the tip with its
       transactions shuffled and re-seals it until it hashes below the tip,
       so the fork choice adopts it. *)
    match
      Network.fork_tip net ~permute:(fun txs -> shuffle_at t ~site:site_byz_shuffle ~height txs)
    with
    | None -> ()
    | Some true ->
      Obs.Counter.incr m_byz_forks;
      record t "h=%d byzmine.fork node=%d sibling adopted (reorg depth 1)" height node
    | Some false -> record t "h=%d byzmine.fork node=%d sibling rejected (fork-choice)" height node)
  | _ -> ()

let byz_adversary t node mode txs =
  let height = t.cur_height in
  match mode with
  | Byz_fork -> txs
  | Byz_reorder ->
    if List.length txs > 1 && unit_float t ~site:site_byz_reorder ~a:height ~b:0 < 0.5 then begin
      Obs.Counter.incr m_byz_reordered;
      record t "h=%d byzmine.reorder node=%d n=%d" height node (List.length txs);
      shuffle_at t ~site:site_byz_shuffle ~height txs
    end
    else txs
  | Byz_censor ->
    (* Omit a transaction from this block with probability 0.3 per slot.
       The network requeues whatever the adversary leaves out, so under
       synchrony this is bounded delay, not censorship — exactly the
       miner power the paper grants the adversary. *)
    List.filteri
      (fun i tx ->
        if unit_float t ~site:site_byz_censor ~a:height ~b:i < 0.3 then begin
          Obs.Counter.incr m_byz_censored;
          record t "h=%d byzmine.censor node=%d tx=%s" height node (short_hash tx);
          false
        end
        else true)
      txs

let attach t net =
  Network.set_mempool_fault net (Some (fun ~height txs -> pipeline t ~height txs));
  Network.set_block_hook net (Some (fun ~height -> on_block t net ~height));
  match t.spec.byzmine with
  | None -> ()
  | Some (node, mode) -> Network.set_adversary net (Some (byz_adversary t node mode))

let detach net =
  Network.set_mempool_fault net None;
  Network.set_block_hook net None;
  Network.set_adversary net None

(* Heal any still-open partition, then restart every still-crashed node,
   so end-of-run invariants can assert full replica agreement.  Raises if
   a resync diverges. *)
let finish t net =
  if Network.partition_active net then
    record_heal t ~height:(Network.height net) ~suffix:" (end of run)"
      (Network.heal_partition net);
  for node = 0 to Network.num_nodes net - 1 do
    if not (Network.node_up net node) then begin
      match Network.restart_node net ~node with
      | () ->
        Obs.Counter.incr m_restarts;
        record t "h=%d node.restart node=%d resync=ok (end of run)" (Network.height net) node
      | exception Network.Consensus_failure why ->
        record t "h=%d node.restart node=%d resync=FAILED (%s)" (Network.height net) node why;
        raise (Network.Consensus_failure why)
    end
  done

let attach_store t store =
  Store.set_fault store
    (Some
       (fun h ->
         let i = t.store_ops in
         t.store_ops <- i + 1;
         let short = String.sub (Sha256.to_hex h) 0 8 in
         if
           t.spec.store_lose > 0.
           && unit_float t ~site:site_store_lose ~a:0 ~b:i < t.spec.store_lose
         then begin
           Obs.Counter.incr m_lost;
           record t "op=%d store.lose obj=%s" i short;
           Store.Lose
         end
         else if
           t.spec.store_corrupt > 0.
           && unit_float t ~site:site_store_corrupt ~a:0 ~b:i < t.spec.store_corrupt
         then begin
           Obs.Counter.incr m_corrupted;
           record t "op=%d store.corrupt obj=%s" i short;
           Store.Corrupt
         end
         else Store.Pass))

let detach_store store = Store.set_fault store None
