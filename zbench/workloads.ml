(* The workloads: what each drives, what it measures, and the
   deterministic facts each must reproduce.  README.md has the rationale. *)

module Network = Zebra_chain.Network
module Wallet = Zebra_chain.Wallet
module Address = Zebra_chain.Address
module Tx = Zebra_chain.Tx
module Block = Zebra_chain.Block
module State = Zebra_chain.State
module Snark = Zebra_snark.Snark
module Source = Zebra_rng.Source
module Sha256 = Zebra_hashing.Sha256
module Obs = Zebra_obs.Obs
module Parallel = Zebra_parallel.Parallel

type metric = { name : string; value : float; unit : string }

type outcome = {
  facts : (string * string) list;  (** deterministic: identical for a seed *)
  problems : string list;  (** correctness failures; empty when correct *)
  attempted : int;
  failed : int;
  end_to_end : metric list;
  notes : (string * string) list;  (** context printed beside the metrics *)
  per_layer : metric list;  (** filled with tracing on *)
  self_table : (string * float * float) list;  (** layer, self seconds, share *)
}

type params = { seed : string; seconds : float }

let m name value unit = { name; value; unit }
let median xs = if Array.length xs = 0 then 0. else Pct.p50 xs
let tail xs = if Array.length xs = 0 then 0. else (Pct.tail xs).Pct.value
let sum = Array.fold_left ( +. ) 0.

(* Set-up runs [early_boots] times before the measured loop and
   [late_boots] times after it; setup_s is the median of all of them, so
   that its samples span the run rather than one burst at its start.  The
   system the run uses is the last early one; the late boots are filed
   under the [Check] phase and no per-layer metric reads them. *)
let early_boots = 2
let late_boots = 1

let boot_times shape k =
  let last = ref None in
  let times =
    Array.init k (fun _ ->
        let t0 = Trace.now_ns () in
        last := Some (Market.boot shape);
        Trace.seconds_since t0)
  in
  (Option.get !last, times)

let late_boot_times shape =
  Trace.set_phase Trace.Check;
  let _, times = boot_times shape late_boots in
  Trace.set_phase Trace.Run;
  times

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let samples_text xs = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") xs))

let tail_note label xs =
  if Array.length xs = 0 then (label, "no samples")
  else
    let t = Pct.tail xs in
    (label, Printf.sprintf "p%.1f over n=%d (%d beyond)" (100. *. t.Pct.q) t.Pct.n t.Pct.beyond)

(* --- per-layer metrics, shared by every workload --- *)

let fn_names =
  [
    "wallet.generate";
    "worker.submit_tx";
    "requester.create_task";
    "requester.instruct";
    "ra.path";
    "network.submit_r";
    "network.mine_ext";
    "tx.of_bytes";
    "block.validate";
    "exec.apply_block";
    "state.root";
  ]

let layers =
  [
    "wallet"; "worker"; "requester"; "ra"; "protocol"; "network"; "tx"; "block"; "exec";
    "state"; "indexer"; "snark.prove"; "snark.verify"; "bench";
  ]

let fn_metrics phase name =
  let xs = Trace.samples phase name in
  [
    m (name ^ ".calls") (float_of_int (Array.length xs)) "count";
    m (name ^ ".total_s") (sum xs) "s";
    m (name ^ ".p50_s") (median xs) "s";
    m (name ^ ".tail_s") (tail xs) "s";
    m (name ^ ".alloc_mb") (Trace.alloc_bytes phase name /. 1e6) "MB";
  ]

let obs_total name = match Obs.span_stats name with Some (_, t) -> t | None -> 0.
let obs_calls name = match Obs.span_stats name with Some (c, _) -> float_of_int c | None -> 0.

type layer_inputs = {
  loop_spans : int;
  vk_hits : int;
  vk_decodes : int;
  chain_accounts : int;
  indexer_events : int;
  market : Market.report option;
  record_s : float;
  own_s : float array;
  wait_s : float array;
}

(* The per-layer metrics and the self-time table; empty without tracing. *)
let traced li =
  if not (Trace.tracing ()) then ([], []) else
  let rows, loop_s = Trace.self_times () in
  let rows = List.map (fun (l, s) -> (l, s, if loop_s > 0. then s /. loop_s else 0.)) rows in
  let self l = match List.find_opt (fun (l', _, _) -> l' = l) rows with Some (_, s, sh) -> (s, sh) | None -> (0., 0.) in
  let bench_share = snd (self "bench") in
  let span_cost = Trace.calibrate_span_cost () in
  let rep f d = match li.market with Some r -> f r | None -> d in
  let indexer = Trace.samples Trace.Run "indexer.sync" in
  let metrics = List.concat
    [
      List.concat_map (fn_metrics Trace.Run) fn_names;
      fn_metrics Trace.Setup "ra.register";
      [
        m "network.submit_r.rejects" (float_of_int (rep (fun r -> r.Market.rejected_broadcasts) 0)) "count";
        m "network.mine_ext.txs_per_block" (rep (fun r -> median r.Market.txs_per_block) 0.) "count";
        m "network.mine_ext.conflict_retry" (float_of_int (rep (fun r -> r.Market.conflict_retries) 0)) "count";
        m "network.mine_ext.rejected" (float_of_int (rep (fun r -> r.Market.rejected_exec) 0)) "count";
        m "network.pending.p50" (rep (fun r -> median r.Market.pending) 0.) "count";
        m "state.accounts" (float_of_int li.chain_accounts) "count";
        m "indexer.sync.calls" (float_of_int (Array.length indexer)) "count";
        m "indexer.sync.total_s" (sum indexer) "s";
        m "indexer.sync.events" (float_of_int li.indexer_events) "count";
        m "indexer.agrees.total_s" (sum (Trace.samples Trace.Run "indexer.agrees")) "s";
        m "snark.prove.calls" (obs_calls "snark.prove") "count";
        m "snark.prove.total_s" (obs_total "snark.prove") "s";
        m "snark.prove.eval.total_s" (obs_total "snark.prove.eval") "s";
        m "snark.prove.exp.total_s" (obs_total "snark.prove.exp") "s";
        m "snark.prove.fft.total_s" (obs_total "snark.prove.fft") "s";
        m "snark.verify.calls" (obs_calls "snark.verify") "count";
        m "snark.verify.total_s" (obs_total "snark.verify") "s";
        m "snark.vk_cache.hit_ratio"
          (let t = li.vk_hits + li.vk_decodes in
           if t = 0 then 0. else float_of_int li.vk_hits /. float_of_int t)
          "ratio";
        m "protocol.create_system.total_s" (sum (Trace.samples Trace.Setup "protocol.create_system")) "s";
        m "reward_circuit.setup_cached.total_s"
          (sum (Trace.samples Trace.Setup "reward_circuit.setup_cached"))
          "s";
        m "sync.record.total_s" li.record_s "s";
        m "task.own_s.p50" (median li.own_s) "s";
        m "task.wait_s.p50" (median li.wait_s) "s";
        m "loop.coverage" (1. -. bench_share) "ratio";
        m "trace.overhead"
          (if loop_s > 0. then span_cost *. float_of_int li.loop_spans /. loop_s else 0.)
          "ratio";
      ];
      List.concat_map
        (fun l ->
          let s, sh = self l in
          [ m ("layer." ^ l ^ ".self_s") s "s"; m ("layer." ^ l ^ ".self_share") sh "ratio" ])
        layers;
    ]
  in
  (metrics, rows)

(* Facts common to a chain prefix. *)
let chain_facts prefix (c : Catchup.chain) =
  [
    (prefix ^ "blocks", string_of_int (Catchup.blocks c));
    (prefix ^ "txs", string_of_int (Catchup.txs c));
    (prefix ^ "tip_hash", Catchup.tip_hash c);
    (prefix ^ "state_root", Catchup.tip_root c);
  ]

let blocks_distribution xs =
  let tbl = Hashtbl.create 8 in
  List.iter (fun b -> Hashtbl.replace tbl b (1 + Option.value ~default:0 (Hashtbl.find_opt tbl b))) xs;
  Hashtbl.fold (fun b k acc -> (b, k) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (b, k) -> Printf.sprintf "%dx%d" k b)
  |> String.concat ","
  |> fun s -> if s = "" then "none" else s

let catchup_problems (o : Catchup.outcome) =
  List.filter_map Fun.id
    [
      (if o.Catchup.mismatched_receipts > 0 then
         Some (Printf.sprintf "catch-up: %d receipts differ from the live chain" o.Catchup.mismatched_receipts)
       else None);
      (if o.Catchup.mismatched_roots > 0 then
         Some (Printf.sprintf "catch-up: %d state roots differ from their headers" o.Catchup.mismatched_roots)
       else None);
      (if o.Catchup.invalid_blocks > 0 then
         Some (Printf.sprintf "catch-up: %d blocks failed validation" o.Catchup.invalid_blocks)
       else None);
      (if not o.Catchup.indexer_agrees then Some "catch-up: indexer disagrees with the chain" else None);
    ]

let failed_catchups outs = List.length (List.filter (fun o -> catchup_problems o <> []) outs)

let market_problems (sysm : Market.system) (r : Market.report) =
  List.map (fun (i, e) -> Printf.sprintf "task %d: %s" i e) r.Market.failed_tasks
  @ (if r.Market.rejected_exec > 0 then [ Printf.sprintf "%d transactions rejected by the miner" r.Market.rejected_exec ] else [])
  @ (if Market.replicas_agree sysm then [] else [ "replicas disagree" ])
  @ if Market.supply_conserved sysm then [] else [ "supply not conserved" ]

let failures (r : Market.report) =
  r.Market.rejected_broadcasts + r.Market.rejected_exec + r.Market.failed_receipts
  + List.length r.Market.failed_tasks

(* --- market and crowd: the write path --- *)

(* --seconds sets how much work a run measures, so that every run of a
   seed measures exactly the same work: each workload's unit of work is
   sized to take about that long on the reference host (README.md). *)
type closed_loop = {
  shape : Market.shape;
  seconds_per_task : float;  (** reference-host cost of one measured task *)
  min_tasks : int;
}

let market =
  {
    shape =
      { Market.workload = "market"; requesters = 10; workers = 20; n = 2; depth = 6; replicas = 3; window = 8 };
    seconds_per_task = 3.1;
    min_tasks = 4;
  }

let crowd =
  {
    shape =
      { Market.workload = "crowd"; requesters = 4; workers = 16; n = 8; depth = 16; replicas = 3; window = 1 };
    seconds_per_task = 10.;
    min_tasks = 2;
  }

let units ~seconds ~per ~min = max min (int_of_float (Float.round (seconds /. per)))

(* A task takes four blocks: funding, publish, submissions, reward. *)
let task_rounds = 4

(* The window fills over the first [task_rounds] rounds, [per_round]
   tasks a round, and every later round admits as many as settled.  So the
   pipeline runs staggered: in steady state each block carries every
   stage of [window] different tasks, and each kind of client call recurs
   in every round instead of in one burst per window.  The first window
   is the warm-up: its tasks are excluded from every statistic. *)
let per_round (s : Market.shape) = max 1 (s.Market.window / task_rounds)

let describe_shape (s : Market.shape) =
  [
    ("requesters", string_of_int s.Market.requesters);
    ("workers", string_of_int s.Market.workers);
    ("submissions_per_task", string_of_int s.Market.n);
    ("ra_depth", string_of_int s.Market.depth);
    ("replicas", string_of_int s.Market.replicas);
    ("window", string_of_int s.Market.window);
    ("policy", "majority-4");
  ]

(* Replays the run's chain as a late-joining node would: the read-path
   figure of a write workload.  One catch-up of a market chain takes about
   0.1 s; 100 of them span about 10 s, because 40 (4 s) fell inside one
   slow or fast spell of the host and spread 0.26 across ten seeds. *)
let tail_catchups = 100

let catchups chain k =
  List.init k (fun i -> Trace.call ~id:i "bench.catchup" (fun () -> Catchup.run ~id:i chain))

(* The determinism check inside every run: one more catch-up at the other
   pool size, whose receipts and per-block roots must equal those the
   live chain got at the pinned size.  Returns that size and the problems. *)
let cross_domain_check chain ~(reference : Catchup.outcome) =
  let pinned = Parallel.Pool.domains (Parallel.pool ()) in
  let other = if pinned = 1 then 2 else 1 in
  Trace.set_phase Trace.Check;
  Parallel.set_default_domains other;
  let o = Catchup.run ~id:(-1) chain in
  Parallel.set_default_domains pinned;
  Trace.set_phase Trace.Run;
  let label p = Printf.sprintf "at %d domains: %s" other p in
  let problems =
    List.map label (catchup_problems o)
    @
    if o.Catchup.indexer_events <> reference.Catchup.indexer_events then
      [ label "indexer event count differs" ]
    else []
  in
  (other, problems)

let run_closed_loop (w : closed_loop) p =
  let sysm, early = boot_times w.shape early_boots in
  Trace.set_phase Trace.Run;
  if Trace.tracing () then Obs.reset ();
  let spans0 = Trace.span_count () in
  let vk0 = Snark.vk_cache_stats () in
  let window = w.shape.Market.window in
  let step = per_round w.shape in
  let measured_tasks =
    let k = units ~seconds:p.seconds ~per:w.seconds_per_task ~min:w.min_tasks in
    step * ((k + step - 1) / step)
  in
  let r =
    Market.run sysm ~seed:p.seed ~tasks:(window + measured_tasks) ~per_round:step ()
  in
  (* Client-call samples: every counted task but those admitted in the
     first round, whose calls are the first of their kind and run cold.
     A client call's cost does not depend on what else is in flight (calls
     run one at a time), so the rest of the warm-up window counts here,
     which doubles the samples a run can afford; settle statistics leave
     out the whole first window. *)
  let client_calls xs =
    Array.of_list
      (List.filter_map
         (fun (i, dt) -> if i >= step && i < window + measured_tasks then Some dt else None)
         (Array.to_list xs))
  in
  let submit_s = client_calls r.Market.submit_s in
  let publish_s = client_calls r.Market.publish_s in
  let instruct_s = client_calls r.Market.instruct_s in
  let vk1 = Snark.vk_cache_stats () in
  let loop_spans = Trace.span_count () - spans0 in
  let net = Market.network sysm in
  let chain = Catchup.capture net in
  let catchups = catchups chain tail_catchups in
  let catch_s = Array.of_list (List.map (fun o -> o.Catchup.seconds) catchups) in
  let settles = List.combine r.Market.settled r.Market.settle_times_s in
  let warm, measured = List.partition (fun ((t : Market.task_report), _) -> t.Market.index < window) settles in
  let warm_end = List.fold_left (fun acc (_, at) -> Float.max acc at) 0. warm in
  let last_settle = List.fold_left (fun acc (_, at) -> Float.max acc at) 0. measured in
  let measured = List.map fst measured in
  (* Steady-state throughput: measured tasks over the time from the last
     warm-up settle to the last measured settle. *)
  let tasks_per_s =
    if measured = [] || last_settle <= warm_end then 0.
    else float_of_int (List.length measured) /. (last_settle -. warm_end)
  in
  let arr f = Array.of_list (List.map f measured) in
  let settle = arr (fun t -> t.Market.settle_s) in
  let own = arr (fun t -> t.Market.own_s) in
  let wait = arr (fun t -> t.Market.settle_s -. t.Market.own_s) in
  let first = List.hd catchups in
  let other_domains, cross_problems = cross_domain_check chain ~reference:first in
  let boots = Array.append early (late_boot_times w.shape) in
  let setup_s = Pct.p50 boots in
  let problems =
    market_problems sysm r
    @ List.concat_map catchup_problems catchups
    @ cross_problems
    @ if List.length measured <> measured_tasks then [ "too few tasks settled after the warm-up" ] else []
  in
  let attempted = r.Market.broadcasts + List.length catchups in
  let failed = failures r + failed_catchups catchups in
  let facts =
    (("workload", w.shape.Market.workload) :: describe_shape w.shape)
    @ [
        ("measured_tasks", string_of_int measured_tasks);
        ("warmup_tasks", string_of_int window);
        ("admitted_per_round", string_of_int step);
        ("warmup_settled", string_of_int (List.length warm));
      ]
    @ chain_facts "chain_" chain
    @ [
        ("tasks_settled", string_of_int (List.length measured));
        ("broadcasts", string_of_int r.Market.broadcasts);
        ("settle_blocks", blocks_distribution (List.map (fun t -> t.Market.settle_blocks) measured));
        ("accounts", string_of_int (Catchup.accounts chain));
        ("indexer_events", string_of_int first.Catchup.indexer_events);
        ("replicas_agree", string_of_bool (Market.replicas_agree sysm));
        ("supply_conserved", string_of_bool (Market.supply_conserved sysm));
        ("catchup_roots_match", string_of_bool (List.for_all (fun o -> o.Catchup.mismatched_roots = 0) catchups));
        ("indexer_agrees", string_of_bool (List.for_all (fun o -> o.Catchup.indexer_agrees) catchups));
        ("other_pool_catchup_matches", string_of_bool (cross_problems = []));
        ("failures", string_of_int (failures r));
      ]
  in
  let end_to_end =
    [
      m "setup_s" setup_s "s";
      m "tasks_per_s" tasks_per_s "1/s";
      m "settle_p50_s" (median settle) "s";
      m "settle_tail_s" (tail settle) "s";
      m "settle_blocks_p50" (median (arr (fun t -> float_of_int t.Market.settle_blocks))) "blocks";
      m "submit_p50_s" (median submit_s) "s";
      m "publish_p50_s" (median publish_s) "s";
      m "instruct_p50_s" (median instruct_s) "s";
      m "sync_txs_per_s" (float_of_int (Catchup.txs chain) /. median catch_s) "1/s";
      m "peak_rss_mb" (peak_rss_mb ()) "MB";
    ]
  in
  let notes =
    [
      tail_note "settle_tail_s" settle;
      ("settle_samples", Printf.sprintf "%d tasks after %d warm-up" (Array.length settle) window);
      ( "settle_s_by_task",
        String.concat " "
          (List.map (fun (t : Market.task_report) -> Printf.sprintf "%d:%.3f" t.Market.index t.Market.settle_s) measured) );
      ("loop_s", Printf.sprintf "%.3f (steady state from %.3f to %.3f)" r.Market.loop_s warm_end last_settle);
      ("submit_samples_s", samples_text submit_s);
      ("publish_samples_s", samples_text publish_s);
      ("instruct_samples_s", samples_text instruct_s);
      ("catchups", string_of_int (Array.length catch_s));
      ("setup_samples_s", samples_text boots);
      ("determinism_check_domains", string_of_int other_domains);
      ("failed_ratio", Printf.sprintf "%d/%d" failed attempted);
    ]
  in
  let li =
    {
      loop_spans;
      vk_hits = fst vk1 - fst vk0;
      vk_decodes = snd vk1 - snd vk0;
      chain_accounts = Catchup.accounts chain;
      indexer_events = first.Catchup.indexer_events;
      market = Some r;
      record_s = 0.;
      own_s = own;
      wait_s = wait;
    }
  in
  let per_layer, self_table = traced li in
  { facts; problems; attempted; failed; end_to_end; notes; per_layer; self_table }

(* --- sync: the read path --- *)

(* The recording runs one replica: replicas never change the mined blocks,
   and the catch-up checks every root against its header anyway. *)
let sync_shape =
  { Market.workload = "sync"; requesters = 10; workers = 20; n = 2; depth = 6; replicas = 1; window = 3 }

let sync_tasks = 3
let sync_payers = 8
let sync_transfers_per_block = 510
let sync_seconds_per_catchup = 1.25

(* Seeded faucet-style transfers to fresh addresses, round-robin over
   [sync_payers] funded payers of their own: they never race the
   marketplace's faucet nonces, and unrelated senders let the executor
   run each block in wide parallel waves. *)
let transfer_feed sysm ~seed =
  let net = Market.network sysm in
  let faucet = Market.faucet sysm in
  let src = Source.of_seed ("zbench/sync/transfers/" ^ seed) in
  let rb = Source.fn (Source.of_seed "zbench/sync/payers") in
  let payers =
    Array.init sync_payers (fun _ ->
        Trace.call "wallet.generate" (fun () -> Wallet.generate ~random_bytes:rb ()))
  in
  let submit what tx =
    match Trace.call "network.submit_r" (fun () -> Network.submit_r net tx) with
    | Ok () -> ()
    | Error e -> failwith (what ^ " refused: " ^ Network.submit_error_to_string e)
  in
  let faucet_nonce = Network.nonce net (Wallet.address faucet) in
  Array.iteri
    (fun i payer ->
      submit "payer funding"
        (Trace.call "tx.make_ext" (fun () ->
             Tx.make_ext ~wallet:faucet ~fee:0 ~footprint:[] ~nonce:(faucet_nonce + i)
               ~dst:(Tx.Call (Wallet.address payer))
               ~value:10_000_000 ~payload:Bytes.empty)))
    payers;
  ignore (Trace.call "network.mine_ext" (fun () -> Network.mine_ext net));
  let nonces = Array.make sync_payers 0 in
  let next = ref 0 in
  fun () ->
    for _ = 1 to sync_transfers_per_block do
      let p = !next mod sync_payers in
      incr next;
      let dst = Address.of_bytes (Source.bytes src 20) in
      let value = 1 + (Char.code (Bytes.get (Source.bytes src 1) 0) mod 100) in
      let tx =
        Trace.call "tx.make_ext" (fun () ->
            Tx.make_ext ~wallet:payers.(p) ~fee:0 ~footprint:[] ~nonce:nonces.(p) ~dst:(Tx.Call dst)
              ~value ~payload:Bytes.empty)
      in
      nonces.(p) <- nonces.(p) + 1;
      submit "transfer" tx
    done

let run_sync p =
  let sysm, early = boot_times sync_shape early_boots in
  let t_record = Trace.now_ns () in
  let feed = transfer_feed sysm ~seed:p.seed in
  let r = Market.run sysm ~seed:p.seed ~tasks:sync_tasks ~admit:sync_tasks ~before_mine:feed () in
  let net = Market.network sysm in
  let chain = Catchup.capture net in
  let kinds =
    List.concat_map
      (fun (b : Block.t) ->
        List.map
          (fun tx ->
            Option.value ~default:"other"
              (Hashtbl.find_opt r.Market.tx_kinds (Sha256.to_hex (Tx.hash tx))))
          b.Block.txs)
      (Network.blocks net)
    |> Array.of_list
  in
  let record_s = Trace.seconds_since t_record in
  Trace.set_phase Trace.Run;
  if Trace.tracing () then Obs.reset ();
  let spans0 = Trace.span_count () in
  let rounds = units ~seconds:p.seconds ~per:sync_seconds_per_catchup ~min:5 in
  let outs = ref [] and vk_hits = ref 0 and vk_decodes = ref 0 in
  Trace.call "bench.loop" (fun () ->
      for i = 0 to rounds - 1 do
        let o = Trace.call ~id:i "bench.catchup" (fun () -> Catchup.run ~id:i chain) in
        let h, d = Snark.vk_cache_stats () in
        vk_hits := !vk_hits + h;
        vk_decodes := !vk_decodes + d;
        outs := o :: !outs
      done);
  let loop_spans = Trace.span_count () - spans0 in
  let outs = List.rev !outs in
  let catch_s = Array.of_list (List.map (fun o -> o.Catchup.seconds) outs) in
  let tasks = r.Market.settled in
  (* A recorded task, as the joining node sees it: from the start of the
     block holding its funding to the end of the block holding its reward. *)
  let settle =
    List.concat_map
      (fun (o : Catchup.outcome) ->
        List.map
          (fun (t : Market.task_report) ->
            let start = if t.Market.fund_block <= 1 then 0. else o.Catchup.block_end_s.(t.Market.fund_block - 2) in
            o.Catchup.block_end_s.(t.Market.reward_block - 1) -. start)
          tasks)
      outs
    |> Array.of_list
  in
  let decode kind =
    List.concat_map
      (fun (o : Catchup.outcome) ->
        List.filteri (fun i _ -> kinds.(i) = kind) (Array.to_list o.Catchup.decode_s))
      outs
    |> Array.of_list
  in
  let first = List.hd outs in
  let other_domains, cross_problems = cross_domain_check chain ~reference:first in
  let boots = Array.append early (late_boot_times sync_shape) in
  let boot_s = Pct.p50 boots in
  let consistent =
    List.for_all
      (fun (o : Catchup.outcome) -> o.Catchup.indexer_events = first.Catchup.indexer_events)
      outs
  in
  let problems =
    market_problems sysm r
    @ List.concat_map catchup_problems outs
    @ cross_problems
    @ (if consistent then [] else [ "catch-ups disagree on the indexer's event count" ])
    @ if List.length tasks <> sync_tasks then [ "recording settled too few tasks" ] else []
  in
  let attempted = r.Market.broadcasts + List.length outs in
  let failed = failures r + failed_catchups outs in
  let facts =
    [
      ("workload", "sync");
      ("recorded_tasks", string_of_int sync_tasks);
      ("transfers_per_block", string_of_int sync_transfers_per_block);
      ("transfer_payers", string_of_int sync_payers);
    ]
    @ describe_shape sync_shape
    @ chain_facts "chain_" chain
    @ [
        ("accounts", string_of_int (Catchup.accounts chain));
        ("settle_blocks", blocks_distribution (List.map (fun t -> t.Market.settle_blocks) tasks));
        ("per_block_roots_match", string_of_bool (List.for_all (fun o -> o.Catchup.mismatched_roots = 0) outs));
        ("receipts_match", string_of_bool (List.for_all (fun o -> o.Catchup.mismatched_receipts = 0) outs));
        ("indexer_agrees", string_of_bool (List.for_all (fun o -> o.Catchup.indexer_agrees) outs));
        ("indexer_events", string_of_int first.Catchup.indexer_events);
        ("replicas_agree", string_of_bool (Market.replicas_agree sysm));
        ("supply_conserved", string_of_bool (Market.supply_conserved sysm));
        ("other_pool_catchup_matches", string_of_bool (cross_problems = []));
        ("failures", string_of_int (failures r));
      ]
  in
  let per_catchup = median catch_s in
  let end_to_end =
    [
      m "setup_s" (boot_s +. record_s) "s";
      m "tasks_per_s" (float_of_int (List.length tasks) /. per_catchup) "1/s";
      m "settle_p50_s" (median settle) "s";
      m "settle_tail_s" (tail settle) "s";
      m "settle_blocks_p50" (median (Array.of_list (List.map (fun t -> float_of_int t.Market.settle_blocks) tasks))) "blocks";
      m "submit_p50_s" (median (decode "submit")) "s";
      m "publish_p50_s" (median (decode "publish")) "s";
      m "instruct_p50_s" (median (decode "instruct")) "s";
      m "sync_txs_per_s" (float_of_int (Catchup.txs chain) /. per_catchup) "1/s";
      m "peak_rss_mb" (peak_rss_mb ()) "MB";
    ]
  in
  let notes =
    [
      tail_note "settle_tail_s" settle;
      ("catchups", string_of_int (List.length outs));
      ("catchup_p50_s", Printf.sprintf "%.4f" per_catchup);
      ("record_s", Printf.sprintf "%.3f" record_s);
      ("boot_samples_s", samples_text boots);
      ("determinism_check_domains", string_of_int other_domains);
      ("failed_ratio", Printf.sprintf "%d/%d" failed attempted);
    ]
  in
  let li =
    {
      loop_spans;
      vk_hits = !vk_hits;
      vk_decodes = !vk_decodes;
      chain_accounts = Catchup.accounts chain;
      indexer_events = first.Catchup.indexer_events;
      market = None;
      record_s;
      own_s = Array.of_list (List.map (fun t -> t.Market.own_s) tasks);
      wait_s = Array.of_list (List.map (fun t -> t.Market.settle_s -. t.Market.own_s) tasks);
    }
  in
  let per_layer, self_table = traced li in
  { facts; problems; attempted; failed; end_to_end; notes; per_layer; self_table }
