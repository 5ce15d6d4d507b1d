(** The closed-loop marketplace behind the [market] and [crowd]
    workloads and behind the chain [sync] replays.

    Each task is a pipeline of four blocks: fund a fresh one-task
    requester wallet, publish the task contract, collect [n] anonymous
    submissions (each from a fresh one-task worker wallet), and send the
    proved reward instruction.  One block is mined per scheduler round.
    As in [Load.run], each round admits tasks until [window] are in
    flight, so the tasks admitted together move through the pipeline
    together and each block carries one phase of up to [window] unrelated
    tasks, which the executor runs in parallel waves.

    All key material comes from one fixed system seed, ["zbench/system"], so
    every run pays for the same key generation; the run seed generates the
    marketplace inputs (which requester posts, which workers answer, their
    answers, the budgets).  Every call into the program goes through
    {!Trace}. *)

type shape = {
  workload : string;
  requesters : int;
  workers : int;
  n : int;  (** submissions per task *)
  depth : int;  (** RA tree depth *)
  replicas : int;
  window : int;  (** tasks in flight *)
}

type system

(** [boot shape] — [Protocol.create_system], enrolment of every requester
    and worker, one RA root update, and the reward-circuit setup. *)
val boot : shape -> system

val network : system -> Zebra_chain.Network.t

(** The faucet, for extra traffic ({!run}'s [before_mine]). *)
val faucet : system -> Zebra_chain.Wallet.t

type task_report = {
  index : int;
  settle_s : float;  (** funding broadcast to reward receipt *)
  settle_blocks : int;
  own_s : float;  (** client time charged to the task *)
  fund_block : int;  (** height of the block holding the funding *)
  reward_block : int;  (** height of the block holding the reward *)
}

type report = {
  settled : task_report list;  (** in settle order *)
  settle_times_s : float list;  (** loop clock at each settle, same order *)
  failed_tasks : (int * string) list;
  broadcasts : int;
  rejected_broadcasts : int;
  rejected_exec : int;
  failed_receipts : int;
  conflict_retries : int;
  loop_s : float;
  submit_s : (int * float) array;
      (** task index, wallet + [Worker.submit_tx]: one per submission *)
  publish_s : (int * float) array;  (** task index, wallet + [Requester.create_task] *)
  instruct_s : (int * float) array;  (** task index, [Requester.instruct] *)
  pending : float array;  (** mempool size before each block *)
  txs_per_block : float array;
  tx_kinds : (string, string) Hashtbl.t;
      (** transaction hash (hex) to [fund], [publish], [submit] or [instruct] *)
}

(** [run system ~seed ~tasks ?admit ?per_round ?before_mine ()]
    drives the loop until [tasks] tasks are done (settled or failed), then
    abandons the tasks still in flight.  Tasks are admitted while fewer
    than [window] are in flight, at most [per_round] in one round (default:
    no cap) and up to [admit] tasks in all (default: no cap, so the
    pipeline stays full while the last counted tasks drain).  Tasks finish
    in admission order, so the done tasks are always the first [tasks].
    [before_mine ()] runs before each block is mined, inside the loop. *)
val run :
  system ->
  seed:string ->
  tasks:int ->
  ?admit:int ->
  ?per_round:int ->
  ?before_mine:(unit -> unit) ->
  unit ->
  report

(** Every replica reports the same state root. *)
val replicas_agree : system -> bool

(** Total supply equals the faucet's genesis allocation. *)
val supply_conserved : system -> bool
