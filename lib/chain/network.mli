(** The simulated blockchain network: several fully-replicating nodes, a
    shared mempool, and a discrete block clock.

    This provides exactly the ideal-public-ledger abstraction of the paper's
    Section III: (1) a valid transaction submitted to the network is
    included in the next mined block (liveness under synchrony); (2) every
    live node executes every block deterministically and the simulator
    asserts their state roots agree (correct computation); (3) anyone can
    read all state (transparency); and (4) a network adversary may reorder
    the transactions of a pending block ({!set_adversary}) but cannot forge
    signatures.

    {b Fault injection} relaxes (1): a mempool fault pipeline
    ({!set_mempool_fault}) can drop, delay, duplicate or reorder pending
    transactions, and replicas can be crashed for a block range and
    re-synced ({!crash_node}, {!restart_node}).  [Zebra_faults] builds
    deterministic, seed-keyed pipelines over these hooks. *)

type t

exception Consensus_failure of string

(** A mempool fault pipeline, applied to the candidate transactions of each
    block being mined: returns the transactions to include now plus
    [(release_height, tx)] pairs to hold back.  Held-back transactions
    rejoin the candidates of the first block at or after their release
    height (and run through the pipeline again). *)
type mempool_fault = height:int -> Tx.t list -> Tx.t list * (int * Tx.t) list

(** [create ?difficulty ~num_nodes ~genesis ()] — all nodes start from the
    same funded genesis state.  [difficulty] (default 0) makes miners grind
    a proof-of-work seal of that many leading zero bits per block. *)
val create : ?difficulty:int -> num_nodes:int -> genesis:(Address.t * int) list -> unit -> t

val difficulty : t -> int

val num_nodes : t -> int

(** Current chain height (0 = genesis, before any block). *)
val height : t -> int

(** Why a submission was refused (mirrors the [Protocol.error] style). *)
type submit_error = Invalid_signature

val submit_error_to_string : submit_error -> string

(** [submit_r t tx] broadcasts to the mempool.  Invalidly-signed
    transactions are rejected immediately (never enter the mempool).

    The mempool is {e fee-ordered} at seal time: each block takes the
    pending transactions highest-[Tx.fee] first (stable on arrival order,
    with every sender's transactions kept in nonce order so a sender can
    never wedge itself).  Transactions released from a fault-pipeline
    delay are exempt — they go ahead of the fee-ordered fresh mempool. *)
val submit_r : t -> Tx.t -> (unit, submit_error) result

(** Raising wrapper around {!submit_r}, kept for source compatibility.
    New code should prefer {!submit_r} (typed errors compose with the
    [Protocol] retry drivers).
    @raise Invalid_argument on an invalidly-signed transaction. *)
val submit : t -> Tx.t -> unit

val pending : t -> int

(** Transactions currently held back by the fault pipeline. *)
val delayed : t -> int

(** [set_adversary t f] lets [f] reorder the pending transactions of each
    block before execution.  The adversary may also duplicate or omit
    transactions, but gains nothing by either: a duplicate is rejected by
    nonce replay when it executes (the first execution's receipt is
    canonical), and an omitted transaction stays pending for a later block
    — the adversary can delay but not censor.  Invalidly-signed injections
    are filtered by the miner.  [None] restores first-come-first-served
    order. *)
val set_adversary : t -> (Tx.t list -> Tx.t list) option -> unit

(** [set_mempool_fault t f] installs (or, with [None], removes) the fault
    pipeline run on every block's fresh mempool transactions before the
    adversary and the miner see them.  Dropped transactions are gone — the
    network lost the broadcast; clients must resubmit (see [Protocol]'s
    retry drivers).  Postponed transactions rejoin at their release height
    {e ahead} of the fresh mempool and are exempt from further fault
    decisions, so a delay fault holds a transaction back exactly its k
    blocks (bounded delay, never censorship). *)
val set_mempool_fault : t -> mempool_fault option -> unit

(** [set_block_hook t f] — [f ~height] fires at the start of mining block
    [height], before execution, so a fault controller can apply scheduled
    node crashes/restarts effective that height.  The hook must not mine. *)
val set_block_hook : t -> (height:int -> unit) option -> unit

(** [crash_node t ~node] takes a replica down: it stops executing blocks
    and its state goes stale until {!restart_node}.  Idempotent.
    @raise Invalid_argument if [node] is the last live replica. *)
val crash_node : t -> node:int -> unit

(** [restart_node t ~node] brings a crashed replica back: it re-syncs by
    replaying every block mined while it was down and must land on the tip
    header's state root.  Idempotent on live nodes.
    @raise Consensus_failure if the re-synced root diverges. *)
val restart_node : t -> node:int -> unit

val node_up : t -> int -> bool

(** {1 Partitions, forks and reorgs}

    A network partition splits the replicas into a majority side (which
    keeps the mempool and mines the candidate branch) and a minority side
    (which mines empty blocks on its own branch at the same rate).  At
    heal time the {e fork choice} picks the longer branch; equal lengths
    break the tie toward the lexicographically smaller tip hash.  Giving
    one side the lead makes length, not the tie-break, decide.  When the
    minority branch wins, the orphaned majority transactions rejoin the
    front of the mempool and every replica, receipt and log is rebuilt by
    a deterministic replay of the adopted chain. *)

(** A side of a partition. *)
type side = Majority | Minority

(** [start_partition ?lead t ~minority] cuts the given replica ids off
    from the mempool and the majority branch, starting with the next mined
    block.  With [lead] that side's branch is one block longer at the
    heal, so it wins on length whatever the tip hashes: on the first tick
    the minority seals no block ([Majority]: the canonical chain is kept)
    or two ([Minority]: the minority branch is adopted).  The canonical
    chain itself grows exactly one block per {!mine_ext} either way.
    @raise Invalid_argument if a partition is already active, [minority]
    is empty or covers all nodes, contains node 0 (the canonical read
    replica stays on the majority side), or names an unknown node. *)
val start_partition : ?lead:side -> t -> minority:int list -> unit

val partition_active : t -> bool

type heal_report = {
  adopted_fork : bool;  (** the minority branch won the fork choice *)
  reorged_blocks : int;  (** majority blocks orphaned by the adoption *)
  requeued_txs : int;  (** orphaned transactions returned to the mempool *)
}

(** [heal_partition t] reconnects the sides, runs the fork choice and
    replays the losing side onto the winning branch.  The chain height
    never decreases.  Adopting a longer minority branch raises it by one:
    transactions due at that height — the requeued orphans and any
    delay-fault releases — go into the next mined block.
    @raise Invalid_argument if no partition is active.
    @raise Consensus_failure if the reorg replay diverges. *)
val heal_partition : t -> heal_report

(** [fork_tip t ~permute] lets a byzantine miner propose a conflicting
    sibling of the current tip: same parent and height, transactions
    permuted by [permute].  The sibling is adopted — a one-block reorg,
    with receipts and replicas rebuilt — exactly when the fork choice
    prefers its hash; the miner re-seals it up to 2^16 times until it
    hashes below the tip.  Returns [None] when there is nothing to fork
    (empty chain, active partition, or an identity permutation),
    otherwise [Some adopted]. *)
val fork_tip : t -> permute:(Tx.t list -> Tx.t list) -> bool option

(** State root of node [i] (stale while the node is down) — lets tests
    assert per-replica agreement. *)
val node_state_root : t -> int -> bytes

(** Per-transaction outcome of sealing a block (candidate order):
    [Applied] ran in the parallel schedule, [Conflict_retry] escaped its
    declared footprint and was re-executed in the deterministic serial
    fallback (same receipt it would always have had — the classification
    is diagnostic), [Rejected] never executed. *)
type exec_result =
  | Applied of State.receipt
  | Conflict_retry of State.receipt
  | Rejected of string

(** [mine_ext t] seals the fee-ordered mempool into the next block,
    executes it on every live node via the sharded parallel executor
    ({!Exec}), checks replica agreement and returns the typed
    per-candidate outcomes (receipts from the first live node).
    @raise Consensus_failure if replicas diverge. *)
val mine_ext : t -> exec_result list

(** [mine t] is {!mine_ext} returning only the executed receipts, kept for
    source compatibility.  New code should prefer {!mine_ext}.
    @raise Consensus_failure if replicas diverge. *)
val mine : t -> State.receipt list

(** [mine_until t ~height] mines (possibly empty) blocks up to [height]. *)
val mine_until : t -> height:int -> unit

(** {1 Read-only views (first live node)} *)

val balance : t -> Address.t -> int
val nonce : t -> Address.t -> int
val contract_storage : t -> Address.t -> bytes option
val is_contract : t -> Address.t -> bool

(** Receipt by transaction hash, once mined.  Per hash, the first
    execution's receipt wins: a faulty duplicate's nonce-replay failure
    does not shadow the canonical outcome. *)
val receipt : t -> bytes -> State.receipt option

val blocks : t -> Block.t list

(** The genesis allocation the network was created with — lets a replayer
    (e.g. the footprint lint) rebuild the pre-state of any mined
    transaction with {!State.create}. *)
val genesis : t -> (Address.t * int) list

(** Sum of balances across all accounts (conservation invariant). *)
val total_supply : t -> int

(** [replay t] rebuilds the ledger from genesis by re-executing every block
    on a fresh state and returns its root — a late-joining node's sync
    path.  Determinism means it must equal the live nodes' root. *)
val replay : t -> bytes

(** Current state root of the first live node. *)
val state_root : t -> bytes

(** All logs emitted so far, oldest first (test/diagnostic helper). *)
val all_logs : t -> string list
