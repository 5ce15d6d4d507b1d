(** A late-joining full node and indexer catching up from genesis.

    [capture] snapshots a mined chain the way it travels: headers plus
    each transaction's canonical bytes, with the receipt every transaction
    got on the live network.  [run] replays the snapshot on a fresh node:
    it clears the decoded-VK cache (a joining node starts cold), decodes
    every transaction with [Tx.of_bytes], validates each block, executes it
    with [Exec.apply_block] on a fresh [State], checks [State.root] against
    the header, then runs a fresh [Indexer.sync] and [Indexer.agrees]
    against the live network. *)

type chain

(** [capture net] — the whole chain. *)
val capture : Zebra_chain.Network.t -> chain

val blocks : chain -> int
val txs : chain -> int

(** Header hash of the last captured block, hex. *)
val tip_hash : chain -> string

(** Header state root of the last captured block, hex. *)
val tip_root : chain -> string

(** Distinct account addresses the chain touches: the genesis accounts,
    every sender, call destination and created contract. *)
val accounts : chain -> int

type outcome = {
  seconds : float;  (** the whole catch-up, indexer included *)
  mismatched_receipts : int;  (** replayed receipt differs from the live one *)
  mismatched_roots : int;  (** heights whose replayed root differs *)
  invalid_blocks : int;  (** [Block.validate] refusals *)
  indexer_agrees : bool;
  indexer_events : int;
  block_end_s : float array;
      (** seconds from the catch-up's start to the end of block [i + 1] *)
  decode_s : float array;  (** [Tx.of_bytes] seconds, in chain order *)
}

(** [run ~id chain] — one catch-up, its spans tagged [id]. *)
val run : id:int -> chain -> outcome
