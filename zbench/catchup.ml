module Network = Zebra_chain.Network
module Address = Zebra_chain.Address
module Tx = Zebra_chain.Tx
module State = Zebra_chain.State
module Block = Zebra_chain.Block
module Exec = Zebra_chain.Exec
module Indexer = Zebra_index.Indexer
module Snark = Zebra_snark.Snark
module Sha256 = Zebra_hashing.Sha256

type chain = {
  net : Network.t;
  genesis : (Address.t * int) list;
  headers : Block.header array;
  tx_bytes : bytes list array;
  statuses : string list array;  (** live receipt per transaction *)
  tip : string;
  accounts : int;
}

let status_string = function
  | State.Ok None -> "ok"
  | State.Ok (Some a) -> "ok:" ^ Address.to_hex a
  | State.Failed e -> "failed:" ^ e

let capture net =
  let chosen = Array.of_list (Network.blocks net) in
  let n = Array.length chosen in
  let seen = Hashtbl.create 1024 in
  let touch a = Hashtbl.replace seen (Address.to_hex a) () in
  List.iter (fun (a, _) -> touch a) (Network.genesis net);
  let statuses =
    Array.map
      (fun (b : Block.t) ->
        List.map
          (fun tx ->
            touch tx.Tx.sender;
            (match tx.Tx.dst with Tx.Call a -> touch a | Tx.Create _ -> ());
            match Network.receipt net (Tx.hash tx) with
            | Some r ->
              (match r.State.status with State.Ok (Some a) -> touch a | _ -> ());
              status_string r.State.status
            | None -> "missing")
          b.Block.txs)
      chosen
  in
  {
    net;
    genesis = Network.genesis net;
    headers = Array.map (fun (b : Block.t) -> b.Block.header) chosen;
    tx_bytes = Array.map (fun (b : Block.t) -> List.map Tx.to_bytes b.Block.txs) chosen;
    statuses;
    tip = (if n = 0 then "genesis" else Sha256.to_hex (Block.hash chosen.(n - 1)));
    accounts = Hashtbl.length seen;
  }

let blocks c = Array.length c.headers
let txs c = Array.fold_left (fun acc l -> acc + List.length l) 0 c.tx_bytes
let tip_hash c = c.tip
let accounts c = c.accounts

let tip_root c =
  let n = Array.length c.headers in
  if n = 0 then "genesis" else Sha256.to_hex c.headers.(n - 1).Block.state_root

type outcome = {
  seconds : float;
  mismatched_receipts : int;
  mismatched_roots : int;
  invalid_blocks : int;
  indexer_agrees : bool;
  indexer_events : int;
  block_end_s : float array;
  decode_s : float array;
}

let run ~id c =
  let t0 = Trace.now_ns () in
  let call name f = Trace.call ~id name f in
  Snark.vk_cache_clear ();
  let st = call "state.create" (fun () -> State.create ~genesis:c.genesis) in
  let decode_s = ref [] in
  let bad_receipts = ref 0 and bad_roots = ref 0 and invalid = ref 0 in
  let prev_hash = ref Block.genesis_hash and prev_height = ref 0 in
  let block_end_s =
    Array.mapi
      (fun i header ->
        let txs =
          List.map
            (fun b ->
              let tx, dt = Trace.timed ~id "tx.of_bytes" (fun () -> Tx.of_bytes b) in
              decode_s := dt :: !decode_s;
              tx)
            c.tx_bytes.(i)
        in
        let block = { Block.header; txs } in
        (match
           call "block.validate" (fun () ->
               Block.validate ~prev_hash:!prev_hash ~prev_height:!prev_height block)
         with
        | Ok () -> ()
        | Error _ -> incr invalid);
        let receipts =
          call "exec.apply_block" (fun () ->
              Exec.apply_block st ~height:header.Block.height txs)
        in
        List.iter2
          (fun (r, _) live -> if status_string r.State.status <> live then incr bad_receipts)
          receipts c.statuses.(i);
        let root = call "state.root" (fun () -> State.root st) in
        if not (Bytes.equal root header.Block.state_root) then incr bad_roots;
        prev_hash := call "block.hash" (fun () -> Block.hash block);
        prev_height := header.Block.height;
        Trace.seconds_since t0)
      c.headers
  in
  let idx = call "indexer.create" Indexer.create in
  ignore (call "indexer.sync" (fun () -> Indexer.sync idx c.net));
  let agrees = call "indexer.agrees" (fun () -> Indexer.agrees idx c.net) in
  {
    seconds = Trace.seconds_since t0;
    mismatched_receipts = !bad_receipts;
    mismatched_roots = !bad_roots;
    invalid_blocks = !invalid;
    indexer_agrees = agrees;
    indexer_events = Indexer.event_count idx;
    block_end_s;
    decode_s = Array.of_list (List.rev !decode_s);
  }
