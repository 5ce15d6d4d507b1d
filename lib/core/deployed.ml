module Cs = Zebra_r1cs.Cs
module Gadgets = Zebra_r1cs.Gadgets
module Cpla = Zebra_anonauth.Cpla
module Hash_composition = Zebra_hashcomp.Hash_composition

type synth = Cs.t -> unit

(* A depth-[d] Merkle membership circuit over the given compression
   gadget, with fixed (deterministic) leaf and sibling values — the "hash
   gadget composition" shape the benches profile. *)
let merkle_circuit ~depth root_gadget cs =
  let open Gadgets in
  let leaf = Cs.alloc cs ~label:"leaf" (Fp.of_int 7) in
  let bits = Array.init depth (fun i -> alloc_bit cs (i land 1 = 1)) in
  let siblings =
    Array.init depth (fun i -> Cs.alloc cs ~label:"sibling" (Fp.of_int (i + 1)))
  in
  ignore (root_gadget cs ~leaf:(v leaf) ~path_bits:bits ~siblings : expr)

(* The protocol circuits, parameterised by the hash composition.  Each is
   deployed as two registry arms ([<base>-poseidon] / [<base>-mimc]) so
   lint gates and benchmarks cover both sides of the ablation. *)
let parameterised =
  [
    ("cpla-depth8", fun composition cs -> Cpla.synthesize_dummy cs ~composition ~depth:8 ());
    ("cpla-depth16", fun composition cs -> Cpla.synthesize_dummy cs ~composition ~depth:16 ());
    ( "reward-majority-n3",
      fun _composition cs ->
        Reward_circuit.synthesize_dummy cs ~policy:(Policy.Majority { choices = 4 }) ~n:3 );
    ( "reward-majority-n5",
      fun _composition cs ->
        Reward_circuit.synthesize_dummy cs ~policy:(Policy.Majority { choices = 4 }) ~n:5 );
    ( "reward-quota-n3",
      fun _composition cs ->
        Reward_circuit.synthesize_dummy cs
          ~policy:(Policy.Majority_threshold { choices = 4; quota = 2 })
          ~n:3 );
    ( "reward-auction-n4",
      fun _composition cs ->
        Reward_circuit.synthesize_dummy cs
          ~policy:(Policy.Reverse_auction { winners = 2; max_bid = 15 })
          ~n:4 );
    ( "reputation-link",
      fun composition cs -> Reputation.synthesize_dummy cs ~composition () );
  ]

let arm_name base composition =
  Printf.sprintf "%s-%s" base (Hash_composition.to_string composition)

let circuits () =
  List.concat_map
    (fun (base, synth) ->
      List.map
        (fun composition -> (arm_name base composition, synth composition))
        Hash_composition.all)
    parameterised
  @ [
      ("merkle-mimc-16", merkle_circuit ~depth:16 Gadgets.merkle_root);
      ("merkle-poseidon-16", merkle_circuit ~depth:16 Zebra_poseidon.Poseidon.merkle_root_gadget);
    ]

(* Legacy bare names ("cpla-depth16") predate the composition arms; they
   resolve to the default (Poseidon) arm so pinned scripts keep working. *)
let find name =
  match List.assoc_opt name (circuits ()) with
  | Some f -> Some f
  | None when List.mem_assoc name parameterised ->
    List.assoc_opt (arm_name name Hash_composition.default) (circuits ())
  | None -> None

let names () = List.map fst (circuits ())
