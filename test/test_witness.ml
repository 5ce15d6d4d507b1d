(* Witness-only synthesis: a witness-only board must allocate the same
   wires with the same values, and count the same constraints, as a
   recording board running the same synthesis code — for every deployed
   circuit at its registry inputs and for the three prove paths at random
   inputs.  It must also refuse every structure query. *)

open Zebra_field
open Zebra_r1cs
module Snark = Zebra_snark.Snark
module Hc = Zebra_hashcomp.Hash_composition
module Cpla = Zebra_anonauth.Cpla
module Ra = Zebra_anonauth.Ra
module Elgamal = Zebra_elgamal.Elgamal
module Policy = Zebralancer.Policy
module Rc = Zebralancer.Reward_circuit
module Reputation = Zebralancer.Reputation
module Deployed = Zebralancer.Deployed

let qtest name ?(count = 25) ?print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen f)

(* Run [synth] on a board of each mode; [check] sees the recording one. *)
let both_modes ?(check = fun _ -> ()) synth =
  let r = Cs.create () and w = Cs.create_witness () in
  synth r;
  synth w;
  check r;
  Cs.recording r && (not (Cs.recording w))
  && Cs.num_vars r = Cs.num_vars w
  && Cs.num_inputs r = Cs.num_inputs w
  && Cs.num_constraints r = Cs.num_constraints w
  && Array.for_all2 Fp.equal (Cs.assignment r) (Cs.assignment w)

let satisfied cs = if not (Cs.is_satisfied cs) then failwith "honest witness unsatisfied"

(* --- structure queries refused --- *)

let witness_board () =
  let cs = Cs.create_witness () in
  let x = Cs.alloc cs ~label:"x" (Fp.of_int 3) in
  Gadgets.(enforce_eq cs (v (square cs (v x))) (ci 9));
  (cs, x)

let refuses name f =
  let cs, x = witness_board () in
  Alcotest.check_raises name
    (Invalid_argument (Printf.sprintf "Cs.%s: a witness-only board records no structure" name))
    (fun () -> f cs x)

let test_refuses_constraints () = refuses "constraints" (fun cs _ -> ignore (Cs.constraints cs))

let test_refuses_iter () =
  refuses "iter_constraints" (fun cs _ ->
      Cs.iter_constraints cs (fun ~index:_ ~label:_ _ _ _ -> ()))

let test_refuses_fold () =
  refuses "fold_constraints" (fun cs _ ->
      ignore (Cs.fold_constraints cs ~init:0 ~f:(fun n ~index:_ ~label:_ _ _ _ -> n + 1)))

let test_refuses_is_satisfied () = refuses "is_satisfied" (fun cs _ -> ignore (Cs.is_satisfied cs))

let test_refuses_find_unsatisfied () =
  refuses "find_unsatisfied" (fun cs _ -> ignore (Cs.find_unsatisfied cs))

let test_refuses_wire_label () = refuses "wire_label" (fun cs x -> ignore (Cs.wire_label cs x))

(* What a witness-only board still answers: counts and the assignment. *)
let test_counts_kept () =
  let cs, _ = witness_board () in
  Alcotest.(check int) "vars" 3 (Cs.num_vars cs);
  Alcotest.(check int) "constraints" 2 (Cs.num_constraints cs);
  Alcotest.(check bool) "square wire" true (Fp.equal (Cs.assignment cs).(2) (Fp.of_int 9))

(* Snark.prove's shape check still catches a witness board whose
   constraint count drifted from the proving key's. *)
let cubic cs x =
  let open Gadgets in
  let y = Cs.alloc_input cs (Fp.add (Fp.add (Fp.mul x (Fp.mul x x)) x) (Fp.of_int 5)) in
  let vx = Cs.alloc cs x in
  let x3 = mul cs (v (square cs (v vx))) (v vx) in
  enforce_eq cs (v x3 +: v vx +: ci 5) (v y);
  vx

let test_prove_rejects_drift () =
  let random_bytes = Zebra_rng.Source.fn (Zebra_rng.Source.of_seed "test_witness") in
  let recorded = Cs.create () in
  ignore (cubic recorded (Fp.of_int 2) : Cs.var);
  let { Snark.pk; vk; _ } = Snark.setup ~random_bytes recorded in
  let w = Cs.create_witness () in
  ignore (cubic w (Fp.of_int 5) : Cs.var);
  let proof = Snark.prove ~random_bytes pk w in
  Alcotest.(check bool) "witness board proves" true
    (Snark.verify vk ~public_inputs:(Cs.public_inputs w) proof);
  let drifted = Cs.create_witness () in
  let vx = cubic drifted (Fp.of_int 5) in
  Gadgets.(enforce_eq drifted (v vx) (ci 5));
  Alcotest.check_raises "one constraint too many"
    (Invalid_argument "Snark.prove: circuit shape mismatch with proving key") (fun () ->
      ignore (Snark.prove ~random_bytes pk drifted))

(* Constant folding is structural: [x - x] has value 0 but is not a
   circuit constant, on either board. *)
let test_const_structural () =
  let cs = Cs.create_witness () in
  let x = Gadgets.v (Cs.alloc cs (Fp.of_int 4)) in
  Alcotest.(check bool) "x - x is not folded" true (Gadgets.as_const Gadgets.(x -: x) = None);
  Alcotest.(check bool) "constant folds" true
    (match Gadgets.as_const Gadgets.(ci 2 +: scale (Fp.of_int 3) (ci 5)) with
    | Some k -> Fp.equal k (Fp.of_int 17)
    | None -> false);
  Alcotest.(check bool) "zero multiple folds" true
    (Gadgets.as_const (Gadgets.scale Fp.zero x) <> None)

(* --- equivalence --- *)

let test_registry_equivalence () =
  List.iter
    (fun (name, synth) -> Alcotest.(check bool) name true (both_modes synth))
    (Deployed.circuits ())

let seeded_bytes seed = Zebra_rng.Source.fn (Zebra_rng.Source.of_seed (string_of_int seed))

let prop_cpla =
  qtest "cpla: witness board = recording board"
    QCheck2.Gen.(triple (int_range 1 8) bool (int_bound 1_000_000))
    (fun (depth, poseidon, seed) ->
      let composition = if poseidon then Hc.Poseidon else Hc.Mimc in
      let random_bytes = seeded_bytes seed in
      let key = Cpla.keygen ~composition ~random_bytes () in
      let ra = Ra.create ~hash:composition ~depth () in
      let before = seed mod min 6 (Ra.capacity ra) in
      for _ = 1 to before do
        ignore (Ra.register ra (Fp.random random_bytes) : int)
      done;
      let index = Ra.register ra key.Cpla.pk in
      let prefix = Fp.random random_bytes and message = Fp.random random_bytes in
      let t1 = Hc.hash_list composition [ prefix; key.Cpla.sk ] in
      let t2 = Hc.hash_list composition [ prefix; message; key.Cpla.sk ] in
      both_modes ~check:satisfied (fun cs ->
          Cpla.synthesize cs ~composition ~depth ~prefix ~message ~root:(Ra.root ra) ~t1 ~t2
            ~sk:key.Cpla.sk ~index ~path:(Ra.path ra index)))

let gen_policy =
  QCheck2.Gen.(
    oneof
      [
        map (fun choices -> Policy.Majority { choices }) (int_range 2 4);
        map2
          (fun choices quota -> Policy.Majority_threshold { choices; quota })
          (int_range 2 4) (int_range 1 3);
        map2
          (fun winners max_bid -> Policy.Reverse_auction { winners; max_bid })
          (int_range 1 3) (int_range 1 15);
      ])

let prop_reward =
  qtest "reward: witness board = recording board"
    ~print:(fun (policy, n, seed) -> Format.asprintf "%a n=%d seed=%d" Policy.pp policy n seed)
    QCheck2.Gen.(triple gen_policy (int_range 1 5) (int_bound 1_000_000))
    (fun (policy, n, seed) ->
      let random_bytes = seeded_bytes seed in
      let esk, epk = Elgamal.generate ~random_bytes in
      let pick k = Char.code (Bytes.get (random_bytes 1) 0) mod k in
      (* about one slot in four is missing *)
      let answers =
        Array.init n (fun _ ->
            if pick 4 = 0 then None else Some (pick (Policy.answer_space policy)))
      in
      let budget = 1 + pick 200 in
      let cts =
        Array.map
          (function
            | Some a -> Elgamal.encrypt ~random_bytes epk (Elgamal.encode_answer a)
            | None -> Elgamal.missing)
          answers
      in
      let plaintexts =
        Array.map (fun ct -> if Elgamal.is_missing ct then Fp.zero else Elgamal.decrypt esk ct) cts
      in
      both_modes ~check:satisfied (fun cs ->
          Rc.synthesize cs ~policy ~epk
            ~rho:(Rc.rho_of ~policy ~budget ~n)
            ~cts
            ~rewards:(Policy.rewards policy ~budget ~n answers)
            ~esk_bits:(Elgamal.secret_bits esk) ~plaintexts))

let prop_link =
  qtest "link: witness board = recording board"
    QCheck2.Gen.(triple bool (int_bound 1000) (int_bound 1_000_000))
    (fun (poseidon, epoch, seed) ->
      let composition = if poseidon then Hc.Poseidon else Hc.Mimc in
      let random_bytes = seeded_bytes seed in
      let key = Cpla.keygen ~composition ~random_bytes () in
      let task_prefix = Fp.random random_bytes in
      both_modes ~check:satisfied (fun cs ->
          Reputation.synthesize cs ~composition
            ~task_tag:(Reputation.task_tag ~composition key ~task_prefix)
            ~pseudonym:(Reputation.epoch_pseudonym ~composition key ~epoch)
            ~task_prefix ~epoch:(Fp.of_int epoch) ~sk:key.Cpla.sk))

let () =
  Alcotest.run "witness"
    [
      ( "refusals",
        [
          Alcotest.test_case "constraints" `Quick test_refuses_constraints;
          Alcotest.test_case "iter_constraints" `Quick test_refuses_iter;
          Alcotest.test_case "fold_constraints" `Quick test_refuses_fold;
          Alcotest.test_case "is_satisfied" `Quick test_refuses_is_satisfied;
          Alcotest.test_case "find_unsatisfied" `Quick test_refuses_find_unsatisfied;
          Alcotest.test_case "wire_label" `Quick test_refuses_wire_label;
          Alcotest.test_case "counts and assignment kept" `Quick test_counts_kept;
          Alcotest.test_case "prove rejects a drifted board" `Quick test_prove_rejects_drift;
          Alcotest.test_case "constant folding is structural" `Quick test_const_structural;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "every deployed circuit" `Quick test_registry_equivalence;
          prop_cpla;
          prop_reward;
          prop_link;
        ] );
    ]
