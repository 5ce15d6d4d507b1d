(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI) plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table1     -- Table I
     dune exec bench/main.exe fig4       -- Figure 4
     dune exec bench/main.exe memory | link | endtoend | ablation-fft |
                              ablation-field | nonanon | obs | parallel |
                              lint | field | snark | chaos | load

   Shape, not absolute numbers, is the reproduction target: our substrate
   is a designated-verifier QAP SNARK over Poseidon (MiMC = ablation arm),
   the paper's is
   libsnark over SHA-256/RSA circuits on 2012-2014 Xeons (see
   EXPERIMENTS.md for the side-by-side reading). *)

open Zebra_field

open Zebralancer
module Snark = Zebra_snark.Snark
module Cs = Zebra_r1cs.Cs
module Cpla = Zebra_anonauth.Cpla
module Ra = Zebra_anonauth.Ra
module Hc = Zebra_hashcomp.Hash_composition
module Elgamal = Zebra_elgamal.Elgamal
module Network = Zebra_chain.Network
module Tx = Zebra_chain.Tx
module Wallet = Zebra_chain.Wallet
module State = Zebra_chain.State

let rng = Zebra_rng.Chacha20.create ~seed:"zebralancer-bench"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

(* --- timing helpers --- *)

(* Bechamel OLS estimate of ns/run for a thunk. *)
let bechamel_ns ?(quota = 0.5) name fn =
  let open Bechamel in
  let open Toolkit in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let test = Test.make ~name (Staged.stage fn) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let est = Hashtbl.fold (fun _ v acc -> v :: acc) results [] in
  match est with
  | [ r ] -> (match Analyze.OLS.estimates r with Some (v :: _) -> v | _ -> nan)
  | _ -> nan

let wall fn =
  let t0 = Unix.gettimeofday () in
  let x = fn () in
  (x, Unix.gettimeofday () -. t0)

let ms x = x /. 1e6
let header title = Printf.printf "\n===== %s =====\n%!" title

(* --- fixtures --- *)

let bench_tree_depth = 16 (* RA capacity 65536, as a deployment would use *)

let cpla_fixture =
  lazy
    (let params = Cpla.setup ~random_bytes ~depth:bench_tree_depth () in
     let ra = Ra.create ~depth:bench_tree_depth () in
     let key = Cpla.keygen ~random_bytes () in
     let index = Ra.register ra key.Cpla.pk in
     (params, ra, key, index))

let make_attestation () =
  let params, ra, key, index = Lazy.force cpla_fixture in
  let prefix = Fp.random random_bytes and message = Fp.random random_bytes in
  let att =
    Cpla.auth ~random_bytes params ~prefix ~message ~key ~index ~path:(Ra.path ra index)
      ~root:(Ra.root ra)
  in
  (params, prefix, message, Ra.root ra, att)

(* A majority reward instance for a given n, mostly-honest answers. *)
let majority_instance ~n =
  let policy = Policy.Majority { choices = 4 } in
  let circuit = Reward_circuit.setup ~random_bytes ~policy ~n () in
  let esk, epk = Elgamal.generate ~random_bytes in
  let answers = Array.init n (fun i -> Some (if i mod 4 = 3 then 2 else 1)) in
  let cts =
    Array.map
      (function
        | Some a -> Elgamal.encrypt ~random_bytes epk (Elgamal.encode_answer a)
        | None -> Elgamal.missing)
      answers
  in
  let budget = 30 * n in
  let rewards = Policy.rewards policy ~budget ~n answers in
  let rho = Reward_circuit.rho_of ~policy ~budget ~n in
  let proof = Reward_circuit.prove ~random_bytes circuit ~esk ~rho ~cts ~rewards in
  let vk = Reward_circuit.vk_bytes circuit in
  assert (Reward_circuit.verify ~vk_bytes:vk ~epk ~rho ~cts ~rewards proof);
  (circuit, vk, epk, rho, cts, rewards, proof)

let inputs_size inputs = 32 * Array.length inputs

(* --- Table I --- *)

let paper_table1 =
  (* label, proof B, key KB, inputs KB, time@PC-A ms, time@PC-B ms *)
  [
    ("Anonymous authentication", 729, 1.2, 1.5, 10.9, 6.2);
    ("Majority (3-Worker)", 729, 16.0, 3.4, 15.5, 9.1);
    ("Majority (5-Worker)", 730, 21.6, 4.7, 16.3, 9.8);
    ("Majority (7-Worker)", 731, 27.3, 6.0, 17.0, 10.3);
    ("Majority (9-Worker)", 729, 32.9, 7.3, 17.5, 12.1);
    ("Majority (11-Worker)", 730, 38.6, 8.6, 17.9, 13.1);
  ]

let table1 () =
  header "Table I: execution time of in-contract zk-SNARK verifications";
  Printf.printf "%-26s | %8s %8s %10s %9s || %s\n" "verification for" "proof B" "key KB"
    "inputs KB" "time ms" "paper: proof/key/inputs/time@A/time@B";
  let row label ~proof_b ~key_b ~inputs_b ~time_ns (p_proof, p_key, p_in, p_ta, p_tb) =
    Printf.printf "%-26s | %8d %8.1f %10.2f %9.2f || %dB / %.1fKB / %.1fKB / %.1fms / %.1fms\n%!"
      label proof_b
      (float_of_int key_b /. 1024.)
      (float_of_int inputs_b /. 1024.)
      (ms time_ns) p_proof p_key p_in p_ta p_tb
  in
  (* Row 1: the CPLA attestation verification. *)
  let params, prefix, message, root, att = make_attestation () in
  let vk_bytes = Cpla.vk_to_bytes params in
  let t =
    bechamel_ns "auth-verify" (fun () ->
        assert (Cpla.verify_with_vk ~vk_bytes ~prefix ~message ~root att))
  in
  (match paper_table1 with
  | (_, p1, p2, p3, p4, p5) :: _ ->
    row "Anonymous authentication"
      ~proof_b:(Cpla.attestation_size_bytes att)
      ~key_b:(Bytes.length vk_bytes)
      ~inputs_b:(inputs_size [| prefix; message; root; att.Cpla.t1; att.Cpla.t2 |])
      ~time_ns:t (p1, p2, p3, p4, p5)
  | [] -> assert false);
  (* Rows 2-6: the majority reward verification for n = 3..11. *)
  List.iteri
    (fun i n ->
      let _, vk, epk, rho, cts, rewards, proof = majority_instance ~n in
      let t =
        bechamel_ns (Printf.sprintf "majority-%d" n) (fun () ->
            assert (Reward_circuit.verify ~vk_bytes:vk ~epk ~rho ~cts ~rewards proof))
      in
      let label, p1, p2, p3, p4, p5 =
        match List.nth paper_table1 (i + 1) with a, b, c, d, e, f -> (a, b, c, d, e, f)
      in
      row label
        ~proof_b:(Snark.proof_size_bytes proof)
        ~key_b:(Bytes.length vk)
        ~inputs_b:(inputs_size (Reward_circuit.public_inputs ~epk ~rho ~cts ~rewards))
        ~time_ns:t (p1, p2, p3, p4, p5))
    [ 3; 5; 7; 9; 11 ];
  Printf.printf
    "\nshape checks: proof size constant; key and input sizes linear in n;\n\
     verification fast and growing slowly with n (paper: 10.9 -> 17.9 ms).\n%!"

(* --- Figure 4 --- *)

let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  let q p = a.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5))) in
  (a.(0), q 0.25, a.(n / 2), q 0.75, a.(n - 1))

let fig4 () =
  header "Figure 4: time to generate an anonymous attestation (12 runs)";
  Printf.printf
    "the paper contrasts two CPUs (3.1 vs 3.6 GHz); we contrast two RA tree\n\
     depths (8 vs 16), the knob that scales our Auth circuit the same way.\n\n";
  let bench_depth depth =
    let params = Cpla.setup ~random_bytes ~depth () in
    let ra = Ra.create ~depth () in
    let key = Cpla.keygen ~random_bytes () in
    let index = Ra.register ra key.Cpla.pk in
    let times =
      List.init 12 (fun i ->
          let prefix = Fp.of_int (1000 + i) and message = Fp.random random_bytes in
          let _, dt =
            wall (fun () ->
                Cpla.auth ~random_bytes params ~prefix ~message ~key ~index
                  ~path:(Ra.path ra index) ~root:(Ra.root ra))
          in
          dt)
    in
    let mn, q1, med, q3, mx = quartiles times in
    Printf.printf
      "depth %2d (%5d constraints): min %.2fs  q1 %.2fs  median %.2fs  q3 %.2fs  max %.2fs\n%!"
      depth (Cpla.circuit_size params) mn q1 med q3 mx;
    med
  in
  let m8 = bench_depth 8 in
  let m16 = bench_depth 16 in
  Printf.printf
    "\npaper: ~62s (PC-B) and ~78s (PC-A), tightly clustered.  ours: %.2fs and %.2fs.\n\
     absolute times are far smaller because Poseidon replaces in-circuit SHA-256/RSA;\n\
     the shape holds: generation is orders of magnitude above verification, and\n\
     tightly clustered across runs.\n%!"
    m8 m16

(* --- X1: verification memory --- *)

let memory () =
  header "X1: spatial cost of verification (paper: constant ~17MB)";
  let params, prefix, message, root, att = make_attestation () in
  let vk_bytes = Cpla.vk_to_bytes params in
  Gc.compact ();
  let before = Gc.stat () in
  for _ = 1 to 50 do
    assert (Cpla.verify_with_vk ~vk_bytes ~prefix ~message ~root att)
  done;
  Gc.compact ();
  let after = Gc.stat () in
  let live_mb (st : Gc.stat) = float_of_int st.Gc.live_words *. 8.0 /. 1024. /. 1024. in
  let alloc_mb =
    (after.Gc.minor_words +. after.Gc.major_words -. before.Gc.minor_words
    -. before.Gc.major_words)
    *. 8. /. 1024. /. 1024. /. 50.
  in
  Printf.printf
    "live heap before %.2fMB, after 50 verifications %.2fMB;\n\
     %.2fMB allocated per verification, all short-lived.\n\
     paper: exactly 17MB main memory, constant across n.  shape holds: flat.\n%!"
    (live_mb before) (live_mb after) alloc_mb

(* --- X2: Link cost --- *)

let link () =
  header "X2: Link is a tag equality - O(n^2) total cost is 'nearly nothing'";
  let _, _, _, _, real = make_attestation () in
  let atts = Array.init 1000 (fun i -> { real with Cpla.t1 = Fp.of_int (i + 1) }) in
  List.iter
    (fun n ->
      let _, dt =
        wall (fun () ->
            let hits = ref 0 in
            for i = 0 to n - 1 do
              for j = 0 to i - 1 do
                if Cpla.link atts.(i) atts.(j) then incr hits
              done
            done;
            assert (!hits = 0))
      in
      Printf.printf "  n = %4d submissions: %7d link checks in %8.3f ms (%.0f ns each)\n%!" n
        (n * (n - 1) / 2)
        (dt *. 1e3)
        (dt *. 1e9 /. float_of_int (max 1 (n * (n - 1) / 2))))
    [ 10; 50; 100; 500; 1000 ];
  Printf.printf
    "paper's claim verified: an equality over two hashes, negligible next to one\n\
     SNARK verification.\n%!"

(* --- X3: end-to-end --- *)

let endtoend () =
  header "X3: end-to-end task latency and on-chain cost on the simulated chain";
  let sys = Protocol.create_system ~seed:"bench-endtoend" () in
  Printf.printf "%4s | %9s %9s %9s | %10s %14s\n" "n" "publish" "collect" "reward" "gas total"
    "bytes on-chain";
  List.iter
    (fun n ->
      let answers = List.init n (fun i -> if i mod 4 = 3 then 2 else 1) in
      let requester = Protocol.enroll sys in
      let workers = List.map (fun a -> (Protocol.enroll sys, a)) answers in
      let h0 = List.length (Network.blocks sys.Protocol.net) in
      let task, t_pub =
        wall (fun () ->
            Protocol.publish_task sys ~requester ~policy:(Policy.Majority { choices = 4 }) ~n
              ~budget:(30 * n) ())
      in
      let _, t_col =
        wall (fun () -> Protocol.submit_answers sys ~task:task.Requester.contract ~workers)
      in
      let _, t_rew = wall (fun () -> Protocol.reward sys task) in
      let new_blocks = List.filteri (fun i _ -> i >= h0) (Network.blocks sys.Protocol.net) in
      let bytes =
        List.fold_left
          (fun acc (b : Zebra_chain.Block.t) ->
            List.fold_left (fun acc tx -> acc + Tx.size_bytes tx) acc b.Zebra_chain.Block.txs)
          0 new_blocks
      in
      let gas =
        List.fold_left
          (fun acc (b : Zebra_chain.Block.t) ->
            List.fold_left
              (fun acc tx ->
                match Network.receipt sys.Protocol.net (Tx.hash tx) with
                | Some r -> acc + r.State.gas_used
                | None -> acc)
              acc b.Zebra_chain.Block.txs)
          0 new_blocks
      in
      Printf.printf "%4d | %8.2fs %8.2fs %8.2fs | %10d %14d\n%!" n t_pub t_col t_rew gas bytes)
    [ 3; 5; 7; 9; 11 ];
  Printf.printf
    "off-chain proving dominates; on-chain work stays light (one SNARK verify per tx),\n\
     matching the paper's design goal for miners.\n%!"

(* --- X4: FFT ablation --- *)

let ablation_fft () =
  header "X4 ablation: quotient polynomial via coset FFT vs naive division";
  Printf.printf "%8s | %12s %12s %8s\n" "degree" "fft (ms)" "naive (ms)" "speedup";
  List.iter
    (fun log_d ->
      let d = 1 lsl log_d in
      let dom = Zebra_field.Fft.domain d in
      let a = Array.init d (fun _ -> Fp.random random_bytes) in
      let b = Array.init d (fun _ -> Fp.random random_bytes) in
      (* FFT path: evaluate a*b on a coset, divide by Z there, interpolate. *)
      let fft_once () =
        let ea = Fp.Vec.of_array a and eb = Fp.Vec.of_array b in
        Zebra_field.Fft.coset_fft_vec dom ea;
        Zebra_field.Fft.coset_fft_vec dom eb;
        let zinv = Fp.inv (Zebra_field.Fft.vanishing_on_coset dom) in
        let h = Fp.Vec.create d in
        let tmp = Fp.buffer () in
        for i = 0 to d - 1 do
          Fp.Vec.mul_into_elt ~dst:tmp ea i eb i;
          Fp.Vec.set_mul h i tmp zinv
        done;
        Zebra_field.Fft.coset_ifft_vec dom h;
        h
      in
      (* Naive path: schoolbook product then polynomial long division. *)
      let naive_once () =
        let prod = Zebra_field.Poly.mul (Zebra_field.Poly.of_coeffs (Array.copy a)) (Zebra_field.Poly.of_coeffs (Array.copy b)) in
        let z = Array.make (d + 1) Fp.zero in
        z.(0) <- Fp.neg Fp.one;
        z.(d) <- Fp.one;
        fst (Zebra_field.Poly.divmod prod (Zebra_field.Poly.of_coeffs z))
      in
      let _, t_fft = wall fft_once in
      let _, t_naive = wall naive_once in
      Printf.printf "%8d | %12.2f %12.2f %7.1fx\n%!" d (t_fft *. 1e3) (t_naive *. 1e3)
        (t_naive /. t_fft))
    [ 7; 9; 11 ];
  Printf.printf "the FFT path is what keeps attestation generation in seconds.\n%!"

(* --- X5: field ablation --- *)

let ablation_field () =
  header "X5 ablation: Montgomery vs divide-and-reduce field multiplication";
  let a = Fp.random random_bytes and b = Fp.random random_bytes in
  let an = Fp.to_nat a and bn = Fp.to_nat b in
  let t_mont = bechamel_ns "mont" (fun () -> ignore (Fp.mul a b)) in
  let t_naive = bechamel_ns "naive" (fun () -> ignore (Nat.rem (Nat.mul an bn) Fp.modulus)) in
  Printf.printf "montgomery: %7.0f ns/mul    naive mul+rem: %7.0f ns/mul    speedup %.1fx\n%!"
    t_mont t_naive (t_naive /. t_mont);
  Printf.printf "every SNARK number above stands on ~10^6 of these per proof.\n%!"

(* --- X7: circuit-hash ablation --- *)

let ablation_hash () =
  header "X7 ablation: MiMC vs Poseidon as the in-circuit hash";
  Printf.printf
    "the paper's circuits hashed with SHA-256 (~28k constraints per call);\n\
     Poseidon is the deployed default, MiMC the ablation arm (DESIGN.md,\n\
     \"Hash composition\").  Depth-16 Merkle circuit, via the same\n\
     Hash_composition dispatch the CPLA circuit compiles through:\n\n";
  let build composition =
    let cs = Cs.create () in
    let open Zebra_r1cs.Gadgets in
    let leaf = Cs.alloc cs (Fp.random random_bytes) in
    let bits = Array.init 16 (fun _ -> alloc_bit cs false) in
    let siblings = Array.init 16 (fun _ -> Cs.alloc cs (Fp.random random_bytes)) in
    ignore (Hc.merkle_root_gadget composition cs ~leaf:(v leaf) ~path_bits:bits ~siblings);
    cs
  in
  let profile composition =
    let cs = build composition in
    let kp = Snark.setup ~random_bytes cs in
    let _, t_prove = wall (fun () -> Snark.prove ~random_bytes kp.Snark.pk cs) in
    Printf.printf "  %-9s: %6d constraints, proving %6.2fs\n%!"
      (Hc.to_string composition) (Cs.num_constraints cs) t_prove;
    (Cs.num_constraints cs, t_prove)
  in
  let cm, tm = profile Hc.Mimc in
  let cp, tp = profile Hc.Poseidon in
  Printf.printf
    "  poseidon uses %.1fx fewer constraints and proves %.1fx faster -- the same\n\
     lever that would have taken the paper's 78s attestations to seconds.\n%!"
    (float_of_int cm /. float_of_int cp)
    (tm /. tp)

(* --- X6: non-anonymous mode --- *)

let nonanon () =
  header "X6: cost of anonymity - CPLA attestation vs plain certified signature";
  let wallet = Wallet.generate ~bits:2048 ~random_bytes () in
  let msg = Bytes.of_string "submission: alphaC || alphaI || C_i" in
  let t_sign = bechamel_ns ~quota:1.0 "rsa-sign" (fun () -> ignore (Wallet.sign wallet msg)) in
  let signature = Wallet.sign wallet msg in
  let t_verify =
    bechamel_ns "rsa-verify" (fun () ->
        assert (Zebra_rsa.Pkcs1.verify (Wallet.public_key wallet) ~msg ~signature))
  in
  let params, ra, key, index = Lazy.force cpla_fixture in
  let prefix = Fp.random random_bytes and message = Fp.random random_bytes in
  let att, t_auth =
    wall (fun () ->
        Cpla.auth ~random_bytes params ~prefix ~message ~key ~index ~path:(Ra.path ra index)
          ~root:(Ra.root ra))
  in
  let vkb = Cpla.vk_to_bytes params in
  let t_averify =
    bechamel_ns "cpla-verify" (fun () ->
        assert (Cpla.verify_with_vk ~vk_bytes:vkb ~prefix ~message ~root:(Ra.root ra) att))
  in
  Printf.printf "non-anonymous (RSA-2048 sign/verify): %8.2f ms / %8.2f ms\n" (ms t_sign)
    (ms t_verify);
  Printf.printf "anonymous     (CPLA auth/verify)    : %8.0f ms / %8.2f ms\n" (t_auth *. 1e3)
    (ms t_averify);
  Printf.printf
    "paper Section VI: the non-anonymous mode 'costs nearly nothing' - confirmed;\n\
     anonymity costs ~%.0fx at generation, while verification stays comparable.\n%!"
    (t_auth *. 1e9 /. t_sign)

(* --- X8: observability profile --- *)

let obs () =
  header "X8: per-phase profile from the observability layer";
  let module Obs = Zebra_obs.Obs in
  Obs.reset ();
  Obs.set_enabled true;
  let sys = Protocol.create_system ~seed:"bench-obs" () in
  let _task, _wallets, rewards =
    Protocol.run_task sys ~policy:(Policy.Majority { choices = 4 }) ~budget:90
      ~answers:[ 1; 1; 2 ]
  in
  Obs.set_enabled false;
  Printf.printf "one 3-worker majority task end-to-end; rewards [%s]\n\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int rewards)));
  print_string (Obs.render_tree ());
  let json = Obs.to_json_string () in
  let oc = open_out "BENCH_obs.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote BENCH_obs.json (%d bytes)\n%!" (String.length json)

(* --- X9: multicore scaling --- *)

let parallel () =
  header "X9: prover scaling over the Domain pool (ZEBRA_DOMAINS curve)";
  let module Parallel = Zebra_parallel.Parallel in
  let module Json = Zebra_obs.Json in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "host reports %d recommended domain(s)%s\n\n" cores
    (if cores = 1 then " - expect a flat curve on this machine" else "");
  let saved = Parallel.default_domains () in
  (* Proving: one depth-16 MiMC Merkle circuit, one setup, then the same
     proof at 1/2/4 domains, best of 3 each.  Each run re-seeds its own RNG so the proofs
     must come out byte-identical - that equality is asserted, it is the
     determinism contract under test. *)
  let cs =
    let cs = Cs.create () in
    let open Zebra_r1cs.Gadgets in
    let leaf = Cs.alloc cs (Fp.random random_bytes) in
    let bits = Array.init 16 (fun _ -> alloc_bit cs false) in
    let siblings = Array.init 16 (fun _ -> Cs.alloc cs (Fp.random random_bytes)) in
    ignore (merkle_root cs ~leaf:(v leaf) ~path_bits:bits ~siblings);
    cs
  in
  let kp = Snark.setup ~random_bytes cs in
  let domain_counts = [ 1; 2; 4 ] in
  let prove_at nd =
    Parallel.set_default_domains nd;
    (* Best of 3: the first region on a fresh pool runs well below the
       pool's steady speed. *)
    let runs =
      List.init 3 (fun _ ->
          let r = Zebra_rng.Chacha20.create ~seed:"bench-parallel-prove" in
          let proof, dt =
            wall (fun () -> Snark.prove ~random_bytes:(Zebra_rng.Chacha20.bytes r) kp.Snark.pk cs)
          in
          (Snark.proof_to_bytes proof, dt))
    in
    let proof = fst (List.hd runs) in
    assert (List.for_all (fun (p, _) -> Bytes.equal p proof) runs);
    (proof, List.fold_left (fun acc (_, dt) -> Float.min acc dt) infinity runs)
  in
  let prove_runs = List.map (fun nd -> (nd, prove_at nd)) domain_counts in
  let base_proof, base_t =
    match prove_runs with (_, r) :: _ -> r | [] -> assert false
  in
  Printf.printf "%-28s (%d constraints):\n" "Snark.prove" (Cs.num_constraints cs);
  List.iter
    (fun (nd, (proof, dt)) ->
      assert (Bytes.equal proof base_proof);
      Printf.printf "  %d domain(s): %7.3fs  speedup %.2fx  proof identical: yes\n%!" nd dt
        (base_t /. dt))
    prove_runs;
  (* FFT: coset round trips at 2^12 (a deployed circuit's domain, the
     smallest size whose stages fan out) and 2^15.  Best of [reps] runs
     per domain count; each run must restore its input exactly. *)
  let fft_curve log_d reps =
    let d = 1 lsl log_d in
    let dom = Zebra_field.Fft.domain d in
    let v0 = Fp.Vec.of_array (Array.init d (fun _ -> Fp.random random_bytes)) in
    let fft_at nd =
      Parallel.set_default_domains nd;
      let best = ref infinity in
      for _ = 1 to reps do
        let v = Fp.Vec.copy v0 in
        let _, dt =
          wall (fun () ->
              Zebra_field.Fft.coset_fft_vec dom v;
              Zebra_field.Fft.coset_ifft_vec dom v)
        in
        assert (Fp.Vec.to_array v = Fp.Vec.to_array v0);
        best := Float.min !best dt
      done;
      !best
    in
    let runs = List.map (fun nd -> (nd, fft_at nd)) domain_counts in
    let base = match runs with (_, t) :: _ -> t | [] -> assert false in
    Printf.printf "\ncoset FFT round trip (2^%d, best of %d):\n" log_d reps;
    List.iter
      (fun (nd, dt) ->
        Printf.printf "  %d domain(s): %8.4fs  speedup %.2fx\n%!" nd dt (base /. dt))
      runs;
    (log_d, runs, base)
  in
  let fft_4096 = fft_curve 12 30 in
  let fft_curves = [ fft_4096; fft_curve 15 3 ] in
  Parallel.set_default_domains saved;
  let curve runs base =
    Json.List
      (List.map
         (fun (nd, dt) ->
           Json.Obj
             [
               ("domains", Json.Num (float_of_int nd));
               ("seconds", Json.Num dt);
               ("speedup", Json.Num (base /. dt));
             ])
         runs)
  in
  let json =
    Json.to_string
      (Json.Obj
         [
           ("recommended_domain_count", Json.Num (float_of_int cores));
           ("prove_constraints", Json.Num (float_of_int (Cs.num_constraints cs)));
           ("prove", curve (List.map (fun (nd, (_, dt)) -> (nd, dt)) prove_runs) base_t);
           ("proofs_identical", Json.Bool true);
           ( "fft_roundtrip",
             Json.List
               (List.map
                  (fun (log_d, runs, base) ->
                    Json.Obj
                      [ ("log_size", Json.Num (float_of_int log_d)); ("curve", curve runs base) ])
                  fft_curves) );
         ])
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "\nwrote BENCH_parallel.json (%d bytes)\n\
     read speedups against recommended_domain_count: no curve can rise past the\n\
     host's core count (see PERFORMANCE.md).\n%!"
    (String.length json)

(* --- X10: static-analyzer cost --- *)

(* --- snark: sparse kernels, keypair cache, batched audit (BENCH_snark.json) ---

   Guards the PR-5 optimisation triple: sparse prover kernels + twiddle
   tables (>= 1.5x prove on the largest deployed reward circuit), the
   content-addressed keypair cache (hit >= 100x cheaper than a setup miss),
   and RLC-batched audit verification (>= 2x over stateless per-proof
   verification at 8 submissions).  The baseline block is the pre-PR
   measurement this tree is compared against; the proof digest must not
   move at all — the optimisations are exact rewrites. *)

let snark_prove_seed = "bench-snark-prove"
let snark_setup_seed = "bench-snark-setup"

(* Pre-PR numbers, measured at commit ce50ef0 (min/median of 9 runs,
   ZEBRA_DOMAINS=1, single-core container) with the same seeds. *)
let snark_baseline_min = 0.5338
let snark_baseline_median = 0.6145
let snark_expected_digest = "0571fea4ba550fcf0b4269296b622188adf980c3bf002489fa14e6cff7c4402a"

let snark_reward_circuit () =
  Reward_circuit.constraint_system ~policy:(Policy.Majority { choices = 4 }) ~n:5

let snark_prove_digest () =
  let cs = snark_reward_circuit () in
  let kp = Snark.setup_rng ~rng:(Zebra_rng.Source.of_seed snark_setup_seed) cs in
  let proof = Snark.prove_rng ~rng:(Zebra_rng.Source.of_seed snark_prove_seed) kp.Snark.pk cs in
  Zebra_hashing.Sha256.to_hex (Zebra_hashing.Sha256.digest (Snark.proof_to_bytes proof))

(* CPLA arm digests: one full attestation per hash composition at the
   smaller deployed depth, all randomness seed-derived, so the proof bytes
   are a deterministic function of the tree alone.  check.sh diffs the
   poseidon digest across ZEBRA_DOMAINS x ZEBRA_KEYCACHE settings. *)
let snark_cpla_depth = 8

let snark_cpla_expected = function
  | Hc.Poseidon -> "5a4895c25784fefa60837b1c2732e9e40b23d01aefad767c78bea9d6ce3259c7"
  | Hc.Mimc -> "27b0622b52b845eb192a976fcf043b9885957a0d00448ad297a13b3138fc8f5c"

let snark_cpla_digest composition =
  let module Source = Zebra_rng.Source in
  let params =
    Cpla.setup_rng ~composition ~rng:(Source.of_seed snark_setup_seed) ~depth:snark_cpla_depth ()
  in
  let key = Cpla.keygen_rng ~composition ~rng:(Source.of_seed "bench-snark-cpla-key") () in
  let ra = Ra.create ~hash:composition ~depth:snark_cpla_depth () in
  let index = Ra.register ra key.Cpla.pk in
  let prefix = Fp.of_int 7 and message = Fp.of_int 11 in
  let att =
    Cpla.auth_rng ~rng:(Source.of_seed snark_prove_seed) params ~prefix ~message ~key ~index
      ~path:(Ra.path ra index) ~root:(Ra.root ra)
  in
  assert (Cpla.verify params ~prefix ~message ~root:(Ra.root ra) att);
  Zebra_hashing.Sha256.to_hex (Zebra_hashing.Sha256.digest (Snark.proof_to_bytes att.Cpla.proof))

let snark () =
  header "X11: sparse prover kernels, keypair cache, batched audit";
  let module Json = Zebra_obs.Json in
  let module Source = Zebra_rng.Source in
  let cs = snark_reward_circuit () in
  (* Prover: min/median of 7 runs against the recorded pre-PR baseline. *)
  let kp, setup_miss =
    wall (fun () -> Snark.setup_rng ~rng:(Source.of_seed snark_setup_seed) cs)
  in
  let digest = ref "" in
  let times =
    Array.init 7 (fun _ ->
        let proof, dt =
          wall (fun () -> Snark.prove_rng ~rng:(Source.of_seed snark_prove_seed) kp.Snark.pk cs)
        in
        digest :=
          Zebra_hashing.Sha256.to_hex
            (Zebra_hashing.Sha256.digest (Snark.proof_to_bytes proof));
        dt)
  in
  Array.sort compare times;
  let prove_min = times.(0) and prove_med = times.(3) in
  if !digest <> snark_expected_digest then begin
    Printf.eprintf "FATAL: proof digest moved: %s (expected %s)\n%!" !digest
      snark_expected_digest;
    exit 1
  end;
  Printf.printf
    "reward-majority-n5 (%d constraints): prove min %.3fs med %.3fs (baseline %.3f/%.3f -> %.2fx)\n\
     proof digest unchanged: %s\n%!"
    (Cs.num_constraints cs) prove_min prove_med snark_baseline_min snark_baseline_median
    (snark_baseline_min /. prove_min)
    (String.sub !digest 0 16);
  (* Keypair cache: a named hit skips synthesis and setup entirely. *)
  let cache = Snark.Keycache.create ~capacity:4 () in
  let _ =
    Snark.Keycache.setup_named cache ~circuit_id:"bench/reward-n5" ~seed:snark_setup_seed
      snark_reward_circuit
  in
  let hit_ns =
    bechamel_ns "keycache-hit" (fun () ->
        ignore
          (Snark.Keycache.setup_named cache ~circuit_id:"bench/reward-n5"
             ~seed:snark_setup_seed snark_reward_circuit))
  in
  let hit_s = hit_ns /. 1e9 in
  Printf.printf "keycache: setup miss %.3fs, named hit %.1f us (%.0fx cheaper)\n%!" setup_miss
    (hit_ns /. 1e3) (setup_miss /. hit_s);
  (* Decoded-VK cache. *)
  let vk_bytes = Snark.vk_to_bytes kp.Snark.vk in
  let decode_ns = bechamel_ns "vk-decode" (fun () -> ignore (Snark.vk_of_bytes vk_bytes)) in
  let cached_ns =
    bechamel_ns "vk-cached" (fun () -> ignore (Snark.vk_of_bytes_cached vk_bytes))
  in
  Printf.printf "vk decode: %.1f us cold, %.2f us cached\n%!" (decode_ns /. 1e3)
    (cached_ns /. 1e3);
  (* Batched audit: 8 attestations under the contract's one CPLA key.
     Sequential = the stateless pre-batching path (decode + verify per
     proof); batched = one decode plus one RLC check, the audit_task path. *)
  let atts = Array.init 8 (fun _ -> make_attestation ()) in
  let params, _, _, _, _ = atts.(0) in
  let auth_vk = Cpla.vk_to_bytes params in
  let items =
    Array.map
      (fun (_, prefix, message, root, att) ->
        (Cpla.public_inputs ~prefix ~message ~root att, att.Cpla.proof))
      atts
  in
  let seq_ns =
    bechamel_ns "audit-sequential" (fun () ->
        Array.iter
          (fun (pi, proof) ->
            let vk = Snark.vk_of_bytes auth_vk in
            assert (Snark.verify vk ~public_inputs:pi proof))
          items)
  in
  let batch_ns =
    bechamel_ns "audit-batched" (fun () ->
        let vk = Snark.vk_of_bytes_cached auth_vk in
        (* Fiat–Shamir challenge derivation included: it is part of the
           audit_task path being modelled. *)
        let rng = Source.of_seed (Snark.batch_seed ~tag:"bench-snark-audit#0" items) in
        assert (Snark.batch_verify ~rng vk items))
  in
  Printf.printf "audit of 8: sequential %.1f us, batched %.1f us (%.1fx)\n%!" (seq_ns /. 1e3)
    (batch_ns /. 1e3) (seq_ns /. batch_ns);
  (* Poseidon vs MiMC: the two CPLA arms at depth 8, constraint count,
     setup and prove, plus the pinned attestation digest per arm.  The
     digest gate is as fatal as the reward one: a silent move here means
     the hash migration changed proof bytes it was not supposed to. *)
  let cpla_arm composition =
    let cs = Cpla.constraint_system ~composition ~depth:snark_cpla_depth () in
    let kp, setup_s =
      wall (fun () -> Snark.setup_rng ~rng:(Source.of_seed snark_setup_seed) cs)
    in
    let _, prove_s =
      wall (fun () -> Snark.prove_rng ~rng:(Source.of_seed snark_prove_seed) kp.Snark.pk cs)
    in
    let dg = snark_cpla_digest composition in
    if dg <> snark_cpla_expected composition then begin
      Printf.eprintf "FATAL: cpla-%s attestation digest moved: %s (expected %s)\n%!"
        (Hc.to_string composition) dg
        (snark_cpla_expected composition);
      exit 1
    end;
    Printf.printf "cpla-depth%d-%s: %5d constraints, setup %.3fs, prove %.3fs, digest %s\n%!"
      snark_cpla_depth (Hc.to_string composition) (Cs.num_constraints cs) setup_s prove_s
      (String.sub dg 0 16);
    (composition, Cs.num_constraints cs, setup_s, prove_s, dg)
  in
  let arms = List.map cpla_arm Hc.all in
  let constraints_of comp =
    let _, c, _, _, _ = List.find (fun (x, _, _, _, _) -> x = comp) arms in
    float_of_int c
  in
  let arm_ratio = constraints_of Hc.Mimc /. constraints_of Hc.Poseidon in
  Printf.printf "cpla constraint ratio mimc/poseidon: %.2fx\n%!" arm_ratio;
  (* Merkle-path-only view (depth 16, no tag hashes): the migration's
     headline reduction — the acceptance bar is >= 2.5x. *)
  let merkle_constraints composition =
    let cs = Cs.create () in
    let open Zebra_r1cs.Gadgets in
    let leaf = Cs.alloc cs (Fp.of_int 7) in
    let bits = Array.init 16 (fun i -> alloc_bit cs (i land 1 = 1)) in
    let siblings = Array.init 16 (fun i -> Cs.alloc cs (Fp.of_int (i + 1))) in
    ignore (Hc.merkle_root_gadget composition cs ~leaf:(v leaf) ~path_bits:bits ~siblings);
    Cs.num_constraints cs
  in
  let merkle_p = merkle_constraints Hc.Poseidon and merkle_m = merkle_constraints Hc.Mimc in
  let merkle_ratio = float_of_int merkle_m /. float_of_int merkle_p in
  Printf.printf "merkle path depth 16: poseidon %d vs mimc %d constraints (%.2fx)\n%!" merkle_p
    merkle_m merkle_ratio;
  let json =
    Json.to_string
      (Json.Obj
         [
           ( "baseline",
             Json.Obj
               [
                 ("commit", Json.Str "ce50ef0");
                 ("prove_seconds_min", Json.Num snark_baseline_min);
                 ("prove_seconds_median", Json.Num snark_baseline_median);
                 ("proof_sha256", Json.Str snark_expected_digest);
                 ( "note",
                   Json.Str
                     "pre-PR tree, ZEBRA_DOMAINS=1, reward-majority-n5, seeds \
                      bench-snark-setup/bench-snark-prove" );
               ] );
           ("circuit", Json.Str "reward-majority-n5");
           ("constraints", Json.Num (float_of_int (Cs.num_constraints cs)));
           ("prove_seconds_min", Json.Num prove_min);
           ("prove_seconds_median", Json.Num prove_med);
           ("prove_speedup_min", Json.Num (snark_baseline_min /. prove_min));
           ("proof_sha256", Json.Str !digest);
           ("proof_digest_unchanged", Json.Bool (!digest = snark_expected_digest));
           ("setup_miss_seconds", Json.Num setup_miss);
           ("keycache_hit_seconds", Json.Num hit_s);
           ("keycache_hit_speedup", Json.Num (setup_miss /. hit_s));
           ("vk_decode_us", Json.Num (decode_ns /. 1e3));
           ("vk_cached_us", Json.Num (cached_ns /. 1e3));
           ("audit_batch_size", Json.Num 8.);
           ("audit_sequential_us", Json.Num (seq_ns /. 1e3));
           ("audit_batched_us", Json.Num (batch_ns /. 1e3));
           ("audit_batch_speedup", Json.Num (seq_ns /. batch_ns));
           ( "cpla",
             Json.Obj
               [
                 ("depth", Json.Num (float_of_int snark_cpla_depth));
                 ( "arms",
                   Json.List
                     (List.map
                        (fun (comp, c, setup_s, prove_s, dg) ->
                          Json.Obj
                            [
                              ("composition", Json.Str (Hc.to_string comp));
                              ("constraints", Json.Num (float_of_int c));
                              ("setup_seconds", Json.Num setup_s);
                              ("prove_seconds", Json.Num prove_s);
                              ("proof_sha256", Json.Str dg);
                              ( "proof_digest_unchanged",
                                Json.Bool (dg = snark_cpla_expected comp) );
                            ])
                        arms) );
                 ("constraint_ratio_mimc_over_poseidon", Json.Num arm_ratio);
                 ( "merkle_depth16_constraints",
                   Json.Obj
                     [
                       ("poseidon", Json.Num (float_of_int merkle_p));
                       ("mimc", Json.Num (float_of_int merkle_m));
                       ("ratio_mimc_over_poseidon", Json.Num merkle_ratio);
                     ] );
               ] );
         ])
  in
  let oc = open_out "BENCH_snark.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote BENCH_snark.json (%d bytes)\n%!" (String.length json)

(* X12: the zero-allocation kernel work.  ns/op and allocated-bytes/op
   for the pure vs destructive field kernels, the sliding-window
   exponentiation, the unrolled 9-limb multiply vs the width-generic
   loop, an FFT size sweep, and whole-prove allocation per constraint.  Self-asserting:
   every in-place kernel must cut allocation per op by at least
   [field_alloc_floor]x against its pure counterpart or the bench exits
   non-zero (this is what the check.sh field gate runs). *)

let field_alloc_floor = 10.

let field () =
  header "X12: zero-allocation Montgomery kernels";
  let module Json = Zebra_obs.Json in
  let module Source = Zebra_rng.Source in
  let fresh () = Fp.random random_bytes in
  let a = fresh () and b = fresh () in
  let dst = Fp.buffer () in
  (* Average bytes allocated on this domain per call.  Bracketed by
     [Gc.minor]: [Gc.allocated_bytes] only folds the nursery in at a
     collection, so forcing one on each side makes the delta exact — a
     true zero-allocation kernel reads 0.00 here, and [Fp.mul] reads
     exactly its 80-byte result (9 limbs + header). *)
  let bytes_per_op ?(iters = 200_000) fn =
    fn ();
    Gc.minor ();
    let b0 = Gc.allocated_bytes () in
    for _ = 1 to iters do fn () done;
    Gc.minor ();
    Float.max 0. ((Gc.allocated_bytes () -. b0) /. float_of_int iters)
  in
  let kernels =
    [
      ("mul", (fun () -> ignore (Fp.mul a b)), fun () -> Fp.mul_into ~dst a b);
      ("sqr", (fun () -> ignore (Fp.sqr a)), fun () -> Fp.sqr_into ~dst a);
      ("add", (fun () -> ignore (Fp.add a b)), fun () -> Fp.add_into ~dst a b);
      ("sub", (fun () -> ignore (Fp.sub a b)), fun () -> Fp.sub_into ~dst a b);
    ]
  in
  Printf.printf "%-6s %9s %9s %11s %11s %9s\n%!" "kernel" "pure-ns" "into-ns"
    "pure-B/op" "into-B/op" "alloc-x";
  let rows =
    List.map
      (fun (name, pure, into) ->
        let pure_ns = bechamel_ns (name ^ "-pure") pure in
        let into_ns = bechamel_ns (name ^ "-into") into in
        let pure_b = bytes_per_op pure in
        let into_b = bytes_per_op into in
        let ratio = pure_b /. Float.max 1. into_b in
        Printf.printf "%-6s %9.1f %9.1f %11.1f %11.1f %8.0fx\n%!" name pure_ns into_ns
          pure_b into_b ratio;
        (name, pure_ns, into_ns, pure_b, into_b, ratio))
      kernels
  in
  (* Sliding-window exponentiation over a full-width exponent. *)
  let e = Fp.to_nat (fresh ()) in
  let pow_ns = bechamel_ns "pow-254bit" (fun () -> ignore (Fp.pow a e)) in
  let pow_b = bytes_per_op ~iters:2_000 (fun () -> ignore (Fp.pow a e)) in
  Printf.printf "pow (254-bit exponent, 4-bit window): %.0f ns, %.0f B/op\n%!" pow_ns pow_b;
  (* Montgomery multiplication at the Fp width: the unrolled 9-limb
     kernel every Fp.mul runs against the width-generic CIOS loop, on
     one context in the same run. *)
  let mctx = Modular.create Fp.modulus in
  let limbs x = (Modular.to_mont mctx (Fp.to_nat x) :> int array) in
  let la = limbs a and lb = limbs b and lr = (Modular.mont_buffer mctx :> int array) in
  let spec_ns = bechamel_ns "mul9-specialised" (fun () -> Modular.mul_off mctx lr 0 la 0 lb 0) in
  let gen_ns = bechamel_ns "mul9-generic" (fun () -> Modular.mul_off_generic mctx lr 0 la 0 lb 0) in
  Printf.printf "mul at 9 limbs: specialised %.1f ns, generic %.1f ns (%.2fx)\n%!" spec_ns
    gen_ns (gen_ns /. spec_ns);
  (* FFT sweep over flat vectors (calling domain only: no pool). *)
  let fft_rows =
    List.map
      (fun lg ->
        let d = Fft.domain (1 lsl lg) in
        let v = Fp.Vec.of_array (Array.init (Fft.size d) (fun _ -> fresh ())) in
        let vec_ns = bechamel_ns (Printf.sprintf "fft-vec-2^%d" lg) (fun () -> Fft.fft_vec d v) in
        let vec_b = bytes_per_op ~iters:50 (fun () -> Fft.fft_vec d v) in
        Printf.printf "fft 2^%-2d: %8.1f us / %9.0f B\n%!" lg (vec_ns /. 1e3) vec_b;
        (lg, vec_ns, vec_b))
      [ 10; 12; 14 ]
  in
  (* Whole-prove allocation, normalised per constraint.  Calling-domain
     only (Gc.allocated_bytes is per-domain), so run this gate under
     ZEBRA_DOMAINS=1 for the full picture. *)
  let cs = snark_reward_circuit () in
  let kp = Snark.setup_rng ~rng:(Source.of_seed snark_setup_seed) cs in
  let prove () =
    ignore (Snark.prove_rng ~rng:(Source.of_seed snark_prove_seed) kp.Snark.pk cs)
  in
  prove ();
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  let (), prove_s = wall prove in
  Gc.minor ();
  let prove_bytes = Gc.allocated_bytes () -. b0 in
  let n_constraints = Cs.num_constraints cs in
  let per_constraint = prove_bytes /. float_of_int n_constraints in
  Printf.printf
    "prove reward-majority-n5: %.3fs, %.1f MB allocated on calling domain (%.0f B/constraint)\n%!"
    prove_s (prove_bytes /. 1e6) per_constraint;
  (* The gate: every destructive kernel must beat its pure counterpart
     by the floor.  A regression here means somebody re-introduced
     per-op allocation into the hot path. *)
  let worst =
    List.fold_left (fun acc (_, _, _, _, _, r) -> Float.min acc r) infinity rows
  in
  if worst < field_alloc_floor then begin
    Printf.eprintf
      "FATAL: in-place kernel allocation reduction %.1fx is below the %.0fx floor\n%!" worst
      field_alloc_floor;
    exit 1
  end;
  Printf.printf "allocation reduction floor: worst kernel %.0fx >= %.0fx required\n%!" worst
    field_alloc_floor;
  let json =
    Json.to_string
      (Json.Obj
         [
           ("alloc_floor_x", Json.Num field_alloc_floor);
           ("worst_kernel_alloc_reduction_x", Json.Num worst);
           ( "kernels",
             Json.List
               (List.map
                  (fun (name, pure_ns, into_ns, pure_b, into_b, ratio) ->
                    Json.Obj
                      [
                        ("op", Json.Str name);
                        ("pure_ns", Json.Num pure_ns);
                        ("into_ns", Json.Num into_ns);
                        ("pure_bytes_per_op", Json.Num pure_b);
                        ("into_bytes_per_op", Json.Num into_b);
                        ("alloc_reduction_x", Json.Num ratio);
                      ])
                  rows) );
           ( "pow_254bit",
             Json.Obj [ ("ns", Json.Num pow_ns); ("bytes_per_op", Json.Num pow_b) ] );
           ( "mul_9_limbs",
             Json.Obj
               [
                 ("specialised_ns", Json.Num spec_ns);
                 ("generic_ns", Json.Num gen_ns);
                 ("speedup_x", Json.Num (gen_ns /. spec_ns));
               ] );
           ( "fft",
             Json.List
               (List.map
                  (fun (lg, vec_ns, vec_b) ->
                    Json.Obj
                      [
                        ("log2_size", Json.Num (float_of_int lg));
                        ("vec_ns", Json.Num vec_ns);
                        ("vec_bytes_per_op", Json.Num vec_b);
                      ])
                  fft_rows) );
           ( "prove",
             Json.Obj
               [
                 ("circuit", Json.Str "reward-majority-n5");
                 ("constraints", Json.Num (float_of_int n_constraints));
                 ("seconds", Json.Num prove_s);
                 ("alloc_bytes_calling_domain", Json.Num prove_bytes);
                 ("alloc_bytes_per_constraint", Json.Num per_constraint);
                 ( "note",
                   Json.Str
                     "Gc.allocated_bytes is per-domain; run with ZEBRA_DOMAINS=1 to \
                      attribute all prover allocation" );
               ] );
         ])
  in
  let oc = open_out "BENCH_field.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote BENCH_field.json (%d bytes)\n%!" (String.length json)

let lint () =
  header "X10: zebra_lint analyzer wall-time across the deployed circuits";
  let module Lint = Zebra_lint.Lint in
  let module Json = Zebra_obs.Json in
  Printf.printf "%-22s %12s %6s %9s %6s %6s %6s\n%!" "circuit" "constraints"
    "rank" "lint(s)" "err" "warn" "info";
  let rows =
    List.map
      (fun (name, synth) ->
        let cs = synth () in
        let report, dt = wall (fun () -> Lint.analyze ~name cs) in
        Printf.printf "%-22s %12d %6d %9.3f %6d %6d %6d\n%!" name
          report.Lint.num_constraints report.Lint.jacobian_rank dt
          (Lint.errors report)
          (Lint.warnings report)
          (Lint.infos report);
        (report, dt))
      (Deployed.circuits ())
  in
  (* The headline number: analyzer cost on the largest deployed circuit,
     the one that bounds how long the check.sh lint gate can take. *)
  let largest, largest_dt =
    List.fold_left
      (fun ((best, _) as acc) ((r, _) as cand) ->
        if r.Lint.num_constraints > best.Lint.num_constraints then cand else acc)
      (List.hd rows) (List.tl rows)
  in
  let row_json (r, dt) =
    Json.Obj
      [
        ("circuit", Json.Str r.Lint.circuit);
        ("constraints", Json.Num (float_of_int r.Lint.num_constraints));
        ("vars", Json.Num (float_of_int r.Lint.num_vars));
        ("rank", Json.Num (float_of_int r.Lint.jacobian_rank));
        ("free_aux_wires", Json.Num (float_of_int r.Lint.free_aux_wires));
        ("errors", Json.Num (float_of_int (Lint.errors r)));
        ("warnings", Json.Num (float_of_int (Lint.warnings r)));
        ("infos", Json.Num (float_of_int (Lint.infos r)));
        ("seconds", Json.Num dt);
      ]
  in
  (* The ZL1xx/ZL2xx chain-layer passes: scenario construction dominates
     (it runs the whole deployed protocol once), analysis itself is
     cheap — both numbers go into the JSON so regressions in either are
     visible separately. *)
  let module Txlint = Zebra_lint.Txlint in
  let module Seclint = Zebra_lint.Seclint in
  Printf.printf "\ntx lint (ZL1xx footprints + ZL2xx secret flow):\n%!";
  let cases, scenario_dt = wall (fun () -> Deployed_txs.cases ()) in
  let tx_reports, tx_dt = wall (fun () -> Txlint.analyze_all cases) in
  let codec_reports, codec_dt =
    wall (fun () -> List.map Seclint.analyze (Deployed_txs.codecs ()))
  in
  Printf.printf "%-38s %6s %9s %6s %6s %6s\n%!" "kind" "cases" "lint(s)" "err" "warn" "info";
  List.iter
    (fun (r : Txlint.report) ->
      Printf.printf "%-38s %6d %9s %6d %6d %6d\n%!" r.Txlint.kind r.Txlint.cases "-"
        (Txlint.errors r) (Txlint.warnings r) (Txlint.infos r))
    tx_reports;
  Printf.printf
    "scenario build %.3fs (%d cases), ZL1xx analyze %.3fs, ZL2xx scan %.3fs (%d codec cases)\n%!"
    scenario_dt (List.length cases) tx_dt codec_dt (List.length codec_reports);
  let tx_kind_json (r : Txlint.report) =
    Json.Obj
      [
        ("kind", Json.Str r.Txlint.kind);
        ("cases", Json.Num (float_of_int r.Txlint.cases));
        ("errors", Json.Num (float_of_int (Txlint.errors r)));
        ("warnings", Json.Num (float_of_int (Txlint.warnings r)));
        ("infos", Json.Num (float_of_int (Txlint.infos r)));
      ]
  in
  let codec_json (r : Seclint.report) =
    Json.Obj
      [
        ("codec", Json.Str r.Seclint.codec);
        ("secrets", Json.Num (float_of_int r.Seclint.secrets));
        ("outputs", Json.Num (float_of_int r.Seclint.outputs));
        ("errors", Json.Num (float_of_int (Seclint.errors r)));
        ("warnings", Json.Num (float_of_int (Seclint.warnings r)));
      ]
  in
  let tx_json =
    Json.Obj
      [
        ("scenario_seconds", Json.Num scenario_dt);
        ("cases", Json.Num (float_of_int (List.length cases)));
        ("analyze_seconds", Json.Num tx_dt);
        ("secret_scan_seconds", Json.Num codec_dt);
        ("kinds", Json.List (List.map tx_kind_json tx_reports));
        ("codecs", Json.List (List.map codec_json codec_reports));
      ]
  in
  let json =
    Json.to_string
      (Json.Obj
         [
           ("largest_circuit", Json.Str largest.Lint.circuit);
           ( "largest_constraints",
             Json.Num (float_of_int largest.Lint.num_constraints) );
           ("largest_seconds", Json.Num largest_dt);
           ("circuits", Json.List (List.map row_json rows));
           ("tx", tx_json);
         ])
  in
  let oc = open_out "BENCH_lint.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "\nlargest circuit %s: %d constraints, linted in %.3fs\nwrote BENCH_lint.json (%d bytes)\n%!"
    largest.Lint.circuit largest.Lint.num_constraints largest_dt
    (String.length json)

(* --- chaos: cost of riding out fault plans (BENCH_chaos.json) ---

   One end-to-end round per plan, same seed: the wall-clock delta against
   the fault-free row is the price of retries/backoff blocks, and the
   retry counters say where it went.  Every row must still settle with the
   invariants intact — a bench that needed an unbounded plan would be a
   bug, not a data point. *)

let chaos () =
  header "chaos: end-to-end round under seeded fault plans";
  let module Json = Zebra_obs.Json in
  let module Obs = Zebra_obs.Obs in
  let module Faults = Zebra_faults.Faults in
  let plans =
    [
      ("0%", "none");
      ("5%", "drop=0.05,delay=0.05:2,dup=0.02");
      ("20%", "drop=0.2,delay=0.2:2,dup=0.1");
      ("byz", "partition=2|1:6-9,byzmine=1:reorder,drop=0.05");
    ]
  in
  Printf.printf "%-4s %-32s %8s %7s %7s %10s  %s\n%!" "rate" "plan" "seconds" "height"
    "faults" "resubmits" "settlement";
  let rows =
    List.map
      (fun (rate, plan) ->
        Obs.reset ();
        Obs.set_enabled true;
        let outcome, dt =
          wall (fun () ->
              Chaos.run ~seed:"bench-chaos" ~plan:(Faults.spec_of_string plan) ())
        in
        Obs.set_enabled false;
        let counter name =
          match Obs.counters_with_prefix name with (_, v) :: _ -> v | [] -> 0
        in
        let resubmits = counter "protocol.retry.resubmits" in
        let injected = List.length outcome.Chaos.trace in
        Printf.printf "%-4s %-32s %8.3f %7d %7d %10d  %s\n%!" rate plan dt
          outcome.Chaos.final_height injected resubmits
          (Chaos.settlement_to_string outcome.Chaos.settlement);
        (rate, plan, dt, outcome, resubmits, injected))
      plans
  in
  let json =
    Json.to_string
      (Json.Obj
         [
           ("seed", Json.Str "bench-chaos");
           ( "rows",
             Json.List
               (List.map
                  (fun (rate, plan, dt, (o : Chaos.outcome), resubmits, injected) ->
                    Json.Obj
                      [
                        ("rate", Json.Str rate);
                        ("plan", Json.Str plan);
                        ("seconds", Json.Num dt);
                        ("settlement", Json.Str (Chaos.settlement_to_string o.settlement));
                        ("final_height", Json.Num (float_of_int o.final_height));
                        ("faults_injected", Json.Num (float_of_int injected));
                        ("resubmits", Json.Num (float_of_int resubmits));
                        ("replicas_agree", Json.Bool o.replicas_agree);
                        ("supply_conserved", Json.Bool o.supply_conserved);
                        ("indexer_agrees", Json.Bool o.indexer_agrees);
                        ("indexer_reorgs", Json.Num (float_of_int o.indexer_reorgs));
                      ])
                  rows) );
         ])
  in
  let oc = open_out "BENCH_chaos.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote BENCH_chaos.json (%d bytes)\n%!" (String.length json)

(* --- load: marketplace throughput under the parallel executor
   (BENCH_load.json) ---

   N requesters x M workers drive >= 100 CPLA tasks end-to-end through
   the fee-ordered mempool and the sharded parallel executor.  Reported
   tasks/sec and txs/sec are wall-clock; settle latency percentiles come
   from the [load.settle] observability histogram.  The run must complete
   every task with the invariants intact to count at all. *)

let load_bench () =
  header "load: N x M marketplace throughput (>= 100 tasks)";
  let module Json = Zebra_obs.Json in
  let module Obs = Zebra_obs.Obs in
  Obs.reset ();
  Obs.set_enabled true;
  let config =
    {
      Load.default_config with
      Load.tasks = 100;
      requesters = 10;
      workers = 20;
      workers_per_task = 2;
      inflight = 16;
      seed = "bench-load";
    }
  in
  let r = Load.run ~config () in
  Obs.set_enabled false;
  print_string (Load.render_deterministic r);
  print_string (Load.render_timing r);
  if not (Load.ok r) then failwith "load bench: invariants violated";
  let json =
    Json.to_string
      (Json.Obj
         [
           ("seed", Json.Str config.Load.seed);
           ("requesters", Json.Num (float_of_int config.Load.requesters));
           ("workers", Json.Num (float_of_int config.Load.workers));
           ("tasks", Json.Num (float_of_int r.Load.tasks_completed));
           ("tasks_failed", Json.Num (float_of_int r.Load.tasks_failed));
           ("blocks", Json.Num (float_of_int r.Load.blocks));
           ("txs", Json.Num (float_of_int r.Load.txs));
           ("conflict_retries", Json.Num (float_of_int r.Load.conflict_retries));
           ("elapsed_seconds", Json.Num r.Load.elapsed_s);
           ("tasks_per_sec", Json.Num r.Load.tasks_per_sec);
           ("txs_per_sec", Json.Num r.Load.txs_per_sec);
           ("settle_p50_seconds", Json.Num r.Load.settle_p50_s);
           ("settle_p99_seconds", Json.Num r.Load.settle_p99_s);
           ("state_root", Json.Str r.Load.state_root);
           ("replicas_agree", Json.Bool r.Load.replicas_agree);
           ("supply_conserved", Json.Bool r.Load.supply_conserved);
         ])
  in
  let oc = open_out "BENCH_load.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote BENCH_load.json (%d bytes)\n%!" (String.length json)

let all () =
  table1 ();
  fig4 ();
  memory ();
  link ();
  endtoend ();
  ablation_fft ();
  ablation_field ();
  ablation_hash ();
  nonanon ();
  obs ();
  parallel ();
  lint ();
  field ();
  snark ();
  chaos ();
  load_bench ()

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "table1" -> table1 ()
  | "fig4" -> fig4 ()
  | "memory" -> memory ()
  | "link" -> link ()
  | "endtoend" -> endtoend ()
  | "ablation-fft" -> ablation_fft ()
  | "ablation-field" -> ablation_field ()
  | "ablation-hash" -> ablation_hash ()
  | "nonanon" -> nonanon ()
  | "obs" -> obs ()
  | "parallel" -> parallel ()
  | "lint" -> lint ()
  | "field" -> field ()
  | "snark" -> snark ()
  | "snark-digest" -> (
    (* Fast path for the check.sh determinism gate: print only a proof
       digest, so runs under different ZEBRA_DOMAINS / ZEBRA_KEYCACHE
       settings can be diffed.  An optional argument picks the circuit:
       reward (default), cpla-poseidon, or cpla-mimc. *)
    match if Array.length Sys.argv > 2 then Sys.argv.(2) else "reward" with
    | "reward" -> print_endline (snark_prove_digest ())
    | "cpla-poseidon" -> print_endline (snark_cpla_digest Hc.Poseidon)
    | "cpla-mimc" -> print_endline (snark_cpla_digest Hc.Mimc)
    | other ->
      Printf.eprintf "unknown snark-digest target %S; try: reward cpla-poseidon cpla-mimc\n"
        other;
      exit 2)
  | "chaos" -> chaos ()
  | "load" -> load_bench ()
  | "all" -> all ()
  | other ->
    Printf.eprintf
      "unknown bench %S; try: table1 fig4 memory link endtoend ablation-fft ablation-field ablation-hash nonanon obs parallel lint field snark chaos load all\n"
      other;
    exit 1
