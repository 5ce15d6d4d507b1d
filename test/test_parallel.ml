(* The Domain pool: lifecycle, primitives, exception propagation, and the
   determinism contract — results bit-identical at every domain count. *)

open Zebra_field
module Parallel = Zebra_parallel.Parallel
module Pool = Parallel.Pool
module Snark = Zebra_snark.Snark
module Cs = Zebra_r1cs.Cs

let with_pool domains f =
  let p = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* --- lifecycle --- *)

let test_create_shutdown () =
  let p = Pool.create ~domains:4 in
  Alcotest.(check int) "domains" 4 (Pool.domains p);
  Pool.shutdown p;
  Pool.shutdown p;
  (* a dead pool still runs work, just sequentially *)
  let hits = ref 0 in
  Parallel.parallel_for ~pool:p ~min_chunk:1 8 (fun lo hi -> hits := !hits + (hi - lo));
  Alcotest.(check int) "runs after shutdown" 8 !hits

let test_clamping () =
  with_pool 0 (fun p -> Alcotest.(check int) "clamped up" 1 (Pool.domains p));
  with_pool 1000 (fun p -> Alcotest.(check int) "clamped down" 64 (Pool.domains p))

let test_parse_domains () =
  Alcotest.(check int) "int" 4 (Parallel.parse_domains "4");
  Alcotest.(check int) "trimmed" 2 (Parallel.parse_domains " 2 ");
  Alcotest.(check bool) "auto" true (Parallel.parse_domains "auto" >= 1);
  let rejects s =
    Alcotest.check_raises ("rejects " ^ s)
      (Invalid_argument "Parallel.parse_domains: expected a positive integer or \"auto\"")
      (fun () -> ignore (Parallel.parse_domains s))
  in
  rejects "0";
  rejects "-3";
  rejects "many"

(* --- primitives --- *)

let test_parallel_for () =
  with_pool 4 (fun p ->
      let n = 10_000 in
      let out = Array.make n 0 in
      Parallel.parallel_for ~pool:p ~min_chunk:64 n (fun lo hi ->
          for i = lo to hi - 1 do
            out.(i) <- i * i
          done);
      for i = 0 to n - 1 do
        if out.(i) <> i * i then Alcotest.failf "slot %d wrong" i
      done)

let test_map_reduce () =
  with_pool 4 (fun p ->
      let n = 12_345 in
      let sum =
        Parallel.map_reduce ~pool:p ~min_chunk:16 n
          ~map:(fun lo hi ->
            let s = ref 0 in
            for i = lo to hi - 1 do
              s := !s + i
            done;
            !s)
          ~reduce:( + ) 0
      in
      Alcotest.(check int) "gauss" (n * (n - 1) / 2) sum;
      Alcotest.(check int) "empty" 7
        (Parallel.map_reduce ~pool:p 0 ~map:(fun _ _ -> 1) ~reduce:( + ) 7))

let test_map_reduce_ordered () =
  (* A non-commutative reduce (list append) still comes out in chunk-index
     order: the fold happens on the caller over the ordered results. *)
  with_pool 4 (fun p ->
      let n = 1000 in
      let chunks =
        Parallel.map_reduce ~pool:p ~min_chunk:10 n
          ~map:(fun lo hi -> [ (lo, hi) ])
          ~reduce:( @ ) []
      in
      let rec contiguous expect = function
        | [] -> Alcotest.(check int) "covers range" n expect
        | (lo, hi) :: rest ->
          Alcotest.(check int) "contiguous" expect lo;
          contiguous hi rest
      in
      contiguous 0 chunks)

let test_exists () =
  with_pool 4 (fun p ->
      Alcotest.(check bool) "hit" true
        (Parallel.exists ~pool:p ~min_chunk:8 1000 (fun i -> i = 977));
      Alcotest.(check bool) "miss" false
        (Parallel.exists ~pool:p ~min_chunk:8 1000 (fun _ -> false));
      Alcotest.(check bool) "empty" false (Parallel.exists ~pool:p 0 (fun _ -> true)))

let test_both () =
  with_pool 2 (fun p ->
      let a, b = Parallel.both ~pool:p (fun () -> 6 * 7) (fun () -> "ok") in
      Alcotest.(check int) "left" 42 a;
      Alcotest.(check string) "right" "ok" b)

let test_nested_regions () =
  (* A parallel call from inside a running region must not deadlock; it
     falls back to the same sequential chunk walk. *)
  with_pool 4 (fun p ->
      let total = ref 0 in
      let m = Mutex.create () in
      Parallel.parallel_for ~pool:p ~min_chunk:1 4 (fun lo hi ->
          for _ = lo to hi - 1 do
            let s =
              Parallel.map_reduce ~pool:p ~min_chunk:1 10
                ~map:(fun l h -> h - l)
                ~reduce:( + ) 0
            in
            Mutex.lock m;
            total := !total + s;
            Mutex.unlock m
          done);
      Alcotest.(check int) "nested sums" 40 !total)

(* --- exceptions --- *)

let test_exception_propagation () =
  with_pool 4 (fun p ->
      (match
         Parallel.parallel_for ~pool:p ~min_chunk:1 64 (fun lo _ ->
             if lo >= 32 then failwith "boom")
       with
      | () -> Alcotest.fail "expected Failure"
      | exception Failure m when m = "boom" -> ());
      (* the pool survives a failed region *)
      let sum =
        Parallel.map_reduce ~pool:p ~min_chunk:1 8 ~map:(fun lo hi -> hi - lo) ~reduce:( + ) 0
      in
      Alcotest.(check int) "reusable after failure" 8 sum;
      match Parallel.both ~pool:p (fun () -> failwith "left") (fun () -> 1) with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m when m = "left" -> ())

(* --- determinism: bit-identical results at any domain count --- *)

(* 2^12 points: a deployed circuit's domain, and large enough that every
   butterfly stage and scaling pass splits into more than one chunk. *)
let fft_log_size = 12

let fp_array_gen =
  QCheck.Gen.(
    map
      (fun seeds -> Array.of_list (List.map Fp.of_int seeds))
      (list_size (return (1 lsl fft_log_size)) (int_bound max_int)))

let test_fft_determinism =
  QCheck.Test.make ~count:10 ~name:"fft identical at 1 vs 4 domains"
    (QCheck.make fp_array_gen) (fun a ->
      let module Obs = Zebra_obs.Obs in
      let saved = Parallel.default_domains () in
      Fun.protect
        ~finally:(fun () ->
          Parallel.set_default_domains saved;
          Obs.set_enabled false;
          Obs.reset ())
        (fun () ->
          let dom = Fft.domain (Array.length a) in
          let run nd =
            Parallel.set_default_domains nd;
            let x = Fp.Vec.of_array a in
            Fft.coset_fft_vec dom x;
            Fft.coset_ifft_vec dom x;
            Fp.Vec.to_array x
          in
          let seq = run 1 in
          (* Regions are counted only when they fan out, so the counters
             show the 4-domain run really split its grids: every one of the
             2 x 12 butterfly stages, in at least two chunks each. *)
          Obs.reset ();
          Obs.set_enabled true;
          let par = run 4 in
          let regions = Obs.Counter.value (Obs.Counter.make "parallel.regions") in
          let chunks = Obs.Counter.value (Obs.Counter.make "parallel.chunks") in
          regions >= 2 * fft_log_size
          && chunks >= 2 * regions
          && Array.for_all2 Fp.equal seq par
          && Array.for_all2 Fp.equal seq a))

let test_prove_determinism () =
  (* Same circuit, same RNG seed, different domain counts: the proofs must
     be byte-identical — randomness is all drawn on the calling domain and
     chunk grids are pool-independent. *)
  let rng = Zebra_rng.Chacha20.create ~seed:"test-parallel-setup" in
  let random_bytes n = Zebra_rng.Chacha20.bytes rng n in
  let cs =
    let cs = Cs.create () in
    let secret = Fp.of_int 1234567 in
    let digest = Zebra_mimc.Mimc.hash_list [ secret; secret ] in
    let pub = Cs.alloc_input cs digest in
    let s = Cs.alloc cs secret in
    let open Zebra_r1cs.Gadgets in
    let h = mimc_hash cs [ v s; v s ] in
    enforce_eq cs ~label:"digest" h (v pub);
    cs
  in
  let kp = Snark.setup ~random_bytes cs in
  let saved = Parallel.default_domains () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_default_domains saved)
    (fun () ->
      let prove_at nd =
        Parallel.set_default_domains nd;
        let r = Zebra_rng.Chacha20.create ~seed:"test-parallel-prove" in
        Snark.prove ~random_bytes:(Zebra_rng.Chacha20.bytes r) kp.Snark.pk cs
      in
      let p1 = prove_at 1 in
      let p4 = prove_at 4 in
      Alcotest.(check bool) "proofs identical" true (Snark.equal_proof p1 p4);
      Alcotest.(check bool) "bytes identical" true
        (Bytes.equal (Snark.proof_to_bytes p1) (Snark.proof_to_bytes p4));
      Alcotest.(check bool) "verifies" true
        (Snark.verify kp.Snark.vk ~public_inputs:(Cs.public_inputs cs) p4))

(* --- observability --- *)

let test_obs_counters () =
  let module Obs = Zebra_obs.Obs in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      with_pool 4 (fun p ->
          Parallel.parallel_for ~pool:p ~min_chunk:1 16 (fun _ _ -> ()));
      let regions = Obs.Counter.value (Obs.Counter.make "parallel.regions") in
      let chunks = Obs.Counter.value (Obs.Counter.make "parallel.chunks") in
      Alcotest.(check bool) "regions counted" true (regions >= 1);
      Alcotest.(check bool) "chunks counted" true (chunks >= 16))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "create/shutdown" `Quick test_create_shutdown;
          Alcotest.test_case "clamping" `Quick test_clamping;
          Alcotest.test_case "parse_domains" `Quick test_parse_domains;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "parallel_for" `Quick test_parallel_for;
          Alcotest.test_case "map_reduce" `Quick test_map_reduce;
          Alcotest.test_case "map_reduce ordered" `Quick test_map_reduce_ordered;
          Alcotest.test_case "exists" `Quick test_exists;
          Alcotest.test_case "both" `Quick test_both;
          Alcotest.test_case "nested regions" `Quick test_nested_regions;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest test_fft_determinism;
          Alcotest.test_case "prove identical across domains" `Slow test_prove_determinism;
        ] );
      ("obs", [ Alcotest.test_case "counters" `Quick test_obs_counters ]);
    ]
