(* Exact-percentile rules the benchmark reports with. *)

module Pct = Zbench.Pct

let f = Alcotest.float 0.
let ramp n = Array.init n (fun i -> float_of_int (n - i)) (* n, n-1, ..., 1 *)

let test_nearest_rank () =
  let xs = ramp 10 in
  Alcotest.check f "p50 of 1..10" 5. (Pct.p50 xs);
  Alcotest.check f "q=0 is the minimum" 1. (Pct.quantile xs 0.);
  Alcotest.check f "q=1 is the maximum" 10. (Pct.quantile xs 1.);
  Alcotest.check f "p90 of 1..10" 9. (Pct.quantile xs 0.9);
  Alcotest.check f "p91 rounds the rank up" 10. (Pct.quantile xs 0.91);
  Alcotest.check f "p7 of 1..100 is 7, not 8" 7. (Pct.quantile (ramp 100) 0.07);
  Alcotest.check f "single sample" 3.5 (Pct.p50 [| 3.5 |]);
  Alcotest.check f "even n takes the lower middle" 2. (Pct.p50 [| 4.; 1.; 3.; 2. |])

let test_input_untouched () =
  let xs = [| 3.; 1.; 2. |] in
  ignore (Pct.p50 xs);
  ignore (Pct.tail xs);
  Alcotest.(check (array (float 0.))) "not sorted in place" [| 3.; 1.; 2. |] xs

let test_tail_rule () =
  let t = Pct.tail (ramp 100) in
  Alcotest.check f "n=100: p90" 0.9 t.Pct.q;
  Alcotest.check f "n=100: value at rank 90" 90. t.Pct.value;
  Alcotest.(check int) "10 beyond" 10 t.Pct.beyond;
  let t = Pct.tail (ramp 30) in
  Alcotest.(check int) "n=30: rank 20" 20 t.Pct.rank;
  Alcotest.check f "n=30: value 20" 20. t.Pct.value;
  Alcotest.(check int) "n=30: 10 beyond" 10 t.Pct.beyond

let test_tail_small_n () =
  (* Fewer than 20 samples: no percentile above the median has 10 samples
     beyond it, so the tail is the median. *)
  List.iter
    (fun n ->
      let xs = ramp n in
      let t = Pct.tail xs in
      Alcotest.check f (Printf.sprintf "n=%d: tail is the median" n) (Pct.p50 xs) t.Pct.value;
      Alcotest.check f (Printf.sprintf "n=%d: q=0.5" n) 0.5 t.Pct.q;
      Alcotest.(check int) (Printf.sprintf "n=%d: count" n) n t.Pct.n)
    [ 1; 2; 9; 10; 11; 19 ];
  let t = Pct.tail (ramp 20) in
  Alcotest.(check int) "n=20: median rank has exactly 10 beyond" 10 t.Pct.beyond;
  let t = Pct.tail (ramp 21) in
  Alcotest.(check int) "n=21: rank 11" 11 t.Pct.rank

let test_ties () =
  let xs = Array.append (Array.make 15 1.) (Array.make 10 2.) in
  Alcotest.check f "p50 inside the tie" 1. (Pct.p50 xs);
  let t = Pct.tail xs in
  Alcotest.(check int) "ties ranked by position" 15 t.Pct.rank;
  Alcotest.check f "value at the tie edge" 1. t.Pct.value;
  Alcotest.(check int) "10 ranked beyond" 10 t.Pct.beyond;
  let flat = Array.make 40 0.25 in
  Alcotest.check f "all equal" 0.25 (Pct.tail flat).Pct.value

let test_rejects () =
  Alcotest.check_raises "empty p50" (Invalid_argument "Pct.quantile: no samples") (fun () ->
      ignore (Pct.p50 [||]));
  Alcotest.check_raises "empty tail" (Invalid_argument "Pct.tail: no samples") (fun () ->
      ignore (Pct.tail [||]));
  Alcotest.check_raises "q > 1" (Invalid_argument "Pct.quantile: q outside [0, 1]") (fun () ->
      ignore (Pct.quantile [| 1. |] 1.5))

let () =
  Alcotest.run "zbench_pct"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "input untouched" `Quick test_input_untouched;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "tail with n < 20" `Quick test_tail_small_n;
          Alcotest.test_case "ties" `Quick test_ties;
          Alcotest.test_case "rejects bad input" `Quick test_rejects;
        ] );
    ]
