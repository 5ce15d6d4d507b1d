let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank; the epsilon keeps [0.07 *. 100.] (= 7.000...01)
   from rounding up to rank 8. *)
let rank ~n q = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)))

let quantile xs q =
  if Array.length xs = 0 then invalid_arg "Pct.quantile: no samples";
  if not (q >= 0. && q <= 1.) then invalid_arg "Pct.quantile: q outside [0, 1]";
  (sorted xs).(rank ~n:(Array.length xs) q - 1)

let p50 xs = quantile xs 0.5

type tail = { q : float; value : float; n : int; rank : int; beyond : int }

(* The tail rule: the highest percentile with this many samples beyond it. *)
let beyond = 10

let tail xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pct.tail: no samples";
  let k = max (rank ~n 0.5) (n - beyond) in
  let q = if k = rank ~n 0.5 then 0.5 else float_of_int k /. float_of_int n in
  { q; value = (sorted xs).(k - 1); n; rank = k; beyond = n - k }
