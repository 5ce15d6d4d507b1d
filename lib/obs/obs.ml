(* Domain-safety: the registry is shared process state, and since the
   parallel pool (PR 2) hot paths may execute instrumented code on worker
   domains, every mutation is either atomic (the enable flag, counters,
   gauges) or taken under [reg_m] (interning, histogram/span observations,
   snapshots).  The span *stack* is the exception: nesting is a per-domain
   notion, so it lives in domain-local storage. *)

let on = Atomic.make false

let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b

let now () = Unix.gettimeofday ()

(* Guards interning, histogram mutation and whole-registry traversals.
   Observations are span/metric-grained (not per field multiplication), so
   one global lock is never contended enough to matter. *)
let reg_m = Mutex.create ()

let locked f =
  Mutex.lock reg_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_m) f

(* --- histograms (shared by Histogram and spans) --- *)

(* Log-linear buckets: each power of two above [bucket_base] is split
   into [sub_buckets] equal-width buckets, so a bucket's upper bound is
   within 1/16 = 6.25% of anything in it.  44 octaves from 1e-6 reach
   ~2.4h: plenty for latencies. *)
let octaves = 44
let sub_buckets = 16
let num_buckets = octaves * sub_buckets
let bucket_base = 1e-6

type hist = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

let hist_make name =
  {
    h_name = name;
    h_count = 0;
    h_sum = 0.;
    h_min = nan;
    h_max = nan;
    h_buckets = Array.make num_buckets 0;
  }

(* [v / base = m * 2^e] with [m] in [0.5, 1): octave [e - 1], and the
   sub-bucket is the 1/16-wide slice of [1, 2) holding [2m]. *)
let bucket_index v =
  if not (v >= bucket_base) then 0
  else if v >= Float.ldexp bucket_base octaves then num_buckets - 1
  else begin
    let m, e = Float.frexp (v /. bucket_base) in
    ((e - 1) * sub_buckets) + int_of_float ((2. *. m -. 1.) *. Float.of_int sub_buckets)
  end

let bucket_upper i =
  Float.ldexp bucket_base (i / sub_buckets)
  *. (1. +. (Float.of_int ((i mod sub_buckets) + 1) /. Float.of_int sub_buckets))

(* Callers hold [reg_m]. *)
let hist_observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if Float.is_nan h.h_min || v < h.h_min then h.h_min <- v;
  if Float.is_nan h.h_max || v > h.h_max then h.h_max <- v;
  let i = bucket_index v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1

let hist_reset h =
  h.h_count <- 0;
  h.h_sum <- 0.;
  h.h_min <- nan;
  h.h_max <- nan;
  Array.fill h.h_buckets 0 num_buckets 0

let hist_buckets h =
  let acc = ref [] in
  for i = num_buckets - 1 downto 0 do
    if h.h_buckets.(i) > 0 then acc := (bucket_upper i, h.h_buckets.(i)) :: !acc
  done;
  !acc

(* --- registry --- *)

let counters : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 32
let gauges : (string, float Atomic.t) Hashtbl.t = Hashtbl.create 16
let histograms : (string, hist) Hashtbl.t = Hashtbl.create 16
let spans : (string, hist) Hashtbl.t = Hashtbl.create 32

let intern tbl create name =
  locked @@ fun () ->
  match Hashtbl.find_opt tbl name with
  | Some x -> x
  | None ->
    let x = create name in
    Hashtbl.replace tbl name x;
    x

module Counter = struct
  type t = int Atomic.t

  let make name = intern counters (fun _ -> Atomic.make 0) name
  let add t n = if Atomic.get on then ignore (Atomic.fetch_and_add t n)
  let incr t = add t 1
  let value t = Atomic.get t
end

module Gauge = struct
  type t = float Atomic.t

  let make name = intern gauges (fun _ -> Atomic.make 0.) name
  let set t v = if Atomic.get on then Atomic.set t v
  let value t = Atomic.get t
end

module Histogram = struct
  type t = hist

  let make name = intern histograms hist_make name
  let observe h v = if Atomic.get on then locked (fun () -> hist_observe h v)
  let count h = h.h_count
  let sum h = h.h_sum
  let mean h = if h.h_count = 0 then nan else h.h_sum /. Float.of_int h.h_count
  let min_value h = h.h_min
  let max_value h = h.h_max
  let buckets = hist_buckets

  let percentile h q =
    if h.h_count = 0 then nan
    else begin
      let q = if q < 0. then 0. else if q > 1. then 1. else q in
      (* Rank in [1 .. count]; walk the cumulative bucket counts and
         report the bucket's upper bound (within 6.25% of the rank's
         value), clamped into the observed [min, max] range. *)
      let rank = Float.to_int (Float.ceil (q *. Float.of_int h.h_count)) in
      let rank = if rank < 1 then 1 else rank in
      let rec walk i seen =
        if i >= num_buckets then h.h_max
        else begin
          let seen = seen + h.h_buckets.(i) in
          if seen >= rank then bucket_upper i else walk (i + 1) seen
        end
      in
      let v = walk 0 0 in
      if v < h.h_min then h.h_min else if v > h.h_max then h.h_max else v
    end
end

(* --- spans --- *)

let span_stack : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let with_span name f =
  if not (Atomic.get on) then f ()
  else begin
    let h = intern spans hist_make name in
    (* Allocation companion gauge: bytes allocated on the calling
       domain while the span was open (work fanned out to pool domains
       is not counted — Gc.allocated_bytes is per-domain).  Lets
       `zebra stats` and the BENCH files spot allocation regressions in
       the prover phases (e.g. snark.prove.fft.alloc_bytes). *)
    let g = intern gauges (fun _ -> Atomic.make 0.) (name ^ ".alloc_bytes") in
    let stack = Domain.DLS.get span_stack in
    stack := name :: !stack;
    let b0 = Gc.allocated_bytes () in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let dt = now () -. t0 in
        Atomic.set g (Gc.allocated_bytes () -. b0);
        (match !stack with _ :: rest -> stack := rest | [] -> ());
        locked (fun () -> hist_observe h dt))
      f
  end

let current_span () =
  match !(Domain.DLS.get span_stack) with [] -> None | name :: _ -> Some name

let span_stats name =
  locked @@ fun () ->
  Option.map (fun h -> (h.h_count, h.h_sum)) (Hashtbl.find_opt spans name)

let span_names () =
  locked @@ fun () ->
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) spans [])

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
      Hashtbl.iter (fun _ g -> Atomic.set g 0.) gauges;
      Hashtbl.iter (fun _ h -> hist_reset h) histograms;
      Hashtbl.reset spans);
  Domain.DLS.get span_stack := []

(* --- export --- *)

let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let hist_json h =
  let opt f = if h.h_count = 0 then Json.Null else Json.Num f in
  Json.Obj
    [
      ("count", Json.Num (Float.of_int h.h_count));
      ("total", Json.Num h.h_sum);
      ("mean", opt (h.h_sum /. Float.of_int (max 1 h.h_count)));
      ("min", opt h.h_min);
      ("max", opt h.h_max);
      ( "buckets",
        Json.List
          (List.map
             (fun (le, n) -> Json.List [ Json.Num le; Json.Num (Float.of_int n) ])
             (hist_buckets h)) );
    ]

let snapshot () =
  locked @@ fun () ->
  Json.Obj
    [
      ("enabled", Json.Bool (Atomic.get on));
      ( "counters",
        Json.Obj
          (List.map
             (fun (k, c) -> (k, Json.Num (Float.of_int (Atomic.get c))))
             (sorted_bindings counters)) );
      ( "gauges",
        Json.Obj
          (List.map (fun (k, g) -> (k, Json.Num (Atomic.get g))) (sorted_bindings gauges)) );
      ("histograms", Json.Obj (List.map (fun (k, h) -> (k, hist_json h)) (sorted_bindings histograms)));
      ("spans", Json.Obj (List.map (fun (k, h) -> (k, hist_json h)) (sorted_bindings spans)));
    ]

let to_json_string () = Json.to_string (snapshot ())

let counters_with_prefix prefix =
  let plen = String.length prefix in
  locked @@ fun () ->
  List.filter_map
    (fun (k, c) ->
      if String.length k >= plen && String.sub k 0 plen = prefix then
        Some (k, Atomic.get c)
      else None)
    (sorted_bindings counters)

(* --- pretty tree --- *)

let pretty_seconds s =
  if Float.is_nan s then "-"
  else if s >= 1. then Printf.sprintf "%.2fs" s
  else if s >= 1e-3 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.0fus" (s *. 1e6)

let render_tree () =
  (* One row per metric: the dotted name split into segments, plus a
     summary.  Rows sort lexicographically, so a child prints right under
     its parent; missing intermediate nodes get bare label lines. *)
  let rows =
    locked @@ fun () ->
    List.concat
      [
        List.map
          (fun (k, c) -> (k, Printf.sprintf "counter    %d" (Atomic.get c)))
          (sorted_bindings counters);
        List.map
          (fun (k, g) -> (k, Printf.sprintf "gauge      %g" (Atomic.get g)))
          (sorted_bindings gauges);
        List.map
          (fun (k, h) ->
            ( k,
              Printf.sprintf "histogram  count=%d sum=%g mean=%g" h.h_count h.h_sum
                (if h.h_count = 0 then nan else h.h_sum /. Float.of_int h.h_count) ))
          (sorted_bindings histograms);
        List.map
          (fun (k, h) ->
            ( k,
              Printf.sprintf "span       count=%d total=%s mean=%s max=%s" h.h_count
                (pretty_seconds h.h_sum)
                (pretty_seconds (if h.h_count = 0 then nan else h.h_sum /. Float.of_int h.h_count))
                (pretty_seconds h.h_max) ))
          (sorted_bindings spans);
      ]
  in
  let rows =
    List.sort
      (fun ((a : string list), _) (b, _) -> compare a b)
      (List.map (fun (k, s) -> (String.split_on_char '.' k, s)) rows)
  in
  let buf = Buffer.create 1024 in
  let printed : (string list, unit) Hashtbl.t = Hashtbl.create 32 in
  let rec ensure_parents prefix = function
    | [] | [ _ ] -> ()
    | seg :: rest ->
      let path = prefix @ [ seg ] in
      if not (Hashtbl.mem printed path) then begin
        Hashtbl.replace printed path ();
        Buffer.add_string buf
          (Printf.sprintf "%s%s\n" (String.make (2 * List.length prefix) ' ') seg)
      end;
      ensure_parents path rest
  in
  List.iter
    (fun (segs, summary) ->
      ensure_parents [] segs;
      Hashtbl.replace printed segs ();
      let depth = List.length segs - 1 in
      let label = List.nth segs depth in
      Buffer.add_string buf
        (Printf.sprintf "%s%-*s %s\n" (String.make (2 * depth) ' ')
           (max 1 (28 - (2 * depth)))
           label summary))
    rows;
  if rows = [] then Buffer.add_string buf "(no metrics recorded)\n";
  Buffer.contents buf
