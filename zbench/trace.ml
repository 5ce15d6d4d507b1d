module Obs = Zebra_obs.Obs

type phase = Setup | Run | Check

type span = {
  name : string;
  id : int;
  parent : int;
  start_ns : int64;
  mutable stop_ns : int64;
  mutable alloc : float;
  mutable prove_s : float;
  mutable verify_s : float;
}

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9
let tracing_on = ref false
let phase = ref Setup
let tracing () = !tracing_on
let set_phase p = phase := p

(* Growable buffers: a run can make a few hundred thousand calls. *)
module Buf = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (max 64 (2 * b.n)) x in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

type stat = { durs : float Buf.t; mutable alloc : float }

let stats : (phase * string, stat) Hashtbl.t = Hashtbl.create 64
let spans : span Buf.t = Buf.create ()
let stack = ref []

let stat ph name =
  match Hashtbl.find_opt stats (ph, name) with
  | Some s -> s
  | None ->
    let s = { durs = Buf.create (); alloc = 0. } in
    Hashtbl.replace stats (ph, name) s;
    s

let samples ph name =
  match Hashtbl.find_opt stats (ph, name) with Some s -> Buf.to_array s.durs | None -> [||]

let alloc_bytes ph name =
  match Hashtbl.find_opt stats (ph, name) with Some s -> s.alloc | None -> 0.

let obs_total name = match Obs.span_stats name with Some (_, t) -> t | None -> 0.

let enable_tracing () =
  tracing_on := true;
  Obs.set_enabled true

let timed_untraced name f =
  let t0 = now_ns () in
  let r = f () in
  let dt = seconds_since t0 in
  Buf.push (stat !phase name).durs dt;
  (r, dt)

let dur sp = Int64.to_float (Int64.sub sp.stop_ns sp.start_ns) *. 1e-9

let timed_traced ?(id = -1) name f =
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let alloc0 = Gc.allocated_bytes () in
  let prove0 = obs_total "snark.prove" and verify0 = obs_total "snark.verify" in
  let sp =
    {
      name;
      id;
      parent;
      start_ns = now_ns ();
      stop_ns = 0L;
      alloc = 0.;
      prove_s = 0.;
      verify_s = 0.;
    }
  in
  let idx = spans.Buf.n in
  Buf.push spans sp;
  stack := idx :: !stack;
  let r = f () in
  sp.stop_ns <- now_ns ();
  stack := List.tl !stack;
  sp.alloc <- Gc.allocated_bytes () -. alloc0;
  sp.prove_s <- obs_total "snark.prove" -. prove0;
  sp.verify_s <- obs_total "snark.verify" -. verify0;
  let dt = dur sp in
  let s = stat !phase name in
  Buf.push s.durs dt;
  s.alloc <- s.alloc +. sp.alloc;
  (r, dt)

let timed ?id name f = if !tracing_on then timed_traced ?id name f else timed_untraced name f
let call ?id name f = fst (timed ?id name f)
let span_count () = spans.Buf.n

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let self_times () =
  let all = Buf.to_array spans in
  let n = Array.length all in
  let root =
    let rec find i = if i < 0 then None else if all.(i).name = "bench.loop" then Some i else find (i - 1) in
    find (n - 1)
  in
  match root with
  | None -> ([], 0.)
  | Some root ->
    let inside = Array.make n false in
    inside.(root) <- true;
    (* Parents precede their children in the buffer. *)
    for i = root + 1 to n - 1 do
      let p = all.(i).parent in
      if p >= 0 && inside.(p) then inside.(i) <- true
    done;
    let child_s = Array.make n 0. and child_prove = Array.make n 0. and child_verify = Array.make n 0. in
    for i = root + 1 to n - 1 do
      let p = all.(i).parent in
      if inside.(i) && p >= 0 then begin
        child_s.(p) <- child_s.(p) +. dur all.(i);
        child_prove.(p) <- child_prove.(p) +. all.(i).prove_s;
        child_verify.(p) <- child_verify.(p) +. all.(i).verify_s
      end
    done;
    let acc = Hashtbl.create 16 in
    let add l s = Hashtbl.replace acc l (s +. Option.value ~default:0. (Hashtbl.find_opt acc l)) in
    for i = root to n - 1 do
      if inside.(i) then begin
        let sp = all.(i) in
        let rest = Float.max 0. (dur sp -. child_s.(i)) in
        (* Verification can run on pool domains, so its recorded seconds
           may exceed the wall time left to attribute. *)
        let prove = Float.min rest (Float.max 0. (sp.prove_s -. child_prove.(i))) in
        let verify = Float.min (rest -. prove) (Float.max 0. (sp.verify_s -. child_verify.(i))) in
        add "snark.prove" prove;
        add "snark.verify" verify;
        add (layer sp.name) (rest -. prove -. verify)
      end
    done;
    let rows = Hashtbl.fold (fun l s rows -> (l, s) :: rows) acc [] in
    (List.sort (fun (_, a) (_, b) -> Float.compare b a) rows, dur all.(root))

let calibrate_span_cost () =
  let reps = 20_000 in
  let saved_n = spans.Buf.n and saved_phase = !phase and saved_tracing = !tracing_on in
  let run traced =
    tracing_on := traced;
    let t0 = now_ns () in
    for _ = 1 to reps do
      call "bench.calibrate" ignore
    done;
    seconds_since t0
  in
  let untraced = run false in
  let traced = run true in
  tracing_on := saved_tracing;
  phase := saved_phase;
  spans.Buf.n <- saved_n;
  List.iter (fun ph -> Hashtbl.remove stats (ph, "bench.calibrate")) [ Setup; Run; Check ];
  Float.max 0. ((traced -. untraced) /. float_of_int reps)

let write ~path ~header =
  let module Json = Zebra_obs.Json in
  let all = Buf.to_array spans in
  let t0 = if Array.length all > 0 then all.(0).start_ns else 0L in
  let ns x = Json.Num (Int64.to_float x) in
  let span sp =
    Json.List
      [
        Json.Str sp.name;
        Json.Num (float_of_int sp.id);
        Json.Num (float_of_int sp.parent);
        ns (Int64.sub sp.start_ns t0);
        ns (Int64.sub sp.stop_ns sp.start_ns);
        Json.Num sp.alloc;
        Json.Num sp.prove_s;
        Json.Num sp.verify_s;
      ]
  in
  let fields =
    [ "name"; "id"; "parent"; "start_ns"; "dur_ns"; "alloc_bytes"; "snark_prove_s"; "snark_verify_s" ]
  in
  let doc =
    Json.Obj
      [
        ("run", header);
        ("span_fields", Json.List (List.map (fun f -> Json.Str f) fields));
        ("spans", Json.List (Array.to_list (Array.map span all)));
        ("obs", Obs.snapshot ());
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')
