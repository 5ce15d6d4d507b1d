(* zbench: one seeded workload per run; prints the deterministic facts,
   a host/configuration fingerprint, every metric with its unit, and as
   the last line one JSON object.  Exits non-zero on any correctness
   failure.  See README.md. *)

module Parallel = Zebra_parallel.Parallel
module Sha256 = Zebra_hashing.Sha256
module Json = Zebra_obs.Json
open Zbench
open Workloads

(* Pinned so that every reported number is made under the same settings. *)
let keycache_pin = "16"
let held_out_seed = "271828"

let source_digest () =
  let ctx = Sha256.init () in
  let rec walk dir =
    let entries = Sys.readdir dir in
    Array.sort compare entries;
    Array.iter
      (fun e ->
        let p = Filename.concat dir e in
        if Sys.is_directory p then walk p
        else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" || e = "dune" then begin
          Sha256.update_string ctx p;
          Sha256.update_string ctx (In_channel.with_open_bin p In_channel.input_all)
        end)
      entries
  in
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    walk "lib";
    String.sub (Sha256.to_hex (Sha256.finalize ctx)) 0 16
  end
  else "unknown"

let () =
  let t0 = Trace.now_ns () in
  let workload = ref "" and seed = ref "" and seconds = ref 0. and trace = ref 0 in
  let domains = ref 2 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " market | crowd | sync");
      ("--seed", Arg.Set_string seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " work to measure, sized in reference-host seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced run, per-layer metrics");
      ("--domains", Arg.Set_int domains, " Parallel pool size (default 2)");
    ]
  in
  let usage = "zbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let run =
    match !workload with
    | "market" -> fun p -> run_closed_loop market p
    | "crowd" -> fun p -> run_closed_loop crowd p
    | "sync" -> run_sync
    | w ->
      prerr_endline ("zbench: unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  if !seed = "" || !seconds <= 0. || (!trace <> 0 && !trace <> 1) || !domains < 1 then begin
    prerr_endline usage;
    exit 2
  end;
  Unix.putenv "ZEBRA_KEYCACHE" keycache_pin;
  Parallel.set_default_domains !domains;
  if !trace = 1 then Trace.enable_tracing ();
  let o = run { seed = !seed; seconds = !seconds } in
  let fingerprint =
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("flambda", string_of_bool Build_info.flambda);
      ("pool_domains", string_of_int (Parallel.Pool.domains (Parallel.pool ())));
      ("zebra_keycache", Option.value ~default:"unset" (Sys.getenv_opt "ZEBRA_KEYCACHE"));
      ("git_commit", Option.value ~default:"unknown" (Sys.getenv_opt "ZBENCH_GIT_COMMIT"));
      ("source_digest", source_digest ());
      ("workload", !workload);
      ("seed", !seed);
      ("held_out_seed", held_out_seed);
      ("seconds", Printf.sprintf "%g" !seconds);
      ("trace", string_of_int !trace);
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "fingerprint %s = %s\n" k v) fingerprint;
  List.iter (fun (k, v) -> Printf.printf "fact %s = %s\n" k v) o.facts;
  let facts_text = String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) o.facts) in
  let facts_digest = Sha256.to_hex (Sha256.digest_string facts_text) in
  Printf.printf "facts_digest = %s\n" facts_digest;
  let notes = o.notes @ [ ("run_s", Printf.sprintf "%.1f" (Trace.seconds_since t0)) ] in
  List.iter (fun (k, v) -> Printf.printf "note %s = %s\n" k v) notes;
  let report = if !trace = 1 then o.per_layer else o.end_to_end in
  let problems =
    List.sort_uniq compare o.problems
    @ List.filter_map
        (fun x ->
          if x.name = "loop.coverage" && x.value < 0.95 then
            Some (Printf.sprintf "spans cover %.1f%% of the timed loop, below 95%%" (100. *. x.value))
          else None)
        report
  in
  List.iter (fun p -> Printf.printf "PROBLEM %s\n" p) problems;
  List.iter (fun x -> Printf.printf "metric %s = %s %s\n" x.name (Json.to_string (Json.Num x.value)) x.unit) report;
  if !trace = 1 then begin
    Printf.printf "self-time by layer (timed loop):\n";
    List.iter (fun (l, s, share) -> Printf.printf "  %-14s %10.4f s  %6.2f%%\n" l s (100. *. share)) o.self_table;
    let dir = Filename.concat "zbench" "out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%s.json" !workload !seed) in
    let strings kvs = List.map (fun (k, v) -> (k, Json.Str v)) kvs in
    let header = Json.Obj (strings fingerprint @ [ ("facts", Json.Obj (strings o.facts)) ]) in
    Trace.write ~path ~header;
    Printf.printf "trace written to %s\n" path
  end;
  let correct = problems = [] in
  let metrics =
    List.map (fun x -> (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit) ])) report
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int o.attempted));
            ("failed", Json.Num (float_of_int o.failed));
            ("metrics", Json.Obj metrics);
          ]));
  if not correct then exit 1
