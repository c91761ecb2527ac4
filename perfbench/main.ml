(* The repository benchmark.

   main.exe --workload mixer|sweep|serve --seed N --seconds S --trace 0|1

   --trace 0 runs the named workload untraced for S seconds and prints
   its end-to-end metrics; --trace 1 runs the traced passes of all three
   workloads (the named one first) and prints the per-layer metrics with
   the per-layer budget tables. Either way the last line of standard
   output is one JSON object: correct, attempted, failed, metrics. *)

open Perfbench

let workloads = [ "mixer"; "sweep"; "serve" ]

let usage () =
  prerr_endline "usage: main.exe --workload mixer|sweep|serve --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := int_of_string_opt v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.mem !workload workloads, !seed, !seconds, !trace) with
  | true, Some seed, Some seconds, Some ((0 | 1) as trace) when seconds >= 1 -> (!workload, seed, seconds, trace)
  | _ -> usage ()

let json_metric (m : Probe.metric) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Probe.name
    (if Float.is_finite m.Probe.value then Printf.sprintf "%.17g" m.Probe.value else "null")
    m.Probe.unit_

let end_to_end (r : Probe.timed_run) =
  let m = Probe.m in
  let tail_p, tail_v =
    match Stats.tail r.Probe.solve with
    | Some (p, v) -> (p, v)
    | None -> (100, Array.fold_left Float.max neg_infinity r.Probe.solve)
  in
  let n = Array.length in
  let metrics =
    [
      m "setup_s" "s" (Stats.median r.Probe.setup_s);
      m "rss_peak_mb" "MB" (Prov.rss_peak_mb ());
      m "solve_s_p50" "s" (Stats.median r.Probe.solve);
      m "solve_s_tail" "s" tail_v;
      m "alt_s_p50" "s" (Stats.median r.Probe.alt);
      m "throughput_per_s" "1/s" r.Probe.throughput;
    ]
  in
  let samples =
    [
      Printf.sprintf "# samples: setup_s n=%d; solve_s_p50 n=%d; solve_s_tail = p%d of n=%d; alt_s_p50 n=%d"
        (n r.Probe.setup_s) (n r.Probe.solve) tail_p (n r.Probe.solve) (n r.Probe.alt);
      Printf.sprintf "# times are nominal-host seconds: wall x %.3e s / calibration kernel; factor median %.4f (min %.4f, max %.4f, n=%d)"
        Calib.nominal_s (Stats.median r.Probe.scales)
        (Array.fold_left Float.min infinity r.Probe.scales)
        (Array.fold_left Float.max neg_infinity r.Probe.scales)
        (n r.Probe.scales);
    ]
  in
  (metrics, samples)

(* The traced run keeps its snapshots in memory and writes them out once,
   at the end, as JSONL next to the checkout's other build outputs. *)
let write_traces ~workload ~seed =
  let dir = ".bench_out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.jsonl" workload seed) in
  let oc = open_out path in
  List.iter (Telemetry.Sink.write_jsonl oc) (List.rev !Probe.snapshots);
  close_out oc;
  path

let () =
  let workload, seed, seconds, trace = parse_args () in
  print_endline (Prov.line ~workload ~seed ~seconds ~trace);
  let tally = Stats.tally () in
  let metrics, lines =
    if trace = 0 then begin
      let r =
        match workload with
        | "mixer" -> Wl_mixer.timed ~seed ~seconds tally
        | "sweep" -> Wl_sweep.timed ~seed ~seconds tally
        | _ -> Wl_serve.timed ~seed ~seconds tally
      in
      let metrics, samples = end_to_end r in
      (metrics, r.Probe.notes @ samples)
    end
    else begin
      let l2 = Prov.cache_bytes 2 and llc = Prov.cache_bytes 3 in
      let lines = ref [] in
      let passes =
        [
          ("mixer", fun () -> Wl_mixer.traced ~l2 ~llc ~lines tally);
          ("sweep", fun () -> Wl_sweep.traced ~seed ~lines tally);
          ("serve", fun () -> Wl_serve.traced ~seed ~lines tally);
        ]
      in
      let first, rest = List.partition (fun (w, _) -> w = workload) passes in
      let metrics =
        List.concat_map (fun (_, f) -> f ()) (first @ rest)
        @ [ Probe.m "process.rss_peak_mb" "MB" (Prov.rss_peak_mb ()) ]
      in
      let path = write_traces ~workload ~seed in
      (metrics, !lines @ [ "# trace written to " ^ path ])
    end
  in
  List.iter print_endline lines;
  List.iter
    (fun (m : Probe.metric) ->
      Printf.printf "# %-40s %-14.6g %-8s %s\n" m.Probe.name m.Probe.value m.Probe.unit_
        (if trace = 1 then "should move: " ^ Budget.moves_of_metric m.Probe.name else ""))
    metrics;
  (match tally.Stats.first_failure with
  | Some what -> Printf.printf "# first failed check: %s\n" what
  | None -> ());
  Printf.printf "# fail_frac = %.6g (%d failed of %d attempted)\n" (Stats.fail_frac tally) tally.Stats.failed
    tally.Stats.attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.Stats.failed = 0) tally.Stats.attempted tally.Stats.failed
    (String.concat ", " (List.map json_metric metrics))
