(* Workload "sweep": Engine.Sweep over many small MPDE jobs — the
   unbalanced switching mixer at 32x16 on a seeded disparity x RF
   amplitude grid — run at 1 domain and then at min(nproc, recommended)
   domains, never more domains than cores. Only this workload exercises
   the engine's pool, per-domain workspace slots and retry path, and the
   OCaml GC under several domains; each job's MPDE working set fits in
   L2. *)

open Perfbench

let f_lo = 1e6

(* 12 strata x 4 repeats: 48 jobs of ~4 ms, so per-job work, not domain
   spawn (~1 ms), dominates a Sweep.run's wall, while one run stays
   short next to the host's speed phases (seconds), so the host-speed
   factor sampled just before it applies to all of it. *)
let reps = 4

let options = { Engine.Options.default with Engine.Options.n1 = 32; n2 = 16 }

let problem (p : Gen.sweep_point) =
  let fd = f_lo /. p.Gen.disparity in
  Engine.Problem.make
    ~label:(Printf.sprintf "disparity=%.6g,rf=%.6g" p.Gen.disparity p.Gen.rf_amplitude)
    ~output:"out" ~f_fast:f_lo ~fd
    (fun () ->
      Circuits.unbalanced_mixer ~f_lo
        ~rf_signal:(Circuit.Waveform.cosine ~amplitude:1.0 ~freq:(f_lo +. fd) ())
        ~rf_amplitude:p.Gen.rf_amplitude ())

let jobs points = Array.map (fun p -> Engine.Sweep.job ~options ~kind:Engine.Mpde (problem p)) points

let parallel_domains () = max 1 (min (Prov.nproc ()) (Domain.recommended_domain_count ()))

let run ?(per_job_telemetry = false) ~domains js =
  Probe.timed (fun () ->
      Engine.Sweep.run ~domains ~per_job_telemetry ~retry:Resilience.Retry.default js)

let waveform (o : Engine.Sweep.outcome) =
  match o.Engine.Sweep.result with
  | Ok r when r.Engine.Result.converged && not o.Engine.Sweep.degraded ->
      Some r.Engine.Result.waveform.Engine.Result.values
  | _ -> None

(* One check per job: converged, not degraded, and bitwise equal to the
   reference waveform (the 1-domain warm-up sweep). *)
let check tally ~reference outcomes =
  Array.iteri
    (fun i o ->
      Stats.check tally ~what:"sweep job converged and bitwise equal across domain counts"
        (match (waveform o, reference.(i)) with
        | Some w, Some r -> Oracle.same_bits w r
        | _ -> false))
    outcomes

let job_walls outcomes = Array.map (fun (o : Engine.Sweep.outcome) -> o.Engine.Sweep.wall_seconds) outcomes
let jobs_per_s outcomes wall = float_of_int (Array.length outcomes) /. wall

let setup ~seed scales tally =
  let (js, reference), _, t =
    Probe.scaled scales (fun () ->
        let js = jobs (Gen.sweep_points ~seed ~reps) in
        let warm, _ = run ~domains:1 js in
        (js, Array.map waveform warm))
  in
  Stats.check tally ~what:"sweep warm-up converged" (Array.for_all Option.is_some reference);
  (t, (js, reference))

let timed ~seed ~seconds tally =
  let scales = ref [] in
  let setups = List.init 3 (fun _ -> setup ~seed scales tally) in
  let _, (js, reference) = List.nth setups 2 in
  let domains = parallel_domains () in
  let n = float_of_int (Array.length js) in
  let per_job_run = ref [] and job_walls_serial = ref [] and parallel_rate = ref [] in
  Probe.until_deadline ~seconds (fun _ ->
      (* The 1-domain run is scaled by the host-speed factor around it. *)
      let (o1, w1_raw), _, w1 = Probe.scaled ~n:3 scales (fun () -> run ~domains:1 js) in
      check tally ~reference o1;
      per_job_run := (w1 /. n) :: !per_job_run;
      job_walls_serial := Array.map (fun x -> x *. w1 /. w1_raw) (job_walls o1) :: !job_walls_serial;
      let op, wp = run ~domains js in
      check tally ~reference op;
      parallel_rate := (n /. wp) :: !parallel_rate);
  let rounds = List.length !parallel_rate in
  let med l = Stats.median (Array.of_list l) in
  {
    Probe.setup_s = Array.of_list (List.map fst setups);
    solve = Array.of_list (List.rev !per_job_run);
    alt = Array.concat (List.rev !job_walls_serial);
    throughput = 1.0 /. med !per_job_run;
    scales = Array.of_list !scales;
    notes =
      [
        Printf.sprintf "# sweep: %d jobs per Sweep.run, %d rounds; domains requested=%d effective=%d" (Array.length js)
          rounds (Prov.nproc ()) domains;
        Printf.sprintf "# sweep.jobs_per_s_serial = %.2f 1/s (median of %d)" (1.0 /. med !per_job_run) rounds;
        Printf.sprintf "# sweep.jobs_per_s_parallel = %.2f 1/s raw wall (median of %d; not gated, see README)"
          (med !parallel_rate) rounds;
        "# solve = a 1-domain Sweep.run's wall per job; alt = one job's own wall in it; throughput = jobs/s of a 1-domain Sweep.run (median round)";
      ];
  }

(* ---- traced run ---- *)

(* MPDE vs single-time shooting over one difference period, serially, at
   the sweep's disparity strata (RF amplitude 0.05, ten shooting steps
   per LO cycle). Reported only: as a gated metric, a faster comparator
   would read as a regression. *)
let shooting_vs_mpde () =
  let rows =
    Array.map
      (fun d ->
        let fd = f_lo /. d in
        let { Circuits.mna; _ } = (problem { Gen.disparity = d; rf_amplitude = 0.05 }).Engine.Problem.build () in
        let shear = Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd in
        let _, mpde_s =
          Probe.timed (fun () ->
              Telemetry.span "bench.steady.mpde" (fun () -> Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:16 mna))
        in
        let dc = Circuit.Dcop.solve_exn mna in
        let _, shooting_s =
          Probe.timed (fun () ->
              Telemetry.span "bench.steady.shooting" (fun () ->
                  Steady.Shooting.solve
                    ~steps_per_period:(int_of_float (10.0 *. d))
                    ~x0:dc ~dae:(Circuit.Mna.dae mna) ~period:(1.0 /. fd) ()))
        in
        (d, mpde_s, shooting_s))
      Gen.sweep_disparities
  in
  let mpde_med = Stats.median (Array.map (fun (_, m, _) -> m) rows) in
  (* Least-squares slope of shooting time against disparity, through 0. *)
  let sxy = Array.fold_left (fun acc (d, _, s) -> acc +. (d *. s)) 0.0 rows
  and sxx = Array.fold_left (fun acc (d, _, _) -> acc +. (d *. d)) 0.0 rows in
  let d_max, m_max, s_max = rows.(Array.length rows - 1) in
  Array.to_list
    (Array.map (fun (d, _, s) -> Probe.m (Printf.sprintf "steady.shooting_s.d%.0f" d) "s" s) rows)
  @ [
      Probe.m "steady.mpde_s_p50" "s" mpde_med;
      Probe.m (Printf.sprintf "paper.speedup_ratio.d%.0f" d_max) "ratio" (s_max /. m_max);
      Probe.m "paper.breakeven_disparity" "ratio" (mpde_med /. (sxy /. sxx));
    ]

let moves = function
  | "mpde.assemble" | "mpde.precond" | "sparse.krylov" | "numeric.newton" | "mpde.solver" | "circuit.dcop" ->
      "solve_s_p50 on sweep"
  | "engine" -> "solve_s_p50, alt_s_p50 on sweep"
  | _ -> "none"

let traced ~seed ~lines tally =
  let points = Gen.sweep_points ~seed ~reps:2 in
  let js = jobs points in
  let domains = parallel_domains () in
  let reference, _ = run ~domains:1 js in
  let reference = Array.map waveform reference in
  let _, untraced_wall = run ~domains:1 js in
  let (o1, w1), s =
    Probe.recorded (fun () ->
        Telemetry.span "bench.sweep" (fun () -> run ~per_job_telemetry:true ~domains:1 js))
  in
  let summary = Telemetry.Summary.of_snapshot s in
  let gc = Telemetry.Runtime.start () in
  let (op, wp), _ =
    Probe.recorded (fun () ->
        Telemetry.span "bench.sweep.parallel" (fun () -> run ~per_job_telemetry:true ~domains js))
  in
  let gc_stats =
    Option.map
      (fun g ->
        Telemetry.Runtime.poll g;
        let st = Telemetry.Runtime.stats g in
        Telemetry.Runtime.stop g;
        st)
      gc
  in
  check tally ~reference o1;
  check tally ~reference op;
  let work = function
    | "engine" -> Some ("jobs", float_of_int (Array.length js))
    | "numeric.newton" -> Some ("newton.iterations", Probe.counter summary "newton.iterations")
    | "mpde.solver" -> Some ("jobs", float_of_int (Array.length js))
    | "sparse.krylov" -> Some ("gmres.iterations", Probe.counter summary "gmres.iterations")
    | "mpde.precond" -> Some ("lu.dense_factors", Probe.counter summary "lu.dense_factors")
    | _ -> None
  in
  let root_wall, _, _ = Probe.span_totals summary "bench.sweep" in
  lines :=
    !lines
    @ [
        Budget.render
          ~title:(Printf.sprintf "sweep, %d jobs at 1 domain" (Array.length js))
          ~wall:root_wall ~work ~moves (Budget.layers summary);
      ];
  let serial_rate = jobs_per_s o1 w1 and parallel_rate = jobs_per_s op wp in
  let busy = Array.fold_left ( +. ) 0.0 (job_walls op) in
  let alloc name =
    Array.fold_left
      (fun acc (o : Engine.Sweep.outcome) ->
        match o.Engine.Sweep.result with
        | Ok { Engine.Result.telemetry = Some t; _ } -> acc +. Probe.gauge t name
        | _ -> acc)
      0.0 op
    /. float_of_int (Array.length op)
  in
  let count f = float_of_int (Array.fold_left (fun acc o -> acc + f o) 0 (Array.append o1 op)) in
  let gc_num f = match gc_stats with Some st -> f st | None -> 0.0 in
  let m = Probe.m in
  let shooting = shooting_vs_mpde () in
  [
    m "engine.domains_requested" "count" (float_of_int (Prov.nproc ()));
    m "engine.domains_effective" "count" (float_of_int domains);
    m "engine.scaling_eff" "ratio" (parallel_rate /. (float_of_int domains *. serial_rate));
    m "engine.utilization" "ratio" (busy /. (float_of_int domains *. wp));
    m "engine.idle_s" "s" ((float_of_int domains *. wp) -. busy);
    m "engine.job_s_p50_serial" "s" (Stats.median (job_walls o1));
    m "engine.job_s_p50_parallel" "s" (Stats.median (job_walls op));
    m "sweep.jobs_per_s_serial" "1/s" serial_rate;
    m "sweep.jobs_per_s_parallel" "1/s" parallel_rate;
    m "mpde.workspace.reuses" "count" (Probe.counter summary "mpde.workspace.reuses");
    m "sweep.mpde.alloc_minor_words" "words" (alloc "alloc.minor_words");
    m "sweep.mpde.alloc_major_words" "words" (alloc "alloc.major_words");
    m "telemetry.gc.minor_collections" "count"
      (gc_num (fun st -> float_of_int st.Telemetry.Runtime.minor_collections));
    m "telemetry.gc.minor_pause_p99_s" "s"
      (gc_num (fun st ->
           let h = st.Telemetry.Runtime.minor_pause in
           if h.Telemetry.count > 0 then Telemetry.quantile h 0.99 else 0.0));
    m "telemetry.gc.major_slices" "count" (gc_num (fun st -> float_of_int st.Telemetry.Runtime.major_slices));
    m "resilience.retries" "count" (count Engine.Sweep.retries);
    m "resilience.degraded_jobs" "count" (count (fun o -> if o.Engine.Sweep.degraded then 1 else 0));
    m "sweep.trace_overhead_frac" "ratio" ((w1 /. untraced_wall) -. 1.0);
  ]
  @ shooting
