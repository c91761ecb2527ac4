(* Workload "mixer": the paper's balanced LO-doubling mixer (PRBS bit
   stream on the RF port, LO 450 MHz, fd = 15 kHz) solved cold from its
   DC point, serially. Most solves use the paper's 40x30 grid; one in
   seven uses 80x60, whose GMRES basis no longer fits in L2, so a change
   that wins at 40x30 and loses at 80x60 shows. *)

open Perfbench

let f_lo = 450e6
let fd = 15e3

type fixture = { mna : Circuit.Mna.t; bits : bool array; shear : Mpde.Shear.t }

let fixture () =
  let rf_signal, bits = Circuits.paper_rf_bitstream ~f_lo ~fd () in
  let { Circuits.mna; _ } = Circuits.balanced_mixer ~f_lo ~rf_signal () in
  { mna; bits; shear = Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd }

let dims = function Gen.Coarse -> (40, 30) | Gen.Fine -> (80, 60)

let solve fx g =
  let n1, n2 = dims g in
  Mpde.Solver.solve_mna ~shear:fx.shear ~n1 ~n2 fx.mna

(* A reference answer: converged, its residual recomputed from outside
   within tolerance, and the FIG4 envelope nulled exactly on the 0 bits. *)
let reference_ok fx (sol : Mpde.Solver.solution) =
  let nodes = Circuits.balanced_mixer_nodes in
  let diff =
    Mpde.Extract.differential_surface sol fx.mna nodes.Circuits.out_plus nodes.Circuits.out_minus
  in
  sol.Mpde.Solver.stats.converged
  && Mpde.Solver.residual_norm_check sol <= Mpde.Solver.default_options.tol
  && Oracle.envelope_follows_bits ~bits:fx.bits (Mpde.Extract.envelope sol ~values:diff)

let same (a : Mpde.Solver.solution) (b : Mpde.Solver.solution) =
  a.Mpde.Solver.stats.converged && Oracle.same_bits a.Mpde.Solver.big_x b.Mpde.Solver.big_x

let setup scales tally =
  let (fx, coarse, fine), _, t =
    Probe.scaled scales (fun () ->
        let fx = fixture () in
        (fx, solve fx Gen.Coarse, solve fx Gen.Fine))
  in
  Stats.check tally ~what:"mixer 40x30 reference" (reference_ok fx coarse);
  Stats.check tally ~what:"mixer 80x60 reference" (reference_ok fx fine);
  (t, (fx, coarse, fine))

let timed ~seed ~seconds tally =
  let scales = ref [] in
  let setups = List.init 3 (fun _ -> setup scales tally) in
  let _, (fx, coarse, fine) = List.nth setups 2 in
  List.iter
    (fun (_, (_, c, f)) ->
      Stats.check tally ~what:"mixer repeat set-up solves bitwise identical" (same c coarse && same f fine))
    setups;
  let schedule = Gen.mixer_schedule ~seed ~cycles:(1 + (seconds * 4)) in
  let coarse_s = ref [] and fine_s = ref [] and raw = ref [] in
  Probe.until_deadline ~seconds ~min_rounds:(Gen.coarse_per_cycle + 1) (fun i ->
      let g = schedule.(i mod Array.length schedule) in
      let sol, t_raw, t = Probe.scaled scales (fun () -> solve fx g) in
      let reference = if g = Gen.Coarse then coarse else fine in
      Stats.check tally ~what:"mixer solve bitwise equal to its reference" (same sol reference);
      if g = Gen.Coarse then begin
        coarse_s := t :: !coarse_s;
        raw := t_raw :: !raw
      end
      else fine_s := t :: !fine_s);
  let all = !coarse_s @ !fine_s in
  let st = coarse.Mpde.Solver.stats in
  {
    Probe.setup_s = Array.of_list (List.map fst setups);
    solve = Array.of_list (List.rev !coarse_s);
    alt = Array.of_list (List.rev !fine_s);
    throughput = float_of_int (List.length all) /. List.fold_left ( +. ) 0.0 all;
    scales = Array.of_list !scales;
    notes =
      [
        Printf.sprintf "# mixer 40x30: newton=%d gmres=%d residual=%.2e answer=%s; raw wall p50 %.6f s"
          st.Mpde.Solver.newton_iterations st.Mpde.Solver.linear_iterations st.Mpde.Solver.residual_norm
          (Oracle.hash coarse.Mpde.Solver.big_x)
          (Stats.median (Array.of_list !raw));
        "# solve = cold 40x30 solve; alt = cold 80x60 solve; throughput = solves per second of solving, both grids";
      ];
  }

(* ---- traced run ---- *)

let moves = function
  | "mpde.assemble" | "mpde.precond" | "sparse.krylov" | "numeric.newton" | "mpde.solver" ->
      "solve_s_p50, alt_s_p50 on mixer"
  | "circuit.dcop" -> "solve_s_p50 on mixer"
  | _ -> "none"

let traced ~l2 ~llc ~lines tally =
  let fx = fixture () in
  let reference = solve fx Gen.Coarse in
  Stats.check tally ~what:"mixer 40x30 reference" (reference_ok fx reference);
  let reps = 3 in
  let untraced = Array.init reps (fun _ -> snd (Probe.timed (fun () -> solve fx Gen.Coarse))) in
  let traced_walls, s =
    Probe.recorded (fun () ->
        Telemetry.span "bench.mixer" (fun () ->
            Array.init reps (fun _ ->
                snd (Probe.timed (fun () -> Telemetry.span "bench.mixer.solve" (fun () -> solve fx Gen.Coarse))))))
  in
  let s = Telemetry.Summary.of_snapshot s in
  let fine_sol, fs = Probe.recorded (fun () -> Telemetry.span "bench.mixer.fine" (fun () -> solve fx Gen.Fine)) in
  let fs = Telemetry.Summary.of_snapshot fs in
  let per_solve x = x /. float_of_int reps in
  let self summary name = let _, self, _ = Probe.span_totals summary name in self in
  let wall summary name = let w, _, _ = Probe.span_totals summary name in w in
  let calls summary name = let _, _, c = Probe.span_totals summary name in float_of_int c in
  let ctr = Probe.counter s in
  let work = function
    | "mpde.assemble" ->
        Some ("assembly calls", calls s "mpde.assemble.residual" +. calls s "mpde.assemble.jacobians")
    | "mpde.precond" -> Some ("lu.dense_factors", ctr "lu.dense_factors")
    | "sparse.krylov" -> Some ("gmres.iterations", ctr "gmres.iterations")
    | "numeric.newton" ->
        Some ("newton iterations", float_of_int (reps * reference.Mpde.Solver.stats.Mpde.Solver.newton_iterations))
    | _ -> None
  in
  let root_wall = wall s "bench.mixer" in
  lines :=
    !lines @ [ Budget.render ~title:"mixer, 3 traced 40x30 solves" ~wall:root_wall ~work ~moves (Budget.layers s) ];
  let m = Probe.m in
  let st = reference.Mpde.Solver.stats in
  let mixer =
    [
      m "mpde.assemble.residual_s" "s" (per_solve (self s "mpde.assemble.residual"));
      m "mpde.assemble.residual_calls" "count" (per_solve (calls s "mpde.assemble.residual"));
      m "mpde.assemble.jacobians_s" "s" (per_solve (self s "mpde.assemble.jacobians"));
      m "mpde.assemble.jacobians_calls" "count" (per_solve (calls s "mpde.assemble.jacobians"));
      m "fine.mpde.assemble.jacobians_s" "s" (self fs "mpde.assemble.jacobians");
      m "mpde.precond.build_s" "s" (per_solve (self s "mpde.precond.build" +. self s "mpde.precond.refresh"));
      m "linalg.lu.dense_factors" "count" (per_solve (ctr "lu.dense_factors"));
      m "fine.linalg.lu.dense_factors" "count" (Probe.counter fs "lu.dense_factors");
      m "mpde.newton_iterations" "count" (float_of_int st.Mpde.Solver.newton_iterations);
      m "numeric.newton.backtracks" "count" (per_solve (ctr "newton.backtracks"));
      m "sparse.gmres_s" "s" (per_solve (wall s "gmres"));
      m "sparse.gmres.iterations" "count" (per_solve (ctr "gmres.iterations"));
      m "sparse.gmres.restarts" "count" (per_solve (ctr "gmres.restarts"));
      m "fine.sparse.gmres_s" "s" (wall fs "gmres");
      m "fine.sparse.gmres.iterations" "count" (Probe.counter fs "gmres.iterations");
      m "linalg.lu.dense_solve_columns" "count" (per_solve (ctr "lu.dense_solve_columns"));
      m "linalg.lu.dense_solves" "count" (per_solve (ctr "lu.dense_solves"));
      m "fine.linalg.lu.dense_solve_columns" "count" (Probe.counter fs "lu.dense_solve_columns");
      m "mpde.alloc_minor_words" "words" (Probe.gauge s "alloc.minor_words");
      m "mpde.alloc_major_words" "words" (Probe.gauge s "alloc.major_words");
      m "mixer.trace_overhead_frac" "ratio" ((Stats.median traced_walls /. Stats.median untraced) -. 1.0);
    ]
  in
  let operands label (sol : Mpde.Solver.solution) =
    { Probe.label; sys = sol.Mpde.Solver.system; grid = sol.Mpde.Solver.grid; x = sol.Mpde.Solver.big_x }
  in
  let coarse_ops = operands "" reference and fine_ops = operands "fine." fine_sol in
  let probes, _ =
    Probe.recorded (fun () ->
        Probe.kernels ~l2 ~llc ~lines coarse_ops
        @ Probe.kernels ~l2 ~llc ~lines fine_ops
        @ Probe.solver_layers ~l2 ~llc ~lines coarse_ops)
  in
  mixer @ probes
