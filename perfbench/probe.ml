(* Timing helpers and the from-outside layer probes: each probe drives
   one public function of one layer on the mixer's own operands (the
   converged 40x30 and 80x60 states), so its cost per call is attributable
   to that layer alone. Byte counts are computed from array sizes, not
   measured, and ignore cache misses. *)

let now = Telemetry.Clock.wall

let timed f =
  let t0 = now () in
  let y = f () in
  (y, now () -. t0)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Median seconds per call of [f] over five batches of ~20 ms, each
   inside a benchmark span. *)
let per_call name f =
  let reps =
    let _, t = timed f in
    max 1 (int_of_float (0.02 /. Float.max t 1e-7))
  in
  let samples =
    Array.init 5 (fun _ ->
        Telemetry.span ("bench.probe." ^ name) (fun () ->
            let _, t = timed (fun () -> for _ = 1 to reps do f () done) in
            t /. float_of_int reps))
  in
  Perfbench.Stats.median samples

(* Where an array of [bytes] sits against the host caches. *)
let fits ~l2 ~llc bytes =
  match (l2, llc) with
  | Some l2, _ when bytes <= l2 -> "fits L2"
  | _, Some llc when bytes <= llc -> "fits LLC"
  | _, Some llc when bytes >= 4 * llc -> ">= 4x LLC"
  | None, None -> "cache sizes unknown"
  | _ -> "exceeds LLC"

type operands = {
  label : string;  (** "" for 40x30, "fine." for 80x60 *)
  sys : Mpde.Assemble.system;
  grid : Mpde.Grid.t;
  x : Linalg.Vec.t;  (** converged flattened state *)
}

let jacobian o =
  let ws = Mpde.Assemble.workspace Mpde.Assemble.Backward o.sys o.grid in
  ignore (Mpde.Assemble.point_jacobians_ws ws o.x);
  (ws, Mpde.Assemble.jacobian_ws ws)

(* Kernel dot/axpy and CSR spmv at one grid's vector length and matrix. *)
let kernels ~l2 ~llc ~lines o =
  let _, jac = jacobian o in
  let n = Array.length o.x in
  let a = Linalg.Kernel.of_array (Array.init n (fun i -> sin (float_of_int i)))
  and b = Linalg.Kernel.of_array (Array.init n (fun i -> cos (float_of_int i))) in
  let sink = ref 0.0 in
  let dot_s = per_call (o.label ^ "dot") (fun () -> sink := !sink +. Linalg.Kernel.dot a b) in
  let axpy_s = per_call (o.label ^ "axpy") (fun () -> Linalg.Kernel.axpy 1e-9 a b) in
  let y = Linalg.Kernel.create n in
  let spmv_s = per_call (o.label ^ "spmv") (fun () -> Sparse.Csr.mul_vec_ba_into jac a y) in
  let nnz = Sparse.Csr.nnz jac in
  let vec_bytes = 8 * n in
  (* values + column indices (one word each) + row pointers + x + y *)
  let spmv_bytes = (16 * nnz) + (8 * (n + 1)) + (2 * vec_bytes) in
  let spmv_flops = 2 * nnz in
  let gbs bytes s = float_of_int bytes /. s /. 1e9 in
  lines :=
    !lines
    @ [
        Printf.sprintf
          "# %skernel: n=%d vector %d B (%s); dot %d flop / %d B = %.3f flop/B; axpy %d flop / %d B = %.3f flop/B"
          o.label n vec_bytes (fits ~l2 ~llc vec_bytes) (2 * n) (2 * vec_bytes)
          (float_of_int (2 * n) /. float_of_int (2 * vec_bytes))
          (2 * n) (3 * vec_bytes)
          (float_of_int (2 * n) /. float_of_int (3 * vec_bytes));
        Printf.sprintf "# %sspmv: nnz=%d, %d flop / %d B computed (%s) = %.3f flop/B" o.label nnz
          spmv_flops spmv_bytes (fits ~l2 ~llc spmv_bytes)
          (float_of_int spmv_flops /. float_of_int spmv_bytes);
      ];
  ignore !sink;
  [
    m (o.label ^ "linalg.kernel.dot_gbs") "GB/s" (gbs (2 * vec_bytes) dot_s);
    m (o.label ^ "linalg.kernel.axpy_gbs") "GB/s" (gbs (3 * vec_bytes) axpy_s);
    m (o.label ^ "sparse.spmv_gflops") "GFLOP/s" (float_of_int spmv_flops /. spmv_s /. 1e9);
  ]
  @
  if o.label = "" then
    [ m "sparse.spmv_flop_per_byte" "flop/B" (float_of_int spmv_flops /. float_of_int spmv_bytes) ]
  else []

(* The point block at grid point [p]: the [size x size] diagonal block of
   the global Jacobian, which is what the sweep preconditioner factors. *)
let point_block jac ~size p =
  Linalg.Mat.init size size (fun i j -> Sparse.Csr.get jac ((p * size) + i) ((p * size) + j))

(* 40x30-only probes: assembly, dense LU factor and panel solve, and
   GMRES's own work (orthogonalisation and least squares). *)
let solver_layers ~l2 ~llc ~lines o =
  let ws, jac = jacobian o in
  let size = o.sys.Mpde.Assemble.size in
  let sources = Mpde.Assemble.sources_on_grid o.sys o.grid in
  let residual_s = per_call "assemble_ws.residual" (fun () -> ignore (Mpde.Assemble.residual_ws ws ~sources o.x)) in
  let jacobians_s =
    per_call "assemble_ws.jacobians" (fun () ->
        ignore (Mpde.Assemble.point_jacobians_ws ws o.x);
        ignore (Mpde.Assemble.jacobian_ws ws))
  in
  let points = Mpde.Grid.points o.grid in
  let blocks = Array.init points (point_block jac ~size) in
  let factor_s =
    per_call "lu.factor" (fun () -> Array.iter (fun b -> ignore (Linalg.Lu.factor b)) blocks)
  in
  (* The widest anti-diagonal wavefront level of the 40x30 sweep. *)
  let cols = min o.grid.Mpde.Grid.n1 o.grid.Mpde.Grid.n2 in
  let f = Linalg.Lu.factor blocks.(0) in
  let pb = Array.init (cols * size) (fun i -> cos (float_of_int i)) in
  let px = Array.make (cols * size) 0.0 in
  let panel_s = per_call "lu.panel_solve" (fun () -> Linalg.Lu.solve_many_into f ~cols pb px) in
  let panel_bytes = 8 * ((size * size) + (2 * cols * size)) in
  let panel_flops = 2 * size * size * cols in
  lines :=
    !lines
    @ [
        Printf.sprintf "# panel solve: n=%d x %d cols, %d flop / %d B computed (%s) = %.3f flop/B" size
          cols panel_flops panel_bytes (fits ~l2 ~llc panel_bytes)
          (float_of_int panel_flops /. float_of_int panel_bytes);
      ];
  (* GMRES with a CSR operator and a block-Jacobi preconditioner over the
     point blocks (ILU0 meets a zero pivot on the MNA branch rows of this
     Jacobian). The closures are timed, so the rest of the call is
     GMRES's own work: orthogonalisation and least squares. *)
  let factors = Array.map Linalg.Lu.factor blocks in
  let n = Array.length o.x in
  let y = Linalg.Kernel.create n and py = Linalg.Kernel.create n in
  let tmp_in = Array.make n 0.0 and tmp_out = Array.make n 0.0 in
  let inside = ref 0.0 in
  let op x =
    let t0 = now () in
    Sparse.Csr.mul_vec_ba_into jac x y;
    inside := !inside +. (now () -. t0);
    y
  in
  let precond x =
    let t0 = now () in
    Linalg.Kernel.blit_to_array x tmp_in;
    Array.iteri (fun p f -> Linalg.Lu.solve_many_into f ~off:p ~cols:1 tmp_in tmp_out) factors;
    Linalg.Kernel.blit_from_array tmp_out py;
    inside := !inside +. (now () -. t0);
    py
  in
  let rhs = Mpde.Assemble.residual_ws ws ~sources (Array.map (fun v -> v *. 1.001) o.x) in
  let gws = Sparse.Krylov.workspace ~restart:30 ~n in
  let runs =
    Array.init 5 (fun _ ->
        inside := 0.0;
        let r, t =
          timed (fun () ->
              Telemetry.span "bench.probe.gmres" (fun () ->
                  Sparse.Krylov.gmres_ba ~restart:30 ~max_iter:300 ~tol:1e-8 ~precond ~workspace:gws op rhs))
        in
        (t -. !inside, r.Sparse.Krylov.iterations))
  in
  let gmres_self_s = Perfbench.Stats.median (Array.map fst runs) in
  [
    m "mpde.assemble_ws.residual_s" "s" residual_s;
    m "mpde.assemble_ws.jacobians_s" "s" jacobians_s;
    m "linalg.lu_factor_per_s" "1/s" (float_of_int points /. factor_s);
    m "linalg.panel_solve_cols_per_s" "1/s" (float_of_int cols /. panel_s);
    m "sparse.gmres_self_s" "s" gmres_self_s;
    m "sparse.gmres_self.iterations" "count" (float_of_int (snd runs.(0)));
  ]

(* What a workload's untraced run hands back: the samples behind the
   end-to-end metrics, already scaled to nominal-host seconds (see
   Calib), plus human-readable report lines. *)
type timed_run = {
  setup_s : float array;  (** one per set-up *)
  solve : float array;  (** the workload's solve class, seconds each *)
  alt : float array;  (** its second operation class *)
  throughput : float;  (** operations per second, as the workload defines them *)
  scales : float array;  (** every host-speed factor applied *)
  notes : string list;
}

(* Time [f] and scale its wall by the host-speed factor sampled right
   before and right after it (the harmonic mean of the two, i.e. the
   nominal time over the mean kernel time), so an operation that spans a
   change of host speed is scaled by the average of both sides. *)
let scaled ?n scales f =
  let k0 = Perfbench.Calib.scale ?n () in
  let y, t = timed f in
  let k1 = Perfbench.Calib.scale ?n () in
  let k = 2.0 /. ((1.0 /. k0) +. (1.0 /. k1)) in
  scales := k :: !scales;
  (y, t, t *. k)

(* Repeat [f] until [seconds] have passed and [min_rounds] rounds ran. *)
let until_deadline ~seconds ?(min_rounds = 1) f =
  let t0 = now () in
  let rounds = ref 0 in
  while !rounds < min_rounds || now () -. t0 < float_of_int seconds do
    f !rounds;
    incr rounds
  done

(* Sum of (total wall, self, calls) over every node with this name. *)
let span_totals (s : Telemetry.Summary.t) name =
  let w = ref 0.0 and self = ref 0.0 and calls = ref 0 in
  let rec visit (n : Telemetry.Summary.node) =
    if n.Telemetry.Summary.name = name then begin
      w := !w +. n.wall;
      self := !self +. n.self;
      calls := !calls + n.calls
    end;
    List.iter visit n.children
  in
  List.iter visit s.Telemetry.Summary.roots;
  (!w, !self, !calls)

let counter (s : Telemetry.Summary.t) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name s.Telemetry.Summary.counters))

let gauge (s : Telemetry.Summary.t) name =
  Option.value ~default:0.0 (List.assoc_opt name s.Telemetry.Summary.gauges)

(* Every snapshot a traced run took, kept in memory until the run ends. *)
let snapshots : Telemetry.snapshot list ref = ref []

(* Run [f] under a fresh recorder; return its result and snapshot. *)
let recorded f =
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      let y = f () in
      let s = Option.get (Telemetry.snapshot ()) in
      snapshots := s :: !snapshots;
      (y, s))
