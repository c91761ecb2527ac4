module Vec = Linalg.Vec
module Budget = Resilience.Budget
module Guard = Resilience.Guard
module Ladder = Resilience.Ladder
module Report = Resilience.Report

let log_src = Logs.Src.create "rfss.mpde" ~doc:"MPDE solver resilience"

module Log = (val Logs.src_log log_src : Logs.LOG)

type linear_solver =
  | Direct
  | Gmres_sweep of { restart : int; max_iter : int }

let default_gmres = Gmres_sweep { restart = 60; max_iter = 600 }

(* Inexact Newton (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996),
   choice 2 in the Newton norm; the rules are in the interface. The
   safeguard reads the previous step's value before the clamp: after
   it η is at most 0.1, and 0.9·0.1² never exceeds 0.1. A linear
   system's first step runs at the floor because its Jacobian is
   constant, so one exact step converges; a predicted-last step runs at
   the floor so the converged answer keeps an exact solve's accuracy. *)
let forcing_min = 1e-9

let forcing_max = 0.1

type forcing = { fnorm : float; ew : float }

let forcing_term ~tol ~linear ~prev fnorm =
  let ew =
    match prev with
    | None -> if linear then forcing_min else forcing_max
    | Some p ->
        let ew = 0.9 *. Float.pow (fnorm /. p.fnorm) 2.0 in
        let guard = 0.9 *. p.ew *. p.ew in
        if guard > 0.1 then Float.max ew guard else ew
  in
  let eta = Float.min forcing_max (Float.max forcing_min ew) in
  ((if eta *. fnorm <= tol then forcing_min else eta), { fnorm; ew })

exception Linear_stall of string

type options = {
  max_newton : int;
  tol : float;
  scheme : Assemble.scheme;
  linear_solver : linear_solver;
  allow_continuation : bool;
  budget : Budget.t option;
}

let default_options =
  {
    max_newton = 50;
    tol = 1e-8;
    scheme = Assemble.Backward;
    linear_solver = default_gmres;
    allow_continuation = true;
    budget = None;
  }

let make_options ?(max_newton = default_options.max_newton)
    ?(tol = default_options.tol) ?(scheme = default_options.scheme)
    ?(allow_continuation = default_options.allow_continuation) ?budget () =
  { default_options with max_newton; tol; scheme; allow_continuation; budget }

type stats = {
  newton_iterations : int;
  converged : bool;
  residual_norm : float;
  linear_iterations : int;
  continuation_steps : int;
  continuation_rejected : int;
  strategy : string;
  wall_seconds : float;
}

type solution = {
  grid : Grid.t;
  system : Assemble.system;
  big_x : Vec.t;
  stats : stats;
  report : Report.t;
}

(* The sweep preconditioner is exact (up to periodic wraps) for the
   backward scheme; for central/spectral t1 schemes it degrades to a
   block Gauss-Seidel over the t2 columns (the t1 coupling is left to
   GMRES). *)
let t1_in_diag = function
  | Assemble.Backward -> true
  | Assemble.Central_t1 | Assemble.Spectral_t1 | Assemble.Spectral_both -> false

(* Reusable state for the block forward-substitution sweep: the dense
   per-point diagonal inverses and the apply buffers. A (re)build
   stamps D_p into the shared [stage] matrix, factors it in place and
   writes D_p⁻¹ into [mats.(p)]. A point's dense block is allocated the
   first time that point is factored and kept for the workspace's life:
   a solve whose sweep shares a few inverses holds a few blocks, and an
   exact rebuild allocates all np. [factor_id.(p)] names the point whose
   inverse block [p] uses ([p] itself when unshared); [exact] records
   whether every inverse was built from its own point's Jacobian (as
   opposed to a drift-clustered representative's). *)
type sweep_cache = {
  sc_n : int;
  sc_np : int;
  sc_n1 : int;
  sc_t1d : bool;  (* t1 coupling inside the diagonal (backward scheme) *)
  mats : Linalg.Mat.t array;  (* np: D_p⁻¹ per representative p; 0×0 until p is factored *)
  stage : Linalg.Mat.t;  (* n×n: D_p stamped and LU-factored in place *)
  mutable built : bool;  (* false until the first build *)
  factor_id : int array;  (* np: representative point of block p's inverse *)
  mutable exact : bool;
  sx : Linalg.Kernel.vec;  (* np*n sweep result, returned to GMRES *)
  rhs : Vec.t;  (* n: one point's right-hand side inside the sweep *)
  cw : Linalg.Kernel.vec;
  (* np*n scratch: C_p v_p for the matrix-free op, and the sweep's
     lower-neighbour couplings C_p x_p (the two never overlap in time:
     each writes every slot it later reads within one call) *)
  mutable built_g : Sparse.Csr.t array;  (* G at last (re)factor: pattern + copied values *)
  mutable built_c : Sparse.Csr.t array;  (* C at last (re)factor *)
  row_scale : float array;  (* np*n: max |D_p row| at last (re)factor *)
  mutable built_extra_diag : float;  (* nan until first build *)
  mutable stale : bool;  (* some inverses lag the current Jacobian *)
}

let csr_values_equal (a : Sparse.Csr.t) (b : Sparse.Csr.t) =
  let va = a.Sparse.Csr.values and vb = b.Sparse.Csr.values in
  let len = Array.length va in
  len = Array.length vb
  && Sparse.Csr.same_pattern a b
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < len do
    (* [<>] makes a NaN entry read as "not uniform" — fails safe. *)
    if va.(!i) <> vb.(!i) then ok := false;
    incr i
  done;
  !ok

(* The MPDE Jacobian's per-point blocks are functions of the per-point
   state only, so at a replicated seed (DC operating point, zero state
   — how every Newton stage starts) all np blocks are equal and one
   dense factorization serves the whole sweep. Early-exits at the first
   differing block, so the check is O(one block) once the LO swing has
   been absorbed into the iterate. *)
let blocks_uniform (jacs : (Sparse.Csr.t * Sparse.Csr.t) array) =
  let g0, c0 = jacs.(0) in
  let ok = ref true and p = ref 1 in
  while !ok && !p < Array.length jacs do
    let gp, cp = jacs.(!p) in
    if not (csr_values_equal gp g0 && csr_values_equal cp c0) then ok := false;
    incr p
  done;
  !ok

(* A lagged block is refactored when any Jacobian entry moved by more
   than this fraction of its dense row's magnitude at build time;
   quieter blocks keep their dense factors. Row-scaled entry-wise
   comparison is deliberate: a device conductance swinging by 20% of
   its row visibly weakens the preconditioner, yet is invisible in any
   whole-block norm dominated by large constant stamp entries. *)
let refresh_tol = 0.5

(* Per-solve workspace: assembly scratch plus the linear-solver caches
   (GMRES Krylov basis, sweep factors, the sparse-LU factorization
   refreshed numerically on its frozen pattern). Owned by exactly one
   solve on one domain. *)
type workspace = {
  mutable asm : Assemble.workspace;
  mutable gmres_ws : Sparse.Krylov.workspace option;
  mutable gmres_restart : int;
  op_ba : Linalg.Kernel.vec;  (* shared operator output (GMRES buffer contract) *)
  sweep : sweep_cache;
  mutable splu : Sparse.Splu.t option;
}

let make_workspace scheme sys (g : Grid.t) =
  let n = sys.Assemble.size in
  let np = Grid.points g in
  let big = np * n in
  {
    asm = Assemble.workspace scheme sys g;
    gmres_ws = None;
    gmres_restart = 0;
    op_ba = Linalg.Kernel.create big;
    sweep =
      {
        sc_n = n;
        sc_np = np;
        sc_n1 = g.Grid.n1;
        sc_t1d = t1_in_diag scheme;
        mats = Array.make np (Linalg.Mat.create 0 0);
        stage = Linalg.Mat.create n n;
        built = false;
        factor_id = Array.make np 0;
        exact = false;
        sx = Linalg.Kernel.create big;
        rhs = Array.make n 0.0;
        cw = Linalg.Kernel.create big;
        built_g = [||];  (* sized at the first build (no Jacobian here) *)
        built_c = [||];
        row_scale = Array.make big 0.0;
        built_extra_diag = nan;
        stale = false;
      };
    splu = None;
  }

(* Can a retained workspace serve a new solve of this shape? The big
   buffers and dense blocks depend only on (n, np, n1,
   scheme-diagonal-structure). *)
let workspace_fits ws scheme sys (g : Grid.t) =
  let c = ws.sweep in
  c.sc_n = sys.Assemble.size
  && c.sc_np = Grid.points g
  && c.sc_n1 = g.Grid.n1
  && c.sc_t1d = t1_in_diag scheme

(* Rebind a retained workspace to a new solve job: fresh assembly
   workspace (it is bound to the system/grid and cheap — the big COO is
   lazy), dropped numeric caches, kept big allocations. *)
let rebind_workspace ws scheme sys (g : Grid.t) =
  ws.asm <- Assemble.workspace scheme sys g;
  ws.sweep.built <- false;
  ws.sweep.exact <- false;
  ws.sweep.built_extra_diag <- nan;
  ws.sweep.stale <- false;
  ws.splu <- None;
  ws

let gmres_workspace ws ~restart ~n =
  match ws.gmres_ws with
  | Some k when ws.gmres_restart >= restart -> k
  | _ ->
      let k = Sparse.Krylov.workspace ~restart ~n in
      ws.gmres_ws <- Some k;
      ws.gmres_restart <- restart;
      k

let sweep_scale_c scheme (g : Grid.t) =
  (if t1_in_diag scheme then 1.0 /. g.Grid.h1 else 0.0) +. (1.0 /. g.Grid.h2)

(* Stamp, factor and invert the dense diagonal block of one grid point,
   D_p = (1/h1 + 1/h2)·C_p + G_p (+ extra_diag·I), into [mats.(p)],
   recording the Jacobian and dense row scales it was built from (the
   reference state for {!block_drifted}). [extra_diag] adds the
   pseudo-transient loading so the preconditioner tracks the loaded
   Jacobian. *)
let factor_sweep_point cache scheme (g : Grid.t) ~jacs ~extra_diag p =
  let n = cache.sc_n in
  let scale_c = sweep_scale_c scheme g in
  let gp, cp = jacs.(p) in
  let d = cache.stage in
  Array.fill d.Linalg.Mat.data 0 (n * n) 0.0;
  for i = 0 to n - 1 do
    Sparse.Csr.iter_row cp i (fun j v -> Linalg.Mat.add_entry d i j (scale_c *. v));
    Sparse.Csr.iter_row gp i (fun j v -> Linalg.Mat.add_entry d i j v);
    if extra_diag <> 0.0 then Linalg.Mat.add_entry d i i extra_diag
  done;
  cache.built_g.(p) <- { gp with Sparse.Csr.values = Array.copy gp.Sparse.Csr.values };
  cache.built_c.(p) <- { cp with Sparse.Csr.values = Array.copy cp.Sparse.Csr.values };
  for i = 0 to n - 1 do
    let m = ref 0.0 in
    for j = 0 to n - 1 do
      m := Float.max !m (Float.abs (Linalg.Mat.get d i j))
    done;
    cache.row_scale.((p * n) + i) <- Float.max !m 1e-300
  done;
  if cache.mats.(p).Linalg.Mat.rows <> n then cache.mats.(p) <- Linalg.Mat.create n n;
  Linalg.Lu.inverse_into (Linalg.Lu.factor_in_place d) cache.mats.(p)

(* Is point [p]'s Jacobian within the refresh tolerance of the build
   snapshot stored at index [snap]? Entry-wise against the snapshot
   values, scaled by the magnitude of the stamped dense row the entry
   lands in. Phrased as "keep only when provably close" so a NaN entry
   reads as drifted, and a pattern change (the per-point rebuild
   fallback swapped the CSR) reads as drifted too — even at equal nnz,
   where the value scan alone would compare misaligned entries. With
   [snap = p] this is the classic lagged-factor drift test; with [snap]
   a cluster representative it is the clustering criterion. *)
let drifted_vs ?(tol = refresh_tol) cache scheme (g : Grid.t) ~jacs ~snap p =
  let gp, cp = jacs.(p) in
  let bg = cache.built_g.(snap) and bc = cache.built_c.(snap) in
  if
    Array.length bg.Sparse.Csr.values <> Array.length gp.Sparse.Csr.values
    || Array.length bc.Sparse.Csr.values <> Array.length cp.Sparse.Csr.values
  then true
  else begin
    let n = cache.sc_n in
    let scale_c = sweep_scale_c scheme g in
    let base = snap * n in
    let close = ref true in
    let scan (m : Sparse.Csr.t) built coeff =
      let row_ptr = m.Sparse.Csr.row_ptr and v = m.Sparse.Csr.values in
      let i = ref 0 in
      while !close && !i < n do
        let lim = tol *. cache.row_scale.(base + !i) in
        let k = ref row_ptr.(!i) and stop = row_ptr.(!i + 1) in
        while !close && !k < stop do
          if not (Float.abs (coeff *. (v.(!k) -. built.(!k))) <= lim) then
            close := false;
          incr k
        done;
        incr i
      done
    in
    scan gp bg.Sparse.Csr.values 1.0;
    if !close then scan cp bc.Sparse.Csr.values scale_c;
    (* Equal nnz does not make the values comparable; the pattern is
       confirmed only for a would-be match, so rejecting a cluster
       representative stays O(first differing entry). *)
    not (!close && Sparse.Csr.same_pattern bg gp && Sparse.Csr.same_pattern bc cp)
  end

(* Has block [p]'s Jacobian moved, relative to what its dense factor
   was built from? Under clustering, [p]'s snapshot *is* its
   representative's build state (the snapshot arrays are shared and the
   row scales copied), so the same test covers both lag drift and
   cluster-membership drift. *)
let block_drifted cache scheme (g : Grid.t) ~jacs p =
  drifted_vs cache scheme g ~jacs ~snap:p p

(* How many recent cluster representatives each point is compared
   against before it is declared a new representative. The converged
   mixer grid clusters into a handful of factors, so a small window
   keeps the scan linear while still catching spatially coherent
   clusters that interleave along the scan order. *)
let cluster_window = 64

(* Cluster-membership tolerance — deliberately much tighter than
   [refresh_tol]. Lagging keeps a point's *own* factor, exact at build
   time and drifting gradually; clustering hands a point a *different*
   point's factor, so the full tolerance is an immediate, spatially
   correlated perturbation of the whole sweep. At 0.5 the clustered
   preconditioner visibly costs GMRES iterations and Newton
   backtracks; at a few percent it is indistinguishable from exact
   while the mixer grid still collapses to a handful of
   representatives. *)
let cluster_tol = 0.05

(* Full (re)build of the sweep's dense inverses from the current
   per-point Jacobian values.

   [cluster = false] builds one inverse per point. [cluster = true]
   additionally shares inverses between points whose Jacobians agree
   within the drift tolerance: the grid is scanned in point order, each
   point compared against the most recent representatives, and
   matching points adopt the representative's inverse, snapshot and row
   scales. Clustered inverses are a (slightly) weaker preconditioner,
   so the cache is marked non-exact and stale — the stall path rebuilds
   exact. The uniform replicated-seed fast path is unchanged and
   exact. *)
let build_sweep_factors cache scheme (g : Grid.t) ~jacs ~extra_diag ~cluster =
  let np = cache.sc_np in
  if Array.length cache.built_g = 0 then begin
    (* Placeholders only: every build overwrites all np snapshots. *)
    cache.built_g <- Array.make np (fst jacs.(0));
    cache.built_c <- Array.make np (snd jacs.(0))
  end;
  let factor_point = factor_sweep_point cache scheme g ~jacs ~extra_diag in
  let n = cache.sc_n in
  (* Point [p] adopts representative [r]'s inverse and build state.
     Sharing the snapshot CSRs is sound because a later refactor
     replaces them with fresh copies instead of mutating. *)
  let adopt r p =
    cache.factor_id.(p) <- r;
    cache.built_g.(p) <- cache.built_g.(r);
    cache.built_c.(p) <- cache.built_c.(r);
    Array.blit cache.row_scale (r * n) cache.row_scale (p * n) n
  in
  (if blocks_uniform jacs then begin
     (* Replicated iterate: one dense inverse shared by all np points. *)
     Telemetry.count "mpde.precond.shared_builds";
     factor_point 0;
     cache.factor_id.(0) <- 0;
     for p = 1 to np - 1 do
       adopt 0 p
     done;
     cache.exact <- true;
     cache.stale <- false
   end
   else if not cluster then begin
     for p = 0 to np - 1 do
       factor_point p;
       cache.factor_id.(p) <- p
     done;
     cache.exact <- true;
     cache.stale <- false
   end
   else begin
     let recent = Array.make cluster_window 0 in
     let head = ref 0 and count = ref 0 in
     let push r =
       recent.(!head) <- r;
       head := (!head + 1) mod cluster_window;
       if !count < cluster_window then incr count
     in
     let find_rep p =
       let found = ref (-1) and k = ref 0 in
       while !found < 0 && !k < !count do
         let idx = (!head - 1 - !k + (2 * cluster_window)) mod cluster_window in
         let r = recent.(idx) in
         if not (drifted_vs ~tol:cluster_tol cache scheme g ~jacs ~snap:r p)
         then found := r;
         incr k
       done;
       !found
     in
     let reps = ref 1 in
     factor_point 0;
     cache.factor_id.(0) <- 0;
     push 0;
     for p = 1 to np - 1 do
       let r = find_rep p in
       if r >= 0 then adopt r p
       else begin
         factor_point p;
         cache.factor_id.(p) <- p;
         push p;
         incr reps
       end
     done;
     Telemetry.gauge "mpde.precond.cluster_reps" (float_of_int !reps);
     cache.exact <- false;
     cache.stale <- true
   end);
  cache.built <- true;
  cache.built_extra_diag <- extra_diag

(* Lagged refresh: refactor only the blocks that drifted since they
   were last factored; quiet blocks keep their (slightly stale) dense
   inverses. *)
let refresh_sweep_factors cache scheme (g : Grid.t) ~jacs ~extra_diag =
  Telemetry.span "mpde.precond.refresh" @@ fun () ->
  let any_drifted () =
    let drifted = ref false and p = ref 0 in
    while (not !drifted) && !p < cache.sc_np do
      if block_drifted cache scheme g ~jacs !p then drifted := true;
      incr p
    done;
    !drifted
  in
  if (not cache.exact) || (cache.sc_np > 1 && cache.factor_id.(1) = 0) then begin
    (* Shared inverses — clustered, or one inverse for a replicated
       iterate held in [mats.(0)]. Each point's snapshot is its
       representative's build state, so drifting against it means the
       point left its cluster; refactoring it in place would corrupt the
       inverse the others still reference, so the first drift anywhere
       forces a full clustered rebuild. *)
    if any_drifted () then build_sweep_factors cache scheme g ~jacs ~extra_diag ~cluster:true
    else cache.stale <- true
  end
  else begin
    let refreshed = ref 0 in
    for p = 0 to cache.sc_np - 1 do
      if block_drifted cache scheme g ~jacs p then begin
        factor_sweep_point cache scheme g ~jacs ~extra_diag p;
        incr refreshed
      end
    done;
    if !refreshed > 0 then
      Telemetry.count ~by:!refreshed "mpde.precond.block_refreshes";
    cache.stale <- !refreshed < cache.sc_np
  end

(* Block forward-substitution sweep: apply M⁻¹ where M keeps the
   diagonal blocks and the lower-neighbour blocks — (i−1,j) and
   (i,j−1) for the backward scheme, (i,j−1) only otherwise — *dropping
   the periodic wraps* (i = 0 and j = 0 rows lose their wrapped
   neighbour). Lexicographic order then makes M block lower-triangular,
   solvable in one pass:
     x_p = D_p⁻¹·(r_p + C_{i−1,j}·x_{i−1,j}/h1 + C_{i,j−1}·x_{i,j−1}/h2).
   Each point costs n independent row dot-products against its cached
   inverse, and each coupling y_q = C_q·x_q is computed once (only when
   q has a successor) and read by both successors. Counts one
   [lu.dense_solves] per apply and one [lu.dense_solve_columns] per
   point. Returns the cache's shared output buffer (GMRES copies what
   it keeps). *)
let sweep_apply cache (g : Grid.t) ~jacs (r : Linalg.Kernel.vec) =
  Telemetry.count "mpde.precond.sweeps";
  Telemetry.count "lu.dense_solves";
  Telemetry.count ~by:cache.sc_np "lu.dense_solve_columns";
  let n = cache.sc_n and n1 = cache.sc_n1 and np = cache.sc_np in
  let t1d = cache.sc_t1d in
  let inv_h1 = 1.0 /. g.Grid.h1 and inv_h2 = 1.0 /. g.Grid.h2 in
  let x = cache.sx and y = cache.cw and rhs = cache.rhs in
  (* [i] is p's t1 index, stepped alongside p instead of [p mod n1]. *)
  let i = ref 0 in
  for p = 0 to np - 1 do
    let base = p * n in
    let west = t1d && !i > 0 and south = p >= n1 in
    for row = 0 to n - 1 do
      let s = ref (Bigarray.Array1.unsafe_get r (base + row)) in
      if west then
        s := !s +. (inv_h1 *. Bigarray.Array1.unsafe_get y (base - n + row));
      if south then
        s :=
          !s +. (inv_h2 *. Bigarray.Array1.unsafe_get y (base - (n1 * n) + row));
      Array.unsafe_set rhs row !s
    done;
    (* x_p = D_p⁻¹·rhs, four rows per pass over [rhs]: four independent
       accumulator chains instead of one, each summed left to right as
       a one-row loop would, so the bits do not change. *)
    let d = cache.mats.(cache.factor_id.(p)).Linalg.Mat.data in
    let row = ref 0 in
    while !row + 3 < n do
      let d0 = !row * n in
      let d1 = d0 + n in
      let d2 = d1 + n in
      let d3 = d2 + n in
      let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
      for k = 0 to n - 1 do
        let rk = Array.unsafe_get rhs k in
        s0 := !s0 +. (Array.unsafe_get d (d0 + k) *. rk);
        s1 := !s1 +. (Array.unsafe_get d (d1 + k) *. rk);
        s2 := !s2 +. (Array.unsafe_get d (d2 + k) *. rk);
        s3 := !s3 +. (Array.unsafe_get d (d3 + k) *. rk)
      done;
      Bigarray.Array1.unsafe_set x (base + !row) !s0;
      Bigarray.Array1.unsafe_set x (base + !row + 1) !s1;
      Bigarray.Array1.unsafe_set x (base + !row + 2) !s2;
      Bigarray.Array1.unsafe_set x (base + !row + 3) !s3;
      row := !row + 4
    done;
    while !row < n do
      let db = !row * n in
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        s := !s +. (Array.unsafe_get d (db + k) *. Array.unsafe_get rhs k)
      done;
      Bigarray.Array1.unsafe_set x (base + !row) !s;
      incr row
    done;
    if (t1d && !i + 1 < n1) || p + n1 < np then begin
      let c = snd jacs.(p) in
      let rp = c.Sparse.Csr.row_ptr
      and ci = c.Sparse.Csr.col_idx
      and cv = c.Sparse.Csr.values in
      for row = 0 to n - 1 do
        let s = ref 0.0 in
        for k = rp.(row) to rp.(row + 1) - 1 do
          s :=
            !s
            +. (Array.unsafe_get cv k
               *. Bigarray.Array1.unsafe_get x (base + Array.unsafe_get ci k))
        done;
        Bigarray.Array1.unsafe_set y (base + row) !s
      done
    end;
    i := if !i + 1 = n1 then 0 else !i + 1
  done;
  x

(* Matrix-free application of the backward-scheme MPDE Jacobian:
   out_p = (1/h1 + 1/h2)·C_p·v_p + G_p·v_p (+ extra_diag·v_p)
           − (C_{i−1,j}·v_{i−1,j})/h1 − (C_{i,j−1}·v_{i,j−1})/h2
   with periodic wraps, mirroring {!Assemble.stamp_big}'s Backward
   stamping. The per-point products C_p·v_p are computed once into
   [cache.cw] and reused for both neighbour couplings, so one apply
   costs nnz(C) + nnz(G) multiplies per point — cheaper than the SpMV
   on the assembled big CSR, and it removes the big-Jacobian assembly
   from the GMRES hot path entirely. *)
let sweep_op_apply cache (g : Grid.t) ~jacs ~extra_diag
    (v : Linalg.Kernel.vec) (out : Linalg.Kernel.vec) =
  let n = cache.sc_n in
  let inv_h1 = 1.0 /. g.Grid.h1 and inv_h2 = 1.0 /. g.Grid.h2 in
  let scale_c = inv_h1 +. inv_h2 in
  let w = cache.cw in
  for p = 0 to cache.sc_np - 1 do
    let gp, cp = jacs.(p) in
    let base = p * n in
    let crp = cp.Sparse.Csr.row_ptr
    and cci = cp.Sparse.Csr.col_idx
    and cv = cp.Sparse.Csr.values in
    let grp = gp.Sparse.Csr.row_ptr
    and gci = gp.Sparse.Csr.col_idx
    and gv = gp.Sparse.Csr.values in
    for i = 0 to n - 1 do
      let s = ref 0.0 in
      for k = crp.(i) to crp.(i + 1) - 1 do
        s :=
          !s
          +. (Array.unsafe_get cv k
              *. Bigarray.Array1.unsafe_get v (base + Array.unsafe_get cci k))
      done;
      Bigarray.Array1.unsafe_set w (base + i) !s;
      let t = ref (scale_c *. !s) in
      for k = grp.(i) to grp.(i + 1) - 1 do
        t :=
          !t
          +. (Array.unsafe_get gv k
              *. Bigarray.Array1.unsafe_get v (base + Array.unsafe_get gci k))
      done;
      Bigarray.Array1.unsafe_set out (base + i)
        (!t +. (extra_diag *. Bigarray.Array1.unsafe_get v (base + i)))
    done
  done;
  (* Neighbour couplings, point order p = j·n1 + i; the periodic wraps
     (i = 0 reads i = n1−1, j = 0 reads j = n2−1) come from the loop
     indices, not from a division per point. *)
  let n1 = g.Grid.n1 and n2 = g.Grid.n2 in
  for j = 0 to n2 - 1 do
    let jm1 = if j = 0 then n2 - 1 else j - 1 in
    for i = 0 to n1 - 1 do
      let im1 = if i = 0 then n1 - 1 else i - 1 in
      let bi = ((j * n1) + im1) * n in
      let bj = ((jm1 * n1) + i) * n in
      let base = ((j * n1) + i) * n in
      for r = 0 to n - 1 do
        Bigarray.Array1.unsafe_set out (base + r)
          (Bigarray.Array1.unsafe_get out (base + r)
          -. (inv_h1 *. Bigarray.Array1.unsafe_get w (bi + r))
          -. (inv_h2 *. Bigarray.Array1.unsafe_get w (bj + r)))
      done
    done
  done

let with_extra_diag jac extra_diag =
  if extra_diag = 0.0 then jac
  else Sparse.Csr.add jac (Sparse.Csr.scale extra_diag (Sparse.Csr.identity jac.Sparse.Csr.rows))

let solve_linear ~ws ~linear_solver ~scheme ~budget (g : Grid.t) ~jacs ~extra_diag
    ~sweep_tol ~rhs ~linear_iters =
  (* Numeric-refresh path: with [extra_diag = 0] this returns the same
     CSR instance every Newton iteration, which keeps the sparse-LU
     pattern cache below valid. *)
  let jac () = with_extra_diag (Assemble.jacobian_ws ws.asm) extra_diag in
  let run_gmres ~restart ~max_iter ~tol ~precond op =
    let workspace = gmres_workspace ws ~restart ~n:(Array.length rhs) in
    let result =
      Sparse.Krylov.gmres_ba ~restart ~max_iter ~tol ~precond ?budget ~workspace op rhs
    in
    linear_iters := !linear_iters + result.Sparse.Krylov.iterations;
    result
  in
  let stalled (result : Sparse.Krylov.result) =
    (match budget with
    | Some b -> ( match Budget.exhausted b with Some e -> raise (Budget.Exhausted e) | None -> ())
    | None -> ());
    raise
      (Linear_stall
         (Printf.sprintf "GMRES stalled (residual %.3e after %d iterations)"
            result.Sparse.Krylov.residual_norm result.Sparse.Krylov.iterations))
  in
  match linear_solver with
  | Direct -> (
      Telemetry.span "mpde.linear.direct" @@ fun () ->
      let m = jac () in
      let f =
        match ws.splu with
        | Some f when Sparse.Splu.refactorable f m -> (
            try
              Sparse.Splu.refactor f m;
              f
            with Sparse.Splu.Singular _ ->
              (* The frozen pivot order hit a zero pivot; a fresh factor
                 is free to pivot differently. *)
              let f = Sparse.Splu.factor m in
              ws.splu <- Some f;
              f)
        | _ ->
            let f = Sparse.Splu.factor m in
            ws.splu <- Some f;
            f
      in
      Sparse.Splu.solve f rhs)
  | Gmres_sweep { restart; max_iter } -> (
      Telemetry.span "mpde.linear.gmres-sweep" @@ fun () ->
      let tol = sweep_tol rhs in
      let cache = ws.sweep in
      (* For the backward scheme the operator is applied matrix-free
         from the per-point blocks, so the big Jacobian is never
         assembled on this path; the other schemes have long-range t1
         couplings and keep the assembled SpMV. Both run on the
         Bigarray kernels through the staging-free GMRES core. *)
      let op =
        match scheme with
        | Assemble.Backward ->
            fun v ->
              sweep_op_apply cache g ~jacs ~extra_diag v ws.op_ba;
              ws.op_ba
        | Assemble.Central_t1 | Assemble.Spectral_t1 | Assemble.Spectral_both
          ->
            let m = jac () in
            fun v ->
              Sparse.Csr.mul_vec_ba_into m v ws.op_ba;
              ws.op_ba
      in
      let build ~cluster =
        Telemetry.span "mpde.precond.build" @@ fun () ->
        build_sweep_factors cache scheme g ~jacs ~extra_diag ~cluster
      in
      (* Preconditioner lagging: keep the dense diagonal factors across
         Newton iterations and selectively refactor only the blocks
         whose Jacobian drifted (the values move slowly near the
         solution and M⁻¹ only steers GMRES); full clustered rebuild when
         the loading changed, exact rebuild on a stall below. *)
      if (not cache.built) || cache.built_extra_diag <> extra_diag then
        build ~cluster:true
      else refresh_sweep_factors cache scheme g ~jacs ~extra_diag;
      let precond = sweep_apply cache g ~jacs in
      let result = run_gmres ~restart ~max_iter ~tol ~precond op in
      if result.Sparse.Krylov.converged then result.Sparse.Krylov.x
      else if cache.stale then begin
        (* The lagged (or clustered) factors may have fallen too far
           behind the iterate: rebuild exact — one factor per point at
           the current Jacobian — and retry once before declaring a
           stall. *)
        Telemetry.count "mpde.precond.lag_rebuilds";
        build ~cluster:false;
        let result = run_gmres ~restart ~max_iter ~tol ~precond op in
        if result.Sparse.Krylov.converged then result.Sparse.Krylov.x
        else stalled result
      end
      else stalled result)

(* Scan per-point Jacobian blocks before they reach the linear solver:
   a NaN entry in G or C would otherwise poison GMRES silently. Each
   value array is scanned flat; CSR is row-major, so the first
   non-finite slot is the first offending entry in row order, and its
   row is looked up in [row_ptr] only then. *)
let check_jacobians_finite ~n jacs =
  let check_csr p which (m : Sparse.Csr.t) =
    let v = m.Sparse.Csr.values in
    for k = 0 to Array.length v - 1 do
      if not (Float.is_finite (Array.unsafe_get v k)) then begin
        let i = ref 0 in
        while m.Sparse.Csr.row_ptr.(!i + 1) <= k do
          incr i
        done;
        let i = !i in
        raise
          (Guard.Non_finite
             {
               Guard.index = (p * n) + i;
               value = v.(k);
               block = Some p;
               offset = Some i;
               context =
                 Printf.sprintf "MPDE %s-Jacobian entry (%d,%d)" which i
                   m.Sparse.Csr.col_idx.(k);
             })
      end
    done
  in
  Array.iteri
    (fun p (gp, cp) ->
      check_csr p "G" gp;
      check_csr p "C" cp)
    jacs

(* Pseudo-transient loading: residual gains [alpha·(x − anchor)] and the
   Jacobian [alpha·I], pulling the iterate toward the anchor while
   regularizing near-singular Jacobians; [alpha] is then relaxed to zero
   — the same decade-ladder idea as Dcop's gmin stepping, generalized to
   the full MPDE grid vector. *)
type ptc = { alpha : float; anchor : Vec.t }

let newton_problem ~options ~linear_solver ~ws ?ptc ~sys ~g ~sources ~linear_iters
    ~source_scale ~on_residual_violation () =
  let n = sys.Assemble.size in
  let scaled_sources =
    if source_scale = 1.0 then sources
    else Array.map (Vec.scale source_scale) sources
  in
  let base_residual big_x =
    let r = Assemble.residual_ws ws.asm ~sources:scaled_sources big_x in
    (match ptc with
    | Some { alpha; anchor } ->
        for i = 0 to Array.length r - 1 do
          r.(i) <- r.(i) +. (alpha *. (big_x.(i) -. anchor.(i)))
        done
    | None -> ());
    r
  in
  let extra_diag = match ptc with Some { alpha; _ } -> alpha | None -> 0.0 in
  (* This stage's inexact-Newton state, read only by [Gmres_sweep]. *)
  let forcing = ref None in
  let sweep_tol r =
    let eta, state =
      forcing_term ~tol:options.tol ~linear:sys.Assemble.linear ~prev:!forcing
        (Vec.norm_inf r)
    in
    forcing := Some state;
    Telemetry.observe "mpde.newton_forcing" eta;
    eta
  in
  {
    Numeric.Newton.residual =
      Guard.guarded ~context:"MPDE residual" ~block_size:n
        ~on_violation:on_residual_violation base_residual;
    solve_linearized =
      (fun big_x r ->
        let jacs = Assemble.point_jacobians_ws ws.asm big_x in
        (* Fault-injection hook: corrupt row 0 of the first point-block.
           The workspace CSRs are restamped from the circuit on every
           evaluation, so the damage is transient — the next linearize
           sees clean Jacobians, exactly like a data-dependent glitch. *)
        (match Resilience.Faultinject.jacobian_fault () with
        | None -> ()
        | Some action ->
            let corrupt (m : Sparse.Csr.t) f =
              let lo = m.Sparse.Csr.row_ptr.(0)
              and hi = m.Sparse.Csr.row_ptr.(1) in
              for k = lo to hi - 1 do
                m.Sparse.Csr.values.(k) <- f m.Sparse.Csr.values.(k)
              done
            in
            let gp, cp = jacs.(0) in
            let f =
              match action with
              | `Singular -> fun _ -> 0.0
              | `Scale s -> fun v -> v *. s
            in
            corrupt gp f;
            corrupt cp f);
        (try check_jacobians_finite ~n jacs
         with Guard.Non_finite v as e ->
           on_residual_violation v;
           raise e);
        solve_linear ~ws ~linear_solver ~scheme:options.scheme ~budget:options.budget g
          ~jacs ~extra_diag ~sweep_tol ~rhs:r ~linear_iters);
  }

let is_direct = function Direct -> true | _ -> false

let solve ?(options = default_options) ?seed ?workspace_slot
    (sys : Assemble.system) (g : Grid.t) =
  let t_start = Telemetry.Clock.wall () in
  let tele_mark = Telemetry.mark () in
  Telemetry.span "mpde.solve" @@ fun () ->
  Telemetry.with_alloc_gauges "alloc" @@ fun () ->
  let n = sys.Assemble.size in
  let np = Grid.points g in
  let big = np * n in
  let big_x0 =
    let x = Array.make big 0.0 in
    (match seed with
    | Some s when Array.length s = n ->
        for p = 0 to np - 1 do
          Array.blit s 0 x (p * n) n
        done
    | Some s when Array.length s = big -> Array.blit s 0 x 0 big
    | Some _ -> invalid_arg "Mpde.Solver.solve: bad seed size"
    | None -> ());
    x
  in
  let sources = Assemble.sources_on_grid sys g in
  (* Sweep-scale solves reuse one workspace per domain through the
     caller-held slot: the multi-megabyte numeric buffers (dense
     staging matrices, Krylov basis, Bigarray vectors) survive from job
     to job, while everything bound to the previous system is rebound
     or dropped. A shape mismatch falls back to a fresh workspace. *)
  let ws =
    match workspace_slot with
    | Some slot -> (
        match !slot with
        | Some w when workspace_fits w options.scheme sys g ->
            Telemetry.count "mpde.workspace.reuses";
            rebind_workspace w options.scheme sys g
        | _ ->
            let w = make_workspace options.scheme sys g in
            slot := Some w;
            w)
    | None -> make_workspace options.scheme sys g
  in
  let linear_iters = ref 0 in
  let newton_total = ref 0 in
  let continuation_steps = ref 0 and continuation_rejected = ref 0 in
  let trajectory = ref [] in
  let stage_iters : (string * int) list ref = ref [] in
  let last_x = ref big_x0 in
  (* Attribution for non-finite residuals: remember the first violation
     per stage so a Diverged Newton outcome can be classified and
     reported with its grid point. *)
  let residual_violation = ref None in
  let on_residual_violation v =
    if !residual_violation = None then begin
      residual_violation := Some v;
      let p = Option.value v.Guard.block ~default:(v.Guard.index / n) in
      Log.warn (fun m ->
          m "non-finite residual at grid point (%d,%d), unknown %d: %h"
            (p mod g.Grid.n1) (p / g.Grid.n1)
            (Option.value v.Guard.offset ~default:(v.Guard.index mod n))
            v.Guard.value)
    end
  in
  let newton_options =
    {
      Numeric.Newton.default_options with
      max_iterations = options.max_newton;
      abs_tol = options.tol;
      budget = options.budget;
    }
  in
  let record_stage name iters =
    stage_iters :=
      (name, iters + (List.assoc_opt name !stage_iters |> Option.value ~default:0))
      :: List.remove_assoc name !stage_iters
  in
  let on_iteration _k _x rnorm =
    trajectory := rnorm :: !trajectory;
    Telemetry.observe "mpde.newton_residual" rnorm
  in
  (* Classify a failed Newton outcome into a ladder failure. *)
  let classify (stats : Numeric.Newton.stats) =
    match stats.Numeric.Newton.outcome with
    | Numeric.Newton.Converged -> assert false
    | Numeric.Newton.Exhausted e ->
        (Ladder.Exhausted e, Budget.exhaustion_to_string e)
    | Numeric.Newton.Diverged -> (
        match !residual_violation with
        | Some v -> (Ladder.Non_finite v, Guard.violation_to_string v)
        | None -> (Ladder.Nonlinear, "residual diverged"))
    | Numeric.Newton.Solver_failure msg -> (
        (* solve_linearized failures: a recorded violation means the
           Jacobian itself went non-finite (device overflow — escalate
           the nonlinear strategy); otherwise the linear solver broke. *)
        match !residual_violation with
        | Some v -> (Ladder.Non_finite v, Guard.violation_to_string v)
        | None -> (Ladder.Linear_stall, msg))
    | Numeric.Newton.Stalled -> (Ladder.Nonlinear, "Newton stalled")
    | Numeric.Newton.Max_iterations -> (Ladder.Nonlinear, "Newton hit max iterations")
  in
  let run_newton ~name ~linear_solver ?ptc ~source_scale x_init =
    residual_violation := None;
    let problem =
      newton_problem ~options ~linear_solver ~ws ?ptc ~sys ~g ~sources ~linear_iters
        ~source_scale ~on_residual_violation ()
    in
    let x, stats = Numeric.Newton.solve ~options:newton_options ~on_iteration problem x_init in
    (* [on_iteration] fires before each step, so a stage that converged
       after stepping has not yet recorded its final residual. *)
    if Numeric.Newton.converged stats && stats.Numeric.Newton.iterations > 0 then
      trajectory := stats.Numeric.Newton.residual_norm :: !trajectory;
    newton_total := !newton_total + stats.Numeric.Newton.iterations;
    record_stage name stats.Numeric.Newton.iterations;
    last_x := x;
    (x, stats)
  in
  let plain_stage name linear_solver =
    fun () ->
      match run_newton ~name ~linear_solver ~source_scale:1.0 big_x0 with
      | x, stats when Numeric.Newton.converged stats -> Ok x
      | _, stats -> Error (classify stats)
  in
  let source_ramp_stage () =
    residual_violation := None;
    let problem_at lambda =
      newton_problem ~options ~linear_solver:options.linear_solver ~ws ~sys ~g ~sources
        ~linear_iters ~source_scale:lambda ~on_residual_violation ()
    in
    let x, cstats =
      Numeric.Continuation.trace ?budget:options.budget ~newton_options ~problem_at
        ~x0:big_x0 ()
    in
    newton_total := !newton_total + cstats.Numeric.Continuation.newton_iterations;
    record_stage "source-ramp" cstats.Numeric.Continuation.newton_iterations;
    continuation_steps := !continuation_steps + cstats.Numeric.Continuation.steps_taken;
    continuation_rejected :=
      !continuation_rejected + cstats.Numeric.Continuation.steps_rejected;
    last_x := x;
    if cstats.Numeric.Continuation.converged then Ok x
    else
      match cstats.Numeric.Continuation.exhausted with
      | Some e -> Error (Ladder.Exhausted e, Budget.exhaustion_to_string e)
      | None ->
          Error
            ( Ladder.Nonlinear,
              Printf.sprintf "source ramp stalled after %d steps (%d rejected)"
                cstats.Numeric.Continuation.steps_taken
                cstats.Numeric.Continuation.steps_rejected )
  in
  let ptc_ramp_stage () =
    (* Scale the initial loading to the Jacobian's diagonal so it is
       neither negligible nor dominant across wildly different h1/h2. *)
    let alpha0 =
      try
        ignore (Assemble.point_jacobians_ws ws.asm big_x0);
        let jac = Assemble.jacobian_ws ws.asm in
        let d = Sparse.Csr.diag jac in
        let dmax =
          Array.fold_left
            (fun acc v -> if Float.is_finite v then Float.max acc (Float.abs v) else acc)
            0.0 d
        in
        1e-2 *. Float.max 1.0 dmax
      with _ -> 1.0
    in
    let rec relax alpha x =
      (match options.budget with Some b -> Budget.check b | None -> ());
      if alpha < alpha0 *. 1e-9 then
        (* loading is now negligible: finish with the plain problem *)
        match run_newton ~name:"ptc-ramp" ~linear_solver:options.linear_solver
                ~source_scale:1.0 x
        with
        | x', stats when Numeric.Newton.converged stats -> Ok x'
        | _, stats -> Error (classify stats)
      else
        let ptc = { alpha; anchor = Array.copy x } in
        (match options.budget with
        | Some b -> ( try Budget.tick_continuation b with Budget.Exhausted _ -> ())
        | None -> ());
        match run_newton ~name:"ptc-ramp" ~linear_solver:options.linear_solver ~ptc
                ~source_scale:1.0 x
        with
        | x', stats when Numeric.Newton.converged stats ->
            continuation_steps := !continuation_steps + 1;
            relax (alpha /. 10.0) x'
        | _, stats -> Error (classify stats)
    in
    relax alpha0 big_x0
  in
  let stages =
    [
      {
        Ladder.name = "newton";
        applies = Ladder.always;
        attempt = plain_stage "newton" options.linear_solver;
      };
      {
        Ladder.name = "direct-lu";
        applies =
          (fun prev -> Ladder.on_linear_stall prev && not (is_direct options.linear_solver));
        attempt = plain_stage "direct-lu" Direct;
      };
      {
        Ladder.name = "source-ramp";
        applies = (fun prev -> options.allow_continuation && prev <> None);
        attempt = source_ramp_stage;
      };
      {
        Ladder.name = "ptc-ramp";
        applies = (fun prev -> options.allow_continuation && prev <> None);
        attempt = ptc_ramp_stage;
      };
    ]
  in
  let run = Ladder.run ?budget:options.budget stages in
  (match run.Ladder.strategy with
  | Some s when s <> "newton" -> Log.info (fun m -> m "escalation recovered via %s" s)
  | _ -> ());
  let big_x = match run.Ladder.value with Some x -> x | None -> !last_x in
  let residual_norm =
    let r = Assemble.residual_ws ws.asm ~sources big_x in
    Vec.norm_inf r
  in
  let converged = run.Ladder.value <> None in
  let wall_seconds = Telemetry.Clock.wall () -. t_start in
  let telemetry =
    Option.map Telemetry.Summary.of_snapshot (Telemetry.snapshot ~since:tele_mark ())
  in
  let report =
    Report.of_ladder ?telemetry
      ~iterations_of:(fun name ->
        List.assoc_opt name !stage_iters |> Option.value ~default:0)
      ~residual_trajectory:(Array.of_list (List.rev !trajectory))
      ~residual_norm ~newton_iterations:!newton_total ~linear_iterations:!linear_iters
      ~wall_seconds run
  in
  {
    grid = g;
    system = sys;
    big_x;
    stats =
      {
        newton_iterations = !newton_total;
        converged;
        residual_norm;
        linear_iterations = !linear_iters;
        continuation_steps = !continuation_steps;
        continuation_rejected = !continuation_rejected;
        strategy = Option.value run.Ladder.strategy ~default:"none";
        wall_seconds;
      };
    report;
  }

let solve_mna ?options ?seed ?workspace_slot ~shear ~n1 ~n2 mna =
  (match Shear.validate_sources shear mna with
  | Ok () -> ()
  | Error f -> raise (Shear.Off_lattice f));
  let grid = Grid.make ~shear ~n1 ~n2 in
  let sys = Assemble.of_mna ~shear mna in
  let seed =
    (* A caller-supplied seed (single state or full grid surface from a
       warm-start cache) wins over the DC point, but only when its
       length actually fits this grid — a surface from different (n1,
       n2) would silently corrupt the Newton start. *)
    let fits v =
      let n = Linalg.Vec.dim v in
      n = sys.Assemble.size || n = Grid.points grid * sys.Assemble.size
    in
    match seed with
    | Some v when fits v -> Some v
    | _ ->
        let r = Circuit.Dcop.solve mna in
        if r.Circuit.Dcop.converged then Some r.Circuit.Dcop.x else None
  in
  solve ?options ?seed ?workspace_slot sys grid

let state_at sol ~i ~j =
  let p = Grid.point_index sol.grid i j in
  Assemble.state_of ~size:sol.system.Assemble.size sol.big_x p

let quasi_static_start ?seed (sys : Assemble.system) (g : Grid.t) =
  let n = sys.Assemble.size in
  let n1 = g.Grid.n1 in
  let big = Array.make (Grid.points g * n) 0.0 in
  for j = 0 to g.Grid.n2 - 1 do
    let column =
      Fast_column.frozen_column ?seed sys ~n1 ~shear:g.Grid.shear ~t2:(Grid.t2_of g j)
    in
    Array.iteri
      (fun i x -> Array.blit x 0 big (Grid.point_index g i j * n) n)
      column
  done;
  big

let residual_norm_check ?(scheme = Assemble.Backward) sol =
  let sources = Assemble.sources_on_grid sol.system sol.grid in
  Vec.norm_inf (Assemble.residual scheme sol.system sol.grid ~sources sol.big_x)
