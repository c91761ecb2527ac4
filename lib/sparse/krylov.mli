(** Matrix-free Krylov solvers: restarted GMRES and BiCGSTAB.

    Both accept the operator and the (right) preconditioner as closures
    so they can be used with explicit CSR matrices, with the
    structure-exploiting MPDE block sweep, or fully matrix-free. *)

type operator = Linalg.Vec.t -> Linalg.Vec.t

type ba_operator = Linalg.Kernel.vec -> Linalg.Kernel.vec
(** Operator over the unboxed Float64 {!Linalg.Kernel.vec}s the GMRES
    core runs on. The {!gmres_ba} hot path avoids the
    [float array] staging copies of {!gmres}. *)

type stop_reason =
  | Tolerance  (** residual met the convergence target *)
  | Happy_breakdown  (** Krylov subspace became invariant (exact solve) *)
  | Poisoned  (** operator/preconditioner produced a non-finite vector *)
  | Budget_exhausted
  | Max_iterations
  | Scalar_breakdown  (** BiCGSTAB scalar recurrence collapsed *)

val stop_reason_to_string : stop_reason -> string

type result = {
  x : Linalg.Vec.t;
  converged : bool;
  iterations : int;  (** total inner iterations performed *)
  residual_norm : float;  (** final preconditioned-system residual norm *)
  restarts : int;  (** GMRES restart cycles entered (0 for BiCGSTAB) *)
  stop : stop_reason;  (** why the iteration ended *)
}

type workspace
(** Preallocated GMRES scratch (Krylov basis, Hessenberg columns,
    rotation coefficients, residual/update vectors) for a fixed
    [(restart, n)] shape. Reusing one across calls removes every
    allocation inside the restart loop. A workspace belongs to one
    solve stream on one domain — it must not be shared concurrently.
    A workspace carries no state between calls: a reused one gives
    results bitwise equal to a fresh one. *)

val workspace : restart:int -> n:int -> workspace
(** Allocate scratch for systems of size [n] solved with up to
    [restart] inner iterations per cycle. *)

val gmres :
  ?restart:int ->
  ?max_iter:int ->
  ?tol:float ->
  ?precond:operator ->
  ?budget:Resilience.Budget.t ->
  ?x0:Linalg.Vec.t ->
  ?workspace:workspace ->
  operator ->
  Linalg.Vec.t ->
  result
(** [gmres op b] solves [op x = b] with right preconditioning:
    the Krylov space is built for [op ∘ precond] and the returned [x]
    is [precond y]. Defaults: [restart = 50], [max_iter = 500],
    [tol = 1e-10] (relative to [‖b‖], absolute when [b = 0]).

    Robustness: happy breakdown (zero Hessenberg subdiagonal) returns
    the exact iterate instead of dividing by zero; a non-finite basis
    vector terminates the sweep with the last finite iterate instead of
    polluting the Givens QR with NaNs; [budget], when given, is ticked
    per inner iteration and checked at restarts, terminating with
    [converged = false] (never raising) when it runs out.

    [workspace] supplies preallocated scratch (ignored and rebuilt
    locally if its shape does not cover [(restart, n)]). Buffer
    contract: [op] and [precond] may return a shared internal buffer —
    GMRES copies anything it keeps before the next call, and may mutate
    the returned vector in place.

    This entry point stages the [float array] closures across the
    Bigarray core of {!gmres_ba} with the accumulation order of every
    float operation preserved — results are bitwise identical to the
    historical [float array] implementation. *)

val gmres_ba :
  ?restart:int ->
  ?max_iter:int ->
  ?tol:float ->
  ?precond:ba_operator ->
  ?budget:Resilience.Budget.t ->
  ?x0:Linalg.Vec.t ->
  ?workspace:workspace ->
  ba_operator ->
  Linalg.Vec.t ->
  result
(** {!gmres} with the operator and preconditioner over
    {!Linalg.Kernel.vec} — the allocation- and staging-free hot path.
    Same semantics and defaults as {!gmres}. *)

val bicgstab :
  ?max_iter:int ->
  ?tol:float ->
  ?precond:operator ->
  ?x0:Linalg.Vec.t ->
  operator ->
  Linalg.Vec.t ->
  result

val csr_operator : Csr.t -> operator
