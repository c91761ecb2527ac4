(** Matrix-free restarted GMRES.

    The operator and the (right) preconditioner are closures, so the
    solver runs on explicit CSR matrices ({!Csr.mul_vec_ba_into}), on
    the structure-exploiting MPDE block sweep, or fully matrix-free. *)

type ba_operator = Linalg.Kernel.vec -> Linalg.Kernel.vec
(** Operator over the unboxed Float64 {!Linalg.Kernel.vec}s the GMRES
    core runs on. *)

type stop_reason =
  | Tolerance  (** residual met the convergence target *)
  | Happy_breakdown  (** Krylov subspace became invariant (exact solve) *)
  | Poisoned  (** operator/preconditioner produced a non-finite vector *)
  | Budget_exhausted
  | Max_iterations

type result = {
  x : Linalg.Vec.t;
  converged : bool;
  iterations : int;  (** total inner iterations performed *)
  residual_norm : float;  (** final preconditioned-system residual norm *)
  restarts : int;  (** GMRES restart cycles entered *)
  stop : stop_reason;  (** why the iteration ended *)
}

type workspace
(** GMRES scratch (Krylov basis, Hessenberg columns, rotation
    coefficients, residual/update vectors) for a fixed [(restart, n)]
    shape. Basis vectors are allocated the first time Arnoldi reaches
    them and kept; everything else up front. Reusing one across calls
    removes every allocation inside the restart loop once the basis has
    grown. A workspace belongs to one solve stream on one domain — it
    must not be shared concurrently. A workspace carries no state
    between calls: a reused one gives results bitwise equal to a fresh
    one. *)

val workspace : restart:int -> n:int -> workspace
(** Scratch for systems of size [n] solved with up to [restart] inner
    iterations per cycle. *)

val basis_allocated : workspace -> int
(** Basis vectors allocated so far: at most [k+1] after calls that ran
    at most [k] inner iterations per cycle, never more than
    [restart+1]. *)

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
(** [gmres_ba op b] solves [op x = b] with right preconditioning:
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
    the returned vector in place. *)
