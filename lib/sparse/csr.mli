(** Compressed-sparse-row matrices.

    Column indices within a row are sorted and unique. Built from a
    {!Coo.t} builder (duplicates summed). The pattern arrays
    ([row_ptr], [col_idx]) are never written after construction, so
    matrices may share them: {!same_pattern} tests physical equality
    first, and the MPDE assembler hands every grid point of a
    replicated seed one pattern pair. Only [values] is ever rewritten
    in place (numeric refreshes such as {!refresh_from_coo}). *)

type t = {
  rows : int;
  cols : int;
  row_ptr : int array;  (** length [rows + 1] *)
  col_idx : int array;  (** length [nnz], sorted within each row *)
  values : float array;  (** length [nnz] *)
}

val of_coo : Coo.t -> t
(** Sums duplicate triplets; drops entries that cancel to exactly [0.]
    only if they were never inserted (explicit zeros from summation are
    kept so patterns remain stable across Newton iterations). *)

val slot : t -> int -> int -> int
(** [slot m i j] is the index into [m.values] of entry [(i, j)], or
    [-1] when the pattern has no such entry; binary search within row
    [i], which must be in range. *)

val refresh_from_coo : t -> Coo.t -> bool
(** Numeric phase of the symbolic/numeric assembly split:
    [refresh_from_coo m coo] rewrites [m.values] in place from the
    triplet stream without touching the frozen pattern
    ([row_ptr]/[col_idx]). Duplicates are summed in stream order —
    exactly the order {!of_coo} uses — so a refresh from the stream
    that built [m] is bitwise identical to rebuilding from scratch.
    Pattern slots the stream never touches are left at [0.].

    Returns [false] (leaving [m.values] unspecified) when a triplet
    falls outside the pattern or the dimensions disagree; the caller
    must then rebuild with {!of_coo}. *)

val to_dense : t -> Linalg.Mat.t

val same_pattern : t -> t -> bool
(** Same dimensions, [row_ptr] and [col_idx]: the two matrices' values
    arrays index the same entries. Equal nnz alone is not enough. *)

val nnz : t -> int

val get : t -> int -> int -> float
(** [get m i j] is the stored entry or [0.]; binary search within row. *)

val mul_vec : t -> Linalg.Vec.t -> Linalg.Vec.t

val mul_vec_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit

val mul_vec_ba_into : t -> Linalg.Kernel.vec -> Linalg.Kernel.vec -> unit
(** [mul_vec_ba_into m x y] computes [y <- m x] on Bigarray vectors via
    the unchecked {!Linalg.Kernel.spmv} hot loop; accumulation order
    (and hence every bit of the result) matches {!mul_vec_into}. *)

val tmul_vec : t -> Linalg.Vec.t -> Linalg.Vec.t
(** Transposed product [mᵀ x]. *)

val transpose : t -> t

val diag : t -> Linalg.Vec.t
(** Main diagonal (zeros where absent). *)

val scale : float -> t -> t

val add : t -> t -> t
(** Entry-wise sum; patterns are merged. *)

val identity : int -> t

val iter_row : t -> int -> (int -> float -> unit) -> unit

val residual_norm : t -> Linalg.Vec.t -> Linalg.Vec.t -> float
(** [residual_norm a x b] is [‖b − a·x‖₂]. *)
