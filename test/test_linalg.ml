(* Unit and property tests for the dense linear-algebra substrate. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Lu = Linalg.Lu

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Vec ---------- *)

let test_vec_create () =
  let v = Vec.create 4 in
  Alcotest.(check int) "dim" 4 (Vec.dim v);
  check_float "zero" 0.0 v.(2)

let test_vec_init_map () =
  let v = Vec.init 5 float_of_int in
  let w = Vec.map (fun x -> 2.0 *. x) v in
  check_float "map" 6.0 w.(3)

let test_vec_add_sub () =
  let a = Vec.of_list [ 1.0; 2.0 ] and b = Vec.of_list [ 3.0; 5.0 ] in
  check_float "add" 7.0 (Vec.add a b).(1);
  check_float "sub" (-2.0) (Vec.sub a b).(0)

let test_vec_dot_norms () =
  let v = Vec.of_list [ 3.0; 4.0 ] in
  check_float "dot" 25.0 (Vec.dot v v);
  check_float "norm2" 5.0 (Vec.norm2 v);
  check_float "norm1" 7.0 (Vec.norm1 v);
  check_float "norm_inf" 4.0 (Vec.norm_inf v)

let test_vec_axpy () =
  let x = Vec.of_list [ 1.0; 1.0 ] and y = Vec.of_list [ 2.0; 0.0 ] in
  Vec.axpy 3.0 x y;
  check_float "axpy" 5.0 y.(0);
  check_float "axpy" 3.0 y.(1)

let test_vec_axpby () =
  let x = Vec.of_list [ 1.0; 2.0 ] and y = Vec.of_list [ 10.0; 20.0 ] in
  let z = Vec.axpby 2.0 x 0.5 y in
  check_float "axpby" 7.0 z.(0)

let test_vec_dist2 () =
  let a = Vec.of_list [ 0.0; 0.0 ] and b = Vec.of_list [ 3.0; 4.0 ] in
  check_float "dist2" 5.0 (Vec.dist2 a b)

let test_vec_mismatch () =
  let a = Vec.create 2 and b = Vec.create 3 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Vec: dimension mismatch") (fun () ->
      ignore (Vec.dot a b))

let test_vec_max_abs_index () =
  Alcotest.(check int) "max abs" 1 (Vec.max_abs_index (Vec.of_list [ 2.0; -5.0; 4.0 ]))

let test_vec_mean () =
  check_float "mean" 2.0 (Vec.mean (Vec.of_list [ 1.0; 2.0; 3.0 ]));
  check_float "mean empty" 0.0 (Vec.mean [||])

let test_vec_inplace () =
  let x = Vec.of_list [ 1.0; 2.0 ] in
  Vec.scale_ip 2.0 x;
  check_float "scale_ip" 4.0 x.(1);
  Vec.add_ip x (Vec.of_list [ 1.0; 1.0 ]);
  check_float "add_ip" 3.0 x.(0);
  Vec.sub_ip x (Vec.of_list [ 3.0; 5.0 ]);
  check_float "sub_ip" 0.0 x.(0)

(* ---------- Mat ---------- *)

let test_mat_identity () =
  let m = Mat.identity 3 in
  check_float "diag" 1.0 (Mat.get m 1 1);
  check_float "off" 0.0 (Mat.get m 0 2)

let test_mat_of_arrays () =
  let m = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "entry" 3.0 (Mat.get m 1 0);
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_arrays: ragged rows")
    (fun () -> ignore (Mat.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_mat_mul () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let c = Mat.mul a b in
  check_float "c00" 2.0 (Mat.get c 0 0);
  check_float "c01" 1.0 (Mat.get c 0 1);
  check_float "c10" 4.0 (Mat.get c 1 0)

let test_mat_mul_vec () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = Mat.mul_vec a (Vec.of_list [ 1.0; 1.0 ]) in
  check_float "y0" 3.0 y.(0);
  check_float "y1" 7.0 y.(1)

let test_mat_tmul_vec () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = Mat.tmul_vec a (Vec.of_list [ 1.0; 1.0 ]) in
  check_float "y0" 4.0 y.(0);
  check_float "y1" 6.0 y.(1)

let test_mat_transpose () =
  let a = Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Mat.transpose a in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Mat.dims t);
  check_float "entry" 2.0 (Mat.get t 1 0)

let test_mat_rows_cols () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "row" 4.0 (Mat.row a 1).(1);
  check_float "col" 2.0 (Mat.col a 1).(0);
  Mat.swap_rows a 0 1;
  check_float "swapped" 3.0 (Mat.get a 0 0)

let test_mat_norms () =
  let a = Mat.of_arrays [| [| 3.0; 4.0 |]; [| 0.0; 0.0 |] |] in
  check_float "frobenius" 5.0 (Mat.frobenius_norm a);
  check_float "inf" 7.0 (Mat.norm_inf a);
  check_float "trace" 3.0 (Mat.trace a)

let test_mat_outer () =
  let m = Mat.outer (Vec.of_list [ 1.0; 2.0 ]) (Vec.of_list [ 3.0; 4.0 ]) in
  check_float "outer" 8.0 (Mat.get m 1 1)

(* ---------- Lu ---------- *)

let test_lu_solve_2x2 () =
  let a = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Lu.solve_dense a (Vec.of_list [ 3.0; 5.0 |> fun v -> v ]) in
  check_float "x0" 0.8 x.(0);
  check_float "x1" 1.4 x.(1)

let test_lu_needs_pivoting () =
  (* Zero on the first diagonal forces a row exchange. *)
  let a = Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Lu.solve_dense a (Vec.of_list [ 2.0; 3.0 ]) in
  check_float "x0" 3.0 x.(0);
  check_float "x1" 2.0 x.(1)

let test_lu_det () =
  let a = Mat.of_arrays [| [| 2.0; 0.0 |]; [| 0.0; 3.0 |] |] in
  check_float "det" 6.0 (Lu.det (Lu.factor a));
  let swapped = Mat.of_arrays [| [| 0.0; 3.0 |]; [| 2.0; 0.0 |] |] in
  check_float "det sign" (-6.0) (Lu.det (Lu.factor swapped))

let test_lu_singular () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match Lu.factor a with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let test_lu_inverse () =
  let a = Mat.of_arrays [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
  let inv = Lu.inverse (Lu.factor a) in
  let product = Mat.mul a inv in
  Alcotest.(check bool) "a·a⁻¹ = I" true (Mat.approx_equal ~tol:1e-12 product (Mat.identity 2))

let test_lu_transposed () =
  let a = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 0.0; 3.0 |] |] in
  let b = Vec.of_list [ 4.0; 5.0 ] in
  let x = Lu.solve_transposed (Lu.factor a) b in
  let r = Mat.mul_vec (Mat.transpose a) x in
  Alcotest.(check bool) "aᵀx=b" true (Vec.approx_equal ~tol:1e-12 r b)

let test_lu_rcond () =
  let well = Lu.factor (Mat.identity 4) in
  check_float "rcond identity" 1.0 (Lu.rcond_estimate well)

let test_lu_solve_mat () =
  let a = Mat.of_arrays [| [| 2.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  let x = Lu.solve_mat (Lu.factor a) (Mat.identity 2) in
  check_float "inv00" 0.5 (Mat.get x 0 0);
  check_float "inv11" 0.25 (Mat.get x 1 1)

(* ---------- blocked multi-RHS solves ---------- *)

let bits_equal name a b =
  Alcotest.(check bool) name true
    (Array.length a = Array.length b
    && Array.for_all2
         (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
         a b)

(* Deterministic pseudo-random stream so the panel fixtures are
   reproducible without seeding the global RNG. *)
let lcg seed =
  let s = ref seed in
  fun () ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    (float_of_int !s /. float_of_int 0x3FFFFFFF) -. 0.5

let test_lu_solve_many_bitwise () =
  (* A panel solve must reproduce column-by-column [solve_into] down to
     the last bit (same substitution order per column), and must leave
     columns outside [off, off+cols) untouched in both buffers. The
     panel is wider than [panel_block] = 16 to exercise the cache
     blocking. *)
  let n = 9 and total = 24 and off = 3 and cols = 19 in
  let rand = lcg 42 in
  let a =
    Mat.init n n (fun i j ->
        (10.0 *. rand ()) +. if i = j then 25.0 else 0.0)
  in
  let f = Lu.factor a in
  let b = Array.init (total * n) (fun _ -> rand ()) in
  let x = Array.make (total * n) nan in
  Lu.solve_many_into f ~off ~cols b x;
  let x_ref = Array.make (total * n) nan in
  let bc = Vec.create n and xc = Vec.create n in
  for c = off to off + cols - 1 do
    Array.blit b (c * n) bc 0 n;
    Lu.solve_into f bc xc;
    Array.blit xc 0 x_ref (c * n) n
  done;
  bits_equal "panel columns bitwise"
    (Array.sub x (off * n) (cols * n))
    (Array.sub x_ref (off * n) (cols * n));
  for c = 0 to total - 1 do
    if c < off || c >= off + cols then
      for r = 0 to n - 1 do
        if not (Float.is_nan x.((c * n) + r)) then
          Alcotest.failf "column %d outside the panel was written" c
      done
  done

let test_lu_solve_many_validates () =
  let f = Lu.factor (Mat.identity 3) in
  let b = Vec.create 6 in
  Alcotest.check_raises "aliased"
    (Invalid_argument "Lu.solve_many_into: aliased panels") (fun () ->
      Lu.solve_many_into f ~cols:2 b b);
  Alcotest.check_raises "short panel"
    (Invalid_argument "Lu.solve_many_into: panel dimension mismatch")
    (fun () -> Lu.solve_many_into f ~cols:3 b (Vec.create 9))

(* ---------- explicit inverses ---------- *)

let max_residual_vs_identity a x =
  let n = a.Mat.rows in
  let ax = Mat.mul a x in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let e = Mat.get ax i j -. if i = j then 1.0 else 0.0 in
      worst := Float.max !worst (Float.abs e)
    done
  done;
  !worst

let test_lu_inverse_into_random () =
  (* Well-conditioned (diagonally boosted) random blocks of the sweep's
     size and a few others: A·X = I to 1e-12 absolute, and column j is
     bitwise [solve_into] on the unit vector e_j. *)
  let rand = lcg 2024 in
  List.iter
    (fun n ->
      for _ = 1 to 5 do
        let a =
          Mat.init n n (fun i j ->
              (10.0 *. rand ()) +. if i = j then 4.0 *. float_of_int n else 0.0)
        in
        let f = Lu.factor a in
        let x = Mat.create n n in
        Lu.inverse_into f x;
        let r = max_residual_vs_identity a x in
        if r > 1e-12 then Alcotest.failf "n=%d: |A·X − I| = %.3e > 1e-12" n r;
        let e = Vec.create n and col = Vec.create n in
        for j = 0 to n - 1 do
          Array.fill e 0 n 0.0;
          e.(j) <- 1.0;
          Lu.solve_into f e col;
          bits_equal "column = solve_into e_j" col
            (Array.init n (fun i -> Mat.get x i j))
        done
      done)
    [ 1; 2; 5; 13; 20 ]

let mixer_diagonal_blocks () =
  (* The sweep's own D_p = (1/h1 + 1/h2)·C_p + G_p at every point of a
     converged 10x6 balanced-mixer surface. *)
  let f_lo = 450e6 and fd = 15e3 in
  let rf_signal, _ = Circuits.paper_rf_bitstream ~f_lo ~fd () in
  let { Circuits.mna; _ } = Circuits.balanced_mixer ~f_lo ~rf_signal () in
  let shear = Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:10 ~n2:6 mna in
  let g = sol.Mpde.Solver.grid and sys = sol.Mpde.Solver.system in
  let scale_c = (1.0 /. g.Mpde.Grid.h1) +. (1.0 /. g.Mpde.Grid.h2) in
  Array.map
    (fun (gp, cp) ->
      let d = Sparse.Csr.to_dense gp in
      let c = Sparse.Csr.to_dense cp in
      Mat.init d.Mat.rows d.Mat.cols (fun i j ->
          Mat.get d i j +. (scale_c *. Mat.get c i j)))
    (Mpde.Assemble.point_jacobians sys g sol.Mpde.Solver.big_x)

let test_lu_inverse_into_mixer_blocks () =
  (* The mixer blocks mix conductances with C/h terms and unit source
     rows, yet stay modestly conditioned (‖A‖∞·‖X‖∞ ≈ 2–3e2), so the
     same 1e-12 absolute bound holds with a wide margin (observed
     residuals are a few 1e-16). *)
  let blocks = mixer_diagonal_blocks () in
  Alcotest.(check int) "13 unknowns per point" 13 blocks.(0).Mat.rows;
  Array.iteri
    (fun p a ->
      let n = a.Mat.rows in
      let x = Mat.create n n in
      Lu.inverse_into (Lu.factor a) x;
      let r = max_residual_vs_identity a x in
      if r > 1e-12 then Alcotest.failf "point %d: |A·X − I| = %.3e > 1e-12" p r)
    blocks

let test_lu_inverse_into_singular () =
  (* [factor] + [inverse_into] raises [Singular] exactly when [factor]
     alone does — a pivot just above the threshold still inverts to
     finite entries — and never otherwise. *)
  let cases =
    [
      ("rank one", Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |], true);
      ( "zero column",
        Mat.of_arrays
          [| [| 1.0; 0.0; 3.0 |]; [| 2.0; 0.0; 1.0 |]; [| 5.0; 0.0; 2.0 |] |],
        true );
      ("pivot under tol", Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 5e-301 |] |], true);
      ("pivot over tol", Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 2e-300 |] |], false);
      ("needs pivoting", Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |], false);
    ]
  in
  List.iter
    (fun (name, a, singular) ->
      let factor_raises =
        match Lu.factor a with exception Lu.Singular _ -> true | _ -> false
      in
      let inverse_raises =
        match
          let x = Mat.create a.Mat.rows a.Mat.cols in
          Lu.inverse_into (Lu.factor a) x;
          x
        with
        | exception Lu.Singular _ -> true
        | x ->
            if not (Array.for_all Float.is_finite x.Mat.data) then
              Alcotest.failf "%s: non-finite inverse" name;
            false
      in
      Alcotest.(check bool) (name ^ ": factor") singular factor_raises;
      Alcotest.(check bool) (name ^ ": inverse_into") singular inverse_raises)
    cases

let test_lu_inverse_into_no_alloc () =
  (* The preconditioner rebuild calls this once per representative
     block; it must allocate nothing. The first pair of readings
     measures the cost of reading the counter itself. *)
  let rand = lcg 5 in
  let n = 13 in
  let a =
    Mat.init n n (fun i j -> rand () +. if i = j then 20.0 else 0.0)
  in
  let f = Lu.factor a and x = Mat.create n n in
  Lu.inverse_into f x;
  let m0 = Gc.minor_words () in
  let m1 = Gc.minor_words () in
  for _ = 1 to 100 do
    Lu.inverse_into f x
  done;
  let m2 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words" (m1 -. m0) (m2 -. m1)

let test_lu_inverse_into_validates () =
  let f = Lu.factor (Mat.identity 3) in
  Alcotest.check_raises "shape"
    (Invalid_argument "Lu.inverse_into: dimension mismatch") (fun () ->
      Lu.inverse_into f (Mat.create 3 2));
  let a = Mat.identity 3 in
  let fa = Lu.factor_in_place a in
  Alcotest.check_raises "aliased"
    (Invalid_argument "Lu.inverse_into: aliased storage") (fun () ->
      Lu.inverse_into fa a)

(* ---------- Bigarray kernels ---------- *)

module Kernel = Linalg.Kernel

let test_kernel_roundtrip () =
  let a = [| 1.5; -2.25; 0.0; 3.125 |] in
  let v = Kernel.of_array a in
  Alcotest.(check int) "dim" 4 (Kernel.dim v);
  bits_equal "roundtrip" a (Kernel.to_array v);
  let w = Kernel.create 4 in
  Kernel.blit v w;
  check_float "blit" (-2.25) (Kernel.get w 1);
  Kernel.set w 1 7.0;
  check_float "set" 7.0 (Kernel.get w 1);
  Kernel.fill w 0.5;
  check_float "fill" 0.5 (Kernel.get w 3)

let test_kernel_bitwise_vs_vec () =
  (* The Bigarray kernels promise the same accumulation order as the
     float-array reference, so equality is bitwise, not approximate. *)
  let rand = lcg 7 in
  let n = 129 in
  let xa = Array.init n (fun _ -> 100.0 *. rand ()) in
  let ya = Array.init n (fun _ -> 100.0 *. rand ()) in
  let x = Kernel.of_array xa and y = Kernel.of_array ya in
  bits_equal "dot" [| Vec.dot xa ya |] [| Kernel.dot x y |];
  bits_equal "nrm2" [| Vec.norm2 xa |] [| Kernel.nrm2 x |];
  let ya' = Array.copy ya in
  Vec.axpy 1.75 xa ya';
  Kernel.axpy 1.75 x y;
  bits_equal "axpy" ya' (Kernel.to_array y);
  let za = Vec.sub xa ya' in
  let z = Kernel.create n in
  Kernel.sub_into x y z;
  bits_equal "sub_into" za (Kernel.to_array z)

let test_kernel_axpy_dot () =
  (* One fused MGS pass must equal axpy-then-dot bit for bit, both for
     a separate [z] (the next projection coefficient) and for the
     aliased [z == y] squared norm that closes the sweep. *)
  let rand = lcg 11 in
  let n = 129 in
  let xa = Array.init n (fun _ -> 100.0 *. rand ()) in
  let ya = Array.init n (fun _ -> 100.0 *. rand ()) in
  let za = Array.init n (fun _ -> 100.0 *. rand ()) in
  let x = Kernel.of_array xa and z = Kernel.of_array za in
  let y_ref = Kernel.of_array ya and y = Kernel.of_array ya in
  Kernel.axpy (-0.375) x y_ref;
  let d_ref = Kernel.dot z y_ref in
  let d = Kernel.axpy_dot (-0.375) x y z in
  bits_equal "y" (Kernel.to_array y_ref) (Kernel.to_array y);
  bits_equal "z·y" [| d_ref |] [| d |];
  Kernel.axpy 1.5 z y_ref;
  let nn_ref = Kernel.dot y_ref y_ref in
  let nn = Kernel.axpy_dot 1.5 z y y in
  bits_equal "aliased y" (Kernel.to_array y_ref) (Kernel.to_array y);
  bits_equal "aliased ‖y‖²" [| nn_ref |] [| nn |];
  bits_equal "nrm2" [| Kernel.nrm2 y_ref |] [| sqrt nn |];
  Alcotest.check_raises "shape" (Invalid_argument "Kernel: dimension mismatch")
    (fun () -> ignore (Kernel.axpy_dot 1.0 x y (Kernel.create 3)))

(* ---------- complex ---------- *)

let test_cvec_roundtrip () =
  let v = Linalg.Cvec.of_real (Vec.of_list [ 1.0; -2.0 ]) in
  check_float "real part" (-2.0) (Linalg.Cvec.real v).(1);
  check_float "imag part" 0.0 (Linalg.Cvec.imag v).(0)

let test_cvec_dot_norm () =
  let i = { Complex.re = 0.0; im = 1.0 } in
  let v = [| i; Complex.one |] in
  let d = Linalg.Cvec.dot v v in
  check_float "‖v‖² real" 2.0 d.Complex.re;
  check_float "‖v‖² imag" 0.0 d.Complex.im;
  check_float "norm" (sqrt 2.0) (Linalg.Cvec.norm2 v)

let test_cmat_lu_solve () =
  let i = { Complex.re = 0.0; im = 1.0 } in
  let a = Linalg.Cmat.init 2 2 (fun r c ->
      if r = c then Complex.add Complex.one i else Complex.zero) in
  let b = [| Complex.one; i |] in
  let x = Linalg.Cmat.lu_solve a b in
  let r = Linalg.Cmat.mul_vec a x in
  Alcotest.(check bool) "ax=b" true (Linalg.Cvec.approx_equal ~tol:1e-12 r b)

let test_cmat_singular () =
  let a = Linalg.Cmat.create 2 2 in
  match Linalg.Cmat.lu_solve a [| Complex.one; Complex.one |] with
  | exception Linalg.Cmat.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

(* ---------- properties ---------- *)

let random_matrix_gen n =
  QCheck.Gen.(
    array_size (return (n * n)) (float_range (-10.0) 10.0)
    |> map (fun data ->
           (* diagonally boosted to stay comfortably nonsingular *)
           Mat.init n n (fun i j ->
               data.((i * n) + j) +. if i = j then 50.0 else 0.0)))

let prop_lu_solves =
  QCheck.Test.make ~count:100 ~name:"lu: a·(a\\b) = b"
    QCheck.(
      make
        Gen.(
          pair (random_matrix_gen 5) (array_size (return 5) (float_range (-5.0) 5.0))))
    (fun (a, b) ->
      let x = Lu.solve_dense a b in
      Vec.dist2 (Mat.mul_vec a x) b < 1e-8)

let prop_lu_det_transpose =
  QCheck.Test.make ~count:60 ~name:"lu: det a = det aᵀ"
    (QCheck.make (random_matrix_gen 4))
    (fun a ->
      let d1 = Lu.det (Lu.factor a) and d2 = Lu.det (Lu.factor (Mat.transpose a)) in
      Float.abs (d1 -. d2) < 1e-6 *. Float.max 1.0 (Float.abs d1))

let prop_vec_triangle =
  QCheck.Test.make ~count:200 ~name:"vec: triangle inequality"
    QCheck.(
      make
        Gen.(
          pair
            (array_size (return 8) (float_range (-100.0) 100.0))
            (array_size (return 8) (float_range (-100.0) 100.0))))
    (fun (a, b) -> Vec.norm2 (Vec.add a b) <= Vec.norm2 a +. Vec.norm2 b +. 1e-9)

let prop_vec_cauchy_schwarz =
  QCheck.Test.make ~count:200 ~name:"vec: |⟨a,b⟩| ≤ ‖a‖‖b‖"
    QCheck.(
      make
        Gen.(
          pair
            (array_size (return 6) (float_range (-50.0) 50.0))
            (array_size (return 6) (float_range (-50.0) 50.0))))
    (fun (a, b) -> Float.abs (Vec.dot a b) <= (Vec.norm2 a *. Vec.norm2 b) +. 1e-9)

let prop_solve_many_bitwise =
  QCheck.Test.make ~count:60 ~name:"lu: solve_many_into ≡ per-column solve_into"
    QCheck.(
      make
        Gen.(
          pair (random_matrix_gen 5)
            (array_size (return (4 * 5)) (float_range (-5.0) 5.0))))
    (fun (a, b) ->
      let n = 5 and cols = 4 in
      let f = Lu.factor a in
      let x1 = Array.make (cols * n) 0.0 in
      Lu.solve_many_into f ~cols b x1;
      let x2 = Array.make (cols * n) 0.0 in
      let bc = Array.make n 0.0 and xc = Array.make n 0.0 in
      for c = 0 to cols - 1 do
        Array.blit b (c * n) bc 0 n;
        Lu.solve_into f bc xc;
        Array.blit xc 0 x2 (c * n) n
      done;
      Array.for_all2
        (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
        x1 x2)

let prop_kernel_dot_bitwise =
  QCheck.Test.make ~count:100 ~name:"kernel: dot/nrm2 bitwise vs Vec"
    QCheck.(
      make
        Gen.(
          pair
            (array_size (return 17) (float_range (-50.0) 50.0))
            (array_size (return 17) (float_range (-50.0) 50.0))))
    (fun (a, b) ->
      let x = Kernel.of_array a and y = Kernel.of_array b in
      Int64.bits_of_float (Kernel.dot x y) = Int64.bits_of_float (Vec.dot a b)
      && Int64.bits_of_float (Kernel.nrm2 x)
         = Int64.bits_of_float (Vec.norm2 a))

let prop_kernel_axpy_dot_bitwise =
  QCheck.Test.make ~count:100 ~name:"kernel: axpy_dot ≡ axpy then dot"
    QCheck.(
      make
        Gen.(
          quad (float_range (-5.0) 5.0)
            (array_size (return 17) (float_range (-50.0) 50.0))
            (array_size (return 17) (float_range (-50.0) 50.0))
            (array_size (return 17) (float_range (-50.0) 50.0))))
    (fun (a, xa, ya, za) ->
      let x = Kernel.of_array xa and z = Kernel.of_array za in
      let y1 = Kernel.of_array ya and y2 = Kernel.of_array ya in
      Kernel.axpy a x y1;
      let d1 = Kernel.dot z y1 in
      let d2 = Kernel.axpy_dot a x y2 z in
      let y3 = Kernel.of_array ya in
      let n3 = Kernel.axpy_dot a x y3 y3 in
      let same u v = Int64.bits_of_float u = Int64.bits_of_float v in
      same d1 d2
      && Array.for_all2 same (Kernel.to_array y1) (Kernel.to_array y2)
      && same n3 (Kernel.dot y1 y1))

let prop_mat_mul_assoc =
  QCheck.Test.make ~count:40 ~name:"mat: (ab)c = a(bc)"
    QCheck.(
      make Gen.(triple (random_matrix_gen 3) (random_matrix_gen 3) (random_matrix_gen 3)))
    (fun (a, b, c) ->
      Mat.approx_equal ~tol:1e-6 (Mat.mul (Mat.mul a b) c) (Mat.mul a (Mat.mul b c)))

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "create" `Quick test_vec_create;
          Alcotest.test_case "init/map" `Quick test_vec_init_map;
          Alcotest.test_case "add/sub" `Quick test_vec_add_sub;
          Alcotest.test_case "dot/norms" `Quick test_vec_dot_norms;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "axpby" `Quick test_vec_axpby;
          Alcotest.test_case "dist2" `Quick test_vec_dist2;
          Alcotest.test_case "mismatch raises" `Quick test_vec_mismatch;
          Alcotest.test_case "max_abs_index" `Quick test_vec_max_abs_index;
          Alcotest.test_case "mean" `Quick test_vec_mean;
          Alcotest.test_case "in-place ops" `Quick test_vec_inplace;
        ] );
      ( "mat",
        [
          Alcotest.test_case "identity" `Quick test_mat_identity;
          Alcotest.test_case "of_arrays" `Quick test_mat_of_arrays;
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "mul_vec" `Quick test_mat_mul_vec;
          Alcotest.test_case "tmul_vec" `Quick test_mat_tmul_vec;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "rows/cols/swap" `Quick test_mat_rows_cols;
          Alcotest.test_case "norms/trace" `Quick test_mat_norms;
          Alcotest.test_case "outer" `Quick test_mat_outer;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve 2x2" `Quick test_lu_solve_2x2;
          Alcotest.test_case "pivoting" `Quick test_lu_needs_pivoting;
          Alcotest.test_case "det" `Quick test_lu_det;
          Alcotest.test_case "singular detection" `Quick test_lu_singular;
          Alcotest.test_case "inverse" `Quick test_lu_inverse;
          Alcotest.test_case "transposed solve" `Quick test_lu_transposed;
          Alcotest.test_case "rcond" `Quick test_lu_rcond;
          Alcotest.test_case "solve_mat" `Quick test_lu_solve_mat;
          Alcotest.test_case "solve_many_into bitwise" `Quick
            test_lu_solve_many_bitwise;
          Alcotest.test_case "solve_many_into validates" `Quick
            test_lu_solve_many_validates;
          Alcotest.test_case "inverse_into random blocks" `Quick
            test_lu_inverse_into_random;
          Alcotest.test_case "inverse_into mixer blocks" `Quick
            test_lu_inverse_into_mixer_blocks;
          Alcotest.test_case "inverse_into singular" `Quick
            test_lu_inverse_into_singular;
          Alcotest.test_case "inverse_into allocates nothing" `Quick
            test_lu_inverse_into_no_alloc;
          Alcotest.test_case "inverse_into validates" `Quick
            test_lu_inverse_into_validates;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "roundtrip" `Quick test_kernel_roundtrip;
          Alcotest.test_case "bitwise vs Vec" `Quick test_kernel_bitwise_vs_vec;
          Alcotest.test_case "axpy_dot bitwise" `Quick test_kernel_axpy_dot;
        ] );
      ( "complex",
        [
          Alcotest.test_case "cvec roundtrip" `Quick test_cvec_roundtrip;
          Alcotest.test_case "cvec dot/norm" `Quick test_cvec_dot_norm;
          Alcotest.test_case "cmat lu solve" `Quick test_cmat_lu_solve;
          Alcotest.test_case "cmat singular" `Quick test_cmat_singular;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lu_solves;
            prop_lu_det_transpose;
            prop_solve_many_bitwise;
            prop_kernel_dot_bitwise;
            prop_kernel_axpy_dot_bitwise;
            prop_vec_triangle;
            prop_vec_cauchy_schwarz;
            prop_mat_mul_assoc;
          ] );
    ]
