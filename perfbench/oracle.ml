(* Answer checks shared by the workloads. They work on plain float
   arrays so the tests can feed them perturbed answers directly. *)

(* FNV-1a over the IEEE bits: equal hashes mean bitwise-equal samples. *)
let hash xs =
  let h = ref 0xcbf29ce484222325L in
  Array.iter
    (fun x ->
      let b = Int64.bits_of_float x in
      for k = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical b (8 * k)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
      done)
    xs;
  Printf.sprintf "%016Lx" !h

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

let within ~tol a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a b

(* The paper's FIG4 shape: along t2 the baseband envelope carries the
   bit pattern, so the mean |envelope| over every 0-bit interval sits
   below half of the mean over every 1-bit interval. *)
let envelope_follows_bits ~bits env =
  let nbits = Array.length bits in
  let per_bit = Array.length env / nbits in
  let level k =
    let s = ref 0.0 in
    for j = k * per_bit to ((k + 1) * per_bit) - 1 do
      s := !s +. Float.abs env.(j)
    done;
    !s /. float_of_int per_bit
  in
  let levels on = List.filter_map (fun k -> if bits.(k) = on then Some (level k) else None) (List.init nbits Fun.id) in
  let zeros = levels false and ones = levels true in
  per_bit > 0 && zeros <> [] && ones <> []
  && List.fold_left Float.max 0.0 zeros < 0.5 *. List.fold_left Float.min infinity ones
