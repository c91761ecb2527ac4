(* The benchmark's own arithmetic: medians, the tail rule, the
   per-class latency split and the pass/fail tally. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile: the smallest sample with at least p% of the
   samples at or below it. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (float_of_int (p * n) /. 100.0)))

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(rank ~n p - 1)

(* The tail rule: the highest whole percentile that still has at least
   ten samples ranked beyond it. [None] below eleven samples, where no
   percentile qualifies. *)
let tail_percentile n =
  let rec go p = if p < 0 then None else if n - rank ~n p >= 10 then Some p else go (p - 1) in
  if n < 11 then None else go 99

let tail xs =
  match tail_percentile (Array.length xs) with
  | Some p -> Some (p, percentile xs p)
  | None -> None

(* Split (class, latency) samples by class, keeping first-seen class
   order; a pooled median over classes with very different costs would
   jump between them from run to run. *)
let split samples =
  let classes = ref [] in
  List.iter (fun (c, _) -> if not (List.mem c !classes) then classes := c :: !classes) samples;
  List.rev_map
    (fun c ->
      (c, Array.of_list (List.filter_map (fun (c', x) -> if c' = c then Some x else None) samples)))
    !classes

(* Operations attempted and failed: a failed solve, a refused request
   and a wrong answer all count against the workload. *)
type tally = { mutable attempted : int; mutable failed : int; mutable first_failure : string option }

let tally () = { attempted = 0; failed = 0; first_failure = None }

let check t ~what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.first_failure = None then t.first_failure <- Some what
  end

let fail_frac t = if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted
