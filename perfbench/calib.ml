(* Host-speed calibration. Benchmark hosts are often shared: on the
   2-vCPU virtual machine this was tuned on, the same solve's wall swings
   by tens of percent within seconds, which would swamp any regression in
   raw wall times. So the workloads run a fixed benchmark-owned kernel
   right before and right after each operation (or batch of operations)
   and report that operation's time scaled by [nominal_s / kernel time]:
   seconds on a host where the kernel takes [nominal_s]. The kernel is
   this file's own code, so no change to the program under test can move
   it. It mixes the two kinds of work a solve does: a dense LU with
   partial pivoting of a cache-resident 96x96 matrix, and an axpy
   streaming two 4 MiB arrays (past L2). Sampled next to each of 300
   solves of the 40x30 mixer while the host drifted, it tracked them best
   of the candidates tried (the LU alone, a 32 MB stream, allocation
   churn, and sums of them): over 20-solve windows the raw solve median
   spread 22% (IQR/median) and the normalized one 5%. *)

let lu_n = 96
let stream_n = 1 lsl 19

(* Median kernel time on a 2-core x86-64 host (OCaml 5.1.1). *)
let nominal_s = 2.0e-3

let a = Array.make (lu_n * lu_n) 0.0
let x = Array.init stream_n (fun i -> float_of_int (i land 1023))
let y = Array.make stream_n 0.0

let kernel () =
  for i = 0 to lu_n - 1 do
    for j = 0 to lu_n - 1 do
      a.((i * lu_n) + j) <- (if i = j then float_of_int lu_n else 1.0 /. float_of_int (1 + abs (i - j)))
    done
  done;
  for k = 0 to lu_n - 1 do
    let p = ref k in
    for i = k + 1 to lu_n - 1 do
      if Float.abs a.((i * lu_n) + k) > Float.abs a.((!p * lu_n) + k) then p := i
    done;
    if !p <> k then
      for j = 0 to lu_n - 1 do
        let t = a.((k * lu_n) + j) in
        a.((k * lu_n) + j) <- a.((!p * lu_n) + j);
        a.((!p * lu_n) + j) <- t
      done;
    let piv = a.((k * lu_n) + k) in
    for i = k + 1 to lu_n - 1 do
      let f = a.((i * lu_n) + k) /. piv in
      a.((i * lu_n) + k) <- f;
      for j = k + 1 to lu_n - 1 do
        a.((i * lu_n) + j) <- a.((i * lu_n) + j) -. (f *. a.((k * lu_n) + j))
      done
    done
  done;
  for i = 0 to stream_n - 1 do
    y.(i) <- y.(i) +. (1e-9 *. x.(i))
  done

(* Run the kernel [n] times (median taken) and return the factor that
   turns wall seconds measured now into nominal-host seconds. *)
let scale ?(n = 1) () =
  let samples =
    Array.init n (fun _ ->
        let t0 = Telemetry.Clock.wall () in
        kernel ();
        Telemetry.Clock.wall () -. t0)
  in
  nominal_s /. Stats.median samples
