(* The per-layer budget: a traced run's span tree folded into self
   seconds per layer, each beside a deterministic work counter, its cost
   per unit of work and the end-to-end metric it should move — the shape
   of a timing report's delay budget. The closing accounting line checks
   that the self times add up to the traced wall. *)

(* Layer of a span: the program's module named by the span, or
   "benchmark" for the spans this benchmark wraps around its calls. *)
let layer_of_span name =
  let has p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  if has "bench." then "benchmark"
  else if has "mpde.assemble" then "mpde.assemble"
  else if has "mpde.precond" then "mpde.precond"
  else if has "mpde." then "mpde.solver"
  else if name = "gmres" then "sparse.krylov"
  else if has "splu" || has "ilu0" then "sparse.direct"
  else if has "newton" || has "continuation" then "numeric.newton"
  else if has "dcop" then "circuit.dcop"
  else if has "stage." then "resilience.ladder"
  else if has "shooting" then "steady.shooting"
  else match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

type layer = { name : string; self_s : float; calls : int }

let layers (s : Telemetry.Summary.t) =
  let tbl = Hashtbl.create 16 and order = ref [] in
  let rec visit (n : Telemetry.Summary.node) =
    let l = layer_of_span n.Telemetry.Summary.name in
    (match Hashtbl.find_opt tbl l with
    | Some (self, calls) -> Hashtbl.replace tbl l (self +. n.self, calls + n.calls)
    | None ->
        order := l :: !order;
        Hashtbl.replace tbl l (n.self, n.calls));
    List.iter visit n.children
  in
  List.iter visit s.Telemetry.Summary.roots;
  List.rev_map
    (fun l ->
      let self_s, calls = Hashtbl.find tbl l in
      { name = l; self_s; calls })
    !order
  |> List.stable_sort (fun a b -> Float.compare b.self_s a.self_s)

let total_self ls = List.fold_left (fun acc l -> acc +. l.self_s) 0.0 ls

(* The end-to-end metric, and workload, a per-layer metric should move. *)
let moves_of_metric name =
  let has p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  let ends p =
    let n = String.length name and k = String.length p in
    n >= k && String.sub name (n - k) k = p
  in
  if ends "trace_overhead_frac" || has "process." then "none: validates the run"
  else if has "steady." || has "paper." then "reported only"
  else if has "fine." then "alt_s_p50 on mixer"
  else if has "mpde.alloc" then "solve_s_tail on mixer"
  else if has "mpde.workspace" || has "engine.job_s_p50_serial" || has "sweep.jobs_per_s_serial" then
    "solve_s_p50, throughput_per_s on sweep"
  else if has "resilience." then "failed on sweep"
  else if has "sweep." || has "engine." || has "telemetry.gc" then
    "sweep.jobs_per_s_parallel on sweep (printed, not gated)"
  else if has "serve.hit" || has "serve.protocol" || has "serve.key" || has "serve.cache.find" || has "observe."
  then "alt_s_p50 on serve"
  else if has "serve.overhead" then "solve_s_p50, alt_s_p50 on serve"
  else if has "serve.cold" || has "serve.solve" || has "serve.newton_cold" then "solve_s_p50 on serve"
  else if has "serve." then "throughput_per_s on serve"
  else "solve_s_p50 on mixer"

(* [work l] is the layer's deterministic counter (name, value), and
   [moves l] the end-to-end metric it should move. *)
let render ~title ~wall ~work ~moves ls =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.bprintf b fmt in
  pr "# per-layer budget: %s\n" title;
  pr "# %-16s %10s %7s %-28s %12s %12s  %s\n" "layer" "self s" "wall %" "work counter" "work" "s / unit"
    "should move";
  List.iter
    (fun l ->
      let wname, w =
        match work l.name with Some (n, v) -> (n, v) | None -> ("span calls", float_of_int l.calls)
      in
      pr "# %-16s %10.6f %6.1f%% %-28s %12.0f %12.3e  %s\n" l.name l.self_s
        (100.0 *. l.self_s /. wall)
        wname w
        (if w > 0.0 then l.self_s /. w else nan)
        (moves l.name))
    ls;
  let sum = total_self ls in
  pr "# accounting: sum of self times %.6f s vs traced wall %.6f s (%.2f%%)\n" sum wall
    (100.0 *. sum /. wall);
  Buffer.contents b
