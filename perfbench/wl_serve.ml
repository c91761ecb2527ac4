(* Workload "serve": a closed-loop rfss.jobs/1 stream against the live
   solve service — one in-process Serve.Service with one worker domain on
   a unix socket, one client posting through Observe.Client.post exactly
   as `rfss submit` does. The seeded stream on the balanced-mixer fixture
   mixes repeats (cache hits), near-neighbour tones (warm-started misses)
   and "warm":false tones (cold misses); its key population exceeds the
   cache capacity, so the LRU evicts. Only this workload exercises serve
   and observe, and it drives mpde from warm seeds. *)

open Perfbench
module J = Diagnostics.Json_min

let circuit = "balanced-mixer"
let n1 = 32
let n2 = 24
let cache_capacity = 16

let fixture =
  match Serve.Catalog.find circuit with Ok f -> f | Error e -> invalid_arg e

let base_fd = fixture.Serve.Catalog.default_fd

type service = { svc : Serve.Service.t; addr : Observe.Addr.t; path : string }

let start () =
  let path = Printf.sprintf ".bench_serve.%d.sock" (Unix.getpid ()) in
  (try Sys.remove path with Sys_error _ -> ());
  match Serve.Service.start ~workers:1 ~cache_capacity (Observe.Addr.Unix_socket path) with
  | Ok svc -> { svc; addr = Serve.Service.addr svc; path }
  | Error e -> failwith ("serve: " ^ e)

let stop s =
  Serve.Service.stop s.svc;
  try Sys.remove s.path with Sys_error _ -> ()

type reply = {
  ok_status : bool;
  cache_hit : bool option;
  result : string option;  (** the raw result line *)
  converged : bool;
  warm_started : bool;
  newton : float;
  wall_seconds : float;  (** the solve's own wall, from the result line *)
  csv : string;
}

let no_reply =
  {
    ok_status = false;
    cache_hit = None;
    result = None;
    converged = false;
    warm_started = false;
    newton = nan;
    wall_seconds = nan;
    csv = "";
  }

let parse_reply (status, _, body) =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
  let parsed = List.filter_map (fun l -> try Some (l, J.parse l) with J.Parse_error _ -> None) lines in
  let event e = List.find_opt (fun (_, j) -> Option.bind (J.member "event" j) J.str = Some e) parsed in
  let field j name conv = Option.bind (J.member name j) conv in
  let r = { no_reply with ok_status = status = 200 } in
  let r =
    match event "accepted" with
    | Some (_, j) -> { r with cache_hit = Option.map (fun c -> c = "hit") (field j "cache" J.str) }
    | None -> r
  in
  match event "result" with
  | Some (line, j) ->
      {
        r with
        result = Some line;
        converged = field j "converged" J.bool = Some true;
        warm_started = field j "warm_started" J.bool = Some true;
        newton = Option.value ~default:nan (field j "newton" J.num);
        wall_seconds = Option.value ~default:nan (field j "wall_seconds" J.num);
        csv = Option.value ~default:"" (field j "waveform_csv" J.str);
      }
  | None -> r

type sample = { req : Gen.request; latency : float; reply : reply }

(* Post one request and check its answer: HTTP 200, the planned cache
   disposition and warm start, a converged result, and for a repeat the
   result line byte-identical to the one its miss returned. *)
let exchange tally s ~results ~warm_start (r : Gen.request) =
  let body = Gen.body ~circuit ~n1 ~n2 r in
  let resp, latency =
    Probe.timed (fun () ->
        Telemetry.span
          ("bench.serve.post." ^ Gen.disposition_name r.Gen.expect)
          (fun () -> Observe.Client.post ~timeout:60.0 s.addr "/jobs" body))
  in
  let reply = match resp with Ok x -> parse_reply x | Error _ -> no_reply in
  let hit = r.Gen.expect = Gen.Hit in
  let ok =
    reply.ok_status && reply.converged
    && reply.cache_hit = Some hit
    && (if hit then reply.result <> None && Hashtbl.find_opt results r.Gen.fd = Some reply.result
        else reply.warm_started = warm_start)
  in
  if not hit then Hashtbl.replace results r.Gen.fd reply.result;
  Stats.check tally ~what:("serve " ^ Gen.disposition_name r.Gen.expect ^ " request") ok;
  { req = r; latency; reply }

(* Service start plus warm-up traffic: a miss that seeds the warm-start
   store, a repeat of it, a cold miss and a warm-started miss. *)
let warm_up tally s stream results =
  let first = Gen.miss stream ~warm:true in
  ignore (exchange tally s ~results ~warm_start:false first);
  ignore (exchange tally s ~results ~warm_start:false { first with Gen.expect = Gen.Hit; warm = true });
  ignore (exchange tally s ~results ~warm_start:false (Gen.miss stream ~warm:false));
  ignore (exchange tally s ~results ~warm_start:true (Gen.miss stream ~warm:true))

let session ~seed scales tally =
  let (s, stream, results), _, t =
    Probe.scaled scales (fun () ->
        let s = start () in
        let stream = Gen.serve_stream ~seed ~base_fd ~capacity:cache_capacity in
        let results = Hashtbl.create 256 in
        warm_up tally s stream results;
        (s, stream, results))
  in
  (t, s, stream, results)

let csv_values csv =
  match String.split_on_char '\n' csv with
  | _header :: rows ->
      Array.of_list
        (List.filter_map
           (fun row ->
             match String.split_on_char ',' row with
             | [ _; v ] -> float_of_string_opt v
             | _ -> None)
           rows)
  | [] -> [||]

(* Each warm-started answer must agree with a cold solve of the same key,
   run here directly through the engine (the service would answer it
   from the cache). Both stop at Newton's residual tolerance, which
   leaves them ~1e-5 V apart on this fixture's ~0.08 V output, so they
   must agree to 1e-3 of the output's peak. *)
let rel_tol = 1e-3

let check_warm_vs_cold tally samples =
  let warm = List.filter (fun x -> x.req.Gen.expect = Gen.Warm) samples in
  List.iteri
    (fun i x ->
      if i < 3 then begin
        let options = { Engine.Options.default with Engine.Options.n1; n2 } in
        let problem = Serve.Catalog.problem_of fixture ~f_fast:fixture.Serve.Catalog.default_fast ~fd:x.req.Gen.fd in
        let cold = Engine.run problem (Engine.make ~options Engine.Mpde) in
        let cold_csv = Serve.Protocol.waveform_csv ~output_node:fixture.Serve.Catalog.output_node cold.Engine.Result.waveform in
        let a = csv_values x.reply.csv and b = csv_values cold_csv in
        Stats.check tally ~what:"serve warm-started answer within tol of a cold solve"
          (cold.Engine.Result.converged && Array.length a > 0
          && Oracle.within ~tol:(rel_tol *. Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 b) a b)
      end)
    warm

let latencies d samples =
  Array.of_list (List.filter_map (fun x -> if x.req.Gen.expect = d then Some x.latency else None) samples)

let timed ~seed ~seconds tally =
  let scales = ref [] in
  let sessions =
    List.init 3 (fun i ->
        let (_, s, _, _) as session = session ~seed scales tally in
        if i < 2 then stop s;
        session)
  in
  let _, s, stream, results = List.nth sessions 2 in
  (* Each block of ten requests is scaled by the host-speed factor
     around it. *)
  let samples = ref [] in
  Probe.until_deadline ~seconds (fun _ ->
      let block, t, t_scaled =
        Probe.scaled scales (fun () ->
            List.init (Array.length Gen.block) (fun _ ->
                let r = Gen.next stream in
                exchange tally s ~results ~warm_start:(r.Gen.expect = Gen.Warm) r))
      in
      let k = t_scaled /. t in
      samples := List.rev_map (fun x -> { x with latency = x.latency *. k }) block @ !samples);
  stop s;
  let samples = List.rev !samples in
  check_warm_vs_cold tally samples;
  let split = Stats.split (List.map (fun x -> (x.req.Gen.expect, x.latency)) samples) in
  let n = List.length samples in
  let busy = List.fold_left (fun acc x -> acc +. x.latency) 0.0 samples in
  {
    Probe.setup_s = Array.of_list (List.map (fun (t, _, _, _) -> t) sessions);
    solve = latencies Gen.Cold samples;
    alt = latencies Gen.Hit samples;
    throughput = float_of_int n /. busy;
    scales = Array.of_list !scales;
    notes =
      List.map
        (fun (d, xs) ->
          Printf.sprintf "# serve.%s_s_p50 = %.6f s (n=%d)" (Gen.disposition_name d) (Stats.median xs)
            (Array.length xs))
        split
      @ [
          Printf.sprintf "# serve.requests_per_s = %.3f 1/s (n=%d)" (float_of_int n /. busy) n;
          "# solve = cold (\"warm\":false) miss, post to EOF; alt = cache hit; throughput = requests per second of the closed loop";
        ];
  }

(* ---- traced run ---- *)

let requests = 60

let stream_run ~seed tally =
  let _, s, stream, results = session ~seed (ref []) tally in
  let samples, wall =
    Probe.timed (fun () ->
        List.init requests (fun _ ->
            let r = Gen.next stream in
            exchange tally s ~results ~warm_start:(r.Gen.expect = Gen.Warm) r))
  in
  (s, samples, wall)

let traced ~seed ~lines tally =
  let s0, _, untraced_wall = stream_run ~seed tally in
  stop s0;
  let (s, samples, wall), _ =
    Probe.recorded (fun () -> Telemetry.span "bench.serve" (fun () -> stream_run ~seed tally))
  in
  let misses = List.filter (fun x -> x.req.Gen.expect <> Gen.Hit) samples in
  let solve_s = Array.of_list (List.map (fun x -> x.reply.wall_seconds) misses) in
  let total f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
  let sum_latency = total (fun x -> x.latency) samples in
  let sum_solve = total (fun x -> x.reply.wall_seconds) misses in
  let layers =
    [
      { Budget.name = "mpde (worker)"; self_s = sum_solve; calls = List.length misses };
      { Budget.name = "serve+observe"; self_s = sum_latency -. sum_solve; calls = requests };
      { Budget.name = "benchmark"; self_s = wall -. sum_latency; calls = requests };
    ]
  in
  let moves = function
    | "mpde (worker)" -> "solve_s_p50 on serve"
    | "serve+observe" -> "alt_s_p50, throughput_per_s on serve"
    | "benchmark" -> "none"
    | _ -> "none"
  in
  lines :=
    !lines
    @ [
        Budget.render ~title:(Printf.sprintf "serve, %d requests" requests) ~wall
          ~work:(fun l ->
            if l = "mpde (worker)" then Some ("misses", float_of_int (List.length misses))
            else Some ("requests", float_of_int requests))
          ~moves layers;
      ];
  let jobs = Serve.Service.jobs s.svc in
  let cs = Serve.Cache.stats (Serve.Jobs.cache jobs) in
  let warm_starts = Serve.Jobs.warm_starts jobs in
  let roundtrip =
    Array.init 20 (fun _ ->
        snd
          (Probe.timed (fun () ->
               Telemetry.span "bench.observe.healthz" (fun () -> ignore (Observe.Client.get s.addr "/healthz")))))
  in
  stop s;
  let bodies =
    Array.of_list (List.map (fun x -> Gen.body ~circuit ~n1 ~n2 x.req) samples)
  in
  let jobs_parsed = Array.map (fun b -> Result.get_ok (Serve.Protocol.parse_job b)) bodies in
  let k = ref 0 in
  let next a = let x = a.(!k mod Array.length a) in incr k; x in
  let parse_s = Probe.per_call "protocol.parse_job" (fun () -> ignore (Serve.Protocol.parse_job (next bodies))) in
  let key_s = Probe.per_call "protocol.key_of_job" (fun () -> ignore (Serve.Protocol.key_of_job (next jobs_parsed))) in
  let cache = Serve.Cache.create ~capacity:cache_capacity in
  let keys = Array.map Serve.Protocol.key_of_job jobs_parsed in
  Array.iteri (fun i key -> Serve.Cache.add cache key bodies.(i)) keys;
  let cached = Array.of_list (Serve.Cache.keys cache) in
  let find_s = Probe.per_call "cache.find" (fun () -> ignore (Serve.Cache.find cache (next cached))) in
  let newton d =
    Stats.median
      (Array.of_list (List.filter_map (fun x -> if x.req.Gen.expect = d then Some x.reply.newton else None) samples))
  in
  let p50 d = Stats.median (latencies d samples) in
  let m = Probe.m in
  [
    m "serve.hit_s_p50" "s" (p50 Gen.Hit);
    m "serve.warm_s_p50" "s" (p50 Gen.Warm);
    m "serve.cold_s_p50" "s" (p50 Gen.Cold);
    m "serve.requests_per_s" "1/s" (float_of_int requests /. wall);
    m "serve.cache.hit_ratio" "ratio" (float_of_int cs.Serve.Cache.hits /. float_of_int (cs.Serve.Cache.hits + cs.Serve.Cache.misses));
    m "serve.cache.evictions" "count" (float_of_int cs.Serve.Cache.evictions);
    m "serve.warm.ratio" "ratio" (float_of_int warm_starts /. float_of_int cs.Serve.Cache.misses);
    m "serve.newton_warm_p50" "count" (newton Gen.Warm);
    m "serve.newton_cold_p50" "count" (newton Gen.Cold);
    m "serve.solve_s_p50" "s" (Stats.median solve_s);
    m "serve.protocol.parse_s" "s" parse_s;
    m "serve.key_s" "s" key_s;
    m "serve.cache.find_s" "s" find_s;
    m "observe.roundtrip_s" "s" (Stats.median roundtrip);
    m "serve.overhead_s_p50" "s"
      (Stats.median (Array.of_list (List.map (fun x -> x.latency -. x.reply.wall_seconds) misses)));
    m "serve.trace_overhead_frac" "ratio" ((wall /. untraced_wall) -. 1.0);
  ]
