(* Tests of the benchmark's own arithmetic and input generation. *)

open Perfbench

let check_float msg expected actual = Alcotest.(check (float 1e-12)) msg expected actual

(* ---- tail rule ---- *)

let test_tail_rule () =
  Alcotest.(check (option int)) "100 samples: p90" (Some 90) (Stats.tail_percentile 100);
  Alcotest.(check (option int)) "11 samples: p9" (Some 9) (Stats.tail_percentile 11);
  Alcotest.(check (option int)) "10 samples: none" None (Stats.tail_percentile 10);
  Alcotest.(check (option int)) "20 samples: p50" (Some 50) (Stats.tail_percentile 20);
  for n = 11 to 600 do
    match Stats.tail_percentile n with
    | None -> Alcotest.fail "a percentile qualifies from 11 samples on"
    | Some p ->
        Alcotest.(check bool) "at least ten samples beyond" true (n - Stats.rank ~n p >= 10);
        if p < 99 then Alcotest.(check bool) "the next percentile has fewer" true (n - Stats.rank ~n (p + 1) < 10)
  done;
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (option (pair int (float 0.0)))) "value at p90 of 1..100" (Some (90, 90.0)) (Stats.tail xs);
  check_float "even median" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  check_float "odd median" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])

(* ---- per-disposition latency split ---- *)

let test_split () =
  let hit = 2e-4 and warm = 7e-3 and cold = 5e-2 in
  let samples =
    List.concat
      (List.init 10 (fun k ->
           [ (Gen.Hit, hit); (Gen.Warm, warm +. (1e-6 *. float_of_int k)); (Gen.Cold, cold); (Gen.Hit, hit) ]))
  in
  let split = Stats.split samples in
  Alcotest.(check (list string)) "classes in first-seen order" [ "hit"; "warm"; "cold" ]
    (List.map (fun (d, _) -> Gen.disposition_name d) split);
  Alcotest.(check (list int)) "every sample kept once" [ 20; 10; 10 ]
    (List.map (fun (_, xs) -> Array.length xs) split);
  check_float "hit median" hit (Stats.median (List.assoc Gen.Hit split));
  check_float "warm median" (warm +. 4.5e-6) (Stats.median (List.assoc Gen.Warm split));
  check_float "cold median" cold (Stats.median (List.assoc Gen.Cold split));
  (* Pooled, one more hit or one more miss decides which class the
     median falls in: why latency is split. *)
  let pooled extra = Stats.median (Array.of_list (List.map snd (extra @ samples))) in
  Alcotest.(check bool) "pooled median jumps between classes" true
    (pooled [ (Gen.Hit, hit) ] < 1e-3 && pooled [ (Gen.Warm, warm) ] > 1e-3)

(* ---- pass/fail tally and answer checks ---- *)

let test_fail_frac () =
  let reference = Array.init 30 (fun i -> sin (float_of_int i)) in
  let t = Stats.tally () in
  for _ = 1 to 9 do
    Stats.check t ~what:"same" (Oracle.same_bits reference (Array.copy reference))
  done;
  check_float "clean answers" 0.0 (Stats.fail_frac t);
  let wrong = Array.copy reference in
  wrong.(7) <- Float.succ wrong.(7);
  Alcotest.(check bool) "one ulp changes the hash" true (Oracle.hash wrong <> Oracle.hash reference);
  Stats.check t ~what:"perturbed waveform" (Oracle.same_bits reference wrong);
  check_float "one wrong answer in ten" 0.1 (Stats.fail_frac t);
  Alcotest.(check (option string)) "first failure named" (Some "perturbed waveform") t.Stats.first_failure;
  Alcotest.(check bool) "within tolerance" true (Oracle.within ~tol:1e-9 reference wrong);
  Alcotest.(check bool) "beyond tolerance" false (Oracle.within ~tol:1e-9 reference (Array.map (fun x -> x +. 1e-6) reference))

let test_envelope_oracle () =
  let bits = [| true; true; false; true; true; true |] in
  let env = Array.init 30 (fun j -> if bits.(j / 5) then 0.07 *. cos (float_of_int j) else 1e-5) in
  Alcotest.(check bool) "nulls on the 0 bit" true (Oracle.envelope_follows_bits ~bits env);
  let shifted = Array.init 30 (fun j -> env.((j + 5) mod 30)) in
  Alcotest.(check bool) "null in the wrong place" false (Oracle.envelope_follows_bits ~bits shifted)

(* ---- per-layer accounting identity ---- *)

let test_accounting () =
  let source, advance = Telemetry.Clock.manual () in
  Telemetry.Clock.install source;
  Fun.protect ~finally:Telemetry.Clock.uninstall (fun () ->
      Telemetry.enable ();
      Telemetry.span "bench.mixer" (fun () ->
          advance 0.001;
          Telemetry.span "mpde.solve" (fun () ->
              advance 0.002;
              Telemetry.span "mpde.assemble.residual" (fun () -> advance 0.003);
              Telemetry.span "gmres" (fun () -> advance 0.005);
              Telemetry.span "mpde.assemble.jacobians" (fun () -> advance 0.0007)));
      let s = Telemetry.Summary.of_snapshot (Option.get (Telemetry.snapshot ())) in
      Telemetry.disable ();
      let layers = Budget.layers s in
      let self name = (List.find (fun l -> l.Budget.name = name) layers).Budget.self_s in
      Alcotest.(check (float 1e-12)) "self times add up to the traced wall" 0.0117 (Budget.total_self layers);
      Alcotest.(check (float 1e-12)) "assembly spans share a layer" 0.0037 (self "mpde.assemble");
      Alcotest.(check (float 1e-12)) "gmres is the krylov layer" 0.005 (self "sparse.krylov");
      Alcotest.(check (float 1e-12)) "benchmark self" 0.001 (self "benchmark");
      let table = Budget.render ~title:"t" ~wall:0.0117 ~work:(fun _ -> None) ~moves:(fun _ -> "none") layers in
      Alcotest.(check bool) "accounting line closes at 100%" true
        (List.exists
           (fun l -> l = "# accounting: sum of self times 0.011700 s vs traced wall 0.011700 s (100.00%)")
           (String.split_on_char '\n' table)))

(* ---- seeded generation ---- *)

let stream seed n =
  let s = Gen.serve_stream ~seed ~base_fd:15e3 ~capacity:16 in
  let first = Gen.miss s ~warm:true in
  first :: List.init n (fun _ -> Gen.next s)

let bodies rs = List.map (Gen.body ~circuit:"balanced-mixer" ~n1:32 ~n2:24) rs
let count d rs = List.length (List.filter (fun r -> r.Gen.expect = d) rs)

let test_serve_stream () =
  let a = stream 7 300 and a' = stream 7 300 and b = stream 8 300 in
  Alcotest.(check (list string)) "same seed, same stream" (bodies a) (bodies a');
  Alcotest.(check bool) "another seed, another stream" true (bodies a <> bodies b);
  List.iter
    (fun rs ->
      Alcotest.(check (list int)) "same disposition mix" [ 120; 121; 60 ]
        [ count Gen.Hit rs; count Gen.Warm rs; count Gen.Cold rs ])
    [ a; b ];
  (* Every repeat names a tone requested before, and at least one key
     falls out of the 16-entry cache. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if r.Gen.expect = Gen.Hit then Alcotest.(check bool) "repeat of a known tone" true (Hashtbl.mem seen r.Gen.fd)
      else begin
        Alcotest.(check bool) "new tone is new" false (Hashtbl.mem seen r.Gen.fd);
        Hashtbl.replace seen r.Gen.fd ()
      end)
    a;
  Alcotest.(check bool) "key population exceeds the cache" true (Hashtbl.length seen > 16);
  List.iter
    (fun r ->
      Alcotest.(check bool) "tone within 5% of the fixture's" true (Float.abs ((r.Gen.fd /. 15e3) -. 1.0) <= 0.05);
      Alcotest.(check bool) "cold misses opt out of warm starts" true ((r.Gen.expect = Gen.Cold) = not r.Gen.warm))
    a

let test_sweep_and_mixer_inputs () =
  let a = Gen.sweep_points ~seed:3 ~reps:5 and b = Gen.sweep_points ~seed:4 ~reps:5 in
  Alcotest.(check bool) "same seed, same grid" true (a = Gen.sweep_points ~seed:3 ~reps:5);
  Alcotest.(check bool) "another seed, another grid" true (a <> b);
  Array.iter
    (fun d ->
      let n = Array.fold_left (fun acc p -> if Float.abs ((p.Gen.disparity /. d) -. 1.0) <= 0.1 then acc + 1 else acc) 0 a in
      Alcotest.(check int) "every disparity stratum equally often" 15 n)
    Gen.sweep_disparities;
  let sched = Gen.mixer_schedule ~seed:5 ~cycles:20 in
  Alcotest.(check int) "cycle length" (20 * (Gen.coarse_per_cycle + 1)) (Array.length sched);
  for c = 0 to 19 do
    let fine = ref 0 in
    for k = 0 to Gen.coarse_per_cycle do
      if sched.((c * (Gen.coarse_per_cycle + 1)) + k) = Gen.Fine then incr fine
    done;
    Alcotest.(check int) "one refinement solve per cycle" 1 !fine
  done;
  Alcotest.(check bool) "seed places it" true (sched <> Gen.mixer_schedule ~seed:6 ~cycles:20)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "per-disposition split" `Quick test_split;
          Alcotest.test_case "fail_frac on a wrong answer" `Quick test_fail_frac;
          Alcotest.test_case "envelope oracle" `Quick test_envelope_oracle;
          Alcotest.test_case "accounting identity" `Quick test_accounting;
        ] );
      ( "gen",
        [
          Alcotest.test_case "serve stream" `Quick test_serve_stream;
          Alcotest.test_case "sweep and mixer inputs" `Quick test_sweep_and_mixer_inputs;
        ] );
    ]
