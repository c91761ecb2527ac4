(* The rfss.jobs/1 wire protocol: one JSON request in a POST body, a
   close-delimited JSONL stream back.

     client                              rfssd
       |  POST /jobs  {"v":"rfss.jobs/1",...}
       |----------------------------------->|
       |   {"event":"accepted","cache":...} |  immediately
       |<-----------------------------------|
       |   {"event":"result",...}           |  when solved (or cached)
       |<-----------------------------------|
       |   {"event":"done"}                 |  then the server closes
       |<-----------------------------------|

   The "accepted" line carries everything that varies between a cache
   hit and a miss (the flag, the job id); the "result" line carries
   only the solve's outcome, so a hit replays the stored result line
   byte for byte — which is the identity the cache tests and the CI
   smoke assert. *)

module J = Telemetry.Json

let version = "rfss.jobs/1"

type job = {
  fixture : Catalog.t;
  engine : Engine.kind;
  f_fast : float;
  fd : float;
  options : Engine.Options.t;
  wall_seconds : float option;
  max_newton_budget : int option;
  warm : bool;
}

let key_of_job job =
  Engine.Key.hash ~label:job.fixture.Catalog.name
    ~engine:(Engine.kind_name job.engine) ~f_fast:job.f_fast ~fd:job.fd
    ~options:job.options

(* ---------- request parsing ---------- *)

let known_option_keys =
  [
    "tol";
    "max_newton";
    "warm_start";
    "steps_per_period";
    "segments";
    "steps_per_segment";
    "harmonics";
    "points";
    "n1";
    "n2";
  ]

exception Bad of string

let parse_options j (o : Engine.Options.t) =
  match j with
  | J.Obj fields -> (
      try
        (match
           List.find_opt
             (fun (k, _) -> not (List.mem k known_option_keys))
             fields
         with
        | Some (k, _) ->
            raise
              (Bad
                 (Printf.sprintf "unknown option %S; known: %s" k
                    (String.concat ", " known_option_keys)))
        | None -> ());
        let num name default =
          match J.member name j with
          | None -> default
          | Some v -> (
              match J.num v with
              | Some x -> x
              | None ->
                  raise (Bad (Printf.sprintf "option %S is not a number" name)))
        in
        let int_field name default =
          int_of_float (num name (float_of_int default))
        in
        let bool_field name default =
          match J.member name j with
          | None -> default
          | Some v -> (
              match J.bool v with
              | Some b -> b
              | None ->
                  raise (Bad (Printf.sprintf "option %S is not a bool" name)))
        in
        let tol = num "tol" o.Engine.Options.tol in
        let max_newton = int_field "max_newton" o.Engine.Options.max_newton in
        let warm_start = bool_field "warm_start" o.Engine.Options.warm_start in
        let steps_per_period =
          int_field "steps_per_period" o.Engine.Options.steps_per_period
        in
        let segments = int_field "segments" o.Engine.Options.segments in
        let steps_per_segment =
          int_field "steps_per_segment" o.Engine.Options.steps_per_segment
        in
        let harmonics = int_field "harmonics" o.Engine.Options.harmonics in
        let points = int_field "points" o.Engine.Options.points in
        let n1 = int_field "n1" o.Engine.Options.n1 in
        let n2 = int_field "n2" o.Engine.Options.n2 in
        if tol <= 0.0 then raise (Bad "option \"tol\" must be > 0");
        List.iter
          (fun (name, v) ->
            if v < 1 then
              raise (Bad (Printf.sprintf "option %S must be >= 1" name)))
          [
            ("max_newton", max_newton);
            ("steps_per_period", steps_per_period);
            ("segments", segments);
            ("steps_per_segment", steps_per_segment);
            ("harmonics", harmonics);
            ("points", points);
            ("n1", n1);
            ("n2", n2);
          ];
        Ok
          {
            o with
            Engine.Options.tol;
            max_newton;
            warm_start;
            steps_per_period;
            segments;
            steps_per_segment;
            harmonics;
            points;
            n1;
            n2;
          }
      with Bad m -> Error m)
  | _ -> Error "\"options\" must be an object"

let parse_job body =
  match J.parse body with
  | exception J.Parse_error e -> Error ("invalid JSON: " ^ e)
  | j -> (
      let ( let* ) = Result.bind in
      let* () =
        match Option.bind (J.member "v" j) J.str with
        | Some v when v = version -> Ok ()
        | Some v ->
            Error
              (Printf.sprintf "unsupported protocol version %S (this server \
                               speaks %s)" v version)
        | None -> Error (Printf.sprintf "missing \"v\" (expected %S)" version)
      in
      let* fixture =
        match Option.bind (J.member "circuit" j) J.str with
        | Some name -> Catalog.find name
        | None -> Error "missing \"circuit\""
      in
      let* engine =
        match Option.bind (J.member "engine" j) J.str with
        | Some name -> Engine.kind_of_name name
        | None -> Ok Engine.Mpde
      in
      let float_field name default =
        match J.member name j with
        | Some v -> (
            match J.num v with
            | Some x -> Ok x
            | None -> Error (Printf.sprintf "%S is not a number" name))
        | None -> Ok default
      in
      let* f_fast = float_field "f_fast" fixture.Catalog.default_fast in
      let* fd = float_field "fd" fixture.Catalog.default_fd in
      let* () =
        if f_fast > 0.0 && fd > 0.0 then Ok ()
        else Error "\"f_fast\" and \"fd\" must be > 0"
      in
      let* options =
        match J.member "options" j with
        | Some o -> parse_options o Engine.Options.default
        | None -> Ok Engine.Options.default
      in
      let* wall_seconds, max_newton_budget =
        match J.member "budget" j with
        | None -> Ok (None, None)
        | Some (J.Obj _ as b) ->
            let wall = Option.bind (J.member "wall_seconds" b) J.num in
            let mn =
              Option.map int_of_float
                (Option.bind (J.member "max_newton" b) J.num)
            in
            if (match wall with Some v -> v <= 0.0 | None -> false) then
              Error "budget wall_seconds must be > 0"
            else if (match mn with Some v -> v < 1 | None -> false) then
              Error "budget max_newton must be >= 1"
            else Ok (wall, mn)
        | Some _ -> Error "\"budget\" must be an object"
      in
      let* warm =
        match J.member "warm" j with
        | None -> Ok true
        | Some v -> (
            match J.bool v with
            | Some b -> Ok b
            | None -> Error "\"warm\" is not a bool")
      in
      Ok
        {
          fixture;
          engine;
          f_fast;
          fd;
          options;
          wall_seconds;
          max_newton_budget;
          warm;
        })

(* ---------- response lines ---------- *)

let line fields = J.to_string (J.Obj (("v", J.Str version) :: fields))

let int i = J.Num (float_of_int i)

let request_line ~circuit ~engine ?f_fast ?fd ~n1 ~n2 ~tol ~max_newton
    ?wall_seconds ~warm () =
  let opt name = function Some v -> [ (name, J.Num v) ] | None -> [] in
  line
    ([ ("circuit", J.Str circuit); ("engine", J.Str engine) ]
    @ opt "f_fast" f_fast @ opt "fd" fd
    @ [
        ( "options",
          J.Obj
            [
              ("n1", int n1);
              ("n2", int n2);
              ("tol", J.Num tol);
              ("max_newton", int max_newton);
            ] );
      ]
    @ (match wall_seconds with
      | Some s -> [ ("budget", J.Obj [ ("wall_seconds", J.Num s) ]) ]
      | None -> [])
    @ if warm then [] else [ ("warm", J.Bool false) ])

let accepted_line ~id ~key ~cache_hit =
  line
    [
      ("event", J.Str "accepted");
      ("id", int id);
      ("key", J.Str key);
      ("cache", J.Str (if cache_hit then "hit" else "miss"));
    ]

let error_line msg = line [ ("event", J.Str "error"); ("message", J.Str msg) ]

let done_line ~id = line [ ("event", J.Str "done"); ("id", int id) ]

(* The exact CSV the CLI prints for a single solve, so "served" and
   "direct" outputs can be compared byte for byte. *)
let waveform_csv ~output_node (w : Engine.Result.waveform) =
  let b = Buffer.create (Array.length w.Engine.Result.times * 24 + 32) in
  Buffer.add_string b (Printf.sprintf "t,v(%s)\n" output_node);
  Array.iteri
    (fun k t ->
      Buffer.add_string b
        (Printf.sprintf "%.9e,%.6e\n" t w.Engine.Result.values.(k)))
    w.Engine.Result.times;
  Buffer.contents b

let result_line ~key ~warm_started job (r : Engine.Result.t) =
  line
    [
      ("event", J.Str "result");
      ("key", J.Str key);
      ("label", J.Str r.Engine.Result.label);
      ("engine", J.Str (Engine.kind_name r.Engine.Result.kind));
      ("converged", J.Bool r.Engine.Result.converged);
      ("newton", int r.Engine.Result.newton_iterations);
      ("residual", J.Num r.Engine.Result.residual_norm);
      ("wall_seconds", J.Num r.Engine.Result.wall_seconds);
      ("warm_started", J.Bool warm_started);
      ( "metrics",
        J.Obj (List.map (fun (k, v) -> (k, J.Num v)) r.Engine.Result.metrics) );
      ( "waveform_csv",
        J.Str
          (waveform_csv ~output_node:job.fixture.Catalog.output_node
             r.Engine.Result.waveform) );
    ]
