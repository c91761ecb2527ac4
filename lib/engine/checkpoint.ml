type record = {
  key : string;
  label : string;
  engine : string;
  f_fast : float;
  fd : float;
  status : string;
  converged : bool;
  newton : int;
  residual : float;
  h1 : float;
  thd : float;
  waveform_hash : string;
  attempts : int;
  wall_seconds : float;
  message : string;
  stage : string option;
  backtrace : string option;
  report : string option;
}

(* ---------- hashing ----------

   The job key is the versioned canonical identity from [Key]
   (rfss.key/1); the waveform fingerprint and the per-record digest
   use the same FNV-1a primitives. *)

module Fnv = Telemetry.Fnv
module J = Telemetry.Json

let job_key ~label ~engine ~f_fast ~fd ~options =
  Key.hash ~label ~engine ~f_fast ~fd ~options

let waveform_hash (w : Backend.Result.waveform) =
  let h = ref Fnv.basis in
  Array.iter (fun v -> h := Fnv.mix_float !h v) w.Backend.Result.times;
  Array.iter (fun v -> h := Fnv.mix_float !h v) w.Backend.Result.values;
  Fnv.hex !h

let digest r =
  let open Fnv in
  let h = basis in
  let h = mix_string h r.key in
  let h = mix_string h r.label in
  let h = mix_string h r.engine in
  let h = mix_float h r.f_fast in
  let h = mix_float h r.fd in
  let h = mix_string h r.status in
  let h = mix_int h (if r.converged then 1 else 0) in
  let h = mix_int h r.newton in
  let h = mix_float h r.residual in
  let h = mix_float h r.h1 in
  let h = mix_float h r.thd in
  let h = mix_string h r.waveform_hash in
  let h = mix_int h r.attempts in
  let h = mix_string h r.message in
  let h = mix_string h (Option.value r.stage ~default:"") in
  let h = mix_string h (Option.value r.backtrace ~default:"") in
  let h = mix_string h (Option.value r.report ~default:"") in
  hex h

(* ---------- serialization ----------

   Sweep metrics (h1, thd) are legitimately NaN on error rows; the
   shared codec writes non-finite floats as quoted strings. The report
   is itself JSON but is stored as an escaped string, because the
   digest hashes its exact bytes. *)

let to_line r =
  let opt name = function Some s -> [ (name, J.Str s) ] | None -> [] in
  let int i = J.Num (float_of_int i) in
  J.to_string
    (J.Obj
       ([
          ("v", int 1);
          ("key", J.Str r.key);
          ("label", J.Str r.label);
          ("engine", J.Str r.engine);
          ("f_fast", J.Num r.f_fast);
          ("fd", J.Num r.fd);
          ("status", J.Str r.status);
          ("converged", J.Bool r.converged);
          ("newton", int r.newton);
          ("residual", J.Num r.residual);
          ("h1", J.Num r.h1);
          ("thd", J.Num r.thd);
          ("waveform_hash", J.Str r.waveform_hash);
          ("attempts", int r.attempts);
          ("wall_seconds", J.Num r.wall_seconds);
          ("message", J.Str r.message);
        ]
       @ opt "stage" r.stage
       @ opt "backtrace" r.backtrace
       @ opt "report" r.report
       @ [ ("digest", J.Str (digest r)) ]))

let of_line line =
  match J.parse line with
  | exception J.Parse_error _ -> None
  | j ->
      let open J in
      let str_f name = Option.bind (member name j) str in
      let num_f name = Option.bind (member name j) to_float in
      let int_f name =
        Option.map int_of_float (Option.bind (member name j) num)
      in
      let bool_f name = Option.bind (member name j) bool in
      (match
         ( str_f "key",
           str_f "label",
           str_f "engine",
           num_f "f_fast",
           num_f "fd",
           str_f "status",
           bool_f "converged",
           int_f "newton",
           num_f "residual",
           num_f "h1",
           num_f "thd",
           str_f "waveform_hash",
           int_f "attempts",
           num_f "wall_seconds",
           str_f "message",
           str_f "digest" )
       with
      | ( Some key,
          Some label,
          Some engine,
          Some f_fast,
          Some fd,
          Some status,
          Some converged,
          Some newton,
          Some residual,
          Some h1,
          Some thd,
          Some waveform_hash,
          Some attempts,
          Some wall_seconds,
          Some message,
          Some stored_digest ) ->
          let r =
            {
              key;
              label;
              engine;
              f_fast;
              fd;
              status;
              converged;
              newton;
              residual;
              h1;
              thd;
              waveform_hash;
              attempts;
              wall_seconds;
              message;
              stage = str_f "stage";
              backtrace = str_f "backtrace";
              report = str_f "report";
            }
          in
          if digest r = stored_digest then Some r else None
      | _ -> None)

let of_outcome (o : Sweep.outcome) =
  let j = o.Sweep.job in
  let p = j.Sweep.problem in
  let engine = Backend.kind_name j.Sweep.engine.Backend.kind in
  let key =
    job_key ~label:j.Sweep.label ~engine ~f_fast:p.Problem.f_fast
      ~fd:p.Problem.fd ~options:j.Sweep.engine.Backend.options
  in
  match o.Sweep.result with
  | Ok r ->
      let metric names =
        Option.value ~default:Float.nan
          (List.find_map
             (fun n -> List.assoc_opt n r.Backend.Result.metrics)
             names)
      in
      {
        key;
        label = j.Sweep.label;
        engine;
        f_fast = p.Problem.f_fast;
        fd = p.Problem.fd;
        status = (if o.Sweep.degraded then "degraded" else "ok");
        converged = r.Backend.Result.converged;
        newton = r.Backend.Result.newton_iterations;
        residual = r.Backend.Result.residual_norm;
        h1 = metric [ "h1_amplitude"; "baseband_h1" ];
        thd = metric [ "thd" ];
        waveform_hash = waveform_hash r.Backend.Result.waveform;
        attempts = o.Sweep.attempts;
        wall_seconds = o.Sweep.wall_seconds;
        message = "";
        stage = None;
        backtrace = None;
        report = Some (Resilience.Report.to_json_string r.Backend.Result.report);
      }
  | Error f ->
      {
        key;
        label = j.Sweep.label;
        engine;
        f_fast = p.Problem.f_fast;
        fd = p.Problem.fd;
        status = "error";
        converged = false;
        newton = 0;
        residual = Float.nan;
        h1 = Float.nan;
        thd = Float.nan;
        waveform_hash = "";
        attempts = o.Sweep.attempts;
        wall_seconds = o.Sweep.wall_seconds;
        message = f.Sweep.message;
        stage = f.Sweep.stage;
        backtrace = f.Sweep.backtrace;
        report = None;
      }

let load path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> (
            match of_line line with
            | Some r -> go (r :: acc)
            | None -> go acc (* torn or corrupt line: skip, re-run job *))
      in
      go []

(* ---------- writer ---------- *)

type t = {
  path : string;
  mutex : Mutex.t;
  mutable recs : record list;  (* newest first *)
}

let create path = { path; mutex = Mutex.create (); recs = List.rev (load path) }

let records t =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
  List.rev t.recs

let find t ~key = List.find_opt (fun r -> r.key = key) (records t)

(* Rewrite the whole log via temp + rename. Appending in place would be
   cheaper, but a crash mid-append leaves a torn last line; the rename
   makes every on-disk state a complete, parseable log — which is the
   invariant the kill-and-resume chaos test checks. *)
let flush_locked t =
  let tmp = t.path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     List.iter
       (fun r ->
         output_string oc (to_line r);
         output_char oc '\n')
       (List.rev t.recs);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp t.path

let append t r =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
  t.recs <- r :: List.filter (fun x -> x.key <> r.key) t.recs;
  flush_locked t
