(* rfssd: mount the rfss.jobs/1 endpoints onto the Observe server.

   The observe layer stays protocol-agnostic — it hands every parsed
   request (with framed body) to this route function first. We own
   /jobs and answer GET /metrics (the built-in scrape plus the serve.*
   families); everything else falls through to the built-in
   introspection endpoints, which keep working for the service process
   (its worker lifecycle events flow through Publish like a sweep's). *)

let routes jobs (req : Observe.Http.request) body =
  match req.Observe.Http.path with
  | "/jobs" -> (
      match req.Observe.Http.meth with
      | "POST" -> (
          match Protocol.parse_job body with
          | Error e ->
              Some
                (Observe.Server.Response
                   (Observe.Http.response ~status:400
                      ~content_type:"application/jsonl"
                      (Protocol.error_line e ^ "\n")))
          | Ok job ->
              let handle = Jobs.submit jobs job in
              Some
                (Observe.Server.Stream
                   {
                     header = Observe.Http.stream_header ();
                     poll = Jobs.poll handle;
                   }))
      | "GET" ->
          Some
            (Observe.Server.Response
               (Observe.Http.response ~content_type:"application/json"
                  (Jobs.status_json jobs ^ "\n")))
      | _ ->
          Some
            (Observe.Server.Response
               (Observe.Http.method_not_allowed ~allow:[ "GET"; "POST" ])))
  | "/metrics" when req.Observe.Http.meth = "GET" ->
      (* The serve.* families are pulled into the scrape's registry
         here, so /metrics reports the service as it is right now. *)
      let r = Observe.Publish.registry_snapshot () in
      Jobs.collect_metrics jobs r;
      Some (Observe.Server.Response (Observe.Server.metrics_response r))
  | _ -> None

type t = { server : Observe.Server.t; jobs : Jobs.t }

let start ?workers ?cache_capacity ?warm_capacity addr =
  let jobs = Jobs.create ?workers ?cache_capacity ?warm_capacity () in
  match Observe.Server.start ~routes:(routes jobs) addr with
  | Error e ->
      Jobs.stop jobs;
      Error e
  | Ok server -> Ok { server; jobs }

let addr t = Observe.Server.addr t.server

let jobs t = t.jobs

let stop t =
  Observe.Server.stop t.server;
  Jobs.stop t.jobs
