(** rfssd — the persistent solve service: the {!Jobs} executor mounted
    on the {!Observe.Server} HTTP stack.

    Endpoints on the bound address:
    - [POST /jobs] — an [rfss.jobs/1] request body; the response is a
      close-delimited JSONL stream (accepted → result → done);
    - [GET /jobs] — one-line JSON status (queue depth, cache and
      warm-start counters);
    - [GET /metrics] — the built-in scrape plus the [serve.*]
      families, read from the executor when the scrape arrives;
    - the built-in [/healthz] and [/events] endpoints keep working. *)

type t

val routes : Jobs.t -> Observe.Server.route
(** The route function [start] mounts; exposed so tests can drive the
    protocol without a socket. *)

val start :
  ?workers:int ->
  ?cache_capacity:int ->
  ?warm_capacity:int ->
  Observe.Addr.t ->
  (t, string) result
(** Spawn the executor and bind the server (failing with a message,
    not an exception, when the address cannot be bound). *)

val addr : t -> Observe.Addr.t
(** Actual bound address (kernel-assigned port filled in). *)

val jobs : t -> Jobs.t

val stop : t -> unit
(** Stop the HTTP server, then the executor. *)
