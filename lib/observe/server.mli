(** The introspection server: one dedicated domain running a
    [Unix.select] loop over non-blocking sockets.

    Serves the {!Http} subset on a {!Addr.t}. Built-in endpoints:

    - [GET /metrics] — Prometheus text exposition from
      {!Publish.registry_snapshot};
    - [GET /healthz] — the {!Publish.healthz_json} document;
    - [GET /events?since=N] — close-delimited JSONL stream: a header
      line describing the window, then every retained event with
      [seq > N], then live events as they are published.

    A [routes] handler passed to {!start} is consulted first, with the
    parsed request and its [Content-Length]-framed body, and may answer
    with a complete raw response or a polled stream — this is how the
    solve service mounts [POST /jobs] without the observe layer knowing
    about jobs. A non-GET on a built-in path is answered [405] with an
    [Allow] header; an over-cap body gets [413] before the route runs.

    [start] arms {!Publish} and installs its wake pipe as the publish
    waker; [stop] tears all of that down, joins the domain, and (for
    Unix sockets) unlinks the path. The loop itself never runs user
    code from worker domains — publication crosses over only through
    {!Publish}'s atomics, the event ring, and the self-pipe byte.
    Route handlers and stream polls DO run on the serving domain, so
    they must be quick and non-blocking; hand real work to worker
    domains and let [poll] report [`Wait] until it finishes. *)

type reply =
  | Response of string
      (** complete raw HTTP bytes, typically from {!Http.response} *)
  | Stream of {
      header : string;  (** typically {!Http.stream_header} *)
      poll : unit -> [ `Data of string | `Wait | `Eof ];
          (** called on the serving domain every loop tick (≤ 50 ms
              apart) until [`Eof]; must never block *)
    }

type route = Http.request -> string -> reply option
(** [route req body] answers [None] to fall through to the built-in
    endpoints (and 404/405 handling). *)

val metrics_response : Telemetry.Registry.t -> string
(** The [GET /metrics] reply for a scrape's registry: its Prometheus
    text exposition as complete raw HTTP bytes. The built-in endpoint
    answers with {!Publish.registry_snapshot}; a route owning more
    families writes them into that snapshot first and answers with
    this (how the solve service adds its [serve.*] samples). *)

type t

val start :
  ?flush_interval:float -> ?routes:route -> Addr.t -> (t, string) result
(** Bind, listen, arm {!Publish}, and spawn the serving domain.
    [flush_interval] (default 1 s of {!Telemetry.Clock.wall}) is how
    often the loop calls {!Publish.flush}. [routes] (default none)
    mounts service endpoints ahead of the built-ins. Fails with a
    message (not an exception) when the address cannot be bound. *)

val addr : t -> Addr.t
(** The actual bound address: for [Tcp (host, 0)] the kernel-assigned
    port is filled in. *)

val stop : t -> unit
(** Disarm {!Publish}, wake and join the serving domain, close every
    connection, and remove a Unix socket path. Idempotent. *)
