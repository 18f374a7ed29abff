(** HTTP scrape endpoint for metrics registries.

    A daemon started with [--metrics-port P] runs one of these: a
    loopback listener serving

    - [GET /metrics] — {!Dmx_obs.Export.prometheus} text, and
    - [GET /metrics.json] — {!Dmx_obs.Export.json},

    each response rendered from a {e fresh} snapshot taken when the
    request arrives, so scrapes never observe a half-updated registry
    (snapshot isolation is {!Dmx_obs.Registry.snapshot}'s contract).
    Deliberately tiny: HTTP/1.0, no keep-alive, one short-lived thread
    per connection, no dependencies beyond [Unix] — the consumers are
    [curl], Prometheus, and [dmx-sim top]. *)

type t

val start : port:int -> (unit -> Dmx_obs.Snapshot.t) -> t
(** Bind the loopback listener and start serving. [port = 0] picks an
    ephemeral port — read it back with {!port} (used by tests). Sets
    [SIGPIPE] to ignored, as the transports do, so a client that closes
    early cannot kill the process.
    @raise Unix.Unix_error if the port cannot be bound. *)

val read_timeout : float
(** Seconds (1.0) a connection may leave the listener waiting for its
    next request byte before the handler closes it: a client that
    connects and sends nothing does not hold a thread for long. *)

val port : t -> int
(** The bound port (useful when {!start} was given port 0). *)

val stop : t -> unit
(** Close the listener and join the acceptor thread. Idempotent. *)

val http_get :
  ?host:string -> port:int -> string -> (int * string, string) result
(** Blocking one-shot HTTP GET of [path]; [Ok (status, body)] on any
    parseable response. The client half of the scrape loop — used by
    [dmx-sim top], the metrics-smoke CI probe, and the tests. *)
