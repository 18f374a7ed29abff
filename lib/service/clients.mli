(** The closed-loop client population, shared by the live {!Swarm}
    driver and the deterministic {!Sim_swarm} twin: the driver-side
    counterpart of {!Host}.

    Each client is a small state machine: think, acquire, hold (renewing
    if the hold outlives half a lease), release or abandon, repeat for a
    fixed number of rounds. A client's id doubles as its session id; its
    lock is [lock-(id mod locks)] and its first home node [id mod n].
    The population also keeps the driver's books: per-shard counters,
    acquire-to-grant latency (measured from the first [Acquire] send, so
    failover cost is part of the distribution), each shard's merged trace
    with the driver's own [Crash]/[Recover] entries, and the [swarm.*]
    metrics registry.

    Like {!Host}, it never touches a clock, a socket or a timer wheel:
    time, frames and wakeups all go through {!caps}, so the same code
    runs on the wall clock in {!Swarm} and on virtual time in
    {!Sim_swarm}. *)

module Summary = Dmx_sim.Stats.Summary

type what = Start | Retry | Release | Renew | Failsafe

(** What the population needs from its driver. *)
type caps = {
  now : unit -> float;
  send : node:int -> Dmx_net.Wire.frame -> unit;
      (** deliver a session frame to a service node *)
  wake : at:float -> client:int -> what -> unit;
      (** call {!on_wake} with [client] and [what] at [at], or as soon
          after as the driver can *)
}

(** The workload fields both drivers share. *)
type workload = {
  n : int;  (** service nodes *)
  shards : int;
  clients : int;
  locks : int;  (** distinct lock names; [0] means one per client *)
  rounds : int;  (** acquire/release cycles per client *)
  think : float;  (** mean think time between rounds (exponential) *)
  hold : float;  (** hold time once granted *)
  lease : float;
  abandon : float;  (** P(granted client vanishes without releasing) *)
}

val check :
  workload ->
  kills:(float * int) list ->
  restarts:(float * int) list ->
  (unit, string) result
(** The validation both drivers make of the fields they share, with an
    unprefixed message: sizes, probabilities, and a kill/restart
    schedule whose nodes are in range, which leaves a node alive, and
    where every restart follows a kill of the same node. The protocol,
    quorum and [rto] are {!Host.protocol}'s to check. *)

type t

val create :
  caps:caps ->
  workload ->
  retry_interval:float ->
  inc:float ->
  rng:Dmx_sim.Rng.t ->
  t
(** A population of [workload.clients] thinking clients. A waiting client
    re-sends its [Acquire] every [retry_interval]; sessions open with
    incarnation [inc] and take [inc + 1] on every re-home. [rng] draws
    think times and abandon decisions. *)

val start : t -> unit
(** Wake every client for its first round, one think time from now. *)

val on_frame : t -> Dmx_net.Wire.frame -> unit
(** A [Grant], [Expire] or [Deny] from a node; other frames, stale
    answers and unknown sessions are ignored. *)

val on_wake : t -> client:int -> what -> unit
(** A wakeup scheduled through [caps.wake]. Wakeups the client's phase
    has moved past are ignored. *)

val alive : t -> int -> bool
(** The driver's view of a node: up unless {!kill}ed since its last
    {!restart}. *)

val kill : t -> int -> unit
(** A node died: add a [Crash] entry to every shard's trace and re-home
    every session bound to it onto the next live node with a fresh
    incarnation. Waiting clients re-send their [Acquire] there (their
    latency clock keeps running); holds die with the node and end the
    round as an expiry. A no-op on a dead node. *)

val restart : t -> int -> unit
(** A killed node is back: add a [Recover] entry to every shard's trace.
    A no-op on a live node. *)

val push_trace : t -> shard:int -> Dmx_sim.Trace.entry list -> unit
(** Append a batch of a shard's trace entries, in arrival order. *)

val completed : t -> int
(** Clients that have finished every round. *)

(** The driver's books. Per-shard arrays are indexed by shard,
    [client_grants] by client id. *)
type tally = {
  acquires : int array;  (** rounds started (first [Acquire] sends) *)
  grants : int array;  (** [Grant]s matched to a waiting request *)
  expiries : int array;
      (** rounds ended by lease expiry rather than release — abandons,
          kills and lost frames *)
  latency : Summary.t array;  (** acquire-to-grant, seconds *)
  client_grants : int array;
  entries : Dmx_sim.Trace.entry list array;
      (** each shard's pushed trace plus the [Crash]/[Recover] entries,
          in arrival order *)
  clients_done : int;
  rehomed : int;  (** sessions moved off killed nodes *)
  obs : Dmx_obs.Snapshot.t;
      (** per-shard [swarm.acquire_latency] histograms and
          [swarm.acquires]/[swarm.grants]/[swarm.expiries] counters, plus
          [swarm.rehomed_sessions] and [swarm.completed_clients] *)
}

val tally : t -> tally
