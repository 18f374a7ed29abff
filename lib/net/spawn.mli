(** Child-process plumbing for the lock-service driver
    ([Dmx_service.Swarm]).

    The driver runs local daemons by re-executing its own binary with a
    serialized spec in an environment variable (the trampoline idiom —
    see [Dmx_service.Snode]), which lets the CLI, the test runner and the
    bench runner all serve as the daemon image without a separate
    executable. *)

val alloc_ports : int -> int list
(** [alloc_ports k] asks the kernel for [k] distinct free loopback
    ports (bind port 0, read back, close). The usual race — another
    process grabbing a port between close and the daemon's bind — is
    accepted; supervisors surface the resulting bind failure by name
    through their hello-phase startup-death check. *)

val child :
  log_dir:string option ->
  log_name:string ->
  env_var:string ->
  spec:string ->
  int
(** Spawn the current binary with [env_var=spec] in its environment
    (replacing any inherited binding), stdin/stdout on [/dev/null], and
    stderr appended to [log_dir/log_name] when a log directory is
    given. Returns the pid. *)

val kill_quietly : int -> unit
(** SIGKILL and reap, ignoring all errors — the teardown path must
    never throw. *)
