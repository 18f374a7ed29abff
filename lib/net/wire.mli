(** Versioned binary wire codec for the networked runtime.

    Everything that crosses a socket is a {e frame}: a 4-byte big-endian
    length prefix followed by a payload whose first byte is the codec
    {!version} and whose second byte is the frame tag. Protocol messages
    travel opaquely inside {!frame.Sproto} (encoded by a per-protocol codec
    such as {!encode_message} for {!Dmx_core.Messages.t}), so the framing
    layer works for any [Dmx_sim.Protocol.PROTOCOL]. Trace entries cross
    the wire in the {e existing} {!Dmx_sim.Trace} representation, which is
    what lets the driver merge per-node logs and run the same
    {!Dmx_sim.Oracle} on a real execution as on a simulated one.

    Version negotiation is deliberately minimal (see docs/wire.md): the
    version byte leads every payload, {!decode} rejects any version other
    than its own, and a transport that receives such a frame closes the
    connection — a mixed-version cluster fails fast instead of
    misinterpreting bytes. Decoding is total: any truncated, trailing or
    corrupt input yields [Error], never an exception or a garbage value.

    Inside, each frame, message, trace kind and metric series is laid
    out once, as a codec value that holds both its writer and its reader,
    so the two cannot disagree. Every check lives in the codec's few
    primitives: bounds, known tags, integers inside OCaml's 63-bit range,
    exact consumption, and one count rule — a list or array count larger
    than the bytes left is rejected before any element is read. *)

val version : int
(** Current codec version (2). Version 2 retired v1's single-protocol
    frames (tag 2 [Proto], tag 4 [Trace_batch]) and shrank {!frame.Workload}
    to its epoch; the remaining tags kept their numbers. *)

val max_frame : int
(** Upper bound on an accepted payload length (16 MiB); a length prefix
    above it is treated as corruption, not an allocation request. *)

(** One wire frame. [site] fields identify the {e sender}. *)
type frame =
  | Hello of { site : int; inc : float }
      (** first frame on every connection: who is speaking, and its
          incarnation number (wall-clock init time) *)
  | Heartbeat of { site : int; time : float }
      (** liveness beacon, also the failure-detector input *)
  | Workload of { since : float }
      (** supervisor [->] node: the workload started [since] seconds after
          the cluster epoch — the shared anchor of chaos partition and
          delay-spike windows on every node, restarts included *)
  | Metrics of {
      site : int;
      executions : int;
      sent : int;
      received : int;
      kinds : (string * int) list;  (** per-kind network send counts *)
      reliable : (string * int) list;
          (** live reliability/transport/chaos counters
              (["reliable.retransmits"], ["transport.sent"],
              ["chaos.lost"], ...); empty when none apply *)
    }  (** node [->] supervisor: the node's final counters *)
  | Shutdown  (** supervisor [->] node: flush and exit *)
  | Open_session of { session : int; inc : float }
      (** client [->] node: bind (or re-bind, after a re-home) the
          session to this connection. [inc] is the session's incarnation;
          a larger one voids any state left by the smaller (the stale
          client demonstrably restarted — see {!Dmx_core.Lease}) *)
  | Acquire of { session : int; lock : string; req : int }
      (** client [->] node: queue for [lock]'s shard. [req] is echoed in
          the response, so retries over datagrams are idempotent *)
  | Release_lock of { session : int; lock : string; req : int }
      (** client [->] node: give the lease back (or withdraw a queued
          acquire) *)
  | Renew of { session : int; lock : string; req : int }
      (** client [->] node: slide the lease deadline out; answered with a
          fresh {!frame.Grant}, or {!frame.Expire} if the lease is gone *)
  | Grant of { session : int; lock : string; req : int; deadline : float }
      (** node [->] client: the lease — hold [lock] until [deadline]
          (node clock) unless renewed *)
  | Deny of { session : int; lock : string; req : int; reason : string }
      (** node [->] client: the request cannot even be queued (unknown
          session, superseded incarnation, no live quorum) *)
  | Expire of { session : int; lock : string; req : int }
      (** node [->] client: the hold ended without a release — the
          deadline passed, or a renewal arrived too late *)
  | Sproto of { shard : int; src : int; dst : int; payload : string }
      (** node [<->] node: a protocol message of one shard's coterie,
          encoded by the protocol's own codec and demultiplexed to that
          shard's protocol instance *)
  | Strace of { shard : int; site : int; entries : Dmx_sim.Trace.entry list }
      (** node [->] supervisor: a chunk of one shard's event log, in the
          shard's site-id space, so the supervisor can run the unmodified
          oracle per shard *)
  | Metrics_v2 of { site : int; snapshot : Dmx_obs.Snapshot.t }
      (** node [->] supervisor: the node's full metrics-registry snapshot
          (every counter, gauge and histogram the daemon serves on its
          [--metrics-port] scrape endpoint). Supersedes the hard-coded
          counter struct of {!frame.Metrics} — supervisors aggregate these
          with [Dmx_obs.Snapshot.merge] to get fleet totals. The decoder
          re-canonicalizes series order, so snapshot equality is
          wire-transport independent. *)

val encode : frame -> string
(** Payload bytes (version byte included, length prefix excluded). *)

val decode : string -> (frame, string) result
(** Inverse of {!encode}; [Error] explains the rejection (bad version,
    bad tag, truncation, trailing bytes). *)

(** {2 Protocol message codec for {!Dmx_core.Messages.t}} *)

val encode_message : Dmx_core.Messages.t -> string
(** Binary encoding of every constructor, including the recursive
    reliability envelope [Data]. *)

val decode_message : string -> (Dmx_core.Messages.t, string) result
(** Inverse of {!encode_message}; total, like {!decode}. *)

(** {2 Stream framing} *)

val framed : frame -> string
(** The bytes a stream transport writes for one frame: the 4-byte
    big-endian length prefix, then {!encode}'s payload. *)

(** Splits a byte stream back into frames: one per inbound connection,
    fed by non-blocking reads. It never buffers more than {!capacity}
    bytes: one maximal frame plus its length prefix. *)
module Splitter : sig
  type t

  val capacity : int  (** [4 + max_frame] *)

  val create : unit -> t

  val buffered : t -> int
  (** Bytes received but not yet returned as a frame. *)

  val fill : t -> (Bytes.t -> int -> int -> int) -> int
  (** [fill t read] calls [read buf off len] once, with [len > 0] and
      [buffered t + len <= capacity], and returns what [read] returned:
      the bytes it stored at [buf.[off]], [0] meaning end of stream (as
      [Unix.read] does). Call {!next} until [None] first: a buffer
      holding a complete maximal frame has no room left. *)

  val next : t -> (frame * int, string) result option
  (** The next complete frame and the bytes it took on the wire (length
      prefix included); [None] while it is incomplete. [Error] on a
      length prefix above {!max_frame} or a payload {!decode} rejects:
      the stream is corrupt from there on, and its connection should be
      dropped. *)
end
