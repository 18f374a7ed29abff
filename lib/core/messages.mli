(** Control messages of the delay-optimal algorithm (paper Section 3.1).

    The seven paper message types map onto six constructors: an [inquire]
    is always piggybacked with a [transfer] (Section 3.2), so the pair
    travels as one [Transfer] with the [inquire] flag and is counted as one
    message, as in the paper's analysis. [Reply], [Release] and [Yield]
    additionally carry the request timestamp they concern — see DESIGN.md
    §3.8 for why the proxy-forwarding optimization makes that necessary. *)

type t =
  | Request of Dmx_sim.Timestamp.t
      (** request(sn, i): asking for the receiver's permission *)
  | Reply of {
      arbiter : int;
      for_req : Dmx_sim.Timestamp.t;
      next : Dmx_sim.Timestamp.t option;
    }
      (** grants [arbiter]'s permission to the request [for_req]; sent by
          the arbiter itself or forwarded by an exiting CS holder on its
          behalf. [next], when present, is a piggybacked transfer. *)
  | Release of {
      of_req : Dmx_sim.Timestamp.t;
      forwarded_to : Dmx_sim.Timestamp.t option;
    }
      (** release(i, x): the sender exited the CS held for [of_req];
          [Some x] means it already forwarded this arbiter's permission to
          [x]'s site, [None] is the paper's release(i, max) *)
  | Transfer of { target : Dmx_sim.Timestamp.t; inquire : bool }
      (** transfer(target, j) to the current holder: forward the permission
          to [target] on exit; [inquire] piggybacks the preemption probe *)
  | Fail  (** the sending arbiter serves a higher-priority request *)
  | Yield of { of_req : Dmx_sim.Timestamp.t }
      (** the sender returns the receiving arbiter's permission, which it
          held for its request [of_req] *)
  | Failure_note of int
      (** failure(i) broadcast of Section 6 (fault-tolerant variant only) *)
  | Hello
      (** reliability-layer stream announcement: no protocol content, but
          the [Data] envelope around it spreads the sender's incarnation
          number, giving every peer restart evidence after a rejoin *)
  | Data of {
      inc : float;
      dst_inc : float;
      seq : int;
      base : int;
      retx : bool;
      payload : t;
    }
      (** reliability envelope (see {!Reliable}): [payload] is message
          number [seq] of the sender's incarnation [inc]; [dst_inc] is the
          sender's last known incarnation of the destination
          ([neg_infinity] before first contact), letting a restarted
          receiver discard mail addressed to its dead predecessor; [base]
          is the sender's oldest unacknowledged sequence number; [retx]
          marks a retransmission *)
  | Ack of { of_inc : float; upto : int }
      (** cumulative acknowledgement of every [Data] with [seq <= upto] in
          incarnation [of_inc] *)

val kind : t -> string
(** Coarse message class for per-kind accounting; piggybacked combinations
    count once ("inquire+transfer", "reply+transfer"). A first-transmission
    [Data] envelope counts as its payload's kind; retransmissions count as
    "retx" and acknowledgements as "ack". *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append the message's printed form, e.g. [seq#3:reply(2)@(5,1)+transfer(6,4)]
    or [release((5,1),max)]; timestamps print as [(sn,site)] and
    {!Dmx_sim.Timestamp.infinity} as [(max,max)]. *)

val pp : Format.formatter -> t -> unit
(** Prints what {!add_to_buffer} appends. It is the protocols'
    [pp_message], and so the text of every traced [Send]/[Receive]. *)
