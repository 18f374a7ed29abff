(** Control messages of the delay-optimal algorithm (paper Section 3.1).

    The seven message types of the paper map onto six constructors because
    an [inquire] is always piggybacked with a [transfer] (Section 3.2), so
    the pair travels as one [Transfer] with the [inquire] flag — and is
    counted as one message, as in the paper's analysis. A [Reply] may carry
    a piggybacked transfer ([next]) when an arbiter grants and immediately
    names the following waiter (step A.4 and the release path). *)

module Ts = Dmx_sim.Timestamp

type t =
  | Request of Ts.t  (** request(sn, i): asking for the receiver's permission *)
  | Reply of { arbiter : int; for_req : Ts.t; next : Ts.t option }
      (** grants [arbiter]'s permission to the request [for_req]; sent by
          the arbiter itself or forwarded by an exiting CS holder on the
          arbiter's behalf. [next], when present, is a piggybacked
          transfer: the receiver must forward [arbiter]'s permission to
          [next] when it exits the CS. *)
  | Release of { of_req : Ts.t; forwarded_to : Ts.t option }
      (** release(i, x): the sender exited the CS executed for its request
          [of_req]. [Some x] means the sender already forwarded this
          arbiter's permission to the site of [x]; [None] is the paper's
          [release(i, max)]. [of_req] lets the arbiter pair the release
          with the right lock tenure: because permissions travel through
          proxies, a forwardee's release can overtake the forwarder's on a
          different channel (the FIFO guarantee is only per channel). *)
  | Transfer of { target : Ts.t; inquire : bool }
      (** transfer(target, j) from arbiter j to its current permission
          holder: forward a reply to [target] upon exiting the CS. When
          [inquire] is set, the arbiter simultaneously asks whether the
          holder can still win (inquire(j), piggybacked). *)
  | Fail  (** the sending arbiter serves a higher-priority request *)
  | Yield of { of_req : Ts.t }
      (** the sender gives the (receiving) arbiter's permission, granted to
          its request [of_req], back *)
  | Failure_note of int
      (** failure(i) broadcast of Section 6: the given site has crashed.
          Only used by the fault-tolerant variant. *)
  | Hello
      (** stream announcement of the reliability layer: carries no protocol
          content, but travels in a [Data] envelope so its incarnation
          number reaches every peer — a (re)joining site broadcasts it so
          arbiters outside its new quorum still learn of the restart *)
  | Data of {
      inc : float;
      dst_inc : float;
      seq : int;
      base : int;
      retx : bool;
      payload : t;
    }
      (** reliability envelope (Reliable layer): [payload] is the [seq]-th
          message of the sender's incarnation [inc]; [dst_inc] is the
          sender's last known incarnation of the destination
          ([neg_infinity] before first contact) — a restarted receiver uses
          it to discard mail addressed to its dead predecessor; [base] is
          the sender's oldest unacknowledged sequence number, letting a
          fresh receiver join the stream mid-flight; [retx] marks a
          retransmission. *)
  | Ack of { of_inc : float; upto : int }
      (** cumulative acknowledgement: every [Data] of incarnation [of_inc]
          with sequence number <= [upto] arrived *)

let rec kind = function
  | Request _ -> "request"
  | Reply { next = None; _ } -> "reply"
  | Reply { next = Some _; _ } -> "reply+transfer"
  | Release _ -> "release"
  | Transfer { inquire = false; _ } -> "transfer"
  | Transfer { inquire = true; _ } -> "inquire+transfer"
  | Fail -> "fail"
  | Yield _ -> "yield"
  | Failure_note _ -> "failure"
  | Hello -> "hello"
  (* First transmissions are accounted as their payload (the envelope is
     bookkeeping, not an extra message of the paper's analysis); re-sends
     and acks are the reliability layer's own overhead. *)
  | Data { retx = false; payload; _ } -> kind payload
  | Data { retx = true; _ } -> "retx"
  | Ack _ -> "ack"

(* The renderer behind [pp], and so behind every traced message: straight
   into a buffer, without [Format]'s interpretation. Trace fingerprints
   depend on its exact bytes; the trace pins in test_golden.ml and the
   reference-printer property in test_wire.ml hold them fixed. *)
let add_int b i = Buffer.add_string b (Int.to_string i)

let add_ts b (ts : Ts.t) =
  if Ts.is_infinity ts then Buffer.add_string b "(max,max)"
  else begin
    Buffer.add_char b '(';
    add_int b ts.sn;
    Buffer.add_char b ',';
    add_int b ts.site;
    Buffer.add_char b ')'
  end

let rec add_to_buffer b = function
  | Request ts ->
    Buffer.add_string b "request";
    add_ts b ts
  | Reply { arbiter; for_req; next } ->
    Buffer.add_string b "reply(";
    add_int b arbiter;
    Buffer.add_string b ")@";
    add_ts b for_req;
    Option.iter
      (fun p ->
        Buffer.add_string b "+transfer";
        add_ts b p)
      next
  | Release { of_req; forwarded_to } ->
    Buffer.add_string b "release(";
    add_ts b of_req;
    (match forwarded_to with
    | None -> Buffer.add_string b ",max"
    | Some x ->
      Buffer.add_string b ",->";
      add_ts b x);
    Buffer.add_char b ')'
  | Transfer { target; inquire } ->
    Buffer.add_string b (if inquire then "inquire+transfer" else "transfer");
    add_ts b target
  | Fail -> Buffer.add_string b "fail"
  | Yield { of_req } ->
    Buffer.add_string b "yield(";
    add_ts b of_req;
    Buffer.add_char b ')'
  | Failure_note i ->
    Buffer.add_string b "failure(";
    add_int b i;
    Buffer.add_char b ')'
  | Hello -> Buffer.add_string b "hello"
  | Data { seq; retx; payload; _ } ->
    Buffer.add_string b (if retx then "retx#" else "seq#");
    add_int b seq;
    Buffer.add_char b ':';
    add_to_buffer b payload
  | Ack { upto; _ } ->
    Buffer.add_string b "ack<=";
    add_int b upto

let pp ppf m =
  let b = Buffer.create 32 in
  add_to_buffer b m;
  Format.pp_print_string ppf (Buffer.contents b)
