(** UDP datagram transport: a {!Transport_sig.S} implementation where
    loss, duplication and reordering are real.

    Framing is trivial by design: {e one datagram carries exactly one}
    {!Wire.frame} payload (version byte first, no length prefix — the
    datagram boundary is the frame boundary). Sends go out on per-peer
    {e connected} datagram sockets opened lazily; the receive socket gets a
    large [SO_RCVBUF]. There is no thread:
    when no frame is queued, {!poll} drains the non-blocking receive
    socket, decodes each datagram in isolation (an undecodable one is
    counted and dropped, never fatal), and feeds the shared frame queue.
    A frame whose encoding exceeds
    {!max_datagram} is refused at send time and counted in
    [stats.oversize_dropped] — senders must chunk (the service daemon
    chunks its trace batches for exactly this reason).

    Delivery failure is silent loss, as on a real network: recovering is
    the business of {!Dmx_core.Reliable}, and the owner's failure
    detector (see {!Transport_sig}) is what notices a peer that went
    quiet. *)

val max_datagram : int
(** Largest payload accepted for one send: 65507, the UDP/IPv4 maximum. *)

include Transport_sig.S
