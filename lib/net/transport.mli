(** TCP stream transport: the default {!Transport_sig.S} implementation.

    One transport instance serves one participant (a node or the cluster
    supervisor). It listens for inbound connections (with [SO_REUSEADDR],
    so a restarted node can rebind its old port at once) and keeps one
    {e outbound} connection to every configured peer: dialled at
    {!create}, and redialled after any failure once a backoff has passed
    (0.05 s, doubling to 1 s).

    Connections are {e unidirectional}: the dialler writes, the acceptor
    reads. Every outbound connection opens with a {!Wire.frame.Hello}
    identifying the sender; frames sent while a peer is unreachable are
    buffered (bounded, oldest dropped first) and flushed in order on
    reconnect, so a node that comes up a beat late still receives the
    protocol traffic addressed to it. Loss beyond the buffer bound is the
    business of the retry/ack layer ({!Dmx_core.Reliable}).

    There is no thread and no lock. {!poll} makes one zero-timeout
    [select] over every socket, accepts, reads into each connection's
    {!Wire.Splitter}, completes non-blocking connects, notices an
    outbound connection its peer closed, and starts the redials that are
    due. While a peer is connected, {!send} is lossless: it hands the
    whole frame to the kernel, and while the socket is full it waits in
    [select], reading every inbound connection meanwhile, so two owners
    writing to each other cannot block each other. A frame above
    {!Wire.max_frame} is refused and counted in [oversize_dropped].
    {!close} gives connects still in flight up to 1 s to deliver the
    frames queued behind them; frames queued for an unreachable peer are
    dropped. *)

include Transport_sig.S
