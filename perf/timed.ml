(* Protocol and codec wrappers that time each call from outside the
   protocol: [Make (P)] is [P] with [on_message], [request_cs],
   [release_cs] and [on_timer] wrapped in spans. It keeps P's message,
   state and config types, so it drops into [Engine.Make] and
   [Sim_swarm.Run] unchanged, and it only calls through — the
   transparency tests in test/ check that a wrapped run reports exactly
   what the unwrapped one does.

   With spans off (the untraced runs) the only extra work is one branch
   per call, plus a timestamp per [release_cs] while [Span.stamping] is
   set: that is where the sim workloads read per-op wall latency. *)

module Make (P : Dmx_sim.Protocol.PROTOCOL) :
  Dmx_sim.Protocol.PROTOCOL
    with type config = P.config
     and type state = P.state
     and type message = P.message = struct
  include P

  let k_message = Span.id "protocol.on_message"
  let k_request = Span.id "protocol.request_cs"
  let k_release = Span.id "protocol.release_cs"
  let k_timer = Span.id "protocol.on_timer"

  let on_message ctx st ~src m =
    if !Span.on then Span.span k_message (fun () -> P.on_message ctx st ~src m)
    else P.on_message ctx st ~src m

  let request_cs ctx st =
    if !Span.on then Span.span k_request (fun () -> P.request_cs ctx st)
    else P.request_cs ctx st

  let release_cs ctx st =
    if !Span.on then Span.span k_release (fun () -> P.release_cs ctx st)
    else P.release_cs ctx st;
    Span.stamp ()

  let on_timer ctx st tag =
    if !Span.on then Span.span k_timer (fun () -> P.on_timer ctx st tag)
    else P.on_timer ctx st tag
end

(* The codec halves [Sim_swarm] takes, timed as [codec.encode] /
   [codec.decode] spans. *)

let k_encode = Span.id "codec.encode"
let k_decode = Span.id "codec.decode"

let encode f m = if !Span.on then Span.span k_encode (fun () -> f m) else f m
let decode f s = if !Span.on then Span.span k_decode (fun () -> f s) else f s
