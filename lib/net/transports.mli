(** Transport registry: name → packed {!Transport_sig.handle}. The service
    daemon and its driver select their transport here, which is
    what keeps them implementation-agnostic. *)

val names : string list
(** Recognised names: ["tcp"], ["udp"]. *)

val create : string -> Transport_sig.config -> (Transport_sig.handle, string) result
(** [Error] on an unknown name.
    @raise Unix.Unix_error if the transport's port cannot be bound. *)

val create_exn : string -> Transport_sig.config -> Transport_sig.handle
(** @raise Invalid_argument on an unknown name. *)
