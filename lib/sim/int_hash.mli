(** One cheap hash on integers, for the simulator's int-keyed tables.

    The polymorphic [Hashtbl] makes a [caml_hash] C call per lookup and a
    [compare] call per probe. Here a key is multiplied by the 64-bit
    golden-ratio constant (Fibonacci hashing), in OCaml. {!Network}'s FIFO
    watermark table indexes by the product's top bits; [Delay_optimal]'s
    site tables go through [Hashtbl.Make], which indexes by low bits, so
    {!hash} folds the high bits down first. Strided keys (a grid column,
    [src * n + dst] for one [src]) spread over the buckets either way. *)

val mix : int -> int
(** [x] times the golden-ratio constant: its high bits mix all of [x]'s
    bits, its low bits only [x]'s low bits. *)

val hash : int -> int
(** {!mix} with its high half xored into its low half; possibly negative,
    so a caller masks off the bits it indexes with. *)

module Tbl : Hashtbl.S with type key = int
(** [Hashtbl.Make] over {!hash}. *)
