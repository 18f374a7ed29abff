(** Minimal JSON reader for the repository's own JSON documents: the
    [dmx-metrics/1] export (read by [Metrics_json]) and the benchmark's
    result files.

    The repository deliberately has no JSON dependency; the writers
    emit JSON by hand and this module reads it back totally: every
    parse either returns a value or a positioned error — truncated
    input, trailing garbage, malformed literals and bad escapes are all
    rejected, never raised through. Numbers are kept as floats (no
    document read here has a value outside the float-exact range). *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** field order preserved; duplicates kept *)

val parse : string -> (t, string) result
(** Whole-input parse: leading/trailing whitespace allowed, anything else
    after the top-level value is an error. Error messages carry the byte
    offset, e.g. ["offset 132: unterminated string"]. *)

val pp : Format.formatter -> t -> unit
(** Debug printer (compact JSON). *)
