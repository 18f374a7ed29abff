(** Independent critical-section overlap scan of a time-sorted trace.

    A cross-check of {!Oracle}'s mutual-exclusion invariant that shares
    none of its code: it only counts open tenures. Live runs report its
    figure as [violations] beside the oracle's verdict. *)

val violations : n:int -> Trace.entry list -> int
(** CS entries that found another tenure already open. A tenure opens
    at [Enter_cs] and closes at the site's [Exit_cs] or [Crash]; an
    [Exit_cs] or [Crash] without an open tenure at that site is ignored.
    Sites must lie in [[0, n)]. *)
