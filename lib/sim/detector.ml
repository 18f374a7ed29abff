type config = { period : float; timeout : float }

let default = { period = 2.0; timeout = 10.0 }

let validate c =
  if not (c.period > 0.0) then
    invalid_arg "Detector: heartbeat period must be positive";
  if not (c.timeout > c.period) then
    invalid_arg "Detector: timeout must exceed the heartbeat period"

let pp_config ppf c =
  Format.fprintf ppf "heartbeat(period=%g,timeout=%g)" c.period c.timeout

type t = {
  cfg : config;
  self : int;
  n : int;
  last_heard : float array;
  suspected : bool array;
}

let create cfg ~n ~self ~now =
  validate cfg;
  { cfg; self; n; last_heard = Array.make n now; suspected = Array.make n false }

(* [src] may come off the network, where a frame can name any site *)
let heartbeat t ~src ~now =
  if src < 0 || src >= t.n then false
  else begin
    t.last_heard.(src) <- now;
    if t.suspected.(src) then begin
      t.suspected.(src) <- false;
      true
    end
    else false
  end

let sweep t ~now =
  let newly = ref [] in
  for src = t.n - 1 downto 0 do
    if
      src <> t.self
      && (not t.suspected.(src))
      && now -. t.last_heard.(src) > t.cfg.timeout
    then begin
      t.suspected.(src) <- true;
      newly := src :: !newly
    end
  done;
  !newly

let reset t ~now =
  Array.fill t.last_heard 0 t.n now;
  Array.fill t.suspected 0 t.n false

let suspected t src = t.suspected.(src)

let suspects t =
  let rec loop i acc =
    if i < 0 then acc
    else loop (i - 1) (if t.suspected.(i) then i :: acc else acc)
  in
  loop (t.n - 1) []
