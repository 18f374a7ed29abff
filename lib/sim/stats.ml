module Summary = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float; (* Welford's online sum of squared deviations *)
    mutable min : float;
    mutable max : float;
    mutable samples : float array;
    mutable n_samples : int;
    mutable sorted : bool;
  }

  let create () =
    {
      count = 0;
      mean = 0.0;
      m2 = 0.0;
      min = infinity;
      max = neg_infinity;
      samples = [||];
      n_samples = 0;
      sorted = true;
    }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    if t.n_samples = Array.length t.samples then begin
      let cap = if t.n_samples = 0 then 64 else 2 * t.n_samples in
      let bigger = Array.make cap 0.0 in
      Array.blit t.samples 0 bigger 0 t.n_samples;
      t.samples <- bigger
    end;
    t.samples.(t.n_samples) <- x;
    t.n_samples <- t.n_samples + 1;
    t.sorted <- false

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.mean
  let total t = if t.count = 0 then 0.0 else t.mean *. float_of_int t.count

  let variance t =
    if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)

  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.samples 0 t.n_samples in
      Array.sort Float.compare live;
      Array.blit live 0 t.samples 0 t.n_samples;
      t.sorted <- true
    end

  (* Rank selection is shared with the lib/obs histogram readout
     (Dmx_obs.Quantile), so "p99" means the same thing whether it is read
     exactly here or at bucket resolution from a metrics snapshot. *)
  let percentile t p =
    if t.n_samples = 0 then 0.0
    else begin
      if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile";
      ensure_sorted t;
      Dmx_obs.Quantile.percentile_sorted t.samples t.n_samples p
    end

  let pp ppf t =
    if t.count = 0 then Format.fprintf ppf "n=0"
    else
      Format.fprintf ppf "n=%d mean=%.4f sd=%.4f min=%.4f p50=%.4f p99=%.4f max=%.4f"
        t.count (mean t) (stddev t) t.min (percentile t 50.0)
        (percentile t 99.0) t.max
end

module Counter = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  (* [find] with a handler, not [find_opt]: counting a known key, once
     per simulated message, allocates nothing. *)
  let incr ?(by = 1) t key =
    match Hashtbl.find t key with
    | r -> r := !r + by
    | exception Not_found -> Hashtbl.add t key (ref by)

  let get t key = match Hashtbl.find_opt t key with Some r -> !r | None -> 0
  let total t = Hashtbl.fold (fun _ r acc -> acc + !r) t 0

  let bindings t =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let pp ppf t =
    let pp_one ppf (k, v) = Format.fprintf ppf "%s=%d" k v in
    Format.fprintf ppf "@[<h>%a@]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") pp_one)
      (bindings t)
end
