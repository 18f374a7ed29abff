let violations ~n entries =
  let in_cs = Array.make n false in
  let open_ = ref 0 in
  let violations = ref 0 in
  List.iter
    (fun (e : Trace.entry) ->
      let site = e.Trace.site in
      match e.Trace.kind with
      | Trace.Enter_cs ->
        if !open_ > 0 then incr violations;
        incr open_;
        in_cs.(site) <- true
      | (Trace.Exit_cs | Trace.Crash) when in_cs.(site) ->
        decr open_;
        in_cs.(site) <- false
      | _ -> ())
    entries;
  !violations
