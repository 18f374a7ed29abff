(* Minimal HTTP scrape endpoint for metrics registries.

   One listener thread accepts loopback connections and serves each on a
   short-lived thread: read the request line, take a fresh registry
   snapshot, write the rendering, close. No keep-alive, no chunking, no
   header parsing beyond draining them — the clients are `curl`,
   Prometheus, and `dmx-sim top`, all of which speak HTTP/1.0 happily.
   Rendering is [Dmx_obs.Export], so what a scrape returns is byte-for-
   byte what the exporter golden tests pin. *)

type t = {
  fd : Unix.file_descr;
  port : int;
  stop : bool Atomic.t;
  mutable thread : Thread.t option;
}

let read_timeout = 1.0

let read_request fd =
  (* request line, then drain headers until the blank line; bounded in
     bytes, and each read in time by [read_timeout], so a hostile client
     cannot hold the handler forever *)
  let buf = Buffer.create 256 in
  let b = Bytes.create 1 in
  let rec line limit =
    if limit = 0 then ()
    else
      match Unix.read fd b 0 1 with
      | 0 -> ()
      | _ ->
        let c = Bytes.get b 0 in
        if c = '\n' then ()
        else begin
          if c <> '\r' then Buffer.add_char buf c;
          line (limit - 1)
        end
  in
  line 2048;
  let request = Buffer.contents buf in
  let rec drain guard =
    if guard = 0 then ()
    else begin
      Buffer.clear buf;
      line 2048;
      if Buffer.length buf > 0 then drain (guard - 1)
    end
  in
  drain 64;
  request

let write_all fd s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring fd s !pos (n - !pos)
  done

let respond fd ~status ~content_type body =
  write_all fd
    (Printf.sprintf
       "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
        close\r\n\r\n%s"
       status content_type (String.length body) body)

let serve_one snapshot fd =
  (try
     (* a silent client's read fails with EAGAIN after the timeout, which
        ends this handler like any other read error *)
     Unix.setsockopt_float fd SO_RCVTIMEO read_timeout;
     let request = read_request fd in
     match String.split_on_char ' ' request with
     | [ "GET"; "/metrics"; _ ] | [ "GET"; "/metrics" ] ->
       respond fd ~status:"200 OK" ~content_type:"text/plain; version=0.0.4"
         (Dmx_obs.Export.prometheus (snapshot ()))
     | [ "GET"; "/metrics.json"; _ ] | [ "GET"; "/metrics.json" ] ->
       respond fd ~status:"200 OK" ~content_type:"application/json"
         (Dmx_obs.Export.json (snapshot ()))
     | _ -> respond fd ~status:"404 Not Found" ~content_type:"text/plain" "not found\n"
   with _ -> ());
  try Unix.close fd with _ -> ()

let acceptor t snapshot =
  while not (Atomic.get t.stop) do
    match Unix.select [ t.fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.fd with
      | fd, _ -> ignore (Thread.create (fun () -> serve_one snapshot fd) ())
      | exception _ -> if not (Atomic.get t.stop) then Unix.sleepf 0.01)
    | exception _ -> if not (Atomic.get t.stop) then Unix.sleepf 0.01
  done

let start ~port snapshot =
  (* a client that hangs up before its response is written must cost an
     EPIPE on that connection, not the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  (try
     Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd 16
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  let port =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t = { fd; port; stop = Atomic.make false; thread = None } in
  t.thread <- Some (Thread.create (fun () -> acceptor t snapshot) ());
  t

let port t = t.port

let stop t =
  if not (Atomic.exchange t.stop true) then begin
    (try Unix.close t.fd with _ -> ());
    match t.thread with
    | Some th -> ( try Thread.join th with _ -> ())
    | None -> ()
  end

(* ---- client side, for `dmx-sim top`, tests, and CI probes ---- *)

let find_header_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go 0

let http_get ?(host = "127.0.0.1") ~port path =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      try
        Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string host, port));
        write_all fd
          (Printf.sprintf "GET %s HTTP/1.0\r\nHost: %s\r\n\r\n" path host);
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec slurp () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            slurp ()
        in
        slurp ();
        let raw = Buffer.contents buf in
        (* split status line + headers from the body *)
        match (String.index_opt raw ' ', find_header_end raw) with
        | Some sp, Some body_at ->
          let code =
            try
              int_of_string
                (String.sub raw (sp + 1)
                   (min 3 (String.length raw - sp - 1)))
            with _ -> 0
          in
          Ok (code, String.sub raw body_at (String.length raw - body_at))
        | _ -> Error "malformed HTTP response"
      with
      | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | e -> Error (Printexc.to_string e))
