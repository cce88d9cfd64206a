(* Host-time tracing from outside the libraries.

   The traced run wraps the functions the benchmark hands to each layer
   (transports, dispatch functions, work closures) in spans. Spans go
   into a benchmark-owned [Obs.Recorder] whose clock is the host
   monotonic clock, and each span also carries the words allocated while
   it was open. A layer's self time (and self allocation) is its span's
   total minus what its child spans cover.

   The tracer's own bookkeeping is measured on entry and exit and
   subtracted from both clocks, so it is charged to no layer; what is
   left of it shows up only in the traced run's overhead against the
   untraced run. One tracer belongs to one domain. *)

type stat = {
  mutable count : int;
  mutable self_ns : int;
  mutable self_words : float;
  mutable bytes : int;
}

type frame = {
  key : string;
  start : int64;
  words0 : float;
  nbytes : int;
  span : Obs.Recorder.span;
  mutable child_ns : int;
  mutable child_words : float;
}

type t = {
  recorder : Obs.Recorder.t;
  mutable on : bool;  (* off while a traced stack warms up *)
  mutable cur : int64;  (* the recorder's clock: set before each stamp *)
  mutable ovh_ns : int64;
  mutable ovh_words : float;
  mutable stack : frame list;
  mutable seq : int;
  stats : (string, stat) Hashtbl.t;
}

let create () =
  let t =
    {
      recorder = Obs.Recorder.create ~max_spans:2_000_000 ();
      on = true;
      cur = 0L;
      ovh_ns = 0L;
      ovh_words = 0.0;
      stack = [];
      seq = 0;
      stats = Hashtbl.create 64;
    }
  in
  Obs.Recorder.set_clock t.recorder (fun () -> t.cur);
  Obs.Recorder.set_enabled t.recorder true;
  t

let stat t key =
  match Hashtbl.find_opt t.stats key with
  | Some s -> s
  | None ->
      let s = { count = 0; self_ns = 0; self_words = 0.0; bytes = 0 } in
      Hashtbl.replace t.stats key s;
      s

(* Adjusted readings: raw host clock and allocation minus the tracer's
   own accumulated cost. Everything the tracer computes (span key and
   label included) happens between the two readings, so wrappers that
   call [enter]/[leave] directly charge nothing to the layers. [sub]
   prefixes the key when non-empty; [proc] >= 0 names the span by RPC
   procedure. *)
let enter t ~root ~layer ~key ~sub ~name ~proc ~bytes =
  if t.on then begin
    let c_in = Util.now_ns () and w_in = Util.alloc_words () in
    let start = Int64.sub c_in t.ovh_ns and words0 = w_in -. t.ovh_words in
    if root then t.seq <- t.seq + 1;
    let key = if sub = "" then layer ^ "." ^ key else layer ^ "." ^ sub ^ "." ^ key in
    let name = if proc >= 0 then Cricket.Server.proc_name proc else name in
    (* Spans of one operation share its sequence number. *)
    let label = name ^ "#" ^ string_of_int t.seq in
    t.cur <- start;
    let span = Obs.Recorder.span_begin t.recorder ~layer:key label in
    t.stack <- { key; start; words0; nbytes = bytes; span; child_ns = 0; child_words = 0.0 } :: t.stack;
    t.ovh_ns <- Int64.add t.ovh_ns (Int64.sub (Util.now_ns ()) c_in);
    t.ovh_words <- t.ovh_words +. (Util.alloc_words () -. w_in)
  end

let leave t ~bytes =
  if t.on then begin
    let c_in = Util.now_ns () and w_in = Util.alloc_words () in
    let stop = Int64.sub c_in t.ovh_ns and words1 = w_in -. t.ovh_words in
    (match t.stack with
    | [] -> invalid_arg "Tracer.leave"
    | f :: rest ->
        t.stack <- rest;
        t.cur <- stop;
        Obs.Recorder.span_end t.recorder f.span;
        let dur = Int64.to_int (Int64.sub stop f.start) in
        let words = words1 -. f.words0 in
        let s = stat t f.key in
        s.count <- s.count + 1;
        s.self_ns <- s.self_ns + dur - f.child_ns;
        s.self_words <- s.self_words +. words -. f.child_words;
        s.bytes <- s.bytes + f.nbytes + bytes;
        (match rest with
        | p :: _ ->
            p.child_ns <- p.child_ns + dur;
            p.child_words <- p.child_words +. words
        | [] -> ()));
    t.ovh_ns <- Int64.add t.ovh_ns (Int64.sub (Util.now_ns ()) c_in);
    t.ovh_words <- t.ovh_words +. (Util.alloc_words () -. w_in)
  end

(* [span t ~layer ~key name f] runs [f] inside a span. *)
let span ?(root = false) t ~layer ~key name f =
  enter t ~root ~layer ~key ~sub:"" ~name ~proc:(-1) ~bytes:0;
  match f () with
  | v ->
      leave t ~bytes:0;
      v
  | exception e ->
      leave t ~bytes:0;
      raise e

(* Client calls as root spans of the [client] layer, one per call. *)
let client_wrap t = { Util.wrap = (fun name f -> span ~root:true t ~layer:"client" ~key:name name f) }

(* Export once, parse the export back and validate span nesting. *)
let export_and_check t =
  if t.stack <> [] then Error "open spans at export"
  else if Obs.Recorder.dropped_spans t.recorder > 0 then Error "spans dropped"
  else
    let json = Obs.Trace_export.to_json t.recorder in
    let spans =
      List.filter_map
        (function Obs.Trace_export.Span s -> Some s | Obs.Trace_export.Counter _ -> None)
        (Obs.Trace_export.events_of_json json)
    in
    if List.length spans <> Obs.Recorder.span_count t.recorder then
      Error "export lost spans"
    else
      match Obs.Trace_export.check_nesting spans with
      | Ok () -> Ok (List.length spans, String.length json)
      | Error e -> Error e

(* {1 Wrappers for the functions handed to the layers} *)

(* Classify a request record by the procedure number in its RFC 5531
   call header (xid, mtype, rpcvers, prog, vers, proc). *)
let proc_of_request r =
  if String.length r >= 24 then Int32.to_int (String.get_int32_be r 20) else -1

let proc_class proc =
  if proc = 12 || proc = 13 then "memcpy"
  else if proc = 34 || proc = 35 then "launch"
  else if proc = 42 then "sgemm"
  else if proc >= 40 && proc <= 46 then "cublas"
  else if proc = 53 || proc = 54 then "cusolver"
  else "small"

(* Dispatch functions: the server layer, keyed by procedure class and,
   for per-application kernel costs, by the running [app]. *)
let dispatch ?(app = ref "") t ~layer f request =
  let proc = proc_of_request request in
  enter t ~root:false ~layer ~key:(proc_class proc) ~sub:!app ~name:"" ~proc
    ~bytes:(String.length request);
  match f request with
  | reply ->
      leave t ~bytes:(String.length reply);
      reply
  | exception e ->
      leave t ~bytes:0;
      raise e

(* A transport whose [send]/[sendv]/[recv] run in [chan]-layer spans.
   Dispatch that a channel runs inside [recv] nests as a child span, so
   the transport's self time excludes it. *)
let transport t ~chan (tr : Oncrpc.Transport.t) =
  let send buf off len =
    enter t ~root:false ~layer:chan ~key:"send" ~sub:"" ~name:"send" ~proc:(-1) ~bytes:len;
    match tr.send buf off len with
    | () -> leave t ~bytes:0
    | exception e ->
        leave t ~bytes:0;
        raise e
  in
  let recv buf off len =
    enter t ~root:false ~layer:chan ~key:"recv" ~sub:"" ~name:"recv" ~proc:(-1) ~bytes:0;
    match tr.recv buf off len with
    | n ->
        leave t ~bytes:n;
        n
    | exception e ->
        leave t ~bytes:0;
        raise e
  in
  let sendv =
    Option.map
      (fun sv iov ->
        enter t ~root:false ~layer:chan ~key:"send" ~sub:"" ~name:"sendv" ~proc:(-1)
          ~bytes:(Xdr.Iovec.length iov);
        match sv iov with
        | () -> leave t ~bytes:0
        | exception e ->
            leave t ~bytes:0;
            raise e)
      tr.sendv
  in
  Oncrpc.Transport.make ?sendv ~send ~recv ~close:tr.close ()
