module Time = Simnet.Time
module Engine = Simnet.Engine
module Fault = Simnet.Fault

type stats = {
  messages : int;
  bytes_to_server : int;
  bytes_from_server : int;
  network_time : Simnet.Time.t;
  timeouts : int;
  crashes : int;
  reconnects : int;
}

let default_rto = Time.ns 200_000 (* 200 us: jumbo-frame LAN RTT plus slack *)

type t = {
  engine : Engine.t;
  client : Simnet.Hostprofile.t;
  server : Simnet.Hostprofile.t;
  link : Simnet.Link.t;
  dispatch : string -> string;
  fault : Fault.t option;
  rto : Time.t;
  on_crash : down_for:Time.t -> unit;
  mutable stats : stats;
  mutable transport : Oncrpc.Transport.t;
  (* request records written but not yet exchanged (and the wire bytes
     they came in) / reply bytes to serve *)
  rx : Oncrpc.Record.Reassembler.t;
  requests : string Queue.t;
  mutable request_len : int;
  inbox : Xdr.Slice_queue.t;
  mutable connected : bool;
  mutable dropped : bool;  (* after a reject *)
  mutable down_until : Time.t;  (* absolute virtual time; restart instant *)
  mutable obs : Obs.Recorder.t;
}

let set_obs t obs = t.obs <- obs

(* Wrap a virtual-time advance in a ["net"]-layer span. The advances are
   the only places this channel spends virtual time, so the layer total is
   exactly the modelled network time. *)
let net_span t name advance =
  let sp = Obs.Recorder.span_begin t.obs ~layer:"net" name in
  advance ();
  Obs.Recorder.span_end t.obs sp

(* The scheduled crash fires between records: the server process dies, so
   everything in flight — the rest of this request stream and any replies
   already produced — is lost, and the connection is gone until the
   restart instant. *)
exception Crashed

let drop_in_flight t =
  Oncrpc.Record.Reassembler.reset t.rx;
  Queue.clear t.requests;
  t.request_len <- 0;
  Xdr.Slice_queue.clear t.inbox

(* A rejected header or a request cut short leaves the stream out of
   record alignment, so the server drops the connection after it: the
   records before it are still served, then reads and writes raise
   [Closed] until the client reconnects. *)
let reject t e =
  t.dropped <- true;
  raise e

let crash t ~down_for =
  t.connected <- false;
  t.down_until <- Time.add (Engine.now t.engine) down_for;
  drop_in_flight t;
  t.stats <- { t.stats with crashes = t.stats.crashes + 1 };
  t.on_crash ~down_for;
  raise Crashed

let check_crash t =
  match t.fault with
  | None -> ()
  | Some f -> (
      match Fault.crash_due f with
      | None -> ()
      | Some down_for -> crash t ~down_for)

let decide t =
  match t.fault with
  | None -> Fault.Pass
  | Some f -> Fault.decide ~now:(Engine.now t.engine) f

(* One request/reply exchange over the simulated link: charge the request's
   one-way time, run every complete record through the fault plan and the
   server dispatch, run each reply record through the plan too, charge the
   reply's one-way time. Surviving reply records land in the inbox. *)
let exchange t =
  let request_len = t.request_len in
  t.request_len <- 0;
  (* request: client -> GPU node *)
  let request_time =
    Simnet.Netcost.one_way_time ~sender:t.client ~receiver:t.server
      ~link:t.link request_len
  in
  net_span t "net.request" (fun () -> Engine.advance t.engine request_time);
  (* Dispatch each request record and frame its reply straight into the
     (empty) inbox; a crash clears it. The server's CUDA work advances the
     shared clock via its clock hooks. *)
  let add wire = Xdr.Slice_queue.push t.inbox wire in
  let deliver_reply = function
    | "" -> () (* one-way call: no reply record *)
    | reply -> (
        let wire = Oncrpc.Record.wirev (Xdr.Iovec.of_string reply) in
        match decide t with
        | Fault.Drop | Fault.Corrupt -> () (* lost / discarded on receipt *)
        | Fault.Pass -> add wire
        | Fault.Duplicate ->
            add wire;
            add wire
        | Fault.Delay d ->
            net_span t "net.delay" (fun () -> Engine.advance t.engine d);
            add wire)
  in
  let dispatch_record record =
    match decide t with
    | Fault.Drop | Fault.Corrupt ->
        (* never reaches the server (corrupt: the receiver's integrity
           check throws it away) — the client's RTO covers the loss *)
        check_crash t
    | Fault.Pass ->
        check_crash t;
        deliver_reply (t.dispatch record)
    | Fault.Duplicate ->
        check_crash t;
        (* the server sees the same record twice; the duplicate-request
           cache (or stale-xid skipping on the client) absorbs it *)
        deliver_reply (t.dispatch record);
        deliver_reply (t.dispatch record)
    | Fault.Delay d ->
        check_crash t;
        net_span t "net.delay" (fun () -> Engine.advance t.engine d);
        deliver_reply (t.dispatch record)
  in
  while not (Queue.is_empty t.requests) do
    dispatch_record (Queue.take t.requests)
  done;
  (* reply: GPU node -> client *)
  let reply_len = Xdr.Slice_queue.length t.inbox in
  let reply_time =
    Simnet.Netcost.one_way_time ~sender:t.server ~receiver:t.client
      ~link:t.link reply_len
  in
  net_span t "net.reply" (fun () -> Engine.advance t.engine reply_time);
  let s = t.stats in
  t.stats <-
    {
      s with
      messages = s.messages + 1;
      bytes_to_server = s.bytes_to_server + request_len;
      bytes_from_server = s.bytes_from_server + reply_len;
      network_time = Time.add s.network_time (Time.add request_time reply_time);
    };
  (* a reply is wanted, so a partial request can never complete *)
  try Oncrpc.Record.Reassembler.finish t.rx
  with Oncrpc.Record.Truncated _ as e -> reject t e

let create ~engine ~client ?(server = Config.server_profile)
    ?(link = Config.link) ?fault ?(rto = default_rto)
    ?(on_crash = fun ~down_for:_ -> ()) ~dispatch () =
  let t =
    {
      engine;
      client;
      server;
      link;
      dispatch;
      fault;
      rto;
      on_crash;
      stats =
        { messages = 0; bytes_to_server = 0; bytes_from_server = 0;
          network_time = Time.zero; timeouts = 0; crashes = 0;
          reconnects = 0 };
      transport =
        Oncrpc.Transport.make
          ~send:(fun _ _ _ -> ())
          ~recv:(fun _ _ _ -> 0)
          ~close:(fun () -> ())
          ();
      rx = Oncrpc.Record.Reassembler.create ();
      requests = Queue.create ();
      request_len = 0;
      inbox = Xdr.Slice_queue.create ();
      connected = true;
      dropped = false;
      down_until = Time.zero;
      obs = Obs.Recorder.null;
    }
  in
  (* Requests are reassembled as they are written, straight from the
     caller's payload views: the link's staging of the request stream. *)
  let enqueue r = Queue.push r t.requests in
  let sendv iov =
    if t.dropped || not t.connected then raise Oncrpc.Transport.Closed;
    (try Oncrpc.Record.Reassembler.pushv t.rx iov enqueue
     with Oncrpc.Record.Oversized _ as e -> reject t e);
    t.request_len <- t.request_len + Xdr.Iovec.length iov
  in
  let rec recv buf off len =
    if not t.connected then raise Oncrpc.Transport.Closed;
    if Xdr.Slice_queue.length t.inbox > 0 then
      Xdr.Slice_queue.pop t.inbox buf off len
    else if t.request_len > 0 || not (Queue.is_empty t.requests) then begin
      (match exchange t with
      | () -> ()
      | exception Crashed -> raise Oncrpc.Transport.Closed);
      recv buf off len
    end
    else if t.dropped then raise Oncrpc.Transport.Closed
    else begin
      (* The client awaits a reply but nothing is in flight any more: the
         record (or its reply) was dropped. Model the retransmission
         timeout — the virtual time a real client would wait before
         concluding loss — and report it. *)
      net_span t "net.rto" (fun () -> Engine.advance t.engine t.rto);
      Obs.Recorder.incr t.obs "net.rto";
      t.stats <- { t.stats with timeouts = t.stats.timeouts + 1 };
      raise Oncrpc.Transport.Timeout
    end
  in
  t.transport <-
    Oncrpc.Transport.make ~sendv ~send:(Oncrpc.Transport.send_of_sendv sendv)
      ~recv ~close:(fun () -> ()) ();
  t

let transport t = t.transport

let reconnect t =
  if Time.compare (Engine.now t.engine) t.down_until < 0 then
    (* the server is still restarting; the caller backs off and retries *)
    raise Oncrpc.Transport.Closed;
  t.connected <- true;
  t.dropped <- false;
  drop_in_flight t;
  t.stats <- { t.stats with reconnects = t.stats.reconnects + 1 };
  t.transport

let stats t = t.stats
let fault_stats t = Option.map Fault.stats t.fault
