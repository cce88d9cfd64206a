(* The client -> channel -> server stack, assembled from public functions
   the way [Unikernel.Runner.run] / [run_tcp] assemble it, so the traced
   run can hand each layer a wrapped function instead. Without a tracer
   nothing is wrapped. *)

module Engine = Simnet.Engine
module Time = Simnet.Time

type chan = Local | Simchannel | Tcpchannel

let chan_name = function
  | Local -> "local"
  | Simchannel -> "simchannel"
  | Tcpchannel -> "tcpchannel"

type t = {
  chan : chan;
  engine : Engine.t;  (* virtual clock; unused by [Local] *)
  server : Cricket.Server.t;
  client : Cricket.Client.t;
  tcp : Unikernel.Tcpchannel.t option;
  cfg : Unikernel.Config.t;
}

let cfg = Unikernel.Config.hermit

(* Keep request/reply records for the record replay: the first record
   of each (procedure, size class), within a byte budget. *)
module Capture = struct
  type t = { mutable records : string list; mutable budget : int; seen : (int * int, unit) Hashtbl.t }

  let create budget = { records = []; budget; seen = Hashtbl.create 16 }

  let size_class n =
    let rec go c n = if n <= 1 then c else go (c + 1) (n lsr 1) in
    go 0 n

  let add t ~proc r =
    let key = (proc, size_class (String.length r)) in
    if String.length r <= t.budget && not (Hashtbl.mem t.seen key) then begin
      Hashtbl.replace t.seen key ();
      t.budget <- t.budget - String.length r;
      t.records <- r :: t.records
    end

  let wrap t f request =
    let proc = Tracer.proc_of_request request in
    add t ~proc request;
    let reply = f request in
    add t ~proc:(-proc) reply;
    reply
end

let server_dispatch ?tracer ?app ?capture server =
  let f = Cricket.Server.dispatch server in
  let f = match capture with None -> f | Some c -> Capture.wrap c f in
  match tracer with None -> f | Some t -> Tracer.dispatch ?app t ~layer:"server" f

let wrap_transport ?tracer chan tr =
  match tracer with None -> tr | Some t -> Tracer.transport t ~chan:(chan_name chan) tr

let create ?tracer ?app ?capture chan =
  let engine = Engine.create () in
  let server =
    Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  Cudasim.Context.set_functional (Cricket.Server.context server) true;
  let dispatch = server_dispatch ?tracer ?app ?capture server in
  let transport, tcp =
    match chan with
    | Local -> (Cricket.Local.transport_of_dispatch dispatch, None)
    | Simchannel ->
        let ch = Unikernel.Simchannel.create ~engine ~client:cfg.Unikernel.Config.profile ~dispatch () in
        (Unikernel.Simchannel.transport ch, None)
    | Tcpchannel ->
        (* process startup happens before the connection, as in run_tcp *)
        Engine.advance engine (Time.us 150);
        let ch = Unikernel.Tcpchannel.create ~engine ~client:cfg.Unikernel.Config.profile ~dispatch () in
        (Unikernel.Tcpchannel.transport ch, Some ch)
  in
  let client =
    match chan with
    | Local -> Cricket.Client.create ~transport:(wrap_transport ?tracer chan transport) ()
    | Simchannel | Tcpchannel ->
        Cricket.Client.create ~launch_extra_ns:cfg.Unikernel.Config.launch_extra_ns
          ~charge:(fun ns -> Engine.advance engine (Time.ns ns))
          ~transport:(wrap_transport ?tracer chan transport)
          ()
  in
  if chan = Simchannel then Engine.advance engine (Time.us 150);
  { chan; engine; server; client; tcp; cfg }

let runner_env s =
  { Unikernel.Runner.client = s.client; engine = s.engine; cfg = s.cfg; server = s.server }

let vnow s = Engine.now s.engine

(* Device bytes still allocated in the server's arena. *)
let device_used server =
  Gpusim.Memory.used_bytes (Gpusim.Gpu.memory (Cudasim.Context.gpu (Cricket.Server.context server)))
