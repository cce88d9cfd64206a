(* bulk-copy: the same seeded payload goes host-to-device and back over a
   1 -> 64 MiB ladder on three channels in turn: Cricket.Local loopback,
   Simchannel, and Tcpchannel (the executable TCP stack with the Hermit
   offloads). Closed loop, one client per channel. The byte path
   (multi-fragment records, transports, Gpusim.Memory blits, tcpstack)
   does nearly all the work. Every round trip is compared byte for byte. *)

module C = Cricket.Client

let chans = Stack.[ Local; Simchannel; Tcpchannel ]

(* Rung k is 2^k MiB plus a seeded 0..4095 bytes, so the seed reaches the
   sizes and the top rung is at least 64 MiB on every channel. *)
let ladder ~seed ~tiny =
  let st = Util.rng ~seed ~salt:11 in
  let top = if tiny then 0 else 6 in
  List.init (top + 1) (fun k ->
      let base = if tiny then 65536 else 1 lsl (20 + k) in
      base + Random.State.int st 4096)

type state = {
  stacks : (Stack.t * int64) list;  (* each channel's stack and device buffer *)
  payloads : bytes list;  (* one per rung *)
}

let setup ?tracer ?capture ~seed ~tiny () =
  let sizes = ladder ~seed ~tiny in
  let top = List.fold_left max 0 sizes in
  let master = Util.payload ~seed ~salt:12 top in
  let payloads = List.map (fun n -> Bytes.sub master 0 n) sizes in
  let stacks =
    List.map
      (fun chan ->
        let s = Stack.create ?tracer ?capture chan in
        let d = C.malloc s.Stack.client top in
        (* warm-up round trip *)
        let small = List.hd payloads in
        C.memcpy_h2d s.Stack.client ~dst:d small;
        ignore (C.memcpy_d2h s.Stack.client ~src:d ~len:(Bytes.length small));
        (s, d))
      chans
  in
  { stacks; payloads }

type pass = {
  mutable transfers : int;
  mutable failed : int;
  mutable h2d_bytes : int;
  mutable h2d_ns : int;  (* at reference speed, as [d2h_ns] *)
  mutable d2h_bytes : int;
  mutable d2h_ns : int;
  mutable calls : int;
  mutable wall_ns : int;  (* h2d + d2h as measured *)
  per_mib : Util.Samples.t;  (* ns per MiB of each transfer, at reference speed *)
}

let new_pass () =
  { transfers = 0; failed = 0; h2d_bytes = 0; h2d_ns = 0; d2h_bytes = 0; d2h_ns = 0; calls = 0; wall_ns = 0;
    per_mib = Util.Samples.create () }

(* Virtual time of the Tcpchannel leg, per direction. *)
type virt = { mutable vh2d_ns : int64; mutable vd2h_ns : int64; mutable vbytes : int }

let one_pass ?virt ?(wrap = Util.no_wrap) st acc =
  List.iter
    (fun ((s : Stack.t), d) ->
      let c0 = C.api_calls s.client in
      List.iter
        (fun p ->
          let n = Bytes.length p in
          let timed name f =
            (* Collect outside the timed window, so each transfer pays for
               its own garbage and the heap stays bounded. *)
            Gc.full_major ();
            let scale = Util.speed_scale () in
            let v0 = Stack.vnow s in
            let t0 = Util.now_ns () in
            let r = wrap.Util.wrap name f in
            let wall = Util.since_ns t0 in
            acc.wall_ns <- acc.wall_ns + wall;
            let ns = Util.scaled scale wall in
            Util.Samples.add acc.per_mib (int_of_float (float_of_int ns *. Util.mib /. float_of_int n));
            acc.transfers <- acc.transfers + 1;
            (r, ns, Int64.sub (Stack.vnow s) v0)
          in
          match
            let (), up, vup = timed "memcpy_h2d" (fun () -> C.memcpy_h2d s.client ~dst:d p) in
            acc.h2d_bytes <- acc.h2d_bytes + n;
            acc.h2d_ns <- acc.h2d_ns + up;
            let back, down, vdown = timed "memcpy_d2h" (fun () -> C.memcpy_d2h s.client ~src:d ~len:n) in
            acc.d2h_bytes <- acc.d2h_bytes + n;
            acc.d2h_ns <- acc.d2h_ns + down;
            (match (virt, s.chan) with
            | Some v, Stack.Tcpchannel ->
                v.vh2d_ns <- Int64.add v.vh2d_ns vup;
                v.vd2h_ns <- Int64.add v.vd2h_ns vdown;
                v.vbytes <- v.vbytes + n
            | _ -> ());
            Bytes.equal back p
          with
          | true -> ()
          | false -> acc.failed <- acc.failed + 1
          | exception (Cudasim.Error.Cuda_error _ | Oncrpc.Client.Rpc_error _ | Failure _) ->
              acc.failed <- acc.failed + 1)
        st.payloads;
      acc.calls <- acc.calls + (C.api_calls s.client - c0))
    st.stacks

(* What a pass measured, with the set-up that preceded it. *)
type untraced = {
  setup_s : float;
  acc : pass;
  virt : virt;
  words : float;  (* allocated during the pass *)
  gc : (string * float) list;
  top : int;  (* top rung, bytes *)
}

(* The untraced pass, on stacks that are garbage once it returns. *)
let untraced (cfg : Util.cfg) =
  let st, setup_s =
    Util.repeat_setup (if cfg.tiny then 2 else 3) (fun () -> setup ~seed:cfg.seed ~tiny:cfg.tiny ())
  in
  let acc = new_pass () in
  let virt = { vh2d_ns = 0L; vd2h_ns = 0L; vbytes = 0 } in
  Gc.full_major ();
  let (), words, gc = Layers.gc_around ~ops:(fun () -> acc.transfers) (fun () -> one_pass ~virt st acc) in
  { setup_s; acc; virt; words; gc; top = List.fold_left max 0 (List.map Bytes.length st.payloads) }

let pass_seconds acc = float_of_int (acc.h2d_ns + acc.d2h_ns) /. 1e9

(* A second Local 64 MiB d2h in one process peaks at several GiB of heap
   (the first stays under 1 GiB), so the traced run takes its untraced
   baseline from a child process: [--baseline] prints one line. *)
let baseline (cfg : Util.cfg) =
  let u = untraced cfg in
  Printf.sprintf "baseline %.17g %.17g %s" (pass_seconds u.acc) u.words
    (String.concat " " (List.map (fun (_, v) -> Printf.sprintf "%.17g" v) u.gc))

let child_baseline (cfg : Util.cfg) =
  let args =
    [ Sys.executable_name; "--workload"; "bulk-copy"; "--seed"; string_of_int cfg.seed; "--baseline" ]
    @ if cfg.tiny then [ "--tiny" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "bulk-copy baseline process failed");
  let line = List.find (String.starts_with ~prefix:"baseline ") (String.split_on_char '\n' out) in
  Scanf.sscanf line "baseline %f %f %f %f %f" (fun secs words minor major allocb ->
      (secs, words, [ ("gc.minor_per_kop", minor); ("gc.major_per_kop", major); ("gc.alloc_b_per_op", allocb) ]))

let traced_layers (cfg : Util.cfg) =
  let secs, words, gc = child_baseline cfg in
  let tr = Tracer.create () in
  tr.Tracer.on <- false;
  let capture = Stack.Capture.create (128 * 1024 * 1024) in
  let t, setup_s = Util.repeat_setup 1 (fun () -> setup ~tracer:tr ~capture ~seed:cfg.seed ~tiny:cfg.tiny ()) in
  capture.Stack.Capture.records <- [];
  Hashtbl.reset capture.Stack.Capture.seen;
  let acc = new_pass () in
  let virt = { vh2d_ns = 0L; vd2h_ns = 0L; vbytes = 0 } in
  Gc.full_major ();
  tr.Tracer.on <- true;
  one_pass ~virt ~wrap:(Tracer.client_wrap tr) t acc;
  tr.Tracer.on <- false;
  let nesting = Tracer.export_and_check tr in
  let calls_of chan = if List.exists (fun ((s : Stack.t), _) -> s.chan = chan) t.stacks then 2 * List.length t.payloads else 0 in
  let tcp = Option.get (fst (List.find (fun ((s : Stack.t), _) -> s.chan = Stack.Tcpchannel) t.stacks)).Stack.tcp in
  let values =
    Layers.client [ tr ] ~root:"client" ~calls:acc.calls
    @ List.concat_map (fun c -> Layers.transport [ tr ] c ~calls:(calls_of c)) chans
    @ Layers.tcp_counters tcp
    @ Layers.record capture.Stack.Capture.records
    @ Layers.server [ tr ]
    @ Layers.memory (List.map Bytes.length t.payloads)
    @ gc
    @ Layers.overhead ~traced_s:(pass_seconds acc) ~untraced_s:secs [ tr ]
  in
  ( { setup_s; acc; virt; words; gc; top = List.fold_left max 0 (List.map Bytes.length t.payloads) },
    Layers.finish values,
    [ ("trace nesting", Result.is_ok nesting) ] )

(* The traced run reports the traced pass's own end-to-end numbers next to
   its per-layer metrics; the virtual figures are the same either way. *)
let measure (cfg : Util.cfg) =
  let u, layers, layer_checks = if cfg.trace then traced_layers cfg else (untraced cfg, [], []) in
  let acc = u.acc and virt = u.virt in
  let mib b = float_of_int b /. Util.mib in
  let vmib_s b ns = Util.div (mib b) (Int64.to_float ns /. 1e9) in
  (* One pass, one window; each transfer was scaled by its own
     calibration, so the window's scale is their ratio. *)
  let e2e, wall =
    Report.e2e ~tail:0.75 ~setup_s:u.setup_s ~op_ns:acc.per_mib
      ~windows:
        [
          { Report.ops = mib (acc.h2d_bytes + acc.d2h_bytes); seconds = float_of_int acc.wall_ns /. 1e9;
            scale = Util.fdiv (acc.h2d_ns + acc.d2h_ns) acc.wall_ns; calls = acc.calls; first = 0;
            count = acc.transfers };
        ]
  in
  {
    Report.workload = "bulk-copy";
    attempted = acc.transfers;
    failed = acc.failed;
    checks = [ ("every round trip byte-identical", acc.failed = 0) ] @ layer_checks;
    e2e;
    named =
      [
        Report.m "h2d_mib_s" "MiB/s" (Util.div (mib acc.h2d_bytes) (float_of_int acc.h2d_ns /. 1e9));
        Report.m "d2h_mib_s" "MiB/s" (Util.div (mib acc.d2h_bytes) (float_of_int acc.d2h_ns /. 1e9));
        Report.m "virt_h2d_mib_s" "MiB/s" (vmib_s virt.vbytes virt.vh2d_ns);
        Report.m "virt_d2h_mib_s" "MiB/s" (vmib_s virt.vbytes virt.vd2h_ns);
        Report.m "top_rung_mib" "MiB" (mib u.top);
      ]
      @ wall;
    layers;
    exact =
      [
        ("virt_h2d_mib_s", Printf.sprintf "%.6f" (vmib_s virt.vbytes virt.vh2d_ns));
        ("virt_d2h_mib_s", Printf.sprintf "%.6f" (vmib_s virt.vbytes virt.vd2h_ns));
        ("alloc_words_pass", Printf.sprintf "%.0f" u.words);
      ];
  }

(* A run measures exactly one ladder pass, about 10 s of transfers on a
   2-core host, whatever [--seconds] says: a second pass would repeat the
   multi-GiB Local d2h peak. [space_overhead] 40 keeps the first near
   1.6 GiB of heap. *)
let run cfg = Util.with_space_overhead 40 (fun () -> measure cfg)
let baseline cfg = Util.with_space_overhead 40 (fun () -> baseline cfg)
