(* The per-layer metrics of a traced run. Every traced run reports all of
   them; a layer that the workload does not exercise reads 0. *)

let spec =
  [
    ("client.calls", "count");
    ("client.self_ns_per_call", "ns");
    ("client.alloc_b_per_call", "B");
    ("local.ns_per_call", "ns");
    ("local.ns_per_mib", "ns/MiB");
    ("local.alloc_b_per_b", "B/B");
    ("simchannel.ns_per_call", "ns");
    ("simchannel.ns_per_mib", "ns/MiB");
    ("simchannel.alloc_b_per_b", "B/B");
    ("tcpchannel.ns_per_call", "ns");
    ("tcpchannel.ns_per_mib", "ns/MiB");
    ("tcpchannel.alloc_b_per_b", "B/B");
    ("tcpchannel.segments", "count");
    ("tcpchannel.retransmits", "count");
    ("tcpchannel.staging_copies", "count");
    ("record.frame_ns_per_mib", "ns/MiB");
    ("record.split_ns_per_mib", "ns/MiB");
    ("server.calls", "count");
    ("server.small_ns", "ns");
    ("server.memcpy_ns_per_mib", "ns/MiB");
    ("server.launch_ns", "ns");
    ("server.alloc_b_per_call", "B");
    ("server.rpc_overhead_ns", "ns");
    ("cudasim.ns_per_call", "ns");
    ("memory.write_mib_s", "MiB/s");
    ("memory.read_mib_s", "MiB/s");
    ("memory.alloc_b_per_b", "B/B");
    ("kernels.ns_per_fma", "ns");
    ("kernels.alloc_b_per_fma", "B");
    ("kernels.histogram_ns_per_byte", "ns");
    ("kernels.solver_ns", "ns");
    ("tenancy.items", "count");
    ("tenancy.served_ratio", "ratio");
    ("tenancy.self_ns_per_item", "ns");
    ("tenancy.virt_wait_us_p50", "us");
    ("par.busy_ratio", "ratio");
    ("par.merge_ns", "ns");
    ("gc.minor_per_kop", "count");
    ("gc.major_per_kop", "count");
    ("gc.alloc_b_per_op", "B");
    ("trace.overhead_ratio", "ratio");
    ("trace.spans", "count");
  ]

let finish values =
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n spec) then invalid_arg ("unknown layer metric " ^ n))
    values;
  List.map
    (fun (name, unit) ->
      Report.m name unit (Option.value (List.assoc_opt name values) ~default:0.0))
    spec

(* Sum the statistics of every span key with [prefix], over tracers. *)
let sum ?(prefix = "") ?(pred = fun _ -> true) tracers =
  let acc = { Tracer.count = 0; self_ns = 0; self_words = 0.0; bytes = 0 } in
  List.iter
    (fun (t : Tracer.t) ->
      Hashtbl.iter
        (fun key (s : Tracer.stat) ->
          if String.starts_with ~prefix key && pred key then begin
            acc.count <- acc.count + s.count;
            acc.self_ns <- acc.self_ns + s.self_ns;
            acc.self_words <- acc.self_words +. s.self_words;
            acc.bytes <- acc.bytes + s.bytes
          end)
        t.Tracer.stats)
    tracers;
  acc

let bytes_of_words w = w *. Util.word_bytes
let per_mib ns bytes = Util.div (float_of_int ns) (float_of_int bytes /. Util.mib)

(* Client shim: the root per-call spans, minus everything below them. *)
let client tracers ~root ~calls =
  let s = sum ~prefix:(root ^ ".") tracers in
  [
    ("client.calls", float_of_int calls);
    ("client.self_ns_per_call", Util.fdiv s.self_ns calls);
    ("client.alloc_b_per_call", Util.div (bytes_of_words s.self_words) (float_of_int calls));
  ]

(* One channel's transport: wrapped send/recv minus the dispatch they
   run. [calls] is the number of RPCs that went over the channel. *)
let transport tracers chan ~calls =
  let c = Stack.chan_name chan in
  let s = sum ~prefix:(c ^ ".") tracers in
  [
    (c ^ ".ns_per_call", Util.fdiv s.self_ns calls);
    (c ^ ".ns_per_mib", per_mib s.self_ns s.bytes);
    (c ^ ".alloc_b_per_b", Util.div (bytes_of_words s.self_words) (float_of_int s.bytes));
  ]

let tcp_counters (ch : Unikernel.Tcpchannel.t) =
  let nd = Unikernel.Tcpchannel.netdev_stats ch in
  let c, sv = Unikernel.Tcpchannel.endpoint_stats ch in
  [
    ("tcpchannel.segments", float_of_int nd.Tcpstack.Netdev.wire_segments);
    ( "tcpchannel.retransmits",
      float_of_int (c.Tcpstack.Endpoint.retransmissions + sv.Tcpstack.Endpoint.retransmissions) );
    ("tcpchannel.staging_copies", float_of_int nd.Tcpstack.Netdev.staging_copies);
  ]

let ends_with suffix key = String.ends_with ~suffix key

(* Server dispatch, classified by procedure. [direct_ns] is the same
   small-call sequence sent straight to [Cudasim.Api], when measured. *)
let server ?direct_ns tracers =
  let all = sum ~prefix:"server." tracers in
  let small = sum ~prefix:"server." ~pred:(ends_with ".small") tracers in
  let memcpy = sum ~prefix:"server." ~pred:(ends_with ".memcpy") tracers in
  let launch = sum ~prefix:"server." ~pred:(ends_with ".launch") tracers in
  let small_ns = Util.fdiv small.self_ns small.count in
  [
    ("server.calls", float_of_int all.count);
    ("server.small_ns", small_ns);
    ("server.memcpy_ns_per_mib", per_mib memcpy.self_ns memcpy.bytes);
    ("server.launch_ns", Util.fdiv launch.self_ns launch.count);
    ("server.alloc_b_per_call", Util.div (bytes_of_words all.self_words) (float_of_int all.count));
  ]
  @
  match direct_ns with
  | None -> []
  | Some d -> [ ("server.rpc_overhead_ns", small_ns -. d); ("cudasim.ns_per_call", d) ]

(* Record marking, replayed on records captured during the traced run:
   framing with [Record.to_wire], splitting with [Record.read]. *)
let record records =
  let frame_ns = ref 0 and split_ns = ref 0 and bytes = ref 0 in
  List.iter
    (fun r ->
      let t0 = Util.now_ns () in
      let wire = Oncrpc.Record.to_wire r in
      frame_ns := !frame_ns + Util.since_ns t0;
      let pos = ref 0 in
      let tr =
        Oncrpc.Transport.make
          ~send:(fun _ _ _ -> ())
          ~recv:(fun buf off len ->
            let n = min len (String.length wire - !pos) in
            Bytes.blit_string wire !pos buf off n;
            pos := !pos + n;
            n)
          ~close:ignore ()
      in
      let t1 = Util.now_ns () in
      let back = Oncrpc.Record.read tr in
      split_ns := !split_ns + Util.since_ns t1;
      if not (String.equal back r) then failwith "record replay mismatch";
      bytes := !bytes + String.length r)
    records;
  [
    ("record.frame_ns_per_mib", per_mib !frame_ns !bytes);
    ("record.split_ns_per_mib", per_mib !split_ns !bytes);
  ]

(* Direct [Gpusim.Memory] blits at the given sizes. *)
let memory sizes =
  let cap = List.fold_left max 0 sizes in
  let mem = Gpusim.Memory.create ~capacity:(cap + 4096) in
  let p = Gpusim.Memory.alloc mem cap in
  let wns = ref 0 and rns = ref 0 and words = ref 0.0 and bytes = ref 0 in
  List.iter
    (fun n ->
      let data = Util.payload ~seed:n ~salt:7 n in
      let w0 = Util.alloc_words () in
      let t0 = Util.now_ns () in
      Gpusim.Memory.write mem p data;
      wns := !wns + Util.since_ns t0;
      let t1 = Util.now_ns () in
      let back = Gpusim.Memory.read mem p n in
      rns := !rns + Util.since_ns t1;
      words := !words +. (Util.alloc_words () -. w0);
      if not (Bytes.equal back data) then failwith "memory blit mismatch";
      bytes := !bytes + n)
    sizes;
  let mibs = float_of_int !bytes /. Util.mib in
  [
    ("memory.write_mib_s", Util.div mibs (float_of_int !wns /. 1e9));
    ("memory.read_mib_s", Util.div mibs (float_of_int !rns /. 1e9));
    ("memory.alloc_b_per_b", Util.div (bytes_of_words !words) (float_of_int (2 * !bytes)));
  ]

(* GC activity and allocation per operation over an untraced pass. *)
let gc_around ~ops f =
  let s0 = Gc.quick_stat () and m0 = Util.minor_collections () and w0 = Util.alloc_words () in
  let v = f () in
  let w1 = Util.alloc_words () and m1 = Util.minor_collections () and s1 = Gc.quick_stat () in
  let kops = float_of_int (ops v) /. 1000.0 in
  ( v,
    w1 -. w0,
    [
      ("gc.minor_per_kop", Util.div (float_of_int (m1 - m0)) kops);
      ("gc.major_per_kop", Util.div (float_of_int (s1.Gc.major_collections - s0.Gc.major_collections)) kops);
      ("gc.alloc_b_per_op", Util.div (bytes_of_words (w1 -. w0)) (kops *. 1000.0));
    ] )

let overhead ~traced_s ~untraced_s tracers =
  [
    ("trace.overhead_ratio", Util.div traced_s untraced_s -. 1.0);
    ( "trace.spans",
      float_of_int (List.fold_left (fun a (t : Tracer.t) -> a + Obs.Recorder.span_count t.Tracer.recorder) 0 tracers) );
  ]
