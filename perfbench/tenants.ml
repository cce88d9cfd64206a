(* tenants-mix: about 1k tenants, each a Cricket client on loopback
   through [Tenancy.Core.dispatch_for], served under DRR ([Round_robin]).
   Open loop on the virtual clock: seeded Poisson arrivals of a
   small/transfer/compute item mix, at an offered rate where admission
   sheds a small share. The tenant set is split over two shards (own
   engine, server, leases, admission and DRR each) that run on two
   domains through [Par.Pool]; their decision timelines are recombined
   with [Par.Merge]. Sojourn is measured from each item's scheduled
   arrival, so queueing counts.

   An item that admission sheds is offered again by its tenant after a
   short seeded back-off, up to [max_offers] times; it fails only if it is
   never served. Every round draws fresh items from (seed, round). *)

module C = Cricket.Client
module Time = Simnet.Time
module Engine = Simnet.Engine
module Rv = Simnet.Random_variate

let shards = 2
let max_offers = 8

type params = { tenants : int; items_per_tenant : int; mean_gap : Time.t }

let params ~tiny =
  if tiny then { tenants = 40; items_per_tenant = 2; mean_gap = Time.ms 16 }
  else { tenants = 1000; items_per_tenant = 4; mean_gap = Time.ms 16 }

let admission = { Tenancy.Admission.per_tenant_window = 2; global_window = 128; high_water = 112 }
let caps = { Tenancy.Lease.default_caps with mem_bytes = 1024 * 1024 }
let heavy_every = 10
let heavy_factor = 4

type kind = Small | Transfer | Compute

let kind_name = function Small -> "small" | Transfer -> "transfer" | Compute -> "compute"
let kind_of_draw u = if u < 0.6 then Small else if u < 0.9 then Transfer else Compute
let payload = Util.payload ~seed:0 ~salt:21 32_768

exception Mismatch

let run_kind client kind =
  match kind with
  | Small ->
      let p = C.malloc client 4096 in
      C.memset client ~ptr:p ~value:0 ~len:4096;
      C.free client p
  | Transfer ->
      let len = Bytes.length payload in
      let p = C.malloc client len in
      C.memcpy_h2d client ~dst:p payload;
      let back = C.memcpy_d2h client ~src:p ~len in
      C.free client p;
      if not (Bytes.equal back payload) then raise Mismatch
  | Compute ->
      let n = 32 in
      let bytes = n * n * 4 in
      let h = C.cublas_create client in
      let a = C.malloc client bytes and b = C.malloc client bytes and c = C.malloc client bytes in
      C.cublas_sgemm client ~handle:h ~m:n ~n ~k:n ~alpha:1.0 ~a ~lda:n ~b ~ldb:n ~beta:0.0 ~c ~ldc:n;
      C.free client a;
      C.free client b;
      C.free client c;
      C.cublas_destroy client h

type item = {
  tenant : int;  (* index within the shard *)
  arrival : Time.t;  (* scheduled arrival of the first offer *)
  kind : kind;
  repeat : int;
  mutable offers : int;
  mutable served : bool;
  mutable error : bool;
  mutable start_v : Time.t;
  mutable done_v : Time.t;
  mutable host_ns : int;
}

type shard = {
  index : int;
  ids : int array;  (* global tenant ids *)
  engine : Engine.t;
  server : Cricket.Server.t;
  core : Tenancy.Core.t;
  clients : C.t array;
  tracer : Tracer.t option;
  mutable timeline : Tenancy.Core.event list;  (* this round's decisions, newest first *)
}

let make_shard ?tracer index ids =
  let engine = Engine.create () in
  let server = Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) () in
  let specs =
    Array.map
      (fun gi -> { Tenancy.Core.name = Printf.sprintf "t%05d" gi; priority = gi mod 3; caps = Some caps })
      ids
  in
  let core =
    Tenancy.Core.create ~engine ~server ~policy:Cricket.Sched.Round_robin ~admission ~tenants:specs ()
  in
  let clients =
    Array.mapi
      (fun j _ ->
        let dispatch record = Tenancy.Core.dispatch_for core ~tenant:j record in
        let dispatch = match tracer with None -> dispatch | Some t -> Tracer.dispatch t ~layer:"server" dispatch in
        let transport = Cricket.Local.transport_of_dispatch dispatch in
        let transport = match tracer with None -> transport | Some t -> Tracer.transport t ~chan:"local" transport in
        C.create ~charge:(fun ns -> Engine.advance engine (Time.ns ns)) ~transport ())
      ids
  in
  { index; ids; engine; server; core; clients; tracer; timeline = [] }

(* The items of one round, for one shard: a pure function of (seed,
   round, global tenant id). Arrivals start at the shard's current
   virtual time. *)
let items ~seed ~round ~tiny sh =
  let p = params ~tiny in
  let base = Engine.now sh.engine in
  let stream = (seed * 7919) + round in
  List.concat
    (List.mapi
       (fun j gi ->
         let arrivals =
           Rv.poisson_arrivals (Rv.substream ~seed:stream ~index:(2 * gi)) ~mean_gap:p.mean_gap
             ~count:p.items_per_tenant
         in
         let kinds = Rv.substream ~seed:stream ~index:((2 * gi) + 1) in
         let repeat = if gi mod heavy_every = 0 then heavy_factor else 1 in
         List.map
           (fun a ->
             {
               tenant = j; arrival = Time.add base a; kind = kind_of_draw (Rv.uniform kinds); repeat;
               offers = 0; served = false; error = false; start_v = 0L; done_v = 0L; host_ns = 0;
             })
           arrivals)
       (Array.to_list sh.ids))

let work sh it () =
  let client = sh.clients.(it.tenant) in
  let body () =
    it.start_v <- Engine.now sh.engine;
    let t0 = Util.now_ns () in
    (try
       for _ = 1 to it.repeat do
         run_kind client it.kind
       done
     with Mismatch | Cudasim.Error.Cuda_error _ | Oncrpc.Client.Rpc_error _ | Failure _ -> it.error <- true);
    it.host_ns <- Util.since_ns t0;
    it.done_v <- Engine.now sh.engine;
    it.served <- true
  in
  match sh.tracer with
  | None -> body ()
  | Some t -> Tracer.span ~root:true t ~layer:"item" ~key:(kind_name it.kind) "item" body

(* Serve one round's items on one shard, re-offering shed items. Returns
   how many offers admission shed. *)
let serve ~seed ~round sh its =
  sh.timeline <- [];
  let st = Util.rng ~seed ~salt:(1000 + (round * 16) + sh.index) in
  let shed = ref 0 in
  let rec go pending =
    if pending <> [] then begin
      let now = Engine.now sh.engine in
      let offers =
        List.map
          (fun it ->
            it.offers <- it.offers + 1;
            let arrival =
              if it.offers = 1 then it.arrival
              else Time.add now (Time.us (100 + Random.State.int st 2000))
            in
            { Tenancy.Core.tenant = it.tenant; arrival; work = work sh it })
          pending
      in
      let run () = Tenancy.Core.run sh.core offers in
      let res =
        match sh.tracer with
        | None -> run ()
        | Some t -> Tracer.span ~root:true t ~layer:"tenancy" ~key:"run" "core.run" run
      in
      shed := !shed + res.Tenancy.Core.rejected;
      sh.timeline <- List.rev_append (Array.to_list res.Tenancy.Core.timeline) sh.timeline;
      go (List.filter (fun it -> (not it.served) && it.offers < max_offers) pending)
    end
  in
  go its;
  !shed

type round_result = { its : item list; shed : int; busy_ns : int }

let run_round ~seed ~round ~tiny sh =
  let t0 = Util.now_ns () in
  let its = items ~seed ~round ~tiny sh in
  let shed = serve ~seed ~round sh its in
  { its; shed; busy_ns = Util.since_ns t0 }

(* Recombine the shards' decision timelines in (vtime, shard, seq) order
   and fingerprint it. *)
let merge shards_ =
  let streams =
    Array.map
      (fun sh ->
        Array.of_list (List.rev sh.timeline)
        |> Array.mapi (fun seq (ev : Tenancy.Core.event) ->
               { Par.Merge.vtime = ev.Tenancy.Core.ev_time; shard = sh.index; seq;
                 payload = (sh.ids.(ev.Tenancy.Core.ev_tenant), ev.Tenancy.Core.ev_kind) }))
      shards_
  in
  let merged = Par.Merge.merge streams in
  Par.Merge.digest merged ~payload:(fun (gi, kind) ->
      Int64.of_int ((gi * 8) + match kind with Tenancy.Core.Served -> 1 | Tenancy.Core.Shed _ -> 2))

let setup ?(traced = false) ~tiny () =
  let p = params ~tiny in
  let partition = Par.Topology.partition ~shards ~n:p.tenants in
  Array.mapi
    (fun s ids ->
      let tracer = if traced then Some (Tracer.create ()) else None in
      make_shard ?tracer s ids)
    partition

(* Leases and device memory drain to zero once every item is served. *)
let drained shards_ =
  Array.for_all
    (fun sh ->
      let reg = Tenancy.Core.lease_registry sh.core in
      List.for_all
        (fun (l : Tenancy.Lease.lease) -> l.mem_used = 0 && l.live_streams = 0)
        (Tenancy.Lease.leases reg)
      && Stack.device_used sh.server = 0)
    shards_

type totals = {
  mutable rounds : int;
  mutable offered : int;
  mutable served_first : int;
  mutable failed : int;
  mutable shed : int;
  mutable calls : int;
  mutable wall_ns : int;
  mutable busy_ns : int;
  mutable merge_ns : int;
  host : Util.Samples.t;  (* item host times at reference speed *)
  mutable windows : Report.window list;  (* one per round *)
}

let run_rounds ~(cfg : Util.cfg) shards_ ~first_round ~stop =
  let tot =
    { rounds = 0; offered = 0; served_first = 0; failed = 0; shed = 0; calls = 0; wall_ns = 0; busy_ns = 0;
      merge_ns = 0; host = Util.Samples.create (); windows = [] }
  in
  let first = ref None in
  let calls () = Array.fold_left (fun a sh -> Array.fold_left (fun a c -> a + C.api_calls c) a sh.clients) 0 shards_ in
  let c0 = calls () in
  while not (stop tot) do
    let round = first_round + tot.rounds in
    let from = Util.Samples.length tot.host and offered0 = tot.offered and calls0 = calls () in
    let scale = Util.speed_scale () in
    let t0 = Util.now_ns () in
    let w0 = Util.alloc_words () in
    let results =
      Par.Pool.run ~domains:cfg.domains shards (fun s -> run_round ~seed:cfg.seed ~round ~tiny:cfg.tiny shards_.(s))
    in
    let t1 = Util.now_ns () in
    let digest = merge shards_ in
    let merge_ns = Util.since_ns t1 in
    tot.wall_ns <- tot.wall_ns + Util.since_ns t0;
    tot.merge_ns <- tot.merge_ns + merge_ns;
    Array.iter
      (fun (r : round_result) ->
        tot.busy_ns <- tot.busy_ns + r.busy_ns;
        tot.shed <- tot.shed + r.shed;
        List.iter
          (fun it ->
            tot.offered <- tot.offered + 1;
            if it.served && it.offers = 1 then tot.served_first <- tot.served_first + 1;
            if (not it.served) || it.error then tot.failed <- tot.failed + 1
            else Util.Samples.add tot.host (Util.scaled scale it.host_ns))
          r.its)
      results;
    tot.windows <-
      { Report.ops = float_of_int (tot.offered - offered0); seconds = Util.seconds_since t0; scale;
        calls = calls () - calls0;
        first = from; count = Util.Samples.length tot.host - from }
      :: tot.windows;
    if !first = None then first := Some (results, digest, Util.alloc_words () -. w0);
    tot.rounds <- tot.rounds + 1
  done;
  tot.calls <- calls () - c0;
  (tot, Option.get !first)

(* [space_overhead] 40 keeps the heap near the live data (about 150 MiB
   at 1000 tenants). At the default 120 the peak heap follows the two
   domains' GC pacing more than the data: it spread by over a quarter of
   its median across runs of one seed set. *)
let run (cfg : Util.cfg) =
  Util.with_space_overhead 40 @@ fun () ->
  let tiny = cfg.tiny in
  (* Set-up includes one warm-up round. *)
  let shards_, setup_s =
    Util.repeat_setup (if tiny then 2 else 5) (fun () ->
        let sh = setup ~tiny () in
        ignore (run_rounds ~cfg sh ~first_round:1_000_000 ~stop:(fun t -> t.rounds >= 1));
        sh)
  in
  Gc.full_major ();
  let once t = t.rounds >= 1 in
  let stop =
    if tiny || cfg.trace then once else fun t -> t.rounds >= 1 && float_of_int t.wall_ns /. 1e9 >= cfg.seconds
  in
  let (tot, (first, digest, first_words)), _, gc =
    Layers.gc_around ~ops:(fun (t, _) -> t.offered) (fun () -> run_rounds ~cfg shards_ ~first_round:0 ~stop)
  in
  let first_items = Array.to_list first |> List.concat_map (fun (r : round_result) -> r.its) in
  let served = List.filter (fun it -> it.served) first_items in
  let sojourn =
    Array.of_list (List.map (fun it -> Int64.to_int (Int64.sub it.done_v it.arrival)) served)
  in
  Array.sort compare sojourn;
  let wait = Array.of_list (List.map (fun it -> Int64.to_int (Int64.sub it.start_v it.arrival)) served) in
  Array.sort compare wait;
  let p99_us = float_of_int (Util.quantile sojourn 0.99) /. 1e3 in
  let first_shed = Array.fold_left (fun a (r : round_result) -> a + r.shed) 0 first in
  let drained_ok = drained shards_ in
  let layers, layer_checks =
    if not cfg.trace then ([], [])
    else begin
      let ts = setup ~traced:true ~tiny () in
      let tracers = Array.to_list (Array.map (fun sh -> Option.get sh.tracer) ts) in
      List.iter (fun t -> t.Tracer.on <- false) tracers;
      ignore (run_rounds ~cfg ts ~first_round:1_000_000 ~stop:once);
      Gc.full_major ();
      List.iter (fun t -> t.Tracer.on <- true) tracers;
      let ttot, _ = run_rounds ~cfg ts ~first_round:0 ~stop:once in
      List.iter (fun t -> t.Tracer.on <- false) tracers;
      let nesting = List.for_all (fun t -> Result.is_ok (Tracer.export_and_check t)) tracers in
      let sgemm = Layers.sum ~prefix:"server.sgemm" tracers in
      let fmas = float_of_int (sgemm.count * 32 * 32 * 32) in
      let ten = Layers.sum ~prefix:"tenancy." tracers in
      let domains = max 1 (min cfg.domains shards) in
      let values =
        Layers.client tracers ~root:"item" ~calls:ttot.calls
        @ Layers.transport tracers Stack.Local ~calls:ttot.calls
        @ Layers.server tracers
        @ [
            ("kernels.ns_per_fma", Util.div (float_of_int sgemm.self_ns) fmas);
            ("kernels.alloc_b_per_fma", Util.div (Layers.bytes_of_words sgemm.self_words) fmas);
            ("tenancy.items", float_of_int ttot.offered);
            ("tenancy.served_ratio", Util.fdiv ttot.served_first ttot.offered);
            ("tenancy.self_ns_per_item", Util.fdiv ten.self_ns ttot.offered);
            ("tenancy.virt_wait_us_p50", float_of_int (Util.quantile wait 0.5) /. 1e3);
            ("par.busy_ratio", Util.div (float_of_int ttot.busy_ns) (float_of_int (domains * ttot.wall_ns)));
            ("par.merge_ns", Util.fdiv ttot.merge_ns ttot.rounds);
          ]
        @ gc
        @ Layers.overhead ~traced_s:(float_of_int ttot.wall_ns) ~untraced_s:(float_of_int tot.wall_ns) tracers
      in
      (Layers.finish values, [ ("trace nesting", nesting); ("traced round failures", ttot.failed = 0) ])
    end
  in
  let e2e, wall = Report.e2e ~tail:0.995 ~setup_s ~windows:tot.windows ~op_ns:tot.host in
  {
    Report.workload = "tenants-mix";
    attempted = tot.offered;
    failed = tot.failed;
    checks =
      [ ("every item served", tot.failed = 0); ("leases and device memory drained", drained_ok) ] @ layer_checks;
    e2e;
    named =
      [
        Report.renamed e2e ~from:"ops_per_s" "items_per_s" "items/s";
        Report.m ~samples:(Array.length sojourn) "virt_sojourn_p99_us" "us" p99_us;
        Report.m "shed_offers" "count" (float_of_int tot.shed);
        Report.m "served_first_offer" "ratio" (Util.fdiv tot.served_first tot.offered);
        Report.m "rounds" "count" (float_of_int tot.rounds);
      ]
      @ wall;
    layers;
    exact =
      [
        ("virt_sojourn_p99_us", Printf.sprintf "%.3f" p99_us);
        ("first_round_items", string_of_int (List.length first_items));
        ("first_round_shed", string_of_int first_shed);
        ("merge_digest", Printf.sprintf "%016Lx" digest);
      ]
      @ if cfg.domains = 1 then [ ("alloc_words_first_round", Printf.sprintf "%.0f" first_words) ] else [];
  }
