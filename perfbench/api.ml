(* api-calls: one Cricket client over Simchannel with the Hermit profile
   (the paper's Fig. 6 set-up), closed loop, one call at a time. Each
   step is drawn from a seeded mix; per-call cost (client shim, XDR,
   record marking, server dispatch) is nearly all the work. *)

module C = Cricket.Client

type step = Count | Malloc_free | Launch_sync | H2d | D2h

(* Shares in percent, chosen so that neither the median nor the 99th
   percentile call falls on the boundary between two call kinds. *)
let mix = [ (Count, 22); (Malloc_free, 14); (Launch_sync, 7); (H2d, 22); (D2h, 21) ]

let draw st =
  let total = List.fold_left (fun a (_, w) -> a + w) 0 mix in
  let r = Random.State.int st total in
  let rec pick acc = function
    | [ (s, _) ] -> s
    | (s, w) :: rest -> if r < acc + w then s else pick (acc + w) rest
    | [] -> assert false
  in
  pick 0 mix

let payloads seed = Array.init 16 (fun i -> Util.payload ~seed ~salt:(100 + i) 64)
let fill_n = 64

type state = {
  stack : Stack.t;
  fill : C.func;
  d_buf : int64;
  d_fill : int64;
  devices : int;
  payloads : bytes array;
  mutable last : bytes;  (* what [d_buf] holds *)
  mutable fill_value : float;
  st : Random.State.t;  (* the step sequence *)
}

let setup ?tracer ~seed () =
  let stack = Stack.create ?tracer Stack.Simchannel in
  let client = stack.Stack.client in
  let modul = Apps.Workload.load_standard_module client in
  let fill = Apps.Workload.get_kernel client ~modul Gpusim.Kernels.fill_name in
  let d_buf = C.malloc client 64 and d_fill = C.malloc client (4 * fill_n) in
  let payloads = payloads seed in
  C.memcpy_h2d client ~dst:d_buf payloads.(0);
  {
    stack; fill; d_buf; d_fill;
    devices = C.get_device_count client;
    payloads; last = payloads.(0); fill_value = 0.0;
    st = Util.rng ~seed ~salt:1;
  }

exception Mismatch of string


(* One step: its calls, each timed on its own. *)
let run_step s ~(wrap : Util.wrap) ~sample step =
  let client = s.stack.Stack.client in
  let call name f =
    let t0 = Util.now_ns () in
    let v = wrap.wrap name f in
    sample (Util.since_ns t0);
    v
  in
  match step with
  | Count ->
      let n = call "get_device_count" (fun () -> C.get_device_count client) in
      if n <> s.devices then raise (Mismatch "device count")
  | Malloc_free ->
      let size = 64 + Random.State.int s.st 4032 in
      let p = call "malloc" (fun () -> C.malloc client size) in
      if p = 0L then raise (Mismatch "null device pointer");
      call "free" (fun () -> C.free client p)
  | Launch_sync ->
      let v = float_of_int (Random.State.int s.st 1000) in
      call "launch" (fun () ->
          C.launch client s.fill ~grid:{ C.x = 1; y = 1; z = 1 } ~block:{ C.x = fill_n; y = 1; z = 1 }
            [| Gpusim.Kernels.Ptr (Int64.to_int s.d_fill); Gpusim.Kernels.F32 v; Gpusim.Kernels.I32 (Int32.of_int fill_n) |]);
      call "device_synchronize" (fun () -> C.device_synchronize client);
      s.fill_value <- v
  | H2d ->
      let p = s.payloads.(Random.State.int s.st (Array.length s.payloads)) in
      call "memcpy_h2d" (fun () -> C.memcpy_h2d client ~dst:s.d_buf p);
      s.last <- p
  | D2h ->
      let b = call "memcpy_d2h" (fun () -> C.memcpy_d2h client ~src:s.d_buf ~len:64) in
      if not (Bytes.equal b s.last) then raise (Mismatch "d2h payload")


(* The fill kernel's last launch must be visible in device memory. *)
let check_fill s =
  let b = C.memcpy_d2h s.stack.Stack.client ~src:s.d_fill ~len:(4 * fill_n) in
  let ok = ref true in
  for i = 0 to fill_n - 1 do
    if Int32.float_of_bits (Bytes.get_int32_le b (4 * i)) <> s.fill_value then ok := false
  done;
  !ok

type pass = {
  failed : int;
  calls : int;
  seconds : float;
  windows : Report.window list;
  virt_call_us : float;  (* virtual ns per call over the first [virt_calls] *)
  alloc_words : float;  (* allocated over the first [virt_calls] calls *)
}

let virt_calls = 10_000

(* Windows are counted in steps, not seconds, so that closing one (which
   allocates) happens at the same points on every run. *)
let window_steps = 50_000

(* Run steps until [stop] says so. Failures are counted, not raised. *)
let run_pass s ~wrap ~samples ~stop =
  let steps = ref 0 and failed = ref 0 and calls = ref 0 in
  let v0 = Stack.vnow s.stack and w0 = Util.alloc_words () in
  let virt = ref None in
  let scale = ref (Util.speed_scale ()) in
  let sample ns =
    Util.Samples.add samples (Util.scaled !scale ns);
    incr calls;
    if !calls = virt_calls then
      virt := Some (Int64.sub (Stack.vnow s.stack) v0, Util.alloc_words () -. w0)
  in
  let windows = ref [] and w_start = ref (Util.now_ns ()) and w_from = ref (Util.Samples.length samples) in
  let close_window () =
    let n = Util.Samples.length samples - !w_from in
    if n > 0 then
      windows :=
        { Report.ops = float_of_int n; seconds = Util.seconds_since !w_start; scale = !scale; calls = n;
          first = !w_from; count = n }
        :: !windows;
    scale := Util.speed_scale ();
    w_start := Util.now_ns ();
    w_from := Util.Samples.length samples
  in
  let t0 = Util.now_ns () in
  while not (stop !steps (Util.seconds_since t0)) do
    let step = draw s.st in
    (try run_step s ~wrap ~sample step with
    | Mismatch _ | Cudasim.Error.Cuda_error _ | Oncrpc.Client.Rpc_error _ | Failure _ -> incr failed);
    incr steps;
    if !steps mod window_steps = 0 then close_window ()
  done;
  let seconds = Util.seconds_since t0 in
  close_window ();
  let vns, words =
    match !virt with
    | Some v -> v
    | None -> (Int64.sub (Stack.vnow s.stack) v0, Util.alloc_words () -. w0)
  in
  let n = min !calls virt_calls in
  {
    failed = !failed; calls = !calls; seconds; windows = !windows;
    virt_call_us = Util.div (Int64.to_float vns /. 1e3) (float_of_int n);
    alloc_words = words;
  }

let warmup s = ignore (run_pass s ~wrap:Util.no_wrap ~samples:(Util.Samples.create ()) ~stop:(fun n _ -> n >= 2000))

(* The same small-call sequence sent straight to [Cudasim.Api] on a
   fresh context: the baseline for the server's RPC overhead. Launches
   are left out; their synchronize is kept. *)
let direct_ns ~seed ~salt ~steps =
  let engine = Simnet.Engine.create () in
  let server = Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) () in
  let ctx = Cricket.Server.context server in
  let module A = Cudasim.Api in
  let ok = function Cudasim.Error.Success -> () | _ -> failwith "direct call failed" in
  let get = function Ok v -> v | Error _ -> failwith "direct call failed" in
  let d_buf = get (A.malloc ctx 64L) in
  let payloads = payloads seed in
  let st = Util.rng ~seed ~salt in
  let ns = ref 0 and calls = ref 0 in
  let time f =
    let t0 = Util.now_ns () in
    f ();
    ns := !ns + Util.since_ns t0;
    incr calls
  in
  for _ = 1 to steps do
    match draw st with
    | Count -> time (fun () -> ignore (A.get_device_count ctx))
    | Malloc_free ->
        let size = 64 + Random.State.int st 4032 in
        let p = ref 0L in
        time (fun () -> p := get (A.malloc ctx (Int64.of_int size)));
        time (fun () -> ok (A.free ctx !p))
    | Launch_sync ->
        ignore (Random.State.int st 1000);
        time (fun () -> ok (A.device_synchronize ctx))
    | H2d ->
        let p = payloads.(Random.State.int st (Array.length payloads)) in
        time (fun () -> ok (A.memcpy_h2d ctx ~dst:d_buf p))
    | D2h -> time (fun () -> ignore (get (A.memcpy_d2h ctx ~src:d_buf ~len:64L)))
  done;
  Util.fdiv !ns !calls


let run (cfg : Util.cfg) =
  let s, setup_s =
    Util.repeat_setup (if cfg.tiny then 2 else 15) (fun () ->
        let s = setup ~seed:cfg.seed () in
        warmup s;
        s)
  in
  (* Measure from a fresh sequence so the seed alone fixes the steps. The
     traced run measures a fixed number of steps, untraced then traced. *)
  let s = { s with st = Util.rng ~seed:cfg.seed ~salt:2 } in
  let samples = Util.Samples.create () in
  let steps = if cfg.tiny then 2000 else 20_000 in
  let stop =
    if cfg.tiny || cfg.trace then fun n _ -> n >= steps else fun _ elapsed -> elapsed >= cfg.seconds
  in
  Gc.full_major ();
  let p, _, gc = Layers.gc_around ~ops:(fun (p : pass) -> p.calls) (fun () -> run_pass s ~wrap:Util.no_wrap ~samples ~stop) in
  let fill_ok = check_fill s in
  let layers, layer_checks =
    if not cfg.trace then ([], [])
    else begin
      let tr = Tracer.create () in
      tr.Tracer.on <- false;
      let t = setup ~tracer:tr ~seed:cfg.seed () in
      warmup t;
      let t = { t with st = Util.rng ~seed:cfg.seed ~salt:2 } in
      let c0 = C.api_calls t.stack.Stack.client in
      let wrap = Tracer.client_wrap tr in
      Gc.full_major ();
      tr.Tracer.on <- true;
      let tp = run_pass t ~wrap ~samples:(Util.Samples.create ()) ~stop:(fun n _ -> n >= steps) in
      tr.Tracer.on <- false;
      let calls = C.api_calls t.stack.Stack.client - c0 in
      let direct = direct_ns ~seed:cfg.seed ~salt:2 ~steps in
      let nesting = Tracer.export_and_check tr in
      let values =
        Layers.client [ tr ] ~root:"client" ~calls
        @ Layers.transport [ tr ] Stack.Simchannel ~calls
        @ Layers.server ~direct_ns:direct [ tr ]
        @ gc
        @ Layers.overhead ~traced_s:tp.seconds ~untraced_s:p.seconds [ tr ]
      in
      (Layers.finish values, [ ("trace nesting", Result.is_ok nesting); ("traced pass failures", tp.failed = 0) ])
    end
  in
  let e2e, wall = Report.e2e ~tail:0.99 ~setup_s ~windows:p.windows ~op_ns:samples in
  {
    Report.workload = "api-calls";
    attempted = p.calls;
    failed = p.failed;
    checks = [ ("no failed calls", p.failed = 0); ("fill kernel result", fill_ok) ] @ layer_checks;
    e2e;
    named =
      [
        Report.renamed e2e ~from:"api_calls_per_s" "api_calls_per_s" "calls/s";
        Report.renamed e2e ~from:"op_p50_us" "call_p50_us" "us";
        Report.renamed e2e ~from:"op_tail_us" "call_p99_us" "us";
        Report.m ~samples:(min p.calls virt_calls) "virt_call_us" "us" p.virt_call_us;
      ]
      @ wall;
    layers;
    exact =
      [
        ("virt_call_us", Printf.sprintf "%.6f" p.virt_call_us);
        ("alloc_words_first_calls", Printf.sprintf "%.0f" p.alloc_words);
      ];
  }
