(* proxy-apps: the paper's Fig. 5 proxy applications (matrixMul, the
   cuSOLVER linear solver, histogram) run functionally with [~verify:true]
   over Simchannel with the Hermit profile, closed loop, one client.
   Simulated kernels do nearly all the work. The inputs are the CUDA
   samples' own fixed data, so the seed does not reach this workload. *)

let matmul ~tiny =
  if tiny then { Apps.Matrix_mul.ha = 32; wa = 32; wb = 32; iterations = 1 }
  else { Apps.Matrix_mul.ha = 64; wa = 64; wb = 64; iterations = 4 }

let solver ~tiny =
  if tiny then { Apps.Linear_solver.n = 16; iterations = 1 } else { Apps.Linear_solver.n = 192; iterations = 2 }

let histogram ~tiny =
  if tiny then { Apps.Histogram.data_bytes = 4096; iterations = 1 }
  else { Apps.Histogram.data_bytes = 1 lsl 20; iterations = 2 }

let matmul_fmas ~tiny =
  let p = matmul ~tiny in
  p.ha * p.wa * p.wb * p.iterations

let histogram_bytes ~tiny =
  let p = histogram ~tiny in
  p.data_bytes * p.iterations

let apps ~tiny =
  [
    ("matmul", fun env -> Apps.Matrix_mul.run ~verify:true (matmul ~tiny) env);
    ("solver", fun env -> Apps.Linear_solver.run ~verify:true (solver ~tiny) env);
    ("histogram", fun env -> Apps.Histogram.run ~verify:true (histogram ~tiny) env);
  ]

type acc = {
  mutable rounds : int;
  mutable failed : int;
  mutable ns : int;  (* host time in the apps, as measured *)
  per_app_ns : (string, Util.Samples.t) Hashtbl.t;  (* at reference speed *)
  round_ns : Util.Samples.t;
  mutable windows : Report.window list;  (* one per round *)
}

let new_acc () =
  { rounds = 0; failed = 0; ns = 0; per_app_ns = Hashtbl.create 3; round_ns = Util.Samples.create ();
    windows = [] }

(* One round: every app once, in order. [app] names the running app for
   the traced run's per-application kernel costs. *)
let round ?(wrap = Util.no_wrap) ?(app = ref "") ~tiny (s : Stack.t) acc =
  let env = Stack.runner_env s in
  let c0 = Cricket.Client.api_calls s.Stack.client in
  let scale = Util.speed_scale () in
  let t_round = Util.now_ns () in
  List.iter
    (fun (name, f) ->
      app := name;
      let t0 = Util.now_ns () in
      (match wrap.Util.wrap name (fun () -> f env) with
      | () -> ()
      | exception (Failure _ | Cudasim.Error.Cuda_error _ | Oncrpc.Client.Rpc_error _) ->
          acc.failed <- acc.failed + 1);
      let dt = Util.scaled scale (Util.since_ns t0) in
      (match Hashtbl.find_opt acc.per_app_ns name with
      | Some x -> Util.Samples.add x dt
      | None ->
          let x = Util.Samples.create () in
          Util.Samples.add x dt;
          Hashtbl.replace acc.per_app_ns name x))
    (apps ~tiny);
  app := "";
  let dt = Util.since_ns t_round in
  acc.windows <-
    { Report.ops = 1.0; seconds = float_of_int dt /. 1e9; scale; calls = Cricket.Client.api_calls s.Stack.client - c0;
      first = Util.Samples.length acc.round_ns; count = 1 }
    :: acc.windows;
  Util.Samples.add acc.round_ns (Util.scaled scale dt);
  acc.ns <- acc.ns + dt;
  acc.rounds <- acc.rounds + 1

let setup ?tracer ?app ~tiny () =
  let s = Stack.create ?tracer ?app Stack.Simchannel in
  round ~tiny s (new_acc ());
  s

let run (cfg : Util.cfg) =
  let tiny = cfg.tiny in
  let s, setup_s = Util.repeat_setup (if tiny then 2 else 5) (fun () -> setup ~tiny ()) in
  let acc = new_acc () in
  (* The first round fixes the virtual figure and the allocation count. *)
  Gc.full_major ();
  let v0 = Stack.vnow s in
  let (), first_words, gc = Layers.gc_around ~ops:(fun () -> acc.rounds) (fun () -> round ~tiny s acc) in
  let virt_ms = Int64.to_float (Int64.sub (Stack.vnow s) v0) /. 1e6 in
  if not (tiny || cfg.trace) then
    while float_of_int acc.ns /. 1e9 < cfg.seconds do
      round ~tiny s acc
    done;
  let layers, layer_checks =
    if not cfg.trace then ([], [])
    else begin
      let tr = Tracer.create () in
      tr.Tracer.on <- false;
      let app = ref "" in
      let t = setup ~tracer:tr ~app ~tiny () in
      let tacc = new_acc () in
      let c0 = Cricket.Client.api_calls t.Stack.client in
      let wrap = { Util.wrap = (fun name f -> Tracer.span ~root:true tr ~layer:"app" ~key:name name f) } in
      Gc.full_major ();
      tr.Tracer.on <- true;
      round ~wrap ~app ~tiny t tacc;
      tr.Tracer.on <- false;
      let calls = Cricket.Client.api_calls t.Stack.client - c0 in
      let nesting = Tracer.export_and_check tr in
      let key k = Layers.sum ~prefix:("server." ^ k) [ tr ] in
      let mm = key "matmul.launch" and hist = key "histogram.launch" and solve = key "solver.cusolver" in
      let fmas = float_of_int (matmul_fmas ~tiny) in
      let values =
        Layers.client [ tr ] ~root:"app" ~calls
        @ Layers.transport [ tr ] Stack.Simchannel ~calls
        @ Layers.server [ tr ]
        @ Layers.memory [ (histogram ~tiny).Apps.Histogram.data_bytes ]
        @ [
            ("kernels.ns_per_fma", float_of_int mm.self_ns /. fmas);
            ("kernels.alloc_b_per_fma", Layers.bytes_of_words mm.self_words /. fmas);
            ("kernels.histogram_ns_per_byte", Util.fdiv hist.self_ns (histogram_bytes ~tiny));
            ("kernels.solver_ns", float_of_int solve.self_ns);
          ]
        @ gc
        @ Layers.overhead ~traced_s:(float_of_int tacc.ns /. 1e9) ~untraced_s:(Util.div (float_of_int acc.ns /. 1e9) (float_of_int acc.rounds)) [ tr ]
      in
      (Layers.finish values, [ ("trace nesting", Result.is_ok nesting); ("traced round failures", tacc.failed = 0) ])
    end
  in
  (* median time of each app over the rounds *)
  let per_app name = float_of_int (Util.quantile (Util.Samples.sorted (Hashtbl.find acc.per_app_ns name)) 0.5) /. 1e9 in
  let e2e, wall = Report.e2e ~tail:0.90 ~setup_s ~windows:acc.windows ~op_ns:acc.round_ns in
  {
    Report.workload = "proxy-apps";
    attempted = 3 * acc.rounds;
    failed = acc.failed;
    checks = [ ("every app verified", acc.failed = 0) ] @ layer_checks;
    e2e;
    named =
      [
        Report.m ~samples:acc.rounds "matmul_s" "s" (per_app "matmul");
        Report.m ~samples:acc.rounds "solver_s" "s" (per_app "solver");
        Report.m ~samples:acc.rounds "histogram_s" "s" (per_app "histogram");
        Report.m "virt_app_ms" "ms" virt_ms;
      ]
      @ wall;
    layers;
    exact = [ ("virt_app_ms", Printf.sprintf "%.6f" virt_ms); ("alloc_words_first_round", Printf.sprintf "%.0f" first_words) ];
  }
