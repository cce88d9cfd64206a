(* The benchmark's self-test: every workload at a tiny size, traced, at
   one domain. It checks that
   - every end-to-end, workload and per-layer metric prints with a unit,
     and no end-to-end metric reads 0;
   - every output check passes;
   - virtual metrics and one-domain allocation counts repeat exactly for
     the same seed;
   - they differ under another seed on the workloads the seed reaches. *)

let e2e_names = [ "setup_s"; "ops_per_s"; "op_p50_us"; "op_tail_us"; "api_calls_per_s"; "peak_heap_mib" ]

let named_names = function
  | "api-calls" -> [ "api_calls_per_s"; "call_p50_us"; "call_p99_us"; "virt_call_us" ]
  | "bulk-copy" -> [ "h2d_mib_s"; "d2h_mib_s"; "virt_h2d_mib_s"; "virt_d2h_mib_s" ]
  | "proxy-apps" -> [ "matmul_s"; "solver_s"; "histogram_s"; "virt_app_ms" ]
  | "tenants-mix" -> [ "items_per_s"; "virt_sojourn_p99_us" ]
  | _ -> []

let seed_reaches = [ "api-calls"; "bulk-copy"; "tenants-mix" ]

(* Values that must repeat exactly: the workload's own list plus every
   per-layer allocation figure ("<layer>.alloc_b_..."). *)
let exact (r : Report.t) =
  let is_alloc name =
    match String.index_opt name '.' with
    | Some i -> String.starts_with ~prefix:"alloc_b" (String.sub name (i + 1) (String.length name - i - 1))
    | None -> false
  in
  r.exact
  @ List.filter_map
      (fun (x : Report.metric) -> if is_alloc x.name then Some (x.name, Printf.sprintf "%.6f" x.value) else None)
      r.layers

let names ms = List.map (fun (x : Report.metric) -> x.name) ms

let run workloads run_one =
  let failures = ref 0 in
  let check what ok =
    Printf.printf "  %s %s\n" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  List.iter
    (fun w ->
      Printf.printf "%s\n%!" w;
      let cfg seed = { Util.seed; seconds = 1.0; trace = true; tiny = true; domains = 1 } in
      let r1 = run_one (cfg 1) w and r2 = run_one (cfg 1) w and r3 = run_one (cfg 2) w in
      check "end-to-end metrics named, with units" (names r1.Report.e2e = e2e_names
        && List.for_all (fun (x : Report.metric) -> x.unit <> "") r1.e2e);
      check "no end-to-end metric reads 0" (List.for_all (fun (x : Report.metric) -> x.value > 0.0) r1.e2e);
      check "workload metrics named, with units"
        (List.for_all (fun n -> List.exists (fun (x : Report.metric) -> x.name = n && x.unit <> "") r1.named) (named_names w));
      check "per-layer metrics named, with units" (names r1.layers = List.map fst Layers.spec);
      List.iter
        (fun (r : Report.t) ->
          List.iter (fun (c, ok) -> check (Printf.sprintf "check: %s" c) ok) r.checks;
          check "no failed operation" (r.failed = 0 && r.attempted > 0))
        [ r1; r3 ];
      let e1 = exact r1 and e2 = exact r2 and e3 = exact r3 in
      List.iter2
        (fun (n, a) (_, b) -> check (Printf.sprintf "repeats exactly: %s = %s" n a) (a = b))
        e1 e2;
      if List.mem w seed_reaches then check "another seed changes the exact values" (e1 <> e3))
    workloads;
  if !failures = 0 then (
    print_endline "selftest passed";
    0)
  else (
    Printf.printf "selftest FAILED (%d)\n" !failures;
    1)
