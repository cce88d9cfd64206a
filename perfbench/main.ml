(* perfbench: the repository benchmark.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 [--named]
   main.exe --selftest                      tiny sizes, checks the benchmark

   Readable lines go first; the last line of standard output is one JSON
   object with the end-to-end metrics (--trace 0; with --named also the
   workload's own metrics) or the per-layer metrics (--trace 1). *)

let workloads =
  [
    ("api-calls", Api.run);
    ("bulk-copy", Bulk.run);
    ("proxy-apps", Proxy.run);
    ("tenants-mix", Tenants.run);
  ]

let run_one (cfg : Util.cfg) name =
  match List.assoc_opt name workloads with
  | None -> invalid_arg ("unknown workload " ^ name)
  | Some f -> f cfg

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let selftest = ref false and tiny = ref false and baseline = ref false in
  let named = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of api-calls, bulk-copy, proxy-apps, tenants-mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds per workload");
      ("--trace", Arg.Set_int trace, "0|1 timed run or traced run");
      ("--tiny", Arg.Set tiny, " tiny sizes (self-test)");
      ("--selftest", Arg.Set selftest, " run the benchmark's self-test");
      ("--baseline", Arg.Set baseline, " bulk-copy: print the untraced baseline of a traced run");
      ("--named", Arg.Set named, " add the workload's own metrics to the result line");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let cfg =
    { Util.seed = !seed; seconds = float_of_int !seconds; trace = !trace = 1; tiny = !tiny; domains = 2 }
  in
  if !selftest then exit (Selftest.run (List.map fst workloads) run_one)
  else if !baseline then print_endline (Bulk.baseline cfg)
  else begin
    let r = run_one cfg !workload in
    Report.print_human stdout r;
    let metrics =
      if cfg.trace then r.Report.layers else if !named then r.Report.e2e @ r.Report.named else r.Report.e2e
    in
    Report.print_json stdout r ~metrics;
    exit (if Report.correct r then 0 else 1)
  end
