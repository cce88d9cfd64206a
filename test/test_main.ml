let () =
  Alcotest.run "cricket-unikernel-repro"
    [
      ("xdr", Test_xdr.suite);
      ("oncrpc", Test_oncrpc.suite);
      ("rpcl", Test_rpcl.suite);
      ("simnet", Test_simnet.suite);
      ("tcpstack", Test_tcpstack.suite);
      ("gpusim", Test_gpusim.suite);
      ("cubin", Test_cubin.suite);
      ("cudasim", Test_cudasim.suite);
      ("cricket", Test_cricket.suite);
      ("unikernel", Test_unikernel.suite);
      ("apps", Test_apps.suite);
      ("stream", Test_stream.suite);
      ("fault", Test_fault.suite);
      ("fuzz", Test_fuzz.suite);
      ("obs", Test_obs.suite);
      ("tenancy", Test_tenancy.suite);
      ("migrate", Test_migrate.suite);
      ("par", Test_par.suite);
      ("rpcacc", Test_rpcacc.suite);
      ("fleet", Test_fleet.suite);
      ("datapath", Test_datapath.suite);
    ]
