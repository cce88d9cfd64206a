(* The parallel runtime: domain-safe work queues, the work-stealing
   domain pool, and the deterministic virtual-time merge — plus the
   cross-layer determinism contract it all exists for: a sharded loadgen
   run must render byte-identically no matter how many domains executed
   it, and shared-state hot paths (Obs counters, xid allocation) must
   sum exactly under concurrent bumps from several domains. *)

module Time = Simnet.Time
module Merge = Par.Merge
module Pool = Par.Pool
module Chan = Par.Chan

let check = Alcotest.check

(* --- chan --- *)

let test_chan_fifo () =
  let q = Chan.create () in
  check Alcotest.bool "fresh empty" true (Chan.is_empty q);
  List.iter (Chan.push q) [ 1; 2; 3 ];
  check Alcotest.int "length" 3 (Chan.length q);
  check Alcotest.(option int) "pop 1" (Some 1) (Chan.try_pop q);
  check Alcotest.(option int) "pop 2" (Some 2) (Chan.try_pop q);
  Chan.push q 4;
  check Alcotest.(option int) "pop 3" (Some 3) (Chan.try_pop q);
  check Alcotest.(option int) "pop 4" (Some 4) (Chan.try_pop q);
  check Alcotest.(option int) "drained" None (Chan.try_pop q)

(* --- pool --- *)

let test_pool_order () =
  (* results land by job index, for any domain count (including more
     domains than jobs, and zero jobs) *)
  List.iter
    (fun domains ->
      let r = Pool.run ~domains 7 (fun i -> i * i) in
      check Alcotest.(list int) "squares in order"
        [ 0; 1; 4; 9; 16; 25; 36 ]
        (Array.to_list r))
    [ 1; 2; 4; 16 ];
  check Alcotest.int "zero jobs" 0 (Array.length (Pool.run ~domains:4 0 (fun i -> i)))

exception Boom of int

let test_pool_exception () =
  (* the lowest-indexed failure surfaces, regardless of scheduling *)
  List.iter
    (fun domains ->
      match
        Pool.run ~domains 8 (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> check Alcotest.int "lowest failure" 2 i)
    [ 1; 4 ]

let test_pool_concurrent_sum () =
  (* jobs visibly run on distinct domains yet the fold over results is
     exact: no job lost, duplicated, or misfiled *)
  let n = 64 in
  let r = Pool.map ~domains:4 (fun i -> i) (List.init n (fun i -> i)) in
  check Alcotest.int "sum" (n * (n - 1) / 2) (List.fold_left ( + ) 0 r)

(* --- merge --- *)

let ev vtime shard seq payload = { Merge.vtime; shard; seq; payload }

let test_merge_tie_order () =
  (* equal vtime: shard id breaks the tie, then per-shard seq *)
  let s0 = [| ev 5L 0 0 "a"; ev 10L 0 1 "b" |] in
  let s1 = [| ev 5L 1 0 "c"; ev 5L 1 1 "d"; ev 7L 1 2 "e" |] in
  let merged = Merge.merge [| s0; s1 |] in
  check Alcotest.(list string) "total order"
    [ "a"; "c"; "d"; "e"; "b" ]
    (Array.to_list (Array.map (fun e -> e.Merge.payload) merged))

let test_merge_rejects_unsorted () =
  let bad = [| ev 10L 0 0 (); ev 5L 0 1 () |] in
  match Merge.merge [| bad |] with
  | _ -> Alcotest.fail "expected invalid_arg"
  | exception Invalid_argument _ -> ()

let test_merge_digest_order_sensitive () =
  let s0 = [| ev 1L 0 0 7; ev 3L 0 1 9 |] in
  let s1 = [| ev 2L 1 0 8 |] in
  let payload = Int64.of_int in
  let d = Merge.digest ~payload (Merge.merge [| s0; s1 |]) in
  (* stream array position is execution detail, not identity: shard ids
     ride in the events, so swapping the arrays merges identically *)
  let d' = Merge.digest ~payload (Merge.merge [| s1; s0 |]) in
  check Alcotest.bool "stream position irrelevant" true (Int64.equal d d');
  let shifted =
    Merge.digest ~payload (Merge.merge [| s0; [| ev 4L 1 0 8 |] |])
  in
  check Alcotest.bool "timeline order included" false (Int64.equal d shifted);
  let tweaked = Merge.digest ~payload (Merge.merge [| s0; [| ev 2L 1 0 99 |] |]) in
  check Alcotest.bool "payload included" false (Int64.equal d tweaked)

let qcheck_merge_sorted =
  (* any set of well-formed shard streams merges into one totally ordered
     timeline that is an exact permutation of its inputs *)
  let gen =
    QCheck.make
      ~print:(fun streams ->
        String.concat ";"
          (List.map
             (fun s -> Printf.sprintf "[%d evs]" (List.length s))
             streams))
      QCheck.Gen.(
        let stream shard =
          list_size (int_bound 20) (pair (int_bound 50) (int_bound 1000))
          >|= fun raw ->
          (* sort raw times, then stamp strictly increasing seq: a
             well-formed per-shard stream by construction *)
          let times = List.sort compare (List.map fst raw) in
          List.mapi
            (fun seq t -> ev (Int64.of_int t) shard seq (List.nth raw seq |> snd))
            times
        in
        int_range 1 5 >>= fun k ->
        let rec build s acc =
          if s >= k then return (List.rev acc)
          else stream s >>= fun st -> build (s + 1) (st :: acc)
        in
        build 0 [])
  in
  QCheck.Test.make ~name:"merge: sorted permutation of inputs" ~count:100 gen
    (fun streams ->
      let arrays = Array.of_list (List.map Array.of_list streams) in
      let merged = Merge.merge arrays in
      (* totally ordered *)
      let sorted = ref true in
      Array.iteri
        (fun i e ->
          if i > 0 && Merge.key_compare merged.(i - 1) e >= 0 then
            sorted := false)
        merged;
      (* permutation: same multiset of events *)
      let flat = List.concat streams in
      let norm l =
        List.sort compare
          (List.map (fun e -> (e.Merge.vtime, e.Merge.shard, e.Merge.seq)) l)
      in
      !sorted && norm flat = norm (Array.to_list merged))

let test_merge_replay () =
  (* replay drives the engine clock to the last completion and delivers
     events in merge order, including same-instant ties *)
  let s0 = [| ev 5L 0 0 "a"; ev 9L 0 1 "d" |] in
  let s1 = [| ev 5L 1 0 "b"; ev 5L 1 1 "c" |] in
  let merged = Merge.merge [| s0; s1 |] in
  let engine = Simnet.Engine.create () in
  let seen = ref [] in
  Merge.replay ~engine merged (fun e -> seen := e.Merge.payload :: !seen);
  check Alcotest.(list string) "replay order" [ "a"; "b"; "c"; "d" ]
    (List.rev !seen);
  check Alcotest.int "makespan" 9 (Int64.to_int (Simnet.Engine.now engine))

(* --- topology --- *)

let test_topology_partition () =
  let shards = 4 and n = 11 in
  let parts = Par.Topology.partition ~shards ~n in
  let all = Array.to_list parts |> Array.concat |> Array.to_list in
  check Alcotest.int "covers every key" n (List.length all);
  check Alcotest.(list int) "each key exactly once"
    (List.init n (fun i -> i))
    (List.sort compare all);
  Array.iteri
    (fun s members ->
      Array.iter
        (fun k ->
          check Alcotest.int "owner agrees" s (Par.Topology.owner ~shards k))
        members)
    parts

(* --- shared-state exactness under concurrent domains --- *)

let test_obs_counters_parallel () =
  (* concurrent bumps from N domains sum exactly: the counters are
     atomic, the table find-or-create is locked *)
  let obs = Obs.Recorder.create () in
  let domains = 4 and per = 10_000 in
  Obs.Recorder.set_enabled obs true;
  let (_ : unit array) =
    Pool.run ~domains domains (fun d ->
        for i = 1 to per do
          Obs.Recorder.incr obs "par.bumps";
          if i mod 2 = 0 then Obs.Recorder.incr obs ~by:d "par.weighted"
        done)
  in
  check Alcotest.int "unit bumps exact" (domains * per)
    (Obs.Recorder.counter obs "par.bumps");
  check Alcotest.int "weighted bumps exact"
    (per / 2 * (domains * (domains - 1) / 2))
    (Obs.Recorder.counter obs "par.weighted")

let qcheck_obs_counters =
  QCheck.Test.make ~name:"obs: concurrent counter bumps sum exactly" ~count:20
    QCheck.(pair (int_range 2 6) (int_range 1 500))
    (fun (domains, per) ->
      let obs = Obs.Recorder.create () in
      Obs.Recorder.set_enabled obs true;
      let (_ : unit array) =
        Pool.run ~domains domains (fun _ ->
            for _ = 1 to per do
              Obs.Recorder.incr obs "qc.bumps"
            done)
      in
      Obs.Recorder.counter obs "qc.bumps" = domains * per)

let test_xid_alloc_parallel () =
  (* xid reservation is a lock-free fetch-and-add: four domains pulling
     from one client never collide *)
  let client =
    Oncrpc.Client.create
      ~transport:(Oncrpc.Record.loopback (fun s -> s))
      ~prog:1 ~vers:1 ()
  in
  let domains = 4 and per = 2_000 in
  let batches =
    Pool.run ~domains domains (fun _ ->
        Array.init per (fun _ -> Oncrpc.Client.alloc_xid client))
  in
  let all = Array.concat (Array.to_list batches) in
  let tbl = Hashtbl.create (domains * per) in
  Array.iter (fun x -> Hashtbl.replace tbl x ()) all;
  check Alcotest.int "all xids distinct" (domains * per) (Hashtbl.length tbl)

(* --- the contract: sharded loadgen is domain-count independent --- *)

let tiny =
  {
    Tenancy.Loadgen.smoke with
    Tenancy.Loadgen.tenants = 48;
    items_per_tenant = 3;
    policies = [ Cricket.Sched.Round_robin ];
  }

let test_loadgen_domain_independent () =
  let render domains =
    Tenancy.Loadgen.to_string
      (Tenancy.Loadgen.run { tiny with Tenancy.Loadgen.domains })
  in
  let one = render 1 in
  check Alcotest.string "domains 2 byte-identical" one (render 2);
  check Alcotest.string "domains 4 byte-identical" one (render 4);
  check Alcotest.string "domains 8 byte-identical" one (render 8)

let test_loadgen_shards_in_digest () =
  (* the shard split is part of the workload definition: changing it is
     allowed to change the timeline (and so the digest), unlike the
     domain count which never may *)
  let run shards =
    match Tenancy.Loadgen.run { tiny with Tenancy.Loadgen.shards } with
    | [ r ] -> r.Tenancy.Loadgen.digest
    | _ -> Alcotest.fail "one policy expected"
  in
  check Alcotest.bool "same shards, same digest" true
    (Int64.equal (run 4) (run 4));
  (* different shard counts interleave tenants differently; the digests
     observably differ for this workload *)
  check Alcotest.bool "different shards may differ" false
    (Int64.equal (run 1) (run 4))

let suite =
  [
    Alcotest.test_case "chan: fifo" `Quick test_chan_fifo;
    Alcotest.test_case "pool: results in job order" `Quick test_pool_order;
    Alcotest.test_case "pool: lowest failure wins" `Quick test_pool_exception;
    Alcotest.test_case "pool: concurrent sum exact" `Quick
      test_pool_concurrent_sum;
    Alcotest.test_case "merge: tie order" `Quick test_merge_tie_order;
    Alcotest.test_case "merge: rejects unsorted" `Quick
      test_merge_rejects_unsorted;
    Alcotest.test_case "merge: digest order+payload" `Quick
      test_merge_digest_order_sensitive;
    QCheck_alcotest.to_alcotest qcheck_merge_sorted;
    Alcotest.test_case "merge: replay into engine" `Quick test_merge_replay;
    Alcotest.test_case "topology: exact partition" `Quick
      test_topology_partition;
    Alcotest.test_case "obs: parallel counters exact" `Quick
      test_obs_counters_parallel;
    QCheck_alcotest.to_alcotest qcheck_obs_counters;
    Alcotest.test_case "oncrpc: parallel xid alloc distinct" `Quick
      test_xid_alloc_parallel;
    Alcotest.test_case "loadgen: byte-identical across domains" `Quick
      test_loadgen_domain_independent;
    Alcotest.test_case "loadgen: shards are workload, not execution" `Quick
      test_loadgen_shards_in_digest;
  ]
