(* What one workload run produces, and how it is printed: readable lines
   first, then one JSON object as the last line of standard output. *)

type metric = { name : string; unit : string; value : float; samples : int }

let m ?(samples = 0) name unit value = { name; unit; value; samples }

(* A workload metric that is one of the end-to-end figures under its own
   name. *)
let renamed ms ~from name unit = { (List.find (fun x -> x.name = from) ms) with name; unit }

type t = {
  workload : string;
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (* every output check, by name *)
  e2e : metric list;  (* the end-to-end metrics every workload reports *)
  named : metric list;  (* this workload's own metrics, host and virtual *)
  layers : metric list;  (* per-layer metrics, traced runs only *)
  exact : (string * string) list;
      (* values that must repeat exactly for a seed: virtual metrics and
         one-domain allocation counts *)
}

let correct r = List.for_all snd r.checks

(* A slice of a run, with the [Util.speed_scale] measured next to it.
   Its op samples are already scaled; [seconds] is as measured.
   Throughput and median are taken per window and the median over
   windows is reported. *)
type window = {
  ops : float;
  seconds : float;  (* as measured *)
  scale : float;
  calls : int;
  first : int;  (* the window's op samples: [first] .. [first + count - 1] *)
  count : int;
}

(* The end-to-end metrics, in BENCHMARK.json order. [op] is each
   workload's unit of work: one API call (api-calls), one MiB of payload
   (bulk-copy), one round of the three verified proxy apps (proxy-apps),
   one offered item (tenants-mix); [op_ns] holds every op's time at
   reference speed. The tail is a high percentile that leaves at least
   ten ops beyond it at the workload's usual op count and does not sit on
   the step between two kinds of op: p99 for api-calls, p99.5 for
   tenants-mix (its 4x compute items are 1 % of items, so p99 falls on
   their edge and jumps by half between seeds), p90 for proxy-apps, p75
   for the 42 transfers of bulk-copy. Where every window holds enough ops
   for it (api-calls, tenants-mix, bulk-copy) it is the median of the
   windows' tails, as the median is; otherwise it is taken over all ops
   of the run. *)
let e2e ~setup_s ~windows ~op_ns ~tail =
  let heap = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. Util.word_bytes /. Util.mib in
  let sorted = Util.Samples.sorted op_ns in
  let n = Array.length sorted in
  let over_windows ~scaled f = Util.median (List.map (fun w -> f w (if scaled then w.scale else 1.0)) windows) in
  let window_tail w = Util.quantile (Util.Samples.sorted ~from:w.first ~count:w.count op_ns) tail in
  let tail_ns =
    if windows <> [] && List.for_all (fun w -> float_of_int w.count *. (1.0 -. tail) >= 10.0) windows then
      int_of_float (Util.median (List.map (fun w -> float_of_int (window_tail w)) windows))
    else Util.quantile sorted tail
  in
  let rate ~scaled f = over_windows ~scaled (fun w s -> Util.div (f w) (s *. w.seconds)) in
  let p50 ~scaled =
    over_windows ~scaled (fun w s ->
        float_of_int (Util.quantile (Util.Samples.sorted ~from:w.first ~count:w.count op_ns) 0.5)
        /. 1e3 *. s /. w.scale)
  in
  ( [
      m "setup_s" "s" setup_s;
      m ~samples:n "ops_per_s" "1/s" (rate ~scaled:true (fun w -> w.ops));
      m ~samples:n "op_p50_us" "us" (p50 ~scaled:true);
      m ~samples:n "op_tail_us" "us" (float_of_int tail_ns /. 1e3);
      m "api_calls_per_s" "calls/s" (rate ~scaled:true (fun w -> float_of_int w.calls));
      m "peak_heap_mib" "MiB" heap;
    ],
    (* the same figures as measured, and the scale between them *)
    [
      m "speed_scale" "ratio" (over_windows ~scaled:true (fun _ s -> s));
      m ~samples:n "ops_per_s_wall" "1/s" (rate ~scaled:false (fun w -> w.ops));
      m ~samples:n "op_p50_us_wall" "us" (p50 ~scaled:false);
    ] )

let pp_metric oc x =
  Printf.fprintf oc "  %-28s %16.6g %s%s\n" x.name x.value x.unit
    (if x.samples > 0 then Printf.sprintf "  (n=%d)" x.samples else "")

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun x -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (json_num x.value) x.unit)
       ms)

let print_human oc r =
  Printf.fprintf oc "workload %s: attempted %d, failed %d, correct %b\n" r.workload r.attempted
    r.failed (correct r);
  List.iter (fun (c, ok) -> if not ok then Printf.fprintf oc "  CHECK FAILED: %s\n" c) r.checks;
  Printf.fprintf oc " end-to-end:\n";
  List.iter (pp_metric oc) r.e2e;
  Printf.fprintf oc " %s metrics:\n" r.workload;
  List.iter (pp_metric oc) r.named;
  Printf.fprintf oc " repeatable for a seed (virtual time; allocation at one domain):\n";
  List.iter (fun (k, v) -> Printf.fprintf oc "  %-28s %16s\n" k v) r.exact;
  if r.layers <> [] then begin
    Printf.fprintf oc " per-layer (traced run):\n";
    List.iter (pp_metric oc) r.layers
  end

(* The driver-facing last line. *)
let print_json oc r ~metrics =
  Printf.fprintf oc "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (correct r) r.attempted r.failed (json_metrics metrics)
