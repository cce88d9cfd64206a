(* Host clock, allocation counter, seeded randomness and summary
   statistics. All wall-clock reads of the benchmark go through [now_ns],
   so the libraries under test stay free of them. *)

let now_ns () = Monotonic_clock.now ()
let since_ns t0 = Int64.to_int (Int64.sub (now_ns ()) t0)
let seconds_since t0 = float_of_int (since_ns t0) /. 1e9

(* Words the benchmark's own speed calibration allocated, and the minor
   collections it forced. It runs on the main domain only, between
   measured windows, so no allocation delta taken anywhere straddles it. *)
let calib_words = ref 0.0
let calib_minors = ref 0

(* Words allocated by this domain so far: minor allocations plus objects
   allocated directly in the major heap (major words that were not
   promoted from the minor heap), less the calibration's. [Gc.minor_words]
   is exact at every call; the minor count of [Gc.counters] jumps at minor
   collections on 5.1, and [Gc.allocated_bytes] lags until the next one. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted -. !calib_words

(* Minor collections so far, less those the calibration forced. *)
let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections - !calib_minors

let word_bytes = float_of_int (Sys.word_size / 8)

(* Host speed. The host this benchmark was built on runs the same code
   up to 1.6x slower in phases of a second to minutes: other load on the
   shared machine, while the process stays on-CPU, so CPU time does not
   help. The slowdown hits allocation- and pointer-heavy code like the
   simulator's; plain arithmetic, cache-resident table updates and large
   copies barely move. [calibrate] times a fixed, benchmark-owned loop of
   the first kind (small tuples, lists, Bytes, a Hashtbl, a Buffer; no
   library code) next to every measured window, and host times are
   reported at reference speed: scaled by [calibration_ref_ns] / the
   calibration time measured next to them. A change to the library moves
   the workload and not the calibration, so it shows at full size.

   The loop keeps nothing alive: a few MiB of extra live data in the
   major heap stall OCaml 5.1's major GC under api-calls, and its heap
   then grows by about 13 MiB per 50 000 steps. Each repeat starts on an
   empty minor heap and allocates well under its size, so its garbage
   dies young and never reaches the major heap; its allocation and forced
   collections are left out of [alloc_words] and [minor_collections]. *)
let calibrate_once () =
  let c0 = (Gc.quick_stat ()).Gc.minor_collections in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let h = Hashtbl.create 1024 in
  for r = 1 to 6 do
    let l = List.init 500 (fun i -> (i, r, Bytes.make 16 'a')) in
    let l = List.map (fun (a, b, c) -> (b, a, Bytes.length c)) l in
    List.iter (fun (a, b, c) -> Hashtbl.replace h ((a * 7919) + b) c) l;
    let buf = Buffer.create 64 in
    for i = 0 to 200 do
      Buffer.add_int32_be buf (Int32.of_int i);
      Buffer.add_string buf "abcdefgh"
    done;
    ignore (Sys.opaque_identity (Buffer.contents buf));
    List.iter (fun (a, b, _) -> ignore (Sys.opaque_identity (Hashtbl.find_opt h ((a * 7919) + b)))) l
  done;
  let ns = Int64.to_int (Int64.sub (now_ns ()) t0) in
  calib_words := !calib_words +. (Gc.minor_words () -. w0);
  calib_minors := !calib_minors + ((Gc.quick_stat ()).Gc.minor_collections - c0);
  ns

(* Median of three, in ns. *)
let calibrate () =
  let a = calibrate_once () and b = calibrate_once () and c = calibrate_once () in
  max (min a b) (min (max a b) c)

(* About [calibrate ()] on the reference host in its slow phase, the
   usual one while the benchmark was tuned; in its fast phase the scale
   reads about 1.5. *)
let calibration_ref_ns = 500_000

(* Factor that turns host times measured next to a fresh calibration
   into times at reference speed. *)
let speed_scale () = float_of_int calibration_ref_ns /. float_of_int (calibrate ())

let scaled scale ns = int_of_float (scale *. float_of_int ns)

(* Seeded generator for workload inputs; [salt] separates the streams of
   one seed. *)
let rng ~seed ~salt = Random.State.make [| 0x5eed; seed; salt |]

(* Seeded payload, 8 bytes per step. *)
let payload ~seed ~salt n =
  let st = rng ~seed ~salt in
  let b = Bytes.create n in
  let words = n / 8 in
  for i = 0 to words - 1 do
    Bytes.set_int64_le b (8 * i) (Random.State.bits64 st)
  done;
  for i = 8 * words to n - 1 do
    Bytes.set b i (Char.chr (Random.State.int st 256))
  done;
  b

(* Growable buffer of per-operation samples, kept off the OCaml heap so
   that the number of samples does not move the heap metrics. *)
module Samples = struct
  open Bigarray

  type t = { mutable data : (int, int_elt, c_layout) Array1.t; mutable len : int }

  let create () = { data = Array1.create int c_layout 4096; len = 0 }

  let add t v =
    if t.len = Array1.dim t.data then begin
      let d = Array1.create int c_layout (2 * t.len) in
      Array1.blit t.data (Array1.sub d 0 t.len);
      t.data <- d
    end;
    Array1.unsafe_set t.data t.len v;
    t.len <- t.len + 1

  let length t = t.len

  (* Sorted copy of [count] samples from [from] (default: all). *)
  let sorted ?(from = 0) ?count t =
    let count = Option.value count ~default:(t.len - from) in
    let a = Array.init count (fun i -> Array1.get t.data (from + i)) in
    Array.sort Int.compare a;
    a
end

(* Nearest-rank quantile of a sorted array; exact, no bucketing. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mib = 1048576.0
let div a b = if b = 0.0 then 0.0 else a /. b
let fdiv a b = div (float_of_int a) (float_of_int b)

(* Run [setup] [n] times and keep the last environment; the reported
   set-up time is the median of the [n] timings, at reference speed. *)
let repeat_setup n setup =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    last := None;
    Gc.full_major ();
    let scale = speed_scale () in
    let t0 = now_ns () in
    let env = setup () in
    times := (scale *. seconds_since t0) :: !times;
    last := Some env
  done;
  match !last with
  | Some env -> (env, median !times)
  | None -> invalid_arg "repeat_setup"

(* Run [f] with the major GC's [space_overhead] set to [pct], for a heap
   that stays closer to the live data than the default lets it. *)
let with_space_overhead pct f =
  let gc = Gc.get () in
  Gc.set { gc with space_overhead = pct };
  Fun.protect ~finally:(fun () -> Gc.set gc) f

(* One run's settings, from the command line. [tiny] shrinks every
   workload for the self-test. *)
type cfg = { seed : int; seconds : float; trace : bool; tiny : bool; domains : int }

(* How a workload runs each client call: directly, or inside the traced
   run's root span. *)
type wrap = { wrap : 'a. string -> (unit -> 'a) -> 'a }

let no_wrap = { wrap = (fun _ f -> f ()) }
