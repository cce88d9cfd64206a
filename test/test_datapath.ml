(* The record datapath: one reassembler behind every receiver of
   record-marked bytes, channels that do not re-copy what they deliver,
   and word-at-a-time arena blits. *)

let check = Alcotest.check
let max_claim = Oncrpc.Record.max_fragment_size

(* --- reassembler equivalence ------------------------------------------ *)

type reject = Oversized | Truncated

let reject_name = function Oversized -> "Oversized" | Truncated -> "Truncated"

(* What a receiver made of a stream: its records, then how it stopped. *)
type outcome = string list * reject option

let show_outcome (records, reject) =
  Printf.sprintf "[%s] %s"
    (String.concat "; " (List.map (Printf.sprintf "%S") records))
    (Option.fold ~none:"clean" ~some:reject_name reject)

(* A stream: records framed with chosen fragment lengths (zero-length
   non-last fragments included), then optionally cut short or given a
   header claiming 2^31 - 1 bytes, then split into writes of chunks. *)
type stream = {
  wire : string;
  writes : string list list;  (* each write is a gather of chunks *)
}

let frame record cuts =
  let b = Buffer.create (String.length record + 16) in
  let rec go pos = function
    | [] ->
        Buffer.add_string b
          (Oncrpc.Record.encode_header ~last:true (String.length record - pos));
        Buffer.add_substring b record pos (String.length record - pos)
    | c :: rest ->
        Buffer.add_string b (Oncrpc.Record.encode_header ~last:false (c - pos));
        Buffer.add_substring b record pos (c - pos);
        go c rest
  in
  go 0 cuts;
  Buffer.contents b

let gen_stream =
  let open QCheck.Gen in
  let gen_record =
    let* len = frequency [ (6, int_range 0 64); (3, int_range 65 700); (1, return 0) ] in
    let* s = string_size ~gen:char (return len) in
    let* ncuts = int_range 0 3 in
    let* cuts = list_repeat ncuts (int_range 0 len) in
    return (frame s (List.sort compare cuts))
  in
  let* records = list_size (int_range 0 5) gen_record in
  let clean = String.concat "" records in
  let* wire =
    frequency
      [
        (3, return clean);
        ( 2,
          (* truncated tail *)
          if clean = "" then return clean
          else
            map (fun cut -> String.sub clean 0 cut)
              (int_range 0 (String.length clean - 1)) );
        ( 1,
          (* a header claiming 2^31 - 1 bytes at a record boundary *)
          let* at = int_range 0 (List.length records) in
          let* last = bool in
          let before = List.filteri (fun i _ -> i < at) records
          and after = List.filteri (fun i _ -> i >= at) records in
          return
            (String.concat ""
               (before @ [ Oncrpc.Record.encode_header ~last max_claim ] @ after)) );
      ]
  in
  let* one_byte = frequency [ (1, return true); (4, return false) ] in
  let rec chunks pos acc =
    if pos >= String.length wire then return (List.rev acc)
    else
      let* n =
        if one_byte then return 1
        else frequency [ (2, int_range 1 3); (3, int_range 1 64); (1, int_range 1 1024) ]
      in
      let n = min n (String.length wire - pos) in
      chunks (pos + n) (String.sub wire pos n :: acc)
  in
  let* cs = chunks 0 [] in
  let rec group acc = function
    | [] -> return (List.rev acc)
    | cs ->
        let* k = int_range 1 4 in
        let w = List.filteri (fun i _ -> i < k) cs
        and rest = List.filteri (fun i _ -> i >= k) cs in
        group (w :: acc) rest
  in
  let* writes = group [] cs in
  return { wire; writes }

let arb_stream =
  QCheck.make gen_stream ~print:(fun s ->
      Printf.sprintf "wire=%S writes=%d" s.wire (List.length s.writes))

(* The reference: the whole stream at once, header by header. A record
   is open from its first header on, even if every fragment so far was
   empty. *)
let reference wire : outcome =
  let limit = 1 lsl 30 and n = String.length wire in
  let rec go pos open_ sofar frags acc =
    if pos = n then (List.rev acc, if open_ then Some Truncated else None)
    else if pos + 4 > n then (List.rev acc, Some Truncated)
    else
      let last, len = Oncrpc.Record.decode_header (String.sub wire pos 4) in
      if sofar + len > limit then (List.rev acc, Some Oversized)
      else if pos + 4 + len > n then (List.rev acc, Some Truncated)
      else
        let frags = String.sub wire (pos + 4) len :: frags in
        if last then
          go (pos + 4 + len) false 0 [] (String.concat "" (List.rev frags) :: acc)
        else go (pos + 4 + len) true (sofar + len) frags acc
  in
  go 0 false 0 [] []

let typed f =
  match f () with
  | () -> None
  | exception Oncrpc.Record.Oversized _ -> Some Oversized
  | exception Oncrpc.Record.Truncated _ -> Some Truncated

let via_reassembler s : outcome =
  let r = Oncrpc.Record.Reassembler.create () in
  let got = ref [] in
  let f record = got := record :: !got in
  let reject =
    typed (fun () ->
        List.iter
          (fun cs ->
            Oncrpc.Record.Reassembler.pushv r (List.map Xdr.Iovec.slice cs) f)
          s.writes;
        Oncrpc.Record.Reassembler.finish r)
  in
  (List.rev !got, reject)

let write t = function
  | [ c ] -> Oncrpc.Transport.send_string t c
  | cs -> Oncrpc.Transport.writev t (List.map Xdr.Iovec.slice cs)

(* [Record.read] over a pipe reports end of stream inside a record as
   [Transport.Closed], its documented contract: that is the truncation. *)
let via_pipe s : outcome =
  let a, b = Oncrpc.Transport.pipe () in
  List.iter (write a) s.writes;
  a.Oncrpc.Transport.close ();
  let rec loop acc =
    match Oncrpc.Record.read_opt b with
    | Some r -> loop (r :: acc)
    | None -> (List.rev acc, None)
    | exception Oncrpc.Transport.Closed -> (List.rev acc, Some Truncated)
    | exception Oncrpc.Record.Oversized _ -> (List.rev acc, Some Oversized)
  in
  loop []

(* Channels: every record goes to a dispatch that records it and answers
   nothing (a one-way call), then the client asks for a reply. *)
let via_channel make s : outcome =
  let got = ref [] in
  let t =
    make (fun record ->
        got := record :: !got;
        "")
  in
  let send_reject =
    typed (fun () -> List.iter (write t) s.writes)
  in
  let recv_reject =
    typed (fun () ->
        match t.Oncrpc.Transport.recv (Bytes.create 4) 0 4 with
        | 0 -> ()
        | _ -> Alcotest.fail "reply to a one-way record"
        | exception (Oncrpc.Transport.Closed | Oncrpc.Transport.Timeout) -> ())
  in
  (List.rev !got, match send_reject with Some _ -> send_reject | None -> recv_reject)

let local = Cricket.Local.transport_of_dispatch

let simchannel dispatch =
  let engine = Simnet.Engine.create () in
  Unikernel.Simchannel.transport
    (Unikernel.Simchannel.create ~engine
       ~client:Unikernel.Config.hermit.profile ~dispatch ())

let tcpchannel dispatch =
  let engine = Simnet.Engine.create () in
  Unikernel.Tcpchannel.transport
    (Unikernel.Tcpchannel.create ~engine
       ~client:Unikernel.Config.hermit.profile ~dispatch ())

let prop_equivalence =
  QCheck.Test.make ~count:300 ~name:"every receiver splits records alike"
    arb_stream (fun s ->
      let want = reference s.wire in
      let agree ?(want = want) name got =
        if got <> want then
          QCheck.Test.fail_reportf "%s: %s, reference: %s" name
            (show_outcome got) (show_outcome want)
      in
      agree "reassembler" (via_reassembler s);
      agree "Record.read over a pipe" (via_pipe s);
      agree "Local" (via_channel local s);
      agree "Simchannel" (via_channel simchannel s);
      (* An open TCP stream has no end, so a cut-off record is no error
         there: the channel holds the partial tail. *)
      let records, reject = want in
      agree "Tcpchannel"
        ~want:(if reject = Some Truncated then (records, None) else want)
        (via_channel tcpchannel s);
      true)

(* A fragment header claiming 2^31 - 1 bytes is refused from the header,
   on every channel, and reaches the client as the typed error. *)
let test_claim_reaches_client_typed () =
  let server =
    Cricket.Server.create
      ~clock:(Cudasim.Context.engine_clock (Simnet.Engine.create ()))
      ()
  in
  List.iter
    (fun (name, make) ->
      let t = make (Cricket.Server.dispatch server) in
      match
        Oncrpc.Transport.send_string t (Oncrpc.Record.encode_header ~last:true max_claim);
        ignore (Oncrpc.Record.read t)
      with
      | () -> Alcotest.failf "%s accepted the claim" name
      | exception Oncrpc.Record.Oversized { claimed; _ } ->
          check Alcotest.int (name ^ " claim") max_claim claimed)
    [ ("Local", local); ("Simchannel", simchannel); ("Tcpchannel", tcpchannel) ]

(* A client that stops mid-record and asks for a reply gets the typed
   truncation, not an exception from inside the channel. *)
let test_truncated_request_typed () =
  let server =
    Cricket.Server.create
      ~clock:(Cudasim.Context.engine_clock (Simnet.Engine.create ()))
      ()
  in
  List.iter
    (fun (name, make) ->
      let t = make (Cricket.Server.dispatch server) in
      match
        Oncrpc.Transport.send_string t (Oncrpc.Record.encode_header ~last:true 100);
        Oncrpc.Transport.send_string t "only part of it";
        ignore (Oncrpc.Record.read t)
      with
      | () -> Alcotest.failf "%s answered a partial record" name
      | exception Oncrpc.Record.Truncated { buffered } ->
          check Alcotest.int (name ^ " buffered") 15 buffered)
    [ ("Local", local); ("Simchannel", simchannel) ]

(* A reject drops the connection, as a server closing it would: the
   bytes after a refused header are not record-aligned, so nothing written
   after it is dispatched, and it all reads as [Transport.Closed]. *)
let test_reject_drops_connection () =
  let well_formed = Oncrpc.Record.to_wire "looks like a record" in
  let first_error steps =
    let rec go = function
      | [] -> "none"
      | step :: rest -> (
          match step () with
          | () -> go rest
          | exception Oncrpc.Record.Oversized _ -> "Oversized"
          | exception Oncrpc.Record.Truncated _ -> "Truncated"
          | exception Oncrpc.Transport.Closed -> "Closed")
    in
    go steps
  in
  let sim = ref None in
  let simchannel dispatch =
    let ch =
      Unikernel.Simchannel.create ~engine:(Simnet.Engine.create ())
        ~client:Unikernel.Config.hermit.profile ~dispatch ()
    in
    sim := Some ch;
    Unikernel.Simchannel.transport ch
  in
  let cases =
    [ ("Local", local, [ "Oversized"; "Truncated" ]);
      ("Simchannel", simchannel, [ "Oversized"; "Truncated" ]);
      (* an open TCP stream holds a partial tail instead of rejecting it *)
      ("Tcpchannel", tcpchannel, [ "Oversized" ]) ]
  in
  List.iter
    (fun (name, make, rejects) ->
      List.iter
        (fun reject ->
          let dispatched = ref 0 in
          let t =
            make (fun record ->
                incr dispatched;
                record)
          in
          let write s () = Oncrpc.Transport.send_string t s in
          let read () = ignore (Oncrpc.Record.read t) in
          let bad =
            if reject = "Oversized" then
              Oncrpc.Record.encode_header ~last:true max_claim ^ well_formed
            else Oncrpc.Record.encode_header ~last:true 100 ^ "part"
          in
          let case = Printf.sprintf "%s after %s" name reject in
          check Alcotest.string (case ^ ": reject") reject
            (first_error [ write bad; read ]);
          check Alcotest.string (case ^ ": later write") "Closed"
            (first_error [ write well_formed; read ]);
          check Alcotest.string (case ^ ": later read") "Closed"
            (first_error [ read ]);
          check Alcotest.int (case ^ ": dispatched") 0 !dispatched;
          match (name, !sim) with
          | "Simchannel", Some ch ->
              (* A refused write never reaches the link, so none of its
                 bytes is charged or counted; a request cut short did
                 cross it, in the exchange that found the cut. *)
              let messages, sent =
                if reject = "Oversized" then (1, 0) else (2, String.length bad)
              in
              let t = Unikernel.Simchannel.reconnect ch in
              Oncrpc.Transport.send_string t well_formed;
              check Alcotest.string (case ^ ": reconnected")
                "looks like a record" (Oncrpc.Record.read t);
              let st = Unikernel.Simchannel.stats ch in
              check Alcotest.int (case ^ ": messages") messages
                st.Unikernel.Simchannel.messages;
              check Alcotest.int (case ^ ": bytes to server")
                (sent + String.length well_formed)
                st.Unikernel.Simchannel.bytes_to_server
          | _ -> ())
        rejects)
    cases

(* --- linear scaling ---------------------------------------------------- *)

(* Allocation at one domain, which is deterministic: minor words plus
   words allocated straight into the major heap. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Bytes allocated per payload byte for one h2d + d2h round trip of [n]
   bytes, after a warm-up round trip of the same size. *)
let bytes_per_byte client ptr n =
  let data = Bytes.init n (fun i -> Char.chr ((i * 31) land 0xff)) in
  let round () =
    Cricket.Client.memcpy_h2d client ~dst:ptr data;
    let back = Cricket.Client.memcpy_d2h client ~src:ptr ~len:n in
    if not (Bytes.equal back data) then Alcotest.fail "round trip corrupted"
  in
  round ();
  let w0 = alloc_words () in
  round ();
  (alloc_words () -. w0) *. float_of_int (Sys.word_size / 8) /. float_of_int (2 * n)

let test_linear_scaling () =
  let top = 16 lsl 20 in
  List.iter
    (fun (name, make) ->
      let engine = Simnet.Engine.create () in
      let server =
        Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) ()
      in
      Cudasim.Context.set_functional (Cricket.Server.context server) true;
      let client =
        Cricket.Client.create ~transport:(make engine (Cricket.Server.dispatch server)) ()
      in
      let ptr = Cricket.Client.malloc client top in
      let small = bytes_per_byte client ptr (1 lsl 20) in
      let large = bytes_per_byte client ptr top in
      if large > 1.25 *. small then
        Alcotest.failf "%s: %.2f B/B at 16 MiB vs %.2f B/B at 1 MiB" name large small)
    [
      ("Local", fun _ dispatch -> local dispatch);
      ( "Simchannel",
        fun engine dispatch ->
          Unikernel.Simchannel.transport
            (Unikernel.Simchannel.create ~engine
               ~client:Unikernel.Config.hermit.profile ~dispatch ()) );
    ]

(* --- arena blits against the bytewise reference ------------------------- *)

(* The bytewise blits the word-at-a-time ones replaced, kept as the
   oracle: a mirror of the arena is maintained with them. *)
let ref_blit_in mirror pos data =
  for i = 0 to Bytes.length data - 1 do
    Bytes.set mirror (pos + i) (Bytes.get data i)
  done

let ref_sub mirror pos len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Bytes.get mirror (pos + i))
  done;
  b

(* Little-endian word at [pos], assembled a byte at a time. *)
let ref_word mirror pos n =
  let v = ref 0L in
  for i = n - 1 downto 0 do
    let byte = Int64.of_int (Char.code (Bytes.get mirror (pos + i))) in
    v := Int64.logor (Int64.shift_left !v 8) byte
  done;
  !v

let page = Gpusim.Memory.page_size

let gen_ops =
  let open QCheck.Gen in
  let op =
    let* off = int_range 0 (3 * page) in
    let* len = frequency [ (8, int_range 0 64); (1, return (page + 13)) ] in
    let* seed = int_bound 255 in
    return (off, len, seed)
  in
  let read = pair (int_range 0 (4 * page)) (int_range 0 64) in
  pair (list_size (int_range 1 12) op) (list_size (int_range 1 8) read)

let prop_arena_blits =
  QCheck.Test.make ~count:200 ~name:"arena blits equal the bytewise reference"
    (QCheck.make gen_ops) (fun (writes, reads) ->
      let size = 4 * page + 77 in
      let mem = Gpusim.Memory.create ~capacity:(size + 4096) in
      let ptr = Gpusim.Memory.alloc mem size in
      let mirror = Bytes.make size '\000' in
      let base = Gpusim.Memory.snapshot mem in
      Gpusim.Memory.set_tracking mem true;
      let pages = Hashtbl.create 8 in
      List.iter
        (fun (off, len, seed) ->
          let len = min len (size - off) in
          let data =
            Bytes.init len (fun i -> Char.chr ((seed + (i * 7)) land 0xff))
          in
          (* 4- and 8-byte writes go through the scalar stores *)
          (match len with
          | 4 ->
              Gpusim.Memory.set_i32 mem (ptr + off)
                (Int64.to_int32 (ref_word data 0 4))
          | 8 ->
              Gpusim.Memory.set_f64 mem (ptr + off)
                (Int64.float_of_bits (ref_word data 0 8))
          | _ -> Gpusim.Memory.write mem (ptr + off) data);
          ref_blit_in mirror off data;
          if len > 0 then
            for p = (ptr + off) / page to (ptr + off + len - 1) / page do
              Hashtbl.replace pages p ()
            done)
        writes;
      let same name m =
        if not (Bytes.equal (Gpusim.Memory.read m ptr size) mirror) then
          QCheck.Test.fail_reportf "%s differs from the reference" name;
        List.iter
          (fun (off, len) ->
            let len = min len (size - off) in
            let got = Gpusim.Memory.read m (ptr + off) len in
            if not (Bytes.equal got (ref_sub mirror off len)) then
              QCheck.Test.fail_reportf "%s: read at +%d, %d bytes" name off len;
            let i32 () = Gpusim.Memory.get_i32 m (ptr + off)
            and f64 () = Gpusim.Memory.get_f64 m (ptr + off) in
            if off + 8 <= size
               && (i32 () <> Int64.to_int32 (ref_word mirror off 4)
                  || Int64.bits_of_float (f64 ()) <> ref_word mirror off 8)
            then QCheck.Test.fail_reportf "%s: scalar load at +%d" name off)
          reads
      in
      same "write/read" mem;
      same "restore" (Gpusim.Memory.restore (Gpusim.Memory.snapshot mem));
      if Gpusim.Memory.dirty_page_count mem <> Hashtbl.length pages then
        QCheck.Test.fail_reportf "dirty pages: %d, reference %d"
          (Gpusim.Memory.dirty_page_count mem) (Hashtbl.length pages);
      (* every written page is in the delta, and nothing else is counted *)
      let delta = Gpusim.Memory.delta mem in
      let target = Gpusim.Memory.restore base in
      Gpusim.Memory.set_tracking target true;
      (match Gpusim.Memory.apply_delta target delta with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "apply_delta: %s" e);
      if Gpusim.Memory.dirty_page_count target <> Hashtbl.length pages then
        QCheck.Test.fail_reportf "applied dirty pages: %d, reference %d"
          (Gpusim.Memory.dirty_page_count target) (Hashtbl.length pages);
      same "apply_delta" target;
      true)

let suite =
  [
    Alcotest.test_case "oversized claim reaches the client typed" `Quick
      test_claim_reaches_client_typed;
    Alcotest.test_case "truncated request reaches the client typed" `Quick
      test_truncated_request_typed;
    Alcotest.test_case "a reject drops the connection" `Quick
      test_reject_drops_connection;
    Alcotest.test_case "h2d+d2h allocation scales linearly" `Quick
      test_linear_scaling;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_equivalence; prop_arena_blits ]
