let default_fragment_size = 1 lsl 20
let max_fragment_size = 0x7fffffff
let last_fragment_bit = 0x80000000

let encode_header ~last len =
  if len < 0 || len > max_fragment_size then invalid_arg "Record.encode_header";
  let v = if last then len lor last_fragment_bit else len in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int v);
  Bytes.unsafe_to_string b

let decode_word v =
  let v = Int32.to_int v land 0xffffffff in
  (v land last_fragment_bit <> 0, v land max_fragment_size)

let decode_header s =
  if String.length s <> 4 then invalid_arg "Record.decode_header";
  decode_word (String.get_int32_be s 0)

let check_fragment_size n =
  if n < 1 || n > max_fragment_size then
    invalid_arg "Record: fragment_size out of range"

(* Iterate over the [(off, len, last)] fragments of a message. *)
let iter_fragments ~fragment_size msg f =
  let total = String.length msg in
  if total = 0 then f 0 0 true
  else begin
    let rec loop off =
      let len = min fragment_size (total - off) in
      let last = off + len >= total in
      f off len last;
      if not last then loop (off + len)
    in
    loop 0
  end

(* The wire image of an iovec message as an iovec: fragment headers
   interleaved with payload subviews. Nothing is blitted — each header is a
   fresh 4-byte string and every payload byte is reached through a view of
   the caller's original buffers. *)
let wirev ?(fragment_size = default_fragment_size) iov =
  check_fragment_size fragment_size;
  let total = Xdr.Iovec.length iov in
  if total <= fragment_size then
    Xdr.Iovec.slice (encode_header ~last:true total) :: iov
  else begin
    let rec fragments acc rest remaining =
      let len = min fragment_size remaining in
      let last = len = remaining in
      let payload, rest = Xdr.Iovec.split rest len in
      let acc =
        List.rev_append payload
          (Xdr.Iovec.slice (encode_header ~last len) :: acc)
      in
      if last then List.rev acc else fragments acc rest (remaining - len)
    in
    fragments [] iov total
  end

let writev ?fragment_size t iov = Transport.writev t (wirev ?fragment_size iov)

let write ?fragment_size t msg = writev ?fragment_size t (Xdr.Iovec.of_string msg)

let to_wire ?(fragment_size = default_fragment_size) msg =
  check_fragment_size fragment_size;
  let buf = Buffer.create (String.length msg + 16) in
  iter_fragments ~fragment_size msg (fun off len last ->
      Buffer.add_string buf (encode_header ~last len);
      Buffer.add_substring buf msg off len);
  Buffer.contents buf

let default_max_record_size = 1 lsl 30

exception Oversized of { claimed : int; limit : int }
exception Truncated of { buffered : int }

let () =
  Printexc.register_printer (function
    | Oversized { claimed; limit } ->
        Some
          (Printf.sprintf
             "Oncrpc.Record.Oversized: header claims %d bytes (limit %d)"
             claimed limit)
    | Truncated { buffered } ->
        Some
          (Printf.sprintf
             "Oncrpc.Record.Truncated: stream ended %d bytes into a record"
             buffered)
    | _ -> None)

(* The one record splitter. Header bytes stage in [hdr] until [hdr_pos]
   reaches 4; then the fragment's payload goes into [frag] from [pos] to
   [stop]. Fragments before the last stage in [pool] buffers; the last
   header fixes the record's size, so the last fragment lands straight in
   the exactly-sized record, behind the staged ones. *)
module Reassembler = struct
  type t = {
    max_record_size : int;
    pool : Pool.t;
    hdr : bytes;
    mutable hdr_pos : int;  (* 4 inside a fragment *)
    mutable started : bool;  (* a header of the current record was read *)
    mutable last : bool;
    mutable frag : bytes;
    mutable pos : int;
    mutable stop : int;
    mutable got : int;  (* payload bytes of the record so far *)
    mutable staged : (bytes * int) list;  (* pooled fragments, newest first *)
  }

  let create ?(max_record_size = default_max_record_size)
      ?(pool = Pool.default) () =
    { max_record_size; pool; hdr = Bytes.create 4; hdr_pos = 0;
      started = false; last = false; frag = Bytes.empty; pos = 0; stop = 0;
      got = 0; staged = [] }

  let reset t =
    (* inside a fragment before the last, [frag] is a pool buffer *)
    if Bytes.length t.frag > 0 && not t.last then Pool.release t.pool t.frag;
    List.iter (fun (b, _) -> Pool.release t.pool b) t.staged;
    t.staged <- [];
    t.frag <- Bytes.empty;
    t.hdr_pos <- 0;
    t.got <- 0;
    t.started <- false

  let fail t e =
    reset t;
    raise e

  (* A complete header: check its claim before allocating anything, then
     place the fragment. *)
  let header t =
    let last, len = decode_word (Bytes.get_int32_be t.hdr 0) in
    let claimed = t.got + len in
    if claimed > t.max_record_size then
      fail t (Oversized { claimed; limit = t.max_record_size });
    t.started <- true;
    t.last <- last;
    if last then begin
      let record = Bytes.create claimed in
      ignore
        (List.fold_left
           (fun pos (b, used) ->
             Bytes.blit b 0 record (pos - used) used;
             Pool.release t.pool b;
             pos - used)
           t.got t.staged);
      t.staged <- [];
      t.frag <- record;
      t.pos <- t.got
    end
    else begin
      t.frag <- (if len = 0 then Bytes.empty else Pool.acquire t.pool len);
      t.pos <- 0
    end;
    t.stop <- t.pos + len

  (* The current fragment is complete: the record, if it was the last. *)
  let fragment_done t =
    t.hdr_pos <- 0;
    let frag = t.frag in
    t.frag <- Bytes.empty;
    if t.last then begin
      t.got <- 0;
      t.started <- false;
      Some (Bytes.unsafe_to_string frag)
    end
    else begin
      if t.stop > 0 then t.staged <- (frag, t.stop) :: t.staged;
      None
    end

  (* The state machine: input from [fill] (a transport's [recv], or a
     cursor over pushed slices) until a record completes ([Some]) or
     [fill] has nothing more for now ([None]). It never asks for a byte
     past the end of the current header or fragment. *)
  let rec run t fill =
    if t.hdr_pos < 4 then begin
      let n = fill t.hdr t.hdr_pos (4 - t.hdr_pos) in
      if n = 0 then None
      else begin
        t.hdr_pos <- t.hdr_pos + n;
        if t.hdr_pos = 4 then header t;
        run t fill
      end
    end
    else if t.pos < t.stop then begin
      let n = fill t.frag t.pos (t.stop - t.pos) in
      if n = 0 then None
      else begin
        t.pos <- t.pos + n;
        t.got <- t.got + n;
        run t fill
      end
    end
    else match fragment_done t with None -> run t fill | record -> record

  let rec drain t fill f =
    match run t fill with
    | Some record ->
        f record;
        drain t fill f
    | None -> ()

  let pushv t iov f =
    let rest = ref iov and off = ref 0 in
    let rec fill dst pos n =
      match !rest with
      | [] -> 0
      | s :: tl when !off = s.Xdr.Iovec.len ->
          rest := tl;
          off := 0;
          fill dst pos n
      | s :: _ ->
          let k = min n (s.Xdr.Iovec.len - !off) in
          Bytes.blit_string s.Xdr.Iovec.base (s.Xdr.Iovec.off + !off) dst pos k;
          off := !off + k;
          k
    in
    drain t fill f

  let mid_record t = t.started || t.hdr_pos > 0

  let finish t = if mid_record t then fail t (Truncated { buffered = t.got })

  (* One record through [recv], received straight into the record's
     buffers and never past its end. *)
  let pull t recv =
    match run t recv with
    | Some _ as record -> record
    | None -> if mid_record t then fail t Transport.Closed else None
    | exception e -> fail t e
end

let read_opt ?max_record_size ?pool t =
  Reassembler.pull
    (Reassembler.create ?max_record_size ?pool ())
    t.Transport.recv

let read ?max_record_size ?pool t =
  match read_opt ?max_record_size ?pool t with
  | Some record -> record
  | None -> raise Transport.Closed

(* Requests are reassembled as they are written, straight from the
   client's payload views; no flattened request stream is kept. The first
   read dispatches them; each reply is framed as header slices around
   views of the reply string and read out through a cursor. *)
let loopback dispatch =
  let rx = Reassembler.create () and requests = Queue.create () in
  let replies = Xdr.Slice_queue.create () in
  let closed = ref false and dropped = ref false in
  let enqueue r = Queue.push r requests in
  (* A reject leaves the stream out of record alignment, so the server
     drops the connection after it, as a real one would: the records
     before it are still served, then the stream ends. *)
  let reject e =
    dropped := true;
    raise e
  in
  let sendv iov =
    if !closed || !dropped then raise Transport.Closed;
    try Reassembler.pushv rx iov enqueue with Oversized _ as e -> reject e
  in
  let recv buf off len =
    if !closed then 0
    else begin
      if Xdr.Slice_queue.length replies = 0 then begin
        let served = not (Queue.is_empty requests) in
        while not (Queue.is_empty requests) do
          match dispatch (Queue.take requests) with
          | "" -> () (* one-way call: no reply record *)
          | reply ->
              Xdr.Slice_queue.push replies (wirev (Xdr.Iovec.of_string reply))
        done;
        if not !dropped then begin
          (* a reply is wanted, so a partial request can never complete *)
          (try Reassembler.finish rx with Truncated _ as e -> reject e);
          if not served then raise Transport.Closed
        end
      end;
      Xdr.Slice_queue.pop replies buf off len
    end
  in
  Transport.make ~sendv ~send:(Transport.send_of_sendv sendv) ~recv
    ~close:(fun () -> closed := true)
    ()
