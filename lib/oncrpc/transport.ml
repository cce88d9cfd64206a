type t = {
  send : bytes -> int -> int -> unit;
  recv : bytes -> int -> int -> int;
  close : unit -> unit;
  sendv : (Xdr.Iovec.t -> unit) option;
}

exception Closed
exception Timeout

type connect_error = Resolution_failed of { host : string; port : int }

exception Connect_error of connect_error

let () =
  Printexc.register_printer (function
    | Closed -> Some "Oncrpc.Transport.Closed"
    | Timeout -> Some "Oncrpc.Transport.Timeout"
    | Connect_error (Resolution_failed { host; port }) ->
        Some
          (Printf.sprintf
             "Oncrpc.Transport.Connect_error(Resolution_failed %s:%d)" host
             port)
    | _ -> None)

let make ?sendv ~send ~recv ~close () =
  { send; recv; close; sendv }

let send_string t s = t.send (Bytes.unsafe_of_string s) 0 (String.length s)

(* Vectored write: one gather call when the transport supports it,
   otherwise a per-slice loop over [send]. Either way no slice is blitted
   into an intermediate buffer here — the transport's own copy (socket
   write, queue append) is the only one on this path. *)
let writev t iov =
  match t.sendv with
  | Some f -> f iov
  | None ->
      Xdr.Iovec.iter
        (fun s ->
          t.send
            (Bytes.unsafe_of_string s.Xdr.Iovec.base)
            s.Xdr.Iovec.off s.Xdr.Iovec.len)
        iov

(* One direction of an in-memory pipe: a queue of copied chunks read
   through a cursor, guarded by a mutex, with a condition to block readers
   until data or EOF arrives. *)
module Byte_queue = struct
  type q = {
    data : Xdr.Slice_queue.t;
    mutable closed : bool;
    lock : Mutex.t;
    cond : Condition.t;
  }

  let create () =
    { data = Xdr.Slice_queue.create (); closed = false; lock = Mutex.create ();
      cond = Condition.create () }

  (* All of a gather write lands under one lock acquisition, so a whole
     record (headers + payload views) is appended atomically. The sender
     may reuse its buffers once this returns, so the chunk is a copy. *)
  let pushv q iov =
    let chunk = Xdr.Iovec.concat iov in
    Mutex.lock q.lock;
    if q.closed then begin
      Mutex.unlock q.lock;
      raise Closed
    end;
    Xdr.Slice_queue.push q.data (Xdr.Iovec.of_string chunk);
    Condition.signal q.cond;
    Mutex.unlock q.lock

  let pop q buf off len =
    Mutex.lock q.lock;
    while Xdr.Slice_queue.length q.data = 0 && not q.closed do
      Condition.wait q.cond q.lock
    done;
    let n = Xdr.Slice_queue.pop q.data buf off len in
    Mutex.unlock q.lock;
    n

  let close q =
    Mutex.lock q.lock;
    q.closed <- true;
    Condition.broadcast q.cond;
    Mutex.unlock q.lock
end

let send_of_sendv sendv buf off len = sendv [ Xdr.Iovec.of_bytes ~off ~len buf ]

let pipe () =
  let a_to_b = Byte_queue.create () and b_to_a = Byte_queue.create () in
  let endpoint tx rx =
    let sendv = Byte_queue.pushv tx in
    make ~sendv ~send:(send_of_sendv sendv)
      ~recv:(Byte_queue.pop rx)
      ~close:(fun () ->
        Byte_queue.close tx;
        Byte_queue.close rx)
      ()
  in
  (endpoint a_to_b b_to_a, endpoint b_to_a a_to_b)

let of_fd fd =
  let send buf off len =
    let rec loop off len =
      if len > 0 then begin
        let n =
          try Unix.write fd buf off len
          with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            raise Closed
        in
        loop (off + n) (len - n)
      end
    in
    loop off len
  in
  (* No writev in the Unix module: gather by looping [send] per slice.
     Slices on this path are fragment-sized, so the syscall count matches
     the fragment count, not the byte count. *)
  let sendv iov =
    Xdr.Iovec.iter
      (fun s ->
        send (Bytes.unsafe_of_string s.Xdr.Iovec.base) s.Xdr.Iovec.off
          s.Xdr.Iovec.len)
      iov
  in
  let recv buf off len =
    try Unix.read fd buf off len
    with Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
  in
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  make ~sendv ~send ~recv ~close ()

let tcp_connect ~host ~port =
  let addr =
    match Unix.getaddrinfo host (string_of_int port)
            [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
    | { Unix.ai_addr; _ } :: _ -> ai_addr
    | [] -> raise (Connect_error (Resolution_failed { host; port }))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd addr;
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Unix.close fd;
     raise e);
  of_fd fd
