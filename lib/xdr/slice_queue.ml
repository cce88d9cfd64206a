(* A deque of immutable slices plus the bytes already consumed from the
   head slice. Queueing and consuming the front are both O(slices
   touched): nothing is ever rebuilt from the unread tail. *)

type t = {
  q : Iovec.slice Queue.t;
  mutable head_off : int;
  mutable length : int;
}

let create () = { q = Queue.create (); head_off = 0; length = 0 }
let length t = t.length

let push_slice t (s : Iovec.slice) =
  if s.Iovec.len > 0 then begin
    Queue.add s t.q;
    t.length <- t.length + s.Iovec.len
  end

let push t iov = List.iter (push_slice t) iov

let push_bytes t b =
  if Bytes.length b > 0 then push_slice t (Iovec.slice (Bytes.to_string b))

(* Drop [k] bytes of the head slice. *)
let advance t (s : Iovec.slice) k =
  if t.head_off + k = s.Iovec.len then begin
    ignore (Queue.pop t.q);
    t.head_off <- 0
  end
  else t.head_off <- t.head_off + k;
  t.length <- t.length - k

let take t n =
  if n < 0 || n > t.length then invalid_arg "Slice_queue.take";
  let rec loop acc n =
    if n = 0 then List.rev acc
    else begin
      let s = Queue.peek t.q in
      let k = min n (s.Iovec.len - t.head_off) in
      let piece = Iovec.sub_slice s t.head_off k in
      advance t s k;
      loop (piece :: acc) (n - k)
    end
  in
  loop [] n

let pop t buf off len =
  let rec loop pos n =
    if n = 0 || t.length = 0 then pos - off
    else begin
      let s = Queue.peek t.q in
      let k = min n (s.Iovec.len - t.head_off) in
      Bytes.blit_string s.Iovec.base (s.Iovec.off + t.head_off) buf pos k;
      advance t s k;
      loop (pos + k) (n - k)
    end
  in
  loop off len

let clear t =
  Queue.clear t.q;
  t.head_off <- 0;
  t.length <- 0
