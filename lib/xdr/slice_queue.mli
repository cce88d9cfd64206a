(** A FIFO of {!Iovec.slice} views read from the front through a cursor.

    Both the TCP send ring and the in-process transports queue bytes this
    way: {!take} carves the front off as views (a segment is cut without
    copying) and {!pop} blits it into a reader's buffer. Consuming the
    front is O(slices touched), never a rebuild of the unread tail. *)

type t

val create : unit -> t

val length : t -> int
(** Unconsumed bytes queued. *)

val push_slice : t -> Iovec.slice -> unit
(** Enqueue a view; the caller must not mutate the underlying storage
    while it is queued (the {!Iovec} contract). *)

val push : t -> Iovec.t -> unit

val push_bytes : t -> bytes -> unit
(** Enqueue a copy of [b] (the caller may reuse [b] afterwards). *)

val take : t -> int -> Iovec.t
(** [take t n] removes and returns the front [n] bytes as slices sharing
    the queued storage. Raises [Invalid_argument] if fewer than [n] bytes
    are queued. *)

val pop : t -> bytes -> int -> int -> int
(** [pop t buf off len] moves up to [len] bytes from the front into
    [buf] and returns how many (0 only when empty). *)

val clear : t -> unit
