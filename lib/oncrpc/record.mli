(** RFC 5531 §11 record marking.

    On stream transports every RPC message is sent as a {e record} composed
    of one or more {e fragments}. Each fragment is preceded by a 4-byte
    big-endian header whose most significant bit marks the last fragment of
    the record and whose remaining 31 bits give the fragment length.

    Multi-fragment support is load-bearing here: Cricket transfers GPU
    memory inside RPC arguments, so records routinely exceed any reasonable
    single-fragment limit. (The pre-existing Rust [onc_rpc] crate lacked
    exactly this, which is why the paper built RPC-Lib.)

    The tx path is scatter-gather: {!writev} frames an {!Xdr.Iovec.t}
    message by interleaving header slices with payload {e views}, so bulk
    payloads reach the transport without ever being blitted at this layer.
    The rx path is one splitter, {!Reassembler}, shared by {!read} and by
    every channel that receives record-marked bytes. *)

val default_fragment_size : int
(** Fragment payload size used when none is given (1 MiB). *)

val max_fragment_size : int
(** Protocol maximum for one fragment: [2^31 - 1] bytes. *)

val writev : ?fragment_size:int -> Transport.t -> Xdr.Iovec.t -> unit
(** [writev t iov] sends the message described by [iov] as a record,
    splitting it into fragments of at most [fragment_size] bytes. Wire
    bytes are identical to [write t (Xdr.Iovec.concat iov)], but no payload
    byte is copied above the transport. An empty message is sent as a
    single empty last fragment. Raises [Invalid_argument] if
    [fragment_size] is not in [1 .. max_fragment_size]. *)

val write : ?fragment_size:int -> Transport.t -> string -> unit
(** [write t msg] is [writev t (Xdr.Iovec.of_string msg)]. *)

val wirev : ?fragment_size:int -> Xdr.Iovec.t -> Xdr.Iovec.t
(** The wire image {!writev} would send, as an iovec sharing the payload's
    storage (headers are the only fresh allocations). *)

exception Oversized of { claimed : int; limit : int }
(** A fragment header claimed a size that would take the record past
    [max_record_size]. Raised from the header alone, {e before} any buffer
    for the claimed bytes is allocated, so an adversarial length field
    cannot reserve unbounded memory. *)

exception Truncated of { buffered : int }
(** The byte stream ended inside a record, [buffered] payload bytes into
    it. *)

(** Incremental record splitter. Feed it slices as they arrive, in any
    split (one byte at a time, headers cut in half, zero-length
    fragments), and it calls back with each completed record, in order,
    as an exactly-sized string that shares nothing with the input.
    Fragments before the last stage in {!Pool} buffers; the last lands
    straight in the record once its header fixes the size. *)
module Reassembler : sig
  type t

  val create : ?max_record_size:int -> ?pool:Pool.t -> unit -> t
  (** [max_record_size] defaults to 1 GiB, [pool] to {!Pool.default}. *)

  val pushv : t -> Xdr.Iovec.t -> (string -> unit) -> unit
  (** [pushv t iov f] consumes all of [iov] and calls [f] on each record
      it completes. Raises {!Oversized} from the header of a fragment
      that would take its record past [max_record_size], before
      allocating anything for it; the partial record is discarded. *)

  val finish : t -> unit
  (** The input has ended, or a reply is wanted from a strictly
      request/response peer: raises {!Truncated}, discarding the partial
      record, if the last push stopped inside one. *)

  val reset : t -> unit
  (** Discard any partial record and release its pool buffers. *)
end

val read : ?max_record_size:int -> ?pool:Pool.t -> Transport.t -> string
(** [read t] reassembles the next record with {!Reassembler}, receiving
    straight into its buffers (staging in [pool], default
    {!Pool.default}) and never past the end of the record. Raises
    {!Transport.Closed} on end of stream mid-record (or before any
    fragment), and {!Oversized} if a header-claimed size would exceed
    [max_record_size] (default 1 GiB). *)

val read_opt :
  ?max_record_size:int -> ?pool:Pool.t -> Transport.t -> string option
(** Like {!read} but returns [None] when the stream ends cleanly before the
    first header byte — the normal way a peer hangs up between records. *)

val loopback : (string -> string) -> Transport.t
(** [loopback dispatch] is a client-side transport for strictly
    request/response protocols in a single thread: each record written is
    reassembled as it arrives, and the first read after one or more
    writes passes them in order to [dispatch], whose non-empty results are
    read back as reply records ([""] means a one-way call: no reply). A
    read with nothing written raises {!Transport.Closed}; a read while a
    record is only partly written serves the complete ones, then raises
    {!Truncated}. After {!Oversized} or {!Truncated} the connection is
    dropped: writes raise {!Transport.Closed}, and reads return the
    replies to the records before the reject, then end of stream. *)

(** {1 Pure helpers (unit-testable without transports)} *)

val encode_header : last:bool -> int -> string
(** 4-byte fragment header. *)

val decode_header : string -> bool * int
(** [decode_header s] is [(last, length)]; [s] must be 4 bytes. *)

val to_wire : ?fragment_size:int -> string -> string
(** The exact bytes {!write} would put on the wire, built contiguously.
    This is the pre-vectorisation (copying) framing path, kept as the
    reference implementation: property tests assert {!writev} emits
    byte-identical output, and the datapath benchmarks measure the two
    against each other. *)
