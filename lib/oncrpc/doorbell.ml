(* Doorbell-style batching of small wire records.

   The RPCAcc observation: in the small-call regime the per-submit cost
   (syscall, vmexit, per-packet work) dominates, so the guest should
   coalesce N call records into one device submit and ring the doorbell
   once. This module wraps an {!Transport.t}: writes are staged into a
   pending batch, and the batch goes to the underlying transport as ONE
   vectored send when the flush policy fires — on record count, on byte
   volume, on a virtual-time deadline armed when the batch opens, or
   unconditionally before a [recv] blocks (a reply cannot arrive for a
   call that was never submitted).

   The staged copy is deliberate and matches the channel's sk_buff
   contract: the encoder reuses its buffers as soon as a call returns, so
   slices must be materialized into the batch buffer at stage time.

   Retransmissions compose naturally: a retried call re-enters the current
   (fresh) batch with its original xid, so the server's at-most-once dup
   cache still recognizes it — pinned by the fault-plan tests. *)

type policy = {
  max_records : int;  (** flush when the batch holds this many records *)
  max_bytes : int;  (** flush when the batch holds this many bytes *)
  deadline_ns : int64 option;
      (** flush at [open + deadline] in virtual time (needs [schedule]) *)
}

let default_policy =
  { max_records = 32; max_bytes = 64 * 1024; deadline_ns = None }

type flush_cause = Records | Bytes | Deadline | Recv | Explicit

type stats = {
  flushes : int;
  flush_records : int;  (** count-triggered flushes *)
  flush_bytes : int;
  flush_deadline : int;
  flush_recv : int;
  batched : int;  (** total records staged *)
  max_batch : int;  (** largest batch flushed, in records *)
}

type t = {
  inner : Transport.t;
  policy : policy;
  schedule : (int64 -> (unit -> unit) -> unit) option;
      (* [schedule delay_ns k]: run [k] after [delay_ns] of virtual time *)
  buf : Buffer.t;
  mutable records : int;
  mutable generation : int;
      (* bumped on every flush so a pending deadline callback armed for an
         already-flushed batch recognizes itself as stale *)
  mutable stats : stats;
  mutable obs : Obs.Recorder.t;
  mutable transport : Transport.t;
}

let zero_stats =
  { flushes = 0; flush_records = 0; flush_bytes = 0; flush_deadline = 0;
    flush_recv = 0; batched = 0; max_batch = 0 }

let flush_counts t cause n =
  let s = t.stats in
  let s =
    match cause with
    | Records -> { s with flush_records = s.flush_records + 1 }
    | Bytes -> { s with flush_bytes = s.flush_bytes + 1 }
    | Deadline -> { s with flush_deadline = s.flush_deadline + 1 }
    | Recv -> { s with flush_recv = s.flush_recv + 1 }
    | Explicit -> s
  in
  t.stats <-
    { s with flushes = s.flushes + 1; max_batch = max s.max_batch n }

let flush_as t cause =
  if t.records > 0 then begin
    let batch = Buffer.contents t.buf in
    let n = t.records in
    Buffer.clear t.buf;
    t.records <- 0;
    t.generation <- t.generation + 1;
    flush_counts t cause n;
    Obs.Recorder.incr t.obs "rpc.doorbell_flush";
    Obs.Recorder.observe t.obs "rpc.batch_occupancy" (Int64.of_int n);
    (* one submit for the whole batch — the single doorbell ring *)
    Transport.writev t.inner (Xdr.Iovec.of_string batch)
  end

let arm_deadline t =
  match (t.policy.deadline_ns, t.schedule) with
  | Some d, Some schedule ->
      let gen = t.generation in
      schedule d (fun () ->
          if t.generation = gen && t.records > 0 then flush_as t Deadline)
  | _ -> ()

let stage t iov =
  if t.records = 0 then arm_deadline t;
  Xdr.Iovec.iter
    (fun s ->
      Buffer.add_substring t.buf s.Xdr.Iovec.base s.Xdr.Iovec.off
        s.Xdr.Iovec.len)
    iov;
  t.records <- t.records + 1;
  t.stats <- { t.stats with batched = t.stats.batched + 1 };
  if t.records >= t.policy.max_records then flush_as t Records
  else if Buffer.length t.buf >= t.policy.max_bytes then flush_as t Bytes

let wrap ?(policy = default_policy) ?schedule inner =
  if policy.max_records < 1 || policy.max_bytes < 1 then
    invalid_arg "Doorbell.wrap";
  let t =
    { inner; policy; schedule; buf = Buffer.create 4096; records = 0;
      generation = 0; stats = zero_stats; obs = Obs.Recorder.null;
      transport = inner }
  in
  let sendv iov = stage t iov in
  let send = Transport.send_of_sendv sendv in
  let recv buf off len =
    flush_as t Recv;
    t.inner.Transport.recv buf off len
  in
  let close () =
    flush_as t Explicit;
    t.inner.Transport.close ()
  in
  t.transport <- Transport.make ~sendv ~send ~recv ~close ();
  t

let transport t = t.transport
let flush t = flush_as t Explicit
let pending_records t = t.records
let pending_bytes t = Buffer.length t.buf
let stats t = t.stats
let set_obs t obs = t.obs <- obs
