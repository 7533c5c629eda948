//! The progress engine: immutable collective plans and resumable executions.
//!
//! Every collective algorithm in [`crate::coll`] is compiled into a
//! [`CollPlan`] — an **immutable**, buffer-agnostic, sequence-agnostic list of
//! point-to-point operations (`SchedOp::Send` / `SchedOp::Recv`), local
//! data movements (`SchedOp::Fold` / `SchedOp::Copy`) and shared-window
//! data-plane operations (`SchedOp::ClaimSlot` / `SchedOp::ExposeRead` /
//! `SchedOp::AwaitRow` / `SchedOp::PullCopy` / `SchedOp::FoldInPlace`) over
//! two byte arenas:
//! the *primary* buffer (the user's payload) and a *scratch* buffer (algorithm
//! temporaries). Ops carry **tag offsets** (kind × step within the collective
//! tag layout), not wire tags: the per-start collective sequence number is
//! resolved against the offset only when the plan is *bound* to an
//! [`Execution`]. A plan is therefore a pure function of
//! (communicator, operation, shape, tuning) and can be cached and re-run any
//! number of times — the basis of the per-communicator plan cache
//! ([`crate::plan`]) and the MPI-4-style persistent collectives.
//!
//! An [`Execution`] is the lightweight per-start state: a cursor (a shared
//! handle to the plan, the op position and the live sequence number) and the
//! owned scratch arena (reused across restarts of a persistent collective).
//! A blocking collective runs a bare cursor over its communicator's reusable
//! arena instead, so a cache-hit blocking call allocates nothing. Ops execute
//! strictly in order, which preserves exactly the orderings the builders
//! chose (lower rank sends first, rank 0 of a ring receives first; the
//! irregular exchange sends first everywhere and relies on a blocked `Send`
//! draining arrivals); op `i + 1` never starts before op `i` has completed.
//!
//! Every call of [`Execution::progress`] (or of a bare cursor's) executes
//! ops until one cannot complete (a `SchedOp::Recv` whose message has not
//! arrived, probed through [`Transport::try_recv`]) and then returns. It is
//! the step of every driver: of each lap of a blocking collective in the one
//! blocking loop (`Comm::drive_until`), and of a request's cell
//! (`crate::engine::OpCell::step`) under `test`, `wait`, the rank's sweep of
//! its started operations (Polling mode, MPI's weak progress: only inside
//! library calls) and the engine thread (Thread mode). So blocking,
//! nonblocking and persistent collectives execute byte-identical plans and
//! cannot diverge.
//!
//! A `Send` op advances through the transports' nonblocking
//! [`Transport::try_send`]; while it waits (for ring space or a missing
//! message) the engine drains fully-arrived traffic off the wire
//! ([`Transport::poll_incoming`]), so peers blocked on flow control keep
//! moving and concurrent independent executions stay deadlock-free. One
//! commitment rule: once the first chunk of a multi-chunk message is in a
//! destination ring, the op finishes the message before control returns:
//! the same liveness class as the blocking sends the schedules replaced.
//!
//! Who made which progress is counted in the progress section of the rank's
//! [`crate::counters::RankCounters`], declared here ([`ProgressSection`]):
//! collective starts, `test`/`wait`-family polls and the engine thread bump it
//! directly, and `Comm::progress_stats` reads it, without a lock, as a
//! [`ProgressStats`].

use std::sync::Arc;

use cmpi_fabric::SimClock;

use crate::coll::bind_coll_tag;
use crate::counters::counter_section;
use crate::error::MpiError;
use crate::plan::PlanOp;
use crate::spin::{block_until, Polled, WaitSite};
use crate::transport::{DpPiece, DpReaders, DpSource, RecvDest, Transport};
use crate::types::{CtxId, Rank, ReduceOp, Status, Tag, COLL_TAG_BASE};
use crate::Result;

/// Which arena a plan op's byte range refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// The primary buffer (the user payload).
    Buf,
    /// The scratch buffer (algorithm temporaries).
    Scratch,
}

/// One step of a collective plan. Byte ranges are `[start, end)` within the
/// arena selected by the op's [`Loc`]. `tag_off` is the kind × step tag
/// offset; the wire tag is resolved against the execution's live sequence
/// number at run time (see [`crate::coll::bind_coll_tag`]), which is what
/// makes a plan reusable across starts. The data-plane ops carry a `seg`
/// instead: a collective cut into segments runs each as a window round of
/// its own, on the start's sequence number plus `seg` ([`CollPlan::seqs`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum SchedOp {
    /// Send `loc[start..end]` to `peer` (a world rank).
    Send {
        /// Destination world rank.
        peer: Rank,
        /// Tag offset within the collective layout (kind and step only; the
        /// sequence salt is applied at bind time).
        tag_off: Tag,
        /// Source arena.
        loc: Loc,
        /// Byte range start.
        start: usize,
        /// Byte range end.
        end: usize,
    },
    /// Receive exactly `end - start` bytes from `peer` (world rank) into
    /// `loc[start..end]`.
    Recv {
        /// Source world rank.
        peer: Rank,
        /// Tag offset (see `Send`).
        tag_off: Tag,
        /// Destination arena.
        loc: Loc,
        /// Byte range start.
        start: usize,
        /// Byte range end.
        end: usize,
    },
    /// Element-wise reduce `src` into `dst` using the plan's fold function.
    /// The two ranges must have equal length and, within one arena, must be
    /// disjoint.
    Fold {
        /// Destination arena.
        dst_loc: Loc,
        /// Destination range start.
        dst_start: usize,
        /// Source arena.
        src_loc: Loc,
        /// Source range start.
        src_start: usize,
        /// Byte length of both ranges.
        len: usize,
    },
    /// Copy `src` to `dst` (ranges within one arena may overlap).
    Copy {
        /// Destination arena.
        dst_loc: Loc,
        /// Destination range start.
        dst_start: usize,
        /// Source arena.
        src_loc: Loc,
        /// Source range start.
        src_start: usize,
        /// Byte length of both ranges.
        len: usize,
    },
    /// Data plane: claim this rank's slot for the execution's live sequence
    /// number ahead of the `ExposeRead` that fills it, so a plan that must
    /// read before it can expose waits for the slot while it waits for the
    /// read anyway. Pending while an earlier collective holds the slot.
    ClaimSlot {
        /// Who will read the exposure.
        readers: DpReaders,
        /// The op's segment ([`CollPlan::seqs`]).
        seg: u32,
    },
    /// Data plane: publish the plan's `pieces[lo..hi]` — byte ranges of `loc`,
    /// each with its place in this rank's data slot and its format — for the
    /// execution's live sequence number, in one store stream, and raise the
    /// slot's `phase` flag line once unless every piece is stamped lines that
    /// validate themselves. One piece for a regular collective (the flag line
    /// itself when it is one stamped line), one per reader for the irregular
    /// exchange's gather; none for a barrier's arrival. Pending (does not
    /// advance) while the slot is still held by an earlier collective some
    /// reader has not finished with.
    ExposeRead {
        /// Publish phase within the collective (flag cell selector).
        phase: u8,
        /// Source arena.
        loc: Loc,
        /// Range of the plan's piece table ([`CollPlan::pieces`]).
        pieces: (usize, usize),
        /// Who reads the exposure (whose completion lines gate slot reuse).
        readers: DpReaders,
        /// The op's segment ([`CollPlan::seqs`]).
        seg: u32,
    },
    /// Data plane: open a **run** — acquire, all or nothing, what the reads
    /// that follow it (up to the next op that can wait) consume: the `phase`
    /// flag lines of group members `lo..hi` — this rank, if it lies between
    /// them, excepted — in one row read, none if the range is empty, and the
    /// lines of every stamped exposure they read out of a data slot. Pending
    /// until every one of those lines is up; the only op of a run that waits.
    AwaitRow {
        /// Publish phase within the collective (flag cell selector).
        phase: u8,
        /// The writers whose flag lines are awaited, a range of group
        /// indices.
        writers: (usize, usize),
        /// The op's segment ([`CollPlan::seqs`]).
        seg: u32,
    },
    /// Data plane: copy `len` bytes from the exposure `src` names into
    /// `dst_loc[dst_start..]`: out of the stamped lines — a flag line or
    /// lines of a data slot — the `AwaitRow` before it acquired, or out of
    /// the writer's data slot, which that op's flag line vouches for. Never
    /// pending. With `src.last`, also store this rank's completion line — this
    /// was its last read of the collective.
    PullCopy {
        /// The exposure and the region of it to read.
        src: DpSource,
        /// The op's segment ([`CollPlan::seqs`]).
        seg: u32,
        /// Byte length to pull.
        len: usize,
        /// Destination arena.
        dst_loc: Loc,
        /// Destination range start.
        dst_start: usize,
    },
    /// Data plane: like `PullCopy`, but element-wise folds the pulled bytes
    /// into the destination using the plan's reduction, staging them through
    /// `scratch[stage_off..stage_off + len]`.
    FoldInPlace {
        /// The exposure and the region of it to read.
        src: DpSource,
        /// The op's segment ([`CollPlan::seqs`]).
        seg: u32,
        /// Byte length to pull and fold.
        len: usize,
        /// Destination arena.
        dst_loc: Loc,
        /// Destination range start.
        dst_start: usize,
        /// Staging offset in scratch for the pulled bytes.
        stage_off: usize,
    },
}

/// Type-erased element-wise reduction over raw bytes (a monomorphized
/// `fold_bytes::<T>` stored as a function pointer, so plans stay
/// non-generic and a collective request can live inside a plain
/// [`crate::request::Request`]).
pub type FoldFn = fn(ReduceOp, &mut [u8], &[u8]);

/// Element-wise fold of `src` into `dst` interpreted as `T` values. Handles
/// unaligned buffers (nonblocking requests own plain `Vec<u8>` storage).
pub fn fold_bytes<T: crate::types::Reducible>(op: ReduceOp, dst: &mut [u8], src: &[u8]) {
    let esz = std::mem::size_of::<T>();
    debug_assert_eq!(dst.len(), src.len());
    debug_assert!(dst.len().is_multiple_of(esz));
    let n = dst.len() / esz;
    // Safety: T is Pod (any bit pattern valid, no padding); reads/writes are
    // unaligned-tolerant and in bounds by the length checks above.
    unsafe {
        let d = dst.as_mut_ptr().cast::<T>();
        let s = src.as_ptr().cast::<T>();
        for i in 0..n {
            let a = d.add(i).read_unaligned();
            let b = s.add(i).read_unaligned();
            d.add(i).write_unaligned(T::combine(op, a, b));
        }
    }
}

/// Outcome of one [`Execution::progress`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Whether the execution has run to completion.
    pub done: bool,
    /// Ops completed by this call.
    pub ops: usize,
}

impl StepOutcome {
    /// Not done: stopped at an op that cannot complete yet, after `ops`.
    fn pending(ops: usize) -> Self {
        StepOutcome { done: false, ops }
    }
}

/// The immutable compiled form of one collective operation from one rank's
/// perspective: the op list plus everything needed to bind and interpret an
/// execution over it. Buffer-agnostic (ops reference symbolic byte offsets
/// into the primary/scratch arenas) and sequence-agnostic (ops carry tag
/// *offsets*), so one plan serves any number of starts — cached plans back
/// both the repeated one-shot collectives and the persistent `*_init` API.
#[derive(Debug)]
pub struct CollPlan {
    pub(crate) ops: Vec<SchedOp>,
    /// What the plan's `ExposeRead` ops publish, each op a range of this
    /// table: kept beside the op list so that an op stays a fixed-size value
    /// and an execution hands the transport a borrowed slice.
    pub(crate) pieces: Vec<DpPiece>,
    /// Which collective the plan implements, for the per-communicator
    /// counters. The builders share op emitters across collectives (a naive
    /// reduce-scatter runs allreduce rounds), so the communicator's plan
    /// lookup names it ([`CollPlan::for_op`]).
    pub(crate) op: PlanOp,
    /// Context id the collective runs under.
    ctx: CtxId,
    /// Reduction applied by `Fold` ops, if any.
    fold: Option<(ReduceOp, FoldFn)>,
    /// Arena holding the collective's result for this rank.
    pub(crate) result_loc: Loc,
    /// Byte range of the result within `result_loc`.
    pub(crate) result_range: (usize, usize),
    /// Byte range of this rank's *contribution* within the primary buffer —
    /// the region a persistent request re-reads at every start (and the one
    /// [`crate::request::Request::write_input`] rewrites between starts).
    pub(crate) input_range: (usize, usize),
    /// Scratch bytes an execution of the plan needs.
    pub(crate) scratch_len: usize,
    /// Estimated concurrent cross-host communication pairs while the plan
    /// executes, if the builder knows better than the transport's standing
    /// hint (hierarchical composites: only one leader per host crosses
    /// hosts). Applied to the transport around every progress call and
    /// restored afterwards, so the contention model sees the reduced crowd
    /// without disturbing unrelated traffic.
    pub(crate) pairs_hint: Option<usize>,
    /// How many collective sequence numbers one start consumes: one, or one
    /// per segment of a collective cut into window rounds of a slot each.
    pub(crate) seqs: u32,
    /// Whether the plan has any data-plane op: a start then counts as a
    /// collective on the shared window
    /// ([`crate::transport::DataPlaneStats::shm_colls`]), one without as a
    /// ring-path one.
    pub(crate) on_window: bool,
    /// Label of the algorithm this plan implements (surfaced in
    /// `RankReport::coll_algos`).
    pub label: &'static str,
}

impl CollPlan {
    /// Build a plan from its parts (used by the builders in [`crate::coll`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ops: Vec<SchedOp>,
        ctx: CtxId,
        fold: Option<(ReduceOp, FoldFn)>,
        result_loc: Loc,
        result_range: (usize, usize),
        input_range: (usize, usize),
        scratch_len: usize,
        label: &'static str,
    ) -> Self {
        let on_window = ops.iter().any(|op| {
            !matches!(
                op,
                SchedOp::Send { .. }
                    | SchedOp::Recv { .. }
                    | SchedOp::Fold { .. }
                    | SchedOp::Copy { .. }
            )
        });
        CollPlan {
            ops,
            pieces: Vec::new(),
            // Until the communicator's plan lookup names it (`for_op`).
            op: PlanOp::Barrier,
            ctx,
            fold,
            result_loc,
            result_range,
            input_range,
            scratch_len,
            pairs_hint: None,
            seqs: 1,
            on_window,
            label,
        }
    }

    /// Attach a concurrent cross-host pair estimate (see
    /// [`CollPlan::pairs_hint`]).
    pub(crate) fn with_pairs_hint(mut self, pairs: usize) -> Self {
        self.pairs_hint = Some(pairs);
        self
    }

    /// Attach the piece table the plan's `ExposeRead` ops index, and the
    /// number of segments its data-plane ops run in.
    pub(crate) fn with_pieces(mut self, pieces: Vec<DpPiece>, seqs: u32) -> Self {
        self.pieces = pieces;
        self.seqs = seqs;
        self
    }

    /// What a start that does not run at once announces to the transport
    /// ([`Transport::dp_begin`]), as `(segment, reads, exposes)`: a segment
    /// whose last read this rank makes, and one it exposes or claims a slot
    /// in — an entry per op, in op order.
    pub(crate) fn dp_roles(&self) -> impl Iterator<Item = (u32, bool, bool)> + '_ {
        self.ops.iter().filter_map(|op| match *op {
            SchedOp::PullCopy { src, seg, .. } | SchedOp::FoldInPlace { src, seg, .. }
                if src.last =>
            {
                Some((seg, true, false))
            }
            SchedOp::ExposeRead { seg, .. } | SchedOp::ClaimSlot { seg, .. } => {
                Some((seg, false, true))
            }
            _ => None,
        })
    }

    /// Name the collective the plan implements (see [`CollPlan::op`]).
    pub(crate) fn for_op(mut self, op: PlanOp) -> Self {
        self.op = op;
        self
    }

    /// Byte length of a primary buffer staged for this plan
    /// ([`CollPlan::stage`]): it covers the contribution region and, when the
    /// result lands in the primary arena, the result region.
    pub(crate) fn image_len(&self) -> usize {
        match self.result_loc {
            Loc::Buf => self.input_range.1.max(self.result_range.1),
            Loc::Scratch => self.input_range.1,
        }
    }

    /// Stage this rank's contribution as the plan's primary buffer in `into`
    /// ([`CollPlan::image_len`] bytes): the contribution in its region, zeros
    /// everywhere else. A role that reads less than the caller passes (a
    /// broadcast's non-root reads nothing) takes the prefix it reads.
    pub(crate) fn stage(&self, contribution: &[u8], into: &mut [u8]) {
        let (lo, hi) = self.input_range;
        into[..lo].fill(0);
        into[lo..hi].copy_from_slice(&contribution[..hi - lo]);
        into[hi..].fill(0);
    }

    /// A staged primary buffer of its own for an owned (nonblocking or
    /// persistent) start.
    pub(crate) fn image(&self, contribution: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; self.image_len()];
        self.stage(contribution, &mut buf);
        buf
    }

    /// The result bytes of a completed run over `buf` and `scratch`.
    pub(crate) fn result<'a>(&self, buf: &'a [u8], scratch: &'a [u8]) -> &'a [u8] {
        let (lo, hi) = self.result_range;
        match self.result_loc {
            Loc::Buf => &buf[lo..hi],
            Loc::Scratch => &scratch[lo..hi],
        }
    }

    /// Context id the plan's traffic runs under.
    pub fn context_id(&self) -> CtxId {
        self.ctx
    }

    /// Total ops in the plan.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan has no ops (single-rank collectives).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Scratch bytes an execution of this plan allocates.
    pub fn scratch_len(&self) -> usize {
        self.scratch_len
    }

    /// Byte length of this rank's result.
    pub fn result_len(&self) -> usize {
        self.result_range.1 - self.result_range.0
    }

    /// Byte length of this rank's contribution region in the primary buffer.
    pub fn input_len(&self) -> usize {
        self.input_range.1 - self.input_range.0
    }
}

/// Scratch bytes an execution keeps inline: enough for the temporaries of any
/// collective whose payload rides in a flag line (two vectors of
/// [`cxl_shm::slots::SLOT_CELL_INLINE`] bytes), so starting one allocates
/// nothing.
const INLINE_SCRATCH: usize = 128;

/// An execution's scratch arena: inline when small, on the heap otherwise.
#[derive(Debug)]
enum Scratch {
    Inline([u8; INLINE_SCRATCH], usize),
    Heap(Vec<u8>),
}

impl Scratch {
    fn zeroed(len: usize) -> Self {
        if len <= INLINE_SCRATCH {
            Scratch::Inline([0; INLINE_SCRATCH], len)
        } else {
            Scratch::Heap(vec![0; len])
        }
    }
}

impl std::ops::Deref for Scratch {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Scratch::Inline(bytes, len) => &bytes[..*len],
            Scratch::Heap(bytes) => bytes,
        }
    }
}

impl std::ops::DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [u8] {
        match self {
            Scratch::Inline(bytes, len) => &mut bytes[..*len],
            Scratch::Heap(bytes) => bytes,
        }
    }
}

/// Where one start of a collective is in its plan: a shared handle to the
/// immutable [`CollPlan`], the op cursor and the live sequence number (salted
/// into every wire tag at op execution). It owns no memory: each progress
/// call is handed the primary and scratch arenas it runs over, so a blocking
/// collective runs over its communicator's reusable arena and an owned
/// [`Execution`] over its own scratch.
#[derive(Debug)]
pub(crate) struct Cursor {
    plan: Arc<CollPlan>,
    /// Next op to execute.
    pos: usize,
    /// Transport resume cursor of the in-flight `Send` op at `pos` (always 0
    /// between `progress` calls: a send that has committed its first chunk is
    /// finished within the same call to preserve ring contiguity).
    send_cursor: usize,
    /// Live collective sequence number of this start.
    seq: u32,
}

impl Cursor {
    /// Bind `plan` to a fresh start under sequence number `seq`.
    pub(crate) fn new(plan: Arc<CollPlan>, seq: u32) -> Self {
        Cursor {
            plan,
            pos: 0,
            send_cursor: 0,
            seq,
        }
    }

    /// Whether every op has executed.
    fn is_complete(&self) -> bool {
        self.pos >= self.plan.ops.len()
    }

    /// [`Execution::progress`] over a `scratch` arena of at least the plan's
    /// [`CollPlan::scratch_len`] bytes. Plans write scratch before reading
    /// it, so the arena's contents on entry do not matter.
    pub(crate) fn progress(
        &mut self,
        t: &mut dyn Transport,
        clock: &mut SimClock,
        buf: &mut [u8],
        scratch: &mut [u8],
    ) -> Result<StepOutcome> {
        // Plans with a better crowd estimate than the transport's standing
        // hint (hierarchical composites) scope it to their own execution.
        match self.plan.pairs_hint {
            None => self.progress_inner(t, clock, buf, scratch),
            Some(pairs) => {
                let saved = t.concurrency_hint();
                t.set_concurrency_hint(pairs);
                let out = self.progress_inner(t, clock, buf, scratch);
                t.set_concurrency_hint(saved);
                out
            }
        }
    }

    fn progress_inner(
        &mut self,
        t: &mut dyn Transport,
        clock: &mut SimClock,
        buf: &mut [u8],
        scratch: &mut [u8],
    ) -> Result<StepOutcome> {
        let plan = Arc::clone(&self.plan);
        let ctx = plan.ctx;
        let mut completed = 0usize;
        while let Some(op) = plan.ops.get(self.pos) {
            match *op {
                SchedOp::Send {
                    peer,
                    tag_off,
                    loc,
                    start,
                    end,
                } => {
                    let tag = bind_coll_tag(tag_off, self.seq);
                    let data: &[u8] = &arena(loc, buf, scratch)[start..end];
                    let poison = t.poison().clone();
                    let sent = block_until(WaitSite::Send, &poison, || {
                        if t.try_send(clock, peer, ctx, tag, data, &mut self.send_cursor)? {
                            return Ok(Polled::Ready(true));
                        }
                        // Destination full: drain our own inbound rings
                        // (unblocking the peers that must drain ours).
                        Ok(match (t.poll_incoming(clock)?, self.send_cursor) {
                            // Nothing committed yet: defer the op.
                            (0, 0) => Polled::Ready(false),
                            // Mid-message: the rest goes out before control
                            // returns, as its receiver drains it at a receive
                            // attempt, plan step or send lap of its own, none
                            // of which waits for this rank.
                            (0, _) => Polled::Idle,
                            _ => Polled::Moved,
                        })
                    })?;
                    if !sent {
                        return Ok(StepOutcome::pending(completed));
                    }
                    self.send_cursor = 0;
                }
                SchedOp::Recv {
                    peer,
                    tag_off,
                    loc,
                    start,
                    end,
                } => {
                    let tag = bind_coll_tag(tag_off, self.seq);
                    let dst = &mut arena(loc, buf, scratch)[start..end];
                    match t.try_recv(clock, ctx, Some(peer), Some(tag), RecvDest::Slice(dst))? {
                        Some(status) => {
                            if status.len != end - start {
                                return Err(MpiError::InvalidCollective(format!(
                                    "collective length mismatch: received {} bytes, expected {}",
                                    status.len,
                                    end - start
                                )));
                            }
                        }
                        None => {
                            // Keep inbound rings drained while we wait so no
                            // peer wedges on flow control; a drained message
                            // may be the one we need, so retry on progress.
                            if t.poll_incoming(clock)? == 0 {
                                return Ok(StepOutcome::pending(completed));
                            }
                            continue;
                        }
                    }
                }
                SchedOp::Fold {
                    dst_loc,
                    dst_start,
                    src_loc,
                    src_start,
                    len,
                } => {
                    let (op_kind, f) = plan.fold.ok_or_else(|| {
                        MpiError::InvalidCollective(
                            "plan contains Fold ops but no reduction".into(),
                        )
                    })?;
                    if dst_loc == src_loc {
                        let a = arena(dst_loc, buf, scratch);
                        let (d, s) = disjoint_mut(a, dst_start, src_start, len)?;
                        f(op_kind, d, s);
                    } else {
                        let (d, s) = cross_arena(dst_loc, buf, scratch, dst_start, src_start, len);
                        f(op_kind, d, s);
                    }
                }
                SchedOp::Copy {
                    dst_loc,
                    dst_start,
                    src_loc,
                    src_start,
                    len,
                } => {
                    if dst_loc == src_loc {
                        arena(dst_loc, buf, scratch)
                            .copy_within(src_start..src_start + len, dst_start);
                    } else {
                        let (d, s) = cross_arena(dst_loc, buf, scratch, dst_start, src_start, len);
                        d.copy_from_slice(s);
                    }
                }
                SchedOp::ClaimSlot { readers, seg } => {
                    if !t.dp_claim(clock, ctx, self.seq.wrapping_add(seg), readers)? {
                        // Slot still held by an earlier collective: pending.
                        return Ok(StepOutcome::pending(completed));
                    }
                }
                SchedOp::ExposeRead {
                    phase,
                    loc,
                    pieces: (lo, hi),
                    readers,
                    seg,
                } => {
                    let from: &[u8] = arena(loc, buf, scratch);
                    let pieces = &plan.pieces[lo..hi];
                    let seq = self.seq.wrapping_add(seg);
                    if !t.dp_expose(clock, ctx, seq, phase, pieces, from, readers)? {
                        // Slot still held by an earlier collective: pending.
                        return Ok(StepOutcome::pending(completed));
                    }
                }
                SchedOp::AwaitRow {
                    phase,
                    writers: (lo, hi),
                    seg,
                } => {
                    // The run's reads: up to the next op that can wait.
                    let mut reads = plan.ops[self.pos + 1..]
                        .iter()
                        .map_while(|op| match *op {
                            SchedOp::PullCopy { src, len, .. }
                            | SchedOp::FoldInPlace { src, len, .. } => Some(Some((src, len))),
                            SchedOp::Copy { .. } | SchedOp::Fold { .. } => Some(None),
                            _ => None,
                        })
                        .flatten();
                    let seq = self.seq.wrapping_add(seg);
                    if !t.dp_await_row(clock, ctx, seq, phase, lo..hi, &mut reads)? {
                        // Some awaited line not up yet: pending.
                        return Ok(StepOutcome::pending(completed));
                    }
                }
                SchedOp::PullCopy {
                    src,
                    seg,
                    len,
                    dst_loc,
                    dst_start,
                } => {
                    let dst = &mut arena(dst_loc, buf, scratch)[dst_start..dst_start + len];
                    t.dp_pull(clock, ctx, self.seq.wrapping_add(seg), src, dst)?;
                }
                SchedOp::FoldInPlace {
                    src,
                    seg,
                    len,
                    dst_loc,
                    dst_start,
                    stage_off,
                } => {
                    let (op_kind, f) = plan.fold.ok_or_else(|| {
                        MpiError::InvalidCollective(
                            "plan contains FoldInPlace ops but no reduction".into(),
                        )
                    })?;
                    let stage = &mut scratch[stage_off..stage_off + len];
                    t.dp_pull(clock, ctx, self.seq.wrapping_add(seg), src, stage)?;
                    match dst_loc {
                        Loc::Scratch => {
                            let (d, s) = disjoint_mut(scratch, dst_start, stage_off, len)?;
                            f(op_kind, d, s);
                        }
                        Loc::Buf => {
                            let d = &mut buf[dst_start..dst_start + len];
                            f(op_kind, d, &scratch[stage_off..stage_off + len]);
                        }
                    }
                }
            }
            self.pos += 1;
            completed += 1;
        }
        Ok(StepOutcome {
            done: self.is_complete(),
            ops: completed,
        })
    }
}

/// The lightweight per-start state of one collective: a cursor into the
/// immutable [`CollPlan`] plus the owned scratch arena. Binding a cached plan
/// to a fresh execution is what a nonblocking start does instead of
/// re-planning, and a persistent `start()` rewinds one without allocating.
#[derive(Debug)]
pub struct Execution {
    cursor: Cursor,
    /// Scratch arena (kept across restarts, so persistent re-starts allocate
    /// nothing).
    scratch: Scratch,
}

impl Execution {
    /// Bind `plan` to a fresh execution under sequence number `seq`.
    pub fn new(plan: Arc<CollPlan>, seq: u32) -> Self {
        let scratch = Scratch::zeroed(plan.scratch_len);
        Execution {
            cursor: Cursor::new(plan, seq),
            scratch,
        }
    }

    /// The plan this execution runs.
    pub fn plan(&self) -> &Arc<CollPlan> {
        &self.cursor.plan
    }

    /// The live sequence number of this start.
    pub fn seq(&self) -> u32 {
        self.cursor.seq
    }

    /// Rewind for a new start under sequence number `seq` (persistent
    /// collectives). The scratch arena is kept; plans write scratch before
    /// reading it, so no re-zeroing is needed.
    pub(crate) fn restart(&mut self, seq: u32) {
        let cursor = &mut self.cursor;
        debug_assert_eq!(cursor.send_cursor, 0, "restart of a mid-send execution");
        cursor.pos = 0;
        cursor.send_cursor = 0;
        cursor.seq = seq;
    }

    /// Whether every op has executed.
    pub fn is_complete(&self) -> bool {
        self.cursor.is_complete()
    }

    /// Execute ops in order until one cannot complete or the execution
    /// finishes. Returns whether the execution completed and how many ops
    /// this call executed.
    ///
    /// Nothing in here blocks on a peer that has not committed: `Recv` ops
    /// probe via [`Transport::try_recv`], and `Send` ops advance via
    /// [`Transport::try_send`] (a message that flow control stops partway is
    /// finished in the same call). Whenever the current op cannot complete, the
    /// engine drains fully-arrived messages off the wire
    /// ([`Transport::poll_incoming`]) and retries — freeing ring cells keeps
    /// peers' sends moving, which makes concurrent independent executions
    /// deadlock-free without any global op ordering across them.
    pub fn progress(
        &mut self,
        t: &mut dyn Transport,
        clock: &mut SimClock,
        buf: &mut [u8],
    ) -> Result<StepOutcome> {
        self.cursor.progress(t, clock, buf, &mut self.scratch)
    }

    /// The result bytes of a completed execution over `buf`.
    pub(crate) fn result_slice<'a>(&'a self, buf: &'a [u8]) -> &'a [u8] {
        self.cursor.plan.result(buf, &self.scratch)
    }
}

/// Select an arena mutably.
fn arena<'a>(loc: Loc, buf: &'a mut [u8], scratch: &'a mut [u8]) -> &'a mut [u8] {
    match loc {
        Loc::Buf => buf,
        Loc::Scratch => scratch,
    }
}

/// Destination range in `dst_loc`'s arena plus source range in the *other*
/// arena (the cross-arena case of `Fold`/`Copy`, where the borrows are
/// naturally disjoint).
fn cross_arena<'a>(
    dst_loc: Loc,
    buf: &'a mut [u8],
    scratch: &'a mut [u8],
    dst_start: usize,
    src_start: usize,
    len: usize,
) -> (&'a mut [u8], &'a [u8]) {
    match dst_loc {
        Loc::Buf => (
            &mut buf[dst_start..dst_start + len],
            &scratch[src_start..src_start + len],
        ),
        Loc::Scratch => (
            &mut scratch[dst_start..dst_start + len],
            &buf[src_start..src_start + len],
        ),
    }
}

/// Two non-overlapping mutable ranges of one slice, via `split_at_mut`.
fn disjoint_mut(
    a: &mut [u8],
    dst_start: usize,
    src_start: usize,
    len: usize,
) -> Result<(&mut [u8], &[u8])> {
    if dst_start + len <= src_start {
        let (lo, hi) = a.split_at_mut(src_start);
        Ok((&mut lo[dst_start..dst_start + len], &hi[..len]))
    } else if src_start + len <= dst_start {
        let (lo, hi) = a.split_at_mut(dst_start);
        Ok((&mut hi[..len], &lo[src_start..src_start + len]))
    } else {
        Err(MpiError::InvalidCollective(format!(
            "fold ranges overlap: dst {dst_start}+{len} vs src {src_start}+{len}"
        )))
    }
}

/// The owned execution state of one nonblocking (or persistent) collective:
/// the bound execution plus the primary buffer it runs over. Lives inside a
/// [`crate::request::Request`]; a one-shot completion consumes it via
/// [`CollState::finish`], a persistent completion keeps it for the next
/// `start`.
#[derive(Debug)]
pub struct CollState {
    /// The bound execution (plan handle + cursor + seq + scratch).
    pub exec: Execution,
    /// Primary arena (owned copy of the user payload).
    pub buf: Vec<u8>,
    /// This rank's local rank (stamped into the completion status).
    pub rank: Rank,
}

impl CollState {
    /// Package a bound execution with an owned payload.
    pub fn new(exec: Execution, buf: Vec<u8>, rank: Rank) -> Self {
        CollState { exec, buf, rank }
    }

    /// One incremental progress attempt (see [`Execution::progress`]).
    pub fn progress(&mut self, t: &mut dyn Transport, clock: &mut SimClock) -> Result<StepOutcome> {
        self.exec.progress(t, clock, &mut self.buf)
    }

    /// Completion status of a finished execution (without consuming the
    /// state — the persistent path, which keeps buffers for the next start).
    pub fn completion_status(&self) -> Status {
        debug_assert!(self.exec.is_complete());
        Status::new(self.rank, COLL_TAG_BASE, self.exec.plan().result_len())
    }

    /// The result bytes of a finished execution (borrowed — the persistent
    /// read path).
    pub fn result_bytes(&self) -> &[u8] {
        debug_assert!(self.exec.is_complete());
        self.exec.result_slice(&self.buf)
    }

    /// Overwrite this rank's contribution region of the primary buffer (the
    /// persistent rebind between starts). `bytes` must match the plan's
    /// declared input length exactly.
    pub fn write_input(&mut self, bytes: &[u8]) -> Result<()> {
        let (lo, hi) = self.exec.plan().input_range;
        if bytes.len() != hi - lo {
            return Err(MpiError::InvalidCollective(format!(
                "persistent input of {} bytes does not match the bound contribution of {}",
                bytes.len(),
                hi - lo
            )));
        }
        self.buf[lo..hi].copy_from_slice(bytes);
        Ok(())
    }

    /// Extract the completion status and result bytes of a finished one-shot
    /// execution.
    pub fn finish(mut self) -> (Status, Vec<u8>) {
        debug_assert!(self.exec.is_complete());
        let (lo, hi) = self.exec.plan().result_range;
        let data = match self.exec.plan().result_loc {
            // Full-buffer results hand the allocation over without a copy.
            Loc::Buf if lo == 0 && hi == self.buf.len() => std::mem::take(&mut self.buf),
            Loc::Buf => self.buf[lo..hi].to_vec(),
            Loc::Scratch => self.exec.result_slice(&self.buf).to_vec(),
        };
        (Status::new(self.rank, COLL_TAG_BASE, data.len()), data)
    }
}

counter_section! {
    /// Per-rank progress-engine counters, surfaced by `Comm::progress_stats`
    /// and in [`crate::runtime::RankReport::progress`]. The split between
    /// `*_in_test` and `*_in_wait` is the overlap metric: ops serviced by
    /// `test`-family calls ran during user compute, ops serviced inside a
    /// terminal `wait` did not.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    ProgressStats / ProgressSection {
        /// Nonblocking collectives started (`i*` calls and persistent
        /// starts).
        colls_started,
        /// Nonblocking collectives completed.
        colls_completed,
        /// Persistent-request starts (`start`/`startall`), a subset of
        /// `colls_started`.
        persistent_starts,
        /// Progress polls from `test`/`test_any`/`test_all` (user-compute
        /// context).
        test_polls,
        /// Progress polls from inside blocking `wait`/`wait_any`.
        wait_polls,
        /// Schedule ops serviced during `test`-family polls — progress made
        /// *during user compute*, the overlap figure of merit.
        ops_in_test,
        /// Schedule ops serviced inside blocking waits.
        ops_in_wait,
        /// Schedule ops serviced by the background progress thread
        /// ([`crate::config::ProgressMode::Thread`]) — like `ops_in_test`,
        /// these ran during user compute, so they count toward the overlap
        /// figure of merit. Always 0 in `Polling` mode.
        ops_in_thread,
        /// Explicit [`crate::comm::Comm::progress`] calls.
        transport_drains,
        /// Messages moved off the wire into local staging by those calls.
        drained_messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_bytes_is_elementwise_and_unaligned_safe() {
        let a: Vec<u64> = vec![1, 2, 3];
        let b: Vec<u64> = vec![10, 20, 30];
        // Deliberately misalign by prefixing one byte.
        let mut dst = [0u8; 25];
        dst[1..].copy_from_slice(crate::pod::bytes_of(&a));
        let mut src = [0u8; 25];
        src[1..].copy_from_slice(crate::pod::bytes_of(&b));
        fold_bytes::<u64>(ReduceOp::Sum, &mut dst[1..], &src[1..]);
        let out: Vec<u64> = crate::pod::vec_from_bytes(&dst[1..]);
        assert_eq!(out, vec![11, 22, 33]);
    }

    #[test]
    fn disjoint_mut_rejects_overlap() {
        let mut a = vec![0u8; 16];
        assert!(disjoint_mut(&mut a, 0, 8, 8).is_ok());
        assert!(disjoint_mut(&mut a, 8, 0, 8).is_ok());
        assert!(disjoint_mut(&mut a, 0, 4, 8).is_err());
    }

    #[test]
    fn plan_bookkeeping() {
        let plan = CollPlan::new(
            Vec::new(),
            3,
            Some((ReduceOp::Sum, fold_bytes::<u64> as FoldFn)),
            Loc::Scratch,
            (8, 16),
            (0, 4),
            16,
            "test/local",
        );
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan.context_id(), 3);
        assert_eq!(plan.scratch_len(), 16);
        assert_eq!(plan.result_len(), 8);
        assert_eq!(plan.input_len(), 4);
        let mut exec = Execution::new(Arc::new(plan), 7);
        assert!(exec.is_complete());
        assert_eq!(exec.seq(), 7);
        exec.scratch.copy_from_slice(&(0..16).collect::<Vec<u8>>());
        let buf = vec![0u8; 4];
        assert_eq!(exec.result_slice(&buf), &(8..16).collect::<Vec<u8>>()[..]);
        // Restart rewinds the cursor and swaps the live sequence number.
        exec.restart(9);
        assert_eq!(exec.seq(), 9);
        assert!(exec.is_complete()); // empty plan
    }

    #[test]
    fn coll_state_full_buffer_result_moves_allocation() {
        let plan = CollPlan::new(
            Vec::new(),
            0,
            None,
            Loc::Buf,
            (0, 8),
            (0, 8),
            0,
            "test/local",
        );
        let buf: Vec<u8> = (0..8).collect();
        let ptr = buf.as_ptr();
        let state = CollState::new(Execution::new(Arc::new(plan), 0), buf, 2);
        assert_eq!(state.completion_status().len, 8);
        assert_eq!(state.result_bytes(), (0..8).collect::<Vec<u8>>());
        let (status, data) = state.finish();
        assert_eq!(status.source, 2);
        assert_eq!(status.len, 8);
        assert_eq!(data.as_ptr(), ptr);
        assert_eq!(data, (0..8).collect::<Vec<u8>>());
    }

    #[test]
    fn coll_state_write_input_targets_the_contribution_region() {
        let plan = CollPlan::new(
            Vec::new(),
            0,
            None,
            Loc::Buf,
            (0, 8),
            (4, 8),
            0,
            "test/local",
        );
        let mut state = CollState::new(Execution::new(Arc::new(plan), 0), vec![0u8; 8], 0);
        assert!(state.write_input(&[1, 2, 3]).is_err());
        state.write_input(&[9, 9, 9, 9]).unwrap();
        assert_eq!(state.buf, vec![0, 0, 0, 0, 9, 9, 9, 9]);
    }
}
