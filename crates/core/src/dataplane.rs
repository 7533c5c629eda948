//! The shared-window single-copy collective data plane.
//!
//! Every collective in [`crate::coll`] can move its payload two ways:
//!
//! * the **ring path** — point-to-point `Send`/`Recv` ops through the
//!   per-pair SPSC queues: two copies per hop (writer → ring cell → reader)
//!   plus a header per chunk and the per-message MPI software overhead;
//! * the **data plane** built here — on a CXL transport, readers pull
//!   payloads straight out of a writer's *exposed* buffer in a
//!   per-communicator shared window (one coherent copy, OpenSHMEM
//!   notified-put style), and completion is a line in the window, not a
//!   message.
//!
//! The window is a single arena object per communicator, created eagerly at
//! communicator construction (creation is blocking and collective, which a
//! nonblocking starter must never be) and carved into per-rank exposure
//! slots by [`cxl_shm::SlotLayout`]. What a collective costs is the number of
//! device transactions it makes there — a single line stored or loaded is one
//! round trip, a run of consecutive lines one streamed read. An exposure
//! takes one of two formats ([`DpFormat`]), chosen from its length and its
//! room alone by one function that prices both ([`DpWindow::format`]), so
//! the writer and every reader agree without a word exchanged:
//!
//! * **stamped lines** — every 64-byte line carries the exposure's sequence
//!   word and 56 bytes of payload, the first line the writer's stamp and 48,
//!   so the lines validate themselves, as a 64-byte direct store writes each
//!   atomically. Publishing is one non-temporal store stream and one fence,
//!   and no flag line; acquiring is the gathered read of the lines, all or
//!   nothing on every line's word. An exposure of one line is the writer's
//!   flag line itself and is read with the row (below) — the one-line case,
//!   where a payload of at most 48 bytes always lands; longer ones sit at the
//!   head of the exposure's region of the data slot;
//! * **slot + flag** — the payload is streamed into the data slot, then the
//!   flag line is stored; the reader's row acquires the flag, and the payload
//!   follows in the gathered read. A few KiB up, the cross-host fair-share
//!   floors of a run of many pieces bind, and a stamped exposure's eighth
//!   more bytes cost more than the flag line and the row they save.
//!
//! The transactions, then:
//!
//! * an **expose** publishes a list of **pieces**, byte ranges of the rank's
//!   buffer each with its place in the slot and its format: one for every
//!   regular collective, one per reader for the irregular exchange, whose
//!   segments are *gathered* into a single exposure — one store stream, one
//!   fence, at most one flag line, whatever the number of pieces;
//! * the flag lines of one `(slot, phase)` are a contiguous **row** in writer
//!   order, and a rank reads its peers in **runs**: the exposures it reads in
//!   one phase are acquired in one all-or-nothing step (`AwaitRow`) — the
//!   flag lines the run's reads consume in one **row read** (the plan names
//!   the range of writers; [`crate::transport::DpCost::row`], a row of one
//!   line is exactly a line, a run of stamped exposures in data slots has
//!   none), and the lines of every stamped exposure the run reads out of a
//!   data slot. The transport waits until every one of them is up and merges
//!   the latest stamp. Nothing after that waits. A read of the writer's flag
//!   line takes its payload out of the line and costs nothing more;
//! * the reads of a run out of data slots — payloads behind flag lines and
//!   stamped lines alike — are one **gathered read**
//!   ([`crate::transport::DpCost::gather`]): their line fills do not depend
//!   on one another, so the run pays one load fence and one device latency,
//!   then every piece's bytes at its own bandwidth, a cross-host piece held
//!   to its own fair share of the device. A run of one piece behind a flag —
//!   a broadcast leaf's, any read between two ranks — costs what a pull that
//!   loaded its flag line by itself did; a run of `k` saves `k − 1` flag
//!   lines and `k − 1` latencies, and a run of stamped lines the row besides.
//!   What is given up for that is draining early writers while a straggler
//!   still publishes: under skew a reader ends at the straggler's stamp plus
//!   the row and the whole gathered read, at worst the early pieces' read
//!   time later than a reader that polled writer by writer, and by an amount
//!   that does not depend on the host's schedule;
//! * after its last read of a collective a reader owes its **completion
//!   line** once — one line per rank, holding the sequence number through
//!   which the rank has finished everything exposed to it, whoever wrote it
//!   (the contiguous prefix: a collective completed out of order never
//!   vouches for an earlier one still open), with the stamps of [`DP_SLOTS`]
//!   of its stores: the latest ones, except any a writer may still ask for. It holds the line back: if its next exposure on
//!   the window is stamped lines in a free slot — its flag line, lines in
//!   the data slot, a barrier's arrival — the line is one more line of that
//!   exposure's store stream, one fence for both
//!   ([`crate::transport::DpCost::expose_joined`]). Anything else stores it
//!   by itself first, a line as before: a sweep or a refused slot, a slot
//!   exposure (whose stream would show the line only at its end), a run's
//!   acquire, another window, a point-to-point, RMA or barrier call, the
//!   communicator's drop — so a rank never waits while a peer may wait for
//!   its line, and where the line goes is fixed by program order;
//! * consecutive collectives rotate through [`DP_SLOTS`] slots per rank
//!   (slot = sequence number mod slots), so a writer exposes without asking
//!   anybody. Only when the slot it wants is still held does it read its
//!   readers' completion lines — one row read, from the first awaited
//!   reader's line to the last one's, that releases every slot it holds,
//!   i.e. once per [`DP_SLOTS`] collectives in a steady stream. A reader
//!   sweeping at the same sequence number needs this writer's line in turn,
//!   which is why a sweep stores the held-back line first.
//!
//! An 8-byte allgather among `n` ranks is therefore two transactions and a
//! quarter of two more amortised, whatever `n` is: a store stream of two
//! lines — the flag line and the completion line of the call before — and a
//! row; once per [`DP_SLOTS`] calls the completion line goes by itself ahead
//! of the flag line, and the sweep reads a row of completion lines. A 1 KiB
//! one is a stamped publish carrying the completion line and one gathered
//! read, and a barrier a line and a row, where a message-based one pays
//! per-message software overhead on top of several lines per hop.
//!
//! Broadcast, allgather and allreduce each have more than one **shape** on
//! the window (`DpShape`). The **direct** one reads every byte straight out
//! of the exposure of the member that has it; the allreduce also has a
//! two-phase one (reduce-scatter, then allgather of the reduced blocks). On a
//! group spanning two hosts or more, each also has a **host-sliced** one: a
//! cross-host read is held to its fair share of the device, so what another
//! host exposes crosses the device once per *receiving host*. One member of
//! that host pulls each piece, re-exposes it, and its host-mates read it
//! out of the shared cache — the relay step (`DpOps::relay`). The
//! broadcast's remote members pull disjoint slices of the root's payload. The
//! allgather's pull the other hosts' blocks, dealt out in turn (phase 0 own
//! block, phase 1 relays). The allreduce folds a per-host reduce-scatter out
//! of the cache, exposes its host's partial of its block, folds in the other
//! hosts' partials of it (one cross-host read per host), and relays the
//! reduced block (phases 0, 1 and 2). That is why a group window has
//! [`cxl_shm::slots::SLOT_PHASES`] = 3 flag rows per slot. Which shape runs is
//! not a byte threshold: `cheapest` walks each candidate's op lists on the
//! window's member-invariant cost terms — the priced members' together, each
//! row waiting for its writers — and sends a tie to the direct shape. At 8
//! ranks blocked on 2 hosts the model turns a broadcast at
//! 15 592 B, an allgather at 3 946 B per block and an allreduce at 22 737 B
//! per vector; one host, or one rank per host, never slices. The plan label
//! says which shape ran: `…/shm` or `…/shm+hosts`.
//!
//! A slot is held for exactly the peers that read its occupant
//! ([`DpReaders`]): a rank stores its completion line only for a collective it
//! read something of, so a slot held for a peer that reads nothing would never
//! come free. The irregular exchange (`alltoallv`/`alltoallw`,
//! [`crate::coll::build_alltoallv`]) is where that bites — whom a rank sends
//! anything is data — and where the placement has to be computable without a
//! word exchanged: every slot is cut into one region per reader
//! (`exchange_stride`), writer `w` stores its segment for `r` at
//! `r × stride`, and `r` pulls as many bytes as MPI told it to expect from
//! `(w, me × stride)`. Each segment takes the format its own length gets —
//! the reader knows that length, and nothing else is needed — but never the
//! flag line, which the segments of one exposure would have to share: a short
//! one is stamped lines in its region. A segment that does not fit the region
//! travels as a message between the two ranks that know it does not, in the
//! same plan.
//!
//! Plans built here use the data-plane op kinds of [`crate::progress`]
//! (`ClaimSlot`, `ExposeRead`, `AwaitRow`, `PullCopy`, `FoldInPlace`) and
//! flow through the same CollPlan/PlanCache/persistent machinery as ring plans — window setup is
//! amortized across every start on the communicator, and blocking,
//! nonblocking and persistent starts execute byte-identical schedules.
//!
//! A collective may run as **segments**: the same shape over consecutive
//! sub-ranges — of the payload's bytes or the vector's elements; for an
//! allgather or an alltoall the same sub-range of every member's block — each
//! a complete window round on a sequence number of its own, so segment `i`
//! of a start at `seq` takes slot `(seq + i) mod DP_SLOTS`. Nothing else
//! paces them: a writer exposes segment `i + 1` while its readers still pull
//! segment `i`, and the completion-row read of a slot it wants back is the
//! flow control. How many segments is priced, not fixed: `cheapest` walks
//! every shape at the fewest segments it fits a slot in (`fewest`: one
//! wherever the whole fits), then at twice and four times as many and so
//! on, until a segment would be shorter than a line, and takes the
//! `(shape, depth)` whose pipeline is cheapest (`pipeline`): the latency of
//! one segment down the shape's stage chain (root → cross-host puller →
//! relay → host-mate, each an `AwaitRow` on the one before), one segment per
//! the slowest member's serial cost after it, and past [`DP_SLOTS`]
//! segments the drained pipeline every completion-row sweep leaves. Deeper
//! segments overlap the stages, and their shorter pieces each read closer to
//! the device's full share (`CxlContentionModel` sheds bandwidth past its
//! knee); each also costs a row, a fence and a completion line. A depth that
//! would make the collective dearer issued back to back — its writer
//! running ahead of its readers, the slowest member's work and the sweeps'
//! refills per collective — than the cheapest shape at its fewest segments is
//! not taken. The payload is cut evenly into the depth chosen
//! (`segmented`), one path whether the whole fits a slot or not.
//!
//! Whether a collective runs here at all is decided per plan, in one place:
//! `coll::select_path`. A communicator that has a window uses it, unless the
//! two-level host composition selects itself under
//! [`crate::config::HierarchyMode`]; the barrier takes it whenever it exists.
//! Communicators without a window — a zero
//! [`crate::config::CollTuning::shm_arena_bytes`] creates none, and one whose
//! window the pool's headroom cannot hold fails to create it — run the ring
//! path, never an error. The irregular exchange decides pair by pair instead:
//! all it asks is whether there is a window and whether the pair's own
//! segment fits its region.

use std::ops::Range;

use cmpi_fabric::clock::SimNs;

use crate::coll::CommView;
use crate::progress::{fold_bytes, CollPlan, FoldFn, Loc, SchedOp};
use crate::topology::HostHierarchy;
use crate::transport::{DpFormat, DpGather, DpPiece, DpReaders, DpSource, DpWindow};
use crate::types::{Rank, ReduceOp, Reducible};
use cxl_shm::slots::SLOT_CELL_SIZE;

/// Exposure slots per rank in every data-plane window: how many consecutive
/// collectives on one communicator a writer can expose before it must look at
/// its readers' completion lines (the analog of the ring path's
/// sequence-number tag window, at much smaller depth). Four done entries —
/// the stores a completion line remembers — are exactly one line.
pub const DP_SLOTS: usize = 4;

/// One region a writer publishes: its phase, where it sits in the writer's
/// data slot, how long it is and — from those and the window alone — its
/// format. Every member computes the same value for a given writer, so the
/// writer's expose and the readers' sources can never disagree about where
/// the bytes are or what vouches for them.
#[derive(Debug, Clone, Copy)]
struct Exposure {
    phase: u8,
    region_off: usize,
    len: usize,
    format: DpFormat,
}

impl Exposure {
    /// `len` bytes at `region_off` of the slot of window `w`, in `phase`.
    fn new(w: &DpWindow, phase: u8, region_off: usize, len: usize) -> Self {
        Exposure {
            phase,
            region_off,
            len,
            format: w.format(len, region_off..w.slot_bytes, true),
        }
    }

    /// Bytes `off..` of this exposure as published by group member
    /// `writer_idx`.
    fn source(&self, writer_idx: usize, off: usize) -> DpSource {
        DpSource {
            writer_idx,
            phase: self.phase,
            region: self.region_off,
            off,
            format: self.format,
            last: false,
        }
    }

    /// Where the exposure ends in the slot.
    fn footprint(&self) -> usize {
        self.region_off + self.format.footprint(self.len)
    }
}

/// How a collective of `units` units — bytes, or a reduction's elements — is
/// cut into segments: `len` units each, the last one what is left.
#[derive(Debug, Clone, Copy)]
struct Segments {
    units: usize,
    len: usize,
}

impl Segments {
    /// `units` cut into `segments` segments of `⌈units / segments⌉` units,
    /// the last one what is left — fewer, when that leaves nothing for the
    /// last ones; one empty segment when there are no units.
    fn cut(units: usize, segments: usize) -> Self {
        Segments {
            units,
            len: units.div_ceil(segments.max(1)).max(1),
        }
    }

    fn count(self) -> usize {
        self.units.div_ceil(self.len).max(1)
    }

    /// Units in the last segment.
    fn last(self) -> usize {
        self.units - (self.count() - 1) * self.len
    }

    /// The sub-range of every segment, in order.
    fn ranges(self) -> impl Iterator<Item = Range<usize>> {
        (0..self.count()).map(move |i| i * self.len..((i + 1) * self.len).min(self.units))
    }
}

/// One segment's ops appended to a [`DpOps`] — the sub-range it covers
/// given — and what it needs ([`Fit`]).
type Emit<'a> = &'a dyn Fn(&mut DpOps, Range<usize>) -> Fit;

/// The fewest segments the collective of `units` units whose one segment
/// `emit` appends runs in on window `w`: one when the whole fits a slot,
/// otherwise as many as the largest sub-range that does takes (a footprint
/// grows with its range, and is the same on every member: member 0's ops
/// measure it, in `pricer`). `None` when not even one unit fits. The walk
/// ([`cheapest`]) prices this depth and deeper ones.
fn fewest(w: &DpWindow, units: usize, emit: Emit<'_>, pricer: &mut Pricer) -> Option<usize> {
    let mut fits = |len| pricer.fit(emit, len).footprint <= w.slot_bytes;
    if fits(units) {
        return Some(1);
    }
    if !fits(1) {
        return None;
    }
    let (mut lo, mut hi) = (1, units);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(units.div_ceil(lo))
}

/// Member `me`'s ops of the collective of `units` units whose one segment
/// `emit` appends, cut into `segments` segments ([`Segments::cut`]), each a
/// window round of its own — one, the whole collective, is the same plan —
/// and the scratch bytes the largest segment needs. The depth is the walk's
/// ([`cheapest`]); a depth below [`fewest`]'s makes exposures that overflow
/// their slot.
fn segmented(me: usize, units: usize, segments: usize, emit: Emit<'_>) -> (DpOps, usize) {
    let mut ops = DpOps::new(me);
    let mut scratch = 0;
    let segs = Segments::cut(units, segments);
    for (i, range) in segs.ranges().enumerate() {
        ops.segment(i as u32);
        scratch = scratch.max(emit(&mut ops, range).scratch);
        if i == 0 {
            // Every segment takes as many ops and pieces as the first.
            let more = segs.count() - 1;
            ops.reserve(more * ops.list.len(), more * ops.pieces.len());
        }
    }
    (ops, scratch)
}

/// The data-plane op list of one rank, with the piece table its exposes
/// index. Zero-length exposes and reads are never emitted — both sides of an
/// empty region skip it, so a rank whose block of a short vector is empty
/// costs nobody a device round trip — and the rank's last read of each
/// segment so far is the one marked to store its completion line. Reads come
/// in **runs**: consecutive reads of one phase, from consecutive writers,
/// with nothing between them that could wait, opened by the one `AwaitRow`
/// that acquires all their flag lines — the only way a rank reads a peer.
pub(crate) struct DpOps {
    pub(crate) list: Vec<SchedOp>,
    pieces: Vec<DpPiece>,
    /// The group member the ops are for: the one writer a row may span
    /// without waiting for it.
    me: usize,
    /// The segment the ops appended now belong to.
    seg: u32,
    /// Index in `list` of the read that carries `last`.
    last_read: Option<usize>,
    /// Index in `list` of the `AwaitRow` whose run the next read may join. A
    /// publish, a claim or a message ends the run — each may wait, and the
    /// row's lines are only good until then.
    open_row: Option<usize>,
    /// The phases (a bit each) in which every member raises its flag line,
    /// so that a row may span members it does not read.
    all_raise: u8,
}

impl DpOps {
    /// An empty list for group member `me`.
    fn new(me: usize) -> Self {
        Self::with_capacity(me, 0, 0)
    }

    /// Room for `ops` ops and `pieces` pieces, so that a builder that knows
    /// its shape allocates each table once.
    pub(crate) fn with_capacity(me: usize, ops: usize, pieces: usize) -> Self {
        DpOps {
            list: Vec::with_capacity(ops),
            pieces: Vec::with_capacity(pieces),
            me,
            seg: 0,
            last_read: None,
            open_row: None,
            all_raise: 0,
        }
    }

    /// Room for `ops` more ops and `pieces` more pieces.
    fn reserve(&mut self, ops: usize, pieces: usize) {
        self.list.reserve(ops);
        self.pieces.reserve(pieces);
    }

    /// Empty the list for group member `me`, keeping its room.
    fn reset(&mut self, me: usize) {
        self.list.clear();
        self.pieces.clear();
        self.me = me;
        self.segment(0);
    }

    /// Append the ops of segment `seg` from here on: a window round of its
    /// own, with its own runs, its own last read and its own flag lines.
    fn segment(&mut self, seg: u32) {
        self.seg = seg;
        self.last_read = None;
        self.open_row = None;
        self.all_raise = 0;
    }

    /// Declare that every member of the group raises its `phase` flag line
    /// in this segment: a run of that phase may then span members it does
    /// not read, whose lines are sure to go up, instead of opening a run per
    /// gap.
    fn all_raise(&mut self, phase: u8) {
        self.all_raise |= 1 << phase;
    }

    /// Publish `pieces` of `loc` as one exposure — one streamed publish, at
    /// most one flag line — or nothing at all when there are none.
    fn publish(
        &mut self,
        phase: u8,
        loc: Loc,
        readers: DpReaders,
        pieces: impl IntoIterator<Item = DpPiece>,
    ) {
        let lo = self.pieces.len();
        self.pieces.extend(pieces);
        if self.pieces.len() > lo {
            self.open_row = None;
            self.list.push(SchedOp::ExposeRead {
                phase,
                loc,
                pieces: (lo, self.pieces.len()),
                readers,
                seg: self.seg,
            });
        }
    }

    fn expose(&mut self, e: Exposure, loc: Loc, start: usize, readers: DpReaders) {
        let piece = (e.len > 0).then_some(DpPiece {
            region_off: e.region_off,
            start,
            end: start + e.len,
            format: e.format,
        });
        self.publish(e.phase, loc, readers, piece);
    }

    /// The irregular exchange's expose on window `w`: `segments` of the
    /// primary buffer, as `(reader, range)`, the one for group member `r` at
    /// `r × stride` of the slot, read by `r` alone. Each piece takes the
    /// format its own length gets in its region — the one thing its reader
    /// knows — and never the flag line, which the pieces would have to share.
    pub(crate) fn gather(
        &mut self,
        w: &DpWindow,
        stride: usize,
        segments: impl IntoIterator<Item = (usize, Range<usize>)>,
    ) {
        let pieces = segments.into_iter().map(|(r, seg)| DpPiece {
            region_off: r * stride,
            format: gathered_format(w, stride, r, seg.len()),
            start: seg.start,
            end: seg.end,
        });
        self.publish(0, Loc::Buf, DpReaders::PerPiece { stride }, pieces);
    }

    /// Member `writer_idx`'s piece of such an exposure for member `reader`:
    /// `len` bytes into `buf[dst_start..]`.
    pub(crate) fn pull_gathered(
        &mut self,
        w: &DpWindow,
        stride: usize,
        writer_idx: usize,
        reader: usize,
        len: usize,
        dst_start: usize,
    ) {
        let src = DpSource {
            writer_idx,
            phase: 0,
            region: reader * stride,
            off: 0,
            format: gathered_format(w, stride, reader, len),
            last: false,
        };
        self.pull(src, len, dst_start);
    }

    /// Settle this rank's slot ahead of the expose that will fill it.
    fn claim(&mut self, readers: DpReaders) {
        self.open_row = None;
        self.list.push(SchedOp::ClaimSlot {
            readers,
            seg: self.seg,
        });
    }

    /// A `Send` or `Recv` of the one exchange that mixes messages with reads.
    pub(crate) fn message(&mut self, op: SchedOp) {
        self.open_row = None;
        self.list.push(op);
    }

    /// Open a run: acquire the `phase` flag lines of members `writers` in one
    /// row read — none, when the range is empty — for the reads that follow,
    /// with the stamped lines those read, or for their own sake (a barrier's
    /// arrivals carry no payload to read).
    fn await_row(&mut self, phase: u8, writers: Range<usize>) {
        self.open_row = Some(self.list.len());
        self.list.push(SchedOp::AwaitRow {
            phase,
            writers: (writers.start, writers.end),
            seg: self.seg,
        });
    }

    /// Append a read, which takes over `last` from the read before it. A
    /// read of stamped lines in a data slot needs no flag line and joins the
    /// open run of its phase as it is. Any other read joins it if its flag
    /// line is the next one of the run's row — the first, if the row has
    /// none yet, or the next but this rank's own, which no row waits for, or
    /// any later one in a phase where every member raises its line
    /// ([`Self::all_raise`]) — and opens a run of its own otherwise: a row
    /// never spans a peer that is not read, whose flag nobody promised.
    fn read(&mut self, mut op: SchedOp) {
        fn src_of(op: &mut SchedOp) -> &mut DpSource {
            match op {
                SchedOp::PullCopy { src, .. } | SchedOp::FoldInPlace { src, .. } => src,
                other => unreachable!("{other:?} reads no exposure"),
            }
        }
        let DpSource {
            writer_idx: writer,
            phase,
            format,
            ..
        } = *src_of(&mut op);
        let me = self.me;
        let spans = self.all_raise >> phase & 1 == 1;
        let line = if format.in_row() {
            writer..writer + 1
        } else {
            writer..writer
        };
        match self.open_row.map(|i| &mut self.list[i]) {
            Some(SchedOp::AwaitRow {
                phase: open,
                writers: (start, end),
                ..
            }) if *open == phase => match (line.is_empty(), start == end) {
                (true, _) => {}
                (false, true) => (*start, *end) = (writer, writer + 1),
                (false, false)
                    if writer == *end
                        || (*end == me && writer == me + 1)
                        || (spans && writer > *end) =>
                {
                    *end = writer + 1
                }
                (false, false) => self.await_row(phase, line),
            },
            _ => self.await_row(phase, line),
        }
        if let Some(i) = self.last_read.replace(self.list.len()) {
            src_of(&mut self.list[i]).last = false;
        }
        src_of(&mut op).last = true;
        self.list.push(op);
    }

    fn pull(&mut self, src: DpSource, len: usize, dst_start: usize) {
        if len > 0 {
            self.read(SchedOp::PullCopy {
                src,
                seg: self.seg,
                len,
                dst_loc: Loc::Buf,
                dst_start,
            });
        }
    }

    /// Pull `len` bytes through `scratch[..len]` and fold them into
    /// `buf[dst_start..]`.
    fn fold(&mut self, src: DpSource, len: usize, dst_start: usize) {
        if len > 0 {
            self.read(SchedOp::FoldInPlace {
                src,
                seg: self.seg,
                len,
                dst_loc: Loc::Buf,
                dst_start,
                stage_off: 0,
            });
        }
    }

    /// The relay step of the host-sliced shapes, for member `j` of `cohort`
    /// (the members of one host, in group order) once it holds what it
    /// brought across: re-expose its pieces in `phase` for its host-mates,
    /// then read each host-mate's pieces out of the shared cache into the
    /// same place of the buffer. `pieces(i)` is what cohort member `i`
    /// relays, every member computing the same list for it; a member alone
    /// on its host has nobody to relay to.
    fn relay<I>(
        &mut self,
        w: &DpWindow,
        cohort: &[usize],
        j: usize,
        (phase, readers): (u8, DpReaders),
        pieces: impl Fn(usize) -> I,
    ) where
        I: IntoIterator<Item = Relayed>,
        I::IntoIter: Clone,
    {
        if cohort.len() < 2 {
            return;
        }
        self.publish(phase, Loc::Buf, readers, relayed(w, pieces(j)));
        for (i, &peer) in cohort.iter().enumerate().filter(|&(i, _)| i != j) {
            for p in relayed(w, pieces(i)) {
                let src = DpSource {
                    writer_idx: peer,
                    phase,
                    region: p.region_off,
                    off: 0,
                    format: p.format,
                    last: false,
                };
                self.pull(src, p.end - p.start, p.start);
            }
        }
    }

    /// The finished plan, its result in the primary buffer.
    pub(crate) fn into_plan(
        self,
        view: &CommView<'_>,
        fold: Option<(ReduceOp, FoldFn)>,
        result: (usize, usize),
        input: (usize, usize),
        scratch_len: usize,
        label: &'static str,
    ) -> CollPlan {
        CollPlan::new(
            self.list,
            view.ctx,
            fold,
            Loc::Buf,
            result,
            input,
            scratch_len,
            label,
        )
        .with_pieces(self.pieces, self.seg + 1)
    }
}

/// A piece one member relays to its host-mates: `len` bytes at `start` of
/// the buffer, re-exposed at `region` of its slot.
#[derive(Debug, Clone, Copy)]
struct Relayed {
    start: usize,
    len: usize,
    region: usize,
}

/// The pieces of one member's relay exposure on window `w`, empty ones left
/// out, each in the format its length and region get: a piece alone may be
/// the flag line, several share it and may not.
fn relayed<'w, I>(w: &'w DpWindow, relays: I) -> impl Iterator<Item = DpPiece> + 'w
where
    I: IntoIterator<Item = Relayed>,
    I::IntoIter: Clone + 'w,
{
    let relays = relays.into_iter().filter(|r| r.len > 0);
    let own_line = relays.clone().count() == 1;
    relays.map(move |r| DpPiece {
        region_off: r.region,
        start: r.start,
        end: r.start + r.len,
        format: w.format(r.len, r.region..w.slot_bytes, own_line),
    })
}

/// The format of the irregular-exchange piece of `len` bytes for `reader`
/// on window `w` at the per-reader `stride` — which its writer and its
/// reader, both knowing `len`, compute alike. A stamped piece must fit its
/// region.
fn gathered_format(w: &DpWindow, stride: usize, reader: usize, len: usize) -> DpFormat {
    w.format(len, reader * stride..(reader + 1) * stride, false)
}

/// The per-reader stride of the irregular exchange on a window of
/// `slot_bytes` per slot among `n` members: every writer's slot is cut into
/// `n` equal regions, one per reader, each starting on a cache line — a
/// placement both ends of a pair can compute without being told anything. 0
/// when a region would not hold a line (huge groups, tiny slots) or there is
/// no window: then no segment fits and the whole exchange stays on p2p.
pub(crate) fn exchange_stride(dp: Option<DpWindow>, n: usize) -> usize {
    dp.map_or(0, |w| {
        (w.slot_bytes / n) & !(cxl_shm::slots::SLOT_CELL_SIZE - 1)
    })
}

/// One member's ops of one segment (an op list and the pieces its exposes
/// index) walked on the virtual clock, with the terms the transport charges:
/// every expose, every row, every run's gathered read — of slots behind flag
/// lines and of stamped lines — and the completion line, as a line of its
/// own, which it is unless the member's next exposure carries it (in the next
/// segment, past the op list walked here). A row waits for its writers'
/// exposures, as the transport's does.
#[derive(Debug, Default, Clone, Copy)]
struct Walk {
    at: usize,
    clock: SimNs,
    run: DpGather,
    /// When this member published each phase.
    stamps: [Option<SimNs>; cxl_shm::slots::SLOT_PHASES],
    /// `stamps` as the other members' walks see them ([`Pricer::chain`]).
    seen: [Option<SimNs>; cxl_shm::slots::SLOT_PHASES],
}

impl Walk {
    /// Walk `list` (whose exposes index `pieces`) on as far as the exposures
    /// `stamp(writer, phase)` knows let the rows go. Stopped at a row, return
    /// what it waits for: `stamp`'s `Err` for the first exposure it does not
    /// know yet — the writer, if nobody walked stands in for it.
    /// `same_host(idx)` says whether group member `idx` shares this member's
    /// host.
    fn advance(
        &mut self,
        (list, pieces): (&[SchedOp], &[DpPiece]),
        w: &DpWindow,
        same_host: &dyn Fn(usize) -> bool,
        stamp: &dyn Fn(usize, u8) -> Result<SimNs, Option<usize>>,
    ) -> Option<Option<usize>> {
        while let Some(op) = list.get(self.at) {
            match *op {
                SchedOp::AwaitRow {
                    phase,
                    writers: (lo, hi),
                    ..
                } => {
                    // The row's writers, and those of the stamped lines the
                    // run's reads take out of data slots.
                    let reads = list[self.at + 1..].iter().map_while(|op| match op {
                        SchedOp::PullCopy { src, .. } | SchedOp::FoldInPlace { src, .. } => {
                            Some(Some(src.writer_idx))
                        }
                        SchedOp::Copy { .. } | SchedOp::Fold { .. } => Some(None),
                        _ => None,
                    });
                    let mut ready = self.clock;
                    for writer in (lo..hi).chain(reads.flatten()) {
                        match stamp(writer, phase) {
                            Ok(at) => ready = ready.max(at),
                            Err(unknown) => return Some(unknown),
                        }
                    }
                    self.run = w.cost.run(hi - lo);
                    self.clock = ready + w.cost.row(hi - lo);
                }
                SchedOp::ExposeRead {
                    phase,
                    pieces: (lo, hi),
                    ..
                } => {
                    self.clock += w.cost.expose(&pieces[lo..hi]);
                    self.stamps[usize::from(phase)] = Some(self.clock);
                }
                SchedOp::PullCopy { src, len, .. } | SchedOp::FoldInPlace { src, len, .. } => {
                    // A payload in the writer's flag line came with its row.
                    if let bytes @ 1.. = src.slot_bytes(len) {
                        let near = same_host(src.writer_idx);
                        self.clock += w.cost.gather_piece(&mut self.run, bytes, near);
                    }
                    if src.last {
                        self.clock += w.cost.line();
                    }
                }
                _ => {}
            }
            self.at += 1;
        }
        None
    }
}

/// What one rank's clock advances by while it executes `ops` (whose exposes
/// index `pieces`) on window `w`, not counting time spent waiting for peers:
/// its [`Walk`] with every writer's exposure out at the start.
/// `same_host(idx)` says whether group member `idx` shares the rank's host.
fn serial_cost(
    ops: &[SchedOp],
    pieces: &[DpPiece],
    w: &DpWindow,
    same_host: impl Fn(usize) -> bool,
) -> SimNs {
    let mut walk = Walk::default();
    walk.advance((ops, pieces), w, &same_host, &|_, _| Ok(0.0));
    walk.clock
}

/// Whether group member `r` shares member `m`'s host.
fn host_of(hier: Option<&HostHierarchy>, m: usize) -> impl Fn(usize) -> bool + '_ {
    move |r| hier.is_some_and(|h| h.slot_of(r) == h.slot_of(m))
}

/// What the walk ([`cheapest`]) prices with, kept from one candidate to the
/// next so that pricing another shape or depth allocates nothing: an op list
/// per walked member — the first `used` of `ops` — and their [`Walk`]s.
#[derive(Default)]
struct Pricer {
    ops: Vec<DpOps>,
    used: usize,
    walks: Vec<Walk>,
}

impl Pricer {
    /// Walk member `m` too: its ops of the segment of `units` units `emit`
    /// appends, and what that segment needs.
    fn push(&mut self, m: usize, emit: Emit<'_>, units: usize) -> Fit {
        if self.used == self.ops.len() {
            self.ops.push(DpOps::new(m));
        }
        let ops = &mut self.ops[self.used];
        ops.reset(m);
        self.used += 1;
        emit(ops, 0..units)
    }

    /// What the segment of `units` units `emit` appends needs: member 0's
    /// ops measure it, the only ones walked after.
    fn fit(&mut self, emit: Emit<'_>, units: usize) -> Fit {
        self.used = 0;
        self.push(0, emit, units)
    }

    /// Walk `members`, and nobody else, over the segment of `units` units
    /// `emit` appends.
    fn fill(&mut self, members: &[usize], emit: Emit<'_>, units: usize) {
        self.used = 0;
        for &m in members {
            self.push(m, emit, units);
        }
    }

    /// The slowest walked member's serial cost ([`serial_cost`]).
    fn serial(&self, w: &DpWindow, hier: Option<&HostHierarchy>) -> SimNs {
        let cost = |o: &DpOps| serial_cost(&o.list, &o.pieces, w, host_of(hier, o.me));
        self.ops[..self.used].iter().map(cost).fold(0.0, SimNs::max)
    }

    /// The latency of one segment of `units` units along its shape's stage
    /// chain: the walked members' ops walked together from a common start,
    /// every row waiting for the exposures of its writers. A writer that is
    /// not walked is stood in for by a walked member that has published the
    /// phase, on its host or else on a host of the same size (hosts of one
    /// size run the same share of a shape, their first member the largest);
    /// when there is none, its own ops — appended by `emit` — join the walk.
    /// The last member to finish sets the latency; a chain in which every
    /// member waits never finishes.
    fn chain(
        &mut self,
        w: &DpWindow,
        hier: Option<&HostHierarchy>,
        emit: Emit<'_>,
        units: usize,
    ) -> SimNs {
        let size = |r: usize| hier.map_or(0, |h| h.count(h.slot_of(r)));
        loop {
            let (ops, walks) = (&self.ops[..self.used], &mut self.walks);
            walks.clear();
            walks.resize(ops.len(), Walk::default());
            let missing = loop {
                // Every walk of a sweep sees the stamps as it began.
                for walk in walks.iter_mut() {
                    walk.seen = walk.stamps;
                }
                let mut moved = false;
                let mut missing = None;
                for (i, o) in ops.iter().enumerate() {
                    let mut walk = walks[i];
                    if walk.at == o.list.len() {
                        continue;
                    }
                    let published = || ops.iter().zip(walks.iter()).map(|(o, k)| (o.me, k.seen));
                    let stamp = |writer: usize, phase: u8| {
                        let phase = usize::from(phase);
                        if writer == o.me {
                            return Ok(0.0);
                        }
                        if let Some((_, at)) = published().find(|(m, _)| *m == writer) {
                            return at[phase].ok_or(None);
                        }
                        let host_mate = published().filter(|(m, _)| host_of(hier, *m)(writer));
                        let same_size = published().filter(|(m, _)| size(*m) == size(writer));
                        let stand_in = host_mate.chain(same_size).find_map(|(_, at)| at[phase]);
                        stand_in.ok_or(Some(writer))
                    };
                    let waits = walk.advance((&o.list, &o.pieces), w, &host_of(hier, o.me), &stamp);
                    moved |= walk.at > walks[i].at;
                    missing = missing.or(waits.flatten());
                    walks[i] = walk;
                }
                if ops
                    .iter()
                    .zip(walks.iter())
                    .all(|(o, k)| k.at == o.list.len())
                {
                    return walks.iter().map(|k| k.clock).fold(0.0, SimNs::max);
                }
                if !moved {
                    break missing;
                }
            };
            match missing {
                Some(writer) => {
                    self.push(writer, emit, units);
                }
                None => return SimNs::INFINITY,
            }
        }
    }
}

/// What a window collective costs at one depth ([`pipeline`]).
#[derive(Debug, Clone, Copy)]
struct Priced {
    /// One collective, from a common start to its last member's end.
    path: SimNs,
    /// Each of a stream of such collectives, issued back to back.
    period: SimNs,
}

/// What a window collective of `units` units costs cut into `segments`
/// segments. Along the pipeline's critical path: the first segment's latency
/// down the stage chain ([`Pricer::chain`]), then one segment per the
/// slowest priced member's serial cost ([`Walk`]) — the members work on
/// consecutive segments at once. A writer holds [`DP_SLOTS`] segments'
/// slots; the one after waits until its readers' completion lines show
/// every earlier one read, then reads them in one row — so past
/// [`DP_SLOTS`] segments every group of that many starts from a drained
/// pipeline: the chain latency again instead of a segment's serial cost, and
/// the row. In a stream of such collectives the writer runs ahead of its
/// readers, so a collective costs its slowest member's serial cost of every
/// segment, and a drained pipeline every [`DP_SLOTS`] segments. `members`
/// are the priced members; `emit(ops, range)` appends a member's ops of one
/// segment; `pricer` holds the op lists walked.
fn pipeline(
    w: &DpWindow,
    hier: Option<&HostHierarchy>,
    members: &[usize],
    segs: Segments,
    emit: Emit<'_>,
    pricer: &mut Pricer,
) -> Priced {
    let last = match segs.last() {
        len if len == segs.len => None,
        len => {
            pricer.fill(members, emit, len);
            Some(pricer.serial(w, hier))
        }
    };
    pricer.fill(members, emit, segs.len);
    let each = pricer.serial(w, hier);
    let last = last.unwrap_or(each);
    let latency = pricer.chain(w, hier, emit, segs.len);
    let k = segs.count();
    let refill = latency - each + w.cost.row(w.ranks - 1);
    let drains = k.div_ceil(DP_SLOTS) - 1;
    let path = match k {
        1 => latency,
        _ => latency + each * (k - 2) as f64 + last + refill * drains as f64,
    };
    let period = each * (k - 1) as f64 + last + refill * k as f64 / DP_SLOTS as f64;
    Priced { path, period }
}

/// Which of its window shapes a collective takes: what [`cheapest`] picks
/// by walking every candidate's op list with the transport's cost terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DpShape {
    /// Every reader reads what it needs straight out of its writers'
    /// exposures; an allreduce folds every peer's whole vector
    /// ([`allreduce_one_phase`]).
    Direct,
    /// Allreduce only: a reduce-scatter, then an allgather of the reduced
    /// blocks ([`allreduce_two_phase`]).
    TwoPhase,
    /// **Host-sliced**: what another host exposes crosses the device once
    /// per receiving host — one member pulls it, re-exposes it, and its
    /// host-mates read it out of the shared cache ([`DpOps::relay`]).
    Hosts,
}

impl DpShape {
    /// The plan label of this shape: `hosts` for the host-sliced one,
    /// `direct` for the others.
    fn label(self, direct: &'static str, hosts: &'static str) -> &'static str {
        match self {
            DpShape::Hosts => hosts,
            _ => direct,
        }
    }
}

/// What one segment of a window shape needs: the scratch bytes one member's
/// ops use, and the slot footprint — where the furthest exposure of any
/// member ends, the same on every member.
#[derive(Debug, Clone, Copy)]
struct Fit {
    scratch: usize,
    footprint: usize,
}

/// The host structure of `hier` when it spans two hosts or more: the only
/// one a host-sliced shape has anything to slice by.
fn spread(hier: Option<&HostHierarchy>) -> Option<&HostHierarchy> {
    hier.filter(|h| h.hosts_spanned() >= 2)
}

/// The members a shape is priced by. On two hosts or more, the first member
/// of the first host of every size, `skip`'s host left out: hosts of one
/// size run the same share of a shape, and a host's first member takes the
/// largest (the extra element of an uneven split, the extra relayed block).
/// Otherwise member 0.
fn priced(hier: Option<&HostHierarchy>, skip: Option<usize>) -> Vec<usize> {
    let Some(h) = spread(hier) else {
        return vec![0];
    };
    let mut members: Vec<usize> = Vec::new();
    for s in (0..h.hosts_spanned()).filter(|&s| Some(s) != skip) {
        if members.iter().all(|&m| h.count(h.slot_of(m)) != h.count(s)) {
            members.push(h.leader_of(s));
        }
    }
    members
}

/// How a window collective runs, as the walk ([`cheapest`]) chose it: its
/// shape, the number of segments it is cut into, and what that was priced
/// at ([`pipeline`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DpChoice {
    pub(crate) shape: DpShape,
    pub(crate) segments: usize,
    pub(crate) priced: SimNs,
}

/// The cheapest `(shape, depth)` on window `w` for a collective of `units`
/// units of `unit` bytes — `None` when no shape fits even one unit. The
/// host-sliced shape is a candidate only on two hosts or more. Each shape is
/// priced at its [`fewest`] segments `k`, then at `2k`, `4k`, … until a
/// segment would be shorter than a line, each depth by the pipeline of the
/// ops `emit(ops, shape, range)` appends for `members`, each reading its own
/// host out of the shared cache ([`pipeline`]). The choice is the least
/// critical path among the depths that do not slow a stream of the
/// collective down: none may cost more per collective issued back to back
/// than the shape that is cheapest at its fewest segments — the plan a
/// payload that fits a slot runs as one round. Nothing here depends on the
/// member asking, so every member reaches the same verdict; a tie goes to the
/// earlier shape, then to the shallower depth, so the cost model, not a byte
/// threshold or a segment size, puts every crossover.
fn cheapest(
    w: &DpWindow,
    hier: Option<&HostHierarchy>,
    members: &[usize],
    shapes: &[DpShape],
    (units, unit): (usize, usize),
    emit: impl Fn(&mut DpOps, DpShape, Range<usize>) -> Fit,
) -> Option<DpChoice> {
    let sliced = spread(hier).is_some();
    let shapes = shapes.iter().filter(|&&s| sliced || s != DpShape::Hosts);
    let mut pricer = Pricer::default();
    // Each shape's fewest segments and what they cost (a list names each of
    // the three shapes once at most); the cheapest of those is the
    // reference a deeper cut's stream must not lose to.
    let mut fewest_of: [Option<(usize, Priced)>; 3] = [None; 3];
    for (slot, &shape) in fewest_of.iter_mut().zip(shapes.clone()) {
        let emit = |ops: &mut DpOps, range: Range<usize>| emit(ops, shape, range);
        *slot = fewest(w, units, &emit, &mut pricer).map(|segments| {
            let segs = Segments::cut(units, segments);
            (
                segments,
                pipeline(w, hier, members, segs, &emit, &mut pricer),
            )
        });
    }
    let least = |best: Option<Priced>, p: Priced| match best {
        Some(b) if b.path <= p.path => best,
        _ => Some(p),
    };
    let stream = fewest_of
        .iter()
        .flatten()
        .map(|f| f.1)
        .fold(None, least)?
        .period;
    let mut best: Option<DpChoice> = None;
    for (fewest, &shape) in fewest_of.iter().zip(shapes) {
        let Some((mut segments, mut priced)) = *fewest else {
            continue;
        };
        let emit = |ops: &mut DpOps, range: Range<usize>| emit(ops, shape, range);
        loop {
            let Priced { path, period } = priced;
            if period <= stream && best.is_none_or(|b| path < b.priced) {
                best = Some(DpChoice {
                    shape,
                    segments,
                    priced: path,
                });
            }
            segments *= 2;
            if segments > units || units.div_ceil(segments) * unit < SLOT_CELL_SIZE {
                break;
            }
            let segs = Segments::cut(units, segments);
            priced = pipeline(w, hier, members, segs, &emit, &mut pricer);
        }
    }
    best
}

/// Barrier as a zero-byte all-to-all exchange on the flag lines: every rank
/// stores its arrival (an empty exposure — the sequence value and its stamp)
/// and acquires every peer's in one row read, a store and a row whatever the
/// group size. Sequence values only grow, so a flag a later collective has
/// already overwritten still says "arrived"; nothing is read out of the slot,
/// so nobody stores a completion line and the slot is never held.
pub(crate) fn build_barrier_shm(view: &CommView<'_>) -> CollPlan {
    let (me, n) = (view.rank, view.size());
    let mut ops = DpOps::with_capacity(me, 2, 0);
    ops.list.push(SchedOp::ExposeRead {
        phase: 0,
        loc: Loc::Buf,
        pieces: (0, 0),
        readers: DpReaders::Others,
        seg: 0,
    });
    // From the first peer's line to the last one's.
    ops.await_row(0, usize::from(me == 0)..n - usize::from(me == n - 1));
    ops.into_plan(view, None, (0, 0), (0, 0), 0, "barrier/shm")
}

/// The broadcast of `total` bytes from `root` on window `w` that costs its
/// slowest reader least ([`cheapest`]): its shape and its depth.
pub(crate) fn bcast_choice(
    w: &DpWindow,
    hier: Option<&HostHierarchy>,
    root: Rank,
    total: usize,
) -> Option<DpChoice> {
    // The root's host reads the root's exposure directly in either shape.
    let mut members = priced(hier, spread(hier).map(|h| h.slot_of(root)));
    if members.iter().all(|&m| m == root) {
        // One host: price a reader besides the root.
        members.push((root + 1) % w.ranks);
    }
    if !members.contains(&root) {
        members.push(root);
    }
    let shapes = [DpShape::Direct, DpShape::Hosts];
    cheapest(
        w,
        hier,
        &members,
        &shapes,
        (total, 1),
        |ops, shape, range| bcast_ops(ops, w, hier, shape, root, range),
    )
}

/// Single-copy broadcast. The root exposes the whole payload once; how the
/// readers drain it depends on the shape:
///
/// * **Direct**: every other rank pulls the full payload straight into its
///   own buffer — its only read, so its completion line follows. One publish
///   serves all `n − 1` readers (one line when the payload fits in the flag
///   line); the binomial tree's full-payload store-and-forward hops disappear
///   entirely.
/// * **Host-sliced**: the root's host-mates still pull the full payload —
///   that read is served by the shared hardware-coherent cache. Each other
///   host's members pull disjoint contiguous slices of the root's one
///   exposure concurrently — the payload crosses the pooled device once per
///   remote host, not once per remote reader — then relay their slice to
///   their host-mates, re-exposed at its payload offset in their own slot.
///
/// Slot footprint: the payload's either way (a re-exposed slice is stamped
/// only where its lines fit the slot); a payload that does not fit runs in
/// segments of consecutive byte ranges.
pub(crate) fn build_bcast_shm(
    view: &CommView<'_>,
    w: &DpWindow,
    hier: Option<&HostHierarchy>,
    (shape, segments): (DpShape, usize),
    root: Rank,
    total: usize,
) -> CollPlan {
    let emit: Emit<'_> = &|ops, range| bcast_ops(ops, w, hier, shape, root, range);
    let (ops, _) = segmented(view.rank, total, segments, emit);
    let input = if view.rank == root {
        (0, total)
    } else {
        (0, 0)
    };
    let label = shape.label("bcast/shm", "bcast/shm+hosts");
    ops.into_plan(view, None, (0, total), input, 0, label)
}

/// Member `ops.me`'s part of the broadcast of bytes `seg` of the payload in
/// `shape`.
fn bcast_ops(
    ops: &mut DpOps,
    w: &DpWindow,
    hier: Option<&HostHierarchy>,
    shape: DpShape,
    root: Rank,
    seg: Range<usize>,
) -> Fit {
    let (me, at, total) = (ops.me, seg.start, seg.len());
    let payload = Exposure::new(w, 0, 0, total);
    let hosts = spread(hier).filter(|_| shape == DpShape::Hosts);
    if me == root {
        ops.expose(payload, Loc::Buf, at, DpReaders::Others);
    } else if let Some(h) = hosts.filter(|h| h.slot_of(me) != h.slot_of(root)) {
        // Another host: pull my slice of the root's exposure, then relay it.
        let cohort = h.members(h.slot_of(me));
        let k = cohort.len();
        let slice = |i: usize| {
            let start = block_off(i, total, k, 1);
            Relayed {
                start: at + start,
                len: block_off(i + 1, total, k, 1) - start,
                region: start,
            }
        };
        let j = cohort.iter().position(|&r| r == me).expect("me in cohort");
        let mine = slice(j);
        if k > 1 {
            // Settle my slot while the root is still publishing.
            ops.claim(DpReaders::HostMates);
        }
        ops.pull(payload.source(root, mine.region), mine.len, mine.start);
        ops.relay(w, cohort, j, (0, DpReaders::HostMates), |i| [slice(i)]);
    } else {
        // Direct — also the root's host-mates in the host-sliced shape: they
        // read the exposure out of the shared cache, where slicing would only
        // trade cache reads for flag traffic.
        ops.pull(payload.source(root, 0), total, at);
    }
    Fit {
        scratch: 0,
        footprint: payload.footprint(),
    }
}

/// The depth of the rooted reduce of `count` elements of `elem` bytes among
/// `n` members to `root` on window `w` ([`cheapest`], one shape). `None`
/// when not even one element fits a slot.
pub(crate) fn reduce_choice(
    w: &DpWindow,
    hier: Option<&HostHierarchy>,
    (n, root): (usize, Rank),
    count: usize,
    elem: usize,
) -> Option<DpChoice> {
    let mut members = priced(hier, None);
    if !members.contains(&root) {
        members.push(root);
    }
    cheapest(
        w,
        hier,
        &members,
        &[DpShape::Direct],
        (count, elem),
        |ops, _, range| reduce_ops(ops, w, n, root, elem, range),
    )
}

/// Single-copy rooted reduce: every non-root exposes its full vector; the
/// root pulls each one through a scratch staging block and folds it into its
/// own buffer, storing its completion line after the last contributor — the
/// one reader every exposure has. The root moves each vector across the
/// fabric exactly once, with no intermediate partial-sum hops.
///
/// Slot footprint: the vector's (`count × sizeof(T)` bytes); the walk's
/// `segments` are consecutive runs of elements.
pub(crate) fn build_reduce_shm<T: Reducible>(
    view: &CommView<'_>,
    w: &DpWindow,
    root: Rank,
    (count, segments): (usize, usize),
    op: ReduceOp,
) -> CollPlan {
    let (me, n) = (view.rank, view.size());
    let elem = std::mem::size_of::<T>();
    let emit: Emit<'_> = &|ops, range| reduce_ops(ops, w, n, root, elem, range);
    let (ops, scratch_len) = segmented(me, count, segments, emit);
    let total = count * elem;
    let result = if me == root { (0, total) } else { (0, 0) };
    let fold = Some((op, fold_bytes::<T> as FoldFn));
    ops.into_plan(view, fold, result, (0, total), scratch_len, "reduce/shm")
}

/// Member `ops.me`'s part of the reduce of elements `seg` of `elem` bytes
/// among `n` members.
fn reduce_ops(
    ops: &mut DpOps,
    w: &DpWindow,
    n: usize,
    root: Rank,
    elem: usize,
    seg: Range<usize>,
) -> Fit {
    let (at, total) = (seg.start * elem, seg.len() * elem);
    let vector = Exposure::new(w, 0, 0, total);
    if ops.me == root {
        for r in (0..n).filter(|&r| r != root) {
            ops.fold(vector.source(r, 0), total, at);
        }
    } else {
        ops.expose(vector, Loc::Buf, at, DpReaders::One(root));
    }
    Fit {
        scratch: if ops.me == root { total } else { 0 },
        footprint: vector.footprint(),
    }
}

/// Byte offset of rank `i`'s block in an `n`-way split of `count` elements of
/// `elem` bytes (first `count % n` blocks get one extra element — the same
/// uneven split the van de Geijn broadcast uses).
fn block_off(i: usize, count: usize, n: usize, elem: usize) -> usize {
    let base = count / n;
    let rem = count % n;
    (i * base + i.min(rem)) * elem
}

/// **Two phases** — reduce-scatter + allgather over the shared window:
///
/// 1. every rank exposes its full input vector `A` at slot offset 0
///    (phase 0);
/// 2. every rank pulls *its own block* of each peer's `A` and folds it in
///    place — after this, rank `i` holds the fully reduced block `i`;
/// 3. every rank exposes its reduced block `B` on the first line past `A`'s
///    footprint (phase 1 — `A` and `B` are disjoint slot regions and
///    separate flag lines, so no write-after-read hazard with stragglers
///    still reading `A`);
/// 4. every rank pulls each peer's `B` into the right place.
///
/// Each rank's vector crosses the fabric once in step 2 (sliced across
/// readers) and each reduced block once per reader in step 4 — the
/// Rabenseifner traffic pattern, minus all intermediate copies, headers and
/// per-message overhead. The vector is the `count` elements at byte `at` of
/// the buffer. Slot footprint: up to the end of the largest reduced block's.
fn allreduce_two_phase(
    ops: &mut DpOps,
    w: &DpWindow,
    n: usize,
    (count, elem): (usize, usize),
    at: usize,
) -> Fit {
    let me = ops.me;
    let total = count * elem;
    let block = |r: usize| {
        let off = block_off(r, count, n, elem);
        (off, block_off(r + 1, count, n, elem) - off)
    };
    let (my_off, my_len) = block(me);
    let vector = Exposure::new(w, 0, 0, total);
    let region = vector.footprint().next_multiple_of(SLOT_CELL_SIZE);
    let reduced = |r: usize| Exposure::new(w, 1, region, block(r).1);
    // Two exposes, two rows, two rounds of reads.
    ops.reserve(2 * n + 2, 2);
    ops.expose(vector, Loc::Buf, at, DpReaders::Others);
    for r in (0..n).filter(|&r| r != me) {
        ops.fold(vector.source(r, my_off), my_len, at + my_off);
    }
    ops.expose(reduced(me), Loc::Buf, at + my_off, DpReaders::Others);
    for r in (0..n).filter(|&r| r != me) {
        let (r_off, r_len) = block(r);
        ops.pull(reduced(r).source(r, 0), r_len, at + r_off);
    }
    let footprint = (0..n).map(|r| reduced(r).footprint()).max();
    Fit {
        scratch: my_len,
        footprint: footprint.unwrap_or(region),
    }
}

/// **One phase**: every rank exposes its vector and folds every peer's
/// exposure locally — one publish round instead of two dependent ones, at
/// `n − 1` full-vector reads per rank, which is what a short vector wants.
/// Every rank folds in group order (`v₀ ⊕ v₁ ⊕ … ⊕ vₙ₋₁`, its own vector
/// taking its turn from a scratch copy), so all members compute the same
/// bits whatever the reduction's associativity. The vector is the `count`
/// elements at byte `at` of the buffer. Slot footprint: the vector's.
fn allreduce_one_phase(
    ops: &mut DpOps,
    w: &DpWindow,
    n: usize,
    (count, elem): (usize, usize),
    at: usize,
) -> Fit {
    let me = ops.me;
    let total = count * elem;
    let vector = Exposure::new(w, 0, 0, total);
    // One expose, the own vector's copy and fold, a row, `n − 1` reads.
    ops.reserve(n + 3, 1);
    ops.expose(vector, Loc::Buf, at, DpReaders::Others);
    if me != 0 {
        ops.list.push(SchedOp::Copy {
            dst_loc: Loc::Scratch,
            dst_start: total,
            src_loc: Loc::Buf,
            src_start: at,
            len: total,
        });
        ops.pull(vector.source(0, 0), total, at);
    }
    for r in 1..n {
        if r == me {
            ops.list.push(SchedOp::Fold {
                dst_loc: Loc::Buf,
                dst_start: at,
                src_loc: Loc::Scratch,
                src_start: total,
                len: total,
            });
        } else {
            ops.fold(vector.source(r, 0), total, at);
        }
    }
    Fit {
        scratch: if me == 0 { total } else { 2 * total },
        footprint: vector.footprint(),
    }
}

/// **Host-sliced** — the per-host reduce-scatter and the relay, with one
/// cross-host fold per member and remote host. Every host splits the vector
/// into as many blocks as it has members, member `j` owning block `j`:
///
/// 1. on a host of two members or more, every rank exposes its full vector
///    (phase 0) and folds its own block of each host-mate's out of the
///    shared cache: it holds its host's **partial** of the block;
/// 2. it exposes that partial (phase 1), and folds in, out of the device,
///    the part of each other host's partials that covers its block — in
///    host order, its own host's taking its turn from a scratch copy, so
///    every host computes the same bits of every block (`p₀ ⊕ p₁ ⊕ …`)
///    whatever the reduction's associativity;
/// 3. it relays the reduced block to its host-mates (phase 2), and reads
///    theirs.
///
/// Each rank's vector crosses the device once per other host, sliced across
/// that host's members, where [`allreduce_two_phase`] sends each block
/// across once per remote reader and each reduced block again. The vector is
/// the `count` elements at byte `at` of the buffer. Slot footprint: the
/// vector's, a partial's and a reduced block's, each on lines of its own.
fn allreduce_hosts(
    ops: &mut DpOps,
    w: &DpWindow,
    h: &HostHierarchy,
    (count, elem): (usize, usize),
    at: usize,
) -> Fit {
    let me = ops.me;
    let total = count * elem;
    // Block `i` of host `t`'s split: what member `i` of host `t` reduces.
    let block = |t: usize, i: usize| {
        let k = h.count(t);
        block_off(i, count, k, elem)..block_off(i + 1, count, k, elem)
    };
    let vector = Exposure::new(w, 0, 0, total);
    let partial_at = vector.footprint().next_multiple_of(SLOT_CELL_SIZE);
    let partial = |t: usize, i: usize| Exposure::new(w, 1, partial_at, block(t, i).len());
    let reduced = |t: usize, i: usize| {
        let region = partial(t, i).footprint().next_multiple_of(SLOT_CELL_SIZE);
        Relayed {
            start: at + block(t, i).start,
            len: block(t, i).len(),
            region,
        }
    };
    let s = h.slot_of(me);
    let cohort = h.members(s);
    let j = cohort.iter().position(|&r| r == me).expect("me in cohort");
    let mine = block(s, j);
    let everywhere = |t: usize| h.count(t) >= 2;
    if (0..h.hosts_spanned()).all(everywhere) && vector.format.in_row() {
        ops.all_raise(0);
    }
    if cohort.len() > 1 {
        ops.expose(vector, Loc::Buf, at, DpReaders::Others);
        for &peer in cohort.iter().filter(|&&r| r != me) {
            ops.fold(vector.source(peer, mine.start), mine.len(), at + mine.start);
        }
    }
    ops.expose(partial(s, j), Loc::Buf, at + mine.start, DpReaders::Others);
    // My partial waits in scratch, past the staging area, for its turn.
    let stash = mine.len();
    if s > 0 && stash > 0 {
        ops.list.push(SchedOp::Copy {
            dst_loc: Loc::Scratch,
            dst_start: stash,
            src_loc: Loc::Buf,
            src_start: at + mine.start,
            len: stash,
        });
    }
    for t in 0..h.hosts_spanned() {
        if t == s {
            if s > 0 && stash > 0 {
                ops.list.push(SchedOp::Fold {
                    dst_loc: Loc::Buf,
                    dst_start: at + mine.start,
                    src_loc: Loc::Scratch,
                    src_start: stash,
                    len: stash,
                });
            }
            continue;
        }
        for (i, &peer) in h.members(t).iter().enumerate() {
            let theirs = block(t, i);
            let (lo, hi) = (theirs.start.max(mine.start), theirs.end.min(mine.end));
            if lo < hi {
                let src = partial(t, i).source(peer, lo - theirs.start);
                if t == 0 {
                    ops.pull(src, hi - lo, at + lo);
                } else {
                    ops.fold(src, hi - lo, at + lo);
                }
            }
        }
    }
    ops.relay(w, cohort, j, (2, DpReaders::Others), |i| [reduced(s, i)]);
    let footprint = (0..h.hosts_spanned())
        .flat_map(|t| (0..h.count(t)).map(move |i| (t, i)))
        .map(|(t, i)| {
            let r = reduced(t, i);
            r.region
                + w.format(r.len, r.region..w.slot_bytes, true)
                    .footprint(r.len)
        })
        .max();
    Fit {
        scratch: if s > 0 { 2 * stash } else { stash },
        footprint: footprint.unwrap_or(partial_at),
    }
}

/// Member `ops.me`'s part of the allreduce of elements `seg` of `elem` bytes
/// among `n` members in `shape`.
fn allreduce_ops(
    ops: &mut DpOps,
    w: &DpWindow,
    hier: Option<&HostHierarchy>,
    shape: DpShape,
    (n, elem): (usize, usize),
    seg: Range<usize>,
) -> Fit {
    let (vector, at) = ((seg.len(), elem), seg.start * elem);
    match (shape, spread(hier)) {
        (DpShape::Hosts, Some(h)) => allreduce_hosts(ops, w, h, vector, at),
        (DpShape::TwoPhase, _) => allreduce_two_phase(ops, w, n, vector, at),
        _ => allreduce_one_phase(ops, w, n, vector, at),
    }
}

/// The allreduce among `n` members reducing `count` elements of `elem` bytes
/// that costs its slowest member least on window `w` — one phase, two phases
/// or host-sliced, and its depth ([`cheapest`]). A tie goes to the single
/// round.
pub(crate) fn allreduce_choice(
    w: &DpWindow,
    hier: Option<&HostHierarchy>,
    n: usize,
    count: usize,
    elem: usize,
) -> Option<DpChoice> {
    let shapes = [DpShape::Direct, DpShape::TwoPhase, DpShape::Hosts];
    let members = priced(hier, None);
    cheapest(
        w,
        hier,
        &members,
        &shapes,
        (count, elem),
        |ops, shape, range| allreduce_ops(ops, w, hier, shape, (n, elem), range),
    )
}

/// Single-copy allreduce of `count` elements of `T`, in `shape`, in the
/// walk's `segments` of consecutive elements.
pub(crate) fn build_allreduce_shm<T: Reducible>(
    view: &CommView<'_>,
    w: &DpWindow,
    hier: Option<&HostHierarchy>,
    (shape, segments): (DpShape, usize),
    count: usize,
    op: ReduceOp,
) -> CollPlan {
    let elem = std::mem::size_of::<T>();
    let vector = (view.size(), elem);
    let emit: Emit<'_> = &|ops, range| allreduce_ops(ops, w, hier, shape, vector, range);
    let (ops, scratch_len) = segmented(view.rank, count, segments, emit);
    let total = count * elem;
    let fold = Some((op, fold_bytes::<T> as FoldFn));
    let label = shape.label("allreduce/shm", "allreduce/shm+hosts");
    ops.into_plan(view, fold, (0, total), (0, total), scratch_len, label)
}

/// The allgather of `block` bytes per member among `n` on window `w` that
/// costs its slowest member least — direct or host-sliced — and its depth.
pub(crate) fn allgather_choice(
    w: &DpWindow,
    hier: Option<&HostHierarchy>,
    n: usize,
    block: usize,
) -> Option<DpChoice> {
    let shapes = [DpShape::Direct, DpShape::Hosts];
    let members = priced(hier, None);
    cheapest(
        w,
        hier,
        &members,
        &shapes,
        (block, 1),
        |ops, shape, range| allgather_ops(ops, w, hier, shape, (n, block), range),
    )
}

/// Single-copy allgather: every rank exposes its own block (phase 0), then,
///
/// * **direct**, pulls each peer's block straight into the right slice of
///   its destination buffer: every block crosses the fabric once per reader
///   with no forwarding hops — the ring's `n − 1` store-and-forward rounds
///   collapse into one round of concurrent pulls;
/// * **host-sliced**, pulls its host-mates' blocks out of the shared cache
///   and its share of the other hosts' — the `i`-th of them, in group order,
///   crosses to a host of `k` members through member `i mod k` — and relays
///   those to its host-mates (phase 1): every block crosses the device once
///   per receiving host.
///
/// Slot footprint: the block's; host-sliced, the relayed blocks' after it,
/// each on lines of its own. Blocks that do not fit run in segments, each
/// the same byte range of every block.
pub(crate) fn build_allgather_shm(
    view: &CommView<'_>,
    w: &DpWindow,
    hier: Option<&HostHierarchy>,
    (shape, segments): (DpShape, usize),
    block: usize,
) -> CollPlan {
    let (me, n) = (view.rank, view.size());
    let emit: Emit<'_> = &|ops, range| allgather_ops(ops, w, hier, shape, (n, block), range);
    let (ops, _) = segmented(me, block, segments, emit);
    let input = (me * block, (me + 1) * block);
    let label = shape.label("allgather/shm", "allgather/shm+hosts");
    ops.into_plan(view, None, (0, n * block), input, 0, label)
}

/// Member `ops.me`'s part of the allgather, in `shape`, of bytes `seg` of
/// every member's `block`-byte block among `n`.
fn allgather_ops(
    ops: &mut DpOps,
    w: &DpWindow,
    hier: Option<&HostHierarchy>,
    shape: DpShape,
    (n, block): (usize, usize),
    seg: Range<usize>,
) -> Fit {
    let me = ops.me;
    let len = seg.len();
    // Where member `r`'s bytes of the segment go in every buffer.
    let at = |r: usize| r * block + seg.start;
    let own = Exposure::new(w, 0, 0, len);
    ops.expose(own, Loc::Buf, at(me), DpReaders::Others);
    let Some(h) = spread(hier).filter(|_| shape == DpShape::Hosts) else {
        for r in (0..n).filter(|&r| r != me) {
            ops.pull(own.source(r, 0), len, at(r));
        }
        return Fit {
            scratch: 0,
            footprint: own.footprint(),
        };
    };
    let base = own.footprint().next_multiple_of(SLOT_CELL_SIZE);
    let stride = DpFormat::Stamped { in_row: false }.footprint(len);
    // What member `i` of host `t` relays: the other hosts' blocks that cross
    // to `t` through it.
    let relays = |t: usize, i: usize| {
        let k = h.count(t);
        let others = (0..n).filter(move |&r| h.slot_of(r) != t);
        others
            .enumerate()
            .skip(i)
            .step_by(k)
            .map(move |(x, r)| Relayed {
                start: at(r),
                len,
                region: base + x / k * stride,
            })
    };
    let s = h.slot_of(me);
    let cohort = h.members(s);
    let j = cohort.iter().position(|&r| r == me).expect("me in cohort");
    if own.format.in_row() {
        // Every member exposes its block in phase 0.
        ops.all_raise(0);
    }
    let mut crossing = 0;
    for r in (0..n).filter(|&r| r != me) {
        let mine = h.slot_of(r) == s || {
            crossing += 1;
            (crossing - 1) % cohort.len() == j
        };
        if mine {
            ops.pull(own.source(r, 0), len, at(r));
        }
    }
    ops.relay(w, cohort, j, (1, DpReaders::Others), |i| relays(s, i));
    // A member alone on its host relays nothing.
    let footprint = (0..h.hosts_spanned())
        .filter(|&t| h.count(t) >= 2)
        .flat_map(|t| relayed(w, relays(t, 0)))
        .map(|p| p.region_off + p.format.footprint(p.end - p.start))
        .fold(own.footprint(), usize::max);
    Fit {
        scratch: 0,
        footprint,
    }
}

/// The depth of the alltoall of `block` bytes per peer among `n` members on
/// window `w` ([`cheapest`], one shape). `None` when not even a byte of every
/// block fits a slot.
pub(crate) fn alltoall_choice(
    w: &DpWindow,
    hier: Option<&HostHierarchy>,
    n: usize,
    block: usize,
) -> Option<DpChoice> {
    let members = priced(hier, None);
    cheapest(
        w,
        hier,
        &members,
        &[DpShape::Direct],
        (block, 1),
        |ops, _, range| alltoall_ops(ops, w, (n, block), range),
    )
}

/// Single-copy alltoall: every rank exposes its **whole send image** once
/// (n blocks, block `i` addressed to rank `i`), then pulls block `me` out of
/// each peer's exposure directly into that peer's slice of its own buffer —
/// its only read of that exposure. Each block crosses the fabric exactly
/// once, one-sided, with no intermediate store-and-forward hop; the pairwise
/// path's n−1 two-sided messages per rank collapse into one exposure plus
/// n−1 concurrent pulls. WAR safety needs no extra guard: the exposure
/// publishes a *copy* into the window, so the local buffer is free to receive
/// pulled blocks immediately, and slot reuse across consecutive collectives
/// is gated by the readers' completion lines.
///
/// Slot footprint: the full send image's (`n × block` bytes). In the walk's
/// `segments` of more than one, each is the same byte range of every block,
/// packed into scratch and exposed as the image of the segment.
pub(crate) fn build_alltoall_shm(
    view: &CommView<'_>,
    w: &DpWindow,
    block: usize,
    segments: usize,
) -> CollPlan {
    let n = view.size();
    let emit: Emit<'_> = &|ops, range| alltoall_ops(ops, w, (n, block), range);
    let (ops, scratch_len) = segmented(view.rank, block, segments, emit);
    let total = n * block;
    ops.into_plan(
        view,
        None,
        (0, total),
        (0, total),
        scratch_len,
        "alltoall/shm",
    )
}

/// Member `ops.me`'s part of the alltoall of bytes `seg` of every
/// `block`-byte block among `n` members.
fn alltoall_ops(
    ops: &mut DpOps,
    w: &DpWindow,
    (n, block): (usize, usize),
    seg: Range<usize>,
) -> Fit {
    let (me, len) = (ops.me, seg.len());
    let image = Exposure::new(w, 0, 0, n * len);
    let loc = if len == block {
        Loc::Buf
    } else {
        for r in 0..n {
            ops.list.push(SchedOp::Copy {
                dst_loc: Loc::Scratch,
                dst_start: r * len,
                src_loc: Loc::Buf,
                src_start: r * block + seg.start,
                len,
            });
        }
        Loc::Scratch
    };
    ops.expose(image, loc, 0, DpReaders::Others);
    for r in (0..n).filter(|&r| r != me) {
        ops.pull(image.source(r, me * len), len, r * block + seg.start);
    }
    Fit {
        scratch: if loc == Loc::Scratch { n * len } else { 0 },
        footprint: image.footprint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coll::build_allreduce;
    use crate::config::CollTuning;
    use crate::group::Group;
    use crate::transport::DpCost;
    use cmpi_fabric::cost::CoherenceMode;
    use cmpi_fabric::{CxlContentionModel, CxlCostModel};
    use cxl_shm::slots::stamped_lines;

    const STAMPED: DpFormat = DpFormat::Stamped { in_row: false };
    const INLINE: DpFormat = DpFormat::Stamped { in_row: true };

    fn view_of(group: &Group, rank: Rank) -> CommView<'_> {
        CommView {
            group,
            ctx: 0,
            rank,
        }
    }

    /// The window of a group of `ranks` with `slot_bytes` per slot, four
    /// pairs in the crowd.
    fn window(ranks: usize, slot_bytes: usize) -> DpWindow {
        DpWindow {
            slot_bytes,
            ranks,
            cost: DpCost {
                cost: CxlCostModel::default(),
                contention: CxlContentionModel::default(),
                mode: CoherenceMode::FlushClflushopt,
                pairs: 4,
            },
        }
    }

    /// Member `me`'s ops of the two-phase allreduce of `count` elements of
    /// `elem` bytes among `n`, in one segment.
    fn two_phase(w: &DpWindow, me: usize, n: usize, count: usize, elem: usize) -> (DpOps, Fit) {
        let mut ops = DpOps::new(me);
        let fit = allreduce_two_phase(&mut ops, w, n, (count, elem), 0);
        (ops, fit)
    }

    /// `(exposes, reads, reads that store the completion line)` of a plan.
    fn shape(plan: &CollPlan) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for op in &plan.ops {
            match op {
                SchedOp::ExposeRead { .. } => counts.0 += 1,
                SchedOp::PullCopy { src, .. } | SchedOp::FoldInPlace { src, .. } => {
                    counts.1 += 1;
                    counts.2 += usize::from(src.last);
                }
                _ => {}
            }
        }
        counts
    }

    #[test]
    fn bcast_plan_shape() {
        let group = Group::from_world_ranks(vec![0, 1, 2, 3]).unwrap();
        let w = window(4, 64 * 1024);
        let root_plan =
            build_bcast_shm(&view_of(&group, 1), &w, None, (DpShape::Direct, 1), 1, 256);
        // Root: one expose, nothing to wait for.
        assert_eq!(shape(&root_plan), (1, 0, 0));
        assert_eq!(root_plan.label, "bcast/shm");
        assert_eq!(root_plan.input_len(), 256);
        let leaf_plan =
            build_bcast_shm(&view_of(&group, 3), &w, None, (DpShape::Direct, 1), 1, 256);
        // Non-root: a single pull, which is also its last read.
        assert_eq!(shape(&leaf_plan), (0, 1, 1));
        assert_eq!(leaf_plan.input_len(), 0);
        assert_eq!(leaf_plan.result_len(), 256);
        // A zero-byte broadcast moves nothing and touches no line.
        assert!(
            build_bcast_shm(&view_of(&group, 1), &w, None, (DpShape::Direct, 1), 1, 0).is_empty()
        );
        assert!(
            build_bcast_shm(&view_of(&group, 3), &w, None, (DpShape::Direct, 1), 1, 0).is_empty()
        );
    }

    #[test]
    fn sources_know_the_format_their_length_gets() {
        let group = Group::from_world_ranks(vec![0, 1, 2]).unwrap();
        let w = window(3, 64 * 1024);
        let formats = [
            (8, INLINE),
            (48, INLINE),
            (49, STAMPED),
            (1024, STAMPED),
            (16 * 1024, DpFormat::Slot),
        ];
        for (bytes, format) in formats {
            let leaf = build_bcast_shm(
                &view_of(&group, 2),
                &w,
                None,
                (DpShape::Direct, 1),
                0,
                bytes,
            );
            let Some(&SchedOp::PullCopy { src, len, .. }) = leaf.ops.last() else {
                panic!("leaf plan ends with {:?}", leaf.ops.last());
            };
            assert_eq!(
                (src.format, src.region, src.off, len),
                (format, 0, 0, bytes)
            );
            // The root publishes in the format its readers expect.
            let root = build_bcast_shm(
                &view_of(&group, 0),
                &w,
                None,
                (DpShape::Direct, 1),
                0,
                bytes,
            );
            assert_eq!(root.pieces[0].format, format, "{bytes} B");
        }
        // An alltoall reader takes its own block out of the middle of the
        // peer's image — by its offset in the image, line or lines alike.
        for (block, format) in [(16, INLINE), (32, STAMPED)] {
            let plan = build_alltoall_shm(&view_of(&group, 1), &w, block, 1);
            let SchedOp::PullCopy { src, len, .. } = plan.ops[2] else {
                panic!("expected a pull, got {:?}", plan.ops[2]);
            };
            assert_eq!((src.format, src.off, len), (format, block, block));
        }
    }

    #[test]
    fn the_format_follows_the_cost_model_and_the_room() {
        let w = window(8, 64 * 1024);
        // One line is the flag line, unless the line is shared; a few lines
        // validate themselves; a payload whose floors bind goes behind a
        // flag.
        assert_eq!(w.format(48, 0..w.slot_bytes, true), INLINE);
        assert_eq!(w.format(48, 0..w.slot_bytes, false), STAMPED);
        assert_eq!(w.format(49, 0..w.slot_bytes, true), STAMPED);
        assert_eq!(w.format(1024, 0..w.slot_bytes, true), STAMPED);
        assert_eq!(w.format(8 * 1024, 0..w.slot_bytes, true), DpFormat::Slot);
        // Lines that do not fit their region, or start inside a line, do not
        // get it.
        assert_eq!(w.format(100, 0..128, false), STAMPED);
        assert_eq!(w.format(105, 0..128, false), DpFormat::Slot);
        assert_eq!(w.format(100, 8..w.slot_bytes, true), DpFormat::Slot);
        // Two ranks: the rule is one cross-host reader's read, whose row a
        // floor does not hide — stamped lines go further.
        let pair = window(2, 64 * 1024);
        assert_eq!(pair.format(4 * 1024, 0..pair.slot_bytes, true), STAMPED);
        // And a footprint counts lines.
        let footprint = |len| Exposure::new(&w, 0, 0, len).footprint();
        assert_eq!(footprint(49), 2 * SLOT_CELL_SIZE);
        assert_eq!(footprint(8 * 1024), 8 * 1024);
    }

    /// The range of writers each `AwaitRow` of an op list spans.
    fn rows(ops: &[SchedOp]) -> Vec<(usize, usize)> {
        let span = |op: &SchedOp| match *op {
            SchedOp::AwaitRow { writers, .. } => Some(writers),
            _ => None,
        };
        ops.iter().filter_map(span).collect()
    }

    #[test]
    fn barrier_is_one_store_and_one_row() {
        let group = Group::from_world_ranks(vec![3, 5, 6, 9, 11]).unwrap();
        let w = window(5, 1024);
        // A member in the middle spans the whole row, one at an end a line
        // less; nobody reads anything or stores a completion line.
        for (rank, row) in [(0, (1, 5)), (2, (0, 5)), (4, (0, 4))] {
            let plan = build_barrier_shm(&view_of(&group, rank));
            assert_eq!((plan.len(), shape(&plan)), (2, (1, 0, 0)));
            assert_eq!(rows(&plan.ops), [row]);
            assert_eq!(plan.label, "barrier/shm");
            assert_eq!(
                serial_cost(&plan.ops, &plan.pieces, &w, |_| false),
                w.cost.line() + w.cost.row(row.1 - row.0)
            );
        }
    }

    #[test]
    fn a_row_of_one_line_is_a_line_and_longer_ones_stream() {
        let cost = window(8, 1024).cost;
        assert_eq!(cost.row(1), cost.line());
        // No lines: a run of stamped exposures has no row to pay.
        assert_eq!(cost.row(0), 0.0);
        // Eight lines: what a 512 B pull pays for its payload, where eight
        // loads paid eight device round trips.
        let streamed = cost.cost.streamed_read(512, cost.mode);
        assert_eq!(cost.row(8), streamed);
        assert!(cost.row(8) < 1.2 * cost.line());
        assert!((2..64).all(|k| cost.row(k) <= cost.row(k + 1)));
    }

    /// What a pull that loaded its writer's flag line by itself was charged
    /// before reads came in runs.
    fn pulled_singly(cost: &DpCost, bytes: usize, same_host: bool) -> SimNs {
        if same_host {
            return cost.cost.coherent_read(bytes, CoherenceMode::Cached) + cost.line();
        }
        let ideal = cost.cost.streamed_read(bytes, cost.mode) + cost.line();
        ideal.max(cost.fair_share(bytes))
    }

    /// The cost terms of `pairs` active pairs under coherence `mode`.
    fn cost_of(pairs: usize, mode: CoherenceMode) -> DpCost {
        DpCost {
            pairs,
            mode,
            ..window(8, 1024).cost
        }
    }

    const MODES: [CoherenceMode; 4] = [
        CoherenceMode::FlushClflushopt,
        CoherenceMode::FlushClflush,
        CoherenceMode::Cached,
        CoherenceMode::Uncacheable,
    ];

    #[test]
    fn a_gather_of_one_piece_is_the_old_pull_less_its_line() {
        // Latency-bound and floor-bound, out of the cache and off the device,
        // alone on the device and in a crowd: a run of one piece — a broadcast
        // leaf's, every read between two ranks — moves no clock.
        for (pairs, mode) in [1, 2, 4, 16]
            .into_iter()
            .flat_map(|p| MODES.map(|m| (p, m)))
        {
            let cost = cost_of(pairs, mode);
            for bytes in [8, 64, 1024, 64 * 1024, 1 << 20] {
                for same_host in [true, false] {
                    let run = cost.row(1) + cost.gather(1, [(bytes, same_host)]);
                    let pull = pulled_singly(&cost, bytes, same_host);
                    assert!(
                        (run - pull).abs() < 1e-9 * pull,
                        "{pairs} pairs, {mode:?}, {bytes} B, same host {same_host}: {run} vs {pull}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_gather_never_costs_more_than_its_pieces_pulled_singly() {
        // Same-host and cross-host pieces in every proportion and both
        // orders, behind a row that spans this rank's own line too.
        for (pairs, mode) in [1, 4, 16].into_iter().flat_map(|p| MODES.map(|m| (p, m))) {
            let cost = cost_of(pairs, mode);
            for bytes in [8, 1024, 64 * 1024] {
                // (An uncacheable row past the 2 KiB cliff is another matter:
                // every word of it is a transaction of its own.)
                let wide = (mode != CoherenceMode::Uncacheable).then_some((0, 63));
                let mixes = [(0, 2), (1, 1), (2, 0), (3, 4), (0, 7), (7, 0)];
                for (near, far) in mixes.into_iter().chain(wide) {
                    let pieces = || {
                        let near = std::iter::repeat_n((bytes, true), near);
                        near.chain(std::iter::repeat_n((bytes / 2 + 4, false), far))
                    };
                    let lines = near + far + 1;
                    let run = cost.row(lines) + cost.gather(lines, pieces());
                    let singly: SimNs = pieces().map(|(b, s)| pulled_singly(&cost, b, s)).sum();
                    assert!(
                        run <= singly * (1.0 + 1e-12),
                        "{pairs} pairs, {mode:?}, {near}+{far} × {bytes} B: {run} > {singly}"
                    );
                    // ... nor less than its cross-host bytes take at this
                    // reader's share of the device.
                    let floors: SimNs = pieces()
                        .filter(|&(_, same_host)| !same_host)
                        .map(|(b, _)| cost.fair_share(b))
                        .sum();
                    assert!(run >= floors * (1.0 - 1e-12), "{run} < {floors}");
                    // The order of the pieces is not part of the price.
                    let reversed: Vec<_> = pieces().collect();
                    let back = cost.gather(lines, reversed.into_iter().rev());
                    assert!((back - cost.gather(lines, pieces())).abs() < 1e-6);
                }
            }
        }
        // Eight ranks on two hosts at 1 KiB: what is saved is six flag lines
        // less the row's streaming, and six fences and latencies.
        let cost = cost_of(4, CoherenceMode::FlushClflushopt);
        let pieces = [(1024, true); 3].into_iter().chain([(1024, false); 4]);
        let singly: SimNs = pieces
            .clone()
            .map(|(b, s)| pulled_singly(&cost, b, s))
            .sum();
        let run = cost.row(8) + cost.gather(8, pieces);
        assert!(run < singly - 6.0 * cost.line(), "{run} vs {singly}");
    }

    #[test]
    fn reads_of_one_phase_share_one_row() {
        let group = Group::world(8);
        let w = window(8, 64 * 1024);
        // Allgather of a flag-line payload: every peer's line in one row,
        // then seven reads that wait for nothing.
        let plan = build_allgather_shm(&view_of(&group, 3), &w, None, (DpShape::Direct, 1), 8);
        assert_eq!((plan.len(), shape(&plan)), (9, (1, 7, 1)));
        assert!(matches!(plan.ops[1], SchedOp::AwaitRow { phase: 0, .. }));
        assert_eq!(rows(&plan.ops), [(0, 8)]);
        // The row of a rank at either end stops short of its own line.
        for (rank, row) in [(0, (1, 8)), (7, (0, 7))] {
            assert_eq!(
                rows(
                    &build_allgather_shm(&view_of(&group, rank), &w, None, (DpShape::Direct, 1), 8)
                        .ops
                ),
                [row]
            );
        }
        // A broadcast leaf's row is the root's line alone.
        let leaf = build_bcast_shm(&view_of(&group, 5), &w, None, (DpShape::Direct, 1), 2, 48);
        assert_eq!(rows(&leaf.ops), [(2, 3)]);
        // Reads out of data slots come in the same runs.
        let plan = build_allgather_shm(
            &view_of(&group, 3),
            &w,
            None,
            (DpShape::Direct, 1),
            16 * 1024,
        );
        assert_eq!((plan.len(), shape(&plan)), (9, (1, 7, 1)));
        assert_eq!(rows(&plan.ops), [(0, 8)]);
        let leaf = build_bcast_shm(
            &view_of(&group, 5),
            &w,
            None,
            (DpShape::Direct, 1),
            2,
            64 * 1024,
        );
        assert_eq!(rows(&leaf.ops), [(2, 3)]);
        // Stamped lines in data slots need no row: one run, no lines.
        let plan = build_allgather_shm(&view_of(&group, 3), &w, None, (DpShape::Direct, 1), 64);
        assert_eq!((plan.len(), shape(&plan)), (9, (1, 7, 1)));
        assert_eq!(rows(&plan.ops), [(0, 0)]);
        // The one-phase allreduce's local copy and fold sit inside the run.
        let t = CollTuning::default();
        let plan = build_allreduce::<u64>(&view_of(&group, 3), &t, None, Some(w), 1, ReduceOp::Sum);
        assert_eq!(rows(&plan.ops), [(0, 8)]);
    }

    /// A read by member 3 of `writer`'s 8 bytes in `format`.
    fn src(writer: usize, format: DpFormat) -> DpSource {
        DpSource {
            writer_idx: writer,
            phase: 0,
            region: 0,
            off: 0,
            format,
            last: false,
        }
    }

    #[test]
    fn a_row_spans_this_ranks_own_line_and_no_other_gap() {
        // Member 3 reads 1, 2, 4 and 6: its own line is bridged, member 5's —
        // whose flag nobody promised — is not, and costs a second row; in the
        // flag line or in the slot, the payloads make no difference.
        let slot = DpFormat::Slot;
        for formats in [[INLINE; 4], [slot; 4], [INLINE, slot, slot, INLINE]] {
            let mut ops = DpOps::new(3);
            for (writer, format) in [1, 2, 4, 6].into_iter().zip(formats) {
                ops.pull(src(writer, format), 8, 8 * writer);
            }
            assert_eq!(rows(&ops.list), [(1, 5), (6, 7)]);
            assert_eq!(ops.list.len(), 6);
        }
    }

    #[test]
    fn stamped_reads_need_no_row_and_join_the_run_of_their_phase() {
        // Stamped lines in data slots from 1, 2, 4 and 6: no flag line to
        // await, no gap to split on — one run, an empty row.
        let mut ops = DpOps::new(3);
        for writer in [1, 2, 4, 6] {
            ops.pull(src(writer, STAMPED), 8, 8 * writer);
        }
        assert_eq!(rows(&ops.list), [(1, 1)]);
        // A flag line after them is the row's first; one the row cannot
        // reach opens a run of its own.
        let mut ops = DpOps::new(3);
        ops.pull(src(0, STAMPED), 8, 0);
        ops.pull(src(1, DpFormat::Slot), 8, 8);
        ops.pull(src(2, STAMPED), 8, 16);
        ops.pull(src(4, INLINE), 8, 32);
        ops.pull(src(6, INLINE), 8, 48);
        assert_eq!(rows(&ops.list), [(1, 2), (4, 5), (6, 7)]);
    }

    #[test]
    fn whatever_can_wait_ends_the_run() {
        let src = |writer| src(writer, DpFormat::Slot);
        let send = SchedOp::Send {
            peer: 1,
            tag_off: 0,
            loc: Loc::Buf,
            start: 0,
            end: 8,
        };
        // A message between two reads of consecutive writers: by the time it
        // is through, another collective may have taken the row buffer.
        let mut ops = DpOps::new(0);
        ops.pull(src(1), 64, 0);
        ops.message(send);
        ops.pull(src(2), 64, 64);
        assert_eq!(rows(&ops.list), [(1, 2), (2, 3)]);
        // So may a claim; a local copy may not, and does not.
        let mut ops = DpOps::new(0);
        ops.pull(src(1), 64, 0);
        ops.list.push(SchedOp::Copy {
            dst_loc: Loc::Scratch,
            dst_start: 0,
            src_loc: Loc::Buf,
            src_start: 0,
            len: 64,
        });
        ops.pull(src(2), 64, 64);
        ops.claim(DpReaders::Others);
        ops.pull(src(3), 64, 128);
        assert_eq!(rows(&ops.list), [(1, 3), (3, 4)]);
    }

    #[test]
    fn a_two_phase_allreduce_reads_each_phase_in_one_run() {
        // 55 u64 over 8 ranks: the 440 B vectors are stamped lines in data
        // slots, and so are seven reduced blocks of 7 elements (56 B, two
        // lines); one of 6 (48 B) is rank 7's flag line. Phase 0 needs no
        // row, phase 1 one of a line — a run each.
        let w = window(8, 64 * 1024);
        let (ops, _) = two_phase(&w, 2, 8, 55, 8);
        assert_eq!(rows(&ops.list), [(0, 0), (7, 8)]);
        let phases: Vec<u8> = ops
            .list
            .iter()
            .filter_map(|op| match *op {
                SchedOp::AwaitRow { phase, .. } => Some(phase),
                _ => None,
            })
            .collect();
        assert_eq!(phases, [0, 1]);
        // Each run directly follows its phase's expose: nothing else waits.
        assert!(matches!(ops.list[0], SchedOp::ExposeRead { phase: 0, .. }));
        assert!(matches!(ops.list[1], SchedOp::AwaitRow { phase: 0, .. }));
        assert!(matches!(ops.list[9], SchedOp::ExposeRead { phase: 1, .. }));
        assert!(matches!(ops.list[10], SchedOp::AwaitRow { phase: 1, .. }));
        assert_eq!(ops.list.len(), 18);
        // The reduced blocks start on the first line past the vector's.
        assert_eq!(
            ops.pieces[1].region_off,
            stamped_lines(440) * SLOT_CELL_SIZE
        );
    }

    #[test]
    fn host_sliced_bcast_slices_remote_hosts_only() {
        use crate::topology::{HostHierarchy, HostTopology};
        // 6 ranks blocked over 2 hosts: {0,1,2} and {3,4,5}, root 0.
        let group = Group::world(6);
        let topo = HostTopology::blocked(6, 2).unwrap();
        let w = window(6, 512 * 1024);
        let total = 128 * 1024;
        let hier = |rank: Rank| HostHierarchy::derive(&group, &topo, rank);
        let plan_of = |rank: Rank| {
            let h = hier(rank);
            build_bcast_shm(
                &view_of(&group, rank),
                &w,
                Some(&h),
                (DpShape::Hosts, 1),
                0,
                total,
            )
        };
        // Root: one expose for every reader, sliced or not.
        assert_eq!(shape(&plan_of(0)), (1, 0, 0));
        // Root's host-mate: one full-payload cache-served pull, no slicing.
        assert_eq!(shape(&plan_of(1)), (0, 1, 1));
        // Remote-host member: claim its slot, pull own slice, re-expose it to
        // its host-mates, pull their 2 slices.
        let remote = plan_of(4);
        assert_eq!(shape(&remote), (1, 3, 1));
        assert!(matches!(remote.ops[0], SchedOp::ClaimSlot { .. }));
        assert!(matches!(
            remote.ops[3],
            SchedOp::ExposeRead {
                readers: DpReaders::HostMates,
                ..
            }
        ));
        // A run of one piece off the root, a run of two off the host-mates.
        assert_eq!(rows(&remote.ops), [(0, 1), (3, 6)]);
        assert_eq!(remote.label, "bcast/shm+hosts");
        assert_eq!(remote.result_len(), total);
        // The walk keeps 256 B direct and slices 128 KiB.
        let h = hier(4);
        assert_eq!(
            bcast_choice(&w, Some(&h), 0, 256).map(|c| c.shape),
            Some(DpShape::Direct)
        );
        assert_eq!(
            bcast_choice(&w, Some(&h), 0, total).map(|c| c.shape),
            Some(DpShape::Hosts)
        );
        // On one host there is nothing to slice by.
        let one_host = HostTopology::blocked(6, 1).unwrap();
        let h1 = HostHierarchy::derive(&group, &one_host, 4);
        assert_eq!(
            bcast_choice(&w, Some(&h1), 0, total).map(|c| c.shape),
            Some(DpShape::Direct)
        );
        let flat = build_bcast_shm(
            &view_of(&group, 4),
            &w,
            Some(&h1),
            (DpShape::Hosts, 1),
            0,
            total,
        );
        assert_eq!(shape(&flat), (0, 1, 1));
    }

    #[test]
    fn allreduce_blocks_cover_the_vector_unevenly() {
        // 10 elements over 4 ranks: blocks of 3, 3, 2, 2.
        let elem = 8;
        let offs: Vec<usize> = (0..=4).map(|i| block_off(i, 10, 4, elem)).collect();
        assert_eq!(offs, vec![0, 24, 48, 64, 80]);
        let (ops, Fit { scratch, footprint }) = two_phase(&window(4, 4096), 2, 4, 10, elem);
        // 2 exposes, each followed by a row and 3 reads (the 80 B vector in
        // two stamped lines, the reduced blocks, 16 and 24 B, in flag lines);
        // scratch stages one own-block fold at a time; the slot holds the
        // vector's two lines and a line past them.
        assert_eq!(ops.list.len(), 10);
        assert_eq!((scratch, footprint), (16, 3 * SLOT_CELL_SIZE));
    }

    #[test]
    fn short_vectors_emit_no_zero_length_ops() {
        // 2 elements over 5 ranks: ranks 2..5 own nothing. They fold nothing,
        // re-expose nothing, and nobody pulls their (empty) block.
        let w = window(5, 4096);
        let owner = two_phase(&w, 1, 5, 2, 8).0;
        let idle = two_phase(&w, 3, 5, 2, 8).0;
        // Owner: expose A, a row and 4 folds, expose B, a row of one line and
        // the pull of rank 0's block.
        assert_eq!(owner.list.len(), 9);
        assert_eq!(rows(&owner.list), [(0, 5), (0, 1)]);
        // Idle: expose A, one row, the pulls of the two reduced blocks.
        assert_eq!(idle.list.len(), 4);
        assert_eq!(rows(&idle.list), [(0, 2)]);
        for ops in [&owner, &idle] {
            assert!(ops.list.iter().all(|op| match *op {
                SchedOp::ExposeRead {
                    pieces: (lo, hi), ..
                } => hi > lo,
                SchedOp::PullCopy { len, .. } | SchedOp::FoldInPlace { len, .. } => len > 0,
                _ => true,
            }));
            assert!(ops.pieces.iter().all(|p| p.end > p.start));
        }
    }

    #[test]
    fn allreduce_shape_follows_the_cost_model() {
        let group = Group::world(8);
        let t = CollTuning::default();
        let w = Some(window(8, 512 * 1024));
        let plan = |rank, count| {
            let plan =
                build_allreduce::<f64>(&view_of(&group, rank), &t, None, w, count, ReduceOp::Sum);
            assert_eq!(plan.label, "allreduce/shm");
            plan
        };
        // One f64: one expose, seven whole-vector folds — on every rank.
        for rank in [0, 5] {
            assert_eq!(shape(&plan(rank, 1)), (1, 7, 1));
        }
        // 512 B still folds whole vectors; 64 KiB scatters the reduction —
        // and so, its peers all priced as remote, does 1 KiB, whose vectors
        // each reader would otherwise stream whole in stamped lines.
        assert_eq!(shape(&plan(3, 64)), (1, 7, 1));
        assert_eq!(shape(&plan(3, 128)), (2, 14, 1));
        assert_eq!(shape(&plan(3, 8192)), (2, 14, 1));
        // Rank 0 folds in place; the others stage their own vector too.
        assert_eq!(plan(0, 64).scratch_len(), 512);
        assert_eq!(plan(3, 64).scratch_len(), 1024);
        // Each shape priced from the fewest segments it fits a slot in: on
        // 64 KiB slots the two-phase shape holds 7280 f64 (the vector and
        // an eighth of it, each on lines of its own) in one; 7281, and a
        // whole slot's 8192, take two and still beat folding whole vectors;
        // 20 000 take three. No deeper cut pays there: the segments are cut
        // evenly, so 7281 runs as 3641 and 3640 elements.
        let tight = Some(window(8, 64 * 1024));
        let view = view_of(&group, 0);
        let segments = |count| {
            let plan = build_allreduce::<f64>(&view, &t, None, tight, count, ReduceOp::Sum);
            assert_eq!(plan.label, "allreduce/shm", "{count}");
            (plan.seqs, shape(&plan))
        };
        assert_eq!(segments(7280), (1, (2, 14, 1)));
        assert_eq!(segments(7281), (2, (4, 28, 2)));
        assert_eq!(segments(8192), (2, (4, 28, 2)));
        assert_eq!(segments(20_000), (3, (6, 42, 3)));
    }

    /// The irregular exchange among `n` ranks on 64 KiB slots, as `rank`
    /// plans it, when `src` sends `bytes(src, dst)` to `dst`.
    fn exchange_plan(n: usize, rank: Rank, bytes: impl Fn(usize, usize) -> usize) -> CollPlan {
        let group = Group::world(n);
        let send: Vec<usize> = (0..n).map(|d| bytes(rank, d)).collect();
        let recv: Vec<usize> = (0..n).map(|s| bytes(s, rank)).collect();
        let w = Some(window(n, 64 * 1024));
        crate::coll::build_alltoallv(&view_of(&group, rank), w, &send, &recv, 1, false)
    }

    #[test]
    fn irregular_exchange_is_one_gather_at_a_fixed_stride_and_a_pull_per_peer() {
        // 8 ranks on 64 KiB slots: a stride of 8 KiB.
        let plan = exchange_plan(8, 3, |s, d| 100 * (s + 1) + d);
        assert_eq!(plan.label, "alltoallv/shm");
        // The self copy, one expose of seven pieces, one run, seven pulls.
        assert_eq!((plan.len(), shape(&plan)), (10, (1, 7, 1)));
        assert!(matches!(
            plan.ops[1],
            SchedOp::ExposeRead {
                pieces: (0, 7),
                readers: DpReaders::PerPiece { stride: 8192 },
                ..
            }
        ));
        for (piece, r) in plan.pieces.iter().zip((0..8).filter(|&r| r != 3)) {
            assert_eq!(piece.region_off, r * 8192);
            assert_eq!(piece.end - piece.start, 400 + r);
            assert_eq!(piece.format, STAMPED);
        }
        // Every pull takes the reader's own region of the writer's slot, by
        // the length MPI told the reader, in writer order — stamped lines,
        // so the run has no row.
        assert_eq!(rows(&plan.ops), [(0, 0)]);
        let SchedOp::PullCopy { src, len, .. } = plan.ops[3] else {
            panic!("expected a pull, got {:?}", plan.ops[3]);
        };
        assert_eq!(
            (src.writer_idx, src.region, src.off, src.format, len),
            (0, 3 * 8192, 0, STAMPED, 103)
        );
        // Behind flag lines, rank 0's run starts past its own line and rank
        // 7's stops short of it.
        let big = |_: usize, _: usize| 4096;
        assert_eq!(rows(&exchange_plan(8, 0, big).ops), [(1, 8)]);
        assert_eq!(rows(&exchange_plan(8, 7, big).ops), [(0, 7)]);
        assert!(exchange_plan(8, 0, big)
            .pieces
            .iter()
            .all(|p| p.format == DpFormat::Slot));
    }

    #[test]
    fn irregular_exchange_pieces_never_take_the_flag_line_and_skip_empty_pairs() {
        // Only 0 → 1, eight bytes: one piece and one reader on rank 0, one
        // pull on rank 1, nothing at all on rank 2 — and stamped lines in the
        // reader's region, not the flag line, short as it is: the pieces of a
        // gathered exposure would all have to share it.
        let edge = |s: usize, d: usize| if (s, d) == (0, 1) { 8 } else { 0 };
        let writer = exchange_plan(3, 0, edge);
        assert_eq!((writer.len(), shape(&writer)), (1, (1, 0, 0)));
        assert_eq!(writer.pieces.len(), 1);
        assert_eq!(writer.pieces[0].region_off, 64 * 1024 / 3 / 64 * 64);
        assert_eq!(writer.pieces[0].format, STAMPED);
        let reader = exchange_plan(3, 1, edge);
        let SchedOp::PullCopy { src, len, .. } = reader.ops[1] else {
            panic!("expected a pull, got {:?}", reader.ops[1]);
        };
        assert_eq!(
            (reader.len(), src.format, src.last, len),
            (2, STAMPED, true, 8)
        );
        assert_eq!(rows(&reader.ops), [(0, 0)]);
        assert!(exchange_plan(3, 2, edge).is_empty());
    }

    #[test]
    fn an_empty_pair_is_a_hole_and_costs_a_second_row() {
        // Rank 5 sends rank 2 nothing — and, for all rank 2 knows, nobody
        // else either, so that its flag may never go up: rank 2 reads 0, 1, 3
        // and 4 behind one row (its own line bridged), 6 and 7 behind another.
        let hole = |s: usize, d: usize| if (s, d) == (5, 2) { 0 } else { 4096 };
        let plan = exchange_plan(8, 2, hole);
        assert_eq!(shape(&plan), (1, 6, 1));
        assert_eq!(rows(&plan.ops), [(0, 5), (6, 8)]);
        // Everybody else reads rank 5 in the one run of a dense exchange.
        for rank in [0, 4, 6] {
            let plan = exchange_plan(8, rank, hole);
            assert_eq!(shape(&plan), (1, 7, 1));
            assert_eq!(rows(&plan.ops).len(), 1);
        }
        // Stamped pieces await no flag: the hole splits nothing.
        let small = |s: usize, d: usize| if (s, d) == (5, 2) { 0 } else { 256 };
        assert_eq!(rows(&exchange_plan(8, 2, small).ops), [(0, 0)]);
    }

    #[test]
    fn an_oversize_pair_falls_back_alone_and_no_window_means_all_of_them() {
        // 9000 B > the 8 KiB stride between ranks 2 and 5 only.
        let bytes = |s: usize, d: usize| match (s.min(d), s.max(d)) {
            (2, 5) => 9000,
            _ => 4000,
        };
        let plan = exchange_plan(8, 2, bytes);
        assert_eq!(plan.label, "alltoallv/shm+pairwise");
        assert_eq!(shape(&plan), (1, 6, 1));
        let kinds: Vec<char> = plan
            .ops
            .iter()
            .map(|op| match op {
                SchedOp::Copy { .. } => 'c',
                SchedOp::ExposeRead { .. } => 'e',
                SchedOp::Send { .. } => 's',
                SchedOp::AwaitRow { .. } => 'a',
                SchedOp::PullCopy { .. } => 'p',
                SchedOp::Recv { .. } => 'r',
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        // The oversize pair is a hole between the pulls: two runs.
        assert_eq!(kinds.iter().collect::<String>(), "cesappppappr");
        assert_eq!(rows(&plan.ops), [(0, 5), (6, 8)]);
        assert_eq!(exchange_plan(8, 4, bytes).label, "alltoallv/shm");
        // Without a window every pair is a message: send to me + s, then
        // receive from me − s, on every rank.
        let group = Group::world(4);
        for rank in 0..4 {
            let plan = crate::coll::build_alltoallv(
                &view_of(&group, rank),
                None,
                &[8; 4],
                &[8; 4],
                1,
                true,
            );
            assert_eq!(plan.label, "alltoallw/pairwise");
            let peers: Vec<(bool, Rank)> = plan
                .ops
                .iter()
                .filter_map(|op| match *op {
                    SchedOp::Send { peer, .. } => Some((true, peer)),
                    SchedOp::Recv { peer, .. } => Some((false, peer)),
                    _ => None,
                })
                .collect();
            let sends = (1..4).map(|s| (true, (rank + s) % 4));
            let recvs = (1..4).map(|s| (false, (rank + 4 - s) % 4));
            assert_eq!(peers, sends.chain(recvs).collect::<Vec<_>>());
        }
    }

    #[test]
    fn irregular_exchange_costs_one_publish_one_gathered_read_and_a_line() {
        let n = 8;
        let w = window(n, 64 * 1024);
        let same_host = |r: usize| r < 4;
        // Short segments: stamped lines — one store stream, no flag line; one
        // gathered read of the lines, no row.
        let small = |s: usize, d: usize| 64 * (1 + (3 * s + d) % 5);
        let lines = |len: usize| stamped_lines(len) * SLOT_CELL_SIZE;
        let plan = exchange_plan(n, 1, small);
        let cross: usize = (0..n).filter(|&d| d != 1).map(|d| lines(small(1, d))).sum();
        let publish = w.cost.publish(cross, false);
        let pieces = (0..n)
            .filter(|&s| s != 1)
            .map(|s| (lines(small(s, 1)), same_host(s)));
        let reads = w.cost.gather(0, pieces);
        let cost = serial_cost(&plan.ops, &plan.pieces, &w, same_host);
        assert!((cost - (publish + reads + w.cost.line())).abs() < 1e-9);
        // Long ones: the slots behind the flag lines, a row ahead of them.
        let big = |s: usize, d: usize| 2048 * (1 + (3 * s + d) % 3);
        let plan = exchange_plan(n, 1, big);
        let cross: usize = (0..n).filter(|&d| d != 1).map(|d| big(1, d)).sum();
        let publish = w.cost.publish(cross, true);
        let pieces = (0..n)
            .filter(|&s| s != 1)
            .map(|s| (big(s, 1), same_host(s)));
        let reads = w.cost.row(n) + w.cost.gather(n, pieces);
        let cost = serial_cost(&plan.ops, &plan.pieces, &w, same_host);
        assert!((cost - (publish + reads + w.cost.line())).abs() < 1e-9);
    }

    #[test]
    fn allgather_plan_shape() {
        let group = Group::from_world_ranks(vec![4, 5, 6]).unwrap();
        let plan = build_allgather_shm(
            &view_of(&group, 0),
            &window(3, 4096),
            None,
            (DpShape::Direct, 1),
            128,
        );
        // 1 expose, a run, 2 pulls, the second of which ends the collective.
        assert_eq!(shape(&plan), (1, 2, 1));
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.result_len(), 3 * 128);
        assert_eq!(plan.input_len(), 128);
    }

    /// A collective the pricing is checked against a run of.
    #[derive(Debug, Clone, Copy)]
    enum Run {
        Bcast,
        Allreduce,
        Allgather,
        Alltoall,
    }

    /// `op` of `bytes` (per block, for the allgather and the alltoall) on
    /// `comm` in its steady state, behind a barrier: this rank's virtual time
    /// in it, and the walk's choice for it.
    fn timed(comm: &mut crate::Comm, op: Run, bytes: usize) -> crate::Result<(SimNs, DpChoice)> {
        let (n, me) = (comm.size(), comm.rank());
        let (w, hier) = comm.plan_inputs();
        let (w, hier) = (w.expect("a window"), hier.as_deref());
        let choice = match op {
            Run::Bcast => bcast_choice(&w, hier, 0, bytes),
            Run::Allreduce => allreduce_choice(&w, hier, n, bytes / 8, 8),
            Run::Allgather => allgather_choice(&w, hier, n, bytes),
            Run::Alltoall => alltoall_choice(&w, hier, n, bytes),
        };
        let mut values = vec![1.0f64; bytes / 8];
        let send = vec![me as u8; n * bytes];
        let mut recv = vec![0u8; n * bytes];
        let mut once = |comm: &mut crate::Comm| match op {
            Run::Bcast => comm.bcast_into(0, &mut recv[..bytes]),
            Run::Allreduce => comm.allreduce(&mut values, ReduceOp::Sum),
            Run::Allgather => comm.allgather_into(&send[..bytes], &mut recv),
            Run::Alltoall => comm.alltoall(&send, &mut recv),
        };
        once(comm)?;
        once(comm)?;
        comm.barrier()?;
        let start = comm.clock_ns();
        once(comm)?;
        Ok((comm.clock_ns() - start, choice.expect("a window choice")))
    }

    #[test]
    fn a_run_takes_the_time_its_depth_was_priced_at() {
        // The slowest rank's virtual time in a steady-state collective is
        // within 10 % of the critical path the walk priced its choice at.
        const KIB: usize = 1024;
        let cases: [(usize, &[(Run, usize)]); 2] = [
            (
                8,
                &[
                    (Run::Bcast, 64 * KIB),
                    (Run::Bcast, 256 * KIB),
                    (Run::Allreduce, 64 * KIB),
                    (Run::Allreduce, 256 * KIB),
                    (Run::Allgather, 64 * KIB),
                    (Run::Alltoall, 64 * KIB),
                ],
            ),
            (2, &[(Run::Bcast, 1024 * KIB), (Run::Allreduce, 1024 * KIB)]),
        ];
        for (ranks, runs) in cases {
            let config = crate::UniverseConfig::cxl(ranks).with_hosts(2);
            let results = crate::Universe::run(config, |comm| {
                runs.iter()
                    .map(|&(op, bytes)| timed(comm, op, bytes))
                    .collect::<crate::Result<Vec<_>>>()
            })
            .unwrap();
            for (i, &(op, bytes)) in runs.iter().enumerate() {
                let choice = results[0].0[i].1;
                let measured = results.iter().map(|(r, _)| r[i].0).fold(0.0, SimNs::max);
                let what = format!("{op:?} of {bytes} B at {ranks} ranks on 2 hosts, {choice:?}");
                assert!(
                    (measured - choice.priced).abs() <= 0.1 * measured,
                    "{what}: measured {measured:.1} ns"
                );
            }
        }
    }
}
