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
//! round trip, a run of consecutive lines one streamed read:
//!
//! * an **expose** stores one flag line per phase — and nothing else when the
//!   payload is at most [`DP_INLINE_BYTES`] long, because it then rides in
//!   the flag line itself; a longer payload is first streamed into the data
//!   slot. What it publishes is a list of **pieces**, byte ranges of the
//!   rank's buffer each with its place in the slot: one for every regular
//!   collective, one per reader for the irregular exchange, whose segments
//!   are *gathered* into a single exposure — one store stream, one fence,
//!   one flag, whatever the number of pieces;
//! * the flag lines of one `(slot, phase)` are a contiguous **row** in writer
//!   order, and a rank reads its peers in **runs**: the exposures it reads in
//!   one phase, inline or out of data slots, are acquired with a single **row
//!   read** — the plan names the range of writers whose flag lines the run's
//!   reads consume (`AwaitRow`), the transport waits until every one of them
//!   is up, merges the latest stamp and charges one streamed read of the span
//!   ([`crate::transport::DpCost::row`]; a row of one line is exactly a
//!   line). Nothing after the row waits. An inline read takes its payload out
//!   of its writer's line and costs nothing more;
//! * the reads of a run out of data slots are one **gathered read**
//!   ([`crate::transport::DpCost::gather`]): their line fills do not depend
//!   on one another, so the run pays one load fence and one device latency,
//!   then every piece's bytes at its own bandwidth, a cross-host piece held
//!   to its own fair share of the device. A run of one piece — a broadcast
//!   leaf's, any read between two ranks — costs what a pull that loaded its
//!   flag line by itself did; a run of `k` saves `k − 1` flag lines and
//!   `k − 1` latencies. What is given up for that is draining early writers
//!   while a straggler still publishes: under skew a reader ends at the
//!   straggler's stamp plus the row and the whole gathered read, at worst the
//!   early pieces' read time later than a reader that polled writer by
//!   writer, and by an amount that does not depend on the host's schedule;
//! * after its last read of a collective a reader stores its **completion
//!   line** once — one line per rank, holding the sequence number through
//!   which the rank has finished everything exposed to it, whoever wrote it
//!   (the contiguous prefix: a collective completed out of order never
//!   vouches for an earlier one still open), with the stamps of its last
//!   [`DP_SLOTS`] stores;
//! * consecutive collectives rotate through [`DP_SLOTS`] slots per rank
//!   (slot = sequence number mod slots), so a writer exposes without asking
//!   anybody. Only when the slot it wants is still held does it read its
//!   readers' completion lines — one row read, from the first awaited
//!   reader's line to the last one's, that releases every slot it holds,
//!   i.e. once per [`DP_SLOTS`] collectives in a steady stream.
//!
//! An 8-byte allgather among `n` ranks is therefore a line, a row and a line
//! per rank plus a quarter of a row amortised — three transactions whatever
//! `n` is — a 1 KiB one the same and one gathered read, and a barrier a line
//! and a row, where a message-based one pays per-message software overhead on
//! top of several lines per hop.
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
//! `(w, me × stride)`. A segment that does not fit the region travels as a
//! message between the two ranks that know it does not, in the same plan.
//!
//! Plans built here use the data-plane op kinds of [`crate::progress`]
//! (`ClaimSlot`, `ExposeRead`, `AwaitRow`, `PullCopy`, `FoldInPlace`) and flow through the same
//! CollPlan/PlanCache/persistent machinery as ring plans — window setup is
//! amortized across every start on the communicator, and blocking,
//! nonblocking and persistent starts execute byte-identical schedules.
//!
//! Selection is per plan-cache key, via `dp_selected`:
//!
//! * [`DataPlaneMode::Ring`] never uses the window (and is the only choice
//!   on transports without one, e.g. TCP);
//! * [`DataPlaneMode::Shm`] uses it whenever the payload fits a slot, even
//!   where the hierarchical composition would otherwise engage;
//! * [`DataPlaneMode::Auto`] uses it when the payload fits *and* the
//!   hierarchical ring composition does not select itself — the hierarchy's
//!   per-host phases are exactly the traffic the shared window replaces, so
//!   when the hierarchy wins (many hosts, cross-host bytes dominate) the
//!   ring composite keeps the job. A barrier moves no bytes, so it takes the
//!   window whenever there is one.
//!
//! Payloads that do not fit a slot — and communicators whose window failed
//! to allocate ([`crate::config::CollTuning::shm_arena_bytes`] exceeding the
//! pool) — fall back to the ring path, never to an error. The irregular
//! exchange decides pair by pair instead: all it asks is whether there is a
//! window ([`DataPlaneMode::Ring`] says no) and whether the pair's own
//! segment fits its region.

use std::ops::Range;

use cmpi_fabric::clock::SimNs;

use crate::coll::{hier_selected, CommView};
use crate::config::{CollTuning, DataPlaneMode};
use crate::progress::{fold_bytes, CollPlan, FoldFn, Loc, SchedOp};
use crate::topology::HostHierarchy;
use crate::transport::{DpGather, DpPiece, DpReaders, DpSource, DpWindow, DP_INLINE_BYTES};
use crate::types::{Rank, ReduceOp, Reducible};

/// Exposure slots per rank in every data-plane window: how many consecutive
/// collectives on one communicator a writer can expose before it must look at
/// its readers' completion lines (the analog of the ring path's
/// sequence-number tag window, at much smaller depth). Four done entries —
/// the stores a completion line remembers — are exactly one line.
pub const DP_SLOTS: usize = 4;

/// Decide whether a collective of this shape runs on the data plane.
/// `payload_bytes`/`min_payload_bytes` are the same inputs the hierarchical
/// gate uses; `shared_bytes` is the per-rank slot footprint the collective
/// needs (its fit check). Deterministic group-wide: every input is identical
/// on every member, so ranks can never disagree about the path.
pub(crate) fn dp_selected(
    tuning: &CollTuning,
    hier: Option<&HostHierarchy>,
    dp: Option<DpWindow>,
    payload_bytes: usize,
    min_payload_bytes: usize,
    shared_bytes: usize,
) -> Option<DpWindow> {
    let w = dp?;
    if shared_bytes > w.slot_bytes {
        // Oversize payload: ring fallback, mid-sweep or otherwise.
        return None;
    }
    match tuning.data_plane {
        DataPlaneMode::Ring => None,
        DataPlaneMode::Shm => Some(w),
        DataPlaneMode::Auto => {
            if hier_selected(tuning, hier, payload_bytes, min_payload_bytes) {
                None
            } else {
                Some(w)
            }
        }
    }
}

/// One region a writer publishes: the flag phase that gates it, where it sits
/// in the writer's data slot, and how long it is. Every member computes the
/// same value for a given writer, so the writer's expose and the readers'
/// sources can never disagree about whether the bytes ride in the flag line.
#[derive(Debug, Clone, Copy)]
struct Exposure {
    phase: u8,
    region_off: usize,
    len: usize,
}

impl Exposure {
    /// Bytes `off..` of this exposure as published by group member
    /// `writer_idx`.
    fn source(&self, writer_idx: usize, off: usize) -> DpSource {
        let inline = self.len <= DP_INLINE_BYTES;
        DpSource {
            writer_idx,
            phase: self.phase,
            off: if inline { off } else { self.region_off + off },
            inline,
            last: false,
        }
    }
}

/// The data-plane op list of one rank, with the piece table its exposes
/// index. Zero-length exposes and reads are never emitted — both sides of an
/// empty region skip it, so a rank whose block of a short vector is empty
/// costs nobody a device round trip — and the rank's last read so far is the
/// one marked to store its completion line. Reads come in **runs**:
/// consecutive reads of one phase, from consecutive writers, with nothing
/// between them that could wait, opened by the one `AwaitRow` that acquires
/// all their flag lines — the only way a rank reads a peer.
pub(crate) struct DpOps {
    pub(crate) list: Vec<SchedOp>,
    pieces: Vec<DpPiece>,
    /// The group member the ops are for: the one writer a row may span
    /// without waiting for it.
    me: usize,
    /// Index in `list` of the read that carries `last`.
    last_read: Option<usize>,
    /// Index in `list` of the `AwaitRow` whose run the next read may join. A
    /// publish, a claim or a message ends the run — each may wait, and the
    /// row's lines are only good until then.
    open_row: Option<usize>,
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
            last_read: None,
            open_row: None,
        }
    }

    /// Publish `pieces` of `loc` as one exposure — one streamed publish, one
    /// flag — or nothing at all when there are none.
    fn publish(
        &mut self,
        phase: u8,
        inline: bool,
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
                inline,
                loc,
                pieces: (lo, self.pieces.len()),
                readers,
            });
        }
    }

    fn expose(&mut self, e: Exposure, loc: Loc, start: usize, readers: DpReaders) {
        let piece = (e.len > 0).then_some(DpPiece {
            region_off: e.region_off,
            start,
            end: start + e.len,
        });
        self.publish(e.phase, e.len <= DP_INLINE_BYTES, loc, readers, piece);
    }

    /// The irregular exchange's expose: `pieces` of the primary buffer, the
    /// one for group member `r` at `r × stride` of the slot, read by `r`
    /// alone. Never inline, however short: a reader knows the length of its
    /// own piece, not whether the writer had others.
    pub(crate) fn gather(&mut self, stride: usize, pieces: impl IntoIterator<Item = DpPiece>) {
        let readers = DpReaders::PerPiece { stride };
        self.publish(0, false, Loc::Buf, readers, pieces);
    }

    /// Member `writer_idx`'s piece of such an exposure for member `reader`:
    /// `len` bytes into `buf[dst_start..]`.
    pub(crate) fn pull_gathered(
        &mut self,
        stride: usize,
        writer_idx: usize,
        reader: usize,
        len: usize,
        dst_start: usize,
    ) {
        let src = DpSource {
            writer_idx,
            phase: 0,
            off: reader * stride,
            inline: false,
            last: false,
        };
        self.pull(src, len, dst_start);
    }

    /// Settle this rank's slot ahead of the expose that will fill it.
    fn claim(&mut self, readers: DpReaders) {
        self.open_row = None;
        self.list.push(SchedOp::ClaimSlot { readers });
    }

    /// A `Send` or `Recv` of the one exchange that mixes messages with reads.
    pub(crate) fn message(&mut self, op: SchedOp) {
        self.open_row = None;
        self.list.push(op);
    }

    /// Acquire the `phase` flag lines of members `writers` in one row read —
    /// for the reads that follow, or for their own sake (a barrier's arrivals
    /// carry no payload to read).
    fn await_row(&mut self, phase: u8, writers: Range<usize>) {
        self.open_row = Some(self.list.len());
        self.list.push(SchedOp::AwaitRow {
            phase,
            writers: (writers.start, writers.end),
        });
    }

    /// Append a read, which takes over `last` from the read before it. It
    /// joins the open run if its flag line is the next one of the run's row —
    /// or the next but this rank's own, which no row waits for — and opens a
    /// run of its own otherwise: a row never spans a peer that is not read,
    /// whose flag nobody promised.
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
            ..
        } = *src_of(&mut op);
        let me = self.me;
        match self.open_row.map(|i| &mut self.list[i]) {
            Some(SchedOp::AwaitRow {
                phase: open,
                writers: (_, end),
            }) if *open == phase && (writer == *end || (*end == me && writer == me + 1)) => {
                *end = writer + 1
            }
            _ => self.await_row(phase, writer..writer + 1),
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
                len,
                dst_loc: Loc::Buf,
                dst_start,
                stage_off: 0,
            });
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
        .with_pieces(self.pieces)
    }
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

/// What one rank's clock advances by while it executes `ops` (whose exposes
/// index `pieces`) on window `w`, not counting time spent waiting for peers:
/// every expose, every row, every run's gathered read and the completion
/// line, priced with the terms the transport charges. `same_host(idx)` says
/// whether group member `idx` shares the rank's host.
fn serial_cost(
    ops: &[SchedOp],
    pieces: &[DpPiece],
    w: &DpWindow,
    same_host: impl Fn(usize) -> bool,
) -> SimNs {
    let mut run = DpGather::default();
    ops.iter()
        .map(|op| match *op {
            SchedOp::AwaitRow {
                writers: (lo, hi), ..
            } => {
                run = w.cost.run(hi - lo);
                w.cost.row(hi - lo)
            }
            SchedOp::ExposeRead {
                inline,
                pieces: (lo, hi),
                ..
            } => {
                let bytes = pieces[lo..hi].iter().map(|p| p.end - p.start).sum();
                w.cost.expose(bytes, inline)
            }
            SchedOp::PullCopy { src, len, .. } | SchedOp::FoldInPlace { src, len, .. } => {
                let done = if src.last { w.cost.line() } else { 0.0 };
                // An inline payload came with its row.
                let read = if src.inline {
                    0.0
                } else {
                    w.cost
                        .gather_piece(&mut run, len, same_host(src.writer_idx))
                };
                read + done
            }
            _ => 0.0,
        })
        .sum()
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
        inline: true,
        loc: Loc::Buf,
        pieces: (0, 0),
        readers: DpReaders::Others,
    });
    // From the first peer's line to the last one's.
    ops.await_row(0, usize::from(me == 0)..n - usize::from(me == n - 1));
    ops.into_plan(view, None, (0, 0), (0, 0), 0, "barrier/shm")
}

/// Payload size from which `build_bcast_shm` switches to the host-sliced
/// scatter shape on multi-host communicators. Below it the pull is
/// latency-bound and the extra re-exposure round only adds flag traffic;
/// above it the cross-host pulls are bandwidth-floor-bound and slicing the
/// exposure across each host's members divides the floored bytes per reader.
pub const DP_BCAST_SCATTER_MIN_BYTES: usize = 64 * 1024;

/// Single-copy broadcast. The root exposes the whole payload once; how the
/// readers drain it depends on shape:
///
/// * **Direct** (small payloads, or single-host groups): every other rank
///   pulls the full payload straight into its own buffer — its only read, so
///   its completion line follows. One publish serves all `n − 1` readers
///   (one flag line when the payload fits in it); the binomial tree's
///   full-payload store-and-forward hops disappear entirely.
/// * **Host-sliced scatter** (payloads ≥ [`DP_BCAST_SCATTER_MIN_BYTES`] on a
///   group spanning ≥ 2 hosts, when the topology structure is available):
///   the root's host-mates still pull the full payload — that read is served
///   by the shared hardware-coherent cache. Each *remote* host's members pull
///   disjoint contiguous slices of the root's one exposure concurrently —
///   the payload crosses the pooled device once per remote host, not once
///   per remote reader — then re-expose their slice and complete the
///   broadcast intra-host with cache-served pulls of their host-mates'
///   slices.
///
/// Slot footprint: `total` bytes either way (a re-exposed slice lives at its
/// payload offset within the member's own region).
pub(crate) fn build_bcast_shm(
    view: &CommView<'_>,
    hier: Option<&HostHierarchy>,
    root: Rank,
    total: usize,
) -> CollPlan {
    let me = view.rank;
    let payload = Exposure {
        phase: 0,
        region_off: 0,
        len: total,
    };
    let mut ops = DpOps::new(me);
    let scatter = hier.filter(|h| h.hosts_spanned() >= 2 && total >= DP_BCAST_SCATTER_MIN_BYTES);
    if me == root {
        ops.expose(payload, Loc::Buf, 0, DpReaders::Others);
    } else if let Some(h) = scatter.filter(|h| !h.members(h.my_slot()).contains(&root)) {
        // Remote host: pull my slice of the root's exposure, re-expose it (at
        // its payload offset in my own region), then fill in the rest from my
        // host-mates' re-exposures.
        let cohort = h.members(h.my_slot());
        let k = cohort.len();
        let slice = |i: usize| Exposure {
            phase: 0,
            region_off: block_off(i, total, k, 1),
            len: block_off(i + 1, total, k, 1) - block_off(i, total, k, 1),
        };
        let j = cohort.iter().position(|&r| r == me).expect("me in cohort");
        let mine = slice(j);
        if k > 1 {
            // Settle my slot while the root is still publishing.
            ops.claim(DpReaders::HostMates);
        }
        ops.pull(
            payload.source(root, mine.region_off),
            mine.len,
            mine.region_off,
        );
        if k > 1 {
            ops.expose(mine, Loc::Buf, mine.region_off, DpReaders::HostMates);
            for (i, &peer) in cohort.iter().enumerate().filter(|&(i, _)| i != j) {
                let theirs = slice(i);
                ops.pull(theirs.source(peer, 0), theirs.len, theirs.region_off);
            }
        }
    } else {
        // Direct — also the root's host-mates under the scatter shape: they
        // read the exposure out of the shared cache, where slicing would only
        // trade cache reads for flag traffic.
        ops.pull(payload.source(root, 0), total, 0);
    }
    let input = if me == root { (0, total) } else { (0, 0) };
    ops.into_plan(view, None, (0, total), input, 0, "bcast/shm")
}

/// Single-copy rooted reduce: every non-root exposes its full vector; the
/// root pulls each one through a scratch staging block and folds it into its
/// own buffer, storing its completion line after the last contributor — the
/// one reader every exposure has. The root moves each vector across the
/// fabric exactly once, with no intermediate partial-sum hops.
///
/// Slot footprint: `total` bytes (`count × sizeof(T)`).
pub(crate) fn build_reduce_shm<T: Reducible>(
    view: &CommView<'_>,
    root: Rank,
    count: usize,
    op: ReduceOp,
) -> CollPlan {
    let me = view.rank;
    let total = count * std::mem::size_of::<T>();
    let vector = Exposure {
        phase: 0,
        region_off: 0,
        len: total,
    };
    let mut ops = DpOps::new(me);
    if me == root {
        for r in (0..view.size()).filter(|&r| r != root) {
            ops.fold(vector.source(r, 0), total, 0);
        }
    } else {
        ops.expose(vector, Loc::Buf, 0, DpReaders::One(root));
    }
    let (result, scratch_len) = if me == root {
        ((0, total), total)
    } else {
        ((0, 0), 0)
    };
    let fold = Some((op, fold_bytes::<T> as FoldFn));
    ops.into_plan(view, fold, result, (0, total), scratch_len, "reduce/shm")
}

/// Byte offset of rank `i`'s block in an `n`-way split of `count` elements of
/// `elem` bytes (first `count % n` blocks get one extra element — the same
/// uneven split the van de Geijn broadcast uses).
fn block_off(i: usize, count: usize, n: usize, elem: usize) -> usize {
    let base = count / n;
    let rem = count % n;
    (i * base + i.min(rem)) * elem
}

/// The two shapes of a single-copy allreduce, as `(ops, scratch bytes, slot
/// footprint)` of rank `me`.
///
/// **Two phases** — reduce-scatter + allgather over the shared window:
///
/// 1. every rank exposes its full input vector `A` at slot offset 0
///    (phase 0);
/// 2. every rank pulls *its own block* of each peer's `A` and folds it in
///    place — after this, rank `i` holds the fully reduced block `i`;
/// 3. every rank exposes its reduced block `B` at slot offset `total`
///    (phase 1 — `A` and `B` are disjoint slot regions and separate flag
///    lines, so no write-after-read hazard with stragglers still reading `A`);
/// 4. every rank pulls each peer's `B` into the right place.
///
/// Each rank's vector crosses the fabric once in step 2 (sliced across
/// readers) and each reduced block once per reader in step 4 — the
/// Rabenseifner traffic pattern, minus all intermediate copies, headers and
/// per-message overhead. Slot footprint: `total + max_block` bytes.
fn allreduce_two_phase(me: usize, n: usize, count: usize, elem: usize) -> (DpOps, usize, usize) {
    let total = count * elem;
    let block = |r: usize| {
        let off = block_off(r, count, n, elem);
        (off, block_off(r + 1, count, n, elem) - off)
    };
    let (my_off, my_len) = block(me);
    let vector = Exposure {
        phase: 0,
        region_off: 0,
        len: total,
    };
    let reduced = |r: usize| Exposure {
        phase: 1,
        region_off: total,
        len: block(r).1,
    };
    // Two exposes, two rows, two rounds of reads.
    let mut ops = DpOps::with_capacity(me, 2 * n + 2, 2);
    ops.expose(vector, Loc::Buf, 0, DpReaders::Others);
    for r in (0..n).filter(|&r| r != me) {
        ops.fold(vector.source(r, my_off), my_len, my_off);
    }
    ops.expose(reduced(me), Loc::Buf, my_off, DpReaders::Others);
    for r in (0..n).filter(|&r| r != me) {
        let (r_off, r_len) = block(r);
        ops.pull(reduced(r).source(r, 0), r_len, r_off);
    }
    (ops, my_len, total + block(0).1)
}

/// **One phase**: every rank exposes its vector and folds every peer's
/// exposure locally — one publish round instead of two dependent ones, at
/// `n − 1` full-vector reads per rank, which is what a short vector wants.
/// Every rank folds in group order (`v₀ ⊕ v₁ ⊕ … ⊕ vₙ₋₁`, its own vector
/// taking its turn from a scratch copy), so all members compute the same
/// bits whatever the reduction's associativity. Slot footprint: `total`.
fn allreduce_one_phase(me: usize, n: usize, total: usize) -> (DpOps, usize, usize) {
    let vector = Exposure {
        phase: 0,
        region_off: 0,
        len: total,
    };
    // One expose, the own vector's copy and fold, a row, `n − 1` reads.
    let mut ops = DpOps::with_capacity(me, n + 3, 1);
    ops.expose(vector, Loc::Buf, 0, DpReaders::Others);
    if me != 0 {
        ops.list.push(SchedOp::Copy {
            dst_loc: Loc::Scratch,
            dst_start: total,
            src_loc: Loc::Buf,
            src_start: 0,
            len: total,
        });
        ops.pull(vector.source(0, 0), total, 0);
    }
    for r in 1..n {
        if r == me {
            ops.list.push(SchedOp::Fold {
                dst_loc: Loc::Buf,
                dst_start: 0,
                src_loc: Loc::Scratch,
                src_start: total,
                len: total,
            });
        } else {
            ops.fold(vector.source(r, 0), total, 0);
        }
    }
    let scratch = if me == 0 { total } else { 2 * total };
    (ops, scratch, total)
}

/// Single-copy allreduce, or `None` when it should run on the ring path. The
/// shape is whichever of [`allreduce_one_phase`] / [`allreduce_two_phase`]
/// costs a rank less serial time on window `dp` — both op lists are walked
/// with the transport's own cost terms ([`serial_cost`]), as group member 0
/// would run them, so every member reaches the same verdict and the
/// crossover follows the cost model instead of a byte threshold. A tie goes
/// to the single round. Only then is the chosen shape's footprint checked
/// against the slot ([`dp_selected`]).
pub(crate) fn build_allreduce_shm<T: Reducible>(
    view: &CommView<'_>,
    tuning: &CollTuning,
    hier: Option<&HostHierarchy>,
    dp: Option<DpWindow>,
    count: usize,
    op: ReduceOp,
) -> Option<CollPlan> {
    let w = dp?;
    let n = view.size();
    let elem = std::mem::size_of::<T>();
    let total = count * elem;
    let same_host = |r: usize| hier.is_some_and(|h| h.slot_of(r) == h.slot_of(0));
    let cost = |shape: DpOps| serial_cost(&shape.list, &shape.pieces, &w, same_host);
    let one_phase =
        cost(allreduce_one_phase(0, n, total).0) <= cost(allreduce_two_phase(0, n, count, elem).0);
    let (ops, scratch_len, footprint) = if one_phase {
        allreduce_one_phase(view.rank, n, total)
    } else {
        allreduce_two_phase(view.rank, n, count, elem)
    };
    dp_selected(
        tuning,
        hier,
        dp,
        total,
        tuning.hier_min_payload_bytes,
        footprint,
    )?;
    let fold = Some((op, fold_bytes::<T> as FoldFn));
    Some(ops.into_plan(
        view,
        fold,
        (0, total),
        (0, total),
        scratch_len,
        "allreduce/shm",
    ))
}

/// Single-copy allgather: every rank exposes its own block and pulls each
/// peer's block directly into the right slice of its destination buffer.
/// Every block crosses the fabric once per reader with no forwarding hops —
/// the ring's `n − 1` store-and-forward rounds collapse into one round of
/// concurrent pulls.
///
/// Slot footprint: `block` bytes.
pub(crate) fn build_allgather_shm(view: &CommView<'_>, block: usize) -> CollPlan {
    let me = view.rank;
    let n = view.size();
    let mine = Exposure {
        phase: 0,
        region_off: 0,
        len: block,
    };
    let mut ops = DpOps::new(me);
    ops.expose(mine, Loc::Buf, me * block, DpReaders::Others);
    for r in (0..n).filter(|&r| r != me) {
        ops.pull(mine.source(r, 0), block, r * block);
    }
    let input = (me * block, (me + 1) * block);
    ops.into_plan(view, None, (0, n * block), input, 0, "allgather/shm")
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
/// Slot footprint: `n × block` bytes (the full send image).
pub(crate) fn build_alltoall_shm(view: &CommView<'_>, block: usize) -> CollPlan {
    let me = view.rank;
    let n = view.size();
    let total = n * block;
    let image = Exposure {
        phase: 0,
        region_off: 0,
        len: total,
    };
    let mut ops = DpOps::new(me);
    ops.expose(image, Loc::Buf, 0, DpReaders::Others);
    for r in (0..n).filter(|&r| r != me) {
        ops.pull(image.source(r, me * block), block, r * block);
    }
    ops.into_plan(view, None, (0, total), (0, total), 0, "alltoall/shm")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::Group;
    use crate::transport::DpCost;
    use cmpi_fabric::cost::CoherenceMode;
    use cmpi_fabric::{CxlContentionModel, CxlCostModel};

    fn view_of(group: &Group, rank: Rank) -> CommView<'_> {
        CommView {
            group,
            ctx: 0,
            rank,
        }
    }

    fn window(slot_bytes: usize) -> DpWindow {
        DpWindow {
            slot_bytes,
            slots: DP_SLOTS,
            cost: DpCost {
                cost: CxlCostModel::default(),
                contention: CxlContentionModel::default(),
                mode: CoherenceMode::FlushClflushopt,
                pairs: 4,
            },
        }
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
    fn dp_selection_gates() {
        let w = Some(window(1024));
        let mut t = CollTuning::default();
        // No window → never.
        assert!(dp_selected(&t, None, None, 64, 0, 64).is_none());
        // Auto, fits, no hierarchy → selected.
        assert!(dp_selected(&t, None, w, 64, 0, 64).is_some());
        // Oversize slot footprint → ring fallback.
        assert!(dp_selected(&t, None, w, 4096, 0, 4096).is_none());
        // Forced ring → never, even when it fits.
        t.data_plane = DataPlaneMode::Ring;
        assert!(dp_selected(&t, None, w, 64, 0, 64).is_none());
        t.data_plane = DataPlaneMode::Shm;
        assert!(dp_selected(&t, None, w, 64, 0, 64).is_some());
    }

    #[test]
    fn bcast_plan_shape() {
        let group = Group::from_world_ranks(vec![0, 1, 2, 3]).unwrap();
        let root_plan = build_bcast_shm(&view_of(&group, 1), None, 1, 256);
        // Root: one expose, nothing to wait for.
        assert_eq!(shape(&root_plan), (1, 0, 0));
        assert_eq!(root_plan.label, "bcast/shm");
        assert_eq!(root_plan.input_len(), 256);
        let leaf_plan = build_bcast_shm(&view_of(&group, 3), None, 1, 256);
        // Non-root: a single pull, which is also its last read.
        assert_eq!(shape(&leaf_plan), (0, 1, 1));
        assert_eq!(leaf_plan.input_len(), 0);
        assert_eq!(leaf_plan.result_len(), 256);
        // A zero-byte broadcast moves nothing and touches no line.
        assert!(build_bcast_shm(&view_of(&group, 1), None, 1, 0).is_empty());
        assert!(build_bcast_shm(&view_of(&group, 3), None, 1, 0).is_empty());
    }

    #[test]
    fn sources_know_whether_the_payload_rides_in_the_flag_line() {
        let group = Group::from_world_ranks(vec![0, 1, 2]).unwrap();
        for (bytes, inline) in [(8, true), (48, true), (49, false), (1024, false)] {
            let leaf = build_bcast_shm(&view_of(&group, 2), None, 0, bytes);
            let Some(&SchedOp::PullCopy { src, len, .. }) = leaf.ops.last() else {
                panic!("leaf plan ends with {:?}", leaf.ops.last());
            };
            assert_eq!((src.inline, src.off, len), (inline, 0, bytes));
        }
        // An alltoall reader takes its own block out of the middle of the
        // peer's image — line-relative when the image is inline.
        let plan = build_alltoall_shm(&view_of(&group, 1), 16);
        let SchedOp::PullCopy { src, len, .. } = plan.ops[2] else {
            panic!("expected a pull, got {:?}", plan.ops[2]);
        };
        assert_eq!((src.inline, src.off, len), (true, 16, 16));
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
        let w = window(1024);
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
        let cost = window(1024).cost;
        assert_eq!(cost.row(1), cost.line());
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
            ..window(1024).cost
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
        // Allgather of a flag-line payload: every peer's line in one row,
        // then seven reads that wait for nothing.
        let plan = build_allgather_shm(&view_of(&group, 3), 8);
        assert_eq!((plan.len(), shape(&plan)), (9, (1, 7, 1)));
        assert!(matches!(plan.ops[1], SchedOp::AwaitRow { phase: 0, .. }));
        assert_eq!(rows(&plan.ops), [(0, 8)]);
        // The row of a rank at either end stops short of its own line.
        for (rank, row) in [(0, (1, 8)), (7, (0, 7))] {
            assert_eq!(
                rows(&build_allgather_shm(&view_of(&group, rank), 8).ops),
                [row]
            );
        }
        // A broadcast leaf's row is the root's line alone.
        let leaf = build_bcast_shm(&view_of(&group, 5), None, 2, 48);
        assert_eq!(rows(&leaf.ops), [(2, 3)]);
        // Reads out of data slots come in the same runs.
        let plan = build_allgather_shm(&view_of(&group, 3), 64);
        assert_eq!((plan.len(), shape(&plan)), (9, (1, 7, 1)));
        assert_eq!(rows(&plan.ops), [(0, 8)]);
        let leaf = build_bcast_shm(&view_of(&group, 5), None, 2, 64 * 1024);
        assert_eq!(rows(&leaf.ops), [(2, 3)]);
        // The one-phase allreduce's local copy and fold sit inside the run.
        let t = CollTuning::default();
        let w = Some(window(4096));
        let plan = build_allreduce_shm::<u64>(&view_of(&group, 3), &t, None, w, 1, ReduceOp::Sum)
            .expect("fits the slot");
        assert_eq!(rows(&plan.ops), [(0, 8)]);
    }

    #[test]
    fn a_row_spans_this_ranks_own_line_and_no_other_gap() {
        // Member 3 reads 1, 2, 4 and 6: its own line is bridged, member 5's —
        // whose flag nobody promised — is not, and costs a second row; in the
        // flag line or in the slot, the payloads make no difference.
        for inline in [[true; 4], [false; 4], [true, false, false, true]] {
            let mut ops = DpOps::new(3);
            for (writer, inline) in [1, 2, 4, 6].into_iter().zip(inline) {
                let src = DpSource {
                    writer_idx: writer,
                    phase: 0,
                    off: 0,
                    inline,
                    last: false,
                };
                ops.pull(src, 8, 8 * writer);
            }
            assert_eq!(rows(&ops.list), [(1, 5), (6, 7)]);
            assert_eq!(ops.list.len(), 6);
        }
    }

    #[test]
    fn whatever_can_wait_ends_the_run() {
        let src = |writer_idx| DpSource {
            writer_idx,
            phase: 0,
            off: 0,
            inline: false,
            last: false,
        };
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
        // 55 u64 over 8 ranks: seven blocks of 7 elements (56 B, in the data
        // slot) and one of 6 (48 B, in rank 7's flag line). Phase 0 reads data
        // slots only, phase 1 seven slots and a flag line: a row each.
        let (ops, ..) = allreduce_two_phase(2, 8, 55, 8);
        assert_eq!(rows(&ops.list), [(0, 8), (0, 8)]);
        let phases: Vec<u8> = ops
            .list
            .iter()
            .filter_map(|op| match *op {
                SchedOp::AwaitRow { phase, .. } => Some(phase),
                _ => None,
            })
            .collect();
        assert_eq!(phases, [0, 1]);
        // Each row directly follows its phase's expose: nothing else waits.
        assert!(matches!(ops.list[0], SchedOp::ExposeRead { phase: 0, .. }));
        assert!(matches!(ops.list[1], SchedOp::AwaitRow { phase: 0, .. }));
        assert!(matches!(ops.list[9], SchedOp::ExposeRead { phase: 1, .. }));
        assert!(matches!(ops.list[10], SchedOp::AwaitRow { phase: 1, .. }));
        assert_eq!(ops.list.len(), 18);
    }

    #[test]
    fn bcast_scatter_shape_slices_remote_hosts_only() {
        use crate::topology::{HostHierarchy, HostTopology};
        // 6 ranks blocked over 2 hosts: {0,1,2} and {3,4,5}, root 0.
        let group = Group::world(6);
        let topo = HostTopology::blocked(6, 2).unwrap();
        let total = 2 * DP_BCAST_SCATTER_MIN_BYTES;
        let plan_of = |rank: Rank| {
            let h = HostHierarchy::derive(&group, &topo, rank);
            build_bcast_shm(&view_of(&group, rank), Some(&h), 0, total)
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
        assert_eq!(remote.label, "bcast/shm");
        assert_eq!(remote.result_len(), total);
        // Below the cutoff (or on one host) the direct shape is kept.
        let h = HostHierarchy::derive(&group, &topo, 4);
        let small = build_bcast_shm(&view_of(&group, 4), Some(&h), 0, 256);
        assert_eq!(shape(&small), (0, 1, 1));
        let one_host = HostTopology::blocked(6, 1).unwrap();
        let h1 = HostHierarchy::derive(&group, &one_host, 4);
        let flat = build_bcast_shm(&view_of(&group, 4), Some(&h1), 0, total);
        assert_eq!(shape(&flat), (0, 1, 1));
    }

    #[test]
    fn allreduce_blocks_cover_the_vector_unevenly() {
        // 10 elements over 4 ranks: blocks of 3, 3, 2, 2.
        let elem = 8;
        let offs: Vec<usize> = (0..=4).map(|i| block_off(i, 10, 4, elem)).collect();
        assert_eq!(offs, vec![0, 24, 48, 64, 80]);
        let (ops, scratch, footprint) = allreduce_two_phase(2, 4, 10, elem);
        // 2 exposes, each followed by a row and 3 reads (the reduced blocks,
        // 16 and 24 B, ride inline); scratch stages one own-block fold at a
        // time; the slot holds the vector plus the largest reduced block.
        assert_eq!(ops.list.len(), 10);
        assert_eq!((scratch, footprint), (16, 80 + 24));
    }

    #[test]
    fn short_vectors_emit_no_zero_length_ops() {
        // 2 elements over 5 ranks: ranks 2..5 own nothing. They fold nothing,
        // re-expose nothing, and nobody pulls their (empty) block.
        let (owner, ..) = allreduce_two_phase(1, 5, 2, 8);
        let (idle, ..) = allreduce_two_phase(3, 5, 2, 8);
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
        let w = Some(window(512 * 1024));
        let plan = |rank, count| {
            build_allreduce_shm::<f64>(&view_of(&group, rank), &t, None, w, count, ReduceOp::Sum)
                .expect("fits the slot")
        };
        // One f64: one expose, seven whole-vector folds — on every rank.
        for rank in [0, 5] {
            assert_eq!(shape(&plan(rank, 1)), (1, 7, 1));
        }
        // 1 KiB still folds whole vectors; 64 KiB scatters the reduction.
        assert_eq!(shape(&plan(3, 128)), (1, 7, 1));
        assert_eq!(shape(&plan(3, 8192)), (2, 14, 1));
        // Rank 0 folds in place; the others stage their own vector too.
        assert_eq!(plan(0, 128).scratch_len(), 1024);
        assert_eq!(plan(3, 128).scratch_len(), 2048);
        // The shape is chosen before the fit check: a vector whose cheaper
        // (two-phase) shape overflows the slot goes to the ring path even
        // though the one-phase footprint would fit.
        let tight = Some(window(64 * 1024));
        let view = view_of(&group, 0);
        assert!(build_allreduce_shm::<f64>(&view, &t, None, tight, 8192, ReduceOp::Sum).is_none());
    }

    /// The irregular exchange among `n` ranks on 64 KiB slots, as `rank`
    /// plans it, when `src` sends `bytes(src, dst)` to `dst`.
    fn exchange_plan(n: usize, rank: Rank, bytes: impl Fn(usize, usize) -> usize) -> CollPlan {
        let group = Group::world(n);
        let send: Vec<usize> = (0..n).map(|d| bytes(rank, d)).collect();
        let recv: Vec<usize> = (0..n).map(|s| bytes(s, rank)).collect();
        let w = Some(window(64 * 1024));
        crate::coll::build_alltoallv(&view_of(&group, rank), w, &send, &recv, 1, false)
    }

    #[test]
    fn irregular_exchange_is_one_gather_at_a_fixed_stride_and_a_pull_per_peer() {
        // 8 ranks on 64 KiB slots: a stride of 8 KiB.
        let plan = exchange_plan(8, 3, |s, d| 100 * (s + 1) + d);
        assert_eq!(plan.label, "alltoallv/shm");
        // The self copy, one expose of seven pieces, one row, seven pulls.
        assert_eq!((plan.len(), shape(&plan)), (10, (1, 7, 1)));
        assert_eq!(rows(&plan.ops), [(0, 8)]);
        assert!(matches!(
            plan.ops[1],
            SchedOp::ExposeRead {
                inline: false,
                pieces: (0, 7),
                readers: DpReaders::PerPiece { stride: 8192 },
                ..
            }
        ));
        for (piece, r) in plan.pieces.iter().zip((0..8).filter(|&r| r != 3)) {
            assert_eq!(piece.region_off, r * 8192);
            assert_eq!(piece.end - piece.start, 400 + r);
        }
        // Every pull takes the reader's own region of the writer's slot, by
        // the length MPI told the reader, in writer order.
        let SchedOp::PullCopy { src, len, .. } = plan.ops[3] else {
            panic!("expected a pull, got {:?}", plan.ops[3]);
        };
        assert_eq!(
            (src.writer_idx, src.off, src.inline, len),
            (0, 3 * 8192, false, 103)
        );
        // Rank 0's run starts past its own line, rank 7's stops short of it.
        assert_eq!(rows(&exchange_plan(8, 0, |_, _| 64).ops), [(1, 8)]);
        assert_eq!(rows(&exchange_plan(8, 7, |_, _| 64).ops), [(0, 7)]);
    }

    #[test]
    fn irregular_exchange_never_rides_the_flag_line_and_skips_empty_pairs() {
        // Only 0 → 1, eight bytes: one piece and one reader on rank 0, one
        // pull on rank 1, nothing at all on rank 2 — and not inline, short as
        // it is: rank 1 cannot know that rank 0 sent nobody else anything.
        let edge = |s: usize, d: usize| if (s, d) == (0, 1) { 8 } else { 0 };
        let writer = exchange_plan(3, 0, edge);
        assert_eq!((writer.len(), shape(&writer)), (1, (1, 0, 0)));
        assert_eq!(writer.pieces.len(), 1);
        assert_eq!(writer.pieces[0].region_off, 64 * 1024 / 3 / 64 * 64);
        let reader = exchange_plan(3, 1, edge);
        let SchedOp::PullCopy { src, len, .. } = reader.ops[1] else {
            panic!("expected a pull, got {:?}", reader.ops[1]);
        };
        assert_eq!(
            (reader.len(), src.inline, src.last, len),
            (2, false, true, 8)
        );
        assert_eq!(rows(&reader.ops), [(0, 1)]);
        assert!(exchange_plan(3, 2, edge).is_empty());
    }

    #[test]
    fn an_empty_pair_is_a_hole_and_costs_a_second_row() {
        // Rank 5 sends rank 2 nothing — and, for all rank 2 knows, nobody
        // else either, so that its flag may never go up: rank 2 reads 0, 1, 3
        // and 4 behind one row (its own line bridged), 6 and 7 behind another.
        let hole = |s: usize, d: usize| if (s, d) == (5, 2) { 0 } else { 256 };
        let plan = exchange_plan(8, 2, hole);
        assert_eq!(shape(&plan), (1, 6, 1));
        assert_eq!(rows(&plan.ops), [(0, 5), (6, 8)]);
        // Everybody else reads rank 5 in the one run of a dense exchange.
        for rank in [0, 4, 6] {
            let plan = exchange_plan(8, rank, hole);
            assert_eq!(shape(&plan), (1, 7, 1));
            assert_eq!(rows(&plan.ops).len(), 1);
        }
    }

    #[test]
    fn an_oversize_pair_falls_back_alone_and_no_window_means_all_of_them() {
        // 9000 B > the 8 KiB stride between ranks 2 and 5 only.
        let bytes = |s: usize, d: usize| match (s.min(d), s.max(d)) {
            (2, 5) => 9000,
            _ => 1000,
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
    fn irregular_exchange_costs_one_publish_a_row_a_gathered_read_and_a_line() {
        let n = 8;
        let bytes = |s: usize, d: usize| 64 * (1 + (3 * s + d) % 5);
        let w = window(64 * 1024);
        let plan = exchange_plan(n, 1, bytes);
        let cross: usize = (0..n).filter(|&d| d != 1).map(|d| bytes(1, d)).sum();
        let publish = w.cost.cost.streamed_publish(cross, w.cost.mode) + w.cost.line();
        let pieces = (0..n).filter(|&s| s != 1).map(|s| (bytes(s, 1), s < 4));
        let reads = w.cost.row(n) + w.cost.gather(n, pieces);
        let cost = serial_cost(&plan.ops, &plan.pieces, &w, |r| r < 4);
        assert!((cost - (publish + reads + w.cost.line())).abs() < 1e-9);
    }

    #[test]
    fn allgather_plan_shape() {
        let group = Group::from_world_ranks(vec![4, 5, 6]).unwrap();
        let plan = build_allgather_shm(&view_of(&group, 0), 128);
        // 1 expose, a row, 2 pulls, the second of which ends the collective.
        assert_eq!(shape(&plan), (1, 2, 1));
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.result_len(), 3 * 128);
        assert_eq!(plan.input_len(), 128);
    }
}
