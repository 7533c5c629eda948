//! The transport abstraction: two-sided and one-sided primitives that the
//! [`crate::comm::Comm`] facade and the collectives are built on.
//!
//! Two implementations exist, mirroring the paper's comparison:
//!
//! * [`cxl::CxlTransport`] — cMPI proper: per-pair message rings or streams,
//!   RMA windows and synchronization flags all live in CXL shared memory and
//!   every transfer is a CPU copy published with software cache coherence.
//! * [`tcp::TcpTransport`] — the baseline: MPI over TCP on a simulated NIC
//!   (standard Ethernet or SmartNIC), with per-message software-stack costs and
//!   NIC bandwidth sharing.
//!
//! ### The point-to-point surface
//!
//! A transport implements three nonblocking primitives and nothing else of
//! the two-sided path:
//!
//! * [`Transport::try_send`] — publish as much of a message as flow control
//!   allows, resumable through a cursor;
//! * [`Transport::try_recv`] — one matching attempt; where a match goes is the
//!   [`RecvDest`] argument, the only thing in which `MPI_Iprobe`, a receive
//!   into a caller's buffer and a receive that returns an owned payload
//!   differ;
//! * [`Transport::poll_incoming`] — move arrived messages to local staging, so
//!   that peers blocked on this rank's queues keep moving.
//!
//! Everything that blocks is a loop over them. The blocked send is the one
//! provided method, [`Transport::send`], which no transport overrides; the
//! blocked receive lives with the communicator (`Comm`), because between two
//! attempts it lets go of the rank's io lock. The send loop never does: from a
//! message's first segment to its last the pair's queue belongs to that
//! message (continuation segments carry no frame, and the receiver keeps one
//! reassembly per sender), so whoever calls [`Transport::send`] holds the lock
//! across the call, and a second thread's send to the same peer waits outside.

pub mod conn;
pub mod cxl;
pub mod tcp;

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cmpi_fabric::clock::{transfer_ns, SimNs};
use cmpi_fabric::cost::CoherenceMode;
use cmpi_fabric::{CxlContentionModel, CxlCostModel, SimClock};
use cxl_shm::slots::{SLOT_CELL_INLINE, SLOT_CELL_SIZE};

use crate::config::FaultTrigger;
use crate::error::MpiError;
use crate::spin::{PoisonFlag, SpinWait};
use crate::types::{CtxId, Rank, ReduceOp, Status, Tag};
use crate::Result;

/// Identifier of an allocated RMA window.
pub type WinId = usize;

/// Per-rank fault-injection state armed by the fault-tolerant launcher (see
/// [`crate::config::FaultPlan`]). Transports that support injection call the
/// `on_*` hooks at *operation entry* — before any bytes hit the wire or the
/// shared window — and propagate the resulting
/// [`MpiError::RankKilled`] up their call stack, so a kill
/// never leaves a half-published message for peers to trip over.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    trigger: FaultTrigger,
    sends: u64,
    publishes: u64,
    acks: u64,
    ops: u64,
    /// Precomputed kill index for [`FaultTrigger::SeededOp`] (over `ops`).
    seeded_kill_at: u64,
}

impl FaultInjector {
    /// Arm an injector for one victim rank.
    pub fn new(trigger: FaultTrigger) -> Self {
        let seeded_kill_at = match trigger {
            FaultTrigger::SeededOp { seed, max_ops } => {
                // One LCG step (Knuth's MMIX constants); the high bits are the
                // well-mixed ones.
                let x = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                1 + (x >> 33) % max_ops.max(1)
            }
            _ => 0,
        };
        FaultInjector {
            trigger,
            sends: 0,
            publishes: 0,
            acks: 0,
            ops: 0,
            seeded_kill_at,
        }
    }

    fn fire(&self, kind: &str, n: u64) -> Result<()> {
        Err(MpiError::RankKilled(format!(
            "injected fault at {kind} #{n} (op #{})",
            self.ops
        )))
    }

    fn check(&mut self, kind: &str, n: u64, wanted: Option<u64>) -> Result<()> {
        self.ops += 1;
        if wanted == Some(n) {
            return self.fire(kind, n);
        }
        if let FaultTrigger::SeededOp { .. } = self.trigger {
            if self.ops == self.seeded_kill_at {
                return self.fire(kind, n);
            }
        }
        Ok(())
    }

    /// Entry hook of a point-to-point send (blocking or progress-driven).
    pub fn on_send(&mut self) -> Result<()> {
        self.sends += 1;
        let wanted = match self.trigger {
            FaultTrigger::NthSend(n) => Some(n),
            _ => None,
        };
        self.check("send", self.sends, wanted)
    }

    /// Entry hook of a slot publish: a data-plane expose (`dp_expose`) or one
    /// segment of a p2p message that streams through several slots.
    pub fn on_publish(&mut self) -> Result<()> {
        self.publishes += 1;
        let wanted = match self.trigger {
            FaultTrigger::NthPublish(n) => Some(n),
            _ => None,
        };
        self.check("publish", self.publishes, wanted)
    }

    /// Entry hook of a data-plane acknowledgement: the completion-line store
    /// that ends a reader's part in a collective (the `last` half of
    /// `dp_pull`).
    pub fn on_ack(&mut self) -> Result<()> {
        self.acks += 1;
        let wanted = match self.trigger {
            FaultTrigger::NthAck(n) => Some(n),
            _ => None,
        };
        self.check("ack", self.acks, wanted)
    }
}

/// Operation counters maintained by every transport.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportStats {
    /// Two-sided messages sent.
    pub msgs_sent: u64,
    /// Two-sided payload bytes sent.
    pub bytes_sent: u64,
    /// Two-sided messages received.
    pub msgs_received: u64,
    /// Two-sided payload bytes received.
    pub bytes_received: u64,
    /// One-sided put operations issued.
    pub puts: u64,
    /// One-sided get operations issued.
    pub gets: u64,
    /// Bytes written by put/accumulate.
    pub rma_bytes_written: u64,
    /// Bytes read by get.
    pub rma_bytes_read: u64,
    /// Collective operations executed through this rank (all communicators).
    pub collectives: u64,
    /// Payload bytes contributed to collectives by this rank.
    pub collective_bytes: u64,
    /// Lazy connections: pairs this rank promoted to a stream as the sender
    /// (eager mode reports 0 — the matrix is not established, it just
    /// exists).
    pub qps_established: u64,
    /// Lazy connections: streams this rank opened as a receiver after
    /// doorbell discovery of a new sender.
    pub qps_opened: u64,
    /// Lazy connections: messages funnelled through a shared receive queue
    /// (the cold path before promotion / past the QP budget).
    pub srq_msgs: u64,
    /// Lazy connections: promotions that found no pool room for a stream.
    /// Such a pair stays on the shared receive queue for good — slower,
    /// never wrong, and counted here instead of passing silently.
    pub stream_alloc_failures: u64,
    /// Receive-side per-sender ring probes. An idle rank must keep this flat
    /// regardless of world size — the doorbell regression tests assert on it.
    pub ring_probes: u64,
    /// Doorbell rings performed on the send side: one per message put on a
    /// promoted pair's stream, whatever its length.
    pub doorbell_rings: u64,
    /// Messages longer than one segment sent through a stream. Each is also
    /// counted once in `msgs_sent` (and its payload once in `bytes_sent`).
    pub rdv_msgs: u64,
    /// Payload bytes of those messages.
    pub rdv_bytes: u64,
    /// Segments they were published in (`⌈n / cell_size⌉` for `n` bytes).
    pub rdv_segments: u64,
    /// Stream segments whose slot the receiver handed back later, in virtual
    /// time, than the sender was ready to reuse it — the stream was full and
    /// the sender's clock jumped to the hand-back.
    pub rdv_stalls: u64,
    /// Device lines stored or loaded, and charged, by RMA synchronization:
    /// `post`, `start`, `complete`, `wait`, `fence`, `lock`, `unlock`.
    pub rma_sync_lines: u64,
}

/// The live, shared form of [`TransportStats`]: relaxed atomics bumped on the
/// message hot path, shared (`Arc`) between the transport and the
/// communicator layer so `Comm::stats` and the collective-accounting bumps
/// never take the transport lock. Relaxed ordering is sufficient — counters
/// are pure telemetry; nothing synchronizes through them (the data they
/// describe is published by the transport's own synchronization).
#[derive(Debug, Default)]
pub struct TransportCounters {
    /// Two-sided messages sent.
    pub msgs_sent: AtomicU64,
    /// Two-sided payload bytes sent.
    pub bytes_sent: AtomicU64,
    /// Two-sided messages received.
    pub msgs_received: AtomicU64,
    /// Two-sided payload bytes received.
    pub bytes_received: AtomicU64,
    /// One-sided put operations issued.
    pub puts: AtomicU64,
    /// One-sided get operations issued.
    pub gets: AtomicU64,
    /// Bytes written by put/accumulate.
    pub rma_bytes_written: AtomicU64,
    /// Bytes read by get.
    pub rma_bytes_read: AtomicU64,
    /// Collective operations executed through this rank.
    pub collectives: AtomicU64,
    /// Payload bytes contributed to collectives by this rank.
    pub collective_bytes: AtomicU64,
    /// Lazy connections: pairs promoted to a stream as the sender.
    pub qps_established: AtomicU64,
    /// Lazy connections: streams opened as a receiver.
    pub qps_opened: AtomicU64,
    /// Lazy connections: messages funnelled through a shared receive queue.
    pub srq_msgs: AtomicU64,
    /// Lazy connections: promotions that found no pool room for a stream.
    pub stream_alloc_failures: AtomicU64,
    /// Receive-side per-sender ring probes.
    pub ring_probes: AtomicU64,
    /// Doorbell rings performed on the send side.
    pub doorbell_rings: AtomicU64,
    /// Messages longer than one segment sent through a stream.
    pub rdv_msgs: AtomicU64,
    /// Payload bytes of those messages.
    pub rdv_bytes: AtomicU64,
    /// Segments they were published in.
    pub rdv_segments: AtomicU64,
    /// Stream segments that waited (in virtual time) for their slot.
    pub rdv_stalls: AtomicU64,
    /// Device lines charged by RMA synchronization calls.
    pub rma_sync_lines: AtomicU64,
}

impl TransportCounters {
    /// Relaxed increment helper: `counters.add(&counters.msgs_sent, 1)` reads
    /// poorly — call as `TransportCounters::bump(&self.stats.msgs_sent, 1)`.
    #[inline]
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot the counters into the plain reporting struct.
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            msgs_received: self.msgs_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            rma_bytes_written: self.rma_bytes_written.load(Ordering::Relaxed),
            rma_bytes_read: self.rma_bytes_read.load(Ordering::Relaxed),
            collectives: self.collectives.load(Ordering::Relaxed),
            collective_bytes: self.collective_bytes.load(Ordering::Relaxed),
            qps_established: self.qps_established.load(Ordering::Relaxed),
            qps_opened: self.qps_opened.load(Ordering::Relaxed),
            srq_msgs: self.srq_msgs.load(Ordering::Relaxed),
            stream_alloc_failures: self.stream_alloc_failures.load(Ordering::Relaxed),
            ring_probes: self.ring_probes.load(Ordering::Relaxed),
            doorbell_rings: self.doorbell_rings.load(Ordering::Relaxed),
            rdv_msgs: self.rdv_msgs.load(Ordering::Relaxed),
            rdv_bytes: self.rdv_bytes.load(Ordering::Relaxed),
            rdv_segments: self.rdv_segments.load(Ordering::Relaxed),
            rdv_stalls: self.rdv_stalls.load(Ordering::Relaxed),
            rma_sync_lines: self.rma_sync_lines.load(Ordering::Relaxed),
        }
    }
}

/// Largest exposure that rides in its slot's flag line instead of the data
/// slot: publishing it is one line store, and it reaches a reader with the
/// row of flag lines the reader acquires anyway.
pub const DP_INLINE_BYTES: usize = SLOT_CELL_INLINE;

/// What one data-plane operation costs on the virtual clock. The CXL
/// transport charges every expose, row, gathered read and completion line
/// through this one value, and hands a copy to the plan builders (in
/// [`DpWindow`]) so that choosing between two plan shapes means walking their
/// op lists with the very terms the execution will be charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpCost {
    /// The device cost model.
    pub cost: CxlCostModel,
    /// The concurrent-transfer bandwidth model.
    pub contention: CxlContentionModel,
    /// Coherence mode toward another host (same-host reads are `Cached`).
    pub mode: CoherenceMode,
    /// Concurrently active communication pairs (the contention crowd).
    pub pairs: usize,
}

impl DpCost {
    /// One control line stored or loaded: a flag line with or without an
    /// inline payload, a completion line.
    pub fn line(&self) -> SimNs {
        self.cost.nt_access()
    }

    /// Publish `bytes` and raise the flag: one line when the payload rides in
    /// it (`inline`), otherwise one streamed publish into the data slot —
    /// however many pieces the bytes came in — plus the flag line.
    pub fn expose(&self, bytes: usize, inline: bool) -> SimNs {
        if inline {
            self.line()
        } else {
            self.cost.streamed_publish(bytes, self.mode) + self.line()
        }
    }

    /// Acquire `lines` consecutive control lines — the flag lines of one
    /// `(slot, phase)` row from the first to the last awaited writer, or the
    /// completion lines from the first to the last awaited reader — in one
    /// read: a single line is [`Self::line`]; more are one streamed read of
    /// their bytes, held to this reader's share of the one-sided device cap
    /// like any other pull off the device.
    pub fn row(&self, lines: usize) -> SimNs {
        if lines <= 1 {
            return self.line();
        }
        let bytes = lines * SLOT_CELL_SIZE;
        let ideal = self.cost.streamed_read(bytes, self.mode);
        ideal.max(self.fair_share(bytes))
    }

    /// The gathered read of a run that has read nothing yet, opened by a row
    /// of `lines` flag lines ([`Self::row`]): so far the run has paid that row
    /// and moved no payload byte.
    pub fn run(&self, lines: usize) -> DpGather {
        DpGather {
            lead: 0.0,
            ahead: self.row(lines),
        }
    }

    /// Read one more piece of `run` — `bytes` of a slot exposure whose flag
    /// line the run's row acquired — and return what it adds to the run's one
    /// **gathered read**. The line fills of all the pieces are independent of
    /// one another, so the load fence and the device latency are paid once, by
    /// the first piece; every piece pays its bytes — a copy out of the shared
    /// cache from a `same_host` writer, a one-sided stream off the device from
    /// another host. A cross-host piece is also held to this reader's share of
    /// the one-sided device cap, each to its own; what the run has paid ahead
    /// of its bytes (the row, the fence, the latency) passes under the floors
    /// that bind, once, the way a single pull's line and latency passed under
    /// its floor — so the run as a whole, row included, never takes less than
    /// its cross-host pieces take at that share.
    pub fn gather_piece(&self, run: &mut DpGather, bytes: usize, same_host: bool) -> SimNs {
        let read = |bytes| match same_host {
            true => self.cost.coherent_read(bytes, CoherenceMode::Cached),
            false => self.cost.streamed_read(bytes, self.mode),
        };
        // What a read pays before its first byte, and for its bytes.
        let lead = read(0);
        let stream = read(bytes) - lead;
        let due = (lead - run.lead).max(0.0);
        run.lead += due;
        run.ahead += due;
        let mut ns = due + stream;
        if !same_host {
            let held = (self.fair_share(bytes) - stream).max(0.0);
            let under = held.min(run.ahead);
            run.ahead -= under;
            ns += held - under;
        }
        ns
    }

    /// The gathered read of a whole run behind a row of `lines`: its pieces,
    /// as `(bytes, same_host)`, read one after another
    /// ([`Self::gather_piece`]). Whatever their order it comes to one fence,
    /// one latency and every piece's bytes, plus what the cross-host floors
    /// add beyond the row, fence and latency they cover. A run of one piece
    /// costs, with its row of one line, what a pull that loaded its own flag
    /// line cost; a longer one never more than its pieces pulled singly.
    pub fn gather(&self, lines: usize, pieces: impl IntoIterator<Item = (usize, bool)>) -> SimNs {
        let mut run = self.run(lines);
        pieces
            .into_iter()
            .map(|(bytes, same_host)| self.gather_piece(&mut run, bytes, same_host))
            .sum()
    }

    /// What `bytes` off the device take at this reader's share of the
    /// one-sided cap.
    pub(crate) fn fair_share(&self, bytes: usize) -> SimNs {
        let cap = self.contention.aggregate_cap_gbps(self.pairs, bytes, false);
        transfer_ns(bytes, cap / self.pairs.max(1) as f64)
    }
}

/// Where a run's gathered read stands ([`DpCost::run`],
/// [`DpCost::gather_piece`]): the transport keeps one from the row that opens
/// a run to the run's last read, the plan builders walk one over an op list.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct DpGather {
    /// What the run has paid of the load fence and the device latency.
    lead: SimNs,
    /// What the run has paid ahead of its bytes that no floor has covered yet.
    ahead: SimNs,
}

/// Geometry and cost terms of a communicator's shared exposure window, as
/// reported by [`Transport::dp_window`]: what the collective builders need to
/// decide whether a payload fits the single-copy data plane and which plan
/// shape is cheaper on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpWindow {
    /// Usable bytes in one exposure slot (a collective whose shared footprint
    /// exceeds this falls back to the ring path).
    pub slot_bytes: usize,
    /// Exposure slots per rank (consecutive collectives rotate through them).
    pub slots: usize,
    /// What the transport charges for data-plane operations on this window.
    pub cost: DpCost,
}

/// One contiguous run of an exposure: bytes `start..end` of the exposing
/// rank's buffer, published at `region_off` within its data slot. A regular
/// collective exposes one piece; the irregular exchange gathers one per
/// reader into a single exposure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpPiece {
    /// Byte offset of the piece within the slot.
    pub region_off: usize,
    /// Start of the piece in the exposing rank's buffer.
    pub start: usize,
    /// End of the piece in the exposing rank's buffer.
    pub end: usize,
}

/// Which group members read an exposure — the ranks whose completion lines
/// the writer consults before it reuses the slot, **and nobody else's**: a
/// member named here that never reads never moves its completion line for
/// this collective, and the writer would wait for it forever once the slot
/// comes round again. The transport resolves the name into an exact member
/// set when the slot is claimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpReaders {
    /// Every other member of the group.
    Others,
    /// One member (group index): the root of a rooted reduce.
    One(usize),
    /// The other members on this rank's host.
    HostMates,
    /// One reader per piece, at a fixed per-reader stride: the piece at
    /// `region_off` is read by member `region_off / stride` and by no one
    /// else (the irregular exchange — a member that is sent nothing gets no
    /// piece and is not waited for). The set is whatever the pieces say, so
    /// it is exact for groups of any size.
    PerPiece {
        /// Bytes of the slot set aside for each reader.
        stride: usize,
    },
}

/// Where a data-plane read finds its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpSource {
    /// Writer's index within the communicator group.
    pub writer_idx: usize,
    /// Publish phase whose flag gates the read.
    pub phase: u8,
    /// Byte offset of the source region: within the writer's data slot, or —
    /// for an `inline` exposure — within the flag line's payload.
    pub off: usize,
    /// The exposure is at most [`DP_INLINE_BYTES`] long and rides in the
    /// writer's flag line.
    pub inline: bool,
    /// This is the reader's last read of the collective: afterwards it stores
    /// its completion line.
    pub last: bool,
}

/// Counters for the shared-window single-copy data plane, surfaced in
/// [`crate::runtime::RankReport::data_plane`]. The transport maintains the
/// window and per-op counters; the communicator layer adds the per-path
/// collective split (how many collectives ran single-copy vs ring).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DataPlaneStats {
    /// Exposure windows created (once per communicator, amortized over every
    /// collective start on it).
    pub window_setups: u64,
    /// Window creations that failed gracefully (pool exhausted); the
    /// communicator runs ring-only.
    pub window_failures: u64,
    /// Collectives that ran on the single-copy shared-window path.
    pub shm_colls: u64,
    /// Collectives of the data-plane-eligible kinds (bcast, reduce,
    /// allreduce, allgather) that ran on the ring path instead.
    pub ring_colls: u64,
    /// Payload bytes this rank contributed to single-copy collectives.
    pub shm_bytes: u64,
    /// Payload bytes this rank contributed to ring-path eligible collectives.
    pub ring_bytes: u64,
    /// Expose operations (one per flag raised: a gathered exposure of many
    /// pieces counts once).
    pub expose_ops: u64,
    /// Exposures read: flag lines a row read acquired, each with the payload
    /// that rides in it or ahead of the read out of its writer's data slot.
    pub pull_ops: u64,
    /// Completion lines acquired: a writer about to reuse a slot observed that
    /// a reader is done with the slot's earlier occupants.
    pub notify_waits: u64,
    /// Row reads issued and charged — one per run of reads (a phase of a
    /// collective, unless a peer it skips splits it), one per completion
    /// sweep — however many flag or completion lines each acquired.
    pub row_reads: u64,
    /// Bytes published into window slots.
    pub bytes_exposed: u64,
    /// Bytes pulled out of peers' window slots.
    pub bytes_pulled: u64,
}

impl DataPlaneStats {
    /// Fold another snapshot's counters into this one.
    pub fn merge(&mut self, other: &DataPlaneStats) {
        self.window_setups += other.window_setups;
        self.window_failures += other.window_failures;
        self.shm_colls += other.shm_colls;
        self.ring_colls += other.ring_colls;
        self.shm_bytes += other.shm_bytes;
        self.ring_bytes += other.ring_bytes;
        self.expose_ops += other.expose_ops;
        self.pull_ops += other.pull_ops;
        self.notify_waits += other.notify_waits;
        self.row_reads += other.row_reads;
        self.bytes_exposed += other.bytes_exposed;
        self.bytes_pulled += other.bytes_pulled;
    }
}

fn no_data_plane<T>() -> Result<T> {
    Err(crate::error::MpiError::Transport(
        "data-plane operation on a transport without a shared window".into(),
    ))
}

/// Where [`Transport::try_recv`] puts the message it matches — the one thing
/// in which the public receive forms differ.
#[derive(Debug)]
pub enum RecvDest<'a> {
    /// Nowhere (`MPI_Iprobe`): the status of the message the next receive
    /// with these selectors would deliver. Nothing is consumed and nothing
    /// charged; a message seen here is the first match of its own
    /// `(source, tag)` too, which is what lets the request sweeps keep MPI's
    /// non-overtaking rule between receives whose selectors overlap.
    Probe,
    /// A caller's buffer, which bounds the message: a longer one is consumed
    /// all the same and the receive fails with [`MpiError::Truncation`].
    /// Allocation-free — the CXL transport copies cells and stream segments
    /// straight into it.
    Slice(&'a mut [u8]),
    /// A vector the transport replaces with one that holds exactly the
    /// message: the staging buffer itself when the message was unexpected, a
    /// buffer of the transport's choosing filled off the wire otherwise.
    Vec(&'a mut Vec<u8>),
}

impl RecvDest<'_> {
    /// The same destination for one more attempt (`Option::as_deref_mut` for
    /// this type).
    pub(crate) fn reborrow(&mut self) -> RecvDest<'_> {
        match self {
            RecvDest::Probe => RecvDest::Probe,
            RecvDest::Slice(buf) => RecvDest::Slice(buf),
            RecvDest::Vec(out) => RecvDest::Vec(out),
        }
    }
}

/// A point-to-point + RMA transport bound to one rank.
///
/// Every operation takes the rank's virtual clock and advances it by the
/// modelled cost of the operation; blocking operations merge the peer's
/// published timestamps so virtual time stays causally consistent.
pub trait Transport: Send {
    /// This rank's index.
    fn rank(&self) -> Rank;
    /// Number of ranks in the universe.
    fn size(&self) -> usize;

    /// Make nonblocking progress on sending `data` to `dst` (a world rank).
    /// `ctx` is the communicator context id woven into the wire-level tag so
    /// that receives posted on other communicators can never match this
    /// message. `cursor` is the transport-opaque resume state: 0 for a fresh
    /// message, the same variable passed back on re-entry. Returns `true`
    /// once the whole message has been handed off (standard mode: it
    /// completes locally, in the queue or the NIC), `false` — without
    /// blocking — when flow control (a full ring or stream whose receiver has
    /// not drained) stops it partway. While `cursor` is non-zero nothing else
    /// may be sent to `dst`.
    fn try_send(
        &mut self,
        clock: &mut SimClock,
        dst: Rank,
        ctx: CtxId,
        tag: Tag,
        data: &[u8],
        cursor: &mut usize,
    ) -> Result<bool>;

    /// One matching attempt for the next message on communicator `ctx` that
    /// satisfies the selectors (world source rank, tag): its status once it
    /// has gone to `dest` (see [`RecvDest`] for what each destination
    /// consumes and charges), `None` when no such message has arrived. The
    /// search stages whatever it has to move out of the way, and never waits
    /// for a message that has not started to arrive.
    fn try_recv(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        dest: RecvDest<'_>,
    ) -> Result<Option<Status>>;

    /// Move fully-arrived messages off the wire into local staging (the
    /// unexpected-message queue / endpoint stash) without matching them
    /// against any receive. Returns how many messages were moved. A rank that
    /// is blocked in a send, deep in a plan or in user compute
    /// (`Comm::progress`) calls it to free the flow-control resources its
    /// peers' sends are waiting for — ring cells and stream slots on the CXL
    /// transport.
    fn poll_incoming(&mut self, clock: &mut SimClock) -> Result<usize>;

    /// Blocking standard-mode send — the one blocked-send loop: attempt;
    /// while flow control holds the message, keep this rank's own arrivals
    /// drained (two ranks that each send the other more than a queue holds
    /// both move); back off, poison-aware, only when nothing moved. Pass a
    /// zero `cursor` for a fresh message, or the cursor of a message a
    /// [`Transport::try_send`] left partly out. The caller holds the rank's
    /// io lock across the call (see the module documentation).
    fn send(
        &mut self,
        clock: &mut SimClock,
        dst: Rank,
        ctx: CtxId,
        tag: Tag,
        data: &[u8],
        cursor: &mut usize,
    ) -> Result<()> {
        let mut backoff = SpinWait::new();
        while !self.try_send(clock, dst, ctx, tag, data, cursor)? {
            if self.poll_incoming(clock)? == 0 {
                backoff.wait(self.poison())?;
            } else {
                backoff.reset();
            }
        }
        Ok(())
    }

    /// Barrier across every rank in the universe.
    fn barrier(&mut self, clock: &mut SimClock) -> Result<()>;

    // ------------------------------------------------------------------
    // One-sided (RMA)
    // ------------------------------------------------------------------

    /// Collectively allocate an RMA window with `size_per_rank` bytes exposed
    /// by every rank. Every rank must call this in the same order.
    fn win_allocate(&mut self, clock: &mut SimClock, size_per_rank: usize) -> Result<WinId>;

    /// Collectively free a window.
    fn win_free(&mut self, clock: &mut SimClock, win: WinId) -> Result<()>;

    /// One-sided write into `target`'s window region.
    fn put(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        data: &[u8],
    ) -> Result<()>;

    /// One-sided read from `target`'s window region.
    fn get(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<()>;

    /// One-sided element-wise accumulate of `f64` values into `target`'s
    /// window region. Not atomic: concurrent accumulates to *different*
    /// elements all land, whatever cache lines they share; accumulates to the
    /// same element from several origins in one epoch need the window lock
    /// around them.
    fn accumulate(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<()>;

    /// Read this rank's own window region.
    fn win_read_local(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<()>;

    /// Write this rank's own window region.
    fn win_write_local(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        offset: usize,
        data: &[u8],
    ) -> Result<()>;

    /// PSCW: open an exposure epoch for the given origin ranks (`MPI_Win_post`).
    fn post(&mut self, clock: &mut SimClock, win: WinId, origins: &[Rank]) -> Result<()>;

    /// PSCW: open an access epoch to the given target ranks (`MPI_Win_start`).
    fn start(&mut self, clock: &mut SimClock, win: WinId, targets: &[Rank]) -> Result<()>;

    /// PSCW: close the access epoch (`MPI_Win_complete`).
    fn complete(&mut self, clock: &mut SimClock, win: WinId) -> Result<()>;

    /// PSCW: close the exposure epoch (`MPI_Win_wait`).
    fn wait(&mut self, clock: &mut SimClock, win: WinId) -> Result<()>;

    /// Passive-target exclusive lock on `target`'s window.
    fn lock(&mut self, clock: &mut SimClock, win: WinId, target: Rank) -> Result<()>;

    /// Release the passive-target lock on `target`'s window.
    fn unlock(&mut self, clock: &mut SimClock, win: WinId, target: Rank) -> Result<()>;

    /// Fence synchronization across all ranks of the window (`MPI_Win_fence`).
    fn fence(&mut self, clock: &mut SimClock, win: WinId) -> Result<()>;

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Operation counters (a snapshot of [`Transport::stats_handle`]).
    fn stats(&self) -> TransportStats {
        self.stats_handle().snapshot()
    }

    /// Shared handle onto the live operation counters, so the communicator
    /// layer can read (and bump the collective counters of) the stats without
    /// holding the transport lock.
    fn stats_handle(&self) -> Arc<TransportCounters>;

    /// Hint: how many communication pairs are concurrently active (used by the
    /// CXL contention model; ignored by transports that do not need it).
    fn set_concurrency_hint(&mut self, _pairs: usize) {}

    /// The standing concurrency hint, so scoped overrides (a hierarchical
    /// collective schedule whose leader phase crowds the device far less than
    /// the default estimate) can save and restore it.
    fn concurrency_hint(&self) -> usize {
        1
    }

    /// Human-readable transport label (used in benchmark output).
    fn label(&self) -> &'static str;

    /// The universe's peer-death flag; spin loops above the transport (e.g.
    /// request combinators) thread it through their waits so they abort when
    /// a rank dies.
    fn poison(&self) -> &PoisonFlag;

    // ------------------------------------------------------------------
    // Shared-window single-copy data plane
    // ------------------------------------------------------------------
    //
    // The CXL transport exposes a per-communicator slotted window in the
    // shared pool (see `cxl-shm`'s `slots` module) so collectives can move
    // payloads with one coherent copy — none at all when the payload fits the
    // flag line — and flag-based completion instead of two ring copies plus
    // per-chunk headers. Transports without shared memory keep the defaults:
    // no window is ever offered, so plans never contain data-plane ops and
    // the erroring op defaults are unreachable.

    /// Collectively establish the exposure window for communicator `ctx`
    /// over `group` (world ranks, group order), with `arena_bytes` of data
    /// capacity per rank split into `slots` slots. Blocking and collective:
    /// every member must call it at the same point (communicator creation).
    /// Returns the window geometry, or `None` — permanently, memoized — when
    /// the transport has no shared pool or creation failed gracefully.
    fn dp_ensure(
        &mut self,
        _clock: &mut SimClock,
        _ctx: CtxId,
        _group: &[Rank],
        _arena_bytes: usize,
        _slots: usize,
    ) -> Result<Option<DpWindow>> {
        Ok(None)
    }

    /// Geometry of the established window for `ctx`, if any (cheap lookup;
    /// consulted by the collective builders on every plan-cache miss).
    fn dp_window(&self, _ctx: CtxId) -> Option<DpWindow> {
        None
    }

    /// Claim this rank's slot for collective `seq` ahead of the expose that
    /// will fill it — what [`Transport::dp_expose`] does first, made available
    /// on its own so a plan whose expose depends on a read (a re-exposed
    /// broadcast slice) can settle the slot while it would otherwise idle.
    /// Returns `false` — without blocking — while an earlier collective still
    /// holds the slot.
    fn dp_claim(
        &mut self,
        _clock: &mut SimClock,
        _ctx: CtxId,
        _seq: u32,
        _readers: DpReaders,
    ) -> Result<bool> {
        no_data_plane()
    }

    /// Publish `pieces` of `buf` for collective `seq` and raise the `phase`
    /// flag of its slot (`seq` mod slots) — once, whatever the number of
    /// pieces: they go out as one non-temporal store stream, each at its own
    /// `region_off` within this rank's data slot, followed by one fence and
    /// one flag line, charged as one streamed publish of their total. With
    /// `inline`, the exposure is a single piece of at most
    /// [`DP_INLINE_BYTES`] and rides in the flag line itself; the plan says
    /// so, not the length, because the readers must know it too, and a reader
    /// of a gathered exposure knows its own piece but not the writer's total.
    /// `readers` names who will read it; the slot stays held until their
    /// completion lines show they are done. Returns `false` — without
    /// blocking — while an earlier collective still holds the slot. No
    /// pieces at all (`inline`, trivially) publishes only the sequence value
    /// (a barrier's arrival): there is nothing a late reader could lose, so
    /// it holds nothing.
    #[allow(clippy::too_many_arguments)]
    fn dp_expose(
        &mut self,
        _clock: &mut SimClock,
        _ctx: CtxId,
        _seq: u32,
        _phase: u8,
        _inline: bool,
        _pieces: &[DpPiece],
        _buf: &[u8],
        _readers: DpReaders,
    ) -> Result<bool> {
        no_data_plane()
    }

    /// Announce that this rank has started collective `seq` on `ctx` and will
    /// read exposures of it. Blocking collectives need no announcement (their
    /// first [`Transport::dp_pull`] comes before anything later can finish);
    /// a nonblocking or persistent start must make one, because until that
    /// collective completes, a later one finishing first may not report the
    /// rank done *through* it.
    fn dp_begin(&mut self, _ctx: CtxId, _seq: u32) {}

    /// Acquire, in one read, the `phase` flag lines of collective `seq`
    /// raised by group members `writers` — this rank, if it lies between
    /// them, excepted: that span of the slot's flag row. Returns `false`
    /// without blocking — and without charge — until every one of them is
    /// up; then the latest of their stamps is merged and the read charged
    /// once ([`DpCost::row`]), however many polls it took. The lines stay
    /// with the transport until its next data-plane call that can wait, and
    /// every read of the run ([`Transport::dp_pull`]) answers to them: an
    /// inline one takes its payload out of its writer's line, one out of a
    /// data slot takes the line as the proof that the slot is published.
    fn dp_await_row(
        &mut self,
        _clock: &mut SimClock,
        _ctx: CtxId,
        _seq: u32,
        _phase: u8,
        _writers: Range<usize>,
    ) -> Result<bool> {
        no_data_plane()
    }

    /// Copy `buf.len()` bytes of collective `seq` from the exposure `src`
    /// names, whose flag line the row this rank has just acquired
    /// ([`Transport::dp_await_row`]) must hold — the read never waits, and
    /// without that line it is a [`MpiError::Transport`] error. An `inline`
    /// exposure came with the row and costs nothing more; one in a data slot
    /// is the next piece of the run's gathered read
    /// ([`DpCost::gather_piece`]). With `src.last`, this rank will not
    /// read any exposure of `seq` again: it stores its completion line — the
    /// sequence number through which it has finished *every* collective it
    /// started reading — unless an earlier one is still open, whose
    /// completion will then cover both.
    fn dp_pull(
        &mut self,
        _clock: &mut SimClock,
        _ctx: CtxId,
        _seq: u32,
        _src: DpSource,
        _buf: &mut [u8],
    ) -> Result<()> {
        no_data_plane()
    }

    /// Arm fault injection on this rank's transport (see [`FaultInjector`]).
    /// The default ignores the injector: such a transport never kills, which
    /// is safe — the fault-tolerance tests only assert on transports that
    /// support injection (both bundled transports do).
    fn set_fault_injector(&mut self, _injector: FaultInjector) {}

    /// Data-plane counters (window setups/failures and per-op traffic; the
    /// communicator layer adds the per-path collective split on top).
    fn dp_stats(&self) -> DataPlaneStats {
        DataPlaneStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_is_zero() {
        let s = TransportStats::default();
        assert_eq!(s.msgs_sent, 0);
        assert_eq!(s.rma_bytes_read, 0);
    }
}
