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
//!
//! A transport keeps no counters and the trait has no stats method: the
//! constructor takes the rank's [`crate::counters::RankCounters`], into whose
//! three sections declared here — [`TransportStats`], [`DataPlaneStats`],
//! [`CompletionStats`] — the transport counts directly.

pub mod conn;
pub mod cxl;
pub mod tcp;

use std::ops::Range;

use cmpi_fabric::clock::{transfer_ns, SimNs};
use cmpi_fabric::cost::CoherenceMode;
use cmpi_fabric::{CxlContentionModel, CxlCostModel, SimClock};
use cxl_shm::slots::{stamped_lines, stamped_span, SLOT_CELL_SIZE};

use crate::config::FaultTrigger;
use crate::counters::counter_section;
use crate::error::MpiError;
use crate::spin::{block_until, PoisonFlag, Polled, WaitSite};
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

counter_section! {
    /// Operation counters of one rank's transport traffic, surfaced by
    /// `Comm::stats` and in [`crate::runtime::RankReport::stats`].
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    TransportStats / TransportSection {
        /// Two-sided messages sent.
        msgs_sent,
        /// Two-sided payload bytes sent.
        bytes_sent,
        /// Two-sided messages received.
        msgs_received,
        /// Two-sided payload bytes received.
        bytes_received,
        /// One-sided put operations issued.
        puts,
        /// One-sided get operations issued.
        gets,
        /// Bytes written by put/accumulate.
        rma_bytes_written,
        /// Bytes read by get.
        rma_bytes_read,
        /// Collective operations executed through this rank (any communicator).
        collectives,
        /// Payload bytes contributed to collectives by this rank.
        collective_bytes,
        /// Lazy connections: pairs this rank promoted to a stream as the
        /// sender (eager mode reports 0 — the matrix is not established, it
        /// just exists).
        qps_established,
        /// Lazy connections: streams this rank opened as a receiver after
        /// doorbell discovery of a new sender.
        qps_opened,
        /// Lazy connections: messages funnelled through a shared receive
        /// queue (the cold path before promotion / past the QP budget).
        srq_msgs,
        /// Lazy connections: promotions that found no pool room for a
        /// stream. Such a pair stays on the shared receive queue for good —
        /// slower, never wrong, and counted here instead of passing silently.
        stream_alloc_failures,
        /// Receive-side per-sender ring probes. An idle rank must keep this
        /// flat regardless of world size — the doorbell regression tests
        /// assert on it.
        ring_probes,
        /// Doorbell rings performed on the send side: one per message put on
        /// a promoted pair's stream, whatever its length.
        doorbell_rings,
        /// Messages longer than one segment sent through a stream. Each is
        /// also counted once in `msgs_sent` (and its payload once in
        /// `bytes_sent`).
        rdv_msgs,
        /// Payload bytes of those messages.
        rdv_bytes,
        /// Segments they were published in: `⌈n / cell_size⌉` for `n` bytes.
        rdv_segments,
        /// Messages sent through a stream as more than one stamped line: one
        /// store stream, no flag line behind it (a message of one line is
        /// the flag line, as it always was).
        stamped_msgs,
        /// Stream reads that began with one gathered read of more than one
        /// line — the flag line and those behind it — whatever the receive
        /// form: a receive that posts a buffer guesses the lines from its
        /// length, any other from the stream's last message.
        stamped_reads,
        /// Stream reads of stamped lines whose guess fell short: the message
        /// took more lines than the gathered read loaded, and the rest took
        /// a second read.
        short_guesses,
        /// Stream segments whose slot the receiver handed back later, in
        /// virtual time, than the sender was ready to reuse it — the stream
        /// was full and the sender's clock jumped to the hand-back.
        rdv_stalls,
        /// Device lines stored or loaded, and charged, by RMA synchronization
        /// (`post`, `start`, `complete`, `wait`, `fence`, `lock`, `unlock`).
        rma_sync_lines,
    }
}

/// How an exposure sits in the window. Which one it gets is a function of its
/// length and its room alone ([`DpWindow::format`]), so the writer and every
/// reader agree on it without a word exchanged. A promoted pair's message
/// stream publishes in the same two formats, chosen by the same rule
/// ([`cheaper_format`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpFormat {
    /// **Stamped lines**: every line carries the exposure's sequence word,
    /// the first one the writer's stamp too, so the lines validate
    /// themselves — one store stream to publish, one gathered read to
    /// acquire, no flag line. `in_row`: the exposure is one line that *is*
    /// the writer's flag line of the row (a payload of at most
    /// [`cxl_shm::slots::SLOT_CELL_INLINE`] bytes, read with the row);
    /// otherwise the lines sit at the head of the exposure's region of the
    /// data slot.
    Stamped {
        /// The one line is the writer's flag line.
        in_row: bool,
    },
    /// **Slot + flag**: the payload in the data slot, published by the flag
    /// line that the reader's row acquires.
    Slot,
}

/// What an exposure costs its writer to publish and its readers to read,
/// priced for one kind of place that holds exposures: a communicator's window,
/// read by every other member ([`DpWindow::format`]), or a promoted pair's
/// message stream, read by its one receiver (the CXL transport's charges).
/// [`cheaper_format`] compares the two formats on it.
pub trait ExposurePrice {
    /// The writer's publish: `streamed` bytes in one non-temporal store
    /// stream and one fence — none when there are none — then, with `flag`,
    /// the flag line.
    fn publish(&self, streamed: usize, flag: bool) -> SimNs;
    /// The read of an exposure that is one stamped line, its writer's flag
    /// line.
    fn flag_line(&self) -> SimNs;
    /// The read of `bytes` out of a data slot: stamped lines that vouch for
    /// themselves, or — `behind_flag` — a payload behind the flag line(s) the
    /// read acquires first.
    fn read(&self, behind_flag: bool, bytes: usize) -> SimNs;
}

/// The format of an exposure of `len` bytes that takes `lines` stamped lines,
/// the first of which may be its writer's flag line when `own_line`: the
/// cheaper under `price` of
///
/// * stamped — in the flag line, a line published and a flag line read;
///   otherwise the lines in one store stream and no flag, and one read of
///   them;
/// * slot + flag — `len` bytes streamed and the flag line, the flag line
///   read and the payload behind it,
///
/// a tie going to stamped lines. This is the one pricing rule of both the
/// group window ([`DpWindow::format`]) and a pair's stream; where the lines
/// must go is the caller's to check.
pub fn cheaper_format(
    price: &impl ExposurePrice,
    len: usize,
    lines: usize,
    own_line: bool,
) -> DpFormat {
    let in_row = own_line && lines == 1;
    let stamped = match in_row {
        true => price.publish(0, true) + price.flag_line(),
        false => {
            let bytes = lines * SLOT_CELL_SIZE;
            price.publish(bytes, false) + price.read(false, bytes)
        }
    };
    let slot = price.publish(len, true) + price.read(true, len);
    match stamped <= slot {
        true => DpFormat::Stamped { in_row },
        false => DpFormat::Slot,
    }
}

impl DpFormat {
    /// Whether a read of this format takes a line of the flag row.
    pub fn in_row(self) -> bool {
        self != DpFormat::Stamped { in_row: false }
    }

    /// Bytes of the data slot an exposure of `len` bytes takes in this
    /// format: its lines when stamped, its payload otherwise.
    pub fn footprint(self, len: usize) -> usize {
        match self {
            DpFormat::Stamped { .. } => stamped_lines(len) * SLOT_CELL_SIZE,
            DpFormat::Slot => len,
        }
    }
}

/// What one data-plane operation costs on the virtual clock. The CXL
/// transport charges every expose, row, gathered read and completion line
/// through this one value, and hands a copy to the plan builders (in
/// [`DpWindow`]) so that choosing between two plan shapes — or two formats of
/// one exposure — means walking their op lists with the very terms the
/// execution will be charged.
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
    /// One control line stored or loaded: a flag line with or without the
    /// one stamped line of payload it may carry, a completion line.
    pub fn line(&self) -> SimNs {
        self.cost.nt_access()
    }

    /// Publish an exposure: `streamed` bytes in one non-temporal store
    /// stream and one fence — none when there are none — then, with `flag`,
    /// the flag line. A stamped exposure of `k` lines in the slot is
    /// `publish(64·k, false)`, one in the row `publish(0, true)` (a line), a
    /// slot-and-flag one of `len` bytes `publish(len, true)`. A stamped
    /// exposure that carries the writer's held-back completion line too is
    /// `publish(64·(k + 1), false)`, its flag line one of the `k`
    /// ([`Self::expose_joined`]).
    pub fn publish(&self, streamed: usize, flag: bool) -> SimNs {
        let stream = match streamed {
            0 => 0.0,
            bytes => self.cost.streamed_publish(bytes, self.mode),
        };
        stream + if flag { self.line() } else { 0.0 }
    }

    /// Publish `pieces` as one exposure: every byte they put into the data
    /// slot — stamped pieces as whole lines — in one store stream, however
    /// many pieces there are, and the flag line unless every piece is
    /// stamped in the slot (no pieces at all: the flag line alone, a
    /// barrier's arrival). What the writer's completion line costs beside it
    /// is a line of its own, unless the exposure carries it
    /// ([`Self::expose_joined`]).
    pub fn expose(&self, pieces: &[DpPiece]) -> SimNs {
        let streamed = pieces.iter().map(DpPiece::streamed).sum();
        self.publish(streamed, raises_flag(pieces))
    }

    /// Publish `pieces` — stamped lines only, or none: a barrier's arrival —
    /// together with the completion line the writer held back since its last
    /// read: every line, the flag line and the completion line among them, in
    /// one store stream and one fence. For an exposure of `k` lines that is
    /// `publish(64·(k + 1), false)` where [`Self::expose`] and a line of its
    /// own are `publish(64·k, false) + line()` — or two lines, for a flag
    /// line alone.
    pub fn expose_joined(&self, pieces: &[DpPiece]) -> SimNs {
        debug_assert!(
            stamped_only(pieces),
            "a slot exposure carries no completion line"
        );
        let streamed: usize = pieces.iter().map(DpPiece::streamed).sum();
        let flag = usize::from(raises_flag(pieces)) * SLOT_CELL_SIZE;
        self.publish(streamed + flag + SLOT_CELL_SIZE, false)
    }

    /// Acquire `lines` consecutive control lines — the flag lines of one
    /// `(slot, phase)` row from the first to the last awaited writer, or the
    /// completion lines from the first to the last awaited reader — in one
    /// read: a single line is [`Self::line`]; more are one streamed read of
    /// their bytes, held to this reader's share of the one-sided device cap
    /// like any other pull off the device. No lines — a run whose reads are
    /// all stamped in data slots — cost nothing.
    pub fn row(&self, lines: usize) -> SimNs {
        match lines {
            0 => 0.0,
            1 => self.line(),
            _ => {
                let bytes = lines * SLOT_CELL_SIZE;
                let ideal = self.cost.streamed_read(bytes, self.mode);
                ideal.max(self.fair_share(bytes))
            }
        }
    }

    /// The gathered read of a run that has read nothing yet, opened by a row
    /// of `lines` flag lines ([`Self::row`]): so far the run has paid that row
    /// and moved no payload byte. With no row ahead of it (`lines == 0`) the
    /// gathered read is the run's acquire.
    pub fn run(&self, lines: usize) -> DpGather {
        DpGather {
            lead: 0.0,
            ahead: self.row(lines),
        }
    }

    /// Read one more piece of `run` — `bytes` out of a data slot: a slot
    /// exposure whose flag line the run's row acquired, or the lines of a
    /// stamped one — and return what it adds to the run's one **gathered
    /// read**. The line fills of all the pieces are independent of one
    /// another, so the load fence and the device latency are paid once, by
    /// the first piece; every piece pays its bytes — a copy out of the shared
    /// cache from a `same_host` writer, a one-sided stream off the device from
    /// another host. A cross-host piece is also held to this reader's share of
    /// the one-sided device cap, each to its own; what the run has paid ahead
    /// of its bytes (the row, the fence, the latency) passes under the floors
    /// that bind, once, the way a single pull's line and latency passed under
    /// its floor — so the run as a whole, row included, never takes less than
    /// its cross-host pieces take at that share.
    pub fn gather_piece(&self, run: &mut DpGather, bytes: usize, same_host: bool) -> SimNs {
        run.read(&self.piece(bytes, same_host))
    }

    /// The terms of one piece of a gathered read ([`Self::gather_piece`]).
    fn piece(&self, bytes: usize, same_host: bool) -> DpPieceCost {
        let read = |bytes| match same_host {
            true => self.cost.coherent_read(bytes, CoherenceMode::Cached),
            false => self.cost.streamed_read(bytes, self.mode),
        };
        let lead = read(0);
        let stream = read(bytes) - lead;
        let held = match same_host {
            true => 0.0,
            false => (self.fair_share(bytes) - stream).max(0.0),
        };
        DpPieceCost { lead, stream, held }
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
/// [`DpCost::gather_piece`]): the transport keeps one from the op that opens
/// a run to the run's last read, the plan builders walk one over an op list.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct DpGather {
    /// What the run has paid of the load fence and the device latency.
    lead: SimNs,
    /// What the run has paid ahead of its bytes that no floor has covered yet.
    ahead: SimNs,
}

/// One piece of a gathered read, priced on its own: what a read of it pays
/// before its first byte, for its bytes, and — off another host's device —
/// what its fair-share floor holds it beyond them.
struct DpPieceCost {
    lead: SimNs,
    stream: SimNs,
    held: SimNs,
}

impl DpGather {
    /// Add `piece` to the run and return what it adds to the run's time: the
    /// part of the fence and latency the run has not paid yet, its bytes, and
    /// what of its floor the run's time ahead of its bytes does not cover.
    fn read(&mut self, piece: &DpPieceCost) -> SimNs {
        let due = (piece.lead - self.lead).max(0.0);
        self.lead += due;
        self.ahead += due;
        let under = piece.held.min(self.ahead);
        self.ahead -= under;
        due + piece.stream + (piece.held - under)
    }
}

/// Geometry and cost terms of a communicator's shared exposure window, as
/// reported by [`Transport::dp_window`]: what the collective builders need to
/// decide how many segments a payload takes on the single-copy data plane,
/// which format each exposure takes and which plan shape is cheaper on it. The cost terms
/// are the same on every member — the contention crowd is the one the
/// transport assumes before any concurrency hint — because every member must
/// build the same plan; what a rank is *charged* follows its live hint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpWindow {
    /// Usable bytes in one exposure slot (a collective whose shared footprint
    /// exceeds this runs in segments, a slot each).
    pub slot_bytes: usize,
    /// Members of the group the window serves.
    pub ranks: usize,
    /// The cost terms plans are priced with.
    pub cost: DpCost,
}

impl DpWindow {
    /// The format of an exposure of `len` bytes that may take `region` of a
    /// data slot; `own_line` says whether a stamped exposure of one line may be
    /// the writer's flag line (a regular collective's — the pieces of a
    /// gathered exposure share one). [`cheaper_format`] for the writer's
    /// publish plus one reader's run over such an exposure from each of its
    /// `ranks − 1` peers, every one on another host — with one peer, one
    /// cross-host reader's read — priced as [`crate::dataplane`] walks a
    /// plan:
    ///
    /// * stamped — [`DpCost::publish`] of its lines and no flag, and one
    ///   gathered read of the runs' lines with no row ahead of it; in the
    ///   row, a line and a row of the peers' lines;
    /// * slot + flag — the publish and the flag line, the row of the peers'
    ///   flag lines and a gathered read of their payloads behind it.
    ///
    /// The run, not the read alone, is what a reader of a regular collective
    /// pays: its row passes under the cross-host floors that a read of many
    /// pieces reaches, where a lone read's row does not. Stamped lines that
    /// do not start on a line of the slot, or do not fit in `region`, are not
    /// a candidate. Nothing here depends on the rank asking: `len`, `region`
    /// and the window are the same on every member.
    pub fn format(&self, len: usize, region: Range<usize>, own_line: bool) -> DpFormat {
        let lines = stamped_lines(len);
        let in_row = own_line && lines == 1;
        let fits = region.start.is_multiple_of(SLOT_CELL_SIZE)
            && region.start + lines * SLOT_CELL_SIZE <= region.end;
        if !in_row && !fits {
            return DpFormat::Slot;
        }
        let peers = self.ranks.saturating_sub(1).max(1);
        let price = WindowPrice {
            cost: &self.cost,
            peers,
        };
        cheaper_format(&price, len, lines, own_line)
    }
}

/// An exposure of a window read by each of `peers` members on other hosts,
/// every one in a run of such reads ([`DpWindow::format`]).
struct WindowPrice<'a> {
    cost: &'a DpCost,
    peers: usize,
}

impl ExposurePrice for WindowPrice<'_> {
    fn publish(&self, streamed: usize, flag: bool) -> SimNs {
        self.cost.publish(streamed, flag)
    }

    fn flag_line(&self) -> SimNs {
        self.cost.row(self.peers)
    }

    /// The row of the peers' flag lines, if the read is behind them, and a
    /// run of `peers` pieces: each priced once, read `peers` times.
    fn read(&self, behind_flag: bool, bytes: usize) -> SimNs {
        let lines = if behind_flag { self.peers } else { 0 };
        let (piece, mut run) = (self.cost.piece(bytes, false), self.cost.run(lines));
        let run: SimNs = (0..self.peers).map(|_| run.read(&piece)).sum();
        self.cost.row(lines) + run
    }
}

/// One contiguous run of an exposure: bytes `start..end` of the exposing
/// rank's buffer, published at `region_off` within its data slot in
/// `format`. A regular collective exposes one piece; the irregular exchange
/// gathers one per reader into a single exposure, each in the format its own
/// length gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpPiece {
    /// Byte offset of the piece within the slot.
    pub region_off: usize,
    /// Start of the piece in the exposing rank's buffer.
    pub start: usize,
    /// End of the piece in the exposing rank's buffer.
    pub end: usize,
    /// How the piece is published.
    pub format: DpFormat,
}

impl DpPiece {
    /// Bytes the piece puts into the data slot's store stream.
    fn streamed(&self) -> usize {
        match self.format {
            DpFormat::Stamped { in_row: true } => 0,
            format => format.footprint(self.end - self.start),
        }
    }
}

/// Whether an exposure of `pieces` stores its writer's flag line: unless
/// every piece is stamped lines in the data slot.
pub(crate) fn raises_flag(pieces: &[DpPiece]) -> bool {
    pieces.is_empty() || pieces.iter().any(|p| p.format.in_row())
}

/// Whether an exposure of `pieces` is stamped lines and nothing else — its
/// flag line too, if it raises one — so that one more stamped line, the
/// writer's completion line, can join its store stream
/// ([`DpCost::expose_joined`]). No pieces, a barrier's arrival, is one.
pub(crate) fn stamped_only(pieces: &[DpPiece]) -> bool {
    pieces
        .iter()
        .all(|p| matches!(p.format, DpFormat::Stamped { .. }))
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
    /// Publish phase of the exposure.
    pub phase: u8,
    /// Where the exposure starts in the writer's data slot (unused when it is
    /// the writer's flag line).
    pub region: usize,
    /// Byte offset of the read within the exposure.
    pub off: usize,
    /// The exposure's format.
    pub format: DpFormat,
    /// This is the reader's last read of the collective: afterwards it stores
    /// its completion line.
    pub last: bool,
}

impl DpSource {
    /// Bytes a read of `len` bytes here takes out of the writer's data slot
    /// — one piece of its run's gathered read: the payload behind a flag
    /// line; of a stamped exposure the first line (for the stamp) and the
    /// lines that hold the bytes; none out of the writer's flag line.
    pub fn slot_bytes(&self, len: usize) -> usize {
        match self.format {
            DpFormat::Slot => len,
            DpFormat::Stamped { in_row: true } => 0,
            DpFormat::Stamped { in_row: false } => {
                (1 + stamped_span(self.off, len).len()) * SLOT_CELL_SIZE
            }
        }
    }
}

counter_section! {
    /// Counters of the shared-window single-copy data plane, surfaced in
    /// [`crate::runtime::RankReport::data_plane`]: the windows and their
    /// operations (counted by the CXL transport) and the path each collective
    /// started took (counted by the communicator layer).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    DataPlaneStats / DataPlaneSection {
        /// Exposure windows created (once per communicator, amortized over
        /// every collective start on it).
        window_setups,
        /// Window creations that failed gracefully (pool exhausted); the
        /// communicator runs ring-only.
        window_failures,
        /// Collectives whose plan had data-plane ops (the shared window).
        shm_colls,
        /// Collectives of the kinds that have a window builder (barrier,
        /// bcast, reduce, allreduce, allgather, alltoall, alltoallv,
        /// alltoallw) whose plan had no data-plane op: they ran on the ring
        /// path. The world's sequence barrier counts on neither path.
        ring_colls,
        /// Payload bytes this rank contributed to single-copy collectives.
        shm_bytes,
        /// Payload bytes this rank contributed to those ring-path ones.
        ring_bytes,
        /// Expose operations (one per publish: a gathered exposure of many
        /// pieces counts once).
        expose_ops,
        /// Those of them published as stamped lines and nothing else — no
        /// flag line but the one stamped line that is it
        /// ([`DpFormat::Stamped`]); the rest raised a flag line behind a data
        /// slot, or (a barrier's arrival) carried nothing.
        stamped_exposes,
        /// Exposures read: flag lines a row read acquired, each with the
        /// stamped line it is or ahead of the read out of its writer's data
        /// slot, and stamped exposures in data slots, acquired by their own
        /// lines.
        pull_ops,
        /// Completion lines acquired: a writer about to reuse a slot
        /// observed that a reader is done with the slot's earlier occupants.
        notify_waits,
        /// Row reads issued and charged — one per run of reads that takes
        /// flag lines (a phase of a collective, unless a peer it skips splits
        /// it; a run of stamped exposures in data slots has none), one per
        /// completion sweep — however many flag or completion lines each
        /// acquired.
        row_reads,
        /// Bytes published into window slots.
        bytes_exposed,
        /// Bytes pulled out of peers' window slots.
        bytes_pulled,
    }
}

counter_section! {
    /// How this rank's completion lines of the data plane went out, surfaced
    /// by `Comm::completion_stats`. A section of the rank's counter block of
    /// its own, outside [`DataPlaneStats`] and so outside
    /// [`crate::runtime::RankReport`]: a larger report moved the peak
    /// resident set of a process that keeps one per launch (the `e2e`
    /// benchmark) by several per cent.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    CompletionStats / CompletionSection {
        /// Completion lines that rode this rank's next exposure on the same
        /// window — stamped lines, its flag line or a barrier's arrival — in
        /// its one store stream ([`DpCost::expose_joined`]).
        completions_joined,
        /// Completion lines stored by themselves, a line each: before this
        /// rank swept, was refused a slot, exposed in slot format, acquired a
        /// run, used another window, made a point-to-point, RMA or barrier
        /// call, or dropped the communicator.
        completions_alone,
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

    /// Blocking standard-mode send — the one blocked send: attempt; while
    /// flow control holds the message, drain this rank's own arrivals (two
    /// ranks that each send the other more than a queue holds both move) and
    /// attempt again, backing off (`block_until` at the `Send` site, which
    /// also fails the send on a dead peer) only when nothing moved. Pass a
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
        if self.try_send(clock, dst, ctx, tag, data, cursor)? {
            return Ok(());
        }
        // The poll borrows the whole transport, so the wait checks a handle.
        let poison = self.poison().clone();
        block_until(WaitSite::Send, &poison, || {
            let drained = self.poll_incoming(clock)?;
            Ok(match self.try_send(clock, dst, ctx, tag, data, cursor)? {
                true => Polled::Ready(()),
                false if drained == 0 => Polled::Idle,
                false => Polled::Moved,
            })
        })
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
    // flag line — and line-based completion instead of two ring copies plus
    // per-chunk headers. Transports without shared memory keep the defaults:
    // no window is ever offered, so plans never contain data-plane ops and
    // the erroring op defaults are unreachable.

    /// Collectively establish the exposure window for communicator `ctx`
    /// over `group` (world ranks, group order), with `arena_bytes` of data
    /// capacity per rank split into [`crate::dataplane::DP_SLOTS`] slots.
    /// Blocking and collective: every member must call it at the same point
    /// (communicator creation). Returns the window geometry, or `None` —
    /// permanently, memoized — when the transport has no shared pool, the
    /// group has one member, the arena gives no slot a whole cache line (a
    /// zero arena: nothing is created and nothing counted), or creation
    /// failed gracefully.
    fn dp_ensure(
        &mut self,
        _clock: &mut SimClock,
        _ctx: CtxId,
        _group: &[Rank],
        _arena_bytes: usize,
    ) -> Result<Option<DpWindow>> {
        Ok(None)
    }

    /// Bytes of the shared pool's window headroom drawn so far, every rank's
    /// draws together — RMA windows, data-plane windows and their status
    /// objects — or `None` without a shared pool.
    fn headroom_drawn(&self) -> Result<Option<u64>> {
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

    /// Publish `pieces` of `buf` for collective `seq` in the `phase` of its
    /// slot (`seq` mod slots) — once, whatever the number of pieces: every
    /// byte they put into this rank's data slot, each piece at its own
    /// `region_off` and in its own [`DpFormat`], goes out as one
    /// non-temporal store stream and one fence ([`DpCost::expose`]). A
    /// stamped piece is its lines, the sequence word in each, stored payload
    /// first and word last; unless every piece is one, the `phase` flag line
    /// follows — carrying the piece whose one stamped line it is, if any. The
    /// format is the plan's, not the transport's, because the readers must
    /// know it too, and a reader of a gathered exposure knows its own piece
    /// but not the writer's others. `readers` names who will read it; the
    /// slot stays held until their completion lines show they are done.
    /// Returns `false` — without blocking — while an earlier collective
    /// still holds the slot. No pieces at all publishes only the sequence
    /// value (a barrier's arrival): there is nothing a late reader could
    /// lose, so it holds nothing. The completion line this rank holds back
    /// on the window ([`Transport::dp_pull`]) rides an exposure of stamped
    /// lines that finds its slot free ([`DpCost::expose_joined`]); before
    /// any other it is stored by itself.
    #[allow(clippy::too_many_arguments)]
    fn dp_expose(
        &mut self,
        _clock: &mut SimClock,
        _ctx: CtxId,
        _seq: u32,
        _phase: u8,
        _pieces: &[DpPiece],
        _buf: &[u8],
        _readers: DpReaders,
    ) -> Result<bool> {
        no_data_plane()
    }

    /// Announce that this rank has started collective `seq` on `ctx` and
    /// will read exposures of it (`reads`) or expose in it (`writes`).
    /// Blocking collectives need no announcement (their first
    /// [`Transport::dp_pull`] comes before anything later can finish, and
    /// nothing started after them can expose while they run); a nonblocking
    /// or persistent start must make one, because until that collective
    /// completes, a later one finishing first may not report the rank done
    /// *through* it, and a later one may not take the slot it will expose
    /// in. What then waits for it — a later exposure refused behind it, a
    /// peer's slot this rank has yet to read — moves only when it is driven,
    /// which every idle attempt of the rank's calls does
    /// (`ProgressEngine::drive_started`).
    fn dp_begin(&mut self, _ctx: CtxId, _seq: u32, _reads: bool, _writes: bool) {}

    /// Acquire a **run**: everything the run's `reads` — `(source, bytes)`,
    /// in the order they will be made — consume of collective `seq`, in one
    /// all-or-nothing step. That is the `phase` flag lines raised by group
    /// members `writers` — this rank, if it lies between them, excepted: that
    /// span of the slot's flag row, none if the range is empty — and the
    /// lines of every read of a stamped exposure in a data slot: its first
    /// line and the ones that hold its bytes. Returns `false` without
    /// blocking — and without charge — until every one of those lines shows
    /// the collective's sequence value; then the latest of their stamps is
    /// merged and the row charged once ([`DpCost::row`]), however many polls
    /// it took. The lines stay with the transport until its next data-plane
    /// call that can wait, and every read of the run ([`Transport::dp_pull`])
    /// answers to them.
    #[allow(clippy::too_many_arguments)]
    fn dp_await_row(
        &mut self,
        _clock: &mut SimClock,
        _ctx: CtxId,
        _seq: u32,
        _phase: u8,
        _writers: Range<usize>,
        _reads: &mut dyn Iterator<Item = (DpSource, usize)>,
    ) -> Result<bool> {
        no_data_plane()
    }

    /// Copy `buf.len()` bytes of collective `seq` from the exposure `src`
    /// names, whose lines the run this rank has just acquired
    /// ([`Transport::dp_await_row`]) must hold — the read never waits, and
    /// without them it is a [`MpiError::Transport`] error. A stamped
    /// exposure's bytes come out of those lines: free when the line is the
    /// writer's flag line, which came with the row, the next piece of the
    /// run's gathered read ([`DpCost::gather_piece`]) when they are lines of
    /// a data slot. A slot exposure takes its flag line as the proof that the
    /// slot is published and is the next piece of that read too. With
    /// `src.last`, this rank will not read any exposure of `seq` again: it
    /// stores its completion line — the sequence number through which it has
    /// finished *every* collective it started reading — unless an earlier
    /// one is still open, whose completion will then cover both. The line is
    /// held back, not stored: it rides this rank's next exposure on the
    /// window if that is stamped lines and takes a free slot
    /// ([`DpCost::expose_joined`]), and is stored by itself before anything
    /// else that could wait, or that uses another window or the transport
    /// ([`Transport::dp_settle`]).
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

    /// Let go of `ctx`'s window: what dropping the communicator does. Store
    /// the completion line this rank holds back on it
    /// ([`Transport::dp_pull`]), by itself, if it holds one — nothing of the
    /// communicator's could carry the line after that — and count this
    /// member out of the window with one read-modify-write, waiting for
    /// nobody. The last member out destroys the window's data and status
    /// objects and hands their bytes back to the pool's headroom. A member
    /// with a collective of the communicator still in flight keeps the window
    /// (and its count) for good.
    fn dp_settle(&mut self, _clock: &mut SimClock, _ctx: CtxId) -> Result<()> {
        Ok(())
    }

    /// Arm fault injection on this rank's transport (see [`FaultInjector`]).
    /// The default ignores the injector: such a transport never kills, which
    /// is safe — the fault-tolerance tests only assert on transports that
    /// support injection (both bundled transports do).
    fn set_fault_injector(&mut self, _injector: FaultInjector) {}
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
