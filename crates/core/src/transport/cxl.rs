//! The cMPI transport: MPI point-to-point and RMA over CXL memory sharing.
//!
//! Everything that crosses ranks lives in CXL shared memory:
//!
//! * two-sided messages travel per pair and direction. In **eager** mode —
//!   the paper's protocol, kept as its oracle — that is the SPSC message-cell
//!   ring of [`crate::queue`] in the full ranks×ranks [`QueueMatrix`],
//!   formatted up front: every message is chunked through cells written
//!   cached and flushed, behind head/tail words. In **lazy** mode (the
//!   default) pairs start on the receiver's shared receive queue and, past
//!   the promotion threshold, get one [`Stream`] behind the doorbell of
//!   [`super::conn`], so per-rank state is O(active peers) and an idle poll
//!   costs O(1) instead of a ranks-wide sweep. Every message of a promoted
//!   pair rides its stream, in one of the window's two formats, whichever
//!   the one pricing rule ([`crate::transport::cheaper_format`]) finds
//!   cheaper for its length: frame and payload as **stamped lines** — the
//!   flag line, then lines at the head of the data slot, every one carrying
//!   the segment's word, out in one store stream — or, longer, the payload
//!   streamed into the slots with non-temporal stores behind a flag line.
//!   Every read of a stream begins with one gathered read of a guess of
//!   lines — the flag line and those behind it — and reads the rest only
//!   when the frame says the message takes more: a receive that names the
//!   sender and posts a buffer guesses the stamped lines of its length, any
//!   other read the lines of the stream's last message. The receive path is
//!   one body over a private `Ring` enum, whichever of the three it drains,
//!   and cells — eager ring or shared receive queue — are published by one
//!   loop over its send-side mirror;
//! * RMA windows, their PSCW cells, bakery locks and fence barrier live in a
//!   per-window SHM object ([`crate::rma`]); every synchronization word in it
//!   has one writer and is never reset (see the window section below);
//! * the global barrier is the sequence-number barrier of [`crate::barrier`].
//!
//! Cell and window payloads are published with the software-coherence protocol
//! (write + flush + fence / fence + flush + read); flags, queue indices and
//! everything a stream or an exposure slot carries use non-temporal accesses. Costs are charged to the per-rank virtual clock from
//! the [`CxlCostModel`], with the [`CxlContentionModel`] throttling concurrent
//! large transfers the way the paper's memory-hierarchy contention does.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

use cmpi_fabric::clock::{transfer_ns, SimNs};
use cmpi_fabric::cost::CoherenceMode;
use cmpi_fabric::{CxlContentionModel, CxlCostModel, SimClock};
use cxl_shm::alloc::align_alloc_size;
use cxl_shm::slots::{
    stamped_lines, stamped_pos, stamped_span, SLOT_CELL_DATA_OFF, SLOT_CELL_SIZE, SLOT_CELL_TS_OFF,
    SLOT_DONE_ENTRY,
};
use cxl_shm::{CxlShmArena, ShmObject, SlotLayout, CACHE_LINE_SIZE};

use crate::barrier::SeqBarrier;
use crate::config::{ConnMode, CxlShmTransportConfig};
use crate::counters::RankCounters;
use crate::dataplane::DP_SLOTS;
use crate::error::MpiError;
use crate::p2p::{BufferPool, ChunkAssembler, PendingMessage, UnexpectedQueue};
use crate::pod::{bytes_of, bytes_of_mut};
use crate::queue::{CellHeader, QueueGeometry, QueueMatrix, SpscQueue, CELL_HEADER_SIZE};
use crate::rma::bakery::Ticket;
use crate::rma::layout::WINDOW_READY_MAGIC;
use crate::rma::{BakeryLock, WindowLayout};
use crate::spin::{block_until, PoisonFlag, Polled, WaitSite};
use crate::transport::conn::{ConnTable, SrqConsumer, SrqProducer, Stream, Took};
use crate::transport::{
    no_data_plane, raises_flag, stamped_only, DpCost, DpFormat, DpGather, DpPiece, DpReaders,
    DpSource, DpWindow, ExposurePrice, FaultInjector, RecvDest, Transport, TransportSection, WinId,
};
use crate::types::{source_matches, tag_matches, CtxId, Rank, ReduceOp, Status, Tag};
use crate::Result;

/// Name of the SHM object holding the global barrier array.
const BARRIER_OBJECT: &str = "cmpi/init_barrier";

/// Value the data-plane window leader publishes in the status object once the
/// window object exists and its control region is zeroed.
const DP_WINDOW_OK: u64 = 0x6450_4c4e_5f4f_4b21;

/// Value published instead when window creation failed (the pool's headroom
/// cannot hold it): the communicator runs ring-only on every member.
const DP_WINDOW_FAIL: u64 = 0x6450_4c4e_5f42_5553;

/// Offset in a data-plane window's status object of the count of members
/// still holding the window: set to the group size before the verdict goes
/// out, taken down by one as each member drops its communicator
/// ([`Transport::dp_settle`]).
const DP_MEMBERS_OFF: u64 = SLOT_CELL_DATA_OFF as u64;

/// Offset in a data-plane window's status object of the word that names
/// the window the verdict is for ([`window_key`]): the pool hands freed bytes
/// out again as they are, so a new status object may hold an old verdict, or
/// payload bytes, until its lead stores its own.
const DP_KEY_OFF: u64 = DP_MEMBERS_OFF + 8;

/// Bytes a data-plane window's status object is created with.
const STATUS_BYTES: usize = 64;

/// The word that names the data-plane window of context `ctx` led by world
/// rank `lead`: context ids are never reused, and the groups of one
/// `comm_split` that share one have different leads.
fn window_key(ctx: CtxId, lead: Rank) -> u64 {
    u64::from(ctx) << 32 | lead as u64
}

/// The lead's verdict in a data-plane window's status object, if it is
/// there for the window named `key`: one poll. The name is read first —
/// the lead clears the verdict word before it stores the name, so a verdict
/// read after the name is the lead's, never what the pool's bytes held.
fn verdict_of(status: &ShmObject, key: u64) -> Result<Option<u64>> {
    if status.nt_load_u64_at(DP_KEY_OFF)? != key {
        return Ok(None);
    }
    let v = status.nt_load_u64_at(0)?;
    Ok((v == DP_WINDOW_OK || v == DP_WINDOW_FAIL).then_some(v))
}

/// A communicator's data-plane window as this rank holds it.
struct DpEntry {
    /// The window's status object: the lead's verdict, and how many members
    /// still hold the window. `None` for a group with no window to create.
    status: Option<ShmObject>,
    /// The window; `None` memoizes a failed or skipped creation, so the
    /// communicator never retries (ring-only forever).
    state: Option<DpState>,
}

/// Offset, past the init barrier's own bytes, of the word in its ready line
/// that counts the pool bytes drawn from the headroom
/// ([`CxlTransport::draw_headroom`]).
const DRAWN_OFF: usize = 8;

/// Headroom a window leaves undrawn for the 64-byte status objects of the
/// data-plane windows still to come — room for 256 of them — so that a pool
/// filled by windows still lets a later communicator announce that its own
/// window failed.
const STATUS_ROOM: u64 = 256 * 64;

/// Bound on the attempts [`open_poisoned`] makes before deciding the creator
/// is never going to produce the object. Attempts are separated by scheduler
/// yields (see `CxlShmArena::open_when`), so this is seconds of real time —
/// far beyond any legitimate format/create latency, tight enough that a
/// creator that died *between* raising no flag and tripping no poison (e.g. a
/// fault-injected kill mid-initialization) fails the waiters instead of
/// hanging them.
const OPEN_MAX_SPINS: usize = 2_000_000;

/// Open a shared object that another rank is about to create, with a bounded,
/// poison-aware retry — so a creator that dies before (or while) creating the
/// object aborts the waiters with `PeerDead`/`ProcFailed` (or, past the
/// bound, a transport error) instead of leaving them in an unbounded
/// `open_wait` spin.
pub(crate) fn open_poisoned(
    arena: &CxlShmArena,
    name: &str,
    poison: &PoisonFlag,
) -> Result<ShmObject> {
    match arena.open_when(name, OPEN_MAX_SPINS, || poison.check().is_err()) {
        Ok(obj) => Ok(obj),
        Err(cxl_shm::ShmError::ObjectNotFound(_)) => {
            // Surface the real cause when a recorded death aborted the wait;
            // otherwise the bound itself expired.
            poison.check()?;
            Err(MpiError::Transport(format!(
                "shared object {name} was never created \
                 (creator died during initialization?)"
            )))
        }
        Err(e) => Err(e.into()),
    }
}

/// Wait, with non-temporal loads, until the `u64` flag at `off` satisfies
/// `pred` (the `Flag` wait site), failing on a dead peer. Only connection
/// setup waits here, for an object its creator makes ready without waiting:
/// the init barrier's and eager matrix's (before user code runs), a doorbell
/// or shared receive queue (before the init barrier), a stream (made before
/// its writer rang the doorbell that sent this rank here).
pub(crate) fn spin_flag(
    obj: &ShmObject,
    off: u64,
    poison: &PoisonFlag,
    pred: impl Fn(u64) -> bool,
) -> Result<u64> {
    block_until(WaitSite::Flag, poison, || {
        let v = obj.nt_load_u64_at(off)?;
        Ok(pred(v).then_some(v).into())
    })
}

/// One communicator's shared exposure window for the single-copy collective
/// data plane (see [`SlotLayout`] for the on-device grid).
struct DpState {
    obj: ShmObject,
    layout: SlotLayout,
    /// World ranks of the group, in group order (index = group rank).
    group: Vec<Rank>,
    /// This rank's index within `group`.
    my_idx: usize,
    /// Per slot of this rank: the collective whose exposure occupies it.
    /// Claimed by the collective's first non-empty expose (or an explicit
    /// claim ahead of it) and released by a later expose: once every reader
    /// of it has shown done past it in an exposure of its own
    /// ([`DpState::release_shown`]), or else — together with every other
    /// earlier occupant — by the completion-line sweep of an expose that
    /// finds its own slot still held. Until then an expose that maps to a
    /// held slot reports "busy" instead of overwriting data (or an inline
    /// payload) a slow reader may not have pulled yet.
    held: Vec<Option<u32>>,
    /// Who reads each slot's occupant: a bit per group member, `set_words`
    /// words per slot — the exact set a [`DpReaders`] resolved to when the
    /// slot was claimed. Exact matters: a member counted here that reads
    /// nothing never moves its completion line for the occupant, and the slot
    /// would stay held for good.
    readers: Vec<u64>,
    /// Nonblocking and persistent collectives this rank has started
    /// ([`Transport::dp_begin`]) and not finished reading.
    reading: Vec<u32>,
    /// Those it has started and not yet exposed in: a later exposure waits
    /// for an earlier one of the same slot, whichever collective is driven
    /// first, so a slot never holds a later occupant than one still to come
    /// — whose readers could never show done through it.
    writing: Vec<u32>,
    /// Highest sequence number this rank ever set out to read, plus one.
    read_top: u64,
    /// The value this rank's completion line holds, or — while the line is
    /// held back ([`CxlTransport::held_back`]) — will hold once stored: every
    /// exposure of every collective with a smaller sequence number has been
    /// read for the last time. It is the contiguous prefix of what this rank
    /// finished, so collectives completed out of order never claim an
    /// earlier one done.
    done_through: u64,
    /// The value each entry of this rank's completion line holds, 0 while it
    /// holds none ([`DpState::next_done_off`]).
    done_entries: Vec<u64>,
    /// Per group member, the latest collective in which this rank read an
    /// exposure of it: the one whose slot that writer may still hold, and
    /// ask this rank's completion line about.
    last_read: Vec<Option<u32>>,
    /// Per group member, the largest sequence number `s` of an exposure of
    /// it this rank read that said its writer had finished reading every
    /// collective before `s` ([`stamp_word`]): a lower bound of that
    /// member's `done_through`, learnt for free from what this rank had to
    /// read anyway. 0 while none has said so.
    shown: Vec<u64>,
    /// The control lines of this rank's latest span read, one line per group
    /// member at most: a run of flag lines ([`Transport::dp_await_row`]) or
    /// of completion lines ([`release_held`]).
    row: Vec<u8>,
    /// Which flag lines `row` holds, while it holds any the reads of a run
    /// may still answer to — and which collective's run `lines` belongs to.
    row_of: Option<RowTag>,
    /// The images ([`load_lines`]) of the run's reads of stamped exposures in
    /// data slots, one after another in read order.
    lines: Vec<u8>,
    /// The read each image of `lines` is for, and where it lies there.
    images: Vec<(DpSource, Range<usize>)>,
    /// How many of `images` the run's reads have taken.
    taken: usize,
    /// Where this rank composes the stamped lines it stores.
    stage: Vec<u8>,
    /// Where that run's gathered read stands.
    run: DpGather,
}

/// Which flag lines a [`DpState::row`] holds: those `writers` (a range of
/// group indices) raised in `phase` of collective `seq`.
#[derive(Clone, Copy)]
struct RowTag {
    seq: u32,
    phase: u8,
    writers: (usize, usize),
}

/// What a run's acquire leaves — in debug builds — in the first word of its
/// own copy of every line it checked, flag line or stamped line: every read
/// of the run copies only out of lines so marked ([`Awaited::checked`]) — it
/// saw them up before it took a byte of the payload, in a line or in a slot —
/// never out of one that merely lay inside a span.
const ROW_CHECKED: u64 = u64::MAX;

impl DpState {
    /// The window `obj` of `layout`, for group member `my_idx` of `group`,
    /// before any collective has run on it.
    fn new(obj: ShmObject, layout: SlotLayout, group: &[Rank], my_idx: usize) -> Self {
        DpState {
            obj,
            layout,
            group: group.to_vec(),
            my_idx,
            held: vec![None; layout.slots()],
            readers: vec![0; layout.slots() * group.len().div_ceil(64)],
            reading: Vec::new(),
            writing: Vec::new(),
            read_top: 0,
            done_through: 0,
            done_entries: vec![0; layout.done_entries()],
            last_read: vec![None; group.len()],
            shown: vec![0; group.len()],
            row: vec![0; group.len() * SLOT_CELL_SIZE],
            row_of: None,
            lines: Vec::new(),
            images: Vec::with_capacity(group.len()),
            taken: 0,
            stage: Vec::new(),
            run: DpGather::default(),
        }
    }

    /// Words of one slot's reader set.
    fn set_words(&self) -> usize {
        self.group.len().div_ceil(64)
    }

    /// Whether group member `peer` reads the occupant of `slot`.
    fn reads(&self, slot: usize, peer: usize) -> bool {
        self.readers[slot * self.set_words() + peer / 64] >> (peer % 64) & 1 == 1
    }

    /// Record `seq` as the occupant of its slot, read by exactly the members
    /// `readers` names ([`DpReaders::PerPiece`]: the owners of `pieces`).
    fn occupy(&mut self, seq: u32, readers: DpReaders, pieces: &[DpPiece], host_of: &[usize]) {
        let slot = seq as usize % self.layout.slots();
        let words = self.set_words();
        let (group, me) = (&self.group, self.my_idx);
        let set = &mut self.readers[slot * words..(slot + 1) * words];
        set.fill(0);
        let mut add = |peer: usize| set[peer / 64] |= 1 << (peer % 64);
        match readers {
            // (Bits past the group's size are never asked about.)
            DpReaders::Others => set.fill(!0),
            DpReaders::One(idx) => add(idx),
            DpReaders::HostMates => (0..group.len())
                .filter(|&p| host_of[group[p]] == host_of[group[me]])
                .for_each(add),
            DpReaders::PerPiece { stride } => {
                pieces.iter().map(|p| p.region_off / stride).for_each(add)
            }
        }
        // Whatever the name said, a rank does not wait for itself.
        set[me / 64] &= !(1 << (me % 64));
        self.held[slot] = Some(seq);
    }

    /// This rank's copy of the lines read `src` consumes of collective
    /// `seq`, if the run it acquired last holds them: the flag line `src`'s
    /// writer raised, or — the next read of a stamped exposure in a data slot
    /// — that read's image.
    fn run_lines(&mut self, seq: u32, src: &DpSource, len: usize) -> Option<&mut [u8]> {
        let row = self
            .row_of
            .filter(|row| (row.seq, row.phase) == (seq, src.phase))?;
        if !src.format.in_row() {
            let (read, image) = self.images.get(self.taken)?;
            let same =
                (read.writer_idx, read.region, read.off) == (src.writer_idx, src.region, src.off);
            if !same || image.len() != src.slot_bytes(len) {
                return None;
            }
            self.taken += 1;
            return Some(&mut self.lines[image.clone()]);
        }
        let (first, end) = row.writers;
        (first..end)
            .contains(&src.writer_idx)
            .then(|| &mut self.row[(src.writer_idx - first) * SLOT_CELL_SIZE..][..SLOT_CELL_SIZE])
    }

    /// Note that this rank will read exposures of collective `seq`.
    fn begin_reading(&mut self, seq: u32) {
        if !self.reading.contains(&seq) {
            self.reading.push(seq);
            self.read_top = self.read_top.max(u64::from(seq) + 1);
        }
    }

    /// This rank has read collective `seq` for the last time: the new
    /// done-through value if that moved the prefix, `None` if an earlier
    /// collective is still being read (the line already says all it can).
    fn finish_reading(&mut self, seq: u32) -> Option<u64> {
        // A blocking collective was never announced: nothing of this rank
        // could have finished while it ran.
        self.begin_reading(seq);
        self.reading.retain(|&open| open != seq);
        let through = self
            .reading
            .iter()
            .min()
            .map_or(self.read_top, |&s| u64::from(s));
        (through > self.done_through).then(|| {
            self.done_through = through;
            through
        })
    }

    /// Whether an exposure of collective `seq` this rank makes now tells
    /// its readers it has finished reading every earlier collective of the
    /// window: nothing it started is still unread, and the contiguous prefix
    /// it finished reaches `seq`. Both hold at a point of program order — a
    /// blocking collective's exposure — or not at all, so what the exposure
    /// says never depends on how far the host scheduler let a started
    /// collective run.
    fn shows_done(&self, seq: u32) -> bool {
        self.reading.is_empty() && self.done_through >= u64::from(seq)
    }

    /// Release every occupant of this rank's slots earlier than `seq` whose
    /// readers have all shown done past it in exposures of their own
    /// ([`DpState::shown`]): they need no completion line read. Returns how
    /// many it released.
    fn release_shown(&mut self, seq: u32) -> u64 {
        let mut freed = 0;
        for slot in 0..self.held.len() {
            let Some(occupant) = self.held[slot] else {
                continue;
            };
            let past = u64::from(occupant) + 1;
            let earlier = (seq.wrapping_sub(occupant) as i32) > 0;
            let shown = |peer: usize| !self.reads(slot, peer) || self.shown[peer] >= past;
            if earlier && (0..self.group.len()).all(shown) {
                self.held[slot] = None;
                freed += 1;
            }
        }
        freed
    }

    /// Where in this rank's completion line the store of `value` goes. A
    /// writer that still holds the slot of a collective this rank read it in
    /// asks the line for the store that first showed that collective done —
    /// the smallest value past it ([`reached`]) — and however far this rank
    /// has run ahead of it since, through collectives that writer has no
    /// part in, must find that store's stamp: so such an entry is kept while
    /// another one is free. Of the others the oldest goes; when every entry
    /// is owed, the oldest of all.
    fn next_done_off(&mut self, value: u64) -> usize {
        // A bit per entry (a line holds `DP_SLOTS` of them).
        let mut owed = 0u64;
        let mut asked = None;
        for &seq in self.last_read.iter().flatten() {
            if asked.replace(seq) == Some(seq) {
                continue;
            }
            let past = self.done_entries.iter().enumerate();
            let first = past
                .filter(|&(_, &v)| v > u64::from(seq))
                .min_by_key(|&(_, &v)| v);
            if let Some((entry, _)) = first {
                owed |= 1 << entry;
            }
        }
        let oldest = |free: bool| {
            (0..self.done_entries.len())
                .filter(|&e| !free || owed >> e & 1 == 0)
                .min_by_key(|&e| self.done_entries[e])
        };
        let entry = oldest(true).or_else(|| oldest(false));
        let entry = entry.expect("a completion line has entries");
        self.done_entries[entry] = value;
        self.layout.done_off(self.my_idx, entry)
    }
}

/// Store `(value, ts)` into the cell at `off` — a flag cell, a done entry, a
/// PSCW or barrier cell: the stamp first, so whoever loads the value finds the
/// stamp that belongs to it. One line store to the cost model.
pub(crate) fn store_stamped(obj: &ShmObject, off: usize, value: u64, ts: f64) -> Result<()> {
    obj.nt_store_u64_at((off + SLOT_CELL_TS_OFF) as u64, ts.to_bits())?;
    obj.nt_store_u64_at(off as u64, value)?;
    Ok(())
}

/// The stamp beside the cell at `off`, once its value reached `at_least`: one
/// line load. `None` is a failed poll, which no caller charges.
pub(crate) fn load_stamped(obj: &ShmObject, off: usize, at_least: u64) -> Result<Option<f64>> {
    if obj.nt_load_u64_at(off as u64)? < at_least {
        return Ok(None);
    }
    let ts = obj.nt_load_u64_at((off + SLOT_CELL_TS_OFF) as u64)?;
    Ok(Some(f64::from_bits(ts)))
}

/// Tag of the sequence word of a stamped line in a data slot. A slot's bytes
/// are anybody's before its writer stores there — an earlier collective's
/// payload or message, a freed RMA window's data — so a reader accepts exactly
/// the word it awaits, and the tag keeps a stray payload word from being it.
const DP_LINE_TAG: u64 = 0x5354_4d50 << 33;

/// What a reader awaits in the first word of every line of a stamped
/// exposure.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Awaited {
    /// At least this sequence value: a flag line of the row, in the control
    /// region the window's creator zeroed, whose values only grow (a
    /// barrier's arrival may be overwritten by a later collective's).
    AtLeast(u64),
    /// Exactly this word: a line in a data slot.
    Exactly(u64),
}

impl Awaited {
    /// What a line of collective `seq` carries, stored and awaited alike: a
    /// line of the flag row (`in_row`) or of a data slot.
    fn line_of(seq: u32, in_row: bool) -> Self {
        let value = u64::from(seq) + 1;
        match in_row {
            true => Awaited::AtLeast(value),
            false => Awaited::in_slot(value),
        }
    }

    /// What a stamped line of sequence value `value` carries in a data slot.
    fn in_slot(value: u64) -> Self {
        Awaited::Exactly(DP_LINE_TAG ^ value)
    }

    /// What a read of a run awaits in lines the run's acquire has already
    /// checked: in debug builds the mark it left in each, so that a read out
    /// of a line it did not check fails; in release builds what it checked.
    fn checked(self) -> Self {
        match cfg!(debug_assertions) {
            true => Awaited::Exactly(ROW_CHECKED),
            false => self,
        }
    }

    fn word(self) -> u64 {
        match self {
            Awaited::AtLeast(word) | Awaited::Exactly(word) => word,
        }
    }

    fn shown_by(self, word: u64) -> bool {
        match self {
            Awaited::AtLeast(value) => word >= value,
            Awaited::Exactly(expected) => word == expected,
        }
    }
}

/// What the first word of each line of one stamped exposure carries: `head`
/// in its first line, `rest` in every further one. An exposure of a window
/// has one word in all of them; a stream message's first line is its
/// segment's flag line, and its further ones lie in the data slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LineWords {
    head: Awaited,
    rest: Awaited,
}

impl LineWords {
    /// One word in every line.
    fn all(awaited: Awaited) -> Self {
        LineWords {
            head: awaited,
            rest: awaited,
        }
    }

    /// The lines of a stream's segment `value` (its sequence number plus
    /// one): the flag line, whose value only grows, then lines in the data
    /// slot.
    pub(crate) fn stream(value: u64) -> Self {
        LineWords {
            head: Awaited::AtLeast(value),
            rest: Awaited::in_slot(value),
        }
    }

    /// [`Awaited::checked`], for every line.
    pub(crate) fn checked(self) -> Self {
        LineWords {
            head: self.head.checked(),
            rest: self.rest.checked(),
        }
    }

    /// What line `i` of the exposure carries.
    fn line(&self, i: usize) -> Awaited {
        match i {
            0 => self.head,
            _ => self.rest,
        }
    }

    /// Compose in `image` the stamped lines of a payload that is `parts`, one
    /// after another: the first line holds the stamp `ts` and
    /// [`cxl_shm::slots::SLOT_CELL_INLINE`] bytes, every further one
    /// [`cxl_shm::slots::SLOT_LINE_PAYLOAD`], and each line's first word is
    /// what it carries.
    pub(crate) fn compose(self, image: &mut Vec<u8>, ts: f64, parts: &[&[u8]]) {
        let len = parts.iter().map(|part| part.len()).sum();
        image.clear();
        image.resize(stamped_lines(len) * SLOT_CELL_SIZE, 0);
        for (i, line) in image.chunks_exact_mut(SLOT_CELL_SIZE).enumerate() {
            line[..8].copy_from_slice(&self.line(i).word().to_le_bytes());
        }
        image[SLOT_CELL_TS_OFF..SLOT_CELL_DATA_OFF].copy_from_slice(&ts.to_bits().to_le_bytes());
        let mut off = 0;
        for bytes in parts {
            for (at, part) in image_parts(1, off, bytes.len()) {
                image[at..at + part.len()].copy_from_slice(&bytes[part]);
            }
            off += bytes.len();
        }
    }
}

/// Store `payload` as the stamped lines at `off`, every one carrying what
/// `awaited` waits for, composed in `image` ([`LineWords::compose`]); each
/// line goes out as one 64-byte direct store, its word landing after the rest
/// of it, so that whoever loads the word finds what was stored beside it.
/// With a payload of at most one line at a flag line's offset this is the
/// flag line with what it carries; with none, the stamped value alone (a
/// barrier's arrival).
fn store_lines(
    obj: &ShmObject,
    off: usize,
    awaited: Awaited,
    ts: f64,
    payload: &[u8],
    image: &mut Vec<u8>,
) -> Result<()> {
    LineWords::all(awaited).compose(image, ts, &[payload]);
    Ok(obj.nt_store_lines_at(off as u64, image)?)
}

/// Where bytes `off..off + len` of a stamped exposure lie in an image of its
/// first line followed by its lines from line `first` on: `(at, part)` for
/// each run of them that shares a line, `part` relative to `off`. A reader's
/// image of the range starts at its [`stamped_span`]; a whole exposure's at
/// line 1.
fn image_parts(
    first: usize,
    off: usize,
    len: usize,
) -> impl Iterator<Item = (usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let (line, at) = stamped_pos(off + done);
            let row = if line == 0 { 0 } else { line + 1 - first };
            let take = (SLOT_CELL_SIZE - at).min(len - done);
            done += take;
            (row * SLOT_CELL_SIZE + at, done - take..done)
        })
    })
}

/// The stamp word of a window exposure's lines: the writer's clock `ts`
/// when it stored them and, in the sign bit, which a clock never sets,
/// whether the writer had then finished reading every earlier collective of
/// the window ([`DpState::shows_done`]). The fact takes no line, word or
/// payload byte: [`load_lines`] hands back the clock, [`shown_done`] the
/// fact.
fn stamp_word(ts: f64, done: bool) -> f64 {
    match done {
        true => -ts,
        false => ts,
    }
}

/// What the stamp word of `image`'s first line — an exposure's flag line or
/// its first stamped line in the data slot — says of its writer
/// ([`stamp_word`]).
fn shown_done(image: &[u8]) -> bool {
    f64::from_bits(read_u64(image, SLOT_CELL_TS_OFF)).is_sign_negative()
}

/// Check-and-copy, the reader's half of [`store_lines`]. `image` is this
/// rank's copy of a stamped exposure's first line followed by the lines that
/// hold bytes `off..off + out.len()` ([`stamped_span`]). Every line's word
/// is checked before a byte is taken: unless each shows what `words` awaits
/// in it, nothing is copied and `None` returned — a line behind, or one of
/// another exposure, never reaches `out`. Otherwise the bytes are copied out
/// and the first line's stamp returned — the clock of its [`stamp_word`]; in
/// debug builds every line checked is left marked [`ROW_CHECKED`].
pub(crate) fn load_lines(
    image: &mut [u8],
    words: LineWords,
    off: usize,
    out: &mut [u8],
) -> Option<f64> {
    let mut lines = image.chunks_exact(SLOT_CELL_SIZE).enumerate();
    if !lines.all(|(i, line)| words.line(i).shown_by(read_u64(line, 0))) {
        return None;
    }
    let stamp = f64::from_bits(read_u64(image, SLOT_CELL_TS_OFF)).abs();
    if cfg!(debug_assertions) {
        for line in image.chunks_exact_mut(SLOT_CELL_SIZE) {
            line[..8].copy_from_slice(&ROW_CHECKED.to_le_bytes());
        }
    }
    let first = stamped_span(off, out.len()).start;
    for (at, part) in image_parts(first, off, out.len()) {
        out[part.clone()].copy_from_slice(&image[at..at + part.len()]);
    }
    Some(stamp)
}

/// The fallback sweep. A writer about to expose collective `seq` found the
/// slot it wants still held after what its readers' own exposures showed
/// ([`DpState::release_shown`]) — it reads nothing of them (a broadcast
/// root), runs ahead of them (started collectives) or one of them straggles:
/// release **every** slot an earlier collective holds, once every reader of
/// every such occupant shows done through it. The awaited peers'
/// completion lines — one value each covers all of this writer's slots, so a
/// line per peer retires up to `slots` collectives — are loaded in one span
/// read, from the first awaited peer's line to the last one's, and charged
/// once ([`DpCost::row`]) when (and only when) every one of them shows what
/// it owes; a read that does not is a failed poll: free, and forgotten. From
/// each line the stamp of the *first* store that reached what is owed is
/// merged — the line keeps the peer's last `slots` stores, so a peer that ran
/// ahead has not overwritten it. Waiting for all earlier occupants rather
/// than just the wanted slot's — and for every one of their readers, whatever
/// an earlier sweep happened to see of it — is what keeps the charge, and the
/// stamps merged, independent of how far the host scheduler let each reader
/// run ahead; never waiting for a *later* one (an `i*` collective driven out
/// of order) keeps every wait pointing at a strictly earlier collective. A
/// peer recorded dead counts as done.
fn release_held(
    state: &mut DpState,
    seq: u32,
    poison: &PoisonFlag,
    counters: &RankCounters,
    clock: &mut SimClock,
    cost: &DpCost,
) -> Result<bool> {
    let earlier = |occupant: u32| (seq.wrapping_sub(occupant) as i32) > 0;
    // The done-through value `peer` owes: past the newest earlier occupant it
    // reads — 0 if it reads none, or is dead.
    let owes = |state: &DpState, peer: usize| {
        if peer == state.my_idx || (poison.ft_active() && poison.is_dead(state.group[peer])) {
            return 0;
        }
        state
            .held
            .iter()
            .enumerate()
            .filter_map(|(slot, held)| held.filter(|&o| earlier(o) && state.reads(slot, peer)))
            .map(|occupant| u64::from(occupant) + 1)
            .max()
            .unwrap_or(0)
    };
    let mut awaited = (0..state.group.len()).filter(|&p| owes(state, p) > 0);
    if let Some(first) = awaited.next() {
        let last = awaited.next_back().unwrap_or(first);
        let lines = last - first + 1;
        // The span read takes the row buffer over from whatever flag lines
        // it held.
        state.row_of = None;
        let at = state.layout.done_off(first, 0) as u64;
        let span = &mut state.row[..lines * SLOT_CELL_SIZE];
        state.obj.nt_load_at(at, span)?;
        let entries = state.layout.done_entries();
        let mut stamp = f64::NEG_INFINITY;
        let mut shown = 0;
        for peer in first..=last {
            let owed = owes(state, peer);
            if owed > 0 {
                let line = &state.row[(peer - first) * SLOT_CELL_SIZE..];
                let Some(ts) = reached(line, entries, owed) else {
                    return Ok(false);
                };
                stamp = stamp.max(ts);
                shown += 1;
            }
        }
        clock.merge(stamp);
        clock.advance(cost.row(lines));
        counters.data_plane.notify_waits.add(shown);
        counters.data_plane.row_reads.add(1);
    }
    for held in &mut state.held {
        if held.is_some_and(earlier) {
            *held = None;
            counters.completions.freed_by_sweeps.add(1);
        }
    }
    Ok(true)
}

/// What a loaded completion line of `entries` stores says to a writer that
/// is owed `owed`: the stamp of the store that first reached it — the
/// smallest value at or past it. `None` while no store has.
fn reached(line: &[u8], entries: usize, owed: u64) -> Option<f64> {
    (0..entries)
        .map(|e| {
            let word = |off: usize| read_u64(line, e * SLOT_DONE_ENTRY + off);
            (word(0), word(SLOT_CELL_TS_OFF))
        })
        .filter(|&(value, _)| value >= owed)
        .min_by_key(|&(value, _)| value)
        .map(|(_, ts)| f64::from_bits(ts))
}

/// The little-endian `u64` at `off` of a loaded control line.
pub(crate) fn read_u64(line: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(line[off..off + 8].try_into().expect("eight bytes"))
}

/// One side of a window's PSCW state: as a target (`post`/`wait`) or as an
/// origin (`start`/`complete`).
#[derive(Default)]
struct EpochSide {
    /// Peers of the open epoch (empty: none is open).
    group: Vec<Rank>,
    /// Per peer ever named: epochs opened with it, the open one included.
    epochs: BTreeMap<Rank, u64>,
    /// The peer of `group` a waiting `start` or `wait` has not seen yet.
    waiting: Option<usize>,
}

struct WindowState {
    obj: ShmObject,
    layout: WindowLayout,
    fence_barrier: SeqBarrier,
    /// Exposure side, access side.
    pscw: [EpochSide; 2],
    /// Targets this rank currently holds a passive-target lock on.
    held_locks: Vec<Rank>,
    /// The lock this rank is acquiring, between two attempts.
    acquiring: Option<Ticket>,
    /// What its creator drew of the pool's headroom for it (none on the
    /// other ranks), handed back when it is freed.
    drawn: u64,
}

impl WindowState {
    /// The bakery lock protecting `target`'s window.
    fn bakery(&self, target: Rank) -> BakeryLock {
        let base = self.layout.lock_base(target);
        BakeryLock::new(self.obj.clone(), base, self.layout.ranks)
    }

    /// Device offset of `len` bytes at `offset` of `rank`'s data region.
    fn data_addr(&self, rank: Rank, offset: usize, len: usize) -> Result<u64> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.layout.size_per_rank)
        {
            return Err(MpiError::WindowOutOfBounds {
                offset,
                len,
                window_len: self.layout.size_per_rank,
            });
        }
        Ok(self.layout.data_offset(rank) + offset as u64)
    }

    /// Write `data` at `addr` of the data region (see [`line_parts`]).
    fn store(&self, addr: u64, data: &[u8]) -> Result<()> {
        for (at, part, whole) in line_parts(addr, data.len()) {
            if whole {
                self.obj.write_flush_at(at, &data[part])?;
            } else {
                self.obj.nt_store_at(at, &data[part])?;
            }
        }
        Ok(())
    }
}

/// `len` bytes at device offset `addr` as `(offset, byte range, whole lines?)`
/// parts: partial head line, whole lines, partial tail line. Only whole lines
/// go through the cache: a cached write of part of a line fills the rest from
/// the device, and the whole-line flush writes this host's stale copy of it
/// back over what another host stored there in the same epoch.
fn line_parts(addr: u64, len: usize) -> impl Iterator<Item = (u64, Range<usize>, bool)> {
    let line = CACHE_LINE_SIZE;
    let head = len.min((addr.next_multiple_of(line as u64) - addr) as usize);
    let body_end = head + (len - head) / line * line;
    [
        (0..head, false),
        (head..body_end, true),
        (body_end..len, false),
    ]
    .into_iter()
    .filter(|(part, _)| !part.is_empty())
    .map(move |(part, whole)| (addr + part.start as u64, part, whole))
}

/// How per-pair connection state is materialized (the tentpole knob of the
/// scaling work — see [`ConnMode`]).
enum ConnState {
    /// The seed design: the full ranks×ranks queue matrix, formatted at
    /// universe construction, of which this rank holds its send column and
    /// its receive row. Kept as the flat baseline the scaling sweeps compare
    /// against, and as the paper's chunked-cell protocol.
    Eager {
        /// Ring toward each destination rank.
        tx: Vec<SpscQueue>,
        /// Ring from each source rank.
        rx: Vec<SpscQueue>,
    },
    /// Sparse mode: per-rank doorbell + shared receive queue, with one stream
    /// per promoted pair established on first use ([`super::conn`]).
    Lazy(Box<ConnTable>),
}

impl ConnState {
    /// The ring from `sender` (its stream opened on first use in lazy mode,
    /// its format rule priced by `price`).
    fn rx_ring<P: ExposurePrice>(
        &mut self,
        sender: Rank,
        price: impl Fn(usize) -> P,
    ) -> Result<Ring<'_>> {
        match self {
            ConnState::Eager { rx, .. } => Ok(Ring::Cells(&rx[sender])),
            ConnState::Lazy(t) => t.rx_stream(sender, price).map(Ring::Stream),
        }
    }

    /// The lazy connection table (panics in eager mode).
    fn lazy(&mut self) -> &mut ConnTable {
        match self {
            ConnState::Lazy(t) => t,
            ConnState::Eager { .. } => unreachable!("lazy helper called on eager transport"),
        }
    }
}

/// What the receive path drains, one message source at a time: it peeks the
/// header of the next cell or segment, consumes it into a slice, and the ring
/// names the charge.
enum Ring<'a> {
    /// An eager pair's SPSC ring.
    Cells(&'a SpscQueue),
    /// This rank's shared receive queue.
    Srq(&'a SrqConsumer),
    /// A promoted lazy pair's stream.
    Stream(&'a mut Stream),
}

impl Ring<'_> {
    /// The header of the next cell or segment, if one is up (a stream's
    /// message once every line it takes is). Free. `posted` is the length of
    /// the buffer a receive that names this ring's sender posted: a stream
    /// guesses the lines of its gathered read from it ([`Stream::peek_header`]).
    fn peek_header(&mut self, posted: Option<usize>) -> Result<Option<CellHeader>> {
        match self {
            Ring::Cells(queue) => queue.peek_header(),
            Ring::Srq(srq) => srq.peek_header(),
            Ring::Stream(stream) => stream.peek_header(posted),
        }
    }

    /// Consume the cell or segment `h` (just peeked) into `dst[..h.chunk_len]`:
    /// merge its publish stamp, charge the read, free the cell or slot. A
    /// stream segment is charged as its peek took it: one gathered read of
    /// the guess — the flag line alone when that is one line — and behind
    /// it, when the message takes more, the rest of its stamped lines or its
    /// payload out of the data slot; `stats` counts the gathered reads of
    /// several lines and the guesses that fell short.
    fn consume(
        &mut self,
        h: &CellHeader,
        charge: &Charge,
        clock: &mut SimClock,
        dst: &mut [u8],
        stats: &TransportSection,
    ) -> Result<()> {
        let (len, total) = (h.chunk_len as usize, h.total_len as usize);
        let cell = match self {
            Ring::Cells(queue) => queue.try_dequeue_into(clock.now(), dst)?,
            Ring::Srq(srq) => srq.try_dequeue_into(clock.now(), dst)?,
            Ring::Stream(stream) => {
                clock.merge(h.timestamp);
                let took = stream.read(h, dst)?;
                // What came off the device beside the done entry that ends a
                // batch: the gathered read of the guess — the flag line alone
                // when that is one line — and what was read behind it.
                let (guess, behind) = match took {
                    Took::Lines { lines, guess } => {
                        (guess, lines.saturating_sub(guess) * SLOT_CELL_SIZE)
                    }
                    Took::Slot { guess } => (guess, len),
                };
                let (gathered, lines) = match guess {
                    1 => (0, 1),
                    guess => (guess * SLOT_CELL_SIZE, 0),
                };
                let lines = lines + usize::from(stream.ends_batch());
                clock.advance(charge.segment_pull([gathered, behind], total, lines));
                stream.release(h, clock.now())?;
                stats.stamped_reads.add(u64::from(guess > 1));
                stats.short_guesses.add(u64::from(took.short()));
                return Ok(());
            }
        };
        debug_assert_eq!(cell.map(|c| c.chunk_offset), Some(h.chunk_offset));
        clock.merge(h.timestamp);
        charge.chunk_read(clock, len + CELL_HEADER_SIZE, total);
        Ok(())
    }
}

/// What the send path publishes cells into — the send-side mirror of [`Ring`].
/// (A promoted pair's stream takes segments, not cells, and has its own body.)
#[derive(Clone, Copy)]
enum TxRing<'a> {
    /// An eager pair's SPSC ring.
    Cells(&'a SpscQueue),
    /// A cold lazy peer's shared receive queue.
    Srq(&'a SrqProducer),
}

impl TxRing<'_> {
    /// Whether a cell is free. Final on a ring, which has one producer; on
    /// the shared receive queue another producer may still take it first.
    fn has_space(&self) -> Result<bool> {
        match self {
            TxRing::Cells(queue) => queue.has_space(),
            TxRing::Srq(srq) => srq.has_space(),
        }
    }

    /// The time the receiver published with its last dequeue.
    fn head_timestamp(&self) -> Result<f64> {
        match self {
            TxRing::Cells(queue) => queue.head_timestamp(),
            TxRing::Srq(srq) => srq.head_timestamp(),
        }
    }
}

/// The cost terms of two-sided traffic with one peer, copied out of the
/// transport so the data path can charge the clock while it holds connection
/// state borrowed.
///
/// Memory-hierarchy contention is driven by the size of the concurrent
/// transfers (Section 3.6), not by how the MPI library slices them into cells
/// or segments, so the cap degradation is keyed on the whole message
/// (`msg_bytes`) while the fair-share floor applies to the bytes actually
/// moved by one charge. A **same-host** peer shares this rank's
/// hardware-coherent cache: no flush, no fence, and no share of the
/// pooled-device bandwidth cap — the physical basis of the hierarchical
/// collectives' local phases.
#[derive(Clone, Copy)]
struct Charge {
    cost: CxlCostModel,
    contention: CxlContentionModel,
    /// `Cached` toward a same-host peer, the configured mode otherwise.
    mode: CoherenceMode,
    active_pairs: usize,
    same_host: bool,
}

impl Charge {
    /// `max(ideal, fair share of the two-sided device cap)`.
    fn throttled(&self, ideal: SimNs, bytes: usize, msg_bytes: usize) -> SimNs {
        if self.same_host {
            return ideal;
        }
        let cap = self
            .contention
            .aggregate_cap_gbps(self.active_pairs, msg_bytes.max(bytes), true);
        ideal.max(transfer_ns(bytes, cap / self.active_pairs.max(1) as f64))
    }

    /// A cell publish (eager rings, the SRQ): cached write + flush + fence,
    /// head/tail accesses.
    fn chunk_write(&self, clock: &mut SimClock, bytes: usize, msg_bytes: usize) {
        let ideal = self.cost.coherent_write(bytes, self.mode) + 2.0 * self.cost.nt_access();
        clock.advance(self.throttled(ideal, bytes, msg_bytes));
    }

    /// A cell consume; see [`Self::chunk_write`].
    fn chunk_read(&self, clock: &mut SimClock, bytes: usize, msg_bytes: usize) {
        let ideal = self.cost.coherent_read(bytes, self.mode) + 2.0 * self.cost.nt_access();
        clock.advance(self.throttled(ideal, bytes, msg_bytes));
    }

    /// A stream segment publish: `streamed` bytes in one non-temporal store
    /// stream + fence into the data slot — none when there are none — and
    /// `lines` single control lines: the flag line unless the segment is
    /// stamped lines in the slot, and the done line the writer loads when it
    /// has lapped.
    fn segment_publish(&self, streamed: usize, msg_bytes: usize, lines: usize) -> SimNs {
        let stream = match streamed {
            0 => 0.0,
            bytes => self.cost.streamed_publish(bytes, self.mode),
        };
        let ideal = stream + lines as f64 * self.cost.nt_access();
        self.throttled(ideal, streamed, msg_bytes)
    }

    /// A stream segment pull; see [`Self::segment_publish`]. `reads` are up
    /// to two fenced streamed reads — the gathered read of several lines and
    /// what is read behind it — none where there are no bytes; `lines` are
    /// single control lines: the flag line when it is read alone, and the
    /// done entry stored at the end of a batch.
    fn segment_pull(&self, reads: [usize; 2], msg_bytes: usize, lines: usize) -> SimNs {
        let stream: SimNs = reads
            .iter()
            .map(|&bytes| match bytes {
                0 => 0.0,
                bytes => self.cost.streamed_read(bytes, self.mode),
            })
            .sum();
        let ideal = stream + lines as f64 * self.cost.nt_access();
        self.throttled(ideal, reads.iter().sum(), msg_bytes)
    }
}

/// A message of `msg` bytes on a promoted pair's stream, priced as the
/// transport charges it (`charge`, at the universe's default crowd): what
/// the stream's format choice compares ([`Stream::stamped_max`]).
struct MessagePrice {
    charge: Charge,
    msg: usize,
}

impl ExposurePrice for MessagePrice {
    fn publish(&self, streamed: usize, flag: bool) -> SimNs {
        self.charge
            .segment_publish(streamed, self.msg, usize::from(flag))
    }

    fn flag_line(&self) -> SimNs {
        self.charge.segment_pull([0, 0], self.msg, 1)
    }

    fn read(&self, behind_flag: bool, bytes: usize) -> SimNs {
        self.charge
            .segment_pull([bytes, 0], self.msg, usize::from(behind_flag))
    }
}

/// A probe found the destination ring (or shared receive queue) full: merge
/// the time the receiver published with its last dequeue, and charge the probe
/// itself — once per blocked enqueue (`charged` lives as long as the enqueue
/// stays blocked), so virtual time does not count how often the host
/// scheduler let the sender retry.
fn charge_full_probe(clock: &mut SimClock, charged: &mut bool, head_ts: f64, nt: SimNs) {
    clock.merge(head_ts);
    if !std::mem::replace(charged, true) {
        clock.advance(nt);
    }
}

/// The CXL SHM transport (cMPI proper).
pub struct CxlTransport {
    rank: Rank,
    ranks: usize,
    arena: CxlShmArena,
    conn: ConnState,
    barrier: SeqBarrier,
    unexpected: UnexpectedQueue,
    /// One in-flight reassembly per sender ring: the progress engine's drain
    /// path pulls whatever cells or stream segments have arrived into these
    /// without ever blocking for the rest of a message, so two ranks mid-send
    /// to each other can both keep pumping (a blocking drain here deadlocked
    /// them).
    partial_rx: Vec<Option<ChunkAssembler>>,
    windows: Vec<Option<WindowState>>,
    /// Per-communicator data-plane windows.
    dp: BTreeMap<CtxId, DpEntry>,
    /// The window whose completion line this rank holds back: it finished
    /// reading a collective there, and the new `done_through` rides its next
    /// exposure on that window if that is stamped lines in a free slot. Any
    /// other call stores it first, by itself ([`CxlTransport::store_held_back`]),
    /// before the call can wait: a rank never waits on a peer that may be
    /// waiting for this line.
    held_back: Option<CtxId>,
    /// The pool bytes windows — RMA and data-plane — and the data-plane
    /// windows' status objects draw on, all ranks' together: the object
    /// region less what the connection state and the init barrier are sized
    /// to need ([`CxlTransport::required_shared_bytes`]). A data-plane
    /// window and a status come out of it only, so neither takes the room
    /// of a queue, a doorbell or a shared receive queue some rank has yet to
    /// create.
    headroom: u64,
    /// The init barrier's object, whose ready line counts what has been
    /// drawn from `headroom` so far.
    ledger: ShmObject,
    cost: CxlCostModel,
    contention: CxlContentionModel,
    coherence: CoherenceMode,
    /// Host of each world rank: same-host peers share a hardware-coherent
    /// cache, so their traffic skips the software-coherence flush/fence costs
    /// *and* the pooled-device contention floor (it is served out of the
    /// shared cache hierarchy, not the device DIMMs).
    host_of: Vec<usize>,
    active_pairs: usize,
    /// The rank's counter block (shared with the connection table and the
    /// communicator layer).
    counters: Arc<RankCounters>,
    cell_payload: usize,
    poll_cursor: usize,
    /// Universe peer-death flag: every blocking wait checks it.
    poison: PoisonFlag,
    /// Fault injection armed on this rank (fault-tolerance testing only).
    fault: Option<FaultInjector>,
    /// Cell-path messages whose fault-injection hook already fired: the SRQ's
    /// multi-producer ticket claim can lose the last slot to a racing producer
    /// *after* the flow-control check, sending the send back to chunk 0 — this
    /// set keeps `on_send` one-per-message across such re-entries. Keyed by `(dst, ctx, tag)`; concurrent
    /// in-flight messages with an identical triple share one arming, an
    /// accepted imprecision on an already-rare race.
    fault_armed: BTreeSet<(Rank, CtxId, Tag)>,
    /// Per destination: the enqueue at the head of its ring is blocked and its
    /// full-ring probe has been charged (see [`charge_full_probe`]); cleared
    /// by the enqueue that gets through.
    tx_blocked: Vec<bool>,
    /// Per destination: a message is partly out to it ([`Transport::try_send`]).
    tx_open: Vec<bool>,
    /// Scratch for snapshots of the pending-sender set (keeps the lazy poll
    /// path allocation-free in steady state).
    pending_scan: Vec<Rank>,
    /// Reusable header+payload staging for `try_enqueue_with_scratch`.
    tx_scratch: Vec<u8>,
    /// Reusable element buffer of `accumulate`.
    acc_scratch: Vec<f64>,
    /// Staging arena recycling the buffers of unexpected messages.
    pool: BufferPool,
}

impl std::fmt::Debug for CxlTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CxlTransport")
            .field("rank", &self.rank)
            .field("ranks", &self.ranks)
            .field("cell_payload", &self.cell_payload)
            .finish()
    }
}

impl CxlTransport {
    /// Bytes of CXL device memory the connection state and barrier need for a
    /// universe of `ranks` ranks with the given configuration. Eager mode
    /// demands the quadratic queue matrix (and refuses outright past its
    /// cap); lazy mode is linear in `ranks`.
    pub fn required_shared_bytes(ranks: usize, config: &CxlShmTransportConfig) -> Result<usize> {
        let geometry = QueueGeometry {
            cell_payload: config.cell_size,
            cells: config.cells_per_queue,
        };
        let conn = match config.conn_mode {
            ConnMode::Eager => QueueMatrix::required_bytes(ranks, geometry)?,
            ConnMode::Lazy => ConnTable::required_device_bytes(ranks, geometry, config)?,
        };
        conn.checked_add(SeqBarrier::required_bytes(ranks))
            .and_then(|b| b.checked_add(2 * 64))
            .and_then(|b| b.checked_add(config.window_headroom))
            .ok_or_else(|| {
                MpiError::Transport(format!(
                    "shared-pool sizing for {ranks} ranks overflows usize"
                ))
            })
    }

    /// How many named SHM objects the runtime should size the arena directory
    /// for: its own bookkeeping plus, in lazy mode, every doorbell, SRQ,
    /// and budgeted stream the connection tables may create.
    pub fn arena_object_hint(ranks: usize, config: &CxlShmTransportConfig) -> usize {
        let base = 256 + ranks * 8;
        match config.conn_mode {
            ConnMode::Eager => base,
            ConnMode::Lazy => base + ConnTable::object_count_hint(ranks, config),
        }
    }

    /// Build the transport for one rank. Rank 0 creates and formats the shared
    /// structures; every other rank opens them by name and waits for the ready
    /// flags — mirroring the root-creates-then-broadcasts flow of the paper.
    /// `poison` is the universe's peer-death flag, raised by the runtime when
    /// any rank exits abnormally; every blocking wait in this transport checks
    /// it and fails with [`MpiError::PeerDead`]. The transport counts into
    /// `counters`, the rank's counter block.
    pub fn new(
        rank: Rank,
        ranks: usize,
        arena: CxlShmArena,
        config: &CxlShmTransportConfig,
        topology: &crate::topology::HostTopology,
        poison: PoisonFlag,
        counters: Arc<RankCounters>,
    ) -> Result<Self> {
        let geometry = QueueGeometry {
            cell_payload: config.cell_size,
            cells: config.cells_per_queue,
        };
        let barrier_bytes = SeqBarrier::required_bytes(ranks);
        let reserved = Self::required_shared_bytes(ranks, config)? - config.window_headroom;
        let headroom = arena.layout().objects_size.saturating_sub(reserved) as u64;

        let barrier_obj = if rank == 0 {
            let barrier_obj = arena.create(BARRIER_OBJECT, barrier_bytes + 64)?;
            let barrier = SeqBarrier::new(barrier_obj.clone(), 0, 0, ranks, poison.clone());
            barrier.format()?;
            barrier_obj.nt_store_u64_at((barrier_bytes + DRAWN_OFF) as u64, 0)?;
            // Raise the ready flag only after formatting is complete.
            barrier_obj.nt_store_u64_at(barrier_bytes as u64, WINDOW_READY_MAGIC)?;
            barrier_obj
        } else {
            let barrier_obj = open_poisoned(&arena, BARRIER_OBJECT, &poison)?;
            spin_flag(&barrier_obj, barrier_bytes as u64, &poison, |v| {
                v == WINDOW_READY_MAGIC
            })?;
            barrier_obj
        };

        let conn = match config.conn_mode {
            ConnMode::Eager => {
                // The seed flow: rank 0 formats the whole matrix, everyone
                // else waits on its ready flag.
                let matrix_bytes = QueueMatrix::required_bytes(ranks, geometry)?;
                let matrix_obj = if rank == 0 {
                    let obj = arena.create(QueueMatrix::OBJECT_NAME, matrix_bytes + 64)?;
                    let matrix = QueueMatrix::new(obj.clone(), ranks, geometry)?;
                    matrix.format_all()?;
                    obj.nt_store_u64_at(matrix_bytes as u64, WINDOW_READY_MAGIC)?;
                    obj
                } else {
                    let obj = open_poisoned(&arena, QueueMatrix::OBJECT_NAME, &poison)?;
                    spin_flag(&obj, matrix_bytes as u64, &poison, |v| {
                        v == WINDOW_READY_MAGIC
                    })?;
                    obj
                };
                let matrix = QueueMatrix::new(matrix_obj, ranks, geometry)?;
                ConnState::Eager {
                    tx: (0..ranks).map(|dst| matrix.queue(dst, rank)).collect(),
                    rx: (0..ranks).map(|src| matrix.queue(rank, src)).collect(),
                }
            }
            ConnMode::Lazy => {
                // Every rank creates only its own doorbell + SRQ; peer state
                // is opened on first use. No cross-rank wait here beyond the
                // barrier above.
                let table = ConnTable::new(
                    rank,
                    ranks,
                    arena.clone(),
                    geometry,
                    config,
                    poison.clone(),
                    Arc::clone(&counters),
                )?;
                ConnState::Lazy(Box::new(table))
            }
        };

        let ledger = barrier_obj.clone();
        let barrier = SeqBarrier::new(barrier_obj, 0, rank, ranks, poison.clone());

        Ok(CxlTransport {
            rank,
            ranks,
            arena,
            conn,
            barrier,
            unexpected: UnexpectedQueue::new(),
            partial_rx: (0..ranks).map(|_| None).collect(),
            windows: Vec::new(),
            dp: BTreeMap::new(),
            held_back: None,
            headroom,
            ledger,
            cost: CxlCostModel::default(),
            contention: CxlContentionModel::default(),
            coherence: config.coherence,
            host_of: topology.mapping().to_vec(),
            active_pairs: (ranks / 2).max(1),
            counters,
            cell_payload: config.cell_size,
            poll_cursor: 0,
            poison,
            fault: None,
            fault_armed: BTreeSet::new(),
            tx_blocked: vec![false; ranks],
            tx_open: vec![false; ranks],
            pending_scan: Vec::new(),
            tx_scratch: Vec::new(),
            acc_scratch: Vec::new(),
            pool: BufferPool::new(),
        })
    }

    // ------------------------------------------------------------------
    // Cost accounting helpers
    // ------------------------------------------------------------------

    /// Whether `peer` shares this rank's host (and therefore its
    /// hardware-coherent cache).
    fn same_host(&self, peer: Rank) -> bool {
        self.host_of[peer] == self.host_of[self.rank]
    }

    /// The contention crowd every rank assumes before any concurrency hint:
    /// half the ranks.
    fn default_pairs(&self) -> usize {
        (self.ranks / 2).max(1)
    }

    /// What a message of a given length to or from `peer` costs, at the
    /// default crowd rather than this rank's live hint: both ends of a stream
    /// price its format alike.
    fn message_price(&self, peer: Rank) -> impl Fn(usize) -> MessagePrice {
        let charge = Charge {
            active_pairs: self.default_pairs(),
            ..self.charge_for(peer)
        };
        move |msg| MessagePrice { charge, msg }
    }

    /// The cost terms of two-sided traffic with `peer`.
    fn charge_for(&self, peer: Rank) -> Charge {
        let same_host = self.same_host(peer);
        Charge {
            cost: self.cost,
            contention: self.contention,
            mode: if same_host {
                CoherenceMode::Cached
            } else {
                self.coherence
            },
            active_pairs: self.active_pairs,
            same_host,
        }
    }

    fn charge_rma(&self, clock: &mut SimClock, bytes: usize, write: bool) {
        let ideal = if write {
            self.cost.coherent_write(bytes, self.coherence)
        } else {
            self.cost.coherent_read(bytes, self.coherence)
        };
        let t = self
            .contention
            .throttle(self.active_pairs, bytes, ideal, false);
        clock.advance(self.cost.mpi_overhead() + t);
    }

    /// The cost terms of data-plane operations, as charged right now.
    fn dp_cost(&self) -> DpCost {
        DpCost {
            cost: self.cost,
            contention: self.contention,
            mode: self.coherence,
            pairs: self.active_pairs,
        }
    }

    /// Draw `bytes` of the pool's headroom, leaving `keep` of it undrawn —
    /// or, `partial`, as much of `bytes` as that allows. Returns what was
    /// drawn: without `partial`, all of `bytes` or nothing. One word of the
    /// pool counts every rank's draws, so any rank, on any host, sees what
    /// all the others took.
    fn draw_headroom(&self, bytes: u64, keep: u64, partial: bool) -> Result<u64> {
        let at = self.drawn_at();
        let mut drawn = self.ledger.nt_load_u64_at(at)?;
        loop {
            let left = self.headroom.saturating_sub(drawn).saturating_sub(keep);
            let take = match partial {
                true => bytes.min(left),
                false if bytes <= left => bytes,
                false => 0,
            };
            if take == 0 {
                return Ok(0);
            }
            match self
                .ledger
                .nt_compare_exchange_u64_at(at, drawn, drawn + take)?
            {
                Ok(_) => return Ok(take),
                Err(now) => drawn = now,
            }
        }
    }

    /// Hand back `bytes` a [`CxlTransport::draw_headroom`] took.
    fn refund_headroom(&self, bytes: u64) -> Result<()> {
        self.ledger
            .nt_fetch_add_u64_at(self.drawn_at(), bytes.wrapping_neg())?;
        Ok(())
    }

    /// Create object `name` of `size` bytes out of the pool's headroom, and
    /// only out of it: `None`, creating nothing, when what has been drawn
    /// leaves less than its bytes plus `keep` undrawn. A creation the pool
    /// refuses hands its draw back.
    fn create_in_headroom(&self, name: &str, size: usize, keep: u64) -> Result<Option<ShmObject>> {
        let bytes = align_alloc_size(size) as u64;
        if self.draw_headroom(bytes, keep, false)? == 0 {
            return Ok(None);
        }
        self.arena.create(name, size).map(Some).or_else(|e| {
            self.refund_headroom(bytes)?;
            Err(e.into())
        })
    }

    /// Where [`CxlTransport::draw_headroom`] counts in its ledger.
    fn drawn_at(&self) -> u64 {
        (SeqBarrier::required_bytes(self.ranks) + DRAWN_OFF) as u64
    }

    /// Store the completion line this rank holds back, by itself — one line,
    /// stamped now — unless it is `keep`'s window's, which may still carry it.
    /// Every call of this transport but [`Transport::poll_incoming`] makes
    /// this its first step (a data-plane call keeps its own window's line),
    /// so where a held-back line goes out is fixed by program order: at the
    /// entry of a call or a plan op, never at an idle poll.
    fn store_held_back(&mut self, clock: &mut SimClock, keep: Option<CtxId>) -> Result<()> {
        let Some(ctx) = self.held_back.filter(|&held| Some(held) != keep) else {
            return Ok(());
        };
        self.held_back = None;
        let line = self.dp_cost().line();
        if let Some(DpEntry {
            state: Some(state), ..
        }) = self.dp.get_mut(&ctx)
        {
            let done = state.next_done_off(state.done_through);
            store_stamped(&state.obj, done, state.done_through, clock.now())?;
            clock.advance(line);
            self.counters.completions.completions_alone.add(1);
        }
        Ok(())
    }

    /// Whether this rank's slot for collective `seq` on `ctx` is writable:
    /// free, already claimed by `seq`, or released just now — by what its
    /// readers' exposures showed ([`DpState::release_shown`], first, for
    /// every earlier occupant) or by the fallback sweep ([`release_held`]).
    /// `false` while some reader has not finished with an
    /// earlier occupant, or while a started collective still has to expose
    /// an earlier sequence number in the slot — the caller reports busy and
    /// the progress engine retries. Unless the slot is writable at once, the
    /// completion line this rank holds back goes out first, by itself: a
    /// sweep waits for the peers' lines, and a peer sweeping at the same
    /// sequence number waits for this one.
    fn dp_free_slot(&mut self, clock: &mut SimClock, ctx: CtxId, seq: u32) -> Result<bool> {
        let cost = self.dp_cost();
        let Some(DpEntry {
            state: Some(state), ..
        }) = self.dp.get_mut(&ctx)
        else {
            return no_data_plane();
        };
        let slot = seq as usize % state.layout.slots();
        let slots = state.layout.slots();
        let shown = state.release_shown(seq);
        self.counters.completions.freed_by_exposures.add(shown);
        let before = |w: u32| (seq.wrapping_sub(w) as i32) > 0;
        let behind = state
            .writing
            .iter()
            .any(|&w| w as usize % slots == slot && before(w));
        let at_once = !behind && state.held[slot].is_none_or(|owner| owner == seq);
        if !at_once {
            self.store_held_back(clock, None)?;
        }
        if behind {
            return Ok(false);
        }
        let state = self.dp.get_mut(&ctx).and_then(|e| e.state.as_mut());
        let state = state.expect("data-plane window vanished between two lookups");
        let counters = &self.counters;
        let free = at_once || release_held(state, seq, &self.poison, counters, clock, &cost)?;
        if free {
            state.writing.retain(|&w| w != seq);
        }
        Ok(free)
    }

    /// [`Transport::dp_claim`], for an exposure of `pieces` (which a
    /// [`DpReaders::PerPiece`] reader set is read off; a claim ahead of the
    /// expose has none yet and names nobody until the expose repeats it).
    fn dp_claim_for(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        seq: u32,
        readers: DpReaders,
        pieces: &[DpPiece],
    ) -> Result<bool> {
        if !self.dp_free_slot(clock, ctx, seq)? {
            return Ok(false);
        }
        let state = self.dp.get_mut(&ctx).and_then(|e| e.state.as_mut());
        let state = state.expect("data-plane window vanished between two lookups");
        state.occupy(seq, readers, pieces, &self.host_of);
        Ok(true)
    }

    /// Window `win`, borrowing only the window table: the caller keeps the
    /// counters, the cost model and the poison flag beside it.
    fn window_in(windows: &mut [Option<WindowState>], win: WinId) -> Result<&mut WindowState> {
        windows
            .get_mut(win)
            .and_then(|w| w.as_mut())
            .ok_or(MpiError::InvalidWindow(win))
    }

    /// The four PSCW calls: on the `access` side (`start`/`complete`) or the
    /// exposure side (`post`/`wait`), `open` an epoch with these peers or
    /// (`None`) close the open one. An epoch is announced by its number in
    /// the pair's cell — by the target in `post`, by the origin in `complete`
    /// — and the peer's `start`, or `wait`, is `true` once every peer's is
    /// there, resuming at the first peer whose number was missing.
    fn pscw(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        access: bool,
        open: Option<&[Rank]>,
    ) -> Result<bool> {
        for &peer in open.unwrap_or_default() {
            self.check_rank(peer)?;
        }
        self.store_held_back(clock, None)?;
        let (rank, nt) = (self.rank, self.cost.nt_access());
        let state = Self::window_in(&mut self.windows, win)?;
        let side = &mut state.pscw[usize::from(access)];
        let first = side.waiting.take();
        if first.is_none() && open.is_some() != side.group.is_empty() {
            let [closer, opener] = [["wait", "post"], ["complete", "start"]][usize::from(access)];
            return Err(MpiError::InvalidSyncState(match open {
                Some(_) => format!("{opener} called before the {closer} of the open epoch"),
                None => format!("{closer} called without a matching {opener}"),
            }));
        }
        side.group
            .extend_from_slice(open.filter(|_| first.is_none()).unwrap_or_default());
        let publishes = access != open.is_some();
        for (i, &peer) in side.group.iter().enumerate().skip(first.unwrap_or(0)) {
            // An epoch is opened with a peer when the first attempt reaches it.
            let epoch = side.epochs.entry(peer).or_default();
            *epoch += u64::from(open.is_some() && Some(i) != first);
            let (reader, writer) = if publishes {
                (peer, rank)
            } else {
                (rank, peer)
            };
            let cell = match open {
                Some(_) => state.layout.post_flag_offset(reader, writer),
                None => state.layout.complete_flag_offset(reader, writer),
            } as usize;
            if publishes {
                clock.advance(nt);
                store_stamped(&state.obj, cell, *epoch, clock.now())?;
            } else {
                let Some(stamp) = load_stamped(&state.obj, cell, *epoch)? else {
                    side.waiting = Some(i);
                    return Ok(false);
                };
                clock.merge(stamp);
                clock.advance(nt);
            }
        }
        self.counters
            .transport
            .rma_sync_lines
            .add(side.group.len() as u64);
        if open.is_none() {
            side.group.clear();
        }
        Ok(true)
    }

    fn check_rank(&self, rank: Rank) -> Result<()> {
        if rank >= self.ranks {
            return Err(MpiError::InvalidRank {
                rank,
                size: self.ranks,
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Two-sided internals
    // ------------------------------------------------------------------
    //
    // The receive path is allocation-free in steady state:
    //
    // * a receive peeks the next header and, when it matches, consumes every
    //   cell or segment **directly into its destination** ([`RecvDest`]: the
    //   caller's slice, as all typed collectives post, or a buffer out of the
    //   staging arena for an owned payload) — no `Vec` per chunk, no
    //   reassembly copy;
    // * messages that no receive asked for yet are reassembled into buffers
    //   recycled through the per-rank [`BufferPool`] staging arena and stashed
    //   on the unexpected queue; a slice receive that consumes one returns the
    //   buffer to the pool, an owned receive takes the buffer itself.

    /// Whether a cell header satisfies a receive's `(ctx, src, tag)` selectors.
    fn header_matches(h: &CellHeader, ctx: CtxId, src: Option<Rank>, tag: Option<Tag>) -> bool {
        h.ctx == ctx && source_matches(src, h.src) && tag_matches(tag, h.tag)
    }

    /// Receive the message whose first header `first` was just peeked at the
    /// head of `sender`'s ring straight into `dst` (which must hold the whole
    /// message), cell by cell or segment by segment at their offsets. Merges
    /// timestamps, charges each read, and waits for the remainder of a
    /// message still being published. Each segment is charged as its peek
    /// took it ([`Ring::consume`]); the first was peeked by the caller.
    fn drain_message_into(
        &mut self,
        clock: &mut SimClock,
        sender: Rank,
        first: &CellHeader,
        dst: &mut [u8],
    ) -> Result<()> {
        let total = first.total_len as usize;
        debug_assert!(dst.len() >= total);
        let charge = self.charge_for(sender);
        let price = self.message_price(sender);
        let mut ring = self.conn.rx_ring(sender, price)?;
        let (mut next, mut received) = (Some(*first), 0usize);
        // The sender has this message partly out and holds back anything
        // else for this rank until it is whole (the commit rule); its next
        // attempts, each one hold of its own io lock, publish the rest.
        debug_assert!(self.held_back.is_none(), "line held back");
        block_until(WaitSite::Drain, &self.poison, || {
            // What follows is guaranteed to belong to this message (the
            // sender publishes a whole message before starting the next), but
            // the ring may momentarily be empty when the producer is behind.
            let peeked = match next.take() {
                first @ Some(_) => first,
                None => ring.peek_header(None)?,
            };
            let Some(h) = peeked else {
                return Ok(Polled::Idle);
            };
            debug_assert_eq!((h.src, h.ctx), (first.src, first.ctx));
            let dst = &mut dst[h.chunk_offset as usize..];
            ring.consume(&h, &charge, clock, dst, &self.counters.transport)?;
            received += h.chunk_len as usize;
            Ok(if received >= total {
                Polled::Ready(())
            } else {
                Polled::Moved
            })
        })
    }

    fn is_lazy(&self) -> bool {
        matches!(self.conn, ConnState::Lazy(_))
    }

    /// Fold one more cell or segment (`h`, at the head of `ring`) into the
    /// reassembly in `part`, starting it from the staging pool when `h` opens
    /// a message; hands the assembly over once `h` completed it.
    fn accept_cell(
        part: &mut Option<ChunkAssembler>,
        pool: &mut BufferPool,
        ring: &mut Ring<'_>,
        h: &CellHeader,
        charge: &Charge,
        clock: &mut SimClock,
        stats: &TransportSection,
    ) -> Result<Option<ChunkAssembler>> {
        // Chunks of one message are contiguous per sender, so a fresh
        // assembly always starts at a first-of-message header.
        let asm = part.get_or_insert_with(|| {
            let total = h.total_len as usize;
            ChunkAssembler::with_buffer(h.src, h.ctx, h.tag, total, pool.take(total))
        });
        let dst = asm.chunk_target(h.chunk_offset as usize, h.chunk_len as usize);
        ring.consume(h, charge, clock, dst, stats)?;
        asm.commit_chunk(h.chunk_len as usize, clock.now());
        Ok(if asm.is_complete() { part.take() } else { None })
    }

    /// Finish a complete reassembly into a message and count it received.
    fn finish_partial(&self, asm: ChunkAssembler, clock: &SimClock) -> PendingMessage {
        let mut msg = asm.finish();
        msg.arrival = clock.now();
        self.counters.transport.msgs_received.add(1);
        self.counters
            .transport
            .bytes_received
            .add(msg.data.len() as u64);
        msg
    }

    /// Pull everything currently available from `sender`'s ring into that
    /// sender's persistent reassembly **without blocking**: a message
    /// mid-publication is accepted incrementally (freeing ring cells and
    /// stream slots, which is what keeps a sender blocked on flow control
    /// moving), and the assembly resumes on the next call. Returns the
    /// reassembled message once its last byte arrives, `None` when nothing
    /// further is available (empty, or a partial message whose sender has
    /// not published more yet).
    fn pump_queue(&mut self, clock: &mut SimClock, sender: Rank) -> Result<Option<PendingMessage>> {
        self.counters.transport.ring_probes.add(1);
        let charge = self.charge_for(sender);
        let price = self.message_price(sender);
        let mut ring = self.conn.rx_ring(sender, price)?;
        let part = &mut self.partial_rx[sender];
        let stats = &self.counters.transport;
        while let Some(h) = ring.peek_header(None)? {
            if let Some(done) =
                Self::accept_cell(part, &mut self.pool, &mut ring, &h, &charge, clock, stats)?
            {
                return Ok(Some(self.finish_partial(done, clock)));
            }
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // Lazy-mode receive internals (doorbell + SRQ + sparse streams)
    // ------------------------------------------------------------------
    //
    // The lazy receive side never sweeps `0..ranks`. It
    //
    // 1. drains the doorbell into the pending-sender set (one non-temporal
    //    load when idle, regardless of world size),
    // 2. pumps the shared receive queue, where not-yet-promoted senders
    //    publish whole messages (two non-temporal loads when idle),
    // 3. pumps only the pending senders' streams, retiring a sender from the
    //    set once its stream is drained and no reassembly is in flight
    //    (senders ring the doorbell for every message, so retirement never
    //    loses a wakeup; the segments behind a message's first ring nothing,
    //    which is why a sender mid-message stays pending until it is whole).

    /// Drain this rank's doorbell into the connection table's pending set.
    fn lazy_collect(&mut self) -> Result<()> {
        self.conn.lazy().collect()?;
        Ok(())
    }

    /// Pump the shared receive queue: consume every published slot in ticket
    /// order, assembling chunks per sender. Returns a message as soon as one
    /// completes; never blocks.
    fn pump_srq(&mut self, clock: &mut SimClock) -> Result<Option<PendingMessage>> {
        let ConnState::Lazy(table) = &self.conn else {
            unreachable!("SRQ pump on eager transport");
        };
        let mut ring = Ring::Srq(&table.my_srq);
        let stats = &self.counters.transport;
        while let Some(h) = ring.peek_header(None)? {
            let charge = self.charge_for(h.src);
            let part = &mut self.partial_rx[h.src];
            if let Some(done) =
                Self::accept_cell(part, &mut self.pool, &mut ring, &h, &charge, clock, stats)?
            {
                return Ok(Some(self.finish_partial(done, clock)));
            }
        }
        Ok(None)
    }

    /// The senders a lazy receive should probe: the single requested source
    /// when its stream is known or flagged, otherwise the whole pending set.
    fn lazy_candidates(&self, src: Option<Rank>, out: &mut Vec<Rank>) {
        out.clear();
        let ConnState::Lazy(t) = &self.conn else {
            return;
        };
        match src {
            Some(s) => {
                if t.pending.contains(&s) || t.rx_contains(s) {
                    out.push(s);
                }
            }
            None => out.extend(t.pending.iter().copied()),
        }
    }

    /// Drop `sender` from the pending set once its stream holds nothing and
    /// no reassembly is in flight. Safe because senders ring the doorbell
    /// after every message's first segment: new data always re-flags them.
    fn lazy_retire(&mut self, sender: Rank) -> Result<()> {
        if self.partial_rx[sender].is_some() {
            return Ok(());
        }
        let price = self.message_price(sender);
        let table = self.conn.lazy();
        if !table.rx_stream(sender, price)?.has_segment()? {
            table.pending.remove(&sender);
        }
        Ok(())
    }

    /// The ring-poll plan of a receive with source selector `src`:
    /// `(start, count)` such that the candidate senders are
    /// `(start + i) % ranks` for `i in 0..count` — a single ring for a
    /// directed receive, all rings round-robin rotated for fairness under
    /// wildcards. A plan instead of a `Vec` keeps the steady-state receive
    /// path allocation-free.
    fn poll_plan(&mut self, src: Option<Rank>) -> (Rank, usize) {
        match src {
            Some(s) => (s, 1),
            None => {
                let start = self.poll_cursor;
                self.poll_cursor = (self.poll_cursor + 1) % self.ranks;
                (start, self.ranks)
            }
        }
    }

    fn try_match_lazy(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        dest: RecvDest<'_>,
    ) -> Result<Option<Status>> {
        self.lazy_collect()?;
        while let Some(msg) = self.pump_srq(clock)? {
            if msg.matches(ctx, src, tag) {
                return self.settle_staged(clock, msg, dest).map(Some);
            }
            self.unexpected.push(msg);
        }
        let mut scan = std::mem::take(&mut self.pending_scan);
        self.lazy_candidates(src, &mut scan);
        let res = self.match_rings(clock, &scan, ctx, src, tag, dest);
        self.pending_scan = scan;
        res
    }

    fn match_rings(
        &mut self,
        clock: &mut SimClock,
        senders: &[Rank],
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        mut dest: RecvDest<'_>,
    ) -> Result<Option<Status>> {
        for &sender in senders {
            let found = self.match_ring(clock, sender, ctx, src, tag, dest.reborrow())?;
            if found.is_some() {
                return Ok(found);
            }
            self.lazy_retire(sender)?;
        }
        Ok(None)
    }

    /// Probe one sender ring: a matching message at the ring head streams
    /// straight into `dest` with no staging copy (or, probing, is reported
    /// and left there); anything else is pumped toward the unexpected queue.
    /// Returns `None` when the ring has nothing further for this receive.
    fn match_ring(
        &mut self,
        clock: &mut SimClock,
        sender: Rank,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        dest: RecvDest<'_>,
    ) -> Result<Option<Status>> {
        loop {
            // Finish any in-flight partial reassembly first: it owns the ring
            // head, so nothing newer from this sender can be examined until
            // it completes.
            if self.partial_rx[sender].is_some() {
                match self.pump_queue(clock, sender)? {
                    Some(msg) => {
                        if msg.matches(ctx, src, tag) {
                            return self.settle_staged(clock, msg, dest).map(Some);
                        }
                        self.unexpected.push(msg);
                        continue;
                    }
                    // Still partial: nothing deliverable from this ring.
                    None => return Ok(None),
                }
            }
            self.counters.transport.ring_probes.add(1);
            let price = self.message_price(sender);
            // A receive that names the sender and posts a buffer guesses the
            // lines of the stream's gathered read from its length.
            let posted = match (&dest, src) {
                (RecvDest::Slice(buf), Some(_)) => Some(buf.len()),
                _ => None,
            };
            let Some(first) = self.conn.rx_ring(sender, price)?.peek_header(posted)? else {
                return Ok(None);
            };
            if !Self::header_matches(&first, ctx, src, tag) {
                // Not ours: pump it toward the unexpected queue without
                // blocking if it is still being published.
                match self.pump_queue(clock, sender)? {
                    Some(msg) => {
                        self.unexpected.push(msg);
                        continue;
                    }
                    None => return Ok(None),
                }
            }
            let total = first.total_len as usize;
            let status = Status::new(first.src, first.tag, total);
            let buf = match dest {
                RecvDest::Probe => return Ok(Some(status)),
                RecvDest::Slice(buf) if total > buf.len() => {
                    // MPI truncation: the message is consumed (into staging,
                    // recycled immediately) and the receive errors. Blocking
                    // for the remainder is fine — the sender of a matching
                    // partial message is committed to it, as in the drain.
                    debug_assert!(self.held_back.is_none(), "line held back");
                    let poison = self.poison.clone();
                    let msg = block_until(WaitSite::Truncation, &poison, || {
                        Ok(self.pump_queue(clock, sender)?.into())
                    })?;
                    self.pool.put(msg.data);
                    clock.advance(self.cost.mpi_overhead());
                    return Err(MpiError::Truncation {
                        message_len: total,
                        buffer_len: buf.len(),
                    });
                }
                RecvDest::Slice(buf) => buf,
                RecvDest::Vec(out) => {
                    *out = self.pool.take(total);
                    &mut out[..]
                }
            };
            // Direct path: cells or segments land in the destination, with
            // no staging copy. Waits for the remainder of a matching message
            // mid-publication — safe for the same reason.
            self.drain_message_into(clock, sender, &first, buf)?;
            self.counters.transport.msgs_received.add(1);
            self.counters.transport.bytes_received.add(total as u64);
            clock.advance(self.cost.mpi_overhead());
            return Ok(Some(status));
        }
    }

    /// A staged message — unexpected, or freshly pumped — matched: hand it to
    /// `dest`. A slice takes a copy and the staging storage goes back to the
    /// pool; a vector takes the storage itself. Probing (a freshly pumped
    /// message only), it is reported and staged: everything staged before it
    /// failed the same selectors, so it is their first match on the queue.
    fn settle_staged(
        &mut self,
        clock: &mut SimClock,
        m: PendingMessage,
        dest: RecvDest<'_>,
    ) -> Result<Status> {
        let (status, arrival) = (m.status, m.arrival);
        let delivered = match dest {
            RecvDest::Probe => {
                self.unexpected.push(m);
                return Ok(status);
            }
            RecvDest::Slice(buf) if m.data.len() > buf.len() => Err(MpiError::Truncation {
                message_len: m.data.len(),
                buffer_len: buf.len(),
            }),
            RecvDest::Slice(buf) => {
                buf[..m.data.len()].copy_from_slice(&m.data);
                self.pool.put(m.data);
                Ok(status)
            }
            RecvDest::Vec(out) => {
                *out = m.data;
                Ok(status)
            }
        };
        clock.merge(arrival);
        clock.advance(self.cost.mpi_overhead());
        delivered
    }

    /// Lazy drain: doorbell collect, SRQ pump, then only the flagged streams.
    fn lazy_poll_incoming(&mut self, clock: &mut SimClock) -> Result<usize> {
        let mut moved = 0usize;
        self.lazy_collect()?;
        while let Some(msg) = self.pump_srq(clock)? {
            self.unexpected.push(msg);
            moved += 1;
        }
        let mut scan = std::mem::take(&mut self.pending_scan);
        self.lazy_candidates(None, &mut scan);
        let res = self.drain_pending_rings(clock, &scan, &mut moved);
        self.pending_scan = scan;
        res?;
        Ok(moved)
    }

    fn drain_pending_rings(
        &mut self,
        clock: &mut SimClock,
        senders: &[Rank],
        moved: &mut usize,
    ) -> Result<()> {
        for &sender in senders {
            while let Some(msg) = self.pump_queue(clock, sender)? {
                self.unexpected.push(msg);
                *moved += 1;
            }
            self.lazy_retire(sender)?;
        }
        Ok(())
    }
}

impl Transport for CxlTransport {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.ranks
    }

    /// One send body, nonblocking and resumable, whichever way the pair is
    /// connected: a blocking `Comm::send` attempts it once a lap, a plan's
    /// send once a step. `cursor` counts what is already out — stream
    /// segments on a promoted pair, cells on an eager ring or a cold pair's
    /// shared receive queue — and a fresh message toward a peer with another
    /// partly out returns at once, before anything of it is charged.
    ///
    /// In lazy mode, message entry (`cursor == 0`; idempotent, nothing is out
    /// yet) opens and opportunistically promotes the pair. On a promoted pair
    /// the whole message rides the stream and rings the receiver's doorbell
    /// once, after its first segment; the fault hook and the software
    /// overhead come right before that segment, once a slot is in hand. A
    /// full stream hands control back **without touching the clock**: the
    /// wait for a slow receiver is charged once, when the slots are reused,
    /// by merging the stamp the receiver handed them back at — so virtual
    /// time does not depend on how often the host scheduler let this rank
    /// retry. A cold pair publishes cells through the receiver's shared
    /// receive queue, which the receiver probes unconditionally — no
    /// doorbell — and an eager pair through its ring: the paper's protocol,
    /// one loop for both.
    fn try_send(
        &mut self,
        clock: &mut SimClock,
        dst: Rank,
        ctx: CtxId,
        tag: Tag,
        data: &[u8],
        cursor: &mut usize,
    ) -> Result<bool> {
        self.check_rank(dst)?;
        self.store_held_back(clock, None)?;
        if *cursor == 0 && self.tx_open[dst] {
            return Ok(false);
        }
        let nt = self.cost.nt_access();
        let total = data.len();
        let charge = self.charge_for(dst);
        let price = self.message_price(dst);
        // A promoted lazy pair sends through its stream, right here; an eager
        // pair and a cold lazy pair give the cell loop below their ring.
        let ring = 'route: {
            let table = match &mut self.conn {
                ConnState::Eager { tx, .. } => break 'route TxRing::Cells(&tx[dst]),
                ConnState::Lazy(table) => table,
            };
            let peer = match *cursor {
                0 => table.prepare_send(dst, clock, nt, price)?,
                // Mid-message the route is settled: a pair is only promoted
                // at message entry, and no message starts toward a peer
                // while another is partly out to it (`tx_open`).
                _ => table.peer_mut(dst)?,
            };
            let Some(stream) = peer.stream.as_mut() else {
                break 'route TxRing::Srq(&peer.srq);
            };
            let segment = stream.segment_bytes();
            let segments = total.div_ceil(segment).max(1);
            // Stamped lines are never longer than one segment.
            let stamped = stream.stamped_lines(total);
            while *cursor < segments {
                let Some(lapped) = stream.reserve()? else {
                    self.tx_open[dst] = *cursor > 0;
                    return Ok(false);
                };
                if *cursor == 0 {
                    // Single writer: the slot cannot vanish, so the hook
                    // fires exactly once per message, with nothing visible.
                    if let Some(f) = self.fault.as_mut() {
                        f.on_send()?;
                    }
                    clock.advance(self.cost.mpi_overhead());
                }
                if segments > 1 {
                    // Segment entry (slot in hand, nothing written): the
                    // fault-injection point for a death mid-stream.
                    if let Some(f) = self.fault.as_mut() {
                        f.on_publish()?;
                    }
                }
                // Lapped: the done line that freed the slot.
                if let Some(freed_at) = lapped {
                    if freed_at > clock.now() {
                        self.counters.transport.rdv_stalls.add(1);
                    }
                    clock.merge(freed_at);
                }
                let part = &data[*cursor * segment..((*cursor + 1) * segment).min(total)];
                // The stamped lines in one store stream, or the one line that
                // is the whole message; else the payload and the flag line.
                let (streamed, lines) = match stamped {
                    Some(1) => (0, 1),
                    Some(k) => (k * SLOT_CELL_SIZE, 0),
                    None => (part.len(), 1),
                };
                let lines = lines + usize::from(lapped.is_some());
                clock.advance(charge.segment_publish(streamed, total, lines));
                let frame = (*cursor == 0).then_some((ctx, tag, total));
                stream.publish(frame, part, clock.now())?;
                if *cursor == 0 {
                    let words = peer.db.ring(self.rank)?;
                    self.counters.transport.doorbell_rings.add(1);
                    clock.advance(words as f64 * nt);
                }
                *cursor += 1;
            }
            if segments > 1 {
                self.counters.transport.rdv_msgs.add(1);
                self.counters.transport.rdv_bytes.add(total as u64);
                self.counters.transport.rdv_segments.add(segments as u64);
            }
            if stamped.is_some_and(|k| k > 1) {
                self.counters.transport.stamped_msgs.add(1);
            }
            table.note_sent(dst, None);
            self.tx_open[dst] = false;
            self.counters.transport.msgs_sent.add(1);
            self.counters.transport.bytes_sent.add(total as u64);
            return Ok(true);
        };
        let cells = total.div_ceil(self.cell_payload).max(1);
        let mut srq_ticket = None;
        while *cursor < cells {
            let offset = *cursor * self.cell_payload;
            let chunk = &data[offset..(offset + self.cell_payload).min(total)];
            if !ring.has_space()? {
                // The receiver is behind: hand control back instead of
                // spinning — the caller drains its own arrivals and retries.
                let head_ts = ring.head_timestamp()?;
                charge_full_probe(clock, &mut self.tx_blocked[dst], head_ts, nt);
                self.tx_open[dst] = *cursor > 0;
                return Ok(false);
            }
            self.tx_blocked[dst] = false;
            if *cursor == 0 {
                // Message entry, past flow control and before any bytes: no
                // partial message is ever visible. Exactly-once fault
                // injection: arm a key on the first attempt that got here,
                // keep it armed across the SRQ's rare claim-race retreats,
                // clear it at completion.
                if let Some(fault) = self.fault.as_mut() {
                    if self.fault_armed.insert((dst, ctx, tag)) {
                        fault.on_send()?;
                    }
                }
                clock.advance(self.cost.mpi_overhead());
            }
            // Charge the publish cost first, then stamp the cell with the
            // time at which the data is actually visible.
            charge.chunk_write(clock, chunk.len() + CELL_HEADER_SIZE, total);
            let header = CellHeader {
                src: self.rank,
                ctx,
                tag,
                total_len: total as u64,
                chunk_offset: offset as u64,
                chunk_len: chunk.len() as u32,
                timestamp: clock.now(),
            };
            match ring {
                TxRing::Cells(queue) => {
                    // Single producer: the space seen above is still there.
                    let enqueued =
                        queue.try_enqueue_with_scratch(&header, chunk, &mut self.tx_scratch)?;
                    debug_assert!(enqueued, "ring filled despite has_space");
                }
                TxRing::Srq(srq) => {
                    let claimed =
                        srq.try_enqueue_with_scratch(&header, chunk, &mut self.tx_scratch)?;
                    let Some(claimed) = claimed else {
                        // A racing producer took the last slot after the
                        // flow-control check: retreat as a plain "full".
                        let head_ts = ring.head_timestamp()?;
                        charge_full_probe(clock, &mut self.tx_blocked[dst], head_ts, nt);
                        self.tx_open[dst] = *cursor > 0;
                        return Ok(false);
                    };
                    // The ticket claim is one RMW round-trip.
                    clock.advance(nt);
                    srq_ticket = Some(claimed);
                }
            }
            *cursor += 1;
        }
        if self.fault.is_some() {
            self.fault_armed.remove(&(dst, ctx, tag));
        }
        if let ConnState::Lazy(table) = &mut self.conn {
            table.note_sent(dst, srq_ticket);
        }
        self.tx_open[dst] = false;
        self.counters.transport.msgs_sent.add(1);
        self.counters.transport.bytes_sent.add(total as u64);
        Ok(true)
    }

    /// One matching attempt: searches the unexpected queue, then peeks the
    /// candidate rings — a matching message at a ring head streams straight
    /// into `dest`. `ctx` scopes the match to one communicator; messages that
    /// do not match are staged along the way.
    ///
    /// [`RecvDest::Probe`] runs the same search in the same order, but the
    /// match is only reported — a staged message stays (or lands) on the
    /// unexpected queue, a message at a ring head stays there — and nothing
    /// is charged for it.
    fn try_recv(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        mut dest: RecvDest<'_>,
    ) -> Result<Option<Status>> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        self.store_held_back(clock, None)?;
        if let RecvDest::Probe = dest {
            if let Some(m) = self.unexpected.probe(ctx, src, tag) {
                return Ok(Some(m.status));
            }
        } else if let Some(m) = self.unexpected.take_match(ctx, src, tag) {
            return self.settle_staged(clock, m, dest).map(Some);
        }
        if self.is_lazy() {
            return self.try_match_lazy(clock, ctx, src, tag, dest);
        }
        let (start, count) = self.poll_plan(src);
        for i in 0..count {
            let sender = (start + i) % self.ranks;
            let found = self.match_ring(clock, sender, ctx, src, tag, dest.reborrow())?;
            if found.is_some() {
                return Ok(found);
            }
        }
        Ok(None)
    }

    fn poll_incoming(&mut self, clock: &mut SimClock) -> Result<usize> {
        // Drain every incoming ring into the pool-backed unexpected queue:
        // each cell freed returns ring space to the sender, so a peer
        // blocked on ring-full flow control can finish its send while this
        // rank is otherwise busy. `pump_queue` accepts partial messages
        // incrementally and never blocks — essential, because the sender of
        // a half-published message may itself be spinning in its own
        // send-commit loop waiting for the cells this drain frees.
        if self.is_lazy() {
            return self.lazy_poll_incoming(clock);
        }
        let mut moved = 0usize;
        for sender in 0..self.ranks {
            if sender == self.rank {
                continue;
            }
            while let Some(msg) = self.pump_queue(clock, sender)? {
                self.unexpected.push(msg);
                moved += 1;
            }
        }
        Ok(moved)
    }

    fn barrier(&mut self, clock: &mut SimClock) -> Result<bool> {
        self.store_held_back(clock, None)?;
        self.barrier.attempt(clock, self.cost.nt_access())
    }

    // ------------------------------------------------------------------
    // RMA windows
    // ------------------------------------------------------------------
    //
    // Every synchronization word has one writer and is never reset (README,
    // *One-sided communication*). A call costs one device line per peer: a
    // store is charged, then stamped; a wait merges the stamp it waited for
    // and pays for the load that found it, failed polls are free. Only a
    // *contended* bakery lock charges its re-polls ("a stamped bakery
    // release" in the ROADMAP item *Fig 10 through `Comm`, the large-n cliff,
    // and every curve gated*).

    fn win_allocate(&mut self, clock: &mut SimClock, size: usize) -> Result<Option<WinId>> {
        self.store_held_back(clock, None)?;
        let id = self.windows.len();
        let layout = WindowLayout::new(self.ranks, size);
        let name = format!("cmpi/win_{id}");
        // The ready value is tied to the window id so that stale bytes left in
        // reused device memory by a freed window can never look "ready".
        let ready_value = WINDOW_READY_MAGIC ^ id as u64;
        let mut drawn = 0;
        let obj = if self.rank == 0 {
            // The window draws what it can of the headroom, so that a
            // data-plane window made after it finds that much less. Past
            // that it is carved out of the room sized for connection state;
            // every rank's doorbell and shared receive queue exist before
            // user code runs (the init barrier), so what it can take there
            // is the lazy streams' room, and a stream that finds none keeps
            // its pair on the shared receive queue.
            let bytes = align_alloc_size(layout.total_bytes()) as u64;
            drawn = self.draw_headroom(bytes, STATUS_ROOM, true)?;
            let obj = match self.arena.create(&name, layout.total_bytes()) {
                Ok(obj) => obj,
                Err(e) => {
                    self.refund_headroom(drawn)?;
                    return Err(e.into());
                }
            };
            // Zero the synchronization region (cells, locks, fence slots):
            // every pair of a new window starts at epoch 1.
            let zeros = vec![0u8; layout.sync_bytes() - CACHE_LINE_SIZE];
            obj.write_flush_at(layout.post_flag_offset(0, 0), &zeros)?;
            obj.nt_store_u64_at(layout.ready_offset(), ready_value)?;
            obj
        } else {
            // One look: its creator may itself be waiting for an operation
            // this rank started, so the wait is the caller's.
            let obj = match self.arena.open(&name) {
                Err(cxl_shm::ShmError::ObjectNotFound(_)) => return Ok(None),
                opened => opened?,
            };
            if obj.nt_load_u64_at(layout.ready_offset())? != ready_value {
                return Ok(None);
            }
            obj
        };
        let fence_barrier = SeqBarrier::new(
            obj.clone(),
            layout.fence_base(),
            self.rank,
            self.ranks,
            self.poison.clone(),
        );
        self.windows.push(Some(WindowState {
            obj,
            layout,
            fence_barrier,
            pscw: Default::default(),
            held_locks: Vec::new(),
            acquiring: None,
            drawn,
        }));
        Ok(Some(id))
    }

    fn win_free(&mut self, clock: &mut SimClock, win: WinId) -> Result<()> {
        self.store_held_back(clock, None)?;
        let drawn = Self::window_in(&mut self.windows, win)?.drawn;
        if self.rank == 0 {
            self.arena.destroy_by_name(&format!("cmpi/win_{win}"))?;
            self.refund_headroom(drawn)?;
        }
        self.windows[win] = None;
        Ok(())
    }

    fn put(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        self.check_rank(target)?;
        self.store_held_back(clock, None)?;
        let state = Self::window_in(&mut self.windows, win)?;
        state.store(state.data_addr(target, offset, data.len())?, data)?;
        self.charge_rma(clock, data.len(), true);
        self.counters.transport.puts.add(1);
        self.counters
            .transport
            .rma_bytes_written
            .add(data.len() as u64);
        Ok(())
    }

    fn get(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<()> {
        self.check_rank(target)?;
        self.store_held_back(clock, None)?;
        let state = Self::window_in(&mut self.windows, win)?;
        let addr = state.data_addr(target, offset, buf.len())?;
        state.obj.read_coherent_at(addr, buf)?;
        self.charge_rma(clock, buf.len(), false);
        self.counters.transport.gets.add(1);
        self.counters.transport.rma_bytes_read.add(buf.len() as u64);
        Ok(())
    }

    fn accumulate(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<()> {
        self.check_rank(target)?;
        self.store_held_back(clock, None)?;
        let bytes = data.len() * 8;
        let state = Self::window_in(&mut self.windows, win)?;
        let addr = state.data_addr(target, offset, bytes)?;
        let values = &mut self.acc_scratch;
        values.clear();
        values.resize(data.len(), 0.0);
        for (at, part, whole) in line_parts(addr, bytes) {
            let part = &mut bytes_of_mut(values)[part];
            if whole {
                state.obj.read_coherent_at(at, part)?;
            } else {
                state.obj.nt_load_at(at, part)?;
            }
        }
        op.fold_f64(values, data);
        state.store(addr, bytes_of(values))?;
        self.charge_rma(clock, bytes, false);
        self.charge_rma(clock, bytes, true);
        self.counters.transport.rma_bytes_written.add(bytes as u64);
        Ok(())
    }

    fn win_read_local(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<()> {
        self.store_held_back(clock, None)?;
        let state = Self::window_in(&mut self.windows, win)?;
        let addr = state.data_addr(self.rank, offset, buf.len())?;
        state.obj.read_coherent_at(addr, buf)?;
        self.charge_rma(clock, buf.len(), false);
        Ok(())
    }

    fn win_write_local(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        self.store_held_back(clock, None)?;
        let state = Self::window_in(&mut self.windows, win)?;
        state.store(state.data_addr(self.rank, offset, data.len())?, data)?;
        self.charge_rma(clock, data.len(), true);
        Ok(())
    }

    fn post(&mut self, clock: &mut SimClock, win: WinId, origins: &[Rank]) -> Result<()> {
        self.pscw(clock, win, false, Some(origins)).map(drop)
    }

    fn start(&mut self, clock: &mut SimClock, win: WinId, targets: &[Rank]) -> Result<bool> {
        self.pscw(clock, win, true, Some(targets))
    }

    fn complete(&mut self, clock: &mut SimClock, win: WinId) -> Result<()> {
        self.pscw(clock, win, true, None).map(drop)
    }

    fn wait(&mut self, clock: &mut SimClock, win: WinId) -> Result<bool> {
        self.pscw(clock, win, false, None)
    }

    fn lock(&mut self, clock: &mut SimClock, win: WinId, target: Rank) -> Result<bool> {
        self.check_rank(target)?;
        self.store_held_back(clock, None)?;
        let state = Self::window_in(&mut self.windows, win)?;
        if state.held_locks.contains(&target) {
            return Err(MpiError::InvalidSyncState(format!(
                "lock on target {target} already held"
            )));
        }
        let Some(lines) = state.bakery(target).lock(self.rank, &mut state.acquiring)? else {
            return Ok(false);
        };
        clock.advance(lines as f64 * self.cost.nt_access());
        self.counters.transport.rma_sync_lines.add(lines);
        state.held_locks.push(target);
        Ok(true)
    }

    fn unlock(&mut self, clock: &mut SimClock, win: WinId, target: Rank) -> Result<()> {
        self.check_rank(target)?;
        self.store_held_back(clock, None)?;
        let state = Self::window_in(&mut self.windows, win)?;
        let Some(pos) = state.held_locks.iter().position(|&t| t == target) else {
            return Err(MpiError::InvalidSyncState(format!(
                "unlock on target {target} without a matching lock"
            )));
        };
        state.bakery(target).unlock(self.rank)?;
        clock.advance(self.cost.nt_access());
        self.counters.transport.rma_sync_lines.add(1);
        state.held_locks.remove(pos);
        Ok(())
    }

    fn fence(&mut self, clock: &mut SimClock, win: WinId) -> Result<bool> {
        self.store_held_back(clock, None)?;
        let state = Self::window_in(&mut self.windows, win)?;
        if !state.fence_barrier.is_waiting() {
            self.counters
                .transport
                .rma_sync_lines
                .add(self.ranks as u64);
        }
        state.fence_barrier.attempt(clock, self.cost.nt_access())
    }

    // ------------------------------------------------------------------
    // Shared-window single-copy data plane
    // ------------------------------------------------------------------

    fn dp_ensure(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        group: &[Rank],
        arena_bytes: usize,
    ) -> Result<Option<DpWindow>> {
        if self.dp.contains_key(&ctx) {
            return Ok(self.dp_window(ctx));
        }
        self.store_held_back(clock, None)?;
        let Some(my_idx) = group.iter().position(|&r| r == self.rank) else {
            return Ok(None);
        };
        let layout = SlotLayout::new(group.len(), DP_SLOTS, arena_bytes / DP_SLOTS);
        if group.len() < 2 || layout.slot_bytes() == 0 {
            let skipped = DpEntry {
                status: None,
                state: None,
            };
            self.dp.insert(ctx, skipped);
            return Ok(None);
        }
        let nt = self.cost.nt_access();
        let lead = group[0];
        // The lead's *world* rank is in the object names because the disjoint
        // groups of one comm_split share a context id — each color gets its
        // own window, keyed by its own leader.
        let status_name = format!("cmpi/dps_{ctx}_{lead}");
        let data_name = format!("cmpi/dp_{ctx}_{lead}");
        let (status, state) = if self.rank == lead {
            // The tiny status object is created *first*, so non-leads always
            // have something to open: a data-window failure is announced
            // through it rather than by absence. Both come out of the
            // headroom only, never out of the room the connection state is
            // sized to need; the window leaves room for later statuses.
            let status = self
                .create_in_headroom(&status_name, STATUS_BYTES, 0)?
                .ok_or(cxl_shm::ShmError::OutOfMemory {
                    requested: STATUS_BYTES,
                    largest_free: 0,
                })?;
            // In the verdict's line, ahead of it: whatever the pool's bytes
            // held there goes first, then the window's name.
            status.nt_store_u64_at(0, 0)?;
            status.nt_store_u64_at(DP_KEY_OFF, window_key(ctx, lead))?;
            status.nt_store_u64_at(DP_MEMBERS_OFF, group.len() as u64)?;
            let created = self
                .create_in_headroom(&data_name, layout.total_len(), STATUS_ROOM)
                .ok()
                .flatten();
            match created {
                Some(obj) => {
                    let zeros = vec![0u8; layout.control_len()];
                    obj.write_flush_at(0, &zeros)?;
                    clock.advance(
                        self.cost
                            .coherent_write(layout.control_len(), self.coherence)
                            + 2.0 * nt,
                    );
                    store_stamped(&status, 0, DP_WINDOW_OK, clock.now())?;
                    (status, Some(obj))
                }
                None => {
                    // No room: announce the failure and run ring-only.
                    clock.advance(2.0 * nt);
                    store_stamped(&status, 0, DP_WINDOW_FAIL, clock.now())?;
                    (status, None)
                }
            }
        } else {
            let status = open_poisoned(&self.arena, &status_name, &self.poison)?;
            let key = window_key(ctx, lead);
            // No reason holds that the lead cannot need this rank: it goes
            // from the collective that agreed on `ctx` to its verdict without
            // a wait, but a lap of that collective may drive a started send
            // of its own committed to this rank, which drains nothing here.
            debug_assert!(self.held_back.is_none(), "line held back");
            let verdict = block_until(WaitSite::Flag, &self.poison, || {
                Ok(verdict_of(&status, key)?.into())
            })?;
            let ts = f64::from_bits(status.nt_load_u64_at(SLOT_CELL_TS_OFF as u64)?);
            clock.merge(ts);
            clock.advance(2.0 * nt);
            if verdict == DP_WINDOW_OK {
                let obj = open_poisoned(&self.arena, &data_name, &self.poison)?;
                (status, Some(obj))
            } else {
                (status, None)
            }
        };
        let state = match state {
            Some(obj) => {
                self.counters.data_plane.window_setups.add(1);
                Some(DpState::new(obj, layout, group, my_idx))
            }
            None => {
                self.counters.data_plane.window_failures.add(1);
                None
            }
        };
        let status = Some(status);
        self.dp.insert(ctx, DpEntry { status, state });
        Ok(self.dp_window(ctx))
    }

    fn headroom_drawn(&self) -> Result<Option<u64>> {
        Ok(Some(self.ledger.nt_load_u64_at(self.drawn_at())?))
    }

    fn dp_window(&self, ctx: CtxId) -> Option<DpWindow> {
        let layout = self.dp.get(&ctx)?.state.as_ref()?.layout;
        // Plans are priced with the crowd every member assumes, not with this
        // rank's live hint: two members that priced differently would build
        // plans that do not fit together.
        let cost = DpCost {
            pairs: self.default_pairs(),
            ..self.dp_cost()
        };
        Some(DpWindow {
            slot_bytes: layout.slot_bytes(),
            ranks: layout.ranks(),
            cost,
        })
    }

    fn dp_claim(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        seq: u32,
        readers: DpReaders,
    ) -> Result<bool> {
        self.store_held_back(clock, Some(ctx))?;
        self.dp_claim_for(clock, ctx, seq, readers, &[])
    }

    fn dp_expose(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        seq: u32,
        phase: u8,
        pieces: &[DpPiece],
        buf: &[u8],
        readers: DpReaders,
    ) -> Result<bool> {
        self.store_held_back(clock, Some(ctx))?;
        // An empty exposure is only its sequence value: it must not overwrite
        // a held flag line, but has nothing to hold itself.
        let writable = if pieces.is_empty() {
            self.dp_free_slot(clock, ctx, seq)?
        } else {
            self.dp_claim_for(clock, ctx, seq, readers, pieces)?
        };
        if !writable {
            return Ok(false);
        }
        // The completion line held back rides a stamped exposure; ahead of a
        // slot one it would show only once the whole payload is out, so it
        // goes first, by itself.
        let joined = self.held_back.is_some() && stamped_only(pieces);
        match joined {
            true => self.held_back = None,
            false => self.store_held_back(clock, None)?,
        }
        let cost = self.dp_cost();
        let state = self.dp.get_mut(&ctx).and_then(|e| e.state.as_mut());
        let state = state.expect("data-plane window vanished between two lookups");
        let slot = seq as usize % state.layout.slots();
        // Publish entry (slot claimed, nothing written yet): the
        // fault-injection point for data-plane publishes — once per
        // exposure, however many pieces it gathers.
        if let Some(f) = self.fault.as_mut() {
            f.on_publish()?;
        }
        // One streamed publish — one NT store stream over every byte the
        // pieces put into the slot, one fence; the stores bypass the cache,
        // so there is no line to flush — for *all* readers, then the flag
        // line unless every piece validates itself. This is the whole point
        // of the single-copy path: no per-chunk headers, no per-message
        // software overhead. A joined completion line is one more line of
        // the stream, stored first.
        clock.advance(match joined {
            true => cost.expose_joined(pieces),
            false => cost.expose(pieces),
        });
        let ts = clock.now();
        let stamp = stamp_word(ts, state.shows_done(seq));
        if joined {
            let done = state.next_done_off(state.done_through);
            store_stamped(&state.obj, done, state.done_through, ts)?;
            self.counters.completions.completions_joined.add(1);
        }
        let slot_off = state.layout.data_off(state.my_idx, slot);
        let mut in_flag: &[u8] = &[];
        let mut bytes = 0;
        for piece in pieces {
            let data = &buf[piece.start..piece.end];
            let at = slot_off + piece.region_off;
            debug_assert!(
                piece.region_off + piece.format.footprint(data.len()) <= state.layout.slot_bytes()
            );
            match piece.format {
                DpFormat::Stamped { in_row: true } => in_flag = data,
                DpFormat::Stamped { in_row: false } => {
                    let awaited = Awaited::line_of(seq, false);
                    store_lines(&state.obj, at, awaited, stamp, data, &mut state.stage)?;
                }
                DpFormat::Slot => state.obj.nt_store_at(at as u64, data)?,
            }
            bytes += data.len();
        }
        if raises_flag(pieces) {
            let flag = state.layout.flag_off(state.my_idx, slot, phase as usize);
            let awaited = Awaited::line_of(seq, true);
            store_lines(&state.obj, flag, awaited, stamp, in_flag, &mut state.stage)?;
        }
        if !pieces.is_empty() && stamped_only(pieces) {
            self.counters.data_plane.stamped_exposes.add(1);
        }
        self.counters.data_plane.expose_ops.add(1);
        self.counters.data_plane.bytes_exposed.add(bytes as u64);
        Ok(true)
    }

    fn dp_begin(&mut self, ctx: CtxId, seq: u32, reads: bool, writes: bool) {
        if let Some(DpEntry {
            state: Some(state), ..
        }) = self.dp.get_mut(&ctx)
        {
            if reads {
                state.begin_reading(seq);
            }
            if writes && !state.writing.contains(&seq) {
                state.writing.push(seq);
            }
        }
    }

    fn dp_await_row(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        seq: u32,
        phase: u8,
        writers: Range<usize>,
        reads: &mut dyn Iterator<Item = (DpSource, usize)>,
    ) -> Result<bool> {
        // A run may wait: whatever line this rank holds back goes out first.
        self.store_held_back(clock, None)?;
        let cost = self.dp_cost();
        let Some(DpEntry {
            state: Some(state), ..
        }) = self.dp.get_mut(&ctx)
        else {
            return no_data_plane();
        };
        let (first, lines) = (writers.start, writers.len());
        let slot = seq as usize % state.layout.slots();
        // Whatever the lines held, a poll starts from nothing.
        state.row_of = None;
        let mut stamp = f64::NEG_INFINITY;
        let mut awaited = 0;
        if lines > 0 {
            // One load of the span, in ascending word order: every line's
            // value comes in before its stamp and payload, so a value that is
            // up vouches for both (the writer stored them the other way
            // round).
            let at = state.layout.flag_off(first, slot, phase as usize) as u64;
            let span = &mut state.row[..lines * SLOT_CELL_SIZE];
            state.obj.nt_load_at(at, span)?;
            let flag = LineWords::all(Awaited::line_of(seq, true));
            for writer in writers.clone().filter(|&w| w != state.my_idx) {
                let line = &mut span[(writer - first) * SLOT_CELL_SIZE..][..SLOT_CELL_SIZE];
                let Some(ts) = load_lines(line, flag, 0, &mut []) else {
                    // A flag not up yet: a failed poll costs nothing, however
                    // many of the others are (same as the PSCW spin idiom).
                    return Ok(false);
                };
                stamp = stamp.max(ts);
                awaited += 1;
            }
        }
        // The lines of every stamped exposure the run reads out of a data
        // slot, all or none of them: one image per read, its first line and
        // the lines of its bytes.
        state.lines.clear();
        state.images.clear();
        state.taken = 0;
        for (src, len) in reads.filter(|(src, _)| !src.format.in_row()) {
            let at = state.layout.data_off(src.writer_idx, slot) + src.region;
            let lo = state.lines.len();
            state.lines.resize(lo + src.slot_bytes(len), 0);
            let image = &mut state.lines[lo..];
            let (head, rest) = image.split_at_mut(SLOT_CELL_SIZE);
            state.obj.nt_load_at(at as u64, head)?;
            let awaited = Awaited::line_of(seq, false);
            if !awaited.shown_by(read_u64(head, 0)) {
                // Its writer has not stored the line yet: the others need
                // not be loaded to fail this poll.
                return Ok(false);
            }
            let span = stamped_span(src.off, len);
            state
                .obj
                .nt_load_at((at + span.start * SLOT_CELL_SIZE) as u64, rest)?;
            let Some(ts) = load_lines(image, LineWords::all(awaited), 0, &mut []) else {
                return Ok(false);
            };
            stamp = stamp.max(ts);
            state.images.push((src, lo..state.lines.len()));
        }
        clock.merge(stamp);
        clock.advance(cost.row(lines));
        state.row_of = Some(RowTag {
            seq,
            phase,
            writers: (writers.start, writers.end),
        });
        state.run = cost.run(lines);
        let stats = &self.counters.data_plane;
        stats.pull_ops.add(awaited + state.images.len() as u64);
        stats.row_reads.add(u64::from(lines > 0));
        Ok(true)
    }

    fn dp_pull(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        seq: u32,
        src: DpSource,
        buf: &mut [u8],
    ) -> Result<()> {
        self.store_held_back(clock, Some(ctx))?;
        let cost = self.dp_cost();
        let Some(DpEntry {
            state: Some(state), ..
        }) = self.dp.get_mut(&ctx)
        else {
            return no_data_plane();
        };
        let missing = || {
            MpiError::Transport(format!(
                "read of collective {seq}, phase {}, writer {} without its run",
                src.phase, src.writer_idx
            ))
        };
        let awaited = LineWords::all(Awaited::line_of(seq, src.format.in_row())).checked();
        let lines = state.run_lines(seq, &src, buf.len()).ok_or_else(missing)?;
        let payload: &mut [u8] = match src.format {
            DpFormat::Slot => &mut [],
            DpFormat::Stamped { .. } => &mut *buf,
        };
        if load_lines(lines, awaited, src.off, payload).is_none() {
            return Err(MpiError::Transport(format!(
                "read of collective {seq} out of writer {}'s lines that its run did not check",
                src.writer_idx
            )));
        }
        // An exposure this rank reads holds its slot until this rank is done
        // with it, so what its first line says is its own writer's — unlike a
        // row's flag line, which a later barrier's arrival may overwrite.
        if shown_done(lines) {
            let shown = &mut state.shown[src.writer_idx];
            *shown = (*shown).max(u64::from(seq));
        }
        state.last_read[src.writer_idx] = Some(seq);
        let from_slot = src.slot_bytes(buf.len());
        if src.format == DpFormat::Slot {
            // A streamed read: load fence, then NT loads straight from the
            // device — the slot was written with NT stores, so neither host
            // holds a cached copy of its lines, and none is left behind.
            let layout = &state.layout;
            debug_assert!(src.region + src.off + buf.len() <= layout.slot_bytes());
            let slot = seq as usize % layout.slots();
            let at = layout.data_off(src.writer_idx, slot) + src.region + src.off;
            state.obj.nt_load_fenced_at(at as u64, buf)?;
        }
        if from_slot > 0 {
            // The fence and the latency are the run's: the slots of one run
            // are written by different ranks and no load of one depends on
            // another's.
            let same_host = self.host_of[state.group[src.writer_idx]] == self.host_of[self.rank];
            clock.advance(cost.gather_piece(&mut state.run, from_slot, same_host));
        }
        if src.last {
            // Completion entry: killing here is the classic reader-death
            // wedge — every writer's slot would wait on this line forever if
            // a recorded-dead rank did not count as done.
            if let Some(f) = self.fault.as_mut() {
                f.on_ack()?;
            }
            // The new done-through value is held back for the next exposure
            // (one already held back on this window now says it too).
            if state.finish_reading(seq).is_some() {
                self.held_back = Some(ctx);
            }
        }
        self.counters.data_plane.bytes_pulled.add(buf.len() as u64);
        Ok(())
    }

    fn dp_settle(&mut self, clock: &mut SimClock, ctx: CtxId) -> Result<()> {
        if self.held_back == Some(ctx) {
            self.store_held_back(clock, None)?;
        }
        let state = self.dp.get(&ctx).and_then(|e| e.state.as_ref());
        if state.is_some_and(|s| !s.reading.is_empty() || !s.writing.is_empty()) {
            // A collective started on it is still in flight: the window
            // stays, and this member keeps counting as holding it.
            return Ok(());
        }
        let Some(DpEntry {
            status: Some(mut status),
            state,
        }) = self.dp.remove(&ctx)
        else {
            return Ok(());
        };
        // One RMW; the last member out frees what the window's creation drew.
        if status.nt_fetch_add_u64_at(DP_MEMBERS_OFF, 1u64.wrapping_neg())? != 1 {
            return Ok(());
        }
        let mut drawn = align_alloc_size(STATUS_BYTES);
        if let Some(mut state) = state {
            drawn += align_alloc_size(state.layout.total_len());
            self.arena.destroy(&mut state.obj)?;
        }
        self.arena.destroy(&mut status)?;
        self.refund_headroom(drawn as u64)
    }

    fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.fault = Some(injector);
    }

    fn set_concurrency_hint(&mut self, pairs: usize) {
        self.active_pairs = pairs.max(1);
    }

    fn concurrency_hint(&self) -> usize {
        self.active_pairs
    }

    fn label(&self) -> &'static str {
        "CXL-SHM"
    }

    fn poison(&self) -> &PoisonFlag {
        &self.poison
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_completion_line_keeps_the_stamp_of_the_store_that_first_reached_what_is_owed() {
        // A reader's last four stores — through 3, 5, 6 and 9, the newest
        // wrapped onto entry 0 — at stamps ten times their values.
        let mut line = [0u8; SLOT_CELL_SIZE];
        for (entry, value) in [9u64, 3, 5, 6].into_iter().enumerate() {
            let at = entry * SLOT_DONE_ENTRY;
            line[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let ts = (10.0 * value as f64).to_bits();
            line[at + SLOT_CELL_TS_OFF..at + SLOT_DONE_ENTRY].copy_from_slice(&ts.to_le_bytes());
        }
        // Owed 4: the store through 5 ended that wait, however far the reader
        // has run ahead since.
        assert_eq!(reached(&line, 4, 4), Some(50.0));
        assert_eq!(reached(&line, 4, 3), Some(30.0));
        assert_eq!(reached(&line, 4, 9), Some(90.0));
        assert_eq!(reached(&line, 4, 10), None);
        // A line nobody has stored to shows nothing.
        assert_eq!(reached(&[0; SLOT_CELL_SIZE], 4, 1), None);
    }

    /// An object of `lines` lines in an arena of its own.
    fn lines_object(lines: usize) -> ShmObject {
        use cxl_shm::{ArenaConfig, CxlView, DaxDevice, HostCache};
        let dev = DaxDevice::with_alignment("stamped-lines", 4 * 1024 * 1024, 4096).unwrap();
        let view = CxlView::new(dev, HostCache::with_capacity("host", 1024));
        let arena = CxlShmArena::init(view, ArenaConfig::small()).unwrap();
        arena.create("lines", lines * SLOT_CELL_SIZE).unwrap()
    }

    /// A reader's image of bytes `off..off + len` of the stamped exposure at
    /// the head of `obj`: its first line, then the lines of the range.
    fn image_of(obj: &ShmObject, off: usize, len: usize) -> Vec<u8> {
        let span = stamped_span(off, len);
        let mut image = vec![0; (1 + span.len()) * SLOT_CELL_SIZE];
        let (head, rest) = image.split_at_mut(SLOT_CELL_SIZE);
        obj.nt_load_at(0, head).unwrap();
        obj.nt_load_at((span.start * SLOT_CELL_SIZE) as u64, rest)
            .unwrap();
        image
    }

    const SEQ: u32 = 41;

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn stamped_lines_come_back_whole_from_any_range() {
        let obj = lines_object(8);
        let awaited = Awaited::line_of(SEQ, false);
        let data = payload(300);
        store_lines(&obj, 0, awaited, 123.5, &data, &mut Vec::new()).unwrap();
        // From the first line, across a line boundary, and — past the first
        // line — still with the stamp the first line carries.
        for (off, len) in [(0, 300), (0, 48), (40, 16), (200, 100), (299, 1)] {
            let mut out = vec![0; len];
            let stamp = load_lines(
                &mut image_of(&obj, off, len),
                LineWords::all(awaited),
                off,
                &mut out,
            );
            assert_eq!(stamp, Some(123.5), "{off}+{len}");
            assert_eq!(out, data[off..off + len], "{off}+{len}");
        }
    }

    #[test]
    fn an_exposure_with_one_line_behind_is_not_ready() {
        let obj = lines_object(8);
        let (old, new) = (
            Awaited::line_of(SEQ - 4, false),
            Awaited::line_of(SEQ, false),
        );
        store_lines(&obj, 0, old, 1.0, &payload(300), &mut Vec::new()).unwrap();
        store_lines(&obj, 0, new, 2.0, &payload(250), &mut Vec::new()).unwrap();
        // 250 bytes end in line 4; line 5 still carries the older exposure,
        // which a read that reaches it must not take for this one.
        let mut out = vec![0; 300];
        assert_eq!(
            load_lines(
                &mut image_of(&obj, 0, 300),
                LineWords::all(new),
                0,
                &mut out
            ),
            None
        );
        assert!(out.iter().all(|&b| b == 0));
        assert_eq!(
            load_lines(
                &mut image_of(&obj, 0, 250),
                LineWords::all(new),
                0,
                &mut out[..250]
            ),
            Some(2.0)
        );
        // Nor is a line that once held a payload word: only the word awaited
        // will do in a data slot.
        let stray = lines_object(2);
        stray.nt_store_u64_at(0, u64::MAX - 1).unwrap();
        stray.nt_store_u64_at(64, new.word() + 1).unwrap();
        assert_eq!(
            load_lines(
                &mut image_of(&stray, 0, 60),
                LineWords::all(new),
                0,
                &mut out[..60]
            ),
            None
        );
    }

    #[test]
    fn a_torn_exposure_never_reaches_the_callers_buffer() {
        // The writer has stored lines 1 and 2 of three — payload and word —
        // and not yet line 0: every byte a read would take is there, and the
        // read takes none of them.
        let obj = lines_object(4);
        let awaited = Awaited::line_of(SEQ, false);
        let data = payload(150);
        store_lines(&obj, 0, awaited, 9.0, &data, &mut Vec::new()).unwrap();
        obj.nt_store_u64_at(0, 0).unwrap();
        let mut out = vec![0xAA; 100];
        assert_eq!(
            load_lines(
                &mut image_of(&obj, 50, 100),
                LineWords::all(awaited),
                50,
                &mut out
            ),
            None
        );
        assert!(out.iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn a_flag_line_is_the_one_line_case() {
        // The row's stamped line: up once its value reaches the collective's,
        // even after a later one overwrote it — a barrier's arrival says
        // "arrived" for good.
        let obj = lines_object(1);
        let awaited = Awaited::line_of(SEQ, true);
        store_lines(&obj, 0, awaited, 5.0, b"eight by", &mut Vec::new()).unwrap();
        let mut out = [0; 8];
        assert_eq!(
            load_lines(
                &mut image_of(&obj, 0, 8),
                LineWords::all(awaited),
                0,
                &mut out
            ),
            Some(5.0)
        );
        assert_eq!(&out, b"eight by");
        let later = Awaited::line_of(SEQ + 4, true);
        store_lines(&obj, 0, later, 6.0, &[], &mut Vec::new()).unwrap();
        assert!(load_lines(
            &mut image_of(&obj, 0, 0),
            LineWords::all(awaited),
            0,
            &mut []
        )
        .is_some());
        let ahead = Awaited::line_of(SEQ + 5, true);
        assert!(load_lines(&mut image_of(&obj, 0, 0), LineWords::all(ahead), 0, &mut []).is_none());
    }

    /// Broadcasts #0 and #4 share a slot of four. A reader that started #0
    /// (announced, never driven) and then finished #1 to #7 — #4 announced
    /// too, the rest blocking — must keep its completion line at 0: a writer
    /// knows only the slot, and a line past 4 would vouch for #0, unread, and
    /// free the slot for #8. Once #0 is read the line covers everything
    /// through #7; a later announced collective still open stops it there.
    #[test]
    fn a_completion_line_covers_only_the_contiguous_prefix_of_what_was_read() {
        let layout = SlotLayout::new(3, DP_SLOTS, 4096);
        let mut state = DpState::new(lines_object(8), layout, &[0, 1, 2], 2);
        assert_eq!(DP_SLOTS, 4, "the script below counts slots");
        state.begin_reading(0);
        state.begin_reading(4);
        for seq in 1..8 {
            assert_eq!(state.finish_reading(seq), None, "#{seq} finished, #0 open");
            assert_eq!(state.done_through, 0);
        }
        state.begin_reading(8);
        assert_eq!(state.finish_reading(0), Some(8));
        assert_eq!(state.finish_reading(9), None, "#9 finished, #8 open");
        assert_eq!(state.finish_reading(8), Some(10));
        assert_eq!(state.done_through, 10);
    }

    /// Once a collective is started and unread, no exposure says its writer
    /// is done — not even one of a later or an earlier sequence number — until
    /// the started one is read: when it would be read depends on how far the
    /// host scheduler let it run.
    #[test]
    fn a_started_collectives_exposure_never_says_done() {
        let layout = SlotLayout::new(3, DP_SLOTS, 4096);
        let mut state = DpState::new(lines_object(8), layout, &[0, 1, 2], 2);
        for seq in 0..4 {
            state.finish_reading(seq);
        }
        assert!(state.shows_done(4));
        assert!(!state.shows_done(5), "#4 is not read yet");
        state.begin_reading(4);
        for seq in [3, 4, 5, 9] {
            assert!(!state.shows_done(seq), "#{seq} exposed while #4 is started");
        }
        assert_eq!(state.finish_reading(5), None);
        assert!(!state.shows_done(6));
        assert_eq!(state.finish_reading(4), Some(6));
        assert!(state.shows_done(6));
    }

    /// What an exposure says rides the sign of its stamp word: the stamp
    /// comes back as stored, the clock at 0 included.
    #[test]
    fn an_exposure_says_done_in_its_stamp_word_and_keeps_its_stamp() {
        for (ts, done) in [(0.0, true), (0.0, false), (1234.5, true), (1234.5, false)] {
            let mut image = Vec::new();
            let words = LineWords::all(Awaited::line_of(7, false));
            words.compose(&mut image, stamp_word(ts, done), &[&[5u8; 60]]);
            assert_eq!(shown_done(&image), done, "{ts}, {done}");
            let mut out = [0u8; 60];
            assert_eq!(load_lines(&mut image, words, 0, &mut out), Some(ts));
            assert_eq!(out, [5u8; 60]);
        }
    }

    /// Member 2 of 3 frees its slot of #4 — read by both others — once both
    /// have shown done past #4, not at #4: member 0 having exposed #4 with
    /// the fact says only that it had finished what came before.
    #[test]
    fn a_slot_is_freed_once_every_reader_showed_done_past_its_occupant() {
        let layout = SlotLayout::new(3, DP_SLOTS, 4096);
        let mut state = DpState::new(lines_object(8), layout, &[0, 1, 2], 2);
        state.occupy(4, DpReaders::Others, &[], &[0, 0, 0]);
        state.occupy(5, DpReaders::One(1), &[], &[0, 0, 0]);
        state.shown = vec![4, 6, 0];
        assert_eq!(state.release_shown(8), 1, "#5 is member 1's alone");
        assert_eq!(state.held[4 % DP_SLOTS], Some(4));
        state.shown[0] = 5;
        // Not for a collective that is not earlier than the exposure.
        assert_eq!(state.release_shown(4), 0);
        assert_eq!(state.release_shown(8), 1);
        assert!(state.held.iter().all(Option::is_none));
    }

    /// A status object over freed bytes that hold another window's verdict
    /// shows no verdict until its lead has cleared the word and named it.
    #[test]
    fn a_verdict_counts_only_for_the_window_it_names() {
        let status = lines_object(1);
        let (old, new) = (window_key(7, 0), window_key(9, 0));
        store_stamped(&status, 0, DP_WINDOW_OK, 1.0).unwrap();
        status.nt_store_u64_at(DP_KEY_OFF, old).unwrap();
        assert_eq!(verdict_of(&status, new).unwrap(), None);
        // The lead's order: clear, name, verdict.
        status.nt_store_u64_at(0, 0).unwrap();
        status.nt_store_u64_at(DP_KEY_OFF, new).unwrap();
        assert_eq!(verdict_of(&status, new).unwrap(), None);
        store_stamped(&status, 0, DP_WINDOW_FAIL, 2.0).unwrap();
        assert_eq!(verdict_of(&status, new).unwrap(), Some(DP_WINDOW_FAIL));
        assert_eq!(verdict_of(&status, old).unwrap(), None);
    }

    /// Member 2 of 3 read member 0's exposure in collective #11, then ran
    /// ahead through #12..#16, which only member 1 wrote to it: its line
    /// still holds the store that first showed #11 done, for member 0's
    /// sweep, however late that comes; the other entries take the newer
    /// stores in turn.
    #[test]
    fn a_completion_entry_a_writer_may_still_ask_for_outlives_the_readers_lead() {
        let layout = SlotLayout::new(3, DP_SLOTS, 64);
        let lines = layout.total_len().div_ceil(SLOT_CELL_SIZE);
        let mut state = DpState::new(lines_object(lines), layout, &[0, 1, 2], 2);
        let store = |state: &mut DpState, value: u64| {
            let off = state.next_done_off(value);
            store_stamped(&state.obj, off, value, value as f64).unwrap();
        };
        state.last_read[0] = Some(11);
        store(&mut state, 12);
        for seq in 12..17 {
            state.last_read[1] = Some(seq);
            store(&mut state, u64::from(seq) + 1);
        }
        let mut line = vec![0; SLOT_CELL_SIZE];
        let at = state.layout.done_off(2, 0) as u64;
        state.obj.nt_load_at(at, &mut line).unwrap();
        let entries = state.layout.done_entries();
        assert_eq!(reached(&line, entries, 12), Some(12.0));
        assert_eq!(reached(&line, entries, 16), Some(16.0));
        assert_eq!(reached(&line, entries, 17), Some(17.0));
        assert_eq!(reached(&line, entries, 18), None);
    }

    #[test]
    fn a_read_takes_only_lines_its_run_checked() {
        let obj = lines_object(4);
        let awaited = Awaited::line_of(SEQ, false);
        store_lines(&obj, 0, awaited, 1.0, &payload(150), &mut Vec::new()).unwrap();
        let mut image = image_of(&obj, 0, 150);
        let mut out = vec![0; 150];
        if cfg!(debug_assertions) {
            // A copy the run's acquire did not check first fails.
            assert_eq!(
                load_lines(
                    &mut image.clone(),
                    LineWords::all(awaited.checked()),
                    0,
                    &mut out
                ),
                None
            );
        }
        assert!(load_lines(&mut image, LineWords::all(awaited), 0, &mut []).is_some());
        assert_eq!(
            load_lines(&mut image, LineWords::all(awaited.checked()), 0, &mut out),
            Some(1.0)
        );
        assert_eq!(out, payload(150));
    }
}
