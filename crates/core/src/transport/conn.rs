//! Lazy sparse connection state for the CXL transport.
//!
//! The original transport carved a full `ranks × ranks` queue matrix out of
//! the pool at universe construction and swept every sender ring on every
//! poll — O(n²) device memory and O(n) per-poll cost, which is what stopped
//! the simulated universe well short of 1024 ranks. This module replaces the
//! matrix with per-rank sparse state, established on first use:
//!
//! * a **doorbell** per receiver — an atomic bitmap (one word per group of 64
//!   senders, plus a summary word once there is more than one group) that a
//!   sender rings once per message it puts on a promoted pair, so the
//!   receiver's poll visits exactly the senders that have data (one
//!   non-temporal load when idle);
//! * a **shared receive queue** (SRQ) per receiver — a multi-producer ticket
//!   ring of message cells ([`crate::queue::CellHeader`] + payload) carrying
//!   all traffic from peers that have not (yet) been promoted, so a pair that
//!   exchanges two messages never pays for a private object;
//! * one **message stream** per promoted pair and direction ([`Stream`]),
//!   created by the sender once the pair crosses
//!   [`crate::config::CxlShmTransportConfig::promotion_threshold`] messages
//!   and bounded per rank by
//!   [`crate::config::CxlShmTransportConfig::qp_budget`] — per-rank transport
//!   memory is O(active peers), never O(n). Every message of the pair rides
//!   it: the frame and a payload of at most [`STREAM_INLINE`] bytes in one flag
//!   line, a payload up to one slot as one non-temporal stream plus the flag
//!   line, anything longer as further frame-less segments. There are no
//!   head/tail words: each flag line carries its own sequence stamp, and the
//!   reader hands slots back through stamped done entries, half a lap at a
//!   time.
//!
//! ### The atomics deviation
//!
//! The paper's platform has no cross-host atomic read-modify-writes, which is
//! why the *data path* (streams, the eager rings, barriers, RMA flags) uses
//! only single-writer loads and stores. The doorbell bitmap and the SRQ ticket
//! counter are the deliberate exception: they model the back-invalidate
//! atomics of CXL 3.0 devices (`cxl_shm::SharedSegment::fetch_or_u64`
//! documents this), carry no payload bytes, and are the only multi-writer
//! words in the system.
//!
//! ### Ordering across promotion
//!
//! A sender funnels its first messages through the peer's SRQ. Promotion to a
//! stream is **opportunistic**: it only happens at a message entry where the
//! receiver has already consumed every SRQ ticket this sender published
//! (`head > last_ticket`). The switch therefore never lets a stream message
//! overtake an SRQ message from the same sender — MPI's non-overtaking
//! guarantee holds without sequence numbers, and no send path ever blocks
//! waiting for the drain (it just stays on the SRQ one more message).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cmpi_fabric::SimClock;
use cxl_shm::slots::{SLOT_CELL_DATA_OFF, SLOT_CELL_INLINE};
use cxl_shm::{CxlShmArena, ShmObject, SlotLayout};

use crate::config::CxlShmTransportConfig;
use crate::counters::RankCounters;
use crate::error::MpiError;
use crate::queue::{CellHeader, QueueGeometry, CELL_HEADER_SIZE};
use crate::spin::PoisonFlag;
use crate::transport::cxl::{load_stamped, open_poisoned, spin_flag, store_stamped};
use crate::types::{CtxId, Rank, Tag};
use crate::Result;

/// Ready magic published at the tail of every lazily created connection
/// object (doorbell, SRQ, stream) once it is formatted, so an opener racing
/// the creator never observes stale bytes from recycled pool memory.
const CONN_READY_MAGIC: u64 = 0x434f_4e4e_5f52_4459; // "CONN_RDY"

/// Per-object sizing slack accounted when provisioning the device: the ready
/// flag line plus allocator alignment headroom. Public so the bench harness
/// can reconstruct the sizing arithmetic for the analytic scaling cross-check.
pub const OBJ_SLACK: usize = 192;

/// SRQ control offsets: the consumer-owned head (+ its timestamp) on line 0,
/// the multi-producer ticket counter on line 1, slots from line 2.
const SRQ_HEAD: u64 = 0;
const SRQ_HEAD_TS: u64 = 8;
const SRQ_TICKET: u64 = 64;
const SRQ_SLOTS_BASE: u64 = 128;

/// Name of rank `r`'s doorbell object.
pub fn db_name(rank: Rank) -> String {
    format!("cmpi/db_{rank}")
}

/// Name of rank `r`'s shared receive queue object.
pub fn srq_name(rank: Rank) -> String {
    format!("cmpi/srq_{rank}")
}

/// Name of the stream carrying the promoted pair's `src → dst` traffic
/// (created and written by `src`, read by `dst`).
pub fn qp_name(dst: Rank, src: Rank) -> String {
    format!("cmpi/qp_{dst}_{src}")
}

// ---------------------------------------------------------------------------
// Doorbell
// ---------------------------------------------------------------------------

/// Byte stride between doorbell bitmap words: each 64-sender group word sits
/// on its own cache line, so senders in different groups never contend on a
/// line.
pub const DOORBELL_STRIDE: usize = 64;

/// A receiver's active-sender bitmap.
///
/// Group word `g` (at `DOORBELL_STRIDE × (1 + g)`) holds one bit per sender
/// in `[64g, 64g + 64)`. A world of at most 64 ranks is one group: senders
/// `fetch_or` that word and the receiver loads and swaps it. Larger worlds
/// add word 0 as a summary — bit `g` means group word `g` may hold rung
/// bits — rung group-then-summary and collected summary-then-groups, so a
/// ring can be observed twice (benign spurious wakeup) but never lost. With
/// a 64-bit summary the scheme addresses up to 4096 ranks.
#[derive(Debug, Clone)]
pub struct Doorbell {
    obj: ShmObject,
    groups: usize,
}

impl Doorbell {
    /// Bytes of the bitmap itself (summary + group words at
    /// [`DOORBELL_STRIDE`]), with the rank ceiling enforced.
    pub fn required_bytes(ranks: usize) -> Result<usize> {
        let groups = ranks.div_ceil(64);
        if groups > 64 {
            return Err(MpiError::Transport(format!(
                "doorbell bitmap addresses at most 4096 ranks, got {ranks}"
            )));
        }
        Ok(DOORBELL_STRIDE * (1 + groups))
    }

    /// Create, format and publish rank `owner`'s doorbell.
    pub fn create(arena: &CxlShmArena, owner: Rank, ranks: usize) -> Result<Self> {
        let bytes = Self::required_bytes(ranks)?;
        let obj = arena.create(&db_name(owner), bytes + 64)?;
        let db = Doorbell {
            obj,
            groups: ranks.div_ceil(64),
        };
        db.obj.nt_store_u64_at(0, 0)?;
        for g in 0..db.groups {
            db.obj.nt_store_u64_at(db.group_off(g), 0)?;
        }
        db.obj.nt_store_u64_at(bytes as u64, CONN_READY_MAGIC)?;
        Ok(db)
    }

    /// Open rank `owner`'s doorbell (waiting for creation + format).
    pub fn open(
        arena: &CxlShmArena,
        owner: Rank,
        ranks: usize,
        poison: &PoisonFlag,
    ) -> Result<Self> {
        let bytes = Self::required_bytes(ranks)?;
        let obj = open_poisoned(arena, &db_name(owner), poison)?;
        spin_flag(&obj, bytes as u64, poison, |v| v == CONN_READY_MAGIC)?;
        Ok(Doorbell {
            obj,
            groups: ranks.div_ceil(64),
        })
    }

    fn group_off(&self, g: usize) -> u64 {
        (DOORBELL_STRIDE * (1 + g)) as u64
    }

    /// Sender side: mark `sender` as having unconsumed data; returns how many
    /// words that took. Group bit first, then (past one group) the summary
    /// bit — the collect order (summary swap, then group swaps) makes that
    /// publication order lost-wakeup free.
    pub fn ring(&self, sender: Rank) -> Result<usize> {
        let g = sender / 64;
        debug_assert!(g < self.groups);
        self.obj
            .nt_fetch_or_u64_at(self.group_off(g), 1u64 << (sender % 64))?;
        if self.groups == 1 {
            return Ok(1);
        }
        self.obj.nt_fetch_or_u64_at(0, 1u64 << (g % 64))?;
        Ok(2)
    }

    /// Receiver side: drain every rung sender bit into `pending`. Costs a
    /// single non-temporal load when idle, regardless of world size — the
    /// property the scaling regression tests assert on.
    pub fn collect_into(&self, pending: &mut BTreeSet<Rank>) -> Result<usize> {
        // One group: its word is the whole bitmap, and stands in for the
        // summary (bit 0 set iff anything is rung).
        let top = if self.groups == 1 {
            self.group_off(0)
        } else {
            0
        };
        if self.obj.nt_load_u64_at(top)? == 0 {
            return Ok(0);
        }
        let mut summary = match self.groups {
            1 => 1,
            _ => self.obj.nt_swap_u64_at(0, 0)?,
        };
        let mut found = 0;
        while summary != 0 {
            let g = summary.trailing_zeros() as usize;
            summary &= summary - 1;
            if g >= self.groups {
                continue;
            }
            let mut word = self.obj.nt_swap_u64_at(self.group_off(g), 0)?;
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                pending.insert(g * 64 + b);
                found += 1;
            }
        }
        Ok(found)
    }
}

// ---------------------------------------------------------------------------
// Shared receive queue
// ---------------------------------------------------------------------------

/// Bytes of an SRQ ring (control lines + `cells` slots, each a seq-word line
/// plus one message cell of `geometry`).
pub fn srq_required_bytes(geometry: QueueGeometry, cells: usize) -> Result<usize> {
    geometry.checked_queue_bytes()?; // validates the cell arithmetic
    let slot = geometry
        .cell_bytes()
        .checked_add(64)
        .ok_or_else(|| MpiError::Transport("srq slot size overflows".into()))?;
    slot.checked_mul(cells)
        .and_then(|s| s.checked_add(SRQ_SLOTS_BASE as usize))
        .ok_or_else(|| {
            MpiError::Transport(format!(
                "shared receive queue of {cells} cells × {} payload bytes overflows — \
                 shrink srq_cells or cell_size",
                geometry.cell_payload
            ))
        })
}

fn srq_slot_bytes(geometry: QueueGeometry) -> u64 {
    64 + geometry.cell_bytes() as u64
}

/// Producer handle on a peer's SRQ: any rank may hold one; slots are claimed
/// with a compare-exchange on the ticket word, so a reservation is only ever
/// taken for a slot that is already free — producers never block each other.
#[derive(Debug, Clone)]
pub struct SrqProducer {
    obj: ShmObject,
    geometry: QueueGeometry,
    cells: u64,
}

impl SrqProducer {
    /// Open rank `owner`'s SRQ (waiting for creation + format).
    pub fn open(
        arena: &CxlShmArena,
        owner: Rank,
        geometry: QueueGeometry,
        cells: usize,
        poison: &PoisonFlag,
    ) -> Result<Self> {
        let bytes = srq_required_bytes(geometry, cells)?;
        let obj = open_poisoned(arena, &srq_name(owner), poison)?;
        spin_flag(&obj, bytes as u64, poison, |v| v == CONN_READY_MAGIC)?;
        Ok(SrqProducer {
            obj,
            geometry,
            cells: cells as u64,
        })
    }

    /// The consumer's published head (tickets consumed so far).
    pub fn head(&self) -> Result<u64> {
        Ok(self.obj.nt_load_u64_at(SRQ_HEAD)?)
    }

    /// Timestamp the consumer published when it last freed a slot.
    pub fn head_timestamp(&self) -> Result<f64> {
        Ok(f64::from_bits(self.obj.nt_load_u64_at(SRQ_HEAD_TS)?))
    }

    /// Whether the ring currently has a free slot (conservative: another
    /// producer may take it first; `try_enqueue` re-validates).
    pub fn has_space(&self) -> Result<bool> {
        let head = self.obj.nt_load_u64_at(SRQ_HEAD)?;
        let ticket = self.obj.nt_load_u64_at(SRQ_TICKET)?;
        Ok(ticket.wrapping_sub(head) < self.cells)
    }

    /// Try to publish one chunk: claim a ticket (compare-exchange loop that
    /// only succeeds for an already-free slot), write the cell, then flip the
    /// slot's seq word to `ticket + 1` as the ready marker. Returns the
    /// ticket, or `None` when the ring is full — without blocking, which is
    /// what keeps two ranks mid-send to each other's full SRQs deadlock-free.
    pub fn try_enqueue_with_scratch(
        &self,
        header: &CellHeader,
        payload: &[u8],
        scratch: &mut Vec<u8>,
    ) -> Result<Option<u64>> {
        if payload.len() > self.geometry.cell_payload {
            return Err(MpiError::Transport(format!(
                "chunk of {} bytes exceeds SRQ cell payload capacity {}",
                payload.len(),
                self.geometry.cell_payload
            )));
        }
        let head = self.obj.nt_load_u64_at(SRQ_HEAD)?;
        let ticket = loop {
            let ticket = self.obj.nt_load_u64_at(SRQ_TICKET)?;
            // `head` only grows, so a stale head can only under-report space:
            // a successful claim is always for a slot the consumer has fully
            // drained (`ticket - cells < head` ⇒ the slot's previous occupant
            // was consumed, and its stale seq word `ticket - cells + 1` can
            // never be mistaken for this ticket's ready marker).
            if ticket.wrapping_sub(head) >= self.cells {
                return Ok(None);
            }
            match self
                .obj
                .nt_compare_exchange_u64_at(SRQ_TICKET, ticket, ticket + 1)?
            {
                Ok(_) => break ticket,
                Err(_) => continue, // lost the race; someone else progressed
            }
        };
        let slot = SRQ_SLOTS_BASE + (ticket % self.cells) * srq_slot_bytes(self.geometry);
        scratch.clear();
        scratch.reserve(CELL_HEADER_SIZE + payload.len());
        scratch.extend_from_slice(&header.encode());
        scratch.extend_from_slice(payload);
        self.obj.write_flush_at(slot + 64, scratch)?;
        self.obj.nt_store_u64_at(slot, ticket + 1)?;
        Ok(Some(ticket))
    }
}

/// Consumer handle on this rank's own SRQ (exactly one per rank).
#[derive(Debug)]
pub struct SrqConsumer {
    obj: ShmObject,
    geometry: QueueGeometry,
    cells: u64,
}

impl SrqConsumer {
    /// Create, format and publish rank `owner`'s SRQ.
    pub fn create(
        arena: &CxlShmArena,
        owner: Rank,
        geometry: QueueGeometry,
        cells: usize,
    ) -> Result<Self> {
        let bytes = srq_required_bytes(geometry, cells)?;
        let obj = arena.create(&srq_name(owner), bytes + 64)?;
        let srq = SrqConsumer {
            obj,
            geometry,
            cells: cells as u64,
        };
        srq.obj.nt_store_u64_at(SRQ_HEAD, 0)?;
        srq.obj.nt_store_u64_at(SRQ_HEAD_TS, 0)?;
        srq.obj.nt_store_u64_at(SRQ_TICKET, 0)?;
        for slot in 0..srq.cells {
            srq.obj
                .nt_store_u64_at(SRQ_SLOTS_BASE + slot * srq_slot_bytes(geometry), 0)?;
        }
        srq.obj.nt_store_u64_at(bytes as u64, CONN_READY_MAGIC)?;
        Ok(srq)
    }

    fn head(&self) -> Result<u64> {
        Ok(self.obj.nt_load_u64_at(SRQ_HEAD)?)
    }

    fn slot_off(&self, ticket: u64) -> u64 {
        SRQ_SLOTS_BASE + (ticket % self.cells) * srq_slot_bytes(self.geometry)
    }

    /// Whether the next ticket in order has been published (two non-temporal
    /// loads when idle, independent of world size).
    pub fn has_message(&self) -> Result<bool> {
        let head = self.head()?;
        Ok(self.obj.nt_load_u64_at(self.slot_off(head))? == head + 1)
    }

    /// Read the next waiting cell's header without consuming it.
    pub fn peek_header(&self) -> Result<Option<CellHeader>> {
        let head = self.head()?;
        let slot = self.slot_off(head);
        if self.obj.nt_load_u64_at(slot)? != head + 1 {
            return Ok(None);
        }
        let mut hdr = [0u8; CELL_HEADER_SIZE];
        self.obj.read_coherent_at(slot + 64, &mut hdr)?;
        let header = CellHeader::decode(&hdr);
        self.check_geometry(&header)?;
        Ok(Some(header))
    }

    fn check_geometry(&self, header: &CellHeader) -> Result<()> {
        if header.chunk_len as usize > self.geometry.cell_payload {
            return Err(MpiError::Transport(format!(
                "corrupt SRQ cell: chunk_len {} exceeds capacity {}",
                header.chunk_len, self.geometry.cell_payload
            )));
        }
        Ok(())
    }

    /// Consume the next chunk in ticket order, copying its payload into
    /// `dst[..chunk_len]`. Publishes `now_ts` as the head timestamp so a
    /// producer waiting on a full ring can merge the consumer's clock.
    pub fn try_dequeue_into(&self, now_ts: f64, dst: &mut [u8]) -> Result<Option<CellHeader>> {
        let head = self.head()?;
        let slot = self.slot_off(head);
        if self.obj.nt_load_u64_at(slot)? != head + 1 {
            return Ok(None);
        }
        let mut hdr = [0u8; CELL_HEADER_SIZE];
        self.obj.read_coherent_at(slot + 64, &mut hdr)?;
        let header = CellHeader::decode(&hdr);
        self.check_geometry(&header)?;
        let len = header.chunk_len as usize;
        if len > dst.len() {
            return Err(MpiError::Transport(format!(
                "SRQ dequeue destination of {} bytes too small for {}-byte chunk",
                dst.len(),
                len
            )));
        }
        if len > 0 {
            self.obj
                .read_coherent_at(slot + 64 + CELL_HEADER_SIZE as u64, &mut dst[..len])?;
        }
        self.obj.nt_store_u64_at(SRQ_HEAD_TS, now_ts.to_bits())?;
        self.obj.nt_store_u64_at(SRQ_HEAD, head + 1)?;
        Ok(Some(header))
    }
}

// ---------------------------------------------------------------------------
// Message stream
// ---------------------------------------------------------------------------

/// Bytes of a message frame in its first segment's flag line: `ctx`, `tag`,
/// `total_len` (the source is the pair).
const FRAME_BYTES: usize = 16;

/// Largest payload that rides in the flag line beside its frame: such a
/// message is one line store on the sender and one line load on the receiver.
pub const STREAM_INLINE: usize = SLOT_CELL_INLINE - FRAME_BYTES;

/// One end of a promoted pair's per-direction message stream: a single-writer
/// [`SlotLayout`] window with the ring's geometry (`cells` slots of
/// `cell_payload` bytes) that carries every message of the pair, in order.
///
/// The two ends never share a counter. Each counts the segments it has
/// published (writer) or consumed (reader) since the stream was created;
/// segment `k` lives in slot `k % slots` and its flag line holds `k + 1` once
/// it is up. A message's first segment carries the frame in the flag line's
/// inline area — with the whole payload beside it when that is at most
/// [`STREAM_INLINE`] bytes, else with up to one slot of payload in the data
/// slot — and a longer message continues in frame-less segments: single
/// writer, FIFO, so the reader always knows which kind comes next. Slots are
/// handed back [`Stream::batch`] at a time: consuming the last segment of a
/// batch stores `k + 1` into that slot's done entry, and the writer looks at a
/// done entry only when it has used up the slots it knows free — it then waits
/// for exactly the entry that frees the next batch. Every cell pairs its value
/// with the storing side's virtual time, so whoever had to wait merges exactly
/// the stamp it waited for, once, however often the host let it retry.
#[derive(Debug)]
pub struct Stream {
    obj: ShmObject,
    layout: SlotLayout,
    /// The writing rank (the source of every message peeked here).
    src: Rank,
    /// Segments this end has published (writer) or consumed (reader).
    seq: u64,
    /// Writer: slots known free without looking at a done entry.
    credits: u64,
    /// Reader: the message whose first segment is consumed and whose rest is
    /// still to come — `(ctx, tag, total_len, received)`.
    open: Option<(CtxId, Tag, usize, usize)>,
}

impl Stream {
    fn layout(geometry: QueueGeometry) -> SlotLayout {
        SlotLayout::single_reader(geometry.cells, geometry.cell_payload)
    }

    /// Pool bytes one stream occupies, before the ready flag line that
    /// [`OBJ_SLACK`] accounts for. At the default 8 cells this is exactly the
    /// SPSC ring of the same geometry: a flag line per slot where the ring
    /// has a cell header, done entries where it has head and tail.
    pub fn required_bytes(geometry: QueueGeometry) -> Result<usize> {
        geometry.checked_queue_bytes()?; // validates the cell arithmetic
        Ok(Self::layout(geometry).total_len())
    }

    fn attach(obj: ShmObject, layout: SlotLayout, src: Rank) -> Self {
        Stream {
            obj,
            layout,
            src,
            seq: 0,
            credits: layout.slots() as u64,
            open: None,
        }
    }

    /// Create, format and publish the `src → dst` stream (writer side).
    pub fn create(
        arena: &CxlShmArena,
        dst: Rank,
        src: Rank,
        geometry: QueueGeometry,
    ) -> Result<Self> {
        let layout = Self::layout(geometry);
        if layout.slot_bytes() == 0 {
            return Err(MpiError::Transport(format!(
                "cell_size {} is below one cache line: no room for a stream slot",
                geometry.cell_payload
            )));
        }
        let obj = arena.create(&qp_name(dst, src), layout.total_len() + 64)?;
        for slot in 0..layout.slots() {
            obj.nt_store_u64_at(layout.flag_off(0, slot, 0) as u64, 0)?;
            obj.nt_store_u64_at(layout.done_off(0, slot) as u64, 0)?;
        }
        obj.nt_store_u64_at(layout.total_len() as u64, CONN_READY_MAGIC)?;
        Ok(Self::attach(obj, layout, src))
    }

    /// Open the `src → me` stream (reader side). A doorbell bit is only ever
    /// rung after the sender created, formatted and wrote the stream, so this
    /// never waits long.
    pub fn open(
        arena: &CxlShmArena,
        me: Rank,
        src: Rank,
        geometry: QueueGeometry,
        poison: &PoisonFlag,
    ) -> Result<Self> {
        let layout = Self::layout(geometry);
        let obj = open_poisoned(arena, &qp_name(me, src), poison)?;
        spin_flag(&obj, layout.total_len() as u64, poison, |v| {
            v == CONN_READY_MAGIC
        })?;
        Ok(Self::attach(obj, layout, src))
    }

    /// Payload bytes one segment carries (all but a message's last).
    pub fn segment_bytes(&self) -> usize {
        self.layout.slot_bytes()
    }

    /// Slots in the stream (segments that can be in flight at once).
    pub fn slots(&self) -> usize {
        self.layout.slots()
    }

    /// Segments this end has published (writer) or consumed (reader).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Segments handed back together: half a lap, so the writer fills one
    /// half while the reader drains the other (a lap of odd length is handed
    /// back slot by slot).
    pub fn batch(&self) -> u64 {
        match self.layout.slots() as u64 {
            slots if slots % 2 == 0 => slots / 2,
            _ => 1,
        }
    }

    fn slot(&self) -> usize {
        (self.seq % self.layout.slots() as u64) as usize
    }

    /// Writer: make sure the next segment has a slot. `Some(None)`: one is
    /// known free, no device access made. `Some(Some(ts))`: the writer had
    /// lapped, loaded the done entry that frees the next batch and found it
    /// stored at `ts` — the caller merges and pays for that one line. `None`:
    /// the reader has not handed the batch back yet; nothing to charge.
    pub fn reserve(&mut self) -> Result<Option<Option<f64>>> {
        if self.credits > 0 {
            return Ok(Some(None));
        }
        // Out of credits exactly one lap ahead of the last batch credited:
        // segment `seq` reuses the slot of `seq - slots`, the first of the
        // batch whose last hand-back stores `through`. That entry is not
        // stored again before this writer publishes past it, so the stamp
        // read here is the stamp of that very store.
        let slots = self.layout.slots() as u64;
        let through = self.seq - slots + self.batch();
        let entry = self.layout.done_off(0, ((through - 1) % slots) as usize);
        let freed = load_stamped(&self.obj, entry, through)?;
        if freed.is_some() {
            self.credits = self.batch();
        }
        Ok(freed.map(Some))
    }

    /// Writer: publish the next segment, stamped `ts` — with `frame`
    /// (`ctx`, `tag`, `total_len`) when it opens a message, whose payload then
    /// rides in the flag line if it fits; any other payload streams into the
    /// data slot with non-temporal stores before the flag goes up. The caller
    /// must have seen [`Stream::reserve`] return `Some`.
    pub fn publish(
        &mut self,
        frame: Option<(CtxId, Tag, usize)>,
        data: &[u8],
        ts: f64,
    ) -> Result<()> {
        debug_assert!(self.credits > 0 && data.len() <= self.layout.slot_bytes());
        let slot = self.slot();
        let flag = self.layout.flag_off(0, slot, 0);
        let inline = frame.is_some_and(|(.., total)| total <= STREAM_INLINE);
        if let Some((ctx, tag, total)) = frame {
            let mut line = [0u8; SLOT_CELL_INLINE];
            line[0..4].copy_from_slice(&ctx.to_le_bytes());
            line[4..8].copy_from_slice(&tag.to_le_bytes());
            line[8..16].copy_from_slice(&(total as u64).to_le_bytes());
            let mut end = FRAME_BYTES;
            if inline {
                end += data.len();
                line[FRAME_BYTES..end].copy_from_slice(data);
            }
            self.obj
                .nt_store_at((flag + SLOT_CELL_DATA_OFF) as u64, &line[..end])?;
        }
        if !inline {
            self.obj
                .nt_store_at(self.layout.data_off(0, slot) as u64, data)?;
        }
        store_stamped(&self.obj, flag, self.seq + 1, ts)?;
        self.seq += 1;
        self.credits -= 1;
        Ok(())
    }

    /// Reader: whether the next segment is up.
    pub fn has_segment(&self) -> Result<bool> {
        let flag = self.layout.flag_off(0, self.slot(), 0);
        Ok(self.obj.nt_load_u64_at(flag as u64)? > self.seq)
    }

    /// Reader: the next segment as a cell header — which message it belongs
    /// to, where in it the segment goes, and the writer's publish stamp — or
    /// `None` while it is not up. Consumes nothing.
    pub fn peek_header(&self) -> Result<Option<CellHeader>> {
        let flag = self.layout.flag_off(0, self.slot(), 0);
        let Some(timestamp) = load_stamped(&self.obj, flag, self.seq + 1)? else {
            return Ok(None);
        };
        let (ctx, tag, total, received) = match self.open {
            Some(open) => open,
            None => {
                let mut frame = [0u8; FRAME_BYTES];
                self.obj
                    .nt_load_at((flag + SLOT_CELL_DATA_OFF) as u64, &mut frame)?;
                let word = |at: usize| frame[at..at + 4].try_into().expect("4-byte field");
                let total = u64::from_le_bytes(frame[8..16].try_into().expect("8-byte field"));
                (
                    CtxId::from_le_bytes(word(0)),
                    Tag::from_le_bytes(word(4)),
                    total as usize,
                    0,
                )
            }
        };
        Ok(Some(CellHeader {
            src: self.src,
            ctx,
            tag,
            total_len: total as u64,
            chunk_offset: received as u64,
            chunk_len: (total - received).min(self.layout.slot_bytes()) as u32,
            timestamp,
        }))
    }

    /// Reader: whether the segment `h` (just peeked) carries its payload in
    /// the flag line.
    pub fn is_inline(&self, h: &CellHeader) -> bool {
        self.open.is_none() && h.total_len as usize <= STREAM_INLINE
    }

    /// Reader: whether consuming the next segment ends a batch, i.e. whether
    /// [`Stream::release`] will store a done entry.
    pub fn ends_batch(&self) -> bool {
        (self.seq + 1).is_multiple_of(self.batch())
    }

    /// Reader: copy the payload of the segment `h` (just peeked) into
    /// `dst[..h.chunk_len]`: out of the flag line, or — load fence, then
    /// non-temporal loads — out of the data slot.
    pub fn read(&self, h: &CellHeader, dst: &mut [u8]) -> Result<()> {
        let slot = self.slot();
        let dst = &mut dst[..h.chunk_len as usize];
        if self.is_inline(h) {
            let at = self.layout.flag_off(0, slot, 0) + SLOT_CELL_DATA_OFF + FRAME_BYTES;
            self.obj.nt_load_at(at as u64, dst)?;
        } else {
            self.obj
                .nt_load_fenced_at(self.layout.data_off(0, slot) as u64, dst)?;
        }
        Ok(())
    }

    /// Reader: done with the segment `h` (just read): move on, remember a
    /// message that continues, and — at the end of a batch — hand the batch's
    /// slots back, stamped `ts`.
    pub fn release(&mut self, h: &CellHeader, ts: f64) -> Result<()> {
        if self.ends_batch() {
            let done = self.layout.done_off(0, self.slot());
            store_stamped(&self.obj, done, self.seq + 1, ts)?;
        }
        self.seq += 1;
        let received = (h.chunk_offset + u64::from(h.chunk_len)) as usize;
        self.open = (received < h.total_len as usize).then_some((
            h.ctx,
            h.tag,
            h.total_len as usize,
            received,
        ));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Connection table
// ---------------------------------------------------------------------------

/// Send-side state toward one peer.
#[derive(Debug)]
pub struct TxPeer {
    /// The peer's doorbell (rung once per message put on the stream).
    pub db: Doorbell,
    /// Producer handle on the peer's SRQ (the cold path).
    pub srq: SrqProducer,
    /// The pair's stream once it is promoted.
    pub stream: Option<Stream>,
    /// Stream creation failed (pool exhausted): stay on the SRQ forever —
    /// correctness never depends on a successful promotion.
    pub srq_sticky: bool,
    /// Messages sent to this peer (drives promotion).
    pub msgs: u64,
    /// Last SRQ ticket published to this peer, if any — promotion waits
    /// (opportunistically) until the peer consumed past it.
    pub last_ticket: Option<u64>,
}

/// One rank's lazy sparse connection state: its own doorbell + SRQ, sparse
/// per-peer send state, sparse per-sender receive streams, and the pending set
/// the doorbell drains into.
#[derive(Debug)]
pub struct ConnTable {
    rank: Rank,
    ranks: usize,
    arena: CxlShmArena,
    geometry: QueueGeometry,
    qp_budget: usize,
    promotion_threshold: u64,
    srq_cells: usize,
    /// This rank's own doorbell (collected on every poll).
    my_db: Doorbell,
    /// This rank's own SRQ (consumer side).
    pub my_srq: SrqConsumer,
    tx: BTreeMap<Rank, TxPeer>,
    rx: BTreeMap<Rank, Stream>,
    /// Senders whose streams may hold data. Survives early returns (e.g.
    /// truncation errors) — a bit once collected is only dropped after its
    /// stream drained empty.
    pub pending: BTreeSet<Rank>,
    /// The rank's counter block: promotions, stream opens and SRQ messages
    /// land in its transport section.
    counters: Arc<RankCounters>,
    qps_created: usize,
    poison: PoisonFlag,
}

impl ConnTable {
    /// A rank never talks to more peers than exist, so the provisioned QP
    /// budget is capped at `ranks - 1`.
    pub fn effective_qp_budget(ranks: usize, qp_budget: usize) -> usize {
        qp_budget.min(ranks.saturating_sub(1))
    }

    /// Device bytes the lazy connection state of a whole universe may demand:
    /// per rank one doorbell, one SRQ, and up to the effective QP budget of
    /// streams. Checked arithmetic with actionable errors — this is the lazy
    /// counterpart of [`crate::queue::QueueMatrix::required_bytes`], and it
    /// is linear in `ranks` instead of quadratic.
    pub fn required_device_bytes(
        ranks: usize,
        geometry: QueueGeometry,
        config: &CxlShmTransportConfig,
    ) -> Result<usize> {
        let db = Doorbell::required_bytes(ranks)? + OBJ_SLACK;
        let srq = srq_required_bytes(geometry, config.srq_cells)? + OBJ_SLACK;
        let qp = Stream::required_bytes(geometry)? + OBJ_SLACK;
        let budget = Self::effective_qp_budget(ranks, config.qp_budget);
        qp.checked_mul(budget)
            .and_then(|pool| pool.checked_add(db))
            .and_then(|per_rank| per_rank.checked_add(srq))
            .and_then(|per_rank| per_rank.checked_mul(ranks))
            .ok_or_else(|| {
                MpiError::Transport(format!(
                    "lazy connection state for {ranks} ranks overflows the pool \
                     arithmetic — shrink qp_budget ({}), srq_cells ({}) or \
                     cell_size ({})",
                    config.qp_budget, config.srq_cells, geometry.cell_payload
                ))
            })
    }

    /// How many named objects the lazy state may create, for sizing the
    /// arena's hash directory: per rank a doorbell, an SRQ and its streams.
    pub fn object_count_hint(ranks: usize, config: &CxlShmTransportConfig) -> usize {
        ranks * (2 + Self::effective_qp_budget(ranks, config.qp_budget))
    }

    /// Create this rank's own doorbell + SRQ and an empty table. Peer state
    /// is opened on first use.
    pub fn new(
        rank: Rank,
        ranks: usize,
        arena: CxlShmArena,
        geometry: QueueGeometry,
        config: &CxlShmTransportConfig,
        poison: PoisonFlag,
        counters: Arc<RankCounters>,
    ) -> Result<Self> {
        let my_db = Doorbell::create(&arena, rank, ranks)?;
        let my_srq = SrqConsumer::create(&arena, rank, geometry, config.srq_cells)?;
        Ok(ConnTable {
            rank,
            ranks,
            arena,
            geometry,
            qp_budget: Self::effective_qp_budget(ranks, config.qp_budget),
            promotion_threshold: config.promotion_threshold,
            srq_cells: config.srq_cells,
            my_db,
            my_srq,
            tx: BTreeMap::new(),
            rx: BTreeMap::new(),
            pending: BTreeSet::new(),
            counters,
            qps_created: 0,
            poison,
        })
    }

    /// Send-side state toward `dst`, opening the peer's doorbell and SRQ on
    /// first use.
    pub fn peer_mut(&mut self, dst: Rank) -> Result<&mut TxPeer> {
        if !self.tx.contains_key(&dst) {
            let db = Doorbell::open(&self.arena, dst, self.ranks, &self.poison)?;
            let srq = SrqProducer::open(
                &self.arena,
                dst,
                self.geometry,
                self.srq_cells,
                &self.poison,
            )?;
            self.tx.insert(
                dst,
                TxPeer {
                    db,
                    srq,
                    stream: None,
                    srq_sticky: false,
                    msgs: 0,
                    last_ticket: None,
                },
            );
        }
        Ok(self.tx.get_mut(&dst).expect("peer just ensured"))
    }

    /// Message-entry bookkeeping toward `dst`: ensures the peer is open,
    /// opportunistically promotes the pair to a stream, and returns its send
    /// state. **Idempotent** — the progress engine may re-enter a message's
    /// first chunk many times. Promotion requires the completed-message count
    /// to reach the threshold, a free slot in the budget, and — when SRQ
    /// tickets were published — that the receiver has consumed past the last
    /// one (the ordering barrier); otherwise the message simply stays on the
    /// SRQ and promotion retries at the next message. Never blocks. Charges
    /// the stream's format (a flag and a done store per slot, the ready flag)
    /// to `clock` when promotion happens.
    pub fn prepare_send(
        &mut self,
        dst: Rank,
        clock: &mut SimClock,
        nt: f64,
    ) -> Result<&mut TxPeer> {
        let budget_left = self.qps_created < self.qp_budget;
        self.peer_mut(dst)?;
        let peer = self.tx.get_mut(&dst).expect("peer just ensured");
        if peer.stream.is_some()
            || peer.srq_sticky
            || !budget_left
            || peer.msgs < self.promotion_threshold
        {
            return Ok(peer);
        }
        if let Some(t) = peer.last_ticket {
            if peer.srq.head()? <= t {
                return Ok(peer); // receiver not caught up yet — stay on the SRQ
            }
        }
        match Stream::create(&self.arena, dst, self.rank, self.geometry) {
            Err(_) => {
                // Pool exhausted (or a cell below one line): this pair runs
                // on the SRQ forever. The budget math provisions the full
                // pool, so this is only reachable when windows or user
                // objects ate it — a degradation, and counted as one.
                peer.srq_sticky = true;
                self.counters.transport.stream_alloc_failures.add(1);
            }
            Ok(stream) => {
                clock.advance((2 * stream.slots() + 1) as f64 * nt);
                peer.stream = Some(stream);
                self.qps_created += 1;
                self.counters.transport.qps_established.add(1);
            }
        }
        Ok(peer)
    }

    /// Read-only peer state (must have been ensured by a prior
    /// [`ConnTable::peer_mut`]).
    pub fn peer(&self, dst: Rank) -> Option<&TxPeer> {
        self.tx.get(&dst)
    }

    /// Message-completion bookkeeping: bump the completed count that drives
    /// promotion, and record the last SRQ ticket when the message travelled
    /// the cold path (the promotion ordering barrier watches it).
    pub fn note_sent(&mut self, dst: Rank, srq_ticket: Option<u64>) {
        if let Some(peer) = self.tx.get_mut(&dst) {
            peer.msgs += 1;
            if let Some(t) = srq_ticket {
                peer.last_ticket = Some(t);
                self.counters.transport.srq_msgs.add(1);
            }
        }
    }

    /// Whether the stream from `sender` is already open.
    pub fn rx_contains(&self, sender: Rank) -> bool {
        self.rx.contains_key(&sender)
    }

    /// Drain this rank's doorbell into the pending set. Returns how many
    /// sender bits were newly collected (0 — and a single non-temporal load —
    /// when idle).
    pub fn collect(&mut self) -> Result<usize> {
        self.my_db.collect_into(&mut self.pending)
    }

    /// The stream from `sender`, opened on first doorbell discovery.
    pub fn rx_stream(&mut self, sender: Rank) -> Result<&mut Stream> {
        if !self.rx.contains_key(&sender) {
            let stream = Stream::open(&self.arena, self.rank, sender, self.geometry, &self.poison)?;
            self.rx.insert(sender, stream);
            self.counters.transport.qps_opened.add(1);
        }
        Ok(self.rx.get_mut(&sender).expect("rx just ensured"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_shm::{ArenaConfig, CxlView, DaxDevice, HostCache};

    fn two_arenas(bytes: usize) -> (CxlShmArena, CxlShmArena) {
        let size = (bytes + 4 * 1024 * 1024).div_ceil(4096) * 4096;
        let dev = DaxDevice::with_alignment("conn-test", size, 4096).unwrap();
        let a = CxlShmArena::init(
            CxlView::new(dev.clone(), HostCache::with_capacity("hostA", 1 << 20)),
            ArenaConfig::for_objects(64),
        )
        .unwrap();
        let b = CxlShmArena::attach(CxlView::new(
            dev,
            HostCache::with_capacity("hostB", 1 << 20),
        ))
        .unwrap();
        (a, b)
    }

    fn hdr(src: Rank, total: u64, off: u64, len: u32, ts: f64) -> CellHeader {
        CellHeader {
            src,
            ctx: 0,
            tag: 1,
            total_len: total,
            chunk_offset: off,
            chunk_len: len,
            timestamp: ts,
        }
    }

    #[test]
    fn doorbell_ring_collect_roundtrip() {
        let (a, b) = two_arenas(1 << 20);
        let poison = PoisonFlag::new();
        let db = Doorbell::create(&a, 0, 200).unwrap();
        let remote = Doorbell::open(&b, 0, 200, &poison).unwrap();
        let mut pending = BTreeSet::new();
        assert_eq!(db.collect_into(&mut pending).unwrap(), 0);
        remote.ring(3).unwrap();
        remote.ring(130).unwrap(); // second group word
        remote.ring(3).unwrap(); // idempotent
        assert_eq!(db.collect_into(&mut pending).unwrap(), 2);
        assert!(pending.contains(&3) && pending.contains(&130));
        // Drained: the next collect is idle again.
        pending.clear();
        assert_eq!(db.collect_into(&mut pending).unwrap(), 0);
        assert!(pending.is_empty());
    }

    #[test]
    fn doorbell_idle_collect_cost_independent_of_world_size() {
        // The core scaling property: an idle poll is one non-temporal load,
        // no matter how many ranks the universe has.
        let poison = PoisonFlag::new();
        let mut costs = Vec::new();
        for ranks in [8usize, 256, 4096] {
            let (a, b) = two_arenas(1 << 20);
            let db = Doorbell::create(&a, 0, ranks).unwrap();
            // Touch the opener side so both views are live.
            Doorbell::open(&b, 0, ranks, &poison).unwrap();
            let before = db.obj.view().counters().nt_bytes_read;
            let mut pending = BTreeSet::new();
            db.collect_into(&mut pending).unwrap();
            let after = db.obj.view().counters().nt_bytes_read;
            costs.push(after - before);
        }
        assert_eq!(costs[0], costs[1]);
        assert_eq!(costs[1], costs[2]);
        assert_eq!(costs[0], 8, "idle collect must be exactly one u64 load");
    }

    #[test]
    fn doorbell_rejects_past_4096_ranks() {
        assert!(Doorbell::required_bytes(4096).is_ok());
        assert!(Doorbell::required_bytes(4097).is_err());
    }

    #[test]
    fn srq_two_producers_interleave_fifo_per_sender() {
        let g = QueueGeometry {
            cell_payload: 128,
            cells: 4,
        };
        let (a, b) = two_arenas(1 << 20);
        let poison = PoisonFlag::new();
        let consumer = SrqConsumer::create(&a, 0, g, 4).unwrap();
        let p1 = SrqProducer::open(&b, 0, g, 4, &poison).unwrap();
        let p2 = SrqProducer::open(&b, 0, g, 4, &poison).unwrap();
        let mut scratch = Vec::new();
        // Interleaved publications from two senders.
        p1.try_enqueue_with_scratch(&hdr(1, 4, 0, 4, 1.0), b"aaaa", &mut scratch)
            .unwrap()
            .unwrap();
        p2.try_enqueue_with_scratch(&hdr(2, 4, 0, 4, 2.0), b"bbbb", &mut scratch)
            .unwrap()
            .unwrap();
        p1.try_enqueue_with_scratch(&hdr(1, 4, 0, 4, 3.0), b"cccc", &mut scratch)
            .unwrap()
            .unwrap();
        // Ticket order globally, FIFO per sender.
        let mut buf = [0u8; 4];
        let h = consumer.try_dequeue_into(10.0, &mut buf).unwrap().unwrap();
        assert_eq!((h.src, &buf), (1, b"aaaa"));
        let h = consumer.try_dequeue_into(11.0, &mut buf).unwrap().unwrap();
        assert_eq!((h.src, &buf), (2, b"bbbb"));
        let h = consumer.try_dequeue_into(12.0, &mut buf).unwrap().unwrap();
        assert_eq!((h.src, &buf), (1, b"cccc"));
        assert!(consumer.try_dequeue_into(13.0, &mut buf).unwrap().is_none());
        // Head timestamp reached the producers.
        assert_eq!(p1.head_timestamp().unwrap(), 12.0);
        assert_eq!(p1.head().unwrap(), 3);
    }

    #[test]
    fn srq_full_reports_none_and_wraps() {
        let g = QueueGeometry {
            cell_payload: 64,
            cells: 2,
        };
        let (a, b) = two_arenas(1 << 20);
        let poison = PoisonFlag::new();
        let consumer = SrqConsumer::create(&a, 0, g, 2).unwrap();
        let p = SrqProducer::open(&b, 0, g, 2, &poison).unwrap();
        let mut scratch = Vec::new();
        let mut buf = [0u8; 8];
        // Several wraps of the 2-cell ring.
        for round in 0u64..5 {
            assert!(p
                .try_enqueue_with_scratch(&hdr(1, 4, 0, 4, round as f64), b"wrap", &mut scratch)
                .unwrap()
                .is_some());
            assert!(p
                .try_enqueue_with_scratch(&hdr(1, 4, 0, 4, round as f64), b"wrap", &mut scratch)
                .unwrap()
                .is_some());
            assert!(!p.has_space().unwrap());
            assert!(p
                .try_enqueue_with_scratch(&hdr(1, 4, 0, 4, round as f64), b"wrap", &mut scratch)
                .unwrap()
                .is_none());
            assert!(consumer.has_message().unwrap());
            consumer.try_dequeue_into(1.0, &mut buf).unwrap().unwrap();
            consumer.try_dequeue_into(1.0, &mut buf).unwrap().unwrap();
            assert!(!consumer.has_message().unwrap());
        }
    }

    #[test]
    fn conn_table_promotes_after_threshold_and_respects_budget() {
        let g = QueueGeometry {
            cell_payload: 128,
            cells: 2,
        };
        let (a, b) = two_arenas(4 << 20);
        let poison = PoisonFlag::new();
        let config = CxlShmTransportConfig {
            cell_size: 128,
            cells_per_queue: 2,
            qp_budget: 1,
            promotion_threshold: 2,
            srq_cells: 4,
            ..CxlShmTransportConfig::small()
        };
        // Rank 1 (on arena b) sends to ranks 0 and 2; their tables live on a.
        let t0 =
            ConnTable::new(0, 3, a.clone(), g, &config, poison.clone(), Arc::default()).unwrap();
        let _t2 =
            ConnTable::new(2, 3, a.clone(), g, &config, poison.clone(), Arc::default()).unwrap();
        let mut t1 = ConnTable::new(1, 3, b, g, &config, poison.clone(), Arc::default()).unwrap();
        let mut clock = SimClock::new();
        // Two completed messages stay under the threshold: no stream.
        for _ in 0..2 {
            t1.prepare_send(0, &mut clock, 1.0).unwrap();
            t1.note_sent(0, None);
        }
        assert!(t1.peer(0).unwrap().stream.is_none());
        // Third message crosses it (no SRQ tickets pending → no barrier).
        t1.prepare_send(0, &mut clock, 1.0).unwrap();
        assert!(t1.peer(0).unwrap().stream.is_some());
        assert_eq!(t1.counters.transport.qps_established.get(), 1);
        // The budget of 1 is spent: rank 2 never promotes.
        for _ in 0..5 {
            t1.prepare_send(2, &mut clock, 1.0).unwrap();
            t1.note_sent(2, None);
        }
        assert!(t1.peer(2).unwrap().stream.is_none());
        assert_eq!(t1.counters.transport.qps_established.get(), 1);
        drop(t0);
    }

    #[test]
    fn conn_table_promotion_waits_for_srq_drain() {
        let g = QueueGeometry {
            cell_payload: 128,
            cells: 2,
        };
        let (a, b) = two_arenas(4 << 20);
        let poison = PoisonFlag::new();
        let config = CxlShmTransportConfig {
            cell_size: 128,
            cells_per_queue: 2,
            qp_budget: 4,
            promotion_threshold: 0,
            srq_cells: 4,
            ..CxlShmTransportConfig::small()
        };
        let t0 = ConnTable::new(0, 2, a, g, &config, poison.clone(), Arc::default()).unwrap();
        let mut t1 = ConnTable::new(1, 2, b, g, &config, poison, Arc::default()).unwrap();
        let mut clock = SimClock::new();
        let mut scratch = Vec::new();
        // Simulate an un-drained SRQ message: publish a ticket by hand.
        {
            let peer = t1.peer_mut(0).unwrap();
            let ticket = peer
                .srq
                .try_enqueue_with_scratch(&hdr(1, 4, 0, 4, 1.0), b"cold", &mut scratch)
                .unwrap()
                .unwrap();
            peer.last_ticket = Some(ticket);
        }
        // Threshold 0 would promote immediately — but the receiver has not
        // consumed the ticket, so the pair stays on the SRQ.
        t1.prepare_send(0, &mut clock, 1.0).unwrap();
        assert!(t1.peer(0).unwrap().stream.is_none());
        // Receiver drains; the next message promotes.
        let mut buf = [0u8; 8];
        t0.my_srq.try_dequeue_into(5.0, &mut buf).unwrap().unwrap();
        t1.prepare_send(0, &mut clock, 1.0).unwrap();
        assert!(t1.peer(0).unwrap().stream.is_some());
    }

    /// Publish one whole message through `tx` the way the transport does.
    fn send_all(tx: &mut Stream, ctx: CtxId, tag: Tag, data: &[u8], ts: f64) {
        let mut segments = data.chunks(tx.segment_bytes());
        let first = segments.next().unwrap_or(&[]);
        assert!(tx.reserve().unwrap().is_some());
        tx.publish(Some((ctx, tag, data.len())), first, ts).unwrap();
        for segment in segments {
            assert!(tx.reserve().unwrap().is_some());
            tx.publish(None, segment, ts).unwrap();
        }
    }

    /// Consume the next segment of `rx` into `buf` at its offset.
    fn pull(rx: &mut Stream, buf: &mut [u8], ts: f64) -> CellHeader {
        let h = rx.peek_header().unwrap().expect("a segment is up");
        rx.read(&h, &mut buf[h.chunk_offset as usize..]).unwrap();
        rx.release(&h, ts).unwrap();
        h
    }

    #[test]
    fn stream_frames_every_message_shape_in_order() {
        let g = QueueGeometry {
            cell_payload: 128,
            cells: 4,
        };
        let (a, b) = two_arenas(1 << 20);
        let poison = PoisonFlag::new();
        let mut tx = Stream::create(&a, 0, 1, g).unwrap();
        let mut rx = Stream::open(&b, 0, 1, g, &poison).unwrap();
        assert_eq!((tx.segment_bytes(), tx.slots(), tx.batch()), (128, 4, 2));
        assert!(rx.peek_header().unwrap().is_none() && !rx.has_segment().unwrap());
        let mut buf = [0u8; 300];
        // Empty, inline, the first size past inline, one slot, several.
        for (i, len) in [0usize, 1, 32, 33, 128, 129, 300].into_iter().enumerate() {
            let data: Vec<u8> = (0..len).map(|b| (b * 7 + i) as u8).collect();
            // At most three segments: they fit the four slots unread.
            send_all(&mut tx, 7, -3, &data, 10.0 + i as f64);
            let mut received = 0;
            loop {
                let before = rx.peek_header().unwrap().unwrap();
                assert_eq!(rx.is_inline(&before), len <= STREAM_INLINE, "{len} B");
                let h = pull(&mut rx, &mut buf, 20.0);
                assert_eq!((h.src, h.ctx, h.tag, h.total_len), (1, 7, -3, len as u64));
                assert_eq!(
                    (h.chunk_offset as usize, h.timestamp),
                    (received, 10.0 + i as f64)
                );
                received += h.chunk_len as usize;
                if received == len {
                    break;
                }
            }
            assert_eq!(buf[..len], data[..], "{len} B");
            assert!(rx.peek_header().unwrap().is_none());
        }
        assert_eq!(tx.seq(), rx.seq());
        // A cell below one cache line leaves no room for a slot.
        let tiny = QueueGeometry {
            cell_payload: 32,
            cells: 2,
        };
        assert!(Stream::create(&a, 2, 3, tiny).is_err());
    }

    #[test]
    fn stream_hands_slots_back_half_a_lap_at_a_time() {
        let g = QueueGeometry {
            cell_payload: 64,
            cells: 4,
        };
        let (a, b) = two_arenas(1 << 20);
        let mut tx = Stream::create(&a, 0, 1, g).unwrap();
        let mut rx = Stream::open(&b, 0, 1, g, &PoisonFlag::new()).unwrap();
        let mut buf = [0u8; 8];
        // The first lap needs no done entry at all.
        for k in 0..4u8 {
            assert_eq!(tx.reserve().unwrap(), Some(None));
            tx.publish(Some((0, 1, 8)), &[k; 8], k as f64).unwrap();
        }
        assert_eq!(tx.reserve().unwrap(), None, "lapped, nothing handed back");
        // One segment consumed is not a batch: the writer still waits.
        assert!(!rx.ends_batch());
        pull(&mut rx, &mut buf, 100.0);
        assert_eq!(tx.reserve().unwrap(), None);
        // The second ends the batch; its stamp is the one the writer merges,
        // once, and it buys two slots.
        assert!(rx.ends_batch());
        pull(&mut rx, &mut buf, 101.0);
        assert_eq!(tx.reserve().unwrap(), Some(Some(101.0)));
        assert_eq!(
            tx.reserve().unwrap(),
            Some(None),
            "asking again costs nothing"
        );
        for k in 4..6u8 {
            assert_eq!(tx.reserve().unwrap(), Some(None));
            tx.publish(Some((0, 1, 8)), &[k; 8], k as f64).unwrap();
        }
        assert_eq!(tx.reserve().unwrap(), None);
        // Several laps on, contents and order hold.
        for k in 2..40u8 {
            let h = pull(&mut rx, &mut buf, 200.0 + k as f64);
            assert_eq!((buf, h.timestamp), ([k; 8], k as f64));
            while tx.seq() < 40 && tx.reserve().unwrap().is_some() {
                let next = tx.seq() as u8;
                tx.publish(Some((0, 1, 8)), &[next; 8], next as f64)
                    .unwrap();
            }
        }
        assert_eq!((tx.seq(), rx.seq()), (40, 40));
    }

    #[test]
    fn no_pool_room_for_a_stream_pins_the_pair_to_the_srq_and_is_counted() {
        // 2 × 1 MiB cells: a stream takes ≈ 2 MiB, each table's SRQ 1 MiB;
        // the smaller device (4 MiB) has room for the SRQs alone.
        let g = QueueGeometry {
            cell_payload: 1 << 20,
            cells: 2,
        };
        let config = CxlShmTransportConfig {
            cell_size: g.cell_payload,
            cells_per_queue: g.cells,
            qp_budget: 1,
            promotion_threshold: 0,
            srq_cells: 1,
            ..CxlShmTransportConfig::small()
        };
        let poison = PoisonFlag::new();
        let mut clock = SimClock::new();
        for (device_slack, expect_stream) in [(0usize, false), (4 << 20, true)] {
            let (a, b) = two_arenas(device_slack);
            let _t0 = ConnTable::new(0, 2, a, g, &config, poison.clone(), Arc::default()).unwrap();
            let mut t1 =
                ConnTable::new(1, 2, b, g, &config, poison.clone(), Arc::default()).unwrap();
            let before = clock.now();
            let promoted = t1.prepare_send(0, &mut clock, 1.0).unwrap();
            assert_eq!(promoted.stream.is_some(), expect_stream);
            assert_eq!(promoted.srq_sticky, !expect_stream);
            let format_cost = clock.now() - before;
            // Asking again neither retries nor charges.
            t1.prepare_send(0, &mut clock, 1.0).unwrap();
            assert_eq!(clock.now() - before, format_cost);
            let counters = t1.counters.transport.snapshot();
            if expect_stream {
                assert_eq!(format_cost, (2 * g.cells + 1) as f64);
                assert_eq!(
                    (counters.qps_established, counters.stream_alloc_failures),
                    (1, 0)
                );
                let stream = t1.peer(0).unwrap().stream.as_ref().unwrap();
                assert_eq!((stream.seq(), stream.credits), (0, 2));
            } else {
                assert_eq!(format_cost, 0.0);
                assert_eq!(
                    (counters.qps_established, counters.stream_alloc_failures),
                    (0, 1)
                );
            }
        }
    }

    #[test]
    fn a_stream_takes_the_pool_bytes_of_the_ring_it_replaces() {
        // The default geometry: what `e2e` reports as `pool_bytes_n*`.
        let stock = CxlShmTransportConfig::default();
        let g = QueueGeometry {
            cell_payload: stock.cell_size,
            cells: stock.cells_per_queue,
        };
        assert_eq!(Stream::required_bytes(g).unwrap(), g.queue_bytes());
        // Fewer cells: fewer done entries than the ring's two control lines.
        let small = QueueGeometry {
            cell_payload: 1024,
            cells: 4,
        };
        assert!(Stream::required_bytes(small).unwrap() < small.queue_bytes());
    }

    #[test]
    fn lazy_sizing_is_linear_and_checked() {
        let g = QueueGeometry {
            cell_payload: 1024,
            cells: 4,
        };
        // Pin the budget below ranks-1 at both sizes so `effective_qp_budget`
        // does not clip differently at n=64 vs n=1024.
        let config = CxlShmTransportConfig {
            qp_budget: 16,
            ..CxlShmTransportConfig::small()
        };
        let n64 = ConnTable::required_device_bytes(64, g, &config).unwrap();
        let n1024 = ConnTable::required_device_bytes(1024, g, &config).unwrap();
        // Linear in ranks up to the doorbell bitmaps — each rank's doorbell
        // grows one group word per 64 ranks, the only superlinear term (the
        // eager matrix is quadratic in whole queues). Subtracting that term
        // restores exact 16× scaling.
        let db64 = Doorbell::required_bytes(64).unwrap();
        let db1024 = Doorbell::required_bytes(1024).unwrap();
        assert_eq!(n1024 - 1024 * (db1024 - db64), 16 * n64);
        assert!(db1024 - db64 < 16 * 1024, "doorbell term stays tiny");
        // The n=1024 lazy footprint fits comfortably under the eager cap that
        // the same world size blows through at default cell size.
        assert!(n1024 < crate::queue::QueueMatrix::MAX_MATRIX_BYTES);
        // Overflowing knobs surface an actionable error.
        let huge = CxlShmTransportConfig {
            qp_budget: usize::MAX / 2,
            ..config
        };
        // The budget clips to ranks-1 and the doorbell caps the rank count, so
        // overflowing the pool arithmetic takes an absurd cell size too.
        let huge_geom = QueueGeometry {
            cell_payload: usize::MAX / 40_000,
            cells: 4,
        };
        let err = ConnTable::required_device_bytes(4096, huge_geom, &huge).unwrap_err();
        assert!(err.to_string().contains("qp_budget"), "{err}");
    }
}
