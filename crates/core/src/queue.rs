//! SPSC message-cell ring queues in CXL shared memory (Section 3.3): the ring
//! of `ConnMode::Eager`, and the cell format ([`CellHeader`] + payload) that
//! ring shares with the lazy mode's shared receive queue. A *promoted* lazy
//! pair uses neither — it rides a `transport::conn::Stream` — so this module
//! is the paper's two-sided protocol, kept whole as the oracle the default
//! path is compared against.
//!
//! cMPI replaces the per-host MPSC/MPMC receive queue of traditional MPI
//! shared-memory channels with a **matrix of single-producer single-consumer
//! ring queues**, one per (receiver, sender) pair. Because each queue has
//! exactly one producer and one consumer, enqueue and dequeue need no atomic
//! read-modify-write operations — which the CXL pooled memory cannot provide
//! across hosts — only ordinary loads and stores of the head and tail indices,
//! published with non-temporal accesses.
//!
//! Queue layout on the device (all offsets cache-line aligned):
//!
//! ```text
//! +--------+---------+--------+---------+----------------------------------+
//! | head   | head_ts | tail   | tail_ts | cell 0 | cell 1 | ... | cell N-1 |
//! | 8 B    | 8 B     | 8 B    | 8 B     | (64 B header + payload each)     |
//! +--------+---------+--------+---------+----------------------------------+
//!  line 0             line 1
//! ```
//!
//! `head` is written only by the consumer, `tail` only by the producer; they
//! live on separate cache lines to avoid false sharing. `head_ts`/`tail_ts`
//! carry the writer's virtual-clock timestamp so the peer can merge it when it
//! had to wait (queue full / queue empty).
//!
//! Messages larger than a cell's payload capacity are split into cell-sized
//! chunks sent back-to-back (Section 4.3 studies the resulting bandwidth
//! effect); the header carries the chunk's offset and the message's total
//! length so the receiver can reassemble.

use cxl_shm::ShmObject;

use crate::error::MpiError;
use crate::types::{CtxId, Rank, Tag};
use crate::Result;

/// Size of a cell header on the device, bytes (one cache line).
pub const CELL_HEADER_SIZE: usize = 64;
/// Size of the per-queue control block (head/tail and their timestamps).
pub const QUEUE_CONTROL_SIZE: usize = 128;

const OFF_HEAD: u64 = 0;
const OFF_HEAD_TS: u64 = 8;
const OFF_TAIL: u64 = 64;
const OFF_TAIL_TS: u64 = 72;

/// Header stored at the front of every message cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellHeader {
    /// Sending rank (world rank).
    pub src: Rank,
    /// Context id of the communicator the message was sent on. Receives match
    /// on it exactly, which is what keeps the tag spaces of split/duplicated
    /// communicators disjoint on the CXL transport.
    pub ctx: CtxId,
    /// Message tag.
    pub tag: Tag,
    /// Total length of the (possibly multi-chunk) message, bytes.
    pub total_len: u64,
    /// Offset of this chunk within the message, bytes.
    pub chunk_offset: u64,
    /// Length of this chunk, bytes.
    pub chunk_len: u32,
    /// Sender's virtual-clock timestamp at enqueue time, nanoseconds.
    pub timestamp: f64,
}

impl CellHeader {
    /// Bytes `36..40` of the encoding are reserved padding: `chunk_len` is a
    /// `u32` and `timestamp` is 8-byte aligned at offset 40. Kept explicit so
    /// nothing ever reads or writes them by accident.
    const PADDING: std::ops::Range<usize> = 36..40;

    /// Encode into the fixed 64-byte on-device representation.
    pub fn encode(&self) -> [u8; CELL_HEADER_SIZE] {
        let mut buf = [0u8; CELL_HEADER_SIZE];
        buf[0..8].copy_from_slice(&(self.src as u64).to_le_bytes());
        buf[8..12].copy_from_slice(&self.tag.to_le_bytes());
        buf[12..16].copy_from_slice(&self.ctx.to_le_bytes());
        buf[16..24].copy_from_slice(&self.total_len.to_le_bytes());
        buf[24..32].copy_from_slice(&self.chunk_offset.to_le_bytes());
        buf[32..36].copy_from_slice(&self.chunk_len.to_le_bytes());
        buf[Self::PADDING].fill(0);
        buf[40..48].copy_from_slice(&self.timestamp.to_bits().to_le_bytes());
        buf
    }

    /// Decode from the on-device representation.
    pub fn decode(buf: &[u8]) -> Self {
        CellHeader {
            src: u64::from_le_bytes(buf[0..8].try_into().unwrap()) as Rank,
            tag: Tag::from_le_bytes(buf[8..12].try_into().unwrap()),
            ctx: CtxId::from_le_bytes(buf[12..16].try_into().unwrap()),
            total_len: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            chunk_offset: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
            chunk_len: u32::from_le_bytes(buf[32..36].try_into().unwrap()),
            timestamp: f64::from_bits(u64::from_le_bytes(buf[40..48].try_into().unwrap())),
        }
    }
}

/// Geometry of one SPSC queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueGeometry {
    /// Payload capacity of one cell, bytes.
    pub cell_payload: usize,
    /// Number of cells in the ring.
    pub cells: usize,
}

impl QueueGeometry {
    /// Bytes occupied by one cell (header + payload, cache-line aligned).
    pub fn cell_bytes(&self) -> usize {
        let raw = CELL_HEADER_SIZE + self.cell_payload;
        raw.div_ceil(64) * 64
    }

    /// Bytes occupied by one whole queue (control block + cells).
    pub fn queue_bytes(&self) -> usize {
        QUEUE_CONTROL_SIZE + self.cells * self.cell_bytes()
    }

    /// [`QueueGeometry::queue_bytes`] with overflow-checked arithmetic, for
    /// sizing paths fed by untrusted configuration.
    pub fn checked_queue_bytes(&self) -> Result<usize> {
        CELL_HEADER_SIZE
            .checked_add(self.cell_payload)
            .map(|raw| raw.div_ceil(64) * 64)
            .and_then(|cell| cell.checked_mul(self.cells))
            .and_then(|cells| cells.checked_add(QUEUE_CONTROL_SIZE))
            .ok_or_else(|| {
                MpiError::Transport(format!(
                    "queue geometry overflows: cell_payload {} × {} cells exceeds \
                     the addressable object size — shrink cell_size or cells_per_queue",
                    self.cell_payload, self.cells
                ))
            })
    }
}

/// One single-producer single-consumer ring queue living inside a CXL SHM
/// object at a fixed base offset.
///
/// The producer side must only ever be driven by one rank (the sender of the
/// pair) and the consumer side by one rank (the receiver); that discipline is
/// what removes the need for atomics.
#[derive(Debug, Clone)]
pub struct SpscQueue {
    obj: ShmObject,
    base: u64,
    geometry: QueueGeometry,
}

impl SpscQueue {
    /// Attach to the queue at `base` (byte offset within `obj`).
    pub fn new(obj: ShmObject, base: u64, geometry: QueueGeometry) -> Self {
        SpscQueue {
            obj,
            base,
            geometry,
        }
    }

    /// The queue geometry.
    pub fn geometry(&self) -> QueueGeometry {
        self.geometry
    }

    /// Zero the control block (done once, by the rank that creates the matrix).
    pub fn format(&self) -> Result<()> {
        self.obj.nt_store_u64_at(self.base + OFF_HEAD, 0)?;
        self.obj.nt_store_u64_at(self.base + OFF_HEAD_TS, 0)?;
        self.obj.nt_store_u64_at(self.base + OFF_TAIL, 0)?;
        self.obj.nt_store_u64_at(self.base + OFF_TAIL_TS, 0)?;
        Ok(())
    }

    fn cell_offset(&self, slot: u64) -> u64 {
        self.base + QUEUE_CONTROL_SIZE as u64 + slot * self.geometry.cell_bytes() as u64
    }

    /// Producer: current number of occupied cells.
    pub fn occupancy(&self) -> Result<u64> {
        let head = self.obj.nt_load_u64_at(self.base + OFF_HEAD)?;
        let tail = self.obj.nt_load_u64_at(self.base + OFF_TAIL)?;
        Ok(tail.saturating_sub(head))
    }

    /// Producer: whether the ring has room for another cell.
    pub fn has_space(&self) -> Result<bool> {
        Ok(self.occupancy()? < self.geometry.cells as u64)
    }

    /// Consumer: whether a message cell is waiting.
    pub fn has_message(&self) -> Result<bool> {
        Ok(self.occupancy()? > 0)
    }

    /// Timestamp published by the consumer the last time it freed a cell
    /// (merged by a producer that had to wait for space).
    pub fn head_timestamp(&self) -> Result<f64> {
        Ok(f64::from_bits(
            self.obj.nt_load_u64_at(self.base + OFF_HEAD_TS)?,
        ))
    }

    /// Timestamp published by the producer the last time it enqueued
    /// (merged by a consumer that had to wait for data, e.g. in a barrier).
    pub fn tail_timestamp(&self) -> Result<f64> {
        Ok(f64::from_bits(
            self.obj.nt_load_u64_at(self.base + OFF_TAIL_TS)?,
        ))
    }

    /// Producer: try to enqueue one chunk. Returns `false` (without writing)
    /// if the ring is full. The payload must fit the cell capacity.
    pub fn try_enqueue(&self, header: &CellHeader, payload: &[u8]) -> Result<bool> {
        let mut scratch = Vec::new();
        self.try_enqueue_with_scratch(header, payload, &mut scratch)
    }

    /// [`SpscQueue::try_enqueue`] with a caller-owned staging buffer, so a
    /// sender streaming a chunked message performs zero allocations after the
    /// first chunk (the hot path used by the transports).
    pub fn try_enqueue_with_scratch(
        &self,
        header: &CellHeader,
        payload: &[u8],
        scratch: &mut Vec<u8>,
    ) -> Result<bool> {
        if payload.len() > self.geometry.cell_payload {
            return Err(MpiError::Transport(format!(
                "chunk of {} bytes exceeds cell payload capacity {}",
                payload.len(),
                self.geometry.cell_payload
            )));
        }
        debug_assert!(
            header.chunk_len as usize == payload.len(),
            "header chunk_len {} disagrees with payload length {}",
            header.chunk_len,
            payload.len()
        );
        debug_assert!(
            header.chunk_len as usize <= self.geometry.cell_payload,
            "chunk_len {} exceeds cell payload geometry {} — cell size misconfigured",
            header.chunk_len,
            self.geometry.cell_payload
        );
        let head = self.obj.nt_load_u64_at(self.base + OFF_HEAD)?;
        let tail = self.obj.nt_load_u64_at(self.base + OFF_TAIL)?;
        if tail - head >= self.geometry.cells as u64 {
            return Ok(false);
        }
        let slot = tail % self.geometry.cells as u64;
        let off = self.cell_offset(slot);
        // Write header + payload as one contiguous coherent publish. The
        // scratch buffer is reused across chunks (clear keeps the capacity).
        scratch.clear();
        scratch.reserve(CELL_HEADER_SIZE + payload.len());
        scratch.extend_from_slice(&header.encode());
        scratch.extend_from_slice(payload);
        self.obj.write_flush_at(off, scratch)?;
        // Publish: bump the tail and stamp it (non-temporal, immediately
        // visible to the consumer).
        self.obj
            .nt_store_u64_at(self.base + OFF_TAIL_TS, header.timestamp.to_bits())?;
        self.obj.nt_store_u64_at(self.base + OFF_TAIL, tail + 1)?;
        Ok(true)
    }

    /// Consumer: read the header of the next waiting cell *without* consuming
    /// it. Returns `None` when the ring is empty. Used by the receive path to
    /// decide where the chunk's payload should land (caller buffer vs staging)
    /// before committing to the dequeue.
    pub fn peek_header(&self) -> Result<Option<CellHeader>> {
        let head = self.obj.nt_load_u64_at(self.base + OFF_HEAD)?;
        let tail = self.obj.nt_load_u64_at(self.base + OFF_TAIL)?;
        if tail == head {
            return Ok(None);
        }
        let off = self.cell_offset(head % self.geometry.cells as u64);
        let mut hdr_buf = [0u8; CELL_HEADER_SIZE];
        self.obj.read_coherent_at(off, &mut hdr_buf)?;
        let header = CellHeader::decode(&hdr_buf);
        self.check_geometry(&header)?;
        Ok(Some(header))
    }

    fn check_geometry(&self, header: &CellHeader) -> Result<()> {
        if header.chunk_len as usize > self.geometry.cell_payload {
            return Err(MpiError::Transport(format!(
                "corrupt cell: chunk_len {} exceeds capacity {}",
                header.chunk_len, self.geometry.cell_payload
            )));
        }
        Ok(())
    }

    /// Consumer: try to dequeue one chunk. `now_ts` is the consumer's virtual
    /// time, published as the head timestamp so a blocked producer can merge it.
    pub fn try_dequeue(&self, now_ts: f64) -> Result<Option<(CellHeader, Vec<u8>)>> {
        let Some(header) = self.peek_header()? else {
            return Ok(None);
        };
        let mut payload = vec![0u8; header.chunk_len as usize];
        let consumed = self.try_dequeue_into(now_ts, &mut payload)?;
        debug_assert_eq!(consumed.map(|h| h.chunk_len), Some(header.chunk_len));
        Ok(Some((header, payload)))
    }

    /// Consumer: dequeue the next chunk, copying its payload **straight into
    /// `dst`** (the allocation-free receive path). `dst` must have room for
    /// the chunk — callers learn the size via [`SpscQueue::peek_header`].
    /// Exactly `chunk_len` bytes of `dst` are written, starting at 0; the
    /// caller slices `dst` at the chunk's message offset.
    ///
    /// Returns the consumed header, or `None` if the ring is empty.
    pub fn try_dequeue_into(&self, now_ts: f64, dst: &mut [u8]) -> Result<Option<CellHeader>> {
        let head = self.obj.nt_load_u64_at(self.base + OFF_HEAD)?;
        let tail = self.obj.nt_load_u64_at(self.base + OFF_TAIL)?;
        if tail == head {
            return Ok(None);
        }
        let off = self.cell_offset(head % self.geometry.cells as u64);
        let mut hdr_buf = [0u8; CELL_HEADER_SIZE];
        self.obj.read_coherent_at(off, &mut hdr_buf)?;
        let header = CellHeader::decode(&hdr_buf);
        self.check_geometry(&header)?;
        let len = header.chunk_len as usize;
        if len > dst.len() {
            return Err(MpiError::Transport(format!(
                "dequeue destination of {} bytes too small for {}-byte chunk",
                dst.len(),
                len
            )));
        }
        if len > 0 {
            self.obj
                .read_coherent_at(off + CELL_HEADER_SIZE as u64, &mut dst[..len])?;
        }
        // Free the cell: stamp and bump the head.
        self.obj
            .nt_store_u64_at(self.base + OFF_HEAD_TS, now_ts.to_bits())?;
        self.obj.nt_store_u64_at(self.base + OFF_HEAD, head + 1)?;
        Ok(Some(header))
    }
}

/// The full queue matrix: `ranks × ranks` SPSC queues inside one SHM object,
/// indexed by `(receiver, sender)`.
#[derive(Debug, Clone)]
pub struct QueueMatrix {
    obj: ShmObject,
    ranks: usize,
    geometry: QueueGeometry,
}

impl QueueMatrix {
    /// Name of the SHM object holding the matrix.
    pub const OBJECT_NAME: &'static str = "cmpi/msgq_matrix";

    /// Hard cap on the bytes an eager queue matrix may demand from the pool.
    /// In simulation the device is physically committed host RAM, so an
    /// unchecked `ranks² × queue_bytes` product at large n would silently try
    /// to commit hundreds of GiB; past this cap the eager mode refuses with an
    /// actionable error instead (lazy mode has no matrix and no such cap).
    pub const MAX_MATRIX_BYTES: usize = 8 << 30;

    /// Total bytes needed for a matrix of `ranks × ranks` queues, with
    /// overflow-checked arithmetic and the [`QueueMatrix::MAX_MATRIX_BYTES`]
    /// cap enforced.
    pub fn required_bytes(ranks: usize, geometry: QueueGeometry) -> Result<usize> {
        let queue = geometry.checked_queue_bytes()?;
        let total = ranks
            .checked_mul(ranks)
            .and_then(|pairs| pairs.checked_mul(queue));
        match total {
            Some(total) if total <= Self::MAX_MATRIX_BYTES => Ok(total),
            _ => Err(MpiError::Transport(format!(
                "eager queue matrix for {ranks} ranks needs {} × {queue} bytes, \
                 over the {} byte cap (QueueMatrix::MAX_MATRIX_BYTES) — use lazy \
                 connection mode (ConnMode::Lazy) or shrink cell_size/cells_per_queue",
                ranks.saturating_mul(ranks),
                Self::MAX_MATRIX_BYTES
            ))),
        }
    }

    /// Attach to a matrix stored in `obj`.
    pub fn new(obj: ShmObject, ranks: usize, geometry: QueueGeometry) -> Result<Self> {
        let required = Self::required_bytes(ranks, geometry)? as u64;
        if obj.len() < required {
            return Err(MpiError::Transport(format!(
                "queue matrix object too small: {} < {}",
                obj.len(),
                required
            )));
        }
        Ok(QueueMatrix {
            obj,
            ranks,
            geometry,
        })
    }

    /// Number of ranks the matrix was built for.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The queue carrying messages from `sender` to `receiver`.
    pub fn queue(&self, receiver: Rank, sender: Rank) -> SpscQueue {
        debug_assert!(receiver < self.ranks && sender < self.ranks);
        let idx = (receiver * self.ranks + sender) as u64;
        SpscQueue::new(
            self.obj.clone(),
            idx * self.geometry.queue_bytes() as u64,
            self.geometry,
        )
    }

    /// Format every queue (called once by the creating rank).
    pub fn format_all(&self) -> Result<()> {
        for r in 0..self.ranks {
            for s in 0..self.ranks {
                self.queue(r, s).format()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_shm::{ArenaConfig, CxlShmArena, CxlView, DaxDevice, HostCache};

    fn make_object(bytes: usize) -> (ShmObject, ShmObject) {
        let size = (bytes + 2 * 1024 * 1024).div_ceil(4096) * 4096;
        let dev = DaxDevice::with_alignment("queue-test", size, 4096).unwrap();
        let arena_a = CxlShmArena::init(
            CxlView::new(dev.clone(), HostCache::with_capacity("hostA", 8192)),
            ArenaConfig::small(),
        )
        .unwrap();
        let arena_b =
            CxlShmArena::attach(CxlView::new(dev, HostCache::with_capacity("hostB", 8192)))
                .unwrap();
        let obj_a = arena_a.create("q", bytes).unwrap();
        let obj_b = arena_b.open("q").unwrap();
        (obj_a, obj_b)
    }

    fn geom(payload: usize, cells: usize) -> QueueGeometry {
        QueueGeometry {
            cell_payload: payload,
            cells,
        }
    }

    #[test]
    fn header_encode_decode_roundtrip() {
        let h = CellHeader {
            src: 7,
            ctx: 0,
            tag: -3,
            total_len: 1 << 40,
            chunk_offset: 4096,
            chunk_len: 512,
            timestamp: 123.456,
        };
        let enc = h.encode();
        let dec = CellHeader::decode(&enc);
        assert_eq!(h, dec);
    }

    #[test]
    fn geometry_sizes() {
        let g = geom(1024, 4);
        assert_eq!(g.cell_bytes(), 64 + 1024);
        assert_eq!(g.queue_bytes(), 128 + 4 * (64 + 1024));
        // Payloads are rounded up to full lines.
        let g = geom(100, 4);
        assert_eq!(g.cell_bytes(), 192);
    }

    #[test]
    fn enqueue_dequeue_across_hosts() {
        let g = geom(256, 4);
        let (producer_obj, consumer_obj) = make_object(g.queue_bytes());
        let producer = SpscQueue::new(producer_obj, 0, g);
        let consumer = SpscQueue::new(consumer_obj, 0, g);
        producer.format().unwrap();

        let header = CellHeader {
            src: 1,
            ctx: 0,
            tag: 5,
            total_len: 11,
            chunk_offset: 0,
            chunk_len: 11,
            timestamp: 1000.0,
        };
        assert!(producer.try_enqueue(&header, b"hello queue").unwrap());
        assert!(consumer.has_message().unwrap());
        let (h, payload) = consumer.try_dequeue(2000.0).unwrap().unwrap();
        assert_eq!(h.src, 1);
        assert_eq!(h.tag, 5);
        assert_eq!(h.timestamp, 1000.0);
        assert_eq!(&payload, b"hello queue");
        // Queue is empty again and the head timestamp is visible to the producer.
        assert!(consumer.try_dequeue(2000.0).unwrap().is_none());
        assert_eq!(producer.head_timestamp().unwrap(), 2000.0);
        assert_eq!(consumer.tail_timestamp().unwrap(), 1000.0);
    }

    #[test]
    fn ring_fills_and_reports_full() {
        let g = geom(64, 2);
        let (producer_obj, consumer_obj) = make_object(g.queue_bytes());
        let producer = SpscQueue::new(producer_obj, 0, g);
        let consumer = SpscQueue::new(consumer_obj, 0, g);
        producer.format().unwrap();
        let hdr = |i: u64| CellHeader {
            src: 0,
            ctx: 0,
            tag: 0,
            total_len: 4,
            chunk_offset: 0,
            chunk_len: 4,
            timestamp: i as f64,
        };
        assert!(producer.try_enqueue(&hdr(0), &[0; 4]).unwrap());
        assert!(producer.try_enqueue(&hdr(1), &[1; 4]).unwrap());
        assert!(!producer.try_enqueue(&hdr(2), &[2; 4]).unwrap());
        assert!(!producer.has_space().unwrap());
        // Drain one; a slot frees up.
        consumer.try_dequeue(0.0).unwrap().unwrap();
        assert!(producer.has_space().unwrap());
        assert!(producer.try_enqueue(&hdr(2), &[2; 4]).unwrap());
        // FIFO order is preserved.
        let (h1, p1) = consumer.try_dequeue(0.0).unwrap().unwrap();
        assert_eq!(h1.timestamp, 1.0);
        assert_eq!(p1, vec![1; 4]);
        let (h2, _) = consumer.try_dequeue(0.0).unwrap().unwrap();
        assert_eq!(h2.timestamp, 2.0);
    }

    #[test]
    fn header_padding_bytes_stay_zero() {
        let h = CellHeader {
            src: 1,
            ctx: 2,
            tag: 3,
            total_len: 4,
            chunk_offset: 0,
            chunk_len: 4,
            timestamp: 5.0,
        };
        let enc = h.encode();
        assert_eq!(&enc[36..40], &[0u8; 4], "reserved padding must stay zero");
    }

    #[test]
    fn peek_then_dequeue_into_caller_buffer() {
        let g = geom(256, 4);
        let (producer_obj, consumer_obj) = make_object(g.queue_bytes());
        let producer = SpscQueue::new(producer_obj, 0, g);
        let consumer = SpscQueue::new(consumer_obj, 0, g);
        producer.format().unwrap();
        assert!(consumer.peek_header().unwrap().is_none());

        let header = CellHeader {
            src: 2,
            ctx: 1,
            tag: 9,
            total_len: 16,
            chunk_offset: 8,
            chunk_len: 8,
            timestamp: 7.0,
        };
        producer.try_enqueue(&header, b"abcdefgh").unwrap();
        // Peek does not consume.
        let peeked = consumer.peek_header().unwrap().unwrap();
        assert_eq!(peeked, header);
        assert!(consumer.has_message().unwrap());
        // Dequeue straight into a caller buffer at the message offset.
        let mut msg = [0u8; 16];
        let consumed = consumer
            .try_dequeue_into(1.0, &mut msg[8..16])
            .unwrap()
            .unwrap();
        assert_eq!(consumed, header);
        assert_eq!(&msg[8..], b"abcdefgh");
        assert!(consumer.peek_header().unwrap().is_none());
        // Too-small destination is an error, not a truncation.
        producer.try_enqueue(&header, b"abcdefgh").unwrap();
        assert!(matches!(
            consumer.try_dequeue_into(1.0, &mut [0u8; 4]),
            Err(MpiError::Transport(_))
        ));
    }

    #[test]
    fn enqueue_scratch_is_reused() {
        let g = geom(64, 4);
        let (producer_obj, consumer_obj) = make_object(g.queue_bytes());
        let producer = SpscQueue::new(producer_obj, 0, g);
        let consumer = SpscQueue::new(consumer_obj, 0, g);
        producer.format().unwrap();
        let mut scratch = Vec::new();
        for i in 0..3u8 {
            let h = CellHeader {
                src: 0,
                ctx: 0,
                tag: 0,
                total_len: 4,
                chunk_offset: 0,
                chunk_len: 4,
                timestamp: i as f64,
            };
            assert!(producer
                .try_enqueue_with_scratch(&h, &[i; 4], &mut scratch)
                .unwrap());
        }
        let cap = scratch.capacity();
        assert!(cap >= CELL_HEADER_SIZE + 4);
        for i in 0..3u8 {
            let (_, p) = consumer.try_dequeue(0.0).unwrap().unwrap();
            assert_eq!(p, vec![i; 4]);
        }
        assert_eq!(scratch.capacity(), cap, "scratch must not reallocate");
    }

    #[test]
    fn oversized_chunk_rejected() {
        let g = geom(64, 2);
        let (producer_obj, _consumer) = make_object(g.queue_bytes());
        let producer = SpscQueue::new(producer_obj, 0, g);
        producer.format().unwrap();
        let h = CellHeader {
            src: 0,
            ctx: 0,
            tag: 0,
            total_len: 100,
            chunk_offset: 0,
            chunk_len: 100,
            timestamp: 0.0,
        };
        assert!(matches!(
            producer.try_enqueue(&h, &[0; 100]),
            Err(MpiError::Transport(_))
        ));
    }

    #[test]
    fn empty_payload_chunk() {
        let g = geom(64, 2);
        let (producer_obj, consumer_obj) = make_object(g.queue_bytes());
        let producer = SpscQueue::new(producer_obj, 0, g);
        let consumer = SpscQueue::new(consumer_obj, 0, g);
        producer.format().unwrap();
        let h = CellHeader {
            src: 3,
            ctx: 0,
            tag: 9,
            total_len: 0,
            chunk_offset: 0,
            chunk_len: 0,
            timestamp: 0.0,
        };
        assert!(producer.try_enqueue(&h, &[]).unwrap());
        let (h2, p) = consumer.try_dequeue(0.0).unwrap().unwrap();
        assert_eq!(h2.src, 3);
        assert!(p.is_empty());
    }

    #[test]
    fn matrix_queues_are_disjoint() {
        let g = geom(128, 2);
        let ranks = 3;
        let bytes = QueueMatrix::required_bytes(ranks, g).unwrap();
        let (obj_a, obj_b) = make_object(bytes);
        let matrix_a = QueueMatrix::new(obj_a, ranks, g).unwrap();
        let matrix_b = QueueMatrix::new(obj_b, ranks, g).unwrap();
        matrix_a.format_all().unwrap();

        // Rank 0 sends to rank 2, rank 1 sends to rank 2 — different queues.
        let h = |src: Rank| CellHeader {
            src,
            ctx: 0,
            tag: 0,
            total_len: 1,
            chunk_offset: 0,
            chunk_len: 1,
            timestamp: 0.0,
        };
        matrix_a.queue(2, 0).try_enqueue(&h(0), &[10]).unwrap();
        matrix_a.queue(2, 1).try_enqueue(&h(1), &[20]).unwrap();
        // Receiver drains its per-sender queues independently (on host B).
        let (h0, p0) = matrix_b.queue(2, 0).try_dequeue(0.0).unwrap().unwrap();
        let (h1, p1) = matrix_b.queue(2, 1).try_dequeue(0.0).unwrap().unwrap();
        assert_eq!((h0.src, p0[0]), (0, 10));
        assert_eq!((h1.src, p1[0]), (1, 20));
        // Queue (0, 2) is untouched.
        assert!(matrix_b.queue(0, 2).try_dequeue(0.0).unwrap().is_none());
    }

    #[test]
    fn matrix_rejects_undersized_object() {
        let g = geom(128, 2);
        let (obj, _) = make_object(QueueMatrix::required_bytes(2, g).unwrap());
        assert!(QueueMatrix::new(obj, 8, g).is_err());
    }

    #[test]
    fn required_bytes_overflow_and_cap_are_actionable() {
        // Arithmetic overflow of the ranks² × queue product.
        let g = geom(usize::MAX / 2, 2);
        let err = QueueMatrix::required_bytes(4, g).unwrap_err();
        assert!(matches!(err, MpiError::Transport(_)));
        assert!(err.to_string().contains("cell_size"), "{err}");
        // No overflow, but a demand past the matrix cap (64 KiB cells at
        // n=1024 would commit ~550 GiB of simulated device RAM).
        let g = geom(64 * 1024, 8);
        let err = QueueMatrix::required_bytes(1024, g).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("MAX_MATRIX_BYTES"), "{msg}");
        assert!(msg.contains("lazy"), "{msg}");
        // Sane geometries still size exactly.
        let g = geom(1024, 4);
        assert_eq!(
            QueueMatrix::required_bytes(3, g).unwrap(),
            9 * g.queue_bytes()
        );
    }
}
