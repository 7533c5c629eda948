//! Point-to-point support: the unexpected-message queue and chunk reassembly.
//!
//! MPI receive semantics require that a receive posted with selectors
//! `(src, tag)` matches the *earliest* incoming message with those values, even
//! if other, non-matching messages arrived before it. Like MPICH, each rank
//! therefore keeps an **unexpected-message queue** in local memory: messages
//! pulled off the wire (or out of the CXL ring queues) that no receive has
//! asked for yet. A receive first searches this queue, then drains the
//! transport until a matching message appears, stashing everything else.
//!
//! Matching is scoped by the **context id** of the communicator the receive
//! was posted on: a message sent on one communicator can never satisfy a
//! receive posted on another, even with identical source and tag. This is the
//! property that makes `comm_split`/`comm_dup` sub-communicators safe to use
//! concurrently (see [`crate::comm`]).
//!
//! The queue is also the landing zone of the progress engine's **drain
//! path** (`Transport::poll_incoming`, called whenever a collective schedule
//! op cannot complete and from [`crate::comm::Comm::progress`]): messages are
//! pulled off the wire *before* any receive asks for them, freeing ring cells
//! so senders blocked on flow control keep moving, and stashed here — in
//! [`BufferPool`]-recycled storage — until a schedule `Recv` or a posted
//! receive matches them. Wildcard receives skip the collective-reserved tag
//! range (see [`crate::types::COLL_TAG_BASE`]), so stashed collective traffic
//! is invisible to application `ANY_TAG` probes.

use crate::types::{source_matches, tag_matches, CtxId, Rank, Status, Tag};

/// A fully reassembled message waiting to be matched by a receive.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingMessage {
    /// Completion record (world source rank, tag, length).
    pub status: Status,
    /// Context id the message was sent under.
    pub ctx: CtxId,
    /// Payload.
    pub data: Vec<u8>,
    /// Virtual time at which the message became available at this rank.
    pub arrival: f64,
}

impl PendingMessage {
    /// Whether the message satisfies a receive posted with the given context
    /// and selectors.
    pub fn matches(&self, ctx: CtxId, src: Option<Rank>, tag: Option<Tag>) -> bool {
        self.ctx == ctx
            && source_matches(src, self.status.source)
            && tag_matches(tag, self.status.tag)
    }
}

/// The unexpected-message queue of one rank.
#[derive(Debug, Default)]
pub struct UnexpectedQueue {
    messages: Vec<PendingMessage>,
}

impl UnexpectedQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stashed messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Stash a message that no receive has matched yet.
    pub fn push(&mut self, msg: PendingMessage) {
        self.messages.push(msg);
    }

    /// Remove and return the earliest stashed message matching the context and
    /// selectors.
    pub fn take_match(
        &mut self,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Option<PendingMessage> {
        let pos = self
            .messages
            .iter()
            .position(|m| m.matches(ctx, src, tag))?;
        Some(self.messages.remove(pos))
    }

    /// Whether a stashed message matches the context and selectors
    /// (non-destructive probe).
    pub fn probe(
        &self,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Option<&PendingMessage> {
        self.messages.iter().find(|m| m.matches(ctx, src, tag))
    }
}

/// A pool of reusable byte buffers: the per-peer staging arena backing
/// unexpected-message reassembly on the CXL transport.
///
/// Receives that stash a message (no matching receive posted yet) need owned
/// storage; allocating it fresh per message put a `Vec` allocation plus a
/// zeroing pass on the hot path. The pool recycles those buffers: when a
/// stashed message is later consumed by a receive into a caller's slice, its
/// storage comes back here and the next unexpected message reuses it.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
}

/// Buffers retained by a [`BufferPool`] (beyond this, returned buffers are
/// simply dropped).
const POOL_RETAIN: usize = 8;

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a buffer resized to exactly `len` bytes, reusing pooled capacity
    /// when available. Contents are unspecified except being `len` long.
    pub fn take(&mut self, len: usize) -> Vec<u8> {
        // Prefer the smallest free buffer that already fits, to keep big
        // buffers available for big messages.
        let mut best: Option<usize> = None;
        for (i, b) in self.free.iter().enumerate() {
            if b.capacity() >= len && best.is_none_or(|j| b.capacity() < self.free[j].capacity()) {
                best = Some(i);
            }
        }
        let mut buf = match best {
            Some(i) => self.free.swap_remove(i),
            None => self.free.pop().unwrap_or_default(),
        };
        buf.resize(len, 0);
        buf
    }

    /// Return a buffer to the pool for reuse.
    pub fn put(&mut self, buf: Vec<u8>) {
        if self.free.len() < POOL_RETAIN && buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Number of buffers currently pooled.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

/// Incremental reassembly of one chunked message coming out of an SPSC queue.
///
/// Chunks of a single message are contiguous in their per-pair queue (the
/// sender enqueues a whole message before starting the next), so reassembly
/// only needs the total length from the first chunk's header. Chunk payloads
/// are dequeued **directly into** the assembler's buffer
/// ([`ChunkAssembler::chunk_target`] / [`ChunkAssembler::commit_chunk`]); the
/// buffer itself can come from a [`BufferPool`] so steady-state reassembly
/// performs no allocation at all.
#[derive(Debug)]
pub struct ChunkAssembler {
    src: Rank,
    ctx: CtxId,
    tag: Tag,
    total_len: usize,
    received: usize,
    data: Vec<u8>,
    latest_ts: f64,
}

impl ChunkAssembler {
    /// Start assembling from the first chunk of a message.
    pub fn new(src: Rank, ctx: CtxId, tag: Tag, total_len: usize) -> Self {
        Self::with_buffer(src, ctx, tag, total_len, vec![0u8; total_len])
    }

    /// Start assembling into a caller-provided buffer (typically from a
    /// [`BufferPool`]); it is resized to `total_len`.
    pub fn with_buffer(
        src: Rank,
        ctx: CtxId,
        tag: Tag,
        total_len: usize,
        mut buf: Vec<u8>,
    ) -> Self {
        buf.resize(total_len, 0);
        ChunkAssembler {
            src,
            ctx,
            tag,
            total_len,
            received: 0,
            data: buf,
            latest_ts: 0.0,
        }
    }

    /// The writable region for a chunk of `len` bytes at message offset
    /// `offset` — dequeue the payload straight into this slice, then call
    /// [`ChunkAssembler::commit_chunk`]. Panics if the chunk falls outside the
    /// message bounds (would indicate queue corruption).
    pub fn chunk_target(&mut self, offset: usize, len: usize) -> &mut [u8] {
        assert!(
            offset + len <= self.total_len,
            "chunk [{offset}, {}) exceeds message length {}",
            offset + len,
            self.total_len
        );
        &mut self.data[offset..offset + len]
    }

    /// Record that `len` bytes were written via [`ChunkAssembler::chunk_target`].
    pub fn commit_chunk(&mut self, len: usize, timestamp: f64) {
        self.received += len;
        if timestamp > self.latest_ts {
            self.latest_ts = timestamp;
        }
    }

    /// Add one chunk by copy (the non-zero-copy convenience used by tests and
    /// cold paths). Panics if the chunk falls outside the message bounds.
    pub fn add_chunk(&mut self, offset: usize, chunk: &[u8], timestamp: f64) {
        self.chunk_target(offset, chunk.len())
            .copy_from_slice(chunk);
        self.commit_chunk(chunk.len(), timestamp);
    }

    /// Total length of the message being assembled.
    pub fn total_len(&self) -> usize {
        self.total_len
    }

    /// Payload bytes committed so far (the next offset of a message that
    /// arrives in order, as a rendezvous stream does).
    pub fn received(&self) -> usize {
        self.received
    }

    /// Whether every byte of the message has arrived.
    pub fn is_complete(&self) -> bool {
        self.received >= self.total_len
    }

    /// Consume the assembler, producing the pending message. Panics if called
    /// before completion.
    pub fn finish(self) -> PendingMessage {
        assert!(self.is_complete(), "message not fully assembled");
        PendingMessage {
            status: Status::new(self.src, self.tag, self.total_len),
            ctx: self.ctx,
            data: self.data,
            arrival: self.latest_ts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: Rank, tag: Tag, len: usize) -> PendingMessage {
        msg_ctx(0, src, tag, len)
    }

    fn msg_ctx(ctx: CtxId, src: Rank, tag: Tag, len: usize) -> PendingMessage {
        PendingMessage {
            status: Status::new(src, tag, len),
            ctx,
            data: vec![src as u8; len],
            arrival: 0.0,
        }
    }

    #[test]
    fn take_match_respects_order_and_selectors() {
        let mut q = UnexpectedQueue::new();
        q.push(msg(0, 1, 4));
        q.push(msg(1, 2, 4));
        q.push(msg(0, 2, 4));
        // Wildcard source, tag 2 → the message from rank 1 (earliest tag-2).
        let m = q.take_match(0, None, Some(2)).unwrap();
        assert_eq!(m.status.source, 1);
        // Specific source 0, wildcard tag → the first message from rank 0.
        let m = q.take_match(0, Some(0), None).unwrap();
        assert_eq!(m.status.tag, 1);
        assert_eq!(q.len(), 1);
        assert!(q.take_match(0, Some(5), None).is_none());
    }

    #[test]
    fn context_id_isolates_matching() {
        let mut q = UnexpectedQueue::new();
        q.push(msg_ctx(1, 0, 7, 4));
        q.push(msg_ctx(2, 0, 7, 8));
        // Identical (src, tag) but different communicators: the receive on
        // context 2 must skip the context-1 message.
        let m = q.take_match(2, Some(0), Some(7)).unwrap();
        assert_eq!(m.status.len, 8);
        assert!(q.take_match(0, Some(0), Some(7)).is_none());
        assert!(q.probe(1, Some(0), Some(7)).is_some());
        let m = q.take_match(1, None, None).unwrap();
        assert_eq!(m.status.len, 4);
        assert!(q.is_empty());
    }

    #[test]
    fn probe_does_not_remove() {
        let mut q = UnexpectedQueue::new();
        q.push(msg(3, 7, 2));
        assert!(q.probe(0, Some(3), Some(7)).is_some());
        assert_eq!(q.len(), 1);
        assert!(q.probe(0, Some(3), Some(8)).is_none());
    }

    #[test]
    fn buffer_pool_recycles_capacity() {
        let mut pool = BufferPool::new();
        let buf = pool.take(100);
        assert_eq!(buf.len(), 100);
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        pool.put(buf);
        assert_eq!(pool.len(), 1);
        // A smaller request reuses the same allocation.
        let again = pool.take(50);
        assert_eq!(again.len(), 50);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.capacity(), cap);
        pool.put(again);
        // Prefers the smallest buffer that fits.
        pool.put(Vec::with_capacity(1000));
        let small = pool.take(10);
        assert_eq!(small.capacity(), cap);
    }

    #[test]
    fn assembler_direct_fill_via_chunk_target() {
        let mut pool = BufferPool::new();
        let mut a = ChunkAssembler::with_buffer(1, 0, 2, 8, pool.take(8));
        a.chunk_target(4, 4).copy_from_slice(&[5, 6, 7, 8]);
        a.commit_chunk(4, 2.0);
        a.chunk_target(0, 4).copy_from_slice(&[1, 2, 3, 4]);
        a.commit_chunk(4, 1.0);
        assert!(a.is_complete());
        let m = a.finish();
        assert_eq!(m.data, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.arrival, 2.0);
        pool.put(m.data);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn assembler_reassembles_out_of_order_chunks() {
        let mut a = ChunkAssembler::new(2, 5, 9, 10);
        a.add_chunk(4, &[5, 6, 7, 8, 9, 10], 100.0);
        assert!(!a.is_complete());
        a.add_chunk(0, &[1, 2, 3, 4], 50.0);
        assert!(a.is_complete());
        let m = a.finish();
        assert_eq!(m.data, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(m.status, Status::new(2, 9, 10));
        assert_eq!(m.ctx, 5);
        assert_eq!(m.arrival, 100.0);
    }

    #[test]
    fn assembler_zero_length_message() {
        let a = ChunkAssembler::new(0, 0, 0, 0);
        assert!(a.is_complete());
        assert!(a.finish().data.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds message length")]
    fn assembler_rejects_out_of_bounds_chunk() {
        let mut a = ChunkAssembler::new(0, 0, 0, 4);
        a.add_chunk(2, &[0, 0, 0], 0.0);
    }

    #[test]
    #[should_panic(expected = "not fully assembled")]
    fn finish_requires_completion() {
        let a = ChunkAssembler::new(0, 0, 0, 4);
        let _ = a.finish();
    }
}
