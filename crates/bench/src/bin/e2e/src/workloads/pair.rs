//! What the two point-to-point workloads share: the payloads a pair of
//! ranks exchanges, by size, and the ping-pong loop.

use cmpi_core::Result;

use crate::harness::Cx;
use crate::rng::Payload;
use crate::tracer::Kind;

/// One payload per message size for each direction of a 2-rank pair.
pub struct PairPayloads {
    sizes: &'static [usize],
    /// What this rank sends.
    pub mine: Vec<Payload>,
    /// What the peer sends, for checking arrivals.
    pub theirs: Vec<Payload>,
    /// Receive buffer as large as the largest size.
    pub recv: Vec<u8>,
}

impl PairPayloads {
    pub fn new(seed: u64, me: usize, sizes: &'static [usize]) -> Self {
        let build = |rank: usize| {
            sizes
                .iter()
                .map(|&s| Payload::new(seed, (rank as u64) << 32 | s as u64, s))
                .collect()
        };
        PairPayloads {
            sizes,
            mine: build(me),
            theirs: build(1 - me),
            recv: vec![0u8; sizes.iter().copied().max().unwrap_or(0)],
        }
    }

    pub fn index(&self, size: usize) -> usize {
        self.sizes
            .iter()
            .position(|&s| s == size)
            .expect("a mix size")
    }
}

/// `iters` round trips of `size` bytes, rank 0 sending first. Every arrival
/// is verified against the peer's payload as stamped for that round trip;
/// `arrived(ok)` is told the outcome.
pub fn pingpong(
    cx: &mut Cx<'_>,
    pair: &mut PairPayloads,
    size: usize,
    iters: usize,
    base: u64,
    mut arrived: impl FnMut(bool),
) -> Result<()> {
    let me = cx.rank();
    let peer = 1 - me;
    let k = pair.index(size);
    let (mine, theirs, buf) = (&mut pair.mine[k], &pair.theirs[k], &mut pair.recv[..size]);
    for i in 0..iters as u64 {
        let op_id = base + i;
        if me == 0 {
            mine.stamp(op_id);
            cx.call(Kind::Send, size, |c| c.send(peer, 1, &mine.bytes))?;
        }
        cx.call(Kind::Recv, size, |c| c.recv(Some(peer), Some(1), buf))?;
        arrived(cx.verify(size, || theirs.matches(op_id, buf))?);
        if me == 1 {
            mine.stamp(op_id);
            cx.call(Kind::Send, size, |c| c.send(peer, 1, &mine.bytes))?;
        }
    }
    Ok(())
}
