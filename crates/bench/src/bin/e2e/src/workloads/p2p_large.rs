//! `p2p_large`: bulk two-sided transfers between two ranks on two hosts — a
//! windowed one-way stream (4 messages in flight, then a 1-byte ack) at
//! 256 KiB, 1 MiB and 4 MiB with equal bytes per size, plus 1 MiB ping-pong.
//! One op is 1 MiB of payload delivered and verified, so `*_us_per_op` reads
//! as µs per MiB.
//!
//! Why: this is Figure 7 and the largest known gap (4 MiB two-sided runs far
//! below the one-sided path on both clocks). Chunked SPSC cells, the cache
//! simulator and the device-bandwidth model dominate; matching is amortised
//! away. A rendezvous path must move this workload and leave `p2p_small`
//! alone.

use cmpi_core::Result;

use super::pair::{pingpong, PairPayloads};
use crate::harness::{Cx, Done, Entry, Workload};
use crate::tracer::Kind;

pub struct P2pLarge;

#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// One-way stream of messages of this size.
    Stream(usize),
    /// 1 MiB ping-pong.
    PingPong,
}

const KIB: usize = 1024;
pub const MIB: usize = 1024 * KIB;
pub const SIZES: [usize; 3] = [256 * KIB, MIB, 4 * MIB];
/// Messages in flight before the receiver acknowledges (the OSU window).
pub const WINDOW: usize = 4;
/// Payload each class moves in one launch.
const CLASS_BYTES: usize = 32 * MIB;

pub struct State {
    pair: PairPayloads,
}

/// Ops are MiB of verified payload; sub-MiB messages accumulate.
struct MibCounter {
    done: Done,
    bytes: usize,
    bad: bool,
}

impl MibCounter {
    fn add(&mut self, bytes: usize, ok: bool) {
        self.bytes += bytes;
        self.bad |= !ok;
        while self.bytes >= MIB {
            self.bytes -= MIB;
            self.done.add(!self.bad);
            // A bad message taints every MiB it contributes to.
            self.bad = !ok && self.bytes > 0;
        }
    }
}

impl Workload for P2pLarge {
    type Op = Op;
    type State = State;

    const NAME: &'static str = "p2p_large";
    const VIRT_RANKS: usize = 2;
    const EXACT: &'static [&'static str] = &[];

    fn mix(_ranks: usize) -> Vec<Entry<Op>> {
        let mut mix: Vec<Entry<Op>> = SIZES
            .iter()
            .map(|&s| {
                let windows = CLASS_BYTES / (WINDOW * s);
                Entry {
                    op: Op::Stream(s),
                    iters: windows,
                    chunks: windows.min(4),
                }
            })
            .collect();
        mix.push(Entry {
            op: Op::PingPong,
            iters: CLASS_BYTES / MIB / 2,
            chunks: 4,
        });
        mix
    }

    fn label(op: Op) -> String {
        match op {
            Op::Stream(s) if s < MIB => format!("stream_{}KiB", s / KIB),
            Op::Stream(s) => format!("stream_{}MiB", s / MIB),
            Op::PingPong => "pingpong_1MiB".into(),
        }
    }

    fn setup(cx: &mut Cx<'_>) -> Result<State> {
        let (me, seed) = (cx.rank(), cx.seed);
        Ok(cx.untimed(|| State {
            pair: PairPayloads::new(seed, me, &SIZES),
        }))
    }

    fn run(cx: &mut Cx<'_>, st: &mut State, op: Op, iters: usize, base: u64) -> Result<Done> {
        let me = cx.rank();
        let peer = 1 - me;
        let mut count = MibCounter {
            done: Done::default(),
            bytes: 0,
            bad: false,
        };
        match op {
            Op::Stream(size) => {
                let pair = &mut st.pair;
                let k = pair.index(size);
                let (mine, theirs, buf) =
                    (&mut pair.mine[k], &pair.theirs[k], &mut pair.recv[..size]);
                let mut ack = [0u8; 1];
                for w in 0..iters {
                    for j in 0..WINDOW {
                        let op_id = base + (w * WINDOW + j) as u64;
                        if me == 0 {
                            mine.stamp(op_id);
                            cx.call(Kind::Send, size, |c| c.send(peer, 2, &mine.bytes))?;
                        } else {
                            cx.call(Kind::Recv, size, |c| c.recv(Some(peer), Some(2), buf))?;
                            let ok = cx.verify(size, || theirs.matches(op_id, buf))?;
                            count.add(size, ok);
                        }
                    }
                    if me == 0 {
                        cx.call(Kind::Recv, 1, |c| c.recv(Some(peer), Some(3), &mut ack))?;
                        if ack[0] != 1 {
                            count.done.failed += 1;
                        }
                    } else {
                        cx.call(Kind::Send, 1, |c| c.send(peer, 3, &[1u8]))?;
                    }
                }
            }
            Op::PingPong => {
                pingpong(cx, &mut st.pair, MIB, iters, base, |ok| count.add(MIB, ok))?;
            }
        }
        Ok(count.done)
    }

    fn finish(_cx: &mut Cx<'_>, _st: State) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mib_counter_accumulates_and_taints() {
        let mut c = MibCounter {
            done: Done::default(),
            bytes: 0,
            bad: false,
        };
        for _ in 0..4 {
            c.add(256 * KIB, true);
        }
        assert_eq!((c.done.ops, c.done.failed), (1, 0));
        c.add(256 * KIB, false);
        for _ in 0..3 {
            c.add(256 * KIB, true);
        }
        assert_eq!((c.done.ops, c.done.failed), (2, 1));
        c.add(4 * MIB, false);
        assert_eq!((c.done.ops, c.done.failed), (6, 5));
        c.add(MIB, true);
        assert_eq!((c.done.ops, c.done.failed), (7, 5));
    }

    #[test]
    fn every_class_moves_the_same_bytes() {
        for e in P2pLarge::mix(2) {
            let bytes = match e.op {
                Op::Stream(s) => e.iters * WINDOW * s,
                Op::PingPong => e.iters * 2 * MIB,
            };
            assert_eq!(bytes, CLASS_BYTES, "{:?}", e.op);
        }
    }
}
