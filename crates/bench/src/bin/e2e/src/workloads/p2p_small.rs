//! `p2p_small`: two-sided small-message traffic between two ranks on two
//! hosts — ping-pong at 8 B, 256 B and 4 KiB with equal message counts, plus
//! bursts of 16 outstanding 8 B `isend`/`irecv_into` completed by `wait_all`.
//! One op is one message delivered and verified.
//!
//! Why: this is Figure 8 and the 13.7× headline. Per-message software cost
//! (matching, cell header, flush/fence, doorbell) does all the work; the copy
//! path, plans, windows and the contention model do almost none.

use cmpi_core::{Request, Result};

use super::pair::{pingpong, PairPayloads};
use crate::harness::{Cx, Done, Entry, Workload};
use crate::rng::checksum;
use crate::tracer::Kind;

pub struct P2pSmall;

#[derive(Debug, Clone, Copy)]
pub enum Op {
    PingPong(usize),
    Burst,
}

pub const SIZES: [usize; 3] = [8, 256, 4096];
/// Messages outstanding in one burst.
pub const BURST: usize = 16;
/// Round trips per ping-pong size in one launch; a burst iteration moves
/// `BURST` messages, so `2 * ROUND_TRIPS / BURST` of them match the count.
const ROUND_TRIPS: usize = 6000;

pub struct State {
    pair: PairPayloads,
    /// Receive buffers recycled through `irecv_into` / `take_data`.
    burst_bufs: Vec<Vec<u8>>,
}

impl Workload for P2pSmall {
    type Op = Op;
    type State = State;

    const NAME: &'static str = "p2p_small";
    const VIRT_RANKS: usize = 2;
    const EXACT: &'static [&'static str] = &["pingpong_8B", "pingpong_256B", "pingpong_4096B"];

    fn mix(_ranks: usize) -> Vec<Entry<Op>> {
        let mut mix: Vec<Entry<Op>> = SIZES
            .iter()
            .map(|&s| Entry {
                op: Op::PingPong(s),
                iters: ROUND_TRIPS,
                chunks: 6,
            })
            .collect();
        mix.push(Entry {
            op: Op::Burst,
            iters: 2 * ROUND_TRIPS / BURST,
            chunks: 6,
        });
        mix
    }

    fn label(op: Op) -> String {
        match op {
            Op::PingPong(s) => format!("pingpong_{s}B"),
            Op::Burst => "burst16_8B".into(),
        }
    }

    fn setup(cx: &mut Cx<'_>) -> Result<State> {
        let (me, seed) = (cx.rank(), cx.seed);
        Ok(cx.untimed(|| State {
            pair: PairPayloads::new(seed, me, &SIZES),
            burst_bufs: (0..BURST).map(|_| vec![0u8; 8]).collect(),
        }))
    }

    fn run(cx: &mut Cx<'_>, st: &mut State, op: Op, iters: usize, base: u64) -> Result<Done> {
        let me = cx.rank();
        let peer = 1 - me;
        let mut done = Done::default();
        match op {
            Op::PingPong(size) => {
                pingpong(cx, &mut st.pair, size, iters, base, |ok| done.add(ok))?;
            }
            Op::Burst => {
                let (mine, theirs) = (&mut st.pair.mine[0], &st.pair.theirs[0]);
                let mut reqs: Vec<Request> = Vec::with_capacity(BURST);
                for i in 0..iters as u64 {
                    // Directions alternate: a blocked send does not drain
                    // arrivals, so 16 a side in both directions at once could
                    // fill both 8-cell rings and deadlock.
                    let sender = (i % 2) as usize;
                    let first = base + i * BURST as u64;
                    reqs.clear();
                    if me == sender {
                        for j in 0..BURST as u64 {
                            mine.stamp(first + j);
                            reqs.push(cx.call(Kind::Send, 8, |c| c.isend(peer, 2, &mine.bytes))?);
                        }
                        cx.call(Kind::Wait, 0, |c| c.wait_all(&mut reqs))?;
                    } else {
                        for buf in st.burst_bufs.drain(..) {
                            reqs.push(
                                cx.call(Kind::Recv, 8, |c| c.irecv_into(Some(peer), Some(2), buf))?,
                            );
                        }
                        cx.call(Kind::Wait, 8 * BURST, |c| c.wait_all(&mut reqs))?;
                        // `wait_all` hands an arrival to whichever pending
                        // request it polls next, not to the oldest posted one,
                        // so a burst is checked as a set: every message must
                        // be a distinct one of the 16 that were sent.
                        let mut unseen: u32 = (1 << BURST) - 1;
                        for req in reqs.iter_mut() {
                            let got = req.take_data()?;
                            let ok = cx.verify(8, || {
                                let sum = checksum(&got);
                                let hit = (0..BURST).find(|&j| {
                                    unseen >> j & 1 == 1 && theirs.expected(first + j as u64) == sum
                                });
                                hit.inspect(|j| unseen &= !(1 << j)).is_some()
                            })?;
                            done.add(ok);
                            st.burst_bufs.push(got);
                        }
                    }
                }
            }
        }
        Ok(done)
    }

    fn finish(_cx: &mut Cx<'_>, _st: State) -> Result<()> {
        Ok(())
    }
}
