//! `rma_mix`: one-sided traffic on one user window between two ranks on two
//! hosts — PSCW `put` at 8 B and 4 KiB (one epoch per put), PSCW epochs of
//! 4 × 1 MiB `put`, `get` at 4 KiB and 1 MiB under `win_fence`, and
//! `win_lock`/`accumulate`/`win_unlock` of 8 B. One op is one RMA call
//! including its share of synchronisation.
//!
//! Why: Figures 5–6 and the 49×/72× headlines. It uses pool windows the other
//! way round from `coll_mix` (user `rma/` windows, writes beside reads, the
//! bakery lock), so a window unification that speeds collectives but costs
//! RMA shows here.
//!
//! Checks: every `get` is verified by the origin on arrival (consecutive gets
//! read alternating source regions, so a get that moved nothing is caught);
//! the target verifies the window after each block of puts (a put is only
//! observable through the window's final state) and the accumulate slot
//! against the closed-form sum, outside the timed region.

use cmpi_core::transport::WinId;
use cmpi_core::{ReduceOp, Result};

use crate::harness::{Cx, Done, Entry, Workload};
use crate::rng::{checksum, Payload};
use crate::tracer::Kind;

pub struct RmaMix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One PSCW epoch per put of this size.
    Put(usize),
    /// One PSCW epoch of four 1 MiB puts.
    Put4x1M,
    /// `win_fence`, `get` of this size, `win_fence`.
    Get(usize),
    /// `win_lock`, 8 B `accumulate`, `win_unlock`.
    Acc,
}

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;
/// Window layout per rank: put area, two get source regions, accumulate slot.
const PUT_AREA: usize = 4 * MIB;
const GET_BASE: usize = PUT_AREA;
const ACC_OFF: usize = GET_BASE + 2 * MIB;
const WIN_BYTES: usize = ACC_OFF + 64;
const ORIGIN: usize = 0;
const TARGET: usize = 1;

pub struct State {
    win: WinId,
    /// Put payloads by size (8 B, 4 KiB, 1 MiB).
    put: Vec<Payload>,
    /// The two get source regions as the target filled them.
    get_src: [Vec<u8>; 2],
    buf: Vec<u8>,
    /// Op id of the first put of the last epoch of the last put block.
    last_put: Option<u64>,
    acc_expected: f64,
}

fn put_index(size: usize) -> usize {
    [8, 4 * KIB, MIB]
        .iter()
        .position(|&s| s == size)
        .expect("a put size")
}

fn acc_value(op_id: u64) -> f64 {
    (op_id % 7 + 1) as f64
}

impl Workload for RmaMix {
    type Op = Op;
    type State = State;

    const NAME: &'static str = "rma_mix";
    const VIRT_RANKS: usize = 2;
    const EXACT: &'static [&'static str] = &["put_8B", "put_4KiB", "lock_acc_8B"];

    fn mix(_ranks: usize) -> Vec<Entry<Op>> {
        [
            (Op::Put(8), 20_000, 6),
            (Op::Put(4 * KIB), 6000, 6),
            (Op::Put4x1M, 3, 3),
            (Op::Get(4 * KIB), 6000, 6),
            (Op::Get(MIB), 16, 4),
            (Op::Acc, 20_000, 6),
        ]
        .into_iter()
        .map(|(op, iters, chunks)| Entry { op, iters, chunks })
        .collect()
    }

    fn label(op: Op) -> String {
        match op {
            Op::Put(8) => "put_8B".into(),
            Op::Put(_) => "put_4KiB".into(),
            Op::Put4x1M => "put_4x1MiB".into(),
            Op::Get(MIB) => "get_1MiB".into(),
            Op::Get(_) => "get_4KiB".into(),
            Op::Acc => "lock_acc_8B".into(),
        }
    }

    fn setup(cx: &mut Cx<'_>) -> Result<State> {
        let seed = cx.seed;
        let win = cx.comm.win_allocate(WIN_BYTES)?;
        let (put, get_src) = cx.untimed(|| {
            let put = [8, 4 * KIB, MIB]
                .iter()
                .map(|&s| Payload::new(seed, 0x907 << 32 | s as u64, s))
                .collect();
            let region = |k: u64| Payload::new(seed, 0x6E7 << 32 | k, MIB).bytes;
            (put, [region(0), region(1)])
        });
        // Every rank publishes the get sources and a zeroed accumulate slot.
        cx.comm.win_write_local(win, GET_BASE, &get_src[0])?;
        cx.comm.win_write_local(win, GET_BASE + MIB, &get_src[1])?;
        cx.comm.win_write_local(win, ACC_OFF, &0f64.to_le_bytes())?;
        cx.comm.win_fence(win)?;
        Ok(State {
            win,
            put,
            get_src,
            buf: vec![0u8; MIB],
            last_put: None,
            acc_expected: 0.0,
        })
    }

    fn run(cx: &mut Cx<'_>, st: &mut State, op: Op, iters: usize, base: u64) -> Result<Done> {
        let me = cx.rank();
        let win = st.win;
        let mut done = Done::default();
        match op {
            Op::Put(size) => {
                let payload = &mut st.put[put_index(size)];
                for i in 0..iters as u64 {
                    if me == ORIGIN {
                        payload.stamp(base + i);
                        cx.call(Kind::WinSync, 0, |c| c.win_start(win, &[TARGET]))?;
                        cx.call(Kind::Put, size, |c| c.put(win, TARGET, 0, &payload.bytes))?;
                        cx.call(Kind::WinSync, 0, |c| c.win_complete(win))?;
                        done.ops += 1;
                    } else {
                        cx.call(Kind::WinSync, 0, |c| c.win_post(win, &[ORIGIN]))?;
                        cx.call(Kind::WinSync, 0, |c| c.win_wait(win))?;
                    }
                }
                st.last_put = Some(base + iters as u64 - 1);
            }
            Op::Put4x1M => {
                let payload = &mut st.put[put_index(MIB)];
                for i in 0..iters as u64 {
                    if me == ORIGIN {
                        cx.call(Kind::WinSync, 0, |c| c.win_start(win, &[TARGET]))?;
                        for j in 0..4u64 {
                            payload.stamp(base + 4 * i + j);
                            cx.call(Kind::Put, MIB, |c| {
                                c.put(win, TARGET, j as usize * MIB, &payload.bytes)
                            })?;
                            done.ops += 1;
                        }
                        cx.call(Kind::WinSync, 0, |c| c.win_complete(win))?;
                    } else {
                        cx.call(Kind::WinSync, 0, |c| c.win_post(win, &[ORIGIN]))?;
                        cx.call(Kind::WinSync, 0, |c| c.win_wait(win))?;
                    }
                }
                st.last_put = Some(base + 4 * (iters as u64 - 1));
            }
            Op::Get(size) => {
                let expected = [
                    checksum(&st.get_src[0][..size]),
                    checksum(&st.get_src[1][..size]),
                ];
                let buf = &mut st.buf[..size];
                for i in 0..iters {
                    cx.call(Kind::WinSync, 0, |c| c.win_fence(win))?;
                    if me == ORIGIN {
                        let from = GET_BASE + (i % 2) * MIB;
                        cx.call(Kind::Get, size, |c| c.get(win, TARGET, from, buf))?;
                        let ok = cx.verify(size, || checksum(buf) == expected[i % 2])?;
                        done.add(ok);
                    }
                    cx.call(Kind::WinSync, 0, |c| c.win_fence(win))?;
                }
            }
            Op::Acc => {
                for i in 0..iters as u64 {
                    let v = acc_value(base + i);
                    st.acc_expected += v;
                    if me == ORIGIN {
                        cx.call(Kind::WinLock, 0, |c| c.win_lock(win, TARGET))?;
                        cx.call(Kind::Accumulate, 8, |c| {
                            c.accumulate(win, TARGET, ACC_OFF, &[v], ReduceOp::Sum)
                        })?;
                        cx.call(Kind::WinLock, 0, |c| c.win_unlock(win, TARGET))?;
                        done.ops += 1;
                    }
                }
            }
        }
        Ok(done)
    }

    /// The target checks what the block left in its window.
    fn after(cx: &mut Cx<'_>, st: &mut State, op: Op) -> Result<u64> {
        if op == Op::Acc {
            // Passive target: only the barrier tells it the origin is done.
            cx.comm.barrier()?;
        }
        if cx.rank() != TARGET {
            return Ok(0);
        }
        let mut bad = 0;
        match (op, st.last_put.take()) {
            (Op::Put(size), Some(last)) => {
                cx.comm.win_read_local(st.win, 0, &mut st.buf[..size])?;
                bad += u64::from(!st.put[put_index(size)].matches(last, &st.buf[..size]));
            }
            (Op::Put4x1M, Some(last)) => {
                for j in 0..4u64 {
                    cx.comm
                        .win_read_local(st.win, j as usize * MIB, &mut st.buf[..MIB])?;
                    bad += u64::from(!st.put[put_index(MIB)].matches(last + j, &st.buf[..MIB]));
                }
            }
            (Op::Acc, _) => {
                let mut slot = [0u8; 8];
                cx.comm.win_read_local(st.win, ACC_OFF, &mut slot)?;
                bad += u64::from(f64::from_le_bytes(slot) != st.acc_expected);
            }
            _ => {}
        }
        Ok(bad)
    }

    fn finish(cx: &mut Cx<'_>, st: State) -> Result<()> {
        cx.comm.win_free(st.win)
    }
}
