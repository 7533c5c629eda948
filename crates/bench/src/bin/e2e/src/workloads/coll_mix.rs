//! `coll_mix`: collectives on a duplicated communicator — `barrier`,
//! `bcast_into`, `allreduce`, `allgather_into` and `alltoall` at 8 B and
//! 64 KiB, `allreduce`/`bcast_into` at 1 MiB (2 ranks) or 256 KiB (8 ranks),
//! and a window of 4 persistent `allreduce_init` requests cycled with
//! `start`/`wait`. One op is one collective.
//!
//! Why: plan build/bind/cache, the progress engine and the data plane's
//! expose/pull do the work; the p2p match path and `rma/` do none. The
//! virtual number comes from 8 ranks on 2 hosts (algorithm selection, the
//! hierarchy and the shared-window data plane are trivial at 2 ranks); the
//! wall numbers come from the same script at 2 ranks.

use cmpi_core::{Comm, ReduceOp, Request, Result};

use crate::harness::{Cx, Done, Entry, Workload};
use crate::rng::Payload;
use crate::tracer::Kind;

pub struct CollMix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Barrier,
    /// Payload bytes broadcast from rank 0.
    Bcast(usize),
    /// Payload bytes reduced (as `f64`, sum).
    Allreduce(usize),
    /// Bytes contributed per rank.
    Allgather(usize),
    /// Bytes per peer block.
    Alltoall(usize),
    /// Four persistent allreduces started together, then waited.
    Persistent,
}

const KIB: usize = 1024;
const SMALL: usize = 8;
const MEDIUM: usize = 64 * KIB;
/// Requests in the persistent window.
const PERSISTENT: usize = 4;
/// Elements of each persistent allreduce (1 KiB).
const PERSISTENT_ELEMS: usize = 128;

/// The large size: 1 MiB when the wall clock is read (2 ranks), 256 KiB at
/// 8 ranks, where the host runs four threads per core.
fn large(ranks: usize) -> usize {
    if ranks <= 2 {
        1024 * KIB
    } else {
        256 * KIB
    }
}

pub struct State {
    comm: Comm,
    /// One payload per (size class, rank): what each rank contributes to
    /// bcast/allgather/alltoall at that size.
    payloads: Vec<(usize, Vec<Payload>)>,
    send: Vec<u8>,
    recv: Vec<u8>,
    values: Vec<f64>,
    persistent: Vec<Request>,
}

/// The per-rank payloads of one size class.
fn class(payloads: &mut [(usize, Vec<Payload>)], size: usize) -> &mut [Payload] {
    &mut payloads
        .iter_mut()
        .find(|(s, _)| *s == size)
        .expect("a mix size")
        .1
}

/// Element `i` of rank `r`'s contribution to allreduce number `op`: a small
/// integer times `r + 1`, so the sum over `n` ranks is exactly
/// `n(n+1)/2 · weight` in floating point.
fn weight(op: u64, i: usize) -> f64 {
    ((op as usize + i) % 8 + 1) as f64
}

fn fill(values: &mut [f64], rank: usize, op: u64) {
    for (i, v) in values.iter_mut().enumerate() {
        *v = (rank + 1) as f64 * weight(op, i);
    }
}

fn reduced_ok(values: &[f64], ranks: usize, op: u64) -> bool {
    let tri = (ranks * (ranks + 1) / 2) as f64;
    values
        .iter()
        .enumerate()
        .all(|(i, &v)| v == tri * weight(op, i))
}

/// Rank 0 owns the op count (one collective is one op whatever the rank
/// count); every rank reports a wrong result it saw.
fn tally(done: &mut Done, me: usize, ok: bool) {
    done.ops += u64::from(me == 0);
    done.failed += u64::from(!ok);
}

impl Workload for CollMix {
    type Op = Op;
    type State = State;

    const NAME: &'static str = "coll_mix";
    const VIRT_RANKS: usize = 8;
    const EXACT: &'static [&'static str] = &[];

    fn mix(ranks: usize) -> Vec<Entry<Op>> {
        let big = large(ranks);
        // (small, medium, large, persistent) iterations. Past 2 ranks the
        // launch is read on the virtual clock only and the host runs four
        // threads per core, so the script is cut to what nine launches in a
        // quarter of a run allow: a 64 KiB alltoall among 8 threads costs
        // 0.1 s of host time, and every class from 64 KiB up but one reads
        // the same virtual time in every iteration.
        let (small, medium, big_iters, persistent) = if ranks <= 2 {
            (2000, 100, 6, 500)
        } else {
            (120, 1, 1, 30)
        };
        let chunks = |iters: usize| iters.min(4);
        [
            (Op::Barrier, small),
            (Op::Bcast(SMALL), small),
            (Op::Allreduce(SMALL), small),
            (Op::Allgather(SMALL), small),
            (Op::Alltoall(SMALL), small),
            (Op::Bcast(MEDIUM), medium),
            (Op::Allreduce(MEDIUM), medium),
            (Op::Allgather(MEDIUM), medium),
            (Op::Alltoall(MEDIUM), medium),
            (Op::Bcast(big), big_iters),
            (Op::Allreduce(big), big_iters),
            (Op::Persistent, persistent),
        ]
        .into_iter()
        .map(|(op, iters)| Entry {
            op,
            iters,
            chunks: chunks(iters),
        })
        .collect()
    }

    fn label(op: Op) -> String {
        let size = |s: usize| match s {
            s if s < KIB => format!("{s}B"),
            s if s < 1024 * KIB => format!("{}KiB", s / KIB),
            s => format!("{}MiB", s / KIB / 1024),
        };
        match op {
            Op::Barrier => "barrier".into(),
            Op::Bcast(s) => format!("bcast_{}", size(s)),
            Op::Allreduce(s) => format!("allreduce_{}", size(s)),
            Op::Allgather(s) => format!("allgather_{}", size(s)),
            Op::Alltoall(s) => format!("alltoall_{}", size(s)),
            Op::Persistent => "persistent4_allreduce_1KiB".into(),
        }
    }

    fn setup(cx: &mut Cx<'_>) -> Result<State> {
        let (n, seed) = (cx.size(), cx.seed);
        let big = large(n);
        let mut comm = cx.comm.comm_dup()?;
        let mut persistent = Vec::with_capacity(PERSISTENT);
        for _ in 0..PERSISTENT {
            persistent.push(comm.allreduce_init(&[0f64; PERSISTENT_ELEMS], ReduceOp::Sum)?);
        }
        let payloads = cx.untimed(|| {
            [SMALL, MEDIUM, big]
                .iter()
                .map(|&s| {
                    let per_rank = (0..n as u64)
                        .map(|r| Payload::new(seed, 0xC011 << 40 | r << 32 | s as u64, s))
                        .collect();
                    (s, per_rank)
                })
                .collect()
        });
        Ok(State {
            comm,
            payloads,
            send: vec![0u8; n * MEDIUM],
            recv: vec![0u8; (n * MEDIUM).max(big)],
            values: vec![0f64; big / 8],
            persistent,
        })
    }

    fn run(cx: &mut Cx<'_>, st: &mut State, op: Op, iters: usize, base: u64) -> Result<Done> {
        let (n, me) = (cx.size(), cx.rank());
        let mut done = Done::default();
        // Blocks of one op reuse the send buffer: (re)build its blocks from
        // this rank's payload once per block, then only re-stamp per op.
        match op {
            Op::Allgather(size) | Op::Alltoall(size) => {
                let mine = class(&mut st.payloads, size)[me].bytes.clone();
                for block in st.send[..n * size].chunks_exact_mut(size) {
                    block.copy_from_slice(&mine);
                }
            }
            _ => {}
        }
        for i in 0..iters as u64 {
            let id = base + i;
            match op {
                Op::Barrier => {
                    cx.tr
                        .call(&mut st.comm, Kind::Barrier, 0, |c| c.barrier())?;
                    tally(&mut done, me, true);
                }
                Op::Bcast(size) => {
                    let buf = &mut st.recv[..size];
                    let root = &mut class(&mut st.payloads, size)[0];
                    if me == 0 {
                        root.stamp(id);
                        buf.copy_from_slice(&root.bytes);
                    }
                    cx.tr
                        .call(&mut st.comm, Kind::Bcast, size, |c| c.bcast_into(0, buf))?;
                    let ok = cx.tr.call(&mut st.comm, Kind::Verify, size, |_| {
                        Ok(root.matches(id, buf))
                    })?;
                    tally(&mut done, me, ok);
                }
                Op::Allreduce(size) => {
                    let values = &mut st.values[..size / 8];
                    cx.tr.call(&mut st.comm, Kind::Compute, size, |_| {
                        fill(values, me, id);
                        Ok(())
                    })?;
                    cx.tr.call(&mut st.comm, Kind::Allreduce, size, |c| {
                        c.allreduce(values, ReduceOp::Sum)
                    })?;
                    let ok = cx.tr.call(&mut st.comm, Kind::Verify, size, |_| {
                        Ok(reduced_ok(values, n, id))
                    })?;
                    tally(&mut done, me, ok);
                }
                Op::Allgather(size) => {
                    let (send, recv) = (&mut st.send[..size], &mut st.recv[..n * size]);
                    Payload::stamp_copy(send, id);
                    cx.tr.call(&mut st.comm, Kind::Allgather, size, |c| {
                        c.allgather_into(send, recv)
                    })?;
                    let from = class(&mut st.payloads, size);
                    let ok = cx.tr.call(&mut st.comm, Kind::Verify, n * size, |_| {
                        Ok(recv
                            .chunks_exact(size)
                            .zip(from.iter())
                            .all(|(got, p)| p.matches(id, got)))
                    })?;
                    tally(&mut done, me, ok);
                }
                Op::Alltoall(size) => {
                    let (send, recv) = (&mut st.send[..n * size], &mut st.recv[..n * size]);
                    // The block for peer `p` carries stamp `id·n + p`.
                    for (p, block) in send.chunks_exact_mut(size).enumerate() {
                        Payload::stamp_copy(block, id * n as u64 + p as u64);
                    }
                    cx.tr.call(&mut st.comm, Kind::Alltoall, n * size, |c| {
                        c.alltoall(send, recv)
                    })?;
                    let from = class(&mut st.payloads, size);
                    let ok = cx.tr.call(&mut st.comm, Kind::Verify, n * size, |_| {
                        Ok(recv
                            .chunks_exact(size)
                            .zip(from.iter())
                            .all(|(got, p)| p.matches(id * n as u64 + me as u64, got)))
                    })?;
                    tally(&mut done, me, ok);
                }
                Op::Persistent => {
                    let values = &mut st.values[..PERSISTENT_ELEMS];
                    for (k, req) in st.persistent.iter_mut().enumerate() {
                        let sub = id * PERSISTENT as u64 + k as u64;
                        fill(values, me, sub);
                        req.write_input(values)?;
                        cx.tr
                            .call(&mut st.comm, Kind::Start, 8 * PERSISTENT_ELEMS, |c| {
                                c.start(req)
                            })?;
                    }
                    for (k, req) in st.persistent.iter_mut().enumerate() {
                        let sub = id * PERSISTENT as u64 + k as u64;
                        cx.tr
                            .call(&mut st.comm, Kind::Wait, 8 * PERSISTENT_ELEMS, |c| {
                                c.wait(req)
                            })?;
                        let ok = reduced_ok(&req.read_result::<f64>()?, n, sub);
                        tally(&mut done, me, ok);
                    }
                }
            }
        }
        Ok(done)
    }

    fn finish(_cx: &mut Cx<'_>, mut st: State) -> Result<()> {
        for req in &mut st.persistent {
            req.release()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_an_explicit_sum() {
        for n in [2usize, 8] {
            for op in [0u64, 5, 1 << 33] {
                let mut total = vec![0f64; 20];
                for r in 0..n {
                    let mut v = vec![0f64; 20];
                    fill(&mut v, r, op);
                    for (t, x) in total.iter_mut().zip(&v) {
                        *t += x;
                    }
                }
                assert!(reduced_ok(&total, n, op));
                total[7] += 1.0;
                assert!(!reduced_ok(&total, n, op));
            }
        }
    }
}
