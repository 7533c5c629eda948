//! `app_mix`: three seeded proxy applications with certified results —
//! a periodic 2-D 5-point halo-exchange stencil (4 `sendrecv` + 1 `allreduce`
//! per step), a sample sort (`allgather` + `alltoall` counts + `alltoallv`)
//! and k-means (`allreduce` + `bcast` + `alltoallv`). One op is one
//! application iteration: a stencil step, a whole sort, a k-means iteration.
//!
//! Why: "end to end" for this library means the proxy workloads. Every layer
//! does a moderate share, so this is where a micro-benchmark gain has to
//! survive, and where a gain bought on one path at another's expense shows.
//! Virtual at 8 ranks on 2 hosts, wall at 2 ranks, as in `coll_mix`.
//!
//! Certificates: the stencil's per-step heat total against the conserved
//! initial total, and its tile after each block against a single-threaded
//! reference of the whole grid to 1e-12; the sort's key count, key sum,
//! local order and cross-rank bucket order; k-means' point count and
//! coordinate sum.

use cmpi_core::{pod, ReduceOp, Result};

use crate::harness::{Cx, Done, Entry, Workload};
use crate::rng::{splitmix64, Rng};
use crate::tracer::Kind;

pub struct AppMix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Stencil,
    Sort,
    Kmeans,
}

/// Stencil tile edge per rank (interior cells).
const TILE: usize = 32;
const ROW: usize = TILE + 2;
const ALPHA: f64 = 0.1;
/// Virtual compute charged per cell update, ns (5-point update ≈ 6 flops).
const NS_PER_CELL: f64 = 6.0;
const SORT_KEYS: usize = 4096;
const KM_POINTS: usize = 512;
const KM_DIMS: usize = 8;
const KM_CLUSTERS: usize = 8;

pub struct State {
    /// Process grid (columns, rows).
    grid: (usize, usize),
    tile: Vec<f64>,
    /// What the last stencil block started from and how far it went, for the
    /// reference replay.
    stencil_block: Option<(u64, usize)>,
}

/// Squarest `px × py = ranks` grid, wider than tall.
fn grid(ranks: usize) -> (usize, usize) {
    let py = (1..=ranks)
        .filter(|d| ranks.is_multiple_of(*d) && d * d <= ranks)
        .max()
        .unwrap_or(1);
    (ranks / py, py)
}

fn idx(x: usize, y: usize) -> usize {
    y * ROW + x
}

/// Initial temperature of global cell `(gx, gy)` for the block numbered
/// `block`: any rank (and the reference) can evaluate any cell.
fn initial(seed: u64, block: u64, gx: usize, gy: usize) -> f64 {
    let h = splitmix64(seed ^ splitmix64(block ^ ((gx as u64) << 32 | gy as u64)));
    (h >> 11) as f64 / (1u64 << 53) as f64 * 100.0
}

fn step_cell(c: f64, w: f64, e: f64, n: f64, s: f64) -> f64 {
    c + ALPHA * (w + e + n + s - 4.0 * c)
}

/// Single-threaded reference: the whole periodic grid, `steps` steps.
fn reference(seed: u64, block: u64, gw: usize, gh: usize, steps: usize) -> Vec<f64> {
    let mut u: Vec<f64> = (0..gw * gh)
        .map(|i| initial(seed, block, i % gw, i / gw))
        .collect();
    let mut next = u.clone();
    for _ in 0..steps {
        for y in 0..gh {
            for x in 0..gw {
                let at = |x: usize, y: usize| u[(y % gh) * gw + x % gw];
                next[y * gw + x] = step_cell(
                    at(x, y),
                    at(x + gw - 1, y),
                    at(x + 1, y),
                    at(x, y + gh - 1),
                    at(x, y + 1),
                );
            }
        }
        std::mem::swap(&mut u, &mut next);
    }
    u
}

fn nearest(point: &[f64], centroids: &[f64]) -> usize {
    let mut best = (0, f64::INFINITY);
    for (c, cent) in centroids.chunks_exact(point.len()).enumerate() {
        let d: f64 = point.iter().zip(cent).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < best.1 {
            best = (c, d);
        }
    }
    best.0
}

impl AppMix {
    fn stencil(cx: &mut Cx<'_>, st: &mut State, steps: usize, block: u64) -> Result<Done> {
        let (me, seed) = (cx.rank(), cx.seed);
        let (gx, gy) = st.grid;
        let (px, py) = (me % gx, me / gx);
        let at = |x: usize, y: usize| y * gx + x;
        let (west, east) = (at((px + gx - 1) % gx, py), at((px + 1) % gx, py));
        let (north, south) = (at(px, (py + gy - 1) % gy), at(px, (py + 1) % gy));
        let u = &mut st.tile;
        let mut done = Done::default();
        let total = cx.call(Kind::Compute, 0, |_| {
            for y in 1..=TILE {
                for x in 1..=TILE {
                    u[idx(x, y)] = initial(seed, block, px * TILE + x - 1, py * TILE + y - 1);
                }
            }
            // The conserved global total, summed the way the reference is laid out.
            Ok((0..gx * TILE * gy * TILE)
                .map(|i| initial(seed, block, i % (gx * TILE), i / (gx * TILE)))
                .sum::<f64>())
        })?;
        let mut col = vec![0f64; TILE];
        for _ in 0..steps {
            // East/west: strided columns are packed; a neighbour that is this
            // rank itself (a 1-wide grid dimension) wraps locally.
            for (nb, send_x, ghost_x, tag) in [(east, TILE, 0, 1), (west, 1, TILE + 1, 2)] {
                for y in 1..=TILE {
                    col[y - 1] = u[idx(send_x, y)];
                }
                // What I send east fills my east neighbour's west ghost, so
                // what I receive from the west (tag 1) fills my west ghost.
                let from = if tag == 1 { west } else { east };
                let ghost = if nb == me {
                    col.clone()
                } else {
                    let (_, bytes) = cx.call(Kind::Sendrecv, 8 * TILE, |c| {
                        c.sendrecv(nb, tag, pod::bytes_of(&col), from, tag)
                    })?;
                    pod::vec_from_bytes(&bytes)
                };
                for y in 1..=TILE {
                    u[idx(ghost_x, y)] = ghost[y - 1];
                }
            }
            for (nb, send_y, ghost_y, tag) in [(south, TILE, 0, 3), (north, 1, TILE + 1, 4)] {
                let row = &u[idx(1, send_y)..idx(1, send_y) + TILE];
                let from = if tag == 3 { north } else { south };
                let ghost: Vec<f64> = if nb == me {
                    row.to_vec()
                } else {
                    let (_, bytes) = cx.call(Kind::Sendrecv, 8 * TILE, |c| {
                        c.sendrecv(nb, tag, pod::bytes_of(row), from, tag)
                    })?;
                    pod::vec_from_bytes(&bytes)
                };
                u[idx(1, ghost_y)..idx(1, ghost_y) + TILE].copy_from_slice(&ghost);
            }
            let local = cx.call(Kind::Compute, 8 * TILE * TILE, |c| {
                let mut next = u.clone();
                let mut sum = 0.0;
                for y in 1..=TILE {
                    for x in 1..=TILE {
                        let v = step_cell(
                            u[idx(x, y)],
                            u[idx(x - 1, y)],
                            u[idx(x + 1, y)],
                            u[idx(x, y - 1)],
                            u[idx(x, y + 1)],
                        );
                        next[idx(x, y)] = v;
                        sum += v;
                    }
                }
                *u = next;
                c.advance_clock((TILE * TILE) as f64 * NS_PER_CELL);
                Ok(sum)
            })?;
            let mut heat = [local];
            cx.call(Kind::Allreduce, 8, |c| {
                c.allreduce(&mut heat, ReduceOp::Sum)
            })?;
            // Periodic diffusion conserves heat; only summation order differs.
            let ok = (heat[0] - total).abs() <= 1e-9 * total.abs();
            done.ops += u64::from(me == 0);
            done.failed += u64::from(!ok);
        }
        st.stencil_block = Some((block, steps));
        Ok(done)
    }

    fn sort(cx: &mut Cx<'_>, iters: usize, base: u64) -> Result<Done> {
        let (n, me, seed) = (cx.size(), cx.rank(), cx.seed);
        let mut done = Done::default();
        for i in 0..iters as u64 {
            let mut keys = cx.call(Kind::Compute, 8 * SORT_KEYS, |_| {
                let mut rng = Rng::new(seed, 0x50A7 << 48 | (base + i) << 8 | me as u64);
                let mut keys: Vec<u64> = (0..SORT_KEYS).map(|_| rng.next_u64()).collect();
                keys.sort_unstable();
                Ok(keys)
            })?;
            let low32 = |k: &[u64]| k.iter().map(|k| k & 0xFFFF_FFFF).sum::<u64>();
            let sent_sum = low32(&keys);
            // Regular sampling, allgather, common splitters.
            let samples: Vec<u64> = (1..n).map(|j| keys[j * SORT_KEYS / n]).collect();
            let mut pool = vec![0u64; n * samples.len()];
            cx.call(Kind::Allgather, 8 * samples.len(), |c| {
                c.allgather_into(&samples, &mut pool)
            })?;
            pool.sort_unstable();
            let splitters: Vec<u64> = (1..n).map(|j| pool[j * pool.len() / n]).collect();
            let mut send_counts = vec![0usize; n];
            let mut d = 0;
            for &k in &keys {
                while d < n - 1 && k >= splitters[d] {
                    d += 1;
                }
                send_counts[d] += 1;
            }
            let send_c: Vec<u64> = send_counts.iter().map(|&c| c as u64).collect();
            let mut recv_c = vec![0u64; n];
            cx.call(Kind::Alltoall, 8 * n, |c| c.alltoall(&send_c, &mut recv_c))?;
            let recv_counts: Vec<usize> = recv_c.iter().map(|&c| c as usize).collect();
            let mut mine = cx.call(Kind::Alltoallv, 8 * SORT_KEYS, |c| {
                c.alltoallv(&keys, &send_counts, &recv_counts)
            })?;
            cx.call(Kind::Compute, 8 * mine.len(), |_| {
                mine.sort_unstable();
                Ok(())
            })?;
            keys.clear();
            // Certificate: nothing lost or invented, buckets ordered.
            let mut cert = [mine.len() as u64, low32(&mine), sent_sum];
            cx.call(Kind::Allreduce, 24, |c| {
                c.allreduce(&mut cert, ReduceOp::Sum)
            })?;
            let bounds = [
                mine.first().copied().unwrap_or(u64::MAX),
                mine.last().copied().unwrap_or(0),
            ];
            let mut all = vec![0u64; 2 * n];
            cx.call(Kind::Allgather, 16, |c| c.allgather_into(&bounds, &mut all))?;
            let ok = cx.verify(8 * mine.len(), || {
                let mut hi = 0u64;
                let ordered = all.chunks_exact(2).all(|b| {
                    let empty = b[0] > b[1];
                    let fits = empty || b[0] >= hi;
                    if !empty {
                        hi = b[1];
                    }
                    fits
                });
                cert[0] == (n * SORT_KEYS) as u64
                    && cert[1] == cert[2]
                    && ordered
                    && mine.windows(2).all(|w| w[0] <= w[1])
            })?;
            done.ops += u64::from(me == 0);
            done.failed += u64::from(!ok);
        }
        Ok(done)
    }

    fn kmeans(cx: &mut Cx<'_>, iters: usize, base: u64) -> Result<Done> {
        let (n, me, seed) = (cx.size(), cx.rank(), cx.seed);
        let mut done = Done::default();
        let (mut points, mut centroids) = cx.call(Kind::Compute, 0, |_| {
            let mut rng = Rng::new(seed, 0x4B3A << 48 | base | me as u64);
            let points: Vec<f64> = (0..KM_POINTS * KM_DIMS).map(|_| rng.unit_f64()).collect();
            // Every rank derives the same starting centroids.
            let mut rng = Rng::new(seed, 0xCE27 << 48 | base);
            let centroids: Vec<f64> = (0..KM_CLUSTERS * KM_DIMS).map(|_| rng.unit_f64()).collect();
            Ok((points, centroids))
        })?;
        let coord_sum = |p: &[f64]| p.iter().sum::<f64>();
        let mut cert = [KM_POINTS as f64, coord_sum(&points)];
        cx.comm.allreduce(&mut cert, ReduceOp::Sum)?;
        for _ in 0..iters {
            let mut sums = cx.call(Kind::Compute, 8 * points.len(), |_| {
                let mut sums = vec![0.0f64; KM_CLUSTERS * (KM_DIMS + 1)];
                for p in points.chunks_exact(KM_DIMS) {
                    let a = nearest(p, &centroids);
                    for (d, &v) in p.iter().enumerate() {
                        sums[a * KM_DIMS + d] += v;
                    }
                    sums[KM_CLUSTERS * KM_DIMS + a] += 1.0;
                }
                Ok(sums)
            })?;
            cx.call(Kind::Allreduce, 8 * sums.len(), |c| {
                c.allreduce(&mut sums, ReduceOp::Sum)
            })?;
            for c in 0..KM_CLUSTERS {
                let count = sums[KM_CLUSTERS * KM_DIMS + c];
                if count > 0.0 {
                    for d in 0..KM_DIMS {
                        centroids[c * KM_DIMS + d] = sums[c * KM_DIMS + d] / count;
                    }
                }
            }
            // Rank 0's view is canonical.
            cx.call(Kind::Bcast, 8 * centroids.len(), |c| {
                c.bcast_into(0, &mut centroids)
            })?;
            // Every point migrates to its cluster's owner rank.
            let (send, send_counts) = cx.call(Kind::Compute, 8 * points.len(), |_| {
                let dest: Vec<usize> = points
                    .chunks_exact(KM_DIMS)
                    .map(|p| nearest(p, &centroids) % n)
                    .collect();
                let mut counts = vec![0usize; n];
                let mut send = Vec::with_capacity(points.len());
                for (r, count) in counts.iter_mut().enumerate() {
                    for (p, _) in points
                        .chunks_exact(KM_DIMS)
                        .zip(&dest)
                        .filter(|(_, &d)| d == r)
                    {
                        send.extend_from_slice(p);
                        *count += KM_DIMS;
                    }
                }
                Ok((send, counts))
            })?;
            let send_c: Vec<u64> = send_counts.iter().map(|&c| c as u64).collect();
            let mut recv_c = vec![0u64; n];
            cx.call(Kind::Alltoall, 8 * n, |c| c.alltoall(&send_c, &mut recv_c))?;
            let recv_counts: Vec<usize> = recv_c.iter().map(|&c| c as usize).collect();
            points = cx.call(Kind::Alltoallv, 8 * send.len(), |c| {
                c.alltoallv(&send, &send_counts, &recv_counts)
            })?;
            done.ops += u64::from(me == 0);
        }
        // Certificate, once per block and outside the per-iteration cost: the
        // shuffle neither lost nor invented a point or a coordinate.
        let mut now = [(points.len() / KM_DIMS) as f64, coord_sum(&points)];
        cx.call(Kind::Allreduce, 16, |c| {
            c.allreduce(&mut now, ReduceOp::Sum)
        })?;
        let ok = now[0] == cert[0] && (now[1] - cert[1]).abs() <= 1e-9 * cert[1].abs();
        done.failed += u64::from(!ok);
        Ok(done)
    }
}

impl Workload for AppMix {
    type Op = Op;
    type State = State;

    const NAME: &'static str = "app_mix";
    const VIRT_RANKS: usize = 8;
    const EXACT: &'static [&'static str] = &[];

    fn mix(ranks: usize) -> Vec<Entry<Op>> {
        // Past 2 ranks only the virtual clock is read; a shorter script
        // gives the same per-iteration virtual cost for less host time.
        let div = if ranks <= 2 { 1 } else { 8 };
        [
            (Op::Stencil, 3000, 6),
            (Op::Sort, 120, 6),
            (Op::Kmeans, 480, 6),
        ]
        .into_iter()
        .map(|(op, iters, chunks)| Entry {
            op,
            iters: iters / div,
            chunks,
        })
        .collect()
    }

    fn label(op: Op) -> String {
        match op {
            Op::Stencil => "stencil_step".into(),
            Op::Sort => "sample_sort".into(),
            Op::Kmeans => "kmeans_iter".into(),
        }
    }

    fn setup(cx: &mut Cx<'_>) -> Result<State> {
        Ok(State {
            grid: grid(cx.size()),
            tile: vec![0.0; ROW * ROW],
            stencil_block: None,
        })
    }

    fn run(cx: &mut Cx<'_>, st: &mut State, op: Op, iters: usize, base: u64) -> Result<Done> {
        match op {
            Op::Stencil => Self::stencil(cx, st, iters, base),
            Op::Sort => Self::sort(cx, iters, base),
            Op::Kmeans => Self::kmeans(cx, iters, base),
        }
    }

    /// Replay the stencil block single-threaded and compare this rank's tile.
    fn after(cx: &mut Cx<'_>, st: &mut State, op: Op) -> Result<u64> {
        let Some((block, steps)) = st.stencil_block.take().filter(|_| op == Op::Stencil) else {
            return Ok(0);
        };
        let (gx, gy) = st.grid;
        let (px, py) = (cx.rank() % gx, cx.rank() / gx);
        let gw = gx * TILE;
        let expect = reference(cx.seed, block, gw, gy * TILE, steps);
        let bad = (1..=TILE).any(|y| {
            (1..=TILE).any(|x| {
                let want = expect[(py * TILE + y - 1) * gw + px * TILE + x - 1];
                (st.tile[idx(x, y)] - want).abs() > 1e-12 * want.abs().max(1.0)
            })
        });
        Ok(u64::from(bad))
    }

    fn finish(_cx: &mut Cx<'_>, _st: State) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_factor_the_rank_count() {
        assert_eq!(grid(1), (1, 1));
        assert_eq!(grid(2), (2, 1));
        assert_eq!(grid(8), (4, 2));
        assert_eq!(grid(9), (3, 3));
    }

    #[test]
    fn reference_conserves_heat_and_smooths() {
        let (gw, gh) = (16, 8);
        let start = reference(3, 1, gw, gh, 0);
        let later = reference(3, 1, gw, gh, 20);
        let (a, b): (f64, f64) = (start.iter().sum(), later.iter().sum());
        assert!((a - b).abs() <= 1e-9 * a.abs());
        let spread = |u: &[f64]| {
            u.iter().cloned().fold(f64::MIN, f64::max) - u.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(spread(&later) < spread(&start));
        assert_ne!(reference(4, 1, gw, gh, 0), start);
        assert_ne!(reference(3, 2, gw, gh, 0), start);
    }

    #[test]
    fn nearest_picks_the_closest_centroid() {
        let cents = [0.0, 0.0, 10.0, 10.0, 5.0, 5.0];
        assert_eq!(nearest(&[1.0, 1.0], &cents), 0);
        assert_eq!(nearest(&[9.0, 8.0], &cents), 1);
        assert_eq!(nearest(&[5.5, 4.0], &cents), 2);
    }
}
