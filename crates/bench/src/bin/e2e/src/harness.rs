//! One universe launch of a workload: set-up, first-touch pass, warm-up, the
//! seeded script of timed blocks, and what each rank measured on both clocks.
//!
//! A workload is a *mix*: a few operation classes, each run for a fixed
//! number of iterations split into chunks. The script is every chunk of
//! every class in an order drawn from the seed. Each chunk is one timed
//! block: the ranks meet at an untimed barrier, then each reads its virtual
//! clock, `Instant` and allocation counter around the block. A block's time
//! is the slowest rank's, its allocations the sum over ranks; payload checks
//! and the barrier between blocks are the only benchmark-side work, and only
//! the checks are inside the timed region.

use std::time::Instant;

use cmpi_core::{Comm, ProgressMode, RankReport, Result, Universe, UniverseConfig};
use cmpi_fabric::cost::TcpNic;

use crate::alloc::thread_allocs;
use crate::rng::Rng;
use crate::tracer::{Kind, Span, Tracer, UNTIMED};

/// One operation class of a mix.
#[derive(Debug, Clone, Copy)]
pub struct Entry<O> {
    pub op: O,
    /// Iterations of the class in one launch (before any scale-down).
    pub iters: usize,
    /// Timed blocks the iterations are split into.
    pub chunks: usize,
}

/// What one block did, as counted by one rank. A failure is an operation
/// whose payload checksum, reduction result or certificate was wrong.
#[derive(Debug, Clone, Copy, Default)]
pub struct Done {
    pub ops: u64,
    pub failed: u64,
}

impl Done {
    pub fn add(&mut self, ok: bool) {
        self.ops += 1;
        self.failed += u64::from(!ok);
    }
}

/// The fabric a launch runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    Cxl,
    Eth,
    Cx6,
}

/// A benchmark workload. Implementations hold no state: everything a launch
/// needs is derived from the seed inside the rank bodies.
pub trait Workload: Send + Sync + 'static {
    type Op: Copy + Send + Sync + std::fmt::Debug + 'static;
    type State;

    const NAME: &'static str;
    /// Rank count of the launch the virtual end-to-end number comes from
    /// (wall numbers always come from 2 ranks).
    const VIRT_RANKS: usize;
    /// Labels of the classes whose 2-rank virtual time is structurally
    /// deterministic (strict alternation, a single origin): the determinism
    /// audit fails the run if one of them differs between launches.
    const EXACT: &'static [&'static str];

    fn mix(ranks: usize) -> Vec<Entry<Self::Op>>;
    /// Short stable label of a class, used in phase names and detail rows.
    fn label(op: Self::Op) -> String;
    /// The workload's own set-up (windows, `comm_dup`, `*_init`, seeded
    /// inputs). Input generation is benchmark work: wrap it in
    /// [`Cx::untimed`] so it stays out of `setup_s`.
    fn setup(cx: &mut Cx<'_>) -> Result<Self::State>;
    /// Run `iters` iterations of `op`. `base` numbers the block's operations
    /// uniquely within the launch (for payload stamps).
    fn run(
        cx: &mut Cx<'_>,
        st: &mut Self::State,
        op: Self::Op,
        iters: usize,
        base: u64,
    ) -> Result<Done>;
    /// Checks that can only be made once a block is over (the state a block
    /// of one-sided writes left behind). Runs outside the timed region;
    /// returns the number of wrong results found.
    fn after(_cx: &mut Cx<'_>, _st: &mut Self::State, _op: Self::Op) -> Result<u64> {
        Ok(0)
    }
    fn finish(cx: &mut Cx<'_>, st: Self::State) -> Result<()>;
}

/// Every launch of every workload: 2 hosts, every tuning at its default, weak
/// progress (no progress thread), whatever `CMPI_PROGRESS` says.
fn config(ranks: usize, fabric: Fabric) -> UniverseConfig {
    match fabric {
        Fabric::Cxl => UniverseConfig::cxl(ranks),
        Fabric::Eth => UniverseConfig::tcp(ranks, TcpNic::StandardEthernet),
        Fabric::Cx6 => UniverseConfig::tcp(ranks, TcpNic::MellanoxCx6Dx),
    }
    .with_hosts(2)
    .with_progress_mode(ProgressMode::Polling)
}

/// Number of per-rank library counters sampled around each timed block.
pub const N_COUNTERS: usize = 24;

/// Names of [`counters`]' slots, in order.
pub const COUNTER_NAMES: [&str; N_COUNTERS] = [
    "msgs_sent",
    "bytes_sent",
    "msgs_received",
    "puts",
    "gets",
    "rma_bytes_written",
    "rma_bytes_read",
    "collectives",
    "srq_msgs",
    "ring_probes",
    "doorbell_rings",
    "colls_started",
    "persistent_starts",
    "wait_polls",
    "ops_in_wait",
    "plan_hits",
    "plan_misses",
    "shm_colls",
    "ring_colls",
    "expose_ops",
    "pull_ops",
    "notify_waits",
    "bytes_pulled",
    "collective_bytes",
];

/// Index of a counter by name (a typo is a bug in this program).
pub fn counter(name: &str) -> usize {
    COUNTER_NAMES
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("unknown counter {name}"))
}

fn counters(comm: &Comm) -> [u64; N_COUNTERS] {
    let t = comm.stats();
    let p = comm.progress_stats();
    let c = comm.plan_cache_stats();
    let d = comm.data_plane_stats();
    [
        t.msgs_sent,
        t.bytes_sent,
        t.msgs_received,
        t.puts,
        t.gets,
        t.rma_bytes_written,
        t.rma_bytes_read,
        t.collectives,
        t.srq_msgs,
        t.ring_probes,
        t.doorbell_rings,
        p.colls_started,
        p.persistent_starts,
        p.wait_polls,
        p.ops_in_wait,
        c.hits,
        c.misses,
        d.shm_colls,
        d.ring_colls,
        d.expose_ops,
        d.pull_ops,
        d.notify_waits,
        d.bytes_pulled,
        t.collective_bytes,
    ]
}

/// One timed block as one rank saw it.
#[derive(Debug, Clone, Copy)]
pub struct BlockSample {
    /// Index into the mix.
    pub entry: usize,
    pub done: Done,
    pub wall_ns: f64,
    pub virt_ns: f64,
    pub allocs: u64,
    pub counters: [u64; N_COUNTERS],
}

/// Per-rank context handed to workload code.
pub struct Cx<'a> {
    pub comm: &'a mut Comm,
    pub tr: Tracer,
    pub seed: u64,
    blocks: Vec<BlockSample>,
    /// Failures seen outside the timed blocks (first touch, warm-up).
    warm_failed: u64,
    /// Benchmark-side time to leave out of `setup_s`.
    untimed_ns: u128,
}

impl Cx<'_> {
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// Run benchmark-side input generation during set-up without charging it
    /// to `setup_s`.
    pub fn untimed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.untimed_ns += t.elapsed().as_nanos();
        out
    }

    /// Shorthand for a traced call on the world communicator.
    #[inline]
    pub fn call<R>(
        &mut self,
        kind: Kind,
        bytes: usize,
        f: impl FnOnce(&mut Comm) -> Result<R>,
    ) -> Result<R> {
        self.tr.call(self.comm, kind, bytes, f)
    }

    /// A traced payload check.
    #[inline]
    pub fn verify(&mut self, bytes: usize, f: impl FnOnce() -> bool) -> Result<bool> {
        self.tr.call(self.comm, Kind::Verify, bytes, |_| Ok(f()))
    }

    fn block<W: Workload>(
        &mut self,
        st: &mut W::State,
        entry: usize,
        op: W::Op,
        iters: usize,
        phase: u32,
    ) -> Result<()> {
        self.comm.barrier()?;
        let timed = phase != UNTIMED;
        let c0 = if timed {
            counters(self.comm)
        } else {
            [0; N_COUNTERS]
        };
        self.tr.phase = phase;
        let a0 = thread_allocs();
        let v0 = self.comm.clock_ns();
        let w0 = Instant::now();
        // Op ids of a block start at its phase number in the high bits; kept
        // below 2^52 so workloads can scale them by a rank or window count.
        let base = (u64::from(phase) & 0xF_FFFF) << 32;
        let mut done = W::run(self, st, op, iters, base)?;
        let wall_ns = w0.elapsed().as_nanos() as f64;
        let virt_ns = self.comm.clock_ns() - v0;
        let allocs = thread_allocs() - a0;
        self.tr.phase = UNTIMED;
        if timed {
            done.failed += W::after(self, st, op)?;
            let c1 = counters(self.comm);
            self.blocks.push(BlockSample {
                entry,
                done,
                wall_ns,
                virt_ns,
                allocs,
                counters: std::array::from_fn(|i| c1[i] - c0[i]),
            });
        } else {
            // The checks after a first-touch block are the benchmark's work,
            // not set-up: every rank sits the slowest rank's check out
            // between two barriers and leaves that time out of `setup_s`.
            self.comm.barrier()?;
            let t = Instant::now();
            done.failed += W::after(self, st, op)?;
            self.comm.barrier()?;
            self.untimed_ns += t.elapsed().as_nanos();
            // A wrong result while warming up is still a wrong result.
            self.warm_failed += done.failed;
        }
        Ok(())
    }
}

/// What a launch is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct LaunchSpec {
    pub ranks: usize,
    pub fabric: Fabric,
    pub seed: u64,
    pub trace: bool,
    /// Divide every class's iterations by this (≥ 1): virtual-only launches
    /// at more ranks than cores, and per-layer probes, run a shortened script.
    pub scale_div: usize,
}

struct RankOut {
    setup_ns: f64,
    warm_failed: u64,
    blocks: Vec<BlockSample>,
    spans: Vec<Span>,
}

/// Totals of one mix class (or of the whole script) over a launch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub ops: u64,
    pub failed: u64,
    /// Σ over blocks of the slowest rank's wall time.
    pub wall_ns: f64,
    /// Σ over blocks of the largest virtual-clock advance of any rank.
    pub virt_ns: f64,
    /// Σ over blocks and ranks.
    pub allocs: u64,
}

impl Totals {
    pub fn wall_us_per_op(&self) -> f64 {
        self.wall_ns / 1e3 / self.ops as f64
    }

    pub fn virt_us_per_op(&self) -> f64 {
        self.virt_ns / 1e3 / self.ops as f64
    }

    pub fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.ops as f64
    }
}

/// Everything measured by one launch.
pub struct LaunchOut {
    pub spec: LaunchSpec,
    /// `Universe::run` entry → rank 0 done with set-up and the first-touch
    /// pass, seconds, less the benchmark's own input generation.
    pub setup_s: f64,
    pub total: Totals,
    /// Per mix class, in mix order.
    pub per_entry: Vec<Totals>,
    pub labels: Vec<String>,
    /// Library counters summed over ranks and timed blocks.
    pub counters: [u64; N_COUNTERS],
    /// `(entry, chunk)` of each timed block, in script order.
    pub script: Vec<(usize, usize)>,
    /// Time inside timed blocks summed over ranks (each rank's own time,
    /// not the slowest's): what the ranks' spans are shares of.
    pub ranks_wall_ns: f64,
    pub ranks_virt_ns: f64,
    pub spans: Vec<Vec<Span>>,
    pub reports: Vec<RankReport>,
}

impl LaunchOut {
    pub fn phase_name(&self, phase: u32) -> String {
        match self.script.get(phase as usize) {
            Some(&(entry, chunk)) => format!("{}#{chunk}", self.labels[entry]),
            None => "untimed".into(),
        }
    }
}

fn scaled<O: Copy>(mix: &[Entry<O>], div: usize) -> Vec<Entry<O>> {
    mix.iter()
        .map(|e| {
            let iters = (e.iters / div.max(1)).max(1);
            Entry {
                op: e.op,
                iters,
                chunks: e.chunks.clamp(1, iters),
            }
        })
        .collect()
}

/// The seeded order of timed blocks: `(entry, chunk)` pairs. Every rank (and
/// the harness) derives the same order from the seed.
fn script<O>(mix: &[Entry<O>], seed: u64) -> Vec<(usize, usize)> {
    let mut blocks: Vec<(usize, usize)> = mix
        .iter()
        .enumerate()
        .flat_map(|(i, e)| (0..e.chunks).map(move |c| (i, c)))
        .collect();
    Rng::new(seed, 0x5C21_9700).shuffle(&mut blocks);
    blocks
}

/// Iterations of chunk `chunk` when `iters` are split into `chunks`.
fn chunk_iters(iters: usize, chunks: usize, chunk: usize) -> usize {
    iters / chunks + usize::from(chunk < iters % chunks)
}

fn rank_body<W: Workload>(comm: &mut Comm, spec: LaunchSpec, entered: Instant) -> Result<RankOut> {
    // `Universe::run` has already taken this rank through its first barrier.
    let mix = scaled(&W::mix(comm.size()), spec.scale_div);
    let mut cx = Cx {
        comm,
        tr: Tracer::new(spec.trace, entered),
        seed: spec.seed,
        blocks: Vec::new(),
        warm_failed: 0,
        untimed_ns: 0,
    };
    let mut st = W::setup(&mut cx)?;
    // First touch: one iteration of every class, where lazy set-up lands
    // (queue-pair promotion, plan builds, exposure-window creation). It is
    // part of `setup_s`, so work moved out of the steady state shows there.
    for (i, e) in mix.iter().enumerate() {
        cx.block::<W>(&mut st, i, e.op, 1, UNTIMED)?;
    }
    let setup_ns = (entered.elapsed().as_nanos() - cx.untimed_ns) as f64;
    // Warm-up: a tenth of every class's iterations, untimed. A class that
    // runs once per launch (the 8-rank launches' 64 KiB and larger
    // collectives, 0.1 s of host time each) has had its warm-up in the first
    // touch.
    for (i, e) in mix.iter().enumerate().filter(|(_, e)| e.iters > 1) {
        cx.block::<W>(&mut st, i, e.op, e.iters.div_ceil(10), UNTIMED)?;
    }
    for (phase, &(i, chunk)) in script(&mix, spec.seed).iter().enumerate() {
        let e = &mix[i];
        let iters = chunk_iters(e.iters, e.chunks, chunk);
        cx.block::<W>(&mut st, i, e.op, iters, phase as u32)?;
    }
    cx.comm.barrier()?;
    W::finish(&mut cx, st)?;
    Ok(RankOut {
        setup_ns,
        warm_failed: cx.warm_failed,
        blocks: cx.blocks,
        spans: cx.tr.into_spans(),
    })
}

/// Launch one universe and fold the ranks' samples.
pub fn launch<W: Workload>(spec: LaunchSpec) -> Result<LaunchOut> {
    let entered = Instant::now();
    let results = Universe::run(config(spec.ranks, spec.fabric), move |comm: &mut Comm| {
        rank_body::<W>(comm, spec, entered)
    })?;
    let mix = scaled(&W::mix(spec.ranks), spec.scale_div);
    let script = script(&mix, spec.seed);
    let mut out = LaunchOut {
        spec,
        setup_s: results[0].0.setup_ns / 1e9,
        total: Totals::default(),
        per_entry: vec![Totals::default(); mix.len()],
        labels: mix.iter().map(|e| W::label(e.op)).collect(),
        counters: [0; N_COUNTERS],
        script,
        ranks_wall_ns: 0.0,
        ranks_virt_ns: 0.0,
        spans: Vec::new(),
        reports: Vec::new(),
    };
    for b in 0..out.script.len() {
        let entry = out.script[b].0;
        let mut t = Totals::default();
        for (rank, _) in &results {
            let s = &rank.blocks[b];
            assert_eq!(s.entry, entry, "ranks disagree on the script");
            t.ops += s.done.ops;
            t.failed += s.done.failed;
            t.wall_ns = t.wall_ns.max(s.wall_ns);
            t.virt_ns = t.virt_ns.max(s.virt_ns);
            t.allocs += s.allocs;
            for (sum, c) in out.counters.iter_mut().zip(s.counters) {
                *sum += c;
            }
        }
        for tot in [&mut out.total, &mut out.per_entry[entry]] {
            tot.ops += t.ops;
            tot.failed += t.failed;
            tot.wall_ns += t.wall_ns;
            tot.virt_ns += t.virt_ns;
            tot.allocs += t.allocs;
        }
    }
    for (r, report) in results {
        out.total.failed += r.warm_failed;
        out.ranks_wall_ns += r.blocks.iter().map(|b| b.wall_ns).sum::<f64>();
        out.ranks_virt_ns += r.blocks.iter().map(|b| b.virt_ns).sum::<f64>();
        out.spans.push(r.spans);
        out.reports.push(report);
    }
    Ok(out)
}

/// Type-erased entry points of a workload, so the driver code can hold the
/// five of them in one table.
pub struct WorkloadFns {
    pub name: &'static str,
    pub why: &'static str,
    pub virt_ranks: usize,
    pub exact: &'static [&'static str],
    pub launch: fn(LaunchSpec) -> Result<LaunchOut>,
}

impl WorkloadFns {
    pub const fn of<W: Workload>(why: &'static str) -> Self {
        WorkloadFns {
            name: W::NAME,
            why,
            virt_ranks: W::VIRT_RANKS,
            exact: W::EXACT,
            launch: launch::<W>,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_the_iterations() {
        for (iters, chunks) in [(10, 3), (7, 7), (100, 8), (1, 1), (5, 2)] {
            let total: usize = (0..chunks).map(|c| chunk_iters(iters, chunks, c)).sum();
            assert_eq!(total, iters);
        }
    }

    #[test]
    fn script_is_seeded_and_complete() {
        let mix = [
            Entry {
                op: 'a',
                iters: 40,
                chunks: 4,
            },
            Entry {
                op: 'b',
                iters: 9,
                chunks: 3,
            },
        ];
        let s1 = script(&mix, 1);
        assert_eq!(s1, script(&mix, 1));
        assert_ne!(s1, script(&mix, 2));
        let mut sorted = s1.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2)]
        );
    }

    #[test]
    fn scale_down_keeps_every_class() {
        let mix = [
            Entry {
                op: 'a',
                iters: 40,
                chunks: 4,
            },
            Entry {
                op: 'b',
                iters: 2,
                chunks: 2,
            },
        ];
        let s = scaled(&mix, 16);
        assert_eq!((s[0].iters, s[0].chunks), (2, 2));
        assert_eq!((s[1].iters, s[1].chunks), (1, 1));
        assert_eq!(scaled(&mix, 1)[0].iters, 40);
    }

    #[test]
    fn counter_names_are_unique() {
        for (i, n) in COUNTER_NAMES.iter().enumerate() {
            assert_eq!(counter(n), i);
        }
    }
}
