//! Shared scaffolding for the integration-test suites: the two-transport
//! configuration matrix, the tunings that pin a collective path (flat,
//! hierarchical, or data-plane), and the payload sizes that reach each flat
//! algorithm across its crossover constant.

#![allow(dead_code)] // not every suite uses every helper

use cmpi::fabric::cost::{CoherenceMode, TcpNic};
use cmpi::fabric::{CxlContentionModel, CxlCostModel};
use cmpi::mpi::dataplane::DP_SLOTS;
use cmpi::mpi::transport::{DataPlaneStats, DpCost};
use cmpi::mpi::{
    CollTuning, Comm, ConnMode, HierarchyMode, Result, TransportConfig, Universe, UniverseConfig,
};
use cmpi::shm::slots::{stamped_lines, stamped_span, SLOT_CELL_SIZE};

/// Host count of the test matrix: `CMPI_HOSTS` (the CI topology-matrix leg
/// sets 1, 2 and 3), defaulting to the paper's two-host layout. Clamped to the
/// rank count by the config layer.
pub fn matrix_hosts() -> usize {
    std::env::var("CMPI_HOSTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&h| h >= 1)
        .unwrap_or(2)
}

/// Per-rank window arena of the data-plane test matrix: `CMPI_DATA_PLANE` ∈
/// {`ring`, `shm`} (the CI data-plane matrix leg) — `ring` is `0`, no window
/// at all, and `shm` is [`TEST_SHM_ARENA_BYTES`]. `None` when unset — the
/// matrix then runs the stock `cxl_small` config, whose 1 MiB pool
/// deliberately fails window creation so the default leg exercises the
/// graceful fall-back-to-ring path.
pub fn matrix_data_plane() -> Option<usize> {
    match std::env::var("CMPI_DATA_PLANE").ok().as_deref() {
        Some("ring") => Some(0),
        Some("shm") => Some(TEST_SHM_ARENA_BYTES),
        _ => None,
    }
}

/// Per-rank shared-window arena used by the test matrix and the `force_shm`
/// tuning: small enough that the pool comfortably holds one window per
/// communicator the suites create, with 64 KiB slots that still take the
/// single-copy path for the integration payloads.
pub const TEST_SHM_ARENA_BYTES: usize = 256 * 1024;

/// Grow a CXL config's pool headroom so data-plane windows can actually be
/// created (`cxl_small`'s 1 MiB headroom deliberately cannot hold even the
/// default per-rank arena — the graceful creation-failure path).
pub fn with_window_headroom(mut config: UniverseConfig, headroom: usize) -> UniverseConfig {
    if let TransportConfig::CxlShm(ref mut c) = config.transport {
        c.window_headroom = headroom;
    }
    config
}

/// Both transports at `ranks` ranks (small CXL cells so chunking is
/// exercised, Mellanox for the faster TCP baseline), spread over the
/// `CMPI_HOSTS` topology-matrix host count and running the `CMPI_DATA_PLANE`
/// arena (the `shm` leg gets a pool large enough to hold the
/// per-communicator windows; TCP ignores the arena — it has no shared pool).
pub fn configs(ranks: usize) -> Vec<(&'static str, UniverseConfig)> {
    let mut cxl = UniverseConfig::cxl_small(ranks).with_hosts(matrix_hosts());
    if let Some(arena) = matrix_data_plane() {
        cxl.coll.shm_arena_bytes = arena;
        if arena > 0 {
            cxl = with_window_headroom(cxl, 64 * 1024 * 1024);
        }
    }
    vec![
        ("CXL-SHM", cxl),
        (
            "TCP",
            UniverseConfig::tcp(ranks, TcpNic::MellanoxCx6Dx).with_hosts(matrix_hosts()),
        ),
    ]
}

/// The four ways a message travels between two ranks, at the small test
/// geometry (1 KiB cells, 4 per queue): a promoted lazy pair's stream (after
/// [`promote`]), a cold lazy pair's shared receive queue (`promote` never
/// promotes it), the eager ring, TCP.
pub fn p2p_paths() -> [(&'static str, UniverseConfig); 4] {
    let lazy = UniverseConfig::cxl_small(2).with_hosts(matrix_hosts());
    let mut cold = lazy.clone();
    if let TransportConfig::CxlShm(c) = &mut cold.transport {
        c.promotion_threshold = u64::MAX;
    }
    let eager = lazy.clone().with_conn_mode(ConnMode::Eager);
    let tcp = UniverseConfig::tcp(2, TcpNic::MellanoxCx6Dx).with_hosts(matrix_hosts());
    [
        ("lazy promoted", lazy),
        ("lazy cold", cold),
        ("eager", eager),
        ("tcp", tcp),
    ]
}

/// Small ping-pongs between `a` and `b`: past the default promotion threshold
/// in both directions, so both streams exist afterwards.
pub fn promote(comm: &mut Comm, a: usize, b: usize) -> Result<()> {
    let me = comm.rank();
    let mut byte = [0u8; 1];
    for _ in 0..6 {
        if me == a {
            comm.send(b, 99, &[1])?;
            comm.recv(Some(b), Some(99), &mut byte)?;
        } else if me == b {
            comm.recv(Some(a), Some(99), &mut byte)?;
            comm.send(a, 99, &[1])?;
        }
    }
    Ok(())
}

/// Force the hierarchical compositions at any size and shape (on ≥ 2 spanned
/// hosts; single-host communicators still run flat); inside the phases the
/// flat algorithms switch at their usual crossovers. No window, so the
/// composite ring labels — the barrier's included — stay deterministic under
/// every `CMPI_DATA_PLANE` leg.
pub fn force_hier() -> CollTuning {
    CollTuning {
        hierarchy: HierarchyMode::Force,
        shm_arena_bytes: 0,
    }
}

/// Run the shared-window single-copy data plane: a window of
/// [`TEST_SHM_ARENA_BYTES`], hierarchy off (payloads that exceed one slot,
/// and communicators whose window creation failed, still fall back to ring).
/// Pair with [`with_window_headroom`] on `cxl_small` configs so the window
/// can actually be created.
pub fn force_shm() -> CollTuning {
    CollTuning {
        hierarchy: HierarchyMode::Off,
        shm_arena_bytes: TEST_SHM_ARENA_BYTES,
    }
}

/// Pin the flat ring path — hierarchy off and a zero arena, so no window
/// exists: the flat algorithms under test, and the baseline side of the
/// shm ≡ ring byte-equivalence checks.
pub fn force_ring() -> CollTuning {
    CollTuning {
        hierarchy: HierarchyMode::Off,
        shm_arena_bytes: 0,
    }
}

/// Run `f` on a thread of its own and return what it returns, failing the
/// test — instead of hanging it — if that takes longer than a minute.
pub fn within_a_minute<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{what}: still running after a minute"))
}

/// Elements of `T` in the smallest payload past `bytes`. Past a flat
/// crossover constant — a `*_MIN_BYTES` one, large from the constant on, or
/// a `*_MAX_BYTES` one, small up to it — the large-payload algorithm runs.
pub fn past<T>(bytes: usize) -> usize {
    bytes / std::mem::size_of::<T>() + 1
}

/// The data-plane cost terms of a default CXL universe in which `pairs`
/// communication pairs are active at once (half the ranks).
pub fn dp_cost(pairs: usize) -> DpCost {
    DpCost {
        cost: CxlCostModel::default(),
        contention: CxlContentionModel::default(),
        mode: CoherenceMode::FlushClflushopt,
        pairs,
    }
}

/// What rank `me` of 8 on 2 hosts reads in one run when every peer exposes
/// `bytes`, as [`DpCost::gather`] takes it: three pieces out of the shared
/// cache, four off the device.
pub fn peers_pieces(me: usize, bytes: usize) -> impl Iterator<Item = (usize, bool)> {
    (0..8)
        .filter(move |&w| w != me)
        .map(move |w| (bytes, w / 4 == me / 4))
}

/// Bytes a stamped exposure of `len` bytes takes: its lines.
pub fn stamped(len: usize) -> usize {
    stamped_lines(len) * SLOT_CELL_SIZE
}

/// Bytes a reader of bytes `off..off + len` of a stamped exposure loads: the
/// first line, which carries the stamp, and the lines of the range.
pub fn stamped_read(off: usize, len: usize) -> usize {
    (1 + stamped_span(off, len).len()) * SLOT_CELL_SIZE
}

/// What a writer pays to publish a stamped exposure of `streamed` bytes of
/// lines — `SLOT_CELL_SIZE` for one that is its flag line — with the
/// completion line it held back riding in the same store stream
/// ([`DpCost::expose_joined`]).
pub fn publish_joined(dp: &DpCost, streamed: usize) -> f64 {
    dp.publish(streamed + SLOT_CELL_SIZE, false)
}

/// `colls` back-to-back calls of `step` on a duplicate of the world
/// communicator, in steady state: per rank, the data-plane counters before
/// and after them and the virtual nanoseconds they took. A barrier and
/// `DP_SLOTS` untimed calls come first — every slot is held, as in a long
/// run, and the first timed call is the one that has to sweep.
pub fn steady_colls(
    config: UniverseConfig,
    colls: usize,
    step: impl Fn(&mut Comm) -> Result<()> + Send + Sync + 'static,
) -> Vec<(DataPlaneStats, DataPlaneStats, f64)> {
    steady_completions(config, colls, step)
        .into_iter()
        .map(|(before, after, virt_ns, _)| (before, after, virt_ns))
        .collect()
}

/// [`steady_colls`], and per rank how many completion lines the timed calls
/// stored `(joined, alone)`: riding an exposure, or by themselves.
pub fn steady_completions(
    config: UniverseConfig,
    colls: usize,
    step: impl Fn(&mut Comm) -> Result<()> + Send + Sync + 'static,
) -> Vec<(DataPlaneStats, DataPlaneStats, f64, (u64, u64))> {
    Universe::run(config, move |world: &mut Comm| {
        let mut comm = world.comm_dup()?;
        comm.barrier()?;
        for _ in 0..DP_SLOTS {
            step(&mut comm)?;
        }
        let (before, lines, start) = (
            comm.data_plane_stats(),
            comm.completion_stats(),
            world.clock_ns(),
        );
        for _ in 0..colls {
            step(&mut comm)?;
        }
        let now = comm.completion_stats();
        let completions = (
            now.completions_joined - lines.completions_joined,
            now.completions_alone - lines.completions_alone,
        );
        Ok((
            before,
            comm.data_plane_stats(),
            world.clock_ns() - start,
            completions,
        ))
    })
    .expect("steady collectives")
    .into_iter()
    .map(|(result, _)| result)
    .collect()
}
