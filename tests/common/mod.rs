//! Shared scaffolding for the integration-test suites: the two-transport
//! configuration matrix and the tuning overrides that force every collective
//! algorithm branch (flat, hierarchical, and data-plane).

#![allow(dead_code)] // not every suite uses every helper

use cmpi::fabric::cost::{CoherenceMode, TcpNic};
use cmpi::fabric::{CxlContentionModel, CxlCostModel};
use cmpi::mpi::dataplane::DP_SLOTS;
use cmpi::mpi::transport::{DataPlaneStats, DpCost};
use cmpi::mpi::{
    CollTuning, Comm, ConnMode, DataPlaneMode, HierarchyMode, Result, TransportConfig, Universe,
    UniverseConfig,
};

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

/// Data-plane mode of the test matrix: `CMPI_DATA_PLANE` ∈ {`ring`, `shm`,
/// `auto`} (the CI data-plane matrix leg). `None` when unset — the matrix
/// then runs the stock `cxl_small` config, whose 1 MiB pool deliberately
/// fails window creation so the default leg exercises the graceful
/// fall-back-to-ring path.
pub fn matrix_data_plane() -> Option<DataPlaneMode> {
    match std::env::var("CMPI_DATA_PLANE").ok().as_deref() {
        Some("ring") => Some(DataPlaneMode::Ring),
        Some("shm") => Some(DataPlaneMode::Shm),
        Some("auto") => Some(DataPlaneMode::Auto),
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
/// data-plane mode (the non-ring legs get a pool large enough to hold the
/// per-communicator windows; TCP ignores the mode — it has no shared pool).
pub fn configs(ranks: usize) -> Vec<(&'static str, UniverseConfig)> {
    let mut cxl = UniverseConfig::cxl_small(ranks).with_hosts(matrix_hosts());
    if let Some(dp) = matrix_data_plane() {
        cxl.coll.data_plane = dp;
        if dp != DataPlaneMode::Ring {
            cxl.coll.shm_arena_bytes = TEST_SHM_ARENA_BYTES;
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

/// Thresholds that force the large-message flat algorithms at tiny sizes
/// (hierarchy off and the data plane pinned to ring, so the flat ring branch
/// under test is the one that runs).
pub fn force_large() -> CollTuning {
    CollTuning {
        bcast_scatter_allgather_min_bytes: 1,
        allreduce_rabenseifner_min_bytes: 1,
        allgather_bruck_max_bytes: 0,
        reduce_scatter_direct_min_bytes: 1,
        alltoall_bruck_max_bytes: 0,
        hierarchy: HierarchyMode::Off,
        data_plane: DataPlaneMode::Ring,
        ..CollTuning::default()
    }
}

/// Thresholds that force the small-message flat algorithms at any size
/// (hierarchy off, data plane pinned to ring).
pub fn force_small() -> CollTuning {
    CollTuning {
        bcast_scatter_allgather_min_bytes: usize::MAX,
        allreduce_rabenseifner_min_bytes: usize::MAX,
        allgather_bruck_max_bytes: usize::MAX,
        reduce_scatter_direct_min_bytes: usize::MAX,
        alltoall_bruck_max_bytes: usize::MAX,
        hierarchy: HierarchyMode::Off,
        data_plane: DataPlaneMode::Ring,
        ..CollTuning::default()
    }
}

/// Force the hierarchical compositions at any size and shape (on ≥ 2 spanned
/// hosts; single-host communicators still run flat), with default flat
/// thresholds inside the phases. Data plane pinned to ring so the composite
/// ring labels stay deterministic under every `CMPI_DATA_PLANE` leg.
pub fn force_hier() -> CollTuning {
    CollTuning {
        hierarchy: HierarchyMode::Force,
        data_plane: DataPlaneMode::Ring,
        ..CollTuning::default()
    }
}

/// As [`force_hier`], but with the large-payload flat algorithms forced
/// *inside* the hierarchical phases too (van de Geijn fan-out, Rabenseifner
/// leader phase at tiny sizes).
pub fn force_hier_large() -> CollTuning {
    CollTuning {
        bcast_scatter_allgather_min_bytes: 1,
        allreduce_rabenseifner_min_bytes: 1,
        allgather_bruck_max_bytes: 0,
        reduce_scatter_direct_min_bytes: 1,
        alltoall_bruck_max_bytes: 0,
        hierarchy: HierarchyMode::Force,
        data_plane: DataPlaneMode::Ring,
        ..CollTuning::default()
    }
}

/// Force the shared-window single-copy data plane (hierarchy off; payloads
/// that exceed one slot, and communicators whose window creation failed,
/// still fall back to ring). Pair with [`with_window_headroom`] on
/// `cxl_small` configs so the window can actually be created.
pub fn force_shm() -> CollTuning {
    CollTuning {
        hierarchy: HierarchyMode::Off,
        data_plane: DataPlaneMode::Shm,
        shm_arena_bytes: TEST_SHM_ARENA_BYTES,
        ..CollTuning::default()
    }
}

/// Pin the flat ring path with default size thresholds: the baseline side of
/// the shm ≡ ring byte-equivalence checks.
pub fn force_ring() -> CollTuning {
    CollTuning {
        hierarchy: HierarchyMode::Off,
        data_plane: DataPlaneMode::Ring,
        ..CollTuning::default()
    }
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
    Universe::run(config, move |world: &mut Comm| {
        let mut comm = world.comm_dup()?;
        comm.barrier()?;
        for _ in 0..DP_SLOTS {
            step(&mut comm)?;
        }
        let (before, start) = (comm.data_plane_stats(), world.clock_ns());
        for _ in 0..colls {
            step(&mut comm)?;
        }
        Ok((before, comm.data_plane_stats(), world.clock_ns() - start))
    })
    .expect("steady collectives")
    .into_iter()
    .map(|(result, _)| result)
    .collect()
}
