//! Configuration of a cMPI universe: rank count, host topology and transport.

use cmpi_fabric::cost::{CoherenceMode, TcpNic};
use cmpi_fabric::params;

use crate::error::MpiError;
use crate::topology::HostTopology;
use crate::Result;

/// How the CXL transport provisions its per-pair connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnMode {
    /// Lazy sparse connections (the default): each rank owns a doorbell and a
    /// shared receive queue; dedicated SPSC queue pairs are carved out of the
    /// pool on first use and only for pairs that actually talk, so per-rank
    /// transport memory is O(active peers) and the universe scales to
    /// thousands of ranks.
    #[default]
    Lazy,
    /// Eagerly format the full `ranks × ranks` [`crate::queue::QueueMatrix`]
    /// at universe construction — the original (pre-scaling) behavior, kept as
    /// the flat baseline for equivalence testing and small worlds. Refuses
    /// worlds whose matrix would exceed
    /// [`crate::queue::QueueMatrix::MAX_MATRIX_BYTES`].
    Eager,
}

/// Configuration of the CXL SHM transport (cMPI proper).
#[derive(Debug, Clone, PartialEq)]
pub struct CxlShmTransportConfig {
    /// Capacity of one message cell's payload, bytes (Figure 9 sweeps this;
    /// MPICH defaults to 16 KB, cMPI settles on 64 KB).
    pub cell_size: usize,
    /// Number of cells per SPSC ring queue.
    pub cells_per_queue: usize,
    /// Bytes of CXL device memory to provision. `None` sizes the device
    /// automatically from the queue matrix and expected windows.
    pub device_size: Option<usize>,
    /// Coherence mode used on the data path (the paper uses `clflushopt`).
    pub coherence: CoherenceMode,
    /// Extra device headroom reserved for RMA windows and user objects, bytes.
    pub window_headroom: usize,
    /// Eager queue matrix vs lazy sparse connection table (see [`ConnMode`]).
    pub conn_mode: ConnMode,
    /// Lazy mode: maximum dedicated send-side queue pairs one rank may
    /// establish. Pairs past the budget keep flowing through the receiver's
    /// shared receive queue forever, so per-rank pool demand stays hard-capped
    /// at O(`qp_budget`) regardless of world size.
    pub qp_budget: usize,
    /// Lazy mode: messages a sender funnels through a peer's shared receive
    /// queue before promoting the pair to a dedicated queue pair. `0` promotes
    /// on the very first send.
    pub promotion_threshold: u64,
    /// Lazy mode: cells in each rank's shared receive queue ring (the
    /// multi-producer cold path; same cell payload as the queue pairs).
    pub srq_cells: usize,
    /// Lazy mode: byte stride between doorbell bitmap words. `8` packs the
    /// words densely; the default `64` gives each 64-sender group word its own
    /// cache line so senders in different groups never contend on a line.
    pub doorbell_stride: usize,
}

impl Default for CxlShmTransportConfig {
    fn default() -> Self {
        CxlShmTransportConfig {
            cell_size: params::CMPI_CELL_SIZE,
            cells_per_queue: params::CELLS_PER_QUEUE,
            device_size: None,
            coherence: CoherenceMode::FlushClflushopt,
            window_headroom: 32 * 1024 * 1024,
            conn_mode: ConnMode::default(),
            qp_budget: 64,
            promotion_threshold: 4,
            srq_cells: 32,
            doorbell_stride: 64,
        }
    }
}

impl CxlShmTransportConfig {
    /// Configuration with a specific cell size (used by the Figure 9 sweep).
    pub fn with_cell_size(cell_size: usize) -> Self {
        CxlShmTransportConfig {
            cell_size,
            ..Default::default()
        }
    }

    /// A small configuration for unit tests (small cells, small device).
    pub fn small() -> Self {
        CxlShmTransportConfig {
            cell_size: 1024,
            cells_per_queue: 4,
            window_headroom: 1024 * 1024,
            ..Default::default()
        }
    }

    /// Select eager vs lazy connection establishment.
    pub fn with_conn_mode(mut self, mode: ConnMode) -> Self {
        self.conn_mode = mode;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.cell_size == 0 || self.cells_per_queue == 0 {
            return Err(MpiError::InvalidConfig(
                "cell_size and cells_per_queue must be non-zero".into(),
            ));
        }
        if self.conn_mode == ConnMode::Lazy {
            if self.srq_cells == 0 {
                return Err(MpiError::InvalidConfig(
                    "srq_cells must be non-zero in lazy connection mode".into(),
                ));
            }
            if self.doorbell_stride < 8 || !self.doorbell_stride.is_multiple_of(8) {
                return Err(MpiError::InvalidConfig(
                    "doorbell_stride must be a multiple of 8 (≥ 8)".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Configuration of the TCP baseline transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpTransportConfig {
    /// Which NIC the baseline runs on.
    pub nic: TcpNic,
}

impl TcpTransportConfig {
    /// TCP over the standard Ethernet NIC.
    pub fn ethernet() -> Self {
        TcpTransportConfig {
            nic: TcpNic::StandardEthernet,
        }
    }

    /// TCP over the Mellanox ConnectX-6 Dx SmartNIC.
    pub fn mellanox() -> Self {
        TcpTransportConfig {
            nic: TcpNic::MellanoxCx6Dx,
        }
    }
}

/// Whether the collectives may compose the two-level (per-host local phase +
/// cross-host leader phase) hierarchical algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyMode {
    /// Pick hierarchical vs flat per call: every spanned host must hold at
    /// least two of the communicator's ranks (a lone rank gets no local-phase
    /// benefit) and the payload must reach the operation's `hier_*_min_bytes`
    /// cutoff in [`CollTuning`] (the default).
    Auto,
    /// Never compose hierarchically — restores the flat-only behavior exactly.
    Off,
    /// Always compose hierarchically when the communicator spans ≥ 2 hosts
    /// (the shape/payload gates are ignored; used by tests and the bench
    /// sweep). Single-host communicators still run flat — there is no
    /// hierarchy to exploit.
    Force,
}

/// Whether the collectives may run over the shared-window single-copy data
/// plane (a per-communicator exposure arena in the CXL pool; see `dataplane`)
/// instead of the per-pair SPSC ring queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPlaneMode {
    /// Use the shared window whenever the transport provides one, the payload
    /// fits a window slot, and the hierarchy gates did not already pick a
    /// two-level composition (the default).
    Auto,
    /// Never use the shared window — every collective runs the ring path (the
    /// only path available on TCP).
    Ring,
    /// Use the shared window whenever it exists and the payload fits,
    /// overriding the hierarchy gates (the flat single-copy schedule replaces
    /// the two-level composition). Payloads that do not fit a slot — and
    /// communicators whose window creation failed — still fall back to ring.
    Shm,
}

/// Message-size thresholds steering the size-adaptive collective algorithms
/// (see `coll`), plus the payload gates steering the hierarchical (two-level,
/// per-host) compositions. Defaults follow the MPICH-style switchover points,
/// scaled to the cell geometry of the CXL transport; the bench harness sweeps
/// across them so every branch shows up in `BENCH_collectives.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollTuning {
    /// Broadcast switches from the binomial tree to scatter + ring-allgather
    /// (van de Geijn) at and above this many payload bytes.
    pub bcast_scatter_allgather_min_bytes: usize,
    /// Allreduce switches from recursive doubling to Rabenseifner
    /// (reduce-scatter + allgather) at and above this many payload bytes.
    pub allreduce_rabenseifner_min_bytes: usize,
    /// Allgather uses the Bruck algorithm (log₂ n steps) for per-rank blocks
    /// up to this many bytes, the bandwidth-optimal ring above.
    pub allgather_bruck_max_bytes: usize,
    /// Reduce-scatter switches from the naive allreduce + block selection to
    /// recursive halving (power-of-two) / pairwise exchange (other counts) at
    /// and above this many total payload bytes.
    pub reduce_scatter_direct_min_bytes: usize,
    /// Alltoall uses the Bruck algorithm (⌈log₂ n⌉ rounds of packed
    /// half-buffer exchanges) for per-peer blocks up to this many bytes, the
    /// bandwidth-optimal pairwise exchange above. The bench's `alltoall`
    /// sweep puts the crossover between 16 KiB and 32 KiB per block at
    /// n = 4–8 (Bruck still wins at 16 KiB blocks on every measured rank
    /// count; pairwise wins at 32 KiB and above): Bruck's round saving wins
    /// while per-message latency dominates, and its ~2× data-volume
    /// inflation loses once the wire term does.
    pub alltoall_bruck_max_bytes: usize,
    /// Whether topology-aware hierarchical compositions may be selected.
    pub hierarchy: HierarchyMode,
    /// `Auto` only goes hierarchical for payloads of at least this many bytes
    /// (the local phases add hops that only pay off once the cross-host
    /// bandwidth term dominates; barriers carry no payload and are gated on
    /// the shape criteria alone).
    pub hier_min_payload_bytes: usize,
    /// Allgather's own `Auto` payload cutoff, applied to the *total* result
    /// size (`ranks × block`). The hierarchical allgather moves every byte
    /// through an extra local gather + full-buffer fan-out, so its crossover
    /// sits far above the reduction collectives' — the bench sweep measures
    /// it losing at a 512 KiB total and winning at 8 MiB.
    pub hier_allgather_min_bytes: usize,
    /// Alltoall's own `Auto` payload cutoff, applied to the total per-rank
    /// exchange volume (`ranks × block`). The hierarchical alltoall funnels
    /// every byte through leader gather + cross-host exchange + fan-out —
    /// three full copies — so like allgather it only pays once cross-host
    /// message count (not bytes) is the bottleneck.
    pub hier_alltoall_min_bytes: usize,
    /// LRU bound of each communicator's collective **plan cache**: how many
    /// compiled plans (op × root × shape × element type × reduction) are kept
    /// so repeated collectives of the same shape skip planning entirely —
    /// one-shot, nonblocking and persistent starts all hit it. `0` disables
    /// caching (every call rebuilds its plan; the bench harness uses this as
    /// the cold baseline). Hit/miss/eviction counters are surfaced in
    /// [`crate::runtime::RankReport::plan_cache`].
    pub plan_cache_entries: usize,
    /// Whether bcast / reduce / allreduce / allgather may run over the
    /// shared-window single-copy data plane instead of the ring queues.
    pub data_plane: DataPlaneMode,
    /// Bytes of CXL pool memory each rank exposes in its communicator's
    /// shared window (split into [`crate::dataplane::DP_SLOTS`] slots so
    /// consecutive collectives pipeline without waiting on slot reuse). A
    /// payload that does not fit one slot falls back to the ring path, and a
    /// pool too small to hold the whole window (every rank's share) fails
    /// window creation gracefully — the communicator then runs ring-only.
    pub shm_arena_bytes: usize,
}

impl Default for CollTuning {
    fn default() -> Self {
        CollTuning {
            bcast_scatter_allgather_min_bytes: 128 * 1024,
            allreduce_rabenseifner_min_bytes: 16 * 1024,
            allgather_bruck_max_bytes: 4 * 1024,
            reduce_scatter_direct_min_bytes: 16 * 1024,
            alltoall_bruck_max_bytes: 16 * 1024,
            hierarchy: HierarchyMode::Auto,
            hier_min_payload_bytes: 512 * 1024,
            hier_allgather_min_bytes: 4 * 1024 * 1024,
            hier_alltoall_min_bytes: 4 * 1024 * 1024,
            plan_cache_entries: 64,
            data_plane: DataPlaneMode::Auto,
            shm_arena_bytes: 2 * 1024 * 1024,
        }
    }
}

/// Who drives outstanding nonblocking/persistent operations between the
/// caller's own `test`/`wait` polls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// Weak progress (the default): operations advance only while some caller
    /// is inside `test`/`wait`/`progress` — the original single-threaded
    /// behavior, zero extra threads.
    #[default]
    Polling,
    /// Strong progress: each rank spawns one background progress thread
    /// (MPICH async-progress style) that drives every outstanding Execution
    /// and chunked send, so requests complete while the caller computes.
    /// The thread parks on a doorbell when no operations are live and is
    /// woken by enqueue/start.
    Thread,
}

impl ProgressMode {
    /// Read the mode from the `CMPI_PROGRESS` environment variable
    /// (`polling` or `thread`, case-insensitive). Unset or unrecognized
    /// values yield `None`.
    pub fn from_env() -> Option<Self> {
        match std::env::var("CMPI_PROGRESS").ok()?.to_lowercase().as_str() {
            "polling" => Some(ProgressMode::Polling),
            "thread" => Some(ProgressMode::Thread),
            _ => None,
        }
    }

    /// Short name used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            ProgressMode::Polling => "polling",
            ProgressMode::Thread => "thread",
        }
    }
}

/// Tuning of the progress engine driving nonblocking collectives (see
/// `progress`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgressTuning {
    /// Whether a background progress thread drives outstanding operations
    /// (see [`ProgressMode`]).
    pub mode: ProgressMode,
}

impl ProgressTuning {
    /// Default tuning with the progress mode taken from `CMPI_PROGRESS` when
    /// set (what the `UniverseConfig` constructors use, so a test binary can
    /// be re-run under the thread-mode matrix without code changes).
    pub fn env_default() -> Self {
        ProgressTuning {
            mode: ProgressMode::from_env().unwrap_or_default(),
        }
    }
}

/// When an injected fault fires (see [`FaultPlan`]). Operation counts are
/// 1-indexed and per victim rank, over the instrumented transport operations:
/// point-to-point sends (blocking or progress-driven), slot publishes (a
/// data-plane `dp_expose`, or one segment of a rendezvous p2p message
/// entering its lane), and data-plane acknowledgements (the completion-line
/// store after a reader's last `dp_pull` of a collective). The fault fires at
/// *operation entry*, before any bytes of that
/// operation are written — so a send that dies leaves nothing visible, and a
/// rendezvous stream that dies at a segment leaves a receiver waiting on a
/// sender it then observes as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Kill the victim as it enters its n-th send (1-indexed).
    NthSend(u64),
    /// Kill the victim as it enters its n-th slot publish (data-plane expose
    /// or rendezvous lane segment).
    NthPublish(u64),
    /// Kill the victim as it enters its n-th data-plane acknowledgement: after
    /// its last read of a collective, before its completion line is stored.
    NthAck(u64),
    /// Kill the victim at a pseudo-random operation: the k-th instrumented
    /// operation of any kind, with `k = 1 + lcg(seed) % max_ops`. Sweeping
    /// `seed` (e.g. from `CMPI_FAULT_SEED`) moves the kill point across the
    /// victim's whole communication schedule.
    SeededOp {
        /// Seed of the kill-point LCG.
        seed: u64,
        /// Upper bound on the kill operation index (the modulus).
        max_ops: u64,
    },
}

/// A planned rank death for fault-tolerance testing: kill `victim` when its
/// transport activity matches `trigger`. Only honoured under
/// [`crate::runtime::Universe::run_ft`]; the plain `run` ignores fault plans
/// (it has no way to report a survivable death). The kill surfaces on the
/// victim thread as [`crate::error::MpiError::RankKilled`], is recorded in the
/// universe failure state, and survivors observe it as
/// [`crate::error::MpiError::ProcFailed`] per their error handlers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// World rank to kill.
    pub victim: usize,
    /// When to kill it.
    pub trigger: FaultTrigger,
}

/// Which transport a universe uses for inter-node communication.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportConfig {
    /// cMPI: CXL memory sharing.
    CxlShm(CxlShmTransportConfig),
    /// Baseline: MPI over simulated TCP.
    Tcp(TcpTransportConfig),
}

impl TransportConfig {
    /// Short name used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            TransportConfig::CxlShm(_) => "CXL-SHM",
            TransportConfig::Tcp(t) => match t.nic {
                TcpNic::StandardEthernet => "TCP over Ethernet",
                TcpNic::MellanoxCx6Dx => "TCP over Mellanox (CX-6 Dx)",
            },
        }
    }
}

/// How ranks are mapped onto the simulated hosts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum HostPlacement {
    /// Balanced contiguous blocks (the usual `mpirun` placement; default).
    #[default]
    Blocked,
    /// Round-robin dealing (`rank r` on host `r % hosts`) — a permuted
    /// mapping where same-host ranks are never contiguous in rank order.
    RoundRobin,
    /// An explicit rank→host mapping (must be densely numbered and match the
    /// rank count; `hosts` is ignored).
    Explicit(Vec<usize>),
}

/// Full configuration of a universe.
#[derive(Debug, Clone, PartialEq)]
pub struct UniverseConfig {
    /// Number of MPI ranks.
    pub ranks: usize,
    /// Number of simulated hosts the ranks are spread over (ignored by
    /// [`HostPlacement::Explicit`]).
    pub hosts: usize,
    /// How ranks map onto the hosts.
    pub placement: HostPlacement,
    /// Transport selection.
    pub transport: TransportConfig,
    /// Collective algorithm switchover thresholds.
    pub coll: CollTuning,
    /// Progress-engine tuning for nonblocking collectives.
    pub progress: ProgressTuning,
    /// Planned rank deaths for fault-tolerance testing (empty by default;
    /// only honoured under [`crate::runtime::Universe::run_ft`]).
    pub faults: Vec<FaultPlan>,
}

impl UniverseConfig {
    /// cMPI over CXL SHM with the default (paper) parameters, ranks split over
    /// two hosts as in the paper's evaluation.
    pub fn cxl(ranks: usize) -> Self {
        UniverseConfig {
            ranks,
            hosts: 2.min(ranks.max(1)),
            placement: HostPlacement::Blocked,
            transport: TransportConfig::CxlShm(CxlShmTransportConfig::default()),
            coll: CollTuning::default(),
            progress: ProgressTuning::env_default(),
            faults: Vec::new(),
        }
    }

    /// Small-footprint cMPI configuration for tests.
    pub fn cxl_small(ranks: usize) -> Self {
        UniverseConfig {
            ranks,
            hosts: 2.min(ranks.max(1)),
            placement: HostPlacement::Blocked,
            transport: TransportConfig::CxlShm(CxlShmTransportConfig::small()),
            coll: CollTuning::default(),
            progress: ProgressTuning::env_default(),
            faults: Vec::new(),
        }
    }

    /// Large-world cMPI configuration: lazy sparse connections with small
    /// cells, spread over `hosts` hosts — the shape used by the n=64/256/1024
    /// scaling runs, where an eager matrix would be refused or would commit
    /// gigabytes of simulated device RAM.
    pub fn cxl_scale(ranks: usize, hosts: usize) -> Self {
        UniverseConfig {
            hosts: hosts.clamp(1, ranks.max(1)),
            ..Self::cxl_small(ranks)
        }
    }

    /// Baseline over TCP with the given NIC.
    pub fn tcp(ranks: usize, nic: TcpNic) -> Self {
        UniverseConfig {
            ranks,
            hosts: 2.min(ranks.max(1)),
            placement: HostPlacement::Blocked,
            transport: TransportConfig::Tcp(TcpTransportConfig { nic }),
            coll: CollTuning::default(),
            progress: ProgressTuning::env_default(),
            faults: Vec::new(),
        }
    }

    /// Override the number of hosts.
    pub fn with_hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts;
        self
    }

    /// Override the rank→host placement.
    pub fn with_placement(mut self, placement: HostPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Override the collective algorithm thresholds.
    pub fn with_coll_tuning(mut self, coll: CollTuning) -> Self {
        self.coll = coll;
        self
    }

    /// Override the connection mode of a CXL SHM transport (no-op on TCP,
    /// whose endpoints are inherently lazy).
    pub fn with_conn_mode(mut self, mode: ConnMode) -> Self {
        if let TransportConfig::CxlShm(ref mut c) = self.transport {
            c.conn_mode = mode;
        }
        self
    }

    /// Override the progress-engine tuning.
    pub fn with_progress_tuning(mut self, progress: ProgressTuning) -> Self {
        self.progress = progress;
        self
    }

    /// Select the progress mode, keeping the rest of the progress tuning
    /// (overrides whatever `CMPI_PROGRESS` chose).
    pub fn with_progress_mode(mut self, mode: ProgressMode) -> Self {
        self.progress.mode = mode;
        self
    }

    /// Plan rank deaths for fault-tolerance testing (see [`FaultPlan`]).
    pub fn with_faults(mut self, faults: Vec<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Validate and produce the host topology.
    pub fn topology(&self) -> Result<HostTopology> {
        if self.ranks == 0 {
            return Err(MpiError::InvalidConfig("ranks must be ≥ 1".into()));
        }
        if let TransportConfig::CxlShm(c) = &self.transport {
            c.validate()?;
        }
        let hosts = self.hosts.max(1).min(self.ranks);
        match &self.placement {
            HostPlacement::Blocked => HostTopology::blocked(self.ranks, hosts),
            HostPlacement::RoundRobin => HostTopology::round_robin(self.ranks, hosts),
            HostPlacement::Explicit(mapping) => {
                if mapping.len() != self.ranks {
                    return Err(MpiError::InvalidConfig(format!(
                        "explicit placement maps {} ranks, config has {}",
                        mapping.len(),
                        self.ranks
                    )));
                }
                HostTopology::from_mapping(mapping.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cxl_config_matches_paper() {
        let c = CxlShmTransportConfig::default();
        assert_eq!(c.cell_size, 64 * 1024);
        assert_eq!(c.coherence, CoherenceMode::FlushClflushopt);
    }

    #[test]
    fn labels() {
        assert_eq!(UniverseConfig::cxl(4).transport.label(), "CXL-SHM");
        assert_eq!(
            UniverseConfig::tcp(4, TcpNic::StandardEthernet)
                .transport
                .label(),
            "TCP over Ethernet"
        );
        assert_eq!(
            UniverseConfig::tcp(4, TcpNic::MellanoxCx6Dx)
                .transport
                .label(),
            "TCP over Mellanox (CX-6 Dx)"
        );
    }

    #[test]
    fn topology_from_config() {
        let t = UniverseConfig::cxl(8).topology().unwrap();
        assert_eq!(t.hosts(), 2);
        assert_eq!(t.ranks(), 8);
        let t = UniverseConfig::cxl(1).topology().unwrap();
        assert_eq!(t.hosts(), 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(UniverseConfig::cxl(0).topology().is_err());
        let mut cfg = UniverseConfig::cxl_small(4);
        if let TransportConfig::CxlShm(ref mut c) = cfg.transport {
            c.cell_size = 0;
        }
        assert!(cfg.topology().is_err());
    }

    #[test]
    fn with_hosts_override() {
        let cfg = UniverseConfig::cxl(8).with_hosts(4);
        assert_eq!(cfg.topology().unwrap().hosts(), 4);
        // More hosts than ranks clamps.
        let cfg = UniverseConfig::cxl(2).with_hosts(16);
        assert_eq!(cfg.topology().unwrap().hosts(), 2);
    }

    #[test]
    fn placement_variants() {
        let rr = UniverseConfig::cxl(6)
            .with_hosts(3)
            .with_placement(HostPlacement::RoundRobin)
            .topology()
            .unwrap();
        assert_eq!(rr.mapping(), &[0, 1, 2, 0, 1, 2]);
        let explicit = UniverseConfig::cxl(4)
            .with_placement(HostPlacement::Explicit(vec![1, 0, 1, 0]))
            .topology()
            .unwrap();
        assert_eq!(explicit.hosts(), 2);
        // Length mismatch and non-dense mappings are rejected.
        assert!(UniverseConfig::cxl(4)
            .with_placement(HostPlacement::Explicit(vec![0, 1]))
            .topology()
            .is_err());
        assert!(UniverseConfig::cxl(2)
            .with_placement(HostPlacement::Explicit(vec![0, 2]))
            .topology()
            .is_err());
    }

    #[test]
    fn hierarchy_defaults_are_gated() {
        let t = CollTuning::default();
        assert_eq!(t.hierarchy, HierarchyMode::Auto);
        assert_eq!(t.hier_min_payload_bytes, 512 * 1024);
        // The plan cache is on by default.
        assert!(t.plan_cache_entries > 0);
        // The alltoall crossovers sit where the bench sweep measured them:
        // Bruck up to 16 KiB blocks, hierarchy only at multi-MiB volumes.
        assert_eq!(t.alltoall_bruck_max_bytes, 16 * 1024);
        assert_eq!(t.hier_alltoall_min_bytes, 4 * 1024 * 1024);
    }

    #[test]
    fn conn_mode_defaults_and_overrides() {
        let c = CxlShmTransportConfig::default();
        assert_eq!(c.conn_mode, ConnMode::Lazy);
        assert!(c.qp_budget > 0);
        assert!(c.srq_cells > 0);
        assert_eq!(c.doorbell_stride, 64);
        let cfg = UniverseConfig::cxl_small(4).with_conn_mode(ConnMode::Eager);
        match cfg.transport {
            TransportConfig::CxlShm(ref c) => assert_eq!(c.conn_mode, ConnMode::Eager),
            _ => unreachable!(),
        }
        // Invalid lazy knobs are rejected at topology validation.
        let mut cfg = UniverseConfig::cxl_small(4);
        if let TransportConfig::CxlShm(ref mut c) = cfg.transport {
            c.srq_cells = 0;
        }
        assert!(cfg.topology().is_err());
        let mut cfg = UniverseConfig::cxl_small(4);
        if let TransportConfig::CxlShm(ref mut c) = cfg.transport {
            c.doorbell_stride = 12;
        }
        assert!(cfg.topology().is_err());
    }

    #[test]
    fn cxl_scale_shape() {
        let cfg = UniverseConfig::cxl_scale(256, 16);
        assert_eq!(cfg.topology().unwrap().hosts(), 16);
        match cfg.transport {
            TransportConfig::CxlShm(ref c) => {
                assert_eq!(c.conn_mode, ConnMode::Lazy);
                assert_eq!(c.cell_size, 1024);
            }
            _ => unreachable!(),
        }
        // Hosts clamp to the rank count.
        assert_eq!(
            UniverseConfig::cxl_scale(4, 64).topology().unwrap().hosts(),
            4
        );
    }

    #[test]
    fn data_plane_defaults() {
        let t = CollTuning::default();
        assert_eq!(t.data_plane, DataPlaneMode::Auto);
        // Large enough for useful payloads, and deliberately larger than the
        // `cxl_small` window headroom so the small test config exercises the
        // graceful creation-failure → ring fallback path by default.
        assert_eq!(t.shm_arena_bytes, 2 * 1024 * 1024);
        let small = CxlShmTransportConfig::small();
        assert!(t.shm_arena_bytes > small.window_headroom);
    }
}
