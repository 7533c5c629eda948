//! The execution runtime: universes and rank threads.
//!
//! A [`Universe`] plays the role of `mpirun` + `MPI_Init`: it builds the
//! simulated hardware (the dax device and per-host caches for the CXL
//! transport, or the NIC fabric for the TCP baseline), spawns one OS thread
//! per rank and hands each thread a [`Comm`] — the world communicator — wired
//! to the selected transport and carrying the rank's virtual clock. From the
//! world communicator, rank code can carve out sub-communicators with
//! [`Comm::comm_split`] / [`Comm::comm_dup`].

use std::sync::Arc;

use cxl_shm::{ArenaConfig, ArenaLayout, CxlShmArena, CxlView, DaxDevice, HostCache};

use crate::comm::{Comm, CommCollStats};
use crate::config::{ProgressMode, TransportConfig, UniverseConfig};
use crate::counters::RankCounters;
use crate::error::MpiError;
use crate::plan::PlanCacheStats;
use crate::progress::ProgressStats;
use crate::spin::PoisonFlag;
use crate::topology::HostTopology;
use crate::transport::cxl::CxlTransport;
use crate::transport::tcp::{TcpSharedState, TcpTransport};
use crate::transport::{DataPlaneStats, FaultInjector, Transport, TransportStats};
use crate::types::Rank;
use crate::Result;

/// Raises the universe poison flag unless disarmed: armed before a rank body
/// runs, disarmed only on clean completion, so panics *and* error returns both
/// poison the universe and wake every spinning peer.
struct PoisonOnAbnormalExit {
    poison: PoisonFlag,
    rank: Rank,
    armed: bool,
}

impl PoisonOnAbnormalExit {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for PoisonOnAbnormalExit {
    fn drop(&mut self) {
        if self.armed {
            self.poison
                .poison(format!("rank {} exited abnormally", self.rank));
        }
    }
}

/// Per-rank summary returned by [`Universe::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankReport {
    /// Rank index (world rank).
    pub rank: Rank,
    /// Host the rank ran on.
    pub host: usize,
    /// Final virtual time of the rank, nanoseconds.
    pub clock_ns: f64,
    /// Transport operation counters.
    pub stats: TransportStats,
    /// Per-communicator collective counters, ordered by context id. The world
    /// communicator (context 0) includes the `MPI_Init`-style startup barrier.
    pub comm_colls: Vec<CommCollStats>,
    /// How often each collective algorithm was chosen by this rank, as
    /// `(label, count)` pairs ordered by label (e.g.
    /// `("allreduce/rabenseifner", 3)`). Size-adaptive selection means the
    /// same operation can appear under several labels.
    pub coll_algos: Vec<(String, u64)>,
    /// Progress-engine counters: nonblocking collectives started/completed
    /// and the poll/op split between `test`-family calls (progress serviced
    /// during user compute — the overlap metric) and blocking waits.
    pub progress: ProgressStats,
    /// Collective plan-cache counters (hits, misses, evictions, resident
    /// plans — aggregated across the rank's communicators): how often
    /// repeated collectives skipped plan construction entirely.
    pub plan_cache: PlanCacheStats,
    /// Shared-window data-plane counters: window setups/failures, single-copy
    /// expose/pull/notify operations and bytes, plus the shm-vs-ring path
    /// split of the collectives of the kinds that have a window builder
    /// (barrier, bcast, reduce, allreduce, allgather, alltoall, alltoallv,
    /// alltoallw).
    pub data_plane: DataPlaneStats,
}

/// Per-rank outcome of a fault-tolerant run ([`Universe::run_ft`]): either the
/// rank survived to the end of its body, or it was terminated by the fault
/// injector ([`crate::config::FaultPlan`]).
// The inline `RankReport` dwarfs the `Killed` variant, but one value exists
// per rank, once, at teardown — boxing would only complicate the API.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum FtOutcome<T> {
    /// The rank completed its body; the value and report are what
    /// [`Universe::run`] would have returned for it.
    Survived(T, RankReport),
    /// The rank was killed by fault injection. Its death was recorded in the
    /// universe failure state (bumping the failure epoch) before the thread
    /// exited, so survivors observe [`MpiError::ProcFailed`] — no report is
    /// produced (the rank never finished).
    Killed {
        /// World rank that was killed.
        rank: Rank,
        /// The injector's description of the kill point.
        reason: String,
    },
}

impl<T> FtOutcome<T> {
    /// Whether this rank was killed by fault injection.
    pub fn is_killed(&self) -> bool {
        matches!(self, FtOutcome::Killed { .. })
    }

    /// The survivor's value and report, if the rank survived.
    pub fn into_survived(self) -> Option<(T, RankReport)> {
        match self {
            FtOutcome::Survived(value, report) => Some((value, report)),
            FtOutcome::Killed { .. } => None,
        }
    }
}

/// The universe: builds the simulated platform and runs one closure per rank.
pub struct Universe {
    config: UniverseConfig,
}

/// The shared per-rank body closure as spawned onto rank threads.
type RankBody<T> = Arc<dyn Fn(&mut Comm) -> Result<T> + Send + Sync>;

impl Universe {
    /// Create a universe from a configuration.
    pub fn new(config: UniverseConfig) -> Self {
        Universe { config }
    }

    /// Run `body` on every rank (one OS thread each) and collect each rank's
    /// return value and report, ordered by rank.
    ///
    /// This is the moral equivalent of
    /// `mpirun -np <ranks> ./app` with the transport selected by the config.
    pub fn run<T, F>(config: UniverseConfig, body: F) -> Result<Vec<(T, RankReport)>>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync + 'static,
    {
        Universe::new(config).launch(body)
    }

    /// Instance form of [`Universe::run`].
    pub fn launch<T, F>(&self, body: F) -> Result<Vec<(T, RankReport)>>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync + 'static,
    {
        Ok(self
            .launch_inner(body, false)?
            .into_iter()
            .map(|o| {
                o.into_survived()
                    .expect("non-FT launches never produce Killed outcomes")
            })
            .collect())
    }

    /// Run `body` on every rank under **fault tolerance**: a rank terminated
    /// by the configured fault injection
    /// ([`crate::config::UniverseConfig::with_faults`]) records its death in
    /// the shared failure state (instead of poisoning the universe) and is
    /// reported as [`FtOutcome::Killed`]; the other ranks keep running and can
    /// recover with [`Comm::shrink`] after observing
    /// [`MpiError::ProcFailed`] on a communicator whose error handler is
    /// [`crate::comm::ErrHandler::ErrorsReturn`]. Outcomes are ordered by
    /// rank. Any error other than an injected kill still fails the whole run,
    /// exactly as in [`Universe::run`].
    pub fn run_ft<T, F>(config: UniverseConfig, body: F) -> Result<Vec<FtOutcome<T>>>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync + 'static,
    {
        Universe::new(config).launch_ft(body)
    }

    /// Instance form of [`Universe::run_ft`].
    pub fn launch_ft<T, F>(&self, body: F) -> Result<Vec<FtOutcome<T>>>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync + 'static,
    {
        self.launch_inner(body, true)
    }

    /// Shared launch path. `ft` selects how an injected kill
    /// ([`MpiError::RankKilled`]) surfacing from a rank body is handled:
    /// recorded as a survivable death (`true`) or propagated as a fatal error
    /// through the abnormal-exit guard (`false`).
    fn launch_inner<T, F>(&self, body: F, ft: bool) -> Result<Vec<FtOutcome<T>>>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync + 'static,
    {
        let topology = self.config.topology()?;
        let ranks = topology.ranks();
        let tuning = self.config.coll;
        let progress = self.config.progress;
        let body = Arc::new(body);
        // The universe's peer-death flag: cloned into every transport so every
        // blocking wait aborts with `PeerDead` once any rank dies.
        let poison = PoisonFlag::new();

        // Build the per-rank transport constructors up front (everything that
        // must be shared between ranks), then spawn the rank threads.
        let faults = self.config.faults.clone();
        let mut handles = Vec::with_capacity(ranks);
        match &self.config.transport {
            TransportConfig::CxlShm(cxl_config) => {
                let device = Self::build_device(ranks, cxl_config, &topology)?;
                // Sized for the transport's queue/window/barrier objects plus
                // the per-communicator data-plane window pairs (status + data
                // object each) and, in lazy mode, the doorbell/SRQ/queue-pair
                // objects; must match `build_device`.
                let arena_config =
                    ArenaConfig::for_objects(CxlTransport::arena_object_hint(ranks, cxl_config));
                // One cache (and arena handle) per host; rank 0's host
                // initialises the arena, the others attach.
                let mut arenas: Vec<CxlShmArena> = Vec::with_capacity(topology.hosts());
                for host in 0..topology.hosts() {
                    let cache = HostCache::new(format!("host{host}"));
                    let view = CxlView::new(device.clone(), cache);
                    let arena = if host == topology.host_of(0) {
                        CxlShmArena::init(view, arena_config)?
                    } else {
                        CxlShmArena::attach(view)?
                    };
                    arenas.push(arena);
                }
                for rank in 0..ranks {
                    let arena = arenas[topology.host_of(rank)].clone();
                    let cxl_config = cxl_config.clone();
                    let topology = topology.clone();
                    let body = Arc::clone(&body);
                    let poison = poison.clone();
                    let fault_trigger = faults.iter().find(|p| p.victim == rank).map(|p| p.trigger);
                    handles.push(std::thread::spawn(move || -> Result<FtOutcome<T>> {
                        let guard = PoisonOnAbnormalExit {
                            poison: poison.clone(),
                            rank,
                            armed: true,
                        };
                        let counters = Arc::new(RankCounters::default());
                        let mut transport = CxlTransport::new(
                            rank,
                            ranks,
                            arena,
                            &cxl_config,
                            &topology,
                            poison.for_rank(&counters),
                            Arc::clone(&counters),
                        )?;
                        if let Some(trigger) = fault_trigger {
                            transport.set_fault_injector(FaultInjector::new(trigger));
                        }
                        Self::finish_rank(
                            Self::run_rank(
                                Box::new(transport),
                                counters,
                                topology,
                                tuning,
                                progress,
                                rank,
                                body,
                            ),
                            guard,
                            poison,
                            rank,
                            ft,
                        )
                    }));
                }
            }
            TransportConfig::Tcp(tcp_config) => {
                let fabric = TcpTransport::build_fabric(tcp_config, &topology);
                let shared = TcpSharedState::new(ranks);
                for rank in 0..ranks {
                    let fabric = fabric.clone();
                    let shared = Arc::clone(&shared);
                    let tcp_config = *tcp_config;
                    let topology = topology.clone();
                    let body = Arc::clone(&body);
                    let poison = poison.clone();
                    let fault_trigger = faults.iter().find(|p| p.victim == rank).map(|p| p.trigger);
                    handles.push(std::thread::spawn(move || -> Result<FtOutcome<T>> {
                        let guard = PoisonOnAbnormalExit {
                            poison: poison.clone(),
                            rank,
                            armed: true,
                        };
                        let counters = Arc::new(RankCounters::default());
                        let mut transport = TcpTransport::new(
                            rank,
                            ranks,
                            fabric,
                            shared,
                            &tcp_config,
                            poison.for_rank(&counters),
                            Arc::clone(&counters),
                        )?;
                        if let Some(trigger) = fault_trigger {
                            transport.set_fault_injector(FaultInjector::new(trigger));
                        }
                        Self::finish_rank(
                            Self::run_rank(
                                Box::new(transport),
                                counters,
                                topology,
                                tuning,
                                progress,
                                rank,
                                body,
                            ),
                            guard,
                            poison,
                            rank,
                            ft,
                        )
                    }));
                }
            }
        }

        let mut results: Vec<Option<FtOutcome<T>>> = (0..ranks).map(|_| None).collect();
        let mut first_error: Option<MpiError> = None;
        for (rank, handle) in handles.into_iter().enumerate() {
            let outcome = match handle.join() {
                Ok(Ok(outcome)) => {
                    results[rank] = Some(outcome);
                    continue;
                }
                Ok(Err(e)) => e,
                Err(_) => MpiError::Transport(format!("rank {rank} panicked")),
            };
            // Prefer the root cause over the cascade: ranks that died with
            // `PeerDead` were killed by the poison raised for the original
            // failure, so any other error (or panic) wins the report.
            match (&first_error, &outcome) {
                (None, _) => first_error = Some(outcome),
                (Some(MpiError::PeerDead(_)), e) if !matches!(e, MpiError::PeerDead(_)) => {
                    first_error = Some(outcome)
                }
                _ => {}
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("all ranks reported"))
            .collect())
    }

    /// Map a rank body's result to its [`FtOutcome`], disarming the
    /// abnormal-exit guard when the outcome is survivable. Under `ft`, an
    /// injected kill ([`MpiError::RankKilled`]) is recorded in the shared
    /// failure state — waking the victim's peers with a failure-epoch bump
    /// rather than universe poison — and reported as [`FtOutcome::Killed`].
    fn finish_rank<T>(
        result: Result<(T, RankReport)>,
        guard: PoisonOnAbnormalExit,
        poison: PoisonFlag,
        rank: Rank,
        ft: bool,
    ) -> Result<FtOutcome<T>> {
        match result {
            Ok((value, report)) => {
                guard.disarm();
                Ok(FtOutcome::Survived(value, report))
            }
            Err(MpiError::RankKilled(reason)) if ft => {
                poison.mark_dead(rank, reason.clone());
                guard.disarm();
                Ok(FtOutcome::Killed { rank, reason })
            }
            Err(e) => Err(e),
        }
    }

    fn build_device(
        ranks: usize,
        cxl_config: &crate::config::CxlShmTransportConfig,
        topology: &HostTopology,
    ) -> Result<DaxDevice> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static DEVICE_COUNTER: AtomicU64 = AtomicU64::new(0);
        let shared_bytes = CxlTransport::required_shared_bytes(ranks, cxl_config)?;
        let arena_config =
            ArenaConfig::for_objects(CxlTransport::arena_object_hint(ranks, cxl_config));
        let size = ArenaLayout::min_device_size(
            arena_config.hash,
            arena_config.max_free_extents,
            shared_bytes,
        )?;
        // Round up to the devdax 2 MB mapping alignment.
        let alignment = 2 * 1024 * 1024;
        let size = size.div_ceil(alignment) * alignment;
        let id = DEVICE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let name = format!("cmpi-dax{id}.{}", topology.hosts());
        Ok(DaxDevice::with_alignment(name, size, alignment)?)
    }

    fn run_rank<T>(
        transport: Box<dyn Transport>,
        counters: Arc<RankCounters>,
        topology: HostTopology,
        tuning: crate::config::CollTuning,
        progress: ProgressMode,
        rank: Rank,
        body: RankBody<T>,
    ) -> Result<(T, RankReport)> {
        let mut comm = Comm::world(transport, counters, topology, tuning, progress)?;
        // Every rank enters an initialization barrier before user code runs,
        // mirroring the end of MPI_Init.
        comm.barrier()?;
        let value = body(&mut comm);
        // Stop and join the background progress engine (Thread mode) before
        // the counters are read, so every in-flight completion is accounted
        // in the report — and so the thread is gone even when `body` failed.
        comm.shutdown_engine();
        let value = value?;
        let report = RankReport {
            rank,
            host: comm.host(),
            clock_ns: comm.clock_ns(),
            stats: comm.stats(),
            comm_colls: comm.coll_stats_snapshot(),
            coll_algos: comm.algo_counts_snapshot(),
            progress: comm.progress_stats(),
            plan_cache: comm.plan_cache_stats(),
            data_plane: comm.data_plane_stats(),
        };
        Ok((value, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UniverseConfig;
    use crate::types::ReduceOp;
    use cmpi_fabric::cost::TcpNic;

    fn configs(ranks: usize) -> Vec<UniverseConfig> {
        vec![
            UniverseConfig::cxl_small(ranks),
            UniverseConfig::tcp(ranks, TcpNic::StandardEthernet),
            UniverseConfig::tcp(ranks, TcpNic::MellanoxCx6Dx),
        ]
    }

    #[test]
    fn ping_pong_on_every_transport() {
        for config in configs(2) {
            let label = config.transport.label();
            let results = Universe::run(config, |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 7, b"ping")?;
                    let (status, data) = comm.recv_owned(Some(1), Some(8))?;
                    assert_eq!(&data, b"pong");
                    assert_eq!(status.source, 1);
                } else {
                    let (status, data) = comm.recv_owned(Some(0), Some(7))?;
                    assert_eq!(&data, b"ping");
                    assert_eq!(status.len, 4);
                    comm.send(0, 8, b"pong")?;
                }
                Ok(comm.clock_ns())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(results.len(), 2);
            for (clock, report) in &results {
                assert!(*clock > 0.0, "{label}: clock did not advance");
                assert_eq!(report.clock_ns, *clock);
            }
        }
    }

    #[test]
    fn wildcard_receive_and_unexpected_messages() {
        for config in configs(3) {
            let label = config.transport.label();
            Universe::run(config, |comm| {
                match comm.rank() {
                    0 => {
                        // Both peers send; receive the tag-2 message first even
                        // though the tag-1 message may have arrived earlier.
                        let (s2, d2) = comm.recv_owned(None, Some(2))?;
                        let (s1, d1) = comm.recv_owned(None, Some(1))?;
                        assert_eq!(s1.source, 1);
                        assert_eq!(s2.source, 2);
                        assert_eq!(d1, vec![1u8; 32]);
                        assert_eq!(d2, vec![2u8; 32]);
                    }
                    1 => comm.send(0, 1, &[1u8; 32])?,
                    2 => {
                        comm.send(0, 2, &[2u8; 32])?;
                    }
                    _ => unreachable!(),
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn isend_irecv_wait_test() {
        for config in configs(2) {
            let label = config.transport.label();
            Universe::run(config, |comm| {
                if comm.rank() == 0 {
                    let mut req = comm.irecv(Some(1), Some(5))?;
                    // Test may or may not complete immediately; wait must.
                    let _ = comm.test(&mut req)?;
                    let status = comm.wait(&mut req)?;
                    assert_eq!(status.len, 16);
                    let data = req.take_data().unwrap();
                    assert_eq!(data, vec![9u8; 16]);
                } else {
                    let mut req = comm.isend(0, 5, &[9u8; 16])?;
                    assert!(req.is_complete());
                    comm.wait(&mut req)?;
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn irecv_into_reuses_one_buffer_across_receives() {
        for config in configs(2) {
            let label = config.transport.label();
            Universe::run(config, |comm| {
                if comm.rank() == 0 {
                    // One 64-byte buffer serves three receives back to back.
                    let mut buf = vec![0u8; 64];
                    for i in 0..3u8 {
                        let mut req = comm.irecv_into(Some(1), Some(i as i32), buf)?;
                        let status = comm.wait(&mut req)?;
                        assert_eq!(status.len, 16 + i as usize);
                        buf = req.take_data()?;
                        assert_eq!(buf, vec![i; 16 + i as usize]);
                        buf.resize(64, 0);
                    }
                    // Truncation through the buffered path errors the wait.
                    let mut req = comm.irecv_into(Some(1), Some(9), vec![0u8; 4])?;
                    assert!(matches!(
                        comm.wait(&mut req),
                        Err(MpiError::Truncation { .. })
                    ));
                } else {
                    for i in 0..3u8 {
                        comm.send(0, i as i32, &vec![i; 16 + i as usize])?;
                    }
                    comm.send(0, 9, &[7u8; 32])?;
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn rank_panic_poisons_universe_instead_of_hanging() {
        // Rank 1 dies mid-collective; rank 0 is blocked in a receive that
        // would previously spin forever. The poison flag must abort it.
        for config in configs(2) {
            let label = config.transport.label();
            let err = Universe::run(config, |comm| {
                if comm.rank() == 0 {
                    comm.recv_owned(Some(1), Some(42))?; // never sent
                    Ok(())
                } else {
                    panic!("rank 1 dies");
                }
            })
            .unwrap_err();
            // The panic is the root cause; PeerDead is the survivor's view.
            // Either way the universe must fail fast (not hang) and report.
            match err {
                MpiError::Transport(msg) => assert!(msg.contains("panicked"), "{label}: {msg}"),
                MpiError::PeerDead(_) => {}
                other => panic!("{label}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn wait_any_and_test_all_round_out_the_request_api() {
        for config in configs(3) {
            let label = config.transport.label();
            Universe::run(config, |comm| {
                if comm.rank() == 0 {
                    // Two outstanding receives, completed in whatever order the
                    // messages arrive.
                    let mut reqs = vec![
                        comm.irecv(Some(1), Some(11))?,
                        comm.irecv(Some(2), Some(22))?,
                    ];
                    assert!(matches!(comm.test_all(&mut reqs), Ok(None) | Ok(Some(_))));
                    let (first, s1) = comm.wait_any(&mut reqs)?;
                    assert_eq!(s1.source, first + 1);
                    let data = reqs[first].take_data().unwrap();
                    assert_eq!(data, vec![(first + 1) as u8; 8]);
                    // The consumed request is skipped; the other completes.
                    let (second, s2) = comm.wait_any(&mut reqs)?;
                    assert_ne!(first, second);
                    assert_eq!(s2.source, second + 1);
                    // Now everything is complete: test_all reports statuses.
                    let statuses = comm.test_all(&mut reqs[second..=second])?.unwrap();
                    assert_eq!(statuses[0].source, second + 1);
                    // test_any on a fully consumed set errors.
                    reqs[second].take_data().unwrap();
                    assert!(comm.test_any(&mut reqs).is_err());
                } else {
                    let me = comm.rank();
                    comm.send(0, (me * 11) as i32, &[me as u8; 8])?;
                }
                comm.barrier()?;
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn barrier_and_clock_merge() {
        for config in configs(4) {
            let label = config.transport.label();
            let results = Universe::run(config, |comm| {
                // Rank 2 does a lot of "compute" before the barrier; everyone's
                // clock must be at least that much afterwards.
                if comm.rank() == 2 {
                    comm.advance_clock(1_000_000.0);
                }
                comm.barrier()?;
                Ok(comm.clock_ns())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
            for (clock, _) in &results {
                assert!(
                    *clock >= 1_000_000.0,
                    "{label}: barrier did not merge clocks ({clock})"
                );
            }
        }
    }

    #[test]
    fn large_chunked_message_roundtrip() {
        // 1 KB cells force chunking of a 10 KB message on the CXL transport.
        let config = UniverseConfig::cxl_small(2);
        Universe::run(config, |comm| {
            let payload: Vec<u8> = (0..10_240).map(|i| (i % 251) as u8).collect();
            if comm.rank() == 0 {
                comm.send(1, 3, &payload)?;
            } else {
                let (status, data) = comm.recv_owned(Some(0), Some(3))?;
                assert_eq!(status.len, 10_240);
                assert_eq!(data, payload);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn typed_collectives_on_both_transports() {
        for config in [
            UniverseConfig::cxl_small(4),
            UniverseConfig::tcp(4, TcpNic::MellanoxCx6Dx),
        ] {
            let label = config.transport.label();
            Universe::run(config, |comm| {
                let n = comm.size();
                let me = comm.rank();
                // Broadcast.
                let mut data = vec![0u64; 8];
                if me == 1 {
                    data = vec![42u64; 8];
                }
                comm.bcast_into(1, &mut data)?;
                assert_eq!(data, vec![42u64; 8]);
                // Allgather.
                let mut gathered = vec![0u8; n * 4];
                comm.allgather_into(&[me as u8; 4], &mut gathered)?;
                for r in 0..n {
                    assert_eq!(&gathered[r * 4..(r + 1) * 4], &[r as u8; 4]);
                }
                // Allreduce.
                let mut values = vec![me as f64, 1.0];
                comm.allreduce(&mut values, ReduceOp::Sum)?;
                assert_eq!(values[0], (0..n).map(|r| r as f64).sum::<f64>());
                assert_eq!(values[1], n as f64);
                // Reduce (on an integer type, exercising the generic path).
                let reduced = comm.reduce(0, &[me as i64 + 1], ReduceOp::Max)?;
                if me == 0 {
                    assert_eq!(reduced.unwrap(), vec![n as i64]);
                } else {
                    assert!(reduced.is_none());
                }
                // Gather / scatter through flat typed buffers.
                let mut all = vec![0.0f64; if me == 2 { n } else { 0 }];
                comm.gather_into(
                    2,
                    &[me as f64],
                    if me == 2 { Some(&mut all[..]) } else { None },
                )?;
                if me == 2 {
                    assert_eq!(all, (0..n).map(|r| r as f64).collect::<Vec<_>>());
                }
                let chunks: Vec<u32> = (0..2 * n as u32).collect();
                let mut mine = [0u32; 2];
                comm.scatter_from(0, if me == 0 { Some(&chunks[..]) } else { None }, &mut mine)?;
                assert_eq!(mine, [2 * me as u32, 2 * me as u32 + 1]);
                // Reduce-scatter.
                let input: Vec<f64> = (0..n * 2).map(|i| i as f64).collect();
                let block = comm.reduce_scatter(&input, ReduceOp::Sum)?;
                assert_eq!(block.len(), 2);
                assert_eq!(block[0], (me * 2) as f64 * n as f64);
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn one_sided_pscw_put_get() {
        for config in configs(2) {
            let label = config.transport.label();
            Universe::run(config, |comm| {
                let win = comm.win_allocate(4096)?;
                if comm.rank() == 0 {
                    // Origin: put into rank 1's window, then get it back.
                    comm.win_start(win, &[1])?;
                    comm.put(win, 1, 128, b"one-sided payload")?;
                    comm.win_complete(win)?;
                    // Second epoch: read back what the target published.
                    comm.win_start(win, &[1])?;
                    let mut buf = vec![0u8; 5];
                    comm.get(win, 1, 0, &mut buf)?;
                    assert_eq!(&buf, b"reply");
                    comm.win_complete(win)?;
                } else {
                    comm.win_post(win, &[0])?;
                    comm.win_wait(win)?;
                    let mut buf = vec![0u8; 17];
                    comm.win_read_local(win, 128, &mut buf)?;
                    assert_eq!(&buf, b"one-sided payload");
                    comm.win_write_local(win, 0, b"reply")?;
                    comm.win_post(win, &[0])?;
                    comm.win_wait(win)?;
                }
                comm.win_free(win)?;
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn one_sided_fence_and_accumulate() {
        for config in configs(4) {
            let label = config.transport.label();
            Universe::run(config, move |comm| {
                let n = comm.size();
                let win = comm.win_allocate(64)?;
                comm.win_write_local(win, 0, &crate::pod::f64_to_bytes(&[0.0]))?;
                comm.win_fence(win)?;
                // Every rank accumulates 1.0 into rank 0's first slot under a lock.
                comm.win_lock(win, 0)?;
                comm.accumulate(win, 0, 0, &[1.0], ReduceOp::Sum)?;
                comm.win_unlock(win, 0)?;
                comm.win_fence(win)?;
                if comm.rank() == 0 {
                    let mut buf = vec![0u8; 8];
                    comm.win_read_local(win, 0, &mut buf)?;
                    let v = crate::pod::bytes_to_f64(&buf)[0];
                    assert_eq!(v, n as f64, "{label}: accumulate lost updates");
                }
                comm.win_free(win)?;
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn window_bounds_and_sync_errors() {
        let config = UniverseConfig::cxl_small(2);
        Universe::run(config, |comm| {
            let win = comm.win_allocate(128)?;
            if comm.rank() == 0 {
                assert!(matches!(
                    comm.put(win, 1, 120, &[0u8; 16]),
                    Err(MpiError::WindowOutOfBounds { .. })
                ));
                assert!(matches!(
                    comm.win_complete(win),
                    Err(MpiError::InvalidSyncState(_))
                ));
                assert!(matches!(
                    comm.put(99, 1, 0, &[0u8; 1]),
                    Err(MpiError::InvalidWindow(99))
                ));
            }
            comm.barrier()?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn truncation_error_on_small_buffer() {
        let config = UniverseConfig::cxl_small(2);
        Universe::run(config, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &[0u8; 64])?;
            } else {
                let mut small = [0u8; 16];
                assert!(matches!(
                    comm.recv(Some(0), Some(0), &mut small),
                    Err(MpiError::Truncation { .. })
                ));
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn stats_count_messages_and_collectives() {
        let config = UniverseConfig::cxl_small(2);
        let results = Universe::run(config, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &[1u8; 100])?;
                comm.send(1, 0, &[2u8; 200])?;
            } else {
                comm.recv_owned(Some(0), Some(0))?;
                comm.recv_owned(Some(0), Some(0))?;
            }
            let mut v = [1.0f64];
            comm.allreduce(&mut v, ReduceOp::Sum)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(results[0].1.stats.msgs_sent, 2 + 1); // 2 payloads + allreduce exchange
        assert_eq!(results[0].1.stats.bytes_sent, 300 + 8);
        assert_eq!(results[1].1.stats.msgs_received, 2 + 1);
        assert_eq!(results[1].1.stats.bytes_received, 300 + 8);
        for (_, report) in &results {
            // The init barrier + the allreduce, all on the world communicator.
            assert_eq!(report.stats.collectives, 2);
            assert_eq!(report.stats.collective_bytes, 8);
            assert_eq!(report.comm_colls.len(), 1);
            let world = &report.comm_colls[0];
            assert_eq!(world.ctx, crate::types::WORLD_CTX);
            assert_eq!(world.comm_size, 2);
            assert_eq!(world.barriers, 1);
            assert_eq!(world.allreduces, 1);
            assert_eq!(world.payload_bytes, 8);
        }
    }

    #[test]
    fn invalid_rank_errors() {
        let config = UniverseConfig::cxl_small(2);
        Universe::run(config, |comm| {
            assert!(matches!(
                comm.send(7, 0, &[0u8; 1]),
                Err(MpiError::InvalidRank { .. })
            ));
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn cxl_faster_than_ethernet_for_small_messages() {
        // The headline claim, at miniature scale: a small-message ping-pong
        // over CXL SHM finishes with a much smaller virtual clock than over
        // TCP on the standard Ethernet NIC.
        let run = |config: UniverseConfig| -> f64 {
            let results = Universe::run(config, |comm| {
                if comm.rank() == 0 {
                    for _ in 0..10 {
                        comm.send(1, 0, &[0u8; 8])?;
                        comm.recv_owned(Some(1), Some(0))?;
                    }
                } else {
                    for _ in 0..10 {
                        comm.recv_owned(Some(0), Some(0))?;
                        comm.send(0, 0, &[0u8; 8])?;
                    }
                }
                Ok(comm.clock_ns())
            })
            .unwrap();
            results[0].0
        };
        let cxl = run(UniverseConfig::cxl_small(2));
        let eth = run(UniverseConfig::tcp(2, TcpNic::StandardEthernet));
        assert!(
            eth > cxl * 5.0,
            "expected TCP-Ethernet ({eth} ns) to be much slower than CXL ({cxl} ns)"
        );
    }

    #[test]
    fn comm_split_halves_with_isolated_collectives() {
        for config in configs(4) {
            let label = config.transport.label();
            Universe::run(config, |comm| {
                let me = comm.rank();
                let n = comm.size();
                let half = comm
                    .comm_split((me % 2) as i32, me as i32)?
                    .expect("non-negative color");
                assert_eq!(half.size(), n / 2);
                assert_eq!(half.rank(), me / 2);
                assert_eq!(half.world_rank(), me);
                assert_ne!(half.context_id(), comm.context_id());
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn comm_dup_isolates_identical_selectors() {
        let config = UniverseConfig::cxl_small(2);
        Universe::run(config, |comm| {
            let mut dup = comm.comm_dup()?;
            assert_eq!(dup.size(), comm.size());
            assert_eq!(dup.rank(), comm.rank());
            assert_ne!(dup.context_id(), comm.context_id());
            if comm.rank() == 0 {
                // Same (destination, tag) on both communicators.
                comm.send(1, 5, b"world")?;
                dup.send(1, 5, b"dup")?;
            } else {
                // Receive in the *opposite* order: the context id must route
                // each message to the right communicator.
                let (_, d) = dup.recv_owned(Some(0), Some(5))?;
                assert_eq!(&d, b"dup");
                let (_, w) = comm.recv_owned(Some(0), Some(5))?;
                assert_eq!(&w, b"world");
            }
            comm.barrier()?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn windows_rejected_on_sub_communicators() {
        let config = UniverseConfig::cxl_small(2);
        Universe::run(config, |comm| {
            let me = comm.rank();
            let mut sub = comm.comm_split(0, me as i32)?.unwrap();
            if sub.size() < comm.size() {
                unreachable!("color 0 keeps everyone");
            }
            // A same-group split is still world-spanning → windows allowed.
            let win = sub.win_allocate(64)?;
            sub.win_free(win)?;
            // A true subset communicator is not.
            let mut solo = comm.comm_split(me as i32, 0)?.unwrap();
            if solo.size() == 1 && comm.size() > 1 {
                assert!(matches!(
                    solo.win_allocate(64),
                    Err(MpiError::InvalidCommunicator(_))
                ));
            }
            comm.barrier()?;
            Ok(())
        })
        .unwrap();
    }
}
