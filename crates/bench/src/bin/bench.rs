//! The JSON perf harness: p2p latency/bandwidth, collective sweeps, the
//! flat-vs-hierarchical topology sweep, the **ring-vs-shm data-plane sweep**,
//! the **size-adaptive alltoall sweep** and its **shuffle workloads**, the
//! nonblocking-collective overlap kernel (Polling vs Thread progress side by
//! side), the **RPC-storm serving sweep** (wall-clock submitter-scaling
//! throughput + p50/p99/p999 tails) and the **persistent/plan-cache
//! sweep** across both transports, written as `BENCH_collectives.json`
//! (schema v10) for the perf trajectory (`BENCH_*.json` files are diffed
//! PR-over-PR). The `rendezvous` section streams the same 128 KiB – 4 MiB
//! messages between two ranks chunked through cells (`ConnMode::Eager`, the
//! paper's protocol) and through a promoted pair's stream (the lazy default,
//! pair promoted before the clock starts), in virtual GB/s and wall MiB/s. The `hierarchy` section records, per
//! (op, layout, size), the
//! same collective with the two-level composition forced off and forced on,
//! plus the speedup — the acceptance surface for the topology-aware
//! collective stack. The `data_plane` section records, per (op, ranks, size),
//! the same CXL collective on the ring path vs the shared-window single-copy
//! data plane side by side — with the `RankReport::data_plane` counters
//! proving which path ran — the acceptance surface for the data-plane
//! subsystem. The `alltoall` section records, per (ranks, size), the same
//! complete exchange pinned to the single-copy shm data plane and under the
//! Auto selection — and the `shuffle_workloads` section records the
//! end-to-end scenario proxies built on it (distributed sample sort,
//! k-means/MKKM alternating iteration) on both transports with the selected
//! alltoall label. The `plan_build` section is the plan-build-vs-bind
//! microbenchmark (pure software cost of planning one collective vs
//! re-binding a cached plan), and the `persistent` section compares repeated
//! small-message collectives per start path: one-shot with the plan cache
//! disabled (cold — the pre-plan-cache behavior), one-shot hitting the cache,
//! and persistent `start`/`wait` — the acceptance surface for the per-call
//! software-overhead reduction. The `fault_recovery` section records the
//! virtual-time cost of the ULFM-style recovery path (post-failure agreement,
//! `Comm::shrink`, first post-shrink allreduce vs the pre-failure one) after
//! an injected mid-allreduce rank death — the acceptance surface for the
//! fault-tolerance layer. The `scaling` section records, per world size
//! (n=8 → 1024 across 2–64 hosts), the flat (eager matrix) vs sparse (lazy
//! connection table) pool reservation — including the n=1024 eager refusal —
//! cross-checked against the `cmpi-scalesim` analytic model, plus measured
//! collective times and the sparse-connection counters (queue pairs
//! established vs the n² matrix, SRQ traffic, doorbell-gated ring probes) —
//! the acceptance surface for the lazy connection subsystem.
//!
//! Two kinds of numbers are recorded:
//!
//! * **virtual-time** metrics (`latency_ns`, `bandwidth_gbps`) come from the
//!   rank clocks and reproduce the paper's cost model — they are deterministic;
//! * **wall-clock** metrics (`wall_bandwidth_mib_s`) measure the harness's own
//!   receive path (allocation behavior, copies) — they are what the
//!   allocation-free receive rework moves.
//!
//! Run with `cargo run -p cmpi-bench --release --bin bench`. Set
//! `CMPI_BENCH_SMOKE=1` for a tiny 2-rank smoke configuration (used by CI) and
//! `CMPI_BENCH_OUT=<path>` to redirect the JSON.
//!
//! The `baseline` block holds the pre-PR (PR 1 seed) numbers measured with the
//! same harness before the allocation-free receive path landed, so the
//! improvement is visible in the checked-in file itself.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use cmpi_core::coll::{build_allreduce, build_bcast, CommView};
use cmpi_core::queue::{QueueGeometry, QueueMatrix};
use cmpi_core::transport::conn::{srq_required_bytes, ConnTable, Doorbell, OBJ_SLACK};
use cmpi_core::{
    CollTuning, Comm, ConnMode, DataPlaneStats, ErrHandler, Execution, FaultPlan, FaultTrigger,
    FtOutcome, Group, HierarchyMode, HostPlacement, MpiError, ProgressMode, ReduceOp,
    TransportConfig, UniverseConfig,
};
use cmpi_fabric::cost::TcpNic;
use cmpi_omb::{nonblocking_allreduce_overlap, rpc_storm};
use cmpi_scalesim::{ConnCosts, ConnScalingPoint, RpcStormModel};

/// One p2p measurement row.
struct P2pRow {
    transport: &'static str,
    size: usize,
    latency_ns: f64,
    bandwidth_gbps: f64,
    wall_bandwidth_mib_s: f64,
}

/// One row of the rendezvous sweep: a streamed transfer on one p2p data path.
struct RendezvousRow {
    path: &'static str,
    size: usize,
    bandwidth_gbps: f64,
    wall_bandwidth_mib_s: f64,
    /// Multi-segment messages the sender streamed (0 proves the chunked path).
    rdv_msgs: u64,
}

/// One overlap measurement row (the `osu_iallreduce`-style kernel),
/// measured under both progress modes side by side.
struct OverlapRow {
    transport: &'static str,
    mode: &'static str,
    ranks: usize,
    size: usize,
    compute_ns: f64,
    total_ns: f64,
    ops_during_compute: u64,
    overlap_fraction: f64,
}

/// One RPC-storm measurement row (wall-clock serving throughput + tail).
struct RpcRow {
    mode: &'static str,
    ranks: usize,
    submitters: usize,
    inflight: usize,
    size: usize,
    think_us: u64,
    ops: u64,
    wall_ms: f64,
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

/// One collective measurement row.
struct CollRow {
    op: &'static str,
    transport: &'static str,
    ranks: usize,
    size: usize,
    time_ns: f64,
    algorithm: String,
}

/// One flat-vs-hierarchical measurement row of the topology sweep.
struct HierRow {
    op: &'static str,
    transport: &'static str,
    layout: &'static str,
    ranks: usize,
    hosts: usize,
    size: usize,
    flat_ns: f64,
    flat_algorithm: String,
    hier_ns: f64,
    hier_algorithm: String,
}

impl HierRow {
    fn speedup(&self) -> f64 {
        if self.hier_ns > 0.0 {
            self.flat_ns / self.hier_ns
        } else {
            0.0
        }
    }
}

/// One ring-vs-shm row of the data-plane sweep (CXL only — TCP has no shared
/// pool to carve a window from). The counters come from rank 0's
/// `RankReport::data_plane` of the shm-side run and prove the single-copy
/// path actually carried the payloads.
struct DataPlaneRow {
    op: &'static str,
    ranks: usize,
    size: usize,
    ring_ns: f64,
    ring_algorithm: String,
    shm_ns: f64,
    shm_algorithm: String,
    shm_stats: DataPlaneStats,
}

impl DataPlaneRow {
    fn speedup(&self) -> f64 {
        if self.shm_ns > 0.0 {
            self.ring_ns / self.shm_ns
        } else {
            0.0
        }
    }
}

/// One plan-build-vs-bind microbenchmark row (pure software, no universe).
struct PlanBuildRow {
    op: &'static str,
    ranks: usize,
    size: usize,
    /// Wall ns to construct the plan from scratch (what every call paid
    /// before the plan cache).
    build_ns: f64,
    /// Wall ns to bind the cached plan to a fresh execution (what a cache
    /// hit or a persistent start pays instead).
    bind_ns: f64,
}

/// One repeated-collective row of the persistent sweep: the wall-clock cost
/// of the *start call* (plan + bind + account — the per-call software
/// overhead, measured without completion-wait jitter) for the three start
/// paths over the same op/size/rank shape, plus the end-to-end wall and
/// virtual per-call times for context. The three paths execute byte-identical
/// plans, so their simulated (virtual) cost is equal by construction — the
/// start-call column is exactly what the plan cache and persistence remove.
struct PersistentRow {
    op: &'static str,
    transport: &'static str,
    ranks: usize,
    size: usize,
    virtual_ns: f64,
    total_wall_ns: f64,
    one_shot_cold_start_ns: f64,
    one_shot_cached_start_ns: f64,
    persistent_start_ns: f64,
}

/// One fault-recovery row: the virtual-time cost of the ULFM-style recovery
/// path. A victim rank is killed mid-allreduce; the survivors observe the
/// failure, agree, shrink, and run the same allreduce on the shrunk
/// communicator. All times are rank 0's virtual clock (rank 0 never dies).
struct FaultRecoveryRow {
    transport: &'static str,
    ranks: usize,
    size: usize,
    /// Per-call virtual time of the allreduce before the failure.
    pre_failure_allreduce_ns: f64,
    /// Virtual time of the post-failure agreement vote among survivors
    /// (currently 0: the shared-control-plane rendezvous has no virtual cost
    /// model attached — kept so attaching one shows up in the trajectory).
    agree_ns: f64,
    /// Virtual time of `Comm::shrink` (write-offs, new context, plan-cache
    /// invalidation, hierarchy re-derivation, data-plane re-establishment).
    shrink_ns: f64,
    /// Wall-clock ns rank 0 spent in the agreement (the spin rendezvous with
    /// the other survivors — the real detection/consensus latency).
    wall_agree_ns: f64,
    /// Wall-clock ns rank 0 spent in `Comm::shrink`.
    wall_shrink_ns: f64,
    /// Virtual time of the first allreduce on the shrunk communicator.
    post_shrink_allreduce_ns: f64,
}

/// Run the recovery path once per (transport, ranks, size) shape: warm
/// allreduces until the injected death interrupts one, then vote + shrink +
/// re-run. The kill fires a few allreduces in so the pre-failure number is a
/// steady-state average.
fn fault_recovery_rows(rank_counts: &[usize], sizes: &[usize]) -> Vec<FaultRecoveryRow> {
    let mut rows = Vec::new();
    for &ranks in rank_counts {
        for (label, config) in transports(ranks) {
            for &size in sizes {
                eprintln!("fault recovery {label} n={ranks} {size} B ...");
                let victim = ranks - 1;
                // A ring allreduce costs the victim ~2(n-1) sends; land the
                // kill inside roughly the fourth allreduce. No window, so
                // the victim's traffic is sends on both transports (on the
                // shm data plane payloads move as window publishes and the
                // send counter would never fire).
                let kill_at = (3 * 2 * (ranks - 1) + 2) as u64;
                let config = config
                    .clone()
                    .with_coll_tuning(CollTuning {
                        shm_arena_bytes: 0,
                        ..CollTuning::default()
                    })
                    .with_faults(vec![FaultPlan {
                        victim,
                        trigger: FaultTrigger::NthSend(kill_at),
                    }]);
                let elems = size / 8;
                let outcomes = cmpi_core::Universe::run_ft(config, move |comm: &mut Comm| {
                    comm.set_errhandler(ErrHandler::ErrorsReturn);
                    let mut pre_ns = 0.0;
                    let mut completed = 0usize;
                    loop {
                        let t0 = comm.clock_ns();
                        let mut v = vec![1u64; elems];
                        match comm.allreduce(&mut v, ReduceOp::Sum) {
                            Ok(()) => {
                                pre_ns += comm.clock_ns() - t0;
                                completed += 1;
                                if completed > 64 {
                                    panic!("victim never died: kill point past its send budget");
                                }
                            }
                            Err(MpiError::ProcFailed { .. }) | Err(MpiError::Revoked(_)) => {
                                // The recovery path under measurement. One
                                // agreement per survivor, then shrink in
                                // unison — the lockstep protocol from
                                // tests/fault_tolerance.rs.
                                let t = comm.clock_ns();
                                let w = Instant::now();
                                match comm.agree(0) {
                                    Ok(_)
                                    | Err(MpiError::ProcFailed { .. })
                                    | Err(MpiError::Revoked(_)) => {}
                                    Err(e) => return Err(e),
                                }
                                let wall_agree_ns = w.elapsed().as_nanos() as f64;
                                let agree_ns = comm.clock_ns() - t;
                                let t = comm.clock_ns();
                                let w = Instant::now();
                                *comm = comm.shrink()?;
                                let wall_shrink_ns = w.elapsed().as_nanos() as f64;
                                let shrink_ns = comm.clock_ns() - t;
                                let t = comm.clock_ns();
                                let mut v = vec![1u64; elems];
                                comm.allreduce(&mut v, ReduceOp::Sum)?;
                                let post_ns = comm.clock_ns() - t;
                                return Ok((
                                    pre_ns / completed.max(1) as f64,
                                    agree_ns,
                                    shrink_ns,
                                    wall_agree_ns,
                                    wall_shrink_ns,
                                    post_ns,
                                ));
                            }
                            Err(e) => return Err(e),
                        }
                    }
                })
                .expect("fault recovery universe");
                let (pre, agree, shrink, wall_agree, wall_shrink, post) = match &outcomes[0] {
                    FtOutcome::Survived(v, _) => *v,
                    FtOutcome::Killed { .. } => unreachable!("rank 0 is never the victim"),
                };
                assert!(
                    outcomes[victim].is_killed(),
                    "fault recovery {label} n={ranks}: victim survived"
                );
                rows.push(FaultRecoveryRow {
                    transport: label,
                    ranks,
                    size,
                    pre_failure_allreduce_ns: pre,
                    agree_ns: agree,
                    shrink_ns: shrink,
                    wall_agree_ns: wall_agree,
                    wall_shrink_ns: wall_shrink,
                    post_shrink_allreduce_ns: post,
                });
            }
        }
    }
    rows
}

/// One flat-vs-sparse connection-state row of the scaling sweep. The sizing
/// half uses the paper-default geometry (64 KiB cells — what a real deployment
/// formats) and is cross-checked against the `cmpi-scalesim` analytic model;
/// the measured half runs a real lazy universe with the small-cell scale
/// config (`UniverseConfig::cxl_scale`) so n=1024 stays wall-clock feasible,
/// and records the sparse-connection counters that prove per-rank state is
/// O(active peers).
struct ScalingRow {
    ranks: usize,
    hosts: usize,
    /// Pool bytes the eager `n × n` matrix demands at default geometry, or
    /// `None` when the matrix is refused (over `MAX_MATRIX_BYTES`) — the
    /// n=1024 refusal is itself a data point.
    eager_bytes: Option<u128>,
    /// Pool bytes the lazy connection state reserves at default geometry.
    lazy_bytes: u128,
    /// Analytic eager bytes (computable even past the refusal point).
    analytic_eager_bytes: u128,
    /// Worst-case queue-pairs the lazy mode can promote (`n · budget`).
    qp_capacity: u128,
    bcast_ns: f64,
    allreduce_ns: f64,
    /// Σ over ranks of dedicated queue pairs established (sender side).
    qps_established: u64,
    /// Σ over ranks of peer queue pairs opened (receiver side).
    qps_opened: u64,
    /// Σ over ranks of messages that flowed through shared receive queues.
    srq_msgs: u64,
    /// Σ over ranks of doorbell rings (sender-side notifications).
    doorbell_rings: u64,
    /// Σ over ranks of dedicated rings actually probed by polls — stays
    /// proportional to active senders, not world size.
    ring_probes: u64,
}

impl ScalingRow {
    /// Fraction of the eager matrix the universe actually established:
    /// `Σ queue-pairs / n²`. The acceptance criterion is that this stays ≪ 1
    /// at scale.
    fn qp_fill(&self) -> f64 {
        self.qps_established as f64 / (self.ranks * self.ranks) as f64
    }
}

/// Run the flat-vs-sparse scaling sweep at each `(ranks, hosts)` point: size
/// both disciplines at the paper-default geometry (asserting agreement with
/// the scalesim analytic model), then run one bcast + one allreduce on a real
/// lazy universe and harvest the sparse-connection counters.
fn scaling_rows(points: &[(usize, usize)], size: usize) -> Vec<ScalingRow> {
    let default_config = match UniverseConfig::cxl(2).transport {
        TransportConfig::CxlShm(t) => t,
        _ => unreachable!(),
    };
    let default_geometry = QueueGeometry {
        cell_payload: default_config.cell_size,
        cells: default_config.cells_per_queue,
    };
    let mut rows = Vec::new();
    for &(ranks, hosts) in points {
        eprintln!("scaling sweep n={ranks} hosts={hosts} ...");
        // Sizing at default geometry, cross-checked against the analytic model.
        let costs = ConnCosts {
            // A stream of the lazy table takes exactly a ring's bytes at the
            // default 8 cells, so one figure serves both disciplines.
            queue_bytes: default_geometry.queue_bytes() as u128,
            obj_slack: OBJ_SLACK as u128,
            doorbell_bytes: (Doorbell::required_bytes(ranks).expect("doorbell sizing") + OBJ_SLACK)
                as u128,
            srq_bytes: (srq_required_bytes(default_geometry, default_config.srq_cells)
                .expect("srq sizing")
                + OBJ_SLACK) as u128,
        };
        let analytic = ConnScalingPoint::evaluate(ranks, default_config.qp_budget, costs);
        let lazy_bytes = ConnTable::required_device_bytes(ranks, default_geometry, &default_config)
            .expect("lazy sizing") as u128;
        assert_eq!(
            analytic.lazy_bytes, lazy_bytes,
            "scalesim cross-check: lazy sizing diverges at n={ranks}"
        );
        let eager_bytes = match QueueMatrix::required_bytes(ranks, default_geometry) {
            Ok(b) => {
                assert_eq!(
                    analytic.eager_bytes, b as u128,
                    "scalesim cross-check: eager sizing diverges at n={ranks}"
                );
                Some(b as u128)
            }
            // Over MAX_MATRIX_BYTES: the flat discipline refuses this world.
            Err(_) => None,
        };
        // Measured lazy run (small cells so n=1024 is wall-clock feasible).
        let elems = (size / 8).max(1);
        let reports = cmpi_core::Universe::run(
            UniverseConfig::cxl_scale(ranks, hosts),
            move |comm: &mut Comm| {
                let mut v = vec![1.0f64; elems];
                comm.barrier()?;
                let t0 = comm.clock_ns();
                comm.bcast_into(0, &mut v)?;
                let bcast_ns = comm.clock_ns() - t0;
                let t0 = comm.clock_ns();
                comm.allreduce(&mut v, ReduceOp::Sum)?;
                Ok((bcast_ns, comm.clock_ns() - t0))
            },
        )
        .expect("scaling universe");
        let bcast_ns = reports.iter().map(|(r, _)| r.0).fold(0.0f64, f64::max);
        let allreduce_ns = reports.iter().map(|(r, _)| r.1).fold(0.0f64, f64::max);
        let sum = |f: fn(&cmpi_core::transport::TransportStats) -> u64| {
            reports.iter().map(|(_, rep)| f(&rep.stats)).sum::<u64>()
        };
        rows.push(ScalingRow {
            ranks,
            hosts,
            eager_bytes,
            lazy_bytes,
            analytic_eager_bytes: analytic.eager_bytes,
            qp_capacity: analytic.lazy_qp_capacity,
            bcast_ns,
            allreduce_ns,
            qps_established: sum(|s| s.qps_established),
            qps_opened: sum(|s| s.qps_opened),
            srq_msgs: sum(|s| s.srq_msgs),
            doorbell_rings: sum(|s| s.doorbell_rings),
            ring_probes: sum(|s| s.ring_probes),
        });
    }
    rows
}

fn smoke() -> bool {
    std::env::var("CMPI_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn transports(ranks: usize) -> Vec<(&'static str, UniverseConfig)> {
    vec![
        ("CXL-SHM", UniverseConfig::cxl(ranks)),
        (
            "TCP-Mellanox",
            UniverseConfig::tcp(ranks, TcpNic::MellanoxCx6Dx),
        ),
    ]
}

/// Ping-pong latency: virtual one-way ns for `size`-byte messages.
fn p2p_latency(config: UniverseConfig, size: usize, iters: usize) -> f64 {
    let results = cmpi_core::Universe::run(config, move |comm: &mut Comm| {
        let payload = vec![0u8; size];
        let mut buf = vec![0u8; size];
        comm.barrier()?;
        let start = comm.clock_ns();
        if comm.rank() == 0 {
            for _ in 0..iters {
                comm.send(1, 1, &payload)?;
                comm.recv(Some(1), Some(2), &mut buf)?;
            }
        } else if comm.rank() == 1 {
            for _ in 0..iters {
                comm.recv(Some(0), Some(1), &mut buf)?;
                comm.send(0, 2, &payload)?;
            }
        }
        Ok((comm.clock_ns() - start) / (2.0 * iters as f64))
    })
    .expect("latency universe");
    results[0].0
}

/// Streaming bandwidth: rank 0 sends `iters` messages of `size` bytes, rank 1
/// receives into a preallocated buffer. Returns (virtual GB/s, wall MiB/s)
/// measured at the receiver, and the sender's streamed-message count. The
/// clock starts after `warmup` untimed, individually acknowledged messages of
/// the same size (past the promotion threshold they promote a lazy pair).
fn streamed_bandwidth(
    config: UniverseConfig,
    size: usize,
    iters: usize,
    warmup: usize,
) -> (f64, f64, u64) {
    let results = cmpi_core::Universe::run(config, move |comm: &mut Comm| {
        let payload = vec![0x5au8; size];
        let mut buf = vec![0u8; size];
        for _ in 0..warmup {
            if comm.rank() == 0 {
                comm.send(1, 1, &payload)?;
                comm.recv(Some(1), Some(2), &mut [0u8; 1])?;
            } else if comm.rank() == 1 {
                comm.recv(Some(0), Some(1), &mut buf)?;
                comm.send(0, 2, &[0u8])?;
            }
        }
        comm.barrier()?;
        let vstart = comm.clock_ns();
        let wstart = Instant::now();
        if comm.rank() == 0 {
            for _ in 0..iters {
                comm.send(1, 1, &payload)?;
            }
            // Completion ack so the sender-side clock covers the full drain.
            comm.recv(Some(1), Some(2), &mut [0u8; 1])?;
        } else if comm.rank() == 1 {
            for _ in 0..iters {
                comm.recv(Some(0), Some(1), &mut buf)?;
            }
            comm.send(0, 2, &[0u8])?;
        }
        let velapsed = comm.clock_ns() - vstart;
        let welapsed = wstart.elapsed().as_secs_f64();
        Ok((velapsed, welapsed, comm.stats().rdv_msgs))
    })
    .expect("bandwidth universe");
    let bytes = (size * iters) as f64;
    // Use the receiver's times: that is where the receive path runs.
    let (velapsed, welapsed, _) = results[1].0;
    let virtual_gbps = bytes / velapsed; // bytes/ns == GB/s
    let wall_mib_s = bytes / (1024.0 * 1024.0) / welapsed;
    (virtual_gbps, wall_mib_s, results[0].0 .2)
}

/// Virtual time per collective op of `size` bytes over `iters` repetitions,
/// plus the algorithm label the collective layer reports.
fn collective_time(
    config: UniverseConfig,
    op: &'static str,
    size: usize,
    iters: usize,
) -> (f64, String, DataPlaneStats) {
    let results = cmpi_core::Universe::run(config, move |comm: &mut Comm| {
        let n = comm.size();
        let elems = (size / 8).max(1);
        let mut values = vec![1.0f64; elems];
        let send: Vec<f64> = vec![comm.rank() as f64; elems];
        let mut gathered = vec![0.0f64; n * elems];
        // reduce_scatter's input must divide by n; round the labeled size up
        // to the nearest multiple so the recorded size_bytes stays honest.
        let rs_input: Vec<f64> = vec![1.0; elems.div_ceil(n) * n];
        // alltoall's `size` is the whole per-rank buffer (n equal blocks),
        // like the other per-rank payload sizes above.
        let a2a_send: Vec<f64> = vec![comm.rank() as f64; (elems / n).max(1) * n];
        let mut a2a_recv = vec![0.0f64; a2a_send.len()];
        comm.barrier()?;
        let start = comm.clock_ns();
        for _ in 0..iters {
            match op {
                "bcast" => comm.bcast_into(0, &mut values)?,
                "allgather" => comm.allgather_into(&send, &mut gathered)?,
                "allreduce" => comm.allreduce(&mut values, ReduceOp::Sum)?,
                "reduce_scatter" => {
                    comm.reduce_scatter(&rs_input, ReduceOp::Sum)?;
                }
                "alltoall" => comm.alltoall(&a2a_send, &mut a2a_recv)?,
                _ => unreachable!("unknown op"),
            }
        }
        let elapsed = (comm.clock_ns() - start) / iters as f64;
        Ok((elapsed, comm.last_coll_algorithm().to_string()))
    })
    .expect("collective universe");
    // A collective's completion time is the slowest rank's.
    let time = results.iter().map(|(r, _)| r.0).fold(0.0f64, f64::max);
    let algo = results[0].0 .1.clone();
    let dp = results[0].1.data_plane;
    (time, algo, dp)
}

/// The ring-vs-shm data-plane sweep: the same CXL collective on a
/// communicator without a window (a zero arena) vs one with a window
/// (hierarchy off on both sides so the comparison isolates the payload
/// path). The shm side gets a pool and per-rank arena large enough that even
/// the 1 MiB payloads fit a window slot.
fn data_plane_rows(rank_counts: &[usize], sizes: &[usize], iters: usize) -> Vec<DataPlaneRow> {
    let ring_tuning = CollTuning {
        hierarchy: HierarchyMode::Off,
        shm_arena_bytes: 0,
    };
    let shm_tuning = CollTuning {
        hierarchy: HierarchyMode::Off,
        // 8 MiB per rank → 2 MiB slots: headroom for the 1 MiB payloads
        // (allreduce needs the vector plus one reduced block per slot).
        shm_arena_bytes: 8 * 1024 * 1024,
    };
    let mut rows = Vec::new();
    for &ranks in rank_counts {
        let ring_config = UniverseConfig::cxl(ranks).with_coll_tuning(ring_tuning);
        let mut shm_config = UniverseConfig::cxl(ranks).with_coll_tuning(shm_tuning);
        if let TransportConfig::CxlShm(ref mut t) = shm_config.transport {
            t.window_headroom = 160 * 1024 * 1024;
        }
        for op in ["bcast", "allreduce", "allgather"] {
            for &size in sizes {
                eprintln!("data plane {op} n={ranks} {size} B ...");
                let (ring_ns, ring_algorithm, _) =
                    collective_time(ring_config.clone(), op, size, iters);
                let (shm_ns, shm_algorithm, shm_stats) =
                    collective_time(shm_config.clone(), op, size, iters);
                rows.push(DataPlaneRow {
                    op,
                    ranks,
                    size,
                    ring_ns,
                    ring_algorithm,
                    shm_ns,
                    shm_algorithm,
                    shm_stats,
                });
            }
        }
    }
    rows
}

/// One row of the size-adaptive alltoall sweep: the same complete exchange
/// pinned to the single-copy shm data plane, and under the Auto selection.
struct AlltoallRow {
    ranks: usize,
    /// Whole per-rank buffer, bytes (n equal blocks of `size / ranks`).
    size: usize,
    shm_ns: f64,
    shm_algorithm: String,
    auto_ns: f64,
    auto_algorithm: String,
}

/// The shm-vs-Auto alltoall sweep on the CXL transport.
fn alltoall_rows(rank_counts: &[usize], sizes: &[usize], iters: usize) -> Vec<AlltoallRow> {
    let shm_tuning = CollTuning {
        hierarchy: HierarchyMode::Off,
        // 8 MiB per rank → 2 MiB slots: the whole 1 MiB exchange image fits.
        shm_arena_bytes: 8 * 1024 * 1024,
    };
    let mut rows = Vec::new();
    for &ranks in rank_counts {
        let mut shm_config = UniverseConfig::cxl(ranks).with_coll_tuning(shm_tuning);
        if let TransportConfig::CxlShm(ref mut t) = shm_config.transport {
            t.window_headroom = 160 * 1024 * 1024;
        }
        let mut auto_config = UniverseConfig::cxl(ranks);
        auto_config.coll.shm_arena_bytes = 8 * 1024 * 1024;
        if let TransportConfig::CxlShm(ref mut t) = auto_config.transport {
            t.window_headroom = 160 * 1024 * 1024;
        }
        for &size in sizes {
            eprintln!("alltoall sweep n={ranks} {size} B ...");
            let (shm_ns, shm_algorithm, _) =
                collective_time(shm_config.clone(), "alltoall", size, iters);
            let (auto_ns, auto_algorithm, _) =
                collective_time(auto_config.clone(), "alltoall", size, iters);
            rows.push(AlltoallRow {
                ranks,
                size,
                shm_ns,
                shm_algorithm,
                auto_ns,
                auto_algorithm,
            });
        }
    }
    rows
}

/// One row of the shuffle-workload sweep: the end-to-end scenario proxies
/// (distributed sample sort, k-means/MKKM alternating iteration) whose
/// communication the alltoall family serves.
struct ShuffleRow {
    workload: &'static str,
    transport: &'static str,
    ranks: usize,
    elems_per_rank: usize,
    shuffled_bytes: u64,
    time_us: f64,
    alltoall_algorithm: &'static str,
}

/// The sample-sort and k-means proxy workloads over both transports.
fn shuffle_rows(rank_counts: &[usize], elems: usize) -> Vec<ShuffleRow> {
    let mut rows = Vec::new();
    for &ranks in rank_counts {
        for (label, config) in transports(ranks) {
            eprintln!("shuffle sample_sort {label} n={ranks} {elems} keys/rank ...");
            let p = cmpi_omb::sample_sort_proxy(config.clone(), elems).expect("sample sort");
            rows.push(ShuffleRow {
                workload: "sample_sort",
                transport: label,
                ranks,
                elems_per_rank: p.elems_per_rank,
                shuffled_bytes: p.shuffled_bytes,
                time_us: p.time_us,
                alltoall_algorithm: p.alltoall_algo,
            });
            let points = (elems / 8).max(16);
            eprintln!("shuffle kmeans {label} n={ranks} {points} points/rank ...");
            let p = cmpi_omb::kmeans_proxy(config, points, 8, 3).expect("kmeans");
            rows.push(ShuffleRow {
                workload: "kmeans",
                transport: label,
                ranks,
                elems_per_rank: p.elems_per_rank,
                shuffled_bytes: p.shuffled_bytes,
                time_us: p.time_us,
                alltoall_algorithm: p.alltoall_algo,
            });
        }
    }
    rows
}

/// Pure-software microbenchmark: build a collective plan from scratch vs
/// bind the already-built plan to a fresh execution (the cache-hit /
/// persistent-start path). No universe, no transport — this isolates exactly
/// the per-call overhead the plan cache removes.
fn plan_build_rows(iters: usize) -> Vec<PlanBuildRow> {
    let tuning = CollTuning::default();
    let mut rows = Vec::new();
    for ranks in [4usize, 16, 64] {
        let group = Group::world(ranks);
        let view = CommView {
            group: &group,
            ctx: 0,
            rank: 0,
        };
        for size in [8usize, 1024, 65536] {
            let elems = (size / 8).max(1);
            for op in ["allreduce", "bcast"] {
                eprintln!("plan build {op} n={ranks} {size} B ...");
                let build = || match op {
                    "allreduce" => {
                        build_allreduce::<f64>(&view, &tuning, None, None, elems, ReduceOp::Sum)
                    }
                    "bcast" => build_bcast(&view, &tuning, None, None, 0, size),
                    _ => unreachable!(),
                };
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(build());
                }
                let build_ns = start.elapsed().as_nanos() as f64 / iters as f64;
                let plan = Arc::new(build());
                let start = Instant::now();
                for i in 0..iters {
                    std::hint::black_box(Execution::new(Arc::clone(&plan), i as u32));
                }
                let bind_ns = start.elapsed().as_nanos() as f64 / iters as f64;
                rows.push(PlanBuildRow {
                    op,
                    ranks,
                    size,
                    build_ns,
                    bind_ns,
                });
            }
        }
    }
    rows
}

/// How [`repeated_collective`] starts each iteration's collective.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StartPath {
    /// A one-shot start that must plan: the communicator's cached plans are
    /// dropped before every start (outside the timed section).
    Cold,
    /// A one-shot start served by the plan cache.
    Cached,
    /// `Comm::start` of one persistent request.
    Persistent,
}

/// Run `iters` repeated collectives under one start path and measure, on
/// rank 0, the wall ns spent *inside the start call* per iteration — the
/// nonblocking starter (`iallreduce`/`ibcast_into`) for one-shot modes, or
/// `Comm::start` for the persistent mode. Completion (`wait`) happens outside
/// the timed section, so multi-rank spin-wait jitter never pollutes the
/// figure: what remains is planning + binding + accounting, exactly the
/// software overhead the plan layer amortizes. Returns
/// (start ns/call, total wall ns/call, virtual ns/call).
fn repeated_collective(
    config: UniverseConfig,
    op: &'static str,
    size: usize,
    iters: usize,
    path: StartPath,
) -> (f64, f64, f64) {
    let results = cmpi_core::Universe::run(config, move |comm: &mut Comm| {
        let elems = (size / 8).max(1);
        let values = vec![1.0f64; elems];
        comm.barrier()?;
        let vstart = comm.clock_ns();
        let wstart = Instant::now();
        let mut start_ns = 0u128;
        if path == StartPath::Persistent {
            let mut req = match op {
                "allreduce" => comm.allreduce_init(&values, ReduceOp::Sum)?,
                "bcast" => comm.bcast_init(0, &values)?,
                _ => unreachable!(),
            };
            for _ in 0..iters {
                let t = Instant::now();
                comm.start(&mut req)?;
                start_ns += t.elapsed().as_nanos();
                comm.wait(&mut req)?;
            }
            req.release()?;
        } else {
            for _ in 0..iters {
                if path == StartPath::Cold {
                    comm.invalidate_plans();
                }
                let t = Instant::now();
                let mut req = match op {
                    "allreduce" => comm.iallreduce(&values, ReduceOp::Sum)?,
                    "bcast" => comm.ibcast_into(0, &values)?,
                    _ => unreachable!(),
                };
                start_ns += t.elapsed().as_nanos();
                comm.wait(&mut req)?;
                req.release()?;
            }
        }
        let wall = wstart.elapsed().as_nanos() as f64 / iters as f64;
        let virt = (comm.clock_ns() - vstart) / iters as f64;
        Ok((start_ns as f64 / iters as f64, wall, virt))
    })
    .expect("persistent sweep universe");
    results[0].0
}

/// The persistent sweep: repeated small/medium collectives, one row per
/// (op, transport, size) comparing the three start paths.
fn persistent_rows(sizes: &[usize], ranks: usize, iters: usize) -> Vec<PersistentRow> {
    let mut rows = Vec::new();
    for (label, config) in transports(ranks) {
        for &size in sizes {
            eprintln!("persistent sweep {label} {size} B ...");
            for op in ["allreduce", "bcast"] {
                let run = |path| repeated_collective(config.clone(), op, size, iters, path);
                let (cold, _, virt) = run(StartPath::Cold);
                let (cached, total_wall, _) = run(StartPath::Cached);
                let (persistent, _, _) = run(StartPath::Persistent);
                rows.push(PersistentRow {
                    op,
                    transport: label,
                    ranks,
                    size,
                    virtual_ns: virt,
                    total_wall_ns: total_wall,
                    one_shot_cold_start_ns: cold,
                    one_shot_cached_start_ns: cached,
                    persistent_start_ns: persistent,
                });
            }
        }
    }
    rows
}

fn main() {
    let (lat_sizes, bw_size, bw_iters, coll_sizes, rank_counts, iters) = if smoke() {
        (vec![8usize], 64 * 1024, 4, vec![1024usize], vec![2usize], 2)
    } else {
        (
            vec![8usize, 4096],
            4 * 1024 * 1024,
            32,
            vec![1024usize, 64 * 1024, 1024 * 1024],
            vec![4usize, 6],
            4,
        )
    };

    let mut p2p_rows: Vec<P2pRow> = Vec::new();
    for (label, config) in transports(2) {
        for &size in &lat_sizes {
            eprintln!("p2p latency {label} {size} B ...");
            let latency = p2p_latency(config.clone(), size, iters.max(4) * 8);
            p2p_rows.push(P2pRow {
                transport: label,
                size,
                latency_ns: latency,
                bandwidth_gbps: 0.0,
                wall_bandwidth_mib_s: 0.0,
            });
        }
        eprintln!("p2p bandwidth {label} {bw_size} B ...");
        let (gbps, wall, _) = streamed_bandwidth(config, bw_size, bw_iters, 0);
        p2p_rows.push(P2pRow {
            transport: label,
            size: bw_size,
            latency_ns: 0.0,
            bandwidth_gbps: gbps,
            wall_bandwidth_mib_s: wall,
        });
    }

    // Chunked cells vs a promoted pair's stream on the same one-way transfer.
    let rdv_sizes: Vec<usize> = if smoke() {
        vec![128 * 1024]
    } else {
        (0..6).map(|i| (128 * 1024) << i).collect()
    };
    let mut rdv_rows: Vec<RendezvousRow> = Vec::new();
    for &size in &rdv_sizes {
        for (path, config) in [
            (
                "eager-chunked",
                UniverseConfig::cxl(2).with_conn_mode(ConnMode::Eager),
            ),
            ("lazy-stream", UniverseConfig::cxl(2)),
        ] {
            eprintln!("rendezvous {path} {size} B ...");
            let iters = (bw_iters * bw_size / size).clamp(4, 64);
            let (gbps, wall, rdv_msgs) = streamed_bandwidth(config, size, iters, 6);
            rdv_rows.push(RendezvousRow {
                path,
                size,
                bandwidth_gbps: gbps,
                wall_bandwidth_mib_s: wall,
                rdv_msgs,
            });
        }
    }

    let mut coll_rows: Vec<CollRow> = Vec::new();
    for &ranks in &rank_counts {
        for (label, config) in transports(ranks) {
            for op in [
                "bcast",
                "allgather",
                "allreduce",
                "reduce_scatter",
                "alltoall",
            ] {
                for &size in &coll_sizes {
                    eprintln!("collective {op} {label} n={ranks} {size} B ...");
                    let (time_ns, algorithm, _) = collective_time(config.clone(), op, size, iters);
                    coll_rows.push(CollRow {
                        op,
                        transport: label,
                        ranks,
                        size,
                        time_ns,
                        algorithm,
                    });
                }
            }
        }
    }

    // Flat vs hierarchical collectives across host layouts: same op, same
    // payload, hierarchy forced off ("flat") vs forced on ("hier"). The
    // two_hosts rows at 1 MiB are the acceptance surface: the hierarchical
    // composition must beat the flat algorithm on the 2-host × 4-ranks-per-host
    // layout.
    // Neither side has a window: this sweep isolates the flat-vs-
    // hierarchical *composition*; the ring-vs-shm payload path has its own
    // sweep below.
    let flat_tuning = CollTuning {
        hierarchy: HierarchyMode::Off,
        shm_arena_bytes: 0,
    };
    let hier_tuning = CollTuning {
        hierarchy: HierarchyMode::Force,
        shm_arena_bytes: 0,
    };
    // (name, ranks, hosts, placement, also-on-tcp)
    let layouts: Vec<(&'static str, usize, usize, HostPlacement, bool)> = if smoke() {
        vec![("two_hosts", 4, 2, HostPlacement::Blocked, false)]
    } else {
        vec![
            ("two_hosts", 8, 2, HostPlacement::Blocked, true),
            ("blocked_3x2", 6, 3, HostPlacement::Blocked, false),
            ("round_robin", 8, 2, HostPlacement::RoundRobin, false),
        ]
    };
    let hier_sizes: Vec<usize> = if smoke() {
        vec![64 * 1024]
    } else {
        vec![64 * 1024, 1024 * 1024]
    };
    let mut hier_rows: Vec<HierRow> = Vec::new();
    for &(layout, ranks, hosts, ref placement, on_tcp) in &layouts {
        for (tlabel, config) in transports(ranks) {
            if tlabel != "CXL-SHM" && !on_tcp {
                continue;
            }
            let config = config.with_hosts(hosts).with_placement(placement.clone());
            for op in ["bcast", "allreduce", "allgather"] {
                for &size in &hier_sizes {
                    eprintln!("hier sweep {op} {tlabel} {layout} n={ranks} {size} B ...");
                    let (flat_ns, flat_algorithm, _) = collective_time(
                        config.clone().with_coll_tuning(flat_tuning),
                        op,
                        size,
                        iters,
                    );
                    let (hier_ns, hier_algorithm, _) = collective_time(
                        config.clone().with_coll_tuning(hier_tuning),
                        op,
                        size,
                        iters,
                    );
                    hier_rows.push(HierRow {
                        op,
                        transport: tlabel,
                        layout,
                        ranks,
                        hosts,
                        size,
                        flat_ns,
                        flat_algorithm,
                        hier_ns,
                        hier_algorithm,
                    });
                }
            }
        }
    }

    // Ring vs shared-window data plane on CXL: same op, same payload,
    // hierarchy off, only the payload path differs. The 1 MiB bcast and
    // allreduce rows are the acceptance surface for the data-plane subsystem
    // (≥2× over the ring path); the 8 B rows show the latency floor drop.
    let (dp_ranks, dp_sizes): (Vec<usize>, Vec<usize>) = if smoke() {
        (vec![2], vec![8, 1024])
    } else {
        (vec![4, 6], vec![8, 1024, 65536, 1024 * 1024])
    };
    let dp_rows = data_plane_rows(&dp_ranks, &dp_sizes, iters);

    // The alltoall sweep (single-copy shm vs Auto) and the end-to-end
    // shuffle workloads built on it.
    let (a2a_ranks, a2a_sizes): (Vec<usize>, Vec<usize>) = if smoke() {
        (vec![2], vec![64, 4096])
    } else {
        (
            vec![4, 6, 8],
            vec![8, 256, 4096, 65536, 262_144, 1024 * 1024],
        )
    };
    let a2a_rows = alltoall_rows(&a2a_ranks, &a2a_sizes, iters);
    let (shuffle_ranks, shuffle_elems): (Vec<usize>, usize) = if smoke() {
        (vec![2], 128)
    } else {
        (vec![4, 8], 4096)
    };
    let shf_rows = shuffle_rows(&shuffle_ranks, shuffle_elems);

    // Nonblocking-collective overlap: progress serviced during user compute.
    let overlap_ranks: Vec<usize> = if smoke() { vec![2] } else { vec![4, 6] };
    let overlap_sizes: Vec<usize> = if smoke() {
        vec![1024]
    } else {
        vec![8 * 1024, 256 * 1024]
    };
    let mut overlap_rows: Vec<OverlapRow> = Vec::new();
    for &ranks in &overlap_ranks {
        for (label, config) in transports(ranks) {
            for mode in [ProgressMode::Polling, ProgressMode::Thread] {
                for &size in &overlap_sizes {
                    eprintln!(
                        "overlap iallreduce {label}/{} n={ranks} {size} B ...",
                        mode.label()
                    );
                    // Overlap is only achievable when compute covers the
                    // collective's own latency (the OSU convention sizes
                    // compute to the operation): scale the injected compute
                    // with the payload, 100 us per 8 KiB. The per-row
                    // `compute_ns` field records what each point used.
                    let compute_ns = 100_000.0 * (size as f64 / 8192.0).max(1.0);
                    let point = nonblocking_allreduce_overlap(
                        config.clone().with_progress_mode(mode),
                        size / 8,
                        compute_ns,
                    )
                    .expect("overlap universe");
                    overlap_rows.push(OverlapRow {
                        transport: label,
                        mode: mode.label(),
                        ranks,
                        size: point.size,
                        compute_ns: point.compute_ns,
                        total_ns: point.total_ns,
                        ops_during_compute: point.ops_during_compute,
                        overlap_fraction: point.overlap_fraction,
                    });
                }
            }
        }
    }

    // The RPC-storm serving sweep (wall-clock): K submitter threads per rank
    // on dup'd communicators, closed-loop with client think time (the
    // serving model — submitter scaling shows concurrency headroom) plus a
    // think=0 saturation pair (the ceiling of one core's schedule work).
    let (storm_ranks, storm_quota, storm_ks, storm_thinks): (usize, usize, Vec<usize>, Vec<u64>) =
        if smoke() {
            (2, 32, vec![1, 2], vec![0])
        } else {
            (4, 256, vec![1, 2, 4, 8], vec![50, 0])
        };
    let mut rpc_rows: Vec<RpcRow> = Vec::new();
    for &think_us in &storm_thinks {
        for mode in [ProgressMode::Polling, ProgressMode::Thread] {
            for &k in &storm_ks {
                if think_us == 0 && !smoke() && k != 1 && k != 8 {
                    continue; // saturation mode: endpoints only
                }
                eprintln!(
                    "rpc storm {} n={storm_ranks} K={k} think={think_us}us ...",
                    mode.label()
                );
                let p = rpc_storm(
                    UniverseConfig::cxl(storm_ranks).with_progress_mode(mode),
                    k,
                    1,
                    4,
                    storm_quota,
                    think_us,
                )
                .expect("rpc storm universe");
                rpc_rows.push(RpcRow {
                    mode: mode.label(),
                    ranks: storm_ranks,
                    submitters: p.submitters,
                    inflight: p.inflight,
                    size: p.size,
                    think_us: p.think_us,
                    ops: p.ops,
                    wall_ms: p.wall_ms,
                    ops_per_sec: p.ops_per_sec,
                    p50_us: p.p50_us,
                    p99_us: p.p99_us,
                    p999_us: p.p999_us,
                });
            }
        }
    }

    // Plan-build-vs-bind microbenchmark plus the repeated-collective sweep
    // (one-shot cold / one-shot cached / persistent).
    let build_iters = if smoke() { 200 } else { 20_000 };
    let plan_rows = plan_build_rows(build_iters);
    let (pers_sizes, pers_iters): (Vec<usize>, usize) = if smoke() {
        (vec![8], 50)
    } else {
        (vec![8, 1024, 65536], 3000)
    };
    let pers_rows = persistent_rows(&pers_sizes, if smoke() { 2 } else { 4 }, pers_iters);

    // The fault-recovery sweep: virtual cost of agree + shrink + first
    // post-shrink collective after an injected mid-allreduce death.
    let (fr_ranks, fr_sizes): (Vec<usize>, Vec<usize>) = if smoke() {
        (vec![3], vec![1024])
    } else {
        (vec![4, 6], vec![1024, 65536])
    };
    let fr_rows = fault_recovery_rows(&fr_ranks, &fr_sizes);

    // The flat-vs-sparse connection-state scaling sweep: n=8 through n=1024
    // across 2–64 hosts, sized at the paper geometry and measured on real
    // lazy universes.
    let scale_points: Vec<(usize, usize)> = if smoke() {
        vec![(4, 2)]
    } else {
        vec![(8, 2), (64, 8), (256, 32), (1024, 64)]
    };
    let scale_rows = scaling_rows(&scale_points, 1024);

    let json = render_json(
        &p2p_rows,
        &rdv_rows,
        &coll_rows,
        &hier_rows,
        &dp_rows,
        &a2a_rows,
        &shf_rows,
        &overlap_rows,
        &rpc_rows,
        &plan_rows,
        &pers_rows,
        &fr_rows,
        &scale_rows,
    );
    let out = std::env::var("CMPI_BENCH_OUT").unwrap_or_else(|_| "BENCH_collectives.json".into());
    std::fs::write(&out, &json).expect("write BENCH json");
    eprintln!("wrote {out}");
    println!("{json}");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    p2p: &[P2pRow],
    rendezvous: &[RendezvousRow],
    colls: &[CollRow],
    hier: &[HierRow],
    data_plane: &[DataPlaneRow],
    alltoall: &[AlltoallRow],
    shuffles: &[ShuffleRow],
    overlaps: &[OverlapRow],
    rpc: &[RpcRow],
    plan_builds: &[PlanBuildRow],
    persistents: &[PersistentRow],
    fault_recovery: &[FaultRecoveryRow],
    scaling: &[ScalingRow],
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"cmpi-bench-collectives-v10\",\n");
    s.push_str("  \"smoke\": ");
    s.push_str(if smoke() { "true" } else { "false" });
    // RPC-storm numbers are wall-clock: record the host parallelism they
    // were taken under (a 1-CPU host caps saturation-mode scaling at 1×).
    let _ = write!(
        s,
        ",\n  \"host_logical_cpus\": {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    s.push_str(",\n  \"baseline_pre_pr\": ");
    s.push_str(BASELINE_PRE_PR.trim_end());
    s.push_str(",\n  \"p2p\": [\n");
    for (i, r) in p2p.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"transport\": \"{}\", \"size_bytes\": {}, \"latency_ns\": {:.1}, \"bandwidth_gbps\": {:.3}, \"wall_bandwidth_mib_s\": {:.1}}}{}",
            r.transport,
            r.size,
            r.latency_ns,
            r.bandwidth_gbps,
            r.wall_bandwidth_mib_s,
            if i + 1 < p2p.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"rendezvous\": [\n");
    for (i, r) in rendezvous.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"path\": \"{}\", \"size_bytes\": {}, \"bandwidth_gbps\": {:.3}, \"wall_bandwidth_mib_s\": {:.1}, \"rdv_msgs\": {}}}{}",
            r.path,
            r.size,
            r.bandwidth_gbps,
            r.wall_bandwidth_mib_s,
            r.rdv_msgs,
            if i + 1 < rendezvous.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"overlap\": [\n");
    for (i, r) in overlaps.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"op\": \"iallreduce_overlap\", \"transport\": \"{}\", \"progress_mode\": \"{}\", \"ranks\": {}, \"size_bytes\": {}, \"compute_ns\": {:.1}, \"total_ns\": {:.1}, \"ops_during_compute\": {}, \"overlap_fraction\": {:.3}}}{}",
            r.transport,
            r.mode,
            r.ranks,
            r.size,
            r.compute_ns,
            r.total_ns,
            r.ops_during_compute,
            r.overlap_fraction,
            if i + 1 < overlaps.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"rpc_storm\": [\n");
    for (i, r) in rpc.iter().enumerate() {
        // Submitter-scaling speedup relative to the K=1 row of the same
        // (mode, think_us) series.
        let base = rpc
            .iter()
            .find(|b| b.mode == r.mode && b.think_us == r.think_us && b.submitters == 1)
            .map_or(0.0, |b| b.ops_per_sec);
        let speedup = if base > 0.0 {
            r.ops_per_sec / base
        } else {
            0.0
        };
        // Analytic cross-check: the scalesim closed-loop model, calibrated
        // from the series' own K=1 and fastest points, predicts the speedup
        // curve shape (linear in client count until the serial progress-path
        // ceiling, then flat).
        let sat = rpc
            .iter()
            .filter(|b| b.mode == r.mode && b.think_us == r.think_us)
            .map(|b| b.ops_per_sec)
            .fold(0.0f64, f64::max);
        let model_speedup = if base > 0.0 && sat > 0.0 {
            RpcStormModel::from_calibration(r.ranks, base, sat)
                .speedup(r.ranks, r.ranks * r.submitters)
        } else {
            0.0
        };
        let _ = writeln!(
            s,
            "    {{\"progress_mode\": \"{}\", \"ranks\": {}, \"submitters\": {}, \"inflight\": {}, \"size_bytes\": {}, \"think_us\": {}, \"ops\": {}, \"wall_ms\": {:.1}, \"ops_per_sec\": {:.0}, \"speedup_vs_1\": {:.2}, \"model_speedup_vs_1\": {:.2}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}}}{}",
            r.mode,
            r.ranks,
            r.submitters,
            r.inflight,
            r.size,
            r.think_us,
            r.ops,
            r.wall_ms,
            r.ops_per_sec,
            speedup,
            model_speedup,
            r.p50_us,
            r.p99_us,
            r.p999_us,
            if i + 1 < rpc.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"collectives\": [\n");
    for (i, r) in colls.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"op\": \"{}\", \"transport\": \"{}\", \"ranks\": {}, \"size_bytes\": {}, \"time_ns\": {:.1}, \"algorithm\": \"{}\"}}{}",
            r.op,
            r.transport,
            r.ranks,
            r.size,
            r.time_ns,
            r.algorithm,
            if i + 1 < colls.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"hierarchy\": [\n");
    for (i, r) in hier.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"op\": \"{}\", \"transport\": \"{}\", \"layout\": \"{}\", \"ranks\": {}, \"hosts\": {}, \"size_bytes\": {}, \"flat_ns\": {:.1}, \"flat_algorithm\": \"{}\", \"hier_ns\": {:.1}, \"hier_algorithm\": \"{}\", \"hier_speedup\": {:.3}}}{}",
            r.op,
            r.transport,
            r.layout,
            r.ranks,
            r.hosts,
            r.size,
            r.flat_ns,
            r.flat_algorithm,
            r.hier_ns,
            r.hier_algorithm,
            r.speedup(),
            if i + 1 < hier.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"data_plane\": [\n");
    for (i, r) in data_plane.iter().enumerate() {
        let st = &r.shm_stats;
        let _ = writeln!(
            s,
            "    {{\"op\": \"{}\", \"transport\": \"CXL-SHM\", \"ranks\": {}, \"size_bytes\": {}, \"ring_ns\": {:.1}, \"ring_algorithm\": \"{}\", \"shm_ns\": {:.1}, \"shm_algorithm\": \"{}\", \"shm_speedup\": {:.3}, \"window_setups\": {}, \"shm_colls\": {}, \"ring_fallback_colls\": {}, \"shm_bytes\": {}, \"bytes_pulled\": {}}}{}",
            r.op,
            r.ranks,
            r.size,
            r.ring_ns,
            r.ring_algorithm,
            r.shm_ns,
            r.shm_algorithm,
            r.speedup(),
            st.window_setups,
            st.shm_colls,
            st.ring_colls,
            st.shm_bytes,
            st.bytes_pulled,
            if i + 1 < data_plane.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"alltoall\": [\n");
    for (i, r) in alltoall.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"transport\": \"CXL-SHM\", \"ranks\": {}, \"size_bytes\": {}, \"shm_ns\": {:.1}, \"shm_algorithm\": \"{}\", \"auto_ns\": {:.1}, \"auto_algorithm\": \"{}\"}}{}",
            r.ranks,
            r.size,
            r.shm_ns,
            r.shm_algorithm,
            r.auto_ns,
            r.auto_algorithm,
            if i + 1 < alltoall.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"shuffle_workloads\": [\n");
    for (i, r) in shuffles.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"workload\": \"{}\", \"transport\": \"{}\", \"ranks\": {}, \"elems_per_rank\": {}, \"shuffled_bytes\": {}, \"time_us\": {:.1}, \"alltoall_algorithm\": \"{}\"}}{}",
            r.workload,
            r.transport,
            r.ranks,
            r.elems_per_rank,
            r.shuffled_bytes,
            r.time_us,
            r.alltoall_algorithm,
            if i + 1 < shuffles.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"plan_build\": [\n");
    for (i, r) in plan_builds.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"op\": \"{}\", \"ranks\": {}, \"size_bytes\": {}, \"build_ns\": {:.1}, \"bind_ns\": {:.1}, \"build_over_bind\": {:.1}}}{}",
            r.op,
            r.ranks,
            r.size,
            r.build_ns,
            r.bind_ns,
            if r.bind_ns > 0.0 { r.build_ns / r.bind_ns } else { 0.0 },
            if i + 1 < plan_builds.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"persistent\": [\n");
    for (i, r) in persistents.iter().enumerate() {
        let saved_cached = r.one_shot_cold_start_ns - r.one_shot_cached_start_ns;
        let saved_persistent = r.one_shot_cold_start_ns - r.persistent_start_ns;
        let _ = writeln!(
            s,
            "    {{\"op\": \"{}\", \"transport\": \"{}\", \"ranks\": {}, \"size_bytes\": {}, \"virtual_ns\": {:.1}, \"total_wall_ns\": {:.1}, \"one_shot_cold_start_ns\": {:.1}, \"one_shot_cached_start_ns\": {:.1}, \"persistent_start_ns\": {:.1}, \"cached_saving_ns\": {:.1}, \"persistent_saving_ns\": {:.1}}}{}",
            r.op,
            r.transport,
            r.ranks,
            r.size,
            r.virtual_ns,
            r.total_wall_ns,
            r.one_shot_cold_start_ns,
            r.one_shot_cached_start_ns,
            r.persistent_start_ns,
            saved_cached,
            saved_persistent,
            if i + 1 < persistents.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"fault_recovery\": [\n");
    for (i, r) in fault_recovery.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"transport\": \"{}\", \"ranks\": {}, \"size_bytes\": {}, \"pre_failure_allreduce_ns\": {:.1}, \"agree_ns\": {:.1}, \"shrink_ns\": {:.1}, \"wall_agree_ns\": {:.1}, \"wall_shrink_ns\": {:.1}, \"post_shrink_allreduce_ns\": {:.1}, \"wall_recovery_total_ns\": {:.1}}}{}",
            r.transport,
            r.ranks,
            r.size,
            r.pre_failure_allreduce_ns,
            r.agree_ns,
            r.shrink_ns,
            r.wall_agree_ns,
            r.wall_shrink_ns,
            r.post_shrink_allreduce_ns,
            r.wall_agree_ns + r.wall_shrink_ns,
            if i + 1 < fault_recovery.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"scaling\": [\n");
    for (i, r) in scaling.iter().enumerate() {
        let eager = match r.eager_bytes {
            Some(b) => b.to_string(),
            None => "null".into(),
        };
        let _ = writeln!(
            s,
            "    {{\"ranks\": {}, \"hosts\": {}, \"eager_bytes\": {}, \"eager_refused\": {}, \"lazy_bytes\": {}, \"analytic_eager_bytes\": {}, \"eager_over_lazy\": {:.1}, \"qp_capacity\": {}, \"bcast_ns\": {:.1}, \"allreduce_ns\": {:.1}, \"qps_established\": {}, \"qps_opened\": {}, \"srq_msgs\": {}, \"doorbell_rings\": {}, \"ring_probes\": {}, \"qp_fill\": {:.6}}}{}",
            r.ranks,
            r.hosts,
            eager,
            r.eager_bytes.is_none(),
            r.lazy_bytes,
            r.analytic_eager_bytes,
            r.analytic_eager_bytes as f64 / r.lazy_bytes as f64,
            r.qp_capacity,
            r.bcast_ns,
            r.allreduce_ns,
            r.qps_established,
            r.qps_opened,
            r.srq_msgs,
            r.doorbell_rings,
            r.ring_probes,
            r.qp_fill(),
            if i + 1 < scaling.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Pre-PR numbers measured with this same harness on the PR 1 tree (before
/// the allocation-free receive path, relaxed-ordering data path and adaptive
/// collectives), recorded so the checked-in JSON shows the improvement.
/// Median of three sequential runs on the CI-class builder; `wall_*` values
/// are the machine-dependent ones the hot-path rework targets.
const BASELINE_PRE_PR: &str = r#"{
    "recorded": true,
    "p2p": [
      {"transport": "CXL-SHM", "size_bytes": 8, "latency_ns": 8113.7, "bandwidth_gbps": 0.0, "wall_bandwidth_mib_s": 0.0},
      {"transport": "CXL-SHM", "size_bytes": 4194304, "latency_ns": 0.0, "bandwidth_gbps": 1.654, "wall_bandwidth_mib_s": 190.6},
      {"transport": "TCP-Mellanox", "size_bytes": 8, "latency_ns": 55601.5, "bandwidth_gbps": 0.0, "wall_bandwidth_mib_s": 0.0},
      {"transport": "TCP-Mellanox", "size_bytes": 4194304, "latency_ns": 0.0, "bandwidth_gbps": 6.436, "wall_bandwidth_mib_s": 1855.4}
    ]
  }"#;
