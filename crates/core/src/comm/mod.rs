//! Communicators: the per-rank handle for point-to-point, one-sided and
//! collective communication.
//!
//! This file holds the handle itself, the per-rank state its handles share,
//! and communicator construction; the operations are one file per concern:
//! `p2p` (two-sided communication and request completion), `collectives`
//! (the 13 collectives, each in its blocking, `i*` and persistent form), `ft`
//! (the error handler and ULFM-style recovery) and `rma` (windows).
//!
//! A [`Comm`] pairs a rank [`Group`] with a **context id**. The group defines
//! the communicator's rank space (local rank `i` ↔ some world rank); the
//! context id is woven into the transport tag encoding so that traffic on one
//! communicator can never match receives posted on another. New communicators
//! are created collectively:
//!
//! * [`Comm::comm_dup`] — same group, fresh context id (the MPI idiom for
//!   giving a library its own isolated tag space);
//! * [`Comm::comm_split`] — partition by `color`, order by `key`, producing
//!   one sub-communicator per color (row/column communicators in stencils,
//!   per-node communicators, ...).
//!
//! Context ids are agreed upon with a max-allreduce of each member's next free
//! id over the parent communicator (the MPICH algorithm): any two
//! communicators that share a member therefore get distinct ids, and
//! disjoint-membership communicators may share an id safely because matching
//! also keys on the (world) source and destination ranks.
//!
//! All communicator handles of one rank share the rank's single transport
//! endpoint and virtual clock through an `Arc<RankShared>`. The transport +
//! clock pair sits behind one short-hold mutex (the **io lock**), while the
//! per-communicator progress state — collective sequence numbers, plan cache,
//! collective counters, error handler — is sharded into a per-communicator
//! `CommShard` with its own lock, so threads submitting on *different*
//! communicators of the same rank (MPI_THREAD_MULTIPLE style) never serialize
//! on a rank-global lock for their bookkeeping. Blocking waits take the io
//! lock once per progress *attempt*, never across a rendezvous, so two
//! threads blocked on different communicators cannot deadlock the rank.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard};

use cmpi_fabric::SimClock;

use crate::coll::{self, CommView};
use crate::config::{CollTuning, ProgressMode};
use crate::counters::RankCounters;
use crate::engine::ProgressEngine;
use crate::error::MpiError;
use crate::group::Group;
use crate::plan::{PlanCache, PlanCacheStats, PlanOp};
use crate::pod::bytes_of_mut;
use crate::progress::{CollPlan, ProgressStats};
use crate::spin::{PoisonFlag, WaitStats};
use crate::topology::{HostHierarchy, HostTopology};
use crate::transport::{CompletionStats, DataPlaneStats, Transport, TransportStats};
use crate::types::{CtxId, Rank, ReduceOp, Status, RETIRED_CTX, WORLD_CTX};
use crate::Result;

mod collectives;
use collectives::Spec;
mod ft;
mod p2p;
mod rma;

pub use ft::ErrHandler;

/// Grouping criteria accepted by [`Comm::split_type`] (the `MPI_Comm_split_type`
/// equivalent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitType {
    /// One sub-communicator per host, members ordered by their rank in the
    /// parent (the `MPI_COMM_TYPE_SHARED` idiom: every member of the result
    /// shares a hardware-coherent cache).
    Host,
}

/// Collective-operation counters for one communicator of one rank, surfaced in
/// [`crate::runtime::RankReport::comm_colls`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CommCollStats {
    /// Context id of the communicator.
    pub ctx: CtxId,
    /// Size of the communicator's group.
    pub comm_size: usize,
    /// Barriers entered.
    pub barriers: u64,
    /// Broadcasts (byte or typed).
    pub bcasts: u64,
    /// Gathers.
    pub gathers: u64,
    /// Scatters.
    pub scatters: u64,
    /// Allgathers.
    pub allgathers: u64,
    /// Rooted reductions.
    pub reduces: u64,
    /// Allreduces.
    pub allreduces: u64,
    /// Reduce-scatters.
    pub reduce_scatters: u64,
    /// Inclusive prefix reductions (scans).
    pub scans: u64,
    /// Exclusive prefix reductions (exscans).
    pub exscans: u64,
    /// Complete exchanges (alltoall, alltoallv, alltoallw).
    pub alltoalls: u64,
    /// Payload bytes this rank contributed across those collectives.
    pub payload_bytes: u64,
}

impl CommCollStats {
    /// Add `other`'s counts to these; the group size becomes the larger of
    /// the two.
    fn fold(&mut self, other: &CommCollStats) {
        let CommCollStats {
            ctx: _,
            comm_size,
            barriers,
            bcasts,
            gathers,
            scatters,
            allgathers,
            reduces,
            allreduces,
            reduce_scatters,
            scans,
            exscans,
            alltoalls,
            payload_bytes,
        } = *other;
        self.comm_size = self.comm_size.max(comm_size);
        self.barriers += barriers;
        self.bcasts += bcasts;
        self.gathers += gathers;
        self.scatters += scatters;
        self.allgathers += allgathers;
        self.reduces += reduces;
        self.allreduces += allreduces;
        self.reduce_scatters += reduce_scatters;
        self.scans += scans;
        self.exscans += exscans;
        self.alltoalls += alltoalls;
        self.payload_bytes += payload_bytes;
    }
}

/// The wire half of a rank: the transport endpoint and the virtual clock,
/// behind the rank's **io lock**. Every actual transfer goes through here;
/// holders keep the lock for one bounded progress attempt (or one eager
/// send), never across a rendezvous with another rank's *caller*, so
/// concurrent threads of one rank interleave at attempt granularity.
pub(crate) struct RankIo {
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) clock: SimClock,
    /// The world ranks of a PSCW group, translated for the call in progress
    /// (reused, so opening an epoch allocates nothing).
    pub(crate) pscw_group: Vec<Rank>,
}

/// Cold per-rank control state: the context-id allocator and the
/// algorithm-choice telemetry. Its own small lock so collective starters
/// touch it briefly without holding the io lock.
struct RankCtl {
    /// Next context id this rank would propose for a new communicator.
    next_ctx: CtxId,
    /// Label of the algorithm chosen by the most recent collective.
    last_algo: &'static str,
    /// How often each collective algorithm was chosen by this rank.
    algo_counts: BTreeMap<&'static str, u64>,
}

/// The per-communicator progress state, sharded out of the rank-global locks
/// so threads operating on different communicators of one rank never
/// serialize on each other's bookkeeping (the MPI_THREAD_MULTIPLE hot path).
/// One shard per context id, shared by every handle of that communicator
/// (`comm_dup` of the same parent yields distinct shards).
pub(crate) struct CommShard {
    /// Context id the shard belongs to.
    ctx: CtxId,
    /// Collective sequence numbers: every collective started on the context
    /// (blocking or nonblocking) draws the next number, which is salted into
    /// the collective's internal tags. Ranks start collectives on a
    /// communicator in the same order (the MPI requirement), so the counters
    /// agree across the group and concurrent collectives can never
    /// cross-match.
    coll_seq: u32,
    /// Recovery-operation sequence numbers: every [`Comm::agree`] /
    /// [`Comm::shrink`] draws the next number, keying the shared agreement
    /// cells. Independent of the collective sequence space so recovery never
    /// aliases ordinary collectives.
    recovery_seq: u32,
    /// Collective-operation counters of this communicator.
    stats: CommCollStats,
    /// Compiled plans of repeated collective shapes, so planning runs once
    /// per (communicator, shape) instead of once per call. LRU-bounded by
    /// [`crate::plan::PLAN_CACHE_ENTRIES`].
    plans: PlanCache,
    /// Process-failure error handler ([`ErrHandler::ErrorsAbort`] is the MPI
    /// default).
    errhandler: ErrHandler,
}

impl CommShard {
    fn new(ctx: CtxId, comm_size: usize) -> Self {
        CommShard {
            ctx,
            coll_seq: 0,
            recovery_seq: 0,
            stats: CommCollStats {
                ctx,
                comm_size,
                ..CommCollStats::default()
            },
            plans: PlanCache::default(),
            errhandler: ErrHandler::default(),
        }
    }

    /// Draw the next `count` collective sequence numbers (one start of a
    /// plan of [`crate::progress::CollPlan::seqs`] segments) and return the
    /// first.
    fn next_coll_seq(&mut self, count: u32) -> u32 {
        let seq = self.coll_seq;
        self.coll_seq = self.coll_seq.wrapping_add(count);
        seq
    }
}

/// The state shared by every communicator handle of one rank. Lock order
/// (outer to inner): request `OpCell` slot → [`CommShard`] → [`RankCtl`] →
/// [`RankIo`]; nothing is ever acquired in the reverse direction, and the io
/// lock is never held while taking any other.
pub(crate) struct RankShared {
    /// The transport + clock, i.e. the wire (the io lock).
    io: Mutex<RankIo>,
    /// Context-id allocator and algorithm telemetry.
    ctl: Mutex<RankCtl>,
    /// The live communicators' shards, and what the dropped ones counted,
    /// for rank-level reporting.
    shards: Mutex<Shards>,
    /// The rank's counter block, shared with the transport: bumped and read
    /// without any lock.
    pub(crate) counters: Arc<RankCounters>,
    /// Universe failure state (cloned from the transport at construction).
    pub(crate) poison: PoisonFlag,
    /// Post order of this rank's nonblocking receives (one sequence for the
    /// rank, hence also an order within each communicator): the `wait_*` /
    /// `test_*` sweeps use it to keep MPI's non-overtaking rule.
    post_seq: AtomicU64,
    pub(crate) topology: HostTopology,
    /// The collectives' hierarchy mode and window arena (from the universe
    /// config).
    pub(crate) tuning: CollTuning,
    /// Who drives outstanding nonblocking operations (from the universe
    /// config).
    pub(crate) progress: ProgressMode,
    /// The background progress engine (inert in [`ProgressMode::Polling`]).
    pub(crate) engine: ProgressEngine,
}

/// The communicator shards of one rank: the live ones, and what the dropped
/// ones counted.
#[derive(Default)]
struct Shards {
    /// The shard of every live communicator, by context id.
    live: BTreeMap<CtxId, Arc<Mutex<CommShard>>>,
    /// The collective counters of every communicator dropped so far, folded
    /// into one row ([`RETIRED_CTX`]), so that a rank's totals do not depend
    /// on which of its communicators are still alive.
    retired: Option<CommCollStats>,
}

impl RankShared {
    /// Lock the io half, ignoring poisoning of the mutex itself (a rank
    /// thread that panicked mid-hold has already raised the universe poison
    /// flag, which every wait observes — the state behind the lock is a
    /// transport whose operations are individually consistent).
    pub(crate) fn io(&self) -> MutexGuard<'_, RankIo> {
        self.io.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn ctl(&self) -> MutexGuard<'_, RankCtl> {
        self.ctl.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The shard registered for `ctx` (created on demand — used by
    /// communicator construction).
    fn shard(&self, ctx: CtxId, comm_size: usize) -> Arc<Mutex<CommShard>> {
        let mut shards = self.shards();
        Arc::clone(
            shards
                .live
                .entry(ctx)
                .or_insert_with(|| Arc::new(Mutex::new(CommShard::new(ctx, comm_size)))),
        )
    }

    fn shards(&self) -> MutexGuard<'_, Shards> {
        self.shards.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Eagerly create (or open) the shared-window data plane for `ctx` over
    /// `group` (world ranks, communicator order). Collective over the
    /// group's members — called at communicator construction so no
    /// collective starter ever blocks on window creation. The transport
    /// creates nothing for a trivial group, a zero (or sub-line) arena, or
    /// when it has no shared pool; pool exhaustion is graceful (the
    /// communicator simply stays on the ring path and the failure is counted
    /// in [`DataPlaneStats::window_failures`]).
    fn ensure_data_plane(&self, ctx: CtxId, group: &[Rank]) -> Result<()> {
        let arena_bytes = self.tuning.shm_arena_bytes;
        let io = &mut *self.io();
        io.transport
            .dp_ensure(&mut io.clock, ctx, group, arena_bytes)?;
        Ok(())
    }
}

/// A communicator handle (the `MPI_Comm` equivalent). The world communicator
/// is handed to every rank by [`crate::runtime::Universe::run`]; further
/// communicators come from [`Comm::comm_dup`] and [`Comm::comm_split`].
///
/// All rank arguments and [`Status::source`] values are **local ranks** of
/// this communicator's group.
pub struct Comm {
    shared: Arc<RankShared>,
    /// This communicator's progress shard (also registered in
    /// [`RankShared::shards`]); handles of the same context share one shard.
    shard: Arc<Mutex<CommShard>>,
    group: Arc<Group>,
    ctx: CtxId,
    /// This rank's local rank within `group`.
    rank: Rank,
    /// Lazily derived host hierarchy (same-host group + one-leader-per-host
    /// group) used by the topology-aware collective compositions. Derived
    /// locally from `(group, topology)` — no communication — and therefore
    /// never stale; communicators created by `comm_dup`/`comm_split` start
    /// with an empty cache and re-derive against their own group.
    hier: Mutex<Option<Arc<HostHierarchy>>>,
    /// The blocking collectives' execution arena: lent to every blocking run
    /// as its scratch (and, for the calls that stage an image of their input,
    /// the image), grown to the largest run so far and kept, so a cache-hit
    /// blocking collective allocates nothing. Handed on to a later
    /// communicator when this one is dropped.
    arena: Vec<u8>,
}

impl Drop for Comm {
    /// The last handle of a communicator retires its shard — the plan cache
    /// goes, and the collective counters fold into the rank's retired row —
    /// and lets go of its window ([`Transport::dp_settle`]): the completion
    /// line this rank holds back on it is stored, since nothing of the
    /// communicator's could carry it any more, and the last member to let go
    /// frees the window.
    fn drop(&mut self) {
        collectives::retire_arena(std::mem::take(&mut self.arena));
        let mut shards = self.shared.shards();
        // The registry's reference and this handle's.
        if Arc::strong_count(&self.shard) > 2 {
            return;
        }
        shards.live.remove(&self.ctx);
        let stats = self.shard().stats;
        let retired = shards.retired.get_or_insert(CommCollStats {
            ctx: RETIRED_CTX,
            ..CommCollStats::default()
        });
        retired.fold(&stats);
        drop(shards);
        let io = &mut *self.shared.io();
        // A drop has nobody to report an error to; a store into the window
        // fails only if the pool itself does, which every later call sees.
        let _ = io.transport.dp_settle(&mut io.clock, self.ctx);
    }
}

impl Comm {
    /// Build the world communicator for one rank (runtime-internal), over
    /// `transport` and the rank's counter block it counts into.
    /// Collective: with a non-zero `shm_arena_bytes` this eagerly creates the
    /// world communicator's shared exposure window, so every member must
    /// construct its world communicator.
    pub(crate) fn world(
        transport: Box<dyn Transport>,
        counters: Arc<RankCounters>,
        topology: HostTopology,
        tuning: CollTuning,
        progress: ProgressMode,
    ) -> Result<Self> {
        let n = transport.size();
        let rank = transport.rank();
        let poison = transport.poison().clone();
        let shared = Arc::new(RankShared {
            io: Mutex::new(RankIo {
                transport,
                clock: SimClock::new(),
                pscw_group: Vec::new(),
            }),
            ctl: Mutex::new(RankCtl {
                next_ctx: WORLD_CTX + 1,
                last_algo: "none",
                algo_counts: BTreeMap::new(),
            }),
            shards: Mutex::new(Shards::default()),
            counters,
            post_seq: AtomicU64::new(0),
            poison: poison.clone(),
            topology,
            tuning,
            progress,
            engine: ProgressEngine::new(rank),
        });
        if progress == ProgressMode::Thread {
            shared.engine.start(Arc::downgrade(&shared), poison);
        }
        let group = Group::world(n);
        shared.ensure_data_plane(WORLD_CTX, group.world_ranks())?;
        let shard = shared.shard(WORLD_CTX, group.size());
        Ok(Comm {
            shared,
            shard,
            group: Arc::new(group),
            ctx: WORLD_CTX,
            rank,
            hier: Mutex::new(None),
            arena: Vec::new(),
        })
    }

    /// Lock this communicator's progress shard.
    fn shard(&self) -> MutexGuard<'_, CommShard> {
        let guard = self.shard.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(guard.ctx, self.ctx, "shard/handle context mismatch");
        guard
    }

    /// Stop the background progress engine and join its thread (runtime
    /// shutdown hook; no-op in [`ProgressMode::Polling`] or when already
    /// stopped).
    pub(crate) fn shutdown_engine(&self) {
        self.shared.engine.shutdown();
    }

    /// The lazily cached host hierarchy of this communicator (see the field
    /// docs): derived on first use, shared by every collective afterwards.
    fn hierarchy(&self) -> Arc<HostHierarchy> {
        let mut hier = self.hier.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(h) = &*hier {
            return Arc::clone(h);
        }
        let derived = Arc::new(HostHierarchy::derive(
            &self.group,
            &self.shared.topology,
            self.rank,
        ));
        *hier = Some(Arc::clone(&derived));
        derived
    }

    /// The hierarchy handle the collective builders consult, or `None` when
    /// trivially impossible (singleton group). `HierarchyMode::Off` is gated
    /// where the builders choose their path, not here: the *derived structure* is
    /// also what the data plane's topology-aware shapes slice payloads by,
    /// and those run under `Off` too. Derivation is pure, cached per
    /// communicator and miss-only (plan-cache hits never reach this).
    fn hier_for_coll(&self) -> Option<Arc<HostHierarchy>> {
        if self.group.size() < 2 {
            return None;
        }
        Some(self.hierarchy())
    }

    /// What this communicator's collective plans are built against: its
    /// window, if it has one, and its host hierarchy.
    #[cfg(test)]
    pub(crate) fn plan_inputs(
        &self,
    ) -> (
        Option<crate::transport::DpWindow>,
        Option<Arc<HostHierarchy>>,
    ) {
        let dp = self.shared.io().transport.dp_window(self.ctx);
        (dp, self.hier_for_coll())
    }

    /// Aggregate plan-cache counters of this rank (hits, misses, evictions,
    /// invalidations — across all communicators sharing the rank state; also
    /// surfaced in [`crate::runtime::RankReport::plan_cache`]): a snapshot of
    /// the counter block's plan-cache section, plus the plans resident in
    /// every communicator's cache (which takes each cache's shard lock).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let mut stats = self.shared.counters.plan_cache.snapshot();
        stats.entries = self
            .shared
            .shards()
            .live
            .values()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).plans.len())
            .sum();
        stats
    }

    /// Data-plane counters of this rank (across all communicators sharing
    /// the rank state): shared-window setups and failures, single-copy
    /// expose/pull/notify operations, and the shm-vs-ring path split of the
    /// collectives of the kinds that have a window builder — one snapshot of
    /// the counter block's data-plane section, taken without a lock. Also
    /// surfaced in [`crate::runtime::RankReport::data_plane`].
    pub fn data_plane_stats(&self) -> DataPlaneStats {
        self.shared.counters.data_plane.snapshot()
    }

    /// Bytes of the pool's window headroom drawn so far, every rank's draws
    /// together — RMA windows, communicators' data-plane windows and their
    /// status objects — or `None` on a transport without a shared pool. A
    /// freed window hands its bytes back.
    pub fn headroom_drawn(&self) -> Result<Option<u64>> {
        self.shared.io().transport.headroom_drawn()
    }

    /// How this rank's completion lines of the data plane went out (across
    /// all communicators sharing the rank state): riding an exposure, or by
    /// themselves. One snapshot of the counter block's completion section,
    /// taken without a lock.
    pub fn completion_stats(&self) -> CompletionStats {
        self.shared.counters.completions.snapshot()
    }

    /// Snapshot of the per-communicator collective counters accumulated by
    /// this rank so far (across *all* communicators sharing the rank state).
    pub(crate) fn coll_stats_snapshot(&self) -> Vec<CommCollStats> {
        let shards = self.shared.shards();
        let live = shards
            .live
            .values()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).stats);
        live.chain(shards.retired).collect()
    }

    /// Label of the algorithm chosen by the most recent collective executed by
    /// this rank (any communicator), e.g. `"allreduce/rabenseifner"`. Returns
    /// `"none"` before the first collective.
    pub fn last_coll_algorithm(&self) -> &'static str {
        self.shared.ctl().last_algo
    }

    /// Snapshot of how often each collective algorithm was chosen by this rank
    /// (surfaced in [`crate::runtime::RankReport::coll_algos`]).
    pub(crate) fn algo_counts_snapshot(&self) -> Vec<(String, u64)> {
        let ctl = self.shared.ctl();
        ctl.algo_counts
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    fn view(&self) -> CommView<'_> {
        CommView {
            group: &self.group,
            ctx: self.ctx,
            rank: self.rank,
        }
    }

    /// Translate a local rank of this communicator to a world rank.
    fn world_of(&self, local: Rank) -> Result<Rank> {
        if local >= self.group.size() {
            return Err(MpiError::InvalidRank {
                rank: local,
                size: self.group.size(),
            });
        }
        Ok(self.group.world_rank(local))
    }

    /// Rewrite a transport-level status (world source) into this
    /// communicator's rank space.
    fn localize(&self, status: Status) -> Result<Status> {
        let source = self.group.local_rank_of(status.source).ok_or_else(|| {
            MpiError::InvalidCommunicator(format!(
                "message from world rank {} matched on context {} but the rank is not a member",
                status.source, self.ctx
            ))
        })?;
        Ok(Status { source, ..status })
    }

    // ------------------------------------------------------------------
    // Identity and introspection
    // ------------------------------------------------------------------

    /// This rank's index within the communicator.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// This rank's world (universe-wide) rank.
    pub fn world_rank(&self) -> Rank {
        self.group.world_rank(self.rank)
    }

    /// The communicator's rank group.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// The communicator's context id.
    pub fn context_id(&self) -> CtxId {
        self.ctx
    }

    /// The progress mode this rank runs under ([`ProgressMode::Thread`] means
    /// a background engine thread drives outstanding nonblocking operations).
    pub fn progress_mode(&self) -> ProgressMode {
        self.shared.progress
    }

    /// Whether the background progress engine thread is live for this rank
    /// (crate-internal; the futures adapter uses it to choose between
    /// engine-driven wakeups and self-waking polls).
    pub(crate) fn engine_running(&self) -> bool {
        self.shared.engine.is_running()
    }

    /// Whether this communicator spans the entire universe.
    pub fn is_world(&self) -> bool {
        let world_size = self.shared.io().transport.size();
        self.group.is_world(world_size)
    }

    /// The host this rank runs on.
    pub fn host(&self) -> usize {
        let world = self.world_rank();
        self.shared.topology.host_of(world)
    }

    /// The full host topology (indexed by world rank).
    pub fn topology(&self) -> HostTopology {
        self.shared.topology.clone()
    }

    /// Whether this rank is rank 0 of the communicator.
    pub fn is_root(&self) -> bool {
        self.rank == 0
    }

    /// Transport label (for benchmark output).
    pub fn transport_label(&self) -> &'static str {
        self.shared.io().transport.label()
    }

    // ------------------------------------------------------------------
    // Virtual time and counters
    // ------------------------------------------------------------------

    /// Current virtual time of this rank, nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        self.shared.io().clock.now()
    }

    /// Charge `ns` nanoseconds of local computation to the virtual clock.
    pub fn advance_clock(&mut self, ns: f64) {
        self.shared.io().clock.advance(ns);
    }

    /// Transport operation counters (shared by every communicator of the
    /// rank): a snapshot of the counter block's transport section, taken
    /// without a lock.
    pub fn stats(&self) -> TransportStats {
        self.shared.counters.transport.snapshot()
    }

    /// Tell the contention / NIC-sharing models how many communication pairs
    /// are concurrently active (benchmarks set this to their process count).
    pub fn set_concurrency_hint(&mut self, pairs: usize) {
        self.shared.io().transport.set_concurrency_hint(pairs);
    }

    // ------------------------------------------------------------------
    // Communicator construction
    // ------------------------------------------------------------------

    /// Run a freshly built plan in place, outside the plan cache — the
    /// context-id agreement of communicator construction. It stays on the
    /// ring path (built with no window): the parent's cache would hand back
    /// a data-plane plan where the parent has a window, and these run once.
    fn run_ring_only(&mut self, plan: CollPlan, op: PlanOp, buf: &mut [u8]) -> Result<()> {
        let spec = Spec {
            payload: plan.input_len() as u64,
            plan: Arc::new(plan.for_op(op)),
        };
        self.run_coll(&spec, buf)
    }

    /// Duplicate the communicator: same group, fresh context id. Collective
    /// over this communicator. The duplicate's traffic is fully isolated from
    /// the original's — the MPI idiom for handing a library its own
    /// communicator.
    pub fn comm_dup(&mut self) -> Result<Comm> {
        self.ft_precheck()?;
        let hier = self.hier_for_coll();
        let mut proposal = [self.shared.ctl().next_ctx as u64];
        let plan = coll::build_allreduce::<u64>(
            &self.view(),
            &self.shared.tuning,
            hier.as_deref(),
            None,
            1,
            ReduceOp::Max,
        );
        self.run_ring_only(plan, PlanOp::Allreduce, bytes_of_mut(&mut proposal))?;
        let new_ctx = proposal[0] as CtxId;
        self.shared.ctl().next_ctx = new_ctx + 1;
        self.shared
            .ensure_data_plane(new_ctx, self.group.world_ranks())?;
        let shard = self.shared.shard(new_ctx, self.group.size());
        Ok(Comm {
            shared: Arc::clone(&self.shared),
            shard,
            group: Arc::clone(&self.group),
            ctx: new_ctx,
            rank: self.rank,
            hier: Mutex::new(self.hier.lock().unwrap_or_else(|e| e.into_inner()).clone()),
            arena: Vec::new(),
        })
    }

    /// Split the communicator: ranks passing the same non-negative `color`
    /// form a new sub-communicator, ordered by (`key`, current rank); a
    /// negative `color` (the `MPI_UNDEFINED` idiom) yields `None`. Collective
    /// over this communicator — every member must call it.
    pub fn comm_split(&mut self, color: i32, key: i32) -> Result<Option<Comm>> {
        self.ft_precheck()?;
        let n = self.group.size();
        let mut gathered = vec![0i64; 3 * n];
        let hier = self.hier_for_coll();
        let mine = [color as i64, key as i64, self.shared.ctl().next_ctx as i64];
        gathered[3 * self.rank..3 * self.rank + 3].copy_from_slice(&mine);
        let plan = coll::build_allgather(
            &self.view(),
            &self.shared.tuning,
            hier.as_deref(),
            None,
            std::mem::size_of_val(&mine),
        );
        self.run_ring_only(plan, PlanOp::Allgather, bytes_of_mut(&mut gathered))?;
        // Agree on a context id unused by every member (max of proposals);
        // all colors of this split share it — their groups are disjoint,
        // so their (source, destination) pairs already are.
        let new_ctx = gathered
            .chunks_exact(3)
            .map(|c| c[2])
            .max()
            .expect("split gathered at least this rank") as CtxId;
        self.shared.ctl().next_ctx = new_ctx + 1;
        if color < 0 {
            return Ok(None);
        }
        // Members of my color, ordered by (key, parent rank).
        let mut members: Vec<(i64, Rank)> = gathered
            .chunks_exact(3)
            .enumerate()
            .filter(|(_, c)| c[0] == color as i64)
            .map(|(local, c)| (c[1], local))
            .collect();
        members.sort_unstable();
        let world_ranks: Vec<Rank> = members
            .iter()
            .map(|&(_, local)| self.group.world_rank(local))
            .collect();
        let group = Arc::new(Group::from_world_ranks(world_ranks)?);
        let my_local = group
            .local_rank_of(self.world_rank())
            .expect("split member contains itself");
        // Eagerly provision the new sub-communicator's shared window.
        // Collective over the color's members only; distinct colors sharing
        // the context id get distinct windows because the window objects are
        // named after (ctx, leader world rank). Ranks that opted out
        // (negative color) already returned above and are not waited on.
        self.shared
            .ensure_data_plane(new_ctx, group.world_ranks())?;
        let shard = self.shared.shard(new_ctx, group.size());
        Ok(Some(Comm {
            shared: Arc::clone(&self.shared),
            shard,
            group,
            ctx: new_ctx,
            rank: my_local,
            hier: Mutex::new(None),
            arena: Vec::new(),
        }))
    }

    /// Split the communicator by a topology criterion (the
    /// `MPI_Comm_split_type` equivalent). [`SplitType::Host`] yields one
    /// sub-communicator per host whose members all share a hardware-coherent
    /// cache, ordered by parent rank — the building block of application-level
    /// two-level algorithms (the library's own hierarchical collectives use an
    /// internally cached equivalent and need no extra context id). Collective
    /// over this communicator; every member receives `Some(sub)`.
    pub fn split_type(&mut self, split: SplitType) -> Result<Option<Comm>> {
        match split {
            SplitType::Host => {
                let host = self.host() as i32;
                let key = self.rank as i32;
                self.comm_split(host, key)
            }
        }
    }

    /// Snapshot of the progress-engine counters accumulated by this rank
    /// (shared across all communicators of the rank, taken without a lock;
    /// also surfaced in [`crate::runtime::RankReport::progress`]).
    pub fn progress_stats(&self) -> ProgressStats {
        self.shared.counters.progress.snapshot()
    }

    /// Snapshot of this rank's blocking calls that had to wait, per wait site
    /// (across all communicators of the rank, taken without a lock).
    pub fn wait_stats(&self) -> WaitStats {
        self.shared.counters.waits.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Universe, UniverseConfig};

    /// Every snapshot reads the counter block alone: taken while this thread
    /// holds the rank's ctl and io locks — which a snapshot that took either
    /// would wait on forever — they all return.
    #[test]
    fn snapshots_take_no_lock() {
        Universe::run(UniverseConfig::cxl_small(2), |comm| {
            let ctl = comm.shared.ctl();
            let io = comm.shared.io();
            let stats = comm.stats();
            let dp = comm.data_plane_stats();
            let progress = comm.progress_stats();
            let plans = comm.plan_cache_stats();
            let waits = comm.wait_stats();
            drop((io, ctl));
            // The init barrier; the world's window attempt (the small pool
            // cannot hold it); nothing nonblocking, nothing cached yet.
            assert_eq!(stats.collectives, 1);
            assert_eq!(dp.window_setups + dp.window_failures, 1);
            assert_eq!(progress.colls_started, 0);
            assert_eq!((plans.misses, plans.entries), (0, 0));
            assert_eq!((waits.recv, waits.send), (0, 0));
            Ok(())
        })
        .unwrap();
    }

    /// A receive posted before its message is sent waits, and counts once
    /// at the `recv` site however long it waits; a receive whose message is
    /// already there does not count.
    #[test]
    #[allow(clippy::disallowed_methods)]
    fn a_receive_that_waits_counts_once_at_its_site() {
        Universe::run(UniverseConfig::cxl_small(2), |comm| {
            let mut dup = comm.comm_dup()?;
            let base = comm.wait_stats().recv;
            if comm.rank() == 0 {
                let waiter = std::thread::spawn(move || dup.recv_owned(Some(1), Some(1)));
                // Rank 1 replies only once this rank's receive has waited.
                while comm.wait_stats().recv == base {
                    std::thread::yield_now();
                }
                comm.send(1, 0, b"go")?;
                waiter.join().expect("receiving thread")?;
                assert_eq!(comm.wait_stats().recv, base + 1);
                comm.send(1, 2, b"sent before the barrier")?;
            } else {
                comm.recv_owned(Some(0), Some(0))?;
                dup.send(0, 1, b"reply")?;
            }
            comm.barrier()?;
            if comm.rank() == 1 {
                let waited = comm.wait_stats().recv;
                comm.recv_owned(Some(0), Some(2))?;
                assert_eq!(comm.wait_stats().recv, waited);
            }
            Ok(())
        })
        .unwrap();
    }
}
