//! Collectives on a communicator: **one definition per operation, three
//! bindings over it**.
//!
//! Each of the 13 collectives is defined once, by a private `spec_*` method
//! that validates the arguments, names the operation's [`PlanKey`] and its
//! builder in [`crate::coll`], and returns the communicator's cached plan
//! with the payload bytes a start accounts (a [`Spec`]). The public forms bind a
//! buffer to that spec and differ only in who owns the buffer and when it
//! runs:
//!
//! * **blocking** (`allreduce`, `bcast_into`, ...) binds the *caller's*
//!   buffer in place and runs the plan to completion ([`Comm::run_coll`]);
//! * **nonblocking** (`i*`, MPI-3) stages an owned image of the contribution
//!   ([`CollPlan::image`]) and activates it at once ([`Comm::start_coll`]);
//!   the request completes through `wait`/`test`-family calls, mixing freely
//!   with p2p requests, and yields its result via [`Request::take_values`];
//! * **persistent** (`*_init`, MPI-4) stages the same image into an
//!   **inactive** request ([`Comm::init_coll`]); [`Comm::start`] /
//!   [`Comm::startall`] activate it any number of times — no re-planning, no
//!   reallocation. Between starts the bound contribution is rewritten with
//!   [`Request::write_input`] and a completed result is read (without
//!   consuming the request) with [`Request::read_result`];
//!   [`Request::release`] retires the request.
//!
//! A nonblocking start *is* an init plus the one activation sequence
//! `Comm::start` runs, so the three forms execute byte-identical plans under
//! identical accounting and reject the same malformed arguments.
//!
//! Ordering rules: all ranks must start collectives on one communicator in
//! the same order (as in MPI; init calls are collective too), and every
//! started collective must eventually be completed on every rank. Without a
//! progress thread, progress only happens inside `wait`/`test`-family calls
//! of the rank holding the request, and a bare `wait(&mut one_request)`
//! advances only that request — so to complete several outstanding
//! collectives, either wait for them in start order or drive them together
//! (`wait_all`, a `wait_any` loop, `test_all`, or `test` polling), which
//! progresses every request passed. Waiting single requests in an order that
//! differs across ranks can deadlock (see the README's request-mixing rules).

use std::mem::{size_of, size_of_val};
use std::sync::Arc;

use super::Comm;
use crate::coll::{self, CommView};
use crate::config::{CollTuning, DataPlaneMode};
use crate::error::MpiError;
use crate::plan::{PlanKey, PlanOp};
use crate::pod::{bytes_of, bytes_of_mut, vec_from_bytes, Pod};
use crate::progress::{CollPlan, CollState, Execution, ProgressCounters};
use crate::request::{Request, RequestState};
use crate::spin::SpinWait;
use crate::topology::HostHierarchy;
use crate::transport::{DpWindow, TransportCounters};
use crate::types::{Rank, ReduceOp, Reducible, WORLD_CTX};
use crate::Result;

/// One collective call resolved against a communicator: the plan it runs and
/// the payload bytes this rank contributes, accounted at every start.
pub(super) struct Spec {
    pub(super) plan: Arc<CollPlan>,
    pub(super) payload: u64,
}

/// A buffer of one block per rank must hold `ranks × per_rank` elements.
fn check_blocks(what: &str, got: usize, ranks: usize, per_rank: usize) -> Result<()> {
    if got == ranks * per_rank {
        return Ok(());
    }
    Err(MpiError::InvalidCollective(format!(
        "{what} has {got} elements, expected {} ({ranks} ranks × {per_rank})",
        ranks * per_rank
    )))
}

/// A buffer reduced or exchanged block-wise must split evenly over the ranks.
fn check_divisible(what: &str, elems: usize, ranks: usize) -> Result<()> {
    if elems.is_multiple_of(ranks) {
        return Ok(());
    }
    Err(MpiError::InvalidCollective(format!(
        "{what} of {elems} elements not divisible by {ranks} ranks"
    )))
}

impl Comm {
    // ------------------------------------------------------------------
    // The shared path: plan lookup, accounting, run, start, init
    // ------------------------------------------------------------------

    /// The cached plan for `key` on this communicator, building (and caching)
    /// it on first use. Every collective — blocking, nonblocking or
    /// persistent — resolves through here, so repeated shapes skip planning
    /// entirely (and every form inherits the [`Comm::ft_precheck`] failure
    /// gate); the cache is per context id and LRU-bounded by
    /// [`CollTuning::plan_cache_entries`].
    fn spec(
        &self,
        key: PlanKey<'_>,
        payload: usize,
        build: impl FnOnce(
            &CommView<'_>,
            &CollTuning,
            Option<&HostHierarchy>,
            Option<DpWindow>,
        ) -> CollPlan,
    ) -> Result<Spec> {
        self.ft_precheck()?;
        let payload = payload as u64;
        // Probe first: the hit path pays one cache scan and nothing else.
        // Hierarchy derivation (a lock + an Arc clone) is miss-only work —
        // the built plan bakes the hierarchy decision in, and likewise the
        // data-plane decision: the window is created (or definitively absent)
        // at communicator construction, so its availability is fixed for the
        // communicator's lifetime and safe to bake into cached plans.
        if let Some(plan) = self.shard().plans.lookup(&key) {
            return Ok(Spec { plan, payload });
        }
        let hier = self.hier_for_coll();
        let tuning = self.shared.tuning;
        let dp = if tuning.data_plane == DataPlaneMode::Ring {
            None
        } else {
            self.shared.io().transport.dp_window(self.ctx)
        };
        let plan = Arc::new(build(&self.view(), &tuning, hier.as_deref(), dp).for_op(key.op));
        self.shard()
            .plans
            .insert(key, &plan, tuning.plan_cache_entries);
        Ok(Spec { plan, payload })
    }

    /// Record a started collective: transport counters (atomics), this
    /// communicator's op counters (shard lock), the chosen algorithm (ctl
    /// lock). Takes no io lock.
    fn account(&self, op: PlanOp, algo: &'static str, payload: u64) {
        TransportCounters::bump(&self.shared.tstats.collectives, 1);
        TransportCounters::bump(&self.shared.tstats.collective_bytes, payload);
        {
            let entry = &mut self.shard().stats;
            entry.payload_bytes += payload;
            let started = match op {
                PlanOp::Barrier => &mut entry.barriers,
                PlanOp::Bcast => &mut entry.bcasts,
                PlanOp::Gather => &mut entry.gathers,
                PlanOp::Scatter => &mut entry.scatters,
                PlanOp::Allgather => &mut entry.allgathers,
                PlanOp::Reduce => &mut entry.reduces,
                PlanOp::Allreduce => &mut entry.allreduces,
                PlanOp::ReduceScatter => &mut entry.reduce_scatters,
                PlanOp::Scan => &mut entry.scans,
                PlanOp::Exscan => &mut entry.exscans,
                PlanOp::Alltoall | PlanOp::Alltoallv | PlanOp::Alltoallw => &mut entry.alltoalls,
            };
            *started += 1;
        }
        let ctl = &mut *self.shared.ctl();
        ctl.last_algo = algo;
        *ctl.algo_counts.entry(algo).or_insert(0) += 1;
        // Path accounting for the data-plane-eligible collective families:
        // "<family>/shm" labels took the shared-window single-copy path (an
        // irregular exchange's "/shm+pairwise" for all but its oversize
        // pairs), every other label of those families went through the ring
        // transport (the universal fallback).
        if algo.contains("/shm") {
            ctl.dp_paths.shm_colls += 1;
            ctl.dp_paths.shm_bytes += payload;
        } else if ["bcast/", "reduce/", "allreduce/", "allgather/", "alltoall/"]
            .iter()
            .any(|p| algo.starts_with(p))
        {
            ctl.dp_paths.ring_colls += 1;
            ctl.dp_paths.ring_bytes += payload;
        }
    }

    /// Blocking form: bind `spec`'s plan to the caller's buffer in place and
    /// drive it to completion with a **lock-per-attempt** loop — each
    /// iteration takes the rank's io lock for one bounded progress attempt
    /// and releases it before backing off, so concurrent threads of this rank
    /// (and the background progress engine) interleave at attempt granularity
    /// instead of serializing behind one blocked collective. Returns the
    /// finished execution, which locates results left in scratch.
    pub(super) fn run_coll(&self, spec: &Spec, buf: &mut [u8]) -> Result<Execution> {
        let seq = self.shard().next_coll_seq();
        let mut exec = Execution::new(Arc::clone(&spec.plan), seq);
        let mut backoff = SpinWait::new();
        loop {
            let step = {
                let io = &mut *self.shared.io();
                exec.progress(io.transport.as_mut(), &mut io.clock, buf)
            };
            let step = step.map_err(|e| self.map_ft_err(e))?;
            if step.done {
                break;
            }
            if step.ops > 0 {
                backoff.reset();
            } else {
                backoff
                    .wait(&self.shared.poison)
                    .map_err(|e| self.map_ft_err(e))?;
            }
        }
        self.account(spec.plan.op, spec.plan.label, spec.payload);
        Ok(exec)
    }

    /// Blocking form of a pure-sender role (non-root contributor of a gather,
    /// root of a scatter), whose buffer is the caller's `&[T]`. Runs under
    /// one io-lock hold: the transports drain incoming traffic internally
    /// while flow-control spinning, so a send cannot deadlock against this
    /// rank's own unconsumed messages.
    fn run_coll_send_only(&self, spec: &Spec, payload: &[u8]) -> Result<()> {
        let seq = self.shard().next_coll_seq();
        let mut exec = Execution::new(Arc::clone(&spec.plan), seq);
        let sent = {
            let io = &mut *self.shared.io();
            exec.run_send_only(io.transport.as_mut(), &mut io.clock, payload)
        };
        sent.map_err(|e| self.map_ft_err(e))?;
        self.account(spec.plan.op, spec.plan.label, spec.payload);
        Ok(())
    }

    /// Persistent form: stage an owned image of `contribution` and package
    /// it, bound to `spec`'s plan, as an inactive persistent request.
    fn init_coll(&self, spec: Spec, contribution: &[u8]) -> Request {
        self.stage(spec.plan, contribution, Some(spec.payload))
    }

    /// Nonblocking form: [`Comm::init_coll`] without the persistence, then
    /// the activation every [`Comm::start`] runs.
    fn start_coll(&self, spec: Spec, contribution: &[u8]) -> Request {
        let mut request = self.stage(spec.plan, contribution, None);
        self.activate(&mut request, spec.payload);
        request
    }

    fn stage(&self, plan: Arc<CollPlan>, contribution: &[u8], persistent: Option<u64>) -> Request {
        let buf = plan.image(contribution);
        let state = CollState::new(Execution::new(plan, 0), buf, self.rank);
        Request::coll_inactive(self.ctx, state, persistent)
    }

    /// Activate an inactive (or completed persistent) collective request:
    /// draw the next sequence number, account the start, rewind the bound
    /// execution and hand the cell to the rank's outstanding-op registry.
    fn activate(&self, request: &mut Request, payload: u64) {
        let cell = Arc::clone(request.coll.as_ref().expect("collective request has cell"));
        let plan = cell.plan();
        let seq = self.shard().next_coll_seq();
        self.account(plan.op, plan.label, payload);
        ProgressCounters::add(&self.shared.counters.colls_started, 1);
        if plan.reads_data_plane {
            // A collective that reads data-plane exposures is started without
            // being run at once: tell the transport before anything started
            // later can complete, so this rank's completion line cannot pass
            // it by.
            self.shared.io().transport.dp_begin(self.ctx, seq);
        }
        request.activate(seq);
        // In Thread mode the background engine starts advancing the operation
        // before the caller ever polls (completed cells were pruned from its
        // queue, so a restart re-registers); in Polling mode it becomes
        // visible to sibling waiters' cross-communicator sweeps.
        self.shared.engine.enqueue(cell);
    }

    /// Start (or restart) a persistent collective request (`MPI_Start`):
    /// draws the next collective sequence number, rewinds the bound execution
    /// and marks the request pending — no planning, no allocation. The
    /// request must be inactive or complete; starting an in-flight request
    /// errors. Starts count toward the same per-communicator ordering rule as
    /// every other collective: all ranks must start their matching requests
    /// in the same order relative to other collectives on the communicator.
    pub fn start(&mut self, request: &mut Request) -> Result<()> {
        self.ft_precheck()?;
        self.check_request_ctx(request)?;
        let payload = request.persistent.ok_or_else(|| {
            MpiError::InvalidCollective(
                "start requires a persistent collective request (*_init)".into(),
            )
        })?;
        match request.state() {
            RequestState::Inactive | RequestState::RecvComplete => {}
            RequestState::RecvPending => {
                return Err(MpiError::InvalidCollective(
                    "start on a persistent request that is already in flight".into(),
                ))
            }
            RequestState::SendComplete | RequestState::Consumed => {
                return Err(MpiError::StaleRequest)
            }
        }
        ProgressCounters::add(&self.shared.counters.persistent_starts, 1);
        self.activate(request, payload);
        Ok(())
    }

    /// Start every persistent request in the slice, in slice order
    /// (`MPI_Startall`).
    pub fn startall(&mut self, requests: &mut [Request]) -> Result<()> {
        for request in requests.iter_mut() {
            self.start(request)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    fn spec_barrier(&self) -> Result<Spec> {
        self.spec(PlanKey::shaped(PlanOp::Barrier, 0), 0, coll::build_barrier)
    }

    /// Barrier across all ranks of the communicator. The world communicator
    /// uses the transport's sequence-number barrier — one flag array for the
    /// whole universe. Every other communicator (same-group duplicates of
    /// world included) runs the cached barrier plan: with a shared window, a
    /// zero-byte exchange on its flag lines — one line stored, one loaded per
    /// peer; without one (TCP, a forced ring, a window the pool could not
    /// hold), a dissemination barrier over the point-to-point path, composed
    /// hierarchically (per-host fan-in, leader dissemination, per-host
    /// fan-out) when the hierarchy is selected.
    pub fn barrier(&mut self) -> Result<()> {
        // The transport's sequence barrier is a single rank-wide rendezvous
        // object: only the **world context** may use it. A same-group
        // duplicate of world runs the plan-based path instead — two threads
        // concurrently barriering on world and a world-spanning duplicate
        // must not cross-match on one shared flag array.
        if self.ctx != WORLD_CTX {
            let spec = self.spec_barrier()?;
            return self.run_coll(&spec, &mut []).map(drop);
        }
        self.ft_precheck()?;
        // Still draws a sequence number: every collective start on a context
        // consumes one, so the counters agree across ranks no matter which
        // barrier implementation a communicator uses.
        self.shard().next_coll_seq();
        let entered = {
            let io = &mut *self.shared.io();
            io.transport.barrier(&mut io.clock)
        };
        entered.map_err(|e| self.map_ft_err(e))?;
        self.account(PlanOp::Barrier, "barrier/sequence", 0);
        Ok(())
    }

    /// Nonblocking barrier (`MPI_Ibarrier`): completes once every rank of the
    /// communicator has entered it. Runs the barrier plan (see
    /// [`Comm::barrier`]) on every communicator, world included, so it can
    /// overlap with compute.
    pub fn ibarrier(&mut self) -> Result<Request> {
        let spec = self.spec_barrier()?;
        Ok(self.start_coll(spec, &[]))
    }

    /// Persistent barrier (`MPI_Barrier_init`).
    pub fn barrier_init(&mut self) -> Result<Request> {
        let spec = self.spec_barrier()?;
        Ok(self.init_coll(spec, &[]))
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    fn spec_bcast(&self, root: Rank, bytes: usize) -> Result<Spec> {
        self.world_of(root)?;
        self.spec(
            PlanKey::rooted(PlanOp::Bcast, root, bytes),
            bytes,
            |view, tuning, hier, dp| coll::build_bcast(view, tuning, hier, dp, root, bytes),
        )
    }

    /// Broadcast the fixed-size buffer `buf` from `root`. Every rank must pass
    /// a buffer of identical length. Size-adaptive: binomial tree for small
    /// payloads, scatter + ring allgather above the configured threshold.
    /// Repeated shapes hit the communicator's plan cache and skip planning.
    pub fn bcast_into<T: Pod>(&mut self, root: Rank, buf: &mut [T]) -> Result<()> {
        let spec = self.spec_bcast(root, size_of_val(buf))?;
        self.run_coll(&spec, bytes_of_mut(buf)).map(drop)
    }

    /// Nonblocking broadcast (`MPI_Ibcast`): the root contributes `buf`;
    /// on completion every rank's request yields the broadcast values via
    /// [`Request::take_values`]. All ranks must pass equal-length buffers
    /// (non-root contents are ignored).
    pub fn ibcast_into<T: Pod>(&mut self, root: Rank, buf: &[T]) -> Result<Request> {
        let spec = self.spec_bcast(root, size_of_val(buf))?;
        Ok(self.start_coll(spec, bytes_of(buf)))
    }

    /// Persistent broadcast (`MPI_Bcast_init`): binds `buf` as the payload
    /// (read on the root at every start; replaced with the broadcast values
    /// everywhere on completion, readable via [`Request::read_result`]).
    /// All ranks must pass equal-length buffers.
    pub fn bcast_init<T: Pod>(&mut self, root: Rank, buf: &[T]) -> Result<Request> {
        let spec = self.spec_bcast(root, size_of_val(buf))?;
        Ok(self.init_coll(spec, bytes_of(buf)))
    }

    // ------------------------------------------------------------------
    // Gather
    // ------------------------------------------------------------------

    fn spec_gather(&self, root: Rank, block: usize) -> Result<Spec> {
        self.world_of(root)?;
        self.spec(
            PlanKey::rooted(PlanOp::Gather, root, block),
            block,
            |view, _, _, _| coll::build_gather(view, root, block),
        )
    }

    /// Gather equal-sized contributions into a flat buffer at `root`:
    /// `recv[r * send.len() .. (r+1) * send.len()]` receives rank `r`'s
    /// `send`. Non-root ranks pass `None`.
    pub fn gather_into<T: Pod>(
        &mut self,
        root: Rank,
        send: &[T],
        recv: Option<&mut [T]>,
    ) -> Result<()> {
        let spec = self.spec_gather(root, size_of_val(send))?;
        if self.rank != root {
            return self.run_coll_send_only(&spec, bytes_of(send));
        }
        let recv = recv.ok_or_else(|| {
            MpiError::InvalidCollective("gather_into root must provide a receive buffer".into())
        })?;
        check_blocks(
            "gather_into receive buffer",
            recv.len(),
            self.size(),
            send.len(),
        )?;
        recv[root * send.len()..(root + 1) * send.len()].copy_from_slice(send);
        self.run_coll(&spec, bytes_of_mut(recv)).map(drop)
    }

    /// Nonblocking gather (`MPI_Igather`): on completion the root's request
    /// yields the flat `size × send.len()` buffer (rank `r`'s contribution at
    /// block `r`); non-root requests yield an empty result.
    pub fn igather_into<T: Pod>(&mut self, root: Rank, send: &[T]) -> Result<Request> {
        let spec = self.spec_gather(root, size_of_val(send))?;
        Ok(self.start_coll(spec, bytes_of(send)))
    }

    /// Persistent gather (`MPI_Gather_init`): binds `send` as this rank's
    /// contribution; the root's completed request carries the flat gathered
    /// buffer.
    pub fn gather_init<T: Pod>(&mut self, root: Rank, send: &[T]) -> Result<Request> {
        let spec = self.spec_gather(root, size_of_val(send))?;
        Ok(self.init_coll(spec, bytes_of(send)))
    }

    // ------------------------------------------------------------------
    // Scatter
    // ------------------------------------------------------------------

    /// `send` is the root's buffer (`size × block_elems` elements of `T`);
    /// everyone else's is ignored.
    fn spec_scatter<T: Pod>(
        &self,
        root: Rank,
        send: Option<&[T]>,
        block_elems: usize,
    ) -> Result<Spec> {
        self.world_of(root)?;
        if self.rank == root {
            let send = send.ok_or_else(|| {
                MpiError::InvalidCollective("scatter root must provide a send buffer".into())
            })?;
            check_blocks("scatter send buffer", send.len(), self.size(), block_elems)?;
        }
        let block = block_elems * size_of::<T>();
        self.spec(
            PlanKey::rooted(PlanOp::Scatter, root, block),
            block,
            |view, _, _, _| coll::build_scatter(view, root, block),
        )
    }

    /// Scatter equal blocks of `send` from `root` into every rank's `recv`:
    /// rank `r` receives `send[r * recv.len() .. (r+1) * recv.len()]`.
    /// Non-root ranks pass `None`.
    pub fn scatter_from<T: Pod>(
        &mut self,
        root: Rank,
        send: Option<&[T]>,
        recv: &mut [T],
    ) -> Result<()> {
        let spec = self.spec_scatter(root, send, recv.len())?;
        match send {
            Some(send) if self.rank == root => {
                self.run_coll_send_only(&spec, bytes_of(send))?;
                recv.copy_from_slice(&send[root * recv.len()..(root + 1) * recv.len()]);
                Ok(())
            }
            _ => self.run_coll(&spec, bytes_of_mut(recv)).map(drop),
        }
    }

    /// Nonblocking scatter (`MPI_Iscatter`): the root passes
    /// `Some(send)` with `size × block_elems` elements, everyone else `None`;
    /// on completion each rank's request yields its `block_elems`-element
    /// chunk.
    pub fn iscatter_from<T: Pod>(
        &mut self,
        root: Rank,
        send: Option<&[T]>,
        block_elems: usize,
    ) -> Result<Request> {
        let spec = self.spec_scatter(root, send, block_elems)?;
        Ok(self.start_coll(spec, send.map_or(&[], bytes_of)))
    }

    /// Persistent scatter (`MPI_Scatter_init`): the root binds `Some(send)`
    /// with `size × block_elems` elements, everyone else `None`; each
    /// completed request carries this rank's chunk.
    pub fn scatter_init<T: Pod>(
        &mut self,
        root: Rank,
        send: Option<&[T]>,
        block_elems: usize,
    ) -> Result<Request> {
        let spec = self.spec_scatter(root, send, block_elems)?;
        Ok(self.init_coll(spec, send.map_or(&[], bytes_of)))
    }

    // ------------------------------------------------------------------
    // Allgather
    // ------------------------------------------------------------------

    fn spec_allgather(&self, block: usize) -> Result<Spec> {
        self.spec(
            PlanKey::shaped(PlanOp::Allgather, block),
            block,
            |view, tuning, hier, dp| coll::build_allgather(view, tuning, hier, dp, block),
        )
    }

    /// Allgather equal-sized contributions into a flat buffer on every rank:
    /// `recv.len()` must equal `size × send.len()`. Size-adaptive: Bruck for
    /// small blocks, ring for large ones.
    pub fn allgather_into<T: Pod>(&mut self, send: &[T], recv: &mut [T]) -> Result<()> {
        check_blocks(
            "allgather_into receive buffer",
            recv.len(),
            self.size(),
            send.len(),
        )?;
        let spec = self.spec_allgather(size_of_val(send))?;
        recv[self.rank * send.len()..(self.rank + 1) * send.len()].copy_from_slice(send);
        self.run_coll(&spec, bytes_of_mut(recv)).map(drop)
    }

    /// Nonblocking allgather (`MPI_Iallgather`): on completion every rank's
    /// request yields the flat `size × send.len()` buffer with local rank
    /// `r`'s contribution at block `r`.
    pub fn iallgather_into<T: Pod>(&mut self, send: &[T]) -> Result<Request> {
        let spec = self.spec_allgather(size_of_val(send))?;
        Ok(self.start_coll(spec, bytes_of(send)))
    }

    /// Persistent allgather (`MPI_Allgather_init`): binds `send` as this
    /// rank's block of the flat `size × send.len()` result buffer.
    pub fn allgather_init<T: Pod>(&mut self, send: &[T]) -> Result<Request> {
        let spec = self.spec_allgather(size_of_val(send))?;
        Ok(self.init_coll(spec, bytes_of(send)))
    }

    // ------------------------------------------------------------------
    // Reduce
    // ------------------------------------------------------------------

    fn spec_reduce<T: Reducible>(&self, root: Rank, count: usize, op: ReduceOp) -> Result<Spec> {
        self.world_of(root)?;
        self.spec(
            PlanKey::reduction::<T>(PlanOp::Reduce, Some(root), count, op),
            count * size_of::<T>(),
            |view, tuning, hier, dp| {
                coll::build_reduce::<T>(view, tuning, hier, dp, root, count, op)
            },
        )
    }

    /// Reduce typed values to `root` (binomial tree; two-level across hosts
    /// when the hierarchy is selected). Returns `Some(result)` on the root,
    /// `None` elsewhere.
    pub fn reduce<T: Reducible>(
        &mut self,
        root: Rank,
        values: &[T],
        op: ReduceOp,
    ) -> Result<Option<Vec<T>>> {
        let spec = self.spec_reduce::<T>(root, values.len(), op)?;
        let mut buf = bytes_of(values).to_vec();
        let exec = self.run_coll(&spec, &mut buf)?;
        Ok((self.rank == root).then(|| vec_from_bytes(exec.result_slice(&buf))))
    }

    /// Nonblocking rooted reduce (`MPI_Ireduce`): on completion the root's
    /// request yields the element-wise reduction of all contributions via
    /// [`Request::take_values`]; non-root requests yield an empty result.
    pub fn ireduce<T: Reducible>(
        &mut self,
        root: Rank,
        values: &[T],
        op: ReduceOp,
    ) -> Result<Request> {
        let spec = self.spec_reduce::<T>(root, values.len(), op)?;
        Ok(self.start_coll(spec, bytes_of(values)))
    }

    /// Persistent rooted reduce (`MPI_Reduce_init`); see
    /// [`Comm::allreduce_init`] for the rebind rules. Only the root's
    /// completed request carries a result.
    pub fn reduce_init<T: Reducible>(
        &mut self,
        root: Rank,
        values: &[T],
        op: ReduceOp,
    ) -> Result<Request> {
        let spec = self.spec_reduce::<T>(root, values.len(), op)?;
        Ok(self.init_coll(spec, bytes_of(values)))
    }

    // ------------------------------------------------------------------
    // Allreduce
    // ------------------------------------------------------------------

    fn spec_allreduce<T: Reducible>(&self, count: usize, op: ReduceOp) -> Result<Spec> {
        self.spec(
            PlanKey::reduction::<T>(PlanOp::Allreduce, None, count, op),
            count * size_of::<T>(),
            |view, tuning, hier, dp| coll::build_allreduce::<T>(view, tuning, hier, dp, count, op),
        )
    }

    /// Allreduce typed values in place. Size-adaptive: recursive doubling for
    /// small payloads, Rabenseifner above the configured threshold, with
    /// power-of-two fold elimination for other rank counts.
    pub fn allreduce<T: Reducible>(&mut self, values: &mut [T], op: ReduceOp) -> Result<()> {
        let spec = self.spec_allreduce::<T>(values.len(), op)?;
        self.run_coll(&spec, bytes_of_mut(values)).map(drop)
    }

    /// Nonblocking allreduce (`MPI_Iallreduce`): on completion every rank's
    /// request yields the element-wise reduction of all contributions.
    pub fn iallreduce<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let spec = self.spec_allreduce::<T>(values.len(), op)?;
        Ok(self.start_coll(spec, bytes_of(values)))
    }

    /// Persistent allreduce (`MPI_Allreduce_init`): binds a copy of `values`
    /// as the contribution. Rewrite it between starts with
    /// [`Request::write_input`]; without a rewrite, a restart reduces the
    /// previous result again (the buffer is bound in place, as in MPI).
    pub fn allreduce_init<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let spec = self.spec_allreduce::<T>(values.len(), op)?;
        Ok(self.init_coll(spec, bytes_of(values)))
    }

    // ------------------------------------------------------------------
    // Reduce-scatter
    // ------------------------------------------------------------------

    fn spec_reduce_scatter<T: Reducible>(&self, count: usize, op: ReduceOp) -> Result<Spec> {
        check_divisible("reduce_scatter input", count, self.size())?;
        self.spec(
            PlanKey::reduction::<T>(PlanOp::ReduceScatter, None, count, op),
            count * size_of::<T>(),
            |view, tuning, _, _| coll::build_reduce_scatter::<T>(view, tuning, count, op),
        )
    }

    /// Reduce-scatter typed values; returns this rank's block. Size-adaptive:
    /// naive allreduce + selection for small payloads, recursive halving /
    /// pairwise exchange above the configured threshold. `values.len()` must
    /// be divisible by the rank count.
    pub fn reduce_scatter<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Vec<T>> {
        let spec = self.spec_reduce_scatter::<T>(values.len(), op)?;
        let mut buf = bytes_of(values).to_vec();
        let exec = self.run_coll(&spec, &mut buf)?;
        Ok(vec_from_bytes(exec.result_slice(&buf)))
    }

    /// Nonblocking reduce-scatter (`MPI_Ireduce_scatter_block`): on completion
    /// this rank's request yields its reduced block (`values.len() / size`
    /// elements). `values.len()` must be divisible by the rank count.
    pub fn ireduce_scatter<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let spec = self.spec_reduce_scatter::<T>(values.len(), op)?;
        Ok(self.start_coll(spec, bytes_of(values)))
    }

    /// Persistent reduce-scatter (`MPI_Reduce_scatter_block_init`);
    /// `values.len()` must be divisible by the rank count.
    pub fn reduce_scatter_init<T: Reducible>(
        &mut self,
        values: &[T],
        op: ReduceOp,
    ) -> Result<Request> {
        let spec = self.spec_reduce_scatter::<T>(values.len(), op)?;
        Ok(self.init_coll(spec, bytes_of(values)))
    }

    // ------------------------------------------------------------------
    // Scan / exscan
    // ------------------------------------------------------------------

    fn spec_scan<T: Reducible>(&self, count: usize, op: ReduceOp) -> Result<Spec> {
        self.spec(
            PlanKey::reduction::<T>(PlanOp::Scan, None, count, op),
            count * size_of::<T>(),
            |view, _, _, _| coll::build_scan::<T>(view, count, op),
        )
    }

    /// Inclusive prefix reduction (`MPI_Scan`), updated in place: rank `r`
    /// ends up with the element-wise reduction of ranks `0..=r`
    /// (Hillis–Steele recursive doubling over the plan layer; repeated
    /// shapes hit the plan cache).
    pub fn scan<T: Reducible>(&mut self, values: &mut [T], op: ReduceOp) -> Result<()> {
        let spec = self.spec_scan::<T>(values.len(), op)?;
        self.run_coll(&spec, bytes_of_mut(values)).map(drop)
    }

    /// Nonblocking inclusive prefix reduction (`MPI_Iscan`): on completion
    /// rank `r`'s request yields the element-wise reduction of ranks `0..=r`
    /// via [`Request::take_values`].
    pub fn iscan<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let spec = self.spec_scan::<T>(values.len(), op)?;
        Ok(self.start_coll(spec, bytes_of(values)))
    }

    /// Persistent inclusive prefix reduction (`MPI_Scan_init`); see
    /// [`Comm::allreduce_init`] for the rebind rules.
    pub fn scan_init<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let spec = self.spec_scan::<T>(values.len(), op)?;
        Ok(self.init_coll(spec, bytes_of(values)))
    }

    fn spec_exscan<T: Reducible>(&self, count: usize, op: ReduceOp) -> Result<Spec> {
        self.spec(
            PlanKey::reduction::<T>(PlanOp::Exscan, None, count, op),
            count * size_of::<T>(),
            |view, _, _, _| coll::build_exscan::<T>(view, count, op),
        )
    }

    /// Exclusive prefix reduction (`MPI_Exscan`), updated in place: rank
    /// `r > 0` ends up with the element-wise reduction of ranks `0..r`;
    /// rank 0's buffer is left untouched (the MPI "undefined" slot).
    pub fn exscan<T: Reducible>(&mut self, values: &mut [T], op: ReduceOp) -> Result<()> {
        let spec = self.spec_exscan::<T>(values.len(), op)?;
        self.run_coll(&spec, bytes_of_mut(values)).map(drop)
    }

    /// Nonblocking exclusive prefix reduction (`MPI_Iexscan`): on completion
    /// rank `r > 0`'s request yields the element-wise reduction of ranks
    /// `0..r`; rank 0's request yields an empty result (the MPI "undefined"
    /// slot).
    pub fn iexscan<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let spec = self.spec_exscan::<T>(values.len(), op)?;
        Ok(self.start_coll(spec, bytes_of(values)))
    }

    /// Persistent exclusive prefix reduction (`MPI_Exscan_init`); see
    /// [`Comm::allreduce_init`] for the rebind rules.
    pub fn exscan_init<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let spec = self.spec_exscan::<T>(values.len(), op)?;
        Ok(self.init_coll(spec, bytes_of(values)))
    }

    // ------------------------------------------------------------------
    // Alltoall
    // ------------------------------------------------------------------

    fn spec_alltoall<T: Pod>(&self, send: &[T]) -> Result<Spec> {
        let n = self.size();
        check_divisible("alltoall send buffer", send.len(), n)?;
        let block = size_of_val(send) / n;
        self.spec(
            PlanKey::shaped(PlanOp::Alltoall, block),
            n * block,
            |view, tuning, hier, dp| coll::build_alltoall(view, tuning, hier, dp, block),
        )
    }

    /// Complete exchange (`MPI_Alltoall`) of equal per-rank blocks: `send`
    /// holds `size × block_elems` elements with block `r` addressed to local
    /// rank `r`; `recv` (same shape) ends up with block `r` holding rank
    /// `r`'s contribution to this rank. Size-adaptive: the single-copy shm
    /// data plane when the exchange fits a window slot, the host-hierarchical
    /// composition above [`crate::config::CollTuning::hier_alltoall_min_bytes`],
    /// Bruck for blocks up to
    /// [`crate::config::CollTuning::alltoall_bruck_max_bytes`], pairwise
    /// exchange for the rest.
    pub fn alltoall<T: Pod>(&mut self, send: &[T], recv: &mut [T]) -> Result<()> {
        let spec = self.spec_alltoall(send)?;
        if recv.len() != send.len() {
            return Err(MpiError::InvalidCollective(format!(
                "alltoall receive buffer has {} elements, the send buffer {}",
                recv.len(),
                send.len()
            )));
        }
        // The plan runs in place: the buffer starts as the send image and
        // finishes as the receive image.
        recv.copy_from_slice(send);
        self.run_coll(&spec, bytes_of_mut(recv)).map(drop)
    }

    /// Nonblocking complete exchange (`MPI_Ialltoall`): `send` holds one
    /// equal block per rank (`size × block_elems` elements, block `r`
    /// addressed to local rank `r`); on completion the request yields the
    /// same-shaped buffer with block `r` holding rank `r`'s contribution.
    pub fn ialltoall<T: Pod>(&mut self, send: &[T]) -> Result<Request> {
        let spec = self.spec_alltoall(send)?;
        Ok(self.start_coll(spec, bytes_of(send)))
    }

    /// Persistent complete exchange (`MPI_Alltoall_init`): binds `send`
    /// (one equal block per rank) as the contribution; rewrite it between
    /// starts with [`Request::write_input`].
    pub fn alltoall_init<T: Pod>(&mut self, send: &[T]) -> Result<Request> {
        let spec = self.spec_alltoall(send)?;
        Ok(self.init_coll(spec, bytes_of(send)))
    }

    // ------------------------------------------------------------------
    // Alltoallv / alltoallw
    // ------------------------------------------------------------------

    /// The irregular exchanges are one definition: `op` is
    /// [`PlanOp::Alltoallv`] (counts in elements of `elem` bytes) or
    /// [`PlanOp::Alltoallw`] (counts in bytes, `elem == 1`). The plan runs
    /// over the packed send image followed by the packed receive image; the
    /// cache is probed with the caller's count slices as they are, and only a
    /// plan that enters it copies them.
    fn spec_irregular(
        &self,
        op: PlanOp,
        send_elems: usize,
        send_counts: &[usize],
        recv_counts: &[usize],
        elem: usize,
    ) -> Result<Spec> {
        let n = self.size();
        let byte_variant = op == PlanOp::Alltoallw;
        let name = if byte_variant {
            "alltoallw"
        } else {
            "alltoallv"
        };
        if send_counts.len() != n || recv_counts.len() != n {
            return Err(MpiError::InvalidCollective(format!(
                "{name} takes one send and one receive count per rank ({n} ranks, got {} / {})",
                send_counts.len(),
                recv_counts.len()
            )));
        }
        let send_sum: usize = send_counts.iter().sum();
        if send_elems != send_sum {
            return Err(MpiError::InvalidCollective(format!(
                "{name} send buffer has {send_elems} elements, counts sum to {send_sum}"
            )));
        }
        if send_counts[self.rank] != recv_counts[self.rank] {
            return Err(MpiError::InvalidCollective(format!(
                "{name} self segment disagrees: sending {} to self, expecting {}",
                send_counts[self.rank], recv_counts[self.rank]
            )));
        }
        self.spec(
            PlanKey::irregular(op, send_counts, recv_counts, elem),
            send_sum * elem,
            |view, _, _, dp| {
                coll::build_alltoallv(view, dp, send_counts, recv_counts, elem, byte_variant)
            },
        )
    }

    /// Irregular complete exchange (`MPI_Alltoallv`) in the **packed**
    /// layout: no displacement arrays — `send` concatenates the per-peer
    /// segments in rank order (`send_counts[r]` elements for local rank
    /// `r`), and the returned vector concatenates the received segments the
    /// same way (`recv_counts[r]` elements from rank `r`). Counts must agree
    /// pairwise across ranks (`send_counts[d]` here = `recv_counts[me]`
    /// there), as in MPI. Empty segments are free: a zero-count pair sends
    /// no message and touches no line. On a communicator with a shared
    /// window each non-empty segment is pulled straight out of the sender's
    /// slot when it fits the reader's share of it (`slot / size` bytes) and
    /// travels as a message between the two ranks otherwise; without a
    /// window every segment is a message of the flat pairwise exchange (see
    /// [`coll::build_alltoallv`]).
    pub fn alltoallv<T: Pod>(
        &mut self,
        send: &[T],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Vec<T>> {
        let spec = self.spec_irregular(
            PlanOp::Alltoallv,
            send.len(),
            send_counts,
            recv_counts,
            size_of::<T>(),
        )?;
        let mut buf = spec.plan.image(bytes_of(send));
        let exec = self.run_coll(&spec, &mut buf)?;
        Ok(vec_from_bytes(exec.result_slice(&buf)))
    }

    /// Nonblocking irregular complete exchange (`MPI_Ialltoallv`, packed
    /// layout — see [`Comm::alltoallv`]); on completion the request yields
    /// the packed receive segments.
    pub fn ialltoallv<T: Pod>(
        &mut self,
        send: &[T],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Request> {
        let spec = self.spec_irregular(
            PlanOp::Alltoallv,
            send.len(),
            send_counts,
            recv_counts,
            size_of::<T>(),
        )?;
        Ok(self.start_coll(spec, bytes_of(send)))
    }

    /// Persistent irregular complete exchange (`MPI_Alltoallv_init`, packed
    /// layout — see [`Comm::alltoallv`]). [`Request::write_input`] rewrites
    /// the packed send segments between starts.
    pub fn alltoallv_init<T: Pod>(
        &mut self,
        send: &[T],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Request> {
        let spec = self.spec_irregular(
            PlanOp::Alltoallv,
            send.len(),
            send_counts,
            recv_counts,
            size_of::<T>(),
        )?;
        Ok(self.init_coll(spec, bytes_of(send)))
    }

    /// Byte-granular irregular complete exchange — this API's rendition of
    /// `MPI_Alltoallw` (heterogeneous per-peer types reduce to per-peer byte
    /// counts once buffers are packed): segment sizes are given directly in
    /// bytes. Layout and zero-count semantics as in [`Comm::alltoallv`].
    pub fn alltoallw_bytes(
        &mut self,
        send: &[u8],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Vec<u8>> {
        let spec =
            self.spec_irregular(PlanOp::Alltoallw, send.len(), send_counts, recv_counts, 1)?;
        let mut buf = spec.plan.image(send);
        let exec = self.run_coll(&spec, &mut buf)?;
        Ok(exec.result_slice(&buf).to_vec())
    }

    /// Nonblocking byte-granular irregular complete exchange
    /// (`MPI_Ialltoallw`'s role here — see [`Comm::alltoallw_bytes`]); on
    /// completion the request yields the packed receive segments.
    pub fn ialltoallw(
        &mut self,
        send: &[u8],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Request> {
        let spec =
            self.spec_irregular(PlanOp::Alltoallw, send.len(), send_counts, recv_counts, 1)?;
        Ok(self.start_coll(spec, send))
    }

    /// Persistent byte-granular irregular complete exchange (see
    /// [`Comm::alltoallw_bytes`]).
    pub fn alltoallw_init(
        &mut self,
        send: &[u8],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Request> {
        let spec =
            self.spec_irregular(PlanOp::Alltoallw, send.len(), send_counts, recv_counts, 1)?;
        Ok(self.init_coll(spec, send))
    }
}
