//! The background progress engine ([`crate::config::ProgressMode::Thread`]):
//! one per-rank thread that drives every outstanding nonblocking collective
//! while the application computes, plus the shared operation cell
//! ([`OpCell`]) that hands completions back to waiters.
//!
//! # Two progress modes
//!
//! In [`Polling`](crate::config::ProgressMode::Polling) mode (the default)
//! collectives advance only inside the rank's own library calls — MPI's weak
//! progress, under one rule: every attempt of a blocking call, `wait`,
//! `test` or probe that did not finish drives every operation the rank has
//! started, on any communicator (one thread per rank at a time, holding a
//! poller token — see `ProgressEngine::drive_started`; every blocking call
//! applies it at each lap of its loop, `Comm::drive_until`). In
//! [`Thread`](crate::config::ProgressMode::Thread) mode the
//! engine thread (`cmpi-progress-<rank>`) drives every enqueued operation
//! with bounded io-lock holds, so an `iallreduce` completes while the caller
//! is busy computing and a subsequent `wait` merely observes the completion
//! flag — MPI's strong progress, the MPICH async-progress-thread idiom.
//! Either way an operation moves by one step, `OpCell::step`.
//!
//! # The operation cell
//!
//! Every nonblocking collective request holds an [`OpCell`], whether or not
//! the engine is running. The cell owns the resumable
//! [`CollState`] behind a small mutex (the
//! **slot**) and publishes completion through an atomic flag, so the
//! caller-facing fast paths — `test` in Thread mode, `poll` from the futures
//! adapter — are one atomic load. The engine and the caller synchronize
//! purely through the slot lock: whoever holds it drives; the other side
//! skips the attempt (`try_lock`).
//!
//! Completion is published **raw**: whoever drove the last step stores the
//! terminal `Result<Status>`, an error too, without applying the
//! communicator's error handler or extracting result bytes. The *caller*
//! finalizes — takes the outcome, maps failures through the error handler
//! of the communicator it waits on, and (for one-shot ops) consumes the
//! state for its payload. Observable error behavior is therefore identical
//! in both modes.
//!
//! Lock order: cell slot → (shard → ctl →) io. The engine takes a slot
//! `try_lock` first and the io lock strictly inside it, the same order every
//! caller uses, so the two sides cannot deadlock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;

use crate::comm::RankShared;
use crate::counters::Counter;
use crate::progress::{CollPlan, CollState};
use crate::spin::{block_until, PoisonFlag, Polled, WaitCell, WaitSite};
use crate::types::{CtxId, Status};
use crate::Result;

/// The state behind an [`OpCell`]'s slot lock: the resumable execution and,
/// once terminal, the raw outcome.
#[derive(Debug)]
pub struct OpSlot {
    /// The collective's bound execution + buffers. `Some` for the whole life
    /// of a persistent request; taken at finalize by one-shot completions.
    pub(crate) state: Option<Box<CollState>>,
    /// Terminal result, published by whoever drove the final step. Errors
    /// are stored raw (un-mapped); the finalizing caller applies the
    /// communicator's error handler.
    pub(crate) outcome: Option<Result<Status>>,
}

/// One outstanding nonblocking operation, shared between the request handle,
/// the waiting thread(s) and the background progress engine.
#[derive(Debug)]
pub struct OpCell {
    slot: Mutex<OpSlot>,
    /// Completion flag — the lock-free fast path for `test`/`poll`/`wait`.
    done: AtomicBool,
    /// Whether the engine should drive this cell. Set at enqueue, cleared on
    /// completion and by [`OpCell::cancel`]; a persistent restart sets it
    /// again. Inactive cells are skipped and eventually dropped from the
    /// engine queue.
    active: AtomicBool,
    /// Directed-unpark registry: threads blocked in `wait` register here and
    /// the completing side wakes exactly them — no timeout-polling sleeps on
    /// the completion path.
    waiter: WaitCell,
    /// Futures-adapter waker, woken alongside `waiter` on completion.
    waker: Mutex<Option<std::task::Waker>>,
    /// Context id of the owning communicator (sanity checks in debug builds).
    ctx: CtxId,
    /// The plan the cell executes (a second handle beside the execution's,
    /// so a start and introspection never take the slot lock).
    plan: Arc<CollPlan>,
}

impl OpCell {
    /// Wrap a bound collective state for communicator `ctx`.
    pub(crate) fn new(ctx: CtxId, state: CollState) -> Arc<Self> {
        let plan = Arc::clone(state.exec.plan());
        Arc::new(OpCell {
            slot: Mutex::new(OpSlot {
                state: Some(Box::new(state)),
                outcome: None,
            }),
            done: AtomicBool::new(false),
            active: AtomicBool::new(false),
            waiter: WaitCell::new(),
            waker: Mutex::new(None),
            ctx,
            plan,
        })
    }

    /// Whether the operation has reached its terminal state.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Context id of the owning communicator.
    pub(crate) fn ctx(&self) -> CtxId {
        self.ctx
    }

    /// The plan the cell executes.
    pub(crate) fn plan(&self) -> &CollPlan {
        &self.plan
    }

    /// Lock the slot (blocking — caller side).
    pub(crate) fn lock(&self) -> MutexGuard<'_, OpSlot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The waiter registry (caller side of the directed-unpark protocol:
    /// register, re-check [`OpCell::is_done`], then park).
    pub(crate) fn waiter(&self) -> &WaitCell {
        &self.waiter
    }

    /// Install (replace) the futures waker to be woken at completion.
    pub(crate) fn set_waker(&self, w: &std::task::Waker) {
        let mut slot = self.waker.lock().unwrap_or_else(|e| e.into_inner());
        match &mut *slot {
            Some(old) if old.will_wake(w) => {}
            other => *other = Some(w.clone()),
        }
    }

    /// Publish a terminal outcome (slot guard held by the caller) and wake
    /// every waiter — the single completion point used by both the engine
    /// and caller-driven progress.
    pub(crate) fn complete(&self, slot: &mut OpSlot, outcome: Result<Status>) {
        slot.outcome = Some(outcome);
        self.active.store(false, Ordering::Release);
        self.done.store(true, Ordering::Release);
        self.waiter.wake_all();
        let waker = self.waker.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Re-arm a completed persistent cell for another start (slot guard held
    /// by the caller, which has already restarted the execution).
    pub(crate) fn rearm(&self, slot: &mut OpSlot) {
        slot.outcome = None;
        self.done.store(false, Ordering::Release);
    }

    /// Mark the engine's interest (enqueue side).
    fn activate(&self) {
        self.active.store(true, Ordering::Release);
    }

    /// Withdraw the cell from engine driving (request failed, released or
    /// dropped mid-flight). Idempotent; the engine's next sweep drops it.
    pub(crate) fn cancel(&self) {
        self.active.store(false, Ordering::Release);
        self.done.store(true, Ordering::Release);
        self.waiter.wake_all();
    }

    /// Drive the operation one bounded attempt under the rank's io lock —
    /// the one step of every driver: the engine thread, the sweep of the
    /// rank's started operations, `test` and `wait`. Its schedule ops count
    /// into `into`, the driver's column; its outcome, an error too, is
    /// published raw ([`OpCell::complete`]), a completion also counting in
    /// `colls_completed`. Returns the ops serviced: none also when another
    /// thread holds the slot (driving or finalizing), or the cell is
    /// terminal or inactive.
    pub(crate) fn step(&self, rank: &RankShared, into: &Counter) -> usize {
        let Ok(mut slot) = self.slot.try_lock() else {
            return 0;
        };
        // Under the slot lock, a published outcome has set the done flag.
        if self.is_done() || !self.active.load(Ordering::Acquire) {
            return 0;
        }
        let Some(state) = slot.state.as_mut() else {
            return 0;
        };
        let step = {
            let io = &mut *rank.io();
            state.progress(io.transport.as_mut(), &mut io.clock)
        };
        match step {
            Ok(step) => {
                into.add(step.ops as u64);
                if step.done {
                    let status = state.completion_status();
                    rank.counters.progress.colls_completed.add(1);
                    self.complete(&mut slot, Ok(status));
                }
                step.ops
            }
            Err(e) => {
                self.complete(&mut slot, Err(e));
                0
            }
        }
    }
}

/// Engine-internal shared state: the work queue and the thread handle.
#[derive(Debug, Default)]
struct EngineState {
    /// Outstanding cells, pruned of completed/cancelled entries each sweep.
    queue: Vec<Arc<OpCell>>,
    /// The engine thread, if running.
    handle: Option<JoinHandle<()>>,
}

/// The per-rank background progress engine and outstanding-operation
/// registry. The registry is live in **both** progress modes: in
/// [`Thread`](crate::config::ProgressMode::Thread) mode the engine thread
/// (started by the world-communicator constructor, joined by
/// `ProgressEngine::shutdown`) drives it; in
/// [`Polling`](crate::config::ProgressMode::Polling) mode idle callers
/// drive it cross-communicator via `ProgressEngine::drive_started` — the
/// `opal_progress` idiom: any idle attempt advances *every* outstanding
/// operation of the rank, so on an oversubscribed host a single scheduling
/// quantum completes work for many submitter threads at once.
#[derive(Debug)]
pub struct ProgressEngine {
    state: Mutex<EngineState>,
    stop: AtomicBool,
    running: AtomicBool,
    /// Polling-mode poller token: at most one thread per rank sweeps the
    /// registry at a time. A collective `wait` that finds it taken parks on
    /// its own cell's directed-unpark registry instead of contending for the
    /// io lock.
    poller: AtomicBool,
    /// World rank (thread naming / diagnostics).
    rank: usize,
}

impl ProgressEngine {
    /// A stopped engine for world rank `rank`.
    pub(crate) fn new(rank: usize) -> Self {
        ProgressEngine {
            state: Mutex::new(EngineState::default()),
            stop: AtomicBool::new(false),
            running: AtomicBool::new(false),
            poller: AtomicBool::new(false),
            rank,
        }
    }

    /// Whether the engine thread is live (i.e. Thread mode and not yet shut
    /// down) — callers route waits through the parking path when it is.
    #[inline]
    pub fn is_running(&self) -> bool {
        self.running.load(Ordering::Acquire)
    }

    fn state(&self) -> MutexGuard<'_, EngineState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Spawn the engine thread, waiting on the rank's `poison` handle.
    /// `shared` is held weakly: the thread exits on its own once the rank's
    /// state is dropped, and parks (1 ms naps + directed unparks) whenever
    /// the queue is empty.
    pub(crate) fn start(&self, shared: Weak<RankShared>, poison: PoisonFlag) {
        let mut st = self.state();
        if st.handle.is_some() {
            return;
        }
        self.stop.store(false, Ordering::Release);
        let rank = self.rank;
        let handle = std::thread::Builder::new()
            .name(format!("cmpi-progress-{rank}"))
            .spawn(move || engine_main(shared, poison))
            .expect("spawn progress engine thread");
        st.handle = Some(handle);
        self.running.store(true, Ordering::Release);
    }

    /// Register a cell in the outstanding-operation registry (both modes)
    /// and, in Thread mode, ring the engine thread's doorbell. In Polling
    /// mode the registry is what an idle caller drives
    /// ([`ProgressEngine::drive_started`]).
    pub(crate) fn enqueue(&self, cell: Arc<OpCell>) {
        cell.activate();
        let mut st = self.state();
        // Piggyback pruning on registration so the registry stays bounded
        // even for requests completed purely by `test` polling (which never
        // triggers a sweep).
        st.queue
            .retain(|c| c.active.load(Ordering::Acquire) && !c.is_done());
        if !st.queue.iter().any(|c| Arc::ptr_eq(c, &cell)) {
            st.queue.push(cell);
        }
        if let Some(h) = &st.handle {
            h.thread().unpark();
        }
    }

    /// One engine sweep's worth of work: prune dead cells and refill `cells`
    /// (the engine thread's own buffer, so a sweep allocates nothing once it
    /// has held the largest queue) with the rest.
    fn sweep(&self, cells: &mut Vec<Arc<OpCell>>) {
        let mut st = self.state();
        st.queue
            .retain(|c| c.active.load(Ordering::Acquire) && !c.is_done());
        cells.clear();
        cells.extend(st.queue.iter().cloned());
    }

    /// The rank's one progress rule — MPI's, the `opal_progress` idiom:
    /// every attempt of a blocking call, `wait`, `test` or probe that did not
    /// finish drives every operation the rank has started, one
    /// [`OpCell::step`] each, except `own`, which the caller drives itself.
    /// At most one thread of a rank sweeps at a time, holding the poller
    /// token: `None` when another one holds it or the engine thread runs
    /// (Thread mode owns progress), else the ops serviced. Their ops count
    /// as `ops_in_wait` — they ran inside a caller's call, not on a
    /// background thread; a completion unparks its waiters. Allocation-free:
    /// cells are visited by index under brief registry locks rather than by
    /// cloning the queue; pruning is left to [`ProgressEngine::enqueue`].
    pub(crate) fn drive_started(&self, rank: &RankShared, own: Option<&OpCell>) -> Option<usize> {
        let token = !self.is_running()
            && self
                .poller
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
        if !token {
            return None;
        }
        let mut ops = 0usize;
        let mut i = 0usize;
        loop {
            let cell = {
                let st = self.state();
                match st.queue.get(i) {
                    Some(c) => Arc::clone(c),
                    None => break,
                }
            };
            i += 1;
            if own.is_some_and(|o| std::ptr::eq(o, cell.as_ref())) {
                continue;
            }
            ops += cell.step(rank, &rank.counters.progress.ops_in_wait);
        }
        self.poller.store(false, Ordering::Release);
        Some(ops)
    }

    /// A polling waiter is leaving (its operation completed): wake one
    /// parked waiter of a still-pending cell so the poller role is promptly
    /// re-filled instead of every sibling sleeping out its park timeout —
    /// the first pending cell, other than `own`, that has one. No-op in
    /// Thread mode (the engine drives; nobody polls). Allocation-free, like
    /// [`ProgressEngine::drive_started`]: cells are visited by index under
    /// brief registry locks.
    pub(crate) fn handoff(&self, own: &OpCell) {
        if self.is_running() {
            return;
        }
        let mut i = 0usize;
        loop {
            let cell = {
                let st = self.state();
                match st.queue.get(i) {
                    Some(c) => Arc::clone(c),
                    None => return,
                }
            };
            i += 1;
            let pending = !std::ptr::eq(own, cell.as_ref())
                && cell.active.load(Ordering::Acquire)
                && !cell.is_done();
            if pending && cell.waiter.wake_all() > 0 {
                return;
            }
        }
    }

    /// Stop and join the engine thread. Idempotent; called at rank teardown
    /// (and harmless in Polling mode). Never called from the engine thread
    /// itself.
    pub(crate) fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        let handle = {
            let mut st = self.state();
            st.queue.clear();
            st.handle.take()
        };
        if let Some(h) = handle {
            h.thread().unpark();
            let _ = h.join();
        }
        self.running.store(false, Ordering::Release);
    }
}

/// The engine thread body, until the rank stops the engine or drops its
/// state (or hard poison): sweep the queue, [`OpCell::step`] each cell, and
/// back off at the `Engine` wait site.
fn engine_main(shared: Weak<RankShared>, poison: PoisonFlag) {
    // The poll holds the rank only while it sweeps, never across a nap.
    let mut cells = Vec::new();
    let _ = block_until(WaitSite::Engine, &poison, || {
        let Some(rank) = shared.upgrade() else {
            return Ok(Polled::Ready(()));
        };
        if rank.engine.stop.load(Ordering::Acquire) {
            return Ok(Polled::Ready(()));
        }
        rank.engine.sweep(&mut cells);
        if cells.is_empty() {
            return Ok(Polled::Handed);
        }
        let mut ops = 0usize;
        for cell in &cells {
            ops += cell.step(&rank, &rank.counters.progress.ops_in_thread);
        }
        // Hold no cell past the sweep that drove it.
        cells.clear();
        Ok(match ops {
            0 => Polled::Idle,
            _ => Polled::Moved,
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::{CollPlan, Execution, Loc};

    fn cell() -> Arc<OpCell> {
        let plan = CollPlan::new(
            Vec::new(),
            0,
            None,
            Loc::Buf,
            (0, 0),
            (0, 0),
            0,
            "test/none",
        );
        OpCell::new(
            0,
            CollState::new(Execution::new(Arc::new(plan), 0), Vec::new(), 0),
        )
    }

    /// A leaving waiter skips its own cell, done cells and inactive cells,
    /// wakes the waiters of exactly the first other pending cell that has
    /// any, and does nothing while the engine thread runs.
    #[test]
    fn handoff_wakes_the_first_pending_cell_with_a_waiter() {
        let engine = ProgressEngine::new(0);
        let [own, done, inactive, unwatched, first, second] = std::array::from_fn(|_| cell());
        for c in [&own, &done, &inactive, &unwatched, &first, &second] {
            engine.enqueue(Arc::clone(c));
        }
        // Flagged after enqueueing, which prunes done and inactive cells.
        done.done.store(true, Ordering::Release);
        inactive.active.store(false, Ordering::Release);
        for c in [&own, &done, &inactive, &first, &second] {
            c.waiter.register();
        }

        engine.running.store(true, Ordering::Release);
        engine.handoff(&own);
        engine.running.store(false, Ordering::Release);
        engine.handoff(&own);

        // What is left registered: one wake in all, and it went to `first`
        // (had the running engine's hand-off woken `first`, the second
        // hand-off would have woken `second`).
        let left =
            [&own, &done, &inactive, &unwatched, &first, &second].map(|c| c.waiter.wake_all());
        assert_eq!(left, [1, 1, 1, 0, 0, 1]);
    }
}
