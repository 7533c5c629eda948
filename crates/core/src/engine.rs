//! The background progress engine ([`crate::config::ProgressMode::Thread`]):
//! one per-rank thread that drives every outstanding nonblocking collective
//! while the application computes, plus the shared operation cell
//! ([`OpCell`]) that hands completions back to waiters.
//!
//! # Two progress modes
//!
//! In [`Polling`](crate::config::ProgressMode::Polling) mode (the default)
//! collectives advance only inside `test`/`wait`-family calls — MPI's weak
//! progress. A *blocking* wait additionally drives every other outstanding
//! operation of the rank whenever its own stalls on remote peers
//! (cross-communicator opportunistic progress, gated by a per-rank poller
//! token — see `ProgressEngine::poll_siblings`). In
//! [`Thread`](crate::config::ProgressMode::Thread) mode the
//! engine thread (`cmpi-progress-<rank>`) drives every enqueued operation
//! with bounded io-lock holds, so an `iallreduce` completes while the caller
//! is busy computing and a subsequent `wait` merely observes the completion
//! flag — MPI's strong progress, the MPICH async-progress-thread idiom.
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
//! skips the attempt (`try_lock`) or waits.
//!
//! Completion is published **raw**: the engine stores the terminal
//! `Result<Status>` without applying the communicator's error handler or
//! extracting result bytes. The *caller* finalizes — takes the outcome,
//! maps failures through the error handler of the communicator it waits on,
//! and (for one-shot ops) consumes the state for its payload. Observable
//! error behavior is therefore identical in both modes.
//!
//! Lock order: cell slot → (shard → ctl →) io. The engine takes a slot
//! `try_lock` first and the io lock strictly inside it, the same order every
//! caller uses, so the two sides cannot deadlock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::comm::RankShared;
use crate::progress::{CollPlan, CollState, ProgressCounters};
use crate::spin::WaitCell;
use crate::types::{CtxId, Status};
use crate::Result;

/// How long the engine thread parks when it has nothing to drive. A directed
/// unpark from [`ProgressEngine::enqueue`] ends the nap early; the timeout
/// only bounds how long a lost wakeup (or a dropped universe) can linger.
const ENGINE_PARK: Duration = Duration::from_millis(1);

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
/// [`Polling`](crate::config::ProgressMode::Polling) mode blocked waiters
/// drive it cross-communicator via `ProgressEngine::poll_siblings` — the
/// `opal_progress` idiom: any wait stalled on remote peers advances *every*
/// outstanding operation of the rank, so on an oversubscribed host a single
/// scheduling quantum completes work for many submitter threads at once.
#[derive(Debug)]
pub struct ProgressEngine {
    state: Mutex<EngineState>,
    stop: AtomicBool,
    running: AtomicBool,
    /// Polling-mode poller token: at most one thread per rank sweeps the
    /// registry at a time. Losers park on their own cell's directed-unpark
    /// registry instead of contending for the io lock.
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

    /// Spawn the engine thread. `shared` is held weakly: the thread exits on
    /// its own once the rank's state is dropped, and parks (1 ms naps +
    /// directed unparks) whenever the queue is empty.
    pub(crate) fn start(&self, shared: Weak<RankShared>) {
        let mut st = self.state();
        if st.handle.is_some() {
            return;
        }
        self.stop.store(false, Ordering::Release);
        let rank = self.rank;
        let handle = std::thread::Builder::new()
            .name(format!("cmpi-progress-{rank}"))
            .spawn(move || engine_main(shared))
            .expect("spawn progress engine thread");
        st.handle = Some(handle);
        self.running.store(true, Ordering::Release);
    }

    /// Register a cell in the outstanding-operation registry (both modes)
    /// and, in Thread mode, ring the engine thread's doorbell. In Polling
    /// mode the registry is what lets a blocked waiter drive *sibling*
    /// operations opportunistically (`ProgressEngine::poll_siblings`).
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

    /// One engine sweep's worth of work: prune dead cells, clone the rest.
    fn sweep(&self) -> Vec<Arc<OpCell>> {
        let mut st = self.state();
        st.queue
            .retain(|c| c.active.load(Ordering::Acquire) && !c.is_done());
        st.queue.clone()
    }

    /// Try to become the rank's single Polling-mode poller. Returns `false`
    /// while the engine thread runs (Thread mode owns progress) or when
    /// another thread already holds the token. Pair with
    /// [`ProgressEngine::release_poller`].
    pub(crate) fn try_poller(&self) -> bool {
        !self.is_running()
            && self
                .poller
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
    }

    /// Release the poller token taken by [`ProgressEngine::try_poller`].
    pub(crate) fn release_poller(&self) {
        self.poller.store(false, Ordering::Release);
    }

    /// Drive every outstanding operation except `own` (which the caller
    /// drives itself) one bounded attempt each — cross-communicator
    /// opportunistic progress. Caller holds the poller token. Completed
    /// siblings are published via [`OpCell::complete`], so their waiters
    /// unpark immediately. Sibling ops are accounted to `ops_in_wait`: they
    /// ran inside a blocking wait, not a background thread. Allocation-free
    /// (this runs on every iteration of every Polling-mode wait): cells are
    /// visited by index under brief registry locks rather than by cloning
    /// the queue; pruning is left to [`ProgressEngine::enqueue`].
    pub(crate) fn drive_siblings(&self, rank: &RankShared, own: Option<&OpCell>) -> usize {
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
            ops += engine_drive(rank, &cell, &rank.counters.ops_in_wait);
        }
        ops
    }

    /// Opportunistic one-shot sweep for waits that have no operation cell of
    /// their own (blocking p2p receives): take the token if free, drive
    /// everything outstanding, release. `None` when another thread is
    /// already polling; `Some(0)` while the engine thread runs.
    pub(crate) fn poll_siblings(&self, rank: &RankShared, own: Option<&OpCell>) -> Option<usize> {
        if self.is_running() {
            return Some(0);
        }
        if !self.try_poller() {
            return None;
        }
        let ops = self.drive_siblings(rank, own);
        self.release_poller();
        Some(ops)
    }

    /// A polling waiter is leaving (its operation completed): wake one
    /// parked waiter of a still-pending cell so the poller role is promptly
    /// re-filled instead of every sibling sleeping out its park timeout.
    /// No-op in Thread mode (the engine drives; nobody polls).
    pub(crate) fn handoff(&self, own: &OpCell) {
        if self.is_running() {
            return;
        }
        let pending: Vec<Arc<OpCell>> = {
            let st = self.state();
            st.queue
                .iter()
                .filter(|c| {
                    !std::ptr::eq(own, c.as_ref())
                        && c.active.load(Ordering::Acquire)
                        && !c.is_done()
                })
                .cloned()
                .collect()
        };
        for cell in pending {
            if cell.waiter.wake_all() > 0 {
                break;
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

/// The engine thread body: sweep the queue, drive each cell one bounded
/// attempt, park when idle.
fn engine_main(shared: Weak<RankShared>) {
    loop {
        let Some(rank) = shared.upgrade() else { return };
        if rank.engine.stop.load(Ordering::Acquire) {
            return;
        }
        let cells = rank.engine.sweep();
        if cells.is_empty() {
            // Nothing outstanding: nap until an enqueue rings the doorbell
            // (the timeout only bounds lost-wakeup / teardown latency).
            drop(cells);
            drop(rank);
            std::thread::park_timeout(ENGINE_PARK);
            continue;
        }
        let mut ops = 0usize;
        for cell in &cells {
            ops += engine_drive(&rank, cell, &rank.counters.ops_in_thread);
        }
        if ops == 0 {
            // Everything outstanding is stalled on remote peers; yield so
            // the submitting threads (sharing these cores) run.
            std::thread::yield_now();
        }
    }
}

/// Drive one cell one bounded progress attempt under the io lock, crediting
/// serviced schedule ops to `into` (`ops_in_thread` from the engine thread,
/// `ops_in_wait` from a polling waiter's sibling sweep). Returns the ops
/// serviced (0 when the caller holds the slot, the cell is already terminal,
/// or no progress was possible).
fn engine_drive(rank: &RankShared, cell: &OpCell, into: &AtomicU64) -> usize {
    if cell.is_done() || !cell.active.load(Ordering::Acquire) {
        return 0;
    }
    // A caller holding the slot is driving (or finalizing) this op itself —
    // skip rather than block the whole sweep behind one cell.
    let Ok(mut slot) = cell.slot.try_lock() else {
        return 0;
    };
    if slot.outcome.is_some() {
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
            ProgressCounters::add(into, step.ops as u64);
            if step.done {
                let status = state.completion_status();
                ProgressCounters::add(&rank.counters.colls_completed, 1);
                cell.complete(&mut slot, Ok(status));
            }
            step.ops
        }
        Err(e) => {
            // Publish the raw error; the waiting caller maps it through its
            // communicator's error handler at finalize.
            cell.complete(&mut slot, Err(e));
            0
        }
    }
}
