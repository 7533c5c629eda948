//! Tiered spin-waiting, the universe poison (peer-death) flag, and the
//! fault-tolerance failure state.
//!
//! Every blocking wait in the runtime — the sequence-number barrier, the SPSC
//! ring full/empty waits, receive matching, the bakery lock doorway, request
//! combinators — used to be an ad-hoc `loop { spin_loop(); yield_now(); }`.
//! Two problems:
//!
//! 1. **Latency**: an unconditional `yield_now` on every iteration costs a
//!    syscall right when the peer is nanoseconds away from publishing; pure
//!    spinning, conversely, burns a core when the peer is milliseconds away.
//!    [`SpinWait`] escalates through the classic tiers instead: a few raw
//!    probes, then batches of `spin_loop` hints (pause instructions), then
//!    scheduler yields, then short parked sleeps.
//! 2. **Hangs**: a rank thread that dies mid-collective (panic, I/O error —
//!    e.g. `println!` hitting a closed stdout pipe under `| head`) left every
//!    surviving rank spinning forever. Every wait now threads a [`PoisonFlag`]
//!    that the runtime raises when any rank exits abnormally; the next backoff
//!    step observes it and fails the wait with [`MpiError::PeerDead`], so the
//!    universe aborts fast instead of deadlocking.
//!
//! # Failure state (ULFM-style fault tolerance)
//!
//! The flag doubles as the universe's **failure state**: the shared cell that
//! in hardware would live in the coherent CXL control plane. Two failure
//! severities share it:
//!
//! - **Hard poison** ([`PoisonFlag::poison`]): a rank exited *abnormally*
//!   (panic, unexpected error). Unrecoverable — every wait in the universe
//!   fails with [`MpiError::PeerDead`] and the run aborts. This is the
//!   pre-fault-tolerance behaviour and remains the default.
//! - **Recorded death** ([`PoisonFlag::mark_dead`]): a rank was killed by
//!   fault injection under [`crate::runtime::Universe::run_ft`]. The death
//!   bumps a monotonically increasing **failure epoch** and records the world
//!   rank in the dead set. Each rank holds a handle (via
//!   [`PoisonFlag::for_rank`]) with a private *acknowledged-epoch* watermark:
//!   a wait observing `epoch > acked` fails with [`MpiError::ProcFailed`],
//!   which the communicator layer maps through the per-communicator error
//!   handler. Acknowledging ([`PoisonFlag::ack_failures`], the
//!   `MPI_Comm_failure_ack` idiom) advances the watermark so recovery code can
//!   keep communicating among survivors.
//!
//! The failure state also hosts the **fault-tolerant agreement** cells used by
//! `Comm::agree` and `Comm::shrink`: an epoch-keyed rendezvous where all
//! survivors of the current epoch fold an AND-flag and a MAX-proposal. A death
//! *during* agreement bumps the epoch, which atomically invalidates the
//! in-flight rendezvous cell; survivors withdraw and re-agree among the new
//! (smaller) survivor set. This mirrors ULFM's requirement that
//! `MPI_Comm_agree` itself tolerate failures, using the coherent shared
//! control plane instead of a message-based consensus tree.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::error::MpiError;
use crate::types::{CtxId, Rank};
use crate::Result;

/// Shared peer-death flag and failure state of one universe. Cloned into every
/// rank's transport; the hard-poison half is raised (once) by the first rank
/// that exits abnormally, the failure-epoch half is advanced by each injected
/// rank death.
#[derive(Debug, Clone, Default)]
pub struct PoisonFlag {
    inner: Arc<PoisonInner>,
    /// Per-rank acknowledged failure epoch (`MPI_Comm_failure_ack` watermark).
    /// Plain `clone` shares it (handles within one rank agree on what has been
    /// acknowledged); [`PoisonFlag::for_rank`] makes a fresh one.
    acked: Arc<AtomicU64>,
}

/// One in-flight agreement rendezvous: survivors of a given failure epoch fold
/// their contributions; the last arriver marks it done. Keyed by
/// `(ctx, seq, epoch)` — a death bumps the epoch and removes the (undone)
/// cell, forcing all survivors to re-agree under the new key.
#[derive(Debug)]
struct AgreeCell {
    /// Number of survivors that must arrive (snapshot at cell creation; the
    /// epoch key guarantees every participant computed the same set).
    need: usize,
    arrived: usize,
    and_val: u64,
    max_val: u64,
    done: bool,
}

#[derive(Debug, Default)]
struct PoisonInner {
    dead: AtomicBool,
    reason: Mutex<Option<String>>,
    /// Failure epoch: bumped once per recorded death, always under the
    /// `dead_ranks` lock so (epoch, dead-set) snapshots are consistent.
    epoch: AtomicU64,
    /// World ranks recorded dead by fault injection, with the cause.
    dead_ranks: Mutex<BTreeMap<Rank, String>>,
    /// Context ids revoked via `Comm::revoke`. Revocation lives in the shared
    /// control plane, so (unlike wire-level ULFM) propagation is immediate.
    revoked: Mutex<BTreeSet<CtxId>>,
    /// Count of `revoke` calls — the lock-free half of [`PoisonFlag::ft_active`].
    revokes: AtomicU64,
    /// Agreement rendezvous cells keyed `(ctx, seq, epoch)`.
    agreements: Mutex<HashMap<(CtxId, u32, u64), AgreeCell>>,
}

impl PoisonFlag {
    /// A fresh, un-poisoned flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle onto the same universe failure state but with a fresh
    /// (zero) acknowledged-epoch watermark. The runtime hands one to each
    /// rank thread so failure acknowledgement is per rank, as in ULFM.
    pub fn for_rank(&self) -> Self {
        PoisonFlag {
            inner: Arc::clone(&self.inner),
            acked: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Raise the hard-poison flag. The first caller's `reason` wins; later
    /// calls are no-ops so the original cause is what every surviving rank
    /// reports. Unrecoverable: use [`PoisonFlag::mark_dead`] for survivable
    /// (fault-injected) deaths.
    pub fn poison(&self, reason: impl Into<String>) {
        let mut slot = self.inner.reason.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(reason.into());
        }
        // Publish after the reason is stored so readers of `dead` always find
        // a reason.
        self.inner.dead.store(true, Ordering::Release);
    }

    /// Whether a peer has died abnormally (hard poison only; recorded deaths
    /// under fault tolerance do not set this).
    pub fn is_poisoned(&self) -> bool {
        self.inner.dead.load(Ordering::Acquire)
    }

    /// Record a survivable rank death: insert into the dead set and bump the
    /// failure epoch. Invalidates every agreement rendezvous still in flight
    /// (done cells are kept so ranks mid-read still observe the result).
    /// Called by the dying rank's own thread under `run_ft`, before it exits.
    pub fn mark_dead(&self, rank: Rank, reason: impl Into<String>) {
        let mut dead = self
            .inner
            .dead_ranks
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if dead.insert(rank, reason.into()).is_none() {
            // Bump under the lock so (epoch, dead-set) reads are consistent,
            // then purge undone rendezvous cells while still serialized
            // against joiners (which also hold the dead_ranks lock).
            self.inner.epoch.fetch_add(1, Ordering::AcqRel);
            let mut cells = self
                .inner
                .agreements
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            cells.retain(|_, c| c.done);
        }
    }

    /// Current failure epoch (number of recorded deaths).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Whether any fault-tolerance event (recorded death or revocation) has
    /// ever happened. Cheap (one atomic load on the common no-failure path) —
    /// the gate that keeps per-collective failure prechecks free in ordinary
    /// runs.
    pub fn ft_active(&self) -> bool {
        self.inner.epoch.load(Ordering::Acquire) > 0
            || self.inner.revokes.load(Ordering::Acquire) > 0
    }

    /// Whether `rank` (world rank) has been recorded dead.
    pub fn is_dead(&self, rank: Rank) -> bool {
        self.inner
            .dead_ranks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(&rank)
    }

    /// Snapshot of the recorded-dead world ranks (sorted).
    pub fn dead_ranks(&self) -> Vec<Rank> {
        self.inner
            .dead_ranks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .copied()
            .collect()
    }

    /// Acknowledge all failures recorded so far (the `MPI_Comm_failure_ack`
    /// idiom): advances this handle's watermark to the current epoch so
    /// [`PoisonFlag::check`] stops failing until the *next* death, and returns
    /// the acknowledged dead set.
    pub fn ack_failures(&self) -> Vec<Rank> {
        let dead = self
            .inner
            .dead_ranks
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Epoch read under the lock: consistent with the returned set.
        let epoch = self.inner.epoch.load(Ordering::Acquire);
        self.acked.store(epoch, Ordering::Release);
        dead.keys().copied().collect()
    }

    /// Mark a communicator context revoked (`MPI_Comm_revoke`). Immediate and
    /// universe-visible: the shared control plane stands in for ULFM's
    /// revocation flood.
    pub fn revoke(&self, ctx: CtxId) {
        self.inner
            .revoked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(ctx);
        self.inner.revokes.fetch_add(1, Ordering::AcqRel);
    }

    /// Whether a communicator context has been revoked.
    pub fn is_revoked(&self, ctx: CtxId) -> bool {
        self.inner
            .revoked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains(&ctx)
    }

    /// Error out if the universe is hard-poisoned (the unrecoverable check).
    /// Recovery-path waits (agreement, shrink) use this instead of
    /// [`PoisonFlag::check`] so freshly recorded deaths don't abort recovery.
    fn check_legacy(&self) -> Result<()> {
        if !self.is_poisoned() {
            return Ok(());
        }
        let reason = self
            .inner
            .reason
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .unwrap_or_else(|| "peer rank died".into());
        Err(MpiError::PeerDead(reason))
    }

    /// Error out if a peer has died (the check every spin loop performs).
    /// Hard poison yields [`MpiError::PeerDead`]; an unacknowledged recorded
    /// death yields [`MpiError::ProcFailed`] (with a placeholder ctx of 0 —
    /// the communicator layer rewrites it before surfacing to the user).
    /// In runs without fault injection the epoch stays 0 and this is exactly
    /// the pre-fault-tolerance check.
    pub fn check(&self) -> Result<()> {
        self.check_legacy()?;
        if self.inner.epoch.load(Ordering::Acquire) > self.acked.load(Ordering::Acquire) {
            let dead = self
                .inner
                .dead_ranks
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let detail = dead
                .values()
                .next()
                .cloned()
                .unwrap_or_else(|| "rank died".into());
            return Err(MpiError::ProcFailed {
                ctx: 0,
                dead: dead.keys().copied().collect(),
                detail,
            });
        }
        Ok(())
    }

    /// Fault-tolerant agreement among the survivors of `group` (world ranks):
    /// folds `flag` under bitwise AND and `proposal` under MAX, returning
    /// `(and, max, dead_members)` once every survivor of the current failure
    /// epoch has contributed. `seq` sequences successive agreements on the
    /// same context so concurrent recoveries never alias.
    ///
    /// `dead_members` is the dead subset of `group` snapshotted at the epoch
    /// the agreement completed in. Joins are serialized with deaths (below),
    /// so every participant of one completed cell joined at the same epoch
    /// and returns the **identical** snapshot — this is what lets every
    /// survivor of `Comm::shrink` derive the same shrunk group without a
    /// second round.
    ///
    /// Resilient to deaths mid-agreement: a death bumps the epoch and removes
    /// the in-flight cell (see [`PoisonFlag::mark_dead`]), so spinning
    /// participants observe the vanished cell and re-join under the new epoch
    /// with the smaller survivor set. Only hard poison aborts the wait.
    pub fn agree(
        &self,
        ctx: CtxId,
        seq: u32,
        group: &[Rank],
        flag: u64,
        proposal: u64,
    ) -> Result<(u64, u64, Vec<Rank>)> {
        loop {
            // Join (or create) the rendezvous cell for the current epoch.
            // Both locks are taken joiner-side in the same order as
            // `mark_dead` (dead_ranks, then agreements), so a join and a
            // death are fully serialized: every joiner that snapshots epoch E
            // lands in the cell keyed E before any E+1 purge can run.
            let (key, dead_members) = {
                let dead = self
                    .inner
                    .dead_ranks
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                let epoch = self.inner.epoch.load(Ordering::Acquire);
                let dead_members: Vec<Rank> = group
                    .iter()
                    .copied()
                    .filter(|r| dead.contains_key(r))
                    .collect();
                let need = group.len() - dead_members.len();
                let key = (ctx, seq, epoch);
                let mut cells = self
                    .inner
                    .agreements
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                // Prune finished cells two generations back: nobody can be
                // joining seq without having *read* the seq-1 result, so
                // cells at seq-2 and older are dead weight.
                cells.retain(|&(c, s, _), _| c != ctx || s + 1 >= seq);
                let cell = cells.entry(key).or_insert(AgreeCell {
                    need,
                    arrived: 0,
                    and_val: u64::MAX,
                    max_val: 0,
                    done: false,
                });
                cell.arrived += 1;
                cell.and_val &= flag;
                cell.max_val = cell.max_val.max(proposal);
                if cell.arrived >= cell.need {
                    cell.done = true;
                }
                (key, dead_members)
            };
            // Spin until the cell completes (return) or vanishes (a death
            // invalidated this epoch: retry). Hard poison still aborts.
            let mut w = SpinWait::new();
            loop {
                {
                    let cells = self
                        .inner
                        .agreements
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    match cells.get(&key) {
                        Some(cell) if cell.done => {
                            return Ok((cell.and_val, cell.max_val, dead_members))
                        }
                        Some(_) => {}
                        None => break, // epoch bumped; re-join at the new one
                    }
                }
                self.check_legacy()?;
                w.backoff();
            }
        }
    }
}

/// Iterations spent issuing `spin_loop` hint batches before yielding
/// (batch size doubles each iteration: 1, 2, 4, ... 2^SPIN_TIERS).
const SPIN_TIERS: u32 = 6;
/// Yield iterations before falling back to parked sleeps. Deliberately long:
/// ring-full / ring-empty waits inside a chunked message last tens to hundreds
/// of microseconds, and parking (≥ 50 µs granularity on Linux) right on that
/// critical path inserts pipeline bubbles. Yields keep the waiter responsive
/// for ~a millisecond; only genuinely long waits (barrier stragglers, receives
/// with no sender) reach the parking tier.
const YIELD_TIERS: u32 = 1024;
/// Park duration once fully backed off. Short enough that message latency
/// stays bounded, long enough that a stalled universe stops burning CPU.
const PARK_MICROS: u64 = 50;
/// Park duration for a waiter that registered a directed-unpark token with a
/// [`WaitCell`]: the completer (e.g. the background progress thread) unparks
/// it the instant the result is published, so the timeout is only a safety
/// net (poison checks, races around registration) and can be far longer than
/// the undirected 50 µs poll — the waiter burns no CPU while the engine
/// works.
const PARK_TOKEN_MICROS: u64 = 2000;
/// Yield iterations of the registered-wait escalation. Much shorter than
/// [`YIELD_TIERS`]: a registered waiter is not on the message critical path
/// (the progress thread is), so it should reach the cheap parked tier fast
/// instead of competing with the engine for cycles.
const REGISTERED_YIELD_TIERS: u32 = 32;

/// Whether the host exposes a single logical CPU. On such machines the
/// pause-hint spin tiers are pure waste: every event a wait can possibly be
/// waiting for must be produced by *another thread that needs this same
/// core*, so burning the quantum on `spin_loop` only delays the producer.
/// The escalation skips straight to scheduler yields instead.
fn single_cpu() -> bool {
    static SINGLE: OnceLock<bool> = OnceLock::new();
    *SINGLE.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() == 1))
}

/// Tiered backoff for one wait: spin → `spin_loop`-hint batches → `yield_now`
/// → park-with-timeout. Create one per logical wait (or [`SpinWait::reset`]
/// after progress) so the escalation restarts whenever the peer is making
/// progress.
#[derive(Debug, Default)]
pub struct SpinWait {
    step: u32,
}

impl SpinWait {
    /// A wait at the start of its escalation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restart the escalation (call after observing progress).
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// One backoff step. Checks `poison` first so a wait on a dead universe
    /// errors with [`MpiError::PeerDead`] (or, under fault tolerance, an
    /// unacknowledged death errors with [`MpiError::ProcFailed`]) instead of
    /// blocking forever.
    pub fn wait(&mut self, poison: &PoisonFlag) -> Result<()> {
        poison.check()?;
        self.backoff();
        Ok(())
    }

    /// One backoff step for a waiter that registered itself with a
    /// [`WaitCell`]: same poison check, but the escalation reaches the parked
    /// tier quickly and parks *long* — the completer's directed unpark (not
    /// the timeout) is what ends the sleep, so completion latency is the
    /// unpark latency, not a backoff tier boundary.
    pub fn wait_registered(&mut self, poison: &PoisonFlag) -> Result<()> {
        poison.check()?;
        if self.step < SPIN_TIERS {
            if single_cpu() {
                std::thread::yield_now();
            } else {
                for _ in 0..(1u32 << self.step) {
                    std::hint::spin_loop();
                }
            }
        } else if self.step < SPIN_TIERS + REGISTERED_YIELD_TIERS {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(Duration::from_micros(PARK_TOKEN_MICROS));
        }
        self.step = self.step.saturating_add(1);
        Ok(())
    }

    /// One parked step for a waiter that registered with a [`WaitCell`] and
    /// *knows* a completer will unpark it (e.g. it lost the per-rank poller
    /// token, so the active poller drives its operation too): poison check,
    /// then park immediately with no spin/yield escalation — on an
    /// oversubscribed host every yield only steals cycles from the thread
    /// doing the work. The timeout is a lost-wakeup safety net.
    pub fn park_registered(poison: &PoisonFlag) -> Result<()> {
        poison.check()?;
        std::thread::park_timeout(Duration::from_micros(PARK_TOKEN_MICROS));
        Ok(())
    }

    /// The raw escalation step, with no failure check. Used by recovery-path
    /// waits that layer their own (softer) checks on top.
    fn backoff(&mut self) {
        if self.step < SPIN_TIERS {
            if single_cpu() {
                std::thread::yield_now();
            } else {
                for _ in 0..(1u32 << self.step) {
                    std::hint::spin_loop();
                }
            }
        } else if self.step < SPIN_TIERS + YIELD_TIERS {
            std::thread::yield_now();
        } else {
            // Nobody unparks us by token; the timeout bounds the sleep and the
            // next poison check keeps peer-death detection prompt. Waits that
            // *do* hold an unpark token use [`SpinWait::wait_registered`].
            std::thread::park_timeout(Duration::from_micros(PARK_MICROS));
        }
        self.step = self.step.saturating_add(1);
    }
}

/// A directed-unpark slot: threads about to park on a condition register
/// their handle here first; whoever makes the condition true calls
/// [`WaitCell::wake_all`] and every registered thread is unparked
/// immediately instead of sleeping out its park timeout. Registration uses
/// `std::thread::park` token semantics, so the race-free protocol is:
/// register, re-check the condition, park; a wake that lands between the
/// check and the park leaves the token set and the park returns at once.
#[derive(Debug, Default)]
pub struct WaitCell {
    waiters: Mutex<Vec<std::thread::Thread>>,
}

impl WaitCell {
    /// An empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the calling thread as a waiter. Idempotent; pair with
    /// [`WaitCell::deregister`] when the wait ends without a wake.
    pub fn register(&self) {
        let me = std::thread::current();
        let mut waiters = self.waiters.lock().unwrap_or_else(|e| e.into_inner());
        if !waiters.iter().any(|t| t.id() == me.id()) {
            waiters.push(me);
        }
    }

    /// Remove the calling thread from the waiter list.
    pub fn deregister(&self) {
        let me = std::thread::current().id();
        self.waiters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|t| t.id() != me);
    }

    /// Unpark every registered waiter (and clear the list — waiters
    /// re-register if they go back to sleep). Returns how many threads were
    /// woken, so hand-off paths can stop after the first cell that actually
    /// had a parked waiter.
    pub fn wake_all(&self) -> usize {
        let drained: Vec<_> = {
            let mut waiters = self.waiters.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *waiters)
        };
        let woken = drained.len();
        for t in drained {
            t.unpark();
        }
        woken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpoisoned_wait_progresses_through_tiers() {
        let poison = PoisonFlag::new();
        let mut w = SpinWait::new();
        for _ in 0..(SPIN_TIERS + YIELD_TIERS + 3) {
            w.wait(&poison).unwrap();
        }
        w.reset();
        assert_eq!(w.step, 0);
    }

    #[test]
    fn directed_unpark_beats_park_timeout() {
        // The waiter parks for up to 500 ms per iteration; the signaler
        // publishes after ~20 ms and wakes it by token. If the directed
        // unpark were lost the waiter would sleep out a full 500 ms park, so
        // the latency bound below fails; with it, wakeup is immediate.
        use std::sync::atomic::AtomicBool;
        let cell = Arc::new(WaitCell::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (c2, f2) = (Arc::clone(&cell), Arc::clone(&flag));
        let waiter = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            c2.register();
            while !f2.load(Ordering::Acquire) {
                std::thread::park_timeout(Duration::from_millis(500));
            }
            c2.deregister();
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::Release);
        cell.wake_all();
        let elapsed = waiter.join().unwrap();
        assert!(
            elapsed < Duration::from_millis(200),
            "completion-to-wakeup latency too high: {elapsed:?} (directed unpark lost?)"
        );
    }

    #[test]
    fn registered_wait_escalation_is_poison_aware() {
        let poison = PoisonFlag::new();
        let mut w = SpinWait::new();
        for _ in 0..(SPIN_TIERS + REGISTERED_YIELD_TIERS + 2) {
            w.wait_registered(&poison).unwrap();
        }
        poison.poison("rank 0 panicked");
        assert!(matches!(
            w.wait_registered(&poison),
            Err(MpiError::PeerDead(_))
        ));
    }

    #[test]
    fn poisoned_wait_errors_with_first_reason() {
        let poison = PoisonFlag::new();
        assert!(poison.check().is_ok());
        poison.poison("rank 3 panicked");
        poison.poison("rank 1 panicked later");
        assert!(poison.is_poisoned());
        let mut w = SpinWait::new();
        match w.wait(&poison) {
            Err(MpiError::PeerDead(reason)) => assert!(reason.contains("rank 3")),
            other => panic!("expected PeerDead, got {other:?}"),
        }
    }

    #[test]
    fn clones_share_the_flag() {
        let a = PoisonFlag::new();
        let b = a.clone();
        b.poison("x");
        assert!(a.is_poisoned());
    }

    #[test]
    fn recorded_death_raises_proc_failed_until_acked() {
        let universe = PoisonFlag::new();
        let a = universe.for_rank();
        let b = universe.for_rank();
        assert_eq!(a.epoch(), 0);
        assert!(a.check().is_ok());

        b.mark_dead(2, "killed at send #3");
        assert_eq!(a.epoch(), 1);
        assert!(a.is_dead(2));
        assert!(!a.is_poisoned(), "recorded death is not hard poison");
        match a.check() {
            Err(MpiError::ProcFailed { ctx, dead, .. }) => {
                assert_eq!(ctx, 0);
                assert_eq!(dead, vec![2]);
            }
            other => panic!("expected ProcFailed, got {other:?}"),
        }
        // b has its own watermark: it too observes the failure.
        assert!(b.check().is_err());

        // Acknowledging scopes the error to this handle only.
        assert_eq!(a.ack_failures(), vec![2]);
        assert!(a.check().is_ok());
        assert!(b.check().is_err(), "other rank has not acked yet");

        // A second death re-raises on the acked handle.
        b.mark_dead(4, "killed at publish #1");
        assert!(a.check().is_err());
        assert_eq!(a.ack_failures(), vec![2, 4]);
        assert!(a.check().is_ok());

        // Duplicate recording does not bump the epoch again.
        let e = a.epoch();
        b.mark_dead(4, "again");
        assert_eq!(a.epoch(), e);
        assert!(a.check().is_ok());
    }

    #[test]
    fn revocation_is_shared_and_per_ctx() {
        let universe = PoisonFlag::new();
        let a = universe.for_rank();
        let b = universe.for_rank();
        assert!(!a.is_revoked(7));
        b.revoke(7);
        assert!(a.is_revoked(7));
        assert!(!a.is_revoked(8));
    }

    #[test]
    fn agreement_folds_and_and_max_across_threads() {
        let universe = PoisonFlag::new();
        let handles: Vec<_> = (0..4)
            .map(|r| {
                let p = universe.for_rank();
                std::thread::spawn(move || {
                    let flag = if r == 2 { 0 } else { u64::MAX };
                    p.agree(5, 1, &[0, 1, 2, 3], flag, 100 + r as u64).unwrap()
                })
            })
            .collect();
        for h in handles {
            let (and, max, dead) = h.join().unwrap();
            assert_eq!(and, 0, "rank 2 voted false");
            assert_eq!(max, 103);
            assert!(dead.is_empty());
        }
    }

    #[test]
    fn agreement_survives_death_mid_rendezvous() {
        // Ranks 0 and 1 join the agreement; rank 2 dies instead of joining.
        // The death bumps the epoch, invalidating the half-full cell, and the
        // two survivors re-agree among themselves.
        let universe = PoisonFlag::new();
        let survivors: Vec<_> = (0..2)
            .map(|r| {
                let p = universe.for_rank();
                std::thread::spawn(move || p.agree(9, 1, &[0, 1, 2], u64::MAX, r as u64).unwrap())
            })
            .collect();
        let victim = universe.for_rank();
        // Let the survivors join the 3-party cell first, then record the
        // death; their spin must escape to the 2-party retry.
        std::thread::sleep(std::time::Duration::from_millis(20));
        victim.mark_dead(2, "injected");
        for h in survivors {
            let (and, max, dead) = h.join().unwrap();
            assert_eq!(and, u64::MAX);
            assert_eq!(max, 1);
            assert_eq!(dead, vec![2], "completed cell reports the death snapshot");
        }
    }
}
