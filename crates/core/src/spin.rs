//! One way to block, and the universe's failure state.
//!
//! # Blocking
//!
//! Every wait in the runtime is one call, `block_until(site, poison, poll)`.
//! Each `poll` makes one attempt and reports *ready* with a value, *moved*
//! (progress was made: the escalation restarts), *idle* (it goes one step
//! further) or *handed* (a completer will unpark this thread: park at once).
//! Only this function holds the backoff tiers (`spin_loop` hint batches,
//! scheduler yields, parked sleeps — how far each runs is the site's), the
//! directed-unpark park (see [`WaitCell`]), the restart on progress and the
//! failure check made before every backoff step; and it counts, per site,
//! the calls that had to wait ([`WaitStats`]).
//!
//! The sites ([`WaitSite`]): every blocking `Comm` call, waiting in
//! `Comm::drive_until`; the waits left inside a plan's send and the CXL
//! transport, on a peer already committed to what is waited for; the
//! agreement; the progress engine and [`crate::future::block_on`].
//!
//! The failure check has two strengths. By default it is
//! [`PoisonFlag::check`]. The sites that must outlive a recorded death (the
//! agreement, the barrier, the progress engine) check hard poison only; a
//! barrier's poll fails by itself once a straggler it waits on is recorded
//! dead, because that rank will never arrive.
//!
//! # Failure state (ULFM-style fault tolerance)
//!
//! [`PoisonFlag`] is the shared cell that in hardware would live in the
//! coherent CXL control plane. A rank that exits abnormally raises **hard
//! poison** ([`PoisonFlag::poison`]): every wait fails with
//! [`MpiError::PeerDead`] and the run aborts. A rank killed by fault
//! injection under [`crate::runtime::Universe::run_ft`] is a **recorded
//! death** ([`PoisonFlag::mark_dead`]): it bumps the failure epoch, and a
//! rank's waits fail with [`MpiError::ProcFailed`] until it acknowledges the
//! death ([`PoisonFlag::ack_failures`], `MPI_Comm_failure_ack`). The cell
//! also hosts the failure-tolerant agreement of `Comm::agree` and
//! `Comm::shrink` ([`PoisonFlag::agree`]).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::counters::{counter_section, Counter, RankCounters};
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
    /// The rank's counters, whose `waits` section every wait on this handle
    /// bumps (none on the universe's own flag).
    counters: Option<Arc<RankCounters>>,
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
    /// (zero) acknowledged-epoch watermark, counting the rank's waits into
    /// `counters`. The runtime hands one to each rank thread so failure
    /// acknowledgement is per rank, as in ULFM.
    pub fn for_rank(&self, counters: &Arc<RankCounters>) -> Self {
        PoisonFlag {
            inner: Arc::clone(&self.inner),
            acked: Arc::new(AtomicU64::new(0)),
            counters: Some(Arc::clone(counters)),
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
    /// Waits that must outlive a recorded death (agreement, the barriers) use
    /// this instead of [`PoisonFlag::check`].
    fn check_hard(&self) -> Result<()> {
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
        self.check_hard()?;
        if self.inner.epoch.load(Ordering::Acquire) > self.acked.load(Ordering::Acquire) {
            return Err(self.proc_failed());
        }
        Ok(())
    }

    /// Error out if `rank` is recorded dead: a wait for it to arrive would
    /// never end. One atomic load while nobody has died.
    pub(crate) fn check_alive(&self, rank: Rank) -> Result<()> {
        if self.epoch() > 0 && self.is_dead(rank) {
            return Err(self.proc_failed());
        }
        Ok(())
    }

    /// [`MpiError::ProcFailed`] naming every recorded death.
    fn proc_failed(&self) -> MpiError {
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
        MpiError::ProcFailed {
            ctx: 0,
            dead: dead.keys().copied().collect(),
            detail,
        }
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
    /// the in-flight cell (see [`PoisonFlag::mark_dead`]), so waiting
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
            // Wait until the cell completes or vanishes (a death invalidated
            // this epoch: re-join at the new one).
            let folded = block_until(WaitSite::Agree, self, || {
                let cells = self
                    .inner
                    .agreements
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                Ok(match cells.get(&key) {
                    Some(cell) if cell.done => Polled::Ready(Some((cell.and_val, cell.max_val))),
                    Some(_) => Polled::Idle,
                    None => Polled::Ready(None),
                })
            })?;
            if let Some((and_val, max_val)) = folded {
                return Ok((and_val, max_val, dead_members));
            }
        }
    }
}

/// Declare the wait sites, each with its backoff tiers and failure check
/// (`check_hard` where the wait must outlive a recorded death): the
/// crate-private [`WaitSite`] and the `waits` counter section.
macro_rules! wait_sites {
    ($($(#[$doc:meta])* $site:ident => $field:ident, $tiers:ident, $check:ident;)*) => {
        /// Where a thread blocks: one variant per `block_until` call site,
        /// which chooses the backoff tiers and the failure check, and names
        /// the count the wait goes into.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum WaitSite {
            $($(#[$doc])* $site,)*
        }

        counter_section! {
            /// Per wait site, the blocking calls that had to wait (whose first
            /// poll was not ready), surfaced by `Comm::wait_stats`.
            #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
            WaitStats / WaitSection {
                $($(#[$doc])* $field,)*
            }
        }

        impl WaitSite {
            fn tiers(self) -> Tiers {
                match self { $(WaitSite::$site => $tiers,)* }
            }

            fn check(self, poison: &PoisonFlag) -> Result<()> {
                match self { $(WaitSite::$site => poison.$check(),)* }
            }

            fn counter(self, waits: &WaitSection) -> &Counter {
                match self { $(WaitSite::$site => &waits.$field,)* }
            }
        }
    };
}

wait_sites! {
    /// A blocking receive (`recv`, `recv_owned`, a receive request's `wait`).
    Recv => recv, BACKOFF, check;
    /// A `wait` on a collective request.
    CollWait => coll_wait, BACKOFF, check;
    /// `Comm::wait_all`.
    WaitAll => wait_all, BACKOFF, check;
    /// `Comm::wait_any`.
    WaitAny => wait_any, BACKOFF, check;
    /// A blocking collective.
    Collective => collective, BACKOFF, check;
    /// A blocking send, or a plan's send, that flow control holds.
    Send => send, BACKOFF, check;
    /// A shared flag of the CXL transport (connection setup and the
    /// data-plane window's verdict).
    Flag => flag, BACKOFF, check;
    /// An RMA synchronization: `win_start`, `win_wait`, `win_lock`, and a
    /// window allocation waiting for its creator.
    RmaSync => rma_sync, BACKOFF, check;
    /// The rest of a matched message its sender is still publishing.
    Drain => drain, BACKOFF, check;
    /// The rest of a message a receive truncates.
    Truncation => truncation, BACKOFF, check;
    /// The world barrier (also closing a window's allocation and opening its
    /// free) or a window's fence (the CXL sequence-number barrier, the TCP
    /// transport's arrival cells).
    Barrier => barrier, BACKOFF, check_hard;
    /// The fault-tolerant agreement rendezvous.
    Agree => agree, BACKOFF, check_hard;
    /// The progress engine with nothing to drive, or everything stalled.
    Engine => engine, ENGINE, check_hard;
    /// `future::block_on`.
    BlockOn => block_on, EXECUTOR, check;
}

/// What one poll of a [`block_until`] wait found.
pub(crate) enum Polled<T> {
    /// The wait is over.
    Ready(T),
    /// Progress was made: poll again at once, escalation restarted.
    Moved,
    /// Nothing happened: back off one step further.
    Idle,
    /// Nothing happened, and a completer will unpark this thread: park now.
    Handed,
}

impl<T> From<Option<T>> for Polled<T> {
    /// `Some` is ready, `None` idle.
    fn from(found: Option<T>) -> Self {
        found.map_or(Polled::Idle, Polled::Ready)
    }
}

/// Block until `poll` reports [`Polled::Ready`], backing off as the site's
/// tiers say while it does not, and failing with the site's failure check
/// (see the module documentation). An error from `poll` ends the wait as it
/// is; a caller that handles the failure check's error apart (attributes or
/// maps it) returns its poll's errors as the ready value instead. A call
/// whose first poll is not ready counts once in `site`'s waits.
pub(crate) fn block_until<T>(
    site: WaitSite,
    poison: &PoisonFlag,
    mut poll: impl FnMut() -> Result<Polled<T>>,
) -> Result<T> {
    let mut outcome = poll()?;
    if !matches!(outcome, Polled::Ready(_)) {
        if let Some(counters) = &poison.counters {
            site.counter(&counters.waits).add(1);
        }
    }
    let mut step = 0;
    loop {
        step = match outcome {
            Polled::Ready(value) => return Ok(value),
            Polled::Moved => 0,
            Polled::Idle => back_off(site, poison, step, false)?,
            Polled::Handed => back_off(site, poison, step, true)?,
        };
        outcome = poll()?;
    }
}

/// How a site backs off: idle laps run `.0` batches of `spin_loop` hints
/// (doubling: 1, 2, 4, ...), then `.1` scheduler yields, then parks of `.2`
/// µs; a handed lap parks `.3` µs at once.
type Tiers = (u32, u32, u64, u64);

/// Most sites. Many yields, as a ring-full / ring-empty wait in a chunked
/// message lasts tens to hundreds of µs and a park (≥ 50 µs on Linux) there
/// is a bubble. A handed lap is registered with a [`WaitCell`] whose completer
/// unparks it, so its 2 ms park is only a safety net.
const BACKOFF: Tiers = (6, 1024, 50, 2000);
/// The progress engine: a sweep that found everything stalled yields (so the
/// threads that would unstall it run); one with nothing to drive naps until
/// an enqueue unparks it, 1 ms at most.
const ENGINE: Tiers = (0, u32::MAX, 1000, 1000);
/// `block_on`: a self-woken future is polled again after a yield; any other
/// naps until its waker fires, 50 µs at most.
const EXECUTOR: Tiers = (0, u32::MAX, 50, 50);

/// Whether the host has one logical CPU. There a wait's event comes from a
/// thread that needs this very core, so the spin tiers yield instead.
fn single_cpu() -> bool {
    static SINGLE: OnceLock<bool> = OnceLock::new();
    *SINGLE.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() == 1))
}

/// One unfinished lap of a [`block_until`] wait at escalation `step`: the
/// site's failure check, then its tier for the step, or its `handed` park.
/// Returns the next step. The one place a thread spins, yields or parks.
#[allow(clippy::disallowed_methods)]
fn back_off(site: WaitSite, poison: &PoisonFlag, step: u32, handed: bool) -> Result<u32> {
    site.check(poison)?;
    let (spins, yields, park, handed_park) = site.tiers();
    if handed {
        std::thread::park_timeout(Duration::from_micros(handed_park));
        return Ok(step);
    }
    if step < spins {
        if single_cpu() {
            std::thread::yield_now();
        } else {
            for _ in 0..(1u32 << step) {
                std::hint::spin_loop();
            }
        }
    } else if step - spins < yields {
        std::thread::yield_now();
    } else {
        std::thread::park_timeout(Duration::from_micros(park));
    }
    Ok(step.saturating_add(1))
}

/// The failure state of waits that belong to no rank ([`crate::future::block_on`]'s
/// executor): never raised.
pub(crate) fn unowned() -> &'static PoisonFlag {
    static UNOWNED: OnceLock<PoisonFlag> = OnceLock::new();
    UNOWNED.get_or_init(PoisonFlag::new)
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
    /// had a parked waiter. The list is drained in place, keeping its
    /// capacity, so a steady register / wake cycle allocates nothing.
    pub fn wake_all(&self) -> usize {
        let mut waiters = self.waiters.lock().unwrap_or_else(|e| e.into_inner());
        let woken = waiters.len();
        for t in waiters.drain(..) {
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
        let laps = BACKOFF.0 + BACKOFF.1 + 3;
        let step = (0..laps).try_fold(0, |step, _| back_off(WaitSite::Recv, &poison, step, false));
        assert_eq!(step.unwrap(), laps);
        // A handed lap parks without moving the escalation.
        assert_eq!(back_off(WaitSite::CollWait, &poison, 7, true).unwrap(), 7);
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
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
        // A waiter registered with a `WaitCell` parks handed; poison fails
        // its lap like any idle one, at every escalation step.
        let poison = PoisonFlag::new();
        let laps = BACKOFF.0 + BACKOFF.1 + 2;
        for step in 0..laps {
            back_off(WaitSite::CollWait, &poison, step, false).unwrap();
        }
        poison.poison("rank 0 panicked");
        for handed in [false, true] {
            assert!(matches!(
                back_off(WaitSite::CollWait, &poison, laps, handed),
                Err(MpiError::PeerDead(_))
            ));
        }
    }

    #[test]
    fn poisoned_wait_errors_with_first_reason() {
        let poison = PoisonFlag::new();
        assert!(poison.check().is_ok());
        poison.poison("rank 3 panicked");
        poison.poison("rank 1 panicked later");
        assert!(poison.is_poisoned());
        match block_until(WaitSite::Recv, &poison, || Ok(Polled::<()>::Idle)) {
            Err(MpiError::PeerDead(reason)) => assert!(reason.contains("rank 3")),
            other => panic!("expected PeerDead, got {other:?}"),
        }
    }

    #[test]
    fn a_tolerating_site_escalates_past_a_recorded_death() {
        // Under an unacknowledged death a barrier, the agreement and the
        // engine keep waiting — and keep backing off while they do, instead
        // of polling hot — where every other site fails.
        let universe = PoisonFlag::new();
        let rank = universe.for_rank(&Arc::default());
        universe.mark_dead(3, "killed");
        for site in [WaitSite::Barrier, WaitSite::Agree] {
            for step in 0..BACKOFF.0 + 2 {
                assert_eq!(
                    back_off(site, &rank, step, false).unwrap(),
                    step + 1,
                    "{site:?}"
                );
            }
        }
        assert!(matches!(
            back_off(WaitSite::Recv, &rank, 0, false),
            Err(MpiError::ProcFailed { .. })
        ));
        assert!(rank.check_alive(2).is_ok());
        assert!(matches!(
            rank.check_alive(3),
            Err(MpiError::ProcFailed { dead, .. }) if dead == vec![3]
        ));
    }

    #[test]
    fn waits_count_the_calls_whose_first_poll_was_not_ready() {
        let counters = Arc::new(RankCounters::default());
        let poison = PoisonFlag::new().for_rank(&counters);
        let ready_after = |idle: usize, first: Polled<u32>| {
            let (mut laps, mut first) = (0, Some(first));
            move || {
                laps += 1;
                Ok(match first.take() {
                    Some(first) => first,
                    None if laps <= idle => Polled::Idle,
                    None => Polled::Ready(7),
                })
            }
        };
        // Ready at once: no wait. Idle, moved or handed first: one wait per
        // call, however many laps it took.
        assert_eq!(
            block_until(WaitSite::Recv, &poison, ready_after(0, Polled::Ready(1))).unwrap(),
            1
        );
        for first in [Polled::Idle, Polled::Moved, Polled::Handed] {
            assert_eq!(
                block_until(WaitSite::Recv, &poison, ready_after(5, first)).unwrap(),
                7
            );
        }
        // A first poll that fails is no wait either.
        assert!(
            block_until(WaitSite::Recv, &poison, || Err::<Polled<()>, _>(
                MpiError::StaleRequest
            ))
            .is_err()
        );
        let waits = counters.waits.snapshot();
        assert_eq!(
            waits,
            WaitStats {
                recv: 3,
                ..WaitStats::default()
            }
        );
        // The universe's own flag counts nowhere.
        block_until(
            WaitSite::Recv,
            &PoisonFlag::new(),
            ready_after(1, Polled::Idle),
        )
        .unwrap();
        assert_eq!(counters.waits.snapshot(), waits);
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
        let a = universe.for_rank(&Arc::default());
        let b = universe.for_rank(&Arc::default());
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
        let a = universe.for_rank(&Arc::default());
        let b = universe.for_rank(&Arc::default());
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
                let p = universe.for_rank(&Arc::default());
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
                let p = universe.for_rank(&Arc::default());
                std::thread::spawn(move || p.agree(9, 1, &[0, 1, 2], u64::MAX, r as u64).unwrap())
            })
            .collect();
        let victim = universe.for_rank(&Arc::default());
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
