//! Fault tolerance on a communicator: the process-failure error handler and
//! the ULFM-style recovery operations.
//!
//! The recovery vocabulary of ULFM (User-Level Failure Mitigation), adapted
//! to the coherent CXL control plane: failure notification and agreement ride
//! the shared failure state instead of message floods. The canonical survivor
//! loop is
//!
//! ```text
//! match comm.allreduce(&mut x, op) {
//!     Ok(()) => ...,
//!     Err(MpiError::ProcFailed { .. }) | Err(MpiError::Revoked(..)) => {
//!         comm.revoke();            // cut off stragglers (optional)
//!         comm = comm.shrink()?;    // ack + agree + rebuild
//!         // re-balance work onto comm.size() survivors, retry
//!     }
//!     Err(e) => return Err(e),
//! }
//! ```
//!
//! requiring `comm.set_errhandler(ErrHandler::ErrorsReturn)` beforehand —
//! under the default `ErrorsAbort`, the first failure poisons the universe
//! exactly as before fault tolerance existed.

use std::sync::{Arc, Mutex};

use super::Comm;
use crate::error::MpiError;
use crate::group::Group;
use crate::spin::PoisonFlag;
use crate::types::{CtxId, Rank};
use crate::Result;

/// Per-communicator error-handling policy for **process failures** (the
/// `MPI_Errhandler` idiom, reduced to the two standard handlers). Selected
/// with [`Comm::set_errhandler`]; scoped to one context id, so a library can
/// run fault-tolerant recovery on its own duplicated communicator while the
/// application keeps fail-fast semantics on the world communicator.
///
/// The handler only governs *survivable* failures — [`MpiError::ProcFailed`]
/// from a fault-injected death ([`crate::runtime::Universe::run_ft`]) and
/// [`MpiError::Revoked`] from [`Comm::revoke`]. Ordinary errors (invalid
/// arguments, truncation, ...) are always returned, and a hard-poisoned
/// universe (a rank that panicked) always surfaces [`MpiError::PeerDead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrHandler {
    /// Escalate a process failure to a universe abort (the
    /// `MPI_ERRORS_ARE_FATAL` default): the poison flag is raised and every
    /// rank's next wait fails with [`MpiError::PeerDead`] — exactly the
    /// pre-fault-tolerance behaviour.
    #[default]
    ErrorsAbort,
    /// Return the failure to the caller (the `MPI_ERRORS_RETURN` idiom):
    /// the operation fails with [`MpiError::ProcFailed`] naming the dead
    /// ranks, but the universe stays up and the survivors can run the
    /// ULFM recovery sequence — [`Comm::revoke`], [`Comm::agree`],
    /// [`Comm::shrink`].
    ErrorsReturn,
}

/// Rewrite a failure error onto communicator `ctx` and apply `errh`, the
/// communicator's error handler.
///
/// [`MpiError::ProcFailed`] arrives from the failure state with a placeholder
/// context of 0; this stamps the real context. Under
/// [`ErrHandler::ErrorsAbort`] a survivable failure escalates to hard poison
/// (universe abort, [`MpiError::PeerDead`]); under
/// [`ErrHandler::ErrorsReturn`] it is returned as-is.
/// [`MpiError::RankKilled`] — the fault injector terminating *this* rank —
/// always passes through untouched so the runtime can record the death.
fn apply_errhandler(poison: &PoisonFlag, errh: ErrHandler, ctx: CtxId, e: MpiError) -> MpiError {
    let e = match e {
        MpiError::ProcFailed { dead, detail, .. } => MpiError::ProcFailed { ctx, dead, detail },
        other => other,
    };
    if !matches!(e, MpiError::ProcFailed { .. } | MpiError::Revoked(_)) {
        return e;
    }
    match errh {
        ErrHandler::ErrorsReturn => e,
        ErrHandler::ErrorsAbort => {
            let reason = e.to_string();
            poison.poison(reason.clone());
            MpiError::PeerDead(reason)
        }
    }
}

impl Comm {
    /// Rewrite a failure error onto this communicator and apply its error
    /// handler (see [`apply_errhandler`]). Takes the shard lock — call only
    /// **after** dropping any io-lock guard.
    pub(super) fn map_ft_err(&self, e: MpiError) -> MpiError {
        apply_errhandler(&self.shared.poison, self.errhandler(), self.ctx, e)
    }

    /// Failure precheck run at every collective/persistent start and send:
    /// errors (through the communicator's error handler) if this context has
    /// been revoked or a group member is recorded dead. Free in runs that
    /// never saw a fault-tolerance event — one atomic load.
    pub(super) fn ft_precheck(&self) -> Result<()> {
        let poison = &self.shared.poison;
        if !poison.ft_active() {
            return Ok(());
        }
        if poison.is_revoked(self.ctx) {
            return Err(self.map_ft_err(MpiError::Revoked(self.ctx)));
        }
        let dead = poison.dead_ranks();
        if !dead.is_empty() {
            let failed: Vec<Rank> = self
                .group
                .world_ranks()
                .iter()
                .copied()
                .filter(|r| dead.contains(r))
                .collect();
            if !failed.is_empty() {
                let detail = format!(
                    "{} of {} group members recorded dead before the operation started",
                    failed.len(),
                    self.group.size()
                );
                return Err(self.map_ft_err(MpiError::ProcFailed {
                    ctx: self.ctx,
                    dead: failed,
                    detail,
                }));
            }
        }
        Ok(())
    }

    /// Set this communicator's process-failure error handler
    /// (`MPI_Comm_set_errhandler`). Local and immediate. New communicators
    /// default to [`ErrHandler::ErrorsAbort`]; [`Comm::shrink`] carries the
    /// parent's handler onto the shrunk communicator.
    pub fn set_errhandler(&mut self, handler: ErrHandler) {
        self.shard().errhandler = handler;
    }

    /// This communicator's current process-failure error handler.
    pub fn errhandler(&self) -> ErrHandler {
        self.shard().errhandler
    }

    /// Acknowledge every failure this rank has observed so far
    /// (`MPI_Comm_failure_ack`): this rank's blocking waits stop raising
    /// [`MpiError::ProcFailed`] for the acknowledged deaths, so recovery code
    /// can keep communicating among survivors. Returns the acknowledged dead
    /// members of **this communicator**, as local ranks. The acknowledgement
    /// watermark is per rank (all communicator handles of the rank share it),
    /// matching ULFM.
    pub fn failure_ack(&mut self) -> Vec<Rank> {
        let dead = self.shared.poison.ack_failures();
        dead.iter()
            .filter_map(|w| self.group.local_rank_of(*w))
            .collect()
    }

    /// Mark this communicator revoked (`MPI_Comm_revoke`): every member's
    /// subsequent operation on this context fails with [`MpiError::Revoked`]
    /// (mapped through the error handler), cutting off ranks that have not
    /// yet noticed a failure so the group converges on recovery. Revocation
    /// is immediate and universe-visible through the shared control plane —
    /// the coherent-memory stand-in for ULFM's revocation flood — and is
    /// permanent for the context. Also drops this communicator's cached
    /// plans (counted in [`crate::plan::PlanCacheStats::invalidations`]).
    pub fn revoke(&mut self) {
        self.shared.poison.revoke(self.ctx);
        self.invalidate_plans();
    }

    /// Whether this communicator's context has been revoked by any member.
    pub fn is_revoked(&self) -> bool {
        self.shared.poison.is_revoked(self.ctx)
    }

    /// Drop every cached collective plan of this communicator, returning how
    /// many plans were dropped (also counted in
    /// [`crate::plan::PlanCacheStats::invalidations`]). Called by
    /// [`Comm::revoke`] and [`Comm::shrink`]; public so applications embedding
    /// their own recovery can force re-planning after membership or topology
    /// changes.
    pub fn invalidate_plans(&mut self) -> usize {
        self.shard()
            .plans
            .invalidate(&self.shared.counters.plan_cache)
    }

    /// Fault-tolerant agreement (`MPI_Comm_agree`): returns the bitwise AND
    /// of every live member's `flag` once all survivors have contributed.
    /// Deaths *during* the agreement are tolerated — the rendezvous restarts
    /// among the remaining survivors (see [`crate::spin::PoisonFlag::agree`]) —
    /// and the call works on a revoked communicator (ULFM requires both: this
    /// is the primitive recovery is built from). Collective over the live
    /// members; dead members are not waited on.
    pub fn agree(&mut self, flag: u64) -> Result<u64> {
        self.agree_inner(flag, 0).map(|(and, _, _)| and)
    }

    /// Shared agreement core for [`Comm::agree`] and [`Comm::shrink`]: folds
    /// AND over `flag` and MAX over `proposal`, returning both folds plus the
    /// dead-member snapshot of the epoch the agreement completed in (identical
    /// on every participant). Draws the per-context recovery sequence number
    /// that keys the shared rendezvous cell — disjoint-membership
    /// communicators sharing one context id (possible after `comm_split`)
    /// must not run recovery concurrently, as their cells would alias.
    fn agree_inner(&mut self, flag: u64, proposal: u64) -> Result<(u64, u64, Vec<Rank>)> {
        let seq = {
            let shard = &mut *self.shard();
            let seq = shard.recovery_seq;
            shard.recovery_seq = shard.recovery_seq.wrapping_add(1);
            seq
        };
        self.shared
            .poison
            .agree(self.ctx, seq, self.group.world_ranks(), flag, proposal)
            .map_err(|e| self.map_ft_err(e))
    }

    /// Build a working communicator from the survivors (`MPI_Comm_shrink`).
    /// Collective over the live members; every survivor must call it (dead
    /// members are, by definition, excused). The sequence is:
    ///
    /// 1. acknowledge observed failures (so recovery waits don't re-raise
    ///    the failure being recovered from),
    /// 2. revoke the old context (stragglers cannot start new operations on
    ///    it mid-recovery) and drop its cached plans,
    /// 3. run a fault-tolerant agreement folding MAX over each survivor's
    ///    next-context-id proposal — the agreement's epoch snapshot also
    ///    fixes the dead set, so every survivor derives the *same* shrunk
    ///    group without a second round,
    /// 4. provision the survivor communicator: parent-relative rank order,
    ///    fresh context id, eagerly created shared window, freshly derived
    ///    host hierarchy (leaders whose host lost its leader are re-elected
    ///    on first collective), inheriting the parent's error handler.
    ///
    /// The old context's shared window needs no repair: a member recorded
    /// dead counts as done wherever a survivor's expose consults completion
    /// lines, so a dead reader cannot wedge slot rotation there.
    ///
    /// Deaths during the shrink are tolerated by the agreement; deaths after
    /// its epoch snapshot surface as [`MpiError::ProcFailed`] on the *new*
    /// communicator, which can be shrunk again.
    pub fn shrink(&mut self) -> Result<Comm> {
        self.shared.poison.ack_failures();
        self.shared.poison.revoke(self.ctx);
        self.invalidate_plans();
        let proposal = self.shared.ctl().next_ctx as u64;
        let (_, agreed, dead) = self.agree_inner(u64::MAX, proposal)?;
        let new_ctx = agreed as CtxId;
        let survivors: Vec<Rank> = self
            .group
            .world_ranks()
            .iter()
            .copied()
            .filter(|r| !dead.contains(r))
            .collect();
        let group = Arc::new(Group::from_world_ranks(survivors)?);
        let my_local = group.local_rank_of(self.world_rank()).ok_or_else(|| {
            MpiError::InvalidCommunicator("shrink called by a rank recorded dead".into())
        })?;
        self.shared.ctl().next_ctx = new_ctx + 1;
        let handler = self.errhandler();
        let shard = self.shared.shard(new_ctx, group.size());
        shard.lock().unwrap_or_else(|e| e.into_inner()).errhandler = handler;
        self.shared
            .ensure_data_plane(new_ctx, group.world_ranks())
            .map_err(|e| apply_errhandler(&self.shared.poison, handler, new_ctx, e))?;
        Ok(Comm {
            shared: Arc::clone(&self.shared),
            shard,
            group,
            ctx: new_ctx,
            rank: my_local,
            hier: Mutex::new(None),
            arena: Vec::new(),
        })
    }
}
