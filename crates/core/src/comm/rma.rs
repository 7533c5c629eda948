//! One-sided communication on a communicator: RMA window allocation,
//! `put`/`get`/`accumulate`, and the fence, PSCW and lock synchronization.
//!
//! RMA windows are provisioned against the full universe (queue matrices,
//! fence barriers and lock tables are sized for every rank), so the window
//! API is only available on world-spanning communicators; every window call
//! on a sub-communicator returns `MpiError::InvalidCommunicator`.

use std::sync::MutexGuard;

use super::{Comm, RankIo};
use crate::error::MpiError;
use crate::spin::WaitSite;
use crate::transport::WinId;
use crate::types::{Rank, ReduceOp};
use crate::Result;

impl Comm {
    /// The rank's io state, for a window call. Any world-spanning group works
    /// (window resources exist per world rank and accesses translate local →
    /// world), permuted by comm_split's keys too; true subsets do not.
    fn rma_io(&self) -> Result<MutexGuard<'_, RankIo>> {
        let io = self.shared.io();
        if !self.group.spans_world(io.transport.size()) {
            return Err(MpiError::InvalidCommunicator(
                "RMA windows are only supported on world-spanning communicators".into(),
            ));
        }
        Ok(io)
    }

    /// A window call that waits: one `attempt` per lap of `Comm::drive_until`
    /// at `site` (so what this rank started keeps moving), until it is done.
    fn rma_until(
        &self,
        site: WaitSite,
        mut attempt: impl FnMut(&mut RankIo) -> Result<bool>,
    ) -> Result<()> {
        self.drive_until(site, None, || {
            Ok(attempt(&mut *self.rma_io()?)?.then_some(()).into())
        })
    }

    /// Collectively allocate an RMA window exposing `size_per_rank` bytes per
    /// rank (the `MPI_Win_allocate_shared` equivalent over CXL SHM).
    pub fn win_allocate(&mut self, size_per_rank: usize) -> Result<WinId> {
        let win = self.drive_until(WaitSite::RmaSync, None, || {
            let io = &mut *self.rma_io()?;
            Ok(io
                .transport
                .win_allocate(&mut io.clock, size_per_rank)?
                .into())
        })?;
        self.rma_until(WaitSite::Barrier, |io| io.transport.barrier(&mut io.clock))?;
        Ok(win)
    }

    /// Collectively free a window.
    pub fn win_free(&mut self, win: WinId) -> Result<()> {
        self.rma_until(WaitSite::Barrier, |io| io.transport.barrier(&mut io.clock))?;
        let io = &mut *self.rma_io()?;
        io.transport.win_free(&mut io.clock, win)
    }

    /// One-sided write into `target`'s window region (`MPI_Put`).
    pub fn put(&mut self, win: WinId, target: Rank, offset: usize, data: &[u8]) -> Result<()> {
        let target = self.world_of(target)?;
        let io = &mut *self.rma_io()?;
        io.transport.put(&mut io.clock, win, target, offset, data)
    }

    /// One-sided read from `target`'s window region (`MPI_Get`).
    pub fn get(&mut self, win: WinId, target: Rank, offset: usize, buf: &mut [u8]) -> Result<()> {
        let target = self.world_of(target)?;
        let io = &mut *self.rma_io()?;
        io.transport.get(&mut io.clock, win, target, offset, buf)
    }

    /// One-sided accumulate into `target`'s window region (`MPI_Accumulate`).
    /// Element-wise, not atomic: accumulates to different elements all land,
    /// whatever cache lines they share; concurrent accumulates to the *same*
    /// element need [`Comm::win_lock`] around them.
    pub fn accumulate(
        &mut self,
        win: WinId,
        target: Rank,
        offset: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<()> {
        let target = self.world_of(target)?;
        let io = &mut *self.rma_io()?;
        io.transport
            .accumulate(&mut io.clock, win, target, offset, data, op)
    }

    /// Read this rank's own window region.
    pub fn win_read_local(&mut self, win: WinId, offset: usize, buf: &mut [u8]) -> Result<()> {
        let io = &mut *self.rma_io()?;
        io.transport.win_read_local(&mut io.clock, win, offset, buf)
    }

    /// Write this rank's own window region.
    pub fn win_write_local(&mut self, win: WinId, offset: usize, data: &[u8]) -> Result<()> {
        let io = &mut *self.rma_io()?;
        io.transport
            .win_write_local(&mut io.clock, win, offset, data)
    }

    /// PSCW: expose this rank's window to `origins` (`MPI_Win_post`).
    pub fn win_post(&mut self, win: WinId, origins: &[Rank]) -> Result<()> {
        let io = &mut *self.rma_io()?;
        self.world_group(origins, &mut io.pscw_group)?;
        io.transport.post(&mut io.clock, win, &io.pscw_group)
    }

    /// PSCW: start an access epoch to `targets` (`MPI_Win_start`), once each
    /// of them has posted.
    pub fn win_start(&mut self, win: WinId, targets: &[Rank]) -> Result<()> {
        self.rma_until(WaitSite::RmaSync, |io| {
            self.world_group(targets, &mut io.pscw_group)?;
            io.transport.start(&mut io.clock, win, &io.pscw_group)
        })
    }

    /// The world ranks of the local ranks `group`, into `out`.
    fn world_group(&self, group: &[Rank], out: &mut Vec<Rank>) -> Result<()> {
        out.clear();
        for &local in group {
            out.push(self.world_of(local)?);
        }
        Ok(())
    }

    /// PSCW: complete the access epoch (`MPI_Win_complete`).
    pub fn win_complete(&mut self, win: WinId) -> Result<()> {
        let io = &mut *self.rma_io()?;
        io.transport.complete(&mut io.clock, win)
    }

    /// PSCW: wait for the exposure epoch to finish (`MPI_Win_wait`).
    pub fn win_wait(&mut self, win: WinId) -> Result<()> {
        self.rma_until(WaitSite::RmaSync, |io| {
            io.transport.wait(&mut io.clock, win)
        })
    }

    /// Passive-target exclusive lock on `target`'s window (`MPI_Win_lock`).
    pub fn win_lock(&mut self, win: WinId, target: Rank) -> Result<()> {
        let target = self.world_of(target)?;
        self.rma_until(WaitSite::RmaSync, |io| {
            io.transport.lock(&mut io.clock, win, target)
        })
    }

    /// Release the passive-target lock (`MPI_Win_unlock`).
    pub fn win_unlock(&mut self, win: WinId, target: Rank) -> Result<()> {
        let target = self.world_of(target)?;
        let io = &mut *self.rma_io()?;
        io.transport.unlock(&mut io.clock, win, target)
    }

    /// Fence synchronization over the window (`MPI_Win_fence`).
    pub fn win_fence(&mut self, win: WinId) -> Result<()> {
        self.rma_until(WaitSite::Barrier, |io| {
            io.transport.fence(&mut io.clock, win)
        })
    }
}
