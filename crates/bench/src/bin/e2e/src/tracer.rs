//! Benchmark-side spans around every `Comm` call. The tracer sits between a
//! workload and the library, so per-call attribution needs no change inside
//! the program; with tracing off a call costs one predictable branch.

use std::time::Instant;

use cmpi_core::{Comm, Result};

use crate::json::Json;

/// What a span wraps. `Compute` and `Verify` are the benchmark's own work
/// inside a timed block (proxy-app arithmetic, payload checks), recorded so
/// that the shares of a timed region add up to the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Send,
    Recv,
    Wait,
    Sendrecv,
    Barrier,
    Bcast,
    Allreduce,
    Allgather,
    Alltoall,
    Alltoallv,
    Start,
    Put,
    Get,
    Accumulate,
    WinSync,
    WinLock,
    Compute,
    Verify,
}

impl Kind {
    pub const ALL: [Kind; 18] = [
        Kind::Send,
        Kind::Recv,
        Kind::Wait,
        Kind::Sendrecv,
        Kind::Barrier,
        Kind::Bcast,
        Kind::Allreduce,
        Kind::Allgather,
        Kind::Alltoall,
        Kind::Alltoallv,
        Kind::Start,
        Kind::Put,
        Kind::Get,
        Kind::Accumulate,
        Kind::WinSync,
        Kind::WinLock,
        Kind::Compute,
        Kind::Verify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Send => "send",
            Kind::Recv => "recv",
            Kind::Wait => "wait",
            Kind::Sendrecv => "sendrecv",
            Kind::Barrier => "barrier",
            Kind::Bcast => "bcast",
            Kind::Allreduce => "allreduce",
            Kind::Allgather => "allgather",
            Kind::Alltoall => "alltoall",
            Kind::Alltoallv => "alltoallv",
            Kind::Start => "start",
            Kind::Put => "put",
            Kind::Get => "get",
            Kind::Accumulate => "accumulate",
            Kind::WinSync => "win_sync",
            Kind::WinLock => "win_lock",
            Kind::Compute => "compute",
            Kind::Verify => "verify",
        }
    }
}

/// Phase of spans recorded outside any timed block (set-up, warm-up, the
/// barrier between blocks).
pub const UNTIMED: u32 = u32::MAX;

/// One call, on both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub bytes: usize,
    /// Index of the enclosing timed block in the launch's script, or
    /// [`UNTIMED`].
    pub phase: u32,
    /// Wall start/end, ns since the launch's epoch.
    pub wall: (u64, u64),
    /// Virtual start/end, the rank's simulated clock in ns.
    pub virt: (f64, f64),
}

impl Span {
    pub fn wall_ns(&self) -> f64 {
        (self.wall.1 - self.wall.0) as f64
    }

    pub fn virt_ns(&self) -> f64 {
        self.virt.1 - self.virt.0
    }

    pub fn to_json(self, workload: &str, launch: usize, rank: usize, phase_name: &str) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("launch", Json::Num(launch as f64)),
            ("rank", Json::Num(rank as f64)),
            ("kind", Json::str(self.kind.name())),
            ("bytes", Json::Num(self.bytes as f64)),
            ("phase", Json::str(phase_name)),
            ("wall_start_ns", Json::Num(self.wall.0 as f64)),
            ("wall_end_ns", Json::Num(self.wall.1 as f64)),
            ("virt_start_ns", Json::Num(self.virt.0)),
            ("virt_end_ns", Json::Num(self.virt.1)),
        ])
    }
}

/// Per-rank span recorder, kept in memory until the launch ends.
pub struct Tracer {
    spans: Option<Vec<Span>>,
    epoch: Instant,
    pub phase: u32,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            spans: enabled.then(|| Vec::with_capacity(1 << 16)),
            epoch,
            phase: UNTIMED,
        }
    }

    /// Run one `Comm` call, recording it when tracing is on. Benchmark-side
    /// work inside a timed block (`Compute`, `Verify`) goes through here too,
    /// with a closure that ignores or only charges the communicator's clock.
    #[inline]
    pub fn call<R>(
        &mut self,
        comm: &mut Comm,
        kind: Kind,
        bytes: usize,
        f: impl FnOnce(&mut Comm) -> Result<R>,
    ) -> Result<R> {
        let Some(spans) = &mut self.spans else {
            return f(comm);
        };
        // The virtual-clock reads sit inside the wall interval, so that what
        // tracing costs lands in the span and not between spans: the spans of
        // a block then tile it, and `trace.overhead_pct` says what they carry.
        let w0 = self.epoch.elapsed().as_nanos() as u64;
        let v0 = comm.clock_ns();
        let out = f(comm);
        let v1 = comm.clock_ns();
        spans.push(Span {
            kind,
            bytes,
            phase: self.phase,
            wall: (w0, self.epoch.elapsed().as_nanos() as u64),
            virt: (v0, v1),
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_kind_in_declaration_order_with_unique_names() {
        for (i, kind) in Kind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
        let mut names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Kind::ALL.len());
    }
}
