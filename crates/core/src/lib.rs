//! # cmpi-core — MPI one-sided and two-sided communication over CXL memory sharing
//!
//! This crate is the Rust reimplementation of the cMPI system: an MPI-like
//! library whose inter-node point-to-point communication (both two-sided
//! send/receive and one-sided RMA) runs over CXL memory sharing instead of a
//! network stack, plus a simulated-TCP baseline transport so that the paper's
//! comparisons can be reproduced under one API.
//!
//! ## The communicator model
//!
//! Communication happens through [`comm::Comm`] handles. A communicator is a
//! ([`group::Group`], context id) pair:
//!
//! * the **group** is an ordered subset of the universe's ranks; all rank
//!   arguments and [`types::Status::source`] values are local to it;
//! * the **context id** ([`types::CtxId`]) is woven into the transport-level
//!   tag encoding of both transports, so traffic on one communicator can never
//!   match a receive posted on another — even with identical source, tag and
//!   destination.
//!
//! Every rank starts with the world communicator (context [`types::WORLD_CTX`])
//! and derives further communicators collectively with
//! [`comm::Comm::comm_dup`] (same group, isolated tag space) and
//! [`comm::Comm::comm_split`] (partition by color, order by key — row/column
//! communicators for stencils, per-host communicators, ...). Context ids are
//! agreed via a max-allreduce over the parent communicator, the MPICH scheme.
//!
//! Collectives are **datatype-generic and zero-copy**: `allreduce<T>`,
//! `bcast_into<T>`, `gather_into<T>`, `allgather_into<T>`, `scatter_from<T>`
//! move [`pod::Pod`] buffers (`f64`, `i32`, ... slices) through the byte
//! transports without per-element encoding. Each collective is defined once
//! and offered in three forms — blocking, nonblocking `i*`, persistent
//! `*_init` — that bind the same cached plan.
//!
//! ## Architecture
//!
//! * [`runtime`] — the [`runtime::Universe`] spawns one OS thread per MPI rank,
//!   assigns ranks to simulated hosts, builds the selected transport and hands
//!   each rank its world [`comm::Comm`].
//! * [`comm`] — the communicator layer, one file per concern: the handle,
//!   rank translation and context-id allocation (`comm/mod.rs`), two-sided
//!   communication and request completion (`p2p.rs`), the typed collectives
//!   and their per-communicator counters (`collectives.rs`), ULFM-style
//!   recovery (`ft.rs`) and the RMA window API (`rma.rs`).
//! * [`group`] — ordered rank subsets with world↔local translation.
//! * [`transport`] — the [`transport::Transport`] trait and its two
//!   implementations: [`transport::cxl::CxlTransport`] (per-pair streams
//!   promoted out of a shared receive queue — or the paper's eager cell-ring
//!   matrix —, collective exposure windows, RMA windows and synchronization
//!   flags in CXL shared memory, software cache coherence) and [`transport::tcp::TcpTransport`] (the MPICH-over-TCP
//!   baseline on the simulated NIC fabric). Both encode the context id in
//!   their wire-level tags.
//! * [`queue`] — the SPSC message-cell ring queues that carry two-sided
//!   messages through CXL shared memory (Section 3.3).
//! * [`rma`] — one-sided window layout and the PSCW / lock-unlock / fence
//!   synchronization built on CXL-resident flags (Sections 3.2 and 3.4).
//! * [`barrier`] — the sequence-number barrier that avoids cross-host atomic
//!   operations (Section 3.4), plus the dissemination barrier that serves
//!   arbitrary sub-communicator groups.
//! * [`coll`] — size- and shape-adaptive collectives (barrier, broadcast,
//!   allgather, allreduce, reduce, reduce-scatter, gather, scatter, scan,
//!   exscan, alltoall, alltoallv) layered on point-to-point over a
//!   [`coll::CommView`], the paper's Section 3.6 extension. Algorithms switch
//!   MPICH-style at one fixed payload crossover per operation, one
//!   function per plan chooses among the flat, two-level and shared-window
//!   paths, and the chosen algorithm is surfaced in
//!   [`runtime::RankReport::coll_algos`].
//! * [`dataplane`] — the shared-window single-copy collective data plane:
//!   per-communicator exposure windows in the CXL pool, notified-RMA-style
//!   flag completion, and the plan builders that let barrier / bcast /
//!   reduce / allreduce / allgather / alltoall move payloads with one
//!   coherent copy instead of two ring copies, on every communicator that
//!   has a window (sized by [`config::CollTuning::shm_arena_bytes`]; zero
//!   creates none), with the ring path as the universal fallback.
//! * [`spin`] — the one way to block: every wait in the runtime is a call to
//!   `spin::block_until` with a named site, which holds the tiered backoff
//!   and checks the universe's [`spin::PoisonFlag`], so a dead rank aborts
//!   the survivors with [`error::MpiError::PeerDead`] instead of hanging.
//! * [`progress`] — the progress engine: every collective algorithm compiles
//!   to an immutable, buffer- and sequence-agnostic [`progress::CollPlan`] of
//!   sends/receives/folds, bound per start to a lightweight
//!   [`progress::Execution`]; blocking collectives run the same op cursor
//!   to completion over their communicator's reusable arena, the
//!   MPI-3-style nonblocking `i*` collectives (`ibarrier`, `ibcast_into`,
//!   `iallreduce`, ...) advance it incrementally from `test`/`wait` for
//!   compute/communication overlap, and the MPI-4-style persistent `*_init`
//!   requests re-run it via `start`/`startall`.
//! * [`plan`] — the per-communicator LRU plan cache: repeated
//!   collectives of one shape (one-shot *or* persistent) skip planning
//!   entirely; hit/miss counters land in [`runtime::RankReport::plan_cache`]
//!   and the bound is [`plan::PLAN_CACHE_ENTRIES`].
//! * [`p2p`], [`request`] — context-scoped message matching, non-blocking
//!   requests (`wait`/`test`/`wait_all`/`wait_any`/`test_any`/`test_all`,
//!   unifying p2p receives and nonblocking collectives) and status.
//! * [`engine`] — the asynchronous serving engine: when
//!   [`config::ProgressMode::Thread`] is selected, a per-rank background
//!   progress thread drives every outstanding nonblocking/persistent
//!   collective so communication advances while the application computes
//!   (MPICH async-progress style). In the default
//!   [`config::ProgressMode::Polling`] mode progress is made from
//!   `test`/`wait` calls, as before.
//! * [`future`] — futures-style completion: [`Comm::poll_request`] exposes
//!   any request as a `std::task` poll point, [`future::CompletionFuture`]
//!   wraps request sets as a `Future`, and [`future::block_on`] /
//!   [`future::join_all`] give a dependency-free executor for overlap-heavy
//!   code.
//! * [`counters`] — the rank's counter block: every statistic declared once,
//!   bumped through one shared handle and read without a lock.
//! * [`datatype`], [`pod`] — datatype descriptions (contiguous/vector layouts
//!   with pack/unpack) and the [`pod::Pod`] zero-copy byte views the typed
//!   collectives are built on.
//!
//! Virtual time: every rank carries a [`cmpi_fabric::SimClock`]; transports
//! charge modelled costs to it and stamp messages/flags so receivers observe
//! causally consistent timestamps. Wall-clock speed is unrelated to the
//! simulated time — benchmarks report the virtual clocks.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod barrier;
pub mod coll;
pub mod comm;
pub mod config;
pub mod counters;
pub mod dataplane;
pub mod datatype;
pub mod engine;
pub mod error;
pub mod future;
pub mod group;
pub mod p2p;
pub mod plan;
#[cfg(test)]
mod plan_check;
pub mod pod;
pub mod progress;
pub mod queue;
pub mod request;
pub mod rma;
pub mod runtime;
pub mod spin;
pub mod topology;
pub mod transport;
pub mod types;

pub use comm::{Comm, CommCollStats, ErrHandler, SplitType};
pub use config::{
    CollTuning, ConnMode, CxlShmTransportConfig, FaultPlan, FaultTrigger, HierarchyMode,
    HostPlacement, ProgressMode, TcpTransportConfig, TransportConfig, UniverseConfig,
};
pub use error::MpiError;
pub use future::{block_on, join_all, CompletionFuture};
pub use group::Group;
pub use plan::PlanCacheStats;
pub use pod::Pod;
pub use progress::{CollPlan, Execution, ProgressStats};
pub use request::{Request, RequestState};
pub use runtime::{FtOutcome, RankReport, Universe};
pub use spin::{PoisonFlag, WaitCell, WaitStats};
pub use topology::{HostHierarchy, HostTopology};
pub use transport::{CompletionStats, DataPlaneStats, DpWindow, FaultInjector};
pub use types::{
    CtxId, Rank, ReduceOp, Reducible, Status, Tag, ANY_SOURCE, ANY_TAG, COLL_TAG_BASE, RETIRED_CTX,
    WORLD_CTX,
};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, MpiError>;
