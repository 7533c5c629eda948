//! One-sided (RMA) support: window layout in CXL shared memory and the
//! synchronization primitives built on CXL-resident flags (Sections 3.2, 3.4).
//!
//! A window allocation creates **one** CXL SHM object holding, contiguously:
//!
//! 1. every rank's window data region (so any rank can compute any other
//!    rank's window address from the object base and the rank id, exactly as
//!    `MPI_Win_allocate_shared` lays segments out on a single host);
//! 2. the PSCW cell matrices (post cells stored by targets, complete cells
//!    stored by origins), one `(epoch number, timestamp)` cell per (origin,
//!    target) pair — written by one rank, never reset;
//! 3. per-target Lamport-bakery locks for passive-target synchronization —
//!    mutual exclusion from plain loads and stores only, since the CXL memory
//!    offers no cross-host atomics;
//! 4. a sequence-number barrier array used by `MPI_Win_fence`;
//! 5. a ready flag the allocating rank raises after formatting, so other ranks
//!    never observe a half-initialised window.

pub mod bakery;
pub mod layout;

pub use bakery::BakeryLock;
pub use layout::WindowLayout;
