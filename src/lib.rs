//! # cMPI — MPI over CXL memory sharing (Rust reproduction)
//!
//! Umbrella crate re-exporting every component of the cMPI reproduction:
//!
//! * [`shm`] — the simulated CXL pooled-memory substrate (dax device, per-host
//!   cache-coherence simulation and the CXL SHM Arena object manager).
//! * [`fabric`] — interconnect performance models (Table 1 profiles, flush and
//!   PCIe cost models, contention, virtual clocks).
//! * [`netsim`] — the simulated TCP/NIC baseline transport substrate.
//! * [`mpi`] — the cMPI core library: communicators, two-sided and one-sided
//!   communication, synchronization, collectives and the thread-per-rank runtime.
//! * [`scalesim`] — the event-based strong-scaling simulator with CG and miniAMR
//!   proxies.
//! * [`omb`] — OSU-Micro-Benchmark-style workload kernels.
//!
//! See `README.md` for a quickstart and the full system inventory.

pub use cmpi_core as mpi;
pub use cmpi_fabric as fabric;
pub use cmpi_netsim as netsim;
pub use cmpi_omb as omb;
pub use cmpi_scalesim as scalesim;
pub use cxl_shm as shm;

/// Crate version of the umbrella package.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
