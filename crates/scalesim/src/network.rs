//! Interconnect parameters for the scalability study.
//!
//! Following the paper's methodology, the inter-node latency and bandwidth are
//! configured from the two-sided MPI results of Section 4.2 (Figures 7 and 8),
//! not from raw NIC numbers: these are the values an application actually
//! observes through the MPI library.

use cmpi_fabric::params;

/// Which transport the cluster uses for inter-node communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportClass {
    /// cMPI over CXL memory sharing.
    CxlShm,
    /// MPI over TCP on the standard Ethernet NIC.
    TcpEthernet,
    /// MPI over TCP on the Mellanox ConnectX-6 Dx SmartNIC.
    TcpMellanox,
}

impl TransportClass {
    /// All three transports compared in Figure 10.
    pub fn all() -> [TransportClass; 3] {
        [
            TransportClass::CxlShm,
            TransportClass::TcpEthernet,
            TransportClass::TcpMellanox,
        ]
    }

    /// Label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            TransportClass::CxlShm => "CXL-SHM",
            TransportClass::TcpEthernet => "TCP over Ethernet",
            TransportClass::TcpMellanox => "TCP over Mellanox (CX-6 Dx)",
        }
    }
}

/// Network parameters used by the fluid simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Inter-node small-message MPI latency, nanoseconds.
    pub inter_latency_ns: f64,
    /// Inter-node per-node NIC (or CXL link) bandwidth, GB/s.
    pub inter_bw_gbps: f64,
    /// Intra-node small-message MPI latency, nanoseconds.
    pub intra_latency_ns: f64,
    /// Intra-node shared-memory bandwidth per node, GB/s.
    pub intra_bw_gbps: f64,
    /// Per-core compute throughput, GFLOP/s (used by the app proxies).
    pub gflops_per_rank: f64,
}

impl NetworkParams {
    /// Parameters for a transport, anchored at the two-sided MPI measurements
    /// of Section 4.2.
    pub fn for_transport(class: TransportClass) -> Self {
        // Latencies follow the paper's Figure 10 discussion, which attributes
        // the Ethernet-vs-Mellanox crossover to their 16 µs vs 18 µs link
        // latencies while bandwidth (117.8 MB/s vs 11.5 GB/s) decides larger
        // scales; the CXL latency is the ≈12 µs MPI-level small-message value.
        let (inter_latency_us, inter_bw_gbps) = match class {
            // CXL SHM: ≈12 µs small-message latency, ≈6 GB/s aggregate
            // two-sided bandwidth per node pair (Figures 7/8).
            TransportClass::CxlShm => (params::CXL_MPI_SMALL_LATENCY_US, 6.05),
            // TCP over Ethernet: 16 µs, 117.8 MB/s (Table 1).
            TransportClass::TcpEthernet => (
                params::TCP_ETHERNET_LATENCY_US,
                params::TCP_ETHERNET_BW_MBPS / 1000.0,
            ),
            // TCP over Mellanox: 18 µs, 11.5 GB/s (Table 1).
            TransportClass::TcpMellanox => (
                params::TCP_MELLANOX_LATENCY_US,
                params::TCP_MELLANOX_BW_GBPS,
            ),
        };
        NetworkParams {
            inter_latency_ns: inter_latency_us * 1000.0,
            inter_bw_gbps,
            // Intra-node MPI over POSIX shared memory: ~1 µs, ~10 GB/s.
            intra_latency_ns: 1_000.0,
            intra_bw_gbps: 10.0,
            gflops_per_rank: 4.0,
        }
    }

    /// The CXL parameters with the shared-window single-copy collective data
    /// plane engaged (a non-zero `CollTuning::shm_arena_bytes` in the core
    /// library): readers
    /// pull collective payloads straight out of writers' exposed window
    /// buffers, so the per-message MPI software overhead drops out of the
    /// latency on both sides of each hop, and the effective per-node
    /// bandwidth rises from the two-sided ring-copy value to the one-sided
    /// single-copy peak. No effect on the TCP transports — they have no
    /// shared pool to carve a window from.
    pub fn with_data_plane(mut self, class: TransportClass) -> Self {
        if class == TransportClass::CxlShm {
            self.inter_latency_ns -= 2.0 * params::CXL_MPI_SW_OVERHEAD_NS;
            self.inter_bw_gbps = params::CXL_ONESIDED_PEAK_BW_MBPS / 1000.0;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_transports_with_distinct_labels() {
        let labels: Vec<_> = TransportClass::all().iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.contains(&"CXL-SHM"));
    }

    #[test]
    fn latency_ordering_matches_paper() {
        let cxl = NetworkParams::for_transport(TransportClass::CxlShm);
        let eth = NetworkParams::for_transport(TransportClass::TcpEthernet);
        let mlx = NetworkParams::for_transport(TransportClass::TcpMellanox);
        // CXL has the lowest latency; Ethernet's 16 µs narrowly beats the
        // Mellanox NIC's 18 µs (the source of the small-scale crossover in
        // Figure 10), while its bandwidth is two orders of magnitude lower.
        assert!(cxl.inter_latency_ns < eth.inter_latency_ns);
        assert!(eth.inter_latency_ns < mlx.inter_latency_ns);
        assert!(eth.inter_bw_gbps < mlx.inter_bw_gbps / 50.0);
    }

    #[test]
    fn data_plane_improves_cxl_only() {
        for class in TransportClass::all() {
            let base = NetworkParams::for_transport(class);
            let dp = base.with_data_plane(class);
            if class == TransportClass::CxlShm {
                assert!(dp.inter_latency_ns < base.inter_latency_ns);
                assert!(dp.inter_bw_gbps > base.inter_bw_gbps);
                assert!(dp.inter_latency_ns > 0.0);
            } else {
                assert_eq!(dp, base);
            }
        }
    }

    #[test]
    fn intra_node_faster_than_inter_node() {
        for class in TransportClass::all() {
            let p = NetworkParams::for_transport(class);
            assert!(p.intra_latency_ns < p.inter_latency_ns);
        }
    }
}
