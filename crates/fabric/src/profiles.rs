//! The eight interconnect cases compared in Section 2.2 (Table 1).

use crate::params;

/// Identifier for each interconnect/protocol combination evaluated by the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterconnectKind {
    /// Case 1: CPU-attached main memory (intra-node reference point).
    MainMemory,
    /// Case 2: TCP over a standard Ethernet NIC.
    TcpEthernet,
    /// Case 3: TCP over Mellanox ConnectX-6 Dx (high-end SmartNIC).
    TcpMellanoxCx6Dx,
    /// Case 4: RoCEv2 over Mellanox ConnectX-6 Dx.
    RoceCx6Dx,
    /// Case 5: RoCEv2 over Mellanox ConnectX-3 (low-end SmartNIC).
    RoceCx3,
    /// Case 6: InfiniBand over Mellanox ConnectX-6.
    InfinibandCx6,
    /// Case 7: CXL memory sharing with caching, no flushing.
    CxlShmCached,
    /// Case 8: CXL memory sharing with cache flushing for coherence.
    CxlShmFlushed,
}

impl InterconnectKind {
    /// All eight cases, in Table 1 order.
    pub fn all() -> [InterconnectKind; 8] {
        [
            InterconnectKind::MainMemory,
            InterconnectKind::TcpEthernet,
            InterconnectKind::TcpMellanoxCx6Dx,
            InterconnectKind::RoceCx6Dx,
            InterconnectKind::RoceCx3,
            InterconnectKind::InfinibandCx6,
            InterconnectKind::CxlShmCached,
            InterconnectKind::CxlShmFlushed,
        ]
    }
}

/// Latency/bandwidth profile of one interconnect (the Table 1 row).
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectProfile {
    /// Which case this is.
    pub kind: InterconnectKind,
    /// Human-readable name matching the paper's wording.
    pub name: String,
    /// Small-access latency in nanoseconds (8-byte access or small message).
    pub latency_ns: f64,
    /// Peak single-stream bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Whether data movement requires the CPU for the whole transfer (true for
    /// CXL SHM and main memory; false once a NIC DMA engine takes over).
    pub cpu_mediated: bool,
}

impl InterconnectProfile {
    /// Profile for one of the eight Table 1 cases.
    pub fn of(kind: InterconnectKind) -> Self {
        use InterconnectKind::*;
        let (name, latency_ns, bandwidth_gbps, cpu_mediated) = match kind {
            MainMemory => (
                "Main Memory",
                params::MAIN_MEMORY_LATENCY_NS,
                params::MAIN_MEMORY_BW_GBPS,
                true,
            ),
            TcpEthernet => (
                "TCP over Standard Ethernet NIC",
                params::TCP_ETHERNET_LATENCY_US * 1000.0,
                params::TCP_ETHERNET_BW_MBPS / 1000.0,
                false,
            ),
            TcpMellanoxCx6Dx => (
                "TCP over Mellanox (CX-6 Dx)",
                params::TCP_MELLANOX_LATENCY_US * 1000.0,
                params::TCP_MELLANOX_BW_GBPS,
                false,
            ),
            RoceCx6Dx => (
                "RoCEv2 over Mellanox (CX-6 Dx)",
                params::ROCE_CX6DX_LATENCY_US * 1000.0,
                params::ROCE_CX6DX_BW_GBPS,
                false,
            ),
            RoceCx3 => (
                "RoCEv2 over Mellanox (CX-3)",
                params::ROCE_CX3_LATENCY_US * 1000.0,
                params::ROCE_CX3_BW_GBPS,
                false,
            ),
            InfinibandCx6 => (
                "InfiniBand over Mellanox (CX-6)",
                params::IB_CX6_LATENCY_NS,
                params::IB_CX6_BW_GBPS,
                false,
            ),
            CxlShmCached => (
                "CXL Memory Sharing (with caching; no cache flushing)",
                params::CXL_CACHED_LATENCY_NS,
                params::CXL_CACHED_BW_GBPS,
                true,
            ),
            CxlShmFlushed => (
                "CXL Memory Sharing (with cache flushing)",
                params::CXL_FLUSHED_LATENCY_US * 1000.0,
                params::CXL_FLUSHED_BW_GBPS,
                true,
            ),
        };
        InterconnectProfile {
            kind,
            name: name.to_string(),
            latency_ns,
            bandwidth_gbps,
            cpu_mediated,
        }
    }

    /// Latency expressed in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.latency_ns / 1000.0
    }

    /// Bandwidth expressed in MB/s.
    pub fn bandwidth_mbps(&self) -> f64 {
        self.bandwidth_gbps * 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_cases_present() {
        let all = InterconnectKind::all();
        assert_eq!(all.len(), 8);
        let profiles: Vec<_> = all.iter().map(|&k| InterconnectProfile::of(k)).collect();
        // Names are distinct.
        let mut names: Vec<_> = profiles.iter().map(|p| p.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn main_memory_is_fastest_latency() {
        let mm = InterconnectProfile::of(InterconnectKind::MainMemory);
        for kind in InterconnectKind::all() {
            let p = InterconnectProfile::of(kind);
            assert!(mm.latency_ns <= p.latency_ns, "{:?}", kind);
        }
    }

    #[test]
    fn cxl_cached_beats_tcp_latency_but_not_ib() {
        let cxl = InterconnectProfile::of(InterconnectKind::CxlShmCached);
        let eth = InterconnectProfile::of(InterconnectKind::TcpEthernet);
        let ib = InterconnectProfile::of(InterconnectKind::InfinibandCx6);
        assert!(cxl.latency_ns < eth.latency_ns / 10.0);
        assert!(cxl.latency_ns > ib.latency_ns);
    }

    #[test]
    fn cpu_mediation_flags() {
        assert!(InterconnectProfile::of(InterconnectKind::CxlShmFlushed).cpu_mediated);
        assert!(!InterconnectProfile::of(InterconnectKind::TcpMellanoxCx6Dx).cpu_mediated);
    }

    #[test]
    fn unit_conversions() {
        let p = InterconnectProfile::of(InterconnectKind::CxlShmFlushed);
        assert!((p.latency_us() - 2.2).abs() < 1e-9);
        assert!((p.bandwidth_mbps() - 9500.0).abs() < 1e-6);
    }
}
