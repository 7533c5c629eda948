//! Cost models for CPU-mediated CXL access and for the TCP baselines.
//!
//! The models are mechanistic: an operation's cost is assembled from the
//! hardware steps the paper describes (CPU copy, cache-line flushes, fences,
//! non-temporal flag accesses, TCP packetization, NIC DMA) with the constants
//! of [`crate::params`]. End-to-end anchors (Table 1, the ≈12 µs cMPI
//! small-message latency, the 160/55 µs TCP MPI latencies) then emerge from the
//! composition performed by the MPI transports.

use crate::clock::{transfer_ns, SimNs};
use crate::params;

/// Coherence mode for CXL SHM accesses (Section 3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoherenceMode {
    /// Write-back cacheable mapping, no software coherence (only safe for data
    /// private to one host).
    Cached,
    /// Software coherence with the serial `clflush` instruction.
    FlushClflush,
    /// Software coherence with the parallel `clflushopt` instruction (cMPI's
    /// default).
    FlushClflushopt,
    /// MTRR-uncacheable mapping: every access bypasses the cache.
    Uncacheable,
}

impl CoherenceMode {
    /// Human-readable name used in tables and figure output.
    pub fn name(&self) -> &'static str {
        match self {
            CoherenceMode::Cached => "cached (no flushing)",
            CoherenceMode::FlushClflush => "clflush",
            CoherenceMode::FlushClflushopt => "clflushopt",
            CoherenceMode::Uncacheable => "uncacheable",
        }
    }
}

/// Cost model for CPU-mediated access to the CXL shared memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CxlCostModel {
    /// Base latency of an 8-byte cached access to CXL memory, ns.
    pub cached_access_ns: f64,
    /// Base latency of a flushed small (≤1 line) write, ns.
    pub flush_small_ns: f64,
    /// Incremental per-line cost of `clflush`, ns.
    pub clflush_per_line_ns: f64,
    /// Parallelism factor of `clflushopt` relative to `clflush`.
    pub clflushopt_factor: f64,
    /// Fence cost, ns.
    pub fence_ns: f64,
    /// Non-temporal 8-byte access cost, ns.
    pub nt_access_ns: f64,
    /// Single-thread CPU copy bandwidth to/from CXL memory, GB/s.
    pub cxl_copy_bw_gbps: f64,
    /// Single-thread CPU copy bandwidth in local DRAM, GB/s.
    pub local_copy_bw_gbps: f64,
    /// Per-8-byte uncacheable store cost below the PCIe cliff, ns.
    pub uncacheable_word_small_ns: f64,
    /// Per-8-byte uncacheable store cost beyond the cliff, ns.
    pub uncacheable_word_large_ns: f64,
    /// Data size at which uncacheable access falls off the cliff, bytes.
    pub uncacheable_cliff_bytes: usize,
    /// MPI software overhead per operation on the CXL path, ns.
    pub mpi_sw_overhead_ns: f64,
    /// Non-temporal store-stream / one-sided RMA bandwidth into the pool,
    /// GB/s (the paper's measured one-sided peak).
    pub onesided_bw_gbps: f64,
}

impl Default for CxlCostModel {
    fn default() -> Self {
        CxlCostModel {
            cached_access_ns: params::CXL_CACHED_LATENCY_NS,
            flush_small_ns: params::FLUSH_SMALL_LATENCY_US * 1000.0,
            clflush_per_line_ns: params::CLFLUSH_PER_LINE_NS,
            clflushopt_factor: params::CLFLUSHOPT_PARALLEL_FACTOR,
            fence_ns: params::FENCE_NS,
            nt_access_ns: params::NT_ACCESS_NS,
            cxl_copy_bw_gbps: params::CXL_CPU_COPY_BW_GBPS,
            local_copy_bw_gbps: params::LOCAL_COPY_BW_GBPS,
            uncacheable_word_small_ns: params::UNCACHEABLE_WORD_NS_SMALL,
            uncacheable_word_large_ns: params::UNCACHEABLE_WORD_NS_LARGE,
            uncacheable_cliff_bytes: params::UNCACHEABLE_CLIFF_BYTES,
            mpi_sw_overhead_ns: params::CXL_MPI_SW_OVERHEAD_NS,
            onesided_bw_gbps: params::CXL_ONESIDED_PEAK_BW_MBPS / 1000.0,
        }
    }
}

impl CxlCostModel {
    /// Number of cache lines covering `bytes`.
    pub fn lines(bytes: usize) -> usize {
        bytes.div_ceil(params::CACHE_LINE).max(1)
    }

    /// Cost of one fence.
    pub fn fence(&self) -> SimNs {
        self.fence_ns
    }

    /// Cost of a non-temporal 8-byte load or store (flag, queue pointer).
    pub fn nt_access(&self) -> SimNs {
        self.nt_access_ns
    }

    /// Cost of flushing the cache lines covering `bytes` with the given mode.
    /// `Cached` and `Uncacheable` modes flush nothing.
    pub fn flush(&self, bytes: usize, mode: CoherenceMode) -> SimNs {
        if bytes == 0 {
            return 0.0;
        }
        let lines = Self::lines(bytes) as f64;
        match mode {
            CoherenceMode::Cached | CoherenceMode::Uncacheable => 0.0,
            CoherenceMode::FlushClflush => lines * self.clflush_per_line_ns,
            CoherenceMode::FlushClflushopt => {
                // The first line costs a full clflush; the remainder overlap.
                let per_line = self.clflush_per_line_ns / self.clflushopt_factor;
                self.clflush_per_line_ns + (lines - 1.0) * per_line
            }
        }
    }

    /// CPU copy of `bytes` into or out of CXL memory (one direction).
    pub fn cxl_copy(&self, bytes: usize) -> SimNs {
        self.cached_access_ns + transfer_ns(bytes, self.cxl_copy_bw_gbps)
    }

    /// CPU copy of `bytes` within local DRAM (e.g. user buffer to user buffer).
    pub fn local_copy(&self, bytes: usize) -> SimNs {
        if bytes == 0 {
            return 0.0;
        }
        params::MAIN_MEMORY_LATENCY_NS + transfer_ns(bytes, self.local_copy_bw_gbps)
    }

    /// Cost of a coherent *publish* of `bytes` into CXL memory: copy, flush the
    /// written lines, store fence (the paper's after-write protocol).
    pub fn coherent_write(&self, bytes: usize, mode: CoherenceMode) -> SimNs {
        match mode {
            CoherenceMode::Uncacheable => self.uncacheable_access(bytes),
            _ => self.cxl_copy(bytes) + self.flush(bytes, mode) + self.fence_ns,
        }
    }

    /// Cost of a coherent read of `bytes` from CXL memory: load fence, flush
    /// (invalidate stale copies), copy out (the paper's before-read protocol).
    pub fn coherent_read(&self, bytes: usize, mode: CoherenceMode) -> SimNs {
        match mode {
            CoherenceMode::Uncacheable => self.uncacheable_access(bytes),
            _ => self.fence_ns + self.flush(bytes, mode) + self.cxl_copy(bytes),
        }
    }

    /// Cost of a *streamed* publish of `bytes` into CXL memory: a
    /// non-temporal store stream plus one store fence. NT stores bypass the
    /// cache entirely, so under software coherence there is nothing to flush —
    /// the stream runs at the measured one-sided RMA bandwidth instead of
    /// paying a `clflush(opt)` per written line. This is the publish the
    /// single-copy data plane uses (a write-once region read by other hosts)
    /// and the publish of every p2p message on a promoted pair's stream
    /// (`cmpi-core`'s `transport::conn::Stream`) longer than the flag line
    /// alone holds: a short one as its stamped lines — frame and payload,
    /// with the sequence word in every line, in one NT store stream and no
    /// flag line behind it — and a longer one as a segment through the data
    /// slot, NT stores and then the flag line. The
    /// cached-write-then-flush protocol of [`Self::coherent_write`] remains
    /// the cost of a message *cell*: the SPSC rings of `ConnMode::Eager` (the
    /// paper's protocol) and the shared receive queue, whose cells are reread
    /// and rewritten in place. Under hardware coherence (`Cached`) plain
    /// stores are strictly better, so delegate.
    pub fn streamed_publish(&self, bytes: usize, mode: CoherenceMode) -> SimNs {
        match mode {
            CoherenceMode::Uncacheable => self.uncacheable_access(bytes),
            CoherenceMode::Cached => self.coherent_write(bytes, mode),
            _ => self.nt_access_ns + transfer_ns(bytes, self.onesided_bw_gbps) + self.fence_ns,
        }
    }

    /// Cost of a streamed fetch of `bytes` from CXL memory: one load fence,
    /// then a copy out at the measured one-sided RMA bandwidth (which already
    /// embeds the device-side protocol cost — no per-line invalidation is
    /// charged on top, because the data plane's slot rotation guarantees the
    /// reader last touched these lines ≥ `slots` collectives ago and its
    /// write-allocate copies have long been evicted). Counterpart of
    /// [`Self::streamed_publish`] on the read side, and likewise charged for
    /// what a p2p receiver pulls off a stream: the one gathered read of the
    /// lines it guesses a message takes — the flag line and those behind it;
    /// a guess of the flag line alone is one line access instead — then,
    /// when the message takes more, the rest of its stamped lines, or a
    /// segment out of the data slot. There the argument is simpler
    /// still: a stream is written and read with non-temporal accesses only,
    /// so neither host ever holds a cached copy of its lines.
    pub fn streamed_read(&self, bytes: usize, mode: CoherenceMode) -> SimNs {
        match mode {
            CoherenceMode::Uncacheable => self.uncacheable_access(bytes),
            CoherenceMode::Cached => self.coherent_read(bytes, mode),
            _ => self.fence_ns + self.cached_access_ns + transfer_ns(bytes, self.onesided_bw_gbps),
        }
    }

    /// Cost of an uncacheable access of `bytes` (every 8-byte word is a
    /// separate transaction; beyond the PCIe MPS cliff the per-word cost blows
    /// up because the transfer is split into serialised TLPs — Section 4.5).
    pub fn uncacheable_access(&self, bytes: usize) -> SimNs {
        if bytes == 0 {
            return 0.0;
        }
        let words = bytes.div_ceil(8) as f64;
        let per_word = if bytes <= self.uncacheable_cliff_bytes {
            self.uncacheable_word_small_ns
        } else {
            self.uncacheable_word_large_ns
        };
        words * per_word
    }

    /// Latency of the paper's memset micro-benchmark (Section 2.2 / 4.5,
    /// Figure 11) for a given data size and coherence mode.
    pub fn memset_latency(&self, bytes: usize, mode: CoherenceMode) -> SimNs {
        if bytes == 0 {
            return 0.0;
        }
        match mode {
            CoherenceMode::Uncacheable => self.uncacheable_access(bytes),
            CoherenceMode::Cached => {
                // Cached memset: write-allocate fills plus the store stream.
                self.cached_access_ns + transfer_ns(bytes, self.cxl_copy_bw_gbps)
            }
            CoherenceMode::FlushClflush | CoherenceMode::FlushClflushopt => {
                // Base anchored at the ≈2.2 µs single-line flushed write, plus
                // the incremental per-line flush cost and the store stream.
                let extra_lines = (Self::lines(bytes) - 1) as f64;
                let per_line = match mode {
                    CoherenceMode::FlushClflush => self.clflush_per_line_ns,
                    _ => self.clflush_per_line_ns / self.clflushopt_factor,
                };
                self.flush_small_ns
                    + extra_lines * per_line
                    + transfer_ns(bytes, self.cxl_copy_bw_gbps)
            }
        }
    }

    /// MPI software overhead per operation (matching, request bookkeeping).
    pub fn mpi_overhead(&self) -> SimNs {
        self.mpi_sw_overhead_ns
    }
}

/// Which NIC the TCP baseline runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpNic {
    /// Standard Ethernet NIC ("TCP over Ethernet").
    StandardEthernet,
    /// Mellanox ConnectX-6 Dx SmartNIC ("TCP over Mellanox (CX-6 Dx)").
    MellanoxCx6Dx,
}

/// Cost model for the TCP baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpCostModel {
    /// Which NIC this models.
    pub nic: TcpNic,
    /// One-way small-message wire + stack latency, ns.
    pub base_latency_ns: f64,
    /// NIC bandwidth ceiling, GB/s.
    pub bandwidth_gbps: f64,
    /// MTU used for packetization, bytes.
    pub mtu: usize,
    /// Per-packet kernel stack cost, ns.
    pub per_packet_ns: f64,
    /// Per-message MPI + socket progress overhead, ns.
    pub mpi_per_msg_overhead_ns: f64,
    /// Extra one-sided synchronization cost per epoch, ns.
    pub onesided_sync_extra_ns: f64,
}

impl TcpCostModel {
    /// Model for one of the two TCP baselines.
    pub fn of(nic: TcpNic) -> Self {
        match nic {
            TcpNic::StandardEthernet => TcpCostModel {
                nic,
                base_latency_ns: params::TCP_ETHERNET_LATENCY_US * 1000.0,
                bandwidth_gbps: params::TCP_ETHERNET_BW_MBPS / 1000.0,
                // The standard NIC path is charged per MTU-sized packet.
                mtu: params::ETHERNET_MTU,
                per_packet_ns: params::TCP_PER_PACKET_NS,
                mpi_per_msg_overhead_ns: params::TCP_MPI_PER_MSG_OVERHEAD_US_ETHERNET * 1000.0,
                onesided_sync_extra_ns: params::TCP_ONESIDED_SYNC_EXTRA_US_ETHERNET * 1000.0,
            },
            TcpNic::MellanoxCx6Dx => TcpCostModel {
                nic,
                base_latency_ns: params::TCP_MELLANOX_LATENCY_US * 1000.0,
                bandwidth_gbps: params::TCP_MELLANOX_BW_GBPS,
                // The SmartNIC does TSO: the host pays per 64 KB segment.
                mtu: params::TSO_SEGMENT,
                per_packet_ns: params::TCP_PER_PACKET_NS,
                mpi_per_msg_overhead_ns: params::TCP_MPI_PER_MSG_OVERHEAD_US_MELLANOX * 1000.0,
                onesided_sync_extra_ns: params::TCP_ONESIDED_SYNC_EXTRA_US_MELLANOX * 1000.0,
            },
        }
    }

    /// Number of MTU-sized packets needed for a payload.
    pub fn packets(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.mtu).max(1)
    }

    /// One-way wire + stack time for a message of `bytes` (no MPI overhead),
    /// assuming the sender gets `share` of the NIC bandwidth (0 < share ≤ 1).
    pub fn wire_time(&self, bytes: usize, share: f64) -> SimNs {
        let share = share.clamp(1e-6, 1.0);
        let serialisation = transfer_ns(bytes, self.bandwidth_gbps * share);
        self.base_latency_ns + self.packets(bytes) as f64 * self.per_packet_ns + serialisation
    }

    /// One-way MPI message time: MPI overhead + intermediate-buffer copy +
    /// wire time. `share` is this flow's share of the NIC.
    pub fn mpi_message_time(&self, bytes: usize, share: f64) -> SimNs {
        let copy = transfer_ns(bytes, params::LOCAL_COPY_BW_GBPS);
        self.mpi_per_msg_overhead_ns + copy + self.wire_time(bytes, share)
    }

    /// One-way latency of a loopback (same-node) message: the kernel loopback
    /// path skips the NIC entirely, so there is no packetization, no NIC
    /// bandwidth share, and a much lighter software stack — just the
    /// per-message overhead, two memory copies (sender staging + receiver
    /// delivery at DRAM copy bandwidth) and the loopback latency. This is the
    /// intra-host fast path that makes topology-aware collectives pay off on
    /// the TCP baseline too.
    pub fn loopback_time(&self, bytes: usize) -> SimNs {
        let copies = 2.0 * transfer_ns(bytes, params::LOCAL_COPY_BW_GBPS);
        params::TCP_LOOPBACK_MPI_OVERHEAD_US * 1000.0 + copies + self.loopback_latency_ns()
    }

    /// The one-way latency component of [`TcpCostModel::loopback_time`],
    /// exposed so callers splitting a loopback send into sender occupancy and
    /// delivery latency use the same decomposition this model defines.
    pub fn loopback_latency_ns(&self) -> SimNs {
        params::TCP_LOOPBACK_LATENCY_US * 1000.0
    }

    /// Extra cost charged per one-sided synchronization epoch (PSCW or
    /// lock/unlock over the network).
    pub fn onesided_sync_extra(&self) -> SimNs {
        self.onesided_sync_extra_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_mode_ordering() {
        let m = CxlCostModel::default();
        let size = 4096;
        let clflush = m.flush(size, CoherenceMode::FlushClflush);
        let clflushopt = m.flush(size, CoherenceMode::FlushClflushopt);
        assert!(clflushopt < clflush);
        assert_eq!(m.flush(size, CoherenceMode::Cached), 0.0);
        assert_eq!(m.flush(0, CoherenceMode::FlushClflush), 0.0);
    }

    #[test]
    fn clflushopt_up_to_4x_better_beyond_64b() {
        // Section 4.5: clflushopt outperforms clflush by up to 4× beyond 64 B,
        // and the two are comparable at or below one cache line.
        let m = CxlCostModel::default();
        let small_ratio = m.memset_latency(64, CoherenceMode::FlushClflush)
            / m.memset_latency(64, CoherenceMode::FlushClflushopt);
        assert!((0.99..1.01).contains(&small_ratio), "{small_ratio}");
        let big_ratio = m.memset_latency(128 * 1024, CoherenceMode::FlushClflush)
            / m.memset_latency(128 * 1024, CoherenceMode::FlushClflushopt);
        assert!((3.0..4.2).contains(&big_ratio), "{big_ratio}");
    }

    #[test]
    fn uncacheable_cliff_beyond_2kb() {
        // Section 4.5: uncacheable accesses are ~256× slower than flushed ones
        // beyond 2 KB and exceed 4,096 µs.
        let m = CxlCostModel::default();
        let at_1kb = m.memset_latency(1024, CoherenceMode::Uncacheable);
        assert!(at_1kb < m.memset_latency(1024, CoherenceMode::FlushClflush) * 4.0);
        let at_128kb_uc = m.memset_latency(128 * 1024, CoherenceMode::Uncacheable);
        let at_128kb_fl = m.memset_latency(128 * 1024, CoherenceMode::FlushClflush);
        let ratio = at_128kb_uc / at_128kb_fl;
        assert!(
            ratio > 100.0,
            "uncacheable/flushed ratio too small: {ratio}"
        );
        assert!(
            at_128kb_uc > 4096.0 * 1000.0,
            "no >4096 µs spike: {at_128kb_uc}"
        );
        // 8 KB already exceeds 4,096 µs in the paper's figure.
        assert!(m.memset_latency(8 * 1024, CoherenceMode::Uncacheable) >= 4000.0 * 1000.0);
    }

    #[test]
    fn small_flushed_memset_near_anchor() {
        let m = CxlCostModel::default();
        let lat_us = m.memset_latency(8, CoherenceMode::FlushClflushopt) / 1000.0;
        assert!((2.0..3.0).contains(&lat_us), "{lat_us}");
    }

    #[test]
    fn cached_memset_near_cached_anchor() {
        let m = CxlCostModel::default();
        let lat_ns = m.memset_latency(8, CoherenceMode::Cached);
        assert!((700.0..900.0).contains(&lat_ns), "{lat_ns}");
    }

    #[test]
    fn copy_costs_scale_with_size() {
        let m = CxlCostModel::default();
        assert!(m.cxl_copy(1 << 20) > m.cxl_copy(1 << 10));
        assert!(m.local_copy(1 << 20) < m.cxl_copy(1 << 20));
        assert_eq!(m.local_copy(0), 0.0);
    }

    #[test]
    fn coherent_write_and_read_include_flush() {
        let m = CxlCostModel::default();
        let plain = m.cxl_copy(4096);
        let write = m.coherent_write(4096, CoherenceMode::FlushClflushopt);
        let read = m.coherent_read(4096, CoherenceMode::FlushClflushopt);
        assert!(write > plain);
        assert!(read > plain);
        // Uncacheable path routes through the TLP model.
        assert_eq!(
            m.coherent_write(4096, CoherenceMode::Uncacheable),
            m.uncacheable_access(4096)
        );
    }

    #[test]
    fn streamed_access_beats_flushed_coherence_in_bulk() {
        let m = CxlCostModel::default();
        // At 1 MiB the flushed protocols pay ~16 Ki line flushes; the NT
        // stream pays none and must win by a wide margin in both directions.
        for mode in [CoherenceMode::FlushClflushopt, CoherenceMode::FlushClflush] {
            assert!(m.streamed_publish(1 << 20, mode) * 3.0 < m.coherent_write(1 << 20, mode));
            assert!(m.streamed_read(1 << 20, mode) * 3.0 < m.coherent_read(1 << 20, mode));
        }
        // Small streamed accesses still pay the CXL access latency floor.
        assert!(m.streamed_publish(8, CoherenceMode::FlushClflushopt) > m.nt_access_ns);
        assert!(m.streamed_read(8, CoherenceMode::FlushClflushopt) > m.cached_access_ns);
        // Under hardware coherence or uncacheable mappings there is no flush
        // to skip: the streamed paths delegate to the existing models.
        assert_eq!(
            m.streamed_publish(4096, CoherenceMode::Cached),
            m.coherent_write(4096, CoherenceMode::Cached)
        );
        assert_eq!(
            m.streamed_read(4096, CoherenceMode::Uncacheable),
            m.uncacheable_access(4096)
        );
    }

    #[test]
    fn tcp_two_sided_small_latency_anchors() {
        // MPI message time for an 8-byte message should land near the paper's
        // two-sided small-message latencies (160 µs Ethernet, 55 µs Mellanox).
        let eth = TcpCostModel::of(TcpNic::StandardEthernet);
        let mlx = TcpCostModel::of(TcpNic::MellanoxCx6Dx);
        let eth_us = eth.mpi_message_time(8, 1.0) / 1000.0;
        let mlx_us = mlx.mpi_message_time(8, 1.0) / 1000.0;
        assert!((150.0..175.0).contains(&eth_us), "{eth_us}");
        assert!((50.0..62.0).contains(&mlx_us), "{mlx_us}");
    }

    #[test]
    fn tcp_ethernet_bandwidth_capped() {
        let eth = TcpCostModel::of(TcpNic::StandardEthernet);
        // A 4 MB transfer is dominated by the 117.8 MB/s ceiling.
        let t = eth.mpi_message_time(4 << 20, 1.0);
        let mbps = crate::clock::mbps(4 << 20, t);
        assert!(mbps < 125.0, "{mbps}");
        assert!(mbps > 90.0, "{mbps}");
    }

    #[test]
    fn tcp_share_divides_bandwidth() {
        let mlx = TcpCostModel::of(TcpNic::MellanoxCx6Dx);
        let full = mlx.wire_time(1 << 20, 1.0);
        let half = mlx.wire_time(1 << 20, 0.5);
        assert!(half > full * 1.5);
    }

    #[test]
    fn onesided_extra_cost_matches_anchor_gap() {
        let eth = TcpCostModel::of(TcpNic::StandardEthernet);
        let one_sided_us = (eth.mpi_message_time(8, 1.0) + eth.onesided_sync_extra()) / 1000.0;
        assert!((600.0..660.0).contains(&one_sided_us), "{one_sided_us}");
    }

    #[test]
    fn packets_round_up() {
        let eth = TcpCostModel::of(TcpNic::StandardEthernet);
        assert_eq!(eth.packets(1), 1);
        assert_eq!(eth.packets(1500), 1);
        assert_eq!(eth.packets(1501), 2);
        assert_eq!(eth.packets(0), 1);
    }
}
