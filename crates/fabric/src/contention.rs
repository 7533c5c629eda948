//! Memory-hierarchy contention model for the CXL pooled-memory platform.
//!
//! Sections 3.6 and 4.2 explain why CXL SHM bandwidth stops scaling and then
//! *declines* for large messages: every byte is moved by CPU `mov` instructions,
//! so concurrent transfers from many processes contend at the platform's DIMMs
//! and memory bus, and each host's PCIe-attached CXL link is a fixed-width pipe.
//! Network offload (the SmartNIC baseline) does not suffer from this and keeps
//! scaling with process count.
//!
//! The model combines three effects:
//!
//! 1. A device-level aggregate bandwidth cap, which itself degrades as the
//!    working set per transfer grows beyond the knee (16 KB) — concurrent
//!    large copies thrash the platform's DRAM banks and the host link.
//! 2. A per-process efficiency factor for sharing the memory hierarchy.
//! 3. A load factor for two-sided traffic, whose send+receive copies double
//!    the pressure on the platform (Section 4.2: two-sided peak ≈30% lower).

use crate::clock::{transfer_ns, SimNs};
use crate::params;

/// Contention model parameters (all tunable; defaults from [`params`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CxlContentionModel {
    /// Aggregate device bandwidth for one-sided traffic at the knee, GB/s.
    pub device_peak_gbps: f64,
    /// Message size at which aggregate bandwidth peaks, bytes.
    pub knee_bytes: usize,
    /// Per-doubling degradation of the aggregate cap beyond the knee.
    pub slope: f64,
    /// Per-process efficiency when several processes share the hierarchy.
    pub per_proc_efficiency: f64,
    /// Extra device load generated by two-sided traffic (two copies per
    /// message vs one).
    pub twosided_load_factor: f64,
}

impl Default for CxlContentionModel {
    fn default() -> Self {
        CxlContentionModel {
            device_peak_gbps: params::CXL_CACHED_BW_GBPS,
            knee_bytes: params::CXL_CONTENTION_KNEE_BYTES,
            slope: params::CXL_CONTENTION_SLOPE,
            per_proc_efficiency: params::CXL_PER_PROC_EFFICIENCY,
            twosided_load_factor: 1.4,
        }
    }
}

impl CxlContentionModel {
    /// Aggregate bandwidth cap (GB/s) available to `pairs` concurrent
    /// communication pairs moving messages of `bytes` each.
    pub fn aggregate_cap_gbps(&self, pairs: usize, bytes: usize, twosided: bool) -> f64 {
        let pairs = pairs.max(1);
        // Sharing efficiency: each extra pair loses a little to the hierarchy.
        let sharing = self
            .per_proc_efficiency
            .powi(pairs.saturating_sub(1) as i32);
        // Size degradation beyond the knee: each doubling of the message size
        // sheds `slope` of the cap, amplified by the number of pairs fighting
        // for the same DRAM banks.
        let doublings = if bytes > self.knee_bytes {
            (bytes as f64 / self.knee_bytes as f64).log2()
        } else {
            0.0
        };
        let crowd = (1.0 + pairs as f64).ln();
        let degrade = 1.0 / (1.0 + self.slope * doublings * crowd);
        let load = if twosided {
            self.twosided_load_factor
        } else {
            1.0
        };
        (self.device_peak_gbps * sharing * degrade / load).max(0.05)
    }

    /// Adjust the ideal (uncontended) duration of one transfer so that the
    /// aggregate demand of `pairs` concurrent transfers never exceeds the cap.
    ///
    /// `ideal_ns` is the uncontended per-operation cost; the return value is
    /// `max(ideal, time for this op's bytes at its fair share of the cap)`.
    pub fn throttle(&self, pairs: usize, bytes: usize, ideal_ns: SimNs, twosided: bool) -> SimNs {
        if bytes == 0 {
            return ideal_ns;
        }
        let pairs = pairs.max(1);
        let cap = self.aggregate_cap_gbps(pairs, bytes, twosided);
        let fair_share = cap / pairs as f64;
        let floor = transfer_ns(bytes, fair_share);
        ideal_ns.max(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::mbps;

    #[test]
    fn cap_declines_beyond_knee() {
        let m = CxlContentionModel::default();
        let at_knee = m.aggregate_cap_gbps(8, 16 * 1024, false);
        let at_1mb = m.aggregate_cap_gbps(8, 1 << 20, false);
        let at_4mb = m.aggregate_cap_gbps(8, 4 << 20, false);
        assert!(at_1mb < at_knee);
        assert!(at_4mb < at_1mb);
        // Below the knee the cap does not depend on size.
        assert_eq!(
            m.aggregate_cap_gbps(8, 1024, false),
            m.aggregate_cap_gbps(8, 16 * 1024, false)
        );
    }

    #[test]
    fn cap_never_collapses_to_zero() {
        let m = CxlContentionModel::default();
        assert!(m.aggregate_cap_gbps(64, 64 << 20, true) >= 0.05);
    }

    #[test]
    fn twosided_cap_lower_than_onesided() {
        let m = CxlContentionModel::default();
        let one = m.aggregate_cap_gbps(8, 16 * 1024, false);
        let two = m.aggregate_cap_gbps(8, 16 * 1024, true);
        assert!(two < one);
        let drop = 1.0 - two / one;
        assert!((0.2..0.4).contains(&drop), "{drop}");
    }

    #[test]
    fn throttle_is_noop_when_uncontended() {
        let m = CxlContentionModel::default();
        // A single small message is latency-bound; the throttle must not touch it.
        let ideal = 10_000.0;
        assert_eq!(m.throttle(1, 8, ideal, false), ideal);
    }

    #[test]
    fn throttle_caps_aggregate_bandwidth() {
        let m = CxlContentionModel::default();
        let pairs = 16;
        let bytes = 64 * 1024;
        // Pretend each op would ideally take only 1 µs (unrealistically fast).
        let per_op = m.throttle(pairs, bytes, 1_000.0, false);
        // Aggregate bandwidth = pairs * bytes / per_op must not exceed the cap.
        let agg = mbps(bytes, per_op) * pairs as f64;
        let cap = m.aggregate_cap_gbps(pairs, bytes, false) * 1000.0;
        assert!(agg <= cap * 1.01, "agg {agg} cap {cap}");
    }

    #[test]
    fn more_pairs_increase_aggregate_until_cap() {
        let m = CxlContentionModel::default();
        let bytes = 16 * 1024;
        let ideal = 12_000.0; // ~12 µs per op, as in the paper's small-message regime
        let agg = |pairs: usize| {
            let t = m.throttle(pairs, bytes, ideal, false);
            mbps(bytes, t) * pairs as f64
        };
        assert!(agg(2) < agg(4));
        assert!(agg(4) < agg(8));
        // And the aggregate eventually saturates near the device peak.
        assert!(agg(16) <= m.device_peak_gbps * 1000.0 * 1.01);
    }

    #[test]
    fn zero_bytes_pass_through() {
        let m = CxlContentionModel::default();
        assert_eq!(m.throttle(8, 0, 123.0, true), 123.0);
    }
}
