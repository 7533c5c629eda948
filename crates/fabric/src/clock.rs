//! Per-rank virtual clocks.
//!
//! Every rank owns a [`SimClock`]. Each communication or memory operation
//! advances the local clock by its modelled cost; messages and synchronization
//! flags carry the sender's timestamp, and the receiver merges it
//! (`clock.merge(ts)`) before accounting its own receive-side cost. This is the
//! standard Lamport-style virtual-time scheme used by trace-driven MPI
//! simulators: it needs no global event queue, works with free-running rank
//! threads, and yields end-to-end latencies that respect the happens-before
//! edges of the protocol.

/// Simulated time in nanoseconds.
pub type SimNs = f64;

/// A per-rank virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimClock {
    now: SimNs,
}

impl SimClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        SimClock { now: 0.0 }
    }

    /// A clock starting at an arbitrary time.
    pub fn starting_at(now: SimNs) -> Self {
        SimClock { now }
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> SimNs {
        self.now
    }

    /// Advance the clock by `delta` nanoseconds (negative deltas are ignored).
    pub fn advance(&mut self, delta: SimNs) {
        if delta > 0.0 {
            self.now += delta;
        }
    }

    /// Merge an externally observed timestamp: the clock jumps forward to
    /// `other` if `other` is later (receive rule of Lamport clocks).
    pub fn merge(&mut self, other: SimNs) {
        if other > self.now {
            self.now = other;
        }
    }

    /// Convenience: merge a timestamp and then advance by a local cost.
    pub fn merge_and_advance(&mut self, other: SimNs, delta: SimNs) {
        self.merge(other);
        self.advance(delta);
    }

    /// Elapsed virtual time since `start`.
    pub fn since(&self, start: SimNs) -> SimNs {
        (self.now - start).max(0.0)
    }
}

/// Convert nanoseconds to microseconds.
pub fn ns_to_us(ns: SimNs) -> f64 {
    ns / 1_000.0
}

/// Convert microseconds to nanoseconds.
pub fn us_to_ns(us: f64) -> SimNs {
    us * 1_000.0
}

/// Convert seconds to nanoseconds.
pub fn s_to_ns(s: f64) -> SimNs {
    s * 1e9
}

/// Bandwidth helper: time in ns to move `bytes` at `gib_per_s` GB/s (decimal GB).
pub fn transfer_ns(bytes: usize, gb_per_s: f64) -> SimNs {
    if gb_per_s <= 0.0 {
        return 0.0;
    }
    bytes as f64 / (gb_per_s * 1e9) * 1e9
}

/// Bandwidth helper: MB/s (decimal) implied by moving `bytes` in `ns`.
pub fn mbps(bytes: usize, ns: SimNs) -> f64 {
    if ns <= 0.0 {
        return 0.0;
    }
    bytes as f64 / (ns * 1e-9) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = SimClock::new();
        c.advance(100.0);
        c.advance(50.5);
        assert!((c.now() - 150.5).abs() < 1e-9);
    }

    #[test]
    fn negative_advance_ignored() {
        let mut c = SimClock::starting_at(10.0);
        c.advance(-5.0);
        assert_eq!(c.now(), 10.0);
    }

    #[test]
    fn merge_takes_max() {
        let mut c = SimClock::starting_at(100.0);
        c.merge(50.0);
        assert_eq!(c.now(), 100.0);
        c.merge(200.0);
        assert_eq!(c.now(), 200.0);
    }

    #[test]
    fn merge_and_advance_combined() {
        let mut c = SimClock::starting_at(10.0);
        c.merge_and_advance(100.0, 5.0);
        assert_eq!(c.now(), 105.0);
    }

    #[test]
    fn since_is_clamped() {
        let c = SimClock::starting_at(50.0);
        assert_eq!(c.since(20.0), 30.0);
        assert_eq!(c.since(80.0), 0.0);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(ns_to_us(2_500.0), 2.5);
        assert_eq!(us_to_ns(2.5), 2_500.0);
        assert_eq!(s_to_ns(1.0), 1e9);
    }

    #[test]
    fn transfer_time_and_bandwidth_roundtrip() {
        // 1 MB at 10 GB/s = 100 us.
        let ns = transfer_ns(1_000_000, 10.0);
        assert!((ns - 100_000.0).abs() < 1e-6);
        let bw = mbps(1_000_000, ns);
        assert!((bw - 10_000.0).abs() < 1e-6);
        assert_eq!(transfer_ns(100, 0.0), 0.0);
        assert_eq!(mbps(100, 0.0), 0.0);
    }
}
