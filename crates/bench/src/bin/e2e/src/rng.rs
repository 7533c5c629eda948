//! Seeded inputs: SplitMix64 streams for payload bytes, key/point
//! distributions and script order, plus the payload checksum the receivers
//! verify. Everything a workload sends is a function of `(--seed, rank, op
//! index)`, so a receiver can recompute what it must have received.

/// One SplitMix64 step: a bijective mix of `x`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream keyed by the run seed and a per-use salt (rank, size class, ...).
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(splitmix64(seed ^ splitmix64(salt)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`; the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Position-dependent checksum (rotate-xor over little-endian words), so a
/// reordered or shifted chunk of a multi-cell message is caught, not only a
/// flipped byte. One cycle per word: cheap next to the transfer it checks.
pub fn checksum(data: &[u8]) -> u64 {
    let mut acc = data.len() as u64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        acc = acc.rotate_left(7) ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    }
    for &b in chunks.remainder() {
        acc = acc.rotate_left(7) ^ b as u64;
    }
    acc
}

/// A seeded payload whose last word is re-stamped per operation, with the
/// checksum of the stamped buffer available without re-reading it: the
/// sender stamps and sends, the receiver (who built the same `Payload` from
/// the same seed) knows the checksum the arriving bytes must have.
#[derive(Debug, Clone)]
pub struct Payload {
    pub bytes: Vec<u8>,
    /// Checksum of `bytes` with the stamp word zeroed.
    base: u64,
}

impl Payload {
    /// `len ≥ 8`, a multiple of 8 (every verified message size is).
    pub fn new(seed: u64, salt: u64, len: usize) -> Self {
        assert!(len >= 8 && len.is_multiple_of(8), "payload length {len}");
        let mut bytes = vec![0u8; len];
        Rng::new(seed, salt).fill(&mut bytes);
        bytes[len - 8..].fill(0);
        let base = checksum(&bytes);
        Payload { bytes, base }
    }

    fn stamp_word(op: u64) -> u64 {
        splitmix64(op ^ 0x5741_4D50)
    }

    /// Write the stamp for operation `op` into the last word.
    pub fn stamp(&mut self, op: u64) {
        Self::stamp_copy(&mut self.bytes, op);
    }

    /// Stamp a copy of the payload held elsewhere (one block of a
    /// multi-block send buffer).
    pub fn stamp_copy(copy: &mut [u8], op: u64) {
        let at = copy.len() - 8;
        copy[at..].copy_from_slice(&Self::stamp_word(op).to_le_bytes());
    }

    /// Checksum the payload has after `stamp(op)`: the rotate-xor checksum is
    /// linear in its last word.
    pub fn expected(&self, op: u64) -> u64 {
        self.base ^ Self::stamp_word(op)
    }

    /// Whether `got` is this payload as stamped for `op`.
    pub fn matches(&self, op: u64, got: &[u8]) -> bool {
        got.len() == self.bytes.len() && checksum(got) == self.expected(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_salts_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
        assert_ne!(Rng::new(8, 1).next_u64(), a[0]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..50).collect();
        Rng::new(1, 0).shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn checksum_sees_flips_and_reordering() {
        let mut data = vec![0u8; 256];
        Rng::new(3, 0).fill(&mut data);
        let base = checksum(&data);
        let mut flipped = data.clone();
        flipped[100] ^= 1;
        assert_ne!(checksum(&flipped), base);
        let mut swapped = data.clone();
        swapped.swap(0, 64);
        swapped.swap(1, 65);
        assert_ne!(checksum(&swapped), base);
        assert_ne!(checksum(&data[..248]), base);
    }

    #[test]
    fn stamped_payload_checksum_is_predicted() {
        let mut p = Payload::new(11, 5, 4096);
        let receiver = p.clone();
        for op in [0u64, 1, 99, u64::MAX] {
            p.stamp(op);
            assert_eq!(checksum(&p.bytes), p.expected(op));
            assert!(receiver.matches(op, &p.bytes));
            assert!(!receiver.matches(op.wrapping_add(1), &p.bytes));
        }
        let mut small = Payload::new(11, 5, 8);
        small.stamp(3);
        assert!(Payload::new(11, 5, 8).matches(3, &small.bytes));
    }
}
