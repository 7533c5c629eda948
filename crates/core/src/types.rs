//! Fundamental MPI-like types: ranks, tags, context ids, status, reduction
//! operators.

use crate::pod::Pod;

/// Rank index within a communicator (the paper uses "MPI process" and "rank"
/// interchangeably; so do we). Ranks are always *relative to a communicator*:
/// rank 3 of a split communicator is generally a different process than rank 3
/// of the world communicator.
pub type Rank = usize;

/// Message tag.
pub type Tag = i32;

/// Communicator context id. Every communicator carries a context id that is
/// woven into the transport-level tag encoding, so messages sent on one
/// communicator can never be matched by receives posted on another — the MPI
/// guarantee that makes libraries built on sub-communicators composable.
pub type CtxId = u32;

/// Context id of the world communicator.
pub const WORLD_CTX: CtxId = 0;

/// Wildcard accepted by receive operations: match any source rank.
pub const ANY_SOURCE: Option<Rank> = None;

/// Wildcard accepted by receive operations: match any *user* tag. Tags at and
/// above [`COLL_TAG_BASE`] are reserved for the collective layer's internal
/// traffic and are never matched by a wildcard, so wildcard receives can run
/// concurrently with (blocking or nonblocking) collectives on the same
/// communicator without stealing their messages.
pub const ANY_TAG: Option<Tag> = None;

/// First tag of the range reserved for collective-internal traffic. User
/// point-to-point tags should stay below this value; a receive posted with a
/// wildcard tag will only match tags below it.
pub const COLL_TAG_BASE: Tag = 0x4000_0000;

/// Completion information returned by receive and wait operations
/// (the equivalent of `MPI_Status`). The `source` is expressed in the ranks of
/// the communicator the operation ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank the message came from.
    pub source: Rank,
    /// Tag the message was sent with.
    pub tag: Tag,
    /// Number of payload bytes received.
    pub len: usize,
}

impl Status {
    /// Construct a status record.
    pub fn new(source: Rank, tag: Tag, len: usize) -> Self {
        Status { source, tag, len }
    }
}

/// Reduction operators supported by the collectives and `accumulate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
    /// Element-wise product.
    Prod,
}

/// Element types the reduction collectives operate on: plain-old-data numbers
/// with a combine rule per [`ReduceOp`].
pub trait Reducible: Pod + PartialEq + std::fmt::Debug {
    /// Combine two operands under `op`.
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;
    /// Identity element of `op`.
    fn identity(op: ReduceOp) -> Self;
}

macro_rules! impl_reducible_float {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Prod => a * b,
                }
            }
            fn identity(op: ReduceOp) -> Self {
                match op {
                    ReduceOp::Sum => 0.0,
                    ReduceOp::Max => <$t>::NEG_INFINITY,
                    ReduceOp::Min => <$t>::INFINITY,
                    ReduceOp::Prod => 1.0,
                }
            }
        }
    )*};
}

macro_rules! impl_reducible_int {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Prod => a.wrapping_mul(b),
                }
            }
            fn identity(op: ReduceOp) -> Self {
                match op {
                    ReduceOp::Sum => 0,
                    ReduceOp::Max => <$t>::MIN,
                    ReduceOp::Min => <$t>::MAX,
                    ReduceOp::Prod => 1,
                }
            }
        }
    )*};
}

impl_reducible_float!(f32, f64);
impl_reducible_int!(u8, i32, u32, i64, u64);

impl ReduceOp {
    /// Apply the operator to two operands of any reducible element type.
    pub fn apply<T: Reducible>(&self, a: T, b: T) -> T {
        T::combine(*self, a, b)
    }

    /// Apply the operator element-wise, accumulating `src` into `dst`.
    pub fn fold<T: Reducible>(&self, dst: &mut [T], src: &[T]) {
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d = T::combine(*self, *d, *s);
        }
    }

    /// Identity element of the operator for element type `T`.
    pub fn identity<T: Reducible>(&self) -> T {
        T::identity(*self)
    }

    /// Apply the operator to two `f64` operands.
    pub fn apply_f64(&self, a: f64, b: f64) -> f64 {
        self.apply(a, b)
    }

    /// Apply the operator element-wise, accumulating `src` into `dst`.
    pub fn fold_f64(&self, dst: &mut [f64], src: &[f64]) {
        self.fold(dst, src);
    }

    /// Identity element of the operator.
    pub fn identity_f64(&self) -> f64 {
        self.identity()
    }
}

/// Selector helpers for receives.
pub(crate) fn source_matches(selector: Option<Rank>, actual: Rank) -> bool {
    selector.is_none_or(|s| s == actual)
}

/// Selector helpers for receives. A wildcard (`None`) matches user tags only:
/// the collective-reserved range at and above [`COLL_TAG_BASE`] requires an
/// exact selector, which keeps outstanding collectives' internal traffic
/// invisible to application wildcard receives.
pub(crate) fn tag_matches(selector: Option<Tag>, actual: Tag) -> bool {
    match selector {
        Some(t) => t == actual,
        None => actual < COLL_TAG_BASE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_roundtrip() {
        let s = Status::new(3, 7, 128);
        assert_eq!(s.source, 3);
        assert_eq!(s.tag, 7);
        assert_eq!(s.len, 128);
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::Sum.apply_f64(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.apply_f64(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.apply_f64(2.0, 3.0), 2.0);
        assert_eq!(ReduceOp::Prod.apply_f64(2.0, 3.0), 6.0);
    }

    #[test]
    fn reduce_ops_generic_over_ints() {
        assert_eq!(ReduceOp::Sum.apply(2u64, 3u64), 5);
        assert_eq!(ReduceOp::Max.apply(-2i32, 3i32), 3);
        assert_eq!(ReduceOp::Min.apply(-2i64, 3i64), -2);
        assert_eq!(ReduceOp::Prod.apply(2u32, 3u32), 6);
    }

    #[test]
    fn fold_accumulates_elementwise() {
        let mut dst = vec![1.0, 2.0, 3.0];
        ReduceOp::Sum.fold_f64(&mut dst, &[10.0, 20.0, 30.0]);
        assert_eq!(dst, vec![11.0, 22.0, 33.0]);
        let mut dst = vec![1.0, 5.0];
        ReduceOp::Max.fold_f64(&mut dst, &[3.0, 2.0]);
        assert_eq!(dst, vec![3.0, 5.0]);
        let mut ints = vec![1u32, 5];
        ReduceOp::Sum.fold(&mut ints, &[9, 5]);
        assert_eq!(ints, vec![10, 10]);
    }

    #[test]
    fn identities_are_identities() {
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod] {
            let x = 42.5f64;
            assert_eq!(op.apply(op.identity(), x), x);
            let n = 17i64;
            assert_eq!(op.apply(op.identity(), n), n);
        }
    }

    #[test]
    fn wildcard_matching() {
        assert!(source_matches(None, 5));
        assert!(source_matches(Some(5), 5));
        assert!(!source_matches(Some(4), 5));
        assert!(tag_matches(None, 9));
        assert!(tag_matches(Some(9), 9));
        assert!(!tag_matches(Some(8), 9));
    }

    #[test]
    fn wildcard_skips_reserved_collective_tags() {
        assert!(tag_matches(None, COLL_TAG_BASE - 1));
        assert!(!tag_matches(None, COLL_TAG_BASE));
        assert!(!tag_matches(None, COLL_TAG_BASE + 17));
        // Exact selectors still reach the reserved range (the collective layer
        // itself posts them).
        assert!(tag_matches(Some(COLL_TAG_BASE + 17), COLL_TAG_BASE + 17));
    }
}
