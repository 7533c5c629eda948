//! The per-communicator collective **plan cache**.
//!
//! Building a collective plan — algorithm selection, op-list emission, tag
//! math, scratch layout, hierarchy composition — is pure software overhead
//! repeated on every call, even though iterative HPC applications issue the
//! *same* collective (same op, root, payload shape, communicator) thousands
//! of times. On the paper's CXL platform the wire is nearly free for small
//! messages, so this per-call planning is a visible fraction of collective
//! latency. The cache amortizes it: plans are immutable and
//! sequence-agnostic (see [`CollPlan`]), so the first call of a shape builds
//! and caches, and every later call — one-shot, nonblocking or a persistent
//! `start` — re-binds the cached plan to a fresh
//! [`crate::progress::Execution`] and skips planning entirely.
//!
//! One `PlanCache` exists per communicator (keyed by context id in the rank
//! core, so cached plans can never leak between communicators even when
//! shapes agree), each LRU-bounded by
//! [`crate::config::CollTuning::plan_cache_entries`]. The key captures
//! everything a builder consults besides the communicator itself: the
//! operation, the root, the payload shape (byte count + element count), the
//! element type and the reduction operator. The remaining inputs —
//! group, topology-derived hierarchy, tuning and the availability of the
//! communicator's shared data-plane window (created eagerly at communicator
//! construction, or never) — are fixed per communicator for the lifetime of
//! the universe, so they need no key component.
//! Hit/miss/eviction counters are surfaced in
//! [`crate::runtime::RankReport::plan_cache`].

use std::any::TypeId;
use std::borrow::Cow;
use std::sync::Arc;

use crate::progress::CollPlan;
use crate::types::{Rank, ReduceOp};

/// Which collective operation a cached plan implements (one variant per
/// builder family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanOp {
    /// Barrier (payload-free).
    Barrier,
    /// Broadcast.
    Bcast,
    /// Linear gather.
    Gather,
    /// Linear scatter.
    Scatter,
    /// Allgather.
    Allgather,
    /// Rooted reduce.
    Reduce,
    /// Allreduce.
    Allreduce,
    /// Reduce-scatter.
    ReduceScatter,
    /// Inclusive prefix reduction.
    Scan,
    /// Exclusive prefix reduction.
    Exscan,
    /// Regular complete exchange.
    Alltoall,
    /// Irregular complete exchange (per-peer element counts).
    Alltoallv,
    /// Irregular complete exchange (per-peer byte counts).
    Alltoallw,
}

/// Cache key of one plan shape. Two calls with equal keys on one
/// communicator are guaranteed to build byte-identical plans, so collisions
/// are impossible by construction: every builder input that can vary between
/// calls appears as a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlanKey<'a> {
    /// The collective operation.
    pub op: PlanOp,
    /// Root rank of rooted operations (`usize::MAX` sentinel via `Option` for
    /// the rootless ones).
    pub root: Option<Rank>,
    /// Payload shape in bytes (total bytes for payload-sized ops, the
    /// per-rank block for gather/scatter/allgather).
    pub bytes: usize,
    /// Element count (reductions: algorithm selection consults counts, not
    /// just bytes — Rabenseifner needs one element per core rank).
    pub count: usize,
    /// Element type of a reduction (distinguishes e.g. `u64` from `f64` at
    /// equal byte sizes — the plan embeds the monomorphized fold function).
    pub elem: Option<TypeId>,
    /// Reduction operator.
    pub red: Option<ReduceOp>,
    /// Per-peer segment shape of an irregular exchange (`alltoallv`/`w`):
    /// the send counts and the receive counts, in peer order. Exact
    /// equality — not a hash — keeps the "equal keys build byte-identical
    /// plans" invariant collision-free for irregular shapes. Empty for every
    /// regular operation. A lookup borrows the caller's slices; only a key
    /// that enters the cache owns copies ([`PlanKey::into_owned`]).
    pub counts: [Cow<'a, [usize]>; 2],
}

impl<'a> PlanKey<'a> {
    /// Key of a payload-shaped, rootless, fold-free operation.
    pub fn shaped(op: PlanOp, bytes: usize) -> Self {
        PlanKey {
            op,
            root: None,
            bytes,
            count: 0,
            elem: None,
            red: None,
            counts: [Cow::Borrowed(&[]), Cow::Borrowed(&[])],
        }
    }

    /// Key of an irregular complete exchange over the caller's send and
    /// receive counts (elements for `alltoallv`, bytes for `alltoallw`);
    /// `elem_bytes` separates equal-count exchanges of differently sized
    /// element types.
    pub fn irregular(op: PlanOp, send: &'a [usize], recv: &'a [usize], elem_bytes: usize) -> Self {
        PlanKey {
            counts: [Cow::Borrowed(send), Cow::Borrowed(recv)],
            ..Self::shaped(op, elem_bytes)
        }
    }

    /// The key with counts of its own, as the cache keeps it.
    pub fn into_owned(self) -> PlanKey<'static> {
        PlanKey {
            op: self.op,
            root: self.root,
            bytes: self.bytes,
            count: self.count,
            elem: self.elem,
            red: self.red,
            counts: self.counts.map(|c| Cow::Owned(c.into_owned())),
        }
    }

    /// Key of a rooted, fold-free operation.
    pub fn rooted(op: PlanOp, root: Rank, bytes: usize) -> Self {
        PlanKey {
            root: Some(root),
            ..Self::shaped(op, bytes)
        }
    }

    /// Key of a reduction-family operation over `count` elements of `T`.
    pub fn reduction<T: 'static>(
        op: PlanOp,
        root: Option<Rank>,
        count: usize,
        red: ReduceOp,
    ) -> Self {
        PlanKey {
            op,
            root,
            bytes: count * std::mem::size_of::<T>(),
            count,
            elem: Some(TypeId::of::<T>()),
            red: Some(red),
            ..Self::shaped(op, 0)
        }
    }
}

/// Aggregated plan-cache counters of one rank (all communicators), surfaced
/// in [`crate::runtime::RankReport::plan_cache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Collective calls served by a cached plan (planning skipped).
    pub hits: u64,
    /// Collective calls that had to build (first call of a shape, or a
    /// rebuilt eviction victim).
    pub misses: u64,
    /// Plans evicted by the LRU bound.
    pub evictions: u64,
    /// Plans dropped by explicit invalidation (`Comm::invalidate_plans`, e.g.
    /// after a revoke/shrink made the cached schedules unusable).
    pub invalidations: u64,
    /// Plans currently resident.
    pub entries: usize,
}

/// One communicator's LRU-bounded plan cache. Lookup is a linear scan — the
/// bound is small (tens of entries) and keys compare in a handful of words,
/// so a scan beats hashing at this size while keeping strict LRU order
/// trivial.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    /// `(key, plan, last-use tick)` triples.
    slots: Vec<(PlanKey<'static>, Arc<CollPlan>, u64)>,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
    /// Hits served by this cache.
    pub hits: u64,
    /// Misses (builds) through this cache.
    pub misses: u64,
    /// LRU evictions performed.
    pub evictions: u64,
    /// Plans dropped by explicit invalidation.
    pub invalidations: u64,
}

impl PlanCache {
    /// Probe for `key`, refreshing its LRU position on a hit and counting a
    /// miss on `None`. Split from [`PlanCache::insert`] so callers can defer
    /// miss-only work (hierarchy derivation, plan construction) until after a
    /// failed probe — the hit path is the hot path.
    pub fn lookup(&mut self, key: &PlanKey<'_>) -> Option<Arc<CollPlan>> {
        self.tick += 1;
        if let Some(slot) = self.slots.iter_mut().find(|(k, _, _)| k == key) {
            slot.2 = self.tick;
            self.hits += 1;
            return Some(Arc::clone(&slot.1));
        }
        self.misses += 1;
        None
    }

    /// Cache a freshly built plan under `key`, evicting the LRU entry at the
    /// `capacity` bound ([`crate::config::CollTuning::plan_cache_entries`]);
    /// `0` disables caching entirely (the plan is simply not retained — the
    /// bench harness uses this as its cold baseline).
    pub fn insert(&mut self, key: PlanKey<'_>, plan: &Arc<CollPlan>, capacity: usize) {
        if capacity == 0 {
            return;
        }
        if self.slots.len() >= capacity {
            let oldest = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, t))| *t)
                .map(|(i, _)| i)
                .expect("non-empty cache at capacity");
            self.slots.swap_remove(oldest);
            self.evictions += 1;
        }
        self.slots
            .push((key.into_owned(), Arc::clone(plan), self.tick));
    }

    /// Plans currently resident.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Drop every resident plan (a revoke or shrink made the cached schedules
    /// unusable: they bake in group membership and leader election). Counts
    /// the dropped plans as invalidations — distinct from LRU evictions — and
    /// returns how many were dropped. The hit/miss history survives, so
    /// [`PlanCacheStats`] still reflects the communicator's whole lifetime.
    pub fn invalidate(&mut self) -> usize {
        let dropped = self.slots.len();
        self.slots.clear();
        self.invalidations += dropped as u64;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::Loc;

    fn plan(label: &'static str) -> CollPlan {
        CollPlan::new(Vec::new(), 0, None, Loc::Buf, (0, 0), (0, 0), 0, label)
    }

    /// The lookup + insert composition every caller performs.
    fn get_or_build(
        cache: &mut PlanCache,
        key: PlanKey<'_>,
        capacity: usize,
        build: impl FnOnce() -> CollPlan,
    ) -> Arc<CollPlan> {
        if let Some(plan) = cache.lookup(&key) {
            return plan;
        }
        let plan = Arc::new(build());
        cache.insert(key, &plan, capacity);
        plan
    }

    #[test]
    fn hit_returns_the_same_plan() {
        let mut cache = PlanCache::default();
        let key = PlanKey::shaped(PlanOp::Bcast, 64);
        let a = get_or_build(&mut cache, key.clone(), 4, || plan("a"));
        let b = get_or_build(&mut cache, key, 4, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn distinct_keys_never_collide() {
        let mut cache = PlanCache::default();
        let k1 = PlanKey::rooted(PlanOp::Bcast, 0, 64);
        let k2 = PlanKey::rooted(PlanOp::Bcast, 1, 64); // different root
        let k3 = PlanKey::rooted(PlanOp::Bcast, 0, 128); // different size
        let k4 = PlanKey::reduction::<u64>(PlanOp::Allreduce, None, 8, ReduceOp::Sum);
        let k5 = PlanKey::reduction::<f64>(PlanOp::Allreduce, None, 8, ReduceOp::Sum); // type
        let k6 = PlanKey::reduction::<u64>(PlanOp::Allreduce, None, 8, ReduceOp::Max); // op
        let k7 = PlanKey::irregular(PlanOp::Alltoallv, &[1, 2, 0], &[2, 1, 0], 8);
        let k8 = PlanKey::irregular(PlanOp::Alltoallv, &[1, 2, 0], &[2, 0, 1], 8); // counts
        let k9 = PlanKey::irregular(PlanOp::Alltoallv, &[1, 2, 0], &[2, 1, 0], 4); // elem size
        for k in [&k1, &k2, &k3, &k4, &k5, &k6, &k7, &k8, &k9] {
            get_or_build(&mut cache, (*k).clone(), 16, || plan("x"));
        }
        assert_eq!(cache.len(), 9);
        assert_eq!(cache.misses, 9);
        assert_eq!(cache.hits, 0);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut cache = PlanCache::default();
        let keys: Vec<PlanKey<'_>> = (0..3)
            .map(|i| PlanKey::shaped(PlanOp::Bcast, 64 * (i + 1)))
            .collect();
        get_or_build(&mut cache, keys[0].clone(), 2, || plan("0"));
        get_or_build(&mut cache, keys[1].clone(), 2, || plan("1"));
        // Touch key 0 so key 1 becomes the LRU victim.
        get_or_build(&mut cache, keys[0].clone(), 2, || unreachable!());
        get_or_build(&mut cache, keys[2].clone(), 2, || plan("2"));
        assert_eq!(cache.evictions, 1);
        assert_eq!(cache.len(), 2);
        // Key 0 survived; key 1 was evicted and must rebuild.
        get_or_build(&mut cache, keys[0].clone(), 2, || unreachable!());
        get_or_build(&mut cache, keys[1].clone(), 2, || plan("1 again"));
        assert_eq!(cache.misses, 4);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = PlanCache::default();
        let key = PlanKey::shaped(PlanOp::Barrier, 0);
        get_or_build(&mut cache, key.clone(), 0, || plan("a"));
        get_or_build(&mut cache, key, 0, || plan("b"));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses, 2);
        assert_eq!(cache.hits, 0);
    }
}
