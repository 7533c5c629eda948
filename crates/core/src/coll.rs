//! Collective communication built on point-to-point (Section 3.6), over an
//! arbitrary communicator view, with **size- and shape-adaptive algorithm
//! selection** compiled into **immutable, cacheable plans**.
//!
//! The paper leaves collectives as future work but notes that, inside an MPI
//! library, collectives are implemented on top of point-to-point algorithms
//! (recursive doubling, Bruck, binomial trees) and therefore benefit directly
//! from the faster cMPI point-to-point path. This module provides that layer.
//! Like MPICH, each operation picks its algorithm from the message size and
//! the rank-count shape (thresholds live in [`CollTuning`]); the chosen
//! algorithm's label is returned to the caller and surfaced in
//! [`crate::runtime::RankReport::coll_algos`]:
//!
//! | operation | small payloads | large payloads |
//! |---|---|---|
//! | broadcast | binomial tree | scatter + ring allgather (van de Geijn) |
//! | allgather | Bruck (log₂ n steps) | ring (n−1 neighbour exchanges) |
//! | allreduce | recursive doubling | Rabenseifner (reduce-scatter + allgather) |
//! | reduce-scatter | allreduce + selection | recursive halving (2ᵏ ranks) / pairwise exchange |
//! | gather / scatter | linear | linear |
//! | reduce | binomial tree | binomial tree |
//! | scan / exscan | recursive doubling (Hillis–Steele) | recursive doubling |
//!
//! Every algorithm is expressed as a *builder* that compiles the rounds of
//! sends, receives, folds and copies this rank must execute into an immutable
//! [`CollPlan`] (see [`crate::progress`]). Plans are **buffer-agnostic**
//! (ops reference symbolic byte offsets into the primary/scratch arenas) and
//! **sequence-agnostic** (ops carry tag *offsets*; the per-start collective
//! sequence number is salted in only when the plan is bound to an
//! [`crate::progress::Execution`]), so a plan built once can be cached in the
//! per-communicator plan cache ([`crate::plan`]) and re-run by every later
//! start of the same shape — the blocking entry points, the nonblocking `i*`
//! starters and the MPI-4-style persistent `*_init` requests all execute the
//! same plans and cannot diverge. Plans preserve the deadlock-safe op
//! orderings of the original straight-line loops (lower rank sends first;
//! rank 0 of a ring receives first).
//!
//! Concurrent collectives on one communicator are kept apart by a
//! **collective sequence number** salted into every internal tag at bind
//! time: ranks start collectives on a communicator in the same order (the MPI
//! requirement), so the per-communicator counters agree and traffic of one
//! outstanding collective can never match another's receives. Internal tags
//! live at and above [`COLL_TAG_BASE`], a range wildcard receives never
//! match.
//!
//! Non-power-of-two rank counts no longer fall off a cliff: allreduce folds
//! the excess ranks into the largest power-of-two core (rank `2i` merges into
//! `2i+1` before the core algorithm and receives the result afterwards — the
//! MPICH elimination scheme), and the large-payload reduce-scatter switches to
//! pairwise exchange, which is shape-agnostic.
//!
//! Every algorithm runs over a [`CommView`] — the (group, context id, local
//! rank) triple describing one communicator from one rank's perspective — so
//! the same code serves the world communicator and any `comm_split`/`comm_dup`
//! sub-communicator: ranks are translated through the group, and the context
//! id keeps the collective's internal tags from ever matching traffic on
//! another communicator.
//!
//! This module only builds plans. The entry points live on
//! [`crate::comm::Comm`], which defines each collective once — arguments,
//! cache key, builder — and binds the cached plan in the blocking, `i*` and
//! persistent forms; communicator construction builds its context-id
//! agreement plans with the same builders, window-less and uncached.

use std::ops::Range;

use crate::config::{CollTuning, DataPlaneMode, HierarchyMode};
use crate::dataplane::{
    build_allgather_shm, build_allreduce_shm, build_alltoall_shm, build_barrier_shm,
    build_bcast_shm, build_reduce_shm, dp_selected, exchange_stride, DpOps,
};
use crate::group::Group;
use crate::progress::{fold_bytes, CollPlan, FoldFn, Loc, SchedOp};
use crate::topology::HostHierarchy;
use crate::transport::{DpPiece, DpWindow};
use crate::types::{CtxId, Rank, ReduceOp, Reducible, Tag, COLL_TAG_BASE};

/// How many in-flight collective sequence numbers the tag encoding keeps
/// distinct before wrapping (per communicator; per-sender FIFO ordering makes
/// wrap-around safe for any realistic depth).
pub(crate) const COLL_SEQ_WINDOW: u32 = 2048;

/// Stride of one sequence-number slot in the collective tag layout.
const SEQ_TAG_STRIDE: i32 = 0x8_0000;

/// The **tag offset** of collective `kind` at algorithm step `step` — the
/// sequence-independent part of a collective tag, stored in plan ops so that
/// a cached plan can be re-bound under any live sequence number. Layout
/// (within the reserved range starting at [`COLL_TAG_BASE`]): bits 19..30
/// carry `seq % 2048` (applied by [`bind_coll_tag`]), bits 15..18 the kind,
/// bits 0..14 the step.
pub(crate) fn coll_tag_off(kind: i32, step: usize) -> Tag {
    debug_assert!(
        (0..16).contains(&kind),
        "collective kind {kind} out of range"
    );
    debug_assert!(step < 0x8000, "collective step {step} out of range");
    kind * 0x8000 + step as i32
}

/// Resolve a plan op's tag offset against the live collective sequence number
/// of one start — the bind-time half of the tag layout (see
/// [`coll_tag_off`]).
pub(crate) fn bind_coll_tag(tag_off: Tag, seq: u32) -> Tag {
    COLL_TAG_BASE + ((seq % COLL_SEQ_WINDOW) as i32) * SEQ_TAG_STRIDE + tag_off
}

/// One communicator, seen from one rank: the rank group, the context id that
/// scopes its tag space, and this rank's position within the group.
#[derive(Debug, Clone, Copy)]
pub struct CommView<'a> {
    /// Ordered member group (local rank → world rank).
    pub group: &'a Group,
    /// Context id of the communicator.
    pub ctx: CtxId,
    /// This rank's local rank within the group.
    pub rank: Rank,
}

impl CommView<'_> {
    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// World rank of local rank `local`.
    pub fn world(&self, local: Rank) -> Rank {
        self.group.world_rank(local)
    }
}

/// The largest power of two ≤ `n` (requires `n ≥ 1`).
fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    1usize << (usize::BITS - 1 - n.leading_zeros())
}

// ----------------------------------------------------------------------
// Hierarchical (two-level) composition
// ----------------------------------------------------------------------
//
// When a communicator spans several hosts, barrier / bcast / reduce /
// allreduce / allgather can be composed as *host-hierarchical* schedules: a
// same-host phase (hardware-coherent, cheap), a cross-host phase among one
// leader per host (the only traffic that pays software-coherence and
// device-contention costs), and a same-host fan-out. Each phase's ops are
// emitted over the corresponding sub-group view from
// [`crate::topology::HostHierarchy`] but run under the *parent*
// communicator's context id and collective sequence number; the step bases
// below keep the phases' internal tags disjoint.

/// Step-base of the cross-host leader phase.
const PHASE_LEADER: usize = 0x400;
/// Step-base of the same-host fan-out phase.
const PHASE_FANOUT: usize = 0x800;
/// Step-base of root hand-off hops (a non-leader root shipping its payload to
/// or receiving the result from its host leader).
const PHASE_ROOT_HOP: usize = 0xC00;

/// Whether the hierarchical composition should be used for this call.
/// `min_payload_bytes` is the calling operation's own cutoff (the general
/// `hier_min_payload_bytes`, allgather's larger `hier_allgather_min_bytes`,
/// or 0 for the payload-free barrier, which is gated on shape alone).
/// Deterministic across ranks: every input is identical group-wide.
pub(crate) fn hier_selected(
    tuning: &CollTuning,
    hier: Option<&HostHierarchy>,
    payload_bytes: usize,
    min_payload_bytes: usize,
) -> bool {
    /// `Auto` needs every spanned host to hold this many of the
    /// communicator's ranks: a host with a lone rank gets no local-phase
    /// benefit.
    const MIN_RANKS_PER_HOST: usize = 2;
    let Some(h) = hier else { return false };
    if h.hosts_spanned() < 2 {
        return false;
    }
    match tuning.hierarchy {
        HierarchyMode::Off => false,
        HierarchyMode::Force => true,
        HierarchyMode::Auto => {
            h.min_ranks_per_host() >= MIN_RANKS_PER_HOST && payload_bytes >= min_payload_bytes
        }
    }
}

/// Whether the *flat* allreduce's largest exchange — the top-level
/// recursive-halving/doubling round, which moves half (Rabenseifner) or all
/// (doubling) of the vector — already pairs same-host ranks for **every**
/// core rank. True for e.g. round-robin placements over a power-of-two host
/// count, where the flat algorithm is accidentally topology-optimal and the
/// hierarchical composition would only add cross-host traffic (the bench
/// sweep measures flat winning ~1.4× there). `Auto` then stays flat;
/// `Force` still composes. Deterministic group-wide: depends only on the
/// shared group/topology.
fn flat_allreduce_top_exchange_stays_local(hier: &HostHierarchy, n: usize) -> bool {
    let pow2 = prev_power_of_two(n);
    if pow2 < 2 {
        return false;
    }
    let map = CoreMap {
        newrank: 0,
        pow2,
        excess: n - pow2,
    };
    let bit = pow2 >> 1;
    (0..pow2).all(|r| hier.slot_of(map.local(r)) == hier.slot_of(map.local(r ^ bit)))
}

/// Concurrent cross-host pair estimate of a hierarchical schedule: only the
/// leader phase crosses hosts, one leader per host. Fed to the transports'
/// contention models through the schedule's pairs hint.
fn hier_pairs_hint(hier: &HostHierarchy) -> usize {
    (hier.hosts_spanned() / 2).max(1)
}

// ----------------------------------------------------------------------
// Schedule plan builder
// ----------------------------------------------------------------------

/// Accumulates the op list of one collective plan for one rank, translating
/// local ranks to world ranks and stamping every op with its kind × step tag
/// *offset* (the sequence number is bound per start, not here — that is what
/// makes the finished plan cacheable).
struct Plan<'v, 'g> {
    view: &'v CommView<'g>,
    kind: i32,
    /// Offset added to every op's step — phases of a hierarchical composite
    /// use disjoint bases so their tags can never collide.
    step_base: usize,
    ops: Vec<SchedOp>,
}

impl<'v, 'g> Plan<'v, 'g> {
    fn new(view: &'v CommView<'g>, kind: i32) -> Self {
        Self::with_base(view, kind, 0)
    }

    fn with_base(view: &'v CommView<'g>, kind: i32, step_base: usize) -> Self {
        Plan {
            view,
            kind,
            step_base,
            ops: Vec::new(),
        }
    }

    fn tag(&self, step: usize) -> Tag {
        // Phases of a composite are PHASE_LEADER apart: a phase's steps must
        // never reach into the next phase's base.
        debug_assert!(
            self.step_base == 0 || step < PHASE_LEADER,
            "phase step {step} overflows the phase stride"
        );
        coll_tag_off(self.kind, self.step_base + step)
    }

    fn send(&mut self, peer_local: Rank, step: usize, loc: Loc, start: usize, end: usize) {
        self.ops.push(SchedOp::Send {
            peer: self.view.world(peer_local),
            tag_off: self.tag(step),
            loc,
            start,
            end,
        });
    }

    fn recv(&mut self, peer_local: Rank, step: usize, loc: Loc, start: usize, end: usize) {
        self.ops.push(SchedOp::Recv {
            peer: self.view.world(peer_local),
            tag_off: self.tag(step),
            loc,
            start,
            end,
        });
    }

    fn fold(&mut self, dst_loc: Loc, dst_start: usize, src_loc: Loc, src_start: usize, len: usize) {
        self.ops.push(SchedOp::Fold {
            dst_loc,
            dst_start,
            src_loc,
            src_start,
            len,
        });
    }

    fn copy(&mut self, dst_loc: Loc, dst_start: usize, src_loc: Loc, src_start: usize, len: usize) {
        self.ops.push(SchedOp::Copy {
            dst_loc,
            dst_start,
            src_loc,
            src_start,
            len,
        });
    }

    /// Pairwise exchange with the deadlock-safe ordering of the straight-line
    /// algorithms: the lower local rank sends first, the higher receives
    /// first, so the exchange cannot wedge even when both payloads exceed a
    /// transport queue's total capacity.
    #[allow(clippy::too_many_arguments)]
    fn exchange(
        &mut self,
        partner_local: Rank,
        step: usize,
        send_loc: Loc,
        send_start: usize,
        send_end: usize,
        recv_loc: Loc,
        recv_start: usize,
        recv_end: usize,
    ) {
        if self.view.rank < partner_local {
            self.send(partner_local, step, send_loc, send_start, send_end);
            self.recv(partner_local, step, recv_loc, recv_start, recv_end);
        } else {
            self.recv(partner_local, step, recv_loc, recv_start, recv_end);
            self.send(partner_local, step, send_loc, send_start, send_end);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        self,
        fold: Option<(ReduceOp, FoldFn)>,
        result_loc: Loc,
        result_range: (usize, usize),
        input_range: (usize, usize),
        scratch_len: usize,
        label: &'static str,
    ) -> CollPlan {
        CollPlan::new(
            self.ops,
            self.view.ctx,
            fold,
            result_loc,
            result_range,
            input_range,
            scratch_len,
            label,
        )
    }
}

// ----------------------------------------------------------------------
// Barrier
// ----------------------------------------------------------------------

/// Emit the dissemination-barrier token exchanges into `plan`: in round `k`
/// (of ⌈log₂ n⌉), local rank `i` sends a zero-byte token to `(i + 2ᵏ) mod n`
/// and receives the token from `(i − 2ᵏ) mod n`.
fn push_barrier_ops(plan: &mut Plan<'_, '_>) {
    let n = plan.view.size();
    let me = plan.view.rank;
    let mut distance = 1usize;
    let mut round = 0usize;
    while distance < n {
        let to = (me + distance) % n;
        let from = (me + n - distance) % n;
        plan.send(to, round, Loc::Buf, 0, 0);
        plan.recv(from, round, Loc::Buf, 0, 0);
        distance <<= 1;
        round += 1;
    }
}

/// Compile the barrier plan: the zero-byte exchange on the flag lines of the
/// communicator's shared window when `dp` offers one (a barrier moves no
/// bytes, so there is no payload for the hierarchy to save: the window wins
/// whenever it exists and [`DataPlaneMode::Ring`] is not forced); otherwise
/// a flat dissemination barrier, or — when the hierarchy is selected (shape
/// gates only) — the two-level composition: members report to their host
/// leader, the leaders run a dissemination barrier among themselves (the only
/// cross-host tokens), and each leader releases its host. Backs
/// [`crate::comm::Comm::ibarrier`], `barrier_init` and the blocking barrier
/// of every communicator but the world's.
pub fn build_barrier(
    view: &CommView<'_>,
    tuning: &CollTuning,
    hier: Option<&HostHierarchy>,
    dp: Option<DpWindow>,
) -> CollPlan {
    if view.size() > 1 && dp.is_some() && tuning.data_plane != DataPlaneMode::Ring {
        return build_barrier_shm(view);
    }
    if view.size() > 1 && hier_selected(tuning, hier, 0, 0) {
        return build_barrier_hier(view, hier.expect("selected hierarchy exists"));
    }
    let mut plan = Plan::new(view, 0);
    push_barrier_ops(&mut plan);
    plan.finish(None, Loc::Buf, (0, 0), (0, 0), 0, "barrier/dissemination")
}

/// Two-level barrier: linear fan-in to the host leader, leader dissemination,
/// linear fan-out — the only cross-host tokens are the leaders'.
fn build_barrier_hier(view: &CommView<'_>, hier: &HostHierarchy) -> CollPlan {
    let slot = hier.my_slot();
    let mut ops = Vec::new();
    // Fan-in: every member reports to its host leader.
    {
        let mut plan = Plan::new(view, 0);
        if hier.is_leader() {
            for &m in &hier.members(slot)[1..] {
                plan.recv(m, 0, Loc::Buf, 0, 0);
            }
        } else {
            plan.send(hier.leader_of(slot), 0, Loc::Buf, 0, 0);
        }
        ops.append(&mut plan.ops);
    }
    // Leader dissemination: the cross-host tokens.
    if hier.is_leader() {
        let leaders: &Group = hier.leader_group();
        let lview = CommView {
            group: leaders,
            ctx: view.ctx,
            rank: slot,
        };
        let mut plan = Plan::with_base(&lview, 0, PHASE_LEADER);
        push_barrier_ops(&mut plan);
        ops.append(&mut plan.ops);
    }
    // Fan-out: leaders release their hosts.
    {
        let mut plan = Plan::with_base(view, 0, PHASE_FANOUT);
        if hier.is_leader() {
            for &m in &hier.members(slot)[1..] {
                plan.send(m, 0, Loc::Buf, 0, 0);
            }
        } else {
            plan.recv(hier.leader_of(slot), 0, Loc::Buf, 0, 0);
        }
        ops.append(&mut plan.ops);
    }
    CollPlan::new(
        ops,
        view.ctx,
        None,
        Loc::Buf,
        (0, 0),
        (0, 0),
        0,
        "barrier/hier",
    )
    .with_pairs_hint(hier_pairs_hint(hier))
}

// ----------------------------------------------------------------------
// Broadcast
// ----------------------------------------------------------------------

/// The single predicate deciding binomial vs van de Geijn for `n` ranks at
/// `total` bytes — shared by the op emission, the flat label and the
/// composite label, so they can never disagree. Deterministic on every rank.
fn bcast_uses_scatter_allgather(n: usize, total: usize, tuning: &CollTuning) -> bool {
    n > 2 && total >= tuning.bcast_scatter_allgather_min_bytes
}

/// The flat broadcast algorithm label for `n` ranks at `total` bytes.
fn bcast_flat_label(n: usize, total: usize, tuning: &CollTuning) -> &'static str {
    if n == 1 {
        "bcast/local"
    } else if bcast_uses_scatter_allgather(n, total, tuning) {
        "bcast/scatter-allgather"
    } else {
        "bcast/binomial"
    }
}

/// Emit the size-adaptive broadcast ops (binomial tree below the
/// scatter-allgather threshold, van de Geijn above) into `plan`, over the
/// plan's view. Returns the flat algorithm label.
fn push_bcast_ops(
    plan: &mut Plan<'_, '_>,
    tuning: &CollTuning,
    root: Rank,
    total: usize,
) -> &'static str {
    let n = plan.view.size();
    if n > 1 {
        if bcast_uses_scatter_allgather(n, total, tuning) {
            push_bcast_scatter_allgather(plan, root, total);
        } else {
            push_bcast_binomial(plan, root, total);
        }
    }
    bcast_flat_label(n, total, tuning)
}

/// Compile the broadcast of `total` bytes from `root` into a plan over the
/// primary buffer: the single-copy data plane when `dp` offers a window the
/// payload fits (see [`crate::dataplane`]), otherwise the flat size-adaptive
/// algorithm, or — when the hierarchy is selected — the two-level composition
/// (root hop to its host leader, leader broadcast across hosts, per-host
/// fan-out).
pub fn build_bcast(
    view: &CommView<'_>,
    tuning: &CollTuning,
    hier: Option<&HostHierarchy>,
    dp: Option<DpWindow>,
    root: Rank,
    total: usize,
) -> CollPlan {
    let n = view.size();
    if n > 1
        && dp_selected(
            tuning,
            hier,
            dp,
            total,
            tuning.hier_min_payload_bytes,
            total,
        )
        .is_some()
    {
        return build_bcast_shm(view, hier, root, total);
    }
    if n > 1 && hier_selected(tuning, hier, total, tuning.hier_min_payload_bytes) {
        return build_bcast_hier(
            view,
            hier.expect("selected hierarchy exists"),
            tuning,
            root,
            total,
        );
    }
    let input = if view.rank == root {
        (0, total)
    } else {
        (0, 0)
    };
    let mut plan = Plan::new(view, 1);
    let label = push_bcast_ops(&mut plan, tuning, root, total);
    plan.finish(None, Loc::Buf, (0, total), input, 0, label)
}

/// Binomial-tree broadcast (latency-optimal: ⌈log₂ n⌉ rounds, but every hop
/// forwards the whole payload).
fn push_bcast_binomial(plan: &mut Plan<'_, '_>, root: Rank, total: usize) {
    let n = plan.view.size();
    let me = plan.view.rank;
    let vrank = (me + n - root) % n;
    if vrank != 0 {
        let highest = 1usize << (usize::BITS - 1 - vrank.leading_zeros());
        let parent = (vrank - highest + root) % n;
        plan.recv(parent, 0, Loc::Buf, 0, total);
    }
    let start_bit = if vrank == 0 {
        0
    } else {
        (usize::BITS - vrank.leading_zeros()) as usize
    };
    let mut bit = 1usize << start_bit;
    while vrank + bit < n {
        let child = (vrank + bit + root) % n;
        plan.send(child, 0, Loc::Buf, 0, total);
        bit <<= 1;
    }
}

/// Two-level broadcast: a non-leader root first hands the payload to its host
/// leader; the leaders then run the size-adaptive flat broadcast among
/// themselves (the only cross-host bytes); finally every leader broadcasts to
/// its own host. Label: `bcast/hier+<leader-phase algorithm>`.
fn build_bcast_hier(
    view: &CommView<'_>,
    hier: &HostHierarchy,
    tuning: &CollTuning,
    root: Rank,
    total: usize,
) -> CollPlan {
    let me = view.rank;
    let root_slot = hier.slot_of(root);
    let root_leader = hier.leader_of(root_slot);
    let mut ops = Vec::new();
    // Root hop: the payload reaches root's host leader.
    if root != root_leader && (me == root || me == root_leader) {
        let mut plan = Plan::with_base(view, 1, PHASE_ROOT_HOP);
        if me == root {
            plan.send(root_leader, 0, Loc::Buf, 0, total);
        } else {
            plan.recv(root, 0, Loc::Buf, 0, total);
        }
        ops.append(&mut plan.ops);
    }
    // Leader phase, rooted at root's host slot.
    let leaders: &Group = hier.leader_group();
    if hier.is_leader() {
        let lview = CommView {
            group: leaders,
            ctx: view.ctx,
            rank: hier.my_slot(),
        };
        let mut plan = Plan::with_base(&lview, 1, PHASE_LEADER);
        push_bcast_ops(&mut plan, tuning, root_slot, total);
        ops.append(&mut plan.ops);
    }
    // Fan-out within each host, rooted at the leader (local rank 0) — except
    // on the host of a non-leader root, where *both* the root and its leader
    // already hold the payload: there the remaining members fan out from the
    // root with the leader excluded entirely, so the root-hop plus fan-out
    // form an exact spanning tree with no redundant delivery.
    let local: &Group = hier.local_group();
    if local.size() > 1 {
        if hier.my_slot() == root_slot && root != root_leader {
            if me != root_leader {
                // The leader is always local rank 0 of its host group.
                let reduced = Group::from_world_ranks(local.world_ranks()[1..].to_vec())
                    .expect("a non-leader root implies further members");
                let root_pos = hier
                    .members(root_slot)
                    .iter()
                    .position(|&m| m == root)
                    .expect("root lives on its own slot")
                    - 1;
                let fview = CommView {
                    group: &reduced,
                    ctx: view.ctx,
                    rank: hier.my_local_rank() - 1,
                };
                let mut plan = Plan::with_base(&fview, 1, PHASE_FANOUT);
                push_bcast_ops(&mut plan, tuning, root_pos, total);
                ops.append(&mut plan.ops);
            }
        } else {
            let fview = CommView {
                group: local,
                ctx: view.ctx,
                rank: hier.my_local_rank(),
            };
            let mut plan = Plan::with_base(&fview, 1, PHASE_FANOUT);
            push_bcast_ops(&mut plan, tuning, 0, total);
            ops.append(&mut plan.ops);
        }
    }
    let label = if bcast_uses_scatter_allgather(leaders.size(), total, tuning) {
        "bcast/hier+scatter-allgather"
    } else {
        "bcast/hier+binomial"
    };
    let input = if me == root { (0, total) } else { (0, 0) };
    CollPlan::new(ops, view.ctx, None, Loc::Buf, (0, total), input, 0, label)
        .with_pairs_hint(hier_pairs_hint(hier))
}

/// Van de Geijn large-message broadcast: the payload is split into `n`
/// near-equal blocks, scattered down a binary range tree from the root, then
/// reassembled everywhere with a ring allgather. Each rank moves
/// O(bytes · (n−1)/n) through the scatter plus the same again through the
/// ring — roughly half the bytes-per-link of the binomial tree at large sizes.
fn push_bcast_scatter_allgather(plan: &mut Plan<'_, '_>, root: Rank, total: usize) {
    let n = plan.view.size();
    let me = plan.view.rank;
    let vrank = (me + n - root) % n;
    let base = total / n;
    let rem = total % n;
    // Block i occupies [off(i), off(i+1)): the first `rem` blocks get one
    // extra byte. Blocks may be empty when total < n.
    let off = |i: usize| i * base + i.min(rem);
    let to_local = |v: usize| (v + root) % n;

    // Scatter phase: recursive range halving over virtual ranks. The leader
    // of [lo, hi) (vrank == lo) holds that range's blocks and hands the upper
    // half to its leader.
    let mut lo = 0usize;
    let mut hi = n;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if vrank < mid {
            if vrank == lo {
                plan.send(to_local(mid), 1, Loc::Buf, off(mid), off(hi));
            }
            hi = mid;
        } else {
            if vrank == mid {
                plan.recv(to_local(lo), 1, Loc::Buf, off(mid), off(hi));
            }
            lo = mid;
        }
    }

    // Ring allgather over virtual ranks with the (possibly uneven) block
    // sizes. Virtual rank 0 receives before sending to break the cycle.
    let right = to_local((vrank + 1) % n);
    let left = to_local((vrank + n - 1) % n);
    for step in 0..n - 1 {
        let send_origin = (vrank + n - step) % n;
        let recv_origin = (vrank + n - step - 1) % n;
        if vrank == 0 {
            plan.recv(
                left,
                2 + step,
                Loc::Buf,
                off(recv_origin),
                off(recv_origin + 1),
            );
            plan.send(
                right,
                2 + step,
                Loc::Buf,
                off(send_origin),
                off(send_origin + 1),
            );
        } else {
            plan.send(
                right,
                2 + step,
                Loc::Buf,
                off(send_origin),
                off(send_origin + 1),
            );
            plan.recv(
                left,
                2 + step,
                Loc::Buf,
                off(recv_origin),
                off(recv_origin + 1),
            );
        }
    }
}

// ----------------------------------------------------------------------
// Gather / scatter
// ----------------------------------------------------------------------

/// Compile the linear gather of equal `block`-byte contributions at `root`.
/// On the root the primary buffer is the `n × block` receive buffer (own
/// block pre-placed by the caller); elsewhere it is the `block`-byte send
/// buffer and the plan is send-only.
pub fn build_gather(view: &CommView<'_>, root: Rank, block: usize) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let mut plan = Plan::new(view, 2);
    if me == root {
        // Source-specific receives straight into each member's slot:
        // per-sender FIFO keeps consecutive gathers on one communicator from
        // interleaving, and the payload lands in place with no staging.
        for r in 0..n {
            if r == root {
                continue;
            }
            plan.recv(r, 0, Loc::Buf, r * block, (r + 1) * block);
        }
        plan.finish(
            None,
            Loc::Buf,
            (0, n * block),
            (me * block, (me + 1) * block),
            0,
            "gather/linear",
        )
    } else {
        plan.send(root, 0, Loc::Buf, 0, block);
        plan.finish(None, Loc::Buf, (0, 0), (0, block), 0, "gather/linear")
    }
}

/// Compile the linear scatter of `block`-byte chunks from `root`. On the root
/// the primary buffer is the `n × block` send buffer (send-only plan, its
/// own chunk is the result range); elsewhere it is the `block`-byte receive
/// buffer.
pub fn build_scatter(view: &CommView<'_>, root: Rank, block: usize) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let mut plan = Plan::new(view, 3);
    if me == root {
        for r in 0..n {
            if r != me {
                plan.send(r, 0, Loc::Buf, r * block, (r + 1) * block);
            }
        }
        plan.finish(
            None,
            Loc::Buf,
            (me * block, (me + 1) * block),
            (0, n * block),
            0,
            "scatter/linear",
        )
    } else {
        plan.recv(root, 0, Loc::Buf, 0, block);
        plan.finish(None, Loc::Buf, (0, block), (0, 0), 0, "scatter/linear")
    }
}

// ----------------------------------------------------------------------
// Allgather
// ----------------------------------------------------------------------

/// Compile the size-adaptive allgather of `block`-byte contributions into a
/// plan over the `n × block` primary buffer (own block pre-placed at this
/// rank's slot by the caller): the single-copy data plane when `dp` offers a
/// window the block fits, otherwise Bruck below the threshold, ring above —
/// or, when the hierarchy is selected, the two-level composition (local
/// gather to the host leader, leader ring of whole-host batches, local
/// fan-out).
pub fn build_allgather(
    view: &CommView<'_>,
    tuning: &CollTuning,
    hier: Option<&HostHierarchy>,
    dp: Option<DpWindow>,
    block: usize,
) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let input = (me * block, (me + 1) * block);
    if n == 1 {
        let plan = Plan::new(view, 4);
        return plan.finish(None, Loc::Buf, (0, block), input, 0, "allgather/local");
    }
    if dp_selected(
        tuning,
        hier,
        dp,
        n * block,
        tuning.hier_allgather_min_bytes,
        block,
    )
    .is_some()
    {
        return build_allgather_shm(view, block);
    }
    if hier_selected(tuning, hier, n * block, tuning.hier_allgather_min_bytes) {
        return build_allgather_hier(
            view,
            hier.expect("selected hierarchy exists"),
            tuning,
            block,
        );
    }
    if n > 2 && block <= tuning.allgather_bruck_max_bytes {
        build_allgather_bruck(view, block)
    } else {
        build_allgather_ring(view, block)
    }
}

/// Two-level allgather. Members ship their block to the host leader, which
/// stages its host's blocks contiguously in scratch (`slot_off[s]` marks host
/// `s`'s batch); the leaders then run a ring exchange of whole-host batches —
/// uneven sizes are fine because every op carries explicit byte ranges — and
/// scatter the batches back into the parent-rank-indexed primary buffer
/// (correct for *any* rank→host permutation); finally each leader broadcasts
/// the assembled buffer to its host. Only the leader ring crosses hosts, and
/// it moves each byte across the device once per host instead of once per
/// rank.
fn build_allgather_hier(
    view: &CommView<'_>,
    hier: &HostHierarchy,
    tuning: &CollTuning,
    block: usize,
) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let slots = hier.hosts_spanned();
    let my_slot = hier.my_slot();
    let total = n * block;
    // Host batch offsets within the scratch staging arena.
    let mut slot_off = Vec::with_capacity(slots + 1);
    let mut acc = 0usize;
    for s in 0..slots {
        slot_off.push(acc);
        acc += hier.count(s) * block;
    }
    slot_off.push(acc);
    debug_assert_eq!(acc, total);

    let mut ops = Vec::new();
    let mut scratch_len = 0usize;
    if hier.is_leader() {
        scratch_len = total;
        // Local gather: every member's block lands in my host's batch.
        let mut plan = Plan::new(view, 4);
        for (j, &m) in hier.members(my_slot).iter().enumerate() {
            let dst = slot_off[my_slot] + j * block;
            if m == me {
                plan.copy(Loc::Scratch, dst, Loc::Buf, me * block, block);
            } else {
                plan.recv(m, 0, Loc::Scratch, dst, dst + block);
            }
        }
        ops.append(&mut plan.ops);
        // Leader ring over whole-host batches (slot 0 receives first to break
        // the cycle, mirroring the flat ring).
        {
            let leaders: &Group = hier.leader_group();
            let lview = CommView {
                group: leaders,
                ctx: view.ctx,
                rank: my_slot,
            };
            let mut lplan = Plan::with_base(&lview, 4, PHASE_LEADER);
            let right = (my_slot + 1) % slots;
            let left = (my_slot + slots - 1) % slots;
            for step in 0..slots - 1 {
                let send_origin = (my_slot + slots - step) % slots;
                let recv_origin = (my_slot + slots - step - 1) % slots;
                let send = (slot_off[send_origin], slot_off[send_origin + 1]);
                let recv = (slot_off[recv_origin], slot_off[recv_origin + 1]);
                if my_slot == 0 {
                    lplan.recv(left, step, Loc::Scratch, recv.0, recv.1);
                    lplan.send(right, step, Loc::Scratch, send.0, send.1);
                } else {
                    lplan.send(right, step, Loc::Scratch, send.0, send.1);
                    lplan.recv(left, step, Loc::Scratch, recv.0, recv.1);
                }
            }
            ops.append(&mut lplan.ops);
        }
        // Scatter the staged batches into the parent-rank-indexed buffer.
        let mut unpack = Plan::with_base(view, 4, PHASE_LEADER);
        for (s, &off) in slot_off[..slots].iter().enumerate() {
            for (j, &m) in hier.members(s).iter().enumerate() {
                if m == me {
                    continue; // own block never left the primary buffer
                }
                unpack.copy(Loc::Buf, m * block, Loc::Scratch, off + j * block, block);
            }
        }
        ops.append(&mut unpack.ops);
    } else {
        let mut plan = Plan::new(view, 4);
        plan.send(
            hier.leader_of(my_slot),
            0,
            Loc::Buf,
            me * block,
            (me + 1) * block,
        );
        ops.append(&mut plan.ops);
    }
    // Fan-out: leaders broadcast the assembled buffer to their hosts.
    let local: &Group = hier.local_group();
    if local.size() > 1 {
        let fview = CommView {
            group: local,
            ctx: view.ctx,
            rank: hier.my_local_rank(),
        };
        let mut plan = Plan::with_base(&fview, 4, PHASE_FANOUT);
        push_bcast_ops(&mut plan, tuning, 0, total);
        ops.append(&mut plan.ops);
    }
    CollPlan::new(
        ops,
        view.ctx,
        None,
        Loc::Buf,
        (0, total),
        (me * block, (me + 1) * block),
        scratch_len,
        "allgather/hier+ring",
    )
    .with_pairs_hint(hier_pairs_hint(hier))
}

/// Ring allgather: n−1 neighbour exchanges, each of one block. Blocks travel
/// directly between the primary-buffer slots with no intermediate copies.
fn build_allgather_ring(view: &CommView<'_>, block: usize) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    let mut plan = Plan::new(view, 4);
    for step in 0..n - 1 {
        let send_origin = (me + n - step) % n;
        let recv_origin = (me + n - step - 1) % n;
        let send = (send_origin * block, (send_origin + 1) * block);
        let recv = (recv_origin * block, (recv_origin + 1) * block);
        // Rank 0 receives before sending so the ring can never deadlock even
        // when a block exceeds a queue's total capacity.
        if me == 0 {
            plan.recv(left, step, Loc::Buf, recv.0, recv.1);
            plan.send(right, step, Loc::Buf, send.0, send.1);
        } else {
            plan.send(right, step, Loc::Buf, send.0, send.1);
            plan.recv(left, step, Loc::Buf, recv.0, recv.1);
        }
    }
    plan.finish(
        None,
        Loc::Buf,
        (0, n * block),
        (me * block, (me + 1) * block),
        0,
        "allgather/ring",
    )
}

/// Bruck allgather: ⌈log₂ n⌉ rounds of doubling block batches, then one local
/// rotation — latency-optimal for small blocks and shape-agnostic (any n).
///
/// Round `k` sends the first `min(2ᵏ, n − 2ᵏ)` accumulated blocks to rank
/// `me − 2ᵏ` and appends the batch received from `me + 2ᵏ`; after the last
/// round, scratch block `j` holds rank `(me + j) mod n`'s contribution and
/// the final copies unrotate it into the primary buffer.
fn build_allgather_bruck(view: &CommView<'_>, block: usize) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let mut plan = Plan::new(view, 4);
    // Scratch holds the rotated accumulation; seed it with this rank's block.
    plan.copy(Loc::Scratch, 0, Loc::Buf, me * block, block);
    let mut have = 1usize;
    let mut step = 0usize;
    while have < n {
        let count = have.min(n - have);
        let dst = (me + n - have) % n;
        let src = (me + have) % n;
        let tag_step = 64 + step;
        // Deadlock-safe ordering: the lower local rank of the (dst, src) pair
        // this rank participates in sends first.
        if me < dst {
            plan.send(dst, tag_step, Loc::Scratch, 0, count * block);
            plan.recv(
                src,
                tag_step,
                Loc::Scratch,
                have * block,
                (have + count) * block,
            );
        } else {
            plan.recv(
                src,
                tag_step,
                Loc::Scratch,
                have * block,
                (have + count) * block,
            );
            plan.send(dst, tag_step, Loc::Scratch, 0, count * block);
        }
        have += count;
        step += 1;
    }
    // Unrotate: scratch block j belongs to rank (me + j) mod n.
    for j in 0..n {
        let owner = (me + j) % n;
        plan.copy(Loc::Buf, owner * block, Loc::Scratch, j * block, block);
    }
    plan.finish(
        None,
        Loc::Buf,
        (0, n * block),
        (me * block, (me + 1) * block),
        n * block,
        "allgather/bruck",
    )
}

// ----------------------------------------------------------------------
// Reductions
// ----------------------------------------------------------------------

/// Emit the binomial-tree reduce ops into `plan`: in bit order, ranks with
/// the bit set ship their accumulated vector to the partner below and drop
/// out; the others receive into scratch and fold. Tag step = the bit,
/// matching the historical straight-line implementation's wire traffic.
fn push_reduce_ops(plan: &mut Plan<'_, '_>, root: Rank, total: usize) {
    let n = plan.view.size();
    let me = plan.view.rank;
    let vrank = (me + n - root) % n;
    let mut bit = 1usize;
    while bit < n {
        if vrank & bit != 0 {
            let partner = ((vrank - bit) + root) % n;
            plan.send(partner, bit, Loc::Buf, 0, total);
            break;
        } else if vrank + bit < n {
            let partner = ((vrank + bit) + root) % n;
            plan.recv(partner, bit, Loc::Scratch, 0, total);
            plan.fold(Loc::Buf, 0, Loc::Scratch, 0, total);
        }
        bit <<= 1;
    }
}

/// Compile the rooted reduce of `count` elements of `T` into a plan over
/// the in-place value vector: the single-copy data plane when `dp` offers a
/// window the vector fits, otherwise a flat binomial tree, or — when the
/// hierarchy is selected — the two-level composition (per-host binomial
/// reduce to the leader, leader binomial reduce across hosts rooted at
/// root's host, and a final hand-off to a non-leader root). The result range
/// selects the full vector on the root and is empty elsewhere.
pub fn build_reduce<T: Reducible>(
    view: &CommView<'_>,
    tuning: &CollTuning,
    hier: Option<&HostHierarchy>,
    dp: Option<DpWindow>,
    root: Rank,
    count: usize,
    op: ReduceOp,
) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let total = count * std::mem::size_of::<T>();
    let fold = Some((op, fold_bytes::<T> as FoldFn));
    let result = if me == root { (0, total) } else { (0, 0) };
    if n > 1
        && dp_selected(
            tuning,
            hier,
            dp,
            total,
            tuning.hier_min_payload_bytes,
            total,
        )
        .is_some()
    {
        return build_reduce_shm::<T>(view, root, count, op);
    }
    if n > 1 && hier_selected(tuning, hier, total, tuning.hier_min_payload_bytes) {
        return build_reduce_hier(
            view,
            hier.expect("selected hierarchy exists"),
            root,
            total,
            fold,
        );
    }
    let mut plan = Plan::new(view, 5);
    push_reduce_ops(&mut plan, root, total);
    plan.finish(fold, Loc::Buf, result, (0, total), total, "reduce/binomial")
}

/// Two-level rooted reduce; see [`build_reduce`]. Only the leader-phase
/// partials cross hosts.
fn build_reduce_hier(
    view: &CommView<'_>,
    hier: &HostHierarchy,
    root: Rank,
    total: usize,
    fold: Option<(ReduceOp, FoldFn)>,
) -> CollPlan {
    let me = view.rank;
    let root_slot = hier.slot_of(root);
    let root_leader = hier.leader_of(root_slot);
    let mut ops = Vec::new();
    // Per-host reduce to the leader (local rank 0).
    let local: &Group = hier.local_group();
    if local.size() > 1 {
        let lview = CommView {
            group: local,
            ctx: view.ctx,
            rank: hier.my_local_rank(),
        };
        let mut plan = Plan::new(&lview, 5);
        push_reduce_ops(&mut plan, 0, total);
        ops.append(&mut plan.ops);
    }
    // Leader reduce across hosts, rooted at root's host slot.
    if hier.is_leader() {
        let leaders: &Group = hier.leader_group();
        let lview = CommView {
            group: leaders,
            ctx: view.ctx,
            rank: hier.my_slot(),
        };
        let mut plan = Plan::with_base(&lview, 5, PHASE_LEADER);
        push_reduce_ops(&mut plan, root_slot, total);
        ops.append(&mut plan.ops);
    }
    // Hand the finished vector to a non-leader root.
    if root != root_leader && (me == root || me == root_leader) {
        let mut plan = Plan::with_base(view, 5, PHASE_ROOT_HOP);
        if me == root_leader {
            plan.send(root, 0, Loc::Buf, 0, total);
        } else {
            plan.recv(root_leader, 0, Loc::Buf, 0, total);
        }
        ops.append(&mut plan.ops);
    }
    let result = if me == root { (0, total) } else { (0, 0) };
    CollPlan::new(
        ops,
        view.ctx,
        fold,
        Loc::Buf,
        result,
        (0, total),
        total,
        "reduce/hier+binomial",
    )
    .with_pairs_hint(hier_pairs_hint(hier))
}

/// This rank's place in the power-of-two core left by fold elimination, plus
/// the mapping from core ranks back to parent-communicator local ranks.
#[derive(Clone, Copy)]
struct CoreMap {
    /// This rank's core rank.
    newrank: usize,
    /// Size of the core (largest power of two ≤ n).
    pow2: usize,
    /// Number of eliminated ranks (n − pow2).
    excess: usize,
}

impl CoreMap {
    /// Core rank → parent-communicator local rank.
    fn local(&self, core_rank: usize) -> usize {
        if core_rank < self.excess {
            2 * core_rank + 1
        } else {
            core_rank + self.excess
        }
    }
}

/// The single predicate deciding recursive doubling vs Rabenseifner for `n`
/// ranks reducing `count` elements of `total` bytes — shared by the op
/// emission and both labels, so they can never disagree. Rabenseifner only
/// pays off when every core rank still owns a non-trivial region after
/// log₂(pow2) halvings.
fn allreduce_uses_rabenseifner(n: usize, total: usize, count: usize, tuning: &CollTuning) -> bool {
    total >= tuning.allreduce_rabenseifner_min_bytes && count >= prev_power_of_two(n)
}

/// The flat allreduce algorithm label for `n` ranks reducing `count` elements
/// of `total` bytes — deterministic on every rank, so composite labels agree
/// group-wide even on ranks that skip the leader phase.
fn allreduce_flat_label(n: usize, total: usize, count: usize, tuning: &CollTuning) -> &'static str {
    if n == 1 {
        return "allreduce/local";
    }
    let large = allreduce_uses_rabenseifner(n, total, count, tuning);
    match (large, !n.is_power_of_two()) {
        (false, false) => "allreduce/recursive-doubling",
        (false, true) => "allreduce/recursive-doubling+fold",
        (true, false) => "allreduce/rabenseifner",
        (true, true) => "allreduce/rabenseifner+fold",
    }
}

/// Compile the size-adaptive allreduce of `count` elements of `T` into a
/// schedule: recursive doubling below the Rabenseifner threshold,
/// Rabenseifner (recursive-halving reduce-scatter + recursive-doubling
/// allgather) above, with power-of-two fold elimination for non-power-of-two
/// rank counts — or, when the hierarchy is selected, the two-level
/// composition (per-host reduce to the leader, the same size-adaptive flat
/// allreduce among the leaders only, per-host broadcast of the result). The
/// primary buffer is the in-place value vector.
pub fn build_allreduce<T: Reducible>(
    view: &CommView<'_>,
    tuning: &CollTuning,
    hier: Option<&HostHierarchy>,
    dp: Option<DpWindow>,
    count: usize,
    op: ReduceOp,
) -> CollPlan {
    let n = view.size();
    let elem = std::mem::size_of::<T>();
    let total = count * elem;
    let fold = Some((op, fold_bytes::<T> as FoldFn));
    if n == 1 {
        let plan = Plan::new(view, 6);
        return plan.finish(fold, Loc::Buf, (0, total), (0, total), 0, "allreduce/local");
    }
    if let Some(plan) = build_allreduce_shm::<T>(view, tuning, hier, dp, count, op) {
        return plan;
    }
    // Auto steps aside where the flat algorithm is already topology-optimal:
    // if the placement makes the flat top-level exchange same-host on every
    // rank (e.g. round-robin over two hosts), composing hierarchically would
    // only add cross-host bytes.
    let flat_already_local = tuning.hierarchy == HierarchyMode::Auto
        && hier.is_some_and(|h| flat_allreduce_top_exchange_stays_local(h, n));
    if hier_selected(tuning, hier, total, tuning.hier_min_payload_bytes) && !flat_already_local {
        return build_allreduce_hier::<T>(
            view,
            hier.expect("selected hierarchy exists"),
            tuning,
            count,
            op,
        );
    }
    let mut plan = Plan::new(view, 6);
    let label = push_allreduce_ops::<T>(&mut plan, tuning, count);
    plan.finish(fold, Loc::Buf, (0, total), (0, total), total, label)
}

/// Two-level allreduce; see [`build_allreduce`]. The leader phase reuses the
/// full size-adaptive flat machinery (recursive doubling / Rabenseifner with
/// fold elimination) over the leader group, so large leader payloads still
/// get the bandwidth-optimal variant; only that phase crosses hosts.
fn build_allreduce_hier<T: Reducible>(
    view: &CommView<'_>,
    hier: &HostHierarchy,
    tuning: &CollTuning,
    count: usize,
    op: ReduceOp,
) -> CollPlan {
    let elem = std::mem::size_of::<T>();
    let total = count * elem;
    let mut ops = Vec::new();
    // Per-host reduce to the leader.
    let local: &Group = hier.local_group();
    if local.size() > 1 {
        let lview = CommView {
            group: local,
            ctx: view.ctx,
            rank: hier.my_local_rank(),
        };
        let mut plan = Plan::new(&lview, 5);
        push_reduce_ops(&mut plan, 0, total);
        ops.append(&mut plan.ops);
    }
    // Flat size-adaptive allreduce among the leaders.
    let leaders: &Group = hier.leader_group();
    if hier.is_leader() {
        let lview = CommView {
            group: leaders,
            ctx: view.ctx,
            rank: hier.my_slot(),
        };
        let mut plan = Plan::with_base(&lview, 6, PHASE_LEADER);
        push_allreduce_ops::<T>(&mut plan, tuning, count);
        ops.append(&mut plan.ops);
    }
    // Per-host broadcast of the finished vector.
    if local.size() > 1 {
        let fview = CommView {
            group: local,
            ctx: view.ctx,
            rank: hier.my_local_rank(),
        };
        let mut plan = Plan::with_base(&fview, 6, PHASE_FANOUT);
        push_bcast_ops(&mut plan, tuning, 0, total);
        ops.append(&mut plan.ops);
    }
    let leader_n = leaders.size();
    let label = match (
        allreduce_uses_rabenseifner(leader_n, total, count, tuning),
        !leader_n.is_power_of_two(),
    ) {
        (false, false) => "allreduce/hier+recursive-doubling",
        (false, true) => "allreduce/hier+recursive-doubling+fold",
        (true, false) => "allreduce/hier+rabenseifner",
        (true, true) => "allreduce/hier+rabenseifner+fold",
    };
    CollPlan::new(
        ops,
        view.ctx,
        Some((op, fold_bytes::<T> as FoldFn)),
        Loc::Buf,
        (0, total),
        (0, total),
        total,
        label,
    )
    .with_pairs_hint(hier_pairs_hint(hier))
}

/// Emit the allreduce op sequence into `plan` (shared by [`build_allreduce`]
/// and the naive reduce-scatter, which is allreduce + block selection and
/// therefore reuses the same wire traffic). Returns the algorithm label.
///
/// Tags use kind 6 regardless of the caller's plan kind, mirroring the
/// straight-line implementation where naive reduce-scatter delegated to
/// `allreduce` and inherited its tags.
fn push_allreduce_ops<T: Reducible>(
    plan: &mut Plan<'_, '_>,
    tuning: &CollTuning,
    count: usize,
) -> &'static str {
    let view = plan.view;
    let n = view.size();
    let me = view.rank;
    let elem = std::mem::size_of::<T>();
    let total = count * elem;
    let kind_before = plan.kind;
    plan.kind = 6;
    let pow2 = prev_power_of_two(n);
    let excess = n - pow2;
    // Rabenseifner only pays off when every core rank still owns a
    // non-trivial region after log₂(pow2) halvings.
    let large = allreduce_uses_rabenseifner(n, total, count, tuning);

    // Fold pre-phase (non-power-of-two): among the first 2·excess ranks, each
    // even rank sends its vector to the odd rank above it and drops out of
    // the core; the odd rank folds both contributions.
    let newrank: Option<usize> = if me < 2 * excess {
        if me.is_multiple_of(2) {
            plan.send(me + 1, 1, Loc::Buf, 0, total);
            None
        } else {
            plan.recv(me - 1, 1, Loc::Scratch, 0, total);
            plan.fold(Loc::Buf, 0, Loc::Scratch, 0, total);
            Some(me / 2)
        }
    } else {
        Some(me - excess)
    };
    if let Some(newrank) = newrank {
        let core = CoreMap {
            newrank,
            pow2,
            excess,
        };
        if large {
            push_rabenseifner_core(plan, core, count, elem);
        } else {
            push_doubling_core(plan, core, total);
        }
    }

    // Fold post-phase: eliminated ranks receive the finished vector.
    if me < 2 * excess {
        if me.is_multiple_of(2) {
            plan.recv(me + 1, 2, Loc::Buf, 0, total);
        } else {
            plan.send(me - 1, 2, Loc::Buf, 0, total);
        }
    }
    plan.kind = kind_before;
    allreduce_flat_label(n, total, count, tuning)
}

/// Recursive-doubling allreduce over the power-of-two core: log₂(pow2)
/// full-vector exchanges, each folded into the primary buffer.
fn push_doubling_core(plan: &mut Plan<'_, '_>, core: CoreMap, total: usize) {
    let CoreMap { newrank, pow2, .. } = core;
    let mut bit = 1usize;
    let mut step = 0usize;
    while bit < pow2 {
        let partner = core.local(newrank ^ bit);
        plan.exchange(
            partner,
            8 + step,
            Loc::Buf,
            0,
            total,
            Loc::Scratch,
            0,
            total,
        );
        plan.fold(Loc::Buf, 0, Loc::Scratch, 0, total);
        bit <<= 1;
        step += 1;
    }
}

/// Rabenseifner allreduce over the power-of-two core: recursive-halving
/// reduce-scatter (each exchange moves half the remaining region) followed by
/// a recursive-doubling allgather that replays the halvings in reverse. Total
/// traffic per rank ≈ 2·bytes·(pow2−1)/pow2 — independent of log n, which is
/// what makes it win for large vectors.
fn push_rabenseifner_core(plan: &mut Plan<'_, '_>, core: CoreMap, count: usize, elem: usize) {
    let CoreMap { newrank, pow2, .. } = core;
    let mut lo = 0usize;
    let mut hi = count;
    // (region before this level's halving) per level, replayed in reverse by
    // the allgather phase.
    let mut spans: Vec<(usize, usize)> = Vec::new();

    // Phase 1: reduce-scatter by recursive halving, highest bit first.
    let mut bit = pow2 >> 1;
    let mut level = 0usize;
    while bit >= 1 {
        let partner = core.local(newrank ^ bit);
        let mid = lo + (hi - lo) / 2;
        let (my_lo, my_hi, their_lo, their_hi) = if newrank & bit == 0 {
            (lo, mid, mid, hi)
        } else {
            (mid, hi, lo, mid)
        };
        let recv_len = my_hi - my_lo;
        plan.exchange(
            partner,
            16 + level,
            Loc::Buf,
            their_lo * elem,
            their_hi * elem,
            Loc::Scratch,
            0,
            recv_len * elem,
        );
        plan.fold(Loc::Buf, my_lo * elem, Loc::Scratch, 0, recv_len * elem);
        spans.push((lo, hi));
        lo = my_lo;
        hi = my_hi;
        if bit == 1 {
            break;
        }
        bit >>= 1;
        level += 1;
    }

    // Phase 2: allgather by recursive doubling, replaying the levels in
    // reverse: each exchange doubles the owned region back to the full
    // vector. My region and the partner's are disjoint halves of the level's
    // span, so both travel directly through the primary buffer.
    let mut bit = 1usize;
    for (level_idx, &(span_lo, span_hi)) in spans.iter().enumerate().rev() {
        let partner = core.local(newrank ^ bit);
        let (mine, theirs) = if lo == span_lo {
            ((lo, hi), (hi, span_hi))
        } else {
            ((lo, hi), (span_lo, lo))
        };
        plan.exchange(
            partner,
            32 + level_idx,
            Loc::Buf,
            mine.0 * elem,
            mine.1 * elem,
            Loc::Buf,
            theirs.0 * elem,
            theirs.1 * elem,
        );
        lo = span_lo;
        hi = span_hi;
        bit <<= 1;
    }
}

/// Compile the size-adaptive reduce-scatter of `count` elements of `T`: the
/// naive allreduce + block selection for small payloads, recursive halving
/// (power-of-two rank counts) or pairwise exchange (any rank count) above the
/// threshold. The primary buffer is this rank's full input vector; the result
/// range selects this rank's reduced block.
pub fn build_reduce_scatter<T: Reducible>(
    view: &CommView<'_>,
    tuning: &CollTuning,
    count: usize,
    op: ReduceOp,
) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let elem = std::mem::size_of::<T>();
    let total = count * elem;
    let block = count / n;
    let block_b = block * elem;
    let fold = Some((op, fold_bytes::<T> as FoldFn));
    if n == 1 {
        let plan = Plan::new(view, 7);
        return plan.finish(
            fold,
            Loc::Buf,
            (0, total),
            (0, total),
            0,
            "reduce-scatter/local",
        );
    }
    if total >= tuning.reduce_scatter_direct_min_bytes && block > 0 {
        if n.is_power_of_two() {
            return build_reduce_scatter_halving::<T>(view, count, op);
        }
        return build_reduce_scatter_pairwise::<T>(view, count, op);
    }
    // Naive: the allreduce wire traffic, then select this rank's block.
    let mut plan = Plan::new(view, 7);
    push_allreduce_ops::<T>(&mut plan, tuning, count);
    plan.finish(
        fold,
        Loc::Buf,
        (me * block_b, (me + 1) * block_b),
        (0, total),
        total,
        "reduce-scatter/naive",
    )
}

/// Recursive-halving reduce-scatter (power-of-two rank counts): log₂ n
/// exchanges, each of half the remaining region; the surviving region after
/// the last halving is exactly this rank's block (the schedule's result
/// range).
fn build_reduce_scatter_halving<T: Reducible>(
    view: &CommView<'_>,
    count: usize,
    op: ReduceOp,
) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let elem = std::mem::size_of::<T>();
    let mut plan = Plan::new(view, 7);
    let mut lo = 0usize;
    let mut hi = count;
    let mut bit = n >> 1;
    let mut level = 0usize;
    while bit >= 1 {
        let partner = me ^ bit;
        let mid = lo + (hi - lo) / 2;
        let (my_lo, my_hi, their_lo, their_hi) = if me & bit == 0 {
            (lo, mid, mid, hi)
        } else {
            (mid, hi, lo, mid)
        };
        let recv_len = my_hi - my_lo;
        plan.exchange(
            partner,
            64 + level,
            Loc::Buf,
            their_lo * elem,
            their_hi * elem,
            Loc::Scratch,
            0,
            recv_len * elem,
        );
        plan.fold(Loc::Buf, my_lo * elem, Loc::Scratch, 0, recv_len * elem);
        lo = my_lo;
        hi = my_hi;
        if bit == 1 {
            break;
        }
        bit >>= 1;
        level += 1;
    }
    debug_assert_eq!((lo, hi), (me * (count / n), (me + 1) * (count / n)));
    plan.finish(
        Some((op, fold_bytes::<T> as FoldFn)),
        Loc::Buf,
        (lo * elem, hi * elem),
        (0, count * elem),
        (count / 2) * elem,
        "reduce-scatter/recursive-halving",
    )
}

/// Pairwise-exchange reduce-scatter (any rank count): n−1 steps; at step `s`
/// this rank ships the block belonging to `me + s` and folds the block
/// arriving from `me − s` into its accumulator. Bandwidth-optimal for large
/// payloads and immune to the power-of-two cliff. Scratch layout: incoming
/// block at `[0, block)`, accumulator at `[block, 2·block)`.
fn build_reduce_scatter_pairwise<T: Reducible>(
    view: &CommView<'_>,
    count: usize,
    op: ReduceOp,
) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let elem = std::mem::size_of::<T>();
    let block_b = (count / n) * elem;
    let mut plan = Plan::new(view, 7);
    plan.copy(Loc::Scratch, block_b, Loc::Buf, me * block_b, block_b);
    for s in 1..n {
        let dst = (me + s) % n;
        let src = (me + n - s) % n;
        // Deadlock-safe ordering: the lower rank of each (sender, receiver)
        // edge sends first; every communication cycle contains a wrap-around
        // edge whose sender receives first, so no cyclic wait can form.
        if me < dst {
            plan.send(dst, s, Loc::Buf, dst * block_b, (dst + 1) * block_b);
            plan.recv(src, s, Loc::Scratch, 0, block_b);
        } else {
            plan.recv(src, s, Loc::Scratch, 0, block_b);
            plan.send(dst, s, Loc::Buf, dst * block_b, (dst + 1) * block_b);
        }
        plan.fold(Loc::Scratch, block_b, Loc::Scratch, 0, block_b);
    }
    plan.finish(
        Some((op, fold_bytes::<T> as FoldFn)),
        Loc::Scratch,
        (block_b, 2 * block_b),
        (0, count * elem),
        2 * block_b,
        "reduce-scatter/pairwise",
    )
}

// ----------------------------------------------------------------------
// Scan / exscan
// ----------------------------------------------------------------------

/// Compile the inclusive prefix reduction (`MPI_Scan`) of `count` elements of
/// `T`: Hillis–Steele recursive doubling, in place over the primary buffer.
/// In round `k` (distance `d = 2ᵏ`) each rank ships its running partial to
/// rank `me + d` and folds the partial arriving from `me − d` — after
/// ⌈log₂ n⌉ rounds rank `r` holds `x₀ ⊕ … ⊕ x_r`. The communication pattern
/// is a DAG per round (edges point upward only), so no deadlock ordering is
/// needed. Always flat: prefix order is rank order, which a host hierarchy
/// cannot exploit without reordering ranks.
pub fn build_scan<T: Reducible>(view: &CommView<'_>, count: usize, op: ReduceOp) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let total = count * std::mem::size_of::<T>();
    let fold = Some((op, fold_bytes::<T> as FoldFn));
    let mut plan = Plan::new(view, 8);
    let mut d = 1usize;
    let mut step = 0usize;
    while d < n {
        // The send reads the *pre-fold* partial: ops execute strictly in
        // order, so the send at this step completes before the fold below
        // rewrites the buffer.
        if me + d < n {
            plan.send(me + d, step, Loc::Buf, 0, total);
        }
        if me >= d {
            plan.recv(me - d, step, Loc::Scratch, 0, total);
            plan.fold(Loc::Buf, 0, Loc::Scratch, 0, total);
        }
        d <<= 1;
        step += 1;
    }
    plan.finish(
        fold,
        Loc::Buf,
        (0, total),
        (0, total),
        total,
        "scan/recursive-doubling",
    )
}

/// Compile the exclusive prefix reduction (`MPI_Exscan`) of `count` elements
/// of `T`. Same recursive-doubling rounds as [`build_scan`], but the running
/// partial lives in scratch while the primary buffer accumulates only the
/// *received* segments: the segments arriving across rounds are disjoint and
/// together cover exactly `x₀ … x_{r−1}`, so the first arrival is copied and
/// later ones folded. Rank 0 receives nothing; its buffer keeps the input
/// (the MPI "undefined on rank 0" slot) and its result range is empty.
pub fn build_exscan<T: Reducible>(view: &CommView<'_>, count: usize, op: ReduceOp) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let total = count * std::mem::size_of::<T>();
    let fold = Some((op, fold_bytes::<T> as FoldFn));
    // Scratch layout: running partial at [0, total), incoming at
    // [total, 2·total).
    let mut plan = Plan::new(view, 9);
    plan.copy(Loc::Scratch, 0, Loc::Buf, 0, total);
    let mut d = 1usize;
    let mut step = 0usize;
    let mut first_recv = true;
    while d < n {
        if me + d < n {
            plan.send(me + d, step, Loc::Scratch, 0, total);
        }
        if me >= d {
            plan.recv(me - d, step, Loc::Scratch, total, 2 * total);
            if first_recv {
                plan.copy(Loc::Buf, 0, Loc::Scratch, total, total);
                first_recv = false;
            } else {
                plan.fold(Loc::Buf, 0, Loc::Scratch, total, total);
            }
            plan.fold(Loc::Scratch, 0, Loc::Scratch, total, total);
        }
        d <<= 1;
        step += 1;
    }
    let result = if me == 0 { (0, 0) } else { (0, total) };
    plan.finish(
        fold,
        Loc::Buf,
        result,
        (0, total),
        2 * total,
        "exscan/recursive-doubling",
    )
}

// ----------------------------------------------------------------------
// Alltoall family
// ----------------------------------------------------------------------
//
// The complete exchange: every rank holds one block per peer and ends up
// with one block from every peer — the communication backbone of FFT
// transposes, distributed sort and shuffle-heavy analytics, and the densest
// traffic pattern a transport can face (n·(n−1) distinct point-to-point
// payloads per call). The builders below compile it size-adaptively:
// Bruck's ⌈log₂ n⌉ packed rounds while per-message latency dominates,
// bandwidth-optimal pairwise exchange once the wire term does, a
// single-copy shared-window shape on the CXL data plane (each rank exposes
// its send image once; every peer pulls its own block), and a two-level
// host-hierarchical composition that trades three extra copies for
// `hosts²` instead of `ranks²` cross-host messages.

/// Compile the complete exchange of equal `block`-byte per-peer payloads,
/// **in place** over the primary buffer: on entry block `i` holds the data
/// this rank sends to local rank `i`, on completion block `i` holds the
/// data local rank `i` sent here. Selection mirrors the other size-adaptive
/// families and is deterministic group-wide: the data plane first (total
/// exchange volume fits a window slot), then the host hierarchy, then Bruck
/// below [`CollTuning::alltoall_bruck_max_bytes`] per block, pairwise
/// exchange above.
pub fn build_alltoall(
    view: &CommView<'_>,
    tuning: &CollTuning,
    hier: Option<&HostHierarchy>,
    dp: Option<DpWindow>,
    block: usize,
) -> CollPlan {
    let n = view.size();
    let total = n * block;
    if n == 1 || block == 0 {
        // Self-exchange (the block is already in place) or a zero-byte
        // shape: no allocation, no messages.
        let plan = Plan::new(view, 10);
        return plan.finish(None, Loc::Buf, (0, total), (0, total), 0, "alltoall/local");
    }
    if dp_selected(
        tuning,
        hier,
        dp,
        total,
        tuning.hier_alltoall_min_bytes,
        total,
    )
    .is_some()
    {
        return build_alltoall_shm(view, block);
    }
    if hier_selected(tuning, hier, total, tuning.hier_alltoall_min_bytes) {
        return build_alltoall_hier(view, hier.expect("selected hierarchy exists"), block);
    }
    if n > 2 && block <= tuning.alltoall_bruck_max_bytes {
        build_alltoall_bruck(view, block)
    } else {
        build_alltoall_pairwise(view, block)
    }
}

/// Pairwise-exchange alltoall (any rank count): the send image is staged to
/// scratch once, then n−1 steps each exchange one block with a shifted
/// partner — at step `s` this rank ships block `me + s` and receives block
/// `me − s` straight into its final position. Every byte crosses the wire
/// exactly once (bandwidth-optimal); the staging copy exists because the
/// recv-first side of an exchange would otherwise overwrite a block it has
/// yet to send.
fn build_alltoall_pairwise(view: &CommView<'_>, block: usize) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let total = n * block;
    let mut plan = Plan::new(view, 10);
    plan.copy(Loc::Scratch, 0, Loc::Buf, 0, total);
    for s in 1..n {
        let dst = (me + s) % n;
        let src = (me + n - s) % n;
        // Deadlock-safe ordering: the lower rank of each (sender, receiver)
        // edge sends first; every communication cycle contains a wrap-around
        // edge whose sender receives first, so no cyclic wait can form.
        if me < dst {
            plan.send(dst, s, Loc::Scratch, dst * block, (dst + 1) * block);
            plan.recv(src, s, Loc::Buf, src * block, (src + 1) * block);
        } else {
            plan.recv(src, s, Loc::Buf, src * block, (src + 1) * block);
            plan.send(dst, s, Loc::Scratch, dst * block, (dst + 1) * block);
        }
    }
    plan.finish(
        None,
        Loc::Buf,
        (0, total),
        (0, total),
        total,
        "alltoall/pairwise",
    )
}

/// Bruck alltoall: ⌈log₂ n⌉ rounds of packed half-buffer exchanges —
/// latency-optimal for small blocks (each round moves ~n/2 blocks in **one**
/// message where pairwise would send them individually), at the price of
/// every block crossing the wire ~log₂(n)/2 times instead of once.
///
/// Phase 1 rotates the send image into scratch (`tmp[j]` = the block for
/// rank `me + j`); in round `k` (a power of two) every block whose relative
/// offset `j` has bit `k` set is packed and shipped to rank `me + k`, so
/// after all rounds `tmp[j]` holds the block *from* rank `me − j`; phase 3
/// unrotates into the primary buffer.
fn build_alltoall_bruck(view: &CommView<'_>, block: usize) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let total = n * block;
    let mut plan = Plan::new(view, 10);
    // Phase 1: tmp[j] = buf[(me + j) mod n].
    for j in 0..n {
        plan.copy(
            Loc::Scratch,
            j * block,
            Loc::Buf,
            ((me + j) % n) * block,
            block,
        );
    }
    // Scratch layout: rotated image at [0, total), pack area at [total,
    // total + max_batch), unpack area after it. The pack area is reusable
    // across rounds because a Send op completes (all bytes copied out)
    // before the plan cursor advances; the unpack area cannot share it
    // because the recv-first ordering branch receives *before* sending.
    let pack_off = total;
    let mut max_batch = 0usize;
    let mut k = 1usize;
    while k < n {
        max_batch = max_batch.max((1..n).filter(|j| j & k != 0).count());
        k <<= 1;
    }
    let unpack_off = pack_off + max_batch * block;
    let mut k = 1usize;
    let mut step = 0usize;
    while k < n {
        let moved: Vec<usize> = (1..n).filter(|j| j & k != 0).collect();
        let batch = moved.len() * block;
        let dst = (me + k) % n;
        let src = (me + n - k) % n;
        let tag_step = 64 + step;
        for (i, &j) in moved.iter().enumerate() {
            plan.copy(
                Loc::Scratch,
                pack_off + i * block,
                Loc::Scratch,
                j * block,
                block,
            );
        }
        // Deadlock-safe ordering, as in the Bruck allgather.
        if me < dst {
            plan.send(dst, tag_step, Loc::Scratch, pack_off, pack_off + batch);
            plan.recv(src, tag_step, Loc::Scratch, unpack_off, unpack_off + batch);
        } else {
            plan.recv(src, tag_step, Loc::Scratch, unpack_off, unpack_off + batch);
            plan.send(dst, tag_step, Loc::Scratch, pack_off, pack_off + batch);
        }
        for (i, &j) in moved.iter().enumerate() {
            plan.copy(
                Loc::Scratch,
                j * block,
                Loc::Scratch,
                unpack_off + i * block,
                block,
            );
        }
        k <<= 1;
        step += 1;
    }
    // Phase 3: tmp[j] arrived from rank (me − j) mod n.
    for j in 0..n {
        plan.copy(
            Loc::Buf,
            ((me + n - j) % n) * block,
            Loc::Scratch,
            j * block,
            block,
        );
    }
    plan.finish(
        None,
        Loc::Buf,
        (0, total),
        (0, total),
        unpack_off + max_batch * block,
        "alltoall/bruck",
    )
}

/// Two-level alltoall. Members ship their whole send image to the host
/// leader; the leaders then run a pairwise exchange of per-host-pair
/// *batches* — the batch `mine → s` concatenates every block any of my
/// host's members addressed to any of host `s`'s members — and finally each
/// leader assembles and fans out every member's receive image. Cross-host
/// message count drops from `ranks²` to `hosts²` (each batch is one
/// message), at the price of three extra full copies, so the `Auto` gate
/// ([`CollTuning::hier_alltoall_min_bytes`]) keeps it to the regime where
/// per-message cost dominates.
fn build_alltoall_hier(view: &CommView<'_>, hier: &HostHierarchy, block: usize) -> CollPlan {
    let n = view.size();
    let me = view.rank;
    let total = n * block;
    let slots = hier.hosts_spanned();
    let mine = hier.my_slot();
    let mut ops = Vec::new();
    let mut scratch_len = 0usize;
    if hier.is_leader() {
        let members = hier.members(mine);
        let k = members.len();
        // Scratch layout: the member send images ("gather area", k × total),
        // then one received-batch area per remote host, then the reusable
        // batch pack area, then the reusable fan-out pack area. Both pack
        // areas survive reuse across sends because a Send op completes (all
        // bytes copied out) before the plan cursor advances.
        let gather_off = 0usize;
        let mut exch_off = vec![0usize; slots];
        let mut acc = k * total;
        let mut max_batch = 0usize;
        for (s, off) in exch_off.iter_mut().enumerate() {
            if s == mine {
                continue;
            }
            *off = acc;
            acc += hier.count(s) * k * block;
            max_batch = max_batch.max(hier.count(s) * k * block);
        }
        let pack_off = acc;
        let fan_off = pack_off + max_batch;
        scratch_len = fan_off + total;

        // Local gather: every member's full send image, own image copied.
        let mut plan = Plan::new(view, 10);
        for (j, &m) in members.iter().enumerate() {
            let dst = gather_off + j * total;
            if m == me {
                plan.copy(Loc::Scratch, dst, Loc::Buf, 0, total);
            } else {
                plan.recv(m, 0, Loc::Scratch, dst, dst + total);
            }
        }
        ops.append(&mut plan.ops);

        // Leader pairwise exchange of host-pair batches. Batch layout (both
        // directions, emitted by this same code on every leader): member
        // index-major, destination index-minor.
        {
            let leaders: &Group = hier.leader_group();
            let lview = CommView {
                group: leaders,
                ctx: view.ctx,
                rank: mine,
            };
            let mut lplan = Plan::with_base(&lview, 10, PHASE_LEADER);
            for step in 1..slots {
                let dst_slot = (mine + step) % slots;
                let src_slot = (mine + slots - step) % slots;
                let out_batch: usize = k * hier.count(dst_slot) * block;
                let in_batch: usize = hier.count(src_slot) * k * block;
                for (j, _) in members.iter().enumerate() {
                    for (i, &d) in hier.members(dst_slot).iter().enumerate() {
                        lplan.copy(
                            Loc::Scratch,
                            pack_off + (j * hier.count(dst_slot) + i) * block,
                            Loc::Scratch,
                            gather_off + j * total + d * block,
                            block,
                        );
                    }
                }
                // Deadlock-safe ordering over the shifted pairs, as in the
                // pairwise reduce-scatter.
                if mine < dst_slot {
                    lplan.send(dst_slot, step, Loc::Scratch, pack_off, pack_off + out_batch);
                    lplan.recv(
                        src_slot,
                        step,
                        Loc::Scratch,
                        exch_off[src_slot],
                        exch_off[src_slot] + in_batch,
                    );
                } else {
                    lplan.recv(
                        src_slot,
                        step,
                        Loc::Scratch,
                        exch_off[src_slot],
                        exch_off[src_slot] + in_batch,
                    );
                    lplan.send(dst_slot, step, Loc::Scratch, pack_off, pack_off + out_batch);
                }
            }
            ops.append(&mut lplan.ops);
        }

        // Assembly + fan-out: member `d` (host-local index `i`)'s receive
        // image holds, at block `p`, the block rank `p` sent to `d` — found
        // in the gather area when `p` is a host-mate, in `p`'s host's
        // received batch otherwise.
        let mut fan = Plan::with_base(view, 10, PHASE_FANOUT);
        let src_of = |p: usize, i: usize| -> (usize, usize) {
            let s = hier.slot_of(p);
            let j = hier
                .members(s)
                .iter()
                .position(|&m| m == p)
                .expect("rank in its own host slot");
            if s == mine {
                (gather_off + j * total, j) // offset of image; block below
            } else {
                (exch_off[s] + (j * k + i) * block, usize::MAX)
            }
        };
        for (i, &d) in members.iter().enumerate() {
            let assemble_at = if d == me { None } else { Some(fan_off) };
            for p in 0..n {
                let (src, local_j) = src_of(p, i);
                let src = if local_j != usize::MAX {
                    src + d * block // within a host-mate's send image
                } else {
                    src
                };
                match assemble_at {
                    None => fan.copy(Loc::Buf, p * block, Loc::Scratch, src, block),
                    Some(off) => fan.copy(Loc::Scratch, off + p * block, Loc::Scratch, src, block),
                }
            }
            if let Some(off) = assemble_at {
                fan.send(d, i, Loc::Scratch, off, off + total);
            }
        }
        ops.append(&mut fan.ops);
    } else {
        // Non-leader: ship the send image up, receive the result image back.
        let leader = hier.leader_of(mine);
        let mut plan = Plan::new(view, 10);
        plan.send(leader, 0, Loc::Buf, 0, total);
        ops.append(&mut plan.ops);
        let my_idx = hier
            .members(mine)
            .iter()
            .position(|&m| m == me)
            .expect("rank in its own host slot");
        let mut fan = Plan::with_base(view, 10, PHASE_FANOUT);
        fan.recv(leader, my_idx, Loc::Buf, 0, total);
        ops.append(&mut fan.ops);
    }
    CollPlan::new(
        ops,
        view.ctx,
        None,
        Loc::Buf,
        (0, total),
        (0, total),
        scratch_len,
        "alltoall/hier+pairwise",
    )
    .with_pairs_hint(hier_pairs_hint(hier))
}

/// Compile the irregular complete exchange (`alltoallv`/`alltoallw`): peer
/// `i`'s outgoing segment spans `send_counts[i] × elem` bytes, packed
/// contiguously in peer order, and the incoming segments pack the same way.
/// The plan runs over one combined buffer, send image at `[0, send_total)`
/// followed by the receive image — reading only the former and writing only
/// the latter, so no staging copy is needed (scratch-free).
///
/// **Each pair picks its own path, from its own count.** On a window `dp`
/// every writer's slot is cut into one region per reader
/// (`dataplane::exchange_stride`); a segment that fits the region is stored at
/// `reader × stride` — all of a rank's such segments in one gathered
/// exposure, one streamed publish and one flag — and the reader pulls it from
/// `(writer, me × stride)`: no message, no displacement table, nothing to
/// agree on, because MPI already gave both ends the pair's count. The pulls
/// go in writer order, so a dense exchange reads all its peers in one run —
/// one row of flag lines, one gathered read — and a peer with nothing to
/// pull splits it in two rather than have anyone wait for a flag that may
/// never be raised. A longer segment is known to be so by exactly the two
/// ranks concerned and travels as a message between them in the same plan;
/// with no window (TCP, a forced ring, a window the pool could not hold) or a
/// stride of 0 that is every segment, and the plan is the flat pairwise
/// exchange: at step `s` send to `me + s`, then receive from `me − s`. Send first on every rank — a plan
/// `Send` that flow control stops drains this rank's arrivals while it
/// waits, so two ranks that owe each other more than a queue holds both get
/// through (see `Comm::sendrecv`).
///
/// **Empty segments are free**: a zero-count peer pair emits no op at all
/// (nothing is sent, stored or read, and the writer's slot is not held for
/// that peer), so sparse exchanges — the common shuffle case — cost only
/// their non-empty edges.
pub fn build_alltoallv(
    view: &CommView<'_>,
    dp: Option<DpWindow>,
    send_counts: &[usize],
    recv_counts: &[usize],
    elem: usize,
    byte_variant: bool,
) -> CollPlan {
    const LABELS: [[&str; 3]; 2] = [
        [
            "alltoallv/pairwise",
            "alltoallv/shm",
            "alltoallv/shm+pairwise",
        ],
        [
            "alltoallw/pairwise",
            "alltoallw/shm",
            "alltoallw/shm+pairwise",
        ],
    ];
    let n = view.size();
    let me = view.rank;
    debug_assert_eq!(send_counts.len(), n);
    debug_assert_eq!(recv_counts.len(), n);
    let kind = if byte_variant { 12 } else { 11 };
    // Prefix sums over the send counts, then the receive counts: the receive
    // image starts where the send image ends.
    let mut off = Vec::with_capacity(2 * n + 1);
    off.push(0);
    for &c in send_counts.iter().chain(recv_counts) {
        off.push(off[off.len() - 1] + c * elem);
    }
    // What peer `i` is sent, and where its segment lands.
    let out = |i: usize| off[i]..off[i + 1];
    let inc = |i: usize| off[n + i]..off[n + i + 1];
    // The two ends of a pair ask these of the same length.
    let stride = exchange_stride(dp, n);
    let pulled = |seg: &Range<usize>| !seg.is_empty() && seg.len() <= stride;
    let sent = |seg: &Range<usize>| seg.len() > stride;
    let wire = |s: usize, peer: Rank| (view.world(peer), coll_tag_off(kind, s));

    // A copy, an expose and one op to and one from every peer at most, and a
    // row per run of pulls: room for any exchange that is not mostly holes.
    let mut ops = DpOps::with_capacity(me, 2 * n + 1, if stride > 0 { n - 1 } else { 0 });
    if !out(me).is_empty() {
        ops.list.push(SchedOp::Copy {
            dst_loc: Loc::Buf,
            dst_start: inc(me).start,
            src_loc: Loc::Buf,
            src_start: out(me).start,
            len: out(me).len(),
        });
    }
    ops.gather(
        stride,
        (0..n)
            .filter(|&r| r != me && pulled(&out(r)))
            .map(|r| DpPiece {
                region_off: r * stride,
                start: out(r).start,
                end: out(r).end,
            }),
    );
    for s in 1..n {
        let dst = (me + s) % n;
        if sent(&out(dst)) {
            let (peer, tag_off) = wire(s, dst);
            ops.message(SchedOp::Send {
                peer,
                tag_off,
                loc: Loc::Buf,
                start: out(dst).start,
                end: out(dst).end,
            });
        }
    }
    // In writer order: one run, one row, unless a pair with nothing to pull —
    // empty, or oversize — splits it.
    for w in (0..n).filter(|&w| w != me) {
        if pulled(&inc(w)) {
            ops.pull_gathered(stride, w, me, inc(w).len(), inc(w).start);
        }
    }
    for s in 1..n {
        // What `src` sent at its own step `s`.
        let src = (me + n - s) % n;
        if sent(&inc(src)) {
            let (peer, tag_off) = wire(s, src);
            ops.message(SchedOp::Recv {
                peer,
                tag_off,
                loc: Loc::Buf,
                start: inc(src).start,
                end: inc(src).end,
            });
        }
    }
    let messages = ops
        .list
        .iter()
        .any(|op| matches!(op, SchedOp::Send { .. } | SchedOp::Recv { .. }));
    // No window: pairwise. A window: shm, and "+pairwise" where a pair fell back.
    let path = usize::from(stride > 0) * (1 + usize::from(messages));
    ops.into_plan(
        view,
        None,
        (off[n], off[2 * n]),
        (0, off[n]),
        0,
        LABELS[usize::from(byte_variant)][path],
    )
}
