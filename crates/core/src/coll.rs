//! Collective communication built on point-to-point (Section 3.6), over an
//! arbitrary communicator view, with **size- and shape-adaptive algorithm
//! selection** compiled into **immutable, cacheable plans**.
//!
//! The paper leaves collectives as future work but notes that, inside an MPI
//! library, collectives are implemented on top of point-to-point algorithms
//! (recursive doubling, Bruck, binomial trees) and therefore benefit directly
//! from the faster cMPI point-to-point path. This module provides that layer.
//! Like MPICH, each operation picks its algorithm from the message size and
//! the rank-count shape, at one fixed crossover per operation (the
//! [`BCAST_SCATTER_ALLGATHER_MIN_BYTES`] family of constants); the chosen
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
//! | alltoall | Bruck (⌈log₂ n⌉ packed rounds) | pairwise exchange (n−1 shifted rounds) |
//!
//! Beside the flat algorithms, barrier, bcast, allgather, reduce, allreduce
//! and alltoall have two more paths — the communicator's shared window
//! ([`crate::dataplane`]) and a two-level host composition — and one function
//! chooses among the three for every plan (`select_path`).
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
//! same plans and cannot diverge. Plans keep the op orderings of the original
//! straight-line loops (lower rank sends first; rank 0 of a ring receives
//! first) for **determinism, not liveness**: a stopped plan `Send` drains
//! arrivals, so sending first everywhere completes too, but partners then
//! drain each other's longer-than-a-stream-lap messages from inside blocked
//! sends, charged as the host schedules them (the 2-rank 1 MiB allreduce
//! turns from one exact virtual time into a spread).
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

use crate::config::{CollTuning, HierarchyMode};
use crate::dataplane::{
    allgather_choice, allreduce_choice, alltoall_choice, bcast_choice, build_allgather_shm,
    build_allreduce_shm, build_alltoall_shm, build_barrier_shm, build_bcast_shm, build_reduce_shm,
    exchange_stride, reduce_choice, DpOps,
};
use crate::group::Group;
use crate::progress::{fold_bytes, CollPlan, FoldFn, Loc, SchedOp};
use crate::topology::HostHierarchy;
use crate::transport::DpWindow;
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
// Path selection
// ----------------------------------------------------------------------

/// Broadcast switches from the binomial tree to scatter + ring allgather
/// (van de Geijn) at and above this many payload bytes, on more than two
/// ranks.
pub const BCAST_SCATTER_ALLGATHER_MIN_BYTES: usize = 128 * 1024;
/// Allreduce switches from recursive doubling to Rabenseifner
/// (reduce-scatter + allgather) at and above this many payload bytes, once
/// every rank of the power-of-two core owns at least one element.
pub const ALLREDUCE_RABENSEIFNER_MIN_BYTES: usize = 16 * 1024;
/// Allgather uses Bruck (⌈log₂ n⌉ rounds) for per-rank blocks up to this
/// many bytes on more than two ranks, the bandwidth-optimal ring above.
pub const ALLGATHER_BRUCK_MAX_BYTES: usize = 4 * 1024;
/// Reduce-scatter switches from the naive allreduce + block selection to
/// recursive halving (power-of-two) / pairwise exchange (other counts) at
/// and above this many total payload bytes.
pub const REDUCE_SCATTER_DIRECT_MIN_BYTES: usize = 16 * 1024;
/// Alltoall uses Bruck (⌈log₂ n⌉ rounds of packed half-buffer exchanges) for
/// per-peer blocks up to this many bytes on more than two ranks, the
/// bandwidth-optimal pairwise exchange above. The `alltoall` sweep recorded
/// in `BENCH_collectives.json` puts the crossover between 16 KiB and 32 KiB
/// per block at n = 4–8: Bruck's round saving wins while per-message latency
/// dominates, and its ~2× data-volume inflation loses once the wire term
/// does.
pub const ALLTOALL_BRUCK_MAX_BYTES: usize = 16 * 1024;

/// `Auto`'s payload cutoff for the two-level bcast, reduce and allreduce: the
/// local phases add hops that only pay off once the cross-host bandwidth term
/// dominates.
const HIER_MIN_PAYLOAD_BYTES: usize = 512 * 1024;
/// Allgather's cutoff, on the *total* result size (`ranks × block`). The
/// two-level allgather moves every byte through an extra local gather and a
/// full-buffer fan-out, so its crossover sits far above the reductions' — the
/// bench sweep measured it losing at a 512 KiB total and winning at 8 MiB.
const HIER_ALLGATHER_MIN_BYTES: usize = 4 * 1024 * 1024;
/// Alltoall's cutoff, on the total per-rank exchange volume (`ranks ×
/// block`): the leaders funnel every byte through three full copies, which
/// only pays once the cross-host message count, not the bytes, is the
/// bottleneck.
const HIER_ALLTOALL_MIN_BYTES: usize = 4 * 1024 * 1024;

/// The way a collective runs, chosen once per plan by [`select_path`].
enum Path<'h> {
    /// The single-copy shape on the communicator's shared window.
    Window(DpWindow),
    /// The two-level composition over this hierarchy (see [`TwoLevel`]).
    TwoLevel(&'h HostHierarchy),
    /// The flat point-to-point algorithm.
    Flat,
}

/// The path of a collective among `n` ranks that moves `payload` bytes;
/// `hier_min` is the payload from which `Auto` composes it in two levels —
/// `None` for the barrier, which moves no bytes: its hierarchy is gated on
/// shape alone, and there is no payload for it to save on the window.
///
/// * **Window** when `dp` offers one, unless the two-level composition
///   selects itself: its per-host phases are exactly the traffic the window
///   replaces, so where it wins it keeps the job. A collective larger than a
///   slot runs there in slot-sized segments ([`crate::dataplane`]). The
///   barrier takes the window whenever there is one.
/// * **Two-level** on ≥ 2 spanned hosts: always under
///   [`HierarchyMode::Force`]; under `Auto` when every spanned host holds at
///   least two of the ranks (a lone rank gets no local-phase benefit) and the
///   payload reaches `hier_min`.
/// * **Flat** otherwise, and always for a single rank.
///
/// Deterministic group-wide: every input is identical on every member.
fn select_path<'h>(
    n: usize,
    tuning: &CollTuning,
    hier: Option<&'h HostHierarchy>,
    dp: Option<DpWindow>,
    payload: usize,
    hier_min: Option<usize>,
) -> Path<'h> {
    const MIN_RANKS_PER_HOST: usize = 2;
    if n < 2 {
        return Path::Flat;
    }
    let two_level = hier.filter(|h| {
        h.hosts_spanned() >= 2
            && match tuning.hierarchy {
                HierarchyMode::Off => false,
                HierarchyMode::Force => true,
                HierarchyMode::Auto => {
                    h.min_ranks_per_host() >= MIN_RANKS_PER_HOST && payload >= hier_min.unwrap_or(0)
                }
            }
    });
    match dp {
        Some(w) if two_level.is_none() || hier_min.is_none() => Path::Window(w),
        _ => two_level.map_or(Path::Flat, Path::TwoLevel),
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
        Plan {
            view,
            kind,
            step_base: 0,
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

    /// Pairwise exchange in the order of the straight-line algorithms: the
    /// lower local rank sends first, the higher receives first. Not for
    /// liveness — a stopped plan `Send` drains arrivals, so both sending first
    /// completes as well — but so that the two messages never cross: neither
    /// partner drains the other's from inside a blocked send, where the charge
    /// would depend on the host's schedule once both payloads exceed a stream
    /// lap (see the module documentation).
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
// Two-level composition
// ----------------------------------------------------------------------
//
// When a communicator spans several hosts, barrier / bcast / reduce /
// allreduce / allgather / alltoall can be composed as *host-hierarchical*
// schedules: a same-host phase (hardware-coherent, cheap), a cross-host phase
// among one leader per host (the only traffic that pays software-coherence and
// device-contention costs), and a same-host fan-out. Each phase's ops are
// emitted over one of [`HostHierarchy`]'s views but run under the *parent*
// communicator's context id and collective sequence number; the step bases
// below keep the phases' internal tags disjoint.

/// Step-base of the cross-host leader phase.
const PHASE_LEADER: usize = 0x400;
/// Step-base of the same-host fan-out phase.
const PHASE_FANOUT: usize = 0x800;
/// Step-base of root hand-off hops (a non-leader root shipping its payload to
/// or receiving the result from its host leader).
const PHASE_ROOT_HOP: usize = 0xC00;

/// The group one phase of a two-level composite runs over.
#[derive(Clone, Copy)]
enum Level {
    /// The whole communicator (root hand-off hops).
    Parent,
    /// This rank's host, its leader at local rank 0.
    Host,
    /// One leader per host, in host-slot order; the other ranks skip the phase.
    Leaders,
}

/// A two-level composite under construction: phases appended in order, each
/// over its [`Level`]'s view and at its own step base, finished into one plan
/// that tells the contention model only the leaders cross hosts.
struct TwoLevel<'a, 'g> {
    view: &'a CommView<'g>,
    hier: &'a HostHierarchy,
    kind: i32,
    ops: Vec<SchedOp>,
}

impl<'a, 'g> TwoLevel<'a, 'g> {
    fn new(view: &'a CommView<'g>, hier: &'a HostHierarchy, kind: i32) -> Self {
        TwoLevel {
            view,
            hier,
            kind,
            ops: Vec::new(),
        }
    }

    /// Append what `emit` pushes over `level`'s view at `step_base`.
    fn phase(&mut self, level: Level, step_base: usize, emit: impl FnOnce(&mut Plan<'_, '_>)) {
        let (h, ctx) = (self.hier, self.view.ctx);
        let view = match level {
            Level::Parent => *self.view,
            Level::Host => CommView {
                group: h.local_group(),
                ctx,
                rank: h.my_local_rank(),
            },
            Level::Leaders if h.is_leader() => CommView {
                group: h.leader_group(),
                ctx,
                rank: h.my_slot(),
            },
            Level::Leaders => return,
        };
        self.phase_over(&view, step_base, emit);
    }

    /// Append what `emit` pushes over `view`, a group of the communicator's
    /// members, at `step_base`.
    fn phase_over(
        &mut self,
        view: &CommView<'_>,
        step_base: usize,
        emit: impl FnOnce(&mut Plan<'_, '_>),
    ) {
        let mut plan = Plan {
            view,
            kind: self.kind,
            step_base,
            ops: std::mem::take(&mut self.ops),
        };
        emit(&mut plan);
        self.ops = plan.ops;
    }

    /// The plan, its result in the primary buffer. Only the leader phase
    /// crosses hosts, one leader per host: that is the concurrent pair count
    /// the contention model is given.
    fn finish(
        self,
        fold: Option<(ReduceOp, FoldFn)>,
        result_range: (usize, usize),
        input_range: (usize, usize),
        scratch_len: usize,
        label: &'static str,
    ) -> CollPlan {
        let pairs = (self.hier.hosts_spanned() / 2).max(1);
        CollPlan::new(
            self.ops,
            self.view.ctx,
            fold,
            Loc::Buf,
            result_range,
            input_range,
            scratch_len,
            label,
        )
        .with_pairs_hint(pairs)
    }
}

/// The `total`-byte primary buffer from `from` to `to`, one message —
/// nothing when they are one rank.
fn push_hop(plan: &mut Plan<'_, '_>, from: Rank, to: Rank, total: usize) {
    let me = plan.view.rank;
    if from != to && me == from {
        plan.send(to, 0, Loc::Buf, 0, total);
    } else if from != to && me == to {
        plan.recv(from, 0, Loc::Buf, 0, total);
    }
}

/// Zero-byte tokens between a host's leader (local rank 0) and each other
/// member: in to the leader, or out from it.
fn push_host_tokens(plan: &mut Plan<'_, '_>, inward: bool) {
    let n = plan.view.size();
    match (plan.view.rank, inward) {
        (0, true) => (1..n).for_each(|m| plan.recv(m, 0, Loc::Buf, 0, 0)),
        (0, false) => (1..n).for_each(|m| plan.send(m, 0, Loc::Buf, 0, 0)),
        (_, true) => plan.send(0, 0, Loc::Buf, 0, 0),
        (_, false) => plan.recv(0, 0, Loc::Buf, 0, 0),
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

/// Compile the barrier plan on the path `select_path` chooses — the window
/// whenever there is one (a barrier moves no bytes, so there is nothing for
/// the hierarchy to save): the zero-byte exchange on the window's flag lines.
/// Otherwise a flat dissemination barrier, or the two-level composition:
/// members report to their host leader, the leaders run a dissemination
/// barrier among themselves (the only cross-host tokens), and each leader
/// releases its host. Backs [`crate::comm::Comm::ibarrier`], `barrier_init`
/// and the blocking barrier of every communicator but the world's.
pub fn build_barrier(
    view: &CommView<'_>,
    tuning: &CollTuning,
    hier: Option<&HostHierarchy>,
    dp: Option<DpWindow>,
) -> CollPlan {
    match select_path(view.size(), tuning, hier, dp, 0, None) {
        Path::Window(_) => build_barrier_shm(view),
        Path::TwoLevel(h) => {
            let mut c = TwoLevel::new(view, h, 0);
            c.phase(Level::Host, 0, |p| push_host_tokens(p, true));
            c.phase(Level::Leaders, PHASE_LEADER, push_barrier_ops);
            c.phase(Level::Host, PHASE_FANOUT, |p| push_host_tokens(p, false));
            c.finish(None, (0, 0), (0, 0), 0, "barrier/hier")
        }
        Path::Flat => {
            let mut plan = Plan::new(view, 0);
            push_barrier_ops(&mut plan);
            plan.finish(None, Loc::Buf, (0, 0), (0, 0), 0, "barrier/dissemination")
        }
    }
}

// ----------------------------------------------------------------------
// Broadcast
// ----------------------------------------------------------------------

/// The single predicate deciding binomial vs van de Geijn for `n` ranks at
/// `total` bytes — shared by the op emission, the flat label and the
/// composite label, so they can never disagree. Deterministic on every rank.
fn bcast_uses_scatter_allgather(n: usize, total: usize) -> bool {
    n > 2 && total >= BCAST_SCATTER_ALLGATHER_MIN_BYTES
}

/// The flat broadcast algorithm label for `n` ranks at `total` bytes.
fn bcast_flat_label(n: usize, total: usize) -> &'static str {
    if n == 1 {
        "bcast/local"
    } else if bcast_uses_scatter_allgather(n, total) {
        "bcast/scatter-allgather"
    } else {
        "bcast/binomial"
    }
}

/// Emit the size-adaptive broadcast ops (binomial tree below the
/// scatter-allgather threshold, van de Geijn above) into `plan`, over the
/// plan's view.
fn push_bcast_ops(plan: &mut Plan<'_, '_>, root: Rank, total: usize) {
    let n = plan.view.size();
    if bcast_uses_scatter_allgather(n, total) {
        push_bcast_scatter_allgather(plan, root, total);
    } else if n > 1 {
        push_bcast_binomial(plan, root, total);
    }
}

/// Compile the broadcast of `total` bytes from `root` into a plan over the
/// primary buffer, on the path `select_path` chooses: the single-copy
/// window shape ([`crate::dataplane`]); the two-level composition — a
/// non-leader root hands the payload to its host leader, the leaders run the
/// size-adaptive flat broadcast among themselves (the only cross-host bytes),
/// and every leader broadcasts to its own host; or the flat size-adaptive
/// algorithm.
pub fn build_bcast(
    view: &CommView<'_>,
    tuning: &CollTuning,
    hier: Option<&HostHierarchy>,
    dp: Option<DpWindow>,
    root: Rank,
    total: usize,
) -> CollPlan {
    let (n, me) = (view.size(), view.rank);
    let input = if me == root { (0, total) } else { (0, 0) };
    let choice = dp.and_then(|w| bcast_choice(&w, hier, root, total));
    let hier_min = Some(HIER_MIN_PAYLOAD_BYTES);
    match (select_path(n, tuning, hier, dp, total, hier_min), choice) {
        (Path::Window(w), Some(c)) => {
            build_bcast_shm(view, &w, hier, (c.shape, c.segments), root, total)
        }
        (Path::TwoLevel(h), _) => {
            let root_slot = h.slot_of(root);
            let root_leader = h.leader_of(root_slot);
            let mut c = TwoLevel::new(view, h, 1);
            c.phase(Level::Parent, PHASE_ROOT_HOP, |p| {
                push_hop(p, root, root_leader, total)
            });
            c.phase(Level::Leaders, PHASE_LEADER, |p| {
                push_bcast_ops(p, root_slot, total)
            });
            // Each host fans out from its leader — except the host of a
            // non-leader root, where root and leader both hold the payload
            // already: the other members fan out from the root there, the
            // leader left out, so that hop and fan-out are an exact spanning
            // tree with no redundant delivery.
            if h.my_slot() != root_slot || root == root_leader {
                c.phase(Level::Host, PHASE_FANOUT, |p| push_bcast_ops(p, 0, total));
            } else if me != root_leader {
                let rest = Group::from_world_ranks(h.local_group().world_ranks()[1..].to_vec())
                    .expect("a non-leader root implies further members");
                let rest_view = CommView {
                    group: &rest,
                    ctx: view.ctx,
                    rank: h.my_local_rank() - 1,
                };
                let members = h.members(root_slot);
                let root_pos = members
                    .iter()
                    .position(|&m| m == root)
                    .expect("root on its host")
                    - 1;
                c.phase_over(&rest_view, PHASE_FANOUT, |p| {
                    push_bcast_ops(p, root_pos, total)
                });
            }
            let label = if bcast_uses_scatter_allgather(h.hosts_spanned(), total) {
                "bcast/hier+scatter-allgather"
            } else {
                "bcast/hier+binomial"
            };
            c.finish(None, (0, total), input, 0, label)
        }
        _ => {
            let mut plan = Plan::new(view, 1);
            push_bcast_ops(&mut plan, root, total);
            let label = bcast_flat_label(n, total);
            plan.finish(None, Loc::Buf, (0, total), input, 0, label)
        }
    }
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
    // sizes.
    push_ring(plan, Loc::Buf, 2, vrank, to_local, off);
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

/// Ring allgather of `n` blocks, block `i` at `off(i)..off(i + 1)` of `loc`
/// (uneven sizes are fine: every op carries its own byte range): `n − 1`
/// neighbour exchanges, the `s`-th at step `step0 + s`, over *virtual* ranks
/// — this rank is `vrank`, and `to_local` maps a virtual rank to a rank of
/// the plan's view. Virtual rank 0 receives before sending: an order kept for
/// determinism, not liveness (see `Plan::exchange`).
fn push_ring(
    plan: &mut Plan<'_, '_>,
    loc: Loc,
    step0: usize,
    vrank: usize,
    to_local: impl Fn(usize) -> Rank,
    off: impl Fn(usize) -> usize,
) {
    let n = plan.view.size();
    let right = to_local((vrank + 1) % n);
    let left = to_local((vrank + n - 1) % n);
    for step in 0..n - 1 {
        let (out, inc) = ((vrank + n - step) % n, (vrank + n - step - 1) % n);
        let step = step0 + step;
        if vrank == 0 {
            plan.recv(left, step, loc, off(inc), off(inc + 1));
            plan.send(right, step, loc, off(out), off(out + 1));
        } else {
            plan.send(right, step, loc, off(out), off(out + 1));
            plan.recv(left, step, loc, off(inc), off(inc + 1));
        }
    }
}

/// Compile the size-adaptive allgather of `block`-byte contributions into a
/// plan over the `n × block` primary buffer (own block pre-placed at this
/// rank's slot by the caller), on the path `select_path` chooses: the
/// single-copy window shape; the two-level composition; or Bruck below the
/// threshold, ring above.
///
/// Two levels: members ship their block to the host leader, which stages its
/// host's blocks contiguously in scratch (`slot_off[s]` marks host `s`'s
/// batch); the leaders run a ring of whole-host batches and scatter them into
/// the parent-rank-indexed primary buffer (correct for *any* rank→host
/// permutation); finally each leader broadcasts the assembled buffer to its
/// host. Only the leader ring crosses hosts, and it moves each byte across the
/// device once per host instead of once per rank.
pub fn build_allgather(
    view: &CommView<'_>,
    tuning: &CollTuning,
    hier: Option<&HostHierarchy>,
    dp: Option<DpWindow>,
    block: usize,
) -> CollPlan {
    let (n, me) = (view.size(), view.rank);
    let total = n * block;
    let input = (me * block, (me + 1) * block);
    if n == 1 {
        let plan = Plan::new(view, 4);
        return plan.finish(None, Loc::Buf, (0, block), input, 0, "allgather/local");
    }
    let choice = dp.and_then(|w| allgather_choice(&w, hier, n, block));
    let hier_min = Some(HIER_ALLGATHER_MIN_BYTES);
    match (select_path(n, tuning, hier, dp, total, hier_min), choice) {
        (Path::Window(w), Some(c)) => {
            build_allgather_shm(view, &w, hier, (c.shape, c.segments), block)
        }
        (Path::TwoLevel(h), _) => {
            let slots = h.hosts_spanned();
            let mut slot_off = vec![0; slots + 1];
            for s in 0..slots {
                slot_off[s + 1] = slot_off[s] + h.count(s) * block;
            }
            let batch = slot_off[h.my_slot()];
            let mut c = TwoLevel::new(view, h, 4);
            // Every member's block lands in its host's batch on the leader.
            c.phase(Level::Host, 0, |p| {
                if p.view.rank > 0 {
                    p.send(0, 0, Loc::Buf, input.0, input.1);
                } else {
                    p.copy(Loc::Scratch, batch, Loc::Buf, input.0, block);
                    for j in 1..p.view.size() {
                        let dst = batch + j * block;
                        p.recv(j, 0, Loc::Scratch, dst, dst + block);
                    }
                }
            });
            // The leaders' ring of batches; then every block but the
            // leader's own goes to its member's place in the primary buffer.
            c.phase(Level::Leaders, PHASE_LEADER, |p| {
                let slot = p.view.rank;
                push_ring(p, Loc::Scratch, 0, slot, |s| s, |s| slot_off[s]);
                for (s, &off) in slot_off[..slots].iter().enumerate() {
                    for (j, &m) in h.members(s).iter().enumerate() {
                        if m != me {
                            p.copy(Loc::Buf, m * block, Loc::Scratch, off + j * block, block);
                        }
                    }
                }
            });
            c.phase(Level::Host, PHASE_FANOUT, |p| push_bcast_ops(p, 0, total));
            let scratch_len = if h.is_leader() { total } else { 0 };
            c.finish(None, (0, total), input, scratch_len, "allgather/hier+ring")
        }
        _ if n > 2 && block <= ALLGATHER_BRUCK_MAX_BYTES => build_allgather_bruck(view, block),
        _ => {
            // Blocks travel directly between the primary-buffer slots.
            let mut plan = Plan::new(view, 4);
            push_ring(&mut plan, Loc::Buf, 0, me, |r| r, |i| i * block);
            plan.finish(None, Loc::Buf, (0, total), input, 0, "allgather/ring")
        }
    }
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
        // Ordered for determinism, not liveness (see `Plan::exchange`): the
        // lower local rank of the (dst, src) pair this rank is in sends first.
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

/// Compile the rooted reduce of `count` elements of `T` into a plan over the
/// in-place value vector, on the path `select_path` chooses: the
/// single-copy window shape; the two-level composition — per-host binomial
/// reduce to the leader, leader binomial reduce across hosts rooted at root's
/// host (the only partials that cross hosts), and a final hand-off to a
/// non-leader root; or a flat binomial tree. The result range selects the
/// full vector on the root and is empty elsewhere.
pub fn build_reduce<T: Reducible>(
    view: &CommView<'_>,
    tuning: &CollTuning,
    hier: Option<&HostHierarchy>,
    dp: Option<DpWindow>,
    root: Rank,
    count: usize,
    op: ReduceOp,
) -> CollPlan {
    let total = count * std::mem::size_of::<T>();
    let fold = Some((op, fold_bytes::<T> as FoldFn));
    let result = if view.rank == root {
        (0, total)
    } else {
        (0, 0)
    };
    let hier_min = Some(HIER_MIN_PAYLOAD_BYTES);
    let path = select_path(view.size(), tuning, hier, dp, total, hier_min);
    if let Path::Window(w) = path {
        let elem = std::mem::size_of::<T>();
        if let Some(c) = reduce_choice(&w, hier, (view.size(), root), count, elem) {
            return build_reduce_shm::<T>(view, &w, root, (count, c.segments), op);
        }
    }
    match path {
        Path::TwoLevel(h) => {
            let root_slot = h.slot_of(root);
            let mut c = TwoLevel::new(view, h, 5);
            c.phase(Level::Host, 0, |p| push_reduce_ops(p, 0, total));
            c.phase(Level::Leaders, PHASE_LEADER, |p| {
                push_reduce_ops(p, root_slot, total)
            });
            c.phase(Level::Parent, PHASE_ROOT_HOP, |p| {
                push_hop(p, h.leader_of(root_slot), root, total)
            });
            c.finish(fold, result, (0, total), total, "reduce/hier+binomial")
        }
        _ => {
            let mut plan = Plan::new(view, 5);
            push_reduce_ops(&mut plan, root, total);
            plan.finish(fold, Loc::Buf, result, (0, total), total, "reduce/binomial")
        }
    }
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
fn allreduce_uses_rabenseifner(n: usize, total: usize, count: usize) -> bool {
    total >= ALLREDUCE_RABENSEIFNER_MIN_BYTES && count >= prev_power_of_two(n)
}

/// The allreduce algorithm label for `n` ranks — the leaders, when
/// `two_level` — reducing `count` elements of `total` bytes: deterministic on
/// every rank, so composite labels agree group-wide even on ranks that skip
/// the leader phase.
fn allreduce_label(n: usize, total: usize, count: usize, two_level: bool) -> &'static str {
    const LABELS: [[&str; 4]; 2] = [
        [
            "allreduce/recursive-doubling",
            "allreduce/recursive-doubling+fold",
            "allreduce/rabenseifner",
            "allreduce/rabenseifner+fold",
        ],
        [
            "allreduce/hier+recursive-doubling",
            "allreduce/hier+recursive-doubling+fold",
            "allreduce/hier+rabenseifner",
            "allreduce/hier+rabenseifner+fold",
        ],
    ];
    let large = allreduce_uses_rabenseifner(n, total, count);
    LABELS[usize::from(two_level)][2 * usize::from(large) + usize::from(!n.is_power_of_two())]
}

/// Compile the size-adaptive allreduce of `count` elements of `T` into a plan
/// over the in-place value vector, on the path `select_path` chooses:
///
/// * the single-copy window shape that costs a rank least
///   ([`crate::dataplane`]), in slot-sized segments where it does not fit
///   one slot;
/// * the two-level composition — per-host reduce to the leader, the same
///   size-adaptive flat allreduce among the leaders only (so a large leader
///   payload still gets the bandwidth-optimal variant; only that phase
///   crosses hosts), per-host broadcast of the result. `Auto` steps aside
///   where the flat algorithm is already topology-optimal: when the
///   placement makes its top-level exchange same-host on every rank (e.g.
///   round-robin over two hosts), composing would only add cross-host bytes;
/// * the flat algorithm: recursive doubling below the Rabenseifner threshold,
///   Rabenseifner (recursive-halving reduce-scatter + recursive-doubling
///   allgather) above, with power-of-two fold elimination for
///   non-power-of-two rank counts.
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
    let choice = dp.and_then(|w| allreduce_choice(&w, hier, n, count, elem));
    let hier_min = Some(HIER_MIN_PAYLOAD_BYTES);
    match (select_path(n, tuning, hier, dp, total, hier_min), choice) {
        (Path::Window(w), Some(c)) => {
            build_allreduce_shm::<T>(view, &w, hier, (c.shape, c.segments), count, op)
        }
        (Path::TwoLevel(h), _)
            if tuning.hierarchy != HierarchyMode::Auto
                || !flat_allreduce_top_exchange_stays_local(h, n) =>
        {
            let mut c = TwoLevel::new(view, h, 6);
            c.phase(Level::Host, 0, |p| {
                // On the rooted reduce's tags.
                p.kind = 5;
                push_reduce_ops(p, 0, total)
            });
            c.phase(Level::Leaders, PHASE_LEADER, |p| {
                push_allreduce_ops::<T>(p, count)
            });
            c.phase(Level::Host, PHASE_FANOUT, |p| push_bcast_ops(p, 0, total));
            let label = allreduce_label(h.hosts_spanned(), total, count, true);
            c.finish(fold, (0, total), (0, total), total, label)
        }
        _ => {
            let mut plan = Plan::new(view, 6);
            push_allreduce_ops::<T>(&mut plan, count);
            let label = allreduce_label(n, total, count, false);
            plan.finish(fold, Loc::Buf, (0, total), (0, total), total, label)
        }
    }
}

/// Emit the allreduce op sequence into `plan` (shared by [`build_allreduce`]
/// and the naive reduce-scatter, which is allreduce + block selection and
/// therefore reuses the same wire traffic).
///
/// Tags use kind 6 regardless of the caller's plan kind, mirroring the
/// straight-line implementation where naive reduce-scatter delegated to
/// `allreduce` and inherited its tags.
fn push_allreduce_ops<T: Reducible>(plan: &mut Plan<'_, '_>, count: usize) {
    let view = plan.view;
    let n = view.size();
    let me = view.rank;
    let elem = std::mem::size_of::<T>();
    let total = count * elem;
    let kind_before = plan.kind;
    plan.kind = 6;
    let pow2 = prev_power_of_two(n);
    let excess = n - pow2;
    let large = allreduce_uses_rabenseifner(n, total, count);

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
/// (power-of-two rank counts) or pairwise exchange (any rank count) from
/// [`REDUCE_SCATTER_DIRECT_MIN_BYTES`]. The primary buffer is this rank's full
/// input vector; the result range selects this rank's reduced block.
pub fn build_reduce_scatter<T: Reducible>(
    view: &CommView<'_>,
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
    if total >= REDUCE_SCATTER_DIRECT_MIN_BYTES && block > 0 {
        if n.is_power_of_two() {
            return build_reduce_scatter_halving::<T>(view, count, op);
        }
        return build_reduce_scatter_pairwise::<T>(view, count, op);
    }
    // Naive: the allreduce wire traffic, then select this rank's block.
    let mut plan = Plan::new(view, 7);
    push_allreduce_ops::<T>(&mut plan, count);
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
        // The lower rank of each (sender, receiver) edge sends first, so the
        // sender of every cycle's wrap-around edge receives first: an order
        // kept for determinism, not liveness (see `Plan::exchange`).
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
/// is a DAG per round (edges point upward only): no two of a round's messages
/// cross, so no send/receive ordering is needed. Always flat: prefix order is rank order, which a host hierarchy
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
/// data local rank `i` sent here. The path is `select_path`'s — the window,
/// in segments of every block when the exchange image does not fit a slot,
/// then the host hierarchy — and
/// the flat exchange is Bruck up to [`ALLTOALL_BRUCK_MAX_BYTES`] per block,
/// pairwise above.
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
    let hier_min = Some(HIER_ALLTOALL_MIN_BYTES);
    let path = select_path(n, tuning, hier, dp, total, hier_min);
    if let Path::Window(w) = path {
        if let Some(c) = alltoall_choice(&w, hier, n, block) {
            return build_alltoall_shm(view, &w, block, c.segments);
        }
    }
    match path {
        Path::TwoLevel(h) => build_alltoall_hier(view, h, block),
        _ if n > 2 && block <= ALLTOALL_BRUCK_MAX_BYTES => build_alltoall_bruck(view, block),
        _ => build_alltoall_pairwise(view, block),
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
        // The lower rank of each (sender, receiver) edge sends first, so the
        // sender of every cycle's wrap-around edge receives first: an order
        // kept for determinism, not liveness (see `Plan::exchange`).
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
        // Ordered as in the Bruck allgather: determinism, not liveness.
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
/// message), at the price of three extra full copies, so `Auto` keeps it to
/// multi-MiB exchanges, where per-message cost dominates.
fn build_alltoall_hier(view: &CommView<'_>, hier: &HostHierarchy, block: usize) -> CollPlan {
    let (n, me) = (view.size(), view.rank);
    let total = n * block;
    let slots = hier.hosts_spanned();
    let mine = hier.my_slot();
    let members = hier.members(mine);
    let k = members.len();
    // The leader's scratch: the member send images (the gather area, k ×
    // total), then one received-batch area per remote host, then the reusable
    // batch pack area, then the reusable fan-out pack area. Both pack areas
    // survive reuse across sends because a Send op completes (all bytes
    // copied out) before the plan cursor advances.
    let mut exch_off = vec![0usize; slots];
    let mut acc = k * total;
    let mut max_batch = 0usize;
    for (s, off) in exch_off.iter_mut().enumerate().filter(|&(s, _)| s != mine) {
        *off = acc;
        acc += hier.count(s) * k * block;
        max_batch = max_batch.max(hier.count(s) * k * block);
    }
    let pack_off = acc;
    let fan_off = pack_off + max_batch;
    let mut c = TwoLevel::new(view, hier, 10);
    // Local gather: every member's full send image, the leader's own copied.
    c.phase(Level::Host, 0, |p| {
        if p.view.rank > 0 {
            p.send(0, 0, Loc::Buf, 0, total);
        } else {
            p.copy(Loc::Scratch, 0, Loc::Buf, 0, total);
            for j in 1..k {
                p.recv(j, 0, Loc::Scratch, j * total, (j + 1) * total);
            }
        }
    });
    // Leader pairwise exchange of host-pair batches. Batch layout (both
    // directions, emitted by this same code on every leader): member
    // index-major, destination index-minor.
    c.phase(Level::Leaders, PHASE_LEADER, |p| {
        for step in 1..slots {
            let dst_slot = (mine + step) % slots;
            let src_slot = (mine + slots - step) % slots;
            let out = (pack_off, pack_off + k * hier.count(dst_slot) * block);
            let inc = exch_off[src_slot];
            let inc = (inc, inc + hier.count(src_slot) * k * block);
            for j in 0..k {
                for (i, &d) in hier.members(dst_slot).iter().enumerate() {
                    let at = pack_off + (j * hier.count(dst_slot) + i) * block;
                    p.copy(Loc::Scratch, at, Loc::Scratch, j * total + d * block, block);
                }
            }
            // Ordered over the shifted pairs as in the pairwise
            // reduce-scatter: determinism, not liveness.
            if mine < dst_slot {
                p.send(dst_slot, step, Loc::Scratch, out.0, out.1);
                p.recv(src_slot, step, Loc::Scratch, inc.0, inc.1);
            } else {
                p.recv(src_slot, step, Loc::Scratch, inc.0, inc.1);
                p.send(dst_slot, step, Loc::Scratch, out.0, out.1);
            }
        }
    });
    // Assembly + fan-out: member `d` (host-local index `i`)'s receive image
    // holds, at block `q`, the block rank `q` sent to `d` — found in the
    // gather area when `q` is a host-mate, in `q`'s host's received batch
    // otherwise. The leader assembles its own image in place.
    c.phase(Level::Host, PHASE_FANOUT, |p| {
        if p.view.rank > 0 {
            return p.recv(0, p.view.rank, Loc::Buf, 0, total);
        }
        for (i, &d) in members.iter().enumerate() {
            for q in 0..n {
                let s = hier.slot_of(q);
                let on_host = hier.members(s).iter().position(|&m| m == q);
                let j = on_host.expect("every rank is on its host");
                let src = if s == mine {
                    j * total + d * block
                } else {
                    exch_off[s] + (j * k + i) * block
                };
                if d == me {
                    p.copy(Loc::Buf, q * block, Loc::Scratch, src, block);
                } else {
                    p.copy(Loc::Scratch, fan_off + q * block, Loc::Scratch, src, block);
                }
            }
            if d != me {
                p.send(i, i, Loc::Scratch, fan_off, fan_off + total);
            }
        }
    });
    let scratch_len = if hier.is_leader() { fan_off + total } else { 0 };
    c.finish(
        None,
        (0, total),
        (0, total),
        scratch_len,
        "alltoall/hier+pairwise",
    )
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
/// with no window (TCP, a zero arena, a window the pool could not hold) or a
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
    if let Some(w) = &dp {
        let segments = (0..n).filter(|&r| r != me && pulled(&out(r)));
        ops.gather(w, stride, segments.map(|r| (r, out(r))));
    }
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
    if let Some(w) = &dp {
        for writer in (0..n).filter(|&r| r != me && pulled(&inc(r))) {
            ops.pull_gathered(w, stride, writer, me, inc(writer).len(), inc(writer).start);
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
