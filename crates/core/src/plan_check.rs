//! Every member's plan of a collective, checked together without running it.
//!
//! A [`CollPlan`] is a pure function of its inputs, so the plans all members
//! of a communicator would build can be laid side by side with no threads and
//! no pool. Two things are checked here.
//!
//! * The agreement the data plane rests on: every read a member plans names
//!   an exposure some writer plans to publish — the same phase, the same
//!   place in the slot, the same [`DpFormat`], bytes it covers — every
//!   exposure fits its slot, or its reader's region of it, a writer publishes
//!   each phase once, and a row spans only writers that raise their flag line
//!   in its phase. A disagreement would not fail a run cleanly: a reader
//!   would wait for lines nobody stores, or take bytes from lines stored in
//!   another format.
//! * What the plans compute: an abstract executor runs them together over
//!   symbolic bytes — which members' contributions each byte folds, and which
//!   byte of them it is — with every read waiting for the exposure it names
//!   and every row for the flag lines it spans, and each member's result must
//!   come out as the collective's: the root's bytes for a broadcast, every
//!   member's block in its place for an allgather, every member's vector
//!   folded exactly once for an allreduce and a reduce. A relay handed to the
//!   wrong host-mate, or a fold that misses a host, fails here with the shape
//!   printed; so does a run where everybody waits.

use std::collections::HashMap;
use std::ops::Range;

use crate::coll::{
    build_allgather, build_allreduce, build_alltoall, build_alltoallv, build_barrier, build_bcast,
    build_reduce, CommView,
};
use crate::config::{CollTuning, HierarchyMode};
use crate::dataplane::{
    build_allgather_shm, build_allreduce_shm, build_alltoall_shm, build_bcast_shm,
    build_reduce_shm, DpShape, DP_SLOTS,
};
use crate::group::Group;
use crate::progress::{CollPlan, Loc, SchedOp};
use crate::topology::{HostHierarchy, HostTopology};
use crate::transport::{raises_flag, DpCost, DpFormat, DpReaders, DpWindow};
use crate::types::ReduceOp;
use cmpi_fabric::cost::CoherenceMode;
use cmpi_fabric::{CxlContentionModel, CxlCostModel};
use cxl_shm::slots::SLOT_CELL_SIZE;

/// One exposure a plan publishes: `(segment, phase, region_off, len,
/// format)`.
type Published = (u32, u8, usize, usize, DpFormat);

/// The segment a data-plane op runs in, `None` for any other op.
fn seg_of(op: &SchedOp) -> Option<u32> {
    match *op {
        SchedOp::ClaimSlot { seg, .. }
        | SchedOp::ExposeRead { seg, .. }
        | SchedOp::AwaitRow { seg, .. }
        | SchedOp::PullCopy { seg, .. }
        | SchedOp::FoldInPlace { seg, .. } => Some(seg),
        _ => None,
    }
}

/// Where the room of a piece at `region_off` of an exposure read by
/// `readers` ends on window `w`: its reader's region of the slot, or the slot.
fn room(w: &DpWindow, readers: DpReaders, region_off: usize) -> usize {
    match readers {
        DpReaders::PerPiece { stride } => (region_off / stride + 1) * stride,
        _ => w.slot_bytes,
    }
}

/// Check the plans of one shape: `plans[i]` is member `i`'s. Panics naming
/// `shape` and the member at the first disagreement.
fn check(shape: &str, w: &DpWindow, plans: &[CollPlan]) {
    // Every member takes as many sequence numbers, and runs every op in one
    // of them.
    let seqs = plans.first().map_or(1, |p| p.seqs);
    for (m, plan) in plans.iter().enumerate() {
        assert_eq!(
            plan.seqs, seqs,
            "{shape}: member {m} takes {} sequence numbers, member 0 {seqs}",
            plan.seqs
        );
        let past = plan.ops.iter().filter_map(seg_of).find(|&seg| seg >= seqs);
        assert!(
            past.is_none(),
            "{shape}: member {m} runs segment {past:?} of {seqs}"
        );
    }
    // Per writer and segment, the phases whose flag line it raises; per
    // writer, what it publishes.
    let mut raised: HashMap<(usize, u32), u8> = HashMap::new();
    let published: Vec<Vec<Published>> = plans
        .iter()
        .enumerate()
        .map(|(writer, plan)| {
            let mut out = Vec::new();
            let mut phases: HashMap<u32, u8> = HashMap::new();
            for op in &plan.ops {
                let SchedOp::ExposeRead {
                    phase,
                    pieces: (lo, hi),
                    readers,
                    seg,
                    ..
                } = *op
                else {
                    continue;
                };
                let published = phases.entry(seg).or_default();
                assert_eq!(
                    *published >> phase & 1,
                    0,
                    "{shape}: writer {writer} publishes phase {phase} of segment {seg} twice"
                );
                *published |= 1 << phase;
                if raises_flag(&plan.pieces[lo..hi]) {
                    *raised.entry((writer, seg)).or_default() |= 1 << phase;
                }
                for p in &plan.pieces[lo..hi] {
                    let len = p.end - p.start;
                    let room = room(w, readers, p.region_off);
                    let what = format!("{shape}: writer {writer}'s exposure at {}", p.region_off);
                    assert!(
                        p.region_off + p.format.footprint(len) <= room,
                        "{what}: {len} B as {:?} overflows {room}",
                        p.format
                    );
                    if p.format == (DpFormat::Stamped { in_row: false }) {
                        assert_eq!(p.region_off % SLOT_CELL_SIZE, 0, "{what}: off its line");
                    }
                    out.push((seg, phase, p.region_off, len, p.format));
                }
            }
            out
        })
        .collect();
    for (reader, plan) in plans.iter().enumerate() {
        for op in &plan.ops {
            if let SchedOp::AwaitRow {
                phase,
                writers: (lo, hi),
                seg,
            } = *op
            {
                for writer in (lo..hi).filter(|&w| w != reader) {
                    let flags = raised.get(&(writer, seg)).copied().unwrap_or(0);
                    assert_eq!(
                        flags >> phase & 1,
                        1,
                        "{shape}: member {reader}'s row {lo}..{hi} of phase {phase}, segment \
                         {seg}, waits for member {writer}'s flag line, which it never raises"
                    );
                }
            }
            let (SchedOp::PullCopy { src, seg, len, .. }
            | SchedOp::FoldInPlace { src, seg, len, .. }) = *op
            else {
                continue;
            };
            let what = format!(
                "{shape}: member {reader} reads {len} B at {}+{} of member {}, phase {}, \
                 segment {seg}",
                src.region, src.off, src.writer_idx, src.phase
            );
            let exposure = published[src.writer_idx]
                .iter()
                .find(|&&(s, phase, region, ..)| {
                    (s, phase, region) == (seg, src.phase, src.region)
                });
            let Some(&(.., exposed, format)) = exposure else {
                panic!("{what}: the writer publishes nothing there");
            };
            assert_eq!(format, src.format, "{what}: formats differ");
            assert!(
                src.off + len <= exposed,
                "{what}: past the {exposed} B exposed"
            );
        }
    }
}

/// What a byte holds, symbolically: the members whose contributions were
/// folded into it (a bit each) and which byte of those contributions it is —
/// or `None` for anything else: never written, or folded from operands that
/// disagree on the byte or share a member.
type Val = Option<(u64, usize)>;

/// A buffer of symbolic bytes, as runs `(start, end, value of byte start)`
/// over its whole length: byte `start + t` of a run holds byte `origin + t`
/// of the same members' contributions.
#[derive(Debug, Clone)]
struct Sym(Vec<(usize, usize, Val)>);

impl Sym {
    /// `len` bytes of nothing.
    fn new(len: usize) -> Self {
        Sym((len > 0).then_some((0, len, None)).into_iter().collect())
    }

    /// `len` bytes of nothing, `range` of them member `m`'s contribution
    /// (byte `i` being its byte `i`).
    fn holding(len: usize, m: usize, range: Range<usize>) -> Self {
        let mut sym = Sym::new(len);
        sym.set(range.start, &[(range.len(), Some((1 << m, range.start)))]);
        sym
    }

    fn len(&self) -> usize {
        self.0.last().map_or(0, |run| run.1)
    }

    /// Bytes `r`, as `(len, value of its first byte)` pieces.
    fn get(&self, r: Range<usize>) -> Vec<(usize, Val)> {
        assert!(r.end <= self.len(), "bytes {r:?} of {}", self.len());
        let overlapping = self.0.iter().filter(|run| run.0 < r.end && run.1 > r.start);
        overlapping
            .map(|&(start, end, val)| {
                let lo = start.max(r.start);
                (end.min(r.end) - lo, val.map(|(m, o)| (m, o + lo - start)))
            })
            .collect()
    }

    /// Overwrite the bytes from `at` with `pieces`.
    fn set(&mut self, at: usize, pieces: &[(usize, Val)]) {
        let end = at + pieces.iter().map(|p| p.0).sum::<usize>();
        assert!(end <= self.len(), "bytes {at}..{end} of {}", self.len());
        let mut runs: Vec<_> = self.0.iter().filter(|run| run.0 < at).copied().collect();
        if let Some(last) = runs.last_mut() {
            last.1 = last.1.min(at);
        }
        let mut p = at;
        for &(len, val) in pieces.iter().filter(|p| p.0 > 0) {
            runs.push((p, p + len, val));
            p += len;
        }
        for &(start, run_end, val) in self.0.iter().filter(|run| run.1 > end) {
            let lo = start.max(end);
            runs.push((lo, run_end, val.map(|(m, o)| (m, o + lo - start))));
        }
        self.0 = runs;
    }

    /// Fold `pieces` into the bytes from `at`.
    fn fold(&mut self, at: usize, pieces: &[(usize, Val)]) {
        let len = pieces.iter().map(|p| p.0).sum::<usize>();
        let mine = self.get(at..at + len);
        let (mut a, mut b) = (mine.iter().peekable(), pieces.iter().peekable());
        let (mut off_a, mut off_b) = (0, 0);
        let mut folded = Vec::new();
        while let (Some(&&(len_a, va)), Some(&&(len_b, vb))) = (a.peek(), b.peek()) {
            let take = (len_a - off_a).min(len_b - off_b);
            let at = |val: Val, off: usize| val.map(|(m, o)| (m, o + off));
            let val = match (at(va, off_a), at(vb, off_b)) {
                (Some((ma, oa)), Some((mb, ob))) if ma & mb == 0 && oa == ob => Some((ma | mb, oa)),
                _ => None,
            };
            folded.push((take, val));
            (off_a, off_b) = (off_a + take, off_b + take);
            if off_a == len_a {
                a.next();
                off_a = 0;
            }
            if off_b == len_b {
                b.next();
                off_b = 0;
            }
        }
        self.set(at, &folded);
    }
}

/// Arena `loc` of a member whose primary buffer is `buf` and scratch
/// `scratch`.
fn arena<'a>(loc: Loc, buf: &'a mut Sym, scratch: &'a mut Sym) -> &'a mut Sym {
    match loc {
        Loc::Buf => buf,
        Loc::Scratch => scratch,
    }
}

/// Run every member's plan of one collective together, member `m`'s buffer
/// starting as `bufs[m]`, and return what each holds at the end. A read
/// waits for the exposure it names, a row for every flag line it spans —
/// and a read that its run does not cover, or of something nobody published
/// there, fails; so does a state where every unfinished member waits.
fn execute(shape: &str, plans: &[CollPlan], mut bufs: Vec<Sym>) -> Vec<Sym> {
    let n = plans.len();
    let mut scratch: Vec<Sym> = plans.iter().map(|p| Sym::new(p.scratch_len)).collect();
    let mut exposed: HashMap<(usize, u32, u8, usize), Sym> = HashMap::new();
    let mut raised: HashMap<(usize, u32), u8> = HashMap::new();
    let mut pos = vec![0; n];
    // The open run of each member: its segment, its phase and the writers of
    // its row.
    let mut runs: Vec<Option<(u32, u8, Range<usize>)>> = vec![None; n];
    loop {
        let mut moved = false;
        for m in 0..n {
            let plan = &plans[m];
            while let Some(&op) = plan.ops.get(pos[m]) {
                let at = pos[m];
                let what = || format!("{shape}: member {m}, op {at} ({op:?})");
                let (buf, scr) = (&mut bufs[m], &mut scratch[m]);
                match op {
                    SchedOp::AwaitRow {
                        phase,
                        writers: (lo, hi),
                        seg,
                    } => {
                        let up =
                            |w: usize| raised.get(&(w, seg)).is_some_and(|f| f >> phase & 1 == 1);
                        let flags = (lo..hi).all(|w| w == m || up(w));
                        let lines = plan.ops[pos[m] + 1..]
                            .iter()
                            .map_while(|op| match *op {
                                SchedOp::PullCopy { src, .. }
                                | SchedOp::FoldInPlace { src, .. } => Some(Some(src)),
                                SchedOp::Copy { .. } | SchedOp::Fold { .. } => Some(None),
                                _ => None,
                            })
                            .flatten()
                            .filter(|src| !src.format.in_row())
                            .all(|src| {
                                let key = (src.writer_idx, seg, src.phase, src.region);
                                exposed.contains_key(&key)
                            });
                        if !(flags && lines) {
                            break;
                        }
                        runs[m] = Some((seg, phase, lo..hi));
                    }
                    SchedOp::ExposeRead {
                        phase,
                        loc,
                        pieces: (lo, hi),
                        seg,
                        ..
                    } => {
                        let pieces = &plan.pieces[lo..hi];
                        for p in pieces {
                            let bytes = arena(loc, buf, scr).get(p.start..p.end);
                            let mut snapshot = Sym::new(p.end - p.start);
                            snapshot.set(0, &bytes);
                            exposed.insert((m, seg, phase, p.region_off), snapshot);
                        }
                        if raises_flag(pieces) {
                            *raised.entry((m, seg)).or_default() |= 1 << phase;
                        }
                        runs[m] = None;
                    }
                    SchedOp::PullCopy { src, seg, len, .. }
                    | SchedOp::FoldInPlace { src, seg, len, .. } => {
                        let covered = runs[m].as_ref().is_some_and(|(s, phase, row)| {
                            (*s, *phase) == (seg, src.phase)
                                && (!src.format.in_row() || row.contains(&src.writer_idx))
                        });
                        assert!(covered, "{}: a read its run does not cover", what());
                        let key = (src.writer_idx, seg, src.phase, src.region);
                        let Some(exposure) = exposed.get(&key) else {
                            panic!("{}: nothing was published there", what());
                        };
                        assert!(
                            src.off + len <= exposure.len(),
                            "{}: past the {} B published",
                            what(),
                            exposure.len()
                        );
                        let bytes = exposure.get(src.off..src.off + len);
                        match op {
                            SchedOp::PullCopy {
                                dst_loc, dst_start, ..
                            } => arena(dst_loc, buf, scr).set(dst_start, &bytes),
                            SchedOp::FoldInPlace {
                                dst_loc,
                                dst_start,
                                stage_off,
                                ..
                            } => {
                                arena(Loc::Scratch, buf, scr).set(stage_off, &bytes);
                                arena(dst_loc, buf, scr).fold(dst_start, &bytes);
                            }
                            _ => unreachable!(),
                        }
                    }
                    SchedOp::Copy {
                        dst_loc,
                        dst_start,
                        src_loc,
                        src_start,
                        len,
                    } => {
                        let bytes = arena(src_loc, buf, scr).get(src_start..src_start + len);
                        arena(dst_loc, buf, scr).set(dst_start, &bytes);
                    }
                    SchedOp::Fold {
                        dst_loc,
                        dst_start,
                        src_loc,
                        src_start,
                        len,
                    } => {
                        let bytes = arena(src_loc, buf, scr).get(src_start..src_start + len);
                        arena(dst_loc, buf, scr).fold(dst_start, &bytes);
                    }
                    SchedOp::ClaimSlot { .. } => runs[m] = None,
                    SchedOp::Send { .. } | SchedOp::Recv { .. } => {
                        panic!("{}: the executor runs window plans only", what())
                    }
                }
                pos[m] += 1;
                moved = true;
            }
        }
        if (0..n).all(|m| pos[m] == plans[m].ops.len()) {
            return bufs;
        }
        if !moved {
            let next: Vec<String> = (0..n)
                .filter_map(|m| plans[m].ops.get(pos[m]).map(|op| format!("{m}: {op:?}")))
                .collect();
            panic!("{shape}: every member waits — {}", next.join("; "));
        }
    }
}

/// Assert that bytes `range` of member `m`'s `buf` hold, byte for byte,
/// what `want(i)` names for byte `i`: the members whose contributions it
/// folds, and which byte of them it is — the same members over each run of
/// the buffer, consecutive bytes of them.
fn expect(
    shape: &str,
    m: usize,
    buf: &Sym,
    range: Range<usize>,
    want: impl Fn(usize) -> (u64, usize),
) {
    let mut at = range.start;
    for (len, val) in buf.get(range) {
        let (members, origin) = want(at);
        assert!(
            val == Some((members, origin)) && want(at + len - 1) == (members, origin + len - 1),
            "{shape}: member {m}'s bytes {at}..{} hold {val:?}, not members {members:#b}",
            at + len
        );
        at += len;
    }
}

/// The collectives the executor checks the result of, among `n` members:
/// what each member's buffer starts as and what it must end as.
#[derive(Clone, Copy)]
enum Expect {
    Bcast { root: usize, total: usize },
    Allgather { block: usize },
    Allreduce { total: usize },
    Reduce { root: usize, total: usize },
    Alltoall { block: usize },
}

impl Expect {
    /// Run `plans` and check every member's result.
    fn check(self, shape: &str, plans: &[CollPlan]) {
        let n = plans.len();
        let all = (1u64 << n) - 1;
        let input = |m: usize| match self {
            Expect::Bcast { root, total } if m == root => Sym::holding(total, m, 0..total),
            Expect::Bcast { total, .. } => Sym::new(total),
            Expect::Allgather { block } => Sym::holding(n * block, m, m * block..(m + 1) * block),
            Expect::Allreduce { total } | Expect::Reduce { total, .. } => {
                Sym::holding(total, m, 0..total)
            }
            Expect::Alltoall { block } => Sym::holding(n * block, m, 0..n * block),
        };
        let bufs = execute(shape, plans, (0..n).map(input).collect());
        for (m, buf) in bufs.iter().enumerate() {
            match self {
                Expect::Bcast { root, total } => {
                    expect(shape, m, buf, 0..total, |i| (1 << root, i))
                }
                Expect::Allgather { block } => {
                    expect(shape, m, buf, 0..n * block, |i| (1 << (i / block), i))
                }
                Expect::Allreduce { total } => expect(shape, m, buf, 0..total, |i| (all, i)),
                Expect::Reduce { root, total } if m == root => {
                    expect(shape, m, buf, 0..total, |i| (all, i))
                }
                Expect::Reduce { .. } => {}
                // Block `r` holds member `r`'s block for `m`.
                Expect::Alltoall { block } => expect(shape, m, buf, 0..n * block, |i| {
                    (1 << (i / block), m * block + i % block)
                }),
            }
        }
    }
}

/// The window of `n` members on an arena of `arena` bytes per rank.
fn window(n: usize, arena: usize) -> DpWindow {
    DpWindow {
        slot_bytes: arena / DP_SLOTS,
        ranks: n,
        cost: DpCost {
            cost: CxlCostModel::default(),
            contention: CxlContentionModel::default(),
            mode: CoherenceMode::FlushClflushopt,
            pairs: (n / 2).max(1),
        },
    }
}

/// The lengths every builder is checked at on window `w`: empty, one byte,
/// both sides of the flag line's 48 and of the second stamped line's 104,
/// both sides of where stamped lines give way to a slot behind a flag line,
/// a quarter of the slot, the slot itself, and — in segments — a byte past
/// it and two and a half slots.
fn lengths(w: &DpWindow) -> Vec<usize> {
    let slot_from = (49..w.slot_bytes)
        .find(|&len| w.format(len, 0..w.slot_bytes, true) == DpFormat::Slot)
        .unwrap_or(w.slot_bytes);
    vec![
        0,
        1,
        47,
        48,
        49,
        104,
        105,
        slot_from - 1,
        slot_from,
        w.slot_bytes / 4,
        w.slot_bytes,
        w.slot_bytes + 1,
        5 * w.slot_bytes / 2,
    ]
}

/// A builder of one member's plan, given its view and its host hierarchy.
type Build<'a> = &'a dyn Fn(&CommView<'_>, &HostHierarchy) -> CollPlan;

/// Every layout the grids check: `n` members over `hosts` hosts, blocked and
/// round-robin — balanced either way, and uneven where `hosts` does not
/// divide `n` — and a name for it.
fn layouts(n: usize) -> impl Iterator<Item = (String, HostTopology)> {
    [1, 2, 3]
        .into_iter()
        .filter(move |&hosts| hosts <= n)
        .flat_map(move |hosts| {
            [
                ("blocked", HostTopology::blocked(n, hosts)),
                ("round-robin", HostTopology::round_robin(n, hosts)),
            ]
            .map(|(name, topology)| (format!("{name} on {hosts} hosts"), topology.unwrap()))
        })
}

/// Every member's plan of one collective among the members of `topology`.
fn plans_of(topology: &HostTopology, build: Build<'_>) -> Vec<CollPlan> {
    let group = Group::world(topology.ranks());
    (0..group.size())
        .map(|rank| {
            let view = CommView {
                group: &group,
                ctx: 1,
                rank,
            };
            build(&view, &HostHierarchy::derive(&group, topology, rank))
        })
        .collect()
}

/// Build every member's plan of one collective among the members of
/// `topology` and check them together: agreement always, the result when
/// `result` says what it must be.
fn run(
    what: &str,
    w: &DpWindow,
    topology: &HostTopology,
    result: Option<Expect>,
    build: Build<'_>,
) {
    let plans = plans_of(topology, build);
    check(what, w, &plans);
    if let Some(result) = result.filter(|_| plans.iter().all(|p| p.on_window)) {
        result.check(what, &plans);
    }
}

#[test]
fn every_reader_expects_the_format_its_writer_publishes() {
    let tuning = CollTuning {
        hierarchy: HierarchyMode::Off,
        ..CollTuning::default()
    };
    let t = &tuning;
    let sum = ReduceOp::Sum;
    // The default arena and the CI `shm` leg's small-slot one.
    for arena in [CollTuning::default().shm_arena_bytes, 256 * 1024] {
        for n in [2, 3, 5, 8, 33] {
            let w = window(n, arena);
            let dp = Some(w);
            for (layout, topology) in layouts(n) {
                let run = |what: String, result, build: Build<'_>| {
                    let shape = format!("{what}, n = {n} {layout}, {arena} B arena");
                    run(&shape, &w, &topology, result, build);
                };
                run("barrier".into(), None, &|v, h| {
                    build_barrier(v, t, Some(h), dp)
                });
                let all = lengths(&w);
                for &len in &all {
                    let count = len / 8;
                    let (block, total) = (len, 8 * count);
                    run(
                        format!("allgather of {len} B"),
                        Some(Expect::Allgather { block }),
                        &|v, h| build_allgather(v, t, Some(h), dp, len),
                    );
                    // An exchange image of at least `len` bytes.
                    let block = len.div_ceil(n);
                    run(
                        format!("alltoall of {len} B"),
                        Some(Expect::Alltoall { block }),
                        &|v, h| build_alltoall(v, t, Some(h), dp, block),
                    );
                    run(
                        format!("allreduce of {len} B"),
                        Some(Expect::Allreduce { total }),
                        &|v, h| build_allreduce::<u64>(v, t, Some(h), dp, count, sum),
                    );
                    // Every length of the list somewhere in each run.
                    let bytes = |s: usize, d: usize| all[(s + 2 * d + len) % all.len()];
                    run(format!("alltoallv around {len} B"), None, &|v, _| {
                        let send: Vec<usize> = (0..n).map(|d| bytes(v.rank, d)).collect();
                        let recv: Vec<usize> = (0..n).map(|s| bytes(s, v.rank)).collect();
                        build_alltoallv(v, dp, &send, &recv, 1, false)
                    });
                    for root in 0..n {
                        run(
                            format!("bcast of {len} B from {root}"),
                            Some(Expect::Bcast { root, total: len }),
                            &|v, h| build_bcast(v, t, Some(h), dp, root, len),
                        );
                        run(
                            format!("reduce of {len} B to {root}"),
                            Some(Expect::Reduce { root, total }),
                            &|v, h| build_reduce::<u64>(v, t, Some(h), dp, root, count, sum),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_window_shape_computes_its_collective() {
    // Every shape of every collective the walk chooses among, whatever it
    // would choose, on a slot roomy enough for all of them — uneven splits,
    // members with an empty block, hosts of one member and of several.
    let sum = ReduceOp::Sum;
    let shapes = [DpShape::Direct, DpShape::TwoPhase, DpShape::Hosts];
    for n in [2, 3, 5, 6, 7, 8, 33] {
        let w = window(n, 64 << 20);
        for (layout, topology) in layouts(n) {
            for len in [0, 1, 8, 48, 49, 105, 8 * n + 3, 6000] {
                let (count, total) = (len / 8, len / 8 * 8);
                for shape in shapes {
                    let run = |what: String, result, build: Build<'_>| {
                        let shape = format!("{what}, {shape:?}, n = {n} {layout}");
                        run(&shape, &w, &topology, Some(result), build);
                    };
                    run(
                        format!("allreduce of {len} B"),
                        Expect::Allreduce { total },
                        &|v, h| build_allreduce_shm::<u64>(v, &w, Some(h), (shape, 1), count, sum),
                    );
                    if shape == DpShape::TwoPhase {
                        continue;
                    }
                    run(
                        format!("allgather of {len} B"),
                        Expect::Allgather { block: len },
                        &|v, h| build_allgather_shm(v, &w, Some(h), (shape, 1), len),
                    );
                    for root in 0..n {
                        run(
                            format!("bcast of {len} B from {root}"),
                            Expect::Bcast { root, total: len },
                            &|v, h| build_bcast_shm(v, &w, Some(h), (shape, 1), root, len),
                        );
                    }
                }
            }
        }
    }
}

/// Whether every exposure of `plans` fits its slot on window `w`, or its
/// reader's region of it.
fn fits(w: &DpWindow, plans: &[CollPlan]) -> bool {
    plans.iter().all(|plan| {
        plan.ops.iter().all(|op| match *op {
            SchedOp::ExposeRead {
                pieces: (lo, hi),
                readers,
                ..
            } => plan.pieces[lo..hi].iter().all(|p| {
                p.region_off + p.format.footprint(p.end - p.start) <= room(w, readers, p.region_off)
            }),
            _ => true,
        })
    })
}

/// A builder of one member's plan of a window collective in a given number
/// of segments.
type BuildAt<'a> = &'a dyn Fn(&CommView<'_>, &HostHierarchy, usize) -> CollPlan;

/// The fewest segments every exposure of a window collective of `units`
/// units fits a slot in among `topology`'s members.
fn fewest(w: &DpWindow, topology: &HostTopology, units: usize, build: BuildAt<'_>) -> usize {
    (1..=units)
        .find(|&k| fits(w, &plans_of(topology, &|v, h| build(v, h, k))))
        .expect("a unit fits")
}

/// The depths a window collective of `units` units is checked at: the
/// fewest segments ([`fewest`]), twice and four times that — the depths the
/// walk prices first — and the first depth past [`DP_SLOTS`] and four times
/// the fewest whose last segment is shorter than the others.
fn depths(w: &DpWindow, topology: &HostTopology, units: usize, build: BuildAt<'_>) -> [usize; 4] {
    let fewest = fewest(w, topology, units, build);
    let uneven = ((4 * fewest + 1).max(DP_SLOTS + 1)..)
        .find(|&k| !units.is_multiple_of(units.div_ceil(k)))
        .expect("an uneven cut");
    [fewest, 2 * fewest, 4 * fewest, uneven]
}

#[test]
fn every_window_shape_computes_its_collective_at_every_depth() {
    // Every shape past one slot of a small window — a byte past it and two
    // and a half slots — at every depth the walk can pick: the fewest
    // segments, twice and four times as many, and an uneven cut past the
    // slot rotation, so that segments share a slot; a group of 33 members
    // at the fewest segments only. The rooted reduce and the alltoall
    // besides.
    let sum = ReduceOp::Sum;
    for n in [2, 3, 5, 6, 7, 8, 33] {
        let w = window(n, 16 * 1024);
        let every = n < 33;
        for (layout, topology) in layouts(n) {
            for len in [w.slot_bytes + 1, 5 * w.slot_bytes / 2] {
                let (count, total) = (len / 8, len / 8 * 8);
                let block = len.div_ceil(n);
                let run = |what: String, units: usize, result, build: BuildAt<'_>| {
                    let depths = depths(&w, &topology, units, build);
                    for &k in &depths[..if every { depths.len() } else { 1 }] {
                        let shape = format!("{what} in {k} segments, n = {n} {layout}");
                        run(&shape, &w, &topology, Some(result), &|v, h| build(v, h, k));
                    }
                };
                run(
                    format!("alltoall of {block} B blocks"),
                    block,
                    Expect::Alltoall { block },
                    &|v, _, k| build_alltoall_shm(v, &w, block, k),
                );
                for shape in [DpShape::Direct, DpShape::TwoPhase, DpShape::Hosts] {
                    run(
                        format!("allreduce of {len} B, {shape:?}"),
                        count,
                        Expect::Allreduce { total },
                        &|v, h, k| {
                            build_allreduce_shm::<u64>(v, &w, Some(h), (shape, k), count, sum)
                        },
                    );
                }
                for shape in [DpShape::Direct, DpShape::Hosts] {
                    run(
                        format!("allgather of {len} B, {shape:?}"),
                        len,
                        Expect::Allgather { block: len },
                        &|v, h, k| build_allgather_shm(v, &w, Some(h), (shape, k), len),
                    );
                }
                for root in 0..n {
                    for shape in [DpShape::Direct, DpShape::Hosts] {
                        run(
                            format!("bcast of {len} B from {root}, {shape:?}"),
                            len,
                            Expect::Bcast { root, total: len },
                            &|v, h, k| build_bcast_shm(v, &w, Some(h), (shape, k), root, len),
                        );
                    }
                    run(
                        format!("reduce of {len} B to {root}"),
                        count,
                        Expect::Reduce { root, total },
                        &|v, _, k| build_reduce_shm::<u64>(v, &w, root, (count, k), sum),
                    );
                }
            }
        }
    }
}

/// The message `f` panics with; it must panic.
fn panic_of(f: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("the mutation went unnoticed");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast_ref::<&str>().unwrap_or(&"").to_string(),
    }
}

#[test]
fn a_misrouted_relay_or_a_missing_partial_is_caught_with_its_shape() {
    let sum = ReduceOp::Sum;
    // 8 members blocked on 2 hosts, {0..4} and {4..8}: member `i` of a host
    // pulls the other host's block `i` across and relays it. Member 0 reads
    // the relay of block 5 from member 2 instead of member 1 — the same
    // place of its slot, so every read still names a published exposure.
    let blocked = HostTopology::blocked(8, 2).unwrap();
    let w = window(8, 64 << 20);
    let what = "allgather of 4096 B, Hosts, n = 8 blocked on 2 hosts";
    let mut plans = plans_of(&blocked, &|v, h| {
        build_allgather_shm(v, &w, Some(h), (DpShape::Hosts, 1), 4096)
    });
    let relay = plans[0].ops.iter_mut().find_map(|op| match op {
        SchedOp::PullCopy { src, .. } if src.phase == 1 => Some(src),
        _ => None,
    });
    let relay = relay.expect("member 0 reads a relay");
    assert_eq!(relay.writer_idx, 1);
    relay.writer_idx = 2;
    check(what, &w, &plans);
    let message = panic_of(|| Expect::Allgather { block: 4096 }.check(what, &plans));
    assert!(message.starts_with(what), "{message}");
    assert!(
        message.contains("member 0's bytes 20480..24576"),
        "{message}"
    );

    // 6 members on 3 hosts, {0, 1}, {2, 3}, {4, 5}: member 0 folds the
    // partials of its block that hosts 1 and 2 hold — the latter, member
    // 4's, goes missing.
    let three = HostTopology::blocked(6, 3).unwrap();
    let w = window(6, 64 << 20);
    let what = "allreduce of 768 B, Hosts, n = 6 blocked on 3 hosts";
    let mut plans = plans_of(&three, &|v, h| {
        build_allreduce_shm::<u64>(v, &w, Some(h), (DpShape::Hosts, 1), 96, sum)
    });
    let folds = plans[0].ops.len();
    plans[0].ops.retain(|op| {
        !matches!(op, SchedOp::FoldInPlace { src, .. } if src.phase == 1 && src.writer_idx == 4)
    });
    assert_eq!(plans[0].ops.len(), folds - 1);
    check(what, &w, &plans);
    let message = panic_of(|| Expect::Allreduce { total: 768 }.check(what, &plans));
    assert!(message.starts_with(what), "{message}");
    assert!(message.contains("member 0's bytes 0..384"), "{message}");
}

#[test]
fn a_segment_read_one_sequence_number_off_is_caught_with_its_shape() {
    // 8 members blocked on 2 hosts, an allreduce of two and a half slots of
    // a small window, host-sliced in segments. Member 0 reads its second
    // segment's first run — the row and every read of it — one sequence
    // number late, out of the third segment's exposures: the same writers,
    // phases and places in the slot, so every read still names a published
    // exposure, and its run covers it. But those exposures come after the
    // second segment's relays, which wait for member 0's own partial of it:
    // everybody waits.
    let blocked = HostTopology::blocked(8, 2).unwrap();
    let w = window(8, 16 * 1024);
    let count = 5 * w.slot_bytes / 2 / 8;
    let what = "allreduce of 10240 B, Hosts, n = 8 blocked on 2 hosts";
    let build: BuildAt<'_> = &|v, h, k| {
        build_allreduce_shm::<u64>(v, &w, Some(h), (DpShape::Hosts, k), count, ReduceOp::Sum)
    };
    let k = fewest(&w, &blocked, count, build);
    let mut plans = plans_of(&blocked, &|v, h| build(v, h, k));
    assert!(plans[0].seqs >= 3, "{} segments", plans[0].seqs);
    let ops = &mut plans[0].ops;
    let row = ops
        .iter()
        .position(|op| matches!(op, SchedOp::AwaitRow { seg: 1, .. }))
        .expect("a run in the second segment");
    let mut run = ops[row..].iter_mut();
    if let Some(SchedOp::AwaitRow { seg, .. }) = run.next() {
        *seg = 2;
    }
    for op in run {
        match op {
            SchedOp::PullCopy { seg, .. } | SchedOp::FoldInPlace { seg, .. } => *seg = 2,
            SchedOp::Copy { .. } | SchedOp::Fold { .. } => {}
            _ => break,
        }
    }
    check(what, &w, &plans);
    let message = panic_of(|| Expect::Allreduce { total: 8 * count }.check(what, &plans));
    assert!(message.starts_with(what), "{message}");
    assert!(
        message.contains("every member waits — 0: AwaitRow { phase: 0, writers: (1, 4), seg: 2 }"),
        "{message}"
    );

    // And a member that takes one sequence number fewer than the others —
    // its segment bound one off — is caught before anything runs.
    let mut plans = plans_of(&blocked, &|v, h| build(v, h, k));
    plans[3].seqs -= 1;
    let message = panic_of(|| check(what, &w, &plans));
    assert!(
        message.contains(&format!("{what}: member 3 takes")),
        "{message}"
    );
}
