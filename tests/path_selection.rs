//! Which path a collective takes — the shared window, the two-level host
//! composition or the flat algorithm — at the boundaries where two of them
//! are eligible, which flat algorithm on each side of its crossover
//! constant, and which window shape on each side of the cost walk's
//! crossovers, read off the plans the builders produce for every rank. No
//! universe is launched: a plan is a pure function of its inputs.

use cmpi::fabric::cost::CoherenceMode;
use cmpi::fabric::{CxlContentionModel, CxlCostModel};
use cmpi::mpi::coll::{
    build_allgather, build_allreduce, build_alltoall, build_barrier, build_bcast, build_reduce,
    build_reduce_scatter, CommView, ALLGATHER_BRUCK_MAX_BYTES, ALLREDUCE_RABENSEIFNER_MIN_BYTES,
    ALLTOALL_BRUCK_MAX_BYTES, BCAST_SCATTER_ALLGATHER_MIN_BYTES, REDUCE_SCATTER_DIRECT_MIN_BYTES,
};
use cmpi::mpi::transport::DpCost;
use cmpi::mpi::{
    CollPlan, CollTuning, DpWindow, Group, HierarchyMode, HostHierarchy, HostTopology, Pod,
    ReduceOp, Reducible,
};
use HierarchyMode as H;

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;
/// A slot of the default window: `shm_arena_bytes` over four slots.
const SLOT: usize = 512 * KIB;

type Build =
    dyn Fn(&CommView<'_>, &CollTuning, Option<&HostHierarchy>, Option<DpWindow>) -> CollPlan;

/// One placement of `n` ranks over `hosts` hosts, with or without a window of
/// `SLOT`-byte slots.
#[derive(Clone, Copy)]
struct Shape {
    n: usize,
    hosts: usize,
    round_robin: bool,
    window: bool,
}

/// 8 ranks, blocked over 2 hosts, with a window: every path is open.
const EIGHT: Shape = Shape {
    n: 8,
    hosts: 2,
    round_robin: false,
    window: true,
};

/// `EIGHT` without its window.
const NONE: Shape = Shape {
    window: false,
    ..EIGHT
};

fn tuning(hierarchy: HierarchyMode) -> CollTuning {
    CollTuning {
        hierarchy,
        ..CollTuning::default()
    }
}

/// The label of `build` — the same on every rank, or the test fails.
fn label(shape: Shape, tuning: CollTuning, build: &Build) -> &'static str {
    let group = Group::world(shape.n);
    let topology = if shape.round_robin {
        HostTopology::round_robin(shape.n, shape.hosts)
    } else {
        HostTopology::blocked(shape.n, shape.hosts)
    }
    .unwrap();
    let window = shape.window.then_some(DpWindow {
        slot_bytes: SLOT,
        ranks: shape.n,
        cost: DpCost {
            cost: CxlCostModel::default(),
            contention: CxlContentionModel::default(),
            mode: CoherenceMode::FlushClflushopt,
            pairs: shape.n / 2,
        },
    });
    let mut labels: Vec<&'static str> = (0..shape.n)
        .map(|rank| {
            let hier = HostHierarchy::derive(&group, &topology, rank);
            let view = CommView {
                group: &group,
                ctx: 1,
                rank,
            };
            build(&view, &tuning, Some(&hier), window).label
        })
        .collect();
    labels.dedup();
    assert_eq!(labels.len(), 1, "ranks disagree: {labels:?}");
    labels[0]
}

fn bcast(total: usize) -> Box<Build> {
    Box::new(move |v, t, h, dp| build_bcast(v, t, h, dp, 0, total))
}

fn reduce(total: usize) -> Box<Build> {
    Box::new(move |v, t, h, dp| build_reduce::<u8>(v, t, h, dp, 3, total, ReduceOp::Sum))
}

fn allreduce(total: usize) -> Box<Build> {
    allreduce_of::<f64>(total / 8)
}

fn allreduce_of<T: Reducible>(count: usize) -> Box<Build> {
    Box::new(move |v, t, h, dp| build_allreduce::<T>(v, t, h, dp, count, ReduceOp::Sum))
}

fn reduce_scatter(total: usize) -> Box<Build> {
    Box::new(move |v, _, _, _| build_reduce_scatter::<u8>(v, total, ReduceOp::Sum))
}

fn alltoall(block: usize) -> Box<Build> {
    Box::new(move |v, t, h, dp| build_alltoall(v, t, h, dp, block))
}

fn allgather(block: usize) -> Box<Build> {
    Box::new(move |v, t, h, dp| build_allgather(v, t, h, dp, block))
}

fn barrier() -> Box<Build> {
    Box::new(build_barrier)
}

#[test]
fn allgather_with_a_large_result_and_a_block_that_fits() {
    // 8 × 512 KiB = 4 MiB: the block fits a slot and the result reaches the
    // allgather's cutoff, so Auto gives the job to the hierarchy.
    let cases = [
        (SLOT, EIGHT, H::Auto, "allgather/hier+ring"),
        (SLOT - 1, EIGHT, H::Auto, "allgather/shm"),
        (SLOT, EIGHT, H::Off, "allgather/shm"),
        (SLOT, EIGHT, H::Force, "allgather/hier+ring"),
        (SLOT + 1, EIGHT, H::Off, "allgather/ring"),
        // Without a window the hierarchy wins from the cutoff on, Bruck below.
        (SLOT, NONE, H::Auto, "allgather/hier+ring"),
        (4 * KIB, NONE, H::Auto, "allgather/bruck"),
    ];
    for (block, shape, h, want) in cases {
        assert_eq!(
            label(shape, tuning(h), &allgather(block)),
            want,
            "{block} B, {h:?}, window {}",
            shape.window
        );
    }
}

#[test]
fn bcast_and_reduce_at_the_slot_size_which_is_also_the_hierarchy_cutoff() {
    let cases = [
        (SLOT - 1, EIGHT, H::Auto, "shm+hosts", "shm"),
        (SLOT, EIGHT, H::Auto, "hier+binomial", "hier+binomial"),
        (SLOT + 1, EIGHT, H::Auto, "hier+binomial", "hier+binomial"),
        (SLOT - 1, EIGHT, H::Force, "hier+binomial", "hier+binomial"),
        (SLOT, EIGHT, H::Off, "shm+hosts", "shm"),
        (SLOT + 1, EIGHT, H::Off, "scatter-allgather", "binomial"),
        (SLOT - 1, NONE, H::Auto, "scatter-allgather", "binomial"),
        (SLOT, NONE, H::Auto, "hier+binomial", "hier+binomial"),
    ];
    for (total, shape, h, bcast_algo, reduce_algo) in cases {
        let t = tuning(h);
        let what = format!("{total} B, {h:?}, window {}", shape.window);
        assert_eq!(
            label(shape, t, &bcast(total)),
            format!("bcast/{bcast_algo}"),
            "{what}"
        );
        assert_eq!(
            label(shape, t, &reduce(total)),
            format!("reduce/{reduce_algo}"),
            "{what}"
        );
    }
}

#[test]
fn barrier_takes_the_window_whenever_there_is_one() {
    let one_host = Shape { hosts: 1, ..EIGHT };
    let one_host_none = Shape {
        window: false,
        ..one_host
    };
    let cases = [
        (EIGHT, H::Auto, "barrier/shm"),
        (EIGHT, H::Force, "barrier/shm"),
        (EIGHT, H::Off, "barrier/shm"),
        (NONE, H::Auto, "barrier/hier"),
        (NONE, H::Force, "barrier/hier"),
        (NONE, H::Off, "barrier/dissemination"),
        (one_host, H::Auto, "barrier/shm"),
        (one_host_none, H::Force, "barrier/dissemination"),
    ];
    for (shape, h, want) in cases {
        assert_eq!(
            label(shape, tuning(h), &barrier()),
            want,
            "{h:?}, {} host(s), window {}",
            shape.hosts,
            shape.window
        );
    }
}

#[test]
fn round_robin_allreduce_stays_flat_where_its_top_exchange_is_same_host() {
    // Round-robin over two hosts: Rabenseifner's largest exchange (rank ^ 4)
    // pairs host-mates, so Auto keeps the flat algorithm; Force composes.
    let rr = Shape {
        round_robin: true,
        window: false,
        ..EIGHT
    };
    assert_eq!(
        label(rr, CollTuning::default(), &allreduce(MIB)),
        "allreduce/rabenseifner"
    );
    assert_eq!(
        label(rr, tuning(H::Force), &allreduce(MIB)),
        "allreduce/hier+rabenseifner"
    );
    // With a window a 1 MiB vector does not fit a slot: still flat. The same
    // shape blocked over the hosts composes.
    let rr_window = Shape { window: true, ..rr };
    assert_eq!(
        label(rr_window, CollTuning::default(), &allreduce(MIB)),
        "allreduce/rabenseifner"
    );
    assert_eq!(
        label(EIGHT, CollTuning::default(), &allreduce(MIB)),
        "allreduce/hier+rabenseifner"
    );
    // Below the cutoff the window takes it either way, host-sliced.
    assert_eq!(
        label(rr_window, CollTuning::default(), &allreduce(256 * KIB)),
        "allreduce/shm+hosts"
    );
}

#[test]
fn every_data_plane_and_hierarchy_mode() {
    // Every hierarchy mode, with a window and without. A 512 KiB bcast fits
    // a slot and reaches the hierarchy cutoff; an 8-byte one reaches no
    // cutoff.
    let cases = [
        (H::Auto, EIGHT, "bcast/hier+binomial", "bcast/shm"),
        (H::Auto, NONE, "bcast/hier+binomial", "bcast/binomial"),
        (H::Off, EIGHT, "bcast/shm+hosts", "bcast/shm"),
        (H::Off, NONE, "bcast/scatter-allgather", "bcast/binomial"),
        (
            H::Force,
            EIGHT,
            "bcast/hier+binomial",
            "bcast/hier+binomial",
        ),
        (H::Force, NONE, "bcast/hier+binomial", "bcast/hier+binomial"),
    ];
    for (h, shape, large, small) in cases {
        let (t, window) = (tuning(h), shape.window);
        assert_eq!(
            label(shape, t, &bcast(SLOT)),
            large,
            "{h:?}, window {window}"
        );
        assert_eq!(label(shape, t, &bcast(8)), small, "{h:?}, window {window}");
    }
    // The alltoall's whole exchange image must fit: 8 × 64 KiB = 512 KiB
    // does, 8 × 64 KiB + 8 does not.
    for (h, shape, want) in [
        (H::Auto, EIGHT, "alltoall/shm"),
        (H::Auto, NONE, "alltoall/pairwise"),
        (H::Off, EIGHT, "alltoall/shm"),
        (H::Off, NONE, "alltoall/pairwise"),
        (H::Force, EIGHT, "alltoall/hier+pairwise"),
        (H::Force, NONE, "alltoall/hier+pairwise"),
    ] {
        assert_eq!(
            label(shape, tuning(h), &alltoall(64 * KIB)),
            want,
            "{h:?}, window {}",
            shape.window
        );
    }
    assert_eq!(
        label(EIGHT, CollTuning::default(), &alltoall(64 * KIB + 1)),
        "alltoall/pairwise"
    );
}

/// A 4 KiB element: four of them reach the Rabenseifner crossover and still
/// leave half of an 8-rank core without one.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Page([u64; 512]);

// SAFETY: an array of `u64`: every bit pattern is a value, and there is no
// padding.
unsafe impl Pod for Page {}

impl Reducible for Page {
    fn combine(_: ReduceOp, a: Self, _: Self) -> Self {
        a
    }

    fn identity(_: ReduceOp) -> Self {
        Page([0; 512])
    }
}

#[test]
fn each_flat_algorithm_takes_over_at_its_crossover_constant() {
    // Flat and window-less, so the constants alone decide: a byte below, at
    // and a byte above each one.
    let (bc, ag, ar) = (
        BCAST_SCATTER_ALLGATHER_MIN_BYTES,
        ALLGATHER_BRUCK_MAX_BYTES,
        ALLREDUCE_RABENSEIFNER_MIN_BYTES,
    );
    let (rs, a2a) = (REDUCE_SCATTER_DIRECT_MIN_BYTES, ALLTOALL_BRUCK_MAX_BYTES);
    let (two, six) = (Shape { n: 2, ..NONE }, Shape { n: 6, ..NONE });
    let pages = ar / std::mem::size_of::<Page>();
    let cases = [
        (NONE, bcast(bc - 1), "bcast/binomial"),
        (NONE, bcast(bc), "bcast/scatter-allgather"),
        (NONE, bcast(bc + 1), "bcast/scatter-allgather"),
        // Two ranks gain nothing from scattering.
        (two, bcast(bc + 1), "bcast/binomial"),
        // Per-rank blocks.
        (NONE, allgather(ag - 1), "allgather/bruck"),
        (NONE, allgather(ag), "allgather/bruck"),
        (NONE, allgather(ag + 1), "allgather/ring"),
        (
            NONE,
            allreduce_of::<u8>(ar - 1),
            "allreduce/recursive-doubling",
        ),
        (NONE, allreduce_of::<u8>(ar), "allreduce/rabenseifner"),
        (NONE, allreduce_of::<u8>(ar + 1), "allreduce/rabenseifner"),
        // Past the bytes, but fewer elements than the 8-rank core.
        (
            NONE,
            allreduce_of::<Page>(pages),
            "allreduce/recursive-doubling",
        ),
        (
            NONE,
            allreduce_of::<Page>(2 * pages),
            "allreduce/rabenseifner",
        ),
        // Whole blocks: the nearest totals that n divides.
        (NONE, reduce_scatter(rs - 8), "reduce-scatter/naive"),
        (NONE, reduce_scatter(rs), "reduce-scatter/recursive-halving"),
        (
            NONE,
            reduce_scatter(rs + 8),
            "reduce-scatter/recursive-halving",
        ),
        (six, reduce_scatter(rs - 4), "reduce-scatter/naive"),
        (six, reduce_scatter(rs + 2), "reduce-scatter/pairwise"),
        // Per-peer blocks.
        (NONE, alltoall(a2a - 1), "alltoall/bruck"),
        (NONE, alltoall(a2a), "alltoall/bruck"),
        (NONE, alltoall(a2a + 1), "alltoall/pairwise"),
    ];
    for (row, (shape, build, want)) in cases.iter().enumerate() {
        assert_eq!(label(*shape, tuning(H::Off), build), *want, "row {row}");
    }
    // The alltoall crossover sits where the bench's sweep measured it: Bruck
    // still won at 16 KiB blocks on every rank count, pairwise from 32 KiB.
    assert_eq!(a2a, 16 * KIB);
}

/// The window shapes of bcast, allgather and allreduce at 8 ranks on 2
/// hosts: host-sliced from the byte where the cost walk prices it below the
/// direct (or two-phase) shape, as the model puts it — these bytes are read
/// off the model, not tuned — and direct a byte before.
#[test]
fn host_sliced_shapes_take_over_where_the_walk_prices_them_cheaper() {
    let off = tuning(H::Off);
    let rr = Shape {
        round_robin: true,
        ..EIGHT
    };
    let cases: [(Shape, &Build, &str); 12] = [
        (EIGHT, &bcast(15_591), "bcast/shm"),
        (EIGHT, &bcast(15_592), "bcast/shm+hosts"),
        (EIGHT, &allgather(3_945), "allgather/shm"),
        (EIGHT, &allgather(3_946), "allgather/shm+hosts"),
        (EIGHT, &allreduce_of::<u8>(22_736), "allreduce/shm"),
        (EIGHT, &allreduce_of::<u8>(22_737), "allreduce/shm+hosts"),
        // Round-robin, a host's members are never neighbours in the group:
        // its rows span more lines, and the crossovers sit further out.
        (rr, &bcast(22_626), "bcast/shm"),
        (rr, &bcast(22_627), "bcast/shm+hosts"),
        (rr, &allgather(6_953), "allgather/shm"),
        (rr, &allgather(6_954), "allgather/shm+hosts"),
        (rr, &allreduce_of::<u8>(37_403), "allreduce/shm"),
        (rr, &allreduce_of::<u8>(37_404), "allreduce/shm+hosts"),
    ];
    for (row, (shape, build, want)) in cases.into_iter().enumerate() {
        assert_eq!(label(shape, off, build), want, "row {row}");
    }
    // The 8-rank payloads of the benchmark's mix: direct at 8 B, host-sliced
    // at 64 KiB and 256 KiB.
    for (build, want) in [
        (bcast(8), "bcast/shm"),
        (bcast(64 * KIB), "bcast/shm+hosts"),
        (bcast(256 * KIB), "bcast/shm+hosts"),
        (allgather(8), "allgather/shm"),
        (allgather(64 * KIB), "allgather/shm+hosts"),
        (allreduce(8), "allreduce/shm"),
        (allreduce(64 * KIB), "allreduce/shm+hosts"),
        (allreduce(256 * KIB), "allreduce/shm+hosts"),
    ] {
        assert_eq!(label(EIGHT, off, &build), want);
    }
}

#[test]
fn one_host_or_one_rank_per_host_never_slices() {
    // Nothing to slice by on one host; with one rank per host the relay
    // would only add a phase.
    let one_host = Shape { hosts: 1, ..EIGHT };
    let pair = Shape {
        n: 2,
        hosts: 2,
        round_robin: false,
        window: true,
    };
    let spread = Shape {
        n: 4,
        hosts: 4,
        round_robin: true,
        window: true,
    };
    for shape in [one_host, pair, spread] {
        for bytes in [8, 4 * KIB, 64 * KIB, 256 * KIB] {
            let what = format!("{} ranks on {} hosts, {bytes} B", shape.n, shape.hosts);
            let off = tuning(H::Off);
            assert_eq!(label(shape, off, &bcast(bytes)), "bcast/shm", "{what}");
            assert_eq!(
                label(shape, off, &allgather(bytes)),
                "allgather/shm",
                "{what}"
            );
            assert_eq!(
                label(shape, off, &allreduce(bytes)),
                "allreduce/shm",
                "{what}"
            );
        }
    }
}
