//! Which path a collective takes — the shared window, the two-level host
//! composition or the flat algorithm — at the boundaries where two of them
//! are eligible, read off the plans the builders produce for every rank. No
//! universe is launched: a plan is a pure function of its inputs.

use cmpi::fabric::cost::CoherenceMode;
use cmpi::fabric::{CxlContentionModel, CxlCostModel};
use cmpi::mpi::coll::{
    build_allgather, build_allreduce, build_alltoall, build_barrier, build_bcast, build_reduce,
    CommView,
};
use cmpi::mpi::transport::DpCost;
use cmpi::mpi::{
    CollPlan, CollTuning, DataPlaneMode, DpWindow, Group, HierarchyMode, HostHierarchy,
    HostTopology, ReduceOp,
};
use DataPlaneMode as D;
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

fn tuning(hierarchy: HierarchyMode, data_plane: DataPlaneMode) -> CollTuning {
    CollTuning {
        hierarchy,
        data_plane,
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
        slots: 4,
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
    Box::new(move |v, t, h, dp| build_allreduce::<f64>(v, t, h, dp, total / 8, ReduceOp::Sum))
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
        (SLOT, H::Auto, D::Auto, "allgather/hier+ring"),
        (SLOT - 1, H::Auto, D::Auto, "allgather/shm"),
        (SLOT, H::Auto, D::Shm, "allgather/shm"),
        (SLOT, H::Off, D::Auto, "allgather/shm"),
        (SLOT, H::Auto, D::Ring, "allgather/hier+ring"),
        (SLOT + 1, H::Off, D::Shm, "allgather/ring"),
    ];
    for (block, h, d, want) in cases {
        assert_eq!(
            label(EIGHT, tuning(h, d), &allgather(block)),
            want,
            "{block} B, {h:?}/{d:?}"
        );
    }
    // Without a window the hierarchy wins from the cutoff on, Bruck below.
    let no_window = Shape {
        window: false,
        ..EIGHT
    };
    assert_eq!(
        label(no_window, CollTuning::default(), &allgather(SLOT)),
        "allgather/hier+ring"
    );
    assert_eq!(
        label(no_window, CollTuning::default(), &allgather(4 * KIB)),
        "allgather/bruck"
    );
}

#[test]
fn bcast_and_reduce_at_the_slot_size_which_is_also_the_hierarchy_cutoff() {
    let cases = [
        (SLOT - 1, H::Auto, D::Auto, "shm", "shm"),
        (SLOT, H::Auto, D::Auto, "hier+binomial", "hier+binomial"),
        (SLOT + 1, H::Auto, D::Auto, "hier+binomial", "hier+binomial"),
        (SLOT, H::Auto, D::Shm, "shm", "shm"),
        (SLOT + 1, H::Auto, D::Shm, "hier+binomial", "hier+binomial"),
        (SLOT, H::Off, D::Auto, "shm", "shm"),
        (SLOT + 1, H::Off, D::Auto, "scatter-allgather", "binomial"),
    ];
    for (total, h, d, bcast_algo, reduce_algo) in cases {
        let t = tuning(h, d);
        let what = format!("{total} B, {h:?}/{d:?}");
        assert_eq!(
            label(EIGHT, t, &bcast(total)),
            format!("bcast/{bcast_algo}"),
            "{what}"
        );
        assert_eq!(
            label(EIGHT, t, &reduce(total)),
            format!("reduce/{reduce_algo}"),
            "{what}"
        );
    }
}

#[test]
fn barrier_takes_the_window_whenever_there_is_one() {
    let no_window = Shape {
        window: false,
        ..EIGHT
    };
    let one_host = Shape { hosts: 1, ..EIGHT };
    let cases = [
        (EIGHT, H::Auto, D::Auto, "barrier/shm"),
        (EIGHT, H::Force, D::Auto, "barrier/shm"),
        (EIGHT, H::Auto, D::Ring, "barrier/hier"),
        (no_window, H::Auto, D::Auto, "barrier/hier"),
        (no_window, H::Off, D::Auto, "barrier/dissemination"),
        (one_host, H::Force, D::Ring, "barrier/dissemination"),
        (one_host, H::Auto, D::Auto, "barrier/shm"),
    ];
    for (shape, h, d, want) in cases {
        assert_eq!(label(shape, tuning(h, d), &barrier()), want, "{h:?}/{d:?}");
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
    let forced = tuning(H::Force, D::Auto);
    assert_eq!(
        label(rr, forced, &allreduce(MIB)),
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
    // Below the cutoff the window takes it either way.
    assert_eq!(
        label(rr_window, CollTuning::default(), &allreduce(256 * KIB)),
        "allreduce/shm"
    );
}

#[test]
fn every_data_plane_and_hierarchy_mode() {
    // A 512 KiB bcast, which fits a slot and reaches the hierarchy cutoff,
    // and an 8-byte one, which reaches no cutoff.
    let cases = [
        (H::Auto, D::Auto, "bcast/hier+binomial", "bcast/shm"),
        (H::Auto, D::Ring, "bcast/hier+binomial", "bcast/binomial"),
        (H::Auto, D::Shm, "bcast/shm", "bcast/shm"),
        (H::Off, D::Auto, "bcast/shm", "bcast/shm"),
        (H::Off, D::Ring, "bcast/scatter-allgather", "bcast/binomial"),
        (H::Off, D::Shm, "bcast/shm", "bcast/shm"),
        (
            H::Force,
            D::Auto,
            "bcast/hier+binomial",
            "bcast/hier+binomial",
        ),
        (
            H::Force,
            D::Ring,
            "bcast/hier+binomial",
            "bcast/hier+binomial",
        ),
        (H::Force, D::Shm, "bcast/shm", "bcast/shm"),
    ];
    for (h, d, large, small) in cases {
        let t = tuning(h, d);
        assert_eq!(label(EIGHT, t, &bcast(SLOT)), large, "{h:?}/{d:?}");
        assert_eq!(label(EIGHT, t, &bcast(8)), small, "{h:?}/{d:?}");
    }
    // The alltoall's whole exchange image must fit: 8 × 64 KiB = 512 KiB
    // does, 8 × 64 KiB + 8 does not.
    let alltoall = |block: usize| -> Box<Build> {
        Box::new(move |v, t, h, dp| build_alltoall(v, t, h, dp, block))
    };
    for (h, d, want) in [
        (H::Auto, D::Auto, "alltoall/shm"),
        (H::Auto, D::Ring, "alltoall/pairwise"),
        (H::Force, D::Auto, "alltoall/hier+pairwise"),
        (H::Force, D::Shm, "alltoall/shm"),
    ] {
        assert_eq!(
            label(EIGHT, tuning(h, d), &alltoall(64 * KIB)),
            want,
            "{h:?}/{d:?}"
        );
    }
    assert_eq!(
        label(EIGHT, CollTuning::default(), &alltoall(64 * KIB + 1)),
        "alltoall/pairwise"
    );
}
