//! The paper's anchors as assertions — first cut of ROADMAP item 5. Every
//! two-sided number here runs on `ConnMode::Eager`, the paper's message-cell
//! protocol kept as the oracle, so a change to that path (or to the cost
//! model under it) fails a test instead of relying on a reader's memory of
//! what Figure 8 used to print. The library's default path (lazy connections,
//! a stamped stream per promoted pair) is deliberately *not* held to these:
//! it is allowed to be faster than the paper, the reproduction is not.
//!
//! The one-sided path has no oracle mode: its synchronization is pinned below
//! as cost-model identities — device lines per call — and the distance to
//! the paper's one-sided anchor that leaves is written down next to them.
//! The small flat collectives of the shared-window data plane, an extension
//! with no counterpart in the paper, are pinned the same way: a store, a row
//! and a line.

use cmpi::fabric::cost::{CoherenceMode, CxlCostModel, TcpNic};
use cmpi::fabric::profiles::InterconnectKind;
use cmpi::fabric::{params, table1};
use cmpi::mpi::dataplane::DP_SLOTS;
use cmpi::mpi::{Comm, ConnMode, ReduceOp, Result, Universe, UniverseConfig};
use cmpi::omb::two_sided_latency;

mod common;

/// cMPI as the paper built it (the bench bins' `paper_cxl`).
fn paper_cxl(ranks: usize) -> UniverseConfig {
    UniverseConfig::cxl(ranks).with_conn_mode(ConnMode::Eager)
}

fn latency_us(config: UniverseConfig, size: usize) -> f64 {
    two_sided_latency(config, size)
        .expect("latency kernel")
        .latency_us
}

fn assert_within(what: &str, value: f64, anchor: f64, tolerance: f64) {
    let off = (value - anchor).abs() / anchor;
    assert!(
        off <= tolerance,
        "{what}: {value} is {:.2} % off its anchor {anchor} (allowed {:.1} %)",
        off * 100.0,
        tolerance * 100.0
    );
}

#[test]
fn eager_8_byte_one_way_latency_is_the_protocols_eight_device_accesses() {
    let measured = latency_us(paper_cxl(2), 8);
    // The value every `e2e` trajectory row carried from PR 11 to PR 15.
    assert_within("8 B two-sided one-way latency", measured, 8.114, 0.01);
    // And where it comes from: software overhead on both sides, a 72-byte
    // cell (64 B header + payload) written, flushed and fenced, then fenced,
    // invalidated and read, and the four head/tail accesses.
    let cost = CxlCostModel::default();
    let mode = CoherenceMode::FlushClflushopt;
    let modelled = 2.0 * cost.mpi_overhead()
        + cost.coherent_write(72, mode)
        + cost.coherent_read(72, mode)
        + 4.0 * cost.nt_access();
    assert_within("… against the cost model", measured, modelled / 1e3, 0.002);
}

#[test]
fn two_sided_latency_ratios_against_tcp_stay_in_their_bands() {
    // `headline_ratios`' representative small message. Values at `cbc4c69`
    // on this oracle: 19.84× over Ethernet, 6.85× over the SmartNIC (the paper
    // reports up to 13.7× / 9.6×); a 5 % move of either fails.
    let cxl = latency_us(paper_cxl(2), 64);
    let eth = latency_us(UniverseConfig::tcp(2, TcpNic::StandardEthernet), 64);
    let mlx = latency_us(UniverseConfig::tcp(2, TcpNic::MellanoxCx6Dx), 64);
    assert_within("latency ratio over TCP/Ethernet", eth / cxl, 19.84, 0.05);
    assert_within("latency ratio over TCP/Mellanox", mlx / cxl, 6.85, 0.05);
}

#[test]
fn table1_model_rows_land_within_half_a_percent_of_the_paper() {
    // The two CXL rows are the ones a model computes; the others are read
    // back from the anchors themselves.
    let rows = table1::build_table1();
    for (kind, anchor) in [
        (
            InterconnectKind::CxlShmCached,
            params::CXL_CACHED_LATENCY_NS,
        ),
        (
            InterconnectKind::CxlShmFlushed,
            params::CXL_FLUSHED_LATENCY_US * 1000.0,
        ),
    ] {
        let row = rows.iter().find(|r| r.kind == kind).expect("a CXL row");
        assert_within(&row.name, row.latency_ns, anchor, 0.005);
    }
}

/// Virtual nanoseconds one `step(comm, window)` takes on rank 0 of a default
/// CXL universe in steady state: the mean of 64 iterations after 8 untimed
/// ones (the first epochs wait for the slower rank's start-up).
fn steady_ns(
    ranks: usize,
    step: impl Fn(&mut Comm, usize) -> Result<()> + Send + Sync + 'static,
) -> f64 {
    let results = Universe::run(UniverseConfig::cxl(ranks), move |comm: &mut Comm| {
        let win = comm.win_allocate(4096)?;
        comm.barrier()?;
        let mut started = 0.0;
        for i in 0..72 {
            if i == 8 {
                started = comm.clock_ns();
            }
            step(comm, win)?;
        }
        let per_step = (comm.clock_ns() - started) / 64.0;
        comm.barrier()?;
        comm.win_free(win)?;
        Ok(per_step)
    });
    results.expect("one-sided kernel")[0].0
}

#[test]
fn rma_synchronization_costs_one_device_line_per_peer_and_call() {
    let cost = CxlCostModel::default();
    let mode = CoherenceMode::FlushClflushopt;
    let (nt, sw) = (cost.nt_access(), cost.mpi_overhead());

    // A PSCW epoch around one 8 B put: post, start, complete and wait are one
    // line each on the origin's critical path, in that order.
    let put_epoch = steady_ns(2, |comm, win| {
        if comm.rank() == 0 {
            comm.win_start(win, &[1])?;
            comm.put(win, 1, 0, &[7u8; 8])?;
            comm.win_complete(win)
        } else {
            comm.win_post(win, &[0])?;
            comm.win_wait(win)
        }
    });
    let modelled = 4.0 * nt + cost.coherent_write(8, mode) + sw;
    assert_within("PSCW 8 B put epoch", put_epoch, modelled, 0.002);
    // Drift carried against the paper: its one-sided small-message latency
    // is ≈ 12 µs (`params::CXL_MPI_SMALL_LATENCY_US`, Figure 6); this epoch
    // is 5.60 µs (7.18 µs before the flags became epoch-numbered cells, when
    // it was six lines and not four). The reproduction's one-sided path is
    // faster than the paper's by construction and moved further away here;
    // ROADMAP item 5 holds the drift, this test only says where it is.
    assert!(put_epoch / 1e3 < params::CXL_MPI_SMALL_LATENCY_US);

    // fence, get, fence: a fence at two ranks is one store and one load.
    let get_epoch = steady_ns(2, |comm, win| {
        comm.win_fence(win)?;
        if comm.rank() == 0 {
            comm.get(win, 1, 0, &mut [0u8; 4096])?;
        }
        comm.win_fence(win)
    });
    let modelled = 4.0 * nt + cost.coherent_read(4096, mode) + sw;
    assert_within("fence, get 4 KiB, fence", get_epoch, modelled, 0.002);

    // lock, accumulate, unlock: the uncontended bakery at two ranks is two
    // stores and two line scans; the release is one store.
    let locked_acc = |comm: &mut Comm, win| {
        if comm.rank() == 0 {
            comm.win_lock(win, 1)?;
            comm.accumulate(win, 1, 0, &[1.0], ReduceOp::Sum)?;
            comm.win_unlock(win, 1)?;
        }
        Ok(())
    };
    let modelled = 5.0 * nt + cost.coherent_read(8, mode) + cost.coherent_write(8, mode) + 2.0 * sw;
    assert_within(
        "lock, accumulate 8 B, unlock",
        steady_ns(2, locked_acc),
        modelled,
        0.002,
    );

    // At eight ranks the slots fill two lines: 2 stores + 2 · ⌈8/4⌉ loads.
    let lock_unlock = |comm: &mut Comm, win| {
        if comm.rank() == 0 {
            comm.win_lock(win, 1)?;
            comm.win_unlock(win, 1)?;
        }
        Ok(())
    };
    assert_within(
        "uncontended win_lock at 8 ranks (+ unlock)",
        steady_ns(8, lock_unlock),
        (6.0 + 1.0) * nt,
        0.002,
    );
}

#[test]
fn small_flat_collectives_cost_a_store_a_row_and_a_line() {
    // The library default at 8 ranks on 2 hosts, 16 calls in steady state:
    // what a rank stores is a line, and what it reads of its seven peers is
    // one streamed read of the row their flag lines form — 879.5 ns for the
    // eight lines a rank in the middle of the group spans, which the ranks at
    // the ends wait for — where a load per peer was seven times 790 ns. An
    // 8 B payload rides in those lines; reading one costs the completion line
    // a writer's sweep then finds, one more row per `DP_SLOTS` collectives.
    const COLLS: usize = 4 * DP_SLOTS;
    let dp = common::dp_cost(4);
    let (line, row) = (dp.line(), dp.row(8));
    assert_within("a row of eight lines", row, 879.5, 0.001);
    let steady = |step: fn(&mut Comm) -> Result<()>| {
        common::steady_colls(UniverseConfig::cxl(8).with_hosts(2), COLLS, step)
    };
    let sweeps = (COLLS / DP_SLOTS) as f64 * row;
    let barrier = steady(Comm::barrier);
    let allgather = steady(|comm| comm.allgather_into(&[7u8; 8], &mut [0u8; 64]));
    let allreduce = steady(|comm| comm.allreduce(&mut [3u64], ReduceOp::Sum));
    for rank in 0..8 {
        let calls = COLLS as f64;
        for (what, virt_ns, planned) in [
            ("barrier", barrier[rank].2, calls * (line + row)),
            (
                "8 B allgather",
                allgather[rank].2,
                calls * (line + row + line) + sweeps,
            ),
            (
                "8 B allreduce",
                allreduce[rank].2,
                calls * (line + row + line) + sweeps,
            ),
        ] {
            assert_within(&format!("{what}, rank {rank}"), virt_ns, planned, 0.002);
        }
    }
}

#[test]
fn an_8_byte_alltoall_reads_seven_slots_in_one_row_and_one_gathered_read() {
    // Same universe, 8 B to every peer: the 64 B image is past the 48 B that
    // ride in a flag line, so every block is read out of a data slot. A flag
    // load and a fenced read per peer made that seven times 1.61 µs; behind
    // the one row the seven reads are one gathered read — one fence, one
    // device latency, 56 bytes — and the call 4.11 µs where it was 13.68.
    const COLLS: usize = 4 * DP_SLOTS;
    let dp = common::dp_cost(4);
    let reads = dp.row(8) + dp.gather(8, common::peers_pieces(3, 8));
    let per_call = dp.expose(64, false) + reads + dp.line();
    assert_within("an 8 B alltoall among 8 ranks", per_call, 4112.98, 0.001);
    let sweeps = (COLLS / DP_SLOTS) as f64 * dp.row(8);
    let step = |comm: &mut Comm| comm.alltoall(&[9u8; 64], &mut [0u8; 64]);
    let runs = common::steady_colls(UniverseConfig::cxl(8).with_hosts(2), COLLS, step);
    for (rank, (before, after, virt_ns)) in runs.iter().enumerate() {
        let planned = COLLS as f64 * per_call + sweeps;
        assert_within(&format!("rank {rank}"), *virt_ns, planned, 0.002);
        assert_eq!(after.pull_ops - before.pull_ops, 7 * COLLS as u64);
        assert_eq!(
            after.row_reads - before.row_reads,
            (COLLS + COLLS / DP_SLOTS) as u64
        );
    }
}
