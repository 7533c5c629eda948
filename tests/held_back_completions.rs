//! The completion line a reader holds back for its next exposure: it never
//! makes a peer wait for good, and where it goes out is fixed by program
//! order. A root that runs `DP_SLOTS + 1` broadcasts ahead needs its readers'
//! lines before its last one; whatever a reader calls next must store the
//! line first, in both progress modes. And a script of every `coll_mix`
//! class in a seeded order lands on the same virtual clocks in every launch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmpi::mpi::dataplane::DP_SLOTS;
use cmpi::mpi::{Comm, ProgressMode, ReduceOp, Universe, UniverseConfig};

mod common;
use common::{force_shm, with_window_headroom, within_a_minute};

/// What a reader does right after its last read of the root's first
/// `DP_SLOTS` broadcasts, while its completion line for them is held back.
#[derive(Debug, Clone, Copy)]
enum Next {
    /// A point-to-point receive of a message the root sends once its last
    /// broadcast is out.
    Recv,
    /// A broadcast on another communicator, which the root joins then.
    OtherComm,
    /// `wait` on an `ibcast` on another communicator, started just now.
    WaitIbcast,
    /// Drop the communicator, then wait — calling nothing — until the root
    /// says its last broadcast is out.
    Drop,
}

#[test]
fn a_root_running_ahead_gets_every_readers_line_whatever_it_calls_next() {
    for mode in [ProgressMode::Polling, ProgressMode::Thread] {
        for next in [Next::Recv, Next::OtherComm, Next::WaitIbcast, Next::Drop] {
            let what = format!("{mode:?}, then {next:?}");
            let config = with_window_headroom(UniverseConfig::cxl_small(3), 64 * 1024 * 1024)
                .with_hosts(2)
                .with_coll_tuning(force_shm())
                .with_progress_mode(mode);
            let root_done = Arc::new(AtomicBool::new(false));
            within_a_minute(&what, move || {
                Universe::run(config, move |world: &mut Comm| {
                    let mut comm = world.comm_dup()?;
                    let mut other = world.comm_dup()?;
                    let mut buf = [0u8; 8];
                    if world.rank() == 0 {
                        // The last broadcast's slot is the first one's: the
                        // root sweeps, and needs every reader done through
                        // the broadcast before it.
                        for round in 0..=DP_SLOTS {
                            buf = [round as u8; 8];
                            comm.bcast_into(0, &mut buf)?;
                        }
                        match next {
                            Next::Recv => {
                                for reader in 1..world.size() {
                                    world.send(reader, 7, b"out")?;
                                }
                            }
                            Next::OtherComm => other.bcast_into(0, &mut buf)?,
                            Next::WaitIbcast => {
                                let mut req = other.ibcast_into(0, &buf)?;
                                other.wait(&mut req)?;
                            }
                            Next::Drop => {}
                        }
                        root_done.store(true, Ordering::Release);
                        return Ok(());
                    }
                    for round in 0..DP_SLOTS {
                        comm.bcast_into(0, &mut buf)?;
                        assert_eq!(buf, [round as u8; 8]);
                    }
                    match next {
                        Next::Recv => {
                            world.recv(Some(0), Some(7), &mut [0u8; 3])?;
                        }
                        Next::OtherComm => {
                            other.bcast_into(0, &mut buf)?;
                            assert_eq!(buf, [DP_SLOTS as u8; 8]);
                        }
                        Next::WaitIbcast => {
                            let mut req = other.ibcast_into(0, &buf)?;
                            other.wait(&mut req)?;
                            assert_eq!(req.take_values::<u8>()?, [DP_SLOTS as u8; 8]);
                        }
                        Next::Drop => {
                            drop(comm);
                            let began = Instant::now();
                            while !root_done.load(Ordering::Acquire) {
                                assert!(
                                    began.elapsed() < Duration::from_secs(30),
                                    "the root never got this reader's line"
                                );
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            return Ok(());
                        }
                    }
                    comm.bcast_into(0, &mut buf)?;
                    assert_eq!(buf, [DP_SLOTS as u8; 8]);
                    Ok(())
                })
                .unwrap_or_else(|e| panic!("{e}"))
            });
        }
    }
}

/// One class of the `coll_mix` script: a collective and its payload.
#[derive(Debug, Clone, Copy)]
enum Class {
    Barrier,
    Bcast(usize),
    Allreduce(usize),
    Allgather(usize),
    Alltoall(usize),
}

/// Every class of `coll_mix` that its determinism audit reads `exact`, at
/// its sizes for `n` ranks: 8 B and 64 KiB, and the large ones — 1 MiB at
/// 2 ranks, 256 KiB at 8. (The four persistent allreduces started together
/// and then waited for are left out: which of them a wait drives first
/// follows the host's schedule, and the audit reads them `spread`.)
fn classes(n: usize) -> Vec<Class> {
    let large = if n <= 2 { 1 << 20 } else { 256 << 10 };
    let mut all = vec![Class::Barrier];
    for size in [8, 64 << 10] {
        all.extend([
            Class::Bcast(size),
            Class::Allreduce(size),
            Class::Allgather(size),
            Class::Alltoall(size),
        ]);
    }
    all.extend([Class::Bcast(large), Class::Allreduce(large)]);
    all
}

/// `classes(n)` `rounds` times over, each round in an order drawn from
/// `seed`: a Fisher–Yates shuffle on a 64-bit LCG.
fn seeded_script(n: usize, rounds: usize, mut seed: u64) -> Vec<Class> {
    let mut script = Vec::new();
    for _ in 0..rounds {
        let mut round = classes(n);
        for i in (1..round.len()).rev() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            round.swap(i, (seed >> 33) as usize % (i + 1));
        }
        script.extend(round);
    }
    script
}

fn run_class(comm: &mut Comm, class: Class) -> cmpi::mpi::Result<()> {
    let (n, me) = (comm.size(), comm.rank());
    match class {
        Class::Barrier => comm.barrier(),
        Class::Bcast(size) => comm.bcast_into(0, &mut vec![me as u8; size]),
        Class::Allreduce(size) => comm.allreduce(&mut vec![me as f64; size / 8], ReduceOp::Sum),
        Class::Allgather(size) => {
            comm.allgather_into(&vec![me as u8; size], &mut vec![0; n * size])
        }
        Class::Alltoall(size) => comm.alltoall(&vec![me as u8; n * size], &mut vec![0; n * size]),
    }
}

/// Every rank's virtual clock, as bits, after `script` on a duplicate of
/// world among `n` ranks on 2 hosts, all having set out from the same
/// virtual instant.
fn script_clocks(n: usize, script: &[Class]) -> Vec<u64> {
    const START_NS: f64 = 1e7;
    let script = script.to_vec();
    let run = move || {
        Universe::run(
            UniverseConfig::cxl(n).with_hosts(2),
            move |world: &mut Comm| {
                let mut comm = world.comm_dup()?;
                world.advance_clock(START_NS - world.clock_ns());
                for &class in &script {
                    run_class(&mut comm, class)?;
                }
                Ok(world.clock_ns().to_bits())
            },
        )
        .expect("coll_mix-shaped script")
    };
    within_a_minute(&format!("the script at {n} ranks"), run)
        .into_iter()
        .map(|(clock, _)| clock)
        .collect()
}

#[test]
fn a_coll_mix_shaped_script_ends_on_identical_clocks_in_two_launches() {
    // Held-back completion lines go out at program points only — the entry
    // of a call or of a plan op — so whichever rank the host runs first, each
    // line rides the same exposure, or is stored by itself at the same
    // instant, in every launch.
    for (n, rounds) in [(2, 3), (8, 1)] {
        let script = seeded_script(n, rounds, 7919);
        let first = script_clocks(n, &script);
        assert_eq!(script_clocks(n, &script), first, "{n} ranks: {script:?}");
    }
}
