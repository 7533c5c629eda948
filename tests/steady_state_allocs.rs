//! Steady state allocates only what it hands back.
//!
//! A counting global allocator (per thread, like the `e2e` benchmark's
//! `allocs_per_op`) reads each rank thread's heap allocations around a
//! repeated operation after a warm-up, which pays for every one-time cost:
//! plan builds, lazy connections, the communicator's execution arena growing
//! to the run's size. From then on:
//!
//! * posted p2p, every blocking collective of the `coll_mix` benchmark at
//!   2 ranks and at 8 ranks on 2 hosts, a blocking gather and scatter, a
//!   persistent `start` + `wait` (those two under either progress mode) and
//!   the RMA calls allocate **nothing**;
//! * a call whose signature returns a fresh `Vec` (`wait_all`, `alltoallv`, a
//!   root's `reduce`) allocates **exactly that one**.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cmpi::mpi::{Comm, ProgressMode, ReduceOp, Request, Result, Universe, UniverseConfig};

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator can neither allocate nor run after TLS teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread allocation counter.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter bump touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to keep valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn bump() {
    // `try_with` because the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Untimed runs before counting: the first pays for plans, connections and
/// arena growth; the second shows a cache hit is already steady.
const WARM: usize = 2;
/// Runs in one counted window.
const RUNS: u64 = 3;
/// Counted windows tried before a row fails. A message that arrives before
/// its receive is staged in a pooled buffer, and the pool grows the first
/// time it stages a message of a new size, which happens whenever the host's
/// schedule has a rank drain early — so no fixed warm-up is sure to have
/// paid for it. An allocation that every run makes shows in every window.
const WINDOWS: usize = 4;

/// One counted operation: what it is, its size, the allocations wanted per
/// run and those the calling rank thread made per run in its last window.
type Row = (&'static str, usize, u64, u64);

/// Run `op` [`WARM`] times, then count the calling thread's allocations over
/// windows of [`RUNS`] more until one makes `want` per run (at most
/// [`WINDOWS`]), and record the last window's count per run — `u64::MAX`
/// when the runs did not all allocate alike.
fn count(
    comm: &mut Comm,
    rows: &mut Vec<Row>,
    what: &'static str,
    size: usize,
    want: u64,
    mut op: impl FnMut(&mut Comm) -> Result<()>,
) -> Result<()> {
    for _ in 0..WARM {
        op(comm)?;
    }
    let mut got = u64::MAX;
    for _ in 0..WINDOWS {
        let before = thread_allocs();
        for _ in 0..RUNS {
            op(comm)?;
        }
        let allocs = thread_allocs() - before;
        got = if allocs.is_multiple_of(RUNS) {
            allocs / RUNS
        } else {
            u64::MAX
        };
        // Every rank runs another window while any rank wants one, so the
        // ranks keep calling the same operations.
        let mut again = [u64::from(got != want)];
        comm.allreduce(&mut again, ReduceOp::Max)?;
        if again[0] == 0 {
            break;
        }
    }
    rows.push((what, size, want, got));
    Ok(())
}

/// Run `body` on every rank and assert every row it counts.
fn check(config: UniverseConfig, body: fn(&mut Comm) -> Result<Vec<Row>>) {
    let ranks = Universe::run(config, body).expect("universe");
    let mut bad = Vec::new();
    for (rank, (rows, _)) in ranks.iter().enumerate() {
        assert!(!rows.is_empty());
        for (what, size, want, got) in rows {
            if got != want {
                bad.push(format!(
                    "rank {rank}: {what} at {size} B made {got} allocations per run, want {want}"
                ));
            }
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// The blocking collectives of `coll_mix`, each at every size in `sizes`
/// (the bytes each rank passes in), plus `reduce`, whose root alone gets a
/// vector back.
fn collectives(comm: &mut Comm, sizes: &[usize]) -> Result<Vec<Row>> {
    let mut comm = comm.comm_dup()?;
    let (n, me) = (comm.size(), comm.rank());
    let largest = sizes.iter().copied().max().unwrap_or(0);
    let mut send = vec![me as u8; largest];
    let mut recv = vec![0u8; n * largest];
    let mut values = vec![1.0f64; largest / 8];
    let mut rows = Vec::with_capacity(8 * sizes.len());
    count(&mut comm, &mut rows, "barrier", 0, 0, |comm| comm.barrier())?;
    for &size in sizes {
        count(&mut comm, &mut rows, "bcast_into", size, 0, |comm| {
            comm.bcast_into(0, &mut send[..size])
        })?;
        count(&mut comm, &mut rows, "allreduce", size, 0, |comm| {
            comm.allreduce(&mut values[..size / 8], ReduceOp::Sum)
        })?;
        count(&mut comm, &mut rows, "allgather_into", size, 0, |comm| {
            comm.allgather_into(&send[..size], &mut recv[..n * size])
        })?;
        let block = size / n;
        count(&mut comm, &mut rows, "alltoall", size, 0, |comm| {
            comm.alltoall(&send[..n * block], &mut recv[..n * block])
        })?;
        let (what, want) = if me == 0 {
            ("reduce at root", 1)
        } else {
            ("reduce", 0)
        };
        count(&mut comm, &mut rows, what, size, want, |comm| {
            comm.reduce(0, &values[..size / 8], ReduceOp::Sum).map(drop)
        })?;
    }
    Ok(rows)
}

#[test]
fn blocking_collectives_allocate_nothing_at_two_ranks() {
    let config = UniverseConfig::cxl(2).with_hosts(2);
    check(config, |comm| collectives(comm, &[8, 64 << 10, 1 << 20]));
}

#[test]
fn blocking_collectives_allocate_nothing_at_eight_ranks_on_two_hosts() {
    let config = UniverseConfig::cxl(8).with_hosts(2);
    check(config, |comm| collectives(comm, &[8, 64 << 10, 256 << 10]));
}

/// Blocking `gather_into` and `scatter_from` rooted at rank 0, every role:
/// the non-root of the gather and the root of the scatter stage the
/// caller's `&[T]` in the communicator's arena, like every other blocking
/// collective whose buffer is not the caller's to write.
fn gather_and_scatter(comm: &mut Comm) -> Result<Vec<Row>> {
    let mut comm = comm.comm_dup()?;
    let (n, me) = (comm.size(), comm.rank());
    let sizes = [8, 64 << 10, 1 << 20];
    let largest = sizes[sizes.len() - 1];
    let send = vec![me as u8; n * largest];
    let mut recv = vec![0u8; n * largest];
    let mut rows = Vec::with_capacity(2 * sizes.len());
    for size in sizes {
        let what = match me {
            0 => "gather_into at root",
            _ => "gather_into",
        };
        count(&mut comm, &mut rows, what, size, 0, |comm| {
            let recv = (me == 0).then_some(&mut recv[..n * size]);
            comm.gather_into(0, &send[..size], recv)
        })?;
        let what = match me {
            0 => "scatter_from at root",
            _ => "scatter_from",
        };
        count(&mut comm, &mut rows, what, size, 0, |comm| {
            let send = (me == 0).then_some(&send[..n * size]);
            comm.scatter_from(0, send, &mut recv[..size])
        })?;
    }
    Ok(rows)
}

#[test]
fn blocking_gather_and_scatter_allocate_nothing_in_either_progress_mode() {
    for mode in [ProgressMode::Polling, ProgressMode::Thread] {
        let config = UniverseConfig::cxl(2)
            .with_hosts(2)
            .with_progress_mode(mode);
        check(config, gather_and_scatter);
    }
}

/// One round trip between ranks 0 and 1, rank 0 sending first.
fn ping_pong(comm: &mut Comm, peer: usize, buf: &mut [u8]) -> Result<()> {
    if comm.rank() == 0 {
        comm.send(peer, 1, buf)?;
        comm.recv(Some(peer), Some(1), buf).map(drop)
    } else {
        comm.recv(Some(peer), Some(1), buf)?;
        comm.send(peer, 1, buf)
    }
}

/// The pair's first messages go through the shared receive queue until the
/// connection is promoted to a queue pair of its own: a one-time cost, paid
/// here rather than in a counted window.
fn promote(comm: &mut Comm, peer: usize) -> Result<()> {
    for _ in 0..8 {
        ping_pong(comm, peer, &mut [0u8; 8])?;
    }
    Ok(())
}

/// Posted p2p between ranks 0 and 1, blocking and nonblocking, a burst
/// completed by `wait_all`, a repeated `alltoallv`, and the RMA calls.
fn p2p_and_rma(comm: &mut Comm) -> Result<Vec<Row>> {
    let (me, peer) = (comm.rank(), 1 - comm.rank());
    let mut rows = Vec::with_capacity(16);
    let mut buf = vec![0u8; 1 << 20];
    promote(comm, peer)?;
    for size in [8, 4 << 10, 1 << 20] {
        count(comm, &mut rows, "send/recv", size, 0, |comm| {
            ping_pong(comm, peer, &mut buf[..size])
        })?;
    }
    let mut posted = vec![0u8; 4 << 10];
    count(
        comm,
        &mut rows,
        "isend/irecv_into/wait",
        posted.len(),
        0,
        |comm| {
            let len = posted.len();
            let mut recv = comm.irecv_into(Some(peer), Some(2), std::mem::take(&mut posted))?;
            let mut send = comm.isend(peer, 2, &buf[..len])?;
            comm.wait(&mut send)?;
            comm.wait(&mut recv)?;
            posted = recv.take_data()?;
            Ok(())
        },
    )?;
    // Bursts of sixteen 8 B messages, one way at a time (a blocked send does
    // not drain arrivals), received into recycled buffers: the statuses
    // `wait_all` returns are each side's one allocation per burst.
    let mut burst: Vec<Request> = Vec::with_capacity(16);
    let mut landing: Vec<Vec<u8>> = vec![vec![0u8; 8]; 16];
    let mut sender = 0;
    count(comm, &mut rows, "wait_all", 16 * 8, 1, |comm| {
        burst.clear();
        if me == sender {
            for i in 0..16 {
                burst.push(comm.isend(peer, 3, &buf[8 * i..8 * (i + 1)])?);
            }
            comm.wait_all(&mut burst)?;
        } else {
            for into in landing.iter_mut() {
                burst.push(comm.irecv_into(Some(peer), Some(3), std::mem::take(into))?);
            }
            comm.wait_all(&mut burst)?;
            for (into, recv) in landing.iter_mut().zip(&mut burst) {
                *into = recv.take_data()?;
            }
        }
        sender = 1 - sender;
        Ok(())
    })?;
    // Rank 0 sends 64 elements to rank 1, which sends 192 back.
    let (send_counts, recv_counts) = if me == 0 {
        ([32, 64], [32, 192])
    } else {
        ([192, 16], [64, 16])
    };
    let send = vec![me as u32; send_counts.iter().sum()];
    count(comm, &mut rows, "alltoallv", 4 * 256, 1, |comm| {
        comm.alltoallv(&send, &send_counts, &recv_counts).map(drop)
    })?;

    let win = comm.win_allocate(4 << 10)?;
    comm.win_fence(win)?;
    count(comm, &mut rows, "put", 64, 0, |comm| {
        comm.put(win, peer, 0, &buf[..64])
    })?;
    count(comm, &mut rows, "get", 64, 0, |comm| {
        comm.get(win, peer, 0, &mut buf[..64])
    })?;
    comm.win_fence(win)?;
    count(
        comm,
        &mut rows,
        "win_lock/accumulate/win_unlock",
        8,
        0,
        |comm| {
            comm.win_lock(win, 0)?;
            comm.accumulate(win, 0, 64 * me, &[1.0], ReduceOp::Sum)?;
            comm.win_unlock(win, 0)
        },
    )?;
    comm.win_fence(win)?;
    comm.win_free(win)?;
    Ok(rows)
}

#[test]
fn posted_p2p_and_rma_allocate_nothing() {
    let config = UniverseConfig::cxl(2).with_hosts(2);
    check(config, p2p_and_rma);
}

/// Four persistent 1 KiB allreduces, each rewritten and restarted per run.
/// Rank 0 starts all four and then waits them in order, as the `coll_mix`
/// window does; rank 1 starts each only once rank 0 has finished waiting the
/// one before. So every wait of rank 0 but the last ends with later requests
/// still pending, and hands the poller role on to them.
fn persistent(comm: &mut Comm) -> Result<Vec<Row>> {
    let (me, peer) = (comm.rank(), 1 - comm.rank());
    promote(comm, peer)?;
    let values = [1.0f64; 128];
    let mut requests = (0..4)
        .map(|_| comm.allreduce_init(&values, ReduceOp::Sum))
        .collect::<Result<Vec<_>>>()?;
    let mut token = [0u8; 8];
    let mut rows = Vec::with_capacity(1);
    count(
        comm,
        &mut rows,
        "persistent start + wait",
        4 * 1024,
        0,
        |comm| {
            if me == 0 {
                for request in requests.iter_mut() {
                    request.write_input(&values)?;
                    comm.start(request)?;
                }
                for request in requests.iter_mut() {
                    comm.wait(request)?;
                    comm.send(peer, 4, &token)?;
                }
            } else {
                for request in requests.iter_mut() {
                    request.write_input(&values)?;
                    comm.start(request)?;
                    comm.wait(request)?;
                    comm.recv(Some(peer), Some(4), &mut token)?;
                }
            }
            Ok(())
        },
    )?;
    for request in &mut requests {
        request.release()?;
    }
    Ok(rows)
}

#[test]
fn persistent_start_and_wait_allocate_nothing_in_either_progress_mode() {
    for mode in [ProgressMode::Polling, ProgressMode::Thread] {
        let config = UniverseConfig::cxl(2)
            .with_hosts(2)
            .with_progress_mode(mode);
        check(config, persistent);
    }
}
