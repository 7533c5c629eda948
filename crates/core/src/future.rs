//! Futures-style completion for cMPI requests.
//!
//! Nonblocking cMPI operations ([`Request`]) plug into `std::task` so they
//! compose with async code without pulling in an async runtime:
//!
//! * [`Comm::poll_request`] is the primitive — poll one request with a
//!   [`Context`], `Ready` when complete. In
//!   [`Thread`](crate::config::ProgressMode::Thread) progress mode the
//!   request's waker is armed on its operation cell and woken by the
//!   background engine the moment the collective finishes, so a pending poll
//!   costs nothing. In [`Polling`](crate::config::ProgressMode::Polling) mode
//!   the poll itself drives progress and self-wakes (`wake_by_ref`) while
//!   incomplete, turning any executor into the progress loop.
//! * [`CompletionFuture`] wraps a communicator plus a slice of requests as a
//!   `Future` resolving to all statuses (an async `MPI_Waitall`).
//! * [`block_on`] is a dependency-free, park-based executor for exactly these
//!   futures; [`join_all`] joins heterogeneous boxed futures (e.g. completion
//!   futures of *different* communicators owned by one thread).
//!
//! ```no_run
//! # use cmpi_core::{Comm, Result};
//! # fn demo(comm: &mut Comm, x: Vec<f64>) -> Result<()> {
//! use cmpi_core::future::{block_on, CompletionFuture};
//! use cmpi_core::ReduceOp;
//!
//! let mut reqs = vec![comm.iallreduce(&x, ReduceOp::Sum)?];
//! // ... compute while the engine progresses the collective ...
//! let statuses = block_on(CompletionFuture::new(comm, &mut reqs))?;
//! assert_eq!(statuses.len(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! The same-communicator concurrency rules apply unchanged: a future borrows
//! its communicator mutably, so the type system already enforces "one
//! completion driver per communicator at a time".

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

use crate::comm::Comm;
use crate::request::{Request, RequestState};
use crate::spin::{block_until, unowned, Polled, WaitSite};
use crate::types::Status;
use crate::Result;

impl Comm {
    /// Poll one request for completion, futures-style.
    ///
    /// Returns `Poll::Ready(status)` once the operation has completed (for a
    /// persistent request this leaves it restartable, exactly like
    /// [`Comm::test`]). While pending:
    ///
    /// * if the request is a nonblocking collective and the background
    ///   progress engine is running, `cx`'s waker is armed on the operation
    ///   cell and invoked at completion — no polling needed;
    /// * otherwise (Polling mode, or a p2p receive, which only matches
    ///   inside a call) this method *drives* progress and self-wakes via
    ///   [`Waker::wake_by_ref`], so the executor loops back in.
    ///
    /// Errors (already mapped through this communicator's error handler) are
    /// returned as `Ready(Err(_))`. Completing a request on a communicator
    /// other than its origin fails like `test` does.
    pub fn poll_request(
        &mut self,
        request: &mut Request,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Status>> {
        // Arm the waker *before* testing: a completion that lands between
        // the test and returning `Pending` still fires the wakeup.
        let engine_wakes = self.engine_running() && request.state() == RequestState::RecvPending;
        if engine_wakes {
            if let Some(cell) = &request.coll {
                cell.set_waker(cx.waker());
            }
        }
        match self.test(request) {
            Ok(Some(status)) => Poll::Ready(Ok(status)),
            Err(e) => Poll::Ready(Err(e)),
            Ok(None) => {
                if !(engine_wakes && request.coll.is_some()) {
                    // Nobody else will complete this request: keep the
                    // executor polling (weak progress through the future).
                    cx.waker().wake_by_ref();
                }
                Poll::Pending
            }
        }
    }
}

/// A `Future` resolving when every request in a slice has completed — the
/// async analogue of [`Comm::wait_all`], built on [`Comm::poll_request`].
///
/// Resolves to the statuses in request order. The first error aborts the
/// future (remaining requests stay owned by the caller and can still be
/// completed or released individually). Completed persistent requests are
/// left restartable.
pub struct CompletionFuture<'a> {
    comm: &'a mut Comm,
    requests: &'a mut [Request],
    statuses: Vec<Option<Status>>,
}

impl<'a> CompletionFuture<'a> {
    /// Wrap `requests` (created on `comm`) for completion.
    pub fn new(comm: &'a mut Comm, requests: &'a mut [Request]) -> Self {
        let n = requests.len();
        CompletionFuture {
            comm,
            requests,
            statuses: vec![None; n],
        }
    }
}

impl Future for CompletionFuture<'_> {
    type Output = Result<Vec<Status>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut pending = false;
        for (i, request) in this.requests.iter_mut().enumerate() {
            if this.statuses[i].is_some() {
                continue;
            }
            match this.comm.poll_request(request, cx) {
                Poll::Ready(Ok(status)) => this.statuses[i] = Some(status),
                Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                Poll::Pending => pending = true,
            }
        }
        if pending {
            Poll::Pending
        } else {
            Poll::Ready(Ok(this
                .statuses
                .iter()
                .map(|s| s.expect("all requests completed"))
                .collect()))
        }
    }
}

/// The parking waker behind [`block_on`]: wakes by flagging and unparking
/// the executor thread.
struct ThreadWaker {
    thread: Thread,
    woken: AtomicBool,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// Run a future to completion on the current thread — the minimal executor
/// for [`CompletionFuture`]s (and any other future).
///
/// Pending polls park the thread (bounded 50 µs naps) until the waker fires;
/// self-waking futures — Polling-mode requests — are re-polled after a
/// scheduler yield, so co-located ranks get CPU time. The future carries its
/// own failure checks: a request's poll fails on a dead peer.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let waker_state = Arc::new(ThreadWaker {
        thread: std::thread::current(),
        woken: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&waker_state));
    let mut cx = Context::from_waker(&waker);
    let mut fut = Box::pin(fut);
    let out = block_until(WaitSite::BlockOn, unowned(), || {
        Ok(match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => Polled::Ready(out),
            // Self-woken (or completed concurrently): re-poll soon.
            Poll::Pending if waker_state.woken.swap(false, Ordering::AcqRel) => Polled::Idle,
            Poll::Pending => Polled::Handed,
        })
    });
    out.expect("a wait on no rank's failure state cannot fail")
}

/// Join a set of boxed futures, resolving to their outputs in order — the
/// hand-rolled `join_all` that lets one thread overlap completion futures of
/// *different* communicators (same-communicator futures cannot coexist; the
/// mutable borrow forbids it).
pub fn join_all<'a, T>(futures: Vec<Pin<Box<dyn Future<Output = T> + 'a>>>) -> JoinAll<'a, T> {
    let n = futures.len();
    JoinAll {
        futures: futures.into_iter().map(Some).collect(),
        results: (0..n).map(|_| None).collect(),
    }
}

/// Future returned by [`join_all`].
pub struct JoinAll<'a, T> {
    futures: Vec<Option<Pin<Box<dyn Future<Output = T> + 'a>>>>,
    results: Vec<Option<T>>,
}

// Sound: `JoinAll` never exposes a pinned reference to `T` or to itself —
// the inner futures stay behind their own `Pin<Box<_>>`.
impl<T> Unpin for JoinAll<'_, T> {}

impl<T> Future for JoinAll<'_, T> {
    type Output = Vec<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut pending = false;
        for (i, slot) in this.futures.iter_mut().enumerate() {
            if let Some(fut) = slot {
                match fut.as_mut().poll(cx) {
                    Poll::Ready(out) => {
                        this.results[i] = Some(out);
                        *slot = None;
                    }
                    Poll::Pending => pending = true,
                }
            }
        }
        if pending {
            Poll::Pending
        } else {
            Poll::Ready(
                this.results
                    .iter_mut()
                    .map(|r| r.take().expect("all futures resolved"))
                    .collect(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_runs_ready_future() {
        assert_eq!(block_on(std::future::ready(42)), 42);
    }

    #[test]
    fn block_on_survives_self_waking_future() {
        // A future that self-wakes and needs several polls exercises the
        // woken-flag fast path (no parking).
        struct CountDown(u32);
        impl Future for CountDown {
            type Output = u32;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                if self.0 == 0 {
                    Poll::Ready(7)
                } else {
                    self.0 -= 1;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        assert_eq!(block_on(CountDown(5)), 7);
    }

    #[test]
    fn block_on_waits_for_cross_thread_wake() {
        // A future completed by another thread exercises the park path: the
        // first poll is Pending with no self-wake, then the remote thread
        // flips the flag and wakes.
        use std::sync::Mutex;
        struct Gate {
            ready: AtomicBool,
            waker: Mutex<Option<Waker>>,
        }
        struct GateFuture(Arc<Gate>);
        impl Future for GateFuture {
            type Output = &'static str;
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<&'static str> {
                *self.0.waker.lock().unwrap() = Some(cx.waker().clone());
                if self.0.ready.load(Ordering::Acquire) {
                    Poll::Ready("woken")
                } else {
                    Poll::Pending
                }
            }
        }
        let gate = Arc::new(Gate {
            ready: AtomicBool::new(false),
            waker: Mutex::new(None),
        });
        let remote = Arc::clone(&gate);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            remote.ready.store(true, Ordering::Release);
            if let Some(w) = remote.waker.lock().unwrap().take() {
                w.wake();
            }
        });
        assert_eq!(block_on(GateFuture(gate)), "woken");
        t.join().unwrap();
    }

    #[test]
    fn join_all_resolves_in_order() {
        let futs: Vec<Pin<Box<dyn Future<Output = u32>>>> = vec![
            Box::pin(std::future::ready(1)),
            Box::pin(async { 2 }),
            Box::pin(std::future::ready(3)),
        ];
        assert_eq!(block_on(join_all(futs)), vec![1, 2, 3]);
    }
}
