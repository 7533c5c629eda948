//! Two-sided communication and request completion on a communicator: the
//! blocking and nonblocking sends and receives, and the `wait`/`test` family
//! that completes receive and collective requests alike.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::Comm;
use crate::engine::OpCell;
use crate::error::MpiError;
use crate::pod::{bytes_of, vec_from_bytes, Pod};
use crate::request::{Contention, Request, RequestState};
use crate::spin::{block_until, Polled, WaitSite};
use crate::transport::RecvDest;
use crate::types::{Rank, Status, Tag};
use crate::Result;

impl Comm {
    /// Reject user tags inside the collective-reserved range: they are
    /// invisible to wildcard receives and could collide with an outstanding
    /// collective's salted internal tags.
    fn check_user_tag(tag: Tag) -> Result<()> {
        if tag >= crate::types::COLL_TAG_BASE {
            return Err(MpiError::ReservedTag(tag));
        }
        Ok(())
    }

    /// As [`Comm::check_user_tag`], for receive selectors (wildcards pass).
    fn check_user_tag_sel(tag: Option<Tag>) -> Result<()> {
        tag.map_or(Ok(()), Self::check_user_tag)
    }

    /// Attribute a completion failure to the request at `index` in a
    /// `wait_any`/`wait_all`/`test_all` slice: names the request in the error
    /// detail and spends the failed request (so sibling requests stay
    /// individually completable under [`ErrHandler::ErrorsReturn`](super::ErrHandler::ErrorsReturn)), then
    /// applies the communicator's error handler.
    fn fail_request(&self, request: &mut Request, index: usize, e: MpiError) -> MpiError {
        let e = match e {
            MpiError::ProcFailed { ctx, dead, detail } => {
                request.mark_failed();
                MpiError::ProcFailed {
                    ctx,
                    dead,
                    detail: format!("request #{index}: {detail}"),
                }
            }
            MpiError::Revoked(ctx) => {
                request.mark_failed();
                MpiError::Revoked(ctx)
            }
            other => other,
        };
        self.map_ft_err(e)
    }

    /// A send to a recorded-dead rank fails immediately (ULFM
    /// `MPI_ERR_PROC_FAILED` on point-to-point) instead of filling a ring
    /// nobody will ever drain. `dst` is a world rank.
    fn check_peer_alive(&self, dst: Rank, what: &str) -> Result<()> {
        let poison = &self.shared.poison;
        if poison.ft_active() && poison.is_dead(dst) {
            return Err(self.map_ft_err(MpiError::ProcFailed {
                ctx: self.ctx,
                dead: vec![dst],
                detail: format!("{what} targets world rank {dst}, which is recorded dead"),
            }));
        }
        Ok(())
    }

    /// Blocking send of `data` to local rank `dst` with `tag` (user tags must
    /// stay below [`crate::types::COLL_TAG_BASE`]): one send attempt per lap
    /// of [`Comm::drive_until`], and while flow control holds the message, a
    /// drain of this rank's own arrivals (two ranks that each send the other
    /// more than a queue holds both move).
    pub fn send(&mut self, dst: Rank, tag: Tag, data: &[u8]) -> Result<()> {
        Self::check_user_tag(tag)?;
        let dst = self.world_of(dst)?;
        self.check_peer_alive(dst, "send")?;
        let mut cursor = 0;
        self.drive_until(WaitSite::Send, None, || {
            let io = &mut *self.shared.io();
            let (t, clock) = (&mut io.transport, &mut io.clock);
            if t.try_send(clock, dst, self.ctx, tag, data, &mut cursor)? {
                return Ok(Polled::Ready(()));
            }
            Ok(match t.poll_incoming(clock)? {
                0 => Polled::Idle,
                _ => Polled::Moved,
            })
        })
        .map_err(|e| self.map_ft_err(e))
    }

    /// One receive attempt — one io-lock hold — for the next message matching
    /// `(src, tag)` (`src` a world rank): its status, in this communicator's
    /// ranks, once it has gone to `dest`.
    fn try_recv_once(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
        dest: RecvDest<'_>,
    ) -> Result<Option<Status>> {
        let found = {
            let io = &mut *self.shared.io();
            io.transport
                .try_recv(&mut io.clock, self.ctx, src, tag, dest)?
        };
        found.map(|status| self.localize(status)).transpose()
    }

    /// The one blocking loop of every blocking `Comm` call — `send`, `recv`,
    /// `wait`, `wait_all`, `wait_any`, the collectives, the world barrier and
    /// the window calls. Each lap runs the caller's `attempt` once (one io-lock
    /// hold at most, so the rank's other threads and its engine thread get
    /// the lock between laps) and, unless that finished, drives every other
    /// operation the rank has started
    /// ([`crate::engine::ProgressEngine::drive_started`], MPI's progress
    /// rule). When another thread of this rank, or the engine thread, owns
    /// that progress, a lap waiting on `cell` registers on the cell's
    /// [`WaitCell`](crate::spin::WaitCell), re-checks and parks until the
    /// completer unparks it; any other lap backs off. Fails as `site` says
    /// ([`block_until`]); the caller maps the error.
    pub(super) fn drive_until<T>(
        &self,
        site: WaitSite,
        cell: Option<&OpCell>,
        mut attempt: impl FnMut() -> Result<Polled<T>>,
    ) -> Result<T> {
        let out = block_until(site, &self.shared.poison, || {
            let own = attempt()?;
            if matches!(own, Polled::Ready(_)) {
                return Ok(own);
            }
            let others = self.shared.engine.drive_started(&self.shared, cell);
            Ok(match (own, others, cell) {
                (Polled::Moved, ..) | (_, Some(1..), _) => Polled::Moved,
                (_, None, Some(cell)) => {
                    // Each wake drains the registration: register every lap.
                    cell.waiter().register();
                    match cell.is_done() {
                        true => Polled::Moved,
                        false => Polled::Handed,
                    }
                }
                _ => Polled::Idle,
            })
        });
        if let Some(cell) = cell {
            cell.waiter().deregister();
            // This waiter leaving may leave the rank with no poller: wake a
            // still-pending sibling's waiter to take the token over.
            self.shared.engine.handoff(cell);
        }
        out
    }

    /// A blocked receive: one receive attempt per lap of
    /// [`Comm::drive_until`].
    fn recv_blocking(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
        mut dest: RecvDest<'_>,
    ) -> Result<Status> {
        self.drive_until(WaitSite::Recv, None, || {
            Ok(self.try_recv_once(src, tag, dest.reborrow())?.into())
        })
    }

    /// Blocking receive into `buf`; returns the completion status. A matched
    /// message longer than `buf` is consumed and fails with truncation.
    pub fn recv(&mut self, src: Option<Rank>, tag: Option<Tag>, buf: &mut [u8]) -> Result<Status> {
        Self::check_user_tag_sel(tag)?;
        let src = src.map(|s| self.world_of(s)).transpose()?;
        self.recv_blocking(src, tag, RecvDest::Slice(buf))
            .map_err(|e| self.map_ft_err(e))
    }

    /// Blocking receive returning an owned payload.
    pub fn recv_owned(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Result<(Status, Vec<u8>)> {
        Self::check_user_tag_sel(tag)?;
        let src = src.map(|s| self.world_of(s)).transpose()?;
        let mut data = Vec::new();
        let status = self
            .recv_blocking(src, tag, RecvDest::Vec(&mut data))
            .map_err(|e| self.map_ft_err(e))?;
        Ok((status, data))
    }

    /// Non-blocking receive attempt returning an owned payload.
    pub fn try_recv(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<Option<(Status, Vec<u8>)>> {
        Self::check_user_tag_sel(tag)?;
        let src = src.map(|s| self.world_of(s)).transpose()?;
        let mut data = Vec::new();
        let found = self.poll_recv(src, tag, RecvDest::Vec(&mut data))?;
        Ok(found.map(|status| (status, data)))
    }

    /// Non-blocking probe (`MPI_Iprobe`): the status of the message a receive
    /// with these selectors would deliver next, without receiving it;
    /// `Ok(None)` when no such message has arrived.
    pub fn iprobe(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Result<Option<Status>> {
        Self::check_user_tag_sel(tag)?;
        let src = src.map(|s| self.world_of(s)).transpose()?;
        self.poll_recv(src, tag, RecvDest::Probe)
    }

    /// [`Comm::try_recv_once`] for the public one-attempt calls, `try_recv`
    /// and `iprobe`: one that finds nothing drives the rank's started
    /// operations, like a `test`.
    fn poll_recv(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
        dest: RecvDest<'_>,
    ) -> Result<Option<Status>> {
        let found = self.try_recv_once(src, tag, dest)?;
        if found.is_none() {
            self.shared.engine.drive_started(&self.shared, None);
        }
        Ok(found)
    }

    /// Non-blocking send (eager: completes immediately once enqueued).
    pub fn isend(&mut self, dst: Rank, tag: Tag, data: &[u8]) -> Result<Request> {
        self.send(dst, tag, data)?;
        Ok(Request::send_done(
            self.ctx,
            Status::new(self.rank, tag, data.len()),
        ))
    }

    /// Non-blocking receive: returns a pending request to pass to
    /// [`Comm::wait`], [`Comm::test`] or the `*_any`/`*_all` combinators.
    pub fn irecv(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Result<Request> {
        Self::check_user_tag_sel(tag)?;
        let src = src.map(|s| self.world_of(s)).transpose()?;
        Ok(Request::recv_pending(self.ctx, src, tag).posted(self.next_post_seq()))
    }

    fn next_post_seq(&self) -> u64 {
        // Relaxed: the counter orders posts of one rank, which are already
        // ordered by the `&mut self` of the posting calls (or, across
        // communicators on several threads, have no defined order).
        1 + self.shared.post_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Non-blocking receive into a caller-owned buffer: completion writes the
    /// payload into `buf`, allocation-free (the buffer also bounds the
    /// acceptable message size — a longer matched message fails the
    /// completion with truncation).
    /// [`Request::take_data`] returns the same allocation, truncated to the
    /// received length, so receive loops can recycle one buffer indefinitely.
    pub fn irecv_into(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
        buf: Vec<u8>,
    ) -> Result<Request> {
        Self::check_user_tag_sel(tag)?;
        let src = src.map(|s| self.world_of(s)).transpose()?;
        Ok(Request::recv_pending_into(self.ctx, src, tag, buf).posted(self.next_post_seq()))
    }

    pub(super) fn check_request_ctx(&self, request: &Request) -> Result<()> {
        if request.ctx != self.ctx {
            return Err(MpiError::InvalidCommunicator(format!(
                "request created on context {} completed on context {}",
                request.ctx, self.ctx
            )));
        }
        Ok(())
    }

    /// One completion attempt on a pending collective request: a step of
    /// its cell ([`OpCell::step`]; in Thread mode the engine thread steps it
    /// and this attempt only looks), then, once the cell is terminal, the
    /// request's fulfilment. Ready with its status, moved when the step
    /// serviced ops, idle otherwise. `during_wait` puts the poll and its ops
    /// into the wait columns of [`ProgressStats`](crate::ProgressStats), else
    /// the test ones (`test`-family polls are the overlap metric — progress
    /// made during user compute).
    fn progress_coll(&self, request: &mut Request, during_wait: bool) -> Result<Polled<Status>> {
        self.check_request_ctx(request)?;
        let cell = Arc::clone(request.coll.as_ref().expect("collective request has cell"));
        debug_assert_eq!(cell.ctx(), request.ctx, "cell/request context mismatch");
        let counters = &self.shared.counters.progress;
        let (polls, ops) = match during_wait {
            true => (&counters.wait_polls, &counters.ops_in_wait),
            false => (&counters.test_polls, &counters.ops_in_test),
        };
        polls.add(1);
        let stepped = match self.shared.engine.is_running() {
            true => 0,
            false => cell.step(&self.shared, ops),
        };
        if !cell.is_done() {
            return Ok(match stepped {
                0 => Polled::Idle,
                _ => Polled::Moved,
            });
        }
        // Terminal: finalize into the request. The outcome was published raw
        // by whoever drove the last step; an error is mapped through this
        // communicator's error handler here, the same in both modes.
        let mut slot = cell.lock();
        let status = match slot.outcome.clone().expect("terminal cell has outcome") {
            Ok(status) => status,
            Err(e) => {
                drop(slot);
                return Err(self.map_ft_err(e));
            }
        };
        if request.is_persistent() {
            // Persistent completion keeps the execution state and buffers:
            // the request stays restartable, and the result is read in place
            // via `Request::read_result`.
            drop(slot);
            request.fulfill(status);
            return Ok(Polled::Ready(status));
        }
        let state = slot.state.take().expect("one-shot result not yet consumed");
        drop(slot);
        let (status, data) = state.finish();
        request.data = data;
        request.fulfill(status);
        // Drop the cell: the request is spent (algorithm label cleared,
        // engine queue prunes the inactive cell).
        request.coll = None;
        Ok(Polled::Ready(status))
    }

    /// A pending receive posted from a specific source that is recorded dead
    /// — and has no matching message left to drain — can never complete:
    /// surface `ProcFailed` naming the source instead of spinning until the
    /// slice-level backoff notices the failure epoch. Called only after a
    /// failed match attempt so messages the peer sent *before* dying are
    /// still delivered first (ULFM: failure does not discard delivered data).
    fn dead_source_err(&self, src: Option<Rank>) -> Option<MpiError> {
        let src = src?;
        let poison = &self.shared.poison;
        if poison.ft_active() && poison.is_dead(src) {
            Some(MpiError::ProcFailed {
                ctx: self.ctx,
                dead: vec![src],
                detail: format!(
                    "receive posted from world rank {src}, which is recorded dead with no \
                     matching message pending"
                ),
            })
        } else {
            None
        }
    }

    /// One non-blocking completion attempt for a pending request (receive or
    /// collective). `during_wait` only affects how collective progress is
    /// accounted.
    fn try_complete(&self, request: &mut Request, during_wait: bool) -> Result<Option<Status>> {
        if request.is_coll() {
            return Ok(match self.progress_coll(request, during_wait)? {
                Polled::Ready(status) => Some(status),
                _ => None,
            });
        }
        let (src, tag) = (request.src, request.tag);
        self.try_complete_recv(request, src, tag)
    }

    /// One completion attempt for a pending receive, matching `(src, tag)` —
    /// the request's own selectors, or the one message of them a sweep has
    /// already picked ([`Comm::try_complete_after_earlier`]).
    fn try_complete_recv(
        &self,
        request: &mut Request,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<Option<Status>> {
        self.check_request_ctx(request)?;
        match self.try_recv_once(src, tag, request.dest()) {
            Ok(Some(status)) => {
                request.fulfill(status);
                Ok(Some(status))
            }
            Ok(None) => match self.dead_source_err(src) {
                Some(e) => {
                    request.mark_failed();
                    Err(e)
                }
                None => Ok(None),
            },
            Err(e) => {
                // A matched message may have been consumed (truncation): the
                // request is spent, and retrying must report StaleRequest.
                request.mark_failed();
                Err(e)
            }
        }
    }

    /// One completion attempt for `requests[i]` inside a `wait_*`/`test_*`
    /// sweep, with the failure attributed to the request
    /// ([`Comm::fail_request`]).
    ///
    /// `ordered` (the slice holds receives with overlapping selectors) turns
    /// on MPI's non-overtaking rule, by the request's [`Contention`]: a
    /// receive whose every match belongs to an earlier-posted pending one
    /// sits the round out; one that merely overlaps with an earlier receive
    /// looks at its next message first and leaves it alone when the earlier
    /// receive matches that message too — the earlier one takes it on its own
    /// turn. There the decision is per message, not per selector: a message
    /// only the later receive matches completes it, however long the earlier
    /// receive stays pending.
    fn try_complete_in(
        &self,
        requests: &mut [Request],
        i: usize,
        during_wait: bool,
        ordered: bool,
    ) -> Result<Option<Status>> {
        let contention = if ordered {
            Request::contention(requests, i)
        } else {
            Contention::Free
        };
        let attempt = match contention {
            Contention::Free => self.try_complete(&mut requests[i], during_wait),
            Contention::Covered => Ok(None),
            Contention::Overlapping => self.try_complete_after_earlier(requests, i),
        };
        attempt.map_err(|e| self.fail_request(&mut requests[i], i, e))
    }

    fn try_complete_after_earlier(
        &self,
        requests: &mut [Request],
        i: usize,
    ) -> Result<Option<Status>> {
        let (src, tag) = (requests[i].src, requests[i].tag);
        self.check_request_ctx(&requests[i])?;
        let next = {
            let io = &mut *self.shared.io();
            io.transport
                .try_recv(&mut io.clock, self.ctx, src, tag, RecvDest::Probe)?
        };
        match next {
            // Nothing to take — and nothing may be taken: a message arriving
            // right now has not been held against the earlier receives.
            None => match self.dead_source_err(src) {
                Some(e) => {
                    requests[i].mark_failed();
                    Err(e)
                }
                None => Ok(None),
            },
            Some(msg) if Request::earlier_claims(requests, i, &msg) => Ok(None),
            // Receive exactly the message that was checked (a wildcard could
            // otherwise pick up one that arrived in between): it is the first
            // match of its own `(source, tag)` too.
            Some(msg) => self.try_complete_recv(&mut requests[i], Some(msg.source), Some(msg.tag)),
        }
    }

    /// Block until the request completes; returns its status. For receive
    /// requests the payload is then available via [`Request::take_data`].
    /// Each lap of the wait (`Comm::drive_until`) is one completion attempt;
    /// a collective request's lap parks on its cell while another thread of
    /// this rank, or the engine thread, drives it.
    pub fn wait(&mut self, request: &mut Request) -> Result<Status> {
        match request.state() {
            RequestState::SendComplete | RequestState::RecvComplete => {
                request.status().ok_or(MpiError::StaleRequest)
            }
            RequestState::Consumed | RequestState::Inactive => Err(MpiError::StaleRequest),
            RequestState::RecvPending => {
                self.check_request_ctx(request)?;
                if let Some(cell) = request.coll.clone() {
                    // Idempotent: covers a request started before the engine
                    // thread, or pruned from the registry.
                    self.shared.engine.enqueue(Arc::clone(&cell));
                    let waited = self.drive_until(WaitSite::CollWait, Some(&cell), || {
                        self.progress_coll(request, true)
                    });
                    return waited.map_err(|e| self.map_ft_err(e));
                }
                let (src, tag) = (request.src, request.tag);
                match self.recv_blocking(src, tag, request.dest()) {
                    Ok(status) => {
                        request.fulfill(status);
                        Ok(status)
                    }
                    Err(e) => {
                        // A matched message may have been consumed
                        // (truncation): spend the request so a retry reports
                        // StaleRequest.
                        request.mark_failed();
                        Err(self.map_ft_err(e))
                    }
                }
            }
        }
    }

    /// Test a request for completion without blocking. A test that finds it
    /// pending drives the rank's other started operations, as every attempt
    /// that did not finish does (MPI's progress rule).
    pub fn test(&mut self, request: &mut Request) -> Result<Option<Status>> {
        match request.state() {
            RequestState::SendComplete | RequestState::RecvComplete => {
                Ok(Some(request.status().ok_or(MpiError::StaleRequest)?))
            }
            RequestState::Consumed | RequestState::Inactive => Err(MpiError::StaleRequest),
            RequestState::RecvPending => {
                let found = self.try_complete(request, false)?;
                if found.is_none() {
                    self.shared
                        .engine
                        .drive_started(&self.shared, request.coll.as_deref());
                }
                Ok(found)
            }
        }
    }

    /// Wait for every request in the slice; statuses are returned in request
    /// order. Pending requests are driven *together* (`MPI_Waitall`
    /// semantics): completion cannot depend on the slice order, so ranks may
    /// pass the same outstanding collectives in different orders without
    /// deadlocking. Errors with [`MpiError::StaleRequest`] if any request was
    /// already consumed.
    pub fn wait_all(&mut self, requests: &mut [Request]) -> Result<Vec<Status>> {
        let ordered = Request::any_contention(requests);
        let swept = self.drive_until(WaitSite::WaitAll, None, || {
            Ok(self.sweep_all(requests, true, ordered))
        });
        swept.unwrap_or_else(|e| {
            // The universe failure state fired mid-wait. Sweep once more so a
            // request that can now be pinned on a specific dead source is
            // reported with its index (and its siblings stay completable),
            // falling back to the epoch-level error only when no single
            // request is attributable.
            self.attribute_failure(requests)?;
            Err(self.map_ft_err(e))
        })?;
        Self::statuses(requests)
    }

    /// The statuses of completed `requests`, in order, in one allocation
    /// (collecting through a `Result` adapter would start from a zero size
    /// hint and grow the vector twice on a 16-request burst).
    fn statuses(requests: &[Request]) -> Result<Vec<Status>> {
        let mut statuses = Vec::with_capacity(requests.len());
        for r in requests {
            statuses.push(r.status().ok_or(MpiError::StaleRequest)?);
        }
        Ok(statuses)
    }

    /// One completion attempt on every pending request, for
    /// [`Comm::wait_all`] and [`Comm::test_all`]: ready once all are
    /// complete (or one failed), moved if this sweep completed any, idle
    /// otherwise.
    fn sweep_all(
        &self,
        requests: &mut [Request],
        during_wait: bool,
        ordered: bool,
    ) -> Polled<Result<()>> {
        let (mut all_done, mut progressed) = (true, false);
        for i in 0..requests.len() {
            match requests[i].state() {
                RequestState::SendComplete | RequestState::RecvComplete => {}
                RequestState::Consumed | RequestState::Inactive => {
                    return Polled::Ready(Err(MpiError::StaleRequest))
                }
                RequestState::RecvPending => {
                    match self.try_complete_in(requests, i, during_wait, ordered) {
                        Ok(Some(_)) => progressed = true,
                        Ok(None) => all_done = false,
                        Err(e) => return Polled::Ready(Err(e)),
                    }
                }
            }
        }
        match (all_done, progressed) {
            (true, _) => Polled::Ready(Ok(())),
            (false, true) => Polled::Moved,
            (false, false) => Polled::Idle,
        }
    }

    /// Post-failure attribution sweep shared by [`Comm::wait_all`] and
    /// [`Comm::wait_any`]: re-polls every still-pending request once so the
    /// failure is reported against the specific request that can never
    /// complete (via [`Comm::fail_request`], which also spends just that
    /// request). Requests that completed in the meantime are left complete.
    fn attribute_failure(&self, requests: &mut [Request]) -> Result<()> {
        for i in 0..requests.len() {
            if matches!(requests[i].state(), RequestState::RecvPending) {
                self.try_complete_in(requests, i, true, true)?;
            }
        }
        Ok(())
    }

    /// Block until *some* request completes; returns its index and status.
    /// Already-complete (but unconsumed) requests are returned immediately.
    /// Errors with [`MpiError::StaleRequest`] if the slice is empty or every
    /// request has been consumed.
    pub fn wait_any(&mut self, requests: &mut [Request]) -> Result<(usize, Status)> {
        let ordered = Request::any_contention(requests);
        let polled = self.drive_until(WaitSite::WaitAny, None, || {
            Ok(self.poll_any(requests, true, ordered))
        });
        polled.unwrap_or_else(|e| {
            self.attribute_failure(requests)?;
            Err(self.map_ft_err(e))
        })
    }

    /// Non-blocking [`Comm::wait_any`]: `Ok(None)` when no request is
    /// currently completable (but at least one is still pending). Errors with
    /// [`MpiError::StaleRequest`] if the slice is empty or fully consumed.
    pub fn test_any(&mut self, requests: &mut [Request]) -> Result<Option<(usize, Status)>> {
        let ordered = Request::any_contention(requests);
        match self.poll_any(requests, false, ordered) {
            Polled::Ready(found) => found.map(Some),
            _ => {
                self.shared.engine.drive_started(&self.shared, None);
                Ok(None)
            }
        }
    }

    /// One completion attempt on the pending requests, for
    /// [`Comm::wait_any`] and [`Comm::test_any`], up to the first complete
    /// one: ready with it (or with the failure, or with
    /// [`MpiError::StaleRequest`] when none is active), idle otherwise.
    fn poll_any(
        &self,
        requests: &mut [Request],
        during_wait: bool,
        ordered: bool,
    ) -> Polled<Result<(usize, Status)>> {
        let mut any_pending = false;
        for i in 0..requests.len() {
            match requests[i].state() {
                RequestState::SendComplete | RequestState::RecvComplete => {
                    let status = requests[i].status().ok_or(MpiError::StaleRequest);
                    return Polled::Ready(status.map(|status| (i, status)));
                }
                RequestState::Consumed | RequestState::Inactive => {}
                RequestState::RecvPending => {
                    any_pending = true;
                    match self.try_complete_in(requests, i, during_wait, ordered) {
                        Ok(None) => {}
                        Ok(Some(status)) => return Polled::Ready(Ok((i, status))),
                        Err(e) => return Polled::Ready(Err(e)),
                    }
                }
            }
        }
        match any_pending {
            true => Polled::Idle,
            false => Polled::Ready(Err(MpiError::StaleRequest)),
        }
    }

    /// Test whether *every* request has completed; if so, returns their
    /// statuses in request order (without consuming payloads). Returns
    /// `Ok(None)` if any request is still pending. Errors with
    /// [`MpiError::StaleRequest`] if any request was already consumed.
    pub fn test_all(&mut self, requests: &mut [Request]) -> Result<Option<Vec<Status>>> {
        let ordered = Request::any_contention(requests);
        match self.sweep_all(requests, false, ordered) {
            Polled::Ready(done) => done.and_then(|()| Self::statuses(requests)).map(Some),
            _ => {
                self.shared.engine.drive_started(&self.shared, None);
                Ok(None)
            }
        }
    }

    /// Combined send + receive (deadlock-safe pairwise exchange), full duplex:
    /// both partners send first, so the exchange costs one one-way latency,
    /// not two. What makes that safe is the blocked send's loop in
    /// [`Comm::send`]: while the destination ring (or stream) is full it
    /// keeps this rank's own arrivals drained — exactly what a plan's `Send`
    /// op does — so two ranks whose messages exceed the queue capacity
    /// unblock each other instead of wedging.
    pub fn sendrecv(
        &mut self,
        dst: Rank,
        send_tag: Tag,
        data: &[u8],
        src: Rank,
        recv_tag: Tag,
    ) -> Result<(Status, Vec<u8>)> {
        self.send(dst, send_tag, data)?;
        self.recv_owned(Some(src), Some(recv_tag))
    }

    /// Blocking typed send: `values`' bytes travel as-is through the
    /// zero-copy [`Pod`] view (no per-element encoding).
    pub fn send_values<T: Pod>(&mut self, dst: Rank, tag: Tag, values: &[T]) -> Result<()> {
        self.send(dst, tag, bytes_of(values))
    }

    /// Blocking typed receive returning an owned value vector (the typed
    /// companion of [`Comm::recv_owned`]). `status.len` stays in bytes.
    /// Panics if the received byte length is not a multiple of the element
    /// size — match the sender's element type.
    pub fn recv_values<T: Pod>(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<(Status, Vec<T>)> {
        let (status, data) = self.recv_owned(src, tag)?;
        Ok((status, vec_from_bytes(&data)))
    }

    /// Combined typed send + receive (deadlock-safe pairwise exchange; the
    /// typed companion of [`Comm::sendrecv`]). Panics if the received byte
    /// length is not a multiple of the element size.
    pub fn sendrecv_values<T: Pod>(
        &mut self,
        dst: Rank,
        send_tag: Tag,
        values: &[T],
        src: Rank,
        recv_tag: Tag,
    ) -> Result<(Status, Vec<T>)> {
        let (status, data) = self.sendrecv(dst, send_tag, bytes_of(values), src, recv_tag)?;
        Ok((status, vec_from_bytes(&data)))
    }

    /// Drive transport-level progress without completing any request: moves
    /// fully-arrived messages off the wire into local staging so peers
    /// blocked on transport flow control (full CXL rings) can proceed while
    /// this rank computes. Returns how many messages were moved. Call it
    /// periodically from long compute phases with outstanding nonblocking
    /// operations; `test`-family calls on the requests themselves remain the
    /// way to *complete* them.
    pub fn progress(&mut self) -> Result<usize> {
        let counters = &self.shared.counters.progress;
        counters.transport_drains.add(1);
        let moved = {
            let io = &mut *self.shared.io();
            io.transport.poll_incoming(&mut io.clock)?
        };
        counters.drained_messages.add(moved as u64);
        Ok(moved)
    }
}
