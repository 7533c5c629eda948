//! Two-sided communication and request completion on a communicator: the
//! blocking and nonblocking sends and receives, and the `wait`/`test` family
//! that completes receive and collective requests alike.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::Comm;
use crate::error::MpiError;
use crate::pod::{bytes_of, vec_from_bytes, Pod};
use crate::progress::ProgressCounters;
use crate::request::{Contention, Request, RequestState};
use crate::spin::SpinWait;
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
    /// individually completable under [`ErrHandler::ErrorsReturn`]), then
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
    /// stay below [`crate::types::COLL_TAG_BASE`]). Runs the transports' one
    /// blocked-send loop under one io-lock hold: from its first segment to
    /// its last a message has the pair's queue to itself, and while flow
    /// control holds it the loop keeps this rank's own arrivals drained.
    pub fn send(&mut self, dst: Rank, tag: Tag, data: &[u8]) -> Result<()> {
        Self::check_user_tag(tag)?;
        let dst = self.world_of(dst)?;
        self.check_peer_alive(dst, "send")?;
        let sent = {
            let io = &mut *self.shared.io();
            io.transport
                .send(&mut io.clock, dst, self.ctx, tag, data, &mut 0)
        };
        sent.map_err(|e| self.map_ft_err(e))
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

    /// The one blocked-receive loop: an attempt per io-lock hold, so other
    /// threads of this rank keep progressing between attempts; a receive
    /// stalled on its sender drives the rank's outstanding collectives
    /// meanwhile, and backs off, poison-aware, when that moved nothing.
    fn recv_blocking(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
        mut dest: RecvDest<'_>,
    ) -> Result<Status> {
        let mut backoff = SpinWait::new();
        loop {
            if let Some(status) = self.try_recv_once(src, tag, dest.reborrow())? {
                return Ok(status);
            }
            let driven = self.shared.engine.poll_siblings(&self.shared, None);
            if driven.is_some_and(|ops| ops > 0) {
                backoff.reset();
            }
            backoff.wait(&self.shared.poison)?;
        }
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
        let found = self.try_recv_once(src, tag, RecvDest::Vec(&mut data))?;
        Ok(found.map(|status| (status, data)))
    }

    /// Non-blocking probe (`MPI_Iprobe`): the status of the message a receive
    /// with these selectors would deliver next, without receiving it;
    /// `Ok(None)` when no such message has arrived.
    pub fn iprobe(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Result<Option<Status>> {
        Self::check_user_tag_sel(tag)?;
        let src = src.map(|s| self.world_of(s)).transpose()?;
        self.try_recv_once(src, tag, RecvDest::Probe)
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

    /// One incremental progress attempt on a pending nonblocking-collective
    /// request: advances its schedule through the progress engine and, on
    /// completion, fulfills the request with the collective's result bytes.
    /// Returns the completion status (if reached) plus the schedule ops this
    /// attempt serviced, so blocking loops can reset their backoff on partial
    /// progress. `during_wait` routes the poll/op counters into the wait
    /// columns of [`ProgressStats`] (nonblocking `test`-family polls are the
    /// overlap metric — progress made during user compute).
    fn progress_coll(
        &mut self,
        request: &mut Request,
        during_wait: bool,
    ) -> Result<(Option<Status>, usize)> {
        self.check_request_ctx(request)?;
        let cell = Arc::clone(request.coll.as_ref().expect("collective request has cell"));
        debug_assert_eq!(cell.ctx(), request.ctx, "cell/request context mismatch");
        let counters = &self.shared.counters;
        if during_wait {
            ProgressCounters::add(&counters.wait_polls, 1);
        } else {
            ProgressCounters::add(&counters.test_polls, 1);
        }
        let mut slot = cell.lock();
        let mut ops = 0usize;
        if slot.outcome.is_none() {
            if self.shared.engine.is_running() {
                // The background engine owns progress in Thread mode: this
                // poll merely observes (and the fast path above it, the
                // `done` flag, is one atomic load).
                return Ok((None, 0));
            }
            let state = slot.state.as_mut().expect("pending collective has state");
            let step = {
                let io = &mut *self.shared.io();
                state.progress(io.transport.as_mut(), &mut io.clock)
            };
            let step = match step {
                Ok(step) => step,
                Err(e) => {
                    drop(slot);
                    return Err(self.map_ft_err(e));
                }
            };
            ops = step.ops;
            if during_wait {
                ProgressCounters::add(&counters.ops_in_wait, ops as u64);
            } else {
                ProgressCounters::add(&counters.ops_in_test, ops as u64);
            }
            if !step.done {
                return Ok((None, ops));
            }
            ProgressCounters::add(&counters.colls_completed, 1);
            let status = state.completion_status();
            cell.complete(&mut slot, Ok(status));
        }
        // Terminal: finalize into the request. Errors were published raw by
        // whoever drove the final step; map them through this communicator's
        // error handler here (identical observable behavior in both modes).
        match slot.outcome.clone().expect("terminal cell has outcome") {
            Err(e) => {
                drop(slot);
                Err(self.map_ft_err(e))
            }
            Ok(status) => {
                if request.is_persistent() {
                    // Persistent completion keeps the execution state and
                    // buffers: the request stays restartable, and the result
                    // is read in place via `Request::read_result`.
                    drop(slot);
                    request.fulfill(status);
                    Ok((Some(status), ops))
                } else {
                    let state = slot.state.take().expect("one-shot result not yet consumed");
                    drop(slot);
                    let (status, data) = state.finish();
                    request.data = data;
                    request.fulfill(status);
                    // Drop the cell: the request is spent (algorithm label
                    // cleared, engine queue prunes the inactive cell).
                    request.coll = None;
                    Ok((Some(status), ops))
                }
            }
        }
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
    fn try_complete(&mut self, request: &mut Request, during_wait: bool) -> Result<Option<Status>> {
        if request.is_coll() {
            return self.progress_coll(request, during_wait).map(|(s, _)| s);
        }
        let (src, tag) = (request.src, request.tag);
        self.try_complete_recv(request, src, tag)
    }

    /// One completion attempt for a pending receive, matching `(src, tag)` —
    /// the request's own selectors, or the one message of them a sweep has
    /// already picked ([`Comm::try_complete_after_earlier`]).
    fn try_complete_recv(
        &mut self,
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
        &mut self,
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
        &mut self,
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
    pub fn wait(&mut self, request: &mut Request) -> Result<Status> {
        match request.state() {
            RequestState::SendComplete | RequestState::RecvComplete => {
                request.status().ok_or(MpiError::StaleRequest)
            }
            RequestState::Consumed | RequestState::Inactive => Err(MpiError::StaleRequest),
            RequestState::RecvPending => {
                self.check_request_ctx(request)?;
                if request.is_coll() {
                    if self.shared.engine.is_running() {
                        // Thread mode: the engine drives; this thread parks
                        // on the cell's waiter registry and is unparked by a
                        // directed token the instant the engine publishes
                        // completion. The escalation timeout only bounds
                        // lost-wakeup latency.
                        self.wait_engine_managed(request)?;
                        let (status, _) = self.progress_coll(request, true)?;
                        return status.ok_or(MpiError::StaleRequest);
                    }
                    return self.wait_polling(request);
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

    /// Polling-mode terminal wait on a collective request. Drives this
    /// request's own schedule; whenever it stalls on remote peers, also
    /// drives **every other outstanding operation** of the rank
    /// (cross-communicator opportunistic progress — the `opal_progress`
    /// idiom). At most one thread per rank sweeps at a time: the first
    /// stalled waiter takes the poller token and batches everyone's schedule
    /// work into its scheduling quantum, completing sibling cells and waking
    /// their waiters by directed unpark; threads that lose the token park on
    /// their own cell instead of contending for the io lock. A poisoned
    /// universe aborts the wait instead of parking forever, and partial
    /// progress restarts the backoff escalation so a steadily advancing
    /// schedule never degrades to parked sleeps.
    fn wait_polling(&mut self, request: &mut Request) -> Result<Status> {
        let cell = Arc::clone(request.coll.as_ref().expect("collective request has cell"));
        // Idempotent re-registration: covers requests started before a
        // registry prune dropped them (e.g. after an error elsewhere).
        self.shared.engine.enqueue(Arc::clone(&cell));
        let mut backoff = SpinWait::new();
        let out = loop {
            // Fast path: completion already published — by a sibling poller,
            // a prior test, or the p2p-wait sweep. One atomic load.
            if cell.is_done() {
                match self.progress_coll(request, true) {
                    Err(e) => break Err(e),
                    Ok((Some(status), _)) => break Ok(status),
                    Ok((None, _)) => continue,
                }
            }
            if self.shared.engine.try_poller() {
                // This thread is the rank's poller: drive its own schedule
                // and every sibling's, batching all outstanding work into
                // one scheduling quantum on the io lock.
                let own = self.progress_coll(request, true);
                let sibling_ops = self.shared.engine.drive_siblings(&self.shared, Some(&cell));
                self.shared.engine.release_poller();
                match own {
                    Err(e) => break Err(e),
                    Ok((Some(status), _)) => break Ok(status),
                    Ok((None, ops)) => {
                        if ops + sibling_ops > 0 {
                            backoff.reset();
                        }
                        if let Err(e) = backoff.wait(&self.shared.poison) {
                            break Err(self.map_ft_err(e));
                        }
                    }
                }
            } else {
                // Another thread of this rank holds the poller token: it
                // drives this cell too and unparks us the moment completion
                // is published. Register, re-check, park — no spinning, no
                // io-lock contention; the park timeout is only a safety net
                // against a poller that left without a hand-off. (Each wake
                // drains the registration, so re-register every lap.)
                cell.waiter().register();
                if !cell.is_done() {
                    if let Err(e) = SpinWait::park_registered(&self.shared.poison) {
                        break Err(self.map_ft_err(e));
                    }
                }
            }
        };
        cell.waiter().deregister();
        // This waiter leaving may leave the rank with no poller: wake one
        // still-pending sibling so it promptly takes over the token rather
        // than sleeping out its park timeout.
        self.shared.engine.handoff(&cell);
        out
    }

    /// Thread-mode terminal wait on an engine-managed collective request:
    /// register on the cell's waiter list, re-check the completion flag, and
    /// park until the engine's directed unpark (see [`WaitCell`]). The
    /// caller finalizes via [`Comm::progress_coll`] afterwards.
    fn wait_engine_managed(&mut self, request: &mut Request) -> Result<()> {
        let cell = Arc::clone(request.coll.as_ref().expect("collective request has cell"));
        // Idempotent: `start`/`start_coll` already enqueued the cell; this
        // covers requests created before the engine started.
        self.shared.engine.enqueue(Arc::clone(&cell));
        let counters = &self.shared.counters;
        let mut backoff = SpinWait::new();
        cell.waiter().register();
        let waited = loop {
            if cell.is_done() {
                break Ok(());
            }
            ProgressCounters::add(&counters.wait_polls, 1);
            if let Err(e) = backoff.wait_registered(&self.shared.poison) {
                break Err(e);
            }
        };
        cell.waiter().deregister();
        waited.map_err(|e| self.map_ft_err(e))
    }

    /// Test a request for completion without blocking.
    pub fn test(&mut self, request: &mut Request) -> Result<Option<Status>> {
        match request.state() {
            RequestState::SendComplete | RequestState::RecvComplete => {
                Ok(Some(request.status().ok_or(MpiError::StaleRequest)?))
            }
            RequestState::Consumed | RequestState::Inactive => Err(MpiError::StaleRequest),
            RequestState::RecvPending => self.try_complete(request, false),
        }
    }

    /// Wait for every request in the slice; statuses are returned in request
    /// order. Pending requests are driven *together* (`MPI_Waitall`
    /// semantics): completion cannot depend on the slice order, so ranks may
    /// pass the same outstanding collectives in different orders without
    /// deadlocking. Errors with [`MpiError::StaleRequest`] if any request was
    /// already consumed.
    pub fn wait_all(&mut self, requests: &mut [Request]) -> Result<Vec<Status>> {
        let poison = self.shared.poison.clone();
        let mut backoff = SpinWait::new();
        let ordered = Request::any_contention(requests);
        loop {
            let mut all_done = true;
            let mut progressed = false;
            for i in 0..requests.len() {
                match requests[i].state() {
                    RequestState::SendComplete | RequestState::RecvComplete => {}
                    RequestState::Consumed | RequestState::Inactive => {
                        return Err(MpiError::StaleRequest)
                    }
                    RequestState::RecvPending => {
                        match self.try_complete_in(requests, i, true, ordered)? {
                            Some(_) => progressed = true,
                            None => all_done = false,
                        }
                    }
                }
            }
            if all_done {
                break;
            }
            if progressed {
                backoff.reset();
            }
            if let Err(e) = backoff.wait(&poison) {
                // The universe failure state fired mid-wait. Sweep once more
                // so a request that can now be pinned on a specific dead
                // source is reported with its index (and its siblings stay
                // completable), falling back to the epoch-level error only
                // when no single request is attributable.
                self.attribute_failure(requests)?;
                return Err(self.map_ft_err(e));
            }
        }
        requests
            .iter()
            .map(|r| r.status().ok_or(MpiError::StaleRequest))
            .collect()
    }

    /// Post-failure attribution sweep shared by [`Comm::wait_all`] and
    /// [`Comm::wait_any`]: re-polls every still-pending request once so the
    /// failure is reported against the specific request that can never
    /// complete (via [`Comm::fail_request`], which also spends just that
    /// request). Requests that completed in the meantime are left complete.
    fn attribute_failure(&mut self, requests: &mut [Request]) -> Result<()> {
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
        let poison = self.shared.poison.clone();
        let mut backoff = SpinWait::new();
        let ordered = Request::any_contention(requests);
        loop {
            match self.poll_any(requests, true, ordered)? {
                PollAny::Ready(i, status) => return Ok((i, status)),
                PollAny::Pending => {
                    if let Err(e) = backoff.wait(&poison) {
                        self.attribute_failure(requests)?;
                        return Err(self.map_ft_err(e));
                    }
                }
                PollAny::NoneActive => return Err(MpiError::StaleRequest),
            }
        }
    }

    /// Non-blocking [`Comm::wait_any`]: `Ok(None)` when no request is
    /// currently completable (but at least one is still pending). Errors with
    /// [`MpiError::StaleRequest`] if the slice is empty or fully consumed.
    pub fn test_any(&mut self, requests: &mut [Request]) -> Result<Option<(usize, Status)>> {
        let ordered = Request::any_contention(requests);
        match self.poll_any(requests, false, ordered)? {
            PollAny::Ready(i, status) => Ok(Some((i, status))),
            PollAny::Pending => Ok(None),
            PollAny::NoneActive => Err(MpiError::StaleRequest),
        }
    }

    fn poll_any(
        &mut self,
        requests: &mut [Request],
        during_wait: bool,
        ordered: bool,
    ) -> Result<PollAny> {
        let mut any_pending = false;
        for i in 0..requests.len() {
            match requests[i].state() {
                RequestState::SendComplete | RequestState::RecvComplete => {
                    let status = requests[i].status().ok_or(MpiError::StaleRequest)?;
                    return Ok(PollAny::Ready(i, status));
                }
                RequestState::Consumed | RequestState::Inactive => {}
                RequestState::RecvPending => {
                    any_pending = true;
                    if let Some(status) = self.try_complete_in(requests, i, during_wait, ordered)? {
                        return Ok(PollAny::Ready(i, status));
                    }
                }
            }
        }
        Ok(if any_pending {
            PollAny::Pending
        } else {
            PollAny::NoneActive
        })
    }

    /// Test whether *every* request has completed; if so, returns their
    /// statuses in request order (without consuming payloads). Returns
    /// `Ok(None)` if any request is still pending. Errors with
    /// [`MpiError::StaleRequest`] if any request was already consumed.
    pub fn test_all(&mut self, requests: &mut [Request]) -> Result<Option<Vec<Status>>> {
        let mut all_complete = true;
        let ordered = Request::any_contention(requests);
        for i in 0..requests.len() {
            match requests[i].state() {
                RequestState::SendComplete | RequestState::RecvComplete => {}
                RequestState::Consumed | RequestState::Inactive => {
                    return Err(MpiError::StaleRequest)
                }
                RequestState::RecvPending => {
                    if self.try_complete_in(requests, i, false, ordered)?.is_none() {
                        all_complete = false;
                    }
                }
            }
        }
        if !all_complete {
            return Ok(None);
        }
        requests
            .iter()
            .map(|r| r.status().ok_or(MpiError::StaleRequest))
            .collect::<Result<Vec<_>>>()
            .map(Some)
    }

    /// Combined send + receive (deadlock-safe pairwise exchange), full duplex:
    /// both partners send first, so the exchange costs one one-way latency,
    /// not two. What makes that safe is the blocked-send loop every
    /// [`Comm::send`] runs: while the destination ring (or stream) is full it
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
        let counters = &self.shared.counters;
        ProgressCounters::add(&counters.transport_drains, 1);
        let moved = {
            let io = &mut *self.shared.io();
            io.transport.poll_incoming(&mut io.clock)?
        };
        ProgressCounters::add(&counters.drained_messages, moved as u64);
        Ok(moved)
    }
}

enum PollAny {
    Ready(usize, Status),
    Pending,
    NoneActive,
}
