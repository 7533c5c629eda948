//! Non-blocking communication requests (`MPI_Isend` / `MPI_Irecv` /
//! `MPI_Ibcast`-family handles).
//!
//! cMPI's two-sided path is eager: a send is complete as soon as the message
//! has been copied into the CXL message queue (or handed to the TCP stack), so
//! an `isend` returns an already-complete request. An `irecv` records its
//! selectors — including the context id of the communicator it was posted on;
//! completion happens when `wait`/`test` (or the `*_any`/`*_all` combinators)
//! finds a matching message on that communicator. The payload is delivered
//! through the request itself (Rust-friendly ownership instead of MPI's
//! caller-provided buffer).
//!
//! **Nonblocking collectives** produce the same `Request` type: the request
//! carries a resumable [`CollState`] (the collective's bound execution plus
//! its owned buffers) that every `wait`/`test`-family call advances through
//! the progress engine. P2p and collective requests therefore mix freely in
//! `wait_any`/`test_all` slices; a completed collective delivers its result
//! bytes through [`Request::take_data`] / [`Request::take_values`].
//!
//! **Persistent collectives** (`MPI_Bcast_init`-family, MPI-4) are requests
//! whose `CollState` survives completion: created **inactive** by the
//! `*_init` methods on [`crate::comm::Comm`], activated by
//! `Comm::start`/`Comm::startall` (which re-binds the *cached* plan under a
//! fresh collective sequence number — no re-planning), completed through the
//! same `wait`/`test` machinery, and then **restartable**: the next `start`
//! reuses the plan, the buffers and the scratch arena. Between starts the
//! bound contribution is rewritten with [`Request::write_input`] and a
//! completed result is read (without consuming the request) with
//! [`Request::read_result`]. Lifecycle: inactive → started → complete →
//! (start again | `release`).
//!
//! A request must be completed on the communicator that created it; completing
//! it elsewhere fails with [`MpiError::InvalidCommunicator`]
//! (checked via the stored context id).

use std::sync::Arc;

use crate::engine::OpCell;
use crate::error::MpiError;
use crate::pod::{vec_from_bytes, Pod};
use crate::progress::CollState;
use crate::transport::RecvDest;
use crate::types::{source_matches, tag_matches, CtxId, Rank, Status, Tag};
use crate::Result;

/// Completion state of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Send already finished (eager protocol).
    SendComplete,
    /// Receive posted, not yet matched.
    RecvPending,
    /// Receive matched; payload ready to be taken. A completed *persistent*
    /// request also sits here — restartable via `Comm::start`.
    RecvComplete,
    /// The payload has been taken; the request is spent.
    Consumed,
    /// A persistent request that has not been started (or whose previous
    /// completion was retired without a restart is `RecvComplete`, not this).
    /// `wait`/`test`-family calls treat an inactive request like a consumed
    /// one; `Comm::start` activates it.
    Inactive,
}

/// A non-blocking operation handle.
#[derive(Debug)]
pub struct Request {
    state: RequestState,
    /// Context id of the communicator the request was created on.
    pub(crate) ctx: CtxId,
    /// Source selector of a pending receive (world rank).
    pub(crate) src: Option<Rank>,
    /// Tag selector of a pending receive.
    pub(crate) tag: Option<Tag>,
    /// Position of a receive in its rank's post order (see
    /// [`Request::earlier_claims`]); `0` for everything else.
    pub(crate) post_seq: u64,
    /// The posted destination bounds the message (`irecv_into`): completion
    /// writes the payload into `data` as posted, allocation-free, and a
    /// longer message fails it with truncation. Otherwise (`irecv`) the
    /// transport sizes `data` to the message.
    bounded: bool,
    /// Operation cell of a nonblocking collective (`i*` operations): the
    /// bound execution plus its owned buffers behind the cell's slot lock,
    /// advanced by `wait`/`test`-family calls (Polling mode) or the
    /// background progress engine (Thread mode). Persistent requests keep it
    /// across completions.
    pub(crate) coll: Option<Arc<OpCell>>,
    /// `Some` marks a persistent collective: the payload bytes this rank
    /// contributes, accounted at every start.
    pub(crate) persistent: Option<u64>,
    status: Option<Status>,
    /// A pending receive's posted destination ([`Request::dest`]); a complete
    /// request's payload, until [`Request::take_data`] moves it out.
    pub(crate) data: Vec<u8>,
}

/// How a pending receive stands against the earlier-posted, still-pending
/// receives of its `wait_*`/`test_*` slice — MPI's non-overtaking rule gives
/// those first claim on any message they match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Contention {
    /// No earlier receive shares a message with it: it may take what it
    /// matches.
    Free,
    /// An earlier receive matches every message it matches (same selectors,
    /// or wildcards over them): it can take nothing until that one completes.
    Covered,
    /// Some message could match both it and an earlier receive, some only it:
    /// it must look at the concrete message ([`Request::earlier_claims`])
    /// before taking it.
    Overlapping,
}

impl Request {
    /// A completed send request on communicator `ctx`.
    pub fn send_done(ctx: CtxId, status: Status) -> Self {
        Request {
            state: RequestState::SendComplete,
            ctx,
            src: None,
            tag: None,
            post_seq: 0,
            bounded: false,
            coll: None,
            persistent: None,
            status: Some(status),
            data: Vec::new(),
        }
    }

    /// A pending receive request on communicator `ctx` with the given
    /// selectors (`src` is a world rank), its payload delivered in a vector
    /// sized to the message.
    pub fn recv_pending(ctx: CtxId, src: Option<Rank>, tag: Option<Tag>) -> Self {
        Request {
            bounded: false,
            ..Self::recv_pending_into(ctx, src, tag, Vec::new())
        }
    }

    /// A pending *buffered* receive: the payload will be written into `buf`
    /// (which also bounds the acceptable message size — longer messages fail
    /// with truncation). `buf` typically comes from a previous request via
    /// [`Request::take_data`], making steady-state receive loops
    /// allocation-free.
    pub fn recv_pending_into(
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        buf: Vec<u8>,
    ) -> Self {
        Request {
            state: RequestState::RecvPending,
            ctx,
            src,
            tag,
            post_seq: 0,
            bounded: true,
            coll: None,
            persistent: None,
            status: None,
            data: buf,
        }
    }

    /// An **inactive** collective on communicator `ctx`: `state` holds the
    /// cached plan bound to an idle execution plus the owned buffers, and
    /// [`Request::activate`] starts it. With `persistent` (the
    /// `MPI_Bcast_init`-family result; see the field) completion leaves it
    /// restartable; without, it is a nonblocking collective the communicator
    /// activates at once and completion consumes.
    pub(crate) fn coll_inactive(ctx: CtxId, state: CollState, persistent: Option<u64>) -> Self {
        Request {
            state: RequestState::Inactive,
            ctx,
            src: None,
            tag: None,
            post_seq: 0,
            bounded: false,
            coll: Some(OpCell::new(ctx, state)),
            persistent,
            status: None,
            data: Vec::new(),
        }
    }

    /// Stamp a freshly posted receive with its place in the rank's post order
    /// (comm-internal).
    pub(crate) fn posted(mut self, seq: u64) -> Self {
        self.post_seq = seq;
        self
    }

    /// The earlier-posted, still-pending receives of the slice on
    /// `requests[i]`'s communicator — the ones MPI's non-overtaking rule lets
    /// claim a message ahead of it.
    fn earlier_pending(requests: &[Request], i: usize) -> impl Iterator<Item = &Request> {
        let r = &requests[i];
        requests.iter().filter(move |o| {
            o.state == RequestState::RecvPending
                && !o.is_coll()
                && o.post_seq < r.post_seq
                && o.ctx == r.ctx
        })
    }

    /// How `requests[i]` stands against the earlier-posted pending receives
    /// of the slice (see [`Contention`]).
    pub(crate) fn contention(requests: &[Request], i: usize) -> Contention {
        let r = &requests[i];
        if r.state != RequestState::RecvPending || r.is_coll() {
            return Contention::Free;
        }
        let mut contention = Contention::Free;
        for o in Self::earlier_pending(requests, i) {
            let src_covers = o.src.is_none() || o.src == r.src;
            let tag_covers = o.tag.is_none() || o.tag == r.tag;
            if src_covers && tag_covers {
                return Contention::Covered;
            }
            if (src_covers || r.src.is_none()) && (tag_covers || r.tag.is_none()) {
                contention = Contention::Overlapping;
            }
        }
        contention
    }

    /// Whether any two pending receives of the slice contend (checked once
    /// per `wait_*`/`test_*` call: selectors never change and the pending set
    /// only shrinks, so a contention-free slice stays that way).
    pub(crate) fn any_contention(requests: &[Request]) -> bool {
        (0..requests.len()).any(|i| Self::contention(requests, i) != Contention::Free)
    }

    /// Whether the message `msg` (world source rank) — the one `requests[i]`
    /// would receive next — matches an earlier-posted pending receive of the
    /// slice, which MPI's non-overtaking rule says must get it instead.
    pub(crate) fn earlier_claims(requests: &[Request], i: usize, msg: &Status) -> bool {
        Self::earlier_pending(requests, i)
            .any(|o| source_matches(o.src, msg.source) && tag_matches(o.tag, msg.tag))
    }

    /// Whether this is a nonblocking-collective request.
    pub fn is_coll(&self) -> bool {
        self.coll.is_some()
    }

    /// Whether this is a persistent collective request (`*_init` family).
    pub fn is_persistent(&self) -> bool {
        self.persistent.is_some()
    }

    /// Label of the collective algorithm this request executes (`None` for
    /// p2p requests or after completion; persistent requests keep it for
    /// life).
    pub fn coll_algorithm(&self) -> Option<&'static str> {
        self.coll.as_ref().map(|c| c.plan().label)
    }

    /// Whether a collective request's schedule has run to its end, by
    /// whichever thread drove it — read off the request alone, with no MPI
    /// call. `wait` or `test` still finalizes it.
    pub fn coll_done(&self) -> bool {
        self.coll.as_ref().is_some_and(|c| c.is_done())
    }

    /// Activate a collective request — a fresh one, or a completed
    /// persistent one again — under a fresh collective sequence number
    /// (comm-internal; [`crate::comm::Comm::start`] is the public entry).
    pub(crate) fn activate(&mut self, seq: u32) {
        let cell = self.coll.as_ref().expect("collective request has state");
        let mut slot = cell.lock();
        slot.state
            .as_mut()
            .expect("an activatable request keeps its state")
            .exec
            .restart(seq);
        cell.rearm(&mut slot);
        self.state = RequestState::RecvPending;
        self.status = None;
    }

    /// Overwrite the bound contribution region of a persistent request's
    /// buffer before the next `start` (the MPI idiom of rewriting the send
    /// buffer between starts of a persistent collective). The value length
    /// must match the bound contribution exactly. Rejected while the request
    /// is in flight.
    pub fn write_input<T: Pod>(&mut self, values: &[T]) -> Result<()> {
        if self.persistent.is_none() {
            return Err(MpiError::InvalidCollective(
                "write_input requires a persistent collective request".into(),
            ));
        }
        if self.state == RequestState::RecvPending {
            return Err(MpiError::InvalidCollective(
                "write_input on a started (in-flight) persistent request".into(),
            ));
        }
        let cell = self.coll.as_ref().ok_or(MpiError::StaleRequest)?;
        let mut slot = cell.lock();
        slot.state
            .as_mut()
            .ok_or(MpiError::StaleRequest)?
            .write_input(crate::pod::bytes_of(values))
    }

    /// Read the result of a *completed* persistent request as `T` values
    /// without consuming it (the request stays restartable). Panics if the
    /// byte length is not a multiple of the element size.
    pub fn read_result<T: Pod>(&self) -> Result<Vec<T>> {
        if self.persistent.is_none() {
            return Err(MpiError::InvalidCollective(
                "read_result requires a persistent collective request".into(),
            ));
        }
        if self.state != RequestState::RecvComplete {
            return Err(MpiError::StaleRequest);
        }
        let cell = self.coll.as_ref().ok_or(MpiError::StaleRequest)?;
        let slot = cell.lock();
        let state = slot.state.as_ref().ok_or(MpiError::StaleRequest)?;
        Ok(vec_from_bytes(state.result_bytes()))
    }

    /// Whether this is a buffered receive (posted with a caller buffer).
    pub fn is_buffered(&self) -> bool {
        self.bounded
    }

    /// Where a pending receive's message goes — what the communicator hands
    /// the transport on every completion attempt: the posted buffer as a
    /// bounded slice, or as a vector for the transport to size.
    pub(crate) fn dest(&mut self) -> RecvDest<'_> {
        debug_assert_eq!(self.state, RequestState::RecvPending);
        match self.bounded {
            true => RecvDest::Slice(&mut self.data),
            false => RecvDest::Vec(&mut self.data),
        }
    }

    /// Current state.
    pub fn state(&self) -> RequestState {
        self.state
    }

    /// Context id of the communicator the request belongs to.
    pub fn context_id(&self) -> CtxId {
        self.ctx
    }

    /// Whether the operation has completed.
    pub fn is_complete(&self) -> bool {
        matches!(
            self.state,
            RequestState::SendComplete | RequestState::RecvComplete | RequestState::Consumed
        )
    }

    /// Completion status, if available.
    pub fn status(&self) -> Option<Status> {
        self.status
    }

    /// Mark a pending request as failed (comm-internal): its operation
    /// errored mid-completion (e.g. truncation consumed the message and
    /// dropped the posted buffer), so the request must not be retried — a
    /// later `wait`/`test` reports [`MpiError::StaleRequest`] instead of
    /// silently falling into a different completion path.
    pub(crate) fn mark_failed(&mut self) {
        self.state = RequestState::Consumed;
        if let Some(cell) = self.coll.take() {
            // Withdraw the op from the background engine so it stops being
            // driven (and its cell can be dropped from the queue).
            cell.cancel();
        }
        self.persistent = None;
        self.data = Vec::new();
    }

    /// Mark a pending request complete. Its payload is `status.len` bytes at
    /// the front of `data`: a receive's arrived in the posted destination, a
    /// one-shot collective's result is moved there by the communicator; a
    /// persistent collective keeps its result in its own buffers (the
    /// request stays restartable) and leaves `data` empty.
    pub(crate) fn fulfill(&mut self, status: Status) {
        debug_assert_eq!(self.state, RequestState::RecvPending);
        self.data.truncate(status.len);
        self.state = RequestState::RecvComplete;
        self.status = Some(status);
    }

    /// Take the received payload out of a completed receive request.
    /// Persistent requests deliver results through [`Request::read_result`]
    /// instead (their buffers must survive for the next start), so this
    /// errors on them without consuming anything.
    pub fn take_data(&mut self) -> Result<Vec<u8>> {
        if self.persistent.is_some() {
            return Err(MpiError::InvalidCollective(
                "persistent requests deliver results via read_result (take_data would \
                 consume the restartable buffers)"
                    .into(),
            ));
        }
        match self.state {
            RequestState::RecvComplete => {
                self.state = RequestState::Consumed;
                Ok(std::mem::take(&mut self.data))
            }
            _ => Err(MpiError::StaleRequest),
        }
    }

    /// Mark a completed request as consumed without taking its payload — the
    /// `MPI_Request_free` analogue for completed requests. Necessary for
    /// completed *send* requests in a `wait_any` loop (they carry no payload
    /// for `take_data` to consume, and `wait_any` keeps returning a completed
    /// request until it is consumed); harmless on an already-consumed
    /// request. For persistent requests this is the retirement path
    /// (`MPI_Request_free`): the cached plan handle, buffers and scratch are
    /// dropped and the request cannot be started again. Errors with
    /// [`MpiError::StaleRequest`] if the request is still pending (in
    /// flight).
    pub fn release(&mut self) -> Result<()> {
        match self.state {
            RequestState::SendComplete | RequestState::RecvComplete | RequestState::Inactive => {
                self.state = RequestState::Consumed;
                self.data = Vec::new();
                if let Some(cell) = self.coll.take() {
                    cell.cancel();
                }
                self.persistent = None;
                Ok(())
            }
            RequestState::Consumed => Ok(()),
            RequestState::RecvPending => Err(MpiError::StaleRequest),
        }
    }

    /// Take the result of a completed request decoded as `T` values — the
    /// typed companion of [`Request::take_data`] for nonblocking collectives
    /// (e.g. the reduced vector of an `iallreduce`, this rank's block of an
    /// `ireduce_scatter`, the gathered buffer of an `igather_into` root).
    /// Panics if the byte length is not a multiple of the element size.
    pub fn take_values<T: Pod>(&mut self) -> Result<Vec<T>> {
        Ok(vec_from_bytes(&self.take_data()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_request_is_complete_immediately() {
        let r = Request::send_done(0, Status::new(0, 1, 8));
        assert!(r.is_complete());
        assert_eq!(r.state(), RequestState::SendComplete);
        assert_eq!(r.status().unwrap().len, 8);
        assert_eq!(r.context_id(), 0);
    }

    #[test]
    fn recv_request_lifecycle() {
        let mut r = Request::recv_pending(3, Some(2), Some(7));
        assert_eq!(r.context_id(), 3);
        assert!(!r.is_complete());
        assert!(r.status().is_none());
        assert!(r.take_data().is_err());
        let RecvDest::Vec(out) = r.dest() else {
            panic!("an unbuffered receive posts a vector");
        };
        *out = vec![1, 2, 3];
        r.fulfill(Status::new(2, 7, 3));
        assert!(r.is_complete());
        assert_eq!(r.state(), RequestState::RecvComplete);
        assert_eq!(r.take_data().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.state(), RequestState::Consumed);
        assert!(matches!(r.take_data(), Err(MpiError::StaleRequest)));
    }

    #[test]
    fn take_data_from_send_request_fails() {
        let mut r = Request::send_done(0, Status::new(0, 0, 0));
        assert!(matches!(r.take_data(), Err(MpiError::StaleRequest)));
    }

    #[test]
    fn buffered_recv_request_reuses_caller_buffer() {
        let mut r = Request::recv_pending_into(1, Some(0), Some(4), vec![0u8; 64]);
        assert!(r.is_buffered());
        assert!(!r.is_complete());
        let RecvDest::Slice(buf) = r.dest() else {
            panic!("a buffered receive posts a bounded slice");
        };
        let ptr = buf.as_ptr();
        buf[..3].copy_from_slice(&[7, 8, 9]);
        r.fulfill(Status::new(0, 4, 3));
        assert!(r.is_complete());
        let data = r.take_data().unwrap();
        // Same allocation, truncated to the received length.
        assert_eq!(data.as_ptr(), ptr);
        assert_eq!(data, vec![7, 8, 9]);
    }
}
