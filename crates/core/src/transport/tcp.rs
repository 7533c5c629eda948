//! The baseline transport: MPI over TCP on a simulated NIC.
//!
//! This models the paper's two baselines — "TCP over Ethernet" (standard NIC)
//! and "TCP over Mellanox (CX-6 Dx)" (SmartNIC) — the configurations MPICH
//! actually runs on in the evaluation.
//!
//! * **Two-sided** messages travel through the [`cmpi_netsim`] fabric: real
//!   payload bytes over in-process channels, with virtual-time costs for the
//!   kernel TCP stack, packetization, NIC serialization at the flow's link
//!   share and the wire latency.
//! * **One-sided** windows are backed by a process-shared buffer (a simulation
//!   shortcut — on the real baseline the bytes move through the same TCP
//!   connection; here the *cost* of that movement is charged to the virtual
//!   clocks from the same cost model, while the bytes take the short path).
//!   PSCW, lock/unlock and fence are functional via shared flags and charged
//!   with the anchored one-sided synchronization overhead, which is what makes
//!   the baseline's one-sided latency so much worse than its two-sided latency
//!   (630 µs vs 160 µs on Ethernet in the paper).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use cmpi_fabric::cost::{CxlCostModel, TcpCostModel, TcpNic};
use cmpi_fabric::SimClock;
use cmpi_netsim::{NetMessage, TcpEndpoint, TcpFabric, TcpFabricConfig};

use crate::config::TcpTransportConfig;
use crate::counters::RankCounters;
use crate::error::MpiError;
use crate::spin::PoisonFlag;
use crate::topology::HostTopology;
use crate::transport::{FaultInjector, RecvDest, Transport, WinId};
use crate::types::{source_matches, tag_matches, CtxId, Rank, ReduceOp, Status, Tag};
use crate::Result;

/// How long a condvar wait sleeps between poison checks. Notifications wake
/// the waiter immediately; the timeout only bounds peer-death detection.
const COND_WAIT: std::time::Duration = std::time::Duration::from_millis(2);

/// Pack a communicator context id and a user tag into the fabric's 64-bit
/// wire tag: context in the high 32 bits, tag (reinterpreted as `u32`) in the
/// low 32. Matching on the context id is exact, which keeps split/duplicated
/// communicators' tag spaces disjoint on this transport.
fn wire_tag(ctx: CtxId, tag: Tag) -> u64 {
    ((ctx as u64) << 32) | (tag as u32 as u64)
}

/// The context id half of a wire tag.
fn wire_ctx(wire: u64) -> CtxId {
    (wire >> 32) as CtxId
}

/// The user-tag half of a wire tag.
fn wire_user_tag(wire: u64) -> Tag {
    (wire as u32) as Tag
}

/// One RMA window shared by every rank (the functional backing store).
struct SharedWindow {
    size_per_rank: usize,
    ranks: usize,
    data: Mutex<Vec<u8>>,
    /// PSCW post flags: arrival timestamp keyed by `(origin, target)`, present
    /// only while a post is outstanding. Sparse so a window on a large universe
    /// costs memory proportional to the open epoch pairs, not `ranks²`.
    post_flags: Mutex<BTreeMap<(Rank, Rank), f64>>,
    /// PSCW complete flags keyed by `(target, origin)`; same sparsity argument.
    complete_flags: Mutex<BTreeMap<(Rank, Rank), f64>>,
    /// Passive-target lock owner per target rank.
    lock_owner: Mutex<Vec<Option<Rank>>>,
    /// Fence barrier sequence numbers and timestamps per rank.
    fence_seq: Mutex<Vec<(u64, f64)>>,
    post_cond: Condvar,
    complete_cond: Condvar,
    lock_cond: Condvar,
    fence_cond: Condvar,
}

impl SharedWindow {
    fn new(ranks: usize, size_per_rank: usize) -> Self {
        SharedWindow {
            size_per_rank,
            ranks,
            data: Mutex::new(vec![0u8; ranks * size_per_rank]),
            post_flags: Mutex::new(BTreeMap::new()),
            complete_flags: Mutex::new(BTreeMap::new()),
            lock_owner: Mutex::new(vec![None; ranks]),
            fence_seq: Mutex::new(vec![(0, 0.0); ranks]),
            post_cond: Condvar::new(),
            complete_cond: Condvar::new(),
            lock_cond: Condvar::new(),
            fence_cond: Condvar::new(),
        }
    }
}

/// State shared by every rank's [`TcpTransport`] (window registry and the
/// global barrier). Created once by the runtime and cloned into each rank.
pub struct TcpSharedState {
    windows: Mutex<Vec<Arc<SharedWindow>>>,
    barrier_seq: Mutex<Vec<(u64, f64)>>,
    barrier_cond: Condvar,
    window_cond: Condvar,
}

impl TcpSharedState {
    /// Create the shared state for a universe of `ranks` ranks.
    pub fn new(ranks: usize) -> Arc<Self> {
        Arc::new(TcpSharedState {
            windows: Mutex::new(Vec::new()),
            barrier_seq: Mutex::new(vec![(0, 0.0); ranks]),
            barrier_cond: Condvar::new(),
            window_cond: Condvar::new(),
        })
    }
}

struct TcpWindowState {
    shared: Arc<SharedWindow>,
    exposure_group: Vec<Rank>,
    access_group: Vec<Rank>,
    held_locks: Vec<Rank>,
    /// Local fence sequence number.
    fence_seq: u64,
}

/// MPI-over-TCP baseline transport for one rank.
pub struct TcpTransport {
    rank: Rank,
    ranks: usize,
    endpoint: TcpEndpoint,
    fabric: TcpFabric,
    model: TcpCostModel,
    local: CxlCostModel,
    shared: Arc<TcpSharedState>,
    windows: Vec<Option<TcpWindowState>>,
    /// The rank's counter block (shared with the communicator layer).
    counters: Arc<RankCounters>,
    barrier_seq: u64,
    label: &'static str,
    /// Universe peer-death flag: every blocking wait checks it.
    poison: PoisonFlag,
    /// Fault injection armed on this rank (fault-tolerance testing only).
    fault: Option<FaultInjector>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("rank", &self.rank)
            .field("ranks", &self.ranks)
            .field("nic", &self.model.nic)
            .finish()
    }
}

impl TcpTransport {
    /// Build the simulated NIC fabric for a universe (called once by the
    /// runtime; endpoints are then taken per rank).
    pub fn build_fabric(config: &TcpTransportConfig, topology: &HostTopology) -> TcpFabric {
        let fabric_config = TcpFabricConfig {
            nic: config.nic,
            node_of: topology.mapping().to_vec(),
            flows_per_nic: (topology.ranks() / topology.hosts().max(1)).max(1),
        };
        TcpFabric::new(fabric_config)
    }

    /// Build the transport for one rank. `poison` is the universe's peer-death
    /// flag; every blocking wait checks it and fails with `PeerDead`. The
    /// transport counts into `counters`, the rank's counter block.
    pub fn new(
        rank: Rank,
        ranks: usize,
        fabric: TcpFabric,
        shared: Arc<TcpSharedState>,
        config: &TcpTransportConfig,
        poison: PoisonFlag,
        counters: Arc<RankCounters>,
    ) -> Result<Self> {
        if rank >= fabric.endpoints() {
            return Err(MpiError::Transport(format!(
                "fabric has {} endpoints, rank {rank} out of range",
                fabric.endpoints()
            )));
        }
        let endpoint = fabric.take_endpoint(rank);
        let label = match config.nic {
            TcpNic::StandardEthernet => "TCP over Ethernet",
            TcpNic::MellanoxCx6Dx => "TCP over Mellanox (CX-6 Dx)",
        };
        Ok(TcpTransport {
            rank,
            ranks,
            endpoint,
            fabric,
            model: TcpCostModel::of(config.nic),
            local: CxlCostModel::default(),
            shared,
            windows: Vec::new(),
            counters,
            barrier_seq: 0,
            label,
            poison,
            fault: None,
        })
    }

    fn check_rank(&self, rank: Rank) -> Result<()> {
        if rank >= self.ranks {
            return Err(MpiError::InvalidRank {
                rank,
                size: self.ranks,
            });
        }
        Ok(())
    }

    fn share(&self) -> f64 {
        1.0 / self.fabric.flows_per_nic() as f64
    }

    /// When the origin of a one-sided data transfer of `bytes` started at
    /// `now` is free again: a two-sided message's cost less its wire latency.
    /// The data lands that latency later. No arrival time is kept: every call
    /// that closes the epoch (`complete`, `unlock`, `fence`) charges at least
    /// one wire latency after the origin is free.
    fn rma_busy_until(&self, now: f64, bytes: usize) -> f64 {
        let occupancy = (self.model.mpi_message_time(bytes, self.share())
            - self.model.base_latency_ns)
            .max(0.0);
        now + occupancy
    }

    fn window(&self, win: WinId) -> Result<&TcpWindowState> {
        self.windows
            .get(win)
            .and_then(|w| w.as_ref())
            .ok_or(MpiError::InvalidWindow(win))
    }

    fn window_mut(&mut self, win: WinId) -> Result<&mut TcpWindowState> {
        self.windows
            .get_mut(win)
            .and_then(|w| w.as_mut())
            .ok_or(MpiError::InvalidWindow(win))
    }

    fn check_window_access(state: &TcpWindowState, offset: usize, len: usize) -> Result<()> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > state.shared.size_per_rank)
        {
            return Err(MpiError::WindowOutOfBounds {
                offset,
                len,
                window_len: state.shared.size_per_rank,
            });
        }
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.ranks
    }

    /// The fabric channel is unbounded, so a send never stalls on this
    /// transport: one attempt hands the whole message to the NIC.
    fn try_send(
        &mut self,
        clock: &mut SimClock,
        dst: Rank,
        ctx: CtxId,
        tag: Tag,
        data: &[u8],
        cursor: &mut usize,
    ) -> Result<bool> {
        debug_assert_eq!(*cursor, 0, "a TCP send is never left partly out");
        self.check_rank(dst)?;
        // Fault injection fires at message entry, before anything is handed
        // to the fabric: peers never observe a half-sent message.
        if let Some(f) = self.fault.as_mut() {
            f.on_send()?;
        }
        let timing = self
            .endpoint
            .send(dst, wire_tag(ctx, tag), data.into(), clock.now());
        clock.merge(timing.sender_busy_until);
        self.counters.transport.msgs_sent.add(1);
        self.counters.transport.bytes_sent.add(data.len() as u64);
        Ok(true)
    }

    fn try_recv(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        dest: RecvDest<'_>,
    ) -> Result<Option<Status>> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let wanted = |m: &NetMessage| {
            wire_ctx(m.tag) == ctx
                && source_matches(src, m.src)
                && tag_matches(tag, wire_user_tag(m.tag))
        };
        let status = |m: &NetMessage| Status::new(m.src, wire_user_tag(m.tag), m.len());
        if let RecvDest::Probe = dest {
            return Ok(self.endpoint.peek_match(wanted).map(status));
        }
        let Some(msg) = self.endpoint.try_recv_match(wanted) else {
            return Ok(None);
        };
        clock.merge(msg.arrival);
        // Receive-side copy out of the NIC/MPI buffers into the user buffer.
        clock.advance(self.local.local_copy(msg.len()));
        self.counters.transport.msgs_received.add(1);
        self.counters.transport.bytes_received.add(msg.len() as u64);
        match dest {
            RecvDest::Slice(buf) if msg.len() > buf.len() => {
                return Err(MpiError::Truncation {
                    message_len: msg.len(),
                    buffer_len: buf.len(),
                });
            }
            // Single copy: NIC payload (shared `Bytes`) straight into the
            // caller's buffer.
            RecvDest::Slice(buf) => buf[..msg.len()].copy_from_slice(&msg.payload),
            RecvDest::Vec(out) => *out = msg.payload.to_vec(),
            RecvDest::Probe => unreachable!("probes return above"),
        }
        Ok(Some(status(&msg)))
    }

    fn poll_incoming(&mut self, _clock: &mut SimClock) -> Result<usize> {
        // The fabric channel is unbounded, so senders never stall on this
        // transport; draining into the endpoint stash still takes delivery of
        // arrived traffic early, which keeps the progress engine's view of
        // "messages moved during compute" comparable across transports.
        Ok(self.endpoint.drain())
    }

    fn barrier(&mut self, clock: &mut SimClock) -> Result<()> {
        // A dissemination barrier costs ⌈log2(n)⌉ message exchanges; charge
        // that, then synchronize functionally through the shared array.
        let rounds = (self.ranks.max(2) as f64).log2().ceil();
        clock.advance(rounds * self.model.mpi_message_time(8, self.share()));
        self.barrier_seq += 1;
        let my_seq = self.barrier_seq;
        {
            let mut seqs = self.shared.barrier_seq.lock();
            seqs[self.rank] = (my_seq, clock.now());
            self.shared.barrier_cond.notify_all();
            loop {
                if seqs.iter().all(|&(s, _)| s >= my_seq) {
                    let latest = seqs.iter().map(|&(_, t)| t).fold(0.0, f64::max);
                    clock.merge(latest);
                    break;
                }
                self.shared.barrier_cond.wait_for(&mut seqs, COND_WAIT);
                if let Err(e) = self.poison.check() {
                    // A recorded death only dooms the barrier if the dead rank
                    // has not arrived yet (it never will). If every straggler
                    // is alive — the victim passed this barrier before dying —
                    // the barrier still completes; keep waiting so ranks that
                    // have not installed an error handler yet (e.g. the
                    // startup barrier) don't abort a completable barrier.
                    let doomed = seqs
                        .iter()
                        .enumerate()
                        .any(|(r, &(s, _))| s < my_seq && self.poison.is_dead(r));
                    if doomed || self.poison.is_poisoned() {
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }

    fn win_allocate(&mut self, clock: &mut SimClock, size_per_rank: usize) -> Result<WinId> {
        let id = self.windows.len();
        let shared_win = {
            let mut windows = self.shared.windows.lock();
            if windows.len() == id {
                windows.push(Arc::new(SharedWindow::new(self.ranks, size_per_rank)));
                self.shared.window_cond.notify_all();
            }
            while windows.len() <= id {
                self.shared.window_cond.wait_for(&mut windows, COND_WAIT);
                self.poison.check()?;
            }
            Arc::clone(&windows[id])
        };
        if shared_win.size_per_rank != size_per_rank || shared_win.ranks != self.ranks {
            return Err(MpiError::InvalidCollective(format!(
                "win_allocate called with inconsistent sizes for window {id}"
            )));
        }
        self.windows.push(Some(TcpWindowState {
            shared: shared_win,
            exposure_group: Vec::new(),
            access_group: Vec::new(),
            held_locks: Vec::new(),
            fence_seq: 0,
        }));
        self.barrier(clock)?;
        Ok(id)
    }

    fn win_free(&mut self, clock: &mut SimClock, win: WinId) -> Result<()> {
        self.window(win)?;
        self.barrier(clock)?;
        self.windows[win] = None;
        Ok(())
    }

    fn put(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        self.check_rank(target)?;
        let busy_until = self.rma_busy_until(clock.now(), data.len());
        let state = self.window(win)?;
        Self::check_window_access(state, offset, data.len())?;
        {
            let mut buf = state.shared.data.lock();
            let base = target * state.shared.size_per_rank + offset;
            buf[base..base + data.len()].copy_from_slice(data);
        }
        clock.merge(busy_until);
        self.counters.transport.puts.add(1);
        self.counters
            .transport
            .rma_bytes_written
            .add(data.len() as u64);
        Ok(())
    }

    fn get(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<()> {
        self.check_rank(target)?;
        let state = self.window(win)?;
        Self::check_window_access(state, offset, buf.len())?;
        {
            let data = state.shared.data.lock();
            let base = target * state.shared.size_per_rank + offset;
            buf.copy_from_slice(&data[base..base + buf.len()]);
        }
        // A get is a request/response round trip: small request out, data back.
        let request = self.model.mpi_message_time(8, self.share());
        let response = self.model.mpi_message_time(buf.len(), self.share());
        clock.advance(request + response);
        self.counters.transport.gets.add(1);
        self.counters.transport.rma_bytes_read.add(buf.len() as u64);
        Ok(())
    }

    fn accumulate(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<()> {
        self.check_rank(target)?;
        let bytes = data.len() * 8;
        let busy_until = self.rma_busy_until(clock.now(), bytes);
        let state = self.window(win)?;
        Self::check_window_access(state, offset, bytes)?;
        {
            let mut buf = state.shared.data.lock();
            let base = target * state.shared.size_per_rank + offset;
            let mut current = crate::pod::bytes_to_f64(&buf[base..base + bytes]);
            op.fold_f64(&mut current, data);
            buf[base..base + bytes].copy_from_slice(&crate::pod::f64_to_bytes(&current));
        }
        clock.merge(busy_until);
        self.counters.transport.rma_bytes_written.add(bytes as u64);
        Ok(())
    }

    fn win_read_local(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<()> {
        let rank = self.rank;
        let state = self.window(win)?;
        Self::check_window_access(state, offset, buf.len())?;
        let data = state.shared.data.lock();
        let base = rank * state.shared.size_per_rank + offset;
        buf.copy_from_slice(&data[base..base + buf.len()]);
        clock.advance(self.local.local_copy(buf.len()));
        Ok(())
    }

    fn win_write_local(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        let rank = self.rank;
        let state = self.window(win)?;
        Self::check_window_access(state, offset, data.len())?;
        {
            let mut buf = state.shared.data.lock();
            let base = rank * state.shared.size_per_rank + offset;
            buf[base..base + data.len()].copy_from_slice(data);
        }
        clock.advance(self.local.local_copy(data.len()));
        Ok(())
    }

    fn post(&mut self, clock: &mut SimClock, win: WinId, origins: &[Rank]) -> Result<()> {
        for &o in origins {
            self.check_rank(o)?;
        }
        let rank = self.rank;
        // The post notification is a small message to each origin.
        let notify = self.model.mpi_message_time(8, self.share());
        let base_latency = self.model.base_latency_ns;
        let state = self.window_mut(win)?;
        if !state.exposure_group.is_empty() {
            return Err(MpiError::InvalidSyncState(
                "post called while an exposure epoch is already open".into(),
            ));
        }
        {
            let mut flags = state.shared.post_flags.lock();
            for &origin in origins {
                clock.advance(notify - base_latency);
                flags.insert((origin, rank), clock.now() + base_latency);
            }
            state.shared.post_cond.notify_all();
        }
        state.exposure_group = origins.to_vec();
        Ok(())
    }

    fn start(&mut self, clock: &mut SimClock, win: WinId, targets: &[Rank]) -> Result<()> {
        for &t in targets {
            self.check_rank(t)?;
        }
        let rank = self.rank;
        let poison = self.poison.clone();
        let state = self.window_mut(win)?;
        if !state.access_group.is_empty() {
            return Err(MpiError::InvalidSyncState(
                "start called while an access epoch is already open".into(),
            ));
        }
        {
            let mut flags = state.shared.post_flags.lock();
            for &target in targets {
                loop {
                    if let Some(ts) = flags.remove(&(rank, target)) {
                        clock.merge(ts);
                        break;
                    }
                    state.shared.post_cond.wait_for(&mut flags, COND_WAIT);
                    poison.check()?;
                }
            }
        }
        state.access_group = targets.to_vec();
        Ok(())
    }

    fn complete(&mut self, clock: &mut SimClock, win: WinId) -> Result<()> {
        let rank = self.rank;
        // The epoch-closing synchronization is where the baseline pays the
        // anchored extra one-sided overhead (control messages + acks).
        let sync_extra = self.model.onesided_sync_extra();
        let base_latency = self.model.base_latency_ns;
        let state = self.window_mut(win)?;
        if state.access_group.is_empty() {
            return Err(MpiError::InvalidSyncState(
                "complete called without a matching start".into(),
            ));
        }
        clock.advance(sync_extra);
        let targets = std::mem::take(&mut state.access_group);
        {
            let mut flags = state.shared.complete_flags.lock();
            for target in targets {
                flags.insert((target, rank), clock.now() + base_latency);
            }
            state.shared.complete_cond.notify_all();
        }
        Ok(())
    }

    fn wait(&mut self, clock: &mut SimClock, win: WinId) -> Result<()> {
        let rank = self.rank;
        let sync_extra = self.model.onesided_sync_extra();
        let poison = self.poison.clone();
        let state = self.window_mut(win)?;
        if state.exposure_group.is_empty() {
            return Err(MpiError::InvalidSyncState(
                "wait called without a matching post".into(),
            ));
        }
        let origins = std::mem::take(&mut state.exposure_group);
        {
            let mut flags = state.shared.complete_flags.lock();
            for origin in origins {
                loop {
                    if let Some(ts) = flags.remove(&(rank, origin)) {
                        clock.merge(ts);
                        break;
                    }
                    state.shared.complete_cond.wait_for(&mut flags, COND_WAIT);
                    poison.check()?;
                }
            }
        }
        clock.advance(sync_extra);
        Ok(())
    }

    fn lock(&mut self, clock: &mut SimClock, win: WinId, target: Rank) -> Result<()> {
        self.check_rank(target)?;
        let rank = self.rank;
        // Lock acquisition is a request/grant round trip over the network.
        let round_trip = 2.0 * self.model.base_latency_ns + self.model.mpi_per_msg_overhead_ns;
        let poison = self.poison.clone();
        let state = self.window_mut(win)?;
        if state.held_locks.contains(&target) {
            return Err(MpiError::InvalidSyncState(format!(
                "lock on target {target} already held"
            )));
        }
        {
            let mut owners = state.shared.lock_owner.lock();
            loop {
                if owners[target].is_none() {
                    owners[target] = Some(rank);
                    break;
                }
                state.shared.lock_cond.wait_for(&mut owners, COND_WAIT);
                poison.check()?;
            }
        }
        clock.advance(round_trip);
        state.held_locks.push(target);
        Ok(())
    }

    fn unlock(&mut self, clock: &mut SimClock, win: WinId, target: Rank) -> Result<()> {
        self.check_rank(target)?;
        let rank = self.rank;
        let one_way = self.model.mpi_message_time(8, self.share());
        let state = self.window_mut(win)?;
        let Some(pos) = state.held_locks.iter().position(|&t| t == target) else {
            return Err(MpiError::InvalidSyncState(format!(
                "unlock on target {target} without a matching lock"
            )));
        };
        {
            let mut owners = state.shared.lock_owner.lock();
            if owners[target] != Some(rank) {
                return Err(MpiError::InvalidSyncState(format!(
                    "unlock by rank {rank} but lock on {target} is held by {:?}",
                    owners[target]
                )));
            }
            owners[target] = None;
            state.shared.lock_cond.notify_all();
        }
        clock.advance(one_way);
        state.held_locks.remove(pos);
        Ok(())
    }

    fn fence(&mut self, clock: &mut SimClock, win: WinId) -> Result<()> {
        let rank = self.rank;
        let rounds = (self.ranks.max(2) as f64).log2().ceil();
        clock.advance(rounds * self.model.mpi_message_time(8, self.share()));
        let poison = self.poison.clone();
        let state = self.window_mut(win)?;
        state.fence_seq += 1;
        let my_seq = state.fence_seq;
        {
            let mut seqs = state.shared.fence_seq.lock();
            seqs[rank] = (my_seq, clock.now());
            state.shared.fence_cond.notify_all();
            loop {
                if seqs.iter().all(|&(s, _)| s >= my_seq) {
                    let latest = seqs.iter().map(|&(_, t)| t).fold(0.0, f64::max);
                    clock.merge(latest);
                    break;
                }
                state.shared.fence_cond.wait_for(&mut seqs, COND_WAIT);
                poison.check()?;
            }
        }
        Ok(())
    }

    fn set_concurrency_hint(&mut self, pairs: usize) {
        // For the NIC the relevant quantity is concurrent flows per NIC; with
        // ranks split over two hosts that equals the number of active pairs.
        self.fabric.set_flows_per_nic(pairs.max(1));
    }

    fn concurrency_hint(&self) -> usize {
        self.fabric.flows_per_nic()
    }

    fn label(&self) -> &'static str {
        self.label
    }

    fn poison(&self) -> &PoisonFlag {
        &self.poison
    }

    fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.fault = Some(injector);
    }
}
