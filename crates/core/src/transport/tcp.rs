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

use parking_lot::Mutex;

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

/// Per rank, the `(sequence, stamp)` of its entries into a barrier or fence,
/// one cell per parity of the sequence: a rank that has left entry `seq` may
/// make entry `seq + 1` (never the one after) before a slow rank reads the
/// stamps of `seq`, and must not replace the one it left there.
type Arrivals = Vec<[(u64, f64); 2]>;

/// Every rank's cell for entry `seq`.
fn entries(arrivals: &Arrivals, seq: u64) -> impl Iterator<Item = (u64, f64)> + '_ {
    arrivals.iter().map(move |cells| cells[(seq & 1) as usize])
}

/// The latest stamp of entry `seq` once every rank has made it.
fn all_arrived(arrivals: &Arrivals, seq: u64) -> Option<f64> {
    entries(arrivals, seq)
        .all(|(s, _)| s >= seq)
        .then(|| entries(arrivals, seq).map(|(_, t)| t).fold(0.0, f64::max))
}

/// One rank's side of a barrier or fence: its entry count, and whether its
/// last entry has arrived and waits for the others.
#[derive(Default)]
struct Entries {
    seq: u64,
    waiting: bool,
}

impl Entries {
    /// One attempt at the next entry into `arrivals` (see
    /// [`Transport::barrier`]): unless the last one still waits, arrive —
    /// charge `cost`, then store the stamp — and then poll. A straggler
    /// recorded dead fails the attempt, and the next one arrives anew.
    fn attempt(
        &mut self,
        arrivals: &Mutex<Arrivals>,
        rank: Rank,
        clock: &mut SimClock,
        cost: f64,
        poison: &PoisonFlag,
    ) -> Result<bool> {
        if !self.waiting {
            clock.advance(cost);
            self.seq += 1;
            arrivals.lock()[rank][(self.seq & 1) as usize] = (self.seq, clock.now());
        }
        let arrivals = arrivals.lock();
        if let Some(latest) = all_arrived(&arrivals, self.seq) {
            self.waiting = false;
            clock.merge(latest);
            return Ok(true);
        }
        // A recorded death only dooms the entry if the dead rank has not
        // arrived yet (it never will). If every straggler is alive — the
        // victim passed this entry before dying — the entry still completes,
        // so ranks that have not installed an error handler yet (e.g. the
        // startup barrier) don't abort a completable barrier.
        let alive = entries(&arrivals, self.seq)
            .enumerate()
            .filter(|&(_, (s, _))| s < self.seq)
            .try_for_each(|(r, _)| poison.check_alive(r));
        self.waiting = alive.is_ok();
        alive.map(|()| false)
    }
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
    /// Fence entries per rank.
    fence_seq: Mutex<Arrivals>,
}

/// The flags keyed `(me, peer)` for every `peer` of `group`, taken once all
/// are set: the latest of their stamps (what merging each in turn gives).
fn take_all(flags: &Mutex<BTreeMap<(Rank, Rank), f64>>, me: Rank, group: &[Rank]) -> Option<f64> {
    let mut flags = flags.lock();
    if !group.iter().all(|&peer| flags.contains_key(&(me, peer))) {
        return None;
    }
    let stamps = group.iter().filter_map(|&peer| flags.remove(&(me, peer)));
    Some(stamps.fold(0.0, f64::max))
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
            fence_seq: Mutex::new(vec![[(0, 0.0); 2]; ranks]),
        }
    }
}

/// State shared by every rank's [`TcpTransport`] (window registry and the
/// global barrier). Created once by the runtime and cloned into each rank.
pub struct TcpSharedState {
    windows: Mutex<Vec<Arc<SharedWindow>>>,
    barrier_seq: Mutex<Arrivals>,
}

impl TcpSharedState {
    /// Create the shared state for a universe of `ranks` ranks.
    pub fn new(ranks: usize) -> Arc<Self> {
        Arc::new(TcpSharedState {
            windows: Mutex::new(Vec::new()),
            barrier_seq: Mutex::new(vec![[(0, 0.0); 2]; ranks]),
        })
    }
}

struct TcpWindowState {
    shared: Arc<SharedWindow>,
    exposure_group: Vec<Rank>,
    access_group: Vec<Rank>,
    held_locks: Vec<Rank>,
    /// This rank's fence entries.
    fence: Entries,
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
    /// This rank's world-barrier entries.
    barrier: Entries,
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
            barrier: Entries::default(),
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

    /// What a barrier or fence entry is charged: a dissemination barrier's
    /// ⌈log2(n)⌉ message exchanges (it synchronizes functionally through the
    /// shared arrival cells).
    fn sync_cost(&self) -> f64 {
        let rounds = (self.ranks.max(2) as f64).log2().ceil();
        rounds * self.model.mpi_message_time(8, self.share())
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

    /// Window `win`, borrowing only the window table (not the poison flag).
    fn window_in(table: &mut [Option<TcpWindowState>], win: WinId) -> Result<&mut TcpWindowState> {
        table
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

    fn barrier(&mut self, clock: &mut SimClock) -> Result<bool> {
        let cost = self.sync_cost();
        let arrivals = &self.shared.barrier_seq;
        self.barrier
            .attempt(arrivals, self.rank, clock, cost, &self.poison)
    }

    /// Ready at once: this rank's `id` earlier windows are in the shared
    /// registry already, and the first rank to reach window `id` creates it.
    fn win_allocate(&mut self, _clock: &mut SimClock, size: usize) -> Result<Option<WinId>> {
        let id = self.windows.len();
        let shared_win = {
            let mut windows = self.shared.windows.lock();
            if windows.len() == id {
                windows.push(Arc::new(SharedWindow::new(self.ranks, size)));
            }
            Arc::clone(&windows[id])
        };
        if shared_win.size_per_rank != size || shared_win.ranks != self.ranks {
            return Err(MpiError::InvalidCollective(format!(
                "win_allocate called with inconsistent sizes for window {id}"
            )));
        }
        self.windows.push(Some(TcpWindowState {
            shared: shared_win,
            exposure_group: Vec::new(),
            access_group: Vec::new(),
            held_locks: Vec::new(),
            fence: Entries::default(),
        }));
        Ok(Some(id))
    }

    fn win_free(&mut self, _clock: &mut SimClock, win: WinId) -> Result<()> {
        self.window(win)?;
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
        let state = Self::window_in(&mut self.windows, win)?;
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
        }
        state.exposure_group = origins.to_vec();
        Ok(())
    }

    fn start(&mut self, clock: &mut SimClock, win: WinId, targets: &[Rank]) -> Result<bool> {
        for &t in targets {
            self.check_rank(t)?;
        }
        let rank = self.rank;
        let state = Self::window_in(&mut self.windows, win)?;
        if !state.access_group.is_empty() {
            return Err(MpiError::InvalidSyncState(
                "start called while an access epoch is already open".into(),
            ));
        }
        let Some(posted) = take_all(&state.shared.post_flags, rank, targets) else {
            return Ok(false);
        };
        clock.merge(posted);
        state.access_group = targets.to_vec();
        Ok(true)
    }

    fn complete(&mut self, clock: &mut SimClock, win: WinId) -> Result<()> {
        let rank = self.rank;
        // The epoch-closing synchronization is where the baseline pays the
        // anchored extra one-sided overhead (control messages + acks).
        let sync_extra = self.model.onesided_sync_extra();
        let base_latency = self.model.base_latency_ns;
        let state = Self::window_in(&mut self.windows, win)?;
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
        }
        Ok(())
    }

    fn wait(&mut self, clock: &mut SimClock, win: WinId) -> Result<bool> {
        let rank = self.rank;
        let sync_extra = self.model.onesided_sync_extra();
        let state = Self::window_in(&mut self.windows, win)?;
        if state.exposure_group.is_empty() {
            return Err(MpiError::InvalidSyncState(
                "wait called without a matching post".into(),
            ));
        }
        let Some(completed) = take_all(&state.shared.complete_flags, rank, &state.exposure_group)
        else {
            return Ok(false);
        };
        clock.merge(completed);
        state.exposure_group.clear();
        clock.advance(sync_extra);
        Ok(true)
    }

    fn lock(&mut self, clock: &mut SimClock, win: WinId, target: Rank) -> Result<bool> {
        self.check_rank(target)?;
        let rank = self.rank;
        // Lock acquisition is a request/grant round trip over the network.
        let round_trip = 2.0 * self.model.base_latency_ns + self.model.mpi_per_msg_overhead_ns;
        let state = Self::window_in(&mut self.windows, win)?;
        if state.held_locks.contains(&target) {
            return Err(MpiError::InvalidSyncState(format!(
                "lock on target {target} already held"
            )));
        }
        {
            let mut owners = state.shared.lock_owner.lock();
            if owners[target].is_some() {
                return Ok(false);
            }
            owners[target] = Some(rank);
        }
        clock.advance(round_trip);
        state.held_locks.push(target);
        Ok(true)
    }

    fn unlock(&mut self, clock: &mut SimClock, win: WinId, target: Rank) -> Result<()> {
        self.check_rank(target)?;
        let rank = self.rank;
        let one_way = self.model.mpi_message_time(8, self.share());
        let state = Self::window_in(&mut self.windows, win)?;
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
        }
        clock.advance(one_way);
        state.held_locks.remove(pos);
        Ok(())
    }

    fn fence(&mut self, clock: &mut SimClock, win: WinId) -> Result<bool> {
        let cost = self.sync_cost();
        let state = Self::window_in(&mut self.windows, win)?;
        let arrivals = &state.shared.fence_seq;
        state
            .fence
            .attempt(arrivals, self.rank, clock, cost, &self.poison)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_early_next_entry_keeps_the_stamp_a_slow_rank_reads() {
        // Rank 0 left entry 1 (stamp 10) and made entry 2 (stamp 50) before
        // rank 1 (stamp 30) read entry 1: entry 1 still leaves at 30.
        let mut arrivals: Arrivals = vec![[(0, 0.0); 2]; 2];
        arrivals[0] = [(2, 50.0), (1, 10.0)];
        assert_eq!(all_arrived(&arrivals, 1), None);
        arrivals[1][1] = (1, 30.0);
        assert_eq!(all_arrived(&arrivals, 1), Some(30.0));
        assert_eq!(all_arrived(&arrivals, 2), None);
        arrivals[1][0] = (2, 40.0);
        assert_eq!(all_arrived(&arrivals, 2), Some(50.0));
    }
}
