//! The simulated TCP fabric: endpoints, NIC sharing and message delivery.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use cmpi_fabric::cost::{TcpCostModel, TcpNic};
use cmpi_fabric::SimNs;

use crate::message::{NetMessage, SendTiming};

/// Configuration of a simulated TCP fabric.
#[derive(Debug, Clone)]
pub struct TcpFabricConfig {
    /// Which NIC the nodes use.
    pub nic: TcpNic,
    /// `node_of[i]` is the node hosting endpoint `i`.
    pub node_of: Vec<usize>,
    /// How many flows are assumed to share each NIC concurrently (bandwidth
    /// share = 1 / flows). The MPI benchmarks set this to the number of ranks
    /// per node taking part in the measurement; defaults to 1.
    pub flows_per_nic: usize,
}

impl TcpFabricConfig {
    /// Endpoints spread round-robin over `nodes` nodes.
    pub fn round_robin(nic: TcpNic, endpoints: usize, nodes: usize) -> Self {
        let nodes = nodes.max(1);
        TcpFabricConfig {
            nic,
            node_of: (0..endpoints).map(|i| i % nodes).collect(),
            flows_per_nic: 1,
        }
    }

    /// Endpoints split into two halves on two nodes (the paper's two-node
    /// evaluation setup: half origins on host 0, half targets on host 1).
    pub fn two_nodes_split(nic: TcpNic, endpoints: usize) -> Self {
        TcpFabricConfig {
            nic,
            node_of: (0..endpoints)
                .map(|i| if i < endpoints.div_ceil(2) { 0 } else { 1 })
                .collect(),
            flows_per_nic: 1,
        }
    }
}

/// Per-NIC (per-node) statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NicStats {
    /// Messages sent from this NIC.
    pub messages_sent: u64,
    /// Bytes sent from this NIC.
    pub bytes_sent: u64,
    /// Messages received by this NIC.
    pub messages_received: u64,
    /// Bytes received by this NIC.
    pub bytes_received: u64,
}

#[derive(Default)]
struct NicCounters {
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
    messages_received: AtomicU64,
    bytes_received: AtomicU64,
}

struct FabricInner {
    model: TcpCostModel,
    node_of: Vec<usize>,
    senders: Vec<Sender<NetMessage>>,
    nic_counters: Vec<NicCounters>,
    flows_per_nic: AtomicUsize,
}

/// A simulated TCP network connecting a set of endpoints spread over nodes.
///
/// The fabric is cheap to clone (it is an `Arc` internally); endpoints are
/// taken out once each and owned by the rank that receives on them.
#[derive(Clone)]
pub struct TcpFabric {
    inner: Arc<FabricInner>,
    receivers: Arc<Mutex<Vec<Option<Receiver<NetMessage>>>>>,
}

impl std::fmt::Debug for TcpFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpFabric")
            .field("endpoints", &self.inner.node_of.len())
            .field("nic", &self.inner.model.nic)
            .finish()
    }
}

impl TcpFabric {
    /// Build a fabric from a configuration.
    pub fn new(config: TcpFabricConfig) -> Self {
        let n = config.node_of.len();
        let n_nodes = config.node_of.iter().copied().max().map_or(1, |m| m + 1);
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        let mut nic_counters = Vec::with_capacity(n_nodes);
        nic_counters.resize_with(n_nodes, NicCounters::default);
        TcpFabric {
            inner: Arc::new(FabricInner {
                model: TcpCostModel::of(config.nic),
                node_of: config.node_of,
                senders,
                nic_counters,
                flows_per_nic: AtomicUsize::new(config.flows_per_nic.max(1)),
            }),
            receivers: Arc::new(Mutex::new(receivers)),
        }
    }

    /// Number of endpoints.
    pub fn endpoints(&self) -> usize {
        self.inner.node_of.len()
    }

    /// Node hosting endpoint `i`.
    pub fn node_of(&self, i: usize) -> usize {
        self.inner.node_of[i]
    }

    /// The cost model in force.
    pub fn model(&self) -> &TcpCostModel {
        &self.inner.model
    }

    /// Set the number of flows assumed to share each NIC (bandwidth share).
    pub fn set_flows_per_nic(&self, flows: usize) {
        self.inner
            .flows_per_nic
            .store(flows.max(1), Ordering::Relaxed);
    }

    /// Current flows-per-NIC setting.
    pub fn flows_per_nic(&self) -> usize {
        self.inner.flows_per_nic.load(Ordering::Relaxed)
    }

    /// Take ownership of endpoint `i` (its receive side). Panics if taken twice.
    pub fn take_endpoint(&self, i: usize) -> TcpEndpoint {
        let rx = self.receivers.lock()[i]
            .take()
            .expect("endpoint already taken");
        TcpEndpoint {
            fabric: self.clone(),
            index: i,
            rx,
            stash: Vec::new(),
        }
    }

    /// Per-node NIC statistics.
    pub fn nic_stats(&self, node: usize) -> NicStats {
        let c = &self.inner.nic_counters[node];
        NicStats {
            messages_sent: c.messages_sent.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            messages_received: c.messages_received.load(Ordering::Relaxed),
            bytes_received: c.bytes_received.load(Ordering::Relaxed),
        }
    }

    /// Send `payload` from endpoint `src` to endpoint `dst`.
    ///
    /// `now` is the sender's current virtual time. The returned timing gives
    /// the sender-side occupancy and the arrival time at the destination; the
    /// payload itself is delivered immediately on the functional channel and
    /// carries the arrival timestamp for the receiver's clock merge.
    pub fn send(&self, src: usize, dst: usize, tag: u64, payload: Bytes, now: SimNs) -> SendTiming {
        let inner = &self.inner;
        let bytes = payload.len();
        let src_node = inner.node_of[src];
        let dst_node = inner.node_of[dst];
        let (sender_busy_until, arrival) = if src_node == dst_node {
            // Same node: kernel loopback, no NIC traversal, no bandwidth
            // share, no NIC counters. The sender is busy for the copies and
            // stack time; delivery adds only the loopback latency.
            let latency = inner.model.loopback_latency_ns();
            let busy = now + (inner.model.loopback_time(bytes) - latency).max(0.0);
            (busy, busy + latency)
        } else {
            let share = 1.0 / inner.flows_per_nic.load(Ordering::Relaxed) as f64;
            // Sender occupancy: MPI/socket overhead, intermediate copy,
            // packetization and serialization at this flow's share of the NIC.
            let occupancy =
                inner.model.mpi_message_time(bytes, share) - inner.model.base_latency_ns;
            let busy = now + occupancy.max(0.0);
            inner.nic_counters[src_node]
                .messages_sent
                .fetch_add(1, Ordering::Relaxed);
            inner.nic_counters[src_node]
                .bytes_sent
                .fetch_add(bytes as u64, Ordering::Relaxed);
            inner.nic_counters[dst_node]
                .messages_received
                .fetch_add(1, Ordering::Relaxed);
            inner.nic_counters[dst_node]
                .bytes_received
                .fetch_add(bytes as u64, Ordering::Relaxed);
            // Arrival adds the one-way wire latency on top of the occupancy.
            (busy, busy + inner.model.base_latency_ns)
        };

        let msg = NetMessage {
            src,
            dst,
            tag,
            payload,
            depart: now,
            arrival,
        };
        // Unbounded channel: never blocks, receiver may not exist any more
        // during teardown — ignore that case.
        let _ = inner.senders[dst].send(msg);
        SendTiming {
            sender_busy_until,
            arrival,
        }
    }
}

/// The receive side of one endpoint.
pub struct TcpEndpoint {
    fabric: TcpFabric,
    index: usize,
    rx: Receiver<NetMessage>,
    /// Messages received but not yet matched (by tag / source).
    stash: Vec<NetMessage>,
}

impl std::fmt::Debug for TcpEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpEndpoint")
            .field("index", &self.index)
            .field("stashed", &self.stash.len())
            .finish()
    }
}

impl TcpEndpoint {
    /// Global index of this endpoint.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The fabric this endpoint belongs to.
    pub fn fabric(&self) -> &TcpFabric {
        &self.fabric
    }

    /// Send from this endpoint (convenience wrapper over [`TcpFabric::send`]).
    pub fn send(&self, dst: usize, tag: u64, payload: Bytes, now: SimNs) -> SendTiming {
        self.fabric.send(self.index, dst, tag, payload, now)
    }

    /// Blocking receive of the next message that satisfies `pred`, searching
    /// stashed (earlier unmatched) messages first.
    pub fn recv_match(&mut self, mut pred: impl FnMut(&NetMessage) -> bool) -> NetMessage {
        if let Some(pos) = self.stash.iter().position(&mut pred) {
            return self.stash.remove(pos);
        }
        loop {
            let msg = self
                .rx
                .recv()
                .expect("fabric dropped while endpoint still receiving");
            if pred(&msg) {
                return msg;
            }
            self.stash.push(msg);
        }
    }

    /// Blocking receive of the next message from any source with any tag.
    pub fn recv_any(&mut self) -> NetMessage {
        self.recv_match(|_| true)
    }

    /// Non-blocking receive of a message satisfying `pred`.
    pub fn try_recv_match(
        &mut self,
        mut pred: impl FnMut(&NetMessage) -> bool,
    ) -> Option<NetMessage> {
        if let Some(pos) = self.stash.iter().position(&mut pred) {
            return Some(self.stash.remove(pos));
        }
        loop {
            match self.rx.try_recv() {
                Ok(msg) => {
                    if pred(&msg) {
                        return Some(msg);
                    }
                    self.stash.push(msg);
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return None,
            }
        }
    }

    /// Non-destructive look at the message [`TcpEndpoint::try_recv_match`]
    /// would return for `pred`: takes delivery of everything queued (arrival
    /// order is kept in the stash), then finds the first match.
    pub fn peek_match(&mut self, mut pred: impl FnMut(&NetMessage) -> bool) -> Option<&NetMessage> {
        self.drain();
        self.stash.iter().find(|m| pred(m))
    }

    /// Number of messages waiting: takes delivery of everything queued, then
    /// counts the stash.
    pub fn pending(&mut self) -> usize {
        self.drain();
        self.stash.len()
    }

    /// Move every message queued in the fabric channel into the endpoint's
    /// local stash without matching, returning how many were moved. Lets an
    /// MPI progress engine take delivery of arrived traffic while the rank is
    /// computing; later receives match against the stash first, preserving
    /// arrival order.
    pub fn drain(&mut self) -> usize {
        let mut moved = 0usize;
        while let Ok(msg) = self.rx.try_recv() {
            self.stash.push(msg);
            moved += 1;
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(n: usize) -> TcpFabric {
        TcpFabric::new(TcpFabricConfig::two_nodes_split(
            TcpNic::StandardEthernet,
            n,
        ))
    }

    #[test]
    fn two_node_split_layout() {
        let cfg = TcpFabricConfig::two_nodes_split(TcpNic::StandardEthernet, 4);
        assert_eq!(cfg.node_of, vec![0, 0, 1, 1]);
        let cfg = TcpFabricConfig::two_nodes_split(TcpNic::StandardEthernet, 5);
        assert_eq!(cfg.node_of, vec![0, 0, 0, 1, 1]);
        let cfg = TcpFabricConfig::round_robin(TcpNic::MellanoxCx6Dx, 4, 2);
        assert_eq!(cfg.node_of, vec![0, 1, 0, 1]);
    }

    #[test]
    fn send_delivers_payload_and_timestamps() {
        let f = fabric(2);
        let mut ep1 = f.take_endpoint(1);
        let timing = f.send(0, 1, 42, Bytes::from_static(b"ping"), 1000.0);
        assert!(timing.arrival > timing.sender_busy_until);
        assert!(timing.sender_busy_until > 1000.0);
        let msg = ep1.recv_any();
        assert_eq!(msg.tag, 42);
        assert_eq!(&msg.payload[..], b"ping");
        assert_eq!(msg.arrival, timing.arrival);
    }

    #[test]
    fn ethernet_small_message_arrival_near_anchor() {
        // One-way MPI latency for a small message over Ethernet ≈ 160 µs.
        let f = fabric(2);
        let timing = f.send(0, 1, 0, Bytes::from_static(&[0u8; 8]), 0.0);
        let us = timing.arrival / 1000.0;
        assert!((150.0..175.0).contains(&us), "{us}");
    }

    #[test]
    fn mellanox_faster_than_ethernet() {
        let eth = fabric(2);
        let mlx = TcpFabric::new(TcpFabricConfig::two_nodes_split(TcpNic::MellanoxCx6Dx, 2));
        let t_eth = eth.send(0, 1, 0, Bytes::from_static(&[0u8; 8]), 0.0);
        let t_mlx = mlx.send(0, 1, 0, Bytes::from_static(&[0u8; 8]), 0.0);
        assert!(t_mlx.arrival < t_eth.arrival);
    }

    #[test]
    fn recv_match_by_tag_stashes_others() {
        let f = fabric(2);
        let mut ep1 = f.take_endpoint(1);
        f.send(0, 1, 1, Bytes::from_static(b"first"), 0.0);
        f.send(0, 1, 2, Bytes::from_static(b"second"), 0.0);
        let second = ep1.recv_match(|m| m.tag == 2);
        assert_eq!(&second.payload[..], b"second");
        assert_eq!(ep1.pending(), 1);
        let first = ep1.recv_match(|m| m.tag == 1);
        assert_eq!(&first.payload[..], b"first");
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let f = fabric(2);
        let mut ep1 = f.take_endpoint(1);
        assert!(ep1.try_recv_match(|_| true).is_none());
        f.send(0, 1, 9, Bytes::new(), 0.0);
        assert!(ep1.try_recv_match(|m| m.tag == 9).is_some());
    }

    #[test]
    fn flow_share_slows_large_transfers() {
        let f = TcpFabric::new(TcpFabricConfig::two_nodes_split(TcpNic::MellanoxCx6Dx, 4));
        let payload = Bytes::from(vec![0u8; 1 << 20]);
        let solo = f.send(0, 2, 0, payload.clone(), 0.0);
        f.set_flows_per_nic(4);
        assert_eq!(f.flows_per_nic(), 4);
        let shared = f.send(0, 2, 0, payload, 0.0);
        assert!(shared.arrival > solo.arrival);
    }

    #[test]
    fn nic_stats_accumulate() {
        let f = fabric(4);
        f.send(0, 2, 0, Bytes::from(vec![0u8; 100]), 0.0);
        f.send(1, 3, 0, Bytes::from(vec![0u8; 50]), 0.0);
        let node0 = f.nic_stats(0);
        let node1 = f.nic_stats(1);
        assert_eq!(node0.messages_sent, 2);
        assert_eq!(node0.bytes_sent, 150);
        assert_eq!(node1.messages_received, 2);
        assert_eq!(node1.bytes_received, 150);
    }

    #[test]
    #[should_panic(expected = "endpoint already taken")]
    fn endpoint_cannot_be_taken_twice() {
        let f = fabric(2);
        let _a = f.take_endpoint(0);
        let _b = f.take_endpoint(0);
    }
}
