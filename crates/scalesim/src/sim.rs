//! The superstep simulator with fluid NIC-bandwidth sharing.

use crate::network::NetworkParams;

/// One point-to-point message of a superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// One superstep: per-rank compute followed by a message exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct Superstep {
    /// Compute time per rank, nanoseconds (identical on every rank; the app
    /// proxies model load imbalance by inflating this value).
    pub compute_ns: f64,
    /// Messages exchanged after the compute phase. Messages in the same
    /// superstep proceed concurrently under the fluid bandwidth-sharing model.
    pub messages: Vec<Message>,
    /// Additional *serialised* small-message rounds (collective reductions,
    /// per-block halo messages issued back-to-back): each round costs one
    /// inter-node latency on the critical path.
    pub serial_latency_rounds: usize,
    /// Serialised *intra-node* rounds: the same-host phases of two-level
    /// (hierarchical) collectives, each costing one intra-node latency on the
    /// critical path instead of an inter-node one.
    pub local_latency_rounds: usize,
    /// Fraction of the communication phase hidden behind the compute phase
    /// (`0.0` = fully serialized blocking communication, `1.0` = ideal
    /// nonblocking overlap). Models apps that post `i*` collectives /
    /// `isend`s before computing and complete them afterwards: the hidden
    /// portion is bounded by the compute time actually available.
    pub overlap: f64,
    /// Per-occurrence *software* overhead on the critical path: collective
    /// plan construction, request setup — work the calling thread performs
    /// before anything is posted, so overlap can never hide it. Plan-cached
    /// and persistent-collective formulations drive it toward zero (the
    /// library's `BENCH_collectives.json` `plan_build`/`persistent` sweeps
    /// measure ~30–700 ns per one-shot collective call vs ~60–200 ns per
    /// persistent start).
    pub sw_overhead_ns: f64,
    /// How many times this superstep repeats back-to-back.
    pub repeat: usize,
}

impl Superstep {
    /// A compute-only superstep.
    pub fn compute_only(compute_ns: f64, repeat: usize) -> Self {
        Superstep {
            compute_ns,
            messages: Vec::new(),
            serial_latency_rounds: 0,
            local_latency_rounds: 0,
            overlap: 0.0,
            sw_overhead_ns: 0.0,
            repeat,
        }
    }
}

/// Result of simulating an application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Total simulated execution time, seconds.
    pub total_s: f64,
    /// Time spent in communication, seconds.
    pub comm_s: f64,
    /// Time spent in computation, seconds.
    pub compute_s: f64,
}

impl SimOutcome {
    /// Fraction of the execution spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        if self.total_s <= 0.0 {
            0.0
        } else {
            self.comm_s / self.total_s
        }
    }
}

/// The cluster + network simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    params: NetworkParams,
    ranks: usize,
    ranks_per_node: usize,
}

impl Simulator {
    /// Create a simulator for `nodes` nodes with `ranks_per_node` ranks each.
    pub fn new(params: NetworkParams, nodes: usize, ranks_per_node: usize) -> Self {
        Simulator {
            params,
            ranks: nodes * ranks_per_node,
            ranks_per_node: ranks_per_node.max(1),
        }
    }

    /// Total rank count.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Node hosting a rank (block placement).
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// Simulate one superstep (a single occurrence), returning
    /// `(step_time_ns, comm_time_ns)`.
    ///
    /// Communication uses a fluid model: every inter-node message gets the
    /// sender/receiver NIC bandwidth divided by the number of inter-node flows
    /// crowding that NIC in this step; intra-node messages share the node's
    /// memory bandwidth the same way. The communication phase of the step ends
    /// when the slowest message finishes.
    pub fn step_time(&self, step: &Superstep) -> (f64, f64) {
        let p = &self.params;
        let nodes = self.ranks.div_ceil(self.ranks_per_node);
        // Count flows per NIC (inter-node only) and per node memory system.
        let mut nic_flows = vec![0usize; nodes];
        let mut mem_flows = vec![0usize; nodes];
        for m in &step.messages {
            let (sn, dn) = (self.node_of(m.src), self.node_of(m.dst));
            if sn != dn {
                nic_flows[sn] += 1;
                nic_flows[dn] += 1;
            } else {
                mem_flows[sn] += 1;
            }
        }
        let serial_ns = step.serial_latency_rounds as f64 * p.inter_latency_ns
            + step.local_latency_rounds as f64 * p.intra_latency_ns;
        let mut comm_ns: f64 = 0.0;
        for m in &step.messages {
            let (sn, dn) = (self.node_of(m.src), self.node_of(m.dst));
            let t = if sn != dn {
                let crowd = nic_flows[sn].max(nic_flows[dn]).max(1) as f64;
                let bw = p.inter_bw_gbps / crowd;
                p.inter_latency_ns + m.bytes as f64 / (bw * 1e9) * 1e9
            } else {
                let crowd = mem_flows[sn].max(1) as f64;
                let bw = p.intra_bw_gbps / crowd;
                p.intra_latency_ns + m.bytes as f64 / (bw * 1e9) * 1e9
            };
            comm_ns = comm_ns.max(t);
        }
        let comm_ns = comm_ns + serial_ns;
        // Overlap model: a fraction of the communication is posted
        // nonblocking before the compute phase and progressed during it, so
        // up to `overlap · comm` hides behind compute (never more than the
        // compute that exists to hide it in).
        let hidden = (comm_ns * step.overlap.clamp(0.0, 1.0)).min(step.compute_ns);
        // Software overhead (planning, request setup) runs before anything is
        // posted: it is exposed no matter how much overlap the exchange has.
        let exposed = comm_ns - hidden + step.sw_overhead_ns;
        (step.compute_ns + exposed, exposed)
    }

    /// Simulate a whole application (a list of supersteps with repeat counts).
    pub fn run(&self, steps: &[Superstep]) -> SimOutcome {
        let mut total_ns = 0.0;
        let mut comm_ns = 0.0;
        for step in steps {
            let (t, c) = self.step_time(step);
            let reps = step.repeat.max(1) as f64;
            total_ns += t * reps;
            comm_ns += c * reps;
        }
        SimOutcome {
            total_s: total_ns / 1e9,
            comm_s: comm_ns / 1e9,
            compute_s: (total_ns - comm_ns) / 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NetworkParams, TransportClass};

    fn sim(nodes: usize) -> Simulator {
        Simulator::new(
            NetworkParams::for_transport(TransportClass::CxlShm),
            nodes,
            8,
        )
    }

    #[test]
    fn node_placement_is_blocked() {
        let s = sim(4);
        assert_eq!(s.ranks(), 32);
        assert_eq!(s.node_of(0), 0);
        assert_eq!(s.node_of(7), 0);
        assert_eq!(s.node_of(8), 1);
        assert_eq!(s.node_of(31), 3);
    }

    #[test]
    fn compute_only_step() {
        let s = sim(2);
        let step = Superstep {
            compute_ns: 1e6,
            messages: vec![],
            serial_latency_rounds: 0,
            local_latency_rounds: 0,
            overlap: 0.0,
            sw_overhead_ns: 0.0,
            repeat: 10,
        };
        let out = s.run(&[step]);
        assert!((out.total_s - 0.01).abs() < 1e-9);
        assert_eq!(out.comm_s, 0.0);
        assert_eq!(out.comm_fraction(), 0.0);
    }

    #[test]
    fn inter_node_message_slower_than_intra() {
        let s = sim(2);
        let intra = Superstep {
            compute_ns: 0.0,
            messages: vec![Message {
                src: 0,
                dst: 1,
                bytes: 1 << 20,
            }],
            serial_latency_rounds: 0,
            local_latency_rounds: 0,
            overlap: 0.0,
            sw_overhead_ns: 0.0,
            repeat: 1,
        };
        let inter = Superstep {
            compute_ns: 0.0,
            messages: vec![Message {
                src: 0,
                dst: 8,
                bytes: 1 << 20,
            }],
            serial_latency_rounds: 0,
            local_latency_rounds: 0,
            overlap: 0.0,
            sw_overhead_ns: 0.0,
            repeat: 1,
        };
        let (t_intra, _) = s.step_time(&intra);
        let (t_inter, _) = s.step_time(&inter);
        assert!(t_inter > t_intra);
    }

    #[test]
    fn nic_sharing_slows_concurrent_flows() {
        let s = sim(2);
        let one = Superstep {
            compute_ns: 0.0,
            messages: vec![Message {
                src: 0,
                dst: 8,
                bytes: 10 << 20,
            }],
            serial_latency_rounds: 0,
            local_latency_rounds: 0,
            overlap: 0.0,
            sw_overhead_ns: 0.0,
            repeat: 1,
        };
        let many: Vec<Message> = (0..8)
            .map(|i| Message {
                src: i,
                dst: 8 + i,
                bytes: 10 << 20,
            })
            .collect();
        let eight = Superstep {
            compute_ns: 0.0,
            messages: many,
            serial_latency_rounds: 0,
            local_latency_rounds: 0,
            overlap: 0.0,
            sw_overhead_ns: 0.0,
            repeat: 1,
        };
        let (t_one, _) = s.step_time(&one);
        let (t_eight, _) = s.step_time(&eight);
        assert!(t_eight > t_one * 4.0, "{t_eight} vs {t_one}");
    }

    #[test]
    fn ethernet_comm_slower_than_cxl() {
        let step = Superstep {
            compute_ns: 0.0,
            messages: vec![Message {
                src: 0,
                dst: 8,
                bytes: 64 * 1024,
            }],
            serial_latency_rounds: 0,
            local_latency_rounds: 0,
            overlap: 0.0,
            sw_overhead_ns: 0.0,
            repeat: 100,
        };
        let cxl = Simulator::new(NetworkParams::for_transport(TransportClass::CxlShm), 2, 8)
            .run(std::slice::from_ref(&step));
        let eth = Simulator::new(
            NetworkParams::for_transport(TransportClass::TcpEthernet),
            2,
            8,
        )
        .run(std::slice::from_ref(&step));
        assert!(eth.comm_s > cxl.comm_s);
    }
}
