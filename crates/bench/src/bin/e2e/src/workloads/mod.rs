//! The five workloads, and why each is here.

pub mod app_mix;
pub mod coll_mix;
pub mod p2p_large;
pub mod p2p_small;
mod pair;
pub mod rma_mix;

use crate::harness::WorkloadFns;

/// Every workload, in the order reports list them. The `why` strings are the
/// ones in `BENCHMARK.json`.
pub static ALL: [WorkloadFns; 5] = [
    WorkloadFns::of::<p2p_small::P2pSmall>(
        "per-message software cost (matching, cell header, flush/fence, doorbell) does all the \
         work; copy path, plans, windows and contention model do almost none (Fig 8, 13.7x)",
    ),
    WorkloadFns::of::<p2p_large::P2pLarge>(
        "chunked SPSC cells, the cache simulator and the device-bandwidth model dominate, \
         matching is amortised away; rendezvous must move this and leave p2p_small alone (Fig 7)",
    ),
    WorkloadFns::of::<rma_mix::RmaMix>(
        "user rma/ windows, writes beside reads, bakery lock: pool windows used the other way \
         round from coll_mix, so a window unification that costs RMA shows (Figs 5-6, 49x/72x)",
    ),
    WorkloadFns::of::<coll_mix::CollMix>(
        "plan build/bind/cache, the progress engine and data-plane expose/pull do the work; the \
         p2p match path and rma/ do none; virtual from 8 ranks x 2 hosts, the rest from 2 ranks",
    ),
    WorkloadFns::of::<app_mix::AppMix>(
        "certified stencil, sample sort and k-means: every layer does a moderate share, so a \
         micro gain must survive here and a gain bought at another path's expense shows",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Fabric, LaunchSpec};
    use crate::tracer::UNTIMED;

    /// Every workload, one iteration per class, traced: nothing fails, every
    /// class did work on both clocks, and the spans tile the timed blocks.
    #[test]
    fn every_workload_runs_clean_at_the_smallest_scale() {
        for w in &ALL {
            let out = (w.launch)(LaunchSpec {
                ranks: 2,
                fabric: Fabric::Cxl,
                seed: 3,
                trace: true,
                scale_div: 1_000_000,
            })
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(out.total.failed, 0, "{}", w.name);
            assert!(out.setup_s > 0.0);
            assert_eq!(
                out.script.len(),
                out.labels.len(),
                "{}: one block per class",
                w.name
            );
            for (label, t) in out.labels.iter().zip(&out.per_entry) {
                assert!(t.ops > 0, "{}/{label} did nothing", w.name);
                assert!(t.wall_ns > 0.0 && t.virt_ns > 0.0, "{}/{label}", w.name);
            }
            for class in w.exact {
                assert!(
                    out.labels.iter().any(|l| l == class),
                    "{}: no class {class}",
                    w.name
                );
            }
            assert_eq!(out.spans.len(), 2);
            let timed = out.spans.iter().flatten().filter(|s| s.phase != UNTIMED);
            assert!(timed.clone().count() > 0, "{}: no timed spans", w.name);
            assert!(timed.clone().all(|s| (s.phase as usize) < out.script.len()));
            assert_eq!(out.phase_name(UNTIMED), "untimed");
        }
    }

    #[test]
    fn the_tcp_baselines_run_the_same_script() {
        let w = &ALL[0];
        let run = |fabric| {
            (w.launch)(LaunchSpec {
                ranks: 2,
                fabric,
                seed: 3,
                trace: false,
                scale_div: 1_000_000,
            })
            .unwrap()
        };
        let (cxl, eth) = (run(Fabric::Cxl), run(Fabric::Eth));
        assert_eq!(eth.total.failed, 0);
        assert_eq!(eth.total.ops, cxl.total.ops);
        // The paper's point: small messages are far slower over TCP.
        assert!(eth.total.virt_ns > 5.0 * cxl.total.virt_ns);
    }
}
