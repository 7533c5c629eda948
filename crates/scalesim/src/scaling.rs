//! The strong-scaling study driver (Figure 10).

use crate::apps::ProxyApp;
use crate::network::{NetworkParams, TransportClass};
use crate::sim::{SimOutcome, Simulator};

/// One data point of the scaling study: application × transport × node count.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Application name.
    pub app: String,
    /// Transport used.
    pub transport: TransportClass,
    /// Number of nodes.
    pub nodes: usize,
    /// Ranks per node.
    pub ranks_per_node: usize,
    /// Simulated outcome.
    pub outcome: SimOutcome,
}

/// The full study: every application on every transport at every node count,
/// with 8 ranks per node as in the paper.
#[derive(Debug, Clone, Default)]
pub struct ScalingStudy {
    points: Vec<ScalingPoint>,
}

impl ScalingStudy {
    /// The node counts of Figure 10.
    pub const NODE_COUNTS: [usize; 4] = [4, 8, 16, 32];
    /// Ranks per node used by the paper's evaluation.
    pub const RANKS_PER_NODE: usize = 8;

    /// Run the study for one application over every transport and node count.
    pub fn run_app(&mut self, app: &dyn ProxyApp) {
        for class in TransportClass::all() {
            let params = NetworkParams::for_transport(class);
            for &nodes in &Self::NODE_COUNTS {
                let sim = Simulator::new(params, nodes, Self::RANKS_PER_NODE);
                let trace = app.trace(nodes, Self::RANKS_PER_NODE, params.gflops_per_rank);
                let outcome = sim.run(&trace);
                self.points.push(ScalingPoint {
                    app: app.name().to_string(),
                    transport: class,
                    nodes,
                    ranks_per_node: Self::RANKS_PER_NODE,
                    outcome,
                });
            }
        }
    }

    /// All collected points.
    pub fn points(&self) -> &[ScalingPoint] {
        &self.points
    }

    /// Look a point up.
    pub fn get(&self, app: &str, transport: TransportClass, nodes: usize) -> Option<&ScalingPoint> {
        self.points
            .iter()
            .find(|p| p.app == app && p.transport == transport && p.nodes == nodes)
    }

    /// Render the study as the textual equivalent of Figure 10.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let apps: Vec<String> = {
            let mut a: Vec<String> = self.points.iter().map(|p| p.app.clone()).collect();
            a.dedup();
            a
        };
        for app in apps {
            out.push_str(&format!("=== {app}: strong scaling (8 ranks/node) ===\n"));
            out.push_str(&format!(
                "{:<10} {:>30} {:>15} {:>15} {:>10}\n",
                "nodes", "transport", "total (s)", "comm (s)", "comm %"
            ));
            for &nodes in &Self::NODE_COUNTS {
                for class in TransportClass::all() {
                    if let Some(p) = self.get(&app, class, nodes) {
                        out.push_str(&format!(
                            "{:<10} {:>30} {:>15.2} {:>15.2} {:>9.1}%\n",
                            nodes,
                            class.label(),
                            p.outcome.total_s,
                            p.outcome.comm_s,
                            p.outcome.comm_fraction() * 100.0
                        ));
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{CgProxy, MiniAmrProxy};

    #[test]
    fn study_covers_every_cell_of_figure_10() {
        let mut study = ScalingStudy::default();
        study.run_app(&CgProxy::tiny());
        study.run_app(&MiniAmrProxy::tiny());
        // 2 apps × 3 transports × 4 node counts.
        assert_eq!(study.points().len(), 24);
        assert!(study.get("CG", TransportClass::CxlShm, 16).is_some());
        assert!(study
            .get("miniAMR", TransportClass::TcpEthernet, 32)
            .is_some());
        assert!(study.get("CG", TransportClass::CxlShm, 3).is_none());
    }

    #[test]
    fn render_mentions_apps_and_transports() {
        let mut study = ScalingStudy::default();
        study.run_app(&CgProxy::tiny());
        let s = study.render();
        assert!(s.contains("CG"));
        assert!(s.contains("CXL-SHM"));
        assert!(s.contains("TCP over Ethernet"));
        assert!(s.contains("comm"));
    }
}
