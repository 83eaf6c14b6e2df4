//! Multi-node cluster simulation (the paper's "multiple nodes" tests).
//!
//! Three server nodes — each with NVDIMM + SSD + HDD, as in Fig. 1 — share
//! one storage manager; VMDKs migrate across nodes over the interconnect
//! in [`crate::net`]: copy rounds and mirrored writes traverse a modeled
//! full-duplex link (configurable bandwidth, latency and in-flight window,
//! FIFO contention), and the manager folds the hop cost into its placement
//! and balancing arithmetic. The engine is
//! [`crate::NodeSim::with_nodes`]; this module holds [`ClusterReport`], its
//! report plus the per-link statistics of [`crate::NodeSim::link_stats`].

use crate::net::NodeLinkStats;
use crate::node::NodeReport;
use nvhsm_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Cluster run results (a [`NodeReport`] with per-node convenience views).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterReport {
    /// The underlying engine report (devices carry their node index).
    pub report: NodeReport,
    /// Number of nodes.
    pub nodes: usize,
    /// Per-node interconnect statistics (both directions of each link).
    pub links: Vec<NodeLinkStats>,
}

impl ClusterReport {
    /// The busiest link direction's utilization over a measured window of
    /// `span`: max over nodes and directions of busy-time / span.
    pub fn max_link_utilization(&self, span: SimDuration) -> f64 {
        let span_ns = span.as_ns().max(1) as f64;
        self.links
            .iter()
            .flat_map(|l| [l.tx.busy, l.rx.busy])
            .map(|busy| busy.as_ns() as f64 / span_ns)
            .fold(0.0, f64::max)
    }

    /// Mean device latency per node, µs.
    pub fn per_node_mean_latency_us(&self) -> Vec<f64> {
        (0..self.nodes)
            .map(|n| {
                let devs: Vec<_> = self
                    .report
                    .devices
                    .iter()
                    .filter(|d| d.node == n && d.io_count > 0)
                    .collect();
                if devs.is_empty() {
                    0.0
                } else {
                    devs.iter().map(|d| d.mean_latency_us).sum::<f64>() / devs.len() as f64
                }
            })
            .collect()
    }
}
