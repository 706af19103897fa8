//! RA-DWCS: the resource-aware dispatcher of §3.3.
//!
//! Plain DWCS decides *when* each request class is served; it is blind to
//! *where* requests go. The paper's resource-aware variant feeds SysProf's
//! per-server measurements (CPU load, queue depth, per-interaction kernel
//! time) into the dispatch decision, routing requests "to the server that
//! was lightly loaded" so the high-priority class barely degrades when a
//! back-end server becomes overloaded.

use std::collections::HashMap;

use simcore::{NodeId, SimTime};

/// A load report for one back-end server, as produced by the global
/// performance analyzer from SysProf measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerLoad {
    /// CPU busy fraction over the last report window (0.0–1.0+).
    pub cpu_utilization: f64,
    /// Mean per-interaction kernel time over the window, in microseconds
    /// (grows with kernel-buffer queueing — the paper's early-warning
    /// signal).
    pub kernel_time_us: f64,
    /// When the report was generated (subscriber wall clock).
    pub reported_at: SimTime,
}

impl ServerLoad {
    /// Weighted load score; higher = more loaded. CPU utilization
    /// dominates; kernel queueing time breaks ties and catches saturation
    /// that utilization alone under-reports.
    pub fn score(&self) -> f64 {
        self.cpu_utilization + self.kernel_time_us / 10_000.0
    }
}

/// The resource-aware dispatcher's view of the back end: the most recent
/// load report per server. The dispatcher itself (which also knows each
/// server's connection capacity) picks the least-[`score`](ServerLoad::score)d.
#[derive(Debug, Default)]
pub struct RaDispatcher {
    loads: HashMap<NodeId, ServerLoad>,
}

impl RaDispatcher {
    /// No load information yet.
    pub fn new() -> Self {
        RaDispatcher::default()
    }

    /// Ingests a load report (from the GPA subscription).
    pub fn update_load(&mut self, server: NodeId, load: ServerLoad) {
        self.loads.insert(server, load);
    }

    /// The latest report for a server, if any.
    pub fn load_of(&self, server: NodeId) -> Option<&ServerLoad> {
        self.loads.get(&server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(cpu: f64, ktime: f64, at_ms: u64) -> ServerLoad {
        ServerLoad {
            cpu_utilization: cpu,
            kernel_time_us: ktime,
            reported_at: SimTime::from_millis(at_ms),
        }
    }

    #[test]
    fn kernel_time_breaks_cpu_ties() {
        assert!(load(0.5, 9_000.0, 0).score() > load(0.5, 100.0, 0).score());
        assert!(load(0.9, 100.0, 0).score() > load(0.2, 100.0, 0).score());
    }

    #[test]
    fn load_of_returns_latest() {
        let mut d = RaDispatcher::new();
        assert!(d.load_of(NodeId(1)).is_none());
        d.update_load(NodeId(1), load(0.4, 1.0, 5));
        d.update_load(NodeId(1), load(0.6, 2.0, 6));
        assert_eq!(d.load_of(NodeId(1)).unwrap().cpu_utilization, 0.6);
    }
}
