//! The metrics a simulation run produces — everything the paper's
//! evaluation section reports.

use glocks::{GlockStats, PoolStats};
use glocks_cpu::Breakdown;
use glocks_energy::EnergyReport;
use glocks_noc::{TrafficClass, TrafficStats};
use glocks_sim_base::Cycle;

/// Network-traffic totals, frozen at the end of a run (Figure 9's bars).
#[derive(Clone, Copy, Debug, Default)]
pub struct TrafficSnapshot {
    pub request_bytes: u64,
    pub reply_bytes: u64,
    pub coherence_bytes: u64,
    pub total_messages: u64,
    pub total_hops: u64,
}

impl TrafficSnapshot {
    pub fn from_stats(s: &TrafficStats) -> Self {
        TrafficSnapshot {
            request_bytes: s.bytes(TrafficClass::Request),
            reply_bytes: s.bytes(TrafficClass::Reply),
            coherence_bytes: s.bytes(TrafficClass::Coherence),
            total_messages: s.total_messages(),
            total_hops: s.total_hops(),
        }
    }

    pub fn total_bytes(&self) -> u64 {
        self.request_bytes + self.reply_bytes + self.coherence_bytes
    }
}

/// Everything measured over one parallel-phase run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Parallel-phase execution time in cycles (the last thread's finish).
    pub cycles: Cycle,
    /// Per-thread cycle attribution (Busy / Memory / Lock / Barrier).
    pub breakdowns: Vec<Breakdown>,
    pub traffic: TrafficSnapshot,
    pub energy: EnergyReport,
    /// Figure 10's metric: total energy × cycles².
    pub ed2p: f64,
    /// Eq. 3: `lcr[lock][grac]`, summing to 1 over all locks and grACs.
    pub lcr: Vec<Vec<f64>>,
    /// Total acquires per lock.
    pub acquires: Vec<u64>,
    /// Mean acquire→grant wait per lock, in cycles.
    pub mean_wait: Vec<f64>,
    /// Per hardware-lock G-line network statistics.
    pub glocks: Vec<GlockStats>,
    /// Cycle at which each thread finished (multiprogramming reports).
    pub finished_at: Vec<Cycle>,
    /// Binding-table statistics when dynamic GLock sharing was active.
    pub pool: Option<PoolStats>,
    /// Full typed-stats snapshot, present when a stats session was active
    /// during the run (`glocks_stats::enable`). `None` costs nothing.
    pub stats: Option<glocks_stats::StatsDump>,
    /// Cycles the run loop executed one by one rather than fast-forwarded
    /// (all of them under `--dense`). A host execution figure, kept out of
    /// the stats dump so dense and event-driven dumps stay identical.
    pub dense_cycles: Cycle,
}

impl SimReport {
    /// Fleet-average fractions `[busy, memory, lock, barrier]` — the
    /// composition of Figure 8's stacked bars.
    pub fn avg_fractions(&self) -> [f64; 4] {
        let mut total = Breakdown::default();
        for b in &self.breakdowns {
            total.merge(b);
        }
        total.fractions()
    }

    /// Total instructions executed by all threads.
    pub fn instructions(&self) -> u64 {
        self.breakdowns.iter().map(|b| b.instructions).sum()
    }

    /// The fraction of aggregate thread time spent in lock operations.
    pub fn lock_fraction(&self) -> f64 {
        self.avg_fractions()[2]
    }

    /// Aggregate contention rate for grACs above a threshold (the paper
    /// quotes e.g. "contention close to 80% for grACs higher than 20").
    pub fn aggregate_lcr_above(&self, grac_threshold: usize) -> f64 {
        self.lcr
            .iter()
            .map(|per_lock| {
                per_lock
                    .iter()
                    .enumerate()
                    .filter(|(g, _)| *g > grac_threshold)
                    .map(|(_, v)| v)
                    .sum::<f64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_snapshot_totals() {
        let mut s = TrafficStats::default();
        s.on_link_traversal(TrafficClass::Request, 8);
        s.on_link_traversal(TrafficClass::Reply, 72);
        s.on_link_traversal(TrafficClass::Coherence, 8);
        let snap = TrafficSnapshot::from_stats(&s);
        assert_eq!(snap.total_bytes(), 88);
        assert_eq!(snap.total_hops, 3);
    }

    #[test]
    fn aggregate_lcr_filters_by_grac() {
        let report = SimReport {
            cycles: 100,
            breakdowns: vec![],
            traffic: TrafficSnapshot::default(),
            energy: Default::default(),
            ed2p: 0.0,
            lcr: vec![vec![0.0, 0.1, 0.2, 0.3, 0.4]],
            acquires: vec![1],
            mean_wait: vec![0.0],
            glocks: vec![],
            finished_at: vec![],
            pool: None,
            stats: None,
            dense_cycles: 0,
        };
        assert!((report.aggregate_lcr_above(2) - 0.7).abs() < 1e-12);
        assert!((report.aggregate_lcr_above(0) - 1.0).abs() < 1e-12);
    }
}
