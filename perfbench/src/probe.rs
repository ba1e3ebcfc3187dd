//! A workload wrapper that times each critical section in simulated cycles.
//!
//! The simulator's `Action::WaitUntil(t)` with `t` at or before the current
//! cycle is a free clock read: the core resumes the workload in the same
//! cycle with `last` = now, charging nothing. The probe brackets every
//! `Acquire` and `Release` of the wrapped workload with such reads, so it
//! measures lock wait (acquire issued → granted) and critical-section
//! latency (acquire issued → release retired) without changing the
//! simulated trajectory, and without the stats registry. It also counts
//! completed critical sections per lock, which the output checks use.

use glocks_cpu::{Action, Workload};
use glocks_sim_base::{Cycle, LockId};
use std::cell::RefCell;
use std::rc::Rc;

/// Samples gathered by every probe of one run.
#[derive(Default)]
pub struct ProbeLog {
    /// Acquire issued → lock granted, in cycles, one per critical section.
    pub wait: Vec<u64>,
    /// Acquire issued → release retired, in cycles.
    pub latency: Vec<u64>,
    /// Completed critical sections, indexed by lock id.
    pub releases: Vec<u64>,
}

pub type SharedLog = Rc<RefCell<ProbeLog>>;

/// Where the probe is between two `next` calls.
#[derive(Clone, Copy)]
enum Pending {
    /// Nothing of the probe's own in flight.
    Idle,
    /// Issued the clock read that stamps an acquire request.
    ReqClock(LockId),
    /// Issued the wrapped workload's `Acquire`.
    Acquiring,
    /// Issued the clock read that stamps the grant; holds the `last` the
    /// acquire returned, which the wrapped workload must see.
    GrantClock(u64),
    /// Issued the wrapped workload's `Release`.
    Releasing(LockId),
    /// Issued the clock read that stamps the release.
    ReleaseClock(LockId, u64),
}

pub struct Probe {
    inner: Box<dyn Workload>,
    log: SharedLog,
    pending: Pending,
    requested_at: Cycle,
}

impl Probe {
    pub fn wrap(inner: Box<dyn Workload>, log: &SharedLog) -> Box<dyn Workload> {
        Box::new(Probe {
            inner,
            log: Rc::clone(log),
            pending: Pending::Idle,
            requested_at: 0,
        })
    }
}

impl Workload for Probe {
    fn next(&mut self, last: u64) -> Action {
        let last = match std::mem::replace(&mut self.pending, Pending::Idle) {
            Pending::Idle => last,
            Pending::ReqClock(lock) => {
                self.requested_at = last;
                self.pending = Pending::Acquiring;
                return Action::Acquire(lock);
            }
            Pending::Acquiring => {
                self.pending = Pending::GrantClock(last);
                return Action::WaitUntil(0);
            }
            Pending::GrantClock(saved) => {
                self.log.borrow_mut().wait.push(last - self.requested_at);
                saved
            }
            Pending::Releasing(lock) => {
                self.pending = Pending::ReleaseClock(lock, last);
                return Action::WaitUntil(0);
            }
            Pending::ReleaseClock(lock, saved) => {
                let mut log = self.log.borrow_mut();
                log.latency.push(last - self.requested_at);
                let i = usize::from(lock.0);
                if log.releases.len() <= i {
                    log.releases.resize(i + 1, 0);
                }
                log.releases[i] += 1;
                saved
            }
        };
        match self.inner.next(last) {
            Action::Acquire(lock) => {
                self.pending = Pending::ReqClock(lock);
                Action::WaitUntil(0)
            }
            Action::Release(lock) => {
                self.pending = Pending::Releasing(lock);
                Action::Release(lock)
            }
            other => other,
        }
    }

    fn publish_stats(&self) {
        self.inner.publish_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glocks_locks::LockAlgorithm;
    use glocks_sim::{LockMapping, Simulation, SimulationOptions};
    use glocks_sim_base::CmpConfig;
    use glocks_workloads::{BenchConfig, BenchKind};

    /// The stats dump (every counter and histogram the simulator keeps) of
    /// a 16-core SCTR run, with or without probes around the workloads.
    fn dump(algo: LockAlgorithm, probed: bool) -> (String, ProbeLog) {
        glocks_stats::enable(glocks_stats::StatsConfig::default());
        let bench = BenchConfig {
            kind: BenchKind::Sctr,
            threads: 16,
            scale: 200,
            seed: 1,
        };
        let inst = bench.build();
        let log: SharedLog = Rc::new(RefCell::new(ProbeLog::default()));
        let workloads = if probed {
            inst.workloads
                .into_iter()
                .map(|w| Probe::wrap(w, &log))
                .collect()
        } else {
            inst.workloads
        };
        let cfg = CmpConfig::paper_baseline().with_cores(16);
        let mapping = LockMapping::uniform(algo, 1);
        let sim = Simulation::new(
            &cfg,
            &mapping,
            workloads,
            &inst.init,
            SimulationOptions::default(),
        );
        let (report, _) = sim.run().expect("SCTR completes");
        glocks_stats::disable();
        let json = report.stats.expect("stats were on").to_json();
        (
            json,
            Rc::try_unwrap(log)
                .ok()
                .expect("simulation dropped")
                .into_inner(),
        )
    }

    #[test]
    fn probes_leave_the_simulation_unchanged() {
        for algo in [LockAlgorithm::Glock, LockAlgorithm::Mcs] {
            let (bare, _) = dump(algo, false);
            let (probed, log) = dump(algo, true);
            assert_eq!(bare, probed, "{algo:?}: probes changed the stats dump");
            assert_eq!(log.wait.len(), 200);
            assert_eq!(log.latency.len(), 200);
            assert_eq!(log.releases, vec![200]);
            assert!(log.wait.iter().zip(&log.latency).all(|(w, l)| w < l));
        }
    }
}
