//! Host-side self-profiling: how fast is the simulator itself?
//!
//! A [`Stopwatch`] measures wall time around a phase of host work; the
//! resulting [`BenchRecord`]s (wall seconds, simulated cycles, simulated
//! cycles per wall second) are collected thread-locally and written out as
//! `BENCH_*.json`. These files intentionally contain wall-clock numbers and
//! are therefore *not* part of the byte-identical stats dumps — they are
//! the evidence for "stats-off runs at pre-PR speed" and for tracking
//! simulator throughput across PRs.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One profiled phase of host work.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Phase label, e.g. `SCTR_GLock_16t`.
    pub label: String,
    /// Wall-clock seconds spent in the phase.
    pub wall_s: f64,
    /// Simulated cycles covered by the phase (0 for non-simulation work).
    pub sim_cycles: u64,
    /// Of those, the cycles the run loop executed one by one instead of
    /// fast-forwarding: `1 - dense_cycles / sim_cycles` is the phase's
    /// skip fraction.
    pub dense_cycles: u64,
}

impl BenchRecord {
    /// Simulated cycles per wall-clock second (the simulator's KIPS-style
    /// throughput figure). 0 when no cycles were simulated.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.sim_cycles as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

thread_local! {
    static RECORDS: RefCell<Vec<BenchRecord>> = const { RefCell::new(Vec::new()) };
}

/// A running wall-clock timer for one phase.
pub struct Stopwatch {
    label: String,
    started: Instant,
}

impl Stopwatch {
    pub fn start(label: &str) -> Self {
        Stopwatch { label: label.to_string(), started: Instant::now() }
    }

    /// Elapsed wall seconds so far.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Stop the watch and record the phase, which simulated `sim_cycles`
    /// cycles and executed `dense_cycles` of them one by one, in this
    /// thread's profile.
    pub fn stop(self, sim_cycles: u64, dense_cycles: u64) -> BenchRecord {
        let rec = BenchRecord {
            label: self.label,
            wall_s: self.started.elapsed().as_secs_f64(),
            sim_cycles,
            dense_cycles,
        };
        RECORDS.with(|r| r.borrow_mut().push(rec.clone()));
        rec
    }
}

/// Take all records collected on this thread (oldest first).
pub fn drain() -> Vec<BenchRecord> {
    RECORDS.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// Encode records as a `BENCH_*.json` document.
pub fn bench_json(records: &[BenchRecord]) -> String {
    let total_wall: f64 = records.iter().map(|r| r.wall_s).sum();
    let total_cycles: u64 = records.iter().map(|r| r.sim_cycles).sum();
    let mut root = BTreeMap::new();
    root.insert(
        "phases".to_string(),
        Json::Arr(
            records
                .iter()
                .map(|r| {
                    let mut m = BTreeMap::new();
                    m.insert("label".to_string(), Json::Str(r.label.clone()));
                    m.insert("wall_s".to_string(), Json::Num(r.wall_s));
                    m.insert("sim_cycles".to_string(), Json::UInt(r.sim_cycles));
                    m.insert("dense_cycles".to_string(), Json::UInt(r.dense_cycles));
                    m.insert(
                        "cycles_per_sec".to_string(),
                        Json::Num(r.cycles_per_sec()),
                    );
                    Json::Obj(m)
                })
                .collect(),
        ),
    );
    root.insert("total_wall_s".to_string(), Json::Num(total_wall));
    root.insert("total_sim_cycles".to_string(), Json::UInt(total_cycles));
    root.insert(
        "total_cycles_per_sec".to_string(),
        Json::Num(if total_wall > 0.0 { total_cycles as f64 / total_wall } else { 0.0 }),
    );
    let mut out = Json::Obj(root).encode();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn stopwatch_records_into_thread_profile() {
        drain(); // isolate from other tests on this thread
        let w = Stopwatch::start("phase_a");
        assert!(w.elapsed_s() >= 0.0);
        let rec = w.stop(1_000_000, 250_000);
        assert_eq!(rec.label, "phase_a");
        assert!(rec.wall_s >= 0.0);
        let recs = drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0], rec);
        assert!(drain().is_empty(), "drain takes ownership");
    }

    #[test]
    fn bench_json_totals_add_up() {
        let recs = vec![
            BenchRecord { label: "a".into(), wall_s: 0.5, sim_cycles: 100, dense_cycles: 100 },
            BenchRecord { label: "b".into(), wall_s: 1.5, sim_cycles: 300, dense_cycles: 30 },
        ];
        let doc = bench_json(&recs);
        let v = json::parse(&doc).expect("valid json");
        assert_eq!(v.get("total_sim_cycles").unwrap().as_u64(), Some(400));
        assert_eq!(v.get("total_wall_s").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("total_cycles_per_sec").unwrap().as_f64(), Some(200.0));
        let phases = v.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].get("cycles_per_sec").unwrap().as_f64(), Some(200.0));
        let dense: Vec<_> = phases.iter().map(|p| p.get("dense_cycles").unwrap().as_u64()).collect();
        assert_eq!(dense, [Some(100), Some(30)], "each phase carries its dense cycles");
    }

    #[test]
    fn zero_wall_time_does_not_divide_by_zero() {
        let r = BenchRecord { label: "x".into(), wall_s: 0.0, sim_cycles: 10, dense_cycles: 10 };
        assert_eq!(r.cycles_per_sec(), 0.0);
    }
}
