//! One simulation run through the public API, timed phase by phase, and
//! the figures taken from it.

use crate::trace::Tracer;
use crate::workloads::Spec;
use glocks_sim::{SimReport, Simulation, SimulationOptions};
use glocks_stats::{HistDump, Log2Histogram, StatsDump};
use std::time::Instant;

/// Simulated cycles per `sim.window` span.
pub const WINDOW_CYCLES: u64 = 1024;

/// A wedged or runaway run is cut off after this much host time, so the
/// benchmark always exits; the cut counts as a failed run.
const WALL_CLOCK_LIMIT_MS: u64 = 30_000;

/// The modelled (simulated-time) figures of a run. They are deterministic
/// functions of the workload and seed, so every run of one invocation must
/// produce the same value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    pub cycles: u64,
    /// Completed acquire/release pairs.
    pub lock_ops: u64,
    /// Acquire issued → granted, exact percentiles over every acquire.
    pub wait_p50: u64,
    pub wait_p99: u64,
    /// Bytes of all NoC traffic classes.
    pub noc_bytes: u64,
    /// Request latency p50/p99. SCTR: one critical section, acquire issued
    /// → release retired, from the probes. Service: arrival → completion,
    /// from the stats registry's `slo.*` report, so `None` with stats off.
    pub req: Option<(u64, u64)>,
}

impl Model {
    /// The figures a stats-off run can produce too.
    pub fn without_req(&self) -> Model {
        Model {
            req: None,
            ..self.clone()
        }
    }
}

/// Per-layer simulated counts from a stats dump.
pub struct Layers {
    pub noc_packets: u64,
    pub noc_hops: u64,
    pub noc_bytes: u64,
    pub noc_lat_p99: u64,
    pub l1_access: u64,
    pub l1_miss: u64,
    pub dir_inv: u64,
    pub miss_latency_p99: u64,
    pub grants: u64,
    pub grant_gap_p50: u64,
    pub retransmits: u64,
    pub handoff_p50: u64,
    pub hold_p50: u64,
    pub queue_wait_p99: u64,
    pub dropped: u64,
    pub saturated: u64,
}

impl Layers {
    pub fn noc_bytes_per_packet(&self) -> u32 {
        (self.noc_bytes as f64 / self.noc_packets.max(1) as f64)
            .round()
            .max(1.0) as u32
    }

    fn from_dump(d: &StatsDump) -> Layers {
        let sum = |prefix: &str, suffix: &str| -> u64 {
            d.counters
                .iter()
                .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        let merged = |prefix: &str, suffix: &str, q: f64| -> u64 {
            let mut h = Log2Histogram::new();
            for (_, hd) in d
                .hists
                .iter()
                .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            {
                h.merge(&hd.to_hist());
            }
            if h.count() == 0 {
                0
            } else {
                HistDump::from_hist(&h).quantile(q)
            }
        };
        let counter = |k: &str| d.counters.get(k).copied().unwrap_or(0);
        Layers {
            noc_packets: sum("noc.", ".messages"),
            noc_hops: sum("noc.", ".hops"),
            noc_bytes: sum("noc.", ".bytes"),
            noc_lat_p99: merged("noc.lat.", "", 0.99),
            l1_access: counter("mem.total.l1_access"),
            l1_miss: counter("mem.total.l1_miss"),
            dir_inv: counter("mem.total.dir_inv_sent"),
            miss_latency_p99: merged("mem.l1.", ".miss_latency", 0.99),
            grants: sum("glock.", ".grants"),
            grant_gap_p50: merged("glock.", ".grant_gap_cycles", 0.50),
            retransmits: sum("glock.", ".retransmits"),
            handoff_p50: merged("lock.", ".handoff_cycles", 0.50),
            hold_p50: merged("lock.", ".hold_cycles", 0.50),
            queue_wait_p99: merged("service.queue_wait_cycles", "", 0.99),
            dropped: counter("slo.dropped"),
            saturated: counter("slo.saturated"),
        }
    }
}

/// Host seconds per phase, plus what the run produced.
#[derive(Default)]
pub struct Outcome {
    pub build_s: f64,
    pub new_s: f64,
    pub steps_s: f64,
    /// Host seconds of each [`WINDOW_CYCLES`] window of `steps_s`, in
    /// order. Window boundaries are simulated cycles, so the same window
    /// index covers the same simulated work in every run of one seed.
    pub windows: Vec<f64>,
    pub step_calls: u64,
    pub model: Model,
    /// `[busy, memory, lock, barrier]` shares of active core cycles.
    pub fractions: [f64; 4],
    /// Instructions per active core cycle.
    pub ipc: f64,
    /// Present when stats were on.
    pub layers: Option<Layers>,
    /// Operations that failed: all of them when the run wedged or a check
    /// failed, otherwise the requests the service dropped.
    pub failed: u64,
    pub error: Option<String>,
}

fn options() -> SimulationOptions {
    SimulationOptions {
        wall_clock_limit_ms: Some(WALL_CLOCK_LIMIT_MS),
        ..Default::default()
    }
}

/// Times `f`, wrapped in a span named `name` when traced.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    if let Some(t) = tracer.as_deref_mut() {
        t.begin(name);
        let v = f();
        (v, t.end())
    } else {
        let started = Instant::now();
        let v = f();
        (v, started.elapsed().as_secs_f64())
    }
}

/// Build the workload and the machine, then drop them: set-up alone.
pub fn setup_only(spec: &Spec, seed: u64, stats: bool) -> f64 {
    if stats {
        glocks_stats::enable(glocks_stats::StatsConfig::default());
    }
    let started = Instant::now();
    let built = spec.build(seed);
    let sim = Simulation::new(
        &spec.cfg,
        &built.mapping,
        built.workloads,
        &built.init,
        options(),
    );
    let s = started.elapsed().as_secs_f64();
    drop(sim);
    glocks_stats::disable();
    s
}

/// One run: build, `Simulation::new`, `step_fast` to completion, `finish`,
/// output check and (with stats) the dump's serialisation. With a tracer,
/// each phase and each [`WINDOW_CYCLES`] window of stepping is a span.
pub fn once(spec: &Spec, seed: u64, stats: bool, mut tracer: Option<&mut Tracer>) -> Outcome {
    if stats {
        glocks_stats::enable(glocks_stats::StatsConfig::default());
    }
    let mut o = Outcome::default();
    if let Some(t) = tracer.as_deref_mut() {
        t.begin("run");
    }
    let (mut built, build_s) = timed(&mut tracer, "workloads.build", || spec.build(seed));
    let workloads = std::mem::take(&mut built.workloads);
    let (mut sim, new_s) = timed(&mut tracer, "sim.new", || {
        Simulation::new(&spec.cfg, &built.mapping, workloads, &built.init, options())
    });
    o.build_s = build_s;
    o.new_s = new_s;
    if let Some(t) = tracer.as_deref_mut() {
        t.begin("sim.steps");
    }
    let started = Instant::now();
    let mut calls = 0u64;
    let stepped = loop {
        match step_window(&mut sim, &mut calls, &mut o.windows, tracer.as_deref_mut()) {
            Ok(true) => break Ok(calls),
            Ok(false) => {}
            Err(e) => break Err(e),
        }
    };
    o.steps_s = match tracer.as_deref_mut() {
        Some(t) => t.end(),
        None => started.elapsed().as_secs_f64(),
    };
    let result = match stepped {
        Ok(calls) => {
            o.step_calls = calls;
            let (finished, _) = timed(&mut tracer, "sim.finish", || sim.finish());
            finished.map_err(|e| format!("{}: finish failed: {e}", spec.name))
        }
        Err(e) => Err(format!("{}: run failed: {e}", spec.name)),
    };
    match result {
        Ok((report, mem)) => {
            let (checked, _) = timed(&mut tracer, "workloads.verify", || {
                built.verify(&report, &mem)
            });
            match checked {
                Ok(dropped) => o.failed = dropped,
                Err(e) => {
                    o.error = Some(format!("{}: output check failed: {e}", spec.name));
                    o.failed = spec.attempted();
                }
            }
            o.model = model(&report, &built.log.borrow(), spec.stats_always_on());
            o.fractions = report.avg_fractions();
            let active: u64 = report.breakdowns.iter().map(|b| b.active()).sum();
            o.ipc = report.instructions() as f64 / active.max(1) as f64;
            if let Some(dump) = &report.stats {
                if tracer.is_some() {
                    let (json, _) = timed(&mut tracer, "stats.dump", || dump.to_json());
                    std::hint::black_box(json);
                }
                o.layers = Some(Layers::from_dump(dump));
            }
        }
        Err(e) => {
            o.error = Some(e);
            o.failed = spec.attempted();
        }
    }
    if let Some(t) = tracer {
        t.end();
    }
    glocks_stats::disable();
    o
}

/// Step until the clock crosses the next [`WINDOW_CYCLES`] boundary or the
/// run completes, appending the window's host seconds (span recording
/// included) to `windows`; traced, the window is also one span.
/// `Ok(true)` when done.
fn step_window(
    sim: &mut Simulation,
    calls: &mut u64,
    windows: &mut Vec<f64>,
    mut tracer: Option<&mut Tracer>,
) -> Result<bool, glocks_sim::SimError> {
    let edge = (sim.now() / WINDOW_CYCLES + 1) * WINDOW_CYCLES;
    let started = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.begin_window(sim.now());
    }
    let r = loop {
        *calls += 1;
        match sim.step_fast(0) {
            Ok(false) if sim.now() < edge => {}
            other => break other,
        }
    };
    if let Some(t) = tracer {
        t.end_window(sim.now());
    }
    windows.push(started.elapsed().as_secs_f64());
    r
}

/// Fold one run's window times into `best`, the fastest time seen for each
/// window so far. Every run repeats the same simulated work window by
/// window, and interference from other tenants of a shared host only ever
/// adds time, so `best` summed is the steadiest estimate of the step
/// loop's own cost: slow spells lasting seconds move whole-run times but
/// not it. `false` when the run stepped through other windows than the
/// earlier ones, which a deterministic simulator never does.
pub fn keep_fastest(best: &mut Vec<f64>, windows: &[f64]) -> bool {
    if best.is_empty() {
        best.extend_from_slice(windows);
        return true;
    }
    if best.len() != windows.len() {
        return false;
    }
    for (b, w) in best.iter_mut().zip(windows) {
        *b = b.min(*w);
    }
    true
}

/// Modelled figures of a finished run. `service` selects where request
/// latency comes from (see [`Model::req`]).
fn model(report: &SimReport, log: &crate::probe::ProbeLog, service: bool) -> Model {
    let mut wait = log.wait.clone();
    wait.sort_unstable();
    let req = if service {
        report.stats.as_ref().map(|d| {
            let q = |k: &str| d.counters.get(k).copied().unwrap_or(0);
            (q("slo.p50"), q("slo.p99"))
        })
    } else {
        let mut lat = log.latency.clone();
        lat.sort_unstable();
        Some((nearest_rank(&lat, 0.50), nearest_rank(&lat, 0.99)))
    };
    Model {
        cycles: report.cycles,
        lock_ops: report.acquires.iter().sum(),
        wait_p50: nearest_rank(&wait, 0.50),
        wait_p99: nearest_rank(&wait, 0.99),
        noc_bytes: report.traffic.total_bytes(),
        req,
    }
}

/// Nearest-rank percentile of sorted samples (0 when empty).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile of unsorted samples (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
