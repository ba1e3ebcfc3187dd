//! The simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload untraced for `--seconds` and prints the
//! end-to-end metrics: host speed and set-up time (medians over the
//! repetitions), peak memory, and the modelled lock metrics, which must
//! come out identical on every repetition. `--trace 1` repeats a triple of
//! runs (stats off, stats on, traced) for `--seconds`, writes the traced
//! runs' spans to `perfbench/out/`, runs the layer drivers at the load the
//! traced run measured, and prints the per-layer metrics.
//!
//! Every run's outputs are checked. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. A failed check
//! makes the exit code nonzero.

mod drivers;
mod probe;
mod run;
mod trace;
mod workloads;

use run::{median, Model, Outcome};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::Spec;

/// Extra build + `Simulation::new` repetitions between measured runs, on
/// top of the one inside each run. Spread over the whole invocation, they
/// give the set-up median enough samples from every phase of the host's
/// load.
const SETUP_REPS: usize = 4;

const DIFFERENT_WINDOWS: &str = "runs of one seed stepped through different windows";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in print order, each with its unit.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values have no JSON spelling; they can only come
            // from a broken measurement, which the caller reports.
            let v = if value.is_finite() { *value } else { -1.0 };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Tally of every run's attempted and failed operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, spec: &Spec, o: &Outcome) {
        self.attempted += spec.attempted();
        self.failed += o.failed;
        if let Some(e) = &o.error {
            self.problems.push(e.clone());
        }
    }

    /// Modelled metrics must not depend on the repetition, the stats
    /// registry or tracing.
    fn expect_same(&mut self, what: &str, a: &Model, b: &Model) {
        if a != b {
            self.problems
                .push(format!("{what}: modelled metrics differ: {a:?} vs {b:?}"));
        }
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn untraced(spec: &Spec, args: &Args, tally: &mut Tally, report: &mut Report) {
    let stats = spec.stats_always_on();
    // Warm-up: faults in the allocator's pages and fixes the reference
    // model every measured run must reproduce.
    let warm = run::once(spec, args.seed, stats, None);
    tally.add(spec, &warm);
    let mut setup = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut speed = Vec::new();
    let mut best = Vec::new();
    run::keep_fastest(&mut best, &warm.windows);
    while speed.len() < 3 || Instant::now() < deadline {
        setup.extend((0..SETUP_REPS).map(|_| run::setup_only(spec, args.seed, stats)));
        let o = run::once(spec, args.seed, stats, None);
        tally.add(spec, &o);
        tally.expect_same("repeated run", &warm.model, &o.model);
        setup.push(o.build_s + o.new_s);
        speed.push(o.model.cycles as f64 / o.steps_s);
        if o.error.is_some() {
            break;
        }
        if !run::keep_fastest(&mut best, &o.windows) {
            tally.problems.push(DIFFERENT_WINDOWS.into());
            break;
        }
    }
    // `run::keep_fastest` says why the fastest windows and not the median
    // run. Per-run speeds go to stderr.
    let fastest = warm.model.cycles as f64 / best.iter().sum::<f64>();
    eprintln!(
        "sim_cycles_per_s: {fastest:.0} from fastest windows; per run (median {:.0}): {speed:.0?}",
        median(&speed),
    );
    let m = &warm.model;
    report.put("sim_cycles_per_s", fastest, "cycles/s");
    report.put("setup_s", median(&setup), "s");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    report.put("sim_cycles", m.cycles as f64, "cycles");
    report.put(
        "lock_ops_per_kcycle",
        m.lock_ops as f64 * 1000.0 / m.cycles.max(1) as f64,
        "ops/kcycle",
    );
    report.put("lock_wait_p50_cycles", m.wait_p50 as f64, "cycles");
    report.put("lock_wait_p99_cycles", m.wait_p99 as f64, "cycles");
    report.put(
        "noc_bytes_per_lock_op",
        m.noc_bytes as f64 / m.lock_ops.max(1) as f64,
        "B/op",
    );
    let (p50, p99) = m.req.unwrap_or((0, 0));
    report.put("req_latency_p50_cycles", p50 as f64, "cycles");
    report.put("req_latency_p99_cycles", p99 as f64, "cycles");
}

fn traced(spec: &Spec, args: &Args, tally: &mut Tally, report: &mut Report) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    // Fastest step-loop windows of each kind of run: stats off, stats on,
    // and traced (stats on).
    let (mut off_w, mut on_w, mut tr_w) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while last.is_none() || Instant::now() < deadline {
        let off = run::once(spec, args.seed, false, None);
        let on = run::once(spec, args.seed, true, None);
        tracer.next_run();
        let tr = run::once(spec, args.seed, true, Some(&mut tracer));
        for o in [&off, &on, &tr] {
            tally.add(spec, o);
        }
        tally.expect_same(
            "stats off vs on",
            &off.model.without_req(),
            &on.model.without_req(),
        );
        tally.expect_same("untraced vs traced", &on.model, &tr.model);
        let failed = tr.error.is_some() || on.error.is_some() || off.error.is_some();
        let same_windows = run::keep_fastest(&mut off_w, &off.windows)
            & run::keep_fastest(&mut on_w, &on.windows)
            & run::keep_fastest(&mut tr_w, &tr.windows);
        if !failed && !same_windows {
            tally.problems.push(DIFFERENT_WINDOWS.into());
        }
        last = Some((on.step_calls, tr));
        if failed || !same_windows {
            break;
        }
    }
    let (on_calls, tr) = last.expect("the loop runs at least once");
    let out_dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace_{}_{}.json", spec.name, args.seed));
    std::fs::write(&path, tracer.to_chrome_json())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());

    let span_median = |name: &str| median(&tracer.durations(name).collect::<Vec<_>>());
    let (off_s, on_s, tr_s): (f64, f64, f64) =
        (off_w.iter().sum(), on_w.iter().sum(), tr_w.iter().sum());
    let windows: Vec<f64> = tracer.window_ms(run::WINDOW_CYCLES).collect();
    let m = &tr.model;
    let cycles = m.cycles.max(1) as f64;
    // The final call reports completion without executing a cycle.
    let dense = tr.step_calls.saturating_sub(1).max(1) as f64;
    report.put("sim.step_calls", tr.step_calls as f64, "count");
    report.put("sim.skip_frac", 1.0 - dense / cycles, "frac");
    report.put("sim.ns_per_step", on_s * 1e9 / on_calls.max(1) as f64, "ns");
    report.put("sim.window_ms.p50", run::quantile(&windows, 0.50), "ms");
    report.put("sim.window_ms.p99", run::quantile(&windows, 0.99), "ms");
    report.put("sim.new_s", span_median("sim.new"), "s");
    report.put("sim.finish_s", span_median("sim.finish"), "s");

    // Layer drivers, loaded at the traced run's rates per dense cycle.
    let d = tr
        .layers
        .as_ref()
        .ok_or("the traced run produced no stats dump")?;
    let cfg = &spec.cfg;
    let tiles = cfg.mesh().len() as f64;
    let driven = drivers::DRIVER_CYCLES as f64;
    let per_dense = |n: u64| n as f64 / dense;
    let noc =
        drivers::median(|| drivers::noc(cfg, per_dense(d.noc_packets), d.noc_bytes_per_packet()));
    report.put("noc.ns_per_router_cycle", noc.ns / (driven * tiles), "ns");
    report.put("noc.ns_per_packet", noc.ns / noc.units.max(1) as f64, "ns");
    report.put(
        "noc.packets_per_kcycle",
        d.noc_packets as f64 * 1000.0 / cycles,
        "packets/kcycle",
    );
    report.put(
        "noc.hops_per_packet",
        d.noc_hops as f64 / d.noc_packets.max(1) as f64,
        "hops",
    );
    report.put("noc.lat_p99_cycles", d.noc_lat_p99 as f64, "cycles");

    let miss_frac = d.l1_miss as f64 / d.l1_access.max(1) as f64;
    let mem = drivers::median(|| {
        let rate = per_dense(d.l1_access) / cfg.num_cores as f64;
        drivers::mem(cfg, rate, miss_frac)
    });
    report.put("mem.ns_per_tick", mem.ns / driven, "ns");
    report.put("mem.ns_per_op", mem.ns / mem.units.max(1) as f64, "ns");
    report.put("mem.l1_miss_frac", miss_frac, "frac");
    report.put(
        "mem.dir_inv_per_lock_op",
        d.dir_inv as f64 / m.lock_ops.max(1) as f64,
        "inv/op",
    );
    report.put(
        "mem.miss_latency_p99_cycles",
        d.miss_latency_p99 as f64,
        "cycles",
    );

    let gline = drivers::median(|| drivers::gline(cfg, per_dense(d.grants), d.hold_p50));
    report.put("core.ns_per_tick", gline.ns / driven, "ns");
    report.put(
        "core.grants_per_kcycle",
        d.grants as f64 * 1000.0 / cycles,
        "grants/kcycle",
    );
    report.put(
        "core.grant_gap_p50_cycles",
        d.grant_gap_p50 as f64,
        "cycles",
    );
    report.put("core.retransmits", d.retransmits as f64, "count");

    let [busy, memory, lock, _barrier] = tr.fractions;
    report.put("cpu.busy_frac", busy, "frac");
    report.put("cpu.memory_frac", memory, "frac");
    report.put("cpu.lock_frac", lock, "frac");
    report.put("cpu.ipc", tr.ipc, "instr/cycle");

    report.put("locks.handoff_p50_cycles", d.handoff_p50 as f64, "cycles");
    report.put("locks.hold_p50_cycles", d.hold_p50 as f64, "cycles");

    report.put(
        "arrivals.queue_wait_p99_cycles",
        d.queue_wait_p99 as f64,
        "cycles",
    );
    report.put("arrivals.dropped", d.dropped as f64, "count");
    report.put("arrivals.saturated", d.saturated as f64, "flag");

    report.put("workloads.build_s", span_median("workloads.build"), "s");
    report.put("workloads.verify_s", span_median("workloads.verify"), "s");

    report.put("stats.overhead_frac", on_s / off_s - 1.0, "frac");
    report.put("stats.dump_s", span_median("stats.dump"), "s");
    report.put("trace.overhead_frac", tr_s / on_s - 1.0, "frac");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = match Spec::lookup(&args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let mut report = Report::default();
    if args.trace {
        if let Err(e) = traced(&spec, &args, &mut tally, &mut report) {
            tally.problems.push(e);
        }
    } else {
        untraced(&spec, &args, &mut tally, &mut report);
    }
    for (name, value, unit) in &report.metrics {
        println!(
            "{:<32} {value:>16.6} {unit}",
            format!("{}.{name}", spec.name)
        );
        if !value.is_finite() {
            tally
                .problems
                .push(format!("{name} is not a finite number"));
        }
    }
    println!(
        "{:<32} {:>16.6} frac ({} of {} operations)",
        format!("{}.failed_frac", spec.name),
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for p in &tally.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let correct = tally.problems.is_empty();
    println!(
        "{}",
        report.json(correct, tally.attempted.max(1), tally.failed)
    );
    if !correct || tally.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(name: &str, seed: u64, stats: bool, traced: bool) -> Model {
        let spec = Spec::lookup(name).expect("known workload");
        let mut tracer = Tracer::new();
        let o = run::once(&spec, seed, stats, traced.then_some(&mut tracer));
        assert_eq!(o.error, None, "{name}");
        assert_eq!(o.failed, 0, "{name}");
        o.model
    }

    #[test]
    fn modelled_metrics_repeat_and_ignore_stats_and_tracing() {
        for name in workloads::NAMES {
            let product = Spec::lookup(name)
                .expect("known workload")
                .stats_always_on();
            let first = model(name, 7, product, false);
            assert_eq!(
                first,
                model(name, 7, product, false),
                "{name}: repeated run"
            );
            assert_eq!(
                first,
                model(name, 7, true, true),
                "{name}: traced, stats-on run"
            );
            assert_eq!(
                first.without_req(),
                model(name, 7, false, false).without_req(),
                "{name}: stats-off run"
            );
        }
    }

    #[test]
    fn only_the_service_depends_on_the_seed() {
        assert_ne!(
            model("service_bursty_16", 1, true, false),
            model("service_bursty_16", 2, true, false)
        );
        assert_eq!(
            model("sctr_glock_64", 1, false, false),
            model("sctr_glock_64", 2, false, false)
        );
    }

    #[test]
    fn report_json_lists_every_metric_with_its_unit() {
        let mut r = Report::default();
        r.put("setup_s", 0.5, "s");
        r.put("sim_cycles", 12.0, "cycles");
        let v = glocks_stats::json::parse(&r.json(true, 3, 0)).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(3));
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s")
                .and_then(|x| x.get("unit"))
                .and_then(|u| u.as_str()),
            Some("s")
        );
        assert_eq!(
            m.get("sim_cycles")
                .and_then(|x| x.get("value"))
                .and_then(|u| u.as_f64()),
            Some(12.0)
        );
    }
}
