//! Shared experiment plumbing: configure → run → verify → report.

use glocks_locks::LockAlgorithm;
use glocks_sim::{LockMapping, SimError, SimReport, Simulation, SimulationOptions};
use glocks_sim_base::{CmpConfig, Mesh2D};
use glocks_workloads::{BenchConfig, BenchKind};
use std::cell::{Cell, RefCell};

thread_local! {
    /// Where this thread's runs dump their stats JSON (`None` = stats off).
    static STATS_DIR: RefCell<Option<String>> = const { RefCell::new(None) };
    /// Experiment name the subsequent runs belong to (dump-file prefix).
    static STATS_CTX: RefCell<String> = const { RefCell::new(String::new()) };
    /// Per-context sequence number so repeated configs get distinct files.
    static STATS_SEQ: Cell<u64> = const { Cell::new(0) };
    /// Watchdog-window override for subsequent runs on this thread
    /// (`None` = each driver's own choice stands).
    static WATCHDOG: Cell<Option<u64>> = const { Cell::new(None) };
    /// Per-run wall-clock budget (milliseconds) applied to every
    /// simulation started on this thread (`None` = unlimited).
    static WALL_LIMIT: Cell<Option<u64>> = const { Cell::new(None) };
    /// Explicit mesh floor plan for subsequent runs on this thread — the
    /// `--mesh WxH` harness flag (`None` = near-square factorization).
    static MESH: Cell<Option<Mesh2D>> = const { Cell::new(None) };
    /// Idle-skip override for subsequent runs on this thread — the
    /// `--dense` harness flag sets `Some(false)` (`None` = each driver's
    /// options stand, i.e. the event-driven scheduler is on by default).
    static IDLE_SKIP: Cell<Option<bool>> = const { Cell::new(None) };
    /// Structured `SimError`s observed by runs on this thread since the
    /// last [`drain_sim_errors`] — the sweep engine's failure channel,
    /// reaching past drivers that tolerate individual dead configurations.
    static RUN_ERRORS: RefCell<Vec<crate::journal::RunError>> = const { RefCell::new(Vec::new()) };
}

/// Direct every subsequent [`run_bench`] on *this thread* to record typed
/// stats and dump them as JSON into `dir`. `None` turns dumping back off.
/// Thread-local on purpose: parallel sweeps give each worker its own state.
pub fn set_stats_dir(dir: Option<&str>) {
    STATS_DIR.with(|d| *d.borrow_mut() = dir.map(|s| s.to_string()));
}

/// Name the experiment the subsequent runs belong to; used as the dump-file
/// prefix and stored in the dump's `meta.experiment`. Resets the sequence
/// counter so files within one experiment number from 0.
pub fn set_stats_context(ctx: &str) {
    STATS_CTX.with(|c| *c.borrow_mut() = ctx.to_string());
    STATS_SEQ.with(|s| s.set(0));
}

/// Override the wedge watchdog window (in cycles, 0 = off) for every
/// subsequent run on *this* thread — the `--watchdog-cycles` harness flag.
/// `None` restores each driver's own choice (the simulator default is
/// [`SimulationOptions::default`]'s 2M cycles). Thread-local like
/// [`set_stats_dir`], so `--jobs` workers each apply it independently.
pub fn set_watchdog_cycles(cycles: Option<u64>) {
    WATCHDOG.with(|w| w.set(cycles));
}

/// The watchdog window [`run_bench_with`] will actually use for `options`.
pub fn effective_watchdog(options: &SimulationOptions) -> u64 {
    WATCHDOG.with(|w| w.get()).unwrap_or(options.watchdog_cycles)
}

/// Give every subsequent simulation on *this* thread a wall-clock budget
/// (cooperative: the runner returns [`SimError::WallClockExceeded`], the
/// only *transient* failure, when a run overstays). `None` lifts the
/// budget. Thread-local like [`set_watchdog_cycles`], so `--jobs` workers
/// time out independently.
pub fn set_wall_clock_limit_ms(ms: Option<u64>) {
    WALL_LIMIT.with(|w| w.set(ms));
}

/// Pin the mesh floor plan for every subsequent run on *this* thread — the
/// `--mesh WxH` harness flag. The shape must hold exactly as many tiles as
/// the run has threads; [`run_bench_with`] panics on a mismatch rather than
/// silently simulating a different machine than the one asked for. `None`
/// restores the near-square default. Thread-local like [`set_stats_dir`].
pub fn set_mesh_override(mesh: Option<Mesh2D>) {
    MESH.with(|m| m.set(mesh));
}

/// Force the cycle loop dense (`Some(false)`) or event-driven
/// (`Some(true)`) for every subsequent run on *this* thread — the `--dense`
/// harness flag. Both modes march through identical machine states (the
/// idle-skip determinism contract); the knob exists for A/B self-profiling
/// and for paranoia reruns. `None` restores each driver's own options.
pub fn set_idle_skip(mode: Option<bool>) {
    IDLE_SKIP.with(|s| s.set(mode));
}

/// Apply this thread's `--mesh` / `--dense` overrides to a run that is
/// about to start: shapes `cfg`'s floor plan (validated against `threads`)
/// and pins the cycle-loop mode. [`run_bench_with`] calls this for the
/// standard benches; drivers that build their own [`Simulation`] call it
/// too, so the CLI knobs reach every experiment — service sweeps, fault
/// campaigns, ablations — not just the classic lock benches.
pub fn apply_machine_overrides(
    threads: usize,
    mut cfg: CmpConfig,
    options: &mut SimulationOptions,
) -> CmpConfig {
    if let Some(skip) = IDLE_SKIP.with(|s| s.get()) {
        options.idle_skip = skip;
    }
    if let Some(m) = MESH.with(|m| m.get()) {
        assert!(
            m.len() == threads,
            "--mesh {}x{} holds {} tiles but the workload runs {} threads",
            m.cols(),
            m.rows(),
            m.len(),
            threads
        );
        cfg = cfg.with_mesh(m);
    }
    cfg
}

/// Parse a `--mesh` argument of the form `WxH` (e.g. `32x32`) into a mesh.
pub fn parse_mesh(s: &str) -> Result<Mesh2D, String> {
    let (w, h) = s
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("mesh '{s}' is not of the form WxH (e.g. 32x32)"))?;
    let w: u16 = w.trim().parse().map_err(|_| format!("mesh width '{w}' is not a number"))?;
    let h: u16 = h.trim().parse().map_err(|_| format!("mesh height '{h}' is not a number"))?;
    if w == 0 || h == 0 {
        return Err(format!("mesh '{s}' must be non-empty"));
    }
    Ok(Mesh2D::new(w, h))
}

/// Record a structured error for the sweep engine (done automatically by
/// [`run_bench_with`]; drivers that run `Simulation` by hand and swallow
/// the error themselves should call this so the journal still sees it).
pub fn record_sim_error(e: &SimError) {
    RUN_ERRORS.with(|r| r.borrow_mut().push(crate::journal::RunError::from_sim_error(e)));
}

/// Record a failure that is not a [`SimError`] — the fuzzer's
/// verification mismatches, a repro that fails to parse — so the sweep
/// engine still turns it into a failed journal row and a nonzero exit
/// code.
pub fn record_run_error(kind: &str, detail: &str) {
    RUN_ERRORS.with(|r| {
        r.borrow_mut().push(crate::journal::RunError {
            kind: kind.to_string(),
            transient: false,
            detail: detail.to_string(),
        })
    });
}

/// Take every error recorded on this thread since the last drain. The
/// sweep engine drains before and after each run: transient entries make
/// the run retryable, deterministic ones become journal rows.
pub fn drain_sim_errors() -> Vec<crate::journal::RunError> {
    RUN_ERRORS.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// Make a label safe for a filename (`MP-Lock` stays, `MCS/32` would not).
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' })
        .collect()
}

/// An open stats-recording session around one simulation run, created by
/// [`open_stats_session`]. Close it with [`StatsSession::finish`] (dumps
/// the report's snapshot) or [`StatsSession::abort`] (wedged run).
pub struct StatsSession {
    dir: String,
    tag: String,
    watch: glocks_stats::Stopwatch,
}

/// Open a stats session for one run if `set_stats_dir` is active on this
/// thread (`None` otherwise — zero cost). [`run_bench_with`] does this for
/// the standard path; drivers that assemble a `Simulation` by hand (fault
/// sweeps, multiprogramming, ablations) call it around `sim.run()` so
/// *every* experiment dumps stats under `--stats-json`. Open it **before**
/// `Simulation::new` — components register their histograms and series in
/// their constructors. `meta` key/value pairs land in the dump's `meta`
/// block.
pub fn open_stats_session(tag: &str, meta: &[(&str, &str)]) -> Option<StatsSession> {
    let dir = STATS_DIR.with(|d| d.borrow().clone())?;
    let ctx = STATS_CTX.with(|c| c.borrow().clone());
    let ctx = if ctx.is_empty() { "run".to_string() } else { ctx };
    let tag = format!("{ctx}_{}", sanitize(tag));
    let watch = glocks_stats::Stopwatch::start(&tag);
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    glocks_stats::set_meta("experiment", &ctx);
    for (k, v) in meta {
        glocks_stats::set_meta(k, v);
    }
    Some(StatsSession { dir, tag, watch })
}

impl StatsSession {
    /// Dump the report's snapshot as `DIR/<tag>_<seq>.json`, profile the
    /// phase, and close the session.
    pub fn finish(self, report: &SimReport) {
        if let Some(dump) = &report.stats {
            let seq = STATS_SEQ.with(|s| {
                let v = s.get();
                s.set(v + 1);
                v
            });
            let path = format!("{}/{}_{seq}.json", self.dir, self.tag);
            if let Err(e) = std::fs::write(&path, dump.to_json()) {
                eprintln!("[harness] failed to write stats dump {path}: {e}");
            }
        }
        self.watch.stop(report.cycles, report.dense_cycles);
        glocks_stats::disable();
    }

    /// Close the session after a wedged run: nothing to dump, and the
    /// phase is profiled as 0 simulated cycles so the sweep's BENCH file
    /// still accounts for the wall time spent.
    pub fn abort(self) {
        self.watch.stop(0, 0);
        glocks_stats::disable();
    }
}

/// Global experiment options.
#[derive(Clone, Copy, Debug)]
pub struct ExpOptions {
    /// Use reduced input sizes (fast CI runs) instead of Table III sizes.
    pub quick: bool,
    /// Cores for the main experiments (the paper's baseline is 32).
    pub threads: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions { quick: false, threads: 32 }
    }
}

impl ExpOptions {
    pub fn bench(&self, kind: BenchKind) -> BenchConfig {
        self.bench_on(kind, self.threads)
    }

    pub fn bench_on(&self, kind: BenchKind, threads: usize) -> BenchConfig {
        if self.quick {
            BenchConfig::smoke(kind, threads)
        } else {
            BenchConfig::paper(kind, threads)
        }
    }
}

/// One verified simulation run.
pub struct RunResult {
    pub kind: BenchKind,
    pub label: &'static str,
    pub threads: usize,
    pub report: SimReport,
}

/// Run `kind` with the given lock mapping. A wedged run comes back as
/// `Err(SimError)` so a sweep can log it and keep going; a *verification*
/// failure still panics — every experiment doubles as a correctness test,
/// and a wrong answer (unlike a wedge under faults) is always a bug.
pub fn run_bench(bench: &BenchConfig, mapping: &LockMapping) -> Result<RunResult, SimError> {
    run_bench_with(bench, mapping, SimulationOptions::default())
}

/// [`run_bench`] with explicit simulation options (fault plans, watchdog
/// windows, ...).
pub fn run_bench_with(
    bench: &BenchConfig,
    mapping: &LockMapping,
    mut options: SimulationOptions,
) -> Result<RunResult, SimError> {
    options.watchdog_cycles = effective_watchdog(&options);
    if let Some(ms) = WALL_LIMIT.with(|w| w.get()) {
        options.wall_clock_limit_ms = Some(ms);
    }
    let session = open_stats_session(
        &format!("{}_{}_{}t", bench.kind.name(), mapping.label(), bench.threads),
        &[
            ("bench", bench.kind.name()),
            ("lock", mapping.label()),
            ("threads", &bench.threads.to_string()),
        ],
    );
    let inst = bench.build();
    let cfg = apply_machine_overrides(
        bench.threads,
        CmpConfig::paper_baseline().with_cores(bench.threads),
        &mut options,
    );
    let sim = Simulation::new(&cfg, mapping, inst.workloads, &inst.init, options);
    let (report, mem) = match sim.run() {
        Ok(x) => x,
        Err(e) => {
            if let Some(s) = session {
                s.abort();
            }
            record_sim_error(&e);
            return Err(e);
        }
    };
    if let Err(e) = (inst.verify)(mem.store()) {
        panic!(
            "{:?} with {} failed verification: {e}",
            bench.kind,
            mapping.label()
        );
    }
    if let Some(s) = session {
        s.finish(&report);
    }
    Ok(RunResult {
        kind: bench.kind,
        label: mapping.label(),
        threads: bench.threads,
        report,
    })
}

/// Sweep-friendly wrapper: log a wedged configuration to stderr and return
/// `None` so the caller's remaining experiments still run.
pub fn try_run_bench(bench: &BenchConfig, mapping: &LockMapping) -> Option<RunResult> {
    match run_bench(bench, mapping) {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!(
                "[harness] {:?} x{} with {} wedged ({}); skipping\n{e}",
                bench.kind,
                bench.threads,
                mapping.label(),
                e.kind()
            );
            None
        }
    }
}

/// The paper's two principal configurations for a benchmark.
pub fn mcs_mapping(bench: &BenchConfig) -> LockMapping {
    LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Mcs, bench.n_locks())
}

pub fn glock_mapping(bench: &BenchConfig) -> LockMapping {
    LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Glock, bench.n_locks())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_dir_dumps_schema_versioned_json() {
        let dir = std::env::temp_dir().join(format!("glocks_stats_exp_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        set_stats_dir(dir.to_str());
        set_stats_context("unit");
        let opts = ExpOptions { quick: true, threads: 4 };
        let bench = opts.bench(BenchKind::Sctr);
        let r = run_bench(&bench, &glock_mapping(&bench)).expect("fault-free run");
        set_stats_dir(None);
        let dump = r.report.stats.as_ref().expect("snapshot attached to report");
        assert_eq!(dump.schema_version, glocks_stats::SCHEMA_VERSION);
        let path = dir.join(format!(
            "unit_{}_{}_4t_0.json",
            bench.kind.name(),
            sanitize(r.label)
        ));
        let text = std::fs::read_to_string(&path).expect("dump file written");
        let parsed = glocks_stats::StatsDump::from_json(&text).expect("dump parses");
        assert_eq!(parsed.meta.get("bench").map(String::as_str), Some(bench.kind.name()));
        assert_eq!(parsed.meta.get("experiment").map(String::as_str), Some("unit"));
        assert!(parsed.counters.contains_key("sim.cycles"));
        assert!(!glocks_stats::is_enabled(), "session closed after the run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_override_is_revertible() {
        let opts = SimulationOptions::default();
        let default = opts.watchdog_cycles;
        assert_eq!(effective_watchdog(&opts), default);
        set_watchdog_cycles(Some(123));
        assert_eq!(effective_watchdog(&opts), 123);
        set_watchdog_cycles(None);
        assert_eq!(effective_watchdog(&opts), default);
    }

    #[test]
    fn mesh_flag_parses_and_rejects_garbage() {
        assert_eq!(parse_mesh("32x32").unwrap(), Mesh2D::new(32, 32));
        assert_eq!(parse_mesh("8X4").unwrap(), Mesh2D::new(8, 4));
        assert!(parse_mesh("32").is_err());
        assert!(parse_mesh("0x4").is_err());
        assert!(parse_mesh("ax4").is_err());
    }

    #[test]
    fn mesh_override_shapes_the_run() {
        let opts = ExpOptions { quick: true, threads: 4 };
        let bench = opts.bench(BenchKind::Sctr);
        set_mesh_override(Some(Mesh2D::new(1, 4)));
        let r = run_bench(&bench, &glock_mapping(&bench)).expect("fault-free run");
        set_mesh_override(None);
        assert!(r.report.cycles > 0);
    }

    // Each #[test] runs on its own thread, so the leaked thread-local
    // override dies with it.
    #[test]
    #[should_panic(expected = "--mesh 4x4")]
    fn mismatched_mesh_override_panics() {
        let opts = ExpOptions { quick: true, threads: 8 };
        let bench = opts.bench(BenchKind::Sctr);
        set_mesh_override(Some(Mesh2D::new(4, 4)));
        let _ = run_bench(&bench, &glock_mapping(&bench));
    }

    #[test]
    fn quick_run_produces_report() {
        let opts = ExpOptions { quick: true, threads: 4 };
        let bench = opts.bench(BenchKind::Sctr);
        let r = run_bench(&bench, &mcs_mapping(&bench)).expect("fault-free run");
        assert!(r.report.cycles > 0);
        assert_eq!(r.label, "MCS");
    }
}
