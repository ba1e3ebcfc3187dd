//! The stats subsystem's two load-bearing guarantees, end-to-end:
//!
//! 1. **Determinism** — the same seed and configuration produce a
//!    byte-identical stats JSON dump, run after run, with and without an
//!    active fault plan. This is what lets CI gate on `glocks-stats diff`
//!    against a committed golden dump.
//! 2. **Paper-exactness** — turning stats on observes the simulation but
//!    never perturbs it: cycles, grants and G-line signal counts match the
//!    stats-off run bit for bit.
//! 3. **Stability** — the committed golden dumps regenerate byte for byte,
//!    and the energy model is fed the same memory-hierarchy totals the
//!    dump publishes.

use glocks_repro::energy::EnergyModel;
use glocks_repro::prelude::*;
use glocks_repro::sim_base::fault::{FaultPlan, FaultRates};
use glocks_repro::stats as gstats;
use std::collections::BTreeMap;
use std::path::Path;

fn sim_for(kind: BenchKind, algo: LockAlgorithm, threads: usize, options: SimulationOptions) -> SimReport {
    let bench = BenchConfig::smoke(kind, threads);
    let mapping = LockMapping::hybrid(&bench.hc_locks(), algo, bench.n_locks());
    sim_mapped(&bench, &mapping, options)
}

fn sim_mapped(bench: &BenchConfig, mapping: &LockMapping, options: SimulationOptions) -> SimReport {
    let inst = bench.build();
    let cfg = CmpConfig::paper_baseline().with_cores(bench.threads);
    let sim = Simulation::new(&cfg, mapping, inst.workloads, &inst.init, options);
    let (report, mem) = sim.run().expect("simulation wedged");
    (inst.verify)(mem.store()).expect("verify");
    report
}

/// Run `bench` under `mapping` with a fresh stats session and return the
/// dump's JSON text.
fn dump_mapped(bench: &BenchConfig, mapping: &LockMapping, options: SimulationOptions) -> String {
    gstats::enable(gstats::StatsConfig::default());
    let report = sim_mapped(bench, mapping, options);
    gstats::disable();
    report
        .stats
        .expect("stats session active, snapshot attached")
        .to_json()
}

/// SCTR on GLock at 8 cores, dumped.
fn dump_json(options: SimulationOptions) -> String {
    let bench = BenchConfig::smoke(BenchKind::Sctr, 8);
    let mapping = LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Glock, bench.n_locks());
    dump_mapped(&bench, &mapping, options)
}

#[test]
fn identical_runs_dump_byte_identical_stats_json() {
    let a = dump_json(Default::default());
    let b = dump_json(Default::default());
    assert!(!a.is_empty() && a.ends_with('\n'));
    assert_eq!(a, b, "same seed + config must dump byte-identical JSON");
}

/// The event-driven idle-skip scheduler (the default) and the dense cycle
/// loop must produce byte-identical dumps — which also means the one
/// committed golden dump gates both execution modes; no golden fork.
#[test]
fn event_driven_and_dense_loops_dump_byte_identical_stats_json() {
    let skip = dump_json(Default::default());
    let dense = dump_json(SimulationOptions { idle_skip: false, ..Default::default() });
    assert_eq!(skip, dense, "idle-skip changed an observable: dumps differ");
}

/// Same equivalence across the paper's workload families (barrier-phased
/// apps, queue-structured producers/consumers) and lock algorithms with
/// very different idle shapes (G-line wait vs spin-with-backoff). The
/// 16-core SCTR runs put every software lock's waiters in L1-hit poll
/// spins, which the event-driven loop parks with their L1s, and OCEAN's
/// software tree barrier parks its waiters the same way; their whole
/// dumps (L1 hit and access counts included) must match the dense loop's.
#[test]
fn event_driven_and_dense_loops_agree_across_workloads() {
    let parking = [
        (BenchKind::Sctr, LockAlgorithm::Simple, 16),
        (BenchKind::Sctr, LockAlgorithm::Tatas, 16),
        (BenchKind::Sctr, LockAlgorithm::TatasBackoff, 16),
        (BenchKind::Sctr, LockAlgorithm::Ticket, 16),
        (BenchKind::Sctr, LockAlgorithm::Anderson, 16),
        (BenchKind::Sctr, LockAlgorithm::Mcs, 16),
        (BenchKind::Ocean, LockAlgorithm::Mcs, 16),
    ];
    for (kind, algo, threads) in parking {
        let bench = BenchConfig::smoke(kind, threads);
        let mapping = LockMapping::hybrid(&bench.hc_locks(), algo, bench.n_locks());
        let dense = SimulationOptions { idle_skip: false, ..Default::default() };
        let skip = dump_mapped(&bench, &mapping, Default::default());
        let dense = dump_mapped(&bench, &mapping, dense);
        assert!(skip == dense, "{kind:?}/{algo:?} on {threads}: parking changed an observable");
    }
    for (kind, algo) in [
        (BenchKind::Mctr, LockAlgorithm::Glock),
        (BenchKind::Prco, LockAlgorithm::Mcs),
        (BenchKind::Qsort, LockAlgorithm::TatasBackoff),
        (BenchKind::Ocean, LockAlgorithm::Glock),
    ] {
        let skip = sim_for(kind, algo, 8, Default::default());
        let dense = sim_for(
            kind,
            algo,
            8,
            SimulationOptions { idle_skip: false, ..Default::default() },
        );
        assert_eq!(skip.cycles, dense.cycles, "{kind:?}/{algo:?}: cycle counts differ");
        assert_eq!(skip.finished_at, dense.finished_at, "{kind:?}/{algo:?}");
        assert_eq!(skip.acquires, dense.acquires, "{kind:?}/{algo:?}");
        assert_eq!(skip.instructions(), dense.instructions(), "{kind:?}/{algo:?}");
        assert_eq!(
            skip.traffic.total_messages, dense.traffic.total_messages,
            "{kind:?}/{algo:?}"
        );
        for (a, b) in skip.breakdowns.iter().zip(&dense.breakdowns) {
            assert_eq!(a, b, "{kind:?}/{algo:?}: per-core activity breakdowns differ");
        }
    }
}

#[test]
fn identical_runs_dump_byte_identical_stats_json_under_faults() {
    let opts = || {
        let mut plan = FaultPlan::seeded(0xFA01);
        plan.gline = FaultRates::drops(10_000); // 1% signal loss
        SimulationOptions {
            fault_plan: Some(plan),
            watchdog_cycles: 200_000,
            ..Default::default()
        }
    };
    let a = dump_json(opts());
    let b = dump_json(opts());
    assert_eq!(a, b, "a seeded fault plan must not break dump determinism");
    // The retransmission machinery actually fired, so the dump proves the
    // fault path is covered too.
    let dump = gstats::StatsDump::from_json(&a).expect("dump parses");
    let retransmits: u64 = dump
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("glock.") && k.ends_with(".retransmits"))
        .map(|(_, v)| *v)
        .sum();
    assert!(retransmits > 0, "1% G-line loss must cause retransmissions");
}

/// Dense and event-driven loops must also agree through the full
/// kill → failover → repair → fail-back lifecycle. The fail-back
/// controller's probe timers, hysteresis dwell and drain bookkeeping are
/// `next_event`-aware, so the idle-skip scheduler may leap across probe
/// gaps — and must still land on exactly the dense trajectory, down to
/// the `sim.repairs` / `sim.failbacks` counters.
#[test]
fn event_driven_and_dense_loops_agree_under_intermittent_faults() {
    let opts = |idle_skip: bool| {
        let mut plan = FaultPlan::seeded(0xFA02);
        plan.gline = FaultRates::drops(5_000); // transient loss on top
        plan.blink_all_glock_networks(1, 1_000, 5_000, 40_000);
        SimulationOptions {
            fault_plan: Some(plan),
            idle_skip,
            watchdog_cycles: 500_000,
            ..Default::default()
        }
    };
    let skip = dump_json(opts(true));
    let dense = dump_json(opts(false));
    assert_eq!(skip, dense, "the fail-back lifecycle diverged between loop modes");
    let dump = gstats::StatsDump::from_json(&skip).expect("dump parses");
    assert!(
        dump.counters.get("sim.repairs").copied().unwrap_or(0) > 0,
        "the blink plan must actually install a repair"
    );
    assert!(
        dump.counters.get("sim.failbacks").copied().unwrap_or(0) > 0,
        "the repaired network must actually be re-armed"
    );
}

/// The event-driven loop parks cores spinning on a G-line register and
/// ticks them again only when a device marks them: a GLock grant, a
/// repair's register reset, a death verdict, a GBarrier release. A missed
/// wake would leave a core parked past the cycle its spin ended, so each
/// wake source must keep the dump byte-identical to the dense loop, which
/// never parks.
#[test]
fn event_driven_and_dense_loops_agree_with_parked_spinners() {
    let glock = |bench: &BenchConfig| {
        LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Glock, bench.n_locks())
    };
    let pool = |bench: &BenchConfig| LockMapping::uniform(LockAlgorithm::DynamicGlock, bench.n_locks());
    let all_nets_die = |n_nets: usize| {
        let mut plan = FaultPlan::seeded(0xFA03);
        plan.kill_all_glock_networks(n_nets, 2_000, 6_000);
        SimulationOptions { fault_plan: Some(plan), watchdog_cycles: 500_000, ..Default::default() }
    };
    let n_hw = CmpConfig::paper_baseline().glocks.num_hw_locks;
    let sctr64 = BenchConfig::smoke(BenchKind::Sctr, 64);
    let sctr8 = BenchConfig::smoke(BenchKind::Sctr, 8);
    let ocean = BenchConfig::smoke(BenchKind::Ocean, 16);
    let actr = BenchConfig::smoke(BenchKind::Actr, 8);
    let cases = [
        ("GLock SCTR on an 8x8 mesh (grants)", &sctr64, glock(&sctr64), SimulationOptions::default()),
        (
            "G-line barrier on OCEAN (barrier releases)",
            &ocean,
            glock(&ocean),
            SimulationOptions { hardware_barrier: true, ..Default::default() },
        ),
        ("dynamic GLock pool on ACTR (pool grants)", &actr, pool(&actr), SimulationOptions::default()),
        ("failover with every net killed (death verdicts)", &sctr8, glock(&sctr8), all_nets_die(1)),
        ("dynamic pool with every net killed", &actr, pool(&actr), all_nets_die(n_hw)),
    ];
    for (name, bench, mapping, options) in cases {
        let dense = SimulationOptions { idle_skip: false, ..options.clone() };
        let skip = dump_mapped(bench, &mapping, options);
        let dense = dump_mapped(bench, &mapping, dense);
        assert!(skip == dense, "{name}: parking changed an observable, dumps differ");
    }
}

/// The event-driven loop jumps across router pipelines, L2 and memory
/// latency on the memory system's exact horizon. Delay faults move that
/// horizon: a delayed packet's head turns ready late and a delayed
/// directory reply finishes late. Dense and event-driven dumps must still
/// match byte for byte, and the dumps must show the delays fired.
#[test]
fn event_driven_and_dense_loops_agree_under_coherence_faults() {
    let bench = BenchConfig::smoke(BenchKind::Sctr, 16);
    let opts = |idle_skip: bool| {
        let mut plan = FaultPlan::seeded(0xFA04);
        plan.noc = FaultRates::delays(20_000, 30);
        plan.dir = FaultRates::delays(50_000, 40);
        SimulationOptions { fault_plan: Some(plan), idle_skip, ..Default::default() }
    };
    for algo in [LockAlgorithm::Mcs, LockAlgorithm::Tatas, LockAlgorithm::Glock] {
        let mapping = LockMapping::hybrid(&bench.hc_locks(), algo, bench.n_locks());
        let skip = dump_mapped(&bench, &mapping, opts(true));
        let dense = dump_mapped(&bench, &mapping, opts(false));
        assert!(skip == dense, "{algo:?}: delay faults made the loops diverge");
        let dump = gstats::StatsDump::from_json(&skip).expect("dump parses");
        for site in ["noc", "dir"] {
            let delays = dump.counters.get(&format!("faults.{site}.delays")).copied();
            assert!(delays.unwrap_or(0) > 0, "{algo:?}: no {site} delay fired");
        }
    }
}

/// A permanent router or tile death wedges the coherence protocol, which
/// has no retransmission layer. With nothing left in flight the memory
/// system reports no horizon, so the event-driven loop jumps straight to
/// the watchdog's deadline; the error and its diagnostic snapshot must be
/// the dense loop's, whatever the death cycle. Under GLock a core that
/// will die parks in its register spin with the halt pending, and its
/// owed poll charges stop at the halt: a checkpoint taken after the error
/// (every core's breakdown included) must match the dense loop's too.
#[test]
fn event_driven_and_dense_loops_agree_on_router_and_tile_deaths() {
    use glocks_repro::sim_base::fault::{HardFault, HardFaultTarget};
    let bench = BenchConfig::smoke(BenchKind::Sctr, 16);
    let cfg = CmpConfig::paper_baseline().with_cores(bench.threads);
    let run = |algo: LockAlgorithm, fault: HardFault, idle_skip: bool| {
        let mapping = LockMapping::hybrid(&bench.hc_locks(), algo, bench.n_locks());
        let mut plan = FaultPlan::seeded(0xFA05);
        plan.hard.push(fault);
        let options = SimulationOptions {
            fault_plan: Some(plan),
            idle_skip,
            watchdog_cycles: 50_000,
            ..Default::default()
        };
        let inst = bench.build();
        let mut sim = Simulation::new(&cfg, &mapping, inst.workloads, &inst.init, options);
        loop {
            match sim.step_fast(0) {
                Ok(false) => {}
                Ok(true) => panic!("{algo:?} {fault:?} did not wedge ({} cycles)", sim.now()),
                Err(e) => {
                    let image = sim.checkpoint().expect("checkpoint after the error");
                    return (format!("{e:?}"), image.into_bytes());
                }
            }
        }
    };
    for algo in [LockAlgorithm::Mcs, LockAlgorithm::Glock] {
        for (at, target) in [
            (1_500, HardFaultTarget::NocRouter { tile: 5 }),
            (6_000, HardFaultTarget::NocRouter { tile: 10 }),
            (1_000, HardFaultTarget::Tile { core: 3 }),
            (7_000, HardFaultTarget::Tile { core: 12 }),
        ] {
            let fault = HardFault::permanent(at, target);
            let (skip, skip_image) = run(algo, fault, true);
            let (dense, dense_image) = run(algo, fault, false);
            assert_eq!(skip, dense, "{algo:?} {fault:?}: the loops surfaced different errors");
            assert!(skip_image == dense_image, "{algo:?} {fault:?}: the machine images differ");
        }
    }
}

#[test]
fn self_diff_of_a_dump_is_clean() {
    let text = dump_json(Default::default());
    let dump = gstats::StatsDump::from_json(&text).expect("dump parses");
    let report = gstats::diff(&dump, &dump, &gstats::DiffOptions::default());
    assert!(!report.failed);
    assert_eq!(report.changed().count(), 0);
}

/// Paper-exactness: stats are a pure observer. The numbers the paper's
/// figures are built from (execution cycles, grants, G-line signals) must
/// be bit-identical whether or not a stats session is recording.
#[test]
fn enabling_stats_does_not_perturb_the_simulation() {
    assert!(!gstats::is_enabled(), "test assumes a clean thread");
    let off = sim_for(BenchKind::Sctr, LockAlgorithm::Glock, 8, Default::default());
    assert!(off.stats.is_none(), "stats off ⇒ no snapshot in the report");

    gstats::enable(gstats::StatsConfig::default());
    let on = sim_for(BenchKind::Sctr, LockAlgorithm::Glock, 8, Default::default());
    gstats::disable();

    assert_eq!(off.cycles, on.cycles);
    assert_eq!(off.finished_at, on.finished_at);
    assert_eq!(off.glocks.len(), on.glocks.len());
    for (g_off, g_on) in off.glocks.iter().zip(&on.glocks) {
        assert_eq!(g_off.grants, g_on.grants);
        assert_eq!(g_off.signals, g_on.signals);
        assert_eq!(g_off.dropped, g_on.dropped);
        assert_eq!(g_off.retransmits, g_on.retransmits);
    }
    assert_eq!(off.traffic.total_messages, on.traffic.total_messages);
    assert_eq!(off.instructions(), on.instructions());

    // And the snapshot agrees with the report it rode in on.
    let dump = on.stats.expect("snapshot attached");
    assert_eq!(dump.counters.get("sim.cycles"), Some(&on.cycles));
}

/// The runtime protocol checker is a pure observer too: on a fault-free
/// run it must neither change a single paper-facing number nor add keys to
/// a dump it is not part of (the `checker.*` stats only register when a
/// checker is attached, keeping the golden dump's schema stable).
#[test]
fn enabling_the_checker_does_not_perturb_the_simulation() {
    use glocks_repro::sim::CheckerConfig;
    let off = sim_for(BenchKind::Sctr, LockAlgorithm::Glock, 8, Default::default());
    let on = sim_for(
        BenchKind::Sctr,
        LockAlgorithm::Glock,
        8,
        SimulationOptions {
            // Densest possible cadence — maximum opportunity to perturb.
            checker: Some(CheckerConfig { every: 1, fairness_window: 1_000_000 }),
            ..Default::default()
        },
    );

    assert_eq!(off.cycles, on.cycles);
    assert_eq!(off.finished_at, on.finished_at);
    assert_eq!(off.acquires, on.acquires);
    assert_eq!(off.glocks.len(), on.glocks.len());
    for (g_off, g_on) in off.glocks.iter().zip(&on.glocks) {
        assert_eq!(g_off.grants, g_on.grants);
        assert_eq!(g_off.signals, g_on.signals);
    }
    assert_eq!(off.traffic.total_messages, on.traffic.total_messages);
    assert_eq!(off.instructions(), on.instructions());

    // Dumps with the checker off must not grow checker keys...
    let plain = dump_json(Default::default());
    let plain = gstats::StatsDump::from_json(&plain).expect("dump parses");
    assert!(
        !plain.counters.keys().any(|k| k.starts_with("checker.")),
        "checker-off dumps must keep the golden schema"
    );
    // ...while checker-on dumps record that checks actually ran.
    let checked = dump_json(SimulationOptions {
        checker: Some(CheckerConfig::default()),
        ..Default::default()
    });
    let checked = gstats::StatsDump::from_json(&checked).expect("dump parses");
    assert!(
        checked.counters.get("checker.checks_run").copied().unwrap_or(0) > 0,
        "an attached checker must actually run checks"
    );
}

/// The committed goldens, regenerated through the same harness path as
/// `glocks-experiments stats --quick --threads N --stats-json DIR`, must
/// match byte for byte: no tolerance, unlike the CI `glocks-stats diff`
/// gate. The MCS goldens exercise every coherence counter family
/// (upgrades, invalidations, forwards, cache-to-cache transfers). The
/// 64-core MCS golden runs on an 8×8 mesh, where the active sets of
/// routers, delivery queues and controllers fill a whole `u64` word and
/// NoC arbitration is densest.
#[test]
fn golden_dumps_regenerate_byte_identically() {
    use glocks_repro::harness::exp::{self, glock_mapping, mcs_mapping, ExpOptions};
    let dir = std::env::temp_dir().join(format!("glocks_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    exp::set_stats_dir(dir.to_str());
    let bench = |threads| ExpOptions { quick: true, threads }.bench(BenchKind::Sctr);
    let runs = [
        (bench(8), glock_mapping(&bench(8))),
        (bench(8), mcs_mapping(&bench(8))),
        (bench(64), mcs_mapping(&bench(64))),
    ];
    for (bench, mapping) in runs {
        exp::set_stats_context("stats");
        exp::run_bench(&bench, &mapping).expect("fault-free run");
        let name = format!("stats_SCTR_{}_{}t_0.json", mapping.label(), bench.threads);
        let fresh = std::fs::read(dir.join(&name)).expect("dump written");
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(&name);
        let golden = std::fs::read(golden).expect("golden committed");
        assert!(fresh == golden, "{name} is not byte-identical to its golden");
    }
    exp::set_stats_dir(None);
    std::fs::remove_dir_all(&dir).ok();
}

/// An energy model charging 1 pJ per event of the chosen kinds and nothing
/// else: the report's component energies are then exactly the event
/// counts the runner handed to the model.
fn counting_model(l1_l2_mem: bool) -> EnergyModel {
    let unit = |on: bool| if on { 1.0 } else { 0.0 };
    EnergyModel {
        instr_pj: 0.0,
        core_cycle_pj: 0.0,
        l1_access_pj: unit(l1_l2_mem),
        l2_access_pj: unit(l1_l2_mem),
        dir_txn_pj: unit(!l1_l2_mem),
        mem_access_pj: unit(l1_l2_mem),
        router_hop_pj: 0.0,
        link_byte_pj: 0.0,
        gline_signal_pj: 0.0,
        glock_ctrl_cycle_pj: 0.0,
        tile_leak_pj: 0.0,
    }
}

/// Energy and the stats dump count the same events: the L1, L2, directory
/// and memory totals reaching the energy model equal the dump's
/// `mem.total.*`, and each `mem.total.<k>` is the sum over tiles of
/// `mem.l1.t*.<k>` / `mem.dir.t*.<k>`.
#[test]
fn energy_inputs_match_the_dumped_memory_totals() {
    let run = |l1_l2_mem: bool| {
        gstats::enable(gstats::StatsConfig::default());
        let options = SimulationOptions {
            energy_model: counting_model(l1_l2_mem),
            ..Default::default()
        };
        let report = sim_for(BenchKind::Sctr, LockAlgorithm::Mcs, 8, options);
        gstats::disable();
        let dump = report.stats.clone().expect("snapshot attached");
        (report.energy, dump)
    };
    let (e, dump) = run(true);
    let (e_dir, dump_dir) = run(false);
    assert!(dump == dump_dir, "the energy model must not perturb the run");

    let total = |k: &str| dump.counters[&format!("mem.total.{k}")] as f64;
    assert_eq!(e.l1_pj, total("l1_access"));
    assert_eq!(e.l2_dir_pj, total("l2_access"));
    assert_eq!(e.mem_pj, total("mem_access"));
    assert_eq!(e_dir.l2_dir_pj, total("dir_txn"));

    let mut per_tile_sums: BTreeMap<&str, u64> = BTreeMap::new();
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for (key, &v) in &dump.counters {
        if let Some(k) = key.strip_prefix("mem.total.") {
            totals.insert(k, v);
        } else if let Some(rest) =
            key.strip_prefix("mem.l1.t").or_else(|| key.strip_prefix("mem.dir.t"))
        {
            let (_, k) = rest.split_once('.').expect("mem.<unit>.t<N>.<k>");
            *per_tile_sums.entry(k).or_default() += v;
        }
    }
    for k in ["l1_upgrade", "l1_inv_recv", "l1_fwd_recv", "dir_c2c", "dir_inv_sent"] {
        assert!(totals.contains_key(k), "MCS handoffs must publish {k}: {totals:?}");
    }
    assert_eq!(per_tile_sums, totals);
}
