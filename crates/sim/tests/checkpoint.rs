//! Checkpoint/restore equivalence: a run interrupted at an arbitrary
//! cycle boundary and resumed into a freshly reconstructed machine must
//! finish with a **byte-identical** stats dump and an identical memory
//! image — fault-free, under a seeded fault plan with hard failures, and
//! with the runtime invariant checker riding along.

use glocks_cpu::{Action, Workload};
use glocks_locks::LockAlgorithm;
use glocks_mem::{MemDiag, MemOp};
use glocks_sim::{CheckerConfig, LockMapping, Simulation, SimulationOptions, Snapshot};
use glocks_sim_base::fault::{FaultPlan, FaultRates};
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{Addr, CmpConfig, LockId};
use proptest::prelude::*;

const COUNTER: Addr = Addr(0x200_0000);

/// Lock-increment-release loop with full snapshot support.
struct Counter {
    iters: u64,
    phase: u8,
    seen: u64,
}

impl Workload for Counter {
    fn next(&mut self, last: u64) -> Action {
        match self.phase {
            0 => {
                if self.iters == 0 {
                    return Action::Done;
                }
                self.phase = 1;
                Action::Acquire(LockId(0))
            }
            1 => {
                self.phase = 2;
                Action::Mem(MemOp::Load(COUNTER))
            }
            2 => {
                self.seen = last;
                self.phase = 3;
                Action::Mem(MemOp::Store(COUNTER, self.seen + 1))
            }
            4 => {
                self.phase = 0;
                Action::Barrier
            }
            _ => {
                self.iters -= 1;
                self.phase = 4;
                Action::Release(LockId(0))
            }
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u8(self.phase);
        w.u64(self.iters);
        w.u64(self.seen);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.phase = r.u8()?;
        self.iters = r.u64()?;
        self.seen = r.u64()?;
        Ok(())
    }
}

#[derive(Clone, Copy)]
struct Scenario {
    algo: LockAlgorithm,
    cores: usize,
    iters: u64,
    faults: bool,
    checker: bool,
}

fn options(s: Scenario) -> SimulationOptions {
    let fault_plan = s.faults.then(|| {
        let mut plan = FaultPlan::seeded(0xBEEF);
        plan.gline = FaultRates::drops(10_000); // 1% transient signal loss
        plan.kill_all_glock_networks(1, 2_000, 6_000); // plus a hard death
        plan
    });
    SimulationOptions {
        fault_plan,
        checker: s.checker.then(CheckerConfig::default),
        watchdog_cycles: 500_000,
        ..Default::default()
    }
}

fn build(s: Scenario) -> Simulation {
    build_with(s, options(s))
}

fn build_with(s: Scenario, options: SimulationOptions) -> Simulation {
    let cfg = CmpConfig::paper_baseline().with_cores(s.cores);
    let mapping = LockMapping::uniform(s.algo, 1);
    let workloads = (0..s.cores)
        .map(|_| Box::new(Counter { iters: s.iters, phase: 0, seen: 0 }) as Box<dyn Workload>)
        .collect();
    Simulation::new(&cfg, &mapping, workloads, &[], options)
}

fn resume(s: Scenario, snap: &Snapshot) -> Simulation {
    let cfg = CmpConfig::paper_baseline().with_cores(s.cores);
    let mapping = LockMapping::uniform(s.algo, 1);
    let workloads = (0..s.cores)
        .map(|_| Box::new(Counter { iters: s.iters, phase: 0, seen: 0 }) as Box<dyn Workload>)
        .collect();
    Simulation::resume(&cfg, &mapping, workloads, &[], options(s), snap)
        .expect("snapshot must load into an identically specified machine")
}

/// Run to completion inside a stats session; return the dump JSON and the
/// final shared counter value.
fn finish_with_stats(sim: Simulation) -> (String, u64) {
    let (report, mem) = sim.run().expect("run must complete");
    let json = report.stats.as_ref().expect("stats were enabled").to_json();
    let counter = mem.store().load(COUNTER);
    glocks_stats::disable();
    (json, counter)
}

/// The uninterrupted reference run for a scenario.
fn baseline(s: Scenario) -> (String, u64) {
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    finish_with_stats(build(s))
}

/// Checkpoint at (or just past) `at_cycle`, round-trip the snapshot
/// through its byte encoding, resume into a fresh machine, and finish.
fn interrupted(s: Scenario, at_cycle: u64) -> (String, u64) {
    interrupted_in(s, at_cycle).0
}

/// [`interrupted`], also returning what the memory system was doing at
/// the checkpoint.
fn interrupted_in(s: Scenario, at_cycle: u64) -> ((String, u64), MemDiag) {
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    let mut sim = build(s);
    while sim.now() < at_cycle {
        if sim.step().expect("run must stay healthy until the checkpoint") {
            break;
        }
    }
    let at_checkpoint = sim.mem_diag();
    let bytes = sim.checkpoint().expect("every component supports snapshots").into_bytes();
    drop(sim); // the interrupted process is gone
    glocks_stats::disable();

    let snap = Snapshot::from_bytes(bytes).expect("snapshot survives its byte round-trip");
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    let resumed = resume(s, &snap);
    assert_eq!(resumed.now(), snap.cycle());
    (finish_with_stats(resumed), at_checkpoint)
}

fn assert_equivalent(s: Scenario, at_cycle: u64) {
    let (ref_json, ref_counter) = baseline(s);
    let (got_json, got_counter) = interrupted(s, at_cycle);
    assert_eq!(got_counter, ref_counter, "memory image diverged");
    assert_eq!(got_json, ref_json, "stats dump not byte-identical after resume");
}

#[test]
fn mcs_resume_is_byte_identical() {
    let s = Scenario { algo: LockAlgorithm::Mcs, cores: 8, iters: 4, faults: false, checker: false };
    assert_equivalent(s, 1_500);
}

/// A 10×10 mesh has 100 routers, delivery queues and controllers, so the
/// memory system's active sets span two `u64` words. The checkpoint lands
/// with packets queued in routers, and the resumed machine must rebuild
/// the sets from its restored queues.
#[test]
fn resume_on_a_100_core_mesh_with_packets_in_flight_is_byte_identical() {
    let s =
        Scenario { algo: LockAlgorithm::Mcs, cores: 100, iters: 1, faults: false, checker: false };
    let (ref_json, ref_counter) = baseline(s);
    let ((got_json, got_counter), at_checkpoint) = interrupted_in(s, 2_000);
    assert!(at_checkpoint.noc_queued > 0, "no packet in a router: {at_checkpoint:?}");
    assert_eq!(got_counter, ref_counter, "memory image diverged");
    assert_eq!(got_json, ref_json, "stats dump not byte-identical after resume");
}

#[test]
fn glock_resume_is_byte_identical() {
    let s =
        Scenario { algo: LockAlgorithm::Glock, cores: 8, iters: 4, faults: false, checker: false };
    assert_equivalent(s, 1_000);
}

/// Checkpoint `s` while at least 8 cores are parked. Parking is derived
/// host state: the checkpoint charges the parked cores their polls and
/// settles the L1s parked with them, so its bytes must equal those of a
/// dense run checkpointed at the same cycle, and the resumed machine
/// (which starts with every core active) must finish byte-identically.
fn assert_resume_with_parked_spinners_is_byte_identical(s: Scenario) {
    let (ref_json, ref_counter) = baseline(s);
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    let mut sim = build(s);
    while sim.parked_cores() < 8 {
        assert!(!sim.step_fast(0).expect("healthy run"), "finished before 8 cores parked");
    }
    // Land a few cycles into the parked span, off the cycle they parked.
    for _ in 0..3 {
        assert!(!sim.step().expect("healthy run"));
    }
    assert!(sim.parked_cores() >= 8, "checkpoint must be taken with cores parked");
    let bytes = sim.checkpoint().expect("snapshot").into_bytes();
    assert_eq!(sim.parked_cores(), 0, "the checkpoint unparks every core");
    let at = sim.now();
    drop(sim);
    glocks_stats::disable();

    glocks_stats::enable(glocks_stats::StatsConfig::default());
    let mut dense = build_with(s, SimulationOptions { idle_skip: false, ..options(s) });
    while dense.now() < at {
        assert!(!dense.step().expect("healthy run"));
    }
    let dense_bytes = dense.checkpoint().expect("snapshot").into_bytes();
    drop(dense);
    glocks_stats::disable();
    assert!(bytes == dense_bytes, "settled checkpoint differs from the dense loop's at cycle {at}");

    let snap = Snapshot::from_bytes(bytes).expect("snapshot survives its byte round-trip");
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    let (got_json, got_counter) = finish_with_stats(resume(s, &snap));
    assert_eq!(got_counter, ref_counter, "memory image diverged");
    assert_eq!(got_json, ref_json, "stats dump not byte-identical after resume");
}

/// Cores parked on their `lock_req` register spin.
#[test]
fn resume_with_parked_spinners_is_byte_identical() {
    let s =
        Scenario { algo: LockAlgorithm::Glock, cores: 16, iters: 4, faults: false, checker: false };
    assert_resume_with_parked_spinners_is_byte_identical(s);
}

/// MCS waiters parked with their L1s in L1-hit polls of their own
/// `locked` flag.
#[test]
fn resume_with_parked_l1_spinners_is_byte_identical() {
    let s = Scenario { algo: LockAlgorithm::Mcs, cores: 16, iters: 4, faults: false, checker: false };
    assert_resume_with_parked_spinners_is_byte_identical(s);
}

#[test]
fn dynamic_glock_resume_is_byte_identical() {
    let s = Scenario {
        algo: LockAlgorithm::DynamicGlock,
        cores: 8,
        iters: 4,
        faults: false,
        checker: false,
    };
    assert_equivalent(s, 1_000);
}

/// Under a hard-fault plan the checkpoint lands *inside* the failover
/// window (the network dies between cycles 2000 and 6000), so quarantine
/// state, epoch counters and software-fallback positions all ride through
/// the snapshot.
#[test]
fn resume_under_hard_faults_is_byte_identical() {
    let s =
        Scenario { algo: LockAlgorithm::Glock, cores: 8, iters: 12, faults: true, checker: false };
    assert_equivalent(s, 4_000);
}

#[test]
fn resume_with_invariant_checker_is_byte_identical() {
    let s =
        Scenario { algo: LockAlgorithm::Glock, cores: 8, iters: 8, faults: true, checker: true };
    assert_equivalent(s, 3_000);
}

#[test]
fn periodic_checkpoints_do_not_perturb_the_run() {
    let s = Scenario { algo: LockAlgorithm::Mcs, cores: 4, iters: 3, faults: false, checker: false };
    let (ref_json, ref_counter) = baseline(s);
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    let mut n_snaps = 0usize;
    let mut last: Option<Snapshot> = None;
    let (report, mem) = build(s)
        .run_with_checkpoints(500, &mut |snap| {
            n_snaps += 1;
            last = Some(snap);
        })
        .expect("checkpointed run must complete");
    let json = report.stats.as_ref().unwrap().to_json();
    glocks_stats::disable();
    assert!(n_snaps > 0, "the run is long enough for at least one auto-checkpoint");
    assert_eq!(mem.store().load(COUNTER), ref_counter);
    assert_eq!(json, ref_json, "auto-checkpointing changed the run");
    // ...and the last auto-checkpoint itself resumes correctly.
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    let (json2, counter2) = finish_with_stats(resume(s, &last.expect("saw a snapshot")));
    assert_eq!(counter2, ref_counter);
    assert_eq!(json2, ref_json);
}

/// The event-driven scheduler must march through exactly the dense loop's
/// state trajectory: same final dump bytes, same memory image — fault-free,
/// under transient + hard faults with failover, and with the checker
/// attached.
#[test]
fn dense_and_event_driven_runs_are_byte_identical() {
    let scenarios = [
        Scenario { algo: LockAlgorithm::Mcs, cores: 8, iters: 4, faults: false, checker: false },
        Scenario { algo: LockAlgorithm::Glock, cores: 8, iters: 12, faults: true, checker: false },
        Scenario { algo: LockAlgorithm::Glock, cores: 8, iters: 8, faults: true, checker: true },
        // Two-word active sets on a 10×10 mesh.
        Scenario { algo: LockAlgorithm::Mcs, cores: 100, iters: 1, faults: false, checker: false },
    ];
    for s in scenarios {
        let (skip_json, skip_counter) = baseline(s);
        glocks_stats::enable(glocks_stats::StatsConfig::default());
        let cfg = CmpConfig::paper_baseline().with_cores(s.cores);
        let mapping = LockMapping::uniform(s.algo, 1);
        let workloads = (0..s.cores)
            .map(|_| Box::new(Counter { iters: s.iters, phase: 0, seen: 0 }) as Box<dyn Workload>)
            .collect();
        let opts = SimulationOptions { idle_skip: false, ..options(s) };
        let (dense_json, dense_counter) =
            finish_with_stats(Simulation::new(&cfg, &mapping, workloads, &[], opts));
        assert_eq!(dense_counter, skip_counter, "memory image diverged");
        assert_eq!(dense_json, skip_json, "dense vs event-driven dumps differ");
    }
}

/// `idle_skip` is a host execution strategy, not machine spec: a snapshot
/// taken by a dense run loads into an event-driven machine (and vice
/// versa) and finishes byte-identically — the two modes share fingerprints
/// because they share trajectories.
#[test]
fn dense_snapshot_resumes_into_event_driven_machine_and_back() {
    let s =
        Scenario { algo: LockAlgorithm::Glock, cores: 8, iters: 12, faults: true, checker: false };
    let (ref_json, ref_counter) = baseline(s);

    let make = |idle_skip: bool| {
        let cfg = CmpConfig::paper_baseline().with_cores(s.cores);
        let mapping = LockMapping::uniform(s.algo, 1);
        let workloads: Vec<Box<dyn Workload>> = (0..s.cores)
            .map(|_| Box::new(Counter { iters: s.iters, phase: 0, seen: 0 }) as Box<dyn Workload>)
            .collect();
        (cfg, mapping, workloads, SimulationOptions { idle_skip, ..options(s) })
    };

    // Dense prefix (inside the failover window) → event-driven rest.
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    let (cfg, mapping, workloads, opts) = make(false);
    let mut sim = Simulation::new(&cfg, &mapping, workloads, &[], opts);
    while sim.now() < 4_000 {
        if sim.step().expect("healthy until checkpoint") {
            break;
        }
    }
    let snap = sim.checkpoint().expect("snapshot");
    drop(sim);
    glocks_stats::disable();
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    let (cfg, mapping, workloads, opts) = make(true);
    let resumed = Simulation::resume(&cfg, &mapping, workloads, &[], opts, &snap)
        .expect("dense snapshot loads into an event-driven machine");
    let (json, counter) = finish_with_stats(resumed);
    assert_eq!(counter, ref_counter);
    assert_eq!(json, ref_json, "dense → event-driven handoff diverged");

    // Event-driven prefix → dense rest.
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    let (cfg, mapping, workloads, opts) = make(true);
    let mut sim = Simulation::new(&cfg, &mapping, workloads, &[], opts);
    while sim.now() < 4_000 {
        if sim.step_fast(0).expect("healthy until checkpoint") {
            break;
        }
    }
    let snap = sim.checkpoint().expect("snapshot");
    drop(sim);
    glocks_stats::disable();
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    let (cfg, mapping, workloads, opts) = make(false);
    let resumed = Simulation::resume(&cfg, &mapping, workloads, &[], opts, &snap)
        .expect("event-driven snapshot loads into a dense machine");
    let (json, counter) = finish_with_stats(resumed);
    assert_eq!(counter, ref_counter);
    assert_eq!(json, ref_json, "event-driven → dense handoff diverged");
}

#[test]
fn mismatched_configuration_is_refused() {
    let s = Scenario { algo: LockAlgorithm::Mcs, cores: 4, iters: 2, faults: false, checker: false };
    let mut sim = build(s);
    for _ in 0..100 {
        if sim.step().unwrap() {
            break;
        }
    }
    let snap = sim.checkpoint().unwrap();
    // Different core count → different fingerprint → refused.
    let other = Scenario { cores: 8, ..s };
    let cfg = CmpConfig::paper_baseline().with_cores(other.cores);
    let mapping = LockMapping::uniform(other.algo, 1);
    let workloads = (0..other.cores)
        .map(|_| Box::new(Counter { iters: other.iters, phase: 0, seen: 0 }) as Box<dyn Workload>)
        .collect();
    let err = Simulation::resume(&cfg, &mapping, workloads, &[], options(other), &snap)
        .err()
        .expect("a different machine must refuse the snapshot");
    assert!(matches!(err, SnapError::FingerprintMismatch { .. }), "{err}");
    // Different lock algorithm → also refused.
    let err2 = {
        let cfg = CmpConfig::paper_baseline().with_cores(s.cores);
        let mapping = LockMapping::uniform(LockAlgorithm::Ticket, 1);
        let workloads = (0..s.cores)
            .map(|_| Box::new(Counter { iters: s.iters, phase: 0, seen: 0 }) as Box<dyn Workload>)
            .collect();
        Simulation::resume(&cfg, &mapping, workloads, &[], options(s), &snap)
            .err()
            .expect("a different lock mapping must refuse the snapshot")
    };
    assert!(matches!(err2, SnapError::FingerprintMismatch { .. }), "{err2}");
}

/// Per-core workloads of an open-loop service machine: bursty MMPP
/// arrivals over one lock, so a checkpoint can land mid-burst with
/// requests queued, a request in flight, and the arrival RNG mid-stream.
/// Stats ids register in construction order — identical for the baseline
/// and the resumed process, which is what the registry restore checks.
fn service_workloads(cores: usize) -> Vec<Box<dyn Workload>> {
    use glocks_arrivals::{ArrivalProcess, ServiceConfig, ServiceWorkload};
    (0..cores)
        .map(|core| {
            let c = ServiceConfig {
                lock: LockId(0),
                data: COUNTER,
                cs_instructions: 8,
                requests: 10,
                queue_cap: 16,
                process: ArrivalProcess::Mmpp {
                    calm_gap: 900,
                    burst_gap: 60,
                    calm_dwell: 3_000,
                    burst_dwell: 2_000,
                },
                tenant: 0,
            };
            Box::new(ServiceWorkload::new(c, 0xA11E, core as u64)) as Box<dyn Workload>
        })
        .collect()
}

fn build_service(algo: LockAlgorithm, cores: usize) -> Simulation {
    build_service_with(algo, cores, true)
}

fn build_service_with(algo: LockAlgorithm, cores: usize, idle_skip: bool) -> Simulation {
    let cfg = CmpConfig::paper_baseline().with_cores(cores);
    let mapping = LockMapping::uniform(algo, 1);
    let options =
        SimulationOptions { watchdog_cycles: 500_000, idle_skip, ..Default::default() };
    Simulation::new(&cfg, &mapping, service_workloads(cores), &[(COUNTER, 0)], options)
}

/// The open-loop service machine is where the event-driven scheduler
/// actually skips (long inter-arrival lulls with every core asleep), so it
/// is the sharpest equivalence probe: dense and skipping runs must dump
/// byte-identical stats, including the SLO tail histograms.
#[test]
fn dense_and_event_driven_service_runs_are_byte_identical() {
    for algo in [LockAlgorithm::Mcs, LockAlgorithm::Glock] {
        glocks_stats::enable(glocks_stats::StatsConfig::default());
        let (skip_json, skip_counter) = run_service(build_service_with(algo, 6, true));
        glocks_stats::enable(glocks_stats::StatsConfig::default());
        let (dense_json, dense_counter) = run_service(build_service_with(algo, 6, false));
        assert_eq!(dense_counter, skip_counter, "{algo:?}: memory image diverged");
        assert_eq!(dense_json, skip_json, "{algo:?}: service dumps differ");
    }
}

fn run_service(sim: Simulation) -> (String, u64) {
    let (report, mem) = sim.run().expect("service run must complete");
    let json = report.stats.as_ref().expect("stats were enabled").to_json();
    let counter = mem.store().load(COUNTER);
    glocks_stats::disable();
    (json, counter)
}

/// Options for an *intermittent* network death: the G-lines die inside
/// [2000, 6000], the replacement hardware becomes claimable 40k cycles
/// later (just before the ~47k-cycle detection verdict lands), and the
/// fail-back machinery probes, dwells, drains and re-arms — all within the
/// run.
fn blink_options(checker: bool) -> SimulationOptions {
    let mut plan = FaultPlan::seeded(0xBEEF);
    plan.gline = FaultRates::drops(10_000);
    plan.blink_all_glock_networks(1, 2_000, 6_000, 40_000);
    SimulationOptions {
        fault_plan: Some(plan),
        checker: checker.then(CheckerConfig::default),
        watchdog_cycles: 500_000,
        ..Default::default()
    }
}

fn blink_workloads(cores: usize, iters: u64) -> Vec<Box<dyn Workload>> {
    (0..cores)
        .map(|_| Box::new(Counter { iters, phase: 0, seen: 0 }) as Box<dyn Workload>)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Tentpole property: an intermittent-fault run interrupted at a
    /// random cycle inside the repair / probe / drain window and resumed
    /// into a fresh machine produces a byte-identical dump — the repaired
    /// network's untrusted boot image, the fail-back controller's probe
    /// rotation, hysteresis score, dwell timer and software-drain
    /// bookkeeping all ride through the snapshot.
    #[test]
    fn resume_during_probe_and_drain_phases_is_byte_identical(
        at_cycle in 45_000u64..62_000,
        checker in any::<bool>(),
    ) {
        let cores = 8;
        let iters = 48;
        let cfg = CmpConfig::paper_baseline().with_cores(cores);
        let mapping = LockMapping::uniform(LockAlgorithm::Glock, 1);

        glocks_stats::enable(glocks_stats::StatsConfig::default());
        let sim = Simulation::new(
            &cfg, &mapping, blink_workloads(cores, iters), &[], blink_options(checker),
        );
        let (ref_json, ref_counter) = finish_with_stats(sim);
        // The reference run proves the checkpoint window actually overlaps
        // the fail-back machinery: the hardware path was re-armed, and the
        // run outlived every sampled interruption cycle.
        let dump = glocks_stats::StatsDump::from_json(&ref_json).expect("dump parses");
        prop_assert!(
            dump.counters.get("sim.failbacks").copied().unwrap_or(0) > 0,
            "the scenario must actually fail back"
        );
        prop_assert!(
            dump.counters.get("sim.cycles").copied().unwrap_or(0) > at_cycle,
            "the run must outlive the interruption cycle"
        );

        glocks_stats::enable(glocks_stats::StatsConfig::default());
        let mut sim = Simulation::new(
            &cfg, &mapping, blink_workloads(cores, iters), &[], blink_options(checker),
        );
        while sim.now() < at_cycle {
            if sim.step().expect("healthy until checkpoint") {
                break;
            }
        }
        let bytes = sim.checkpoint().expect("mid-fail-back state snapshots").into_bytes();
        drop(sim);
        glocks_stats::disable();

        let snap = Snapshot::from_bytes(bytes).expect("snapshot byte round-trip");
        glocks_stats::enable(glocks_stats::StatsConfig::default());
        let resumed = Simulation::resume(
            &cfg, &mapping, blink_workloads(cores, iters), &[], blink_options(checker), &snap,
        )
        .expect("snapshot loads into an identical machine");
        prop_assert_eq!(resumed.now(), snap.cycle());
        let (got_json, got_counter) = finish_with_stats(resumed);
        prop_assert_eq!(got_counter, ref_counter, "memory image diverged");
        prop_assert_eq!(got_json, ref_json, "mid-fail-back resume not byte-identical");
    }

    /// Satellite property: an open-loop service run interrupted mid-burst
    /// at a random cycle and resumed produces a byte-identical stats dump
    /// (arrival RNG position, backlog contents, in-flight request
    /// timestamps and live histograms all ride through the snapshot).
    #[test]
    fn service_resume_mid_burst_is_byte_identical(
        at_cycle in 200u64..8_000,
        family in 0u8..2,
    ) {
        let algo = if family == 0 { LockAlgorithm::Mcs } else { LockAlgorithm::Glock };
        glocks_stats::enable(glocks_stats::StatsConfig::default());
        let (ref_json, ref_counter) = run_service(build_service(algo, 6));

        glocks_stats::enable(glocks_stats::StatsConfig::default());
        let mut sim = build_service(algo, 6);
        while sim.now() < at_cycle {
            if sim.step().expect("healthy until checkpoint") {
                break;
            }
        }
        let bytes = sim.checkpoint().expect("service workloads snapshot").into_bytes();
        drop(sim);
        glocks_stats::disable();

        let snap = Snapshot::from_bytes(bytes).expect("snapshot byte round-trip");
        glocks_stats::enable(glocks_stats::StatsConfig::default());
        let cfg = CmpConfig::paper_baseline().with_cores(6);
        let mapping = LockMapping::uniform(algo, 1);
        let options = SimulationOptions { watchdog_cycles: 500_000, ..Default::default() };
        let resumed = Simulation::resume(
            &cfg,
            &mapping,
            service_workloads(6),
            &[(COUNTER, 0)],
            options,
            &snap,
        )
        .expect("snapshot loads into an identical service machine");
        prop_assert_eq!(resumed.now(), snap.cycle());
        let (got_json, got_counter) = run_service(resumed);
        prop_assert_eq!(got_counter, ref_counter);
        prop_assert_eq!(got_json, ref_json, "service resume not byte-identical");
    }

    /// Satellite property: checkpoint at a *random* cycle, resume, and the
    /// final stats dump is byte-identical — across algorithm families and
    /// with/without faults and the checker.
    #[test]
    fn random_cycle_checkpoint_resumes_byte_identically(
        at_cycle in 1u64..6_000,
        family in 0u8..3,
    ) {
        let (algo, faults, checker) = match family {
            0 => (LockAlgorithm::Mcs, false, false),
            1 => (LockAlgorithm::Glock, true, false),
            _ => (LockAlgorithm::Glock, true, true),
        };
        let s = Scenario { algo, cores: 6, iters: 6, faults, checker };
        let (ref_json, ref_counter) = baseline(s);
        let (got_json, got_counter) = interrupted(s, at_cycle);
        prop_assert_eq!(got_counter, ref_counter);
        prop_assert_eq!(got_json, ref_json);
    }
}
