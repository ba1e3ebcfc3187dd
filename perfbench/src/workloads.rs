//! The benchmark's workloads: how each is configured, built from the seed,
//! and checked after the run.

use crate::probe::{Probe, ProbeLog, SharedLog};
use glocks_arrivals::tenant::{mix_init, mix_workloads};
use glocks_arrivals::{ArrivalProcess, TenantSpec};
use glocks_cpu::Workload;
use glocks_locks::LockAlgorithm;
use glocks_mem::MemorySystem;
use glocks_sim::{LockMapping, SimReport};
use glocks_sim_base::{Addr, CmpConfig, LockId};
use glocks_workloads::{BenchConfig, BenchKind, Verifier};
use std::cell::RefCell;
use std::rc::Rc;

/// Largest machine the benchmark accepts. Above 128 cores the directory's
/// sharer mask cannot represent every core, so the coherence model (and
/// any timing measured on it) is wrong.
pub const MAX_CORES: usize = 128;

pub const NAMES: [&str; 3] = ["sctr_glock_64", "sctr_mcs_64", "service_bursty_16"];

/// SCTR iterations (all cores together) per run.
const SCTR_GLOCK_ITERS: u64 = 1000;
const SCTR_MCS_ITERS: u64 = 500;

/// Requests each service core generates; 16 cores give 9600 per run.
const SERVICE_REQUESTS_PER_CORE: u64 = 600;

#[derive(Clone, Copy)]
enum Kind {
    /// SCTR: every core increments one counter under lock 0.
    Sctr {
        algo: LockAlgorithm,
        iterations: u64,
    },
    /// Two open-loop tenants, each on its own GLock.
    Service,
}

#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub cfg: CmpConfig,
    kind: Kind,
}

impl Spec {
    pub fn lookup(name: &str) -> Result<Spec, String> {
        let (cores, kind) = match name {
            "sctr_glock_64" => (
                64,
                Kind::Sctr {
                    algo: LockAlgorithm::Glock,
                    iterations: SCTR_GLOCK_ITERS,
                },
            ),
            "sctr_mcs_64" => (
                64,
                Kind::Sctr {
                    algo: LockAlgorithm::Mcs,
                    iterations: SCTR_MCS_ITERS,
                },
            ),
            "service_bursty_16" => (16, Kind::Service),
            other => {
                return Err(format!(
                    "unknown workload {other:?}; expected one of {NAMES:?}"
                ))
            }
        };
        let name = NAMES
            .iter()
            .copied()
            .find(|n| *n == name)
            .expect("matched above");
        Spec::new(name, CmpConfig::paper_baseline().with_cores(cores), kind)
    }

    fn new(name: &'static str, cfg: CmpConfig, kind: Kind) -> Result<Spec, String> {
        if cfg.num_cores > MAX_CORES {
            return Err(format!(
                "{name}: {} cores exceeds the {MAX_CORES}-core limit of the coherence model",
                cfg.num_cores
            ));
        }
        Ok(Spec { name, cfg, kind })
    }

    /// Does the stats registry belong to this workload's product output?
    /// The service reports its request latencies only through it.
    pub fn stats_always_on(&self) -> bool {
        matches!(self.kind, Kind::Service)
    }

    /// Lock operations (SCTR iterations or service requests) one run
    /// attempts; every one of them counts as failed if the run fails.
    pub fn attempted(&self) -> u64 {
        match self.kind {
            Kind::Sctr { iterations, .. } => iterations,
            Kind::Service => SERVICE_REQUESTS_PER_CORE * self.cfg.num_cores as u64,
        }
    }

    /// Build the per-core workloads (each wrapped in a [`Probe`]), the
    /// initial memory image, the lock mapping and the output check. The
    /// seed drives the service's arrivals; SCTR's generator ignores it.
    pub fn build(&self, seed: u64) -> Built {
        let log: SharedLog = Rc::new(RefCell::new(ProbeLog::default()));
        let n = self.cfg.num_cores;
        let (raw, init, mapping, check) = match self.kind {
            Kind::Sctr { algo, iterations } => {
                let bench = BenchConfig {
                    kind: BenchKind::Sctr,
                    threads: n,
                    scale: iterations,
                    seed,
                };
                let inst = bench.build();
                let mapping = LockMapping::uniform(algo, bench.n_locks());
                (
                    inst.workloads,
                    inst.init,
                    mapping,
                    Check::Sctr {
                        verify: inst.verify,
                        iterations,
                    },
                )
            }
            Kind::Service => {
                let tenants = service_tenants();
                let mapping = LockMapping::uniform(LockAlgorithm::Glock, tenants.len());
                (
                    mix_workloads(seed, &tenants, n),
                    mix_init(&tenants),
                    mapping,
                    Check::Service { tenants },
                )
            }
        };
        let workloads = raw.into_iter().map(|w| Probe::wrap(w, &log)).collect();
        Built {
            workloads,
            init,
            mapping,
            log,
            check,
        }
    }
}

/// A calm Poisson tenant on lock 0 next to a bursty MMPP tenant on lock 1,
/// cores assigned round-robin. The backlog bound equals the requests per
/// core, so no request can be dropped: bursts show up as queueing delay.
fn service_tenants() -> [TenantSpec; 2] {
    let calm = TenantSpec {
        process: ArrivalProcess::Poisson { mean_gap: 8_192 },
        lock: LockId(0),
        data: Addr(0x0200_0000),
        requests_per_core: SERVICE_REQUESTS_PER_CORE,
        cs_instructions: 16,
        queue_cap: SERVICE_REQUESTS_PER_CORE as usize,
    };
    let bursty = TenantSpec {
        process: ArrivalProcess::Mmpp {
            calm_gap: 16_384,
            burst_gap: 32,
            calm_dwell: 250_000,
            burst_dwell: 256,
        },
        lock: LockId(1),
        data: Addr(0x1200_0000),
        ..calm
    };
    [calm, bursty]
}

pub struct Built {
    pub workloads: Vec<Box<dyn Workload>>,
    pub init: Vec<(Addr, u64)>,
    pub mapping: LockMapping,
    pub log: SharedLog,
    check: Check,
}

enum Check {
    Sctr { verify: Verifier, iterations: u64 },
    Service { tenants: [TenantSpec; 2] },
}

impl Built {
    /// Check the run's outputs. SCTR: the counter equals the iterations,
    /// and lock 0 saw exactly that many acquires. Service: each tenant's
    /// data word equals its completed requests, and with stats on the
    /// service's own completion counters agree. Returns the operations
    /// dropped (service requests never served).
    pub fn verify(&self, report: &SimReport, mem: &MemorySystem) -> Result<u64, String> {
        let log = self.log.borrow();
        let done: u64 = log.releases.iter().sum();
        match &self.check {
            Check::Sctr { verify, iterations } => {
                verify(mem.store())?;
                let acquires: u64 = report.acquires.iter().sum();
                if acquires != *iterations || done != *iterations {
                    return Err(format!(
                        "expected {iterations} acquires, simulator counted {acquires}, probes saw {done} releases"
                    ));
                }
                Ok(0)
            }
            Check::Service { tenants } => {
                for (k, t) in tenants.iter().enumerate() {
                    let completed = log
                        .releases
                        .get(usize::from(t.lock.0))
                        .copied()
                        .unwrap_or(0);
                    let word = mem.store().load(t.data);
                    if word != completed {
                        return Err(format!(
                            "tenant {k}: data word {word} != {completed} completed requests"
                        ));
                    }
                    if let Some(dump) = &report.stats {
                        let counted = dump
                            .counters
                            .get(&format!("service.t{k}.completed"))
                            .copied();
                        if counted != Some(completed) {
                            return Err(format!(
                                "tenant {k}: service counted {counted:?} completions, probes saw {completed}"
                            ));
                        }
                    }
                }
                let attempted = SERVICE_REQUESTS_PER_CORE * report.finished_at.len() as u64;
                Ok(attempted - done)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_over_128_cores_are_refused() {
        let big = CmpConfig::paper_baseline().with_cores(MAX_CORES * 2);
        assert!(Spec::new("big", big, Kind::Service).is_err());
        let edge = CmpConfig::paper_baseline().with_cores(MAX_CORES);
        assert!(Spec::new("edge", edge, Kind::Service).is_ok());
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(Spec::lookup("sctr_glock_1024").is_err());
    }
}
