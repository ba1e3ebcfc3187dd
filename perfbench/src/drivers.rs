//! Layer drivers: each calls one simulator layer's public API on its own,
//! at the load a traced run measured, and times it. They give the host
//! cost of the NoC, the memory system and the G-line nets separately,
//! which the whole-machine spans cannot split apart.
//!
//! Every driver runs with the stats registry off and draws its choices
//! from a fixed-seed generator, so two drivers given equal loads do equal
//! work. Rates are per *dense* simulated cycle (one the runner executed
//! rather than skipped), since skipped cycles never tick a layer.

use glocks::{GlockNetwork, Topology};
use glocks_mem::{MemOp, MemorySystem};
use glocks_noc::{MeshNoc, Packet, TrafficClass};
use glocks_sim_base::{Addr, CmpConfig, CoreId, SplitMix64, TileId};
use std::hint::black_box;
use std::time::Instant;

/// Simulated cycles each driver runs for.
pub const DRIVER_CYCLES: u64 = 100_000;
/// Driver runs per layer; each cost is the median run.
const DRIVER_REPS: usize = 3;
const DRIVER_SEED: u64 = 0xD21_7E25;

/// Host cost of one driver run and the work it completed.
pub struct Sample {
    pub ns: f64,
    /// Packets delivered, memory operations completed or grants made.
    pub units: u64,
}

/// The run with the median host time out of [`DRIVER_REPS`].
pub fn median(run: impl Fn() -> Sample) -> Sample {
    let mut runs: Vec<Sample> = (0..DRIVER_REPS).map(|_| run()).collect();
    runs.sort_by(|a, b| a.ns.total_cmp(&b.ns));
    runs.swap_remove(DRIVER_REPS / 2)
}

/// Spreads a fractional per-cycle rate over whole events, deterministically.
struct Pacer {
    rate: f64,
    credit: f64,
}

impl Pacer {
    fn new(rate: f64) -> Self {
        Pacer {
            rate: rate.max(0.0),
            credit: 0.0,
        }
    }

    /// Events due this cycle.
    fn due(&mut self) -> u64 {
        self.credit += self.rate;
        let n = self.credit.floor();
        self.credit -= n;
        n as u64
    }
}

/// `MeshNoc::inject/tick/drain` with uniformly random endpoints.
/// `packets_per_cycle` and `bytes_per_packet` come from the traced run.
pub fn noc(cfg: &CmpConfig, packets_per_cycle: f64, bytes_per_packet: u32) -> Sample {
    let mesh = cfg.mesh();
    let tiles = mesh.len() as u64;
    let mut net: MeshNoc<u64> = MeshNoc::new(mesh, cfg.noc);
    let mut rng = SplitMix64::new(DRIVER_SEED);
    let mut pacer = Pacer::new(packets_per_cycle);
    let mut out = Vec::new();
    let mut delivered = 0u64;
    let started = Instant::now();
    for now in 0..DRIVER_CYCLES {
        for _ in 0..pacer.due() {
            let src = rng.next_below(tiles);
            let dst = (src + 1 + rng.next_below(tiles - 1)) % tiles;
            let pkt = Packet {
                src: TileId(src as u16),
                dst: TileId(dst as u16),
                bytes: bytes_per_packet,
                class: TrafficClass::Request,
                injected_at: now,
                payload: now,
            };
            net.inject(pkt, now);
        }
        net.tick(now);
        for t in 0..tiles {
            net.drain(TileId(t as u16), now, &mut out);
            delivered += out.len() as u64;
            out.clear();
        }
    }
    let ns = started.elapsed().as_secs_f64() * 1e9;
    black_box(&net);
    Sample {
        ns,
        units: delivered,
    }
}

/// `MemorySystem::submit/tick/take_result` with every core issuing at the
/// traced per-core access rate. A `shared_frac` share of the accesses go
/// to one line all cores share (loads and stores alternating, as SCTR's
/// counter update does); the rest go to a private line per core.
pub fn mem(cfg: &CmpConfig, ops_per_core_cycle: f64, shared_frac: f64) -> Sample {
    const SHARED: Addr = Addr(0x0200_0000);
    const PRIVATE_BASE: u64 = 0x0300_0000;
    let cores = cfg.num_cores;
    let mut sys = MemorySystem::new(cfg);
    let mut rng = SplitMix64::new(DRIVER_SEED);
    let gap = if ops_per_core_cycle > 0.0 {
        (1.0 / ops_per_core_cycle).round().max(1.0) as u64
    } else {
        u64::MAX
    };
    let threshold = (shared_frac.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    let mut next_at: Vec<u64> = (0..cores as u64)
        .map(|c| if gap == u64::MAX { gap } else { c % gap })
        .collect();
    let mut store_next = vec![false; cores];
    let mut ops = 0u64;
    let started = Instant::now();
    for now in 0..DRIVER_CYCLES {
        for c in 0..cores {
            let core = CoreId(c as u16);
            if sys.take_result(core).is_some() {
                ops += 1;
            }
            if now < next_at[c] || !sys.can_submit(core) {
                continue;
            }
            let op = if rng.next_u64() < threshold {
                store_next[c] = !store_next[c];
                if store_next[c] {
                    MemOp::Load(SHARED)
                } else {
                    MemOp::Store(SHARED, now)
                }
            } else {
                MemOp::Load(Addr(PRIVATE_BASE + c as u64 * cfg.line_bytes))
            };
            sys.submit(core, op, now);
            next_at[c] = now.saturating_add(gap);
        }
        sys.tick(now);
    }
    let ns = started.elapsed().as_secs_f64() * 1e9;
    black_box(&sys);
    Sample { ns, units: ops }
}

/// The G-line topology `Simulation::new` builds for this configuration.
fn glock_topology(cfg: &CmpConfig) -> Topology {
    let mesh = cfg.mesh();
    if mesh.len() > 49 {
        Topology::hierarchical(mesh, 1 + cfg.glocks.max_transmitters_per_line as usize)
    } else {
        Topology::flat(mesh)
    }
}

/// `GlockNetwork::tick` driven through `GlockRegisters::set_req/set_rel`:
/// requests arrive at the traced grant rate on idle cores in turn, and the
/// holder releases after the traced median hold time. `units` counts
/// grants.
pub fn gline(cfg: &CmpConfig, grants_per_cycle: f64, hold_cycles: u64) -> Sample {
    let mut net = GlockNetwork::new(&glock_topology(cfg), cfg.glocks.gline_latency);
    let regs = net.regs();
    let cores = cfg.num_cores;
    let mut pacer = Pacer::new(grants_per_cycle);
    let mut busy = vec![false; cores];
    let mut next_core = 0usize;
    // (holder, cycle it releases at)
    let mut held: Option<(usize, u64)> = None;
    let started = Instant::now();
    for now in 0..DRIVER_CYCLES {
        for _ in 0..pacer.due() {
            if let Some(c) = (0..cores)
                .map(|k| (next_core + k) % cores)
                .find(|&c| !busy[c])
            {
                busy[c] = true;
                regs.set_req(c);
                next_core = (c + 1) % cores;
            }
        }
        match held {
            Some((h, until)) if now >= until => {
                regs.set_rel(h);
                busy[h] = false;
                held = None;
            }
            Some(_) => {}
            None => {
                if let Some(h) = regs.hw_holder().filter(|&h| !regs.rel_pending(h)) {
                    held = Some((h, now + hold_cycles.max(1)));
                }
            }
        }
        net.tick(now);
    }
    let ns = started.elapsed().as_secs_f64() * 1e9;
    Sample {
        ns,
        units: black_box(net.stats()).grants,
    }
}
