//! GLock→software failover (survivability layer, beyond the paper).
//!
//! [`FailoverGlockBackend`] wraps the hardware GLock driver of
//! [`crate::glock_backend`] with a permanent-fault escape hatch. While the
//! G-line network is healthy its scripts are **step-identical** to
//! [`crate::glock_backend::GlockBackend`] — same register writes, same
//! one-cycle spin cadence — so fault-free timing, signal counts and energy
//! stay paper-exact. When the network's [`NetworkHealth`] flips to dead
//! (failure detection: exhausted retransmission budgets), every thread
//! converges onto a TATAS software fallback in the lock's private memory
//! region:
//!
//! 1. **Quarantine.** A dead network never delivers another signal, so the
//!    grant state frozen in the register file at the verdict cycle is
//!    final: a spinning thread whose `lock_req` is still set will *never*
//!    be granted; one whose flag was reset *was* granted and owns the
//!    critical section.
//! 2. **Drain.** Threads abandoning the hardware path wait until
//!    [`GlockRegisters::hw_drained`]: the pre-death grantee (if any) has
//!    written `lock_rel`, i.e. left its critical section. The controller
//!    of a dead network will never consume that release — the register
//!    write itself is the drain signal.
//! 3. **Replay.** Each abandoned mid-acquire is replayed on the software
//!    path *inside the same acquire script*, so the core's lock tracker
//!    observes exactly one successful acquire per critical section — no
//!    lost and no double-granted acquires.
//!
//! Mutual exclusion across the transition: the software lock starts free
//! and is only entered after `hw_drained()`, and the hardware path can no
//! longer grant anyone (quarantine), so no thread on the dead hardware
//! path can ever hold the lock concurrently with a software-path holder.
//!
//! # Fail-back (repair → probe → drain → re-arm)
//!
//! With intermittent faults the network can be *repaired*: rebooted to a
//! clean image and flagged repaired-but-untrusted. [`FailbackCtl`] — one
//! per failover backend, ticked by the runner after the networks — then
//! earns the trust back with hysteresis:
//!
//! 1. **Probing.** The controller exercises the untrusted hardware with
//!    real token round-trips (request → grant → release → consumed) on
//!    rotating cores. Each clean round-trip raises the health score by
//!    one; a slow probe (over [`PROBE_TIMEOUT`]) or a re-death resets it
//!    to zero, so [`PROBES_REQUIRED`] *consecutive* clean probes are
//!    needed — and at least [`MIN_DWELL`] cycles must have passed since
//!    the repair. Intermittent faults therefore cause at most bounded
//!    flapping: each hardware→software→hardware switch costs a full
//!    probe-plus-dwell episode.
//! 2. **Draining.** New acquires park; in-flight software tenures finish
//!    (`sw_inflight` reaches zero). No thread owns either path's lock.
//! 3. **Re-arm.** The health flips back to trusted, parked acquires (and
//!    all later ones) take the hardware fast path again, and
//!    `failbacks` is incremented. Acquire counts are conserved end to
//!    end: every tenure runs on exactly one path.

use crate::tatas::TatasLock;
use glocks::network::NetworkHealth;
use glocks::GlockRegisters;
use glocks_cpu::{LockBackend, Script, Spin, Step};
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{Addr, Cycle, ThreadId};
use std::cell::Cell;
use std::rc::Rc;

/// Consecutive clean probe round-trips required before fail-back.
pub const PROBES_REQUIRED: u32 = 8;
/// Minimum cycles between the repair and trusting the hardware again.
pub const MIN_DWELL: u64 = 4096;
/// A probe slower than this is counted as lost (score reset). The probe
/// itself keeps waiting for its round-trip so no register write is ever
/// abandoned half way.
pub const PROBE_TIMEOUT: u64 = 1024;
/// Gap between consecutive probe launches.
pub const PROBE_GAP: u64 = 32;

/// Where the fail-back state machine currently routes acquires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailbackMode {
    /// Trusted hardware fast path (the initial and the healed state).
    Hardware,
    /// The network is dead (or re-died): everything runs on software.
    SoftwareWait,
    /// Repaired but untrusted: software carries the load while probe
    /// round-trips accumulate the health score.
    Probing,
    /// Hysteresis satisfied: parking new acquires until the software lock
    /// quiesces, then re-arming the hardware path.
    Draining,
}

/// Per-backend fail-back state machine (see the module docs). Shared
/// `Rc`-style with the acquire/release scripts; ticked by the runner in
/// the device phase, after the G-line networks.
pub struct FailbackCtl {
    regs: Rc<GlockRegisters>,
    health: Rc<NetworkHealth>,
    mode: Cell<FailbackMode>,
    /// Consecutive clean probes since the last loss (hysteresis score).
    score: Cell<u32>,
    /// Cycle this controller first observed the current repair.
    repair_seen_at: Cell<Cycle>,
    /// 0 = between probes, 1 = awaiting grant, 2 = awaiting release
    /// consumption.
    probe_stage: Cell<u8>,
    /// Core whose registers the current/next probe exercises (rotates).
    probe_core: Cell<usize>,
    probe_started: Cell<Cycle>,
    /// False once the current probe overran [`PROBE_TIMEOUT`] — its
    /// eventual completion no longer counts toward the score.
    probe_clean: Cell<bool>,
    next_probe_at: Cell<Cycle>,
    /// Software-path tenures in flight (acquire committed to software,
    /// release not yet completed). Draining waits for zero.
    sw_inflight: Cell<u64>,
    /// Completed software→hardware fail-backs (published as
    /// `sim.failbacks`).
    failbacks: Cell<u64>,
}

impl FailbackCtl {
    pub fn new(regs: Rc<GlockRegisters>, health: Rc<NetworkHealth>) -> Self {
        FailbackCtl {
            regs,
            health,
            mode: Cell::new(FailbackMode::Hardware),
            score: Cell::new(0),
            repair_seen_at: Cell::new(0),
            probe_stage: Cell::new(0),
            probe_core: Cell::new(0),
            probe_started: Cell::new(0),
            probe_clean: Cell::new(true),
            next_probe_at: Cell::new(0),
            sw_inflight: Cell::new(0),
            failbacks: Cell::new(0),
        }
    }

    pub fn mode(&self) -> FailbackMode {
        self.mode.get()
    }

    /// Completed fail-backs (software → hardware re-arms).
    pub fn failbacks(&self) -> u64 {
        self.failbacks.get()
    }

    /// Current hysteresis score (consecutive clean probes).
    pub fn score(&self) -> u32 {
        self.score.get()
    }

    /// Software-path tenures currently in flight.
    pub fn sw_inflight(&self) -> u64 {
        self.sw_inflight.get()
    }

    /// The core whose registers an in-flight probe currently owns, if a
    /// probe round-trip is in progress (checker: the only legitimate
    /// holder on an untrusted network).
    pub fn probing_core(&self) -> Option<usize> {
        (self.probe_stage.get() != 0).then(|| self.probe_core.get())
    }

    /// A thread committed its in-flight acquire to the software path.
    fn sw_begin(&self) {
        self.sw_inflight.set(self.sw_inflight.get() + 1);
    }

    /// A software-path release completed (tenure over).
    fn sw_end(&self) {
        let v = self.sw_inflight.get();
        debug_assert!(v > 0, "software release without a counted acquire");
        self.sw_inflight.set(v.saturating_sub(1));
    }

    /// Advance the state machine one cycle. Runs in the device phase after
    /// the networks tick, so a death verdict or a repair landing at cycle
    /// `now` is observed at `now` — one core-phase before any script can
    /// react to it.
    pub fn tick(&self, now: Cycle) {
        match self.mode.get() {
            FailbackMode::Hardware => {
                if self.health.is_dead() {
                    self.mode.set(FailbackMode::SoftwareWait);
                }
            }
            FailbackMode::SoftwareWait => {
                if !self.health.is_dead() && !self.health.is_trusted() {
                    // Repair observed: start earning trust back.
                    self.mode.set(FailbackMode::Probing);
                    self.score.set(0);
                    self.repair_seen_at.set(now);
                    self.probe_stage.set(0);
                    self.next_probe_at.set(now + PROBE_GAP);
                }
            }
            FailbackMode::Probing => self.tick_probe(now),
            FailbackMode::Draining => {
                if self.health.is_dead() {
                    // Re-death while draining: parked acquires fall back to
                    // software on their next resume.
                    self.mode.set(FailbackMode::SoftwareWait);
                    self.score.set(0);
                } else if self.sw_inflight.get() == 0 {
                    // Quiescent: no tenure on either path. Re-arm.
                    self.health.mark_trusted();
                    self.failbacks.set(self.failbacks.get() + 1);
                    self.mode.set(FailbackMode::Hardware);
                }
            }
        }
    }

    fn tick_probe(&self, now: Cycle) {
        let core = self.probe_core.get();
        if self.health.is_dead() {
            // Re-death mid-probe. If our probe's grant froze in the
            // register file, write its release ourselves: the probe owns
            // no real critical section, and the release write is the
            // drain signal a future repair waits for.
            if self.probe_stage.get() == 1
                && self.regs.hw_holder() == Some(core)
                && !self.regs.rel_pending(core)
            {
                self.regs.set_rel(core);
            }
            self.probe_stage.set(0);
            self.score.set(0);
            self.mode.set(FailbackMode::SoftwareWait);
            return;
        }
        match self.probe_stage.get() {
            0 => {
                if now >= self.next_probe_at.get() {
                    self.regs.set_req(core);
                    self.probe_started.set(now);
                    self.probe_clean.set(true);
                    self.probe_stage.set(1);
                }
            }
            1 => {
                if self.regs.hw_holder() == Some(core) && !self.regs.req_pending(core) {
                    // Granted: give the token straight back.
                    self.regs.set_rel(core);
                    self.probe_stage.set(2);
                } else if now.saturating_sub(self.probe_started.get()) > PROBE_TIMEOUT {
                    self.probe_clean.set(false);
                    self.score.set(0);
                }
            }
            _ => {
                if self.regs.hw_holder().is_none() && !self.regs.rel_pending(core) {
                    // Round trip complete.
                    if self.probe_clean.get() {
                        self.score.set(self.score.get() + 1);
                    }
                    self.probe_stage.set(0);
                    self.next_probe_at.set(now + PROBE_GAP);
                    self.probe_core.set((core + 1) % self.regs.n_cores());
                    if self.score.get() >= PROBES_REQUIRED
                        && now.saturating_sub(self.repair_seen_at.get()) >= MIN_DWELL
                    {
                        self.mode.set(FailbackMode::Draining);
                    }
                } else if now.saturating_sub(self.probe_started.get()) > PROBE_TIMEOUT {
                    self.probe_clean.set(false);
                    self.score.set(0);
                }
            }
        }
    }

    /// Idle-skip contract. `Hardware` and `SoftwareWait` are inert: their
    /// transitions are triggered by a death verdict or a repair, and the
    /// owning network's `next_event` claims those cycles. Probing and
    /// draining are hot — probe round-trips and the software quiescence
    /// check advance cycle by cycle over a bounded window.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match self.mode.get() {
            FailbackMode::Hardware | FailbackMode::SoftwareWait => None,
            FailbackMode::Probing | FailbackMode::Draining => Some(now),
        }
    }

    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u8(match self.mode.get() {
            FailbackMode::Hardware => 0,
            FailbackMode::SoftwareWait => 1,
            FailbackMode::Probing => 2,
            FailbackMode::Draining => 3,
        });
        w.u32(self.score.get());
        w.u64(self.repair_seen_at.get());
        w.u8(self.probe_stage.get());
        w.usize(self.probe_core.get());
        w.u64(self.probe_started.get());
        w.bool(self.probe_clean.get());
        w.u64(self.next_probe_at.get());
        w.u64(self.sw_inflight.get());
        w.u64(self.failbacks.get());
    }

    pub fn load_state(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.mode.set(match r.u8()? {
            0 => FailbackMode::Hardware,
            1 => FailbackMode::SoftwareWait,
            2 => FailbackMode::Probing,
            3 => FailbackMode::Draining,
            tag => return Err(SnapError::BadTag { what: "failback mode", tag: u64::from(tag) }),
        });
        self.score.set(r.u32()?);
        self.repair_seen_at.set(r.u64()?);
        self.probe_stage.set(r.u8()?);
        self.probe_core.set(r.usize()?);
        self.probe_started.set(r.u64()?);
        self.probe_clean.set(r.bool()?);
        self.next_probe_at.set(r.u64()?);
        self.sw_inflight.set(r.u64()?);
        self.failbacks.set(r.u64()?);
        Ok(())
    }
}

/// Which path a thread's current tenure is on (drives its release).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    Hardware,
    Software,
}

/// Hardware GLock with software failover for statically-mapped locks.
pub struct FailoverGlockBackend {
    regs: Rc<GlockRegisters>,
    health: Rc<NetworkHealth>,
    fallback: TatasLock,
    /// Which path each thread's in-flight acquire resolved to, consumed by
    /// its release (same scheme as the dynamic backend's decision cells).
    path: Vec<Rc<Cell<Option<Path>>>>,
    /// Acquires rerouted to the software path because the network died.
    failovers: Rc<Cell<u64>>,
    /// Fail-back state machine (repair → probe → drain → re-arm).
    ctl: Rc<FailbackCtl>,
}

impl FailoverGlockBackend {
    /// `base` is the lock's private memory region (unused by the hardware
    /// path; hosts the TATAS fallback word).
    pub fn new(
        regs: Rc<GlockRegisters>,
        health: Rc<NetworkHealth>,
        base: Addr,
        n_threads: usize,
    ) -> Self {
        let ctl = Rc::new(FailbackCtl::new(Rc::clone(&regs), Rc::clone(&health)));
        FailoverGlockBackend {
            regs,
            health,
            fallback: TatasLock::tatas(base),
            path: (0..n_threads).map(|_| Rc::new(Cell::new(None))).collect(),
            failovers: Rc::new(Cell::new(0)),
            ctl,
        }
    }

    /// Shared handle to the failover counter (published as `sim.failovers`).
    pub fn failover_count(&self) -> Rc<Cell<u64>> {
        Rc::clone(&self.failovers)
    }

    /// This backend's fail-back state machine, for the runner to tick in
    /// the device phase (after the networks) and the checker to inspect.
    pub fn failback_ctl(&self) -> Rc<FailbackCtl> {
        Rc::clone(&self.ctl)
    }
}

enum AcqPhase {
    /// Healthy fast path, step-identical to `GlockBackend`: write
    /// `lock_req`, then spin.
    SetReq,
    Spin,
    /// The network died: wait for the hardware path to drain.
    DrainWait,
    /// Replay on the software fallback.
    Fallback,
    /// Arrived while a fail-back drain is in progress: wait for the
    /// re-armed hardware path (or for the drain to abort on re-death).
    FailbackPark,
}

struct FoAcquire {
    regs: Rc<GlockRegisters>,
    health: Rc<NetworkHealth>,
    core: usize,
    phase: AcqPhase,
    inner: Box<dyn Script>,
    path_out: Rc<Cell<Option<Path>>>,
    failovers: Rc<Cell<u64>>,
    ctl: Rc<FailbackCtl>,
}

impl FoAcquire {
    fn fail_over(&mut self) -> Step {
        self.failovers.set(self.failovers.get() + 1);
        self.path_out.set(Some(Path::Software));
        self.ctl.sw_begin();
        self.phase = AcqPhase::DrainWait;
        // Observing the dead flag costs the same branch the spin did.
        Step::Compute(1)
    }
}

impl Script for FoAcquire {
    fn resume(&mut self, last: u64) -> Step {
        match self.phase {
            AcqPhase::SetReq => match self.ctl.mode() {
                FailbackMode::Hardware => {
                    if self.health.is_dead() {
                        return self.fail_over();
                    }
                    self.path_out.set(Some(Path::Hardware));
                    self.regs.set_req(self.core);
                    self.phase = AcqPhase::Spin;
                    // mov 1, lock_req
                    Step::Compute(1)
                }
                FailbackMode::Draining => {
                    self.phase = AcqPhase::FailbackPark;
                    Step::Compute(1)
                }
                // Dead or untrusted hardware: the software path carries
                // every acquire until fail-back completes.
                FailbackMode::SoftwareWait | FailbackMode::Probing => self.fail_over(),
            },
            AcqPhase::Spin => {
                if !self.regs.req_pending(self.core) {
                    if self.health.is_dead() || self.health.is_trusted() {
                        // Granted — also reachable when the grant landed in
                        // the same cycle as the death verdict: quarantine
                        // freezes register state, so a reset flag is always
                        // a real grant and this thread owns the lock.
                        return Step::Done;
                    }
                    // Untrusted: a repair wiped the register file while the
                    // request was pending — never a grant. (Unreachable
                    // under the runner's phase ordering — spinners observe
                    // the death verdict one core-phase before the earliest
                    // repair — but safe either way.)
                    return self.fail_over();
                }
                if self.health.is_dead() {
                    // Our REQ can never be answered: abandon and replay.
                    return self.fail_over();
                }
                // bnz lock_req, loop
                Step::Compute(1)
            }
            AcqPhase::DrainWait => {
                if self.regs.hw_drained() {
                    self.phase = AcqPhase::Fallback;
                    self.inner.resume(last)
                } else {
                    Step::Compute(1)
                }
            }
            AcqPhase::Fallback => self.inner.resume(last),
            AcqPhase::FailbackPark => match self.ctl.mode() {
                FailbackMode::Hardware => {
                    // Fail-back committed: restart on the hardware path.
                    self.phase = AcqPhase::SetReq;
                    Step::Compute(1)
                }
                FailbackMode::Draining => Step::Compute(1),
                // Drain aborted (re-death): fall back to software.
                FailbackMode::SoftwareWait | FailbackMode::Probing => self.fail_over(),
            },
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u8(match self.phase {
            AcqPhase::SetReq => 0,
            AcqPhase::Spin => 1,
            AcqPhase::DrainWait => 2,
            AcqPhase::Fallback => 3,
            AcqPhase::FailbackPark => 4,
        });
        self.inner.save_state(w)
    }

    /// The hardware-path busy-wait is inert while the REQ is still raised
    /// *and* the network is alive: both the grant (register reset) and the
    /// death verdict are produced by the GLock network, whose `next_event`
    /// covers them. `DrainWait` and the software fallback stay hot — their
    /// wake conditions involve other cores' software-path progress.
    fn spin(&self, _last: u64) -> Option<Spin> {
        (matches!(self.phase, AcqPhase::Spin)
            && self.regs.req_pending(self.core)
            && !self.health.is_dead())
        .then_some(Spin::Register)
    }
}

struct FoRelease {
    regs: Rc<GlockRegisters>,
    core: usize,
    /// `Some` only on the software path.
    inner: Option<Box<dyn Script>>,
    done: bool,
    ctl: Rc<FailbackCtl>,
    /// Whether this software tenure's completion was already reported to
    /// the fail-back controller (exactly-once across resumes/restores).
    counted: bool,
}

impl Script for FoRelease {
    fn resume(&mut self, last: u64) -> Step {
        if let Some(inner) = self.inner.as_mut() {
            let step = inner.resume(last);
            if matches!(step, Step::Done) && !self.counted {
                // Software tenure over: the drain quiescence check counts
                // completed releases, not release-script creations, so a
                // fail-back can never re-arm under a live software holder.
                self.counted = true;
                self.ctl.sw_end();
            }
            return step;
        }
        // Hardware path: identical to `GlockRelease`. On a dead network
        // the controller never consumes the flag, but the write itself is
        // the drain signal the failed-over waiters are watching.
        if self.done {
            Step::Done
        } else {
            self.done = true;
            self.regs.set_rel(self.core);
            // mov 1, lock_rel
            Step::Compute(1)
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.bool(self.inner.is_some());
        if let Some(inner) = &self.inner {
            inner.save_state(w)?;
        }
        w.bool(self.done);
        w.bool(self.counted);
        Ok(())
    }
}

impl LockBackend for FailoverGlockBackend {
    fn acquire(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(FoAcquire {
            regs: Rc::clone(&self.regs),
            health: Rc::clone(&self.health),
            core: tid.index(),
            phase: AcqPhase::SetReq,
            inner: self.fallback.acquire(tid),
            path_out: Rc::clone(&self.path[tid.index()]),
            failovers: Rc::clone(&self.failovers),
            ctl: Rc::clone(&self.ctl),
        })
    }

    fn release(&self, tid: ThreadId) -> Box<dyn Script> {
        let path = self.path[tid.index()]
            .take()
            .expect("release without a recorded acquire path");
        Box::new(FoRelease {
            regs: Rc::clone(&self.regs),
            core: tid.index(),
            inner: matches!(path, Path::Software).then(|| self.fallback.release(tid)),
            done: false,
            ctl: Rc::clone(&self.ctl),
            counted: false,
        })
    }

    fn name(&self) -> &'static str {
        "GLock+FO"
    }

    // `regs` and `health` are shared structure saved by the owning network.
    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.usize(self.path.len());
        for cell in &self.path {
            w.u8(match cell.get() {
                None => 0,
                Some(Path::Hardware) => 1,
                Some(Path::Software) => 2,
            });
        }
        w.u64(self.failovers.get());
        self.ctl.save_state(w);
        Ok(())
    }

    fn load_state(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.usize()? != self.path.len() {
            return Err(SnapError::Corrupt { what: "failover lock thread count" });
        }
        for cell in &self.path {
            cell.set(match r.u8()? {
                0 => None,
                1 => Some(Path::Hardware),
                2 => Some(Path::Software),
                tag => {
                    return Err(SnapError::BadTag {
                        what: "failover path",
                        tag: u64::from(tag),
                    })
                }
            });
        }
        self.failovers.set(r.u64()?);
        self.ctl.load_state(r)?;
        Ok(())
    }

    fn load_acquire_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        let phase = match r.u8()? {
            0 => AcqPhase::SetReq,
            1 => AcqPhase::Spin,
            2 => AcqPhase::DrainWait,
            3 => AcqPhase::Fallback,
            4 => AcqPhase::FailbackPark,
            tag => {
                return Err(SnapError::BadTag {
                    what: "failover acquire phase",
                    tag: u64::from(tag),
                })
            }
        };
        let inner = self.fallback.load_acquire_script(tid, r)?;
        Ok(Box::new(FoAcquire {
            regs: Rc::clone(&self.regs),
            health: Rc::clone(&self.health),
            core: tid.index(),
            phase,
            inner,
            path_out: Rc::clone(&self.path[tid.index()]),
            failovers: Rc::clone(&self.failovers),
            ctl: Rc::clone(&self.ctl),
        }))
    }

    fn load_release_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        let inner = if r.bool()? {
            Some(self.fallback.load_release_script(tid, r)?)
        } else {
            None
        };
        Ok(Box::new(FoRelease {
            regs: Rc::clone(&self.regs),
            core: tid.index(),
            inner,
            done: r.bool()?,
            ctl: Rc::clone(&self.ctl),
            counted: r.bool()?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::run_counter_bench_with_nets;
    use glocks::{GlockNetwork, Topology};
    use glocks_sim_base::{Addr, Mesh2D};

    #[test]
    fn healthy_failover_backend_is_step_identical_to_glock() {
        // Same workload on GlockBackend and FailoverGlockBackend with no
        // fault: identical cycle counts, identical signal counts.
        let mesh = Mesh2D::near_square(8);

        let net = GlockNetwork::new(&Topology::flat(mesh), 1);
        let regs = net.regs();
        let mut nets = [net];
        let plain = run_counter_bench_with_nets(
            move |_base, _n| {
                Box::new(crate::glock_backend::GlockBackend::new(Rc::clone(&regs))) as _
            },
            8,
            4,
            &mut nets,
        );
        let [net] = nets;
        let plain_signals = net.stats().signals;

        let net = GlockNetwork::new(&Topology::flat(mesh), 1);
        let regs = net.regs();
        let health = net.health();
        let mut nets = [net];
        let fo = run_counter_bench_with_nets(
            move |base, n| {
                Box::new(FailoverGlockBackend::new(
                    Rc::clone(&regs),
                    Rc::clone(&health),
                    base,
                    n,
                )) as _
            },
            8,
            4,
            &mut nets,
        );
        let [net] = nets;
        assert_eq!(fo.counter_value, plain.counter_value);
        assert_eq!(fo.cycles, plain.cycles, "healthy path must be cycle-exact");
        assert_eq!(net.stats().signals, plain_signals, "and signal-exact");
        assert_eq!(net.stats().grants, 32);
    }

    #[test]
    fn mid_run_line_kill_fails_over_with_no_lost_acquires() {
        let threads = 8;
        let iters = 6;
        let mesh = Mesh2D::near_square(threads);
        let mut net = GlockNetwork::new(&Topology::flat(mesh), 1);
        // Die early, mid-contention: some threads hold, others spin.
        net.schedule_line_kill(40);
        let regs = net.regs();
        let health = net.health();
        let h2 = Rc::clone(&health);
        let failovers: Rc<std::cell::RefCell<Rc<Cell<u64>>>> =
            Rc::new(std::cell::RefCell::new(Rc::new(Cell::new(0))));
        let f2 = Rc::clone(&failovers);
        let mut nets = [net];
        let out = run_counter_bench_with_nets(
            move |base, n| {
                let b = FailoverGlockBackend::new(Rc::clone(&regs), Rc::clone(&h2), base, n);
                *f2.borrow_mut() = b.failover_count();
                Box::new(b) as _
            },
            threads,
            iters,
            &mut nets,
        );
        // Every critical section executed exactly once despite the death.
        assert_eq!(out.counter_value, threads as u64 * iters);
        assert!(health.is_dead(), "the kill must have been detected");
        let fo_count = failovers.borrow().get();
        assert!(fo_count > 0, "some acquires must have failed over");
        let [net] = nets;
        // The dead network granted only pre-death tenures.
        assert!(net.stats().grants < threads as u64 * iters);
        assert!(net.token_invariant_violation().is_none());
    }

    #[test]
    fn kill_before_first_acquire_runs_entirely_on_software() {
        let threads = 4;
        let mesh = Mesh2D::near_square(threads);
        let mut net = GlockNetwork::new(&Topology::flat(mesh), 1);
        net.schedule_line_kill(0);
        let regs = net.regs();
        let health = net.health();
        let h2 = Rc::clone(&health);
        let mut nets = [net];
        let out = run_counter_bench_with_nets(
            move |base, n| {
                Box::new(FailoverGlockBackend::new(Rc::clone(&regs), Rc::clone(&h2), base, n))
                    as _
            },
            threads,
            3,
            &mut nets,
        );
        assert_eq!(out.counter_value, 12);
        let [net] = nets;
        assert!(net.stats().grants < 12, "hardware cannot serve all tenures");
    }

    /// Drive a real mid-failover state — one thread holding through the
    /// hardware path, another parked in `DrainWait` after the line died —
    /// and round-trip both the backend and the in-flight acquire through
    /// the snapshot codec. The restored script must re-encode to the exact
    /// same bytes and behave identically: keep draining while the pre-death
    /// holder is inside its critical section, then replay on the software
    /// path the moment the drain signal lands.
    #[test]
    fn drain_wait_acquire_round_trips_through_a_snapshot() {
        use glocks_sim_base::snap::{SnapReader, SnapWriter};

        let mesh = Mesh2D::near_square(4);
        let mut net = GlockNetwork::new(&Topology::flat(mesh), 1);
        let b = FailoverGlockBackend::new(net.regs(), net.health(), Addr(0x1000), 4);

        // Thread 0 acquires through the healthy hardware path.
        let mut s0 = b.acquire(ThreadId(0));
        let mut now = 0;
        while !matches!(s0.resume(0), Step::Done) {
            net.tick(now);
            now += 1;
            assert!(now < 1_000, "healthy grant never arrived");
        }
        // Thread 1 requests while the token is out, then the line dies;
        // failure detection must escalate to the death verdict.
        let mut s1 = b.acquire(ThreadId(1));
        assert!(matches!(s1.resume(0), Step::Compute(1))); // SetReq → Spin
        net.schedule_line_kill(now);
        while !net.health().is_dead() {
            net.tick(now);
            now += 1;
            assert!(now < 100_000, "death verdict never reached");
        }
        assert!(matches!(s1.resume(0), Step::Compute(1))); // Spin → DrainWait
        assert!(matches!(s1.resume(0), Step::Compute(1))); // still draining
        assert_eq!(b.failovers.get(), 1);

        // Snapshot the backend and the mid-drain script. The script's
        // first byte is its phase tag — it must be DrainWait (2).
        let mut w = SnapWriter::new();
        b.save_state(&mut w).unwrap();
        let backend_len = {
            let mut bw = SnapWriter::new();
            b.save_state(&mut bw).unwrap();
            bw.into_bytes().len()
        };
        s1.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes[backend_len], 2, "phase tag must be DrainWait");

        // Restore into a freshly built twin sharing the same hardware
        // (regs/health are network state, restored by the network's own
        // snapshot path in a full-machine resume).
        let b2 = FailoverGlockBackend::new(net.regs(), net.health(), Addr(0x1000), 4);
        let mut r = SnapReader::new(&bytes);
        b2.load_state(&mut r).unwrap();
        let mut s1r = b2.load_acquire_script(ThreadId(1), &mut r).unwrap();
        assert_eq!(r.remaining(), 0, "decode must consume exactly what encode wrote");
        assert_eq!(b2.failovers.get(), 1);
        assert_eq!(b2.path[1].get(), Some(Path::Software));

        // Re-encoding the restored state is byte-identical.
        let mut w2 = SnapWriter::new();
        b2.save_state(&mut w2).unwrap();
        s1r.save_state(&mut w2).unwrap();
        assert_eq!(w2.into_bytes(), bytes, "restored state must re-encode identically");

        // Behavior parity: both keep draining while thread 0 holds...
        assert_eq!(s1r.resume(0), Step::Compute(1));
        assert_eq!(s1.resume(0), Step::Compute(1));
        // ...and the register write of thread 0's release is the drain
        // signal that lets the restored script replay on TATAS.
        let mut rel = b.release(ThreadId(0));
        while !matches!(rel.resume(0), Step::Done) {}
        assert!(b.regs.hw_drained());
        let step = s1r.resume(0);
        assert_eq!(step, s1.resume(0), "restored script must step in lockstep");
        assert!(matches!(step, Step::Mem(_)), "drained: replay starts on the software path");
    }

    /// Drive the full failure → repair → probe → drain → re-arm lifecycle
    /// against a real network, twice (flapping), checking the hysteresis
    /// bookkeeping at every stage.
    #[test]
    fn failback_lifecycle_probes_drains_and_rearms_twice() {
        use crate::failover::FailbackMode;
        let mesh = Mesh2D::near_square(4);
        let mut net = GlockNetwork::new(&Topology::flat(mesh), 1);
        let b = FailoverGlockBackend::new(net.regs(), net.health(), Addr(0x1000), 4);
        let ctl = b.failback_ctl();
        let health = net.health();
        let regs = net.regs();

        let mut now: u64 = 0;
        let episode = |net: &mut GlockNetwork, now: &mut u64, req_core: usize| {
            // Kill while idle; a raw register request drives detection.
            net.schedule_line_kill(*now + 10);
            for _ in 0..20 {
                net.tick(*now);
                ctl.tick(*now);
                *now += 1;
            }
            regs.set_req(req_core);
            while !health.is_dead() {
                net.tick(*now);
                ctl.tick(*now);
                *now += 1;
                assert!(*now < 2_000_000, "death verdict never reached");
            }
            assert_eq!(ctl.mode(), FailbackMode::SoftwareWait);
            net.schedule_repair(*now + 5);
            let deadline = *now + 1_000_000;
            while !(ctl.mode() == FailbackMode::Hardware && health.is_trusted()) {
                net.tick(*now);
                ctl.tick(*now);
                *now += 1;
                assert!(*now < deadline, "fail-back never completed ({:?})", ctl.mode());
            }
        };

        episode(&mut net, &mut now, 0);
        assert_eq!(ctl.failbacks(), 1);
        assert_eq!(health.repairs(), 1);
        // The re-armed hardware path grants again.
        let mut s = b.acquire(ThreadId(2));
        let mut steps = 0;
        loop {
            match s.resume(0) {
                Step::Done => break,
                _ => {
                    net.tick(now);
                    ctl.tick(now);
                    now += 1;
                }
            }
            steps += 1;
            assert!(steps < 1_000, "post-failback hardware acquire stalled");
        }
        let mut r = b.release(ThreadId(2));
        while !matches!(r.resume(0), Step::Done) {}
        for _ in 0..50 {
            net.tick(now);
            ctl.tick(now);
            now += 1;
        }

        // Flap: the same network dies and heals a second time.
        episode(&mut net, &mut now, 1);
        assert_eq!(ctl.failbacks(), 2);
        assert_eq!(health.repairs(), 2);
    }

    /// A probe that overruns [`PROBE_TIMEOUT`] resets the hysteresis score
    /// — consecutive clean probes are required, not cumulative ones — and
    /// the machine still fails back once the hardware answers again.
    #[test]
    fn slow_probe_resets_the_hysteresis_score() {
        use crate::failover::{FailbackMode, PROBE_GAP, PROBE_TIMEOUT};
        let mesh = Mesh2D::near_square(4);
        let mut net = GlockNetwork::new(&Topology::flat(mesh), 1);
        let b = FailoverGlockBackend::new(net.regs(), net.health(), Addr(0x1000), 4);
        let ctl = b.failback_ctl();
        let health = net.health();
        let regs = net.regs();

        net.schedule_line_kill(10);
        let mut now = 0;
        for _ in 0..20 {
            net.tick(now);
            ctl.tick(now);
            now += 1;
        }
        regs.set_req(0);
        while !health.is_dead() {
            net.tick(now);
            ctl.tick(now);
            now += 1;
            assert!(now < 1_000_000);
        }
        net.schedule_repair(now + 1);
        while ctl.score() < 2 {
            net.tick(now);
            ctl.tick(now);
            now += 1;
            assert!(now < 1_000_000, "probing never accumulated a score");
        }
        assert_eq!(ctl.mode(), FailbackMode::Probing);

        // Stall the hardware (tick only the controller): the next probe's
        // round-trip overruns the timeout and the score collapses.
        for _ in 0..(PROBE_GAP + PROBE_TIMEOUT + 16) {
            ctl.tick(now);
            now += 1;
        }
        assert_eq!(ctl.score(), 0, "a slow probe must reset the score");
        assert_eq!(ctl.mode(), FailbackMode::Probing);

        // Hardware answers again: the stalled probe completes (uncounted)
        // and a fresh consecutive run earns the fail-back.
        let deadline = now + 1_000_000;
        while !health.is_trusted() {
            net.tick(now);
            ctl.tick(now);
            now += 1;
            assert!(now < deadline, "fail-back never completed");
        }
        assert_eq!(ctl.failbacks(), 1);
    }

    #[test]
    fn release_without_acquire_panics() {
        let net = GlockNetwork::new(&Topology::flat(Mesh2D::new(2, 2)), 1);
        let b = FailoverGlockBackend::new(net.regs(), net.health(), Addr(0x1000), 4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.release(ThreadId(0))
        }));
        assert!(r.is_err());
    }
}
