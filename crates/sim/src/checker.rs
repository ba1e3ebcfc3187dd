//! Runtime protocol invariant checker.
//!
//! A sampling checker that rides along every run it is enabled for —
//! notably the fault sweeps, where an injected failure could silently
//! corrupt the protocol instead of wedging visibly. Like the stats
//! subsystem it is **zero-cost when off**: `SimulationOptions::checker` is
//! `None` by default and the runner's cycle loop then never touches it, so
//! fault-free paper runs stay bit-identical.
//!
//! Five invariant families are validated every [`CheckerConfig::every`]
//! cycles:
//!
//! 1. **Mutual exclusion per lock** — the [`glocks_cpu::LockTracker`]'s
//!    holder/requester picture must be self-consistent (the tracker's own
//!    asserts catch a double-grant immediately; this scan catches backends
//!    that desynchronize the bookkeeping).
//! 2. **At most one token per G-line network** — across epochs, exactly
//!    one automaton of a healthy network may hold the token, and the root
//!    must hold it when nobody else does
//!    ([`glocks::GlockNetwork::token_invariant_violation`]). Networks
//!    compromised by a hard fault are exempt from the liveness half (a
//!    dead component may have taken the token with it) but never from
//!    the at-most-one half.
//! 3. **Bounded waiting** — round-robin arbitration means a requester is
//!    served within one round. If the oldest outstanding request has waited
//!    more than [`CheckerConfig::fairness_window`] cycles *while more
//!    grants than a full round flowed past it*, fairness is broken. (A
//!    global stall trips the watchdog instead, with its own diagnosis.)
//!    The bound holds only while a G-line network arbitrates the lock: a
//!    lock mapped to software, or whose network is not in fail-back mode
//!    `Hardware`, is served by a software algorithm (test-and-set locks
//!    promise no order), so its watch is reset.
//! 4. **Directory/L1 MESI compatibility** —
//!    [`glocks_mem::MemorySystem::find_invariant_violation`].
//! 5. **Fail-back safety** — on a repaired-but-untrusted network, the
//!    only legitimate grant holder is the fail-back probe's core (no
//!    production acquire may sneak onto unproven hardware); while a
//!    fail-back drain is in progress no hardware grant may exist at all;
//!    and once the hardware path is trusted again no software tenure may
//!    still be in flight (no double-path ownership).
//!
//! A violation surfaces as [`crate::SimError::InvariantViolation`] carrying
//! the usual diagnostic snapshot, so a sweep harness logs it like any other
//! structured failure and moves on.

use glocks::GlockNetwork;
use glocks_cpu::LockTracker;
use glocks_locks::failover::{FailbackCtl, FailbackMode};
use glocks_mem::MemorySystem;
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{Cycle, LockId, ThreadId};
use glocks_stats as gstats;
use std::rc::Rc;

/// Sampling cadence and fairness bound of the runtime checker.
#[derive(Clone, Copy, Debug)]
pub struct CheckerConfig {
    /// Run the checks every `every` cycles (must be ≥ 1).
    pub every: u64,
    /// Bounded-waiting horizon: a requester stuck this long while a full
    /// round of grants passed it by is a fairness violation.
    pub fairness_window: u64,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        // The MESI scan walks every resident line, so the default cadence
        // is coarse enough not to dominate runtime.
        CheckerConfig { every: 1024, fairness_window: 1_000_000 }
    }
}

/// Per-lock memory of the bounded-waiting analysis: the oldest request we
/// have been watching and how many grants the lock had served when we
/// first saw it.
#[derive(Clone, Copy)]
struct WaitWatch {
    tid: ThreadId,
    since: Cycle,
    acquires_then: u64,
}

/// The runtime checker's state across a run.
pub struct ProtocolChecker {
    cfg: CheckerConfig,
    watches: Vec<Option<WaitWatch>>,
    /// The G-line network index of each lock mapped to a hardware GLock.
    nets_of: Vec<Option<usize>>,
    n_cores: u64,
    checks_run: u64,
}

impl ProtocolChecker {
    /// `glock_ids[k]` is the lock G-line network `k` serves.
    pub fn new(cfg: CheckerConfig, n_locks: usize, n_cores: usize, glock_ids: &[LockId]) -> Self {
        assert!(cfg.every >= 1, "checker cadence must be at least 1 cycle");
        let mut nets_of = vec![None; n_locks];
        for (k, l) in glock_ids.iter().enumerate() {
            nets_of[l.index()] = Some(k);
        }
        ProtocolChecker {
            cfg,
            watches: vec![None; n_locks],
            nets_of,
            n_cores: n_cores as u64,
            checks_run: 0,
        }
    }

    /// Is a check due this cycle?
    pub fn due(&self, now: Cycle) -> bool {
        now.is_multiple_of(self.cfg.every)
    }

    /// Run every invariant family; returns a description of the first
    /// violation found. `ctls` holds the fail-back controllers
    /// index-aligned with `nets` (`None` — or a short/empty slice — for
    /// networks without a failover backend).
    pub fn check(
        &mut self,
        now: Cycle,
        tracker: &LockTracker,
        mem: &MemorySystem,
        nets: &[GlockNetwork],
        ctls: &[Option<Rc<FailbackCtl>>],
    ) -> Option<String> {
        self.checks_run += 1;
        if let Some(v) = tracker.find_violation() {
            return Some(format!("mutual exclusion: {v}"));
        }
        for (k, net) in nets.iter().enumerate() {
            if let Some(v) = net.token_invariant_violation() {
                return Some(format!("glock net {k} token invariant: {v}"));
            }
            let ctl = ctls.get(k).and_then(|c| c.as_ref());
            let health = net.health();
            if !health.is_dead() && !health.is_trusted() {
                // Repaired but untrusted: the only legitimate grant is the
                // fail-back probe's round-trip.
                if let Some(h) = net.regs().hw_holder() {
                    if ctl.and_then(|c| c.probing_core()) != Some(h) {
                        return Some(format!(
                            "glock net {k}: grant to core {h} from an untrusted network"
                        ));
                    }
                }
            }
            if let Some(ctl) = ctl {
                match ctl.mode() {
                    FailbackMode::Draining => {
                        if let Some(h) = net.regs().hw_holder() {
                            return Some(format!(
                                "glock net {k}: hardware holder {h} during fail-back drain"
                            ));
                        }
                    }
                    FailbackMode::Hardware => {
                        let inflight = ctl.sw_inflight();
                        if inflight > 0 {
                            return Some(format!(
                                "glock net {k}: {inflight} software tenure(s) in flight \
                                 while the hardware path is trusted (double-path ownership)"
                            ));
                        }
                    }
                    FailbackMode::SoftwareWait | FailbackMode::Probing => {}
                }
            }
        }
        if let Some(v) = self.check_bounded_waiting(now, tracker, ctls) {
            return Some(v);
        }
        if let Some(v) = mem.find_invariant_violation() {
            return Some(format!("MESI: {v}"));
        }
        None
    }

    fn check_bounded_waiting(
        &mut self,
        now: Cycle,
        tracker: &LockTracker,
        ctls: &[Option<Rc<FailbackCtl>>],
    ) -> Option<String> {
        for (i, watch) in self.watches.iter_mut().enumerate() {
            let lock = LockId(i as u16);
            let arbitrated = self.nets_of[i].is_some_and(|k| {
                ctls.get(k)
                    .and_then(|c| c.as_ref())
                    .is_none_or(|c| c.mode() == FailbackMode::Hardware)
            });
            let Some((tid, since)) = tracker.oldest_request(lock).filter(|_| arbitrated) else {
                *watch = None;
                continue;
            };
            let acquires = tracker.acquires(lock);
            match watch {
                Some(w) if w.tid == tid && w.since == since => {
                    // Round-robin bound: within one full round (one grant
                    // per core) every raised request must have been served.
                    let flowed = acquires - w.acquires_then;
                    if now.saturating_sub(since) > self.cfg.fairness_window
                        && flowed > self.n_cores
                    {
                        return Some(format!(
                            "bounded waiting: thread {tid} has waited {} cycles on lock {i} \
                             while {flowed} grants flowed past it",
                            now - since
                        ));
                    }
                }
                _ => *watch = Some(WaitWatch { tid, since, acquires_then: acquires }),
            }
        }
        None
    }

    /// Serialize the armed bounded-waiting watches and the check counter.
    /// Without them a resumed run would re-arm every watch one sampling
    /// period later than the uninterrupted run and publish a different
    /// `checker.checks_run`.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.mark("checker");
        w.seq(&self.watches, |w, watch| match watch {
            None => w.bool(false),
            Some(wt) => {
                w.bool(true);
                w.u16(wt.tid.0);
                w.u64(wt.since);
                w.u64(wt.acquires_then);
            }
        });
        w.u64(self.checks_run);
    }

    /// Restore state saved by [`ProtocolChecker::save_state`].
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect("checker")?;
        let watches = r.seq(|r| {
            Ok(if r.bool()? {
                Some(WaitWatch {
                    tid: ThreadId(r.u16()?),
                    since: r.u64()?,
                    acquires_then: r.u64()?,
                })
            } else {
                None
            })
        })?;
        if watches.len() != self.watches.len() {
            return Err(SnapError::Corrupt { what: "checker lock count" });
        }
        self.watches = watches;
        self.checks_run = r.u64()?;
        Ok(())
    }

    /// Publish the checker's own counters (only registered when the
    /// checker ran, so fault-free stats dumps keep their schema).
    pub fn publish_stats(&self) {
        if !gstats::is_enabled() {
            return;
        }
        gstats::set(gstats::counter("checker.checks_run"), self.checks_run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_and_counters() {
        let mut ck = ProtocolChecker::new(
            CheckerConfig { every: 8, fairness_window: 100 },
            1,
            4,
            &[LockId(0)],
        );
        assert!(ck.due(0) && ck.due(8) && !ck.due(9));
        let tracker = LockTracker::new(1, 4);
        let mem = MemorySystem::new(&glocks_sim_base::CmpConfig::paper_baseline());
        assert_eq!(ck.check(0, &tracker, &mem, &[], &[]), None);
        assert_eq!(ck.checks_run, 1);
    }

    /// The fail-back invariants: a non-probe grant on an untrusted
    /// network, a hardware holder during the drain, and software tenures
    /// surviving into the trusted state must all trip the checker.
    #[test]
    fn failback_invariants_guard_untrusted_grants_and_double_path() {
        use glocks::Topology;
        use glocks_locks::failover::FailoverGlockBackend;
        use glocks_sim_base::{Addr, Mesh2D};

        let mut net = GlockNetwork::new(&Topology::flat(Mesh2D::new(2, 2)), 1);
        let backend = FailoverGlockBackend::new(net.regs(), net.health(), Addr(0x1000), 4);
        let ctl = backend.failback_ctl();
        let regs = net.regs();
        // Kill while idle, detect via a raw request, then repair: the
        // network ends repaired-but-untrusted.
        net.schedule_line_kill(10);
        for t in 0..20 {
            net.tick(t);
        }
        regs.set_req(0);
        let mut now = 20;
        while !net.health().is_dead() {
            net.tick(now);
            now += 1;
            assert!(now < 1_000_000, "death verdict never reached");
        }
        net.schedule_repair(now);
        net.tick(now);
        assert!(!net.health().is_dead() && !net.health().is_trusted());

        let tracker = LockTracker::new(1, 4);
        let mem = MemorySystem::new(&glocks_sim_base::CmpConfig::paper_baseline());
        let mut ck = ProtocolChecker::new(CheckerConfig::default(), 1, 4, &[LockId(0)]);

        // A rogue (non-probe) request sneaks onto the untrusted hardware
        // and is granted: invariant 5 must trip.
        regs.set_req(1);
        for _ in 0..20 {
            now += 1;
            net.tick(now);
        }
        assert_eq!(regs.hw_holder(), Some(1));
        let nets = [net];
        let ctls = [Some(Rc::clone(&ctl))];
        let v = ck
            .check(now, &tracker, &mem, &nets, &ctls)
            .expect("a non-probe grant on an untrusted network must trip");
        assert!(v.contains("untrusted"), "{v}");

        // Same grant, but owned by the fail-back probe: legitimate. Forge
        // the probe state through the controller's own snapshot codec
        // (mode=Probing, stage=awaiting grant on core 1).
        let mut w = SnapWriter::new();
        w.u8(2); // Probing
        w.u32(0);
        w.u64(now);
        w.u8(1); // probe stage: awaiting grant
        w.usize(1); // probe core 1
        w.u64(now);
        w.bool(true);
        w.u64(now);
        w.u64(0); // sw_inflight
        w.u64(0); // failbacks
        let bytes = w.into_bytes();
        ctl.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(
            ck.check(now, &tracker, &mem, &nets, &ctls),
            None,
            "the probe's own round-trip is the one legitimate untrusted grant"
        );

        // Draining with a hardware holder: no grant may exist mid-drain.
        // (Promote the net to trusted first so the drain invariant — which
        // holds regardless of health — is the one that trips.)
        nets[0].health().mark_trusted();
        let mut w = SnapWriter::new();
        w.u8(3); // Draining
        w.u32(0);
        w.u64(now);
        w.u8(0);
        w.usize(0);
        w.u64(0);
        w.bool(true);
        w.u64(0);
        w.u64(0);
        w.u64(0);
        let bytes = w.into_bytes();
        ctl.load_state(&mut SnapReader::new(&bytes)).unwrap();
        let v = ck
            .check(now, &tracker, &mem, &nets, &ctls)
            .expect("a hardware holder during the drain must trip");
        assert!(v.contains("drain"), "{v}");

        // Trusted hardware with software tenures still in flight.
        let mut w = SnapWriter::new();
        w.u8(0); // Hardware
        w.u32(0);
        w.u64(0);
        w.u8(0);
        w.usize(0);
        w.u64(0);
        w.bool(true);
        w.u64(0);
        w.u64(1); // sw_inflight: one stranded software tenure
        w.u64(0);
        let bytes = w.into_bytes();
        ctl.load_state(&mut SnapReader::new(&bytes)).unwrap();
        let v = ck
            .check(now, &tracker, &mem, &nets, &ctls)
            .expect("software tenures on a trusted hardware path must trip");
        assert!(v.contains("double-path"), "{v}");
    }

    /// Round-robin arbitration bounds a wait by one lap, so a waiter
    /// passed by more grants than cores for longer than the window trips.
    /// Test-and-set locks promise no order, so the bound binds a lock only
    /// while its G-line network arbitrates it. A lock mapped to software,
    /// or whose network is out of fail-back mode `Hardware`, may starve a
    /// waiter past the window; back in `Hardware`, the watch re-arms.
    #[test]
    fn bounded_waiting_binds_only_hardware_arbitrated_locks() {
        use glocks::Topology;
        use glocks_sim_base::Mesh2D;

        let cfg = CheckerConfig { every: 1, fairness_window: 50 };
        let mem = MemorySystem::new(&glocks_sim_base::CmpConfig::paper_baseline());
        let mut tracker = LockTracker::new(1, 2);
        tracker.on_acquire_start(LockId(0), ThreadId(0), 0);
        let grant_three = |tracker: &mut LockTracker, at: Cycle| {
            for _ in 0..3 {
                tracker.on_acquire_start(LockId(0), ThreadId(1), at);
                tracker.on_acquired(LockId(0), ThreadId(1), at);
                tracker.on_release_start(LockId(0), ThreadId(1), at);
            }
        };
        let mut ck = ProtocolChecker::new(cfg, 1, 2, &[LockId(0)]);
        assert_eq!(ck.check(1, &tracker, &mem, &[], &[]), None, "first sight arms the watch");
        grant_three(&mut tracker, 2);
        assert_eq!(ck.check(10, &tracker, &mem, &[], &[]), None, "within the window");
        let v = ck.check(100, &tracker, &mem, &[], &[]).expect("starvation must trip");
        assert!(v.contains("bounded waiting"), "{v}");

        let mut software = ProtocolChecker::new(cfg, 1, 2, &[]);
        assert_eq!(software.check(1, &tracker, &mem, &[], &[]), None);
        assert_eq!(software.check(100, &tracker, &mem, &[], &[]), None, "software-mapped");

        let net = GlockNetwork::new(&Topology::flat(Mesh2D::new(2, 1)), 1);
        let ctls = [Some(Rc::new(FailbackCtl::new(net.regs(), net.health())))];
        let set_mode = |tag: u8| {
            let mut w = SnapWriter::new();
            w.u8(tag);
            w.u32(0);
            w.u64(0);
            w.u8(0);
            w.usize(0);
            w.u64(0);
            w.bool(true);
            w.u64(0);
            w.u64(0);
            w.u64(0);
            ctls[0].as_ref().unwrap().load_state(&mut SnapReader::new(&w.into_bytes())).unwrap();
        };
        let mut ck = ProtocolChecker::new(cfg, 1, 2, &[LockId(0)]);
        set_mode(1); // SoftwareWait
        assert_eq!(ck.check(1, &tracker, &mem, &[], &ctls), None);
        assert_eq!(ck.check(100, &tracker, &mem, &[], &ctls), None, "software-served");
        set_mode(0); // Hardware
        assert_eq!(ck.check(101, &tracker, &mem, &[], &ctls), None, "first sight arms the watch");
        grant_three(&mut tracker, 102);
        let v = ck.check(200, &tracker, &mem, &[], &ctls).expect("hardware starvation must trip");
        assert!(v.contains("bounded waiting"), "{v}");
    }

    #[test]
    fn served_requests_reset_the_watch() {
        let mut ck = ProtocolChecker::new(
            CheckerConfig { every: 1, fairness_window: 10 },
            1,
            2,
            &[LockId(0)],
        );
        let mut tracker = LockTracker::new(1, 2);
        let mem = MemorySystem::new(&glocks_sim_base::CmpConfig::paper_baseline());
        tracker.on_acquire_start(LockId(0), ThreadId(0), 0);
        assert_eq!(ck.check(1, &tracker, &mem, &[], &[]), None);
        tracker.on_acquired(LockId(0), ThreadId(0), 5);
        tracker.on_release_start(LockId(0), ThreadId(0), 6);
        assert_eq!(ck.check(1000, &tracker, &mem, &[], &[]), None, "no outstanding request");
    }
}
