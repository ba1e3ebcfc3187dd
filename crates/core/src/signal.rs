//! G-line signals and their propagation.
//!
//! A G-line carries one bit across one chip dimension in a single cycle
//! (configurable via `gline_latency` for the paper's "longer-latency
//! G-lines" scaling path). The synchronization protocol needs three signal
//! types (Section III-B).
//!
//! Beyond the paper, every `TOKEN`/`REL` carries the delegating arbiter's
//! **epoch** (a per-arbiter monotone delegation counter) so the hardened
//! automata in [`crate::node`] can reject stale and duplicated tokens, and
//! the wires accept an optional [`FaultInjector`] that drops, delays or
//! duplicates transmissions according to a deterministic schedule.

use glocks_sim_base::fault::{FaultDecision, FaultInjector};
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{CoreId, Cycle};

/// The three 1-bit signal types of the GLocks protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sig {
    /// Ask for the lock (controller → manager, manager → parent manager).
    Req,
    /// Grant the lock (manager → controller / child manager).
    Token,
    /// Give the lock back (controller → manager, manager → parent).
    Rel,
}

/// A signal in flight on a G-line.
#[derive(Clone, Copy, Debug)]
pub struct InFlight {
    pub deliver_at: Cycle,
    pub dst: Endpoint,
    pub sig: Sig,
    /// Sender's index within the receiver's child list (for `Req`/`Rel`
    /// to arbiters; ignored for `Token` and leaf deliveries).
    pub child_index: usize,
    /// Delegation epoch: the delegating arbiter's counter value for
    /// `Token`, echoed back on the matching `Rel`; 0 for `Req`.
    pub epoch: u64,
}

/// A signal destination inside one lock's controller tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// An arbiter node (secondary / primary / super-primary manager),
    /// by node index.
    Arb(usize),
    /// A core's local controller.
    Leaf(CoreId),
}

/// The set of signals currently on the wires of one lock's network.
#[derive(Debug, Default)]
pub struct Wires {
    in_flight: Vec<InFlight>,
    sent: u64,
    dropped: u64,
    faults: Option<FaultInjector>,
    /// Hard fault: the G-line segments are dead from this cycle on. Every
    /// later transmission is lost and undelivered in-flight signals whose
    /// arrival falls at or past the death cycle never arrive.
    dead_from: Option<Cycle>,
}

impl Wires {
    pub fn new() -> Self {
        Self::default()
    }

    /// Subject every subsequent transmission to the injector's schedule.
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = Some(faults);
    }

    /// Permanently kill the wires from cycle `at` on (hard fault). Signals
    /// already in flight that would arrive at or after `at` are purged.
    pub fn kill(&mut self, at: Cycle) {
        self.dead_from = Some(at);
        let before = self.in_flight.len();
        self.in_flight.retain(|s| s.deliver_at < at);
        self.dropped += (before - self.in_flight.len()) as u64;
    }

    pub fn is_dead(&self) -> bool {
        self.dead_from.is_some()
    }

    /// Repair: the dead metal is replaced. Leftover in-flight signals (sent
    /// pre-death but never delivered) are scrapped with the old wires; the
    /// cumulative `sent`/`dropped` energy counters survive, as does the
    /// fault injector (its schedule is a pure function of the event index,
    /// so replacement hardware on the same glitchy substrate keeps faulting).
    pub fn revive(&mut self) {
        let before = self.in_flight.len();
        self.in_flight.clear();
        self.dropped += before as u64;
        self.dead_from = None;
    }

    /// Soft-fault totals from the injector, if one is attached.
    pub fn fault_stats(&self) -> Option<glocks_sim_base::fault::FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Put a signal on a G-line at cycle `now`; it is visible to the
    /// receiver's automaton from cycle `now + latency` on — unless the
    /// fault schedule drops, delays or duplicates it.
    pub fn send(
        &mut self,
        now: Cycle,
        latency: u64,
        dst: Endpoint,
        sig: Sig,
        child_index: usize,
        epoch: u64,
    ) {
        self.sent += 1;
        if self.dead_from.is_some_and(|d| now >= d) {
            // Driven onto dead metal: counts as a transmission (the sender
            // spent the energy) but can never arrive.
            self.dropped += 1;
            return;
        }
        let mut deliver_at = now + latency;
        if let Some(f) = self.faults.as_mut() {
            match f.decide() {
                FaultDecision::Deliver => {}
                FaultDecision::Drop => {
                    self.dropped += 1;
                    return;
                }
                FaultDecision::Delay(extra) => deliver_at += extra,
                FaultDecision::Duplicate => {
                    // The glitched copy trails the original by one cycle
                    // and is a real transmission for the energy model.
                    self.sent += 1;
                    self.in_flight.push(InFlight {
                        deliver_at: deliver_at + 1,
                        dst,
                        sig,
                        child_index,
                        epoch,
                    });
                }
            }
        }
        self.in_flight.push(InFlight { deliver_at, dst, sig, child_index, epoch });
    }

    /// Pop all signals due at `now` (in send order), in one pass that
    /// keeps the rest in send order too.
    pub fn deliver_due(&mut self, now: Cycle, out: &mut Vec<InFlight>) {
        self.in_flight.retain(|s| {
            let due = s.deliver_at <= now;
            if due {
                out.push(*s);
            }
            !due
        });
    }

    /// Total signal transmissions so far (energy-model input; dropped
    /// signals were still driven onto the wire and count).
    pub fn signals_sent(&self) -> u64 {
        self.sent
    }

    /// Transmissions lost to the fault schedule.
    pub fn signals_dropped(&self) -> u64 {
        self.dropped
    }

    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    pub fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.in_flight.len());
        for s in &self.in_flight {
            w.u64(s.deliver_at);
            match s.dst {
                Endpoint::Arb(i) => {
                    w.u8(0);
                    w.usize(i);
                }
                Endpoint::Leaf(c) => {
                    w.u8(1);
                    w.u16(c.0);
                }
            }
            w.u8(match s.sig {
                Sig::Req => 0,
                Sig::Token => 1,
                Sig::Rel => 2,
            });
            w.usize(s.child_index);
            w.u64(s.epoch);
        }
        w.u64(self.sent);
        w.u64(self.dropped);
        w.bool(self.faults.is_some());
        if let Some(f) = &self.faults {
            f.save_state(w);
        }
        w.opt_u64(self.dead_from);
    }

    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.usize()?;
        self.in_flight.clear();
        for _ in 0..n {
            let deliver_at = r.u64()?;
            let dst = match r.u8()? {
                0 => Endpoint::Arb(r.usize()?),
                1 => Endpoint::Leaf(CoreId(r.u16()?)),
                tag => {
                    return Err(SnapError::BadTag { what: "g-line endpoint", tag: u64::from(tag) })
                }
            };
            let sig = match r.u8()? {
                0 => Sig::Req,
                1 => Sig::Token,
                2 => Sig::Rel,
                tag => {
                    return Err(SnapError::BadTag { what: "g-line signal", tag: u64::from(tag) })
                }
            };
            let child_index = r.usize()?;
            let epoch = r.u64()?;
            self.in_flight.push(InFlight { deliver_at, dst, sig, child_index, epoch });
        }
        self.sent = r.u64()?;
        self.dropped = r.u64()?;
        if r.bool()? {
            match self.faults.as_mut() {
                Some(f) => f.load_state(r)?,
                None => return Err(SnapError::Corrupt { what: "g-line fault injector presence" }),
            }
        } else if self.faults.is_some() {
            return Err(SnapError::Corrupt { what: "g-line fault injector presence" });
        }
        self.dead_from = r.opt_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glocks_sim_base::fault::{FaultPlan, FaultRates, FaultSite};

    #[test]
    fn delivery_respects_latency_and_order() {
        let mut w = Wires::new();
        w.send(10, 1, Endpoint::Arb(0), Sig::Req, 2, 0);
        w.send(10, 1, Endpoint::Arb(0), Sig::Rel, 3, 7);
        w.send(10, 2, Endpoint::Leaf(CoreId(5)), Sig::Token, 0, 9);
        let mut got = Vec::new();
        w.deliver_due(10, &mut got);
        assert!(got.is_empty());
        w.deliver_due(11, &mut got);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].sig, Sig::Req);
        assert_eq!(got[1].sig, Sig::Rel);
        assert_eq!(got[1].epoch, 7);
        got.clear();
        w.deliver_due(12, &mut got);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].dst, Endpoint::Leaf(CoreId(5)));
        assert_eq!(got[0].epoch, 9);
        assert!(w.is_idle());
        assert_eq!(w.signals_sent(), 3);
        assert_eq!(w.signals_dropped(), 0);
    }

    #[test]
    fn dropped_signals_never_arrive_but_still_count() {
        let mut plan = FaultPlan::seeded(7);
        plan.gline = FaultRates::drops(1_000_000);
        let mut w = Wires::new();
        w.set_faults(plan.injector(FaultSite::Gline, 0));
        for i in 0..20 {
            w.send(i, 1, Endpoint::Arb(0), Sig::Req, 0, 0);
        }
        let mut got = Vec::new();
        w.deliver_due(1_000, &mut got);
        assert!(got.is_empty(), "all transmissions were dropped");
        assert_eq!(w.signals_sent(), 20);
        assert_eq!(w.signals_dropped(), 20);
    }

    #[test]
    fn killed_wires_purge_and_refuse() {
        let mut w = Wires::new();
        w.send(0, 1, Endpoint::Arb(0), Sig::Req, 0, 0); // arrives at 1
        w.send(0, 10, Endpoint::Arb(0), Sig::Rel, 0, 2); // would arrive at 10
        w.kill(5);
        assert!(w.is_dead());
        let mut got = Vec::new();
        w.deliver_due(1, &mut got);
        assert_eq!(got.len(), 1, "pre-death arrival still delivered");
        got.clear();
        w.deliver_due(100, &mut got);
        assert!(got.is_empty(), "post-death arrival was purged");
        w.send(6, 1, Endpoint::Arb(0), Sig::Req, 0, 0);
        w.deliver_due(100, &mut got);
        assert!(got.is_empty(), "sends onto dead wires are lost");
        assert_eq!(w.signals_sent(), 3, "lost sends still drove the wire");
        assert_eq!(w.signals_dropped(), 2);
        assert!(w.is_idle());
    }

    /// Signals due in the same cycle come out in the order they went onto
    /// the wires, even when delays and trailing duplicates make later
    /// sends overtake earlier ones.
    #[test]
    fn same_cycle_deliveries_keep_send_order_under_delay_and_duplicates() {
        let mut plan = FaultPlan::seeded(21);
        plan.gline = FaultRates {
            drop_ppm: 0,
            delay_ppm: 300_000,
            max_delay: 3,
            duplicate_ppm: 300_000,
        };
        let mut w = Wires::new();
        w.set_faults(plan.injector(FaultSite::Gline, 0));
        // Every transmission as it was pushed, tagged by its epoch.
        let mut pushed: Vec<(Cycle, u64)> = Vec::new();
        let mut delivered: Vec<(Cycle, u64)> = Vec::new();
        let mut epoch = 0;
        let mut got = Vec::new();
        for now in 0..220 {
            got.clear();
            w.deliver_due(now, &mut got);
            for s in &got {
                assert_eq!(s.deliver_at, now, "drained every cycle: nothing is overdue");
                delivered.push((s.deliver_at, s.epoch));
            }
            // Sends stop early enough for the last copies to land.
            for _ in 0..if now < 200 { now % 4 } else { 0 } {
                epoch += 1;
                let before = w.in_flight.len();
                w.send(now, 1 + now % 2, Endpoint::Arb(0), Sig::Rel, 0, epoch);
                pushed.extend(w.in_flight[before..].iter().map(|s| (s.deliver_at, s.epoch)));
            }
        }
        assert!(w.is_idle());
        let stats = w.fault_stats().unwrap();
        assert!(stats.delayed > 0 && stats.duplicated > 0, "both faults exercised");
        // Send order within each delivery cycle = a stable sort of the
        // push sequence by arrival cycle.
        pushed.sort_by_key(|&(at, _)| at);
        assert_eq!(delivered, pushed);
    }

    #[test]
    fn duplicated_signals_arrive_twice() {
        let mut plan = FaultPlan::seeded(7);
        plan.gline = FaultRates::duplicates(1_000_000);
        let mut w = Wires::new();
        w.set_faults(plan.injector(FaultSite::Gline, 0));
        w.send(0, 1, Endpoint::Leaf(CoreId(1)), Sig::Token, 0, 3);
        let mut got = Vec::new();
        w.deliver_due(100, &mut got);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|s| s.epoch == 3));
        assert_eq!(w.signals_sent(), 2);
    }
}
