//! The programmer-visible GLock register interface (Figure 5).
//!
//! Each core gets a pair of flags per hardware lock: `lock_req` (set to
//! request; reset by the local controller when the lock is granted — the
//! core busy-waits on it) and `lock_rel` (set to release; reset by the
//! controller once the REL signal is sent). The paper groups all pairs in
//! one special lock register per core.
//!
//! The simulation is single-threaded, so the register file is shared
//! between the core-side scripts and the G-line network through
//! `Rc<GlockRegisters>` with `Cell` fields — modelling memory-mapped
//! device registers.
//!
//! The register file is also where the two halves of the simulator's
//! active sets meet. A core-side write marks the core's local controller
//! in `hot_leaves`, so the network ticks only controllers with work. A
//! controller-side reset marks the core in the runner's wake set, so a
//! core parked on `bnz lock_req, loop` is ticked again.

use glocks_sim_base::bitset::WakeSet;
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use std::cell::{Cell, OnceCell};
use std::rc::Rc;

/// The register pairs of one hardware lock, one pair per core.
#[derive(Debug)]
pub struct GlockRegisters {
    lock_req: Vec<Cell<bool>>,
    lock_rel: Vec<Cell<bool>>,
    /// The core whose request was granted and whose release the
    /// controller has not yet consumed. Updated atomically with the grant
    /// delivery, so observers (invariant checker, failover drain) never
    /// see a torn holder — unlike polling the core-side scripts, which
    /// learn of a grant one resume later.
    holder: Cell<Option<usize>>,
    /// Local controllers the network must tick: marked by core-side
    /// writes, trimmed by the network once a controller has no work.
    hot_leaves: WakeSet,
    /// The runner's wake set for parked cores, if one is attached.
    core_wakes: OnceCell<Rc<WakeSet>>,
}

impl GlockRegisters {
    pub fn new(n_cores: usize) -> Rc<Self> {
        Rc::new(GlockRegisters {
            lock_req: (0..n_cores).map(|_| Cell::new(false)).collect(),
            lock_rel: (0..n_cores).map(|_| Cell::new(false)).collect(),
            holder: Cell::new(None),
            hot_leaves: WakeSet::new(n_cores),
            core_wakes: OnceCell::new(),
        })
    }

    /// Wake cores in `wakes` whenever the controller resets a register
    /// they may be spinning on. Attached once, before the run.
    pub(crate) fn attach_core_wakes(&self, wakes: &Rc<WakeSet>) {
        assert!(self.core_wakes.set(Rc::clone(wakes)).is_ok(), "core wake set attached twice");
    }

    fn wake_core(&self, core: usize) {
        if let Some(w) = self.core_wakes.get() {
            w.insert(core);
        }
    }

    pub(crate) fn hot_leaves(&self) -> &WakeSet {
        &self.hot_leaves
    }

    pub fn n_cores(&self) -> usize {
        self.lock_req.len()
    }

    /// Core side: request the lock (`mov 1, lock_req`).
    pub fn set_req(&self, core: usize) {
        self.lock_req[core].set(true);
        self.hot_leaves.insert(core);
    }

    /// Core side: busy-wait test (`bnz lock_req, loop`).
    pub fn req_pending(&self, core: usize) -> bool {
        self.lock_req[core].get()
    }

    /// Core side: release the lock (`mov 1, lock_rel`).
    pub fn set_rel(&self, core: usize) {
        self.lock_rel[core].set(true);
        self.hot_leaves.insert(core);
    }

    /// Core side: is a release still being processed?
    pub fn rel_pending(&self, core: usize) -> bool {
        self.lock_rel[core].get()
    }

    /// The core currently granted on the hardware path, if any. On a dead
    /// (quarantined) network the controller never consumes the holder's
    /// release, so the holder stays set with `rel_pending(holder)` true
    /// once its critical section ended — see [`Self::hw_drained`].
    pub fn hw_holder(&self) -> Option<usize> {
        self.holder.get()
    }

    /// Failover drain predicate: the hardware path holds nobody inside a
    /// critical section. True when no grant is outstanding, or when the
    /// grantee has already written its release (the controller of a dead
    /// network will never consume it, but the critical section is over).
    pub fn hw_drained(&self) -> bool {
        match self.holder.get() {
            None => true,
            Some(h) => self.lock_rel[h].get(),
        }
    }

    /// Controller side: the grant — resets `lock_req` and wakes the
    /// spinning core.
    pub(crate) fn grant(&self, core: usize) {
        self.lock_req[core].set(false);
        self.holder.set(Some(core));
        self.wake_core(core);
    }

    /// Controller side: consume a pending release, if any.
    pub(crate) fn take_rel(&self, core: usize) -> bool {
        let v = self.lock_rel[core].get();
        if v {
            self.lock_rel[core].set(false);
            if self.holder.get() == Some(core) {
                self.holder.set(None);
            }
        }
        v
    }

    /// Controller side: observe a pending request (left set until grant).
    pub(crate) fn req_raised(&self, core: usize) -> bool {
        self.lock_req[core].get()
    }

    /// Repair: wipe the register file back to the boot image (no requests,
    /// no releases, no holder). Only valid while the network is dead and
    /// drained — every core-side script must already have observed the
    /// death and failed over, or a cleared `lock_req` could be mistaken
    /// for a grant. Every core is woken: any that still spun here now
    /// sees its request gone.
    pub(crate) fn reset(&self) {
        for c in &self.lock_req {
            c.set(false);
        }
        for c in &self.lock_rel {
            c.set(false);
        }
        self.holder.set(None);
        if let Some(w) = self.core_wakes.get() {
            w.insert_all();
        }
    }

    pub fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.lock_req.len());
        for c in &self.lock_req {
            w.bool(c.get());
        }
        for c in &self.lock_rel {
            w.bool(c.get());
        }
        w.opt_u64(self.holder.get().map(|h| h as u64));
    }

    pub fn load_state(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.usize()? != self.lock_req.len() {
            return Err(SnapError::Corrupt { what: "glock register core count" });
        }
        for c in &self.lock_req {
            c.set(r.bool()?);
        }
        for c in &self.lock_rel {
            c.set(r.bool()?);
        }
        self.holder.set(r.opt_u64()?.map(|h| h as usize));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_grant_cycle() {
        let r = GlockRegisters::new(4);
        assert!(!r.req_pending(2));
        r.set_req(2);
        assert!(r.req_pending(2));
        assert!(r.req_raised(2));
        r.grant(2);
        assert!(!r.req_pending(2), "grant resets lock_req");
    }

    #[test]
    fn release_is_consumed_once() {
        let r = GlockRegisters::new(2);
        r.set_rel(1);
        assert!(r.rel_pending(1));
        assert!(r.take_rel(1));
        assert!(!r.rel_pending(1));
        assert!(!r.take_rel(1));
    }

    #[test]
    fn holder_tracks_grant_to_release_consumption() {
        let r = GlockRegisters::new(2);
        assert_eq!(r.hw_holder(), None);
        assert!(r.hw_drained());
        r.set_req(1);
        r.grant(1);
        assert_eq!(r.hw_holder(), Some(1));
        assert!(!r.hw_drained(), "grantee is inside its critical section");
        // The grantee writes its release: drained even before (or without)
        // the controller consuming it — the dead-network drain case.
        r.set_rel(1);
        assert!(r.hw_drained());
        assert_eq!(r.hw_holder(), Some(1), "holder cleared only by the controller");
        assert!(r.take_rel(1));
        assert_eq!(r.hw_holder(), None);
        assert!(r.hw_drained());
    }

    #[test]
    fn writes_mark_controllers_and_resets_wake_cores() {
        let r = GlockRegisters::new(3);
        let wakes = Rc::new(WakeSet::new(3));
        r.attach_core_wakes(&wakes);
        r.set_req(1);
        r.set_rel(2);
        assert_eq!(r.hot_leaves().iter().collect::<Vec<_>>(), [1, 2]);
        assert_eq!(wakes.iter().next(), None, "core-side writes wake no core");
        r.grant(1);
        assert_eq!(wakes.iter().collect::<Vec<_>>(), [1], "the grant wakes its spinner");
        r.reset();
        assert_eq!(wakes.iter().count(), 3, "a reboot wakes every core");
    }

    #[test]
    fn cores_are_independent() {
        let r = GlockRegisters::new(3);
        r.set_req(0);
        assert!(!r.req_pending(1));
        assert!(!r.req_pending(2));
    }
}
