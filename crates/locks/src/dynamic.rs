//! Dynamically-shared GLocks (Section V future work): every workload lock
//! uses this backend; acquires consult the hardware binding table
//! ([`glocks::pool::GlockPool`]) and run either on a physical G-line
//! network or on the TATAS software fallback. Highly-contended locks end
//! up capturing the physical GLocks automatically — no programmer
//! annotation of "which locks are hot" is needed.

use crate::tatas::TatasLock;
use glocks::pool::{GlockPool, PoolDecision};
use glocks_cpu::{LockBackend, Script, Spin, Step};
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{Addr, ThreadId};
use std::cell::Cell;
use std::rc::Rc;

/// Cycles to consult the binding table at the lock unit.
const POOL_CONSULT_INSTRS: u64 = 4;

/// One workload lock under dynamic hardware sharing.
pub struct DynamicGlockBackend {
    pool: Rc<GlockPool>,
    logical: u16,
    fallback: TatasLock,
    /// Which regime each thread's *current* acquire used, so its release
    /// takes the same path (shared with the in-flight acquire script).
    path: Vec<Rc<Cell<Option<PoolDecision>>>>,
}

impl DynamicGlockBackend {
    /// `base` is the software fallback's memory region.
    pub fn new(pool: Rc<GlockPool>, logical: u16, base: Addr, n_threads: usize) -> Self {
        DynamicGlockBackend {
            pool,
            logical,
            fallback: TatasLock::tatas(base),
            path: (0..n_threads).map(|_| Rc::new(Cell::new(None))).collect(),
        }
    }
}

enum AcqPhase {
    Consult,
    GlockSet(usize),
    GlockSpin(usize),
    /// The bound physical network died mid-episode: wait for its hardware
    /// path to drain before entering the software fallback.
    DrainWait(usize),
    Fallback,
}

struct DynAcquire {
    pool: Rc<GlockPool>,
    logical: u16,
    tid: ThreadId,
    phase: AcqPhase,
    /// Pre-built software-fallback acquire (used only on a spill).
    inner: Box<dyn Script>,
    path_out: Rc<Cell<Option<PoolDecision>>>,
}

impl DynAcquire {
    /// Abandon a dead physical lock: the release must take the software
    /// path, and survivors may only enter it once the dead network's
    /// pre-death grantee has left its critical section.
    fn fail_over(&mut self, k: usize) -> Step {
        self.pool.note_failover();
        self.path_out.set(Some(PoolDecision::Software));
        self.phase = AcqPhase::DrainWait(k);
        Step::Compute(1)
    }
}

impl Script for DynAcquire {
    fn resume(&mut self, last: u64) -> Step {
        match self.phase {
            AcqPhase::Consult => {
                let decision = self.pool.begin_acquire(self.logical);
                self.path_out.set(Some(decision));
                match decision {
                    PoolDecision::Hardware(k) => self.phase = AcqPhase::GlockSet(k),
                    PoolDecision::Software => self.phase = AcqPhase::Fallback,
                }
                Step::Compute(POOL_CONSULT_INSTRS)
            }
            AcqPhase::GlockSet(k) => {
                if self.pool.is_dead(k) {
                    // The binding is pinned to a network that died; every
                    // thread of this episode converges on the fallback.
                    return self.fail_over(k);
                }
                self.pool.regs(k).set_req(self.tid.index());
                self.phase = AcqPhase::GlockSpin(k);
                Step::Compute(1)
            }
            AcqPhase::GlockSpin(k) => {
                if !self.pool.regs(k).req_pending(self.tid.index()) {
                    // Granted — final even if the verdict landed this
                    // cycle (quarantine freezes register state).
                    return Step::Done;
                }
                if self.pool.is_dead(k) {
                    return self.fail_over(k);
                }
                Step::Compute(1)
            }
            AcqPhase::DrainWait(k) => {
                if self.pool.regs(k).hw_drained() {
                    self.phase = AcqPhase::Fallback;
                    self.inner.resume(last)
                } else {
                    Step::Compute(1)
                }
            }
            AcqPhase::Fallback => self.inner.resume(last),
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        match self.phase {
            AcqPhase::Consult => w.u8(0),
            AcqPhase::GlockSet(k) => {
                w.u8(1);
                w.usize(k);
            }
            AcqPhase::GlockSpin(k) => {
                w.u8(2);
                w.usize(k);
            }
            AcqPhase::DrainWait(k) => {
                w.u8(3);
                w.usize(k);
            }
            AcqPhase::Fallback => w.u8(4),
        }
        self.inner.save_state(w)
    }

    /// Spinning on a bound physical GLock's `lock_req` is inert while the
    /// REQ is raised and that network is alive — grant and death verdict
    /// both come from the network, whose `next_event` covers them.
    fn spin(&self, _last: u64) -> Option<Spin> {
        let AcqPhase::GlockSpin(k) = self.phase else {
            return None;
        };
        (self.pool.regs(k).req_pending(self.tid.index()) && !self.pool.is_dead(k))
            .then_some(Spin::Register)
    }
}

fn decision_tag(w: &mut SnapWriter, d: PoolDecision) {
    match d {
        PoolDecision::Hardware(k) => {
            w.u8(0);
            w.usize(k);
        }
        PoolDecision::Software => w.u8(1),
    }
}

fn decision_from(r: &mut SnapReader<'_>, what: &'static str) -> Result<PoolDecision, SnapError> {
    match r.u8()? {
        0 => Ok(PoolDecision::Hardware(r.usize()?)),
        1 => Ok(PoolDecision::Software),
        tag => Err(SnapError::BadTag { what, tag: u64::from(tag) }),
    }
}

enum RelPhase {
    Start,
    GlockDone,
    Fallback,
}

struct DynRelease {
    pool: Rc<GlockPool>,
    logical: u16,
    tid: ThreadId,
    decision: PoolDecision,
    phase: RelPhase,
    inner: Option<Box<dyn Script>>,
}

impl Script for DynRelease {
    fn resume(&mut self, last: u64) -> Step {
        match self.phase {
            RelPhase::Start => match self.decision {
                PoolDecision::Hardware(k) => {
                    self.pool.regs(k).set_rel(self.tid.index());
                    self.phase = RelPhase::GlockDone;
                    Step::Compute(1)
                }
                PoolDecision::Software => {
                    self.phase = RelPhase::Fallback;
                    self.resume(last)
                }
            },
            RelPhase::GlockDone => {
                self.pool.end_release(self.logical);
                Step::Done
            }
            RelPhase::Fallback => {
                let step = self.inner.as_mut().expect("fallback release").resume(last);
                if matches!(step, Step::Done) {
                    self.pool.end_release(self.logical);
                }
                step
            }
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        decision_tag(w, self.decision);
        w.u8(match self.phase {
            RelPhase::Start => 0,
            RelPhase::GlockDone => 1,
            RelPhase::Fallback => 2,
        });
        w.bool(self.inner.is_some());
        if let Some(inner) = &self.inner {
            inner.save_state(w)?;
        }
        Ok(())
    }
}

impl LockBackend for DynamicGlockBackend {
    fn acquire(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(DynAcquire {
            pool: Rc::clone(&self.pool),
            logical: self.logical,
            tid,
            phase: AcqPhase::Consult,
            inner: self.fallback.acquire(tid),
            path_out: Rc::clone(&self.path[tid.index()]),
        })
    }

    fn release(&self, tid: ThreadId) -> Box<dyn Script> {
        let decision = self.path[tid.index()]
            .take()
            .expect("release without a recorded acquire path");
        let inner = matches!(decision, PoolDecision::Software)
            .then(|| self.fallback.release(tid));
        Box::new(DynRelease {
            pool: Rc::clone(&self.pool),
            logical: self.logical,
            tid,
            decision,
            phase: RelPhase::Start,
            inner,
        })
    }

    fn name(&self) -> &'static str {
        "DynGLock"
    }

    // The pool's binding table is shared structure saved once at sim level.
    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.usize(self.path.len());
        for cell in &self.path {
            match cell.get() {
                None => w.u8(0),
                Some(PoolDecision::Hardware(k)) => {
                    w.u8(1);
                    w.usize(k);
                }
                Some(PoolDecision::Software) => w.u8(2),
            }
        }
        Ok(())
    }

    fn load_state(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.usize()? != self.path.len() {
            return Err(SnapError::Corrupt { what: "dynamic lock thread count" });
        }
        for cell in &self.path {
            cell.set(match r.u8()? {
                0 => None,
                1 => Some(PoolDecision::Hardware(r.usize()?)),
                2 => Some(PoolDecision::Software),
                tag => {
                    return Err(SnapError::BadTag {
                        what: "dynamic path decision",
                        tag: u64::from(tag),
                    })
                }
            });
        }
        Ok(())
    }

    fn load_acquire_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        let phase = match r.u8()? {
            0 => AcqPhase::Consult,
            1 => AcqPhase::GlockSet(r.usize()?),
            2 => AcqPhase::GlockSpin(r.usize()?),
            3 => AcqPhase::DrainWait(r.usize()?),
            4 => AcqPhase::Fallback,
            tag => {
                return Err(SnapError::BadTag {
                    what: "dynamic acquire phase",
                    tag: u64::from(tag),
                })
            }
        };
        let inner = self.fallback.load_acquire_script(tid, r)?;
        Ok(Box::new(DynAcquire {
            pool: Rc::clone(&self.pool),
            logical: self.logical,
            tid,
            phase,
            inner,
            path_out: Rc::clone(&self.path[tid.index()]),
        }))
    }

    fn load_release_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        let decision = decision_from(r, "dynamic release decision")?;
        let phase = match r.u8()? {
            0 => RelPhase::Start,
            1 => RelPhase::GlockDone,
            2 => RelPhase::Fallback,
            tag => {
                return Err(SnapError::BadTag {
                    what: "dynamic release phase",
                    tag: u64::from(tag),
                })
            }
        };
        let inner = if r.bool()? {
            Some(self.fallback.load_release_script(tid, r)?)
        } else {
            None
        };
        Ok(Box::new(DynRelease {
            pool: Rc::clone(&self.pool),
            logical: self.logical,
            tid,
            decision,
            phase,
            inner,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::run_counter_bench_with_nets;
    use glocks::{GlockNetwork, Topology};
    use glocks_sim_base::Mesh2D;

    #[test]
    fn dynamic_backend_is_correct_with_one_physical_lock() {
        let mesh = Mesh2D::near_square(8);
        let net = GlockNetwork::new(&Topology::flat(mesh), 1);
        let pool = GlockPool::new(vec![net.regs()]);
        let p2 = Rc::clone(&pool);
        let mut nets = [net];
        let out = run_counter_bench_with_nets(
            move |base, n| Box::new(DynamicGlockBackend::new(p2, 0, base, n)) as _,
            8,
            5,
            &mut nets,
        );
        assert_eq!(out.counter_value, 40);
        assert!(pool.is_quiescent());
        // the single hot lock must have run on hardware
        let s = pool.stats();
        assert!(s.hw_acquires > 0, "no hardware acquires: {s:?}");
        assert_eq!(s.spills, 0, "sole lock should never spill: {s:?}");
    }
}
