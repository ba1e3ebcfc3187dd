//! The core-side driver of a hardware GLock — Figure 5 of the paper:
//!
//! ```text
//! GL_Lock()  { mov 1, lock_req ; loop: bnz lock_req, loop }
//! GL_Unlock(){ mov 1, lock_rel }
//! ```
//!
//! The scripts only touch the per-core register pair; all synchronization
//! happens in the dedicated G-line network, which the simulator ticks as a
//! hardware device. No memory operation is ever issued, so lock
//! synchronization contributes **zero** traffic to the main data network.

use glocks::GlockRegisters;
use glocks_cpu::{LockBackend, Script, Spin, Step};
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::ThreadId;
use std::rc::Rc;

/// Backend bridging workload threads to one GLock's register file.
pub struct GlockBackend {
    regs: Rc<GlockRegisters>,
}

impl GlockBackend {
    pub fn new(regs: Rc<GlockRegisters>) -> Self {
        GlockBackend { regs }
    }
}

enum AcqPhase {
    SetReq,
    Spin,
}

/// `GL_Lock`: one register write, then busy-wait until the local
/// controller resets `lock_req` (the grant).
struct GlockAcquire {
    regs: Rc<GlockRegisters>,
    core: usize,
    phase: AcqPhase,
}

impl Script for GlockAcquire {
    fn resume(&mut self, _last: u64) -> Step {
        match self.phase {
            AcqPhase::SetReq => {
                self.regs.set_req(self.core);
                self.phase = AcqPhase::Spin;
                // mov 1, lock_req
                Step::Compute(1)
            }
            AcqPhase::Spin => {
                if self.regs.req_pending(self.core) {
                    // bnz lock_req, loop
                    Step::Compute(1)
                } else {
                    Step::Done
                }
            }
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u8(match self.phase {
            AcqPhase::SetReq => 0,
            AcqPhase::Spin => 1,
        });
        Ok(())
    }

    /// The busy-wait loop is inert while `lock_req` is still raised; the
    /// local GLock controller (whose network reports its own wakes) is the
    /// only agent that resets it.
    fn spin(&self, _last: u64) -> Option<Spin> {
        (matches!(self.phase, AcqPhase::Spin) && self.regs.req_pending(self.core))
            .then_some(Spin::Register)
    }
}

/// `GL_Unlock`: a single register write; the controller propagates REL.
struct GlockRelease {
    regs: Rc<GlockRegisters>,
    core: usize,
    done: bool,
}

impl Script for GlockRelease {
    fn resume(&mut self, _last: u64) -> Step {
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
        w.bool(self.done);
        Ok(())
    }
}

impl LockBackend for GlockBackend {
    fn acquire(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(GlockAcquire {
            regs: Rc::clone(&self.regs),
            core: tid.index(),
            phase: AcqPhase::SetReq,
        })
    }

    fn release(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(GlockRelease {
            regs: Rc::clone(&self.regs),
            core: tid.index(),
            done: false,
        })
    }

    fn name(&self) -> &'static str {
        "GLock"
    }

    // The register file is shared structure saved by the owning GlockNetwork.
    fn save_state(&self, _w: &mut SnapWriter) -> Result<(), SnapError> {
        Ok(())
    }

    fn load_state(&self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
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
            tag => {
                return Err(SnapError::BadTag { what: "glock acquire phase", tag: u64::from(tag) })
            }
        };
        Ok(Box::new(GlockAcquire { regs: Rc::clone(&self.regs), core: tid.index(), phase }))
    }

    fn load_release_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        Ok(Box::new(GlockRelease {
            regs: Rc::clone(&self.regs),
            core: tid.index(),
            done: r.bool()?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::run_counter_bench_with_nets;
    use glocks::{GlockNetwork, Topology};
    use glocks_sim_base::Mesh2D;

    fn run(threads: usize, iters: u64) -> crate::testkit::BenchOutcome {
        let mesh = Mesh2D::near_square(threads);
        let net = GlockNetwork::new(&Topology::flat(mesh), 1);
        let regs = net.regs();
        let mut nets = [net];
        let out = run_counter_bench_with_nets(
            move |_base, _n| Box::new(GlockBackend::new(regs)) as _,
            threads,
            iters,
            &mut nets,
        );
        let [net] = nets;
        assert!(net.is_idle(), "G-line network must drain");
        assert_eq!(net.stats().grants, threads as u64 * iters);
        out
    }

    #[test]
    fn glock_is_correct_under_full_contention() {
        let out = run(32, 3);
        assert_eq!(out.counter_value, 96);
    }

    #[test]
    fn glock_is_round_robin_fair() {
        let out = run(8, 3);
        // Under saturation every round grants each core exactly once.
        for r in 0..3 {
            let mut round: Vec<u16> = out.grant_order[r * 8..(r + 1) * 8]
                .iter()
                .map(|t| t.0)
                .collect();
            round.sort_unstable();
            assert_eq!(round, (0..8).collect::<Vec<_>>(), "round {r} unfair");
        }
    }

    #[test]
    fn glock_beats_mcs_on_lock_time() {
        let glock = run(8, 4);
        let mcs = run_counter_bench_with_nets(
            |base, n| Box::new(crate::mcs::McsLock::new(base, n)) as _,
            8,
            4,
            &mut [],
        );
        assert!(
            glock.lock_cycles_total < mcs.lock_cycles_total / 2,
            "GLock lock cycles {} should be well under MCS's {}",
            glock.lock_cycles_total,
            mcs.lock_cycles_total
        );
        assert!(
            glock.cycles < mcs.cycles,
            "GLock run ({} cy) should beat MCS ({} cy)",
            glock.cycles,
            mcs.cycles
        );
    }

    #[test]
    fn glock_generates_no_lock_traffic() {
        let glock = run(8, 4);
        let mcs = run_counter_bench_with_nets(
            |base, n| Box::new(crate::mcs::McsLock::new(base, n)) as _,
            8,
            4,
            &mut [],
        );
        // Only the shared counter's migration remains on the data network.
        assert!(
            glock.total_bytes < mcs.total_bytes / 2,
            "GLock bytes {} !< half of MCS bytes {}",
            glock.total_bytes,
            mcs.total_bytes
        );
    }
}
