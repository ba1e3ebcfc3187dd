//! The assembled memory subsystem: per-tile L1 + directory over the mesh.
//!
//! This is the interface the simulated cores talk to: submit one memory
//! operation, tick the world, poll for the completion.

use crate::counters::{DirCounters, L1Counters};
use crate::dir::{DirState, Directory, SharerMask};
use crate::l1::{L1Cache, L1State};
use crate::mplock::{MpFabric, MpManager, MANAGER_LATENCY, MAX_MP_LOCKS};
use crate::msg::{CoherenceMsg, MemOp, MemResult, MpLockMsg, SysMsg};
use crate::store::WordStore;
use glocks_noc::{MeshNoc, Packet, TrafficStats};
use glocks_sim_base::bitset::{bits, TileSet, WakeSet};
use glocks_sim_base::fault::{FaultPlan, FaultSite};
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{Addr, CmpConfig, CoreId, Cycle, LineAddr, TileId};
use std::rc::Rc;

/// A point-in-time picture of what the memory system is doing — part of
/// the runner's diagnostic snapshot when a run wedges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemDiag {
    /// Packets inside the fabric or delivery buffers.
    pub noc_in_flight: usize,
    /// Packets sitting in router input queues (congestion).
    pub noc_queued: usize,
    /// Packets lost to an injected fault schedule.
    pub noc_dropped: u64,
    /// L1s with an operation outstanding.
    pub busy_l1s: usize,
    /// Directory lines with a transaction in flight.
    pub dir_busy_lines: usize,
    /// Requests queued behind busy directory lines.
    pub dir_queued_requests: usize,
}

/// The full memory hierarchy of the simulated CMP.
pub struct MemorySystem {
    l1s: Vec<L1Cache>,
    dirs: Vec<Directory>,
    store: WordStore,
    net: MeshNoc<SysMsg>,
    drain_buf: Vec<Packet<SysMsg>>,
    /// MP-Locks kernel lock managers, one per tile (related work \[14\]).
    mp_managers: Vec<MpManager>,
    /// Core-side MP-Locks NIC, shared with the lock backend.
    mp_fabric: std::rc::Rc<MpFabric>,
    mp_out_buf: Vec<(CoreId, MpLockMsg)>,
    /// Per-MP-lock manager processing latency (software kernel manager by
    /// default; 2 cycles for the hardware SB of related work \[16\]).
    mp_latency: Vec<u64>,
    ctrl_bytes: u32,
    n_tiles: usize,
    /// Controllers with a scheduled event, the only ones `tick` visits:
    /// L1s by core (less the parked ones, see [`MemorySystem::park_poll`]),
    /// directories and MP-Lock managers by tile. Derived from the
    /// controllers' event queues, so snapshots do not carry them.
    l1_work: TileSet,
    dir_work: TileSet,
    mp_work: TileSet,
    /// The runner's wake set for parked cores, if one is attached: a
    /// coherence message reaching a parked L1 marks its core.
    core_wakes: Option<Rc<WakeSet>>,
}

impl MemorySystem {
    pub fn new(cfg: &CmpConfig) -> Self {
        cfg.validate();
        let mesh = cfg.mesh();
        MemorySystem {
            l1s: (0..cfg.num_cores)
                .map(|i| L1Cache::new(CoreId(i as u16), cfg))
                .collect(),
            dirs: mesh.tiles().map(|t| Directory::new(t, cfg)).collect(),
            store: WordStore::new(),
            net: MeshNoc::new(mesh, cfg.noc),
            drain_buf: Vec::new(),
            mp_managers: (0..mesh.len()).map(|_| MpManager::new()).collect(),
            mp_fabric: MpFabric::new(cfg.num_cores),
            mp_out_buf: Vec::new(),
            mp_latency: vec![MANAGER_LATENCY; MAX_MP_LOCKS as usize],
            ctrl_bytes: cfg.noc.ctrl_msg_bytes,
            n_tiles: mesh.len(),
            l1_work: TileSet::new(cfg.num_cores),
            dir_work: TileSet::new(mesh.len()),
            mp_work: TileSet::new(mesh.len()),
            core_wakes: None,
        }
    }

    /// Wake cores in `wakes` when a coherence message reaches the L1 they
    /// are parked with. Attached once, before the run; without it no poll
    /// parks.
    pub fn attach_core_wakes(&mut self, wakes: &Rc<WakeSet>) {
        assert!(self.core_wakes.is_none(), "core wake set attached twice");
        self.core_wakes = Some(Rc::clone(wakes));
    }

    /// Park `core`'s L1 with the core, which just submitted (at `now`) a
    /// load of `a` polling for `last` ([`L1Cache::park`] lists what the
    /// L1 must satisfy). Returns the cycles between two polls if parked.
    ///
    /// While the word still holds `last`, every poll hits and returns it
    /// until a coherence message reaches this L1: the only code that
    /// writes the functional store is an L1 commit, and a write to the
    /// line must first invalidate or forward the poller's copy. That needs
    /// the directory to name every sharer, so machines wider than its
    /// sharer mask never park. The parked L1 leaves `l1_work` but keeps
    /// its access event (which [`MemorySystem::next_event`] leaves out),
    /// so [`MemorySystem::is_quiescent`],
    /// [`MemorySystem::diag`] and the invariant scans read as in the dense
    /// loop; delivery ([`MemorySystem::tick`]) and
    /// [`MemorySystem::unpark_polls`] replay the polls.
    pub fn park_poll(&mut self, core: CoreId, a: Addr, last: u64, now: Cycle) -> Option<u64> {
        let c = core.index();
        let parks = self.core_wakes.is_some()
            && self.l1s.len() <= SharerMask::BITS as usize
            && self.store.load(a) == last
            && self.l1s[c].park(a, now, last);
        if !parks {
            return None;
        }
        self.l1_work.remove(c);
        Some(self.l1s[c].poll_period())
    }

    /// Settle `core`'s L1, if parked, at the cycle boundary `until` (the
    /// first cycle not executed): replay its polls and put it back in the
    /// work set. The runner calls this for a core woken by another source.
    pub fn unpark_poll(&mut self, core: CoreId, until: Cycle) {
        let l1 = &mut self.l1s[core.index()];
        if l1.unpark(until, until) && l1.has_events() {
            self.l1_work.insert(core.index());
        }
    }

    /// [`MemorySystem::unpark_poll`] for every core.
    pub fn unpark_polls(&mut self, until: Cycle) {
        for c in 0..self.l1s.len() {
            self.unpark_poll(CoreId(c as u16), until);
        }
    }

    /// The MP-Locks NIC handle for lock backends.
    pub fn mp_fabric(&self) -> std::rc::Rc<MpFabric> {
        std::rc::Rc::clone(&self.mp_fabric)
    }

    /// Configure one MP lock's manager latency (e.g.
    /// [`crate::mplock::SYNC_BUF_LATENCY`] for the hardware SB flavor).
    pub fn set_mp_latency(&mut self, lock: u16, cycles: u64) {
        self.mp_latency[lock as usize] = cycles;
    }

    /// Home tile of an MP lock.
    fn mp_home(&self, lock: u16) -> TileId {
        TileId(lock % self.n_tiles as u16)
    }

    fn inject_mp(&mut self, src: TileId, dst: TileId, msg: MpLockMsg, now: Cycle) {
        self.net.inject(
            Packet {
                src,
                dst,
                bytes: self.ctrl_bytes,
                class: msg.traffic_class(),
                injected_at: now,
                payload: SysMsg::Lock(msg),
            },
            now,
        );
    }

    /// Submit a memory operation for `core`. One outstanding op per core.
    pub fn submit(&mut self, core: CoreId, op: MemOp, now: Cycle) {
        self.l1s[core.index()].submit(op, now);
        self.l1_work.insert(core.index());
    }

    /// Is `core`'s L1 free to accept a new operation?
    pub fn can_submit(&self, core: CoreId) -> bool {
        !self.l1s[core.index()].busy()
    }

    /// Take the completion for `core`, if its operation finished.
    pub fn take_result(&mut self, core: CoreId) -> Option<MemResult> {
        self.l1s[core.index()].take_result()
    }

    /// Advance the memory world by one cycle. Call once per simulated cycle
    /// *after* cores have submitted their operations for this cycle.
    ///
    /// Each phase visits only its active set, in ascending index order —
    /// the order a sweep over every tile would use. A skipped delivery
    /// queue has nothing to drain and a skipped controller has no event,
    /// so the trajectory is the full sweep's. Handling a delivery injects
    /// only into router queues or, as a local bypass, into the delivering
    /// tile's own queue, never ready this cycle.
    pub fn tick(&mut self, now: Cycle) {
        // 1. The fabric moves packets.
        self.net.tick(now);
        // 2. Deliver arrived packets to their tile's L1, directory, NIC
        //    or lock manager.
        for w in 0..self.net.delivery_tiles().n_words() {
            for t in bits(w, self.net.delivery_tiles().word(w)) {
                self.deliver(t, now);
            }
        }
        // 3. Controllers process their scheduled work.
        for w in 0..self.l1_work.n_words() {
            for c in bits(w, self.l1_work.word(w)) {
                let l1 = &mut self.l1s[c];
                l1.tick(now, &mut self.store, &mut self.net);
                if !l1.has_events() {
                    self.l1_work.remove(c);
                }
            }
        }
        for w in 0..self.dir_work.n_words() {
            for t in bits(w, self.dir_work.word(w)) {
                let dir = &mut self.dirs[t];
                dir.tick(now, &mut self.store, &mut self.net);
                if !dir.has_events() {
                    self.dir_work.remove(t);
                }
            }
        }
        // 4. MP-Locks: NIC outbox → network; manager decisions → network.
        while let Some((core, msg)) = self.mp_fabric.pop_outgoing() {
            let dst = match msg {
                MpLockMsg::Req { lock, .. } | MpLockMsg::Rel { lock, .. } => self.mp_home(lock),
                MpLockMsg::Grant { .. } => unreachable!("cores do not send grants"),
            };
            self.inject_mp(TileId(core.0), dst, msg, now);
        }
        for w in 0..self.mp_work.n_words() {
            for t in bits(w, self.mp_work.word(w)) {
                self.mp_managers[t].tick(now);
                self.mp_out_buf.clear();
                self.mp_managers[t].take_outgoing(&mut self.mp_out_buf);
                for i in 0..self.mp_out_buf.len() {
                    let (core, msg) = self.mp_out_buf[i];
                    self.inject_mp(TileId(t as u16), TileId(core.0), msg, now);
                }
                if self.mp_managers[t].is_quiescent() {
                    self.mp_work.remove(t);
                }
            }
        }
    }

    /// Hand every packet ready at tile `t` to its L1, directory, NIC or
    /// lock manager.
    fn deliver(&mut self, t: usize, now: Cycle) {
        self.drain_buf.clear();
        self.net.drain(TileId(t as u16), now, &mut self.drain_buf);
        for i in 0..self.drain_buf.len() {
            match self.drain_buf[i].payload {
                SysMsg::Coh(msg) => {
                    if msg.to_directory() {
                        self.dirs[t].handle_msg(msg, now, &mut self.store, &mut self.net);
                        self.dir_work.insert(t);
                    } else if self.l1s[t].is_parked() {
                        self.deliver_to_parked(t, msg, now);
                    } else {
                        self.l1s[t].handle_msg(msg, now, &mut self.store, &mut self.net);
                    }
                }
                SysMsg::Lock(MpLockMsg::Grant { lock }) => {
                    self.mp_fabric.deliver_grant(CoreId(t as u16), lock);
                }
                SysMsg::Lock(msg) => {
                    let lock = match msg {
                        MpLockMsg::Req { lock, .. } | MpLockMsg::Rel { lock, .. } => lock,
                        MpLockMsg::Grant { .. } => unreachable!("handled above"),
                    };
                    self.mp_managers[t].handle(msg, now, self.mp_latency[lock as usize]);
                    self.mp_work.insert(t);
                }
            }
        }
    }

    /// Hand `msg` to L1 `t`, which is parked with its core. It first
    /// replays the polls its core submitted through this cycle and the
    /// accesses it completed before it (the dense loop ticks cores, then
    /// delivers, then ticks L1s), then handles the message, then wakes
    /// the core.
    #[cold]
    fn deliver_to_parked(&mut self, t: usize, msg: CoherenceMsg, now: Cycle) {
        let l1 = &mut self.l1s[t];
        l1.unpark(now + 1, now);
        l1.handle_msg(msg, now, &mut self.store, &mut self.net);
        if l1.has_events() {
            self.l1_work.insert(t);
        }
        if let Some(w) = &self.core_wakes {
            w.insert(t);
        }
    }

    /// Serialize the full memory hierarchy's dynamic state. `drain_buf` and
    /// `mp_out_buf` are scratch buffers that are empty between ticks (and a
    /// checkpoint always lands on a cycle boundary), so they are not saved.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.mark("mem");
        w.usize(self.l1s.len());
        for l1 in &self.l1s {
            l1.save_state(w);
        }
        w.usize(self.dirs.len());
        for dir in &self.dirs {
            dir.save_state(w);
        }
        self.store.save_state(w);
        self.net.save_state(w, &mut |w, msg| msg.save_state(w));
        w.usize(self.mp_managers.len());
        for m in &self.mp_managers {
            m.save_state(w);
        }
        self.mp_fabric.save_state(w);
    }

    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect("mem")?;
        if r.usize()? != self.l1s.len() {
            return Err(SnapError::Corrupt { what: "l1 count" });
        }
        for l1 in &mut self.l1s {
            l1.load_state(r)?;
        }
        if r.usize()? != self.dirs.len() {
            return Err(SnapError::Corrupt { what: "directory count" });
        }
        for dir in &mut self.dirs {
            dir.load_state(r)?;
        }
        self.store.load_state(r)?;
        self.net.load_state(r, &mut SysMsg::load_state)?;
        if r.usize()? != self.mp_managers.len() {
            return Err(SnapError::Corrupt { what: "mp manager count" });
        }
        for m in &mut self.mp_managers {
            m.load_state(r)?;
        }
        self.mp_fabric.load_state(r)?;
        self.rebuild_work_sets();
        Ok(())
    }

    /// Recompute the derived controller work sets from their event queues.
    fn rebuild_work_sets(&mut self) {
        self.l1_work.clear();
        self.dir_work.clear();
        self.mp_work.clear();
        for (c, l1) in self.l1s.iter().enumerate() {
            if l1.has_events() {
                self.l1_work.insert(c);
            }
        }
        for (t, dir) in self.dirs.iter().enumerate() {
            if dir.has_events() {
                self.dir_work.insert(t);
            }
        }
        for (t, m) in self.mp_managers.iter().enumerate() {
            if !m.is_quiescent() {
                self.mp_work.insert(t);
            }
        }
    }

    /// True when no packet, transaction or pending L1 request exists (used
    /// to detect simulation quiescence and by invariant checks).
    pub fn is_quiescent(&self) -> bool {
        self.net.is_idle()
            && self.dirs.iter().all(Directory::is_quiescent)
            && self.l1s.iter().all(|l1| !l1.busy())
            && self.mp_managers.iter().all(MpManager::is_quiescent)
    }

    /// The earliest cycle ≥ `now` at which ticking the memory system
    /// changes its state, or `None` if nothing is in flight or scheduled.
    ///
    /// The horizon is exact: the fabric's ([`MeshNoc::next_event`]: ready
    /// heads meeting a free link, deliveries, router kills), folded with
    /// each controller's earliest scheduled event and any MP-Lock message
    /// waiting to be sent. `tick` acts on nothing else, so every cycle
    /// before the horizon leaves the whole hierarchy untouched. Only the
    /// active sets are visited. Parked L1s are left out: their polls are
    /// replayed in O(1) when a delivery or the runner unparks them, so
    /// their access events need no cycle of their own.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.mp_fabric.has_outgoing() {
            return Some(now);
        }
        let mut next = self.net.next_event(now).unwrap_or(Cycle::MAX);
        if next == now {
            return Some(now);
        }
        for c in self.l1_work.iter() {
            let due = self.l1s[c].next_due();
            next = next.min(due.expect("an L1 in the work set has an event"));
        }
        for t in self.dir_work.iter() {
            let due = self.dirs[t].next_due();
            next = next.min(due.expect("a directory in the work set has an event"));
        }
        for t in self.mp_work.iter() {
            next = next.min(self.mp_managers[t].next_due(now).unwrap_or(Cycle::MAX));
        }
        (next != Cycle::MAX).then_some(next.max(now))
    }

    /// Whether `core`'s L1 holds a completed operation its core has not
    /// taken yet: the only thing a core waiting on memory acts on.
    pub fn has_result(&self, core: CoreId) -> bool {
        self.l1s[core.index()].has_result()
    }

    /// Network traffic statistics (Figure 9's raw material).
    pub fn traffic(&self) -> &TrafficStats {
        self.net.stats()
    }

    /// Wire the NoC and every directory into a fault plan's schedule.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.noc.is_active() {
            self.net.set_faults(plan.injector(FaultSite::Noc, 0));
        }
        if plan.dir.is_active() {
            for (t, dir) in self.dirs.iter_mut().enumerate() {
                dir.set_faults(plan.injector(FaultSite::Dir, t as u64));
            }
        }
    }

    /// Soft-fault totals from the NoC's injector, if one is attached.
    pub fn noc_fault_stats(&self) -> Option<glocks_sim_base::fault::FaultStats> {
        self.net.fault_stats()
    }

    /// Aggregate soft-fault totals over every directory injector, or
    /// `None` when no directory carries one.
    pub fn dir_fault_stats(&self) -> Option<glocks_sim_base::fault::FaultStats> {
        let mut any = false;
        let mut total = glocks_sim_base::fault::FaultStats::default();
        for dir in &self.dirs {
            if let Some(s) = dir.fault_stats() {
                any = true;
                total.decided += s.decided;
                total.dropped += s.dropped;
                total.delayed += s.delayed;
                total.duplicated += s.duplicated;
            }
        }
        any.then_some(total)
    }

    /// Schedule a permanent NoC router fault (see
    /// [`MeshNoc::schedule_router_kill`]): from cycle `at` every packet
    /// through `tile`'s router is lost. The coherence protocol has no
    /// retransmission layer, so transactions through the dead router wedge
    /// and the runner's watchdog escalates with this diagnosis.
    pub fn schedule_router_kill(&mut self, tile: TileId, at: Cycle) {
        self.net.schedule_router_kill(tile, at);
    }

    /// Cycle at which `tile`'s router died, if a scheduled kill has fired.
    pub fn router_dead_at(&self, tile: TileId) -> Option<Cycle> {
        self.net.router_dead_at(tile)
    }

    /// Snapshot of in-flight state for wedge diagnostics.
    pub fn diag(&self) -> MemDiag {
        MemDiag {
            noc_in_flight: self.net.in_flight(),
            noc_queued: self.net.queued_packets(),
            noc_dropped: self.net.packets_dropped(),
            busy_l1s: self.l1s.iter().filter(|l1| l1.busy()).count(),
            dir_busy_lines: self.dirs.iter().map(Directory::busy_lines).sum(),
            dir_queued_requests: self.dirs.iter().map(Directory::queued_requests).sum(),
        }
    }

    /// Pre-install a line's home L2 entry (initialization-phase data).
    pub fn prewarm(&mut self, line: LineAddr) {
        let home = (line.0 % self.dirs.len() as u64) as usize;
        self.dirs[home].prewarm(line);
    }

    /// Direct access to the functional store (workload setup/verification).
    pub fn store(&self) -> &WordStore {
        &self.store
    }

    pub fn store_mut(&mut self) -> &mut WordStore {
        &mut self.store
    }

    /// Chip-wide sums of the L1 and directory event counters (energy
    /// input and the `mem.total.*` stats).
    pub fn counter_totals(&self) -> (L1Counters, DirCounters) {
        let mut l1 = L1Counters::default();
        for c in &self.l1s {
            l1.merge(c.counters());
        }
        let mut dir = DirCounters::default();
        for d in &self.dirs {
            dir.merge(d.counters());
        }
        (l1, dir)
    }

    /// Publish end-of-run memory-hierarchy totals into the stats registry:
    /// per-tile L1 and directory event counters plus chip-wide aggregates
    /// (no-op when stats are off). Counters that never fired are left out.
    pub fn publish_stats(&self) {
        if !glocks_stats::is_enabled() {
            return;
        }
        fn publish(prefix: &str, named: impl Iterator<Item = (&'static str, u64)>) {
            for (k, v) in named.filter(|&(_, v)| v != 0) {
                glocks_stats::set(glocks_stats::counter(&format!("{prefix}.{k}")), v);
            }
        }
        for (t, l1) in self.l1s.iter().enumerate() {
            publish(&format!("mem.l1.t{t}"), l1.counters().named());
        }
        for (t, dir) in self.dirs.iter().enumerate() {
            publish(&format!("mem.dir.t{t}"), dir.counters().named());
        }
        let (l1, dir) = self.counter_totals();
        publish("mem.total", l1.named().chain(dir.named()));
        self.net.publish_stats();
    }

    /// Check the MESI system invariants; panics with a description if one
    /// is violated. Intended for tests (called every N cycles). The
    /// non-panicking flavor is [`Self::find_invariant_violation`], used by
    /// the runtime protocol checker to produce a structured `SimError`.
    pub fn check_invariants(&self) {
        if let Some(v) = self.find_invariant_violation() {
            panic!("{v}");
        }
    }

    /// Scan the MESI system invariants; returns a description of the first
    /// violation found, or `None` when the hierarchy is coherent.
    ///
    /// * At most one L1 holds a line in M or E, and then no other L1 holds
    ///   it at all — true at *every* cycle.
    /// * If any L1 holds a line in S, no L1 holds it in M/E — ditto.
    /// * The directory's stable state is consistent with (a superset of)
    ///   the true cache states — checked only when no grant can still be
    ///   in flight (network idle and the involved L1 not mid-transaction),
    ///   since e.g. a sent `GrantM` updates the directory to Owned while
    ///   the requester still holds S until the grant is delivered.
    pub fn find_invariant_violation(&self) -> Option<String> {
        use std::collections::HashMap;
        let net_idle = self.net.is_idle();
        let mut holders: HashMap<LineAddr, (Vec<CoreId>, Vec<CoreId>)> = HashMap::new();
        for (i, l1) in self.l1s.iter().enumerate() {
            let core = CoreId(i as u16);
            for line in self.lines_of(l1) {
                let entry = holders.entry(line).or_default();
                match l1.state_of(line).expect("enumerated line") {
                    L1State::Modified | L1State::Exclusive => entry.0.push(core),
                    L1State::Shared => entry.1.push(core),
                }
            }
        }
        for (line, (excl, shared)) in &holders {
            if excl.len() > 1 {
                return Some(format!("line {line:?} exclusively held by {excl:?}"));
            }
            if !excl.is_empty() && !shared.is_empty() {
                return Some(format!(
                    "line {line:?} both exclusive ({excl:?}) and shared ({shared:?})"
                ));
            }
            if let Some(&owner) = excl.first() {
                let home = &self.dirs[(line.0 % self.dirs.len() as u64) as usize];
                match home.state_of(*line) {
                    DirState::Owned(o) => {
                        if o != owner {
                            return Some(format!(
                                "directory owner mismatch for {line:?}: L1 {owner:?} owns it but the directory says {o:?}"
                            ));
                        }
                    }
                    // A transaction or in-flight message may be moving
                    // ownership.
                    _ if !home.is_quiescent()
                        || !net_idle
                        || self.l1s[owner.index()].busy() => {}
                    st => {
                        return Some(format!(
                            "L1 {owner:?} owns {line:?} but directory says {st:?}"
                        ))
                    }
                }
            }
            for &s in shared {
                let home = &self.dirs[(line.0 % self.dirs.len() as u64) as usize];
                match home.state_of(*line) {
                    DirState::Shared(mask) => {
                        if mask & (1u128 << s.index()) == 0 {
                            return Some(format!(
                                "L1 {s:?} holds {line:?} in S but is not in the sharer mask"
                            ));
                        }
                    }
                    _ if !home.is_quiescent()
                        || !net_idle
                        || self.l1s[s.index()].busy() => {}
                    st => {
                        return Some(format!(
                            "L1 {s:?} shares {line:?} but directory says {st:?}"
                        ))
                    }
                }
            }
        }
        None
    }

    fn lines_of(&self, l1: &L1Cache) -> Vec<LineAddr> {
        l1.resident_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::RmwKind;

    fn system() -> MemorySystem {
        MemorySystem::new(&CmpConfig::paper_baseline())
    }

    /// Drive the system until `core`'s op completes; returns (result, cycles).
    fn run_op(sys: &mut MemorySystem, core: CoreId, op: MemOp, start: Cycle) -> (MemResult, Cycle) {
        sys.submit(core, op, start);
        for now in start..start + 100_000 {
            sys.tick(now);
            if let Some(r) = sys.take_result(core) {
                return (r, now - start);
            }
        }
        panic!("op never completed: {op:?}");
    }

    #[test]
    fn load_miss_then_hit() {
        let mut sys = system();
        let a = Addr(0x1000);
        let (r1, lat1) = run_op(&mut sys, CoreId(0), MemOp::Load(a), 0);
        assert_eq!(r1.value, 0);
        assert!(!r1.l1_hit);
        assert!(lat1 > 400, "cold miss must reach memory (took {lat1})");
        let (r2, lat2) = run_op(&mut sys, CoreId(0), MemOp::Load(a), 10_000);
        assert!(r2.l1_hit);
        assert_eq!(lat2, 2, "L1 hit is 2 cycles");
    }

    #[test]
    fn store_then_remote_load_sees_value() {
        let mut sys = system();
        let a = Addr(0x2000);
        run_op(&mut sys, CoreId(0), MemOp::Store(a, 77), 0);
        let (r, _) = run_op(&mut sys, CoreId(5), MemOp::Load(a), 10_000);
        assert_eq!(r.value, 77, "remote core must see the committed store");
        sys.check_invariants();
    }

    #[test]
    fn second_sharer_is_faster_than_memory() {
        let mut sys = system();
        let a = Addr(0x3000);
        run_op(&mut sys, CoreId(0), MemOp::Load(a), 0);
        // L2 now holds the line; another core's miss stays on chip.
        let (_, lat) = run_op(&mut sys, CoreId(1), MemOp::Load(a), 10_000);
        assert!(lat < 400, "L2 hit must beat memory (took {lat})");
    }

    #[test]
    fn exclusive_grant_enables_silent_upgrade() {
        let mut sys = system();
        let a = Addr(0x4000);
        // Sole reader gets E...
        run_op(&mut sys, CoreId(3), MemOp::Load(a), 0);
        // ...so the following store hits locally (silent E→M).
        let (r, lat) = run_op(&mut sys, CoreId(3), MemOp::Store(a, 5), 10_000);
        assert!(r.l1_hit);
        assert_eq!(lat, 2);
        sys.check_invariants();
    }

    #[test]
    fn rmw_is_atomic_under_contention() {
        let mut sys = system();
        let a = Addr(0x5000);
        // All cores increment the same word once, interleaved.
        let n = 32;
        for c in 0..n {
            sys.submit(CoreId(c as u16), MemOp::Rmw(a, RmwKind::FetchAdd(1)), 0);
        }
        let mut done = 0;
        let mut olds = Vec::new();
        for now in 0..2_000_000 {
            sys.tick(now);
            for c in 0..n {
                if let Some(r) = sys.take_result(CoreId(c as u16)) {
                    olds.push(r.value);
                    done += 1;
                }
            }
            if done == n {
                break;
            }
        }
        assert_eq!(done, n, "all increments must complete");
        olds.sort_unstable();
        // Atomicity ⟹ the observed old values are exactly 0..n-1.
        assert_eq!(olds, (0..n as u64).collect::<Vec<_>>());
        assert_eq!(sys.store().load(a), n as u64);
        sys.check_invariants();
    }

    /// After every tick each work set holds exactly the controllers with
    /// a scheduled event, and a restored system rebuilds the same sets.
    #[test]
    fn work_sets_hold_exactly_the_controllers_with_events() {
        fn assert_exact(sys: &MemorySystem) {
            let l1: Vec<usize> = (0..sys.l1s.len()).filter(|&c| sys.l1s[c].has_events()).collect();
            let dir: Vec<usize> =
                (0..sys.dirs.len()).filter(|&t| sys.dirs[t].has_events()).collect();
            assert_eq!(sys.l1_work.iter().collect::<Vec<_>>(), l1);
            assert_eq!(sys.dir_work.iter().collect::<Vec<_>>(), dir);
            assert!(sys.mp_work.is_empty(), "no MP lock is used");
        }
        let mut sys = system();
        let a = Addr(0xA000);
        let mut busy_cycles = 0;
        let mut restored_once = false;
        for now in 0..20_000 {
            for c in 0..32u16 {
                let core = CoreId(c);
                sys.take_result(core);
                if (now + c as u64).is_multiple_of(97) && sys.can_submit(core) {
                    sys.submit(core, MemOp::Rmw(a, RmwKind::FetchAdd(1)), now);
                }
            }
            sys.tick(now);
            assert_exact(&sys);
            busy_cycles += usize::from(!sys.dir_work.is_empty());
            if now > 10_000 && !restored_once && !sys.l1_work.is_empty() && !sys.dir_work.is_empty()
            {
                restored_once = true;
                let mut w = SnapWriter::new();
                sys.save_state(&mut w);
                let bytes = w.into_bytes();
                let mut restored = system();
                restored.load_state(&mut SnapReader::new(&bytes)).expect("loads");
                assert_eq!(restored.l1_work, sys.l1_work);
                assert_eq!(restored.dir_work, sys.dir_work);
            }
        }
        assert!(busy_cycles > 1_000, "directories must actually have work");
        assert!(restored_once, "a snapshot must catch both sets non-empty");
    }

    /// What [`spin_run`] observed.
    struct SpinRun {
        /// The poller's L1 bytes after every cycle it was not parked.
        l1_bytes: Vec<(Cycle, Vec<u8>)>,
        /// Every result the poller took, with the cycle it took it.
        results: Vec<(Cycle, MemResult)>,
        /// The whole system's bytes once quiescent.
        end: Vec<u8>,
        parked_cycles: u64,
    }

    fn l1_bytes(sys: &MemorySystem, core: CoreId) -> Vec<u8> {
        let mut w = SnapWriter::new();
        sys.l1s[core.index()].save_state(&mut w);
        w.into_bytes()
    }

    /// Core 1 spins on L1-hit loads of a word holding 7 (shared with core
    /// 2) until core 2's store of 9 at `write_at` ends the spin, driven as
    /// the runner drives cores: take a result, re-issue the poll the same
    /// cycle, then tick. With `park`, each poll offers to park; the park
    /// ends at the boundary `flush_at` or when the write's invalidation
    /// reaches the parked L1.
    fn spin_run(l1_latency: u64, park: bool, write_at: Cycle, flush_at: Option<Cycle>) -> SpinRun {
        const POLLER: CoreId = CoreId(1);
        const WRITER: CoreId = CoreId(2);
        let mut cfg = CmpConfig::paper_baseline().with_cores(4);
        cfg.l1.latency = l1_latency;
        cfg.l1.extra_data_latency = 0;
        let mut sys = MemorySystem::new(&cfg);
        let wakes = Rc::new(WakeSet::new(4));
        if park {
            sys.attach_core_wakes(&wakes);
        }
        let a = Addr(0xB000);
        run_op(&mut sys, WRITER, MemOp::Store(a, 7), 0);
        run_op(&mut sys, POLLER, MemOp::Load(a), 10_000);
        assert_eq!(sys.l1s[POLLER.index()].state_of(a.line(64)), Some(L1State::Shared));
        let start = 20_000;
        let mut run = SpinRun { l1_bytes: Vec::new(), results: Vec::new(), end: Vec::new(), parked_cycles: 0 };
        let mut polling = true;
        let mut parked = false;
        for now in start..start + 5_000 {
            if polling && !parked {
                let last = if now == start {
                    Some(7)
                } else {
                    let r = sys.take_result(POLLER);
                    run.results.extend(r.map(|r| (now, r)));
                    r.map(|r| r.value)
                };
                match last {
                    Some(7) => {
                        sys.submit(POLLER, MemOp::Load(a), now);
                        parked = park && sys.park_poll(POLLER, a, 7, now).is_some();
                    }
                    Some(_) => polling = false,
                    None => {}
                }
            }
            if now == write_at {
                sys.submit(WRITER, MemOp::Store(a, 9), now);
            }
            sys.take_result(WRITER);
            sys.tick(now);
            if parked {
                run.parked_cycles += 1;
                parked = wakes.take_word(0) & (1 << POLLER.0) == 0;
            }
            if flush_at == Some(now + 1) {
                sys.unpark_polls(now + 1);
                parked = false;
            }
            if !parked {
                run.l1_bytes.push((now, l1_bytes(&sys, POLLER)));
            }
            if !polling && sys.is_quiescent() {
                let mut w = SnapWriter::new();
                sys.save_state(&mut w);
                run.end = w.into_bytes();
                return run;
            }
        }
        panic!("the spin never ended");
    }

    /// A parked L1 poll spin replays to exactly the state of a reference
    /// that submits and ticks every cycle: per-cycle L1 bytes, the results
    /// the poller takes and the final system bytes agree, for L1
    /// latencies 1, 2 and 4, settled by a delivered invalidation or a
    /// cycle-boundary flush at every offset across three poll periods.
    #[test]
    fn parked_polls_replay_to_the_dense_state() {
        for l1_latency in [1, 2, 4] {
            let period = l1_latency + 1;
            for offset in 0..3 * period + 1 {
                let start = 20_000;
                for (write_at, flush_at) in
                    [(start + offset, None), (start + 200, Some(start + 1 + offset))]
                {
                    let dense = spin_run(l1_latency, false, write_at, flush_at);
                    let parked = spin_run(l1_latency, true, write_at, flush_at);
                    let case = format!("latency {l1_latency}, write at {write_at}, flush at {flush_at:?}");
                    assert!(parked.parked_cycles > 0, "{case}: never parked");
                    assert_eq!(dense.parked_cycles, 0, "{case}");
                    let reference: std::collections::BTreeMap<_, _> =
                        dense.l1_bytes.into_iter().collect();
                    for (now, bytes) in &parked.l1_bytes {
                        assert!(reference[now] == *bytes, "{case}: L1 differs after cycle {now}");
                    }
                    // A parked poller takes no results; every one it takes
                    // awake, the spin-ending one included, matches.
                    let taken: std::collections::BTreeMap<_, _> =
                        dense.results.iter().copied().collect();
                    for (now, r) in &parked.results {
                        assert_eq!(taken.get(now), Some(r), "{case}: result taken at {now} differs");
                    }
                    assert_eq!(parked.results.last(), dense.results.last(), "{case}");
                    assert!(parked.end == dense.end, "{case}: final system state differs");
                    if let Some(f) = flush_at {
                        assert!(
                            parked.l1_bytes.iter().any(|&(now, _)| now + 1 == f),
                            "{case}: flush point not compared"
                        );
                    }
                }
            }
        }
    }

    fn sys_bytes(sys: &MemorySystem) -> Vec<u8> {
        let mut w = SnapWriter::new();
        sys.save_state(&mut w);
        w.into_bytes()
    }

    /// `next_event` is the exact horizon of a tick: under seeded random
    /// loads, stores and RMWs from every core of a 4×4 machine, over lines
    /// that share, migrate and conflict in the L1 sets, each tick before
    /// the horizon leaves the system's bytes unchanged and the tick at it
    /// changes them.
    #[test]
    fn next_event_is_the_exact_horizon() {
        const SUBMITS_UNTIL: Cycle = 4_000;
        let mut sys = MemorySystem::new(&CmpConfig::paper_baseline().with_cores(16));
        let mut rng = glocks_sim_base::SplitMix64::new(0x4E58_7E7E);
        let (mut inert, mut acted) = (0, 0);
        let mut now = 0;
        while now < SUBMITS_UNTIL || !sys.is_quiescent() {
            for c in 0..16u16 {
                let core = CoreId(c);
                sys.take_result(core);
                if now < SUBMITS_UNTIL && sys.can_submit(core) && rng.next_below(40) == 0 {
                    // Five lines per L1 set (stride 8 KiB) over four sets.
                    let a = Addr(rng.next_below(5) * 8192 + rng.next_below(4) * 64);
                    let op = match rng.next_below(3) {
                        0 => MemOp::Load(a),
                        1 => MemOp::Store(a, now),
                        _ => MemOp::Rmw(a, RmwKind::FetchAdd(1)),
                    };
                    sys.submit(core, op, now);
                }
            }
            let horizon = sys.next_event(now);
            let before = sys_bytes(&sys);
            sys.tick(now);
            let changed = sys_bytes(&sys) != before;
            match horizon {
                Some(h) if h == now => {
                    assert!(changed, "cycle {now}: the horizon cycle did nothing");
                    acted += 1;
                }
                Some(h) => {
                    assert!(h > now, "cycle {now}: horizon {h} lies in the past");
                    assert!(!changed, "cycle {now}: acted before the horizon {h}");
                    inert += 1;
                }
                None => {
                    assert!(!changed, "cycle {now}: acted with no horizon");
                    inert += 1;
                }
            }
            now += 1;
        }
        assert_eq!(sys.next_event(now), None, "a quiescent system has no horizon");
        let (l1, dir) = sys.counter_totals();
        assert!(l1.miss > 100 && dir.inv_sent > 10, "coherence traffic must flow");
        assert!(acted > 1_000 && inert > 500, "acted {acted}, inert {inert}");
    }

    /// A parked L1's queued access stays out of the horizon, so a loop
    /// that jumps from horizon to horizon skips the parked polls; the
    /// writer's invalidation still reaches the parked L1 and wakes its
    /// core.
    #[test]
    fn parked_l1s_stay_out_of_the_horizon() {
        const POLLER: CoreId = CoreId(1);
        const WRITER: CoreId = CoreId(2);
        let cfg = CmpConfig::paper_baseline().with_cores(16);
        let mut sys = MemorySystem::new(&cfg);
        let wakes = Rc::new(WakeSet::new(16));
        sys.attach_core_wakes(&wakes);
        let a = Addr(0xB000);
        run_op(&mut sys, WRITER, MemOp::Store(a, 7), 0);
        run_op(&mut sys, POLLER, MemOp::Load(a), 10_000);
        for t in 15_000..20_000 {
            sys.tick(t);
        }
        let mut now = 20_000;
        assert_eq!(sys.next_event(now), None);
        sys.submit(POLLER, MemOp::Load(a), now);
        assert_eq!(sys.next_event(now), Some(now + cfg.l1.total_latency()));
        assert!(sys.park_poll(POLLER, a, 7, now).is_some());
        assert_eq!(sys.next_event(now), None, "the parked access is not an event");
        assert!(sys.l1s[POLLER.index()].has_events(), "yet it stays queued");
        sys.tick(now);
        now += 1_000;
        sys.submit(WRITER, MemOp::Store(a, 9), now);
        let mut ticks = 0;
        while wakes.take_word(0) & (1 << POLLER.0) == 0 {
            now = sys.next_event(now).expect("the store is in flight");
            sys.tick(now);
            now += 1;
            ticks += 1;
        }
        assert!(!sys.l1s[POLLER.index()].is_parked(), "delivery unparks the L1");
        assert!(ticks < 20, "{ticks} ticks: the horizon jumps between hops");
    }

    #[test]
    fn invalidation_updates_sharers() {
        let mut sys = system();
        let a = Addr(0x6000);
        // Three readers...
        for c in [0u16, 1, 2] {
            run_op(&mut sys, CoreId(c), MemOp::Load(a), 0);
        }
        // ...then core 3 writes: all readers must be invalidated.
        run_op(&mut sys, CoreId(3), MemOp::Store(a, 1), 50_000);
        let line = a.line(64);
        for c in [0u16, 1, 2] {
            assert_eq!(sys.l1s[c as usize].state_of(line), None);
        }
        assert_eq!(sys.l1s[3].state_of(line), Some(L1State::Modified));
        sys.check_invariants();
    }

    #[test]
    fn upgrade_from_shared_uses_grant() {
        let mut sys = system();
        let a = Addr(0x7000);
        run_op(&mut sys, CoreId(0), MemOp::Load(a), 0);
        run_op(&mut sys, CoreId(1), MemOp::Load(a), 20_000);
        // Core 0 now shares; its store is an upgrade (no data transfer).
        let before = sys.traffic().bytes(glocks_noc::TrafficClass::Reply);
        run_op(&mut sys, CoreId(0), MemOp::Store(a, 9), 40_000);
        let after = sys.traffic().bytes(glocks_noc::TrafficClass::Reply);
        // Home of 0x7000/64 = line 448 % 32 = tile 0 == the requester, so
        // the GrantM reply crosses zero links; any growth must stay far
        // below a data packet crossing the mesh.
        assert!(
            after - before < 72,
            "upgrade moved a full data packet ({} bytes)",
            after - before
        );
        sys.check_invariants();
    }

    #[test]
    fn dirty_line_migrates_between_cores() {
        let mut sys = system();
        let a = Addr(0x8000);
        run_op(&mut sys, CoreId(0), MemOp::Store(a, 1), 0);
        let (r, _) = run_op(&mut sys, CoreId(7), MemOp::Rmw(a, RmwKind::TestAndSet), 20_000);
        assert_eq!(r.value, 1, "migrated dirty value visible");
        let line = a.line(64);
        assert_eq!(sys.l1s[0].state_of(line), None, "old owner invalidated");
        assert_eq!(sys.l1s[7].state_of(line), Some(L1State::Modified));
        sys.check_invariants();
    }

    #[test]
    fn quiescence_after_activity() {
        let mut sys = system();
        for c in 0..8u16 {
            run_op(&mut sys, CoreId(c), MemOp::Store(Addr(0x9000 + c as u64 * 8), c as u64), 0);
        }
        // settle any writeback handshakes
        for now in 500_000..600_000 {
            sys.tick(now);
        }
        assert!(sys.is_quiescent());
    }

    #[test]
    fn capacity_eviction_writes_back() {
        let mut sys = system();
        // Fill one L1 set (4 ways) plus one more line mapping to the same
        // set (128 sets ⇒ stride 128 lines = 8192 bytes), all dirty.
        let stride = 128 * 64;
        for i in 0..5u64 {
            run_op(&mut sys, CoreId(0), MemOp::Store(Addr(i * stride), i + 1), i * 50_000);
        }
        // Everything still readable with correct values.
        for i in 0..5u64 {
            let (r, _) = run_op(
                &mut sys,
                CoreId(0),
                MemOp::Load(Addr(i * stride)),
                1_000_000 + i * 50_000,
            );
            assert_eq!(r.value, i + 1);
        }
        sys.check_invariants();
    }
}
