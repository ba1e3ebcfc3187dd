//! The per-core L1 data-cache controller.
//!
//! Blocking (one outstanding miss, matching the in-order core), write
//! allocate, with a MESI state per resident line. Dirty/exclusive evictions
//! use a writeback handshake (`PutM`/`PutE` → `PutAck`) through a writeback
//! buffer, so a forwarded probe that races an eviction always finds the
//! line either in the array or in the buffer — the protocol has no Nacks.

use crate::cache_array::CacheArray;
use crate::counters::L1Counters;
use crate::events::EventQueue;
use crate::msg::{CoherenceMsg, MemOp, MemResult, SysMsg};
use crate::store::WordStore;
use glocks_noc::{MeshNoc, Packet};
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::trace::TraceMask;
use glocks_sim_base::{trace_event, Addr, CmpConfig, CoreId, Cycle, LineAddr, TileId};

/// MESI state of a resident L1 line (absent = Invalid).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L1State {
    Shared,
    Exclusive,
    Modified,
}

impl L1State {
    fn save_state(self, w: &mut SnapWriter) {
        w.u8(match self {
            L1State::Shared => 0,
            L1State::Exclusive => 1,
            L1State::Modified => 2,
        });
    }

    fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => L1State::Shared,
            1 => L1State::Exclusive,
            2 => L1State::Modified,
            tag => return Err(SnapError::BadTag { what: "l1 mesi state", tag: u64::from(tag) }),
        })
    }
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    op: MemOp,
    line: LineAddr,
    /// We held the line in S and asked for an upgrade.
    is_upgrade: bool,
    /// The line is still in the writeback buffer; the request is deferred
    /// until its `PutAck` arrives.
    stalled_on_wb: bool,
}

enum L1Event {
    /// Tag/data access completes; decide hit or miss.
    Access(MemOp),
}

/// One L1 data cache + controller.
pub struct L1Cache {
    core: CoreId,
    array: CacheArray<L1State>,
    pending: Option<Pending>,
    /// Lines evicted from the array, awaiting `PutAck`.
    wb: Vec<LineAddr>,
    events: EventQueue<L1Event>,
    done: Option<MemResult>,
    counters: L1Counters,
    /// Submit cycle of the in-flight op, for the miss-latency histogram.
    submitted_at: Option<Cycle>,
    /// `mem.l1.t{N}.miss_latency` (free `NONE` id when stats are off).
    miss_hist: glocks_stats::HistId,
    /// Parked in an L1-hit poll spin (see [`L1Cache::park`]) whose first
    /// poll was submitted at this cycle and reads this value. Derived
    /// host state, never serialized.
    spin: Option<(Cycle, u64)>,
    l1_latency: u64,
    line_bytes: u64,
    num_tiles: usize,
    ctrl_bytes: u32,
    data_bytes: u32,
}

impl L1Cache {
    pub fn new(core: CoreId, cfg: &CmpConfig) -> Self {
        L1Cache {
            core,
            array: CacheArray::new(cfg.l1.sets(cfg.line_bytes), cfg.l1.ways as usize),
            pending: None,
            wb: Vec::new(),
            events: EventQueue::new(),
            done: None,
            counters: L1Counters::default(),
            submitted_at: None,
            miss_hist: glocks_stats::hist(&format!("mem.l1.t{}.miss_latency", core.0)),
            spin: None,
            l1_latency: cfg.l1.total_latency(),
            line_bytes: cfg.line_bytes,
            num_tiles: cfg.num_cores,
            ctrl_bytes: cfg.noc.ctrl_msg_bytes,
            data_bytes: cfg.noc.data_msg_bytes,
        }
    }

    /// The home tile of a line (line-interleaved across tiles).
    #[inline]
    fn home(&self, line: LineAddr) -> TileId {
        TileId((line.0 % self.num_tiles as u64) as u16)
    }

    /// True while an operation is in flight or its result not yet taken.
    pub fn busy(&self) -> bool {
        self.pending.is_some() || self.done.is_some() || !self.events.is_empty()
    }

    /// True while a tag access is scheduled: `tick` has work to do now or
    /// later.
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// The cycle of the earliest scheduled tag access, the only thing
    /// `tick` acts on.
    pub fn next_due(&self) -> Option<Cycle> {
        self.events.next_due()
    }

    /// Whether a completed operation waits for its core to take it.
    pub fn has_result(&self) -> bool {
        self.done.is_some()
    }

    pub fn counters(&self) -> &L1Counters {
        &self.counters
    }

    /// Begin a memory operation. Panics if one is already outstanding
    /// (cores are in-order and blocking).
    pub fn submit(&mut self, op: MemOp, now: Cycle) {
        assert!(!self.busy(), "core {} submitted while L1 busy", self.core);
        self.counters.access += 1;
        self.submitted_at = Some(now);
        self.events.schedule(now + self.l1_latency, L1Event::Access(op));
    }

    /// The cycles between two polls of a core spinning on L1 hits: the
    /// access takes the L1 latency, and the core takes the result and
    /// re-issues the poll on the next cycle.
    pub fn poll_period(&self) -> u64 {
        self.l1_latency + 1
    }

    /// Park this L1 with its core after the core submitted, at `now`, a
    /// load that polls `a` for `value`, the word's current value.
    /// Accepted only if the line is resident and not being written back,
    /// no miss is pending, no result is waiting, and the access just
    /// scheduled is the only event. Then every poll hits and returns
    /// `value` until a coherence message reaches this L1: any write to
    /// the line must first invalidate or forward this copy. The access
    /// event stays queued, so [`L1Cache::busy`] reads as in the dense
    /// loop; [`L1Cache::unpark`] replays the polls.
    pub fn park(&mut self, a: Addr, now: Cycle, value: u64) -> bool {
        debug_assert!(self.spin.is_none(), "core {}: parked twice", self.core);
        let line = a.line(self.line_bytes);
        let ok = self.events.len() == 1
            && self.submitted_at == Some(now)
            && self.pending.is_none()
            && self.done.is_none()
            && self.array.peek(line).is_some()
            && !self.wb.contains(&line);
        if ok {
            self.spin = Some((now, value));
        }
        ok
    }

    /// Whether this L1 is parked with its core.
    #[inline]
    pub fn is_parked(&self) -> bool {
        self.spin.is_some()
    }

    /// End a park: replay, in O(1), the polls the core submitted before
    /// cycle `core_until` (one every [`L1Cache::poll_period`] cycles from
    /// the parked one) and the accesses this L1 would have completed
    /// before cycle `l1_until`. A message delivered mid-cycle settles with
    /// `l1_until = core_until - 1` (cores tick before the memory system),
    /// a cycle boundary with both equal. Returns whether it was parked.
    #[inline]
    pub fn unpark(&mut self, core_until: Cycle, l1_until: Cycle) -> bool {
        match self.spin.take() {
            Some((from, value)) => {
                self.replay(from, value, core_until, l1_until);
                true
            }
            None => false,
        }
    }

    /// The O(1) replay of [`L1Cache::unpark`] for a park whose first poll
    /// was submitted at `from` and reads `value`.
    #[cold]
    fn replay(&mut self, from: Cycle, value: u64, core_until: Cycle, l1_until: Cycle) {
        let p = self.poll_period();
        let resubmits = (core_until - 1 - from) / p;
        let last = from + resubmits * p;
        let last_done = last + self.l1_latency < l1_until;
        let hits = resubmits + u64::from(last_done);
        if hits == 0 {
            return;
        }
        self.counters.access += resubmits;
        self.counters.hit += hits;
        let (_, ev) = self.events.pop_due(Cycle::MAX).expect("parked access");
        let L1Event::Access(op) = ev;
        self.array.touch_n(op.addr().line(self.line_bytes), hits);
        if last_done {
            self.events.skip_seqs(resubmits);
            self.submitted_at = None;
            let finished_at = last + self.l1_latency;
            self.done = Some(MemResult { op, value, finished_at, l1_hit: true });
        } else {
            self.events.skip_seqs(resubmits - 1);
            self.submitted_at = Some(last);
            self.events.schedule(last + self.l1_latency, L1Event::Access(op));
        }
    }

    /// Retrieve the completion of the last submitted operation, if ready.
    pub fn take_result(&mut self) -> Option<MemResult> {
        self.done.take()
    }

    fn send(
        &mut self,
        msg: CoherenceMsg,
        dst: TileId,
        now: Cycle,
        net: &mut MeshNoc<SysMsg>,
    ) {
        let bytes = if msg.carries_data() { self.data_bytes } else { self.ctrl_bytes };
        net.inject(
            Packet {
                src: TileId(self.core.0),
                dst,
                bytes,
                class: msg.traffic_class(),
                injected_at: now,
                payload: SysMsg::Coh(msg),
            },
            now,
        );
    }

    fn commit(&mut self, op: MemOp, now: Cycle, store: &mut WordStore, l1_hit: bool) {
        let value = match op {
            MemOp::Load(a) => store.load(a),
            MemOp::Store(a, v) => {
                store.store(a, v);
                0
            }
            MemOp::Rmw(a, kind) => {
                let (new, old) = kind.apply(store.load(a));
                store.store(a, new);
                old
            }
        };
        debug_assert!(self.done.is_none());
        if let Some(at) = self.submitted_at.take() {
            if !l1_hit {
                glocks_stats::hist_record(self.miss_hist, now.saturating_sub(at));
            }
        }
        self.done = Some(MemResult { op, value, finished_at: now, l1_hit });
    }

    fn issue_request(&mut self, now: Cycle, net: &mut MeshNoc<SysMsg>) {
        let p = self.pending.expect("pending request to issue");
        trace_event!(
            TraceMask::L1,
            now,
            "l1[{}]: miss on {:?} ({:?}), requesting",
            self.core,
            p.line,
            p.op
        );
        let msg = if p.is_upgrade {
            CoherenceMsg::UpgradeM { line: p.line, from: self.core }
        } else if p.op.needs_exclusive() {
            CoherenceMsg::GetM { line: p.line, from: self.core }
        } else {
            CoherenceMsg::GetS { line: p.line, from: self.core }
        };
        let home = self.home(p.line);
        self.send(msg, home, now, net);
    }

    /// Process due internal events (the tag-access pipeline).
    pub fn tick(&mut self, now: Cycle, store: &mut WordStore, net: &mut MeshNoc<SysMsg>) {
        while let Some((at, ev)) = self.events.pop_due(now) {
            match ev {
                L1Event::Access(op) => self.access(op, at, store, net),
            }
        }
    }

    fn access(
        &mut self,
        op: MemOp,
        now: Cycle,
        store: &mut WordStore,
        net: &mut MeshNoc<SysMsg>,
    ) {
        let line = op.addr().line(self.line_bytes);
        match self.array.lookup(line).copied() {
            Some(L1State::Modified) => {
                self.counters.hit += 1;
                self.commit(op, now, store, true);
            }
            Some(L1State::Exclusive) => {
                self.counters.hit += 1;
                if op.needs_exclusive() {
                    // Silent E→M upgrade: the hallmark of MESI.
                    *self.array.lookup(line).expect("resident") = L1State::Modified;
                }
                self.commit(op, now, store, true);
            }
            Some(L1State::Shared) => {
                if op.needs_exclusive() {
                    self.counters.upgrade += 1;
                    self.pending = Some(Pending {
                        op,
                        line,
                        is_upgrade: true,
                        stalled_on_wb: false,
                    });
                    self.issue_request(now, net);
                } else {
                    self.counters.hit += 1;
                    self.commit(op, now, store, true);
                }
            }
            None => {
                self.counters.miss += 1;
                let stalled = self.wb.contains(&line);
                self.pending = Some(Pending {
                    op,
                    line,
                    is_upgrade: false,
                    stalled_on_wb: stalled,
                });
                if !stalled {
                    self.issue_request(now, net);
                }
            }
        }
    }

    /// Install a line granted by the directory, handling victim eviction.
    fn install(
        &mut self,
        line: LineAddr,
        state: L1State,
        now: Cycle,
        net: &mut MeshNoc<SysMsg>,
    ) {
        self.counters.fill += 1;
        if let Some((vline, vstate)) = self.array.insert(line, state) {
            match vstate {
                L1State::Modified => {
                    self.counters.wb_dirty += 1;
                    self.wb.push(vline);
                    let home = self.home(vline);
                    self.send(CoherenceMsg::PutM { line: vline, from: self.core }, home, now, net);
                }
                L1State::Exclusive => {
                    self.counters.wb_clean += 1;
                    self.wb.push(vline);
                    let home = self.home(vline);
                    self.send(CoherenceMsg::PutE { line: vline, from: self.core }, home, now, net);
                }
                L1State::Shared => {
                    // Silent: the directory tolerates stale sharer bits.
                    self.counters.evict_shared += 1;
                }
            }
        }
    }

    /// Handle a protocol message addressed to this L1.
    pub fn handle_msg(
        &mut self,
        msg: CoherenceMsg,
        now: Cycle,
        store: &mut WordStore,
        net: &mut MeshNoc<SysMsg>,
    ) {
        let line = msg.line();
        match msg {
            CoherenceMsg::DataS { .. } | CoherenceMsg::DataE { .. } | CoherenceMsg::DataM { .. } => {
                let state = match msg {
                    CoherenceMsg::DataS { .. } => L1State::Shared,
                    CoherenceMsg::DataE { .. } => L1State::Exclusive,
                    _ => L1State::Modified,
                };
                let p = self
                    .pending
                    .take()
                    .expect("data grant without a pending request");
                debug_assert_eq!(p.line, line, "grant for the wrong line");
                // A raced upgrade can come back as full data; if the Inv
                // already removed our S copy, the line is absent and we
                // install fresh. If we still hold S (directory chose to send
                // data anyway), replace the state in place.
                if self.array.peek(line).is_some() {
                    *self.array.lookup(line).expect("resident") = state;
                    self.counters.access += 1;
                } else {
                    self.install(line, state, now, net);
                }
                let state_after = if p.op.needs_exclusive() {
                    L1State::Modified
                } else {
                    state
                };
                *self.array.lookup(line).expect("just installed") = state_after;
                self.commit(p.op, now, store, false);
            }
            CoherenceMsg::GrantM { .. } => {
                let p = self
                    .pending
                    .take()
                    .expect("GrantM without a pending upgrade");
                debug_assert!(p.is_upgrade);
                debug_assert_eq!(p.line, line);
                let s = self
                    .array
                    .lookup(line)
                    .expect("GrantM implies the S copy survived");
                *s = L1State::Modified;
                self.commit(p.op, now, store, false);
            }
            CoherenceMsg::Inv { .. } => {
                trace_event!(TraceMask::L1, now, "l1[{}]: Inv {line:?}", self.core);
                self.counters.inv_recv += 1;
                // May be absent (stale sharer bit after a silent S evict).
                self.array.remove(line);
                let home = self.home(line);
                self.send(CoherenceMsg::InvAck { line, from: self.core }, home, now, net);
            }
            CoherenceMsg::FwdGetS { .. } => {
                self.counters.fwd_recv += 1;
                if let Some(s) = self.array.lookup(line) {
                    *s = L1State::Shared;
                } else {
                    debug_assert!(
                        self.wb.contains(&line),
                        "FwdGetS for a line neither resident nor in WB"
                    );
                }
                let home = self.home(line);
                self.send(CoherenceMsg::WbData { line, from: self.core }, home, now, net);
            }
            CoherenceMsg::FwdGetM { .. } => {
                self.counters.fwd_recv += 1;
                if self.array.remove(line).is_none() {
                    debug_assert!(
                        self.wb.contains(&line),
                        "FwdGetM for a line neither resident nor in WB"
                    );
                }
                let home = self.home(line);
                self.send(CoherenceMsg::WbData { line, from: self.core }, home, now, net);
            }
            CoherenceMsg::PutAck { .. } => {
                if let Some(i) = self.wb.iter().position(|&l| l == line) {
                    self.wb.swap_remove(i);
                }
                // A deferred miss on the same line can now be issued.
                if let Some(p) = self.pending.as_mut() {
                    if p.stalled_on_wb && p.line == line {
                        p.stalled_on_wb = false;
                        self.issue_request(now, net);
                    }
                }
            }
            other => unreachable!("L1 received a directory-bound message: {other:?}"),
        }
    }

    pub fn save_state(&self, w: &mut SnapWriter) {
        debug_assert!(self.spin.is_none(), "core {}: L1 saved while parked", self.core);
        w.mark("l1");
        self.array.save_state(w, &mut |w, &s| s.save_state(w));
        match &self.pending {
            None => w.bool(false),
            Some(p) => {
                w.bool(true);
                p.op.save_state(w);
                w.u64(p.line.0);
                w.bool(p.is_upgrade);
                w.bool(p.stalled_on_wb);
            }
        }
        w.seq(&self.wb, |w, l| w.u64(l.0));
        self.events.save_state(w, &mut |w, L1Event::Access(op)| op.save_state(w));
        match &self.done {
            None => w.bool(false),
            Some(res) => {
                w.bool(true);
                res.save_state(w);
            }
        }
        self.counters.save_state(w);
        w.opt_u64(self.submitted_at);
    }

    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect("l1")?;
        self.array.load_state(r, &mut L1State::load_state)?;
        self.pending = if r.bool()? {
            Some(Pending {
                op: MemOp::load_state(r)?,
                line: LineAddr(r.u64()?),
                is_upgrade: r.bool()?,
                stalled_on_wb: r.bool()?,
            })
        } else {
            None
        };
        self.wb = r.seq(|r| Ok(LineAddr(r.u64()?)))?;
        self.events
            .load_state(r, &mut |r| Ok(L1Event::Access(MemOp::load_state(r)?)))?;
        self.done = if r.bool()? { Some(MemResult::load_state(r)?) } else { None };
        self.counters.load_state(r)?;
        self.submitted_at = r.opt_u64()?;
        self.spin = None;
        Ok(())
    }

    /// The MESI state this L1 currently holds for `line` (tests/invariants).
    pub fn state_of(&self, line: LineAddr) -> Option<L1State> {
        self.array.peek(line).copied()
    }

    /// All lines currently resident in the array (tests/invariants).
    pub fn resident_lines(&self) -> Vec<LineAddr> {
        self.array.iter().map(|(l, _)| l).collect()
    }
}
