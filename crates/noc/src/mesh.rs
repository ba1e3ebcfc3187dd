//! The assembled mesh fabric: routers wired by the floor plan, a cycle
//! `tick`, packet injection and per-tile delivery.

use crate::packet::{Packet, TrafficClass};
use crate::router::{Queued, Router, N_PORTS, P_EAST, P_LOCAL, P_NORTH, P_SOUTH, P_WEST};
use glocks_sim_base::bitset::{bits, TileSet};
use crate::traffic::TrafficStats;
use glocks_sim_base::fault::{FaultDecision, FaultInjector};
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{config::NocConfig, Cycle, Mesh2D, TileId};
use glocks_stats as gstats;
use std::collections::VecDeque;

/// The 2D-mesh data network.
pub struct MeshNoc<T> {
    mesh: Mesh2D,
    cfg: NocConfig,
    routers: Vec<Router<T>>,
    /// Packets ejected at each tile, eligible once `ready_at` is reached.
    delivered: Vec<VecDeque<(Cycle, Packet<T>)>>,
    /// Routers with a non-empty input queue: exactly the routers `tick`
    /// visits. Derived from `routers`, so snapshots do not carry it.
    busy_routers: TileSet,
    /// Tiles with a non-empty `delivered` queue: exactly the tiles the
    /// memory system drains. Derived from `delivered`.
    delivery_tiles: TileSet,
    stats: TrafficStats,
    in_flight: usize,
    faults: Option<FaultInjector>,
    dropped: u64,
    /// Permanent router faults: cycle at which each router died, if ever.
    /// A dead router drops everything — its queued packets are purged at
    /// the kill, injections at its tile vanish, and neighbors trying to
    /// forward through it lose the packet (counted in `dropped`).
    dead_at: Vec<Option<Cycle>>,
    /// Router kills not yet applied, as `(cycle, tile index)`.
    scheduled_kills: Vec<(Cycle, usize)>,
    /// Per-class end-to-end latency histograms (`noc.lat.{class}`). All
    /// free `NONE` ids when stats are off.
    lat_hists: [gstats::HistId; TrafficClass::ALL.len()],
    /// Per-router input-queue occupancy gauges
    /// (`noc.router.{x}_{y}.queue_depth`), sampled every stats period.
    queue_series: Vec<gstats::SeriesId>,
}

fn class_name(c: TrafficClass) -> &'static str {
    match c {
        TrafficClass::Request => "request",
        TrafficClass::Reply => "reply",
        TrafficClass::Coherence => "coherence",
    }
}

impl<T> MeshNoc<T> {
    pub fn new(mesh: Mesh2D, cfg: NocConfig) -> Self {
        // A forwarded packet must not be ready in the cycle it moves: that
        // is what lets `tick` visit routers in any order with one result.
        assert!(cfg.router_latency >= 1, "a router pipeline takes at least one cycle");
        let lat_hists = TrafficClass::ALL
            .map(|c| gstats::hist(&format!("noc.lat.{}", class_name(c))));
        let queue_series = (0..mesh.len())
            .map(|t| {
                let c = mesh.coord(TileId::from(t));
                gstats::series(&format!("noc.router.{}_{}.queue_depth", c.x, c.y))
            })
            .collect();
        MeshNoc {
            mesh,
            cfg,
            routers: (0..mesh.len()).map(|_| Router::new()).collect(),
            delivered: (0..mesh.len()).map(|_| VecDeque::new()).collect(),
            busy_routers: TileSet::new(mesh.len()),
            delivery_tiles: TileSet::new(mesh.len()),
            stats: TrafficStats::default(),
            in_flight: 0,
            faults: None,
            dropped: 0,
            dead_at: vec![None; mesh.len()],
            scheduled_kills: Vec::new(),
            lat_hists,
            queue_series,
        }
    }

    /// Subject fabric-crossing packets to a deterministic drop/delay
    /// schedule. The coherence protocol has no retransmission layer, so a
    /// dropped packet usually wedges its transaction — the runner's
    /// watchdog turns that into a diagnosable `SimError`. Duplication is
    /// not meaningful for coherence messages and must not be requested.
    pub fn set_faults(&mut self, faults: FaultInjector) {
        assert_eq!(
            faults.rates().duplicate_ppm,
            0,
            "NoC fault plans cannot duplicate packets"
        );
        self.faults = Some(faults);
    }

    /// Packets lost to the fault schedule (transient drops, router deaths).
    pub fn packets_dropped(&self) -> u64 {
        self.dropped
    }

    /// Soft-fault totals from the injector, if one is attached.
    pub fn fault_stats(&self) -> Option<glocks_sim_base::fault::FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Schedule a permanent router fault: from cycle `at` the router at
    /// `tile` drops every packet it would have carried.
    pub fn schedule_router_kill(&mut self, tile: TileId, at: Cycle) {
        self.scheduled_kills.push((at, tile.index()));
    }

    /// Cycle at which the router at `tile` died, if a kill has fired.
    pub fn router_dead_at(&self, tile: TileId) -> Option<Cycle> {
        self.dead_at[tile.index()]
    }

    fn router_is_dead(&self, tile: usize) -> bool {
        self.dead_at[tile].is_some()
    }

    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Tiles whose delivery queue holds a packet, ready or not. Only these
    /// tiles can yield anything from [`Self::drain`].
    pub fn delivery_tiles(&self) -> &TileSet {
        &self.delivery_tiles
    }

    /// Number of packets currently inside the fabric (not yet drained).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Serialization time of a packet on one link.
    fn ser_cycles(&self, bytes: u32) -> u64 {
        bytes.div_ceil(self.cfg.link_bytes) as u64
    }

    /// Inject a packet at its source tile at cycle `now`.
    ///
    /// A packet whose destination equals its source bypasses the fabric (a
    /// local L2-slice access does not use the network) and is delivered
    /// after the router-pipeline latency with no byte accounting.
    pub fn inject(&mut self, pkt: Packet<T>, now: Cycle) {
        // Local bypasses never touch the wires, so only fabric-crossing
        // packets are subject to the fault schedule.
        if self.router_is_dead(pkt.src.index()) {
            // The tile's network interface is gone: even local bypasses
            // ride the router pipeline, so everything vanishes.
            self.dropped += 1;
            return;
        }
        let mut extra = 0;
        if pkt.src != pkt.dst {
            if let Some(f) = self.faults.as_mut() {
                match f.decide() {
                    FaultDecision::Deliver => {}
                    FaultDecision::Drop => {
                        self.dropped += 1;
                        return;
                    }
                    FaultDecision::Delay(d) => extra = d,
                    FaultDecision::Duplicate => {
                        unreachable!("duplication is rejected for NoC fault plans")
                    }
                }
            }
        }
        self.in_flight += 1;
        self.stats.on_inject(pkt.class);
        if pkt.src == pkt.dst {
            let at = now + self.cfg.router_latency;
            self.delivery_tiles.insert(pkt.dst.index());
            self.delivered[pkt.dst.index()].push_back((at, pkt));
            return;
        }
        let ready = now + self.cfg.router_latency + extra;
        self.busy_routers.insert(pkt.src.index());
        self.routers[pkt.src.index()].in_q[P_LOCAL].push_back(Queued { pkt, ready_at: ready });
    }

    /// Output port at router `at` for a packet heading to `dst`: XY
    /// routing, as [`Mesh2D::xy_next_hop`], from the two coordinates alone.
    fn out_port(&self, at: TileId, dst: TileId) -> usize {
        let a = self.mesh.coord(at);
        let d = self.mesh.coord(dst);
        if d.x > a.x {
            P_EAST
        } else if d.x < a.x {
            P_WEST
        } else if d.y > a.y {
            P_SOUTH
        } else if d.y < a.y {
            P_NORTH
        } else {
            P_LOCAL
        }
    }

    /// The router that output port `out` of router `r` links to (tiles
    /// are numbered row by row, so south is one row on).
    fn neighbor(&self, r: usize, out: usize) -> usize {
        let cols = usize::from(self.mesh.cols());
        match out {
            P_EAST => r + 1,
            P_WEST => r - 1,
            P_SOUTH => r + cols,
            P_NORTH => r - cols,
            _ => unreachable!("the local port links to no router"),
        }
    }

    /// Input port at the neighboring router reached through `out` —
    /// a packet leaving east arrives on the neighbor's west port.
    fn opposite(out: usize) -> usize {
        match out {
            P_EAST => P_WEST,
            P_WEST => P_EAST,
            P_NORTH => P_SOUTH,
            P_SOUTH => P_NORTH,
            _ => unreachable!("local port has no opposite"),
        }
    }

    /// Advance the whole fabric by one cycle.
    ///
    /// Only routers holding a packet are visited, in ascending index
    /// order. Skipping the rest cannot change the trajectory: an empty
    /// router has no ready head, so its arbitration moves no round-robin
    /// pointer, and a packet forwarded this cycle becomes ready no earlier
    /// than the next one, so visiting its new router now would find
    /// nothing to send.
    pub fn tick(&mut self, now: Cycle) {
        // Apply any router kills that are due: the router dies in place and
        // its queued packets are lost.
        if !self.scheduled_kills.is_empty() {
            let mut i = 0;
            while i < self.scheduled_kills.len() {
                let (at, r) = self.scheduled_kills[i];
                if at <= now {
                    self.scheduled_kills.swap_remove(i);
                    self.dead_at[r].get_or_insert(at);
                    for p in 0..N_PORTS {
                        let purged = self.routers[r].in_q[p].len();
                        self.routers[r].in_q[p].clear();
                        self.dropped += purged as u64;
                        self.in_flight -= purged;
                    }
                    self.busy_routers.remove(r);
                } else {
                    i += 1;
                }
            }
        }
        // Congestion gauges (one thread-local flag read when stats are off).
        if gstats::should_sample(now) {
            for (r, &sid) in self.queue_series.iter().enumerate() {
                gstats::push(sid, self.routers[r].occupancy() as f64);
            }
        }
        for w in 0..self.busy_routers.n_words() {
            for r in bits(w, self.busy_routers.word(w)) {
                self.route(r, now);
            }
        }
    }

    /// One router's cycle: arbitrate each output port among ready head
    /// packets and move the winners one hop (or eject them to the tile).
    #[allow(clippy::needless_range_loop)]
    fn route(&mut self, r: usize, now: Cycle) {
        debug_assert!(!self.router_is_dead(r), "a dead router holds no packets");
        let tile = TileId::from(r);
        // What does each input-queue head want?
        let mut wants: [Option<usize>; N_PORTS] = [None; N_PORTS];
        for p in 0..N_PORTS {
            if let Some(q) = self.routers[r].in_q[p].front() {
                if q.ready_at <= now {
                    wants[p] = Some(self.out_port(tile, q.pkt.dst));
                }
            }
        }
        for out in 0..N_PORTS {
            if self.routers[r].out_free_at[out] > now {
                continue;
            }
            let Some(winner) = self.routers[r].arbitrate(out, &wants) else {
                continue;
            };
            wants[winner] = None; // an input port sends one packet/cycle
            let q = self.routers[r].in_q[winner].pop_front().expect("head exists");
            let ser = self.ser_cycles(q.pkt.bytes);
            self.routers[r].out_free_at[out] = now + ser;
            if out == P_LOCAL {
                // Ejection to the tile: available after serialization.
                self.delivery_tiles.insert(r);
                self.delivered[r].push_back((now + ser, q.pkt));
            } else {
                self.stats.on_link_traversal(q.pkt.class, q.pkt.bytes);
                let next = self.neighbor(r, out);
                if self.router_is_dead(next) {
                    // Forwarded into a dead router: the packet is lost
                    // on the link (XY routing has no detour).
                    self.dropped += 1;
                    self.in_flight -= 1;
                    continue;
                }
                let arrive = now + ser + self.cfg.link_latency + self.cfg.router_latency;
                self.busy_routers.insert(next);
                self.routers[next].in_q[Self::opposite(out)]
                    .push_back(Queued { pkt: q.pkt, ready_at: arrive });
            }
        }
        if self.routers[r].is_empty() {
            self.busy_routers.remove(r);
        }
    }

    /// Pop all packets delivered at `tile` that are ready at `now`, in
    /// queue order; packets not yet ready stay queued in their order.
    pub fn drain(&mut self, tile: TileId, now: Cycle, out: &mut Vec<Packet<T>>) {
        let q = &mut self.delivered[tile.index()];
        for _ in 0..q.len() {
            let (at, pkt) = q.pop_front().expect("counted");
            if at > now {
                q.push_back((at, pkt));
                continue;
            }
            self.in_flight -= 1;
            let lat = now.saturating_sub(pkt.injected_at);
            gstats::hist_record(self.lat_hists[pkt.class.index()], lat);
            out.push(pkt);
        }
        if q.is_empty() {
            self.delivery_tiles.remove(tile.index());
        }
    }

    /// Publish end-of-run traffic totals into the stats registry (no-op
    /// when stats are off; latency histograms record live in [`Self::drain`]).
    pub fn publish_stats(&self) {
        if !gstats::is_enabled() {
            return;
        }
        for c in TrafficClass::ALL {
            let n = class_name(c);
            gstats::set(gstats::counter(&format!("noc.{n}.bytes")), self.stats.bytes(c));
            gstats::set(
                gstats::counter(&format!("noc.{n}.messages")),
                self.stats.messages(c),
            );
            gstats::set(gstats::counter(&format!("noc.{n}.hops")), self.stats.hops(c));
        }
        gstats::set(gstats::counter("noc.packets_dropped"), self.dropped);
    }

    /// Serialize the fabric's dynamic state: router queues, delivery
    /// buffers, traffic accounting, the fault injector's stream position
    /// and the permanent-fault schedule. Structure (mesh shape, config,
    /// stats registrations) is rebuilt by the constructor.
    pub fn save_state(&self, w: &mut SnapWriter, save_payload: &mut dyn FnMut(&mut SnapWriter, &T)) {
        w.mark("noc");
        w.usize(self.routers.len());
        for router in &self.routers {
            router.save_state(w, save_payload);
        }
        for q in &self.delivered {
            w.usize(q.len());
            for (at, pkt) in q {
                w.u64(*at);
                pkt.save_state(w, save_payload);
            }
        }
        self.stats.save_state(w);
        w.usize(self.in_flight);
        w.bool(self.faults.is_some());
        if let Some(f) = &self.faults {
            f.save_state(w);
        }
        w.u64(self.dropped);
        w.seq(&self.dead_at, |w, &d| w.opt_u64(d));
        w.seq(&self.scheduled_kills, |w, &(at, r)| {
            w.u64(at);
            w.usize(r);
        });
    }

    pub fn load_state(
        &mut self,
        r: &mut SnapReader<'_>,
        load_payload: &mut dyn FnMut(&mut SnapReader<'_>) -> Result<T, SnapError>,
    ) -> Result<(), SnapError> {
        r.expect("noc")?;
        if r.usize()? != self.routers.len() {
            return Err(SnapError::Corrupt { what: "noc router count" });
        }
        for router in &mut self.routers {
            router.load_state(r, load_payload)?;
        }
        for q in &mut self.delivered {
            let n = r.usize()?;
            q.clear();
            for _ in 0..n {
                let at = r.u64()?;
                let pkt = Packet::load_state(r, load_payload)?;
                q.push_back((at, pkt));
            }
        }
        self.stats.load_state(r)?;
        self.in_flight = r.usize()?;
        if r.bool()? {
            match self.faults.as_mut() {
                Some(f) => f.load_state(r)?,
                None => return Err(SnapError::Corrupt { what: "noc fault injector presence" }),
            }
        } else if self.faults.is_some() {
            return Err(SnapError::Corrupt { what: "noc fault injector presence" });
        }
        self.dropped = r.u64()?;
        let dead_at = r.seq(|r| r.opt_u64())?;
        if dead_at.len() != self.dead_at.len() {
            return Err(SnapError::Corrupt { what: "noc dead-router map" });
        }
        self.dead_at = dead_at;
        self.scheduled_kills = r.seq(|r| {
            let at = r.u64()?;
            let tile = r.usize()?;
            Ok((at, tile))
        })?;
        self.rebuild_active_sets();
        Ok(())
    }

    /// Recompute the derived active sets from the queues they index.
    fn rebuild_active_sets(&mut self) {
        self.busy_routers.clear();
        self.delivery_tiles.clear();
        for t in 0..self.routers.len() {
            if !self.routers[t].is_empty() {
                self.busy_routers.insert(t);
            }
            if !self.delivered[t].is_empty() {
                self.delivery_tiles.insert(t);
            }
        }
    }

    /// True when no packet is anywhere in the fabric or delivery buffers.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0
    }

    /// The earliest cycle ≥ `now` at which [`Self::tick`], or a
    /// [`Self::drain`] of every delivery tile, changes the fabric's state;
    /// `None` if nothing is queued, delivered or scheduled.
    ///
    /// The horizon is exact. A router acts only when a ready input-queue
    /// head finds its output link free, so each head contributes
    /// `max(ready_at, out_free_at[its output])`; before that cycle its
    /// arbitration finds no contender and moves no round-robin pointer.
    /// A delivered packet contributes the cycle it becomes ready, and a
    /// scheduled router kill the cycle it fires: the router dies in place
    /// even in an idle fabric. Only the active sets are visited.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next = self.scheduled_kills.iter().map(|&(at, _)| at).min().unwrap_or(Cycle::MAX);
        for r in self.busy_routers.iter() {
            let router = &self.routers[r];
            for q in &router.in_q {
                if let Some(head) = q.front() {
                    let out = self.out_port(TileId::from(r), head.pkt.dst);
                    next = next.min(head.ready_at.max(router.out_free_at[out]));
                }
            }
            if next <= now {
                return Some(now);
            }
        }
        for t in self.delivery_tiles.iter() {
            for &(at, _) in &self.delivered[t] {
                next = next.min(at);
            }
        }
        (next != Cycle::MAX).then_some(next.max(now))
    }

    /// Total number of packets sitting in router input queues (congestion
    /// diagnostics; excludes delivery buffers).
    pub fn queued_packets(&self) -> usize {
        self.routers.iter().map(|r| r.occupancy()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TrafficClass;
    use glocks_sim_base::CmpConfig;

    fn noc() -> MeshNoc<u32> {
        let cfg = CmpConfig::paper_baseline();
        MeshNoc::new(Mesh2D::new(4, 4), cfg.noc)
    }

    fn pkt(src: u16, dst: u16, bytes: u32, tag: u32) -> Packet<u32> {
        Packet {
            src: TileId(src),
            dst: TileId(dst),
            bytes,
            class: TrafficClass::Request,
            injected_at: 0,
            payload: tag,
        }
    }

    /// Run the fabric until `tile` delivers `n` packets; returns (cycle, packets).
    fn run_until(noc: &mut MeshNoc<u32>, tile: TileId, n: usize) -> (Cycle, Vec<Packet<u32>>) {
        let mut got = Vec::new();
        for now in 0..100_000 {
            noc.tick(now);
            noc.drain(tile, now, &mut got);
            if got.len() >= n {
                return (now, got);
            }
        }
        panic!("packets never arrived (got {} of {n})", got.len());
    }

    #[test]
    fn delivers_across_the_mesh() {
        let mut n = noc();
        n.inject(pkt(0, 15, 8, 7), 0);
        let (at, got) = run_until(&mut n, TileId(15), 1);
        assert_eq!(got[0].payload, 7);
        // 6 hops: per hop 1 ser + 1 link + 3 router, plus initial pipeline
        // and final ejection serialization — latency is deterministic.
        assert_eq!(at, 3 + 6 * (1 + 1 + 3) + 1);
        assert!(n.is_idle());
    }

    #[test]
    fn local_delivery_bypasses_fabric() {
        let mut n = noc();
        n.inject(pkt(5, 5, 72, 1), 10);
        let mut got = Vec::new();
        n.drain(TileId(5), 10 + 3, &mut got);
        assert_eq!(got.len(), 1);
        assert_eq!(n.stats().total_bytes(), 0, "no link traversal for local");
        assert!(n.is_idle());
    }

    #[test]
    fn bytes_counted_per_hop() {
        let mut n = noc();
        n.inject(pkt(0, 3, 8, 0), 0); // 3 hops east
        run_until(&mut n, TileId(3), 1);
        assert_eq!(n.stats().bytes(TrafficClass::Request), 3 * 8);
        assert_eq!(n.stats().hops(TrafficClass::Request), 3);
        assert_eq!(n.stats().messages(TrafficClass::Request), 1);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        // Two packets from tile 0 to tile 1 inject the same cycle; the
        // second must wait for the first's link slot.
        let mut n = noc();
        n.inject(pkt(0, 1, 75, 1), 0); // exactly one link-cycle
        n.inject(pkt(0, 1, 75, 2), 0);
        let (_, got) = run_until(&mut n, TileId(1), 2);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, 1, "FIFO order preserved");
        assert_eq!(got[1].payload, 2);
    }

    #[test]
    fn big_packets_serialize_longer() {
        // 150-byte packet on 75-byte links: 2 cycles per link.
        let mut n = noc();
        n.inject(pkt(0, 1, 150, 1), 0);
        n.inject(pkt(0, 1, 8, 2), 1);
        let (_, got) = run_until(&mut n, TileId(1), 2);
        // first packet leaves first; the small one is behind it in the
        // same FIFO input queue.
        assert_eq!(got[0].payload, 1);
    }

    #[test]
    fn cross_traffic_all_arrives() {
        let mut n = noc();
        // all-to-one hotspot: 15 tiles send to tile 0
        for s in 1..16u16 {
            n.inject(pkt(s, 0, 72, s as u32), 0);
        }
        let (_, got) = run_until(&mut n, TileId(0), 15);
        let mut tags: Vec<u32> = got.iter().map(|p| p.payload).collect();
        tags.sort_unstable();
        assert_eq!(tags, (1..16).collect::<Vec<_>>());
        assert!(n.is_idle());
    }

    #[test]
    fn dropped_packets_vanish_and_are_counted() {
        use glocks_sim_base::{FaultPlan, FaultRates, FaultSite};
        let mut n = noc();
        let mut plan = FaultPlan::seeded(5);
        plan.noc = FaultRates::drops(1_000_000);
        n.set_faults(plan.injector(FaultSite::Noc, 0));
        n.inject(pkt(0, 15, 8, 1), 0);
        assert_eq!(n.in_flight(), 0, "dropped at injection");
        assert_eq!(n.packets_dropped(), 1);
        assert!(n.is_idle());
        // Local bypasses are immune: they never cross a link.
        n.inject(pkt(5, 5, 8, 2), 0);
        assert_eq!(n.in_flight(), 1);
    }

    #[test]
    fn delayed_packets_arrive_late_but_intact() {
        use glocks_sim_base::{FaultPlan, FaultRates, FaultSite};
        let mut fast = noc();
        let mut slow = noc();
        let mut plan = FaultPlan::seeded(6);
        plan.noc = FaultRates::delays(1_000_000, 40);
        slow.set_faults(plan.injector(FaultSite::Noc, 0));
        fast.inject(pkt(0, 15, 8, 7), 0);
        slow.inject(pkt(0, 15, 8, 7), 0);
        let (at_fast, _) = run_until(&mut fast, TileId(15), 1);
        let (at_slow, got) = run_until(&mut slow, TileId(15), 1);
        assert_eq!(got[0].payload, 7);
        assert!(at_slow > at_fast, "delay fault must add latency");
        assert!(at_slow <= at_fast + 40);
    }

    #[test]
    fn dead_router_swallows_traffic() {
        let mut n = noc();
        // Kill tile 1's router (on the XY path 0→3) before any traffic.
        n.schedule_router_kill(TileId(1), 0);
        n.tick(0);
        assert_eq!(n.router_dead_at(TileId(1)), Some(0));
        // Injection at the dead tile vanishes immediately.
        n.inject(pkt(1, 2, 8, 9), 1);
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.packets_dropped(), 1);
        // A packet routed through the dead router is lost on the link and
        // the fabric drains back to idle.
        n.inject(pkt(0, 3, 8, 5), 1);
        for now in 1..10_000 {
            n.tick(now);
        }
        assert!(n.is_idle(), "lost packet must not linger in flight");
        assert_eq!(n.packets_dropped(), 2);
    }

    #[test]
    fn router_kill_purges_queued_packets() {
        let mut n = noc();
        n.inject(pkt(0, 3, 8, 1), 0);
        assert_eq!(n.in_flight(), 1);
        // Kill the source router while the packet still sits in its queue.
        n.schedule_router_kill(TileId(0), 1);
        n.tick(1);
        assert!(n.is_idle(), "queued packet purged with the router");
        assert_eq!(n.packets_dropped(), 1);
    }

    #[test]
    fn drain_takes_ready_packets_in_queue_order() {
        let mut n = noc();
        let t = TileId(5);
        // Local bypasses are ready `router_latency` (3) cycles after their
        // injection cycle, so these queue up ready at 13, 3, 23, 8.
        for (tag, at) in [(1, 10), (2, 0), (3, 20), (4, 5)] {
            n.inject(pkt(5, 5, 8, tag), at);
        }
        let mut take = |now| {
            let mut got = Vec::new();
            n.drain(t, now, &mut got);
            got.iter().map(|p| p.payload).collect::<Vec<_>>()
        };
        assert_eq!(take(9), [2, 4], "ready packets leave in queue order");
        assert_eq!(take(13), [1], "the rest keep their order");
        assert_eq!(take(22), [] as [u32; 0]);
        assert_eq!(take(23), [3]);
        assert!(n.is_idle());
        assert!(n.delivery_tiles().is_empty(), "an emptied queue leaves the set");
    }

    /// The active sets equal the sets they are derived from.
    fn assert_active_sets_exact(n: &MeshNoc<u32>) {
        let busy: Vec<usize> =
            (0..n.routers.len()).filter(|&r| n.routers[r].occupancy() > 0).collect();
        assert_eq!(n.busy_routers.iter().collect::<Vec<_>>(), busy, "router set");
        let delivering: Vec<usize> =
            (0..n.delivered.len()).filter(|&t| !n.delivered[t].is_empty()).collect();
        assert_eq!(n.delivery_tiles.iter().collect::<Vec<_>>(), delivering, "delivery set");
    }

    /// Seeded traffic on a 9×9 mesh: 81 tiles, so both active sets span two
    /// words. The center router dies at cycle 300 with a packet still
    /// queued in it, and a packet sent along its row afterwards is
    /// forwarded into it and lost.
    struct Traffic {
        rng: glocks_sim_base::rng::SplitMix64,
        next_tag: u32,
    }

    const SIDE: u16 = 9;
    const KILLED: u16 = 40;
    const KILL_AT: Cycle = 300;

    impl Traffic {
        fn new() -> Self {
            Traffic { rng: glocks_sim_base::rng::SplitMix64::new(0xAC71_5E75), next_tag: 0 }
        }

        fn inject(&mut self, n: &mut MeshNoc<u32>, now: Cycle) {
            if now >= 600 {
                return;
            }
            let tiles = (SIDE * SIDE) as u64;
            for _ in 0..self.rng.next_below(4) {
                let src = self.rng.next_below(tiles) as u16;
                let dst = self.rng.next_below(tiles) as u16;
                let bytes = if self.rng.next_below(2) == 0 { 8 } else { 150 };
                let mut p = pkt(src, dst, bytes, self.next_tag);
                p.injected_at = now;
                n.inject(p, now);
                self.next_tag += 1;
            }
            if now == KILL_AT - 1 {
                // Still in the router pipeline when the kill fires.
                n.inject(pkt(KILLED, KILLED + 1, 8, u32::MAX - 1), now);
            }
            if now == KILL_AT + 10 {
                // West edge to east edge of the killed router's row.
                n.inject(pkt(4 * SIDE, 4 * SIDE + SIDE - 1, 8, u32::MAX), now);
            }
        }
    }

    fn fabric_9x9() -> MeshNoc<u32> {
        let mut n = MeshNoc::new(Mesh2D::new(SIDE, SIDE), CmpConfig::paper_baseline().noc);
        n.schedule_router_kill(TileId(KILLED), KILL_AT);
        n
    }

    /// One cycle: inject, tick, drain every tile. Returns the deliveries
    /// as `(cycle, tile, tag)`.
    fn step(n: &mut MeshNoc<u32>, traffic: &mut Traffic, now: Cycle) -> Vec<(Cycle, u16, u32)> {
        traffic.inject(n, now);
        n.tick(now);
        assert_active_sets_exact(n);
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for t in 0..SIDE * SIDE {
            buf.clear();
            n.drain(TileId(t), now, &mut buf);
            assert_active_sets_exact(n);
            out.extend(buf.iter().map(|p| (now, t, p.payload)));
        }
        out
    }

    #[test]
    fn active_sets_track_queues_through_kills_and_drains() {
        let mut n = fabric_9x9();
        let mut traffic = Traffic::new();
        let mut delivered = Vec::new();
        let mut now = 0;
        while now < 600 || !n.is_idle() {
            delivered.extend(step(&mut n, &mut traffic, now));
            now += 1;
        }
        assert_eq!(n.router_dead_at(TileId(KILLED)), Some(KILL_AT));
        assert!(
            delivered.iter().all(|&(_, _, tag)| tag < u32::MAX - 1),
            "packets queued in or forwarded into the dead router must be lost"
        );
        assert!(n.packets_dropped() > 1);
        assert!(delivered.len() > 500, "traffic actually flowed ({})", delivered.len());
        assert!(n.busy_routers.is_empty() && n.delivery_tiles.is_empty());
    }

    /// `out_port` and `neighbor` route exactly as the mesh's reference XY
    /// routing, on a non-square mesh so rows and columns cannot mix up.
    #[test]
    fn ports_follow_xy_routing() {
        let mesh = Mesh2D::new(5, 3);
        let n = MeshNoc::<u32>::new(mesh, CmpConfig::paper_baseline().noc);
        for at in mesh.tiles() {
            for dst in mesh.tiles() {
                let out = n.out_port(at, dst);
                match mesh.xy_next_hop(at, dst) {
                    None => assert_eq!(out, P_LOCAL, "{at:?} → {dst:?}"),
                    Some(next) => assert_eq!(n.neighbor(at.index(), out), next.index(), "{at:?} → {dst:?}"),
                }
            }
        }
    }

    fn fabric_bytes(n: &MeshNoc<u32>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        n.save_state(&mut w, &mut |w, v| w.u32(*v));
        w.into_bytes()
    }

    /// One cycle at `now` (tick, then drain every tile) checked against
    /// the horizon reported before it: a cycle before the horizon leaves
    /// the fabric's bytes unchanged, the cycle at it changes them. Returns
    /// the horizon.
    fn checked_cycle(n: &mut MeshNoc<u32>, now: Cycle) -> Option<Cycle> {
        let horizon = n.next_event(now);
        let before = fabric_bytes(n);
        n.tick(now);
        let mut buf = Vec::new();
        for t in 0..n.mesh.len() {
            n.drain(TileId::from(t), now, &mut buf);
        }
        let changed = fabric_bytes(n) != before;
        match horizon {
            Some(h) if h == now => assert!(changed, "cycle {now}: the horizon cycle did nothing"),
            Some(h) => {
                assert!(h > now, "cycle {now}: horizon {h} lies in the past");
                assert!(!changed, "cycle {now}: acted before the horizon {h}");
            }
            None => assert!(!changed, "cycle {now}: acted with no horizon"),
        }
        horizon
    }

    /// `next_event` is the exact horizon of a cycle. Seeded 9×9 traffic
    /// whose 150-byte packets hold links for two cycles, extra local
    /// bypasses, delay faults on a third of the fabric-crossing packets
    /// and the center router's kill; then, alone on a 4×4 fabric, a head
    /// that turns ready while its link is busy.
    #[test]
    fn next_event_is_the_exact_horizon() {
        use glocks_sim_base::{FaultPlan, FaultRates, FaultSite};
        let mut n = fabric_9x9();
        let mut plan = FaultPlan::seeded(7);
        plan.noc = FaultRates::delays(300_000, 20);
        n.set_faults(plan.injector(FaultSite::Noc, 0));
        let mut traffic = Traffic::new();
        let (mut inert, mut blocked) = (0, 0);
        let mut now = 0;
        while now < 600 || !n.is_idle() {
            traffic.inject(&mut n, now);
            if now < 600 && now % 7 == 0 {
                let t = (now % 81) as u16;
                n.inject(pkt(t, t, 8, 1_000_000 + now as u32), now);
            }
            // Contention: a ready head whose output link is still busy.
            blocked += usize::from(n.busy_routers.iter().any(|r| {
                n.routers[r].in_q.iter().filter_map(|q| q.front()).any(|h| {
                    let out = n.out_port(TileId::from(r), h.pkt.dst);
                    h.ready_at <= now && n.routers[r].out_free_at[out] > now
                })
            }));
            inert += usize::from(checked_cycle(&mut n, now) != Some(now));
            now += 1;
        }
        assert_eq!(n.next_event(now), None, "an idle fabric has no horizon");
        assert_eq!(n.router_dead_at(TileId(KILLED)), Some(KILL_AT));
        assert!(n.fault_stats().expect("injector attached").delayed > 50);
        assert!(blocked > 50, "links must be contended ({blocked} cycles)");
        assert!(inert > 10, "the horizon must skip cycles ({inert})");

        // Tile 0's packet reaches router 1's west port ready at 9, when
        // tile 1's own packet turns ready; both want the east link, which
        // the winner holds for two cycles, so cycle 10 is inert.
        let mut n = noc();
        let mut horizons = Vec::new();
        for now in 0..40 {
            match now {
                0 => n.inject(pkt(0, 2, 150, 1), now),
                6 => n.inject(pkt(1, 2, 150, 2), now),
                _ => {}
            }
            horizons.push(checked_cycle(&mut n, now));
        }
        assert_eq!(horizons[9..12], [Some(9), Some(11), Some(11)], "the loser waits for the link");
        assert!(n.is_idle());
    }

    #[test]
    fn restored_fabric_rebuilds_active_sets_and_delivers_identically() {
        let save_u32 = &mut |w: &mut SnapWriter, v: &u32| w.u32(*v);
        let load_u32 = &mut |r: &mut SnapReader<'_>| r.u32();
        let mut a = fabric_9x9();
        let mut traffic = Traffic::new();
        // Mid-flight, before the kill fires.
        for now in 0..250 {
            step(&mut a, &mut traffic, now);
        }
        assert!(a.queued_packets() > 0, "snapshot must catch packets in routers");
        let mut w = SnapWriter::new();
        a.save_state(&mut w, save_u32);
        let bytes = w.into_bytes();
        let mut b = MeshNoc::new(Mesh2D::new(SIDE, SIDE), CmpConfig::paper_baseline().noc);
        b.load_state(&mut SnapReader::new(&bytes), load_u32).expect("snapshot loads");
        assert_active_sets_exact(&b);
        assert_eq!(a.busy_routers, b.busy_routers);
        assert_eq!(a.delivery_tiles, b.delivery_tiles);

        let mut traffic_b = Traffic { rng: traffic.rng.clone(), next_tag: traffic.next_tag };
        let mut now = 250;
        while now < 600 || !a.is_idle() {
            let got_a = step(&mut a, &mut traffic, now);
            let got_b = step(&mut b, &mut traffic_b, now);
            assert_eq!(got_a, got_b, "restored fabric diverged at cycle {now}");
            now += 1;
        }
        assert!(b.is_idle());
        assert_eq!(b.router_dead_at(TileId(KILLED)), Some(KILL_AT));
        assert_eq!(a.packets_dropped(), b.packets_dropped());
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_cycle_routers_are_refused() {
        let mut cfg = CmpConfig::paper_baseline().noc;
        cfg.router_latency = 0;
        let _ = MeshNoc::<u32>::new(Mesh2D::new(2, 2), cfg);
    }

    #[test]
    fn in_flight_tracks_population() {
        let mut n = noc();
        assert!(n.is_idle());
        n.inject(pkt(0, 2, 8, 0), 0);
        assert_eq!(n.in_flight(), 1);
        run_until(&mut n, TileId(2), 1);
        assert_eq!(n.in_flight(), 0);
    }
}
