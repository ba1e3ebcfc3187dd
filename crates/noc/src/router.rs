//! A single input-queued mesh router.
//!
//! Five ports (four mesh directions + local inject/eject), FIFO input
//! queues, round-robin arbitration per output port, and output links that
//! stay busy for a packet's serialization time. Queues are unbounded — the
//! memory system's blocking directory bounds the number of packets in
//! flight, so backpressure never builds up in practice, and the arbitration
//! still serializes contending packets, which is where mesh contention
//! latency comes from.

use crate::packet::Packet;
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::Cycle;
use std::collections::VecDeque;

/// Router port indices.
pub const P_EAST: usize = 0;
pub const P_WEST: usize = 1;
pub const P_NORTH: usize = 2;
pub const P_SOUTH: usize = 3;
pub const P_LOCAL: usize = 4;
pub const N_PORTS: usize = 5;

/// A packet waiting in an input queue, eligible once the router pipeline
/// delay has elapsed.
#[derive(Debug)]
pub(crate) struct Queued<T> {
    pub pkt: Packet<T>,
    pub ready_at: Cycle,
}

/// One mesh router.
pub(crate) struct Router<T> {
    pub in_q: [VecDeque<Queued<T>>; N_PORTS],
    /// First cycle at which each output link is free again.
    pub out_free_at: [Cycle; N_PORTS],
    /// Round-robin pointer per output port (next input port to consider).
    rr: [usize; N_PORTS],
}

impl<T> Router<T> {
    pub fn new() -> Self {
        Router {
            in_q: Default::default(),
            out_free_at: [0; N_PORTS],
            rr: [0; N_PORTS],
        }
    }

    pub fn occupancy(&self) -> usize {
        self.in_q.iter().map(VecDeque::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.in_q.iter().all(VecDeque::is_empty)
    }

    pub fn save_state(&self, w: &mut SnapWriter, save_payload: &mut dyn FnMut(&mut SnapWriter, &T)) {
        for q in &self.in_q {
            w.usize(q.len());
            for item in q {
                item.pkt.save_state(w, save_payload);
                w.u64(item.ready_at);
            }
        }
        for &c in &self.out_free_at {
            w.u64(c);
        }
        for &p in &self.rr {
            w.usize(p);
        }
    }

    pub fn load_state(
        &mut self,
        r: &mut SnapReader<'_>,
        load_payload: &mut dyn FnMut(&mut SnapReader<'_>) -> Result<T, SnapError>,
    ) -> Result<(), SnapError> {
        for q in &mut self.in_q {
            let n = r.usize()?;
            q.clear();
            for _ in 0..n {
                let pkt = Packet::load_state(r, load_payload)?;
                let ready_at = r.u64()?;
                q.push_back(Queued { pkt, ready_at });
            }
        }
        for c in &mut self.out_free_at {
            *c = r.u64()?;
        }
        for p in &mut self.rr {
            *p = r.usize()?;
            if *p >= N_PORTS {
                return Err(SnapError::Corrupt { what: "router round-robin pointer" });
            }
        }
        Ok(())
    }

    /// For output port `out`, pick the winning input port this cycle under
    /// round-robin arbitration, given a per-input-port view of where each
    /// ready head packet wants to go. Returns the winning input port.
    #[allow(clippy::needless_range_loop)]
    pub fn arbitrate(&mut self, out: usize, wants: &[Option<usize>; N_PORTS]) -> Option<usize> {
        for k in 0..N_PORTS {
            let p = (self.rr[out] + k) % N_PORTS;
            if wants[p] == Some(out) {
                self.rr[out] = (p + 1) % N_PORTS;
                return Some(p);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates_between_contenders() {
        let mut r: Router<()> = Router::new();
        // ports 0 and 2 both want output 4
        let wants = [Some(4), None, Some(4), None, None];
        let w1 = r.arbitrate(4, &wants).unwrap();
        let w2 = r.arbitrate(4, &wants).unwrap();
        let w3 = r.arbitrate(4, &wants).unwrap();
        assert_eq!(w1, 0);
        assert_eq!(w2, 2);
        assert_eq!(w3, 0, "round-robin must wrap");
    }

    #[test]
    fn no_contender_no_winner() {
        let mut r: Router<()> = Router::new();
        let wants = [None; N_PORTS];
        assert_eq!(r.arbitrate(0, &wants), None);
    }

    #[test]
    fn arbitration_skips_other_outputs() {
        let mut r: Router<()> = Router::new();
        let wants = [Some(1), Some(0), None, None, None];
        assert_eq!(r.arbitrate(0, &wants), Some(1));
        assert_eq!(r.arbitrate(1, &wants), Some(0));
    }
}
