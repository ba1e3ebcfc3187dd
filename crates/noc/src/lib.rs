//! The main data interconnection network: a 2D mesh of wormhole-style
//! routers with XY dimension-order routing.
//!
//! Table II of the paper configures "an aggressive 2D-mesh network" with
//! 75-byte links at 3 GHz (75 GB/s). This crate models the network at packet
//! granularity: each hop costs a router-pipeline delay, the output link is
//! occupied for the packet's serialization time (`ceil(bytes / link_bytes)`
//! cycles), and contending packets arbitrate round-robin per output port.
//!
//! Figure 9 of the paper breaks network traffic into *Coherence* /
//! *Request* / *Reply* bytes; [`traffic::TrafficStats`] mirrors that
//! decomposition, counting bytes per switch traversal exactly as the paper
//! does ("the total number of bytes transmitted by all the switches").

pub mod mesh;
pub mod packet;
pub mod router;
pub mod traffic;

pub use mesh::MeshNoc;
pub use packet::{Packet, TrafficClass};
pub use traffic::TrafficStats;
