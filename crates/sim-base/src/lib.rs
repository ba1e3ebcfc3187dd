//! Foundation types shared by every crate in the GLocks reproduction.
//!
//! This crate is deliberately dependency-free and contains the vocabulary of
//! the simulated machine: identifiers ([`ids`]), the 2D-mesh floor plan
//! ([`geom`]), the architectural configuration of the simulated CMP
//! ([`config`], reproducing Table II of the paper), fault plans
//! ([`fault`]), the checkpoint codec ([`snap`]), index bitsets
//! ([`bitset`]), a deterministic RNG ([`rng`]), plain-text table rendering
//! used by the experiment harness ([`table`]) and the protocol trace
//! ([`trace`]).

pub mod bitset;
pub mod config;
pub mod fault;
pub mod geom;
pub mod ids;
pub mod rng;
pub mod snap;
pub mod table;
pub mod trace;

pub use config::{CacheConfig, CmpConfig, GlockConfig, NocConfig};
pub use fault::{FaultDecision, FaultInjector, FaultPlan, FaultRates, FaultSite, FaultStats};
pub use geom::{Coord, Mesh2D};
pub use ids::{Addr, CoreId, Cycle, LineAddr, LockId, ThreadId, TileId};
pub use rng::SplitMix64;
pub use snap::{Fingerprint, SnapError, SnapReader, SnapWriter, SNAP_MAGIC, SNAP_VERSION};
