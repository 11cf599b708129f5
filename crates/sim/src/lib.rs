//! # netsession-sim
//!
//! Deterministic discrete-event simulation substrate for the NetSession
//! reproduction.
//!
//! The paper measures a production system with 25.9 M installations; we have
//! no such deployment, so every macro-scale experiment runs on this
//! simulator instead (see DESIGN.md, substitution table). The crate has
//! two layers:
//!
//! * [`engine`] — a classic event-queue kernel: a simulated clock and a
//!   timestamped event list with deterministic FIFO tie-breaking. Storage is
//!   pluggable ([`queue`]): a hierarchical timing wheel by default, with the
//!   original binary heap kept as a property-tested oracle.
//! * [`flownet`] — a *fluid* (flow-level) network model: peers and servers
//!   are nodes with asymmetric access-link capacities, transfers are flows,
//!   and rates are assigned by progressive-filling **max-min fairness**,
//!   honouring per-flow rate ceilings (upload throttles). This is the
//!   standard abstraction for CDN-scale simulation, where packet-level
//!   detail is irrelevant but bandwidth sharing is everything.

pub mod engine;
pub mod flownet;
pub mod queue;
pub mod shard;

pub use engine::{EventQueue, OracleEventQueue};
pub use flownet::{FlowId, FlowNet, NodeId};
pub use queue::{BinaryHeapSched, EventSched, TimingWheel};
pub use shard::{Outbox, ShardRunner, ShardStats, ShardWorker};
