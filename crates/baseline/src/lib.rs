//! # netsession-baseline
//!
//! The pure **peer-to-peer CDN** NetSession is compared against (§2.1), in
//! the BitTorrent mold ([`bittorrent`]): tracker-coordinated swarms,
//! rarest-first piece exchange, and the tit-for-tat choking incentive
//! NetSession deliberately omits (§3.4). A round-based swarm simulator
//! demonstrates the classic behaviours the paper contrasts against:
//! free-riders get choked, availability dies with the seeds, and short
//! client sessions shrink upload opportunity. The other comparison point,
//! a pure infrastructure CDN, needs no model: every byte is origin traffic.

pub mod bittorrent;

pub use bittorrent::{Swarm, SwarmConfig, SwarmResult};
