//! # netsession-control
//!
//! The NetSession control plane (§3.6–§3.8): globally distributed servers,
//! operated by the CDN, that *coordinate* peers but never serve content.
//! (The §3.6 monitoring node is live-tier only: `netsession-net`'s
//! `monitor_server`.)
//!
//! * [`directory`] — the **database nodes (DNs)**: which objects are
//!   available on which peers, their connectivity details, per-object
//!   upload counts (for the §3.9 upload cap), and the soft-state RE-ADD
//!   recovery of §3.8.
//! * [`selection`] — the two-level **locality-aware peer selection** of
//!   §3.7: region-local DNs, then a specificity ladder (same AS → same
//!   country → same zone → world) with probabilistic diversity, a fairness
//!   rotation, and NAT-compatibility filtering.
//! * [`cn`] — the **connection nodes (CNs)**: endpoints of the peers'
//!   persistent TCP control connections; they accept logins, route queries
//!   to their local DN, issue `ConnectTo` instructions to both endpoints,
//!   and collect usage reports.
//! * [`plane`] — the assembled control plane: one CN + DN per network
//!   region, peer→closest-CN mapping, CN/DN failure injection and
//!   recovery, and rate-limited mass reconnection.

pub mod cn;
pub mod directory;
pub mod plane;
pub mod selection;

pub use cn::ConnectionNode;
pub use directory::{DirectoryNode, PeerRecord};
pub use plane::{ControlPlane, PlaneConfig};
pub use selection::{SelectionPolicy, Selector};
