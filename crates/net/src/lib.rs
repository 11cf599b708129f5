//! # netsession-net
//!
//! The live NetSession runtime: the same protocol logic the simulator
//! exercises, running over real TCP sockets on plain threads. This is
//! the "it is an implementable network protocol" half of the reproduction:
//! a control-plane server ([`control_server`]), an edge server
//! ([`edge_server`]), and a full peer daemon ([`peer_daemon`]) that downloads
//! from the edge and from other daemons *in parallel*, verifies every
//! piece against the manifest, serves uploads under the governor rules,
//! and registers completed objects with the control plane.
//!
//! Everything binds to loopback by default and is exercised end-to-end by
//! the crate's tests and the `live_swarm` example.

pub mod control_server;
pub mod edge_server;
pub mod framing;
pub mod http;
pub mod monitor_server;
pub mod peer_daemon;

pub use control_server::ControlServer;
pub use edge_server::EdgeHttpServer;
pub use http::{http_get, AdminEndpoint, HttpResponse};
pub use monitor_server::{default_rules, MonitorServer, MonitorTarget};
pub use peer_daemon::{DownloadReport, PeerDaemon};
