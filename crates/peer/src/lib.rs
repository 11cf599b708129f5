//! # netsession-peer
//!
//! The **NetSession Interface** — the client software installed on user
//! machines (§3.3–§3.4, §3.9). It runs as a persistent background
//! application, downloads from edge servers and peers *in parallel*, and
//! takes "great care not to inconvenience the user".
//!
//! * [`picker`] — piece selection: rarest-first for peer connections, an
//!   in-order cursor for the always-on edge connection, and in-flight
//!   deduplication.
//! * [`swarm`] — the BitTorrent-like swarming protocol engine *without
//!   tit-for-tat* (§3.4): have-maps, requests, verification, and the polite
//!   `Busy` instead of choking.
//! * [`download`] — the download coordinator: one object from
//!   authorization to done or failed, as a sans-IO state machine over a
//!   [`SwarmSession`] and the edge backstop (§3.3).
//! * [`governor`] — the upload governor: the global upload-connection
//!   limit, the upstream rate fraction, idle-link backoff, and per-object
//!   upload caps (§3.9).

pub mod download;
pub mod governor;
pub mod picker;
pub mod swarm;

pub use download::Download;
pub use governor::UploadGovernor;
pub use picker::PiecePicker;
pub use swarm::SwarmSession;
