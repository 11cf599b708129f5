//! # netsession-peer
//!
//! The **NetSession Interface** — the client software installed on user
//! machines (§3.3–§3.4, §3.9). It runs as a persistent background
//! application, downloads from edge servers and peers *in parallel*, and
//! takes "great care not to inconvenience the user".
//!
//! * [`prefs`] — user preferences: the upload on/off switch with its change
//!   history (Tables 3/4), and the control-panel status surface.
//! * [`cache`] — the local object cache: completed objects stay shareable
//!   for a TTL and are announced to the control plane (§5.2: "the peer
//!   keeps it in a local cache for a certain amount of time").
//! * [`picker`] — piece selection: rarest-first for peer connections, an
//!   in-order cursor for the always-on edge connection, and in-flight
//!   deduplication.
//! * [`swarm`] — the BitTorrent-like swarming protocol engine *without
//!   tit-for-tat* (§3.4): have-maps, requests, verification, and the polite
//!   `Busy` instead of choking.
//! * [`dlm`] — the Download Manager: pause/resume/abort, byte accounting
//!   split between infrastructure and peers, and usage-record emission.
//! * [`governor`] — the upload governor: the global upload-connection
//!   limit, the upstream rate fraction, idle-link backoff, and per-object
//!   upload caps (§3.9).

pub mod cache;
pub mod dlm;
pub mod governor;
pub mod picker;
pub mod prefs;
pub mod swarm;

pub use cache::ObjectCache;
pub use dlm::{Download, DownloadManager, DownloadPhase};
pub use governor::UploadGovernor;
pub use picker::PiecePicker;
pub use prefs::Preferences;
pub use swarm::SwarmSession;
