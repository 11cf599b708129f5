//! # netsession-logs
//!
//! The production-style log pipeline (§4.1). The simulation emits the same
//! record kinds the paper's data set contains — download records from the
//! CNs, login records, DN registration logs, and per-transfer p2p byte
//! flows — plus an EdgeScape-style geolocation database keyed by IP. The
//! analytics crate consumes a [`TraceDataset`] exactly the way the paper's
//! authors consumed their logs.

pub mod dataset;
pub mod geodb;
pub mod records;
pub mod sink;

pub use dataset::TraceDataset;
pub use geodb::{EdgeScapeDb, GeoInfo};
pub use records::{DownloadOutcome, DownloadRecord, LoginRecord, TransferRecord};
pub use sink::{
    DigestSink, DigestTriple, ProfileDigest, RecordSink, SeriesDigest, StreamingSummary, Tee,
};
