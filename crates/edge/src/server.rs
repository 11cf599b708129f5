//! Edge-server request handling.
//!
//! One [`EdgeServer`] models a regional edge deployment. It answers the two
//! HTTP(S) request kinds of §3.5 — authorization (yielding a token, the
//! policy, and the manifest) and piece downloads — and records a trusted
//! receipt for every byte it serves, which the accounting pipeline uses to
//! cross-check peer reports.

use crate::accounting::AccountingLedger;
use crate::auth::EdgeAuth;
use crate::store::ContentStore;
use netsession_core::error::{Error, Result};
use netsession_core::id::{Guid, ObjectId, VersionId};
use netsession_core::msg::{AuthToken, EdgeMsg};
use netsession_core::piece::Manifest;
use netsession_core::time::SimTime;
use netsession_core::units::ByteCount;
use netsession_obs::{MetricsRegistry, TraceCtx, TraceSink};
use std::sync::Arc;
use std::sync::Mutex;

/// A regional edge server.
pub struct EdgeServer {
    /// Which network region this server serves (see §3.7).
    pub region: u32,
    store: Arc<ContentStore>,
    auth: EdgeAuth,
    ledger: Arc<AccountingLedger>,
    served: Mutex<ByteCount>,
    metrics: MetricsRegistry,
}

/// Successful authorization response payload.
#[derive(Clone, Debug)]
pub struct Authorization {
    /// The token for control-plane queries and swarm handshakes.
    pub token: AuthToken,
    /// The provider's policy for this object.
    pub policy: netsession_core::policy::DownloadPolicy,
    /// The current manifest (piece hashes, secure content ID).
    pub manifest: Manifest,
}

impl EdgeServer {
    /// Create a server over a shared store, auth secret, and ledger.
    pub fn new(
        region: u32,
        store: Arc<ContentStore>,
        auth: EdgeAuth,
        ledger: Arc<AccountingLedger>,
    ) -> Self {
        EdgeServer {
            region,
            store,
            auth,
            ledger,
            served: Mutex::new(ByteCount::ZERO),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Attach this server's instruments to a shared registry. All edge
    /// counters are named `edge.*`:
    /// `edge.auth_grants` / `edge.auth_denials`, `edge.pieces_served`,
    /// `edge.bytes_served`, and the `edge.piece_len` histogram.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.attach_metrics(registry);
        self
    }

    /// In-place variant of [`EdgeServer::with_metrics`].
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = registry.clone();
    }

    /// The registry this server records into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Handle an authorization request (§3.5): authentication is implicit
    /// (the GUID identifies the installation); policy gates the download.
    pub fn authorize(&self, guid: Guid, object: ObjectId, now: SimTime) -> Result<Authorization> {
        let stored = match self.store.get(object) {
            Some(stored) => stored,
            None => {
                self.metrics.counter("edge.auth_denials").incr();
                return Err(Error::NotFound(format!("object {object}")));
            }
        };
        if !stored.policy.download_allowed {
            self.metrics.counter("edge.auth_denials").incr();
            return Err(Error::PolicyDenied(format!(
                "provider policy forbids downloading object {object}"
            )));
        }
        let token = self.auth.issue(guid, stored.manifest.version, now);
        self.metrics.counter("edge.auth_grants").incr();
        Ok(Authorization {
            token,
            policy: stored.policy,
            manifest: stored.manifest,
        })
    }

    /// Trace-aware [`EdgeServer::authorize`]: same behaviour, plus an
    /// `"authorize"` span in the edge layer recording the grant/deny
    /// outcome under the caller's download trace.
    pub fn authorize_traced(
        &self,
        guid: Guid,
        object: ObjectId,
        now: SimTime,
        trace: &TraceSink,
        ctx: TraceCtx,
    ) -> Result<Authorization> {
        let span = trace.span(ctx, "authorize", "edge", now.as_micros());
        let result = self.authorize(guid, object, now);
        trace.add_attr(span, "granted", result.is_ok());
        if let Err(e) = &result {
            trace.add_attr(span, "reason", e.to_string());
        }
        trace.end_span(span, now.as_micros());
        result
    }

    /// Serve one piece (simulation flavour: returns the piece's digest and
    /// length; the live runtime uses [`EdgeServer::piece_bytes`]). Records
    /// the served bytes in the ledger.
    pub fn serve_piece_digest(
        &self,
        token: &AuthToken,
        piece: u32,
        now: SimTime,
    ) -> Result<(netsession_core::Digest, u64)> {
        self.check_token(token, now)?;
        let manifest = self
            .store
            .manifest(token.version.object)
            .ok_or_else(|| Error::NotFound(format!("object {}", token.version.object)))?;
        if manifest.version != token.version {
            return Err(Error::InvalidState("token is for a stale version".into()));
        }
        if piece >= manifest.piece_count() {
            return Err(Error::NotFound(format!("piece {piece}")));
        }
        let len = manifest.piece_len(piece);
        self.record_served(token.guid, token.version, ByteCount::from_bytes(len));
        Ok((manifest.piece_hashes[piece as usize], len))
    }

    /// Serve one piece's raw bytes with its manifest digest (live runtime).
    pub fn piece_bytes(
        &self,
        token: &AuthToken,
        piece: u32,
        now: SimTime,
    ) -> Result<(Vec<u8>, netsession_core::Digest)> {
        self.check_token(token, now)?;
        let (bytes, digest) = self
            .store
            .piece_bytes(token.version, piece)
            .ok_or_else(|| Error::NotFound(format!("piece {piece} of {:?}", token.version)))?;
        self.record_served(
            token.guid,
            token.version,
            ByteCount::from_bytes(bytes.len() as u64),
        );
        Ok((bytes, digest))
    }

    /// Record served bytes directly (used by the fluid simulation, which
    /// accounts transfers continuously rather than per piece).
    pub fn record_served(&self, guid: Guid, version: VersionId, bytes: ByteCount) {
        *self.served.lock().unwrap() += bytes;
        self.metrics.counter("edge.pieces_served").incr();
        self.metrics.counter("edge.bytes_served").add(bytes.bytes());
        self.metrics
            .histogram("edge.piece_len")
            .record(bytes.bytes());
        self.ledger.record_edge_receipt(guid, version, bytes);
    }

    /// Trace-aware [`EdgeServer::record_served`]: adds an `"accounting"`
    /// marker span carrying the receipted byte count, so a download's
    /// trace shows exactly what the edge billed for it.
    pub fn record_served_traced(
        &self,
        guid: Guid,
        version: VersionId,
        bytes: ByteCount,
        trace: &TraceSink,
        ctx: TraceCtx,
        now_us: u64,
    ) {
        let span = trace.instant(ctx, "accounting", "edge", now_us);
        trace.add_attr(span, "bytes", bytes.bytes());
        self.record_served(guid, version, bytes);
    }

    /// Cross-check this server's byte counter against the ledger's edge
    /// receipts, recording the outcome as `edge.accounting_ok` /
    /// `edge.accounting_mismatch`. Returns `true` when they agree.
    pub fn verify_accounting(&self) -> bool {
        let served = self.served.lock().unwrap().bytes();
        let receipts = self.ledger.total_edge_bytes().bytes();
        let ok = served == receipts;
        let name = if ok {
            "edge.accounting_ok"
        } else {
            "edge.accounting_mismatch"
        };
        self.metrics.counter(name).incr();
        ok
    }

    fn check_token(&self, token: &AuthToken, now: SimTime) -> Result<()> {
        if !self.auth.verify(token, now) {
            return Err(Error::Unauthorized("bad or expired token".into()));
        }
        Ok(())
    }

    /// Total bytes this server has served.
    pub fn total_served(&self) -> ByteCount {
        *self.served.lock().unwrap()
    }

    /// Dispatch a wire-level [`EdgeMsg`] (used by the live runtime's
    /// request loop).
    pub fn handle(&self, msg: EdgeMsg, now: SimTime) -> EdgeMsg {
        match msg {
            EdgeMsg::Authorize { guid, version } => {
                match self.authorize(guid, version.object, now) {
                    Ok(a) => EdgeMsg::Authorized {
                        token: a.token,
                        policy: a.policy,
                        manifest: a.manifest,
                    },
                    Err(e) => EdgeMsg::Denied {
                        reason: e.to_string(),
                    },
                }
            }
            // The digest is the one the manifest already publishes: hashing
            // the piece again per request would prove nothing (the client
            // verifies the bytes against its manifest, not this field).
            EdgeMsg::GetPiece { token, piece } => match self.piece_bytes(&token, piece, now) {
                Ok((data, digest)) => EdgeMsg::PieceData {
                    piece,
                    data,
                    digest,
                },
                Err(e) => EdgeMsg::Denied {
                    reason: e.to_string(),
                },
            },
            other => EdgeMsg::Denied {
                reason: format!("unexpected request {other:?}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsession_core::policy::DownloadPolicy;

    fn fixture() -> (EdgeServer, VersionId) {
        let store = Arc::new(ContentStore::new());
        let v = store.publish_synthetic(
            ObjectId(1),
            netsession_core::id::CpCode(5),
            ByteCount::from_mib(2),
            DownloadPolicy::peer_assisted(),
        );
        let ledger = Arc::new(AccountingLedger::new());
        let server = EdgeServer::new(0, store, EdgeAuth::from_seed(1), ledger);
        (server, v)
    }

    #[test]
    fn authorize_returns_token_policy_manifest() {
        let (server, v) = fixture();
        let a = server.authorize(Guid(7), ObjectId(1), SimTime(0)).unwrap();
        assert_eq!(a.token.version, v);
        assert_eq!(a.manifest.piece_count(), 2);
        assert!(a.policy.p2p_enabled);
    }

    #[test]
    fn authorize_unknown_object_fails() {
        let (server, _) = fixture();
        assert!(matches!(
            server.authorize(Guid(7), ObjectId(404), SimTime(0)),
            Err(Error::NotFound(_))
        ));
    }

    #[test]
    fn download_denied_by_policy() {
        let store = Arc::new(ContentStore::new());
        store.publish_synthetic(
            ObjectId(2),
            netsession_core::id::CpCode(5),
            ByteCount::from_mib(1),
            netsession_core::policy::DownloadPolicy {
                download_allowed: false,
                p2p_enabled: false,
                upload_allowed: false,
                per_peer_upload_cap: None,
            },
        );
        let server = EdgeServer::new(
            0,
            store,
            EdgeAuth::from_seed(1),
            Arc::new(AccountingLedger::new()),
        );
        assert!(matches!(
            server.authorize(Guid(7), ObjectId(2), SimTime(0)),
            Err(Error::PolicyDenied(_))
        ));
    }

    #[test]
    fn piece_serving_requires_valid_token_and_counts_bytes() {
        let (server, _) = fixture();
        let a = server.authorize(Guid(7), ObjectId(1), SimTime(0)).unwrap();
        let (digest, len) = server.serve_piece_digest(&a.token, 0, SimTime(1)).unwrap();
        assert_eq!(len, 1 << 20);
        assert!(a.manifest.verify_digest(0, digest));
        assert_eq!(server.total_served().bytes(), 1 << 20);

        // Forged token fails.
        let other = EdgeAuth::from_seed(99).issue(Guid(7), a.token.version, SimTime(0));
        assert!(matches!(
            server.serve_piece_digest(&other, 0, SimTime(1)),
            Err(Error::Unauthorized(_))
        ));
        // Out-of-range piece fails.
        assert!(server.serve_piece_digest(&a.token, 99, SimTime(1)).is_err());
    }

    #[test]
    fn stale_version_tokens_rejected_after_republish() {
        let store = Arc::new(ContentStore::new());
        store.publish_synthetic(
            ObjectId(1),
            netsession_core::id::CpCode(5),
            ByteCount::from_mib(1),
            DownloadPolicy::peer_assisted(),
        );
        let ledger = Arc::new(AccountingLedger::new());
        let server = EdgeServer::new(0, store.clone(), EdgeAuth::from_seed(1), ledger);
        let a = server.authorize(Guid(7), ObjectId(1), SimTime(0)).unwrap();
        // Provider pushes a new version.
        store.publish_synthetic(
            ObjectId(1),
            netsession_core::id::CpCode(5),
            ByteCount::from_mib(1),
            DownloadPolicy::peer_assisted(),
        );
        assert!(matches!(
            server.serve_piece_digest(&a.token, 0, SimTime(1)),
            Err(Error::InvalidState(_))
        ));
    }

    #[test]
    fn wire_dispatch_roundtrip() {
        let store = Arc::new(ContentStore::new());
        let content = vec![42u8; 1500];
        store.publish_content(
            ObjectId(3),
            netsession_core::id::CpCode(5),
            content,
            1000,
            DownloadPolicy::infrastructure_only(),
        );
        let server = EdgeServer::new(
            0,
            store,
            EdgeAuth::from_seed(1),
            Arc::new(AccountingLedger::new()),
        );
        let resp = server.handle(
            EdgeMsg::Authorize {
                guid: Guid(7),
                version: VersionId {
                    object: ObjectId(3),
                    version: 1,
                },
            },
            SimTime(0),
        );
        let token = match resp {
            EdgeMsg::Authorized {
                token, manifest, ..
            } => {
                assert_eq!(manifest.piece_count(), 2);
                token
            }
            other => panic!("expected Authorized, got {other:?}"),
        };
        match server.handle(EdgeMsg::GetPiece { token, piece: 1 }, SimTime(1)) {
            EdgeMsg::PieceData { data, digest, .. } => {
                assert_eq!(data.len(), 500);
                assert_eq!(digest, netsession_core::hash::sha256(&data));
            }
            other => panic!("expected PieceData, got {other:?}"),
        }
    }
}
