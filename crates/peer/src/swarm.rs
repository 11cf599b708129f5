//! Swarming protocol engine (download side).
//!
//! "For downloads from peers, it uses a swarming protocol not unlike
//! BitTorrent's. As in BitTorrent, objects are broken into fixed-size
//! pieces that can be downloaded and their content hashes verified
//! separately, and peers exchange information about which pieces of the
//! file they have locally available. A key difference to BitTorrent is the
//! absence of an incentive mechanism … There is no tit-for-tat strategy
//! that would 'choke' slow uploaders" (§3.4).
//!
//! "If a peer cannot validate a file piece, it discards the piece and does
//! not upload it to other peers" (§3.5) — a corrupt piece is dropped,
//! re-requested elsewhere, and reported.

use crate::picker::PiecePicker;

use netsession_core::hash::Digest;
use netsession_core::id::Guid;
use netsession_core::msg::SwarmMsg;
use netsession_core::piece::{Manifest, PieceIndex, PieceMap};
use netsession_core::rng::DetRng;
use netsession_obs::MetricsRegistry;
use std::collections::HashMap;

/// State kept per connected remote peer.
#[derive(Clone, Debug)]
pub struct RemotePeer {
    /// The remote's have-map.
    pub map: PieceMap,
    /// The piece we currently have requested from it, if any.
    pub in_flight: Option<PieceIndex>,
    /// Pieces received and verified from this peer.
    pub pieces_received: u32,
    /// Corrupt pieces received from this peer (for peer quality tracking).
    pub corrupt_received: u32,
}

/// What the engine wants the caller to do.
#[derive(Clone, Debug, PartialEq)]
pub enum SwarmEvent {
    /// Send a message to a remote peer.
    Send(Guid, SwarmMsg),
    /// A piece arrived and verified.
    PieceVerified(PieceIndex),
    /// The download is complete.
    Completed,
    /// A corrupt piece arrived from this peer (discarded, §3.5).
    CorruptPiece(Guid, PieceIndex),
}

/// Download-side swarm engine for one object.
pub struct SwarmSession {
    manifest: Manifest,
    mine: PieceMap,
    picker: PiecePicker,
    remotes: HashMap<Guid, RemotePeer>,
    metrics: MetricsRegistry,
    /// Simulation flavour: a piece that carries no bytes is verified by
    /// its digest alone. Off in a live session, where the manifest's
    /// digests are public and only the bytes prove a piece.
    trust_digests: bool,
}

impl SwarmSession {
    /// Start a simulation-flavour session, resuming from an existing
    /// piece map if the cache holds partial progress. Transfers here may
    /// carry digests instead of bytes: a piece with no bytes is verified
    /// by its digest.
    pub fn new(manifest: Manifest, mine: PieceMap) -> Self {
        assert_eq!(mine.len(), manifest.piece_count());
        let picker = PiecePicker::new(manifest.piece_count());
        SwarmSession {
            manifest,
            mine,
            picker,
            remotes: HashMap::new(),
            metrics: MetricsRegistry::new(),
            trust_digests: true,
        }
    }

    /// Start a live session: every piece is verified by its bytes, so a
    /// piece that carries none fails whatever digest it claims.
    pub fn live(manifest: Manifest, mine: PieceMap) -> Self {
        SwarmSession {
            trust_digests: false,
            ..SwarmSession::new(manifest, mine)
        }
    }

    /// Attach passive piece-outcome instruments to `registry`:
    /// `peer.swarm_pieces_from_peers`, `peer.swarm_pieces_from_edge`,
    /// `peer.swarm_pieces_corrupt`, and `peer.swarm_peers_joined` /
    /// `peer.swarm_peers_left`.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = registry.clone();
        self
    }

    /// The local have-map.
    pub fn mine(&self) -> &PieceMap {
        &self.mine
    }

    /// Whether every piece is present.
    pub fn is_complete(&self) -> bool {
        self.mine.is_complete()
    }

    /// Connected remote count.
    pub fn remote_count(&self) -> usize {
        self.remotes.len()
    }

    /// A remote finished handshaking and sent its have-map. Returns
    /// follow-up actions (typically an immediate request). A map whose
    /// length is not the manifest's piece count is a failed join: the
    /// remote is not added and nothing is returned.
    pub fn on_peer_joined(
        &mut self,
        guid: Guid,
        their_map: PieceMap,
        rng: &mut DetRng,
    ) -> Vec<SwarmEvent> {
        if their_map.len() != self.manifest.piece_count() {
            return Vec::new();
        }
        self.picker.peer_joined(&their_map);
        self.metrics.counter("peer.swarm_peers_joined").incr();
        self.remotes.insert(
            guid,
            RemotePeer {
                map: their_map,
                in_flight: None,
                pieces_received: 0,
                corrupt_received: 0,
            },
        );
        self.pump_one(guid, rng).into_iter().collect()
    }

    /// A remote disconnected; its in-flight request is returned to the
    /// pool.
    pub fn on_peer_left(&mut self, guid: Guid) {
        if let Some(remote) = self.remotes.remove(&guid) {
            self.metrics.counter("peer.swarm_peers_left").incr();
            self.picker.peer_left(&remote.map);
            if let Some(p) = remote.in_flight {
                self.picker.request_finished(p);
            }
        }
    }

    /// Handle an incoming message from `from`.
    pub fn on_message(&mut self, from: Guid, msg: SwarmMsg, rng: &mut DetRng) -> Vec<SwarmEvent> {
        let mut out = Vec::new();
        match msg {
            SwarmMsg::Have { piece } => {
                if let Some(remote) = self.remotes.get_mut(&from) {
                    if piece < remote.map.len() && remote.map.set(piece) {
                        self.picker.have_announced(piece);
                    }
                }
                if let Some(ev) = self.pump_one(from, rng) {
                    out.push(ev);
                }
            }
            SwarmMsg::Piece {
                piece,
                data,
                digest,
            } => return self.on_peer_piece(from, piece, &data, digest, rng),
            SwarmMsg::Busy => {
                // The polite replacement for choking: free the in-flight
                // slot; the piece goes back to the pool.
                if let Some(remote) = self.remotes.get_mut(&from) {
                    if let Some(p) = remote.in_flight.take() {
                        self.picker.request_finished(p);
                    }
                }
            }
            SwarmMsg::Goodbye => {
                self.on_peer_left(from);
            }
            // Handshake/HaveMap are handled by the connection layer;
            // Request/Cancel belong to the upload side.
            _ => {}
        }
        out
    }

    /// Handle a [`SwarmMsg::Piece`] from a remote, borrowing the bytes: a
    /// caller that keeps verified pieces (the live daemon) holds on to
    /// `data` and stores it when a `PieceVerified` comes back. A piece
    /// that does not answer the remote's outstanding request is dropped
    /// unread, so a remote cannot free another source's request.
    pub fn on_peer_piece(
        &mut self,
        from: Guid,
        piece: PieceIndex,
        data: &[u8],
        digest: Digest,
        rng: &mut DetRng,
    ) -> Vec<SwarmEvent> {
        let mut out = Vec::new();
        if self.remotes.get(&from).and_then(|r| r.in_flight) != Some(piece) {
            return out;
        }
        let ok = self.verify(piece, data, digest);
        self.picker.request_finished(piece);
        if let Some(remote) = self.remotes.get_mut(&from) {
            remote.in_flight = None;
            if ok {
                remote.pieces_received += 1;
            } else {
                remote.corrupt_received += 1;
            }
        }
        if ok {
            if self.mine.set(piece) {
                self.metrics.counter("peer.swarm_pieces_from_peers").incr();
                out.push(SwarmEvent::PieceVerified(piece));
                // Announce to everyone else (they may want it).
                for guid in self.remotes.keys() {
                    out.push(SwarmEvent::Send(*guid, SwarmMsg::Have { piece }));
                }
                if self.mine.is_complete() {
                    out.push(SwarmEvent::Completed);
                }
            }
        } else {
            self.metrics.counter("peer.swarm_pieces_corrupt").incr();
            out.push(SwarmEvent::CorruptPiece(from, piece));
        }
        if !self.mine.is_complete() {
            if let Some(ev) = self.pump_one(from, rng) {
                out.push(ev);
            }
        }
        out
    }

    /// Issue a request to `guid` if it is idle and has something we need.
    fn pump_one(&mut self, guid: Guid, rng: &mut DetRng) -> Option<SwarmEvent> {
        let remote = self.remotes.get_mut(&guid)?;
        if remote.in_flight.is_some() || self.mine.is_complete() {
            return None;
        }
        let piece = self.picker.next_for_peer(&self.mine, &remote.map, rng)?;
        remote.in_flight = Some(piece);
        Some(SwarmEvent::Send(guid, SwarmMsg::Request { piece }))
    }

    /// Pick the next piece to fetch over the always-on edge connection
    /// (§3.3: "the download from the edge servers continues in parallel").
    /// Marks the piece in flight.
    pub fn next_edge_piece(&mut self) -> Option<PieceIndex> {
        self.picker.next_for_edge(&self.mine)
    }

    /// An edge piece arrived: verify and record it. Content may be raw
    /// bytes (live runtime) or empty-with-digest (simulation flavour).
    pub fn on_edge_piece(
        &mut self,
        piece: PieceIndex,
        data: &[u8],
        digest: Digest,
    ) -> Vec<SwarmEvent> {
        let ok = self.verify(piece, data, digest);
        self.picker.request_finished(piece);
        let mut out = Vec::new();
        if ok && self.mine.set(piece) {
            self.metrics.counter("peer.swarm_pieces_from_edge").incr();
            out.push(SwarmEvent::PieceVerified(piece));
            for guid in self.remotes.keys() {
                out.push(SwarmEvent::Send(*guid, SwarmMsg::Have { piece }));
            }
            if self.mine.is_complete() {
                out.push(SwarmEvent::Completed);
            }
        }
        out
    }

    /// Check a piece against the manifest: by its bytes, or by its digest
    /// alone when it carries none and the session trusts digests.
    fn verify(&self, piece: PieceIndex, data: &[u8], digest: Digest) -> bool {
        if self.trust_digests && data.is_empty() {
            self.manifest.verify_digest(piece, digest)
        } else {
            self.manifest.verify_piece(piece, data)
        }
    }

    /// Issue requests to every idle remote (call after joins/stalls).
    pub fn pump_all(&mut self, rng: &mut DetRng) -> Vec<SwarmEvent> {
        let guids: Vec<Guid> = self.remotes.keys().copied().collect();
        guids
            .into_iter()
            .filter_map(|g| self.pump_one(g, rng))
            .collect()
    }

    /// Pieces verified from each remote (quality telemetry).
    pub fn remote_stats(&self) -> impl Iterator<Item = (Guid, u32, u32)> + '_ {
        self.remotes
            .iter()
            .map(|(g, r)| (*g, r.pieces_received, r.corrupt_received))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsession_core::id::{ObjectId, VersionId};
    use netsession_core::units::ByteCount;

    fn manifest(pieces: u64) -> Manifest {
        Manifest::synthetic(
            VersionId {
                object: ObjectId(1),
                version: 1,
            },
            ByteCount::from_bytes(pieces * 1000),
            1000,
        )
    }

    fn good_piece(m: &Manifest, piece: PieceIndex) -> SwarmMsg {
        SwarmMsg::Piece {
            piece,
            data: vec![],
            digest: m.piece_hashes[piece as usize],
        }
    }

    #[test]
    fn requests_flow_on_join_and_complete() {
        let m = manifest(3);
        let mut s = SwarmSession::new(m.clone(), PieceMap::empty(3));
        let mut rng = DetRng::seeded(1);
        let seeder = Guid(9);
        let events = s.on_peer_joined(seeder, PieceMap::full(3), &mut rng);
        let first = match &events[0] {
            SwarmEvent::Send(g, SwarmMsg::Request { piece }) => {
                assert_eq!(*g, seeder);
                *piece
            }
            other => panic!("expected request, got {other:?}"),
        };
        // Deliver pieces until complete.
        let mut next = first;
        for round in 0..3 {
            let events = s.on_message(seeder, good_piece(&m, next), &mut rng);
            assert!(events.contains(&SwarmEvent::PieceVerified(next)));
            if round == 2 {
                assert!(events.contains(&SwarmEvent::Completed));
            } else {
                next = events
                    .iter()
                    .find_map(|e| match e {
                        SwarmEvent::Send(_, SwarmMsg::Request { piece }) => Some(*piece),
                        _ => None,
                    })
                    .expect("next request");
            }
        }
        assert!(s.is_complete());
    }

    #[test]
    fn corrupt_piece_discarded_and_rerequested() {
        let m = manifest(2);
        let mut s = SwarmSession::new(m.clone(), PieceMap::empty(2));
        let mut rng = DetRng::seeded(2);
        let seeder = Guid(9);
        let events = s.on_peer_joined(seeder, PieceMap::full(2), &mut rng);
        let piece = match &events[0] {
            SwarmEvent::Send(_, SwarmMsg::Request { piece }) => *piece,
            _ => panic!(),
        };
        let bad = SwarmMsg::Piece {
            piece,
            data: vec![],
            digest: netsession_core::hash::sha256(b"garbage"),
        };
        let events = s.on_message(seeder, bad, &mut rng);
        assert!(events.contains(&SwarmEvent::CorruptPiece(seeder, piece)));
        assert!(!s.mine().has(piece), "corrupt piece must be discarded");
        // The piece is requestable again (possibly from the same peer).
        let rerequested = events.iter().any(
            |e| matches!(e, SwarmEvent::Send(_, SwarmMsg::Request { piece: p }) if *p == piece),
        ) || s
            .pump_all(&mut rng)
            .iter()
            .any(|e| matches!(e, SwarmEvent::Send(_, SwarmMsg::Request { .. })));
        assert!(rerequested);
        let (_, ok, corrupt) = s.remote_stats().next().unwrap();
        assert_eq!((ok, corrupt), (0, 1));
    }

    #[test]
    fn busy_peer_releases_request_no_choke_retaliation() {
        let m = manifest(2);
        let mut s = SwarmSession::new(m, PieceMap::empty(2));
        let mut rng = DetRng::seeded(3);
        let a = Guid(1);
        let b = Guid(2);
        s.on_peer_joined(a, PieceMap::full(2), &mut rng);
        s.on_peer_joined(b, PieceMap::full(2), &mut rng);
        // Peer A says Busy: its in-flight piece returns to the pool and can
        // be requested from B.
        s.on_message(a, SwarmMsg::Busy, &mut rng);
        let events = s.pump_all(&mut rng);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SwarmEvent::Send(g, SwarmMsg::Request { .. }) if *g == a)),
            "no retaliation: the busy peer may be asked again later"
        );
    }

    #[test]
    fn have_announcements_update_availability_and_trigger_requests() {
        let m = manifest(2);
        let mut s = SwarmSession::new(m, PieceMap::empty(2));
        let mut rng = DetRng::seeded(4);
        let a = Guid(1);
        // A has nothing yet.
        let events = s.on_peer_joined(a, PieceMap::empty(2), &mut rng);
        assert!(events.is_empty(), "nothing to request yet");
        // A announces piece 1.
        let events = s.on_message(a, SwarmMsg::Have { piece: 1 }, &mut rng);
        assert!(events
            .iter()
            .any(|e| matches!(e, SwarmEvent::Send(_, SwarmMsg::Request { piece: 1 }))));
    }

    #[test]
    fn peer_departure_frees_inflight() {
        let m = manifest(1);
        let mut s = SwarmSession::new(m, PieceMap::empty(1));
        let mut rng = DetRng::seeded(5);
        let a = Guid(1);
        let b = Guid(2);
        s.on_peer_joined(a, PieceMap::full(1), &mut rng);
        // Piece 0 is in flight to A; B joins and has nothing to do.
        assert!(s.on_peer_joined(b, PieceMap::full(1), &mut rng).is_empty());
        s.on_peer_left(a);
        // Now B can pick it up.
        let events = s.pump_all(&mut rng);
        assert!(events
            .iter()
            .any(|e| matches!(e, SwarmEvent::Send(g, SwarmMsg::Request { piece: 0 }) if *g == b)));
    }

    #[test]
    fn resume_from_partial_map_only_requests_missing() {
        let m = manifest(3);
        let mut mine = PieceMap::empty(3);
        mine.set(0);
        mine.set(2);
        let mut s = SwarmSession::new(m.clone(), mine);
        let mut rng = DetRng::seeded(6);
        let events = s.on_peer_joined(Guid(1), PieceMap::full(3), &mut rng);
        match &events[0] {
            SwarmEvent::Send(_, SwarmMsg::Request { piece }) => assert_eq!(*piece, 1),
            other => panic!("{other:?}"),
        }
        let events = s.on_message(Guid(1), good_piece(&m, 1), &mut rng);
        assert!(events.contains(&SwarmEvent::Completed));
    }
}
