//! The download coordinator (§3.3–§3.4) as a sans-IO state machine.
//!
//! A [`Download`] runs one object from "authorized" — manifest and policy
//! in hand — to done or failed. It does no IO and reads no clock: every
//! [`Input`] carries `now`, microseconds since the download started, every
//! decision comes back as an [`Action`] for the driver to carry out, and
//! [`Download::next_wake`] says when the driver must tick it if nothing
//! else arrives. The live daemon (`netsession_net::peer_daemon`) drives
//! it from sockets and threads on the wall clock; the tests below drive it
//! from scripts on a virtual clock.
//!
//! The flow: ask the control plane for peers (p2p objects only), dial
//! what it offers, swarm from the peers that join, and keep the edge
//! backstop busy on whatever they don't cover. Every piece is verified by
//! its bytes before it is kept (§3.5), and a source that sends a corrupt
//! piece is reported once (§3.6).

use crate::swarm::{SwarmEvent, SwarmSession};
use netsession_core::hash::Digest;
use netsession_core::id::{Guid, ObjectId};
use netsession_core::msg::{PeerContact, ProblemKind, SwarmMsg};
use netsession_core::piece::{Manifest, PieceIndex, PieceMap};
use netsession_core::policy::DownloadPolicy;
use netsession_core::rng::DetRng;
use netsession_core::time::{SimDuration, SimTime};
use netsession_obs::{Histogram, MetricsRegistry};
use std::collections::HashSet;

/// Most peers one download asks the control plane for, and most it dials.
/// The simulator asks for `ScenarioConfig::peers_returned`
/// (`DEFAULT_PEERS_RETURNED`, 40) and connects every compatible contact.
pub const MAX_PEERS: usize = 8;

/// How long the control plane has to answer the peer query before the
/// download goes on edge-only. The simulator's query is a function call
/// that answers at once, so it has no timeout.
pub const QUERY_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// When the query offered peers, how long the edge backstop waits so
/// their handshakes get a head start: on a fast link the edge would
/// otherwise win the race for every piece (§3.3: the edge covers what the
/// peers don't, it doesn't compete with them). The simulator attaches the
/// edge at once, as a parallel flow capped at a fair share of the
/// downlink (`update_edge_ceil` in `netsession_hybrid`).
pub const EDGE_HOLD: SimDuration = SimDuration::from_millis(400);

/// How long the transfer may run, counted from when the peer query
/// settles, before the download fails. The simulator has no deadline: a
/// download ends by completing, by the user model abandoning it, or by
/// its failure model.
pub const DEADLINE: SimDuration = SimDuration::from_secs(60);

/// Edge piece requests outstanding at once. The simulator's edge is a
/// fluid flow, not a sequence of requests.
pub const EDGE_REQUESTS_IN_FLIGHT: usize = 1;

/// What the driver feeds the machine, each with its `now`.
#[derive(Clone, Debug)]
pub enum Input {
    /// The control plane answered the peer query.
    PeerList(Vec<PeerContact>),
    /// The peer query could not be sent, or the control link failed
    /// before it was answered.
    QueryFailed,
    /// A dialed peer finished its handshake and sent its have-map.
    Joined(Guid, PieceMap),
    /// A dialed peer's connection ended, or never opened.
    Left(Guid),
    /// A message from a peer.
    PeerMsg(Guid, SwarmMsg),
    /// The edge answered a piece request: the piece, its bytes and the
    /// digest the edge sent with it.
    EdgePiece(PieceIndex, Vec<u8>, Digest),
    /// The edge connection failed: no further edge piece will come.
    EdgeFailed,
    /// Nothing arrived by [`Download::next_wake`].
    Tick,
}

/// What the machine asks the driver to do.
#[derive(Debug, PartialEq)]
pub enum Action {
    /// Ask the control plane for at most `max_peers` contacts; answer
    /// with [`Input::PeerList`] or [`Input::QueryFailed`].
    QueryControl {
        /// The peer cap, [`MAX_PEERS`].
        max_peers: u32,
    },
    /// The peer query is over.
    QueryEnded(QueryEnd),
    /// Connect to this contact; answer with [`Input::Joined`] or
    /// [`Input::Left`].
    Dial(PeerContact),
    /// Send a message to a joined peer.
    Send(Guid, SwarmMsg),
    /// Ask the edge for a piece; answer with [`Input::EdgePiece`] or
    /// [`Input::EdgeFailed`].
    RequestEdge(PieceIndex),
    /// Push a problem report to the monitoring node (§3.6).
    Report(ProblemKind, String),
    /// Every piece is verified. The machine takes no further input.
    Done(Completion),
    /// The download failed; a [`ProblemKind::DownloadFailure`] report
    /// precedes this. The machine takes no further input.
    Failed,
}

/// How the peer query ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryEnd {
    /// The control plane offered this many contacts.
    Answered(usize),
    /// No answer within [`QUERY_TIMEOUT`].
    TimedOut,
    /// The query could not be sent or its link failed.
    Failed,
}

/// A finished download: the object and where its bytes came from.
#[derive(Debug, PartialEq)]
pub struct Completion {
    /// The assembled, verified content.
    pub content: Vec<u8>,
    /// Bytes of verified pieces the edge supplied.
    pub bytes_from_edge: u64,
    /// Bytes of verified pieces peers supplied.
    pub bytes_from_peers: u64,
    /// Peers that supplied at least one verified piece.
    pub peer_sources: usize,
}

#[derive(PartialEq)]
enum Phase {
    /// Waiting for the control plane's answer.
    Querying,
    /// Fetching from the edge and from the peers that join.
    Fetching,
    /// Done or failed.
    Over,
}

/// One download's coordinator.
pub struct Download {
    session: SwarmSession,
    rng: DetRng,
    phase: Phase,
    object: ObjectId,
    /// The latest `now` seen.
    now: SimTime,
    /// While fetching: the edge is held back until `edge_from`, and the
    /// download fails at `deadline`.
    edge_from: SimTime,
    deadline: SimTime,
    content: Vec<u8>,
    piece_size: usize,
    bytes_from_edge: u64,
    bytes_from_peers: u64,
    contributors: HashSet<Guid>,
    /// Dialed peers that have neither joined nor left.
    dialing: HashSet<Guid>,
    /// Edge requests awaiting an answer.
    edge_requests: Vec<PieceIndex>,
    edge_alive: bool,
    /// Sources already reported for a corrupt piece.
    reported: HashSet<Guid>,
    piece_bytes: Histogram,
}

impl Download {
    /// Start the download at `now` = 0. The session and the machine record
    /// into `metrics`: `peer.swarm_*` and `net.peer.piece_bytes`.
    pub fn start(
        manifest: Manifest,
        policy: &DownloadPolicy,
        rng: DetRng,
        metrics: &MetricsRegistry,
    ) -> (Download, Vec<Action>) {
        let mine = PieceMap::empty(manifest.piece_count());
        let mut d = Download {
            content: vec![0; manifest.size.bytes() as usize],
            piece_size: manifest.piece_size as usize,
            object: manifest.version.object,
            session: SwarmSession::live(manifest, mine).with_metrics(metrics),
            rng,
            phase: Phase::Querying,
            now: SimTime::ZERO,
            edge_from: SimTime::ZERO,
            deadline: SimTime::ZERO,
            bytes_from_edge: 0,
            bytes_from_peers: 0,
            contributors: HashSet::new(),
            dialing: HashSet::new(),
            edge_requests: Vec::new(),
            edge_alive: true,
            reported: HashSet::new(),
            piece_bytes: metrics.histogram("net.peer.piece_bytes"),
        };
        let mut out = Vec::new();
        if policy.p2p_enabled {
            out.push(Action::QueryControl {
                max_peers: MAX_PEERS as u32,
            });
        } else {
            d.fetch(&[]);
        }
        d.advance(&mut out);
        (d, out)
    }

    /// When the driver must call [`Download::step`] with [`Input::Tick`]
    /// if no other input arrives first; `None` once the download is over.
    pub fn next_wake(&self) -> Option<SimTime> {
        match self.phase {
            Phase::Querying => Some(SimTime::ZERO + QUERY_TIMEOUT),
            Phase::Fetching if self.edge_from > self.now => Some(self.edge_from.min(self.deadline)),
            Phase::Fetching => Some(self.deadline),
            Phase::Over => None,
        }
    }

    /// Feed one input at `now`.
    pub fn step(&mut self, now: SimTime, input: Input) -> Vec<Action> {
        let mut out = Vec::new();
        if self.phase == Phase::Over {
            return out;
        }
        self.now = self.now.max(now);
        let querying = self.phase == Phase::Querying;
        match input {
            Input::PeerList(contacts) if querying => {
                out.push(Action::QueryEnded(QueryEnd::Answered(contacts.len())));
                for contact in contacts.iter().take(MAX_PEERS) {
                    if self.dialing.insert(contact.guid) {
                        out.push(Action::Dial(contact.clone()));
                    }
                }
                self.fetch(&contacts);
            }
            Input::QueryFailed if querying => {
                out.push(Action::QueryEnded(QueryEnd::Failed));
                self.fetch(&[]);
            }
            Input::Joined(guid, map) => {
                if self.dialing.remove(&guid) {
                    let events = self.session.on_peer_joined(guid, map, &mut self.rng);
                    self.absorb(events, &mut out);
                }
            }
            Input::Left(guid) => {
                self.dialing.remove(&guid);
                self.session.on_peer_left(guid);
            }
            Input::PeerMsg(
                guid,
                SwarmMsg::Piece {
                    piece,
                    data,
                    digest,
                },
            ) => {
                let events = self
                    .session
                    .on_peer_piece(guid, piece, &data, digest, &mut self.rng);
                if self.keep(&events, piece, &data) {
                    self.bytes_from_peers += data.len() as u64;
                    self.contributors.insert(guid);
                }
                self.absorb(events, &mut out);
            }
            Input::PeerMsg(guid, msg) => {
                let events = self.session.on_message(guid, msg, &mut self.rng);
                self.absorb(events, &mut out);
            }
            Input::EdgePiece(piece, data, digest) => {
                if let Some(i) = self.edge_requests.iter().position(|&p| p == piece) {
                    self.edge_requests.swap_remove(i);
                    let events = self.session.on_edge_piece(piece, &data, digest);
                    if self.keep(&events, piece, &data) {
                        self.bytes_from_edge += data.len() as u64;
                    }
                    self.absorb(events, &mut out);
                }
            }
            Input::EdgeFailed => self.edge_alive = false,
            Input::PeerList(_) | Input::QueryFailed | Input::Tick => {}
        }
        self.advance(&mut out);
        out
    }

    /// The peer query settled with `contacts` (already dialed): start
    /// the deadline, and hold the edge back if there are peers to wait
    /// for.
    fn fetch(&mut self, contacts: &[PeerContact]) {
        let hold = if contacts.is_empty() {
            SimDuration::ZERO
        } else {
            EDGE_HOLD
        };
        self.phase = Phase::Fetching;
        self.edge_from = self.now + hold;
        self.deadline = self.now + DEADLINE;
    }

    /// Act on the clock and on the session's progress: time the query
    /// out, finish, fail, or keep the edge busy.
    fn advance(&mut self, out: &mut Vec<Action>) {
        if self.phase == Phase::Querying && self.now >= SimTime::ZERO + QUERY_TIMEOUT {
            out.push(Action::QueryEnded(QueryEnd::TimedOut));
            self.fetch(&[]);
        }
        if self.phase != Phase::Fetching {
            return;
        }
        if self.session.is_complete() {
            self.phase = Phase::Over;
            out.push(Action::Done(Completion {
                content: std::mem::take(&mut self.content),
                bytes_from_edge: self.bytes_from_edge,
                bytes_from_peers: self.bytes_from_peers,
                peer_sources: self.contributors.len(),
            }));
            return;
        }
        let stalled =
            !self.edge_alive && self.dialing.is_empty() && self.session.remote_count() == 0;
        if self.now >= self.deadline || stalled {
            self.phase = Phase::Over;
            let why = if stalled { "stalled" } else { "timed out" };
            out.push(Action::Report(
                ProblemKind::DownloadFailure,
                format!("object {} {why}", self.object.0),
            ));
            out.push(Action::Failed);
            return;
        }
        while self.edge_alive
            && self.now >= self.edge_from
            && self.edge_requests.len() < EDGE_REQUESTS_IN_FLIGHT
        {
            let Some(piece) = self.session.next_edge_piece() else {
                break;
            };
            self.edge_requests.push(piece);
            out.push(Action::RequestEdge(piece));
        }
    }

    /// If the session verified `piece`, copy it to its offset. Returns
    /// whether it did.
    fn keep(&mut self, events: &[SwarmEvent], piece: PieceIndex, data: &[u8]) -> bool {
        let verified = events.contains(&SwarmEvent::PieceVerified(piece));
        if verified {
            self.piece_bytes.record(data.len() as u64);
            let at = piece as usize * self.piece_size;
            self.content[at..at + data.len()].copy_from_slice(data);
        }
        verified
    }

    /// Turn the session's events into actions, reporting each corrupt
    /// source once.
    fn absorb(&mut self, events: Vec<SwarmEvent>, out: &mut Vec<Action>) {
        for event in events {
            match event {
                SwarmEvent::Send(guid, msg) => out.push(Action::Send(guid, msg)),
                SwarmEvent::CorruptPiece(guid, piece) if self.reported.insert(guid) => {
                    out.push(Action::Report(
                        ProblemKind::VerificationFailure,
                        format!(
                            "piece {piece} from peer {:016x} failed verification",
                            guid.0 as u64
                        ),
                    ))
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsession_core::id::{AsNumber, VersionId};
    use netsession_core::msg::{NatType, PeerAddr};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const PIECE: u64 = 64;

    /// A 7-piece object whose last piece is short.
    fn object() -> (Vec<u8>, Manifest) {
        let content: Vec<u8> = (0..6 * PIECE + 40).map(|i| (i * 7 + 3) as u8).collect();
        let version = VersionId {
            object: ObjectId(1),
            version: 1,
        };
        let manifest = Manifest::from_content(version, &content, PIECE);
        (content, manifest)
    }

    fn ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn contact(guid: u128) -> PeerContact {
        PeerContact {
            guid: Guid(guid),
            addr: PeerAddr {
                ip: 0x7f00_0001,
                port: 1000 + guid as u16,
            },
            asn: AsNumber(1),
            nat: NatType::Open,
        }
    }

    fn start(p2p: bool) -> (Download, Vec<Action>, Vec<u8>, Manifest) {
        let (content, manifest) = object();
        let policy = if p2p {
            DownloadPolicy::peer_assisted()
        } else {
            DownloadPolicy::infrastructure_only()
        };
        let metrics = MetricsRegistry::new();
        let (d, actions) = Download::start(manifest.clone(), &policy, DetRng::seeded(7), &metrics);
        (d, actions, content, manifest)
    }

    fn bytes(content: &[u8], piece: PieceIndex) -> Vec<u8> {
        let at = (piece as u64 * PIECE) as usize;
        content[at..(at + PIECE as usize).min(content.len())].to_vec()
    }

    fn edge_piece(content: &[u8], m: &Manifest, piece: PieceIndex) -> Input {
        Input::EdgePiece(piece, bytes(content, piece), m.piece_hashes[piece as usize])
    }

    fn peer_piece(guid: u128, piece: PieceIndex, data: Vec<u8>, m: &Manifest) -> Input {
        let digest = m.piece_hashes[piece as usize];
        Input::PeerMsg(
            Guid(guid),
            SwarmMsg::Piece {
                piece,
                data,
                digest,
            },
        )
    }

    fn requested(actions: &[Action]) -> Vec<(Guid, PieceIndex)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(g, SwarmMsg::Request { piece }) => Some((*g, *piece)),
                _ => None,
            })
            .collect()
    }

    fn edge_requested(actions: &[Action]) -> Option<PieceIndex> {
        actions.iter().find_map(|a| match a {
            Action::RequestEdge(p) => Some(*p),
            _ => None,
        })
    }

    /// Split off the `Done` that ends a batch, if it does.
    fn split_done(mut actions: Vec<Action>) -> (Vec<Action>, Option<Completion>) {
        match actions.pop() {
            Some(Action::Done(done)) => (actions, Some(done)),
            last => {
                actions.extend(last);
                (actions, None)
            }
        }
    }

    /// Answer every edge request honestly until the download is over.
    fn finish_from_edge(
        d: &mut Download,
        mut actions: Vec<Action>,
        at: SimTime,
        content: &[u8],
        m: &Manifest,
    ) -> Completion {
        loop {
            let (rest, done) = split_done(actions);
            if let Some(done) = done {
                return done;
            }
            actions = rest;
            let piece = edge_requested(&actions).expect("the edge is kept busy");
            actions = d.step(at, edge_piece(content, m, piece));
        }
    }

    #[test]
    fn edge_only_starts_the_edge_at_zero() {
        let (mut d, actions, content, m) = start(false);
        assert_eq!(actions, vec![Action::RequestEdge(0)]);
        let done = finish_from_edge(&mut d, actions, ms(1), &content, &m);
        assert_eq!(done.bytes_from_edge, content.len() as u64);
        assert_eq!((done.bytes_from_peers, done.peer_sources), (0, 0));
        assert_eq!(done.content, content);
        assert_eq!(d.next_wake(), None);
    }

    #[test]
    fn contacts_hold_the_edge_until_a_tick_at_the_boundary() {
        let (mut d, actions, _, _) = start(true);
        assert_eq!(
            actions,
            vec![Action::QueryControl {
                max_peers: MAX_PEERS as u32
            }]
        );
        assert_eq!(d.next_wake(), Some(SimTime::ZERO + QUERY_TIMEOUT));
        let contacts: Vec<PeerContact> = (1..=10).map(contact).collect();
        let actions = d.step(ms(5), Input::PeerList(contacts.clone()));
        let mut expected = vec![Action::QueryEnded(QueryEnd::Answered(10))];
        expected.extend(contacts[..MAX_PEERS].iter().cloned().map(Action::Dial));
        assert_eq!(actions, expected, "the peer cap bounds the dials");
        let boundary = ms(5) + EDGE_HOLD;
        assert_eq!(d.next_wake(), Some(boundary));
        assert!(d.step(ms(404), Input::Tick).is_empty());
        assert_eq!(d.step(boundary, Input::Tick), vec![Action::RequestEdge(0)]);
        assert_eq!(d.next_wake(), Some(ms(5) + DEADLINE));
    }

    #[test]
    fn query_timeout_degrades_to_edge_only() {
        let (mut d, _, content, m) = start(true);
        let timeout = SimTime::ZERO + QUERY_TIMEOUT;
        assert!(d.step(ms(2_999), Input::Tick).is_empty());
        let actions = d.step(timeout, Input::Tick);
        assert_eq!(
            actions,
            vec![
                Action::QueryEnded(QueryEnd::TimedOut),
                Action::RequestEdge(0)
            ]
        );
        // A late answer dials nobody.
        let late = d.step(timeout, Input::PeerList(vec![contact(1)]));
        assert!(late.is_empty());
        let done = finish_from_edge(&mut d, actions, timeout, &content, &m);
        assert_eq!(done.bytes_from_edge, content.len() as u64);
    }

    #[test]
    fn deadline_fails_the_download_with_a_report() {
        let (mut d, actions, _, _) = start(false);
        assert_eq!(actions, vec![Action::RequestEdge(0)]);
        let deadline = SimTime::ZERO + DEADLINE;
        assert_eq!(d.next_wake(), Some(deadline));
        assert!(d.step(ms(59_999), Input::Tick).is_empty());
        assert_eq!(
            d.step(deadline, Input::Tick),
            vec![
                Action::Report(ProblemKind::DownloadFailure, "object 1 timed out".into()),
                Action::Failed
            ]
        );
        assert_eq!(d.next_wake(), None);
        assert!(d.step(deadline, Input::Tick).is_empty(), "over is over");
    }

    #[test]
    fn losing_every_source_fails_at_once() {
        let (mut d, _, _, _) = start(false);
        assert_eq!(
            d.step(ms(1), Input::EdgeFailed),
            vec![
                Action::Report(ProblemKind::DownloadFailure, "object 1 stalled".into()),
                Action::Failed
            ]
        );
    }

    #[test]
    fn corrupt_and_empty_pieces_are_refetched_never_counted_and_reported_once() {
        let (mut d, _, content, m) = start(true);
        d.step(ms(1), Input::PeerList(vec![contact(1)]));
        let n = m.piece_count();
        let actions = d.step(ms(2), Input::Joined(Guid(1), PieceMap::full(n)));
        let mut ask = requested(&actions);
        let mut reports = 0;
        // First a corrupt copy, then no bytes but the manifest's digest:
        // both are rejected, and only the first is reported.
        let (_, p) = ask[0];
        let mut bad = bytes(&content, p);
        bad[0] ^= 1;
        for data in [bad, Vec::new()] {
            let (_, p) = ask[0];
            let actions = d.step(ms(3), peer_piece(1, p, data, &m));
            reports += actions
                .iter()
                .filter(|a| matches!(a, Action::Report(ProblemKind::VerificationFailure, _)))
                .count();
            ask = requested(&actions);
            assert_eq!(ask.len(), 1, "the piece goes back to the pool: {actions:?}");
        }
        assert_eq!(reports, 1, "one report per source per download");
        loop {
            let (_, p) = ask[0];
            let actions = d.step(ms(4), peer_piece(1, p, bytes(&content, p), &m));
            let (actions, done) = split_done(actions);
            if let Some(done) = done {
                assert_eq!(done.bytes_from_peers, content.len() as u64);
                assert_eq!((done.bytes_from_edge, done.peer_sources), (0, 1));
                assert_eq!(done.content, content);
                return;
            }
            ask = requested(&actions);
        }
    }

    #[test]
    fn a_have_map_of_the_wrong_length_is_a_failed_join() {
        let (mut d, _, content, m) = start(true);
        let n = m.piece_count();
        d.step(ms(1), Input::PeerList(vec![contact(1), contact(2)]));
        let long = SwarmMsg::decode_have_map(n + 5, &[u64::MAX]).unwrap();
        assert!(d.step(ms(2), Input::Joined(Guid(1), long)).is_empty());
        assert!(d
            .step(ms(2), Input::Joined(Guid(2), PieceMap::full(n - 1)))
            .is_empty());
        // Neither counts as joined: nothing is ever sent to them.
        let hold = ms(1) + EDGE_HOLD;
        let actions = d.step(hold, Input::Tick);
        assert_eq!(actions, vec![Action::RequestEdge(0)]);
        let done = finish_from_edge(&mut d, actions, hold, &content, &m);
        assert_eq!(done.bytes_from_edge, content.len() as u64);
    }

    /// What the property test knows of a download from the outside: whom
    /// it dialed and who joined, what it asked for, how it ended.
    #[derive(Default)]
    struct Model {
        dialed: HashSet<Guid>,
        joined: HashSet<Guid>,
        asked: BTreeMap<Guid, PieceIndex>,
        edge_asked: Vec<PieceIndex>,
        reported: HashSet<String>,
        result: Option<Option<Completion>>,
    }

    impl Model {
        /// Check one batch of actions, and track what the machine asked.
        fn check(&mut self, actions: Vec<Action>) {
            for action in actions {
                assert!(self.result.is_none(), "{action:?} after the end");
                match action {
                    Action::Dial(c) => {
                        self.dialed.insert(c.guid);
                    }
                    Action::Send(g, msg) => {
                        assert!(self.joined.contains(&g), "sent {msg:?} to {g:?}");
                        if let SwarmMsg::Request { piece } = msg {
                            self.asked.insert(g, piece);
                        }
                    }
                    Action::RequestEdge(p) => self.edge_asked.push(p),
                    Action::Report(ProblemKind::VerificationFailure, detail) => {
                        let source = detail.split(" from ").nth(1).unwrap().to_string();
                        assert!(self.reported.insert(source), "reported twice: {detail}");
                    }
                    Action::Done(done) => self.result = Some(Some(done)),
                    Action::Failed => self.result = Some(None),
                    _ => {}
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random inputs — honest, short and long maps; honest, corrupt,
        /// empty, unsolicited and out-of-range pieces; leaves; edge
        /// failures; ticks — then honest answers until the download is
        /// over. The machine never panics, sends only to joined peers, and
        /// a finished download is the object, each byte counted once.
        #[test]
        fn any_input_sequence_keeps_the_invariants(
            p2p in any::<bool>(),
            seed in any::<u64>(),
            ops in proptest::collection::vec((0u8..15, 0u8..6, any::<u8>()), 0..120),
        ) {
            let (content, m) = object();
            let n = m.piece_count();
            let policy = if p2p {
                DownloadPolicy::peer_assisted()
            } else {
                DownloadPolicy::infrastructure_only()
            };
            let metrics = MetricsRegistry::new();
            let (mut d, first) = Download::start(m.clone(), &policy, DetRng::seeded(seed), &metrics);
            let mut model = Model::default();
            model.check(first);
            let mut now = SimTime::ZERO;
            if p2p {
                model.check(d.step(now, Input::PeerList((1..=6).map(contact).collect())));
            }
            for (op, who, arg) in ops {
                let g = Guid(who as u128 + 1);
                let asked = model.asked.get(&g).copied().unwrap_or(arg as u32 % n);
                let input = match op {
                    0..=2 => {
                        let len = [n, n, n - 1, n + 5][arg as usize % 4];
                        let map = if arg % 3 != 0 { PieceMap::full(len) } else { PieceMap::empty(len) };
                        if len == n && model.dialed.contains(&g) {
                            model.joined.insert(g);
                        }
                        Input::Joined(g, map)
                    }
                    3 | 4 => peer_piece(g.0, asked, bytes(&content, asked), &m),
                    5 => {
                        let mut bad = bytes(&content, asked);
                        let at = arg as usize % bad.len();
                        bad[at] ^= 0x5a;
                        peer_piece(g.0, asked, bad, &m)
                    }
                    6 => peer_piece(g.0, asked, Vec::new(), &m),
                    7 => {
                        let p = arg as u32 % n;
                        peer_piece(g.0, p, bytes(&content, p), &m)
                    }
                    8 => {
                        let piece = n + arg as u32;
                        let digest = m.piece_hashes[0];
                        Input::PeerMsg(g, SwarmMsg::Piece { piece, data: vec![arg; 3], digest })
                    }
                    9 => {
                        model.joined.remove(&g);
                        model.dialed.remove(&g);
                        Input::Left(g)
                    }
                    10 => Input::PeerMsg(g, SwarmMsg::Have { piece: arg as u32 % (n + 2) }),
                    11 => Input::PeerMsg(g, SwarmMsg::Busy),
                    12 if arg < 40 => Input::EdgeFailed,
                    12 | 13 => match model.edge_asked.pop() {
                        Some(p) => edge_piece(&content, &m, p),
                        None => Input::Tick,
                    },
                    _ => {
                        now += SimDuration::from_millis(arg as u64);
                        Input::Tick
                    }
                };
                // Whatever ends g's request: its answer, Busy, or leaving.
                let settles = match &input {
                    Input::PeerMsg(_, SwarmMsg::Piece { piece, .. }) => *piece == asked,
                    Input::PeerMsg(_, SwarmMsg::Busy) | Input::Left(_) => true,
                    _ => false,
                };
                if settles {
                    model.asked.remove(&g);
                }
                model.check(d.step(now, input));
            }
            // Drain: answer everything honestly, ticking the clock when
            // nothing is outstanding, until the download is over.
            for _ in 0..500 {
                if model.result.is_some() {
                    break;
                }
                let input = if let Some((&g, &p)) = model.asked.iter().next() {
                    model.asked.remove(&g);
                    peer_piece(g.0, p, bytes(&content, p), &m)
                } else if let Some(p) = model.edge_asked.pop() {
                    edge_piece(&content, &m, p)
                } else {
                    now = d.next_wake().expect("a live download has a wake time");
                    Input::Tick
                };
                model.check(d.step(now, input));
            }
            prop_assert!(model.result.is_some(), "the download never ended");
            if let Some(Some(done)) = model.result {
                prop_assert_eq!(done.bytes_from_edge + done.bytes_from_peers, content.len() as u64);
                prop_assert!(done.content == content, "assembled content differs");
            }
        }
    }
}
