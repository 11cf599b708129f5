//! The live NetSession Interface daemon.
//!
//! A real network client implementing §3.3–§3.4: it keeps a persistent
//! control connection, authorizes downloads with the edge, downloads from
//! the edge *and* from peers in parallel (the edge connection is never
//! closed — the backstop), verifies every piece against the manifest,
//! serves uploads to other daemons under the governor's limits, registers
//! completed objects with the control plane, and reports usage.
//!
//! Concurrency model: plain threads and channels. Each remote peer
//! connection gets a reader thread (and a writer thread for outbound
//! messages); the edge fetch runs on its own thread. The caller's thread
//! is the coordinator: it feeds everything those threads (and the
//! control reader, for the peer query) send on one mpsc channel into
//! the sans-IO [`netsession_peer::download::Download`] machine, carries
//! out the actions it returns, and ticks it at its `next_wake` — every
//! protocol decision and timeout is the machine's.

use crate::framing::{
    debug_assert_nodelay, nodelay, read_msg, read_msg_traced, wall_now, write_msg,
    write_msg_traced, AcceptLoop,
};
use crate::http::{standard_routes, AdminEndpoint};
use netsession_core::error::{Error, Result};
use netsession_core::hash::{sha256, Digest};
use netsession_core::id::{Guid, ObjectId};
use netsession_core::msg::{
    AuthToken, ControlMsg, EdgeMsg, MonitorMsg, NatType, PeerAddr, PeerContact, ProblemKind,
    SwarmMsg,
};
use netsession_core::piece::{Manifest, PieceMap};
use netsession_core::policy::TransferConfig;
use netsession_core::rng::DetRng;
use netsession_core::time::SimTime;
use netsession_core::units::ByteCount;
use netsession_obs::{MetricsRegistry, SpanId, TraceCtx, TraceId, TraceSink};
use netsession_peer::download::{Action, Completion, Download, Input, QueryEnd};
use netsession_peer::governor::UploadGovernor;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A completed, shareable object.
struct SharedObject {
    manifest: Manifest,
    bytes: Vec<u8>,
}

/// A control-plane message plus the trace context to stamp on its frame.
type TracedControlMsg = (ControlMsg, Option<(TraceId, SpanId)>);

struct Inner {
    guid: Guid,
    store: Mutex<HashMap<ObjectId, Arc<SharedObject>>>,
    governor: Mutex<UploadGovernor>,
    control_tx: mpsc::Sender<TracedControlMsg>,
    /// Whether the control link is currently established (§3.8: while it
    /// is down the daemon degrades to edge-only downloads).
    control_up: AtomicBool,
    /// Where the answer to a download's peer query goes.
    pending_query: Mutex<Option<mpsc::Sender<Input>>>,
    /// Monitoring node to push §3.6 problem reports to, when configured.
    monitor_addr: Mutex<Option<SocketAddr>>,
    metrics: MetricsRegistry,
    trace: TraceSink,
}

impl Inner {
    /// Queue a message for the control link, keeping the
    /// `net.peer.control_queue_depth` gauge in step with the backlog the
    /// supervisor has yet to drain.
    fn queue_control(&self, msg: TracedControlMsg) -> Result<()> {
        let depth = self.metrics.gauge("net.peer.control_queue_depth");
        depth.add(1);
        self.control_tx.send(msg).map_err(|_| {
            depth.sub(1);
            Error::Network("control writer gone".into())
        })
    }

    /// Flip the control-link liveness flag and its mirror gauge together.
    fn set_control_up(&self, up: bool) {
        self.control_up.store(up, Ordering::Release);
        self.metrics
            .gauge("net.peer.control_up")
            .set(if up { 1 } else { 0 });
    }

    /// The control link failed: the download waiting on a peer query, if
    /// any, goes on without one.
    fn fail_pending_query(&self) {
        if let Some(tx) = self.pending_query.lock().unwrap().take() {
            let _ = tx.send(Input::QueryFailed);
        }
    }

    /// Push one problem report to the monitoring node (§3.6), if one is
    /// configured. Fire-and-forget on a short-lived thread: reporting
    /// must never slow down or fail the path that hit the problem.
    fn report_problem(&self, kind: ProblemKind, detail: String) {
        self.metrics
            .counter(&format!("net.peer.problems.{}", kind.label()))
            .incr();
        let Some(addr) = *self.monitor_addr.lock().unwrap() else {
            return;
        };
        let guid = self.guid;
        std::thread::spawn(move || {
            let Ok(mut stream) =
                TcpStream::connect_timeout(&addr, Duration::from_secs(2)).and_then(nodelay)
            else {
                return;
            };
            let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
            let _ = write_msg(&mut stream, &MonitorMsg::Problem { guid, kind, detail });
        });
    }
}

/// What one download achieved.
#[derive(Clone, Debug)]
pub struct DownloadReport {
    /// Bytes fetched from the edge server.
    pub bytes_from_edge: u64,
    /// Bytes fetched from peers.
    pub bytes_from_peers: u64,
    /// SHA-256 of the assembled content.
    pub content_hash: Digest,
    /// Peers that contributed at least one piece.
    pub peer_sources: usize,
}

/// A running peer daemon.
pub struct PeerDaemon {
    /// This installation's GUID.
    pub guid: Guid,
    edge_addr: SocketAddr,
    /// The swarm listener serving uploads.
    accept: AcceptLoop,
    inner: Arc<Inner>,
    stop: Arc<AtomicBool>,
    admin: AdminEndpoint,
}

impl PeerDaemon {
    /// Start a daemon: bind the swarm listener, log into the control
    /// plane, and start serving uploads.
    pub fn start(
        control_addr: SocketAddr,
        edge_addr: SocketAddr,
        guid: Guid,
        uploads_enabled: bool,
    ) -> Result<PeerDaemon> {
        let control = TcpStream::connect(control_addr)
            .and_then(nodelay)
            .map_err(|e| Error::Network(format!("control connect: {e}")))?;
        let (control_tx, control_rx) = mpsc::channel::<TracedControlMsg>();

        let metrics = MetricsRegistry::new();
        // Every live download is traced (sample_every = 1): live runs are
        // small, and the e2e tests assert cross-process propagation. The
        // id prefix is guid-derived so span ids from different daemons in
        // one deployment never collide when traces are merged.
        let trace = TraceSink::with_id_prefix(1, 0x1000 | (guid.0 as u16 & 0x0fff));
        trace.attach_metrics(&metrics);
        let inner = Arc::new(Inner {
            guid,
            store: Mutex::new(HashMap::new()),
            governor: Mutex::new(UploadGovernor::new(
                TransferConfig::default(),
                uploads_enabled,
            )),
            control_tx: control_tx.clone(),
            control_up: AtomicBool::new(false),
            pending_query: Mutex::new(None),
            monitor_addr: Mutex::new(None),
            metrics: metrics.clone(),
            trace,
        });
        let admin = {
            let inner = inner.clone();
            AdminEndpoint::start(
                "127.0.0.1:0",
                standard_routes(metrics.clone(), move || {
                    let m = &inner.metrics;
                    format!(
                        "{{\"status\":\"ok\",\"component\":\"peer\",\"guid\":\"{:016x}\",\
                         \"control_up\":{},\"backoff_failures\":{},\"queued\":{},\
                         \"cached_objects\":{}}}",
                        inner.guid.0 as u64,
                        inner.control_up.load(Ordering::Acquire),
                        m.gauge("net.peer.control_backoff_failures").get(),
                        m.gauge("net.peer.control_queue_depth").get(),
                        inner.store.lock().unwrap().len()
                    )
                }),
            )?
        };

        // Upload accept loop.
        let inner_for_accept = inner.clone();
        let accept = AcceptLoop::bind("127.0.0.1:0", move |stream| {
            inner_for_accept
                .metrics
                .counter("net.peer.upload_connections_in")
                .incr();
            let inner = inner_for_accept.clone();
            std::thread::spawn(move || {
                let _ = serve_upload(stream, inner);
            });
        })?;

        // Control-link supervisor: owns the outbound queue for the
        // daemon's whole life, logs in, pumps messages, and — when the
        // link drops — reconnects with exponential backoff (§3.8).
        let stop = Arc::new(AtomicBool::new(false));
        let inner_for_link = inner.clone();
        let stop_for_link = stop.clone();
        let listen_port = accept.local_addr().port();
        std::thread::spawn(move || {
            run_control_link(
                inner_for_link,
                control_addr,
                control_rx,
                Some(control),
                uploads_enabled,
                listen_port,
                stop_for_link,
            );
        });

        // Wait for the supervisor's first login to go out so a download
        // issued right after `start` returns sees the link up (the
        // initial connect above already succeeded, so this is quick).
        let deadline = Instant::now() + Duration::from_secs(2);
        while !inner.control_up.load(Ordering::Acquire) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }

        Ok(PeerDaemon {
            guid,
            edge_addr,
            accept,
            inner,
            stop,
            admin,
        })
    }

    /// Where this daemon accepts swarm connections.
    pub fn listen_addr(&self) -> SocketAddr {
        self.accept.local_addr()
    }

    /// Where the admin (HTTP) endpoint listens.
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin.local_addr()
    }

    /// Configure the monitoring node that receives this daemon's §3.6
    /// problem reports (crash, download failure, traversal failure).
    pub fn set_monitor_addr(&self, addr: SocketAddr) {
        *self.inner.monitor_addr.lock().unwrap() = Some(addr);
    }

    /// Push one problem report to the monitoring node.
    pub fn report_problem(&self, kind: ProblemKind, detail: impl Into<String>) {
        self.inner.report_problem(kind, detail.into());
    }

    /// Number of objects in the local cache.
    pub fn cached_objects(&self) -> usize {
        self.inner.store.lock().unwrap().len()
    }

    /// Whether the control link is currently established (§3.8
    /// observability: while false, downloads run edge-only).
    pub fn control_connected(&self) -> bool {
        self.inner.control_up.load(Ordering::Acquire)
    }

    /// Live telemetry registry for this daemon.
    pub fn metrics(&self) -> MetricsRegistry {
        self.inner.metrics.clone()
    }

    /// This daemon's trace sink (handles are shared; clones see the same
    /// spans).
    pub fn trace(&self) -> TraceSink {
        self.inner.trace.clone()
    }

    /// Download an object end-to-end: edge authorization, control-plane
    /// peer query, parallel edge + swarm fetch, verification, assembly,
    /// registration, and usage reporting.
    pub fn download(&self, object: ObjectId) -> Result<DownloadReport> {
        let trace = &self.inner.trace;
        let ctx = trace.start_trace("download", "client", wall_now().as_micros());
        // GUIDs can exceed 2^53: export them as hex strings so an f64
        // JSON parser round-trips them exactly.
        trace.add_attr(ctx.span, "guid", format!("{:016x}", self.guid.0 as u64));
        trace.add_attr(ctx.span, "object", object.0);
        // The root span closes here whichever way the download returns, so
        // a failed download never leaves it open in `trace()` / `/trace`.
        let result = self.download_in(object, ctx);
        let outcome = match &result {
            Ok(_) => "completed",
            Err(Error::PolicyDenied(_)) => "denied",
            Err(_) => "failed",
        };
        trace.add_attr(ctx.span, "outcome", outcome);
        if let Ok(report) = &result {
            trace.add_attr(ctx.span, "bytes_edge", report.bytes_from_edge);
            trace.add_attr(ctx.span, "bytes_peers", report.bytes_from_peers);
            trace.add_attr(ctx.span, "peer_sources", report.peer_sources as u64);
        }
        trace.end_span(ctx.span, wall_now().as_micros());
        result
    }

    /// The download proper, under the root span `ctx` that
    /// [`PeerDaemon::download`] opened and will close.
    fn download_in(&self, object: ObjectId, ctx: TraceCtx) -> Result<DownloadReport> {
        let metrics = &self.inner.metrics;
        let trace = &self.inner.trace;
        // 1. Authorize with the edge. The frame carries (trace, span) so
        // the edge server's own spans join this download's trace.
        let mut edge = TcpStream::connect(self.edge_addr)
            .and_then(nodelay)
            .map_err(|e| Error::Network(format!("edge connect: {e}")))?;
        let auth_span = trace.span(ctx, "authorize", "edge", wall_now().as_micros());
        let resp = write_msg_traced(
            &mut edge,
            &EdgeMsg::Authorize {
                guid: self.guid,
                version: netsession_core::id::VersionId { object, version: 1 },
            },
            Some((ctx.trace, auth_span)),
        )
        .and_then(|()| read_msg(&mut edge)?.ok_or_else(|| Error::Network("edge closed".into())));
        let granted = matches!(resp, Ok(EdgeMsg::Authorized { .. }));
        trace.add_attr(auth_span, "granted", granted);
        trace.end_span(auth_span, wall_now().as_micros());
        let (token, policy, manifest) = match resp? {
            EdgeMsg::Authorized {
                token,
                policy,
                manifest,
            } => (token, policy, manifest),
            EdgeMsg::Denied { reason } => {
                metrics.counter("net.peer.downloads_denied").incr();
                return Err(Error::PolicyDenied(reason));
            }
            other => return Err(Error::Network(format!("unexpected {other:?}"))),
        };
        let version = manifest.version;

        // 2. Run the coordinator. It decides; this loop carries out its
        // actions, and every answer — the control plane's, each peer's,
        // the edge's — comes back on one channel, stamped with the time
        // since the machine started.
        let (ev_tx, ev_rx) = mpsc::channel::<Input>();
        let edge_tx = spawn_edge_fetcher(edge, token, ev_tx.clone());
        let started = Instant::now();
        let clock = || SimTime(started.elapsed().as_micros() as u64);
        let rng = DetRng::seeded(self.guid.0 as u64 ^ object.0);
        let (mut machine, mut actions) = Download::start(manifest.clone(), &policy, rng, metrics);
        let mut peer_out: HashMap<Guid, mpsc::Sender<SwarmMsg>> = HashMap::new();
        let mut qspan = None;
        let outcome = 'run: loop {
            for action in actions {
                match action {
                    Action::QueryControl { max_peers } if self.control_connected() => {
                        *self.inner.pending_query.lock().unwrap() = Some(ev_tx.clone());
                        let span =
                            trace.span(ctx, "query_peers", "control", wall_now().as_micros());
                        qspan = Some(span);
                        let query = ControlMsg::QueryPeers { token, max_peers };
                        if self
                            .inner
                            .queue_control((query, Some((ctx.trace, span))))
                            .is_err()
                        {
                            let _ = ev_tx.send(Input::QueryFailed);
                        }
                    }
                    Action::QueryControl { .. } => {
                        metrics.counter("net.peer.edge_only_downloads").incr();
                        trace.instant(ctx, "control_unreachable", "fault", wall_now().as_micros());
                        let _ = ev_tx.send(Input::QueryFailed);
                    }
                    Action::QueryEnded(end) => {
                        let Some(span) = qspan.take() else { continue };
                        match end {
                            QueryEnd::Answered(offered) => {
                                trace.add_attr(span, "offered", offered as u64)
                            }
                            QueryEnd::TimedOut => {
                                metrics.counter("net.peer.query_timeouts").incr();
                                trace.add_attr(span, "error", "timeout");
                            }
                            QueryEnd::Failed => trace.add_attr(span, "error", "disconnected"),
                        }
                        trace.end_span(span, wall_now().as_micros());
                    }
                    Action::Dial(contact) => {
                        let out = self.dial(ctx, &contact, token, &manifest, &ev_tx);
                        peer_out.insert(contact.guid, out);
                    }
                    Action::Send(guid, msg) => {
                        if let Some(out) = peer_out.get(&guid) {
                            let _ = out.send(msg);
                        }
                    }
                    Action::RequestEdge(piece) => {
                        if edge_tx.send(piece).is_err() {
                            let _ = ev_tx.send(Input::EdgeFailed);
                        }
                    }
                    Action::Report(kind, detail) => self.inner.report_problem(kind, detail),
                    Action::Done(done) => break 'run Some(done),
                    Action::Failed => break 'run None,
                }
            }
            let wake = machine.next_wake().unwrap_or_default();
            let wait = Duration::from_micros(wake.0.saturating_sub(clock().0));
            let input = ev_rx.recv_timeout(wait).unwrap_or(Input::Tick);
            if let Input::Left(guid) = &input {
                peer_out.remove(guid);
            }
            actions = machine.step(clock(), input);
        };

        // 3. Wind down: Goodbye + dropped senders end the per-peer
        // threads; dropping `edge_tx` ends the edge fetcher.
        for out in peer_out.values() {
            let _ = out.send(SwarmMsg::Goodbye);
        }
        drop(edge_tx);
        let Some(Completion {
            content,
            bytes_from_edge,
            bytes_from_peers,
            peer_sources,
        }) = outcome
        else {
            metrics.counter("net.peer.downloads_failed").incr();
            return Err(Error::Network("download timed out or stalled".into()));
        };

        // 4. Store, register, report.
        let content_hash = sha256(&content);
        let uploads_enabled = {
            let store = &self.inner.store;
            store.lock().unwrap().insert(
                object,
                Arc::new(SharedObject {
                    manifest,
                    bytes: content,
                }),
            );
            self.inner
                .governor
                .lock()
                .unwrap()
                .rate_cap(netsession_core::units::Bandwidth::from_mbps(1.0))
                > netsession_core::units::Bandwidth::ZERO
        };
        if uploads_enabled && policy.upload_allowed {
            let _ = self.inner.queue_control((
                ControlMsg::RegisterContent {
                    version,
                    fraction: 1.0,
                },
                None,
            ));
        }
        let _ = self.inner.queue_control((
            ControlMsg::UsageReport {
                records: vec![netsession_core::msg::UsageRecord {
                    guid: self.guid,
                    version,
                    started: wall_now(),
                    ended: wall_now(),
                    bytes_from_infrastructure: ByteCount(bytes_from_edge),
                    bytes_from_peers: ByteCount(bytes_from_peers),
                }],
            },
            None,
        ));
        metrics.counter("net.peer.downloads_completed").incr();
        metrics
            .counter("net.peer.bytes_from_edge")
            .add(bytes_from_edge);
        metrics
            .counter("net.peer.bytes_from_peers")
            .add(bytes_from_peers);

        Ok(DownloadReport {
            bytes_from_edge,
            bytes_from_peers,
            content_hash,
            peer_sources,
        })
    }

    /// Dial one contact on its own thread: handshake, read its have-map,
    /// then feed its messages to the coordinator until the connection
    /// ends. Returns the channel that a writer thread drains to the peer.
    fn dial(
        &self,
        ctx: TraceCtx,
        contact: &PeerContact,
        token: AuthToken,
        manifest: &Manifest,
        ev_tx: &mpsc::Sender<Input>,
    ) -> mpsc::Sender<SwarmMsg> {
        let addr = SocketAddr::from((
            std::net::Ipv4Addr::from(contact.addr.ip.to_be_bytes()),
            contact.addr.port,
        ));
        let remote_guid = contact.guid;
        let trace = self.inner.trace.clone();
        self.inner
            .metrics
            .counter("net.peer.swarm_connections_out")
            .incr();
        let attempt = trace.instant(ctx, "connect_attempt", "peer", wall_now().as_micros());
        // The GUID on a connect_attempt is the peer we dial — the
        // *destination* of the connection, not its source.
        trace.add_attr(
            attempt,
            "dst_guid",
            format!("{:016x}", remote_guid.0 as u64),
        );
        let trace_ids = Some((ctx.trace, attempt)).filter(|_| ctx.sampled);
        let handshake = SwarmMsg::Handshake {
            guid: self.guid,
            token,
            version: manifest.version,
        };
        let piece_count = manifest.piece_count();
        let (out_tx, out_rx) = mpsc::channel::<SwarmMsg>();
        let ev_tx = ev_tx.clone();
        let inner = self.inner.clone();
        std::thread::spawn(move || {
            let joined = (|| {
                let stream = TcpStream::connect(addr).and_then(nodelay).map_err(|_| {
                    inner.report_problem(
                        ProblemKind::TraversalFailure,
                        format!("connect to peer {:016x} failed", remote_guid.0 as u64),
                    );
                    "connect_failed"
                })?;
                // Bounded reads so an idle remote can't pin this thread
                // past any download deadline.
                let _ = stream.set_read_timeout(Some(Duration::from_secs(90)));
                let mut r = stream.try_clone().map_err(|_| "connect_failed")?;
                let mut w = stream;
                write_msg_traced(&mut w, &handshake, trace_ids).map_err(|_| "handshake_failed")?;
                // Expect their handshake + have-map.
                let Ok(Some(SwarmMsg::Handshake { .. })) = read_msg(&mut r) else {
                    return Err("handshake_failed");
                };
                let Ok(Some(SwarmMsg::HaveMap { pieces, words })) = read_msg(&mut r) else {
                    return Err("handshake_failed");
                };
                let map = SwarmMsg::decode_have_map(pieces, &words)
                    .ok()
                    .filter(|map| map.len() == piece_count)
                    .ok_or("bad_have_map")?;
                Ok((r, w, map))
            })();
            match joined {
                Ok((mut r, mut w, map)) => {
                    trace.add_attr(attempt, "result", "connected");
                    let _ = ev_tx.send(Input::Joined(remote_guid, map));
                    // Full duplex: a writer thread drains out_rx while this
                    // thread keeps reading.
                    std::thread::spawn(move || {
                        while let Ok(msg) = out_rx.recv() {
                            if write_msg(&mut w, &msg).is_err() {
                                break;
                            }
                        }
                    });
                    while let Ok(Some(msg)) = read_msg::<_, SwarmMsg>(&mut r) {
                        if ev_tx.send(Input::PeerMsg(remote_guid, msg)).is_err() {
                            break;
                        }
                    }
                }
                Err(result) => trace.add_attr(attempt, "result", result),
            }
            let _ = ev_tx.send(Input::Left(remote_guid));
        });
        out_tx
    }

    /// Shut the daemon down: log out, stop the control link, and close
    /// both listeners (their threads are joined as `self` drops).
    pub fn shutdown(self) {
        let _ = self.inner.queue_control((ControlMsg::Logout, None));
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// The edge fetcher: answers the coordinator's piece requests in order
/// over the authorized edge connection, until the request channel closes
/// or the edge fails.
fn spawn_edge_fetcher(
    mut edge: TcpStream,
    token: AuthToken,
    ev_tx: mpsc::Sender<Input>,
) -> mpsc::Sender<u32> {
    let (req_tx, req_rx) = mpsc::channel::<u32>();
    std::thread::spawn(move || {
        while let Ok(piece) = req_rx.recv() {
            let answer = write_msg(&mut edge, &EdgeMsg::GetPiece { token, piece })
                .and_then(|()| read_msg::<_, EdgeMsg>(&mut edge));
            let Ok(Some(EdgeMsg::PieceData {
                piece,
                data,
                digest,
            })) = answer
            else {
                let _ = ev_tx.send(Input::EdgeFailed);
                return;
            };
            if ev_tx.send(Input::EdgePiece(piece, data, digest)).is_err() {
                return;
            }
        }
    });
    req_tx
}

/// Maximum exponent for the reconnect backoff: 50ms << 5 = 1.6s cap.
const BACKOFF_BASE_MS: u64 = 50;
const BACKOFF_MAX_SHIFT: u32 = 5;

/// The control-link supervisor (§3.8).
///
/// Owns the outbound message queue for the daemon's entire life. For each
/// established connection it sends `Login`, re-registers every cached
/// object (fate-sharing: the CN lost our soft state when the connection
/// died), raises `control_up`, and pumps queued messages until the link
/// fails. Between connections it retries with exponential backoff plus
/// deterministic jitter (seeded from the GUID) so a restarted CN is not
/// hit by a synchronized thundering herd, while `control_up` stays low
/// and downloads degrade to edge-only.
#[allow(clippy::too_many_arguments)]
fn run_control_link(
    inner: Arc<Inner>,
    control_addr: SocketAddr,
    control_rx: mpsc::Receiver<TracedControlMsg>,
    first: Option<TcpStream>,
    uploads_enabled: bool,
    listen_port: u16,
    stop: Arc<AtomicBool>,
) {
    let mut jitter_rng = DetRng::seeded(inner.guid.0 as u64 ^ 0xC0A7_11AC);
    let mut stream = first;
    let mut failures: u32 = 0;
    let mut sessions: u64 = 0;
    let msgs_out = inner.metrics.counter("net.peer.control_msgs_out");
    let backoff_gauge = inner.metrics.gauge("net.peer.control_backoff_failures");
    let queue_depth = inner.metrics.gauge("net.peer.control_queue_depth");
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let s = match stream.take() {
            Some(s) => s,
            None => match TcpStream::connect(control_addr).and_then(nodelay) {
                Ok(s) => s,
                Err(_) => {
                    inner
                        .metrics
                        .counter("net.peer.control_reconnect_failures")
                        .incr();
                    let base = BACKOFF_BASE_MS << failures.min(BACKOFF_MAX_SHIFT);
                    // Up to +50% deterministic jitter, so a fleet of
                    // daemons with distinct GUIDs desynchronizes.
                    let delay = base + (base as f64 * 0.5 * jitter_rng.f64()) as u64;
                    failures = failures.saturating_add(1);
                    backoff_gauge.set(failures as i64);
                    // Sleep in slices so shutdown stays responsive.
                    let deadline = Instant::now() + Duration::from_millis(delay);
                    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    continue;
                }
            },
        };
        failures = 0;
        backoff_gauge.set(0);
        let Ok(read_half) = s.try_clone() else {
            continue;
        };
        let mut write_half = s;
        let link_down = Arc::new(AtomicBool::new(false));
        spawn_control_reader(read_half, inner.clone(), link_down.clone());

        // Session setup: login, then re-register whatever we cached while
        // the control plane wasn't looking (fate-sharing re-add).
        let login = ControlMsg::Login {
            guid: inner.guid,
            secondary_guids: vec![],
            uploads_enabled,
            software_version: 40_100,
            nat: NatType::Open,
            addr: PeerAddr {
                ip: u32::from_be_bytes([127, 0, 0, 1]),
                port: listen_port,
            },
        };
        let mut session_ok = write_msg_traced(&mut write_half, &login, None).is_ok();
        if session_ok {
            msgs_out.incr();
            if uploads_enabled {
                let versions: Vec<_> = inner
                    .store
                    .lock()
                    .unwrap()
                    .values()
                    .map(|o| o.manifest.version)
                    .collect();
                for version in versions {
                    let msg = ControlMsg::RegisterContent {
                        version,
                        fraction: 1.0,
                    };
                    if write_msg_traced(&mut write_half, &msg, None).is_err() {
                        session_ok = false;
                        break;
                    }
                    msgs_out.incr();
                    if sessions > 0 {
                        inner
                            .metrics
                            .counter("net.peer.control_reregistrations")
                            .incr();
                    }
                }
            }
        }
        if session_ok {
            if sessions > 0 {
                inner.metrics.counter("net.peer.control_reconnects").incr();
            }
            sessions += 1;
            inner.set_control_up(true);
            // Pump outbound messages until the link drops or we stop.
            loop {
                if link_down.load(Ordering::Relaxed) {
                    break;
                }
                if stop.load(Ordering::Relaxed) {
                    // Drain what is already queued (Logout included), then
                    // exit for good.
                    while let Ok((msg, ctx)) = control_rx.try_recv() {
                        queue_depth.sub(1);
                        if write_msg_traced(&mut write_half, &msg, ctx).is_err() {
                            break;
                        }
                        msgs_out.incr();
                    }
                    inner.set_control_up(false);
                    return;
                }
                match control_rx.recv_timeout(Duration::from_millis(100)) {
                    Ok((msg, ctx)) => {
                        queue_depth.sub(1);
                        if write_msg_traced(&mut write_half, &msg, ctx).is_err() {
                            break;
                        }
                        msgs_out.incr();
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            }
        }
        // Link failed: degrade. Failing the pending query lets a download
        // waiting on it proceed edge-only at once instead of waiting out
        // its timeout.
        inner.set_control_up(false);
        inner.metrics.counter("net.peer.control_disconnects").incr();
        inner.fail_pending_query();
    }
}

/// Per-connection control reader: LoginAck, PeerList (answering queries),
/// ReAdd. Signals `link_down` when the socket dies so the supervisor
/// starts reconnecting.
fn spawn_control_reader(mut read_half: TcpStream, inner: Arc<Inner>, link_down: Arc<AtomicBool>) {
    let msgs_in = inner.metrics.counter("net.peer.control_msgs_in");
    std::thread::spawn(move || {
        while let Ok(Some(msg)) = read_msg::<_, ControlMsg>(&mut read_half) {
            msgs_in.incr();
            match msg {
                ControlMsg::PeerList { peers, .. } => {
                    if let Some(tx) = inner.pending_query.lock().unwrap().take() {
                        let _ = tx.send(Input::PeerList(peers));
                    }
                }
                ControlMsg::ReAdd => {
                    let versions: Vec<_> = inner
                        .store
                        .lock()
                        .unwrap()
                        .values()
                        .map(|o| o.manifest.version)
                        .collect();
                    let _ = inner.queue_control((ControlMsg::ReAddResponse { versions }, None));
                }
                // LoginAck / ConnectTo(passive) / ConfigUpdate need no
                // action in this loopback deployment: the active side
                // dials us directly.
                _ => {}
            }
        }
        link_down.store(true, Ordering::Relaxed);
        // Fail any in-flight query right away (the supervisor also does
        // this, but it may be up to 100ms behind).
        inner.fail_pending_query();
    });
}

/// Serve one inbound swarm connection (the upload side). When the
/// downloader stamped its trace context on the handshake frame, this
/// uploader's `serve_upload` span joins the *downloader's* trace.
fn serve_upload(stream: TcpStream, inner: Arc<Inner>) -> Result<()> {
    debug_assert_nodelay(&stream);
    let mut r = stream
        .try_clone()
        .map_err(|e| Error::Network(e.to_string()))?;
    let mut w = stream;
    let Some((
        SwarmMsg::Handshake {
            guid,
            token,
            version,
        },
        remote_ctx,
    )) = read_msg_traced(&mut r)?
    else {
        return Ok(());
    };
    let trace = &inner.trace;
    let ctx = match remote_ctx {
        Some((t, parent)) => trace.join(t, parent),
        None => netsession_obs::TraceCtx::NONE,
    };
    let span = trace.span(ctx, "serve_upload", "peer", wall_now().as_micros());
    trace.add_attr(span, "downloader_guid", format!("{:016x}", guid.0 as u64));
    let object = version.object;
    let shared = inner.store.lock().unwrap().get(&object).cloned();
    let Some(shared) = shared else {
        trace.add_attr(span, "result", "not_cached");
        trace.end_span(span, wall_now().as_micros());
        let _ = write_msg(&mut w, &SwarmMsg::Goodbye);
        return Ok(());
    };
    if shared.manifest.version != version {
        trace.add_attr(span, "result", "stale_version");
        trace.end_span(span, wall_now().as_micros());
        let _ = write_msg(&mut w, &SwarmMsg::Goodbye);
        return Ok(());
    }
    // Governor gate: global connection limit etc.
    if inner
        .governor
        .lock()
        .unwrap()
        .try_start(guid, object, None)
        .is_err()
    {
        trace.add_attr(span, "result", "governor_busy");
        trace.end_span(span, wall_now().as_micros());
        let _ = write_msg(&mut w, &SwarmMsg::Busy);
        return Ok(());
    }

    let mut bytes_served = 0u64;
    let result = (|| {
        // Our half of the handshake + our have-map (we are a seeder).
        write_msg(
            &mut w,
            &SwarmMsg::Handshake {
                guid: inner.guid,
                token,
                version,
            },
        )?;
        let full = PieceMap::full(shared.manifest.piece_count());
        write_msg(&mut w, &SwarmMsg::have_map(&full))?;
        let served = inner.metrics.counter("net.peer.bytes_uploaded");
        loop {
            match read_msg::<_, SwarmMsg>(&mut r)? {
                Some(SwarmMsg::Request { piece }) => {
                    let start = piece as usize * shared.manifest.piece_size as usize;
                    let len = shared.manifest.piece_len(piece) as usize;
                    let data = shared.bytes[start..start + len].to_vec();
                    let digest = shared.manifest.piece_hashes[piece as usize];
                    served.add(data.len() as u64);
                    bytes_served += data.len() as u64;
                    write_msg(
                        &mut w,
                        &SwarmMsg::Piece {
                            piece,
                            data,
                            digest,
                        },
                    )?;
                }
                Some(SwarmMsg::Goodbye) | None => break,
                Some(_) => {}
            }
        }
        Ok::<(), Error>(())
    })();
    inner.governor.lock().unwrap().finish(guid, object, true);
    trace.add_attr(span, "result", "served");
    trace.add_attr(span, "bytes", bytes_served);
    trace.end_span(span, wall_now().as_micros());
    result
}
