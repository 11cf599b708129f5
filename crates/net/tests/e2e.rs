//! End-to-end live-runtime test: a real control plane, a real edge server,
//! and real peer daemons exchanging verified content over loopback TCP —
//! the §3.3 Download Manager story executed on actual sockets.

use netsession_core::hash::sha256;
use netsession_core::id::{CpCode, Guid, ObjectId};
use netsession_core::policy::DownloadPolicy;
use netsession_edge::accounting::AccountingLedger;
use netsession_edge::auth::EdgeAuth;
use netsession_edge::store::ContentStore;
use netsession_net::control_server::ControlServer;
use netsession_net::edge_server::EdgeHttpServer;
use netsession_net::peer_daemon::PeerDaemon;
use std::sync::Arc;

struct Deployment {
    control: ControlServer,
    edge: EdgeHttpServer,
    content: Vec<u8>,
}

fn deploy(p2p: bool) -> Deployment {
    let auth = EdgeAuth::from_seed(42);
    let store = Arc::new(ContentStore::new());
    let content: Vec<u8> = (0..300_000u32)
        .map(|i| (i.wrapping_mul(2654435761)) as u8)
        .collect();
    let policy = if p2p {
        DownloadPolicy::peer_assisted()
    } else {
        DownloadPolicy::infrastructure_only()
    };
    store.publish_content(ObjectId(1), CpCode(1), content.clone(), 16 * 1024, policy);
    let ledger = Arc::new(AccountingLedger::new());
    let edge = EdgeHttpServer::start("127.0.0.1:0", store, auth.clone(), ledger).unwrap();
    let control = ControlServer::start("127.0.0.1:0", auth).unwrap();
    Deployment {
        control,
        edge,
        content,
    }
}

#[test]
fn first_peer_downloads_from_edge_then_seeds_others() {
    let d = deploy(true);
    let expected_hash = sha256(&d.content);

    // Peer 1: nothing registered yet — everything from the edge.
    let p1 = PeerDaemon::start(d.control.local_addr(), d.edge.local_addr(), Guid(1), true).unwrap();
    let r1 = p1.download(ObjectId(1)).unwrap();
    assert_eq!(r1.content_hash, expected_hash);
    assert_eq!(r1.bytes_from_peers, 0);
    assert_eq!(r1.bytes_from_edge, d.content.len() as u64);
    assert_eq!(p1.cached_objects(), 1);

    // Give the registration a moment to land.
    std::thread::sleep(std::time::Duration::from_millis(150));

    // Peer 2: should pull most bytes from peer 1.
    let p2 = PeerDaemon::start(d.control.local_addr(), d.edge.local_addr(), Guid(2), true).unwrap();
    let r2 = p2.download(ObjectId(1)).unwrap();
    assert_eq!(r2.content_hash, expected_hash);
    assert!(
        r2.bytes_from_peers > 0,
        "second download must use the swarm"
    );
    assert_eq!(
        r2.bytes_from_peers + r2.bytes_from_edge,
        d.content.len() as u64
    );
    assert!(r2.peer_sources >= 1);

    std::thread::sleep(std::time::Duration::from_millis(150));

    // Peer 3: two seeds now.
    let p3 = PeerDaemon::start(d.control.local_addr(), d.edge.local_addr(), Guid(3), true).unwrap();
    let r3 = p3.download(ObjectId(1)).unwrap();
    assert_eq!(r3.content_hash, expected_hash);
    assert!(r3.bytes_from_peers > 0);

    // Usage reports reached the control plane.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let usage = d.control.drain_usage();
    assert!(usage.len() >= 3, "usage records: {}", usage.len());

    p1.shutdown();
    p2.shutdown();
    p3.shutdown();
    d.control.shutdown();
    d.edge.shutdown();
}

#[test]
fn trace_context_propagates_across_processes() {
    let d = deploy(true);

    // Seed peer 1 from the edge, then let peer 2 download from the swarm.
    let p1 =
        PeerDaemon::start(d.control.local_addr(), d.edge.local_addr(), Guid(41), true).unwrap();
    p1.download(ObjectId(1)).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(150));
    let p2 =
        PeerDaemon::start(d.control.local_addr(), d.edge.local_addr(), Guid(42), true).unwrap();
    let r2 = p2.download(ObjectId(1)).unwrap();
    assert!(r2.bytes_from_peers > 0, "p2 must use the swarm");

    // p2's root download span defines the trace id every other process
    // should have joined via the framing envelope.
    let p2_spans = p2.trace().spans();
    let root = p2_spans
        .iter()
        .find(|s| s.name == "download")
        .expect("client records a root span");
    let trace_id = root.trace;

    // Control server: the query_peers span joined p2's trace.
    let control_spans = d.control.trace().spans();
    assert!(
        control_spans
            .iter()
            .any(|s| s.trace == trace_id && s.name == "query_peers"),
        "control-plane span must join the client's trace: {control_spans:?}"
    );

    // Edge server: the authorize span joined p2's trace.
    let edge_spans = d.edge.trace().spans();
    assert!(
        edge_spans
            .iter()
            .any(|s| s.trace == trace_id && s.name == "authorize"),
        "edge span must join the client's trace: {edge_spans:?}"
    );

    // Uploading peer: serve_upload joined p2's trace.
    let p1_spans = p1.trace().spans();
    assert!(
        p1_spans
            .iter()
            .any(|s| s.trace == trace_id && s.name == "serve_upload"),
        "uploader span must join the downloader's trace: {p1_spans:?}"
    );

    // Span ids from different processes never collide (distinct prefixes).
    let mut all_ids: Vec<u64> = Vec::new();
    for s in p2_spans
        .iter()
        .chain(&control_spans)
        .chain(&edge_spans)
        .chain(&p1_spans)
    {
        all_ids.push(s.id.0);
    }
    let distinct: std::collections::HashSet<u64> = all_ids.iter().copied().collect();
    assert_eq!(distinct.len(), all_ids.len(), "span ids must be unique");

    p1.shutdown();
    p2.shutdown();
    d.control.shutdown();
    d.edge.shutdown();
}

#[test]
fn infra_only_object_never_touches_peers() {
    let d = deploy(false);
    let p1 =
        PeerDaemon::start(d.control.local_addr(), d.edge.local_addr(), Guid(10), true).unwrap();
    let r1 = p1.download(ObjectId(1)).unwrap();
    assert_eq!(r1.bytes_from_peers, 0);

    let p2 =
        PeerDaemon::start(d.control.local_addr(), d.edge.local_addr(), Guid(11), true).unwrap();
    let r2 = p2.download(ObjectId(1)).unwrap();
    // p2p disabled: even with a cached copy nearby, all bytes are edge.
    assert_eq!(r2.bytes_from_peers, 0);
    assert_eq!(r2.bytes_from_edge, d.content.len() as u64);
    p1.shutdown();
    p2.shutdown();
    d.control.shutdown();
    d.edge.shutdown();
}

#[test]
fn upload_disabled_peer_is_never_selected() {
    let d = deploy(true);
    // Peer 1 downloads but has uploads OFF.
    let p1 =
        PeerDaemon::start(d.control.local_addr(), d.edge.local_addr(), Guid(21), false).unwrap();
    let r1 = p1.download(ObjectId(1)).unwrap();
    assert_eq!(r1.bytes_from_peers, 0);
    std::thread::sleep(std::time::Duration::from_millis(150));

    // Peer 2: no seeders available (peer 1 didn't register) → edge only.
    let p2 =
        PeerDaemon::start(d.control.local_addr(), d.edge.local_addr(), Guid(22), true).unwrap();
    let r2 = p2.download(ObjectId(1)).unwrap();
    assert_eq!(
        r2.bytes_from_peers, 0,
        "nobody registered a copy, so the edge serves everything"
    );
    p1.shutdown();
    p2.shutdown();
    d.control.shutdown();
    d.edge.shutdown();
}

/// §3.8 over real sockets: kill the control server mid-deployment, watch
/// daemons degrade to edge-only, restart the server on the same port, and
/// verify the reconnect supervisor re-logs-in and re-registers cached
/// content (fate-sharing) so the swarm works again.
#[test]
fn control_kill_degrades_to_edge_then_reconnect_restores_the_swarm() {
    let Deployment {
        control,
        edge,
        content,
    } = deploy(true);
    let expected_hash = sha256(&content);
    let control_addr = control.local_addr();

    // Seed peer 1 from the edge; its registration lands on the CN.
    let p1 = PeerDaemon::start(control_addr, edge.local_addr(), Guid(51), true).unwrap();
    p1.download(ObjectId(1)).unwrap();
    // Peer 2 joins while the control plane is still healthy.
    let p2 = PeerDaemon::start(control_addr, edge.local_addr(), Guid(52), true).unwrap();
    assert!(p1.control_connected() && p2.control_connected());

    // Crash the CN: every live control connection is severed.
    control.kill();
    let gone = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while (p1.control_connected() || p2.control_connected()) && std::time::Instant::now() < gone {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(
        !p2.control_connected(),
        "severed link must be detected and control_up lowered"
    );

    // Download during the outage: no peer query, all bytes from the edge.
    let r2 = p2.download(ObjectId(1)).unwrap();
    assert_eq!(r2.content_hash, expected_hash);
    assert_eq!(r2.bytes_from_peers, 0);
    assert_eq!(r2.bytes_from_edge, content.len() as u64);
    assert_eq!(
        p2.metrics().counter("net.peer.edge_only_downloads").get(),
        1,
        "the degraded download must be counted"
    );

    // Restart the CN on the same address. SO_REUSEADDR lets us rebind as
    // soon as the old accept loop notices the stop flag (~10ms); retry
    // until then.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let control2 = loop {
        match ControlServer::start(&control_addr.to_string(), EdgeAuth::from_seed(42)) {
            Ok(server) => break server,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Err(e) => panic!("restart on {control_addr} failed: {e:?}"),
        }
    };

    // Both daemons reconnect under backoff and re-register their caches.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while control2.connected() < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert_eq!(control2.connected(), 2, "both daemons must reconnect");
    let version = netsession_core::id::VersionId {
        object: ObjectId(1),
        version: 1,
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while control2.holder_count(version) < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert_eq!(
        control2.holder_count(version),
        2,
        "reconnect must re-register both cached copies (fate-sharing)"
    );
    assert!(p2.metrics().counter("net.peer.control_reconnects").get() >= 1);
    assert!(p2.metrics().counter("net.peer.control_disconnects").get() >= 1);
    assert!(
        p2.metrics()
            .counter("net.peer.control_reregistrations")
            .get()
            >= 1
    );

    // A third peer now sees a healthy swarm again.
    let p3 = PeerDaemon::start(control_addr, edge.local_addr(), Guid(53), true).unwrap();
    let r3 = p3.download(ObjectId(1)).unwrap();
    assert_eq!(r3.content_hash, expected_hash);
    assert!(
        r3.bytes_from_peers > 0,
        "after recovery the swarm must serve bytes again"
    );

    p1.shutdown();
    p2.shutdown();
    p3.shutdown();
    control2.shutdown();
    edge.shutdown();
}

/// A control plane that accepts connections but never answers: the peer
/// query times out after 3s and the download must degrade to edge-only
/// (not fail), count the timeout, and close the query span.
#[test]
fn unresponsive_control_times_out_and_degrades_to_edge() {
    let d = deploy(true);

    // Black-hole control server: accepts and holds sockets, says nothing.
    let blackhole = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let bh_addr = blackhole.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((stream, _)) = blackhole.accept() {
            held.push(stream);
        }
    });

    let p = PeerDaemon::start(bh_addr, d.edge.local_addr(), Guid(61), true).unwrap();
    let r = p.download(ObjectId(1)).unwrap();
    assert_eq!(r.content_hash, sha256(&d.content));
    assert_eq!(r.bytes_from_peers, 0);
    assert_eq!(r.bytes_from_edge, d.content.len() as u64);
    assert_eq!(r.peer_sources, 0);
    assert_eq!(p.metrics().counter("net.peer.query_timeouts").get(), 1);
    assert_eq!(p.metrics().counter("net.peer.downloads_completed").get(), 1);

    // The timed-out query span must still be closed (span-leak fix).
    let spans = p.trace().spans();
    let q = spans
        .iter()
        .find(|s| s.name == "query_peers")
        .expect("query span recorded");
    assert!(q.end_us.is_some(), "timeout path must end the span");
    assert_no_open_spans(&p);

    p.shutdown();
    d.control.shutdown();
    d.edge.shutdown();
}

fn assert_no_open_spans(p: &PeerDaemon) {
    let open: Vec<_> = p
        .trace()
        .spans()
        .into_iter()
        .filter(|s| s.end_us.is_none())
        .collect();
    assert!(open.is_empty(), "spans left open: {open:?}");
}

/// A download that cannot reach the edge — the listener is gone, or it
/// hangs up before answering — returns an error and still closes its root
/// `download` span (and the `authorize` span under it) with
/// `outcome=failed`.
#[test]
fn edge_down_fails_the_download_and_closes_its_spans() {
    let d = deploy(true);
    let control_addr = d.control.local_addr();

    // An "edge" that accepts and hangs up: the Authorize read fails.
    let hangup = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let hangup_addr = hangup.local_addr().unwrap();
    std::thread::spawn(move || while hangup.accept().is_ok() {});
    // A real edge that has been shut down: the connect fails.
    let down_addr = d.edge.local_addr();
    d.edge.shutdown();

    for (guid, edge_addr) in [(71, hangup_addr), (72, down_addr)] {
        let p = PeerDaemon::start(control_addr, edge_addr, Guid(guid), true).unwrap();
        let err = p.download(ObjectId(1)).unwrap_err();
        assert!(
            matches!(err, netsession_core::error::Error::Network(_)),
            "{err:?}"
        );
        let spans = p.trace().spans();
        let root = spans.iter().find(|s| s.name == "download").unwrap();
        assert!(root.end_us.is_some(), "root span left open at {edge_addr}");
        let outcome = root.attrs.iter().find(|(k, _)| *k == "outcome");
        assert_eq!(
            outcome.map(|(_, v)| v),
            Some(&netsession_obs::AttrValue::Str("failed".into()))
        );
        assert_no_open_spans(&p);
        p.shutdown();
    }
    d.control.shutdown();
}

#[test]
fn unknown_object_is_denied() {
    let d = deploy(true);
    let p = PeerDaemon::start(d.control.local_addr(), d.edge.local_addr(), Guid(31), true).unwrap();
    let err = p.download(ObjectId(404)).unwrap_err();
    assert!(matches!(
        err,
        netsession_core::error::Error::PolicyDenied(_)
    ));
    p.shutdown();
    d.control.shutdown();
    d.edge.shutdown();
}
