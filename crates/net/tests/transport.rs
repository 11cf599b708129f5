//! What the live tier's sockets and listener threads owe the download path:
//! back-to-back frames are not held for a delayed ACK, a swarm that can
//! carry the whole object does, and a server that was shut down has really
//! let go of its ports, threads and content.

use netsession_core::hash::sha256;
use netsession_core::id::{CpCode, Guid, ObjectId, VersionId};
use netsession_core::msg::{ControlMsg, EdgeMsg, NatType, PeerAddr, UsageRecord};
use netsession_core::policy::DownloadPolicy;
use netsession_core::rng::DetRng;
use netsession_core::units::ByteCount;
use netsession_edge::accounting::AccountingLedger;
use netsession_edge::auth::EdgeAuth;
use netsession_edge::store::ContentStore;
use netsession_net::control_server::ControlServer;
use netsession_net::edge_server::EdgeHttpServer;
use netsession_net::framing::{nodelay, read_msg, wall_now, write_msg};
use netsession_net::monitor_server::MonitorServer;
use netsession_net::peer_daemon::PeerDaemon;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VERSION: VersionId = VersionId {
    object: ObjectId(1),
    version: 1,
};

/// Poll `cond` until it holds or `secs` elapse.
fn wait_for(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

fn login(addr: SocketAddr, guid: u128, port: u16) -> TcpStream {
    let mut stream = TcpStream::connect(addr).and_then(nodelay).unwrap();
    let login = ControlMsg::Login {
        guid: Guid(guid),
        secondary_guids: vec![],
        uploads_enabled: true,
        software_version: 1,
        nat: NatType::Open,
        addr: PeerAddr {
            ip: u32::from_be_bytes([127, 0, 0, 1]),
            port,
        },
    };
    write_msg(&mut stream, &login).unwrap();
    let ack: Option<ControlMsg> = read_msg(&mut stream).unwrap();
    assert!(matches!(ack, Some(ControlMsg::LoginAck { .. })));
    stream
}

/// Median over 20 rounds of `round`, in milliseconds.
fn median_ms(mut round: impl FnMut()) -> f64 {
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            round();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// The two write-write-read shapes of a download's control exchange. With
/// Nagle on either side, the second frame waits out the receiver's 40 ms
/// delayed ACK; the bound leaves room for a loaded machine but not for that.
#[test]
fn back_to_back_control_frames_are_answered_without_a_delayed_ack_stall() {
    let auth = EdgeAuth::from_seed(7);
    let server = ControlServer::start("127.0.0.1:0", auth.clone()).unwrap();
    let mut holder = login(server.local_addr(), 1, 1111);
    let registration = ControlMsg::RegisterContent {
        version: VERSION,
        fraction: 1.0,
    };
    write_msg(&mut holder, &registration).unwrap();
    assert!(wait_for(5, || server.holder_count(VERSION) == 1));
    // Keep the holder's pushes drained so its socket never backs up.
    std::thread::spawn(move || while let Ok(Some(_)) = read_msg::<_, ControlMsg>(&mut holder) {});

    let mut client = login(server.local_addr(), 2, 2222);
    let token = auth.issue(Guid(2), VERSION, wall_now());
    let query = ControlMsg::QueryPeers {
        token,
        max_peers: 8,
    };
    let usage = ControlMsg::UsageReport {
        records: vec![UsageRecord {
            guid: Guid(2),
            version: VERSION,
            started: wall_now(),
            ended: wall_now(),
            bytes_from_infrastructure: ByteCount(1),
            bytes_from_peers: ByteCount(1),
        }],
    };

    // Client side: a query written right behind a fire-and-forget report.
    // Server side: the PeerList written right behind a ConnectTo push.
    let mut pushes = 0;
    let median = median_ms(|| {
        write_msg(&mut client, &usage).unwrap();
        write_msg(&mut client, &query).unwrap();
        loop {
            match read_msg::<_, ControlMsg>(&mut client).unwrap().unwrap() {
                ControlMsg::PeerList { peers, .. } => {
                    assert_eq!(peers.len(), 1);
                    break;
                }
                ControlMsg::ConnectTo { .. } => pushes += 1,
                other => panic!("{other:?}"),
            }
        }
    });
    assert_eq!(pushes, 20, "every PeerList followed a ConnectTo push");
    assert!(median < 10.0, "median query round trip {median:.1} ms");
    server.shutdown();
}

/// Benchmark-shaped swarm: an 8 MB object in 64 KiB pieces, held by four
/// seeders. The peers deliver all of it inside the daemon's 400 ms hold, so
/// the edge backstop never serves a byte of the fifth download.
#[test]
fn four_seeders_deliver_the_whole_object() {
    let auth = EdgeAuth::from_seed(11);
    let store = Arc::new(ContentStore::new());
    let mut content = vec![0u8; 8 << 20];
    DetRng::seeded(11).fill_bytes(&mut content);
    let expected = sha256(&content);
    let size = content.len() as u64;
    store.publish_content(
        ObjectId(1),
        CpCode(1),
        content,
        64 * 1024,
        DownloadPolicy::peer_assisted(),
    );
    let ledger = Arc::new(AccountingLedger::new());
    let edge = EdgeHttpServer::start("127.0.0.1:0", store, auth.clone(), ledger).unwrap();
    let control = ControlServer::start("127.0.0.1:0", auth).unwrap();
    let daemon = |guid: u128, uploads: bool| {
        PeerDaemon::start(control.local_addr(), edge.local_addr(), Guid(guid), uploads).unwrap()
    };

    // The seeders fetch at the same moment: nobody is registered yet, so
    // each takes the edge-only path.
    let seeders: Vec<PeerDaemon> = (1..=4).map(|g| daemon(g, true)).collect();
    std::thread::scope(|scope| {
        for seeder in &seeders {
            scope.spawn(move || {
                let report = seeder.download(ObjectId(1)).unwrap();
                assert_eq!(report.content_hash, expected);
            });
        }
    });
    assert!(wait_for(5, || control.holder_count(VERSION) == 4));
    let served_to_seeders = edge.edge.total_served().bytes();

    let client = daemon(9, false);
    let report = client.download(ObjectId(1)).unwrap();
    assert_eq!(report.content_hash, expected);
    assert_eq!(report.bytes_from_peers + report.bytes_from_edge, size);
    assert!(report.peer_sources >= 2, "{} sources", report.peer_sources);
    // Verifying 8 MB takes half the hold in an unoptimised build on the
    // SHA-NI kernel; the unoptimised scalar loop is several times slower
    // still, and there the backstop may rightly engage.
    if !cfg!(debug_assertions) || netsession_core::hash::kernel() == "sha-ni" {
        assert_eq!(report.bytes_from_peers, size, "peers carry every byte");
        assert_eq!(edge.edge.total_served().bytes(), served_to_seeders);
    }

    client.shutdown();
    for seeder in seeders {
        seeder.shutdown();
    }
    control.shutdown();
    edge.shutdown();
}

fn refuses_connections(addr: SocketAddr) -> bool {
    TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_err()
}

/// Twenty start/shutdown rounds of every server. `shutdown` joins the accept
/// threads, so the moment it returns no listener is left bound and nothing
/// but the test holds the content store.
#[test]
fn shutdown_releases_listeners_threads_and_the_store() {
    let auth = EdgeAuth::from_seed(3);
    let store = Arc::new(ContentStore::new());
    store.publish_content(
        ObjectId(1),
        CpCode(1),
        vec![7u8; 100_000],
        16 * 1024,
        DownloadPolicy::peer_assisted(),
    );
    for round in 0..20 {
        let ledger = Arc::new(AccountingLedger::new());
        let edge =
            EdgeHttpServer::start("127.0.0.1:0", store.clone(), auth.clone(), ledger).unwrap();
        let control = ControlServer::start("127.0.0.1:0", auth.clone()).unwrap();
        let monitor =
            MonitorServer::start("127.0.0.1:0", vec![], Duration::from_secs(3600), vec![]).unwrap();
        let daemon =
            PeerDaemon::start(control.local_addr(), edge.local_addr(), Guid(5), true).unwrap();
        assert!(Arc::strong_count(&store) > 1, "the edge holds the store");

        // One served request per round, so a connection thread has existed.
        let mut probe = TcpStream::connect(edge.local_addr())
            .and_then(nodelay)
            .unwrap();
        let authorize = EdgeMsg::Authorize {
            guid: Guid(5),
            version: VERSION,
        };
        write_msg(&mut probe, &authorize).unwrap();
        let reply: Option<EdgeMsg> = read_msg(&mut probe).unwrap();
        assert!(matches!(reply, Some(EdgeMsg::Authorized { .. })));
        drop(probe);

        let listeners = [
            edge.local_addr(),
            edge.admin_addr(),
            control.local_addr(),
            control.admin_addr(),
            monitor.local_addr(),
            monitor.admin_addr(),
            daemon.listen_addr(),
            daemon.admin_addr(),
        ];
        daemon.shutdown();
        monitor.shutdown();
        control.shutdown();
        edge.shutdown();
        for addr in listeners {
            assert!(
                refuses_connections(addr),
                "round {round}: {addr} still bound"
            );
        }
        // The probe's connection thread ends on its own at EOF.
        assert!(
            wait_for(2, || Arc::strong_count(&store) == 1),
            "round {round}: store still shared {} ways",
            Arc::strong_count(&store)
        );
    }
}
