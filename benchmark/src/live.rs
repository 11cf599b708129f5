//! `live_edge` and `live_swarm`: the socket tier on loopback — one
//! `EdgeHttpServer`, one `ControlServer`, `PeerDaemon`s. The only workloads
//! that touch `net`, `core::codec`, real piece hashing and the daemon's
//! download state machine.
//!
//! One pass is one `PeerDaemon::download` by the client daemon, which never
//! registers what it fetched. In `live_edge` nobody holds the objects, so
//! every download is the edge-only path (no contacts, no hold). In
//! `live_swarm` object `k` is held by `k % 4 + 1` seeding daemons, so the
//! client meets 1, 2, 3 and 4 sources in turn and the edge is the backstop
//! behind the daemon's fixed 400 ms hold. The pair is the read/write pair
//! for the edge and the daemon: swarm machinery exercised against bypassed.
//!
//! Closed loop, one generator thread: the next download starts when the
//! previous one returned. Loopback only.

use crate::spans::Spans;
use crate::{timed_passes, Outcome, RunArgs};
use netsession_core::hash::{sha256, Digest};
use netsession_core::id::{CpCode, Guid, ObjectId, VersionId};
use netsession_core::msg::{ControlMsg, EdgeMsg, NatType, PeerAddr};
use netsession_core::policy::DownloadPolicy;
use netsession_core::rng::DetRng;
use netsession_edge::accounting::AccountingLedger;
use netsession_edge::auth::EdgeAuth;
use netsession_edge::store::ContentStore;
use netsession_net::control_server::ControlServer;
use netsession_net::edge_server::EdgeHttpServer;
use netsession_net::framing::{read_msg, write_msg};
use netsession_net::http::http_get;
use netsession_net::peer_daemon::{DownloadReport, PeerDaemon};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PIECE_BYTES: u64 = 64 * 1024;
const CLIENT_GUID: Guid = Guid(0xC11E);
const PROBE_GUID: Guid = Guid(0x9B0B);
/// How long each request-rate probe keeps its one connection busy.
const PROBE_WINDOW: Duration = Duration::from_millis(500);

struct Fleet {
    edge: EdgeHttpServer,
    control: ControlServer,
    seeders: Vec<PeerDaemon>,
    client: PeerDaemon,
    hashes: Vec<Digest>,
    object_bytes: u64,
}

impl Fleet {
    /// Publish `objects` objects of `object_bytes` seeded random bytes,
    /// start the servers and daemons, log them in and, for `swarm`, let the
    /// seeders fetch their objects.
    fn start(seed: u64, swarm: bool, objects: u64, object_bytes: u64, seeders: u64) -> Fleet {
        let auth = EdgeAuth::from_seed(seed);
        let store = Arc::new(ContentStore::new());
        let mut rng = DetRng::seeded(seed);
        let mut hashes = Vec::new();
        for k in 0..objects {
            let mut content = vec![0u8; object_bytes as usize];
            rng.fill_bytes(&mut content);
            hashes.push(sha256(&content));
            store.publish_content(
                ObjectId(k + 1),
                CpCode(1),
                content,
                PIECE_BYTES,
                DownloadPolicy::peer_assisted(),
            );
        }
        let ledger = Arc::new(AccountingLedger::new());
        let edge =
            EdgeHttpServer::start("127.0.0.1:0", store, auth.clone(), ledger).expect("edge starts");
        let control = ControlServer::start("127.0.0.1:0", auth).expect("control starts");
        let daemon = |guid: Guid, uploads: bool| {
            PeerDaemon::start(control.local_addr(), edge.local_addr(), guid, uploads)
                .expect("daemon starts and logs in")
        };
        let seeders: Vec<PeerDaemon> = (0..if swarm { seeders } else { 0 })
            .map(|i| daemon(Guid(i as u128 + 1), true))
            .collect();
        let client = daemon(CLIENT_GUID, false);

        // The holders of one object fetch it at the same moment: none is
        // registered yet, so each takes the quick edge-only path instead
        // of sitting out the 400 ms hold, and all register afterwards.
        for k in 0..objects {
            let holders = (k % seeders.len().max(1) as u64 + 1) as usize;
            std::thread::scope(|scope| {
                for seeder in seeders.iter().take(holders) {
                    let expected = hashes[k as usize];
                    scope.spawn(move || {
                        let report = seeder.download(ObjectId(k + 1)).expect("seeding download");
                        assert_eq!(report.content_hash, expected, "seeded content verifies");
                    });
                }
            });
        }
        Fleet {
            edge,
            control,
            seeders,
            client,
            hashes,
            object_bytes,
        }
    }

    fn shutdown(self) {
        self.client.shutdown();
        for seeder in self.seeders {
            seeder.shutdown();
        }
        self.control.shutdown();
        self.edge.shutdown();
    }
}

pub fn run(args: &RunArgs, swarm: bool) -> Outcome {
    let (objects, object_bytes, seeders) = if args.smoke {
        (2, 1 << 20, 2)
    } else {
        (4, 8 << 20, 4)
    };

    // Set-up: content publish, server and daemon start, login, seeding.
    // Done three times so `setup_s` is a median; the last fleet is kept.
    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..3 {
        if let Some(previous) = fleet.take() {
            Fleet::shutdown(previous);
        }
        let t = Instant::now();
        fleet = Some(Fleet::start(
            args.seed,
            swarm,
            objects,
            object_bytes,
            seeders,
        ));
        setups.push(t.elapsed().as_secs_f64());
    }
    let fleet = fleet.expect("three set-ups ran");

    let mut spans = Spans::new(args.trace);
    let mut walls = Vec::new();
    let mut reports: Vec<Option<DownloadReport>> = Vec::new();
    let mut spans_seen = 0;
    let phase_wall = timed_passes(args, 5, |i| {
        let k = i as u64 % objects;
        spans.next_op();
        let (result, wall) = spans.time("net.peer_daemon.download", |spans| {
            let result = fleet.client.download(ObjectId(k + 1));
            if args.trace {
                adopt_daemon_spans(&fleet.client, &mut spans_seen, spans);
            }
            result
        });
        walls.push(wall);
        let mut expected = fleet.hashes[k as usize];
        if args.corrupt && i == 1 {
            expected.0[0] ^= 1;
        }
        // Verified means: the assembled content hashes to what was
        // published, and edge plus peer bytes are exactly the object.
        reports.push(result.ok().filter(|r| {
            r.content_hash == expected
                && r.bytes_from_edge + r.bytes_from_peers == fleet.object_bytes
        }));
    });

    let mut out = Outcome::new(spans);
    out.attempted = reports.len() as u64;
    out.failed = reports.iter().filter(|r| r.is_none()).count() as u64;
    if out.failed > 0 {
        eprintln!(
            "live: {} download(s) errored, mis-hashed or mis-sized",
            out.failed
        );
    }
    let verified: Vec<&DownloadReport> = reports.iter().flatten().collect();
    let from_peers: u64 = verified.iter().map(|r| r.bytes_from_peers).sum();
    let from_edge: u64 = verified.iter().map(|r| r.bytes_from_edge).sum();
    let delivered = (from_peers + from_edge) as f64;
    out.setup(&setups);
    out.passes(&walls);
    // Work here is verified 64 KiB pieces per second of the whole download
    // phase (× 0.065536 for goodput in MB/s).
    out.set("work_per_s", delivered / PIECE_BYTES as f64 / phase_wall);
    out.efficiency(from_peers as f64 / delivered.max(1.0));

    if args.trace {
        let n = verified.len().max(1) as f64;
        let client = fleet.client.metrics().scrape();
        for phase in ["authorize", "query_peers", "transfer"] {
            let secs = out.spans.median_secs(&format!("net.peer_daemon.{phase}"));
            out.set(&format!("net.peer_daemon.{phase}_ms"), secs * 1e3);
        }
        out.set(
            "net.peer_daemon.peer_sources",
            verified.iter().map(|r| r.peer_sources as f64).sum::<f64>() / n,
        );
        out.set(
            "net.peer_daemon.swarm_connections",
            client.counter("net.peer.swarm_connections_out") as f64 / n,
        );
        out.set(
            "net.peer_daemon.query_timeouts",
            client.counter("net.peer.query_timeouts") as f64,
        );
        out.set("net.goodput_mb_s", delivered / 1e6 / phase_wall);
        server_probes(&mut out, &fleet);
    }
    fleet.shutdown();
    out
}

/// Per-download phases, read from the daemon's own public trace: its
/// `authorize` and `query_peers` spans, and the rest of the download —
/// connects, transfer, verify, assemble — as `transfer`. `seen` is how many
/// of the daemon's spans earlier downloads already accounted for.
fn adopt_daemon_spans(client: &PeerDaemon, seen: &mut usize, spans: &mut Spans) {
    let all = client.trace().spans();
    let fresh = &all[(*seen).min(all.len())..];
    *seen = all.len();
    let Some(root) = fresh.iter().find(|s| s.name == "download") else {
        return;
    };
    let length = |start: u64, end: Option<u64>| end.unwrap_or(start).saturating_sub(start) as f64;
    let phase = |name: &str| {
        fresh
            .iter()
            .find(|s| s.name == name && s.trace == root.trace)
            .map(|s| {
                (
                    s.start_us.saturating_sub(root.start_us) as f64,
                    length(s.start_us, s.end_us),
                )
            })
    };
    let authorize = phase("authorize").unwrap_or((0.0, 0.0));
    let query = phase("query_peers").unwrap_or((authorize.0 + authorize.1, 0.0));
    let transfer_start = query.0 + query.1;
    spans.adopt("net.peer_daemon.authorize", authorize.0, authorize.1);
    spans.adopt("net.peer_daemon.query_peers", query.0, query.1);
    spans.adopt(
        "net.peer_daemon.transfer",
        transfer_start,
        (length(root.start_us, root.end_us) - transfer_start).max(0.0),
    );
}

/// Single-connection request loops against the servers the downloads just
/// used: one connection open at a time, one request in flight.
fn server_probes(out: &mut Outcome, fleet: &Fleet) {
    let version = VersionId {
        object: ObjectId(1),
        version: 1,
    };
    let authorize = EdgeMsg::Authorize {
        guid: PROBE_GUID,
        version,
    };

    // Edge: Authorize, then GetPiece over the whole object.
    let mut edge = TcpStream::connect(fleet.edge.local_addr()).expect("edge connect");
    write_msg(&mut edge, &authorize).expect("edge write");
    let Ok(Some(EdgeMsg::Authorized {
        token, manifest, ..
    })) = read_msg(&mut edge)
    else {
        panic!("edge probe: authorization refused");
    };
    let t = Instant::now();
    let mut bytes = 0u64;
    for piece in 0..manifest.piece_count() {
        write_msg(&mut edge, &EdgeMsg::GetPiece { token, piece }).expect("edge write");
        match read_msg(&mut edge) {
            Ok(Some(EdgeMsg::PieceData { data, .. })) => bytes += data.len() as u64,
            other => panic!("edge probe: expected a piece, got {other:?}"),
        }
    }
    out.set(
        "net.edge_server.piece_mb_s",
        bytes as f64 / 1e6 / t.elapsed().as_secs_f64(),
    );
    let t = Instant::now();
    let mut grants = 0u32;
    while t.elapsed() < PROBE_WINDOW {
        write_msg(&mut edge, &authorize).expect("edge write");
        let reply: Option<EdgeMsg> = read_msg(&mut edge).expect("edge read");
        assert!(matches!(reply, Some(EdgeMsg::Authorized { .. })));
        grants += 1;
    }
    out.set(
        "net.edge_server.authorize_rps",
        grants as f64 / t.elapsed().as_secs_f64(),
    );
    drop(edge);

    // Control: Login, then QueryPeers with the token the edge just issued.
    let mut control = TcpStream::connect(fleet.control.local_addr()).expect("control connect");
    let t = Instant::now();
    let login = ControlMsg::Login {
        guid: PROBE_GUID,
        secondary_guids: Vec::new(),
        uploads_enabled: false,
        software_version: 1,
        nat: NatType::FullCone,
        addr: PeerAddr {
            ip: 0x7f00_0001,
            port: 1,
        },
    };
    write_msg(&mut control, &login).expect("control write");
    let ack: Option<ControlMsg> = read_msg(&mut control).expect("control read");
    assert!(matches!(ack, Some(ControlMsg::LoginAck { .. })));
    out.set(
        "net.control_server.login_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    let t = Instant::now();
    let mut answers = 0u32;
    while t.elapsed() < PROBE_WINDOW {
        let query = ControlMsg::QueryPeers {
            token,
            max_peers: 8,
        };
        write_msg(&mut control, &query).expect("control write");
        // The answer follows the ConnectTo pushes for each offered peer.
        loop {
            match read_msg::<_, ControlMsg>(&mut control).expect("control read") {
                Some(ControlMsg::PeerList { .. }) => break,
                Some(_) => continue,
                None => panic!("control probe: connection closed"),
            }
        }
        answers += 1;
    }
    out.set(
        "net.control_server.query_rps",
        answers as f64 / t.elapsed().as_secs_f64(),
    );
    drop(control);

    // Monitoring cost: what one /metrics scrape of the edge takes.
    let scrapes: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            let (status, _) = http_get(fleet.edge.admin_addr(), "/metrics", Duration::from_secs(2))
                .expect("metrics scrape");
            assert_eq!(status, 200);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set("net.http.metrics_scrape_ms", crate::stats::median(&scrapes));
}
