//! A seeder that lies (§3.5): it answers every request with a piece that
//! carries no bytes but the manifest's own digest. The manifest's digests
//! are public, so only the bytes prove a piece: the daemon must reject
//! every such piece, report the source once (§3.6), and finish the object
//! from the edge backstop.

use netsession_core::hash::sha256;
use netsession_core::id::{CpCode, Guid, ObjectId, VersionId};
use netsession_core::msg::{ControlMsg, NatType, PeerAddr, SwarmMsg};
use netsession_core::piece::{Manifest, PieceMap};
use netsession_core::policy::DownloadPolicy;
use netsession_edge::accounting::AccountingLedger;
use netsession_edge::auth::EdgeAuth;
use netsession_edge::store::ContentStore;
use netsession_net::control_server::ControlServer;
use netsession_net::edge_server::EdgeHttpServer;
use netsession_net::framing::{nodelay, read_msg, write_msg};
use netsession_net::peer_daemon::PeerDaemon;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VERSION: VersionId = VersionId {
    object: ObjectId(1),
    version: 1,
};
const PIECE: u64 = 16 * 1024;

#[test]
fn a_seeder_sending_digests_without_bytes_is_rejected_and_reported_once() {
    let content: Vec<u8> = (0..300_000u32)
        .map(|i| (i.wrapping_mul(2654435761)) as u8)
        .collect();
    let manifest = Manifest::from_content(VERSION, &content, PIECE);
    let auth = EdgeAuth::from_seed(5);
    let store = Arc::new(ContentStore::new());
    store.publish_content(
        ObjectId(1),
        CpCode(1),
        content.clone(),
        PIECE,
        DownloadPolicy::peer_assisted(),
    );
    let ledger = Arc::new(AccountingLedger::new());
    let edge = EdgeHttpServer::start("127.0.0.1:0", store, auth.clone(), ledger).unwrap();
    let control = ControlServer::start("127.0.0.1:0", auth).unwrap();

    // The liar logs in as a holder of the object.
    let liar = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut link = TcpStream::connect(control.local_addr())
        .and_then(nodelay)
        .unwrap();
    let login = ControlMsg::Login {
        guid: Guid(66),
        secondary_guids: vec![],
        uploads_enabled: true,
        software_version: 1,
        nat: NatType::Open,
        addr: PeerAddr {
            ip: u32::from_be_bytes([127, 0, 0, 1]),
            port: liar.local_addr().unwrap().port(),
        },
    };
    write_msg(&mut link, &login).unwrap();
    let register = ControlMsg::RegisterContent {
        version: VERSION,
        fraction: 1.0,
    };
    write_msg(&mut link, &register).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while control.holder_count(VERSION) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(control.holder_count(VERSION), 1);

    // It serves one downloader: a full have-map, then an empty piece with
    // the right digest for every request.
    let hashes = manifest.piece_hashes.clone();
    let pieces = manifest.piece_count();
    let server = std::thread::spawn(move || {
        let (stream, _) = liar.accept().unwrap();
        let mut r = nodelay(stream).unwrap();
        let mut w = r.try_clone().unwrap();
        let Ok(Some(SwarmMsg::Handshake { token, .. })) = read_msg(&mut r) else {
            panic!("no handshake");
        };
        let handshake = SwarmMsg::Handshake {
            guid: Guid(66),
            token,
            version: VERSION,
        };
        write_msg(&mut w, &handshake).unwrap();
        write_msg(&mut w, &SwarmMsg::have_map(&PieceMap::full(pieces))).unwrap();
        let mut lies = 0u32;
        while let Ok(Some(msg)) = read_msg::<_, SwarmMsg>(&mut r) {
            let SwarmMsg::Request { piece } = msg else {
                break;
            };
            let lie = SwarmMsg::Piece {
                piece,
                data: Vec::new(),
                digest: hashes[piece as usize],
            };
            if write_msg(&mut w, &lie).is_err() {
                break;
            }
            lies += 1;
        }
        lies
    });

    let client =
        PeerDaemon::start(control.local_addr(), edge.local_addr(), Guid(7), false).unwrap();
    let report = client.download(ObjectId(1)).unwrap();
    assert_eq!(report.content_hash, sha256(&content));
    assert_eq!(report.bytes_from_peers, 0);
    assert_eq!(report.bytes_from_edge, content.len() as u64);
    assert_eq!(report.peer_sources, 0);
    let metrics = client.metrics();
    let problems = metrics.counter("net.peer.problems.verification_failure");
    assert_eq!(problems.get(), 1, "one report per source per download");
    // The session records into the daemon's registry: every lie it read
    // (the last few may arrive after the edge finished) counts as corrupt.
    let lies = u64::from(server.join().unwrap());
    let corrupt = metrics.counter("peer.swarm_pieces_corrupt").get();
    assert!((1..=lies).contains(&corrupt), "{corrupt} of {lies} lies");

    client.shutdown();
    control.shutdown();
    edge.shutdown();
}
