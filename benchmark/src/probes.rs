//! Probes: short driven loops over one layer's public functions, on inputs
//! shaped like the workloads. They run at the end of every traced run, so
//! a layer's cost in isolation is on record next to the spans of the
//! workload that uses it. `BENCHMARK.json` (mirrored in the README) names
//! the end-to-end metric each probe should move.

use crate::Outcome;
use netsession_analytics::streamview;
use netsession_control::directory::PeerRecord;
use netsession_control::plane::{ControlPlane, PlaneConfig};
use netsession_control::selection::Querier;
use netsession_core::codec::Wire;
use netsession_core::hash::sha256;
use netsession_core::id::{AsNumber, CpCode, Guid, ObjectId, VersionId};
use netsession_core::msg::{NatType, PeerAddr, SwarmMsg};
use netsession_core::piece::{Manifest, PieceMap};
use netsession_core::policy::DownloadPolicy;
use netsession_core::rng::DetRng;
use netsession_core::time::{SimDuration, SimTime};
use netsession_core::units::{Bandwidth, ByteCount};
use netsession_edge::accounting::AccountingLedger;
use netsession_edge::auth::EdgeAuth;
use netsession_edge::server::EdgeServer;
use netsession_edge::store::ContentStore;
use netsession_hybrid::alerts::standard_rules;
use netsession_hybrid::{HybridSim, ScenarioConfig, TS_INTERVAL_US, TS_METRICS};
use netsession_logs::geodb::{EdgeScapeDb, GeoInfoRef};
use netsession_logs::sink::{DigestSink, StreamingSummary};
use netsession_net::framing::{read_msg, write_msg};
use netsession_obs::timeseries::{merge_shards, ShardSeries};
use netsession_obs::{AlertEngine, TraceSink};
use netsession_peer::picker::PiecePicker;
use netsession_peer::swarm::{SwarmEvent, SwarmSession};
use netsession_sim::flownet::FlowNet;
use netsession_sim::queue::{EventSched, TimingWheel};
use netsession_sim::shard::{Outbox, ShardRunner, ShardWorker};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Seconds `f` takes, divided by `ops`, in nanoseconds.
fn ns_per_op(ops: usize, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / ops as f64
}

pub fn run(out: &mut Outcome, smoke: bool) {
    let scale = |n: usize| if smoke { n / 10 } else { n };
    queue(out, scale(500_000));
    flownet(out, scale(10_000), scale(2_000));
    control_plane(out, scale(20_000), scale(20_000));
    edge(out, scale(20_000));
    geodb(out, scale(500_000));
    observability(out, scale(20_000), scale(100_000));
    shard_windows(out, scale(4_548), scale(1_000));
    timeseries(out, scale(2_000_000));
    hashing(out, scale(512));
    wire(out, scale(1_000));
    swarm(out, scale(200));
}

/// `TimingWheel` pop-then-push at a deep queue: the shape of `HybridSim`'s
/// hot loop, whose queue holds several hundred thousand entries.
fn queue(out: &mut Outcome, depth: usize) {
    let mut rng = DetRng::seeded(0x7175);
    let mut q: TimingWheel<u64> = TimingWheel::default();
    let mut seq = 0u64;
    for _ in 0..depth {
        q.push(SimTime(rng.next_u64() % 1_000_000_000), seq, seq);
        seq += 1;
    }
    let ns = ns_per_op(depth, || {
        let mut acc = 0u64;
        for _ in 0..depth {
            let (at, _, e) = q.pop().expect("queue stays at depth");
            acc ^= e;
            let later = at.as_micros() + 1 + rng.next_u64() % 60_000_000;
            q.push(SimTime(later), seq, seq);
            seq += 1;
        }
        black_box(acc);
    });
    out.set("sim.queue.steady_ns_per_op", ns);
}

/// Swarm-local churn: `flows` flows in swarms of ten nodes; every mutation
/// replaces one flow inside a swarm and recomputes only what it dirtied.
fn flownet(out: &mut Outcome, flows: usize, mutations: usize) {
    const SWARM: usize = 10;
    let mut rng = DetRng::seeded(0x666c);
    let mut net = FlowNet::new();
    let swarms = (flows / 40).max(1);
    let nodes: Vec<_> = (0..swarms * SWARM)
        .map(|_| {
            net.add_node(
                Bandwidth::from_mbps(rng.range_f64(0.5, 10.0)),
                Bandwidth::from_mbps(rng.range_f64(5.0, 100.0)),
            )
        })
        .collect();
    let flow_in = |net: &mut FlowNet, rng: &mut DetRng, swarm: usize| {
        let a = rng.index(SWARM);
        let b = (a + 1 + rng.index(SWARM - 1)) % SWARM;
        net.add_flow(nodes[swarm * SWARM + a], nodes[swarm * SWARM + b], None)
    };
    let mut live: Vec<_> = (0..flows)
        .map(|i| (i % swarms, flow_in(&mut net, &mut rng, i % swarms)))
        .collect();
    net.recompute();
    let ns = ns_per_op(mutations, || {
        for _ in 0..mutations {
            let slot = rng.index(live.len());
            let (swarm, old) = live[slot];
            net.remove_flow(old);
            live[slot] = (swarm, flow_in(&mut net, &mut rng, swarm));
            net.recompute_dirty();
        }
    });
    black_box(net.rate_checksum());
    out.set("sim.flownet.recompute_dirty_us", ns / 1e3);
}

/// A nine-region control plane with `peers` logged in and 200 versions of
/// 100 registered holders each: peer selection, and the login/logout pair
/// session churn pays.
fn control_plane(out: &mut Outcome, peers: usize, ops: usize) {
    const REGIONS: u32 = 9;
    let auth = EdgeAuth::from_seed(7);
    let mut plane = ControlPlane::new(
        &PlaneConfig {
            regions: REGIONS,
            ..PlaneConfig::default()
        },
        auth.clone(),
    );
    let now = SimTime(1_000_000);
    let record = |g: u64| PeerRecord {
        guid: Guid(g as u128),
        addr: PeerAddr {
            ip: g as u32,
            port: 1,
        },
        asn: AsNumber(100 + (g % 50) as u32),
        area: (g % 20) as u16,
        zone: (g % REGIONS as u64) as u8,
        nat: NatType::FullCone,
    };
    let login = |plane: &mut ControlPlane, g: u64| {
        let r = record(g);
        plane.login(
            (g % REGIONS as u64) as u32,
            r.guid,
            r.addr,
            r.nat,
            true,
            1,
            Vec::new(),
            now,
        );
    };
    for g in 0..peers as u64 {
        login(&mut plane, g);
    }
    let version = |v: u64| VersionId {
        object: ObjectId(v + 1),
        version: 1,
    };
    for v in 0..200u64 {
        for h in 0..100u64 {
            let g = (v * 97 + h * 31) % peers as u64;
            plane.register_content((g % REGIONS as u64) as u32, record(g), version(v));
        }
    }
    let mut rng = DetRng::seeded(0x6370);
    let queries = (ops / 4).max(1);
    let ns = ns_per_op(queries, || {
        for i in 0..queries as u64 {
            let asker = record(peers as u64 + i);
            let querier = Querier {
                guid: asker.guid,
                asn: asker.asn,
                area: asker.area,
                zone: asker.zone,
                nat: NatType::PortRestricted,
            };
            let token = auth.issue(asker.guid, version(i % 200), now);
            let picked = plane.query_peers(asker.zone as u32, &querier, &token, now, &mut rng);
            black_box(picked.expect("token verifies").len());
        }
    });
    out.set("control.plane.query_peers_us", ns / 1e3);
    let ns = ns_per_op(ops, || {
        for i in 0..ops as u64 {
            let g = peers as u64 + i;
            login(&mut plane, g);
            plane.logout((g % REGIONS as u64) as u32, Guid(g as u128));
        }
    });
    out.set("control.plane.login_logout_ns", ns);
}

/// Edge authorization over a 1 000-object synthetic store, and the token
/// check the control plane and every swarm handshake repeat.
fn edge(out: &mut Outcome, ops: usize) {
    let auth = EdgeAuth::from_seed(11);
    let store = Arc::new(ContentStore::new());
    for o in 0..1_000u64 {
        store.publish_synthetic(
            ObjectId(o + 1),
            CpCode(1),
            ByteCount(50_000_000 + o * 65_536),
            DownloadPolicy::peer_assisted(),
        );
    }
    let server = EdgeServer::new(0, store, auth.clone(), Arc::new(AccountingLedger::new()));
    let now = SimTime(1_000_000);
    let mut token = None;
    let ns = ns_per_op(ops, || {
        for i in 0..ops as u64 {
            let grant = server.authorize(Guid(i as u128), ObjectId(i % 1_000 + 1), now);
            token = Some(grant.expect("object is published").token);
        }
    });
    out.set("edge.server.authorize_us", ns / 1e3);
    let token = token.expect("at least one authorization");
    let ns = ns_per_op(ops, || {
        for _ in 0..ops {
            assert!(auth.verify(black_box(&token), now));
        }
    });
    out.set("edge.auth.verify_ns", ns);
}

/// Login-storm shape: the same 256 sites re-observed constantly.
fn geodb(out: &mut Outcome, ops: usize) {
    const CODES: [&str; 4] = ["US", "DE", "BR", "JP"];
    const CITIES: [&str; 4] = ["cambridge", "berlin", "recife", "osaka"];
    let info = |i: usize| GeoInfoRef {
        country_code: CODES[i % 4],
        city: CITIES[i % 4],
        lat: 42.0 + (i % 7) as f64,
        lon: -71.0 + (i % 11) as f64,
        tz_offset: -5,
        asn: AsNumber(7922 + (i % 4) as u32),
        country_idx: (i % 4) as u16,
        region_idx: (i % 4) as u8,
    };
    let mut db = EdgeScapeDb::new();
    let ns = ns_per_op(ops, || {
        for i in 0..ops {
            db.record((i % 256) as u32, &info(i % 256));
        }
    });
    black_box(db.distinct_ips());
    out.set("logs.geodb.record_ns", ns);
}

/// Telemetry and the streaming sinks, fed by one small `HybridSim` run so
/// the registry holds a real run's instruments and the sinks see real
/// records.
fn observability(out: &mut Outcome, scrapes: usize, traces: usize) {
    let run = HybridSim::run_config(ScenarioConfig::tiny());

    let mut snap = run.metrics.scrape();
    let ns = ns_per_op(scrapes, || {
        for _ in 0..scrapes {
            run.metrics.scrape_scalars_into(&mut snap);
        }
    });
    out.set("obs.registry.scrape_scalars_ns", ns);

    let mut engine = AlertEngine::new(standard_rules());
    let ns = ns_per_op(scrapes, || {
        for i in 0..scrapes as u64 {
            black_box(engine.observe(i * 60_000_000, &snap).len());
        }
    });
    out.set("obs.alert.observe_ns", ns);

    let sink = TraceSink::new(1);
    let ns = ns_per_op(traces * 2, || {
        for i in 0..traces as u64 {
            let ctx = sink.start_trace("download", "probe", i);
            let span = sink.span(ctx, "phase", "probe", i);
            sink.end_span(span, i + 1);
            sink.end_span(ctx.span, i + 2);
        }
    });
    black_box(sink.traces_started());
    out.set("obs.trace.span_ns", ns);

    let records = run.dataset.summary().log_entries as usize;
    let rounds = (traces / records.max(1)).max(1);
    let ns = ns_per_op(records * rounds, || {
        for _ in 0..rounds {
            let mut sink = DigestSink::new();
            streamview::replay(&run.dataset, &mut sink);
            black_box(sink.finalize().fingerprint());
        }
    });
    out.set("logs.sink.digest_ns_per_record", ns);
    let ns = ns_per_op(records * rounds, || {
        for _ in 0..rounds {
            let mut sink = StreamingSummary::new();
            streamview::replay(&run.dataset, &mut sink);
            black_box(sink.summary());
        }
    });
    out.set("logs.sink.summary_ns_per_record", ns);
}

/// A shard that does nothing but stay alive: one event per window.
struct IdleShard {
    window: SimDuration,
    until: SimTime,
}

impl ShardWorker for IdleShard {
    type Event = ();
    fn handle(&mut self, at: SimTime, _event: (), out: &mut Outbox<()>) {
        if at + self.window < self.until {
            out.schedule(at + self.window, ());
        }
    }
}

/// The per-window cost of `ShardRunner` with no work in the window, run by
/// the sequential oracle and by the threaded runner: the barrier — today a
/// thread spawn per shard per window — in isolation.
fn shard_windows(out: &mut Outcome, seq_windows: usize, par_windows: usize) {
    let window = SimDuration::from_secs(600);
    let runner = |windows: usize| {
        let until = SimTime(window.as_micros() * windows.max(1) as u64);
        let shards = (0..16).map(|_| IdleShard { window, until }).collect();
        let mut runner = ShardRunner::new(shards, window);
        for k in 0..16 {
            runner.seed(k, SimTime::ZERO, ());
        }
        runner
    };
    let mut seq = runner(seq_windows);
    let ns = ns_per_op(seq_windows.max(1), || seq.run_sequential());
    assert_eq!(seq.windows_run(), seq_windows.max(1) as u64);
    out.set("sim.shard.empty_window_seq_ns", ns);
    let mut par = runner(par_windows);
    let ns = ns_per_op(par_windows.max(1), || par.run_parallel());
    assert_eq!(par.windows_run(), par_windows.max(1) as u64);
    out.set("sim.shard.empty_window_par_ns", ns);
}

/// Windowed-series recording as the scaled runner does it: counter adds
/// over a month of content time across 16 shards, then the canonical merge.
fn timeseries(out: &mut Outcome, adds: usize) {
    const GROUPS: usize = 9;
    let month_us = 31 * 24 * TS_INTERVAL_US;
    let mut rng = DetRng::seeded(0x7473);
    let mut shards: Vec<ShardSeries> = (0..16)
        .map(|_| ShardSeries::new(TS_METRICS, GROUPS, TS_INTERVAL_US))
        .collect();
    let ns = ns_per_op(adds, || {
        for i in 0..adds {
            let t = rng.next_u64() % month_us;
            shards[i % 16].add(i % 8, i % GROUPS, t, 1);
        }
    });
    out.set("obs.timeseries.add_ns", ns);
    let labels: Vec<String> = (0..GROUPS).map(|g| format!("region{g}")).collect();
    let t = Instant::now();
    black_box(merge_shards(&shards, &labels).windows);
    out.set("obs.timeseries.merge_ms", t.elapsed().as_secs_f64() * 1e3);
}

/// SHA-256 at the two sizes the system hashes: 64 KiB pieces (live piece
/// verify, record digests) and 64 B (auth-token MACs).
fn hashing(out: &mut Outcome, pieces: usize) {
    let rate = |len: usize, count: usize| {
        let data = vec![0xabu8; len];
        let t = Instant::now();
        for _ in 0..count {
            black_box(sha256(black_box(&data)));
        }
        (len * count) as f64 / 1e6 / t.elapsed().as_secs_f64()
    };
    let piece_rate = rate(64 * 1024, pieces.max(1));
    let token_rate = rate(64, pieces.max(1) * 256);
    out.set("core.hash.sha256_64k_mb_s", piece_rate);
    out.set("core.hash.sha256_64b_mb_s", token_rate);
}

/// One 64 KiB `SwarmMsg::Piece` through the codec and through the framing
/// layer into an in-memory buffer and back.
fn wire(out: &mut Outcome, ops: usize) {
    let ops = ops.max(1);
    let data = vec![0x5au8; 64 * 1024];
    let msg = SwarmMsg::Piece {
        piece: 7,
        digest: sha256(&data),
        data,
    };
    let mut payload = Vec::new();
    let ns = ns_per_op(ops, || {
        for _ in 0..ops {
            payload = black_box(&msg).to_payload();
        }
    });
    out.set("core.codec.encode_ns", ns);
    let ns = ns_per_op(ops, || {
        for _ in 0..ops {
            black_box(SwarmMsg::from_payload(black_box(&payload)).expect("payload decodes"));
        }
    });
    out.set("core.codec.decode_ns", ns);
    let mut buf = Vec::new();
    let ns = ns_per_op(ops, || {
        for _ in 0..ops {
            buf.clear();
            write_msg(&mut buf, &msg).expect("write to memory");
            let back: Option<SwarmMsg> = read_msg(&mut buf.as_slice()).expect("read from memory");
            black_box(back);
        }
    });
    out.set("net.framing.piece_roundtrip_us", ns / 1e3);
}

/// A 128-piece download from four full peers: the session's per-message
/// work (digest-verified pieces, as in the simulator) and the rarest-first
/// picker on its own.
fn swarm(out: &mut Outcome, sessions: usize) {
    const PIECES: u32 = 128;
    let sessions = sessions.max(1);
    let version = VersionId {
        object: ObjectId(1),
        version: 1,
    };
    let manifest = Manifest::synthetic(version, ByteCount(PIECES as u64 * 65_536), 65_536);
    let mut rng = DetRng::seeded(0x7377);
    let mut messages = 0usize;
    let mut busy = std::time::Duration::ZERO;
    for _ in 0..sessions {
        let mut session = SwarmSession::new(manifest.clone(), PieceMap::empty(PIECES));
        let mut events = Vec::new();
        for g in 1..=4u128 {
            events.extend(session.on_peer_joined(Guid(g), PieceMap::full(PIECES), &mut rng));
        }
        while let Some(event) = events.pop() {
            let SwarmEvent::Send(to, SwarmMsg::Request { piece }) = event else {
                continue;
            };
            let reply = SwarmMsg::Piece {
                piece,
                data: Vec::new(),
                digest: Manifest::synthetic_piece_hash(version, piece),
            };
            let t = Instant::now();
            let more = session.on_message(to, reply, &mut rng);
            busy += t.elapsed();
            messages += 1;
            events.extend(more);
        }
        assert!(session.is_complete(), "every piece arrived and verified");
    }
    out.set(
        "peer.swarm.on_message_ns",
        busy.as_nanos() as f64 / messages as f64,
    );

    let full = PieceMap::full(PIECES);
    let ns = ns_per_op(sessions * PIECES as usize, || {
        for _ in 0..sessions {
            let mut picker = PiecePicker::new(PIECES);
            for _ in 0..4 {
                picker.peer_joined(&full);
            }
            let mut mine = PieceMap::empty(PIECES);
            while let Some(piece) = picker.next_for_peer(&mine, &full, &mut rng) {
                mine.set(piece);
                picker.request_finished(piece);
            }
            assert!(mine.is_complete());
        }
    });
    out.set("peer.picker.next_for_peer_ns", ns);
}
