//! Live control-plane server.
//!
//! One process standing in for a CN+DN region (§3.6): peers keep a
//! persistent framed TCP connection; the server answers logins and peer
//! queries, accepts content registrations and usage reports, and pushes
//! `ConnectTo` instructions to *both* endpoints of every suggested pairing
//! — the coordination real NAT traversal needs.

use crate::framing::{debug_assert_nodelay, read_msg_traced, wall_now, write_msg, AcceptLoop};
use crate::http::{standard_routes, AdminEndpoint};
use netsession_control::directory::PeerRecord;
use netsession_control::plane::{ControlPlane, PlaneConfig};
use netsession_control::selection::Querier;
use netsession_core::error::{Error, Result};
use netsession_core::id::Guid;
use netsession_core::msg::ControlMsg;
use netsession_core::rng::DetRng;
use netsession_edge::auth::EdgeAuth;
use netsession_obs::{MetricsRegistry, TraceCtx, TraceSink};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Trace-id prefix for the control-server process (see
/// [`TraceSink::with_id_prefix`]).
const CONTROL_ID_PREFIX: u16 = 0x0002;

struct Shared {
    plane: Mutex<ControlPlane>,
    rng: Mutex<DetRng>,
    /// Outbound push channels per logged-in GUID.
    pushers: Mutex<HashMap<Guid, mpsc::Sender<ControlMsg>>>,
    /// Raw handles of accepted connections, kept so [`ControlServer::kill`]
    /// can sever live links (crash injection for the e2e tests).
    conns: Mutex<Vec<TcpStream>>,
    metrics: MetricsRegistry,
    trace: TraceSink,
}

/// A running control-plane server.
pub struct ControlServer {
    accept: AcceptLoop,
    shared: Arc<Shared>,
    admin: AdminEndpoint,
}

impl ControlServer {
    /// Start on `127.0.0.1:0` (or a given addr), verifying tokens minted
    /// with `auth`. The admin endpoint binds an ephemeral port; use
    /// [`ControlServer::start_with_admin`] when a restarted server must
    /// come back on the same admin address.
    pub fn start(addr: &str, auth: EdgeAuth) -> Result<ControlServer> {
        ControlServer::start_with_admin(addr, "127.0.0.1:0", auth)
    }

    /// Start with an explicit admin (HTTP) listen address serving
    /// `/metrics`, `/healthz`, and `/varz`.
    pub fn start_with_admin(addr: &str, admin_addr: &str, auth: EdgeAuth) -> Result<ControlServer> {
        let metrics = MetricsRegistry::new();
        let shared = Arc::new(Shared {
            plane: Mutex::new(
                ControlPlane::new(
                    &PlaneConfig {
                        regions: 1,
                        ..PlaneConfig::default()
                    },
                    auth,
                )
                .with_metrics(&metrics),
            ),
            rng: Mutex::new(DetRng::seeded(0xC0117201)),
            pushers: Mutex::new(HashMap::new()),
            conns: Mutex::new(Vec::new()),
            trace: {
                let trace = TraceSink::with_id_prefix(1, CONTROL_ID_PREFIX);
                trace.attach_metrics(&metrics);
                trace
            },
            metrics,
        });
        let shared_for_loop = shared.clone();
        let accept = AcceptLoop::bind(addr, move |stream| {
            shared_for_loop
                .metrics
                .counter("net.control.connections")
                .incr();
            if let Ok(handle) = stream.try_clone() {
                shared_for_loop.conns.lock().unwrap().push(handle);
            }
            let shared = shared_for_loop.clone();
            std::thread::spawn(move || {
                let _ = serve_connection(stream, shared);
            });
        })?;
        let admin = {
            let shared = shared.clone();
            AdminEndpoint::start(
                admin_addr,
                standard_routes(shared.metrics.clone(), move || {
                    format!(
                        "{{\"status\":\"ok\",\"component\":\"control\",\"connected\":{}}}",
                        shared.pushers.lock().unwrap().len()
                    )
                }),
            )?
        };
        Ok(ControlServer {
            accept,
            shared,
            admin,
        })
    }

    /// Where the server listens.
    pub fn local_addr(&self) -> SocketAddr {
        self.accept.local_addr()
    }

    /// Where the admin (HTTP) endpoint listens.
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin.local_addr()
    }

    /// Currently connected peers (test observability).
    pub fn connected(&self) -> usize {
        self.shared.pushers.lock().unwrap().len()
    }

    /// Live telemetry registry (connections, framed messages, plus the
    /// control-plane's own instruments).
    pub fn metrics(&self) -> MetricsRegistry {
        self.shared.metrics.clone()
    }

    /// This server's trace sink. Spans for traced client requests join
    /// the *client's* trace id (received via the framing envelope).
    pub fn trace(&self) -> TraceSink {
        self.shared.trace.clone()
    }

    /// Drain collected usage records (billing pipeline; test observability).
    pub fn drain_usage(&self) -> Vec<netsession_core::msg::UsageRecord> {
        self.shared.plane.lock().unwrap().drain_usage()
    }

    /// Registered holders of a version (test observability for the
    /// fate-sharing re-registration path).
    pub fn holder_count(&self, version: netsession_core::id::VersionId) -> usize {
        self.shared.plane.lock().unwrap().holder_count(0, version)
    }

    /// Stop serving: both listeners close and their threads are joined.
    /// Live connections are left to drain naturally.
    pub fn shutdown(self) {}

    /// Crash the server: stop accepting *and* sever every established
    /// connection, the way a CN process death looks from the outside
    /// (§3.8 fault injection). Both listening ports are released before
    /// this returns, so a replacement can bind the same addresses.
    pub fn kill(self) {
        let conns = std::mem::take(&mut *self.shared.conns.lock().unwrap());
        // Listeners first: a severed daemon redials at once and must not
        // be accepted by the server that is going away.
        drop(self);
        for conn in conns {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

fn serve_connection(stream: TcpStream, shared: Arc<Shared>) -> Result<()> {
    debug_assert_nodelay(&stream);
    let mut reader = stream
        .try_clone()
        .map_err(|e| Error::Network(e.to_string()))?;
    let mut writer = stream;
    let (tx, rx) = mpsc::channel::<ControlMsg>();
    let msgs_in = shared.metrics.counter("net.control.msgs_in");
    let msgs_out = shared.metrics.counter("net.control.msgs_out");

    // Writer thread: everything (responses and pushes) leaves through here.
    let msgs_out_for_writer = msgs_out.clone();
    let writer_thread = std::thread::spawn(move || {
        while let Ok(msg) = rx.recv() {
            if write_msg(&mut writer, &msg).is_err() {
                break;
            }
            msgs_out_for_writer.incr();
        }
    });

    let mut session: Option<(Guid, PeerRecord)> = None;
    while let Some((msg, remote_ctx)) = read_msg_traced::<_, ControlMsg>(&mut reader)? {
        msgs_in.incr();
        // Requests stamped with a trace context get their server-side
        // spans recorded under the client's trace.
        let ctx = match remote_ctx {
            Some((t, parent)) => shared.trace.join(t, parent),
            None => TraceCtx::NONE,
        };
        match msg {
            ControlMsg::Login {
                guid,
                secondary_guids,
                uploads_enabled,
                software_version,
                nat,
                addr,
            } => {
                let conn = shared.plane.lock().unwrap().login(
                    0,
                    guid,
                    addr,
                    nat,
                    uploads_enabled,
                    software_version,
                    secondary_guids,
                    wall_now(),
                );
                session = Some((
                    guid,
                    PeerRecord {
                        guid,
                        addr,
                        asn: netsession_core::id::AsNumber(1),
                        area: 0,
                        zone: 0,
                        nat,
                    },
                ));
                shared.pushers.lock().unwrap().insert(guid, tx.clone());
                let _ = tx.send(ControlMsg::LoginAck {
                    conn,
                    config: netsession_core::policy::TransferConfig::default(),
                });
            }
            ControlMsg::QueryPeers { token, max_peers } => {
                let Some((guid, record)) = &session else {
                    continue;
                };
                let querier = Querier {
                    guid: *guid,
                    asn: record.asn,
                    area: record.area,
                    zone: record.zone,
                    nat: record.nat,
                };
                let peers = {
                    let mut plane = shared.plane.lock().unwrap();
                    let mut rng = shared.rng.lock().unwrap();
                    let (result, _span) = plane.query_peers_traced(
                        0,
                        &querier,
                        &token,
                        wall_now(),
                        &mut rng,
                        &shared.trace,
                        ctx,
                    );
                    result.unwrap_or_default()
                };
                let peers: Vec<_> = peers.into_iter().take(max_peers as usize).collect();
                // Tell both sides to connect (§3.6).
                for contact in &peers {
                    let pusher = shared.pushers.lock().unwrap().get(&contact.guid).cloned();
                    if let Some(pusher) = pusher {
                        let _ = pusher.send(ControlMsg::ConnectTo {
                            contact: netsession_core::msg::PeerContact {
                                guid: *guid,
                                addr: record.addr,
                                asn: record.asn,
                                nat: record.nat,
                            },
                            version: token.version,
                            active_role: false,
                        });
                    }
                    let _ = tx.send(ControlMsg::ConnectTo {
                        contact: contact.clone(),
                        version: token.version,
                        active_role: true,
                    });
                }
                let _ = tx.send(ControlMsg::PeerList {
                    version: token.version,
                    peers,
                });
            }
            ControlMsg::RegisterContent { version, .. } => {
                if let Some((_, record)) = &session {
                    shared
                        .plane
                        .lock()
                        .unwrap()
                        .register_content(0, record.clone(), version);
                }
            }
            ControlMsg::UnregisterContent { version } => {
                if let Some((guid, _)) = &session {
                    shared
                        .plane
                        .lock()
                        .unwrap()
                        .unregister_content(0, *guid, version);
                }
            }
            ControlMsg::ReAddResponse { versions } => {
                if let Some((_, record)) = &session {
                    shared
                        .plane
                        .lock()
                        .unwrap()
                        .handle_readd(0, record.clone(), &versions);
                }
            }
            ControlMsg::UsageReport { records } => {
                shared.plane.lock().unwrap().accept_usage(0, records);
            }
            ControlMsg::Logout => break,
            // Server→client messages arriving here are protocol errors;
            // ignore them rather than kill the connection.
            _ => {}
        }
    }
    if let Some((guid, _)) = session {
        shared.pushers.lock().unwrap().remove(&guid);
        shared.plane.lock().unwrap().logout(0, guid);
    }
    // Dropping `tx` ends the writer thread once the queue drains.
    drop(tx);
    let _ = writer_thread.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::read_msg;
    use netsession_core::id::{ObjectId, VersionId};
    use netsession_core::msg::{NatType, PeerAddr};

    fn login(addr: SocketAddr, guid: u64, port: u16) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_msg(
            &mut stream,
            &ControlMsg::Login {
                guid: Guid(guid as u128),
                secondary_guids: vec![],
                uploads_enabled: true,
                software_version: 1,
                nat: NatType::Open,
                addr: PeerAddr {
                    ip: u32::from_be_bytes([127, 0, 0, 1]),
                    port,
                },
            },
        )
        .unwrap();
        let ack: ControlMsg = read_msg(&mut stream).unwrap().unwrap();
        assert!(matches!(ack, ControlMsg::LoginAck { .. }));
        stream
    }

    fn ver() -> VersionId {
        VersionId {
            object: ObjectId(9),
            version: 1,
        }
    }

    #[test]
    fn login_register_query_roundtrip() {
        let auth = EdgeAuth::from_seed(5);
        let server = ControlServer::start("127.0.0.1:0", auth.clone()).unwrap();
        // Peer A registers a copy.
        let mut a = login(server.local_addr(), 1, 1111);
        write_msg(
            &mut a,
            &ControlMsg::RegisterContent {
                version: ver(),
                fraction: 1.0,
            },
        )
        .unwrap();

        // Peer B queries with a valid token.
        let mut b = login(server.local_addr(), 2, 2222);
        let token = auth.issue(Guid(2), ver(), wall_now());
        write_msg(
            &mut b,
            &ControlMsg::QueryPeers {
                token,
                max_peers: 10,
            },
        )
        .unwrap();
        // B receives a ConnectTo (active) then the PeerList.
        let m1: ControlMsg = read_msg(&mut b).unwrap().unwrap();
        match m1 {
            ControlMsg::ConnectTo {
                contact,
                active_role,
                ..
            } => {
                assert_eq!(contact.guid, Guid(1));
                assert!(active_role);
            }
            other => panic!("{other:?}"),
        }
        let m2: ControlMsg = read_msg(&mut b).unwrap().unwrap();
        match m2 {
            ControlMsg::PeerList { peers, .. } => {
                assert_eq!(peers.len(), 1);
                assert_eq!(peers[0].addr.port, 1111);
            }
            other => panic!("{other:?}"),
        }
        // A receives the passive ConnectTo push.
        let push: ControlMsg = read_msg(&mut a).unwrap().unwrap();
        match push {
            ControlMsg::ConnectTo {
                contact,
                active_role,
                ..
            } => {
                assert_eq!(contact.guid, Guid(2));
                assert!(!active_role);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(server.connected(), 2);
        assert_eq!(server.metrics().counter("net.control.connections").get(), 2);
        server.shutdown();
    }

    #[test]
    fn forged_token_yields_empty_list() {
        let server = ControlServer::start("127.0.0.1:0", EdgeAuth::from_seed(5)).unwrap();
        let mut s = login(server.local_addr(), 3, 3333);
        let forged = EdgeAuth::from_seed(99).issue(Guid(3), ver(), wall_now());
        write_msg(
            &mut s,
            &ControlMsg::QueryPeers {
                token: forged,
                max_peers: 10,
            },
        )
        .unwrap();
        let resp: ControlMsg = read_msg(&mut s).unwrap().unwrap();
        match resp {
            ControlMsg::PeerList { peers, .. } => assert!(peers.is_empty()),
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn usage_reports_reach_the_pipeline() {
        let server = ControlServer::start("127.0.0.1:0", EdgeAuth::from_seed(5)).unwrap();
        let mut s = login(server.local_addr(), 4, 4444);
        write_msg(
            &mut s,
            &ControlMsg::UsageReport {
                records: vec![netsession_core::msg::UsageRecord {
                    guid: Guid(4),
                    version: ver(),
                    started: wall_now(),
                    ended: wall_now(),
                    bytes_from_infrastructure: netsession_core::units::ByteCount(10),
                    bytes_from_peers: netsession_core::units::ByteCount(20),
                }],
            },
        )
        .unwrap();
        // Give the server a beat to process.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let usage = server.drain_usage();
        assert_eq!(usage.len(), 1);
        assert_eq!(usage[0].bytes_from_peers.bytes(), 20);
        server.shutdown();
    }
}
