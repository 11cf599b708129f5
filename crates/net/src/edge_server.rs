//! Live edge server.
//!
//! Serves the §3.5 edge functions over a framed TCP protocol (standing in
//! for HTTP(S)): authorization — yielding the token, the provider policy,
//! and the manifest with piece hashes — and piece downloads, each recorded
//! as a trusted receipt in the accounting ledger.

use crate::framing::{debug_assert_nodelay, read_msg_traced, wall_now, write_msg, AcceptLoop};
use crate::http::{standard_routes, AdminEndpoint};
use netsession_core::error::Result;
use netsession_core::msg::EdgeMsg;
use netsession_edge::accounting::AccountingLedger;
use netsession_edge::auth::EdgeAuth;
use netsession_edge::server::EdgeServer;
use netsession_edge::store::ContentStore;
use netsession_obs::{MetricsRegistry, SpanId, TraceCtx, TraceSink};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// Trace-id prefix for the edge-server process (see
/// [`TraceSink::with_id_prefix`]).
const EDGE_ID_PREFIX: u16 = 0x0003;

/// A running live edge server.
pub struct EdgeHttpServer {
    accept: AcceptLoop,
    /// The underlying edge logic (shared with tests for assertions).
    pub edge: Arc<EdgeServer>,
    /// Live telemetry: connections accepted, framed messages in/out.
    pub metrics: MetricsRegistry,
    trace: TraceSink,
    admin: AdminEndpoint,
}

impl EdgeHttpServer {
    /// Start serving the given store on `127.0.0.1:0` (or a given addr).
    pub fn start(
        addr: &str,
        store: Arc<ContentStore>,
        auth: EdgeAuth,
        ledger: Arc<AccountingLedger>,
    ) -> Result<EdgeHttpServer> {
        let metrics = MetricsRegistry::new();
        let trace = TraceSink::with_id_prefix(1, EDGE_ID_PREFIX);
        trace.attach_metrics(&metrics);
        let edge = Arc::new(EdgeServer::new(0, store, auth, ledger).with_metrics(&metrics));
        let edge_for_loop = edge.clone();
        let metrics_for_loop = metrics.clone();
        let trace_for_loop = trace.clone();
        let accept = AcceptLoop::bind(addr, move |stream| {
            metrics_for_loop.counter("net.edge.connections").incr();
            let edge = edge_for_loop.clone();
            let metrics = metrics_for_loop.clone();
            let trace = trace_for_loop.clone();
            std::thread::spawn(move || {
                let _ = serve_connection(stream, edge, metrics, trace);
            });
        })?;
        let admin = {
            let edge = edge.clone();
            AdminEndpoint::start(
                "127.0.0.1:0",
                standard_routes(metrics.clone(), move || {
                    format!(
                        "{{\"status\":\"ok\",\"component\":\"edge\",\"bytes_served\":{}}}",
                        edge.total_served().bytes()
                    )
                }),
            )?
        };
        Ok(EdgeHttpServer {
            accept,
            edge,
            metrics,
            trace,
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

    /// This server's trace sink. Spans for traced client requests join
    /// the *client's* trace id (received via the framing envelope).
    pub fn trace(&self) -> TraceSink {
        self.trace.clone()
    }

    /// Stop serving: both listeners close and their threads are joined, so
    /// the store is released once the connections in flight end.
    pub fn shutdown(self) {}
}

fn serve_connection(
    mut stream: TcpStream,
    edge: Arc<EdgeServer>,
    metrics: MetricsRegistry,
    trace: TraceSink,
) -> Result<()> {
    debug_assert_nodelay(&stream);
    let msgs_in = metrics.counter("net.edge.msgs_in");
    let msgs_out = metrics.counter("net.edge.msgs_out");
    loop {
        let Some((msg, remote_ctx)) = read_msg_traced::<_, EdgeMsg>(&mut stream)? else {
            return Ok(());
        };
        msgs_in.incr();
        // A stamped request records the server-side half of the exchange
        // under the client's trace.
        let ctx = match remote_ctx {
            Some((t, parent)) => trace.join(t, parent),
            None => TraceCtx::NONE,
        };
        let span = if ctx.sampled {
            let name = match &msg {
                EdgeMsg::Authorize { .. } => "authorize",
                EdgeMsg::GetPiece { .. } => "serve_piece",
                _ => "edge_request",
            };
            trace.span(ctx, name, "edge", wall_now().as_micros())
        } else {
            SpanId::NONE
        };
        let resp = edge.handle(msg, wall_now());
        if span.is_some() {
            trace.add_attr(span, "granted", !matches!(resp, EdgeMsg::Denied { .. }));
            trace.end_span(span, wall_now().as_micros());
        }
        write_msg(&mut stream, &resp)?;
        msgs_out.incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::read_msg;
    use netsession_core::id::{CpCode, Guid, ObjectId, VersionId};
    use netsession_core::policy::DownloadPolicy;

    fn fixture() -> (EdgeHttpServer, Vec<u8>) {
        let store = Arc::new(ContentStore::new());
        let content: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        store.publish_content(
            ObjectId(1),
            CpCode(1),
            content.clone(),
            1024,
            DownloadPolicy::peer_assisted(),
        );
        let server = EdgeHttpServer::start(
            "127.0.0.1:0",
            store,
            EdgeAuth::from_seed(1),
            Arc::new(AccountingLedger::new()),
        )
        .unwrap();
        (server, content)
    }

    #[test]
    fn authorize_then_fetch_all_pieces() {
        let (server, content) = fixture();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_msg(
            &mut stream,
            &EdgeMsg::Authorize {
                guid: Guid(7),
                version: VersionId {
                    object: ObjectId(1),
                    version: 1,
                },
            },
        )
        .unwrap();
        let resp: EdgeMsg = read_msg(&mut stream).unwrap().unwrap();
        let (token, manifest) = match resp {
            EdgeMsg::Authorized {
                token, manifest, ..
            } => (token, manifest),
            other => panic!("{other:?}"),
        };
        let mut got = Vec::new();
        for piece in 0..manifest.piece_count() {
            write_msg(&mut stream, &EdgeMsg::GetPiece { token, piece }).unwrap();
            match read_msg(&mut stream).unwrap().unwrap() {
                EdgeMsg::PieceData { data, .. } => {
                    assert!(manifest.verify_piece(piece, &data));
                    got.extend_from_slice(&data);
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(got, content);
        assert_eq!(server.edge.total_served().bytes(), content.len() as u64);
        // Telemetry observed the exchange.
        assert_eq!(server.metrics.counter("net.edge.connections").get(), 1);
        assert_eq!(
            server.metrics.counter("net.edge.msgs_in").get(),
            1 + manifest.piece_count() as u64
        );
        server.shutdown();
    }

    #[test]
    fn unknown_object_denied() {
        let (server, _) = fixture();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_msg(
            &mut stream,
            &EdgeMsg::Authorize {
                guid: Guid(7),
                version: VersionId {
                    object: ObjectId(404),
                    version: 1,
                },
            },
        )
        .unwrap();
        match read_msg::<_, EdgeMsg>(&mut stream).unwrap().unwrap() {
            EdgeMsg::Denied { reason } => assert!(reason.contains("not found")),
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }
}
