//! Minimal HTTP/1.0 admin plumbing for live introspection.
//!
//! Every live server (control, edge, peer daemon, monitor) exposes an
//! [`AdminEndpoint`]: a tiny HTTP/1.0 responder on its own loopback
//! listener, serving `/metrics` (Prometheus text exposition), `/healthz`
//! (JSON liveness), and `/varz` (full JSON snapshot). It rides the same
//! plain-thread TCP style as the framed protocol servers — no external
//! dependencies, the same [`AcceptLoop`], one short-lived thread per
//! request, `Connection: close` semantics.
//!
//! The admin listener is a *separate port* from the framed protocol
//! listener by design: framed connections start with a little-endian
//! length prefix, so the bytes of `"GET "` would be misparsed as a
//! 0x20544547-byte frame. Keeping HTTP off the protocol port avoids that
//! ambiguity entirely.
//!
//! [`http_get`] is the matching scrape client used by the monitor server
//! and the e2e tests.

use crate::framing::AcceptLoop;
use netsession_core::error::{Error, Result};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// How long one admin request may take end-to-end before the connection
/// is dropped (defense against wedged scrapers holding threads).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// Response from an admin route handler.
pub struct HttpResponse {
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A `text/plain` response (Prometheus exposition uses this too).
    pub fn text(body: String) -> HttpResponse {
        HttpResponse {
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }

    /// An `application/json` response.
    pub fn json(body: String) -> HttpResponse {
        HttpResponse {
            content_type: "application/json",
            body,
        }
    }
}

/// A running HTTP/1.0 admin listener. Routing is a single closure:
/// `path -> Some(response)` or `None` for 404. Dropping it stops the
/// listener (in-flight requests finish).
pub struct AdminEndpoint {
    accept: AcceptLoop,
}

impl AdminEndpoint {
    /// Bind `addr` (typically `127.0.0.1:0`) and serve requests through
    /// `handler` until dropped.
    pub fn start<H>(addr: &str, handler: H) -> Result<AdminEndpoint>
    where
        H: Fn(&str) -> Option<HttpResponse> + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        let accept = AcceptLoop::bind(addr, move |stream| {
            let handler = handler.clone();
            std::thread::spawn(move || {
                let _ = serve_request(stream, &*handler);
            });
        })?;
        Ok(AdminEndpoint { accept })
    }

    /// Where the admin listener is bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.accept.local_addr()
    }
}

fn serve_request<H>(mut stream: TcpStream, handler: &H) -> std::io::Result<()>
where
    H: Fn(&str) -> Option<HttpResponse>,
{
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    // Read until the end of the header block (we ignore headers and any
    // body — admin routes are all GETs).
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(());
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.len() > 16 * 1024 {
            break; // Oversized header block: treat as malformed.
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
    );
    let (status, resp) = if method != "GET" {
        (
            "405 Method Not Allowed",
            HttpResponse::text("method not allowed\n".to_string()),
        )
    } else {
        match handler(path) {
            Some(resp) => ("200 OK", resp),
            None => (
                "404 Not Found",
                HttpResponse::text("not found\n".to_string()),
            ),
        }
    };
    let header = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

/// The standard admin route set every live server exposes:
///
/// - `/metrics` — Prometheus text exposition of the deterministic
///   instruments ([`netsession_obs::render_prometheus`]);
/// - `/healthz` — small JSON liveness document from `health` (each
///   server reports its own fields; the closure runs per request);
/// - `/varz` — the full JSON snapshot, volatile section included.
pub fn standard_routes<F>(
    metrics: netsession_obs::MetricsRegistry,
    health: F,
) -> impl Fn(&str) -> Option<HttpResponse> + Send + Sync + 'static
where
    F: Fn() -> String + Send + Sync + 'static,
{
    move |path| match path {
        "/metrics" => Some(HttpResponse::text(netsession_obs::render_prometheus(
            &metrics.scrape(),
        ))),
        "/healthz" => Some(HttpResponse::json(health())),
        "/varz" => Some(HttpResponse::json(metrics.full_snapshot_json())),
        _ => None,
    }
}

/// Fetch `path` from an admin endpoint. Returns `(status_code, body)`.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| Error::Network(format!("connect {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| Error::Network(e.to_string()))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| Error::Network(e.to_string()))?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: netsession\r\n\r\n").as_bytes())
        .map_err(|e| Error::Network(format!("write {addr}: {e}")))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| Error::Network(format!("read {addr}: {e}")))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| Error::Network(format!("{addr}: malformed HTTP response")))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| Error::Network(format!("{addr}: malformed status line")))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoint() -> AdminEndpoint {
        AdminEndpoint::start("127.0.0.1:0", |path| match path {
            "/healthz" => Some(HttpResponse::json("{\"status\":\"ok\"}".to_string())),
            "/metrics" => Some(HttpResponse::text("x 1\n".to_string())),
            _ => None,
        })
        .unwrap()
    }

    #[test]
    fn serves_routes_and_404s() {
        let ep = endpoint();
        let t = Duration::from_secs(2);
        let (status, body) = http_get(ep.local_addr(), "/healthz", t).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"status\":\"ok\"}");
        let (status, body) = http_get(ep.local_addr(), "/metrics", t).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "x 1\n");
        let (status, _) = http_get(ep.local_addr(), "/nope", t).unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn rejects_non_get() {
        let ep = endpoint();
        let mut s = TcpStream::connect(ep.local_addr()).unwrap();
        s.write_all(b"POST /healthz HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 405"));
    }
}
