//! Blocking framing over byte streams.
//!
//! Frames are `u32-le length` + envelope, where the envelope wraps the
//! [`netsession_core::codec`] message payload with a one-byte flags field
//! and an optional 16-byte trace context (trace id + span id, both
//! little-endian u64). The length counts the whole envelope, so readers
//! that predate a given flag still skip the frame cleanly. The trace
//! context is how a client's download trace crosses process boundaries:
//! servers [`netsession_obs::TraceSink::join`] the received ids so their
//! spans land in the caller's trace.
//!
//! The module also owns the two socket-level decisions every framed
//! connection shares: [`nodelay`] (each frame is one `write_all`, so Nagle
//! buys nothing and costs a 40 ms delayed-ACK stall on every
//! write-write-read) and [`AcceptLoop`] (a listener thread that blocks in
//! `accept` and is woken for shutdown by a self-connect).

use netsession_core::codec::{Wire, Writer, MAX_FRAME};
use netsession_core::error::{Error, Result};
use netsession_obs::{SpanId, TraceId};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Envelope flag: the frame carries a 16-byte trace context.
const FLAG_TRACED: u8 = 0x01;

/// Envelope overhead ceiling: flags byte + trace context.
const MAX_ENVELOPE: usize = 1 + 16;

/// Write one message as a frame with no trace context.
pub fn write_msg<W, T>(writer: &mut W, msg: &T) -> Result<()>
where
    W: Write,
    T: Wire,
{
    write_msg_traced(writer, msg, None)
}

/// Write one message as a frame, stamping the sender's trace context into
/// the envelope when given.
pub fn write_msg_traced<W, T>(writer: &mut W, msg: &T, ctx: Option<(TraceId, SpanId)>) -> Result<()>
where
    W: Write,
    T: Wire,
{
    // Length placeholder, envelope, then the message encoded in place:
    // the payload is written once, straight into the buffer that is sent.
    let mut framed = Vec::with_capacity(256);
    framed.extend_from_slice(&[0u8; 4]);
    match ctx {
        Some((trace, span)) => {
            framed.push(FLAG_TRACED);
            framed.extend_from_slice(&trace.0.to_le_bytes());
            framed.extend_from_slice(&span.0.to_le_bytes());
        }
        None => framed.push(0),
    }
    let mut w = Writer::appending_to(framed);
    msg.encode(&mut w);
    let mut framed = w.finish();
    let len = (framed.len() - 4) as u32;
    framed[..4].copy_from_slice(&len.to_le_bytes());
    writer
        .write_all(&framed)
        .map_err(|e| Error::Network(format!("write: {e}")))?;
    writer
        .flush()
        .map_err(|e| Error::Network(format!("flush: {e}")))?;
    Ok(())
}

/// Read one message from a frame, discarding any trace context. Returns
/// `None` on clean EOF at a frame boundary.
pub fn read_msg<R, T>(reader: &mut R) -> Result<Option<T>>
where
    R: Read,
    T: Wire,
{
    Ok(read_msg_traced(reader)?.map(|(msg, _)| msg))
}

/// Read one message from a frame together with the sender's trace context
/// (if the sender stamped one). Returns `None` on clean EOF at a frame
/// boundary.
#[allow(clippy::type_complexity)]
pub fn read_msg_traced<R, T>(reader: &mut R) -> Result<Option<(T, Option<(TraceId, SpanId)>)>>
where
    R: Read,
    T: Wire,
{
    let mut len_buf = [0u8; 4];
    match reader.read_exact(&mut len_buf) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(Error::Network(format!("read len: {e}"))),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME + MAX_ENVELOPE {
        return Err(Error::Codec(format!("frame length {len} exceeds maximum")));
    }
    if len == 0 {
        return Err(Error::Codec("empty frame (missing envelope flags)".into()));
    }
    let mut body = vec![0u8; len];
    reader
        .read_exact(&mut body)
        .map_err(|e| Error::Network(format!("read payload: {e}")))?;
    let flags = body[0];
    if flags & !FLAG_TRACED != 0 {
        return Err(Error::Codec(format!("unknown envelope flags {flags:#04x}")));
    }
    let (ctx, payload) = if flags & FLAG_TRACED != 0 {
        if body.len() < 1 + 16 {
            return Err(Error::Codec("truncated trace context".into()));
        }
        let trace = u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"));
        let span = u64::from_le_bytes(body[9..17].try_into().expect("8 bytes"));
        (Some((TraceId(trace), SpanId(span))), &body[17..])
    } else {
        (None, &body[1..])
    };
    Ok(Some((T::from_payload(payload)?, ctx)))
}

/// Set `TCP_NODELAY` on a connected or accepted socket. Every framed
/// `TcpStream` in this crate passes through here before its first frame:
/// a frame is a single `write_all`, so there are no small segments for
/// Nagle to coalesce, while leaving it on makes the second of two
/// back-to-back frames wait for the receiver's delayed ACK.
pub fn nodelay(stream: TcpStream) -> std::io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Debug-build check, made by every connection handler on entry, that its
/// socket came through [`nodelay`].
pub(crate) fn debug_assert_nodelay(stream: &TcpStream) {
    debug_assert!(
        stream.nodelay().unwrap_or(false),
        "framed sockets are nodelay"
    );
}

/// A listener's accept thread. It blocks in `accept` (a new connection is
/// served the moment it arrives, not at the next poll) and hands every
/// connection to `serve` with [`nodelay`] applied. Dropping the handle
/// stops it: the stop flag is raised, a throw-away self-connect wakes the
/// blocked `accept`, and the thread is joined — so the listener is closed
/// and whatever `serve` captured is released by the time `drop` returns.
pub struct AcceptLoop {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AcceptLoop {
    /// Bind `addr` and serve connections on a new thread until dropped.
    pub fn bind<F>(addr: &str, mut serve: F) -> Result<AcceptLoop>
    where
        F: FnMut(TcpStream) + Send + 'static,
    {
        let listener = TcpListener::bind(addr).map_err(|e| Error::Network(format!("bind: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| Error::Network(e.to_string()))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_for_loop = stop.clone();
        let thread = std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                // Pairs with the store in `drop`: a connection accepted
                // after the flag went up is the wake-up (or too late).
                if stop_for_loop.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(stream) = nodelay(stream) {
                    serve(stream);
                }
            }
        });
        Ok(AcceptLoop {
            local_addr,
            stop,
            thread: Some(thread),
        })
    }

    /// Where the listener is bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // A wildcard bind is reached through loopback.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let woken = TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok();
        if let Some(thread) = self.thread.take() {
            // A refused wake-up means the loop already ended on an accept
            // error; only a wake-up that could not be sent at all leaves
            // the thread blocked, and then it is detached, not waited for.
            if woken || thread.is_finished() {
                let _ = thread.join();
            }
        }
    }
}

/// Process-wide wall clock mapped onto [`netsession_core::time::SimTime`]:
/// zero at first use. All live components in one process share it, so
/// token expiries behave as in the simulator.
pub fn wall_now() -> netsession_core::time::SimTime {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    let start = START.get_or_init(Instant::now);
    netsession_core::time::SimTime(start.elapsed().as_micros() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsession_core::msg::SwarmMsg;

    /// A connected loopback socket pair (stand-in for tokio's duplex).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn connect_and_accept_sides_are_nodelay_and_drop_closes_the_listener() {
        let (tx, rx) = std::sync::mpsc::channel();
        let accept = AcceptLoop::bind("127.0.0.1:0", move |stream| {
            let _ = tx.send(stream);
        })
        .unwrap();
        let addr = accept.local_addr();
        let client = TcpStream::connect(addr).and_then(nodelay).unwrap();
        let server = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(client.nodelay().unwrap());
        assert!(server.nodelay().unwrap());
        // The option is off unless the helper set it.
        assert!(!pair().0.nodelay().unwrap());

        drop(accept);
        assert!(TcpStream::connect(addr).is_err(), "listener still bound");
        // The wake-up connection was not served, and the closure (with its
        // sender) went with the thread.
        assert!(rx.recv().is_err());
    }

    #[test]
    fn roundtrip_over_socket_pair() {
        let (mut a, mut b) = pair();
        let msg = SwarmMsg::Request { piece: 7 };
        write_msg(&mut a, &msg).unwrap();
        let got: Option<SwarmMsg> = read_msg(&mut b).unwrap();
        assert_eq!(got, Some(msg));
    }

    #[test]
    fn trace_context_survives_the_wire() {
        let (mut a, mut b) = pair();
        let msg = SwarmMsg::Request { piece: 7 };
        let ctx = (
            TraceId(0x00ab_cdef_0123_4567),
            SpanId(0x89ab_cdef_0000_0001),
        );
        write_msg_traced(&mut a, &msg, Some(ctx)).unwrap();
        let (got, got_ctx) = read_msg_traced::<_, SwarmMsg>(&mut b).unwrap().unwrap();
        assert_eq!(got, msg);
        assert_eq!(got_ctx, Some(ctx));
    }

    #[test]
    fn untraced_frame_reads_as_no_context() {
        let (mut a, mut b) = pair();
        write_msg(&mut a, &SwarmMsg::Request { piece: 3 }).unwrap();
        let (_, ctx) = read_msg_traced::<_, SwarmMsg>(&mut b).unwrap().unwrap();
        assert_eq!(ctx, None);
    }

    #[test]
    fn clean_eof_returns_none() {
        let (a, mut b) = pair();
        drop(a);
        let got: Option<SwarmMsg> = read_msg(&mut b).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let (mut a, mut b) = pair();
        use std::io::Write as _;
        a.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let got: Result<Option<SwarmMsg>> = read_msg(&mut b);
        assert!(got.is_err());
    }

    #[test]
    fn multiple_messages_in_sequence() {
        let (mut a, mut b) = pair();
        for piece in 0..10u32 {
            write_msg(&mut a, &SwarmMsg::Request { piece }).unwrap();
        }
        for piece in 0..10u32 {
            let got: Option<SwarmMsg> = read_msg(&mut b).unwrap();
            assert_eq!(got, Some(SwarmMsg::Request { piece }));
        }
    }
}
