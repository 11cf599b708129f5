//! Hand-rolled binary wire codec.
//!
//! The live runtime (`netsession-net`) frames protocol messages as
//! length-prefixed binary records. Rather than pulling in a serialization
//! crate, this module defines a tiny, explicit [`Wire`] trait with
//! varint-compressed integers, with every field written and read in a
//! fixed documented order over plain `Vec<u8>` buffers.
//!
//! Framing: a frame is `u32-le length` followed by `length` payload bytes.
//! [`FrameReader`] incrementally consumes a byte stream into frames.

use crate::error::{Error, Result};
use crate::hash::Digest;
use crate::id::{
    AsNumber, ConnectionId, CpCode, Guid, ObjectId, PeerIndex, SecondaryGuid, VersionId,
};
use crate::time::{SimDuration, SimTime};
use crate::units::{Bandwidth, ByteCount};

/// Maximum accepted frame payload; larger frames are rejected as corrupt.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Serialization writer over a growable buffer.
pub struct Writer {
    buf: Vec<u8>,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    /// Fresh writer.
    pub fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(256),
        }
    }

    /// Writer that appends after what `buf` already holds, so a caller can
    /// lay down its own header and have the message encoded in place.
    pub fn appending_to(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zig-zag signed varint.
    pub fn put_varint_i64(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Fixed 64-bit float (little endian).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Finish, returning the payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Deserialization reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read from the given payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(Error::Codec("varint overflow".into()));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Zig-zag signed varint.
    pub fn get_varint_i64(&mut self) -> Result<i64> {
        let v = self.get_varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// Raw byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        if self.buf.is_empty() {
            return Err(Error::Codec("unexpected end of frame".into()));
        }
        let v = self.buf[0];
        self.buf = &self.buf[1..];
        Ok(v)
    }

    /// Fixed 64-bit float.
    pub fn get_f64(&mut self) -> Result<f64> {
        if self.buf.len() < 8 {
            return Err(Error::Codec("unexpected end of frame (f64)".into()));
        }
        let v = f64::from_le_bytes(self.buf[..8].try_into().unwrap());
        self.buf = &self.buf[8..];
        Ok(v)
    }

    /// Length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.get_varint()? as usize;
        if len > self.buf.len() {
            return Err(Error::Codec(format!(
                "byte string length {len} exceeds remaining {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(len);
        self.buf = tail;
        Ok(head.to_vec())
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        String::from_utf8(self.get_bytes()?).map_err(|_| Error::Codec("invalid utf-8".into()))
    }

    /// Fixed-size array.
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        if self.buf.len() < N {
            return Err(Error::Codec("unexpected end of frame (array)".into()));
        }
        let (head, tail) = self.buf.split_at(N);
        self.buf = tail;
        Ok(head.try_into().unwrap())
    }

    /// Error unless the payload is fully consumed.
    pub fn expect_end(&self) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(Error::Codec(format!("{} trailing bytes", self.buf.len())))
        }
    }
}

/// A type with a defined wire representation.
pub trait Wire: Sized {
    /// Append this value to the writer.
    fn encode(&self, w: &mut Writer);
    /// Parse one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Encode into a standalone payload.
    fn to_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Decode from a payload, requiring full consumption.
    fn from_payload(payload: &[u8]) -> Result<Self> {
        let mut r = Reader::new(payload);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

impl Wire for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.get_u8()
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let v = r.get_varint()?;
        u32::try_from(v).map_err(|_| Error::Codec("u32 overflow".into()))
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.get_varint()
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            x => Err(Error::Codec(format!("invalid bool {x}"))),
        }
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.get_f64()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.get_str()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = r.get_varint()? as usize;
        // Guard against absurd lengths from corrupt frames.
        if len > MAX_FRAME {
            return Err(Error::Codec(format!("vector length {len} too large")));
        }
        let mut v = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            x => Err(Error::Codec(format!("invalid option tag {x}"))),
        }
    }
}

impl Wire for Guid {
    fn encode(&self, w: &mut Writer) {
        w.put_varint((self.0 >> 64) as u64);
        w.put_varint(self.0 as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let hi = r.get_varint()?;
        let lo = r.get_varint()?;
        Ok(Guid(((hi as u128) << 64) | lo as u128))
    }
}

impl Wire for SecondaryGuid {
    fn encode(&self, w: &mut Writer) {
        for part in self.0 {
            w.put_varint(part as u64);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let mut parts = [0u32; 5];
        for p in &mut parts {
            *p = u32::decode(r)?;
        }
        Ok(SecondaryGuid(parts))
    }
}

impl Wire for ObjectId {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(ObjectId(r.get_varint()?))
    }
}

impl Wire for VersionId {
    fn encode(&self, w: &mut Writer) {
        self.object.encode(w);
        w.put_varint(self.version as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(VersionId {
            object: ObjectId::decode(r)?,
            version: u32::decode(r)?,
        })
    }
}

impl Wire for CpCode {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.0 as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(CpCode(u32::decode(r)?))
    }
}

impl Wire for AsNumber {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.0 as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(AsNumber(u32::decode(r)?))
    }
}

impl Wire for PeerIndex {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.0 as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(PeerIndex(u32::decode(r)?))
    }
}

impl Wire for ConnectionId {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(ConnectionId(r.get_varint()?))
    }
}

impl Wire for Digest {
    fn encode(&self, w: &mut Writer) {
        w.buf.extend_from_slice(&self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Digest(r.get_array::<32>()?))
    }
}

impl Wire for SimTime {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(SimTime(r.get_varint()?))
    }
}

impl Wire for SimDuration {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(SimDuration(r.get_varint()?))
    }
}

impl Wire for ByteCount {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(ByteCount(r.get_varint()?))
    }
}

impl Wire for Bandwidth {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Bandwidth(r.get_f64()?))
    }
}

/// Wrap a payload in a length-prefixed frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME, "frame too large");
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental frame extractor over a byte stream.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Fresh reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed newly received bytes.
    pub fn extend(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Try to extract the next complete frame payload.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(Error::Codec(format!("frame length {len} exceeds maximum")));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let payload = v.to_payload();
        let back = T::from_payload(&payload).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(300u32);
        roundtrip(true);
        roundtrip(false);
        roundtrip(3.5f64);
        roundtrip("héllo".to_string());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Option::<u32>::None);
        roundtrip(Some(9u32));
    }

    #[test]
    fn id_roundtrips() {
        roundtrip(Guid(0x0123456789abcdef_fedcba9876543210u128));
        roundtrip(SecondaryGuid([1, 2, 3, 4, 5]));
        roundtrip(ObjectId(77));
        roundtrip(VersionId {
            object: ObjectId(77),
            version: 3,
        });
        roundtrip(CpCode(12));
        roundtrip(AsNumber(7018));
        roundtrip(PeerIndex(9));
        roundtrip(ConnectionId(1234567));
        roundtrip(crate::hash::sha256(b"x"));
        roundtrip(SimTime(42));
        roundtrip(SimDuration(43));
        roundtrip(ByteCount(1 << 40));
        roundtrip(Bandwidth(1250000.0));
    }

    #[test]
    fn varint_edge_values() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            roundtrip(v);
        }
    }

    #[test]
    fn signed_varint_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut w = Writer::new();
            w.put_varint_i64(v);
            let payload = w.finish();
            let mut r = Reader::new(&payload);
            assert_eq!(r.get_varint_i64().unwrap(), v);
        }
    }

    #[test]
    fn truncated_input_errors() {
        let payload = Guid(u128::MAX).to_payload();
        for cut in 0..payload.len() {
            assert!(Guid::from_payload(&payload[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = 5u64.to_payload().to_vec();
        payload.push(0);
        assert!(u64::from_payload(&payload).is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        assert!(bool::from_payload(&[2]).is_err());
    }

    #[test]
    fn frame_reader_reassembles_split_stream() {
        let a = frame(b"hello");
        let b = frame(b"world!");
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let mut fr = FrameReader::new();
        // Feed one byte at a time.
        let mut got = Vec::new();
        for byte in stream {
            fr.extend(&[byte]);
            while let Some(frame) = fr.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(&got[0][..], b"hello");
        assert_eq!(&got[1][..], b"world!");
        assert_eq!(fr.buffered(), 0);
    }

    #[test]
    fn frame_reader_rejects_oversized_header() {
        let mut fr = FrameReader::new();
        fr.extend(&(u32::MAX).to_le_bytes());
        assert!(fr.next_frame().is_err());
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes exceed 64 bits of varint.
        let bad = [0xffu8; 11];
        let mut r = Reader::new(&bad);
        assert!(r.get_varint().is_err());
    }
}
