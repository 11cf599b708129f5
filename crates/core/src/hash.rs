//! In-repo SHA-256.
//!
//! NetSession's edge servers "generate and maintain secure IDs of content …
//! as well as secure hashes of the pieces of each file" (§3.5). This module
//! serves that use, so the workspace does not need an external crypto
//! dependency. The implementation follows FIPS 180-4 and is validated
//! against the standard test vectors.

use std::fmt;

#[cfg(target_arch = "x86_64")]
mod shani;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Digest of the empty message; handy as a sentinel.
    pub fn zero() -> Self {
        Digest([0u8; 32])
    }

    /// First eight bytes as a big-endian integer — a short fingerprint
    /// where the full digest is more than a reader needs.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().unwrap())
    }

    /// Hex string of the full digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            use std::fmt::Write;
            write!(s, "{b:02x}").unwrap();
        }
        s
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use netsession_core::hash::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Pending block bytes (always < 64).
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total: 0,
        }
    }

    /// Feed message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finish and produce the digest.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress)
    }

    /// [`Sha256::update`] over a given compression function, which receives
    /// whole runs of 64-byte blocks (the tests drive both kernels this way).
    fn update_with(&mut self, mut data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> Digest {
        // Padding: 0x80, zeros to 56 mod 64, 64-bit big-endian bit length.
        let bit_len = self.total.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }
}

/// Which compression kernel this process runs: `"sha-ni"` where the CPU has
/// the x86 SHA extensions, `"scalar"` everywhere else. Digests are the same;
/// throughput readings are not comparable across the two.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        return "sha-ni";
    }
    "scalar"
}

/// Compress a whole number of 64-byte blocks into `state` on the fastest
/// kernel the CPU offers, decided at run time.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::compress(state, blocks) {
        return;
    }
    compress_scalar(state, blocks);
}

/// The FIPS 180-4 compression loop: the portable path, and the oracle the
/// accelerated kernel is tested against.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Kernel = fn(&mut [u32; 8], &[u8]);

    /// Both compression kernels by name. On a CPU without the SHA
    /// extensions the accelerated one is absent and says so on stderr, so a
    /// run that only exercised the scalar path cannot be read as a pass of
    /// both.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("scalar", compress_scalar)];
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            kernels.push(("sha-ni", |state, blocks| {
                assert!(shani::compress(state, blocks));
            }));
        }
        if kernels.len() == 1 {
            eprintln!("SKIPPED: sha-ni kernel not available on this CPU; scalar only");
        }
        kernels
    }

    /// Hash `parts` as consecutive `update` calls on one kernel.
    fn digest_on(kernel: Kernel, parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for part in parts {
            h.update_with(part, kernel);
        }
        h.finalize_with(kernel)
    }

    #[test]
    fn dispatch_matches_the_reported_kernel() {
        let ran = kernels().last().unwrap().0;
        assert_eq!(kernel(), ran);
        let data = [0x5au8; 1000];
        assert_eq!(sha256(&data), digest_on(compress_scalar, &[&data]));
    }

    /// FIPS 180-4 / NIST CAVP vectors, on each kernel.
    #[test]
    fn fips_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (name, kernel) in kernels() {
            for (msg, want) in cases {
                assert_eq!(digest_on(kernel, &[msg]).to_hex(), *want, "{name}");
            }
        }
    }

    #[test]
    fn million_a() {
        let chunk = [b'a'; 1000];
        for (name, kernel) in kernels() {
            let mut h = Sha256::new();
            for _ in 0..1000 {
                h.update_with(&chunk, kernel);
            }
            assert_eq!(
                h.finalize_with(kernel).to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    proptest! {
        // Each case already sweeps every length and split exhaustively;
        // the cases only vary the message bytes.
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Every length 0..=300 (five blocks, every padding case), split
        /// into two `update` calls at every point: each kernel must agree
        /// with the scalar one-shot.
        #[test]
        fn kernels_agree_at_every_length_and_split(seed in any::<u64>()) {
            let mut rng = crate::rng::DetRng::seeded(seed);
            let mut data = [0u8; 300];
            rng.fill_bytes(&mut data);
            let kernels = kernels();
            for len in 0..=data.len() {
                let msg = &data[..len];
                let want = digest_on(compress_scalar, &[msg]);
                for &(name, kernel) in &kernels {
                    for split in 0..=len {
                        let got = digest_on(kernel, &[&msg[..split], &msg[split..]]);
                        prop_assert_eq!(got, want, "{} len {} split {}", name, len, split);
                    }
                }
            }
        }

        /// Piece-sized messages (64 KiB and one byte either side), where the
        /// accelerated kernel sees runs of a thousand blocks per call.
        #[test]
        fn kernels_agree_on_piece_sized_messages(
            seed in any::<u64>(),
            split in 0usize..65_538,
        ) {
            let mut rng = crate::rng::DetRng::seeded(seed);
            let mut data = vec![0u8; 65_537];
            rng.fill_bytes(&mut data);
            let kernels = kernels();
            for len in [65_535, 65_536, 65_537] {
                let msg = &data[..len];
                let want = digest_on(compress_scalar, &[msg]);
                for split in [0, 1, 63, 64, 65, split.min(len), len - 1, len] {
                    for &(name, kernel) in &kernels {
                        let got = digest_on(kernel, &[&msg[..split], &msg[split..]]);
                        prop_assert_eq!(got, want, "{} len {} split {}", name, len, split);
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_u64_is_big_endian_prefix() {
        let d = Digest([
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]);
        assert_eq!(d.prefix_u64(), 0x0102030405060708);
    }
}
