//! SHA-256 compression on the x86 SHA extensions (`sha256rnds2`,
//! `sha256msg1`, `sha256msg2`). The only `unsafe` in this crate lives here;
//! [`compress`] is the safe door and checks the CPU itself.

use super::K;
use core::arch::x86_64::*;

/// Whether this CPU has the instructions [`compress`] needs. The standard
/// library caches the CPUID probe, so asking per call costs one load.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Run the compression function over `blocks` (a whole number of 64-byte
/// blocks) if the CPU can; returns `false` with `state` untouched otherwise.
pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `available()` just confirmed at run time every target feature
    // `compress_blocks` is compiled with (sha, sse2, ssse3, sse4.1); the
    // function itself only reads `blocks` in whole 64-byte chunks and
    // `state`/`K` through unaligned loads of in-bounds ranges.
    unsafe { compress_blocks(state, blocks) };
    true
}

/// Four rounds on the message words `$w` (rounds `4 * $i ..`).
macro_rules! rounds4 {
    ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
        let wk = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add(4 * $i).cast()));
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }};
}

/// Message schedule, then four rounds: `$w0..$w3` are the four preceding
/// schedule vectors, oldest first; the new one replaces `$w0`.
macro_rules! schedule_rounds4 {
    ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {{
        let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
        $w0 = _mm_sha256msg2_epu32(t, $w3);
        rounds4!($abef, $cdgh, $w0, $i);
    }};
}

/// # Safety
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // Big-endian message words -> lanes.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // The rounds instruction wants the state as (ABEF, CDGH).
    let dcba = _mm_loadu_si128(state.as_ptr().cast());
    let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    // Written out round group by round group (not a loop over an array of
    // schedule vectors) so the four vectors and the state stay in registers
    // across the whole run of blocks.
    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p: *const __m128i = block.as_ptr().cast();
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), bswap);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap);
        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 4);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 5);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 6);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 7);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 8);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 9);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 10);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 11);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 12);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 13);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 14);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 15);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(
        state.as_mut_ptr().add(4).cast(),
        _mm_alignr_epi8(dchg, feba, 8),
    );
}
