//! Pluggable event-queue storage.
//!
//! The kernel's ordering contract — earliest timestamp first, FIFO on the
//! insertion sequence number for same-instant events — is owned by
//! [`EventQueue`](crate::engine::EventQueue); this module provides the
//! storage backends it can run on:
//!
//! * [`BinaryHeapSched`] — the original binary heap. Simple, obviously
//!   correct, and kept as the *oracle*: property tests replay hundreds of
//!   seeded schedules against it to prove any other backend produces a
//!   bit-identical pop stream. It is also the default queue of every shard
//!   in [`crate::shard::ShardRunner`]: a shard of the scaled runner
//!   typically holds a few hundred to a few thousand pending events, and
//!   at that depth an O(log n) sift is cheaper than the wheel's cascades.
//! * [`TimingWheel`] — a hierarchical timing wheel (8 levels × 64 slots,
//!   1 µs ticks, ≈8.9 simulated years of horizon). Scheduling is O(1) and
//!   popping is amortized O(levels), versus O(log n) for the heap; on the
//!   headline run (~900 k events, queue depth ~780 k) the wheel removes the
//!   heap's cache-hostile sift traffic from the hot loop, so it is
//!   [`EventQueue`](crate::engine::EventQueue)'s default and `HybridSim`'s
//!   queue. Shallow queues whose events lie minutes to hours ahead are its
//!   worst case: each entry is re-placed at every level it passes on the
//!   way down, and [`EventSched::peek_time`] scans a whole higher-level
//!   slot for its minimum. Which backend each runner uses, with the
//!   measurements, is in `docs/PERFORMANCE.md` ("The event-queue backend").
//!
//! # Timing-wheel placement
//!
//! The wheel keeps an internal `cursor` (≤ every pending timestamp). An
//! entry for absolute microsecond `t` lands at level `⌊b/6⌋`, where `b` is
//! the highest bit in which `t` differs from the cursor, in slot
//! `(t >> 6·level) & 63`. Level 0 slots therefore hold exactly one
//! timestamp each (all bits above the slot index agree with the cursor),
//! which is what makes FIFO tie-breaking free: same-instant entries share a
//! level-0 slot and are appended — and later drained — in insertion order.
//! Popping from a higher level *cascades*: the cursor advances to the start
//! of the chosen slot's time range and the slot's entries are re-placed at
//! lower levels, preserving their relative order. Entries beyond the
//! top-level horizon wait in an overflow list; the cursor's 2^48 µs window
//! never passes an overflow entry's window, so overflow promotion cannot
//! reorder time.

use netsession_core::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Storage backend for the event kernel.
///
/// Implementations must pop entries in ascending `(at, seq)` order. The
/// kernel assigns `seq` monotonically, so for any fixed timestamp the
/// insertion order *is* the seq order — an implementation that preserves
/// per-timestamp insertion order (like the timing wheel) satisfies the
/// contract without ever comparing seq numbers.
pub trait EventSched<E> {
    /// Insert an entry. The kernel guarantees `at` is not in the past and
    /// `seq` is strictly increasing across calls.
    fn push(&mut self, at: SimTime, seq: u64, event: E);
    /// Remove and return the earliest entry (FIFO among equal timestamps).
    fn pop(&mut self) -> Option<(SimTime, u64, E)>;
    /// Timestamp of the earliest entry without removing it.
    fn peek_time(&self) -> Option<SimTime>;
    /// Number of pending entries.
    fn len(&self) -> usize;
    /// Whether no entries are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original binary-heap backend, kept as the correctness oracle.
pub struct BinaryHeapSched<E> {
    heap: BinaryHeap<HeapEntry<E>>,
}

impl<E> Default for BinaryHeapSched<E> {
    fn default() -> Self {
        BinaryHeapSched {
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> EventSched<E> for BinaryHeapSched<E> {
    fn push(&mut self, at: SimTime, seq: u64, event: E) {
        self.heap.push(HeapEntry { at, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        self.heap.pop().map(|e| (e.at, e.seq, e.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Bits per wheel level: 64 slots each.
const BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Slot-index mask.
const MASK: u64 = (SLOTS - 1) as u64;
/// Number of levels.
const LEVELS: usize = 8;
/// Timestamps at or beyond `cursor`'s 2^48 µs window go to the overflow
/// list (≈8.9 simulated years — far past any experiment's horizon).
const HORIZON: u64 = 1 << (BITS * LEVELS as u32);

struct WheelEntry<E> {
    at: u64,
    seq: u64,
    event: E,
}

/// Hierarchical timing wheel: the default event-queue backend.
pub struct TimingWheel<E> {
    /// `LEVELS × SLOTS` buckets, row-major by level. Deques, not vecs:
    /// level-0 slots drain FIFO from the front while same-instant bursts
    /// keep appending at the back, and `Vec::remove(0)` there is O(n) per
    /// pop — O(n²) across a dense tie burst (e.g. a churn-wave's login
    /// herd all landing on one microsecond).
    slots: Vec<VecDeque<WheelEntry<E>>>,
    /// Per-level bitmask of non-empty slots.
    occupied: [u64; LEVELS],
    /// Entries beyond the top-level horizon, in insertion order.
    overflow: Vec<WheelEntry<E>>,
    /// Earliest timestamp in `overflow` (`u64::MAX` when empty), maintained
    /// on push and promotion so `peek_time` and `promote_overflow` never
    /// rescan the whole list.
    overflow_min: u64,
    /// Wheel position: ≤ every pending timestamp, and within the same
    /// 2^48 µs window as every in-wheel entry.
    cursor: u64,
    len: usize,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        TimingWheel {
            slots: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            cursor: 0,
            len: 0,
        }
    }
}

impl<E> TimingWheel<E> {
    /// Level an entry at `at` belongs to relative to the current cursor,
    /// or `None` if it lies beyond the top-level horizon.
    fn level_of(&self, at: u64) -> Option<usize> {
        let diff = at ^ self.cursor;
        if diff >= HORIZON {
            return None;
        }
        if diff == 0 {
            Some(0)
        } else {
            Some((63 - diff.leading_zeros()) as usize / BITS as usize)
        }
    }

    fn place(&mut self, e: WheelEntry<E>) {
        debug_assert!(e.at >= self.cursor);
        match self.level_of(e.at) {
            None => {
                self.overflow_min = self.overflow_min.min(e.at);
                self.overflow.push(e);
            }
            Some(level) => {
                let slot = ((e.at >> (BITS as usize * level)) & MASK) as usize;
                self.occupied[level] |= 1 << slot;
                self.slots[level * SLOTS + slot].push_back(e);
            }
        }
    }

    /// Jump the cursor to the earliest overflow entry's window and re-place
    /// everything that now fits the wheel. Only called when the wheel is
    /// empty, and the cursor's window never passes an overflow window, so
    /// this cannot step backwards over pending work. Uses the cached
    /// minimum — the old full `min()` scan here, plus the one `peek_time`
    /// did per call once the wheel drained, was O(overflow) each time.
    fn promote_overflow(&mut self) {
        let min_at = self.overflow_min;
        debug_assert_eq!(
            Some(min_at),
            self.overflow.iter().map(|e| e.at).min(),
            "cached overflow minimum out of sync"
        );
        debug_assert!(min_at & !(HORIZON - 1) >= self.cursor & !(HORIZON - 1));
        self.cursor = min_at & !(HORIZON - 1);
        let pending = std::mem::take(&mut self.overflow);
        self.overflow_min = u64::MAX;
        for e in pending {
            self.place(e);
        }
    }
}

impl<E> EventSched<E> for TimingWheel<E> {
    fn push(&mut self, at: SimTime, seq: u64, event: E) {
        self.len += 1;
        self.place(WheelEntry {
            at: at.as_micros(),
            seq,
            event,
        });
    }

    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                // Wheel empty but len > 0: everything pending is overflow.
                self.promote_overflow();
                continue;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            let idx = level * SLOTS + slot;
            if level == 0 {
                // A level-0 slot holds exactly one timestamp; drain FIFO.
                // `pop_front` is O(1) — the old `Vec::remove(0)` shifted the
                // whole tail, making a dense same-instant burst quadratic.
                let e = self.slots[idx].pop_front().expect("occupied bit set");
                if self.slots[idx].is_empty() {
                    self.occupied[0] &= !(1u64 << slot);
                }
                debug_assert!(e.at >= self.cursor);
                self.cursor = e.at;
                self.len -= 1;
                return Some((SimTime(e.at), e.seq, e.event));
            }
            // Cascade: advance the cursor to the start of this slot's time
            // range and re-place its entries at lower levels, preserving
            // their relative (insertion) order.
            let shift = BITS as usize * level;
            let upper = self.cursor >> (shift + BITS as usize) << (shift + BITS as usize);
            let slot_start = upper | ((slot as u64) << shift);
            debug_assert!(slot_start >= self.cursor);
            self.cursor = slot_start;
            self.occupied[level] &= !(1u64 << slot);
            let entries = std::mem::take(&mut self.slots[idx]);
            for e in entries {
                self.place(e);
            }
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        for level in 0..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let slot = self.occupied[level].trailing_zeros() as usize;
            if level == 0 {
                return Some(SimTime((self.cursor & !MASK) | slot as u64));
            }
            let min = self.slots[level * SLOTS + slot]
                .iter()
                .map(|e| e.at)
                .min()
                .unwrap();
            return Some(SimTime(min));
        }
        if self.overflow.is_empty() {
            None
        } else {
            Some(SimTime(self.overflow_min))
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E, S: EventSched<E>>(s: &mut S) -> Vec<(u64, u64)>
    where
        E: Copy,
    {
        std::iter::from_fn(|| s.pop().map(|(t, seq, _)| (t.as_micros(), seq))).collect()
    }

    #[test]
    fn wheel_orders_across_levels() {
        let mut w = TimingWheel::default();
        // One timestamp per level, inserted in reverse.
        let times = [
            HORIZON + 5, // overflow
            1 << 42,
            1 << 36,
            1 << 30,
            1 << 24,
            1 << 18,
            1 << 12,
            70,
            3,
        ];
        for (i, &t) in times.iter().enumerate() {
            w.push(SimTime(t), i as u64, ());
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(
            drain(&mut w).iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            sorted
        );
    }

    #[test]
    fn wheel_is_fifo_at_same_instant() {
        let mut w = TimingWheel::default();
        for seq in 0..200u64 {
            w.push(SimTime(1_000_000), seq, ());
        }
        let popped = drain(&mut w);
        assert_eq!(popped, (0..200).map(|s| (1_000_000, s)).collect::<Vec<_>>());
    }

    #[test]
    fn wheel_peek_matches_pop() {
        let mut w = TimingWheel::default();
        for (seq, t) in [9u64, 400, 1 << 20, HORIZON + 77, 12, 9]
            .into_iter()
            .enumerate()
        {
            w.push(SimTime(t), seq as u64, ());
        }
        while !w.is_empty() {
            let peeked = w.peek_time().unwrap();
            let (popped, _, _) = w.pop().unwrap();
            assert_eq!(peeked, popped);
        }
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn wheel_handles_interleaved_push_pop() {
        let mut w = TimingWheel::default();
        w.push(SimTime(10), 0, "a");
        let (t, _, e) = w.pop().unwrap();
        assert_eq!((t, e), (SimTime(10), "a"));
        // Same-instant follow-up after the cursor advanced.
        w.push(SimTime(10), 1, "b");
        w.push(SimTime(11), 2, "c");
        assert_eq!(w.pop().unwrap().2, "b");
        assert_eq!(w.pop().unwrap().2, "c");
        assert!(w.pop().is_none());
    }

    #[test]
    fn overflow_promotion_keeps_order() {
        let mut w = TimingWheel::default();
        w.push(SimTime(HORIZON * 3 + 41), 0, "far");
        w.push(SimTime(HORIZON + 1), 1, "near-far");
        w.push(SimTime(5), 2, "now");
        assert_eq!(w.pop().unwrap().2, "now");
        assert_eq!(w.pop().unwrap().2, "near-far");
        assert_eq!(w.pop().unwrap().2, "far");
        assert!(w.pop().is_none());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn heap_and_wheel_agree_on_dense_ties() {
        let mut heap = BinaryHeapSched::default();
        let mut wheel = TimingWheel::default();
        for (seq, t) in [7u64, 7, 3, 3, 3, 7, 100, 3].into_iter().enumerate() {
            heap.push(SimTime(t), seq as u64, seq as u64);
            wheel.push(SimTime(t), seq as u64, seq as u64);
        }
        assert_eq!(drain(&mut heap), drain(&mut wheel));
    }
}
