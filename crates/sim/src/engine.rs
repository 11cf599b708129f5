//! Discrete-event kernel.
//!
//! A minimal, deterministic event queue: events are `(SimTime, sequence, E)`
//! triples ordered by time with FIFO tie-breaking on the insertion sequence
//! number, so two events scheduled for the same instant always fire in the
//! order they were scheduled — a property the reproducibility of every
//! experiment depends on.
//!
//! The ordering contract lives here; the *storage* lives behind the
//! [`EventSched`] trait in [`crate::queue`]. The default backend is a
//! hierarchical [`TimingWheel`] (O(1) schedule, amortized O(levels) pop),
//! which `HybridSim`'s deep queue runs on; [`OracleEventQueue`] runs on the
//! original [`BinaryHeapSched`], the bit-identical oracle for property
//! tests and A/B benchmarks and the sharded runner's default per-shard
//! queue.
//!
//! The queue intentionally has no callback machinery: the simulation driver
//! owns a `match` over its event enum, which keeps borrow-checking trivial
//! and the control flow visible in one place.

use crate::queue::{BinaryHeapSched, EventSched, TimingWheel};
use netsession_core::time::SimTime;
use netsession_obs::{Counter, Gauge, MetricsRegistry};
use std::marker::PhantomData;

/// Deterministic future-event list.
///
/// Generic over its storage backend `S` (default: the timing wheel). Every
/// backend must honour the `(at, seq)` pop order, so the choice of `S`
/// affects speed only — never the event stream.
///
/// The queue carries passive instrumentation: `sim.events_scheduled`,
/// `sim.events_processed`, and the `sim.queue_depth` gauge. The instruments
/// start detached (recording goes nowhere); [`EventQueue::with_metrics`]
/// attaches them to a registry. Either way the queue's behaviour — and
/// therefore every simulated experiment — is identical.
pub struct EventQueue<E, S: EventSched<E> = TimingWheel<E>> {
    sched: S,
    now: SimTime,
    seq: u64,
    processed: u64,
    scheduled_ctr: Counter,
    processed_ctr: Counter,
    depth_gauge: Gauge,
    _event: PhantomData<E>,
}

/// The event queue on its original binary-heap backend — the correctness
/// oracle the timing wheel is property-tested against, and the backend
/// [`ShardRunner::new`](crate::shard::ShardRunner::new) gives each shard:
/// at a shard's usual depth of a few thousand events or fewer the heap's
/// sift is cheaper than the wheel's cascades and slot scans
/// (`docs/PERFORMANCE.md`).
pub type OracleEventQueue<E> = EventQueue<E, BinaryHeapSched<E>>;

impl<E, S: EventSched<E> + Default> Default for EventQueue<E, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, S: EventSched<E> + Default> EventQueue<E, S> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            sched: S::default(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            scheduled_ctr: Counter::detached(),
            processed_ctr: Counter::detached(),
            depth_gauge: Gauge::detached(),
            _event: PhantomData,
        }
    }
}

impl<E, S: EventSched<E>> EventQueue<E, S> {
    /// Attach the kernel's instruments to `registry`.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.scheduled_ctr = registry.counter("sim.events_scheduled");
        self.processed_ctr = registry.counter("sim.events_processed");
        self.depth_gauge = registry.gauge("sim.queue_depth");
        self
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.sched.len()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling into the past is always a
    /// driver bug, and silently reordering would destroy determinism.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past ({at:?} < {:?})",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.sched.push(at, seq, event);
        self.scheduled_ctr.incr();
        self.depth_gauge.set(self.sched.len() as i64);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, _seq, event) = self.sched.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
        self.processed_ctr.incr();
        self.depth_gauge.set(self.sched.len() as i64);
        Some((at, event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.sched.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsession_core::time::SimDuration;

    // The kernel tests run on both backends: the oracle heap and the
    // default timing wheel must be indistinguishable through this API.
    fn on_both(test: impl Fn(&mut dyn FnMut() -> EventQueueDyn)) {
        test(&mut || EventQueueDyn::Heap(OracleEventQueue::new()));
        test(&mut || EventQueueDyn::Wheel(EventQueue::new()));
    }

    enum EventQueueDyn {
        Heap(OracleEventQueue<i64>),
        Wheel(EventQueue<i64>),
    }

    impl EventQueueDyn {
        fn schedule(&mut self, at: SimTime, e: i64) {
            match self {
                EventQueueDyn::Heap(q) => q.schedule(at, e),
                EventQueueDyn::Wheel(q) => q.schedule(at, e),
            }
        }
        fn pop(&mut self) -> Option<(SimTime, i64)> {
            match self {
                EventQueueDyn::Heap(q) => q.pop(),
                EventQueueDyn::Wheel(q) => q.pop(),
            }
        }
        fn now(&self) -> SimTime {
            match self {
                EventQueueDyn::Heap(q) => q.now(),
                EventQueueDyn::Wheel(q) => q.now(),
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        on_both(|mk| {
            let mut q = mk();
            q.schedule(SimTime(30), 3);
            q.schedule(SimTime(10), 1);
            q.schedule(SimTime(20), 2);
            let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![1, 2, 3]);
        });
    }

    #[test]
    fn fifo_tie_breaking_at_same_instant() {
        on_both(|mk| {
            let mut q = mk();
            for i in 0..100 {
                q.schedule(SimTime(5), i);
            }
            let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn clock_advances_with_pops() {
        on_both(|mk| {
            let mut q = mk();
            q.schedule(SimTime(10), 0);
            q.schedule(SimTime(25), 0);
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), SimTime(10));
            q.pop();
            assert_eq!(q.now(), SimTime(25));
            assert!(q.pop().is_none());
            assert_eq!(q.now(), SimTime(25), "clock stays at last event");
        });
    }

    #[test]
    fn can_schedule_at_current_instant_during_processing() {
        on_both(|mk| {
            let mut q = mk();
            q.schedule(SimTime(10), 1);
            let (t, _) = q.pop().unwrap();
            q.schedule(t, 2); // same-instant follow-up event is fine
            let (t2, e2) = q.pop().unwrap();
            assert_eq!((t2, e2), (SimTime(10), 2));
        });
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    #[test]
    fn counters_and_peek() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(SimTime::ZERO + SimDuration::from_secs(1), ());
        q.schedule(SimTime::ZERO + SimDuration::from_secs(2), ());
        assert_eq!(q.pending(), 2);
        assert_eq!(q.peek_time(), Some(SimTime(1_000_000)));
        q.pop();
        assert_eq!(q.processed(), 1);
        assert_eq!(q.pending(), 1);
    }
}
