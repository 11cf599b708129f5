//! Deterministic sharded event-loop runner.
//!
//! Conservative parallel discrete-event simulation in the classic
//! Chandy–Misra style, specialized to the structure our workload actually
//! has: state is partitioned into shards (FlowNet union-find components, or
//! the Table-2 region key as the coarse fallback), each shard owns a private
//! [`EventQueue`] (on the binary heap unless the caller picks the timing
//! wheel for deep shards), and virtual time advances in fixed *windows* of
//! length `W`. Within a window a shard processes only its own events;
//! anything it wants another shard to see is a **cross-shard message** with
//! delivery time at least one window away (lookahead ≥ `W`), exchanged at
//! the window barrier. That lookahead is what makes the parallel execution
//! conservative: when a shard processes window `[t, t+W)` it has already
//! received every message that could possibly land there.
//!
//! ## Determinism proof obligations
//!
//! The runner guarantees the *parallel* execution is bit-identical to the
//! *sequential oracle* (same program, shards stepped one at a time in index
//! order) provided the program upholds:
//!
//! 1. **Isolation** — a shard touches only its own state while handling an
//!    event. All sharing goes through [`Outbox::send`].
//! 2. **Lookahead** — cross-shard deliveries happen at or after the end of
//!    the window in which they were sent (enforced here by panic).
//! 3. **Self-determinism** — handling an event depends only on shard state,
//!    the event, and the virtual clock (no wall clock, no global RNG whose
//!    draw order spans shards — content-keyed RNG is the pattern).
//!
//! Under those, each shard's event stream is a pure function of the initial
//! state and its sorted inbox, and the barrier exchange sorts inboxes by
//! `(deliver_at, source shard, source order)` — a total order independent
//! of thread scheduling. The property tests in `tests/shard_determinism.rs`
//! replay randomized programs on several pool sizes and assert equality;
//! the hybrid crate's scaled runner layers record-stream digests on top.
//!
//! ## Execution: one pool per run
//!
//! A run steps its shards on `T` threads, `T = 1` for
//! [`ShardRunner::run_sequential`] and `min(K, available_parallelism())`
//! for [`ShardRunner::run_parallel`]. The calling thread is thread 0 — the
//! *leader* — so `T = 1` spawns nothing and touches no lock, barrier or
//! atomic: it *is* the oracle. Thread `t` steps the fixed **interleaved**
//! set `{k : k mod T = t}` for the whole run, in index order. (The scaled
//! runner lays regions out contiguously over shards and regions peak by
//! timezone; contiguous sets would leave one thread idle per half-day.)
//!
//! Each window has two barrier phases. *Release*: the leader hands every
//! follower its lanes and the window end, then all threads step their own
//! shards — deliver the shard's due mail in canonical order, then handle its
//! events. *Collect*: the leader takes the lanes back and, alone, folds the
//! shards' reports in index order: stats, profiler records, cross mail into
//! the destination mailboxes, and the next window from each shard's
//! earliest pending time. Nothing in that fold, and nothing a shard sees,
//! depends on `T` or on which thread finished first, which is why the pool
//! size is not a setting.

use crate::engine::EventQueue;
use crate::queue::{BinaryHeapSched, EventSched};
use netsession_core::time::{SimDuration, SimTime};
use netsession_obs::profile::{ShardProfiler, WindowTiming};
use netsession_obs::MetricsRegistry;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Deterministic contiguous partition of the index space `0..total` into
/// `k` equal-population blocks: `starts[i] = total * i / k`.
///
/// This is the generalized shard key for programs whose state lives on a
/// contiguous index space (the scaled hybrid runner's peer indices): any
/// block count up to `total` works, blocks never interleave, and because
/// the cut points are a pure function of `(total, k)` the partition is
/// identical in the sequential oracle and the parallel run. Callers that
/// need semantic boundaries (e.g. region blocks) lay their index space out
/// contiguously first and let the cuts fall where they may — a block may
/// then span a *sub-range* of a semantic unit, which is exactly the
/// sub-region sharding scheme.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockPartition {
    starts: Vec<u64>,
}

impl BlockPartition {
    /// Equal-population cuts of `0..total` into `k` blocks. Every block is
    /// non-empty.
    ///
    /// # Panics
    /// Panics when `k == 0` or `k > total` (an empty block would make the
    /// block → owner map ambiguous).
    pub fn equal(total: u64, k: usize) -> Self {
        assert!(k > 0, "at least one block");
        assert!(
            k as u64 <= total,
            "more blocks ({k}) than items ({total}): every block must be non-empty"
        );
        let starts = (0..=k as u64)
            .map(|i| ((total as u128 * i as u128) / k as u128) as u64)
            .collect();
        BlockPartition { starts }
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Half-open index range of block `i`.
    pub fn block(&self, i: usize) -> std::ops::Range<u64> {
        self.starts[i]..self.starts[i + 1]
    }

    /// Owning block of index `x` (`x < total`), by binary search.
    pub fn of(&self, x: u64) -> usize {
        debug_assert!(x < *self.starts.last().expect("non-empty"));
        self.starts.partition_point(|&s| s <= x) - 1
    }

    /// The cut points, `blocks() + 1` of them: `starts[i]..starts[i+1]`
    /// is block `i`.
    pub fn bounds(&self) -> &[u64] {
        &self.starts
    }
}

/// One shard's logic: a state machine fed timestamped events.
///
/// `Send` because a parallel run steps each worker on one of its pool
/// threads (always the same one within a run); the runner keeps ownership.
pub trait ShardWorker: Send {
    /// The event type (local and cross-shard alike).
    type Event: Send;

    /// Handle one event. Schedule follow-ups (local or cross-shard) through
    /// `out`.
    fn handle(&mut self, at: SimTime, event: Self::Event, out: &mut Outbox<Self::Event>);
}

/// Where a handler's follow-up events go.
///
/// Local events land in the shard's own queue (any time ≥ `now`);
/// cross-shard sends are buffered to the window barrier and must respect
/// the lookahead contract.
pub struct Outbox<E> {
    shard: usize,
    n_shards: usize,
    now: SimTime,
    window_end: SimTime,
    local: Vec<(SimTime, E)>,
    cross: Vec<(usize, SimTime, E)>,
}

impl<E> Outbox<E> {
    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total number of shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The current event's timestamp.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// End of the current window — the earliest admissible cross-shard
    /// delivery time.
    pub fn window_end(&self) -> SimTime {
        self.window_end
    }

    /// Schedule a local follow-up on this shard.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "local event scheduled into the past");
        self.local.push((at, event));
    }

    /// Send `event` to shard `dst`, delivered at `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the end of the current window: that would
    /// break the conservative lookahead and, with it, determinism. Senders
    /// should use `self.window_end().max(intended_time)` or model an
    /// explicit ≥ W propagation delay.
    pub fn send(&mut self, dst: usize, at: SimTime, event: E) {
        assert!(dst < self.n_shards, "cross-shard send to unknown shard");
        assert!(
            at >= self.window_end,
            "cross-shard send below lookahead: {at:?} < window end {:?}",
            self.window_end
        );
        if dst == self.shard {
            // A self-send still honours the barrier timing so shard count
            // never changes semantics.
            self.local.push((at, event));
        } else {
            self.cross.push((dst, at, event));
        }
    }
}

/// Per-shard progress counters, published under
/// `shard.<k>.{events,windows,cross_sent,cross_recv}` when a registry is
/// attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Events handled by this shard.
    pub events: u64,
    /// Windows in which this shard had work.
    pub windows: u64,
    /// Cross-shard messages sent.
    pub cross_sent: u64,
    /// Cross-shard messages received.
    pub cross_recv: u64,
}

/// The sharded runner: owns the shards' workers, queues and mailboxes —
/// during a run too, whose pool threads only borrow them — and coordinates
/// the barrier exchange.
///
/// Each shard's queue runs on the backend `S`: the binary heap by default,
/// which beats the timing wheel at the few thousand pending events of a
/// typical shard. Both honour the same `(at, seq)` order, so the backend
/// moves no event; see `docs/PERFORMANCE.md` for where each one wins.
pub struct ShardRunner<
    W: ShardWorker,
    S: EventSched<W::Event> = BinaryHeapSched<<W as ShardWorker>::Event>,
> {
    workers: Vec<W>,
    queues: Vec<Padded<EventQueue<W::Event, S>>>,
    window: SimDuration,
    stats: Vec<ShardStats>,
    /// Mail routed but not yet due, per destination shard.
    mailboxes: Vec<Mailbox<W::Event>>,
    windows_run: u64,
    /// Counters already pushed into a registry by `publish_stats`, so a
    /// second publish adds only the delta (idempotent at quiescence).
    published: Vec<ShardStats>,
    published_windows: u64,
    /// Optional per-window profiler (deterministic execution channel +
    /// volatile wall-clock channel). `None` costs nothing on the hot path.
    profiler: Option<ShardProfiler>,
}

/// A worker panic caught on its pool thread: the original payload plus the
/// shard it came from, so the re-raise is deterministic and keeps the
/// first panic's message intact.
struct ShardPanic {
    shard: usize,
    payload: Box<dyn std::any::Any + Send + 'static>,
}

struct Mail<E> {
    at: SimTime,
    src: usize,
    /// The sender's lifetime send count at this message. `(at, src, seq)`
    /// is a strict total order — the tie-breaker that makes same-instant
    /// cross deliveries deterministic however the mailbox is shuffled.
    seq: u64,
    event: E,
}

/// Keeps neighbours in a `Vec` off each other's cache lines. Adjacent
/// shards' queues belong to different pool threads, and a queue's clock and
/// counters are written on every event.
#[repr(align(128))]
struct Padded<T>(T);

struct Mailbox<E> {
    held: Vec<Mail<E>>,
    /// Earliest `at` in `held`: the leader finds the next window, and the
    /// owner skips a window with nothing due, without scanning the mail.
    earliest: Option<SimTime>,
}

impl<E> Mailbox<E> {
    fn push(&mut self, mail: Mail<E>) {
        self.earliest = earlier(self.earliest, Some(mail.at));
        self.held.push(mail);
    }
}

/// Nanoseconds since the run's start. `clock` is present only when a
/// profiler is attached: the wall measurements feed the volatile channel
/// and nothing else, so the unprofiled hot path pays no clock reads.
fn elapsed_ns(clock: Option<Instant>) -> u64 {
    clock.map_or(0, |t0| t0.elapsed().as_nanos() as u64)
}

fn earlier(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// One shard as a run sees it: the runner's state for the shard, borrowed
/// for the run, the buffers its steps reuse, and the report of its last
/// step. Stepped by one pool thread; read by the leader between windows.
struct Lane<'r, W: ShardWorker, S: EventSched<W::Event>> {
    worker: &'r mut W,
    queue: &'r mut EventQueue<W::Event, S>,
    mailbox: &'r mut Mailbox<W::Event>,
    /// `out.cross` carries a window's sends to the leader.
    out: Outbox<W::Event>,
    due: Vec<Mail<W::Event>>,
    /// Events handled and mail delivered by the last step (0 = idle).
    events: u64,
    recv: u64,
    /// Earliest event left in the queue, and the queue's depth.
    next: Option<SimTime>,
    depth: u64,
    /// Volatile: ns offsets from the run's start, 0 when not profiling.
    busy_start_ns: u64,
    busy_ns: u64,
}

impl<'r, W: ShardWorker, S: EventSched<W::Event>> Lane<'r, W, S> {
    fn new(
        shard: usize,
        n_shards: usize,
        worker: &'r mut W,
        queue: &'r mut EventQueue<W::Event, S>,
        mailbox: &'r mut Mailbox<W::Event>,
    ) -> Self {
        Lane {
            out: Outbox {
                shard,
                n_shards,
                now: SimTime::ZERO,
                window_end: SimTime::ZERO,
                local: Vec::new(),
                cross: Vec::new(),
            },
            due: Vec::new(),
            events: 0,
            recv: 0,
            next: queue.peek_time(),
            depth: queue.pending() as u64,
            busy_start_ns: 0,
            busy_ns: 0,
            worker,
            queue,
            mailbox,
        }
    }

    /// Earliest time at which this shard has anything to do.
    fn pending_time(&self) -> Option<SimTime> {
        earlier(self.next, self.mailbox.earliest)
    }

    /// One window of this shard: deliver its due mail, then handle its
    /// events up to `window_end`. Pure per-shard work — this is the part
    /// that parallelizes.
    fn step(&mut self, window_end: SimTime, clock: Option<Instant>) {
        (self.events, self.recv) = (0, 0);
        (self.busy_start_ns, self.busy_ns) = (0, 0);
        let due = |t: Option<SimTime>| t.is_some_and(|t| t < window_end);
        if !due(self.pending_time()) {
            return;
        }
        self.busy_start_ns = elapsed_ns(clock);
        if due(self.mailbox.earliest) {
            self.deliver(window_end);
        }
        self.out.window_end = window_end;
        while self.queue.peek_time().is_some_and(|t| t < window_end) {
            let (at, ev) = self.queue.pop().expect("peeked");
            self.out.now = at;
            self.worker.handle(at, ev, &mut self.out);
            for (t, e) in self.out.local.drain(..) {
                self.queue.schedule(t, e);
            }
            self.events += 1;
        }
        self.next = self.queue.peek_time();
        self.depth = self.queue.pending() as u64;
        self.busy_ns = elapsed_ns(clock).saturating_sub(self.busy_start_ns);
    }

    /// Move the mail due before `window_end` into the queue, in the
    /// canonical order. Later mail stays held — delivering it now would be
    /// wrong only in ordering against mail not yet routed, so the
    /// conservative choice is to hold it.
    fn deliver(&mut self, window_end: SimTime) {
        let held = &mut self.mailbox.held;
        let mut earliest = None;
        let mut i = 0;
        while i < held.len() {
            if held[i].at < window_end {
                self.due.push(held.swap_remove(i));
            } else {
                earliest = earlier(earliest, Some(held[i].at));
                i += 1;
            }
        }
        self.mailbox.earliest = earliest;
        self.due.sort_unstable_by_key(|m| (m.at, m.src, m.seq));
        self.recv = self.due.len() as u64;
        for m in self.due.drain(..) {
            self.queue.schedule(m.at, m.event);
        }
    }
}

/// The pool's reusable barrier. A window's two waits are short — the
/// leader's fold, the imbalance between two threads' lanes — and there are
/// thousands of windows, so a waiter polls for about the time a futex wake
/// would take before it goes to sleep.
struct Barrier {
    threads: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    asleep: Mutex<()>,
    wake: Condvar,
}

impl Barrier {
    const SPINS: u32 = 1 << 12;

    fn new(threads: usize) -> Self {
        Barrier {
            threads,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            asleep: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Block until all `threads` have called `wait` this generation.
    fn wait(&self) {
        // Current: this thread left the previous generation only once it
        // had seen the bump, and the next bump needs its own arrival.
        let generation = self.generation.load(SeqCst);
        if self.arrived.fetch_add(1, SeqCst) + 1 == self.threads {
            // Reset before the bump: whoever sees the new generation and
            // arrives for the next one must count from zero.
            self.arrived.store(0, SeqCst);
            // Bump under the lock, so a waiter that found the generation
            // unchanged under the same lock is asleep before the notify.
            let asleep = self.asleep.lock().expect("nothing panics under this lock");
            self.generation.store(generation.wrapping_add(1), SeqCst);
            drop(asleep);
            self.wake.notify_all();
            return;
        }
        for spin in 0..Self::SPINS {
            if self.generation.load(SeqCst) != generation {
                return;
            }
            // Should the thread being waited for need this CPU (a pool
            // wider than the idle cores, or a sibling the scheduler has yet
            // to move off the core that spawned it), let it have it.
            if spin % 64 == 63 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let mut asleep = self.asleep.lock().expect("nothing panics under this lock");
        while self.generation.load(SeqCst) == generation {
            asleep = self
                .wake
                .wait(asleep)
                .expect("nothing panics under this lock");
        }
    }
}

/// What the leader hands a follower for one window and takes back after it.
struct Job<'r, W: ShardWorker, S: EventSched<W::Event>> {
    window_end: SimTime,
    lanes: Vec<Lane<'r, W, S>>,
    panic: Option<ShardPanic>,
}

const SLOT: &str = "a slot is locked only to move a job, never across worker code";

/// One run's threads: the leader, which calls [`Pool::window`], and one
/// follower per slot, each inside [`Pool::follow`].
struct Pool<'r, W: ShardWorker, S: EventSched<W::Event>> {
    barrier: Barrier,
    /// Where leader and follower leave a [`Job`] for each other; the
    /// barrier phases keep them from wanting it at the same time.
    slots: Vec<Mutex<Option<Job<'r, W, S>>>>,
    /// See [`elapsed_ns`].
    clock: Option<Instant>,
}

impl<'r, W: ShardWorker, S: EventSched<W::Event>> Pool<'r, W, S> {
    /// Both barrier phases of one window: release `sets[t]` to thread `t`,
    /// step the leader's own `sets[0]`, collect the lanes back. A lone
    /// leader touches neither barrier nor lock. Returns the window's
    /// lowest-indexed worker panic.
    fn window(&self, sets: &mut [Vec<Lane<'r, W, S>>], window_end: SimTime) -> Option<ShardPanic> {
        let (mine, theirs) = sets.split_first_mut().expect("thread 0 is the leader");
        for (slot, lanes) in self.slots.iter().zip(theirs.iter_mut()) {
            *slot.lock().expect(SLOT) = Some(Job {
                window_end,
                lanes: std::mem::take(lanes),
                panic: None,
            });
        }
        self.sync();
        let mut first = step_lanes(mine, window_end, self.clock);
        self.sync();
        for (slot, lanes) in self.slots.iter().zip(theirs) {
            let job = slot.lock().expect(SLOT).take();
            let job = job.expect("a follower returns its job before the barrier");
            *lanes = job.lanes;
            first = [first, job.panic]
                .into_iter()
                .flatten()
                .min_by_key(|p| p.shard);
        }
        first
    }

    fn sync(&self) {
        if !self.slots.is_empty() {
            self.barrier.wait();
        }
    }

    /// A follower's whole run: step what the leader left in `slot` between
    /// a window's two barrier phases, until a release finds it empty.
    fn follow(&self, slot: &Mutex<Option<Job<'r, W, S>>>) {
        loop {
            self.barrier.wait();
            let Some(mut job) = slot.lock().expect(SLOT).take() else {
                return;
            };
            job.panic = step_lanes(&mut job.lanes, job.window_end, self.clock);
            *slot.lock().expect(SLOT) = Some(job);
            self.barrier.wait();
        }
    }
}

/// Step one thread's lanes through a window, in shard order. A panicking
/// worker ends the thread's window there, as it would the sequential
/// oracle's, and comes back as a value: its thread must still reach the
/// barrier.
fn step_lanes<W: ShardWorker, S: EventSched<W::Event>>(
    lanes: &mut [Lane<'_, W, S>],
    window_end: SimTime,
    clock: Option<Instant>,
) -> Option<ShardPanic> {
    for lane in lanes {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| lane.step(window_end, clock))) {
            let shard = lane.out.shard;
            return Some(ShardPanic { shard, payload });
        }
    }
    None
}

impl<W: ShardWorker> ShardRunner<W> {
    /// Build a runner over `workers`, one shard each, with conservative
    /// window length `window` (must be nonzero), its queues on the binary
    /// heap.
    pub fn new(workers: Vec<W>, window: SimDuration) -> Self {
        Self::with_backend(workers, window)
    }
}

impl<W: ShardWorker, S: EventSched<W::Event> + Default + Send> ShardRunner<W, S> {
    /// [`ShardRunner::new`] with every shard's queue on the backend `S`.
    pub fn with_backend(workers: Vec<W>, window: SimDuration) -> Self {
        assert!(window.as_micros() > 0, "window must be positive");
        let n = workers.len();
        assert!(n > 0, "at least one shard");
        ShardRunner {
            workers,
            queues: (0..n).map(|_| Padded(EventQueue::new())).collect(),
            window,
            stats: vec![ShardStats::default(); n],
            mailboxes: (0..n)
                .map(|_| Mailbox {
                    held: Vec::new(),
                    earliest: None,
                })
                .collect(),
            windows_run: 0,
            published: vec![ShardStats::default(); n],
            published_windows: 0,
            profiler: None,
        }
    }

    /// Attach a per-window profiler. Both channels start recording at the
    /// next window; attach before running for full coverage.
    pub fn attach_profiler(&mut self, mut profiler: ShardProfiler) {
        profiler.begin_run(self.workers.len());
        self.profiler = Some(profiler);
    }

    /// Detach and return the profiler (to read its profile, fingerprint,
    /// and timings after a run).
    pub fn take_profiler(&mut self) -> Option<ShardProfiler> {
        self.profiler.take()
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.workers.len()
    }

    /// Seed shard `k` with an initial event.
    pub fn seed(&mut self, shard: usize, at: SimTime, event: W::Event) {
        self.queues[shard].0.schedule(at, event);
    }

    /// Borrow a worker (e.g. to extract results after the run).
    pub fn worker(&self, shard: usize) -> &W {
        &self.workers[shard]
    }

    /// Consume the runner, returning the workers for result extraction.
    pub fn into_workers(self) -> Vec<W> {
        self.workers
    }

    /// Per-shard stats so far.
    pub fn stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Barrier count so far.
    pub fn windows_run(&self) -> u64 {
        self.windows_run
    }

    /// Publish the per-shard counters into `registry`.
    ///
    /// Idempotent via delta tracking: each call adds only what accrued
    /// since the last publish into the same counters, so a mid-run
    /// progress scrape followed by a final publish reads the same totals
    /// as a single publish at the end (rather than double-counting every
    /// `shard.*` metric).
    pub fn publish_stats(&mut self, registry: &MetricsRegistry) {
        for (k, (s, done)) in self.stats.iter().zip(self.published.iter_mut()).enumerate() {
            registry
                .counter(&format!("shard.{k}.events"))
                .add(s.events - done.events);
            registry
                .counter(&format!("shard.{k}.windows"))
                .add(s.windows - done.windows);
            registry
                .counter(&format!("shard.{k}.cross_sent"))
                .add(s.cross_sent - done.cross_sent);
            registry
                .counter(&format!("shard.{k}.cross_recv"))
                .add(s.cross_recv - done.cross_recv);
            *done = *s;
        }
        registry
            .counter("shard.windows_total")
            .add(self.windows_run - self.published_windows);
        self.published_windows = self.windows_run;
    }

    /// Run to quiescence on the calling thread alone, stepping shards in
    /// index order — the oracle execution every pool size is property-tested
    /// against.
    pub fn run_sequential(&mut self) {
        self.run_on(1)
    }

    /// Run to quiescence on a pool of `min(K, available_parallelism())`
    /// threads, the calling thread among them (see the module docs).
    /// Bit-identical to [`ShardRunner::run_sequential`] when the program
    /// upholds the module-level obligations.
    ///
    /// A panicking worker is re-raised here with its **original payload**
    /// once every pool thread has reached the window's barrier and been
    /// released. When several shards panic in one window, the lowest shard
    /// index wins, matching what the sequential oracle would surface
    /// first. The window it happened in is abandoned — what other shards
    /// handled and sent in it is not folded — but the runner keeps its
    /// workers and queues and can run again.
    pub fn run_parallel(&mut self) {
        self.run_on(std::thread::available_parallelism().map_or(1, |p| p.get()))
    }

    /// [`ShardRunner::run_parallel`] on a pool of `threads`, clamped to
    /// `1..=K`. For tests: output does not depend on the pool size, so no
    /// caller has a reason to pick one.
    #[doc(hidden)]
    pub fn run_on(&mut self, threads: usize) {
        let n = self.workers.len();
        let threads = threads.clamp(1, n);
        let w = self.window.as_micros();
        let ShardRunner {
            workers,
            queues,
            mailboxes,
            stats,
            windows_run,
            profiler,
            ..
        } = self;
        let mut profiler = profiler.as_mut();
        if let Some(p) = &mut profiler {
            p.set_threads(threads);
        }
        let clock = profiler.is_some().then(Instant::now);
        let elapsed = || elapsed_ns(clock);
        // Per-window profiling scratch, reused across windows. The
        // deterministic vectors cover *every* shard each barrier (idle
        // shards record zeros) so the record stream's shape is a pure
        // function of the program, not of which shards happened to run.
        let scratch = if profiler.is_some() { n } else { 0 };
        let mut events_w = vec![0u64; scratch];
        let mut depth_w = vec![0u64; scratch];
        let mut recv_w = vec![0u64; scratch];
        let mut sent_w = vec![0u64; scratch * scratch];
        let mut timing = WindowTiming {
            busy_start_ns: vec![0; scratch],
            busy_ns: vec![0; scratch],
            wait_ns: vec![0; scratch],
            ..WindowTiming::default()
        };

        // Shard k is lane k / T of thread k mod T for the whole run.
        let mut sets: Vec<Vec<Lane<'_, W, S>>> = (0..threads).map(|_| Vec::new()).collect();
        let shards = workers.iter_mut().zip(queues).zip(mailboxes);
        for (k, ((worker, queue), mailbox)) in shards.enumerate() {
            sets[k % threads].push(Lane::new(k, n, worker, &mut queue.0, mailbox));
        }
        let pool = Pool {
            barrier: Barrier::new(threads),
            slots: (1..threads).map(|_| Mutex::new(None)).collect(),
            clock,
        };

        let lead = || {
            while let Some(next) = sets.iter().flatten().filter_map(Lane::pending_time).min() {
                // Align windows to a fixed global grid so the barrier
                // schedule — and with it every lookahead check — is
                // independent of which shard happens to act first.
                let window_start = SimTime(next.as_micros() / w * w);
                let window_end = SimTime(window_start.as_micros() + w);
                let t_window = elapsed();
                *windows_run += 1;
                if let Some(first) = pool.window(&mut sets, window_end) {
                    resume_unwind(first.payload);
                }
                let barrier_ns = elapsed();
                if let Some(p) = &mut profiler {
                    sent_w.fill(0);
                    for k in 0..n {
                        let lane = &sets[k % threads][k / threads];
                        events_w[k] = lane.events;
                        depth_w[k] = lane.depth;
                        recv_w[k] = lane.recv;
                        for &(dst, ..) in &lane.out.cross {
                            sent_w[k * n + dst] += 1;
                        }
                        timing.busy_start_ns[k] = lane.busy_start_ns;
                        timing.busy_ns[k] = lane.busy_ns;
                        // A busy shard waits from its own finish to the
                        // window's collect; a lone thread's never wait.
                        timing.wait_ns[k] = if threads > 1 && lane.events > 0 {
                            barrier_ns.saturating_sub(lane.busy_start_ns + lane.busy_ns)
                        } else {
                            0
                        };
                    }
                    let start_us = window_start.as_micros();
                    p.record_window(start_us, &events_w, &depth_w, &recv_w, &sent_w);
                }

                // The canonical fold: shards in index order, whichever
                // thread stepped them and whenever it finished.
                let fold_ns = elapsed();
                for k in 0..n {
                    let lane = &mut sets[k % threads][k / threads];
                    if lane.events == 0 {
                        continue;
                    }
                    stats[k].events += lane.events;
                    stats[k].windows += 1;
                    stats[k].cross_recv += lane.recv;
                    let mut cross = std::mem::take(&mut lane.out.cross);
                    for (dst, at, event) in cross.drain(..) {
                        let (src, seq) = (k, stats[k].cross_sent);
                        stats[k].cross_sent += 1;
                        let mail = Mail {
                            at,
                            src,
                            seq,
                            event,
                        };
                        sets[dst % threads][dst / threads].mailbox.push(mail);
                    }
                    sets[k % threads][k / threads].out.cross = cross;
                }
                if let Some(p) = &mut profiler {
                    timing.start_ns = t_window;
                    timing.merge_ns = elapsed().saturating_sub(fold_ns);
                    p.record_window_timing(timing.clone());
                }
            }
        };
        std::thread::scope(|s| {
            for slot in &pool.slots {
                s.spawn(|| pool.follow(slot));
            }
            let run = catch_unwind(AssertUnwindSafe(lead));
            // The leader leaves its loop, by return or by unwinding, only
            // between windows: every follower is parked at the release
            // barrier and its slot is empty, so one more release ends it.
            pool.sync();
            if let Err(payload) = run {
                resume_unwind(payload);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker that counts token hops and forwards tokens round-robin.
    struct TokenWorker {
        hops: u64,
        log: Vec<(u64, u32)>,
    }

    impl ShardWorker for TokenWorker {
        type Event = u32;

        fn handle(&mut self, at: SimTime, token: u32, out: &mut Outbox<u32>) {
            self.hops += 1;
            self.log.push((at.as_micros(), token));
            if token > 0 {
                let dst = (out.shard() + 1) % out.n_shards();
                let deliver = out.window_end().max(at + SimDuration::from_secs(1));
                out.send(dst, deliver, token - 1);
            }
        }
    }

    fn token_run(parallel: bool) -> Vec<Vec<(u64, u32)>> {
        let workers = (0..4)
            .map(|_| TokenWorker {
                hops: 0,
                log: Vec::new(),
            })
            .collect();
        let mut r = ShardRunner::new(workers, SimDuration::from_secs(10));
        r.seed(0, SimTime(0), 12);
        r.seed(2, SimTime(5_000_000), 7);
        if parallel {
            r.run_parallel();
        } else {
            r.run_sequential();
        }
        r.into_workers().into_iter().map(|w| w.log).collect()
    }

    #[test]
    fn token_ring_parallel_matches_sequential() {
        assert_eq!(token_run(false), token_run(true));
    }

    #[test]
    fn lookahead_violation_panics() {
        let r = std::panic::catch_unwind(|| {
            struct Bad;
            impl ShardWorker for Bad {
                type Event = ();
                fn handle(&mut self, at: SimTime, _e: (), out: &mut Outbox<()>) {
                    out.send(1, at, ()); // below window end
                }
            }
            let mut r = ShardRunner::new(vec![Bad, Bad], SimDuration::from_secs(10));
            r.seed(0, SimTime(0), ());
            r.run_sequential();
        });
        assert!(r.is_err(), "sub-lookahead send must panic");
    }

    /// The first worker panic must surface with its original message —
    /// not the generic "a scoped thread panicked" noise — and
    /// deterministically (lowest panicking shard wins), whichever pool
    /// threads the panicking shards are on; the pool must come down with
    /// it and leave the runner whole.
    #[test]
    fn worker_panic_message_propagates_through_barrier() {
        struct Exploder(Vec<u32>);
        impl ShardWorker for Exploder {
            type Event = u32;
            fn handle(&mut self, _at: SimTime, token: u32, out: &mut Outbox<u32>) {
                if token >= 100 {
                    panic!("shard {} exploded on token {token}", out.shard());
                }
                self.0.push(token);
            }
        }
        // 5 shards over 2 threads are {0,2,4} {1,3}, over 3 threads {0,3}
        // {1,4} {2}: each pair of panicking shards sits on two threads (so
        // both panic), and only (2 threads, shard 2) and (3 threads, shard
        // 3) on the leader.
        for threads in [2, 3] {
            for bad in [[1, 2], [3, 4]] {
                let workers = (0..5).map(|_| Exploder(Vec::new())).collect();
                let mut r = ShardRunner::new(workers, SimDuration::from_secs(10));
                // Every shard is busy in the first window; two of them panic.
                for k in 0..5 {
                    let explodes = if bad.contains(&k) { 100 } else { 0 };
                    r.seed(k, SimTime(0), explodes + 10 * k as u32);
                }
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    r.run_on(threads);
                }))
                .expect_err("a panicking worker must fail the run");
                assert_eq!(
                    err.downcast_ref::<String>().map(String::as_str),
                    Some(
                        format!("shard {0} exploded on token {1}", bad[0], 100 + 10 * bad[0])
                            .as_str()
                    ),
                    "{threads} threads: the lowest shard's own payload must survive the barrier"
                );
                // No thread is left at a barrier and no lock poisoned: the
                // same runner runs again, picks up what the failed window
                // left queued, and still owns its workers.
                r.seed(0, SimTime(60_000_000), 7);
                r.run_parallel();
                let mut handled: Vec<u32> =
                    r.into_workers().into_iter().flat_map(|w| w.0).collect();
                handled.sort_unstable();
                let mut expected: Vec<u32> = (0..5)
                    .filter(|k| !bad.contains(k))
                    .map(|k| 10 * k as u32)
                    .collect();
                expected.push(7);
                expected.sort_unstable();
                assert_eq!(
                    handled, expected,
                    "{threads} threads, shards {bad:?} panicking"
                );
            }
        }
    }

    /// The canonical delivery order, pinned by hand rather than against the
    /// oracle (which shares the code): mail is held until the window that
    /// contains its time, then delivered by `(time, source shard, source
    /// send order)` — also when one source's messages for the same instant
    /// were sent in different windows.
    #[test]
    fn held_mail_is_delivered_in_canonical_order() {
        const W: u64 = 10_000_000;
        struct Sender(Vec<(u64, u32)>);
        impl ShardWorker for Sender {
            type Event = u32;
            fn handle(&mut self, at: SimTime, token: u32, out: &mut Outbox<u32>) {
                self.0.push((at.as_micros(), token));
                // Shard 0 receives; a 3-digit token `abc` on another shard
                // sends `bc` to it, `a` windows past the minimum lookahead.
                if out.shard() != 0 && token >= 100 {
                    let at = SimTime(out.window_end().as_micros() + (token / 100 - 1) as u64 * W);
                    out.send(0, at, token % 100);
                }
            }
        }
        for threads in [1, 2, 3] {
            let workers = (0..3).map(|_| Sender(Vec::new())).collect();
            let mut r = ShardRunner::new(workers, SimDuration(W));
            // Window 0: shard 2 sends 21 then 22, shard 1 sends 11, all for
            // 3 W. Window 1: shard 1 sends 12 for 2 W and 13 for 3 W.
            r.seed(2, SimTime(1), 321);
            r.seed(2, SimTime(2), 322);
            r.seed(1, SimTime(3), 311);
            r.seed(1, SimTime(W), 112);
            r.seed(1, SimTime(W + 1), 213);
            r.run_on(threads);
            assert_eq!(r.stats()[0].cross_recv, 5);
            assert_eq!(r.windows_run(), 4);
            let log = &r.worker(0).0;
            let expected = [
                (2 * W, 12),
                (3 * W, 11),
                (3 * W, 13),
                (3 * W, 21),
                (3 * W, 22),
            ];
            assert_eq!(log, &expected, "{threads} threads");
        }
    }

    #[test]
    fn block_partition_covers_contiguously_and_inverts() {
        for (total, k) in [(9u64, 1usize), (9, 9), (100, 7), (25_900_000, 32), (5, 5)] {
            let p = BlockPartition::equal(total, k);
            assert_eq!(p.blocks(), k);
            assert_eq!(p.bounds().len(), k + 1);
            let mut covered = 0u64;
            for i in 0..k {
                let b = p.block(i);
                assert_eq!(b.start, covered, "blocks must tile without gaps");
                assert!(!b.is_empty(), "block {i}/{k} of {total} empty");
                covered = b.end;
                // Membership inverts at both edges of every block.
                assert_eq!(p.of(b.start), i);
                assert_eq!(p.of(b.end - 1), i);
            }
            assert_eq!(covered, total);
        }
    }

    #[test]
    fn block_partition_rejects_more_blocks_than_items() {
        let r = std::panic::catch_unwind(|| BlockPartition::equal(3, 4));
        assert!(r.is_err(), "4 blocks over 3 items must panic");
    }

    #[test]
    fn publish_stats_twice_does_not_double_count() {
        let workers = (0..2)
            .map(|_| TokenWorker {
                hops: 0,
                log: Vec::new(),
            })
            .collect();
        let mut r = ShardRunner::new(workers, SimDuration::from_secs(10));
        r.seed(0, SimTime(0), 5);
        r.run_sequential();
        let reg = MetricsRegistry::new();
        // A progress scrape followed by a final publish must read the same
        // totals as a single publish — the delta on the second call is 0.
        r.publish_stats(&reg);
        let once = reg.counter("shard.0.events").get();
        r.publish_stats(&reg);
        assert_eq!(reg.counter("shard.0.events").get(), once);
        assert_eq!(once, r.stats()[0].events);
        assert_eq!(reg.counter("shard.windows_total").get(), r.windows_run());
        // New work after a publish shows up exactly once.
        r.seed(0, SimTime(1_000_000_000), 3);
        r.run_sequential();
        r.publish_stats(&reg);
        r.publish_stats(&reg);
        assert_eq!(reg.counter("shard.0.events").get(), r.stats()[0].events);
        assert_eq!(reg.counter("shard.windows_total").get(), r.windows_run());
    }

    /// The deterministic profiler channel is identical between the
    /// sequential oracle and the threaded run, and agrees with the
    /// runner's own lifetime stats; timings stay on the volatile side.
    #[test]
    fn profiler_execution_channel_matches_across_modes() {
        let profiled = |parallel: bool| {
            let workers = (0..4)
                .map(|_| TokenWorker {
                    hops: 0,
                    log: Vec::new(),
                })
                .collect();
            let mut r = ShardRunner::new(workers, SimDuration::from_secs(10));
            r.seed(0, SimTime(0), 12);
            r.seed(2, SimTime(5_000_000), 7);
            r.attach_profiler(ShardProfiler::new());
            if parallel {
                r.run_parallel();
            } else {
                r.run_sequential();
            }
            let p = r.take_profiler().expect("attached");
            let stats: Vec<_> = r.stats().to_vec();
            (p, stats)
        };
        let (seq, seq_stats) = profiled(false);
        let (par, _) = profiled(true);
        assert_eq!(seq.exec(), par.exec(), "deterministic channel diverged");
        let s = seq.exec().stats();
        assert_eq!(s.shards, 4);
        assert_eq!(
            s.events,
            seq_stats.iter().map(|st| st.events).sum::<u64>(),
            "profiler events must equal runner stats"
        );
        assert_eq!(
            s.per_shard.iter().map(|sh| sh.mail_sent).sum::<u64>(),
            seq_stats.iter().map(|st| st.cross_sent).sum::<u64>()
        );
        assert_eq!(
            s.per_shard.iter().map(|sh| sh.mail_recv).sum::<u64>(),
            seq_stats.iter().map(|st| st.cross_recv).sum::<u64>()
        );
        assert!(s.crit_events >= s.events / 4 && s.crit_events <= s.events);
        // Volatile channel: one timing per barrier, never part of the
        // deterministic comparison above.
        assert_eq!(seq.timings().windows().len(), s.windows as usize);
        assert_eq!(par.timings().windows().len(), s.windows as usize);
        assert_eq!(seq.timings().threads(), 1);
        assert!((1..=4).contains(&par.timings().threads()));
    }

    #[test]
    fn stats_track_events_and_mail() {
        let workers = (0..2)
            .map(|_| TokenWorker {
                hops: 0,
                log: Vec::new(),
            })
            .collect();
        let mut r = ShardRunner::new(workers, SimDuration::from_secs(10));
        r.seed(0, SimTime(0), 3);
        r.run_sequential();
        let total_events: u64 = r.stats().iter().map(|s| s.events).sum();
        assert_eq!(total_events, 4, "3 hops + final zero token");
        let sent: u64 = r.stats().iter().map(|s| s.cross_sent).sum();
        let recv: u64 = r.stats().iter().map(|s| s.cross_recv).sum();
        assert_eq!(sent, 3);
        assert_eq!(sent, recv);
    }
}
