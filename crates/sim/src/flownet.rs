//! Flow-level network model with max-min fair bandwidth sharing.
//!
//! Nodes model access links with asymmetric capacity (residential broadband
//! has fast downstream and slow upstream — the asymmetry the paper invokes
//! to explain Fig 4). A transfer is a *flow* from a source node's upstream
//! side to a destination node's downstream side, optionally capped by a
//! per-flow rate ceiling (NetSession's deliberate upload throttling, §3.9).
//! A *server flow* has no source node: it is a download from the edge tier,
//! which is provisioned so amply (§3.3) that only the destination's
//! downstream side and the flow's ceiling bound it. Every node capacity is
//! finite.
//!
//! Rates are assigned by **progressive filling**: all flows grow at the same
//! rate until a resource (a node side or a flow ceiling) saturates, the
//! affected flows freeze, and filling continues — the textbook max-min fair
//! allocation.
//!
//! # Incremental recomputation
//!
//! Rates only couple flows that share a resource, i.e. flows in the same
//! *connected component* of the bipartite flow graph. A flow belongs to its
//! destination's component and a server flow links nothing else, so the
//! edge tier never glues the downloads it feeds into one component. The
//! model therefore maintains a union-find partition of nodes, tracks which
//! components were dirtied by membership / ceiling / capacity changes, and
//! [`FlowNet::recompute_dirty`] re-runs progressive filling only inside
//! dirty components — the common driver path at scale, where a single
//! swarm's churn must not trigger a global recomputation.
//! [`FlowNet::recompute`] remains as the full-recomputation fallback and as
//! the oracle for equivalence tests; both paths fill each *exact* connected
//! component independently (flows visited in creation order), so they
//! assign byte-identical rates.
//!
//! Flows live in a dense slab (`Vec` + free list) addressed by
//! generation-tagged [`FlowId`]s, and per-node utilization aggregates are
//! maintained alongside rates, so [`FlowNet::downstream_utilization`] /
//! [`FlowNet::upstream_utilization`] are O(1) reads rather than O(flows)
//! scans.

use netsession_core::units::Bandwidth;
use netsession_obs::{Counter, Gauge, Histogram, MetricsRegistry, TraceCtx, TraceSink};
use std::time::Instant;

/// Handle to a node (an access link: one upstream + one downstream side).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Handle to a flow: a slab slot plus a generation tag. Slots are reused
/// after removal, but the generation bumps on every removal, so a stale
/// handle can never alias a later flow occupying the same slot — lookups
/// through it simply miss (rate zero, idempotent teardown).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowId {
    slot: u32,
    gen: u32,
}

/// Rates above this are treated as unconstrained (1 TB/s).
const MAX_RATE: f64 = 1e12;
/// Relative tolerance for saturation checks.
const EPS: f64 = 1e-9;
/// A server flow's upstream side in [`FillScratch`]: there is none.
const NO_SIDE: u32 = u32::MAX;

/// Every side saturates at a finite capacity; the fill relies on it.
fn check_caps(up: f64, down: f64) {
    assert!(
        up.is_finite() && up >= 0.0 && down.is_finite() && down >= 0.0,
        "node capacities must be finite and non-negative (up {up}, down {down})"
    );
}

#[derive(Clone, Debug)]
struct Node {
    up: f64,
    down: f64,
}

#[derive(Clone, Debug)]
struct Flow {
    /// `None` for a server flow.
    src: Option<NodeId>,
    dst: NodeId,
    ceil: f64,
    rate: f64,
    /// Monotonic creation stamp. Progressive filling always visits flows
    /// in `seq` order, which keeps rate assignment (and its floating-point
    /// rounding) independent of slot reuse.
    seq: u64,
}

#[derive(Clone, Debug, Default)]
struct Slot {
    gen: u32,
    flow: Option<Flow>,
}

/// Scratch buffers for [`FlowNet::fill_candidates`], reused across
/// recomputes. Recomputation runs on nearly every simulation event, so
/// per-call `Vec` churn here would dominate the allocator profile.
#[derive(Default)]
struct CandScratch {
    ldst: Vec<u32>,
    links: Vec<(u32, u32)>,
    lparent: Vec<u32>,
    lrank: Vec<u8>,
    comp_of_root: Vec<u32>,
    comps: Vec<Vec<u32>>,
}

/// Scratch buffers for [`FlowNet::fill_component`], reused across fills.
/// Resource *sides* are indexed `2 * local_node + {0 up, 1 down}`; a server
/// flow's missing upstream side is `NO_SIDE`.
#[derive(Default)]
struct FillScratch {
    cn: Vec<u32>,
    resid: Vec<f64>,
    count: Vec<u32>,
    thr: Vec<f64>,
    // Per-side flow lists (CSR over sides).
    side_start: Vec<u32>,
    side_flows: Vec<u32>,
    src: Vec<u32>,
    dst: Vec<u32>,
    ceil: Vec<f64>,
    rate_thr: Vec<f64>,
    rate: Vec<f64>,
    frozen: Vec<bool>,
    by_ceil: Vec<u32>,
    live_sides: Vec<u32>,
    saturated: Vec<u32>,
}

/// The fluid network: nodes, flows, and their current max-min fair rates.
pub struct FlowNet {
    nodes: Vec<Node>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,

    // Coarse union-find partition of nodes over the active flow graph.
    // Additions union eagerly; removals only mark staleness (the partition
    // is then an over-approximation of true connectivity, which is always
    // safe — it can only enlarge the recomputed set). `rebuild_partition`
    // restores exactness once enough removals accumulate.
    parent: Vec<u32>,
    rank: Vec<u8>,
    // Epoch-stamped laziness: a node whose stamp is stale is implicitly its
    // own singleton root, so resetting the whole partition is a counter
    // bump plus re-unioning the live flows — O(live), not O(nodes).
    uf_stamp: Vec<u64>,
    uf_epoch: u64,
    stale_removals: usize,

    // Dirty tracking: nodes touched by mutations since the last recompute,
    // deduplicated with an epoch-stamped mark.
    dirty_nodes: Vec<u32>,
    dirty_mark: Vec<u64>,
    epoch: u64,

    // Scratch epoch arrays (per-node) reused across recomputes to avoid
    // O(nodes) clearing: dirty-root marks, distinct-root counting marks,
    // and the node→local-index map used by component filling.
    root_mark: Vec<u64>,
    comp_mark: Vec<u64>,
    scan_epoch: u64,
    nl_idx: Vec<u32>,
    nl_mark: Vec<u64>,
    nl_epoch: u64,

    // Running per-node utilization aggregates (sum of flow rates touching
    // each side). Exact after every recompute; between a removal and the
    // next recompute they track by subtraction, like the rates themselves.
    util_up: Vec<f64>,
    util_down: Vec<f64>,

    // Recompute-path scratch, reused call to call (alloc-free steady
    // state). Taken out of `self` with `mem::take` for the duration of a
    // call, so borrows of `self` stay simple.
    members_scratch: Vec<(u64, u32)>,
    slots_scratch: Vec<u32>,
    cand: CandScratch,
    fill: FillScratch,

    // Dense list of live slots (order arbitrary; members are re-sorted by
    // creation stamp wherever order matters) so per-event scans touch only
    // live flows, not the whole slab. `slot_pos` is the inverse index.
    live_slots: Vec<u32>,
    slot_pos: Vec<u32>,

    recompute_ctr: Counter,
    flows_per_recompute: Histogram,
    components_gauge: Gauge,
    dirty_components_ctr: Counter,
    flows_recomputed_ctr: Counter,
    // Wall time of each recompute that does work (volatile). `None` when
    // no registry is attached, so a detached net never reads the clock.
    recompute_ns: Option<Histogram>,

    // Trace scope: while a driver is mutating flows on behalf of a traced
    // download, attach/detach marker spans are emitted under that
    // download's context. Detached by default (zero-cost null check).
    trace: TraceSink,
    trace_ctx: TraceCtx,
    trace_now_us: u64,
}

impl Default for FlowNet {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowNet {
    /// Empty network.
    pub fn new() -> Self {
        FlowNet {
            nodes: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            parent: Vec::new(),
            rank: Vec::new(),
            uf_stamp: Vec::new(),
            uf_epoch: 1,
            stale_removals: 0,
            dirty_nodes: Vec::new(),
            dirty_mark: Vec::new(),
            epoch: 1,
            root_mark: Vec::new(),
            comp_mark: Vec::new(),
            scan_epoch: 0,
            nl_idx: Vec::new(),
            nl_mark: Vec::new(),
            nl_epoch: 0,
            util_up: Vec::new(),
            util_down: Vec::new(),
            members_scratch: Vec::new(),
            slots_scratch: Vec::new(),
            cand: CandScratch::default(),
            fill: FillScratch::default(),
            live_slots: Vec::new(),
            slot_pos: Vec::new(),
            recompute_ctr: Counter::detached(),
            flows_per_recompute: Histogram::detached(),
            components_gauge: Gauge::detached(),
            dirty_components_ctr: Counter::detached(),
            flows_recomputed_ctr: Counter::detached(),
            recompute_ns: None,
            trace: TraceSink::detached(),
            trace_ctx: TraceCtx::NONE,
            trace_now_us: 0,
        }
    }

    /// Attach the model's instruments to `registry`: the existing
    /// `sim.flownet_recomputes` counter and `sim.flownet_flows_per_recompute`
    /// histogram, plus the incremental-path instruments
    /// `sim.flownet_components` (flow-graph components at the last
    /// recompute), `sim.flownet_dirty_components` (components re-filled),
    /// and `sim.flownet_active_flows_recomputed` (flows re-filled), and the
    /// volatile `sim.flownet_recompute_ns` histogram (wall time of each
    /// recompute that does work). Purely passive: rate assignment is
    /// identical with or without a registry.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.recompute_ctr = registry.counter("sim.flownet_recomputes");
        self.flows_per_recompute = registry.histogram("sim.flownet_flows_per_recompute");
        self.components_gauge = registry.gauge("sim.flownet_components");
        self.dirty_components_ctr = registry.counter("sim.flownet_dirty_components");
        self.flows_recomputed_ctr = registry.counter("sim.flownet_active_flows_recomputed");
        self.recompute_ns = Some(registry.volatile_histogram("sim.flownet_recompute_ns"));
        self
    }

    /// Attach a trace sink. Flow attach/detach then emit marker spans
    /// whenever a trace scope is set (see [`FlowNet::set_trace_scope`]).
    /// Passive like the metrics: rate assignment never depends on it.
    pub fn with_trace(mut self, sink: &TraceSink) -> Self {
        self.trace = sink.clone();
        self
    }

    /// Enter a trace scope: until [`FlowNet::clear_trace_scope`], flow
    /// mutations emit `flow_attach`/`flow_detach` spans under `ctx` at
    /// virtual time `now_us`. Drivers set this around the mutations they
    /// perform on behalf of one traced download.
    pub fn set_trace_scope(&mut self, ctx: TraceCtx, now_us: u64) {
        self.trace_ctx = ctx;
        self.trace_now_us = now_us;
    }

    /// Leave the trace scope (mutations stop emitting spans).
    pub fn clear_trace_scope(&mut self) {
        self.trace_ctx = TraceCtx::NONE;
    }

    fn push_node(&mut self, up: f64, down: f64) -> NodeId {
        check_caps(up, down);
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { up, down });
        self.parent.push(id.0);
        self.rank.push(0);
        self.uf_stamp.push(0);
        self.dirty_mark.push(0);
        self.root_mark.push(0);
        self.comp_mark.push(0);
        self.nl_idx.push(0);
        self.nl_mark.push(0);
        self.util_up.push(0.0);
        self.util_down.push(0.0);
        id
    }

    /// Add a node with the given up/downstream capacities, which must be
    /// finite and non-negative. An amply provisioned server is not a node:
    /// its downloads are [server flows](FlowNet::add_server_flow).
    pub fn add_node(&mut self, up: Bandwidth, down: Bandwidth) -> NodeId {
        self.push_node(up.bytes_per_sec(), down.bytes_per_sec())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of active flows.
    pub fn flow_count(&self) -> usize {
        self.live
    }

    /// Change a node's capacities (e.g. the user's link becomes busy and the
    /// upload throttle tightens). Takes effect at the next recompute; a
    /// genuine change dirties the node's component.
    pub fn set_node_caps(&mut self, node: NodeId, up: Bandwidth, down: Bandwidth) {
        let (u, d) = (up.bytes_per_sec(), down.bytes_per_sec());
        check_caps(u, d);
        let n = &mut self.nodes[node.0 as usize];
        if n.up != u || n.down != d {
            n.up = u;
            n.down = d;
            self.mark_dirty(node.0);
        }
    }

    /// Start a flow from `src`'s upstream to `dst`'s downstream, with an
    /// optional rate ceiling.
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, ceil: Option<Bandwidth>) -> FlowId {
        assert!((src.0 as usize) < self.nodes.len(), "bad src node");
        self.insert_flow(Some(src), dst, ceil)
    }

    /// Start a server flow into `dst`'s downstream: a download from an
    /// amply provisioned server, bounded only by that side and `ceil`. It
    /// joins `dst`'s component and no other.
    pub fn add_server_flow(&mut self, dst: NodeId, ceil: Option<Bandwidth>) -> FlowId {
        self.insert_flow(None, dst, ceil)
    }

    fn insert_flow(&mut self, src: Option<NodeId>, dst: NodeId, ceil: Option<Bandwidth>) -> FlowId {
        assert!((dst.0 as usize) < self.nodes.len(), "bad dst node");
        let seq = self.next_seq;
        self.next_seq += 1;
        let flow = Flow {
            src,
            dst,
            ceil: ceil.map_or(MAX_RATE, |b| b.bytes_per_sec().min(MAX_RATE)),
            rate: 0.0,
            seq,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].flow = Some(flow);
                s
            }
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    flow: Some(flow),
                });
                self.slot_pos.push(u32::MAX);
                (self.slots.len() - 1) as u32
            }
        };
        self.slot_pos[slot as usize] = self.live_slots.len() as u32;
        self.live_slots.push(slot);
        self.live += 1;
        if let Some(src) = src {
            self.union(src.0, dst.0);
        }
        self.mark_dirty(dst.0);
        let id = FlowId {
            slot,
            gen: self.slots[slot as usize].gen,
        };
        if self.trace_ctx.sampled {
            let span = self
                .trace
                .instant(self.trace_ctx, "flow_attach", "sim", self.trace_now_us);
            self.trace.add_attr(span, "flow", id.slot as u64);
            if let Some(src) = src {
                self.trace.add_attr(span, "src", src.0 as u64);
            }
            self.trace.add_attr(span, "dst", dst.0 as u64);
        }
        id
    }

    /// Tighten or relax a flow's ceiling. A genuine change dirties the
    /// flow's component; setting the same ceiling again is free.
    pub fn set_flow_ceil(&mut self, flow: FlowId, ceil: Option<Bandwidth>) {
        let new_ceil = ceil.map_or(MAX_RATE, |b| b.bytes_per_sec().min(MAX_RATE));
        let Some(f) = self.get_mut(flow) else { return };
        if f.ceil != new_ceil {
            f.ceil = new_ceil;
            let dst = f.dst.0;
            self.mark_dirty(dst);
        }
    }

    /// End a flow. Unknown or stale IDs are ignored (idempotent teardown).
    pub fn remove_flow(&mut self, flow: FlowId) {
        let Some(slot) = self.slots.get_mut(flow.slot as usize) else {
            return;
        };
        if slot.gen != flow.gen {
            return;
        }
        let Some(f) = slot.flow.take() else { return };
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(flow.slot);
        let pos = self.slot_pos[flow.slot as usize] as usize;
        self.live_slots.swap_remove(pos);
        if let Some(&moved) = self.live_slots.get(pos) {
            self.slot_pos[moved as usize] = pos as u32;
        }
        self.slot_pos[flow.slot as usize] = u32::MAX;
        self.live -= 1;
        self.stale_removals += 1;
        if let Some(src) = f.src {
            self.util_up[src.0 as usize] -= f.rate;
            self.mark_dirty(src.0);
        }
        self.util_down[f.dst.0 as usize] -= f.rate;
        self.mark_dirty(f.dst.0);
        if self.trace_ctx.sampled {
            let span = self
                .trace
                .instant(self.trace_ctx, "flow_detach", "sim", self.trace_now_us);
            self.trace.add_attr(span, "flow", flow.slot as u64);
        }
    }

    /// Current rate of a flow (zero for unknown or stale IDs).
    pub fn rate(&self, flow: FlowId) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.get(flow).map_or(0.0, |f| f.rate))
    }

    /// Endpoints of a flow (no source for a server flow).
    pub fn endpoints(&self, flow: FlowId) -> Option<(Option<NodeId>, NodeId)> {
        self.get(flow).map(|f| (f.src, f.dst))
    }

    fn get(&self, id: FlowId) -> Option<&Flow> {
        self.slots
            .get(id.slot as usize)
            .filter(|s| s.gen == id.gen)
            .and_then(|s| s.flow.as_ref())
    }

    fn get_mut(&mut self, id: FlowId) -> Option<&mut Flow> {
        self.slots
            .get_mut(id.slot as usize)
            .filter(|s| s.gen == id.gen)
            .and_then(|s| s.flow.as_mut())
    }

    // --- Union-find over nodes.

    fn find(&mut self, mut x: u32) -> u32 {
        if self.uf_stamp[x as usize] != self.uf_epoch {
            // Not yet touched this epoch: an implicit singleton.
            self.uf_stamp[x as usize] = self.uf_epoch;
            self.parent[x as usize] = x;
            self.rank[x as usize] = 0;
            return x;
        }
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra as usize].cmp(&self.rank[rb as usize]) {
            std::cmp::Ordering::Less => self.parent[ra as usize] = rb,
            std::cmp::Ordering::Greater => self.parent[rb as usize] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb as usize] = ra;
                self.rank[ra as usize] += 1;
            }
        }
    }

    /// Reset the partition to exact connectivity over the live flows: bump
    /// the epoch (implicitly isolating every node) and re-union the live
    /// edges. Union order differs from a slab scan, which can only change
    /// which member of a component happens to be its root — every use of
    /// the partition compares roots or marks per-root flags, so the
    /// resulting behaviour is identical.
    fn rebuild_partition(&mut self) {
        self.uf_epoch += 1;
        for li in 0..self.live_slots.len() {
            let s = self.live_slots[li] as usize;
            let Some((Some(a), b)) = self.slots[s].flow.as_ref().map(|f| (f.src, f.dst)) else {
                continue;
            };
            self.union(a.0, b.0);
        }
        self.stale_removals = 0;
    }

    fn mark_dirty(&mut self, node: u32) {
        if self.dirty_mark[node as usize] != self.epoch {
            self.dirty_mark[node as usize] = self.epoch;
            self.dirty_nodes.push(node);
        }
    }

    // --- Recomputation.

    /// Recompute all flow rates by progressive filling (max-min fairness).
    /// The full-recomputation fallback: rebuilds the exact component
    /// partition and re-fills every component. Use
    /// [`recompute_dirty`](FlowNet::recompute_dirty) on the hot path.
    pub fn recompute(&mut self) {
        let started = self.recompute_ns.as_ref().map(|_| Instant::now());
        self.rebuild_partition();
        let mut members = std::mem::take(&mut self.members_scratch);
        members.clear();
        for s in 0..self.slots.len() {
            if let Some(f) = self.slots[s].flow.as_ref() {
                members.push((f.seq, s as u32));
            }
        }
        members.sort_unstable();
        let mut member_slots = std::mem::take(&mut self.slots_scratch);
        member_slots.clear();
        member_slots.extend(members.iter().map(|&(_, s)| s));
        self.members_scratch = members;

        for u in &mut self.util_up {
            *u = 0.0;
        }
        for d in &mut self.util_down {
            *d = 0.0;
        }

        self.recompute_ctr.incr();
        self.flows_per_recompute.record(self.live as u64);
        self.flows_recomputed_ctr.add(member_slots.len() as u64);
        let filled = self.fill_candidates(&member_slots, FlowNet::fill_component);
        self.slots_scratch = member_slots;
        self.dirty_components_ctr.add(filled as u64);
        self.components_gauge.set(filled as i64);

        self.dirty_nodes.clear();
        self.epoch += 1;
        self.record_recompute_ns(started);
    }

    fn record_recompute_ns(&self, started: Option<Instant>) {
        if let (Some(h), Some(t)) = (&self.recompute_ns, started) {
            h.record(t.elapsed().as_nanos() as u64);
        }
    }

    /// Recompute rates only inside components dirtied since the last
    /// recompute (by flow add/remove, ceiling changes, or node capacity
    /// changes). A no-op when nothing is dirty. Produces byte-identical
    /// rates to a full [`recompute`](FlowNet::recompute): both paths fill
    /// each exact connected component independently, visiting member flows
    /// in creation order.
    pub fn recompute_dirty(&mut self) {
        if self.dirty_nodes.is_empty() {
            return;
        }
        let started = self.recompute_ns.as_ref().map(|_| Instant::now());
        // Removals make the coarse partition stale (components can only
        // appear merged, never split — safe but wasteful). Re-derive it
        // once staleness could double the recomputed set.
        if self.stale_removals > 64 && self.stale_removals * 4 > self.live {
            self.rebuild_partition();
        }

        self.scan_epoch += 1;
        let mut dirty = std::mem::take(&mut self.dirty_nodes);
        for &n in &dirty {
            let r = self.find(n);
            self.root_mark[r as usize] = self.scan_epoch;
        }

        // One pass over the slab: count distinct components (gauge) and
        // collect flows whose component root is dirty.
        let mut members = std::mem::take(&mut self.members_scratch);
        members.clear();
        let mut components_total = 0usize;
        for li in 0..self.live_slots.len() {
            let s = self.live_slots[li] as usize;
            let Some((dst, seq)) = self.slots[s].flow.as_ref().map(|f| (f.dst.0, f.seq)) else {
                continue;
            };
            let r = self.find(dst);
            if self.comp_mark[r as usize] != self.scan_epoch {
                self.comp_mark[r as usize] = self.scan_epoch;
                components_total += 1;
            }
            if self.root_mark[r as usize] == self.scan_epoch {
                members.push((seq, s as u32));
            }
        }
        members.sort_unstable();
        let mut member_slots = std::mem::take(&mut self.slots_scratch);
        member_slots.clear();
        member_slots.extend(members.iter().map(|&(_, s)| s));
        self.members_scratch = members;

        // A dirty node whose flows all vanished is re-filled by nothing:
        // zero its aggregates here (filling overwrites nodes that still
        // carry flows).
        for &n in &dirty {
            self.util_up[n as usize] = 0.0;
            self.util_down[n as usize] = 0.0;
        }
        dirty.clear();
        self.dirty_nodes = dirty;

        self.recompute_ctr.incr();
        self.flows_per_recompute.record(self.live as u64);
        self.flows_recomputed_ctr.add(member_slots.len() as u64);
        let filled = self.fill_candidates(&member_slots, FlowNet::fill_component);
        self.slots_scratch = member_slots;
        self.dirty_components_ctr.add(filled as u64);
        self.components_gauge.set(components_total as i64);

        self.epoch += 1;
        self.record_recompute_ns(started);
    }

    /// Split `members` (flow slots, sorted by creation order) into exact
    /// connected components and `fill` each independently (tests pass the
    /// reference loop). Returns the number of components filled.
    fn fill_candidates(&mut self, members: &[u32], fill: fn(&mut FlowNet, &[u32])) -> usize {
        if members.is_empty() {
            return 0;
        }
        // Local union-find over just the candidate flows: the coarse
        // partition may be stale (merged), so exact splitting here is what
        // guarantees byte-identical fills between the dirty and full paths.
        self.nl_epoch += 1;
        let mut cs = std::mem::take(&mut self.cand);
        cs.ldst.clear();
        cs.links.clear();
        cs.lparent.clear();
        cs.lrank.clear();
        for &s in members {
            let f = self.slots[s as usize].flow.as_ref().unwrap();
            let (src, dst) = (f.src.map(|n| n.0 as usize), f.dst.0 as usize);
            for e in src.into_iter().chain([dst]) {
                if self.nl_mark[e] != self.nl_epoch {
                    self.nl_mark[e] = self.nl_epoch;
                    self.nl_idx[e] = cs.lparent.len() as u32;
                    cs.lparent.push(cs.lparent.len() as u32);
                    cs.lrank.push(0);
                }
            }
            cs.ldst.push(self.nl_idx[dst]);
            if let Some(src) = src {
                cs.links.push((self.nl_idx[src], self.nl_idx[dst]));
            }
        }
        fn lfind(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                let grand = parent[parent[x as usize] as usize];
                parent[x as usize] = grand;
                x = grand;
            }
            x
        }
        for &(a, b) in &cs.links {
            let (ra, rb) = (lfind(&mut cs.lparent, a), lfind(&mut cs.lparent, b));
            if ra == rb {
                continue;
            }
            match cs.lrank[ra as usize].cmp(&cs.lrank[rb as usize]) {
                std::cmp::Ordering::Less => cs.lparent[ra as usize] = rb,
                std::cmp::Ordering::Greater => cs.lparent[rb as usize] = ra,
                std::cmp::Ordering::Equal => {
                    cs.lparent[rb as usize] = ra;
                    cs.lrank[ra as usize] += 1;
                }
            }
        }

        // Bucket members by component, preserving creation order within
        // each (members are sorted, pushes preserve order). Inner Vecs are
        // pooled across calls: cleared on reuse, never dropped.
        cs.comp_of_root.clear();
        cs.comp_of_root.resize(cs.lparent.len(), u32::MAX);
        let mut used = 0usize;
        for (k, &s) in members.iter().enumerate() {
            let r = lfind(&mut cs.lparent, cs.ldst[k]) as usize;
            if cs.comp_of_root[r] == u32::MAX {
                cs.comp_of_root[r] = used as u32;
                if cs.comps.len() == used {
                    cs.comps.push(Vec::new());
                }
                cs.comps[used].clear();
                used += 1;
            }
            cs.comps[cs.comp_of_root[r] as usize].push(s);
        }
        for comp in &cs.comps[..used] {
            fill(self, comp);
        }
        self.cand = cs;
        used
    }

    /// Progressive filling restricted to one connected component, by
    /// resource side rather than by flow. Three identities let a round visit
    /// each constraining side once (one ratio, `count` subtractions) instead
    /// of making two passes over every unfrozen flow, while assigning
    /// bit-identical rates to the per-flow loop (kept as the test oracle
    /// `fill_component_reference`):
    ///
    /// - Every unfrozen flow starts at `0.0` and receives the same
    ///   increments in the same order, so all of them hold one value, the
    ///   running `level`. A flow's rate is written once, when it freezes.
    /// - Within a round every subtraction against one side uses the same
    ///   `inc`, so the per-flow scatter `resid[side] -= inc` is `count[side]`
    ///   consecutive subtractions on that side.
    /// - Rounding is monotone, so the ceiling headroom
    ///   `min_k fl(ceil_k - rate_k)` over unfrozen flows is
    ///   `fl(min unfrozen ceil - level)`, and ceiling freezes become a
    ///   cursor over the flows sorted once by ceiling (their freeze lines
    ///   `rate_thr` are monotone in the ceiling).
    ///
    /// Also rebuilds the component's per-node utilization aggregates
    /// exactly (every flow touching a member node is a member).
    fn fill_component(&mut self, comp: &[u32]) {
        let n = comp.len();
        self.nl_epoch += 1;
        let mut fs = std::mem::take(&mut self.fill);
        let FillScratch {
            cn,
            resid,
            count,
            thr,
            side_start,
            side_flows,
            src,
            dst,
            ceil,
            rate_thr,
            rate,
            frozen,
            by_ceil,
            live_sides,
            saturated,
        } = &mut fs;
        cn.clear();
        resid.clear();
        count.clear();
        thr.clear();
        src.clear();
        dst.clear();
        ceil.clear();
        rate_thr.clear();
        for &s in comp {
            let f = self.slots[s as usize].flow.as_ref().unwrap();
            let (a, b, c) = (f.src.map(|n| n.0 as usize), f.dst.0 as usize, f.ceil);
            for e in a.into_iter().chain([b]) {
                if self.nl_mark[e] != self.nl_epoch {
                    self.nl_mark[e] = self.nl_epoch;
                    self.nl_idx[e] = cn.len() as u32;
                    cn.push(e as u32);
                    let node = &self.nodes[e];
                    for cap in [node.up, node.down] {
                        resid.push(cap);
                        count.push(0);
                        // Saturation is `resid <= max(EPS*cap, 1e-6)`.
                        thr.push((EPS * cap).max(1e-6));
                    }
                }
            }
            let su = a.map_or(NO_SIDE, |a| 2 * self.nl_idx[a]);
            let sd = 2 * self.nl_idx[b] + 1;
            if su != NO_SIDE {
                count[su as usize] += 1;
            }
            count[sd as usize] += 1;
            src.push(su);
            dst.push(sd);
            ceil.push(c);
            // `at_ceil || capped` is one comparison against the smaller
            // of the two freeze lines (both are `rate >= x` tests).
            rate_thr.push((c - EPS * c.max(1.0)).min(MAX_RATE));
        }

        // Per-side flow lists and the sides that can constrain the
        // increment: a side with no unfrozen flows contributes nothing.
        // `side_start` first holds each range's end, and placing a flow
        // moves its side's entry back, so it ends at the range's start.
        side_start.clear();
        live_sides.clear();
        let mut total = 0u32;
        for (sx, &c) in count.iter().enumerate() {
            if c > 0 {
                total += c;
                live_sides.push(sx as u32);
            }
            side_start.push(total);
        }
        side_start.push(total);
        side_flows.clear();
        side_flows.resize(total as usize, 0);
        for k in 0..n {
            for sx in [src[k], dst[k]] {
                if sx != NO_SIDE {
                    let sx = sx as usize;
                    side_start[sx] -= 1;
                    side_flows[side_start[sx] as usize] = k as u32;
                }
            }
        }

        by_ceil.clear();
        by_ceil.extend(0..n as u32);
        by_ceil.sort_unstable_by(|&x, &y| ceil[x as usize].total_cmp(&ceil[y as usize]));
        debug_assert!(by_ceil
            .windows(2)
            .all(|w| rate_thr[w[0] as usize] <= rate_thr[w[1] as usize]));

        rate.clear();
        rate.resize(n, 0.0);
        frozen.clear();
        frozen.resize(n, false);
        let mut level = 0.0f64;
        let mut unfrozen = n;
        // `by_ceil[..ceil_cur]` and `0..first` are all frozen.
        let mut ceil_cur = 0usize;
        let mut first = 0usize;
        macro_rules! freeze {
            ($k:expr) => {{
                let k = $k;
                frozen[k] = true;
                rate[k] = level;
                if src[k] != NO_SIDE {
                    count[src[k] as usize] -= 1;
                }
                count[dst[k] as usize] -= 1;
                unfrozen -= 1;
            }};
        }
        while unfrozen > 0 {
            // The uniform increment every unfrozen flow can still take.
            let mut inc = f64::INFINITY;
            let mut i = 0;
            while i < live_sides.len() {
                let sx = live_sides[i] as usize;
                if count[sx] == 0 {
                    live_sides.swap_remove(i);
                    continue;
                }
                inc = inc.min(resid[sx] / count[sx] as f64);
                i += 1;
            }
            while frozen[by_ceil[ceil_cur] as usize] {
                ceil_cur += 1;
            }
            // Finite: every ceiling is at most `MAX_RATE`.
            inc = inc.min(ceil[by_ceil[ceil_cur] as usize] - level).max(0.0);
            level += inc;

            // Apply the increment side by side (with every side's count as
            // of the round's start), then freeze flows at a saturated side
            // or at their ceiling.
            saturated.clear();
            for &sx in live_sides.iter() {
                let sx = sx as usize;
                let r = &mut resid[sx];
                for _ in 0..count[sx] {
                    *r -= inc;
                }
                if *r <= thr[sx] {
                    saturated.push(sx as u32);
                }
            }
            let before = unfrozen;
            for &sx in saturated.iter() {
                let sx = sx as usize;
                for j in side_start[sx]..side_start[sx + 1] {
                    let k = side_flows[j as usize] as usize;
                    if !frozen[k] {
                        freeze!(k);
                    }
                }
            }
            while ceil_cur < n {
                let k = by_ceil[ceil_cur] as usize;
                if !frozen[k] {
                    if level < rate_thr[k] {
                        break;
                    }
                    freeze!(k);
                }
                ceil_cur += 1;
            }
            // Progress guarantee: if numerically nothing froze, freeze the
            // first remaining flow (in creation order) to avoid an
            // infinite loop.
            if unfrozen == before {
                while frozen[first] {
                    first += 1;
                }
                freeze!(first);
            }
        }

        // Write back rates and rebuild the component's utilization
        // aggregates (accumulated in creation order, matching what a flow
        // scan in creation order would sum).
        for &nid in cn.iter() {
            self.util_up[nid as usize] = 0.0;
            self.util_down[nid as usize] = 0.0;
        }
        for (k, &s) in comp.iter().enumerate() {
            let f = self.slots[s as usize].flow.as_mut().unwrap();
            f.rate = rate[k];
            if let Some(a) = f.src {
                self.util_up[a.0 as usize] += rate[k];
            }
            self.util_down[f.dst.0 as usize] += rate[k];
        }
        self.fill = fs;
    }

    /// Sum of current flow rates into `node` (its downstream utilization).
    /// An O(1) read of the maintained aggregate.
    pub fn downstream_utilization(&self, node: NodeId) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.util_down[node.0 as usize])
    }

    /// Sum of current flow rates out of `node` (its upstream utilization).
    /// An O(1) read of the maintained aggregate.
    pub fn upstream_utilization(&self, node: NodeId) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.util_up[node.0 as usize])
    }

    /// Deterministic checksum over (creation stamp, rate bits) of all live
    /// flows. Two nets that went through the same mutation sequence have
    /// equal checksums iff they assigned byte-identical rates — the
    /// equivalence probe for `recompute` vs `recompute_dirty`.
    pub fn rate_checksum(&self) -> u64 {
        let mut items: Vec<(u64, u64)> = self
            .slots
            .iter()
            .filter_map(|s| s.flow.as_ref())
            .map(|f| (f.seq, f.rate.to_bits()))
            .collect();
        items.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (seq, bits) in items {
            h ^= seq;
            h = h.wrapping_mul(0x1000_0000_01b3);
            h ^= bits;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(v: f64) -> Bandwidth {
        Bandwidth::from_mbps(v)
    }

    impl FlowNet {
        /// Progressive filling flow by flow: two passes over every unfrozen
        /// flow per round (apply, then retain). The oracle that the
        /// side-based `fill_component` must match bit for bit.
        fn fill_component_reference(&mut self, comp: &[u32]) {
            let n = comp.len();
            self.nl_epoch += 1;
            let mut cn: Vec<u32> = Vec::new();
            let mut resid_up: Vec<f64> = Vec::new();
            let mut resid_down: Vec<f64> = Vec::new();
            let mut up_count: Vec<u32> = Vec::new();
            let mut down_count: Vec<u32> = Vec::new();
            let mut src: Vec<Option<usize>> = Vec::new();
            let mut dst: Vec<usize> = Vec::new();
            let mut ceil: Vec<f64> = Vec::new();
            let mut rate: Vec<f64> = Vec::new();
            let mut active: Vec<usize> = Vec::new();
            let mut live_nodes: Vec<u32> = Vec::new();
            let mut up_thr: Vec<f64> = Vec::new();
            let mut down_thr: Vec<f64> = Vec::new();
            let mut rate_thr: Vec<f64> = Vec::new();
            for &s in comp {
                let f = self.slots[s as usize].flow.as_ref().unwrap();
                let (a, b, c) = (f.src.map(|n| n.0 as usize), f.dst.0 as usize, f.ceil);
                for e in a.into_iter().chain([b]) {
                    if self.nl_mark[e] != self.nl_epoch {
                        self.nl_mark[e] = self.nl_epoch;
                        self.nl_idx[e] = cn.len() as u32;
                        cn.push(e as u32);
                        let node = &self.nodes[e];
                        resid_up.push(node.up);
                        resid_down.push(node.down);
                        up_count.push(0);
                        down_count.push(0);
                        // Saturation thresholds folded once per fill: the
                        // round-loop test `resid <= EPS*cap || resid <= 1e-6`
                        // is `resid <= max(EPS*cap, 1e-6)` (same comparisons,
                        // same floats).
                        up_thr.push((EPS * node.up).max(1e-6));
                        down_thr.push((EPS * node.down).max(1e-6));
                    }
                }
                let sl = a.map(|a| self.nl_idx[a] as usize);
                let dl = self.nl_idx[b] as usize;
                if let Some(sl) = sl {
                    up_count[sl] += 1;
                }
                down_count[dl] += 1;
                src.push(sl);
                dst.push(dl);
                ceil.push(c);
                // `at_ceil || capped` is one comparison against the smaller
                // of the two freeze lines (both are `rate >= x` tests).
                rate_thr.push((c - EPS * c.max(1.0)).min(MAX_RATE));
            }

            rate.clear();
            rate.resize(n, 0.0);
            active.clear();
            active.extend(0..n);
            // Running min of each unfrozen flow's ceiling headroom
            // (`ceil[k] - rate[k]`), maintained across rounds so the round
            // loop does not need a dedicated O(active) scan for it. f64 min
            // is exact and order-independent, so folding the same values in
            // a different order yields the bit-identical minimum.
            let mut flow_min = f64::INFINITY;
            for &c in ceil.iter() {
                flow_min = flow_min.min(c);
            }
            // Only nodes that can ever constrain the increment: a side with
            // no unfrozen flows contributes nothing. Skipping it leaves every
            // computed `inc` identical (min over the same set of ratios)
            // while shrinking the per-round scan to the constraining few.
            live_nodes.clear();
            for i in 0..cn.len() {
                if up_count[i] > 0 || down_count[i] > 0 {
                    live_nodes.push(i as u32);
                }
            }
            while !active.is_empty() {
                // The uniform increment every unfrozen flow can still take.
                let mut inc = f64::INFINITY;
                let mut i = 0;
                while i < live_nodes.len() {
                    let nx = live_nodes[i] as usize;
                    if up_count[nx] == 0 && down_count[nx] == 0 {
                        live_nodes.swap_remove(i);
                        continue;
                    }
                    if up_count[nx] > 0 {
                        inc = inc.min(resid_up[nx] / up_count[nx] as f64);
                    }
                    if down_count[nx] > 0 {
                        inc = inc.min(resid_down[nx] / down_count[nx] as f64);
                    }
                    i += 1;
                }
                // Finite: every ceiling is at most `MAX_RATE`.
                inc = inc.min(flow_min).max(0.0);

                // Apply the increment.
                for &k in active.iter() {
                    rate[k] += inc;
                    if let Some(a) = src[k] {
                        resid_up[a] -= inc;
                    }
                    resid_down[dst[k]] -= inc;
                }

                // Freeze flows at a saturated resource or at their ceiling.
                // The retain pass doubles as the producer of the next
                // round's flow-ceiling minimum over exactly the flows that
                // survive it.
                let before = active.len();
                flow_min = f64::INFINITY;
                active.retain(|&k| {
                    let freeze = src[k].is_some_and(|a| resid_up[a] <= up_thr[a])
                        || resid_down[dst[k]] <= down_thr[dst[k]]
                        || rate[k] >= rate_thr[k];
                    if freeze {
                        if let Some(a) = src[k] {
                            up_count[a] -= 1;
                        }
                        down_count[dst[k]] -= 1;
                    } else {
                        flow_min = flow_min.min(ceil[k] - rate[k]);
                    }
                    !freeze
                });
                // Progress guarantee: if numerically nothing froze, freeze the
                // first remaining flow to avoid an infinite loop. Its ceiling
                // headroom may have been folded into `flow_min` above, so
                // rebuild the min over the flows actually left.
                if active.len() == before {
                    let k = active.remove(0);
                    if let Some(a) = src[k] {
                        up_count[a] -= 1;
                    }
                    down_count[dst[k]] -= 1;
                    flow_min = f64::INFINITY;
                    for &k in active.iter() {
                        flow_min = flow_min.min(ceil[k] - rate[k]);
                    }
                }
            }

            // Write back rates and rebuild the component's utilization
            // aggregates (accumulated in creation order, matching what a flow
            // scan in creation order would sum).
            for &nid in cn.iter() {
                self.util_up[nid as usize] = 0.0;
                self.util_down[nid as usize] = 0.0;
            }
            for (k, &s) in comp.iter().enumerate() {
                let f = self.slots[s as usize].flow.as_mut().unwrap();
                f.rate = rate[k];
                if let Some(a) = f.src {
                    self.util_up[a.0 as usize] += rate[k];
                }
                self.util_down[f.dst.0 as usize] += rate[k];
            }
        }
    }

    /// A random network (possibly several components), flows added in
    /// slots `0..flow_count()`, nothing filled. Inputs include server
    /// flows, zero-capacity and sub-threshold sides, ceilings equal to a
    /// side's fair share, zero and tied ceilings, and duplicate
    /// `(src, dst)` flows.
    fn random_net(seed: u64) -> FlowNet {
        use netsession_core::rng::DetRng;
        let mut rng = DetRng::seeded(0xf111_0000 ^ seed);
        let mut net = FlowNet::new();
        let n = 2 + rng.index(14);
        let mut caps = Vec::new();
        for _ in 0..n {
            let (up, down) = match rng.index(10) {
                1 => (0.0, mbps(rng.range_f64(0.5, 200.0)).bytes_per_sec()),
                2 => (mbps(rng.range_f64(0.1, 50.0)).bytes_per_sec(), 0.0),
                3 => (5e-7, mbps(rng.range_f64(0.5, 200.0)).bytes_per_sec()),
                _ => (
                    mbps(rng.range_f64(0.1, 50.0)).bytes_per_sec(),
                    mbps(rng.range_f64(0.5, 200.0)).bytes_per_sec(),
                ),
            };
            caps.push((up, down));
            net.push_node(up, down);
        }
        // `None` as the source is a server flow.
        let mut pairs: Vec<(Option<usize>, usize)> = Vec::new();
        for _ in 0..1 + rng.index(60) {
            let pair = match pairs.last() {
                Some(&last) if rng.chance(0.2) => last,
                _ if rng.chance(0.15) => (None, rng.index(n)),
                _ => {
                    let s = rng.index(n);
                    (Some(s), (s + 1 + rng.index(n - 1)) % n)
                }
            };
            pairs.push(pair);
        }
        let (mut outs, mut ins) = (vec![0usize; n], vec![0usize; n]);
        for &(s, d) in &pairs {
            if let Some(s) = s {
                outs[s] += 1;
            }
            ins[d] += 1;
        }
        let mut last_ceil = None;
        for &(s, d) in &pairs {
            let ceil = match (rng.index(10), s) {
                (0..=4, _) => None,
                (5 | 6, _) => Some(mbps(rng.range_f64(0.05, 10.0))),
                (7, Some(s)) => Some(Bandwidth::from_bytes_per_sec(caps[s].0 / outs[s] as f64)),
                (7, None) => Some(Bandwidth::from_bytes_per_sec(caps[d].1 / ins[d] as f64)),
                (8, _) => Some(Bandwidth::ZERO),
                _ => last_ceil,
            };
            last_ceil = ceil;
            let d = NodeId(d as u32);
            match s {
                Some(s) => net.add_flow(NodeId(s as u32), d, ceil),
                None => net.add_server_flow(d, ceil),
            };
        }
        net
    }

    /// `random_net(seed)` split into its true components, each filled
    /// through `fill`: every flow's rate bits in creation order, then every
    /// node's upstream and downstream utilization bits.
    fn random_fill(seed: u64, fill: fn(&mut FlowNet, &[u32])) -> Vec<u64> {
        let mut net = random_net(seed);
        let members: Vec<u32> = (0..net.flow_count() as u32).collect();
        net.fill_candidates(&members, fill);
        let rates = net.slots.iter().map(|s| s.flow.as_ref().unwrap().rate);
        rates
            .chain(net.util_up.iter().copied())
            .chain(net.util_down.iter().copied())
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn side_fill_matches_reference_loop_bit_for_bit() {
        for seed in 0..2_000 {
            assert_eq!(
                random_fill(seed, FlowNet::fill_component),
                random_fill(seed, FlowNet::fill_component_reference),
                "seed {seed}"
            );
        }
    }

    /// The size of the one float-order change server flows make. An edge
    /// server used to be a node of infinite capacity, which glued every
    /// download it fed into one component, so a whole region was filled
    /// as one member list. An infinite side never constrains the fill, so
    /// in real arithmetic the rates are the same; only the shared fill
    /// level is now accumulated per true component instead of over the
    /// region. Here the reference loop fills each whole network as one
    /// list (the glue) and the side fill fills its true components.
    ///
    /// Where every side's capacity is above the fill's absolute saturation
    /// floor (1e-6 B/s) each rate agrees within `MAX_ULPS` (18 was the
    /// worst seen). A side at or below that floor counts as saturated from
    /// the first round, at whatever level that round reaches, so there the
    /// rates agree within the floor itself (5.0e-7 B/s was the worst seen).
    #[test]
    fn region_glued_fill_agrees_within_ulps() {
        const MAX_ULPS: u64 = 32;
        const FLOOR: f64 = 1e-6;
        for seed in 0..20_000 {
            let mut split = random_net(seed);
            let mut glued = random_net(seed);
            let members: Vec<u32> = (0..split.flow_count() as u32).collect();
            split.fill_candidates(&members, FlowNet::fill_component);
            glued.fill_component_reference(&members);
            let above_floor = split.nodes.iter().all(|n| n.up > FLOOR && n.down > FLOOR);
            for (a, b) in split.slots.iter().zip(&glued.slots) {
                let (a, b) = (a.flow.as_ref().unwrap().rate, b.flow.as_ref().unwrap().rate);
                if above_floor {
                    let ulps = a.to_bits().abs_diff(b.to_bits());
                    assert!(ulps <= MAX_ULPS, "seed {seed}: {a} vs {b} ({ulps} ulps)");
                } else {
                    assert!((a - b).abs() <= FLOOR, "seed {seed}: {a} vs {b}");
                }
            }
        }
    }

    /// With the edge a ceiling and not a node, two swarms share no
    /// resource, so nothing done to one swarm's server flows (adding,
    /// re-capping, removing) may move a single rate or utilization bit in
    /// the other, on the dirty path or the full one.
    #[test]
    fn server_flows_never_move_another_swarms_rate_bits() {
        use netsession_core::rng::DetRng;
        for seed in 0..200 {
            let mut rng = DetRng::seeded(0x5e4e_0000 ^ seed);
            let mut net = FlowNet::new();
            // A chain of peers, each downloader also fed by the edge.
            let swarm = |net: &mut FlowNet, rng: &mut DetRng| {
                let nodes: Vec<NodeId> = (0..2 + rng.index(4))
                    .map(|_| {
                        let up = mbps(rng.range_f64(0.1, 20.0));
                        net.add_node(up, mbps(rng.range_f64(0.5, 100.0)))
                    })
                    .collect();
                let (mut peer, mut server) = (Vec::new(), Vec::new());
                for (i, &d) in nodes.iter().enumerate().skip(1) {
                    peer.push(net.add_flow(nodes[i - 1], d, None));
                    server.push(net.add_server_flow(d, Some(mbps(rng.range_f64(0.1, 50.0)))));
                }
                (nodes, peer, server)
            };
            let (a_nodes, _, mut a_server) = swarm(&mut net, &mut rng);
            let (b_nodes, b_peer, b_server) = swarm(&mut net, &mut rng);
            let bits = |net: &FlowNet| -> Vec<u64> {
                let flows = b_peer.iter().chain(&b_server);
                let rates = flows.map(|&f| net.rate(f).bytes_per_sec());
                let up = b_nodes
                    .iter()
                    .map(|&n| net.upstream_utilization(n).bytes_per_sec());
                let down = b_nodes
                    .iter()
                    .map(|&n| net.downstream_utilization(n).bytes_per_sec());
                rates.chain(up).chain(down).map(f64::to_bits).collect()
            };
            net.recompute_dirty();
            let before = bits(&net);
            for step in 0..20 {
                let k = rng.index(a_server.len());
                match rng.index(3) {
                    0 => {
                        let d = a_nodes[rng.index(a_nodes.len())];
                        let ceil = rng.chance(0.5).then(|| mbps(rng.range_f64(0.1, 50.0)));
                        a_server.push(net.add_server_flow(d, ceil));
                    }
                    1 => net.set_flow_ceil(a_server[k], Some(mbps(rng.range_f64(0.1, 50.0)))),
                    _ if a_server.len() > 1 => net.remove_flow(a_server.swap_remove(k)),
                    _ => {}
                }
                net.recompute_dirty();
                assert_eq!(bits(&net), before, "seed {seed} step {step}: dirty path");
                net.recompute();
                assert_eq!(bits(&net), before, "seed {seed} step {step}: full path");
            }
        }
    }

    fn assert_close(a: Bandwidth, mbps_expected: f64) {
        assert!(
            (a.as_mbps() - mbps_expected).abs() < 0.01,
            "expected {mbps_expected} Mbps, got {}",
            a.as_mbps()
        );
    }

    #[test]
    fn single_flow_limited_by_slowest_side() {
        let mut net = FlowNet::new();
        let a = net.add_node(mbps(1.0), mbps(20.0));
        let b = net.add_node(mbps(5.0), mbps(50.0));
        let f = net.add_flow(a, b, None);
        net.recompute();
        assert_close(net.rate(f), 1.0); // a's upstream is the bottleneck
    }

    #[test]
    fn flow_ceiling_binds() {
        let mut net = FlowNet::new();
        let a = net.add_node(mbps(10.0), mbps(10.0));
        let b = net.add_node(mbps(10.0), mbps(10.0));
        let f = net.add_flow(a, b, Some(mbps(2.0)));
        net.recompute();
        assert_close(net.rate(f), 2.0);
    }

    #[test]
    fn two_flows_share_bottleneck_equally() {
        let mut net = FlowNet::new();
        let src = net.add_node(mbps(8.0), mbps(100.0));
        let d1 = net.add_node(mbps(1.0), mbps(100.0));
        let d2 = net.add_node(mbps(1.0), mbps(100.0));
        let f1 = net.add_flow(src, d1, None);
        let f2 = net.add_flow(src, d2, None);
        net.recompute();
        assert_close(net.rate(f1), 4.0);
        assert_close(net.rate(f2), 4.0);
    }

    #[test]
    fn max_min_redistributes_slack_from_capped_flow() {
        // Source has 10 Mbps up; flow 1 is capped at 2, so flow 2 should
        // get the remaining 8 — strict equal-split would give it only 5.
        let mut net = FlowNet::new();
        let src = net.add_node(mbps(10.0), mbps(100.0));
        let d1 = net.add_node(mbps(100.0), mbps(100.0));
        let d2 = net.add_node(mbps(100.0), mbps(100.0));
        let f1 = net.add_flow(src, d1, Some(mbps(2.0)));
        let f2 = net.add_flow(src, d2, None);
        net.recompute();
        assert_close(net.rate(f1), 2.0);
        assert_close(net.rate(f2), 8.0);
    }

    #[test]
    fn downstream_bottleneck_shared_across_sources() {
        // Two seeders with ample upstream feed one downloader with 6 Mbps
        // downstream: each flow gets 3.
        let mut net = FlowNet::new();
        let s1 = net.add_node(mbps(50.0), mbps(50.0));
        let s2 = net.add_node(mbps(50.0), mbps(50.0));
        let d = net.add_node(mbps(50.0), mbps(6.0));
        let f1 = net.add_flow(s1, d, None);
        let f2 = net.add_flow(s2, d, None);
        net.recompute();
        assert_close(net.rate(f1), 3.0);
        assert_close(net.rate(f2), 3.0);
    }

    #[test]
    fn asymmetric_links_mirror_broadband() {
        // Downloader has 16/1 ADSL-ish link; a single peer upload to it is
        // limited by the *peer's* 1 Mbps upstream even though the
        // downloader could take 16.
        let mut net = FlowNet::new();
        let peer = net.add_node(mbps(1.0), mbps(16.0));
        let dl = net.add_node(mbps(1.0), mbps(16.0));
        let f = net.add_flow(peer, dl, None);
        net.recompute();
        assert_close(net.rate(f), 1.0);
    }

    #[test]
    fn server_flow_fills_client_downlink() {
        let mut net = FlowNet::new();
        let dl = net.add_node(mbps(1.0), mbps(16.0));
        let f = net.add_server_flow(dl, None);
        net.recompute();
        assert_close(net.rate(f), 16.0);
    }

    #[test]
    fn flow_removal_restores_capacity() {
        let mut net = FlowNet::new();
        let src = net.add_node(mbps(4.0), mbps(100.0));
        let d1 = net.add_node(mbps(100.0), mbps(100.0));
        let d2 = net.add_node(mbps(100.0), mbps(100.0));
        let f1 = net.add_flow(src, d1, None);
        let f2 = net.add_flow(src, d2, None);
        net.recompute();
        assert_close(net.rate(f1), 2.0);
        net.remove_flow(f2);
        net.recompute();
        assert_close(net.rate(f1), 4.0);
        assert_eq!(net.rate(f2), Bandwidth::ZERO);
    }

    #[test]
    fn capacity_change_takes_effect() {
        let mut net = FlowNet::new();
        let a = net.add_node(mbps(10.0), mbps(10.0));
        let b = net.add_node(mbps(10.0), mbps(10.0));
        let f = net.add_flow(a, b, None);
        net.recompute();
        assert_close(net.rate(f), 10.0);
        net.set_node_caps(a, mbps(0.5), mbps(10.0));
        net.recompute();
        assert_close(net.rate(f), 0.5);
    }

    #[test]
    fn utilization_sums() {
        let mut net = FlowNet::new();
        let src = net.add_node(mbps(10.0), mbps(10.0));
        let d = net.add_node(mbps(10.0), mbps(3.0));
        net.add_flow(src, d, None);
        net.add_flow(src, d, None);
        net.recompute();
        assert_close(net.downstream_utilization(d), 3.0);
        assert_close(net.upstream_utilization(src), 3.0);
    }

    #[test]
    fn no_flows_recompute_is_noop() {
        let mut net = FlowNet::new();
        net.add_node(mbps(1.0), mbps(1.0));
        net.recompute(); // must not panic or loop
        assert_eq!(net.flow_count(), 0);
    }

    #[test]
    fn stale_flow_id_never_aliases_slot_reuse() {
        let mut net = FlowNet::new();
        let a = net.add_node(mbps(10.0), mbps(10.0));
        let b = net.add_node(mbps(10.0), mbps(10.0));
        let f1 = net.add_flow(a, b, None);
        net.recompute();
        net.remove_flow(f1);
        // The replacement reuses f1's slot but carries a new generation.
        let f2 = net.add_flow(a, b, Some(mbps(2.0)));
        net.recompute();
        assert_eq!(net.rate(f1), Bandwidth::ZERO, "stale id reads zero");
        assert!(net.endpoints(f1).is_none(), "stale id resolves nothing");
        assert_close(net.rate(f2), 2.0);
        // Removing through the stale id is a no-op; f2 survives.
        net.remove_flow(f1);
        assert_eq!(net.flow_count(), 1);
        assert_close(net.rate(f2), 2.0);
    }

    #[test]
    fn recompute_dirty_is_noop_when_clean() {
        let mut net = FlowNet::new();
        let a = net.add_node(mbps(10.0), mbps(10.0));
        let b = net.add_node(mbps(10.0), mbps(10.0));
        let f = net.add_flow(a, b, None);
        net.recompute();
        let before = net.rate(f);
        net.recompute_dirty(); // nothing dirty: rates untouched
        assert_eq!(net.rate(f).bytes_per_sec(), before.bytes_per_sec());
        // Setting the identical ceiling dirties nothing either.
        net.set_flow_ceil(f, None);
        net.recompute_dirty();
        assert_eq!(net.rate(f).bytes_per_sec(), before.bytes_per_sec());
    }

    #[test]
    fn recompute_dirty_only_touches_dirty_component() {
        let mut net = FlowNet::new();
        // Component 1: a -> b. Component 2: c -> d.
        let a = net.add_node(mbps(10.0), mbps(100.0));
        let b = net.add_node(mbps(10.0), mbps(100.0));
        let c = net.add_node(mbps(8.0), mbps(100.0));
        let d = net.add_node(mbps(8.0), mbps(100.0));
        let f_ab = net.add_flow(a, b, None);
        let f_cd = net.add_flow(c, d, None);
        net.recompute();
        assert_close(net.rate(f_ab), 10.0);
        assert_close(net.rate(f_cd), 8.0);
        // Dirty only component 2; component 1's rate must be preserved
        // bit-for-bit (not re-derived).
        let ab_bits = net.rate(f_ab).bytes_per_sec().to_bits();
        net.set_node_caps(c, mbps(4.0), mbps(100.0));
        net.recompute_dirty();
        assert_close(net.rate(f_cd), 4.0);
        assert_eq!(net.rate(f_ab).bytes_per_sec().to_bits(), ab_bits);
    }

    #[test]
    fn incremental_matches_full_after_component_merge_and_split() {
        // Build two components, bridge them (merge), drop the bridge
        // (split): the dirty path must agree with the full path throughout.
        let ops_on = |net: &mut FlowNet| {
            let a = net.add_node(mbps(10.0), mbps(100.0));
            let b = net.add_node(mbps(6.0), mbps(100.0));
            let c = net.add_node(mbps(8.0), mbps(100.0));
            let d = net.add_node(mbps(4.0), mbps(100.0));
            let f1 = net.add_flow(a, b, None);
            let f2 = net.add_flow(c, d, None);
            let bridge = net.add_flow(b, c, Some(mbps(3.0)));
            (f1, f2, bridge)
        };
        let mut inc = FlowNet::new();
        let mut full = FlowNet::new();
        let (i1, i2, ib) = ops_on(&mut inc);
        let (.., fb) = ops_on(&mut full);
        inc.recompute_dirty();
        full.recompute();
        assert_eq!(inc.rate_checksum(), full.rate_checksum());
        inc.remove_flow(ib);
        full.remove_flow(fb);
        inc.recompute_dirty();
        full.recompute();
        assert_eq!(inc.rate_checksum(), full.rate_checksum());
        assert!(net_rates_finite(&inc, &[i1, i2]));
    }

    fn net_rates_finite(net: &FlowNet, flows: &[FlowId]) -> bool {
        flows
            .iter()
            .all(|f| net.rate(*f).bytes_per_sec().is_finite())
    }

    #[test]
    fn utilization_tracks_removals_between_recomputes() {
        let mut net = FlowNet::new();
        let src = net.add_node(mbps(10.0), mbps(10.0));
        let d = net.add_node(mbps(10.0), mbps(4.0));
        let f1 = net.add_flow(src, d, None);
        let f2 = net.add_flow(src, d, None);
        net.recompute();
        assert_close(net.downstream_utilization(d), 4.0);
        net.remove_flow(f1);
        // Before the recompute the aggregate already excludes f1.
        assert_close(net.downstream_utilization(d), 2.0);
        net.recompute_dirty();
        assert_close(net.downstream_utilization(d), 4.0);
        net.remove_flow(f2);
        net.recompute_dirty();
        assert_eq!(net.downstream_utilization(d), Bandwidth::ZERO);
        assert_eq!(net.upstream_utilization(src), Bandwidth::ZERO);
    }

    /// The defining max-min property: every flow is either at its ceiling or
    /// passes through at least one saturated resource, and no resource is
    /// over capacity.
    #[test]
    fn max_min_invariants_on_random_networks() {
        use netsession_core::rng::DetRng;
        let mut rng = DetRng::seeded(99);
        for round in 0..30 {
            let mut net = FlowNet::new();
            let n = 3 + rng.index(8);
            let mut node_caps: Vec<(f64, f64)> = Vec::new();
            let nodes: Vec<NodeId> = (0..n)
                .map(|_| {
                    let up = mbps(rng.range_f64(0.5, 20.0));
                    let down = mbps(rng.range_f64(2.0, 100.0));
                    node_caps.push((up.bytes_per_sec(), down.bytes_per_sec()));
                    net.add_node(up, down)
                })
                .collect();
            let f = 1 + rng.index(20);
            let mut flow_specs: Vec<(NodeId, NodeId, f64)> = Vec::new();
            let flows: Vec<FlowId> = (0..f)
                .map(|_| {
                    let s = nodes[rng.index(n)];
                    let mut d = nodes[rng.index(n)];
                    while d == s {
                        d = nodes[rng.index(n)];
                    }
                    let ceil = if rng.chance(0.3) {
                        Some(mbps(rng.range_f64(0.1, 5.0)))
                    } else {
                        None
                    };
                    flow_specs.push((s, d, ceil.map_or(MAX_RATE, |b| b.bytes_per_sec())));
                    net.add_flow(s, d, ceil)
                })
                .collect();
            net.recompute();

            // Capacity feasibility.
            for (i, node) in nodes.iter().enumerate() {
                let up = net.upstream_utilization(*node).bytes_per_sec();
                let down = net.downstream_utilization(*node).bytes_per_sec();
                let (cap_up, cap_down) = node_caps[i];
                assert!(
                    up <= cap_up * (1.0 + 1e-6) + 1e-3,
                    "round {round}: up overload"
                );
                assert!(
                    down <= cap_down * (1.0 + 1e-6) + 1e-3,
                    "round {round}: down overload"
                );
            }
            // Bottleneck property.
            for (fid, (s, d, ceil)) in flows.iter().zip(&flow_specs) {
                let rate = net.rate(*fid).bytes_per_sec();
                let at_ceil = rate >= ceil * (1.0 - 1e-6);
                let src_up = net.upstream_utilization(*s).bytes_per_sec();
                let dst_down = net.downstream_utilization(*d).bytes_per_sec();
                let src_sat = src_up >= node_caps[s.0 as usize].0 * (1.0 - 1e-6) - 1e-3;
                let dst_sat = dst_down >= node_caps[d.0 as usize].1 * (1.0 - 1e-6) - 1e-3;
                assert!(
                    at_ceil || src_sat || dst_sat,
                    "round {round}: flow {fid:?} is not bottlenecked anywhere (rate {rate})"
                );
            }
        }
    }
}
