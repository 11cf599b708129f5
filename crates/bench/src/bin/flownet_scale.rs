//! PERF — FlowNet scaling: incremental vs full recompute under localized
//! churn.
//!
//! Builds swarm-structured flow graphs (many small connected components,
//! the shape the hybrid driver produces) at 10k→200k flows, then applies
//! a fixed sequence of *localized* mutations — each event touches one
//! swarm, as a requery/offline/finish does — to two identical networks.
//! One network refreshes rates with `recompute_dirty()` (the production
//! path), the other with the full `recompute()` oracle. After every event
//! the two rate checksums must match bit-for-bit.
//!
//! stdout is deterministic (scales, flow/component counts, checksums) so
//! the committed `results/flownet_scale.txt` is diffable run-to-run;
//! wall-clock timings go to stderr and to the volatile section of
//! `results/flownet_scale.metrics.json` — the repo's first perf-trajectory
//! baseline.

use netsession_bench::runner::write_result;
use netsession_core::rng::DetRng;
use netsession_core::units::Bandwidth;
use netsession_obs::MetricsRegistry;
use netsession_sim::flownet::{FlowId, FlowNet, NodeId};
use std::time::Instant;

/// Peers per swarm (a downloader, its sources, and bystanders).
const SWARM_PEERS: usize = 26;
/// Flows per swarm at build time.
const SWARM_FLOWS: usize = 50;
/// Localized churn events per scale point.
const CHURN_EVENTS: usize = 150;

struct Swarm {
    nodes_a: Vec<NodeId>,
    nodes_b: Vec<NodeId>,
    /// Live flows as (incremental-net id, full-net id) pairs.
    flows: Vec<(FlowId, FlowId)>,
}

fn main() -> std::io::Result<()> {
    let registry = MetricsRegistry::new();
    println!("FlowNet scaling: incremental recompute_dirty vs full recompute");
    println!(
        "swarm-local churn, {SWARM_FLOWS} flows / {SWARM_PEERS} peers per swarm, \
         {CHURN_EVENTS} events per scale"
    );
    println!(
        "{:>9} {:>9} {:>7} {:>18} {:>6}",
        "flows", "nodes", "swarms", "checksum", "match"
    );

    for &target_flows in &[10_000usize, 50_000, 100_000, 200_000] {
        let mut rng = DetRng::seeded(0xf10c ^ target_flows as u64);
        // `inc` is the production path and carries the instruments;
        // `full` is the oracle.
        let mut inc = FlowNet::new().with_metrics(&registry);
        let mut full = FlowNet::new();

        let n_swarms = target_flows / SWARM_FLOWS;
        let mut swarms: Vec<Swarm> = Vec::with_capacity(n_swarms);
        for _ in 0..n_swarms {
            let mut nodes_a = Vec::with_capacity(SWARM_PEERS);
            let mut nodes_b = Vec::with_capacity(SWARM_PEERS);
            for _ in 0..SWARM_PEERS {
                let up = Bandwidth::from_mbps(rng.range_f64(0.5, 20.0));
                let down = Bandwidth::from_mbps(rng.range_f64(2.0, 100.0));
                nodes_a.push(inc.add_node(up, down));
                nodes_b.push(full.add_node(up, down));
            }
            let mut flows = Vec::with_capacity(SWARM_FLOWS);
            for _ in 0..SWARM_FLOWS {
                let s = rng.index(SWARM_PEERS);
                let mut d = rng.index(SWARM_PEERS);
                while d == s {
                    d = rng.index(SWARM_PEERS);
                }
                let ceil = rng
                    .chance(0.3)
                    .then(|| Bandwidth::from_mbps(rng.range_f64(0.1, 5.0)));
                flows.push((
                    inc.add_flow(nodes_a[s], nodes_a[d], ceil),
                    full.add_flow(nodes_b[s], nodes_b[d], ceil),
                ));
            }
            swarms.push(Swarm {
                nodes_a,
                nodes_b,
                flows,
            });
        }
        // Settle both networks before timing the churn phase.
        inc.recompute_dirty();
        full.recompute();
        assert_eq!(inc.rate_checksum(), full.rate_checksum());

        let mut inc_ns: u64 = 0;
        let mut full_ns: u64 = 0;
        let inc_hist = registry.volatile_histogram(&format!("bench.flownet_{target_flows}.inc_ns"));
        let full_hist =
            registry.volatile_histogram(&format!("bench.flownet_{target_flows}.full_ns"));
        let mut all_match = true;
        for _ in 0..CHURN_EVENTS {
            // One localized event: a single swarm gains a flow, loses a
            // flow, or sees a ceiling change (requery / offline / edge
            // retightening, respectively).
            let sw = &mut swarms[rng.index(n_swarms)];
            match rng.index(3) {
                0 => {
                    let s = rng.index(SWARM_PEERS);
                    let mut d = rng.index(SWARM_PEERS);
                    while d == s {
                        d = rng.index(SWARM_PEERS);
                    }
                    sw.flows.push((
                        inc.add_flow(sw.nodes_a[s], sw.nodes_a[d], None),
                        full.add_flow(sw.nodes_b[s], sw.nodes_b[d], None),
                    ));
                }
                1 if !sw.flows.is_empty() => {
                    let k = rng.index(sw.flows.len());
                    let (fi, ff) = sw.flows.swap_remove(k);
                    inc.remove_flow(fi);
                    full.remove_flow(ff);
                }
                _ if !sw.flows.is_empty() => {
                    let k = rng.index(sw.flows.len());
                    let ceil = Some(Bandwidth::from_mbps(rng.range_f64(0.1, 5.0)));
                    inc.set_flow_ceil(sw.flows[k].0, ceil);
                    full.set_flow_ceil(sw.flows[k].1, ceil);
                }
                _ => {}
            }
            let t0 = Instant::now();
            inc.recompute_dirty();
            let dt = t0.elapsed().as_nanos() as u64;
            inc_ns += dt;
            inc_hist.record(dt);
            let t0 = Instant::now();
            full.recompute();
            let dt = t0.elapsed().as_nanos() as u64;
            full_ns += dt;
            full_hist.record(dt);
            all_match &= inc.rate_checksum() == full.rate_checksum();
        }
        assert!(all_match, "incremental path diverged from the oracle");

        println!(
            "{:>9} {:>9} {:>7} {:>18x} {:>6}",
            inc.flow_count(),
            inc.node_count(),
            n_swarms,
            inc.rate_checksum(),
            all_match
        );
        let speedup = full_ns as f64 / inc_ns.max(1) as f64;
        eprintln!(
            "# {target_flows} flows: incremental {:>10.1} µs/event, full {:>10.1} µs/event, speedup {:.1}x",
            inc_ns as f64 / CHURN_EVENTS as f64 / 1e3,
            full_ns as f64 / CHURN_EVENTS as f64 / 1e3,
            speedup
        );
        registry
            .volatile_counter(&format!("bench.flownet_{target_flows}.inc_total_us"))
            .add(inc_ns / 1_000);
        registry
            .volatile_counter(&format!("bench.flownet_{target_flows}.full_total_us"))
            .add(full_ns / 1_000);
        registry
            .volatile_counter(&format!("bench.flownet_{target_flows}.speedup_x100"))
            .add((speedup * 100.0) as u64);
    }

    write_result(
        "flownet_scale",
        "metrics.json",
        registry.full_snapshot_json().as_bytes(),
    )
}
