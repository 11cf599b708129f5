//! Fig 12: secondary-GUID chain graphs.
//!
//! "We then collected and analyzed the secondary GUIDs…, grouped them by
//! primary GUID, and constructed graphs in which vertices represent
//! secondary GUIDs and edges connect GUIDs that follow each other in a
//! login entry… 99.4 % of the graphs were linear chains…. But the
//! remaining 0.6 % were trees. \[Most common:\] one long branch with a
//! single, one-vertex short branch (46.2 %), two long branches (6.2 %),
//! and several short or medium branches (23.5 %)."

use netsession_core::fxhash::{FxHashMap, FxHashSet};
use netsession_core::id::SecondaryGuid;
use netsession_logs::TraceDataset;
use std::collections::HashMap;

/// Fig 12 pattern classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChainPattern {
    /// A pure linear chain — a normal installation.
    Linear,
    /// One long branch plus a single one-vertex short branch — the failed
    /// software update signature.
    LongPlusStub,
    /// Two long branches — a restored backup.
    TwoLongBranches,
    /// Several short/medium branches — re-imaging or master-image cloning.
    SeveralBranches,
    /// Anything stranger.
    Irregular,
}

/// One reconstructed graph.
#[derive(Clone, Debug)]
pub struct ChainGraph {
    /// Vertices (secondary GUIDs).
    pub vertices: usize,
    /// Child adjacency: parent → children.
    children: FxHashMap<SecondaryGuid, Vec<SecondaryGuid>>,
    roots: Vec<SecondaryGuid>,
}

impl ChainGraph {
    /// Build a graph from the login reports of one primary GUID. Each
    /// report lists the last secondary GUIDs *newest first*, so report
    /// element `i+1` is the parent of element `i`.
    pub fn from_reports<R: AsRef<[SecondaryGuid]>>(reports: &[R]) -> ChainGraph {
        let mut children: FxHashMap<SecondaryGuid, Vec<SecondaryGuid>> = FxHashMap::default();
        let mut all: FxHashSet<SecondaryGuid> = FxHashSet::default();
        let mut has_parent: FxHashSet<SecondaryGuid> = FxHashSet::default();
        for rep in reports {
            let rep = rep.as_ref();
            for w in rep.windows(2) {
                let (child, parent) = (w[0], w[1]);
                all.insert(child);
                all.insert(parent);
                has_parent.insert(child);
                let c = children.entry(parent).or_default();
                if !c.contains(&child) {
                    c.push(child);
                }
            }
            if rep.len() == 1 {
                all.insert(rep[0]);
            }
        }
        let roots = all
            .iter()
            .filter(|v| !has_parent.contains(v))
            .copied()
            .collect();
        ChainGraph {
            vertices: all.len(),
            children,
            roots,
        }
    }

    /// Branch points: vertices with more than one child.
    pub fn branch_points(&self) -> Vec<(SecondaryGuid, usize)> {
        self.children
            .iter()
            .filter(|(_, c)| c.len() > 1)
            .map(|(v, c)| (*v, c.len()))
            .collect()
    }

    /// Length of the chain hanging off `v` (number of vertices reachable
    /// going down, following the longest path).
    fn depth(&self, v: SecondaryGuid) -> usize {
        let mut best = 1;
        if let Some(children) = self.children.get(&v) {
            for c in children {
                best = best.max(1 + self.depth(*c));
            }
        }
        best
    }

    /// Classify the graph into a Fig 12 pattern.
    pub fn classify(&self) -> ChainPattern {
        let branch_points = self.branch_points();
        if branch_points.is_empty() && self.roots.len() <= 1 {
            return ChainPattern::Linear;
        }
        if self.roots.len() > 1 {
            return ChainPattern::Irregular;
        }
        if branch_points.len() == 1 {
            let (v, degree) = branch_points[0];
            let mut depths: Vec<usize> = self.children[&v].iter().map(|c| self.depth(*c)).collect();
            depths.sort_unstable();
            if degree == 2 {
                let (short, long) = (depths[0], depths[1]);
                if short == 1 && long >= 2 {
                    return ChainPattern::LongPlusStub;
                }
                if short >= 2 {
                    return ChainPattern::TwoLongBranches;
                }
                // Two one-vertex branches: a tiny multi-branch graph.
                return ChainPattern::SeveralBranches;
            }
            // One branch point with ≥3 branches.
            return ChainPattern::SeveralBranches;
        }
        // Multiple branch points: several branches if they are all short,
        // irregular otherwise.
        let all_short = branch_points.iter().all(|(v, _)| {
            self.children[v]
                .iter()
                .map(|c| self.depth(*c))
                .filter(|d| *d >= 2)
                .count()
                <= 1
        });
        if all_short && branch_points.len() <= 4 {
            ChainPattern::SeveralBranches
        } else {
            ChainPattern::Irregular
        }
    }
}

/// Fig 12 census: pattern → count over all GUIDs with ≥3 vertices (as the
/// paper restricts to "connected graphs with at least three vertices").
pub fn fig12(ds: &TraceDataset) -> HashMap<ChainPattern, u64> {
    // Login indices grouped by GUID, each group in report-time order (ties
    // in log order), so every graph is built from borrowed reports.
    let logins = &ds.logins;
    let mut order: Vec<u32> = (0..logins.len() as u32)
        .filter(|&i| !logins[i as usize].secondary_guids.is_empty())
        .collect();
    order.sort_unstable_by_key(|&i| {
        let l = &logins[i as usize];
        (l.guid.0, l.at.as_micros(), i)
    });
    let mut census: HashMap<ChainPattern, u64> = HashMap::new();
    let mut reports: Vec<&[SecondaryGuid]> = Vec::new();
    for group in order.chunk_by(|&a, &b| logins[a as usize].guid == logins[b as usize].guid) {
        reports.clear();
        reports.extend(
            group
                .iter()
                .map(|&i| logins[i as usize].secondary_guids.as_slice()),
        );
        let graph = ChainGraph::from_reports(&reports);
        if graph.vertices < 3 {
            continue;
        }
        *census.entry(graph.classify()).or_insert(0) += 1;
    }
    census
}

/// Fraction of graphs that are nonlinear (the paper's 0.6 %).
pub fn nonlinear_fraction(census: &HashMap<ChainPattern, u64>) -> f64 {
    let total: u64 = census.values().sum();
    if total == 0 {
        return 0.0;
    }
    let linear = census.get(&ChainPattern::Linear).copied().unwrap_or(0);
    (total - linear) as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sg(n: u32) -> SecondaryGuid {
        SecondaryGuid([n, 0, 0, 0, 0])
    }

    /// Build reports simulating a normal run: 1, then 2 1, then 3 2 1, …
    fn linear_reports(n: u32) -> Vec<Vec<SecondaryGuid>> {
        (1..=n)
            .map(|i| (1..=i).rev().take(5).map(sg).collect())
            .collect()
    }

    #[test]
    fn linear_chains_classify_linear() {
        let g = ChainGraph::from_reports(&linear_reports(6));
        assert_eq!(g.vertices, 6);
        assert_eq!(g.classify(), ChainPattern::Linear);
    }

    #[test]
    fn rollback_classifies_long_plus_stub() {
        // 1→2→3, then rollback to 2, then 2→4→5: vertex 2 has children
        // {3, 4}; 3 is a stub.
        let reports = vec![
            vec![sg(1)],
            vec![sg(2), sg(1)],
            vec![sg(3), sg(2), sg(1)],
            vec![sg(4), sg(2), sg(1)],
            vec![sg(5), sg(4), sg(2), sg(1)],
        ];
        let g = ChainGraph::from_reports(&reports);
        assert_eq!(g.classify(), ChainPattern::LongPlusStub);
    }

    #[test]
    fn backup_restore_classifies_two_long() {
        // 1→2→3→4 and 2→5→6.
        let reports = vec![
            vec![sg(1)],
            vec![sg(2), sg(1)],
            vec![sg(3), sg(2), sg(1)],
            vec![sg(4), sg(3), sg(2), sg(1)],
            vec![sg(5), sg(2), sg(1)],
            vec![sg(6), sg(5), sg(2), sg(1)],
        ];
        let g = ChainGraph::from_reports(&reports);
        assert_eq!(g.classify(), ChainPattern::TwoLongBranches);
    }

    #[test]
    fn reimage_classifies_several_branches() {
        // 1→2 with branches 3, 4, 5 off vertex 2.
        let reports = vec![
            vec![sg(1)],
            vec![sg(2), sg(1)],
            vec![sg(3), sg(2), sg(1)],
            vec![sg(4), sg(2), sg(1)],
            vec![sg(5), sg(2), sg(1)],
        ];
        let g = ChainGraph::from_reports(&reports);
        assert_eq!(g.classify(), ChainPattern::SeveralBranches);
    }

    #[test]
    fn fig12_census_counts_patterns() {
        use netsession_core::id::{AsNumber, Guid};
        use netsession_core::time::SimTime;
        use netsession_logs::records::LoginRecord;
        let mut ds = TraceDataset::default();
        let mut push = |guid: u128, at: u64, sguids: Vec<SecondaryGuid>| {
            ds.logins.push(LoginRecord {
                at: SimTime(at),
                guid: Guid(guid),
                ip: 1,
                asn: AsNumber(1),
                country: 0,
                lat: 0.0,
                lon: 0.0,
                uploads_enabled: true,
                software_version: 1,
                secondary_guids: sguids,
            });
        };
        // GUID 1: linear with 4 reports.
        for (i, rep) in linear_reports(4).into_iter().enumerate() {
            push(1, i as u64, rep);
        }
        // GUID 2: too small (2 vertices) — excluded.
        push(2, 0, vec![sg(100)]);
        push(2, 1, vec![sg(101), sg(100)]);
        let census = fig12(&ds);
        assert_eq!(census.get(&ChainPattern::Linear), Some(&1));
        assert_eq!(census.values().sum::<u64>(), 1);
        assert_eq!(nonlinear_fraction(&census), 0.0);
    }
}
