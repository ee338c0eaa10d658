//! Node allocation strategies.
//!
//! The allocator owns the free/busy partition of a system's nodes and
//! hands out node sets to the scheduler. Besides the first-fit baseline it
//! implements the contiguous and topology-aware placements that survey
//! question Q6 asks about: topology-aware allocation reduces the average
//! pairwise hop distance of a job's nodes, which shortens communication
//! phases and thereby *indirectly* reduces energy-to-solution — the exact
//! mechanism Q6's rationale describes.
//!
//! The free set is stored as maximal runs of consecutive node ids
//! (`start → len`) with a `(len, start)` mirror for best-fit, so
//! allocation is O(log n + alloc size) and the per-node `BTreeSet` walks
//! of the original implementation are gone: first-fit consumes run
//! prefixes, contiguous best-fit is one range query on the mirror, and
//! release coalesces each node back into its neighbours in O(log n).
//! Observable behaviour (which nodes each strategy picks, tie-breaks,
//! error cases, drain semantics) is identical to the old set-based code —
//! property-tested against a model of it below.
//!
//! Invariant (property-tested): a node is never allocated to two jobs at
//! once, and release returns exactly the allocated set.

use crate::error::ClusterError;
use crate::node::NodeId;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Placement strategy for picking nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AllocStrategy {
    /// Lowest-numbered free nodes (the classic default).
    #[default]
    FirstFit,
    /// The contiguous run of free nodes with the smallest span that fits;
    /// falls back to first-fit when no contiguous run exists.
    Contiguous,
    /// Greedy topology-aware packing: grow the allocation around a seed
    /// node, always taking the free node closest (in hop distance) to the
    /// already-chosen set.
    TopologyAware,
}

/// Tracks which nodes are free, allocated, or administratively unavailable.
#[derive(Debug, Clone)]
pub struct Allocator {
    total: u32,
    /// Maximal runs of consecutive free node ids: `start → len`. No two
    /// runs touch or overlap.
    free_runs: BTreeMap<u32, u32>,
    /// Mirror of `free_runs` keyed `(len, start)` — best-fit is one range
    /// query instead of a scan.
    runs_by_len: BTreeSet<(u32, u32)>,
    free_count: usize,
    /// Dense busy flags indexed by node id.
    busy: Vec<bool>,
    busy_count: usize,
    unavailable: BTreeSet<NodeId>,
    strategy: AllocStrategy,
    topology: Topology,
}

impl Allocator {
    /// Creates an allocator over nodes `0..total`, all free.
    #[must_use]
    pub fn new(total: u32, strategy: AllocStrategy, topology: Topology) -> Self {
        let mut a = Allocator {
            total,
            free_runs: BTreeMap::new(),
            runs_by_len: BTreeSet::new(),
            free_count: total as usize,
            busy: vec![false; total as usize],
            busy_count: 0,
            unavailable: BTreeSet::new(),
            strategy,
            topology,
        };
        if total > 0 {
            a.run_insert(0, total);
        }
        a
    }

    /// Total number of nodes managed.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Number of currently free (allocatable) nodes.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.free_count
    }

    /// Number of nodes currently allocated to jobs.
    #[must_use]
    pub fn busy_count(&self) -> usize {
        self.busy_count
    }

    /// Number of administratively unavailable nodes (off, maintenance).
    #[must_use]
    pub fn unavailable_count(&self) -> usize {
        self.unavailable.len()
    }

    /// The placement strategy in use.
    #[must_use]
    pub fn strategy(&self) -> AllocStrategy {
        self.strategy
    }

    /// True if `node` is currently free.
    #[must_use]
    pub fn is_free(&self, node: NodeId) -> bool {
        self.free_runs
            .range(..=node.0)
            .next_back()
            .is_some_and(|(&start, &len)| node.0 < start + len)
    }

    /// True if `node` is currently allocated.
    #[must_use]
    pub fn is_busy(&self, node: NodeId) -> bool {
        self.busy.get(node.0 as usize).copied().unwrap_or(false)
    }

    /// Iterates over the free set in ascending order.
    pub fn free_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.free_runs
            .iter()
            .flat_map(|(&start, &len)| (start..start + len).map(NodeId))
    }

    /// Iterates over the busy set in ascending order.
    pub fn busy_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.busy
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| NodeId(i as u32))
    }

    // ---- snapshot -----------------------------------------------------

    /// Encodes the allocator's dynamic state: free runs, busy flags, and
    /// the unavailable set. Strategy and topology are configuration and
    /// must be re-supplied at [`Allocator::restore_from`]; the `(len,
    /// start)` mirror and the counts are derived, so they are rebuilt
    /// rather than stored.
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        w.u32(self.total);
        let runs: Vec<(u32, u32)> = self.free_runs.iter().map(|(&s, &l)| (s, l)).collect();
        w.seq(&runs, |w, &(s, l)| {
            w.u32(s);
            w.u32(l);
        });
        w.seq(&self.busy, |w, &b| w.bool(b));
        let unavailable: Vec<u32> = self.unavailable.iter().map(|n| n.0).collect();
        w.seq(&unavailable, |w, &n| w.u32(n));
    }

    /// Decodes an allocator written by [`Allocator::snapshot_into`],
    /// rebuilding the best-fit mirror and the free/busy counts.
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
        strategy: AllocStrategy,
        topology: Topology,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        use epa_simcore::snap::SnapshotError;
        let total = r.u32()?;
        let runs = r.seq(|r| Ok((r.u32()?, r.u32()?)))?;
        let busy: Vec<bool> = r.seq(epa_simcore::snap::SnapReader::bool)?;
        let unavailable: BTreeSet<NodeId> = r.seq(|r| Ok(NodeId(r.u32()?)))?.into_iter().collect();
        if busy.len() != total as usize {
            return Err(SnapshotError::Corrupt {
                detail: format!("busy flags {} != total nodes {total}", busy.len()),
            });
        }
        let mut free_runs = BTreeMap::new();
        let mut runs_by_len = BTreeSet::new();
        let mut free_count = 0usize;
        for (start, len) in runs {
            let end = start.checked_add(len).filter(|&e| e <= total);
            if len == 0 || end.is_none() || free_runs.insert(start, len).is_some() {
                return Err(SnapshotError::Corrupt {
                    detail: format!("invalid free run ({start},{len}) over {total} nodes"),
                });
            }
            runs_by_len.insert((len, start));
            free_count += len as usize;
        }
        let busy_count = busy.iter().filter(|&&b| b).count();
        Ok(Allocator {
            total,
            free_runs,
            runs_by_len,
            free_count,
            busy,
            busy_count,
            unavailable,
            strategy,
            topology,
        })
    }

    // ---- free-run structure maintenance -------------------------------

    fn run_insert(&mut self, start: u32, len: u32) {
        debug_assert!(len > 0);
        self.free_runs.insert(start, len);
        self.runs_by_len.insert((len, start));
    }

    fn run_remove(&mut self, start: u32, len: u32) {
        let removed = self.free_runs.remove(&start);
        debug_assert_eq!(removed, Some(len));
        self.runs_by_len.remove(&(len, start));
    }

    /// Removes `k` consecutive free ids starting at `s`. The span lies in
    /// a single maximal run by construction (its ids are consecutive and
    /// all free). O(log n).
    fn remove_free_span(&mut self, s: u32, k: u32) {
        let (&start, &len) = self
            .free_runs
            .range(..=s)
            .next_back()
            .expect("span must lie in a free run");
        debug_assert!(s >= start && s + k <= start + len, "span exceeds its run");
        self.run_remove(start, len);
        if s > start {
            self.run_insert(start, s - start);
        }
        if s + k < start + len {
            self.run_insert(s + k, start + len - (s + k));
        }
        self.free_count -= k as usize;
    }

    /// Returns `k` consecutive non-free ids starting at `s` to the free
    /// set, coalescing with both neighbouring runs. O(log n) per span —
    /// releasing a whole contiguous allocation costs one coalesce, not
    /// one per node.
    fn insert_free_span(&mut self, s: u32, k: u32) {
        debug_assert!(k > 0);
        debug_assert!(
            !self.is_free(NodeId(s)) && !self.is_free(NodeId(s + k - 1)),
            "span already free"
        );
        let mut start = s;
        let mut len = k;
        if let Some((&ls, &ll)) = self.free_runs.range(..s).next_back() {
            if ls + ll == s {
                self.run_remove(ls, ll);
                start = ls;
                len += ll;
            }
        }
        if let Some((&rs, &rl)) = self.free_runs.range(s + k..).next() {
            if rs == s + k {
                self.run_remove(rs, rl);
                len += rl;
            }
        }
        self.run_insert(start, len);
        self.free_count += k as usize;
    }

    /// Returns one node to the free set, coalescing with both neighbours.
    /// O(log n).
    fn insert_free_node(&mut self, node: u32) {
        self.insert_free_span(node, 1);
    }

    /// The `count` lowest free node ids (ascending), without mutation.
    fn peek_lowest(&self, count: usize) -> Vec<NodeId> {
        debug_assert!(count <= self.free_count);
        let mut out = Vec::with_capacity(count);
        for (&start, &len) in &self.free_runs {
            let take = (count - out.len()).min(len as usize) as u32;
            out.extend((start..start + take).map(NodeId));
            if out.len() == count {
                break;
            }
        }
        out
    }

    // ---- public mutation ----------------------------------------------

    /// Allocates `count` nodes using the configured strategy.
    ///
    /// Returns the chosen nodes (ascending) or
    /// [`ClusterError::InsufficientNodes`] without mutating state.
    pub fn allocate(&mut self, count: u32) -> Result<Vec<NodeId>, ClusterError> {
        let count = count as usize;
        if count == 0 {
            return Err(ClusterError::InvalidRequest("zero-node allocation".into()));
        }
        if count > self.free_count {
            return Err(ClusterError::InsufficientNodes {
                requested: count as u32,
                free: self.free_count as u32,
            });
        }
        let mut chosen = match self.strategy {
            AllocStrategy::FirstFit => self.peek_lowest(count),
            AllocStrategy::Contiguous => self.pick_contiguous(count),
            AllocStrategy::TopologyAware => self.pick_topology_aware(count),
        };
        chosen.sort_unstable();
        // Move the chosen set to busy, removing whole consecutive spans
        // from the run structure at once (first-fit and contiguous picks
        // are a handful of spans regardless of allocation size).
        let mut i = 0;
        while i < chosen.len() {
            let mut j = i + 1;
            while j < chosen.len() && chosen[j].0 == chosen[j - 1].0 + 1 {
                j += 1;
            }
            self.remove_free_span(chosen[i].0, (j - i) as u32);
            i = j;
        }
        for &n in &chosen {
            debug_assert!(!self.busy[n.0 as usize], "allocator chose a busy node");
            self.busy[n.0 as usize] = true;
        }
        self.busy_count += chosen.len();
        Ok(chosen)
    }

    /// Returns nodes to the free pool.
    ///
    /// # Panics
    /// Panics (debug) if a node was not busy — releasing twice is a logic
    /// error in the scheduler.
    pub fn release(&mut self, nodes: &[NodeId]) {
        // Pass 1: clear busy flags, keeping the ids actually going back to
        // the free pool (draining nodes stay out).
        let mut freeable: Vec<u32> = Vec::with_capacity(nodes.len());
        let skip_unavailable_check = self.unavailable.is_empty();
        for &n in nodes {
            let flag = self.busy.get_mut(n.0 as usize);
            let was_busy = flag.map(|b| std::mem::replace(b, false)).unwrap_or(false);
            debug_assert!(was_busy, "released node {n} that was not busy");
            if was_busy {
                self.busy_count -= 1;
                if skip_unavailable_check || !self.unavailable.contains(&n) {
                    freeable.push(n.0);
                }
            }
        }
        // Pass 2: coalesce whole consecutive spans at once. Allocations
        // come back in ascending order and are mostly a few runs, so this
        // is O(spans · log n), not O(nodes · log n).
        let mut i = 0;
        while i < freeable.len() {
            let mut j = i + 1;
            while j < freeable.len() && freeable[j] == freeable[j - 1] + 1 {
                j += 1;
            }
            self.insert_free_span(freeable[i], (j - i) as u32);
            i = j;
        }
    }

    /// Marks a free node administratively unavailable (powered off or under
    /// maintenance). Busy nodes cannot be taken; returns `false` for them.
    pub fn mark_unavailable(&mut self, node: NodeId) -> bool {
        if self.is_free(node) {
            self.remove_free_span(node.0, 1);
            self.unavailable.insert(node);
            true
        } else {
            self.unavailable.contains(&node)
        }
    }

    /// Returns an unavailable node to the free pool (boot complete,
    /// maintenance over).
    pub fn mark_available(&mut self, node: NodeId) -> bool {
        if self.unavailable.remove(&node) {
            self.insert_free_node(node.0);
            true
        } else {
            false
        }
    }

    // ---- strategy picks -----------------------------------------------

    fn pick_contiguous(&self, count: usize) -> Vec<NodeId> {
        // Best-fit on runs: the shortest run that fits, lowest start among
        // equal lengths — one range query on the (len, start) mirror. The
        // tie-break matches the old ascending-id scan (first fitting run
        // encountered wins, i.e. lowest start).
        match self.runs_by_len.range((count as u32, 0)..).next() {
            Some(&(_, start)) => (start..start + count as u32).map(NodeId).collect(),
            None => self.peek_lowest(count),
        }
    }

    fn pick_topology_aware(&self, count: usize) -> Vec<NodeId> {
        // Seed: the free node whose locality block has the most free nodes,
        // then grow greedily by minimum total distance to the chosen set.
        let free: Vec<NodeId> = self.free_nodes().collect();
        let unit = self.topology.locality_unit();
        let seed = *free
            .iter()
            .max_by_key(|n| {
                let block = n.0 / unit;
                free.iter().filter(|m| m.0 / unit == block).count()
            })
            .expect("free set nonempty");
        let mut chosen = vec![seed];
        let mut remaining: Vec<NodeId> = free.iter().copied().filter(|&n| n != seed).collect();
        while chosen.len() < count {
            let (idx, _) = remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, &cand)| {
                    chosen
                        .iter()
                        .map(|&c| u64::from(self.topology.distance(cand, c)))
                        .sum::<u64>()
                })
                .expect("remaining nonempty while count unmet");
            chosen.push(remaining.swap_remove(idx));
        }
        chosen
    }

    /// Structural self-check used by the property tests: runs are maximal
    /// and disjoint, counts match, mirrors agree.
    #[cfg(test)]
    fn check_structure(&self) {
        let mut prev_end: Option<u32> = None;
        let mut total_free = 0usize;
        for (&start, &len) in &self.free_runs {
            assert!(len > 0, "empty run at {start}");
            if let Some(pe) = prev_end {
                assert!(start > pe, "runs must be disjoint and non-adjacent");
            }
            assert!(
                self.runs_by_len.contains(&(len, start)),
                "mirror missing ({len},{start})"
            );
            prev_end = Some(start + len);
            total_free += len as usize;
        }
        assert_eq!(self.runs_by_len.len(), self.free_runs.len());
        assert_eq!(total_free, self.free_count);
        assert_eq!(self.busy.iter().filter(|&&b| b).count(), self.busy_count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dragonfly() -> Topology {
        Topology::Dragonfly {
            nodes_per_router: 4,
            routers_per_group: 4,
        }
    }

    #[test]
    fn first_fit_takes_lowest_ids() {
        let mut a = Allocator::new(16, AllocStrategy::FirstFit, dragonfly());
        let got = a.allocate(4).unwrap();
        assert_eq!(got, (0..4).map(NodeId).collect::<Vec<_>>());
        assert_eq!(a.free_count(), 12);
        assert_eq!(a.busy_count(), 4);
    }

    #[test]
    fn insufficient_nodes_is_error_without_mutation() {
        let mut a = Allocator::new(4, AllocStrategy::FirstFit, dragonfly());
        a.allocate(3).unwrap();
        let err = a.allocate(2).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::InsufficientNodes {
                requested: 2,
                free: 1
            }
        ));
        assert_eq!(a.free_count(), 1);
    }

    #[test]
    fn zero_allocation_rejected() {
        let mut a = Allocator::new(4, AllocStrategy::FirstFit, dragonfly());
        assert!(a.allocate(0).is_err());
    }

    #[test]
    fn release_returns_nodes() {
        let mut a = Allocator::new(8, AllocStrategy::FirstFit, dragonfly());
        let got = a.allocate(8).unwrap();
        a.release(&got);
        assert_eq!(a.free_count(), 8);
        assert_eq!(a.busy_count(), 0);
    }

    #[test]
    fn release_coalesces_runs() {
        let mut a = Allocator::new(8, AllocStrategy::FirstFit, dragonfly());
        let got = a.allocate(8).unwrap();
        // Release out of order; the free set must coalesce back into the
        // single maximal run 0..8 (observable via a full-width contiguous
        // allocation succeeding).
        a.release(&[got[3]]);
        a.release(&[got[5]]);
        a.release(&[got[4]]);
        a.release(&[got[0], got[1], got[2], got[6], got[7]]);
        assert_eq!(a.free_count(), 8);
        let again = a.allocate(8).unwrap();
        assert_eq!(again, (0..8).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn contiguous_prefers_tight_runs() {
        let mut a = Allocator::new(16, AllocStrategy::Contiguous, dragonfly());
        // Occupy 0..6 and 8..10, leaving free: {6,7} and {10..16}.
        let first = a.allocate(6).unwrap();
        assert_eq!(first, (0..6).map(NodeId).collect::<Vec<_>>());
        // Free run {6,7} has length 2; run {8..16} length 8 — after taking
        // 6 more the allocator state is what we set up next.
        a.allocate(2).unwrap(); // takes 6,7 (shortest fitting run of len 2)
        let third = a.allocate(2).unwrap();
        assert_eq!(third, vec![NodeId(8), NodeId(9)]);
    }

    #[test]
    fn contiguous_best_fit_picks_smallest_fitting_run() {
        let mut a = Allocator::new(20, AllocStrategy::Contiguous, dragonfly());
        let all = a.allocate(20).unwrap();
        a.release(&[NodeId(2), NodeId(3), NodeId(4)]); // run of 3
        a.release(&[NodeId(10), NodeId(11)]); // run of 2
        let got = a.allocate(2).unwrap();
        assert_eq!(
            got,
            vec![NodeId(10), NodeId(11)],
            "best-fit should pick the run of 2"
        );
        let _ = all;
    }

    #[test]
    fn contiguous_ties_break_to_lowest_start() {
        let mut a = Allocator::new(20, AllocStrategy::Contiguous, dragonfly());
        let all = a.allocate(20).unwrap();
        a.release(&[NodeId(12), NodeId(13)]); // run of 2 (higher start)
        a.release(&[NodeId(5), NodeId(6)]); // run of 2 (lower start)
        let got = a.allocate(2).unwrap();
        assert_eq!(got, vec![NodeId(5), NodeId(6)]);
        let _ = all;
    }

    #[test]
    fn topology_aware_is_compact() {
        let topo = dragonfly();
        let mut ta = Allocator::new(64, AllocStrategy::TopologyAware, topo.clone());
        let mut ff = Allocator::new(64, AllocStrategy::FirstFit, topo.clone());
        // Fragment both allocators the same way: occupy every other router.
        for alloc in [&mut ta, &mut ff] {
            for r in (0..16).step_by(2) {
                for i in 0..2 {
                    // half of each even router
                    let node = NodeId(r * 4 + i);
                    assert!(alloc.mark_unavailable(node));
                }
            }
        }
        let a = ta.allocate(8).unwrap();
        let b = ff.allocate(8).unwrap();
        assert!(
            topo.avg_pairwise_distance(&a) <= topo.avg_pairwise_distance(&b),
            "topology-aware ({:?}) should not be more spread than first-fit ({:?})",
            a,
            b
        );
    }

    #[test]
    fn unavailable_nodes_are_not_allocated() {
        let mut a = Allocator::new(4, AllocStrategy::FirstFit, dragonfly());
        assert!(a.mark_unavailable(NodeId(0)));
        let got = a.allocate(3).unwrap();
        assert!(!got.contains(&NodeId(0)));
        assert!(a.allocate(1).is_err());
        assert!(a.mark_available(NodeId(0)));
        assert_eq!(a.allocate(1).unwrap(), vec![NodeId(0)]);
    }

    #[test]
    fn busy_node_cannot_be_marked_unavailable() {
        let mut a = Allocator::new(4, AllocStrategy::FirstFit, dragonfly());
        let got = a.allocate(1).unwrap();
        assert!(!a.mark_unavailable(got[0]));
    }

    #[test]
    fn release_respects_unavailability() {
        // A node marked unavailable while busy stays out of the free pool
        // on release (it is draining toward maintenance).
        let mut a = Allocator::new(4, AllocStrategy::FirstFit, dragonfly());
        let got = a.allocate(1).unwrap();
        a.unavailable.insert(got[0]); // direct: simulate drain mark
        a.release(&got);
        assert!(!a.is_free(got[0]));
        assert_eq!(a.unavailable_count(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Alloc(u32),
        Release(usize),
        MarkUnavailable(u32),
        MarkAvailable(u32),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (1u32..20).prop_map(Op::Alloc),
                (0usize..8).prop_map(Op::Release),
                (0u32..48).prop_map(Op::MarkUnavailable),
                (0u32..48).prop_map(Op::MarkAvailable),
            ],
            1..60,
        )
    }

    fn arb_strategy() -> impl Strategy<Value = AllocStrategy> {
        prop_oneof![
            Just(AllocStrategy::FirstFit),
            Just(AllocStrategy::Contiguous),
            Just(AllocStrategy::TopologyAware),
        ]
    }

    /// The original `BTreeSet`-per-node allocator, kept verbatim as the
    /// behavioural model the interval implementation must match.
    struct ModelAllocator {
        free: BTreeSet<NodeId>,
        busy: BTreeSet<NodeId>,
        unavailable: BTreeSet<NodeId>,
        strategy: AllocStrategy,
        topology: Topology,
    }

    impl ModelAllocator {
        fn new(total: u32, strategy: AllocStrategy, topology: Topology) -> Self {
            ModelAllocator {
                free: (0..total).map(NodeId).collect(),
                busy: BTreeSet::new(),
                unavailable: BTreeSet::new(),
                strategy,
                topology,
            }
        }

        fn allocate(&mut self, count: u32) -> Option<Vec<NodeId>> {
            let count = count as usize;
            if count == 0 || count > self.free.len() {
                return None;
            }
            let mut chosen = match self.strategy {
                AllocStrategy::FirstFit => {
                    self.free.iter().copied().take(count).collect::<Vec<_>>()
                }
                AllocStrategy::Contiguous => self.pick_contiguous(count),
                AllocStrategy::TopologyAware => self.pick_topology_aware(count),
            };
            chosen.sort_unstable();
            for &n in &chosen {
                self.free.remove(&n);
                self.busy.insert(n);
            }
            Some(chosen)
        }

        fn release(&mut self, nodes: &[NodeId]) {
            for &n in nodes {
                let was_busy = self.busy.remove(&n);
                if was_busy && !self.unavailable.contains(&n) {
                    self.free.insert(n);
                }
            }
        }

        fn mark_unavailable(&mut self, node: NodeId) -> bool {
            if self.free.remove(&node) {
                self.unavailable.insert(node);
                true
            } else {
                self.unavailable.contains(&node)
            }
        }

        fn mark_available(&mut self, node: NodeId) -> bool {
            if self.unavailable.remove(&node) {
                self.free.insert(node);
                true
            } else {
                false
            }
        }

        fn pick_contiguous(&self, count: usize) -> Vec<NodeId> {
            let free: Vec<NodeId> = self.free.iter().copied().collect();
            let mut best: Option<(usize, usize)> = None;
            let mut run_start = 0;
            for i in 1..=free.len() {
                let broken = i == free.len() || free[i].0 != free[i - 1].0 + 1;
                if broken {
                    let run_len = i - run_start;
                    if run_len >= count {
                        let better = match best {
                            None => true,
                            Some((_, blen)) => run_len < blen,
                        };
                        if better {
                            best = Some((run_start, run_len));
                        }
                    }
                    run_start = i;
                }
            }
            match best {
                Some((start, _)) => free[start..start + count].to_vec(),
                None => free.into_iter().take(count).collect(),
            }
        }

        fn pick_topology_aware(&self, count: usize) -> Vec<NodeId> {
            let free: Vec<NodeId> = self.free.iter().copied().collect();
            let unit = self.topology.locality_unit();
            let seed = *free
                .iter()
                .max_by_key(|n| {
                    let block = n.0 / unit;
                    free.iter().filter(|m| m.0 / unit == block).count()
                })
                .expect("free set nonempty");
            let mut chosen = vec![seed];
            let mut remaining: Vec<NodeId> = free.iter().copied().filter(|&n| n != seed).collect();
            while chosen.len() < count {
                let (idx, _) = remaining
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &cand)| {
                        chosen
                            .iter()
                            .map(|&c| u64::from(self.topology.distance(cand, c)))
                            .sum::<u64>()
                    })
                    .expect("remaining nonempty while count unmet");
                chosen.push(remaining.swap_remove(idx));
            }
            chosen
        }
    }

    proptest! {
        /// Under any operation sequence: no double-booking, conservation of
        /// nodes, and allocations return exactly the requested count.
        #[test]
        fn no_double_booking(ops in arb_ops(), strategy in arb_strategy()) {
            let topo = Topology::Dragonfly { nodes_per_router: 4, routers_per_group: 4 };
            let mut a = Allocator::new(48, strategy, topo);
            let mut live: Vec<Vec<NodeId>> = Vec::new();
            for op in ops {
                match op {
                    Op::Alloc(n) => {
                        if let Ok(got) = a.allocate(n) {
                            prop_assert_eq!(got.len(), n as usize);
                            // No overlap with any live allocation.
                            for other in &live {
                                for node in &got {
                                    prop_assert!(!other.contains(node), "double booked {:?}", node);
                                }
                            }
                            live.push(got);
                        }
                    }
                    Op::Release(i) => {
                        if !live.is_empty() {
                            let idx = i % live.len();
                            let nodes = live.swap_remove(idx);
                            a.release(&nodes);
                        }
                    }
                    Op::MarkUnavailable(n) => { a.mark_unavailable(NodeId(n)); }
                    Op::MarkAvailable(n) => { a.mark_available(NodeId(n)); }
                }
                let live_total: usize = live.iter().map(Vec::len).sum();
                prop_assert_eq!(a.busy_count(), live_total);
                prop_assert_eq!(a.free_count() + a.busy_count() + a.unavailable_count(), 48);
            }
        }

        /// The interval-run allocator is observationally identical to the
        /// old per-node `BTreeSet` implementation under random
        /// allocate/release/mark_unavailable/mark_available sequences, for
        /// every strategy: same picks, same results, same free/busy/
        /// unavailable partitions after every step.
        #[test]
        fn interval_matches_btreeset_model(ops in arb_ops(), strategy in arb_strategy()) {
            let topo = Topology::Dragonfly { nodes_per_router: 4, routers_per_group: 4 };
            let mut real = Allocator::new(48, strategy, topo.clone());
            let mut model = ModelAllocator::new(48, strategy, topo);
            let mut live: Vec<Vec<NodeId>> = Vec::new();
            for op in ops {
                match op {
                    Op::Alloc(n) => {
                        let got_real = real.allocate(n).ok();
                        let got_model = model.allocate(n);
                        prop_assert_eq!(&got_real, &got_model,
                            "allocate({}) diverged", n);
                        if let Some(nodes) = got_real {
                            live.push(nodes);
                        }
                    }
                    Op::Release(i) => {
                        if !live.is_empty() {
                            let idx = i % live.len();
                            let nodes = live.swap_remove(idx);
                            real.release(&nodes);
                            model.release(&nodes);
                        }
                    }
                    Op::MarkUnavailable(n) => {
                        prop_assert_eq!(
                            real.mark_unavailable(NodeId(n)),
                            model.mark_unavailable(NodeId(n))
                        );
                    }
                    Op::MarkAvailable(n) => {
                        prop_assert_eq!(
                            real.mark_available(NodeId(n)),
                            model.mark_available(NodeId(n))
                        );
                    }
                }
                real.check_structure();
                let real_free: Vec<NodeId> = real.free_nodes().collect();
                let model_free: Vec<NodeId> = model.free.iter().copied().collect();
                prop_assert_eq!(real_free, model_free, "free sets diverged");
                let real_busy: Vec<NodeId> = real.busy_nodes().collect();
                let model_busy: Vec<NodeId> = model.busy.iter().copied().collect();
                prop_assert_eq!(real_busy, model_busy, "busy sets diverged");
                prop_assert_eq!(real.unavailable.clone(), model.unavailable.clone());
            }
        }
    }
}
