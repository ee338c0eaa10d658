//! Exact energy metering.
//!
//! Every node's power draw is a step function of time; the meter
//! integrates those steps exactly — but instead of storing a full
//! `TimeSeries` per node (a push per change point, a binary search per
//! query), each node carries just three words: its current draw, the time
//! that draw started, and the energy accumulated before that moment.
//! Updates and point-in-time energy queries are O(1), so metering cost per
//! scheduler event depends only on nodes *touched*, not cluster size.
//! The core invariant — metered energy equals the analytic integral of
//! the recorded power steps — is property-tested here and is the
//! foundation of every energy number the framework reports (Q7 results,
//! post-job user energy reports, E1–E10).
//!
//! Job energy is measured by *marking*: record `alloc_energy_to(nodes,
//! start)` when the job starts and subtract it from `alloc_energy_to(
//! nodes, end)` when it completes. Queries must be at-or-after the last
//! update of each node involved (simulation time is monotone, so this
//! holds by construction); historical window queries remain available at
//! the system level through the retained system trace.

use epa_cluster::node::NodeId;
use epa_simcore::series::{BoundedSeries, TimeSeries};
use epa_simcore::time::{SimDuration, SimTime};

/// How many node updates may accumulate before `system_watts` is
/// recomputed exactly. Long runs make millions of `+= new - old` updates
/// whose float cancellation slowly drifts the running sum; the periodic
/// resync bounds that drift. A group open or close counts one update per
/// member, so on a large machine every start or finish of a job with at
/// least this many nodes triggers a resync. The resync therefore never
/// walks the nodes: it sums the ungrouped draws from the [`DrawTally`]
/// (a handful of entries) plus the open groups, and scans the nodes only
/// when the tally cannot prove its sum bit-exact.
const RESYNC_INTERVAL: u32 = 4096;

/// Sentinel for "this node is not in any allocation group".
const NO_GROUP: u32 = u32::MAX;

/// Per-node metering state: current draw, when it started, and energy
/// accumulated before that moment. One struct per node keeps all fields
/// on the same cache line — updates and queries touch exactly one line
/// per node. While `group != NO_GROUP` the node's live draw and recent
/// energy are carried by the group instead: `watts` holds the draw at
/// group-open time and `acc`/`since` are frozen at that instant.
#[derive(Debug, Clone, Copy)]
struct NodeAccum {
    watts: f64,
    since: SimTime,
    acc: f64,
    group: u32,
}

impl Default for NodeAccum {
    fn default() -> Self {
        NodeAccum {
            watts: 0.0,
            since: SimTime::ZERO,
            acc: 0.0,
            group: NO_GROUP,
        }
    }
}

/// Handle to an open allocation group (a running job's node set drawing
/// one uniform wattage). Returned by [`EnergyMeter::open_group`] and
/// consumed by [`EnergyMeter::close_group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupId(u32);

impl GroupId {
    /// The raw slot index, for snapshot encoding.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from a snapshot-encoded raw slot index. Only
    /// valid for indices previously obtained from [`GroupId::raw`] against
    /// the same (restored) meter.
    #[must_use]
    pub fn from_raw(raw: u32) -> Self {
        GroupId(raw)
    }
}

/// Shared metering state for one allocation drawing a uniform per-node
/// wattage: a job's whole node set steps power together at every phase
/// change, so one `(watts, since, acc)` triple serves the entire group
/// and a phase change is O(1) instead of O(allocation size).
#[derive(Debug, Clone, Copy)]
struct AllocGroup {
    /// Current uniform per-node draw.
    watts: f64,
    /// When that draw started.
    since: SimTime,
    /// Energy accrued *per member node* since the group opened, through
    /// `since` (identical for every member — the draw is uniform).
    acc_per_node: f64,
    /// Member count (for the system-draw delta and resync).
    members: u32,
    in_use: bool,
}

/// How many ungrouped node slots hold each exact draw, keyed by `f64`
/// bits. Ungrouped engine nodes only ever draw off, boot, idle, or the
/// 0 W default, so the tally holds a handful of entries and a resync sums
/// it in O(entries) instead of O(nodes). Derived state: rebuilt from the
/// slots on restore, never serialized.
#[derive(Debug, Clone, Default)]
struct DrawTally {
    /// `(draw bits, slot count)`; every count is nonzero.
    entries: Vec<(u64, u64)>,
}

impl DrawTally {
    fn add(&mut self, watts: f64, count: u64) {
        if count == 0 {
            return;
        }
        let bits = watts.to_bits();
        match self.entries.iter_mut().find(|e| e.0 == bits) {
            Some(e) => e.1 += count,
            None => self.entries.push((bits, count)),
        }
    }

    fn remove(&mut self, watts: f64, count: u64) {
        if count == 0 {
            return;
        }
        let bits = watts.to_bits();
        let i = self
            .entries
            .iter()
            .position(|e| e.0 == bits)
            .expect("removed draw is tallied");
        self.entries[i].1 -= count;
        if self.entries[i].1 == 0 {
            self.entries.swap_remove(i);
        }
    }

    /// Σ count·draw, bit-identical to summing the slots one by one in any
    /// order — or `None` when that cannot be proven and the caller must
    /// scan.
    ///
    /// Every tallied draw v is written as mᵥ·g, where g is the largest
    /// power of two dividing all nonzero draws. If every draw is finite,
    /// non-negative and not −0.0, and Σ countᵥ·mᵥ < 2⁵³, then every
    /// partial sum of a sequential scan is a multiple of g below 2⁵³·g,
    /// hence representable: the scan rounds nowhere and returns the exact
    /// total, which is what this computes.
    fn exact_sum(&self) -> Option<f64> {
        const LIMIT: u128 = 1 << 53;
        if self.entries.is_empty() {
            return Some(std::iter::empty::<f64>().sum());
        }
        let mut granule = i32::MAX;
        for &(bits, _) in &self.entries {
            let (odd, exp) = odd_and_exp(bits)?;
            if odd != 0 {
                granule = granule.min(exp);
            }
        }
        if granule == i32::MAX {
            // Every draw is +0.0.
            return Some(0.0);
        }
        let mut units: u128 = 0;
        for &(bits, count) in &self.entries {
            let (odd, exp) = odd_and_exp(bits)?;
            if odd == 0 {
                continue;
            }
            let shift = (exp - granule) as u32;
            if shift >= 53 {
                return None;
            }
            // odd < 2⁵³ and shift < 53, so m < 2¹⁰⁶; once m < 2⁵³,
            // m·count < 2¹¹⁷ and `units` < 2⁵³ before the add: no overflow.
            let m = u128::from(odd) << shift;
            if m >= LIMIT {
                return None;
            }
            units += m * u128::from(count);
            if units >= LIMIT {
                return None;
            }
        }
        // `units` < 2⁵³ converts exactly; scaling by a power of two is
        // exact unless it overflows.
        let sum = units as f64 * pow2(granule);
        sum.is_finite().then_some(sum)
    }
}

/// Splits a finite, non-negative draw other than −0.0 into `(odd, exp)`
/// with draw = odd·2^exp (`odd == 0` for +0.0); `None` for any other draw.
fn odd_and_exp(bits: u64) -> Option<(u64, i32)> {
    // The sign bit lifts a negative draw's biased exponent past 0x7ff.
    let biased = (bits >> 52) as i32;
    if biased >= 0x7ff {
        return None;
    }
    let frac = bits & ((1 << 52) - 1);
    let (mant, exp) = if biased == 0 {
        (frac, -1074)
    } else {
        (frac | 1 << 52, biased - 1075)
    };
    if mant == 0 {
        return Some((0, 0));
    }
    let tz = mant.trailing_zeros();
    Some((mant >> tz, exp + tz as i32))
}

/// 2^exp for any exponent a finite draw's granule can have (−1074..=971).
fn pow2(exp: i32) -> f64 {
    if exp >= -1022 {
        f64::from_bits(((exp + 1023) as u64) << 52)
    } else {
        f64::from_bits(1 << (exp + 1074))
    }
}

/// Storage backing the system-level power trace: either the full
/// change-point [`TimeSeries`] (every historical window query available)
/// or a [`BoundedSeries`] whose memory is O(horizon / grid interval)
/// regardless of how many power steps the run makes — the million-job
/// streaming mode. Bounded mode answers the whole-run queries the engine
/// actually issues (`[0, end]` energy, peak, average, and the fixed-grid
/// resample) bit-identically to the full series.
#[derive(Debug, Clone)]
enum TraceStore {
    Full(TimeSeries),
    Bounded(BoundedSeries),
}

impl TraceStore {
    fn push(&mut self, t: SimTime, v: f64) {
        match self {
            TraceStore::Full(s) => s.push(t, v),
            TraceStore::Bounded(s) => s.push(t, v),
        }
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::Full(TimeSeries::new())
    }
}

/// Per-node and system-wide energy meter.
///
/// Node state lives in dense `Vec`s indexed by [`NodeId`] — node ids in a
/// cluster are contiguous, so every operation on the metering hot path is
/// direct indexing.
#[derive(Debug, Clone, Default)]
pub struct EnergyMeter {
    /// Per-node accumulators indexed by `NodeId.0`, grown on first write.
    nodes: Vec<NodeAccum>,
    /// Allocation groups, indexed by `GroupId`; closed slots are recycled
    /// through `free_groups` so long runs do not grow this vector.
    groups: Vec<AllocGroup>,
    free_groups: Vec<u32>,
    system_watts: f64,
    system_trace: TraceStore,
    updates_since_resync: u32,
    /// Ungrouped slots per exact draw; resync sums this instead of the
    /// slots.
    tally: DrawTally,
    /// Resyncs served by the tally's exact sum and by the node scan since
    /// construction or restore (diagnostic; not serialized).
    resyncs_exact: u64,
    resyncs_scanned: u64,
}

impl EnergyMeter {
    /// Creates an empty meter with a full system trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a meter whose system trace is a bounded accumulator on a
    /// `grid_dt` sample grid: memory stays O(horizon / `grid_dt`) no
    /// matter how many power steps the run makes. Whole-run queries
    /// (energy, peak, average over `[0, end]`, and
    /// [`power_trace_rows`](Self::power_trace_rows) at exactly `grid_dt`)
    /// are bit-identical to full mode; arbitrary-window queries panic.
    #[must_use]
    pub fn with_bounded_trace(grid_dt: SimDuration) -> Self {
        EnergyMeter {
            system_trace: TraceStore::Bounded(BoundedSeries::new(grid_dt)),
            ..Self::default()
        }
    }

    fn ensure(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if idx >= self.nodes.len() {
            self.tally.add(0.0, (idx + 1 - self.nodes.len()) as u64);
            self.nodes.resize(idx + 1, NodeAccum::default());
        }
    }

    /// Applies one node update and puts the slot in `group`, returning the
    /// node's previous draw. O(1). The caller moves the slot's tally count.
    fn apply_node(&mut self, node: NodeId, t: SimTime, watts: f64, group: u32) -> f64 {
        debug_assert!(watts >= 0.0, "negative power draw");
        self.ensure(node);
        let slot = &mut self.nodes[node.0 as usize];
        debug_assert!(
            slot.group == NO_GROUP,
            "grouped node updated individually; close its group first \
             (node {}, t {t}, group {:?})",
            node.0,
            slot.group
        );
        debug_assert!(
            t >= slot.since,
            "meter updates must be time-monotone per node"
        );
        let prev = slot.watts;
        slot.acc += prev * t.saturating_since(slot.since).as_secs();
        slot.since = t;
        slot.watts = watts;
        slot.group = group;
        prev
    }

    /// Applies `watts` at `t` to every node in `nodes`, moving them into
    /// `group`, and returns the summed change in system draw. The nodes
    /// leave the tally one run of equal previous draws at a time — an
    /// allocation's nodes usually share one — so the walk does no
    /// per-node tally lookup.
    fn apply_alloc(&mut self, nodes: &[NodeId], t: SimTime, watts: f64, group: u32) -> f64 {
        // Node lists are usually ascending: growing to the last id up
        // front tallies the new default slots in one add, not one per node.
        if let Some(&last) = nodes.last() {
            self.ensure(last);
        }
        let mut delta = 0.0;
        let (mut run_watts, mut run_len) = (0.0f64, 0u64);
        for &n in nodes {
            let prev = self.apply_node(n, t, watts, group);
            delta += watts - prev;
            if prev.to_bits() != run_watts.to_bits() {
                self.tally.remove(run_watts, run_len);
                (run_watts, run_len) = (prev, 0);
            }
            run_len += 1;
        }
        self.tally.remove(run_watts, run_len);
        delta
    }

    /// Folds a system-draw delta into the running sum, resyncing
    /// periodically to cancel accumulated float drift.
    fn commit_delta(&mut self, delta: f64, batch: u32) {
        self.system_watts += delta;
        self.updates_since_resync += batch;
        if self.updates_since_resync >= RESYNC_INTERVAL {
            self.updates_since_resync = 0;
            self.resync();
        }
        // Guard tiny negative residue from float cancellation.
        if self.system_watts < 0.0 && self.system_watts > -1e-6 {
            self.system_watts = 0.0;
        }
    }

    /// Recomputes `system_watts` from the ungrouped draws and the open
    /// groups. The ungrouped half comes from the tally in O(entries) when
    /// its exact sum is provable, and from the node scan otherwise; both
    /// give the same bits.
    fn resync(&mut self) {
        let ungrouped = match self.tally.exact_sum() {
            Some(sum) => {
                debug_assert_eq!(
                    sum.to_bits(),
                    self.ungrouped_scan().to_bits(),
                    "tally sum diverged from the node scan"
                );
                self.resyncs_exact += 1;
                sum
            }
            None => {
                self.resyncs_scanned += 1;
                self.ungrouped_scan()
            }
        };
        self.system_watts = ungrouped
            + self
                .groups
                .iter()
                .filter(|g| g.in_use)
                .map(|g| g.watts * f64::from(g.members))
                .sum::<f64>();
    }

    /// The ungrouped slots' draws summed in node order. Grouped nodes
    /// carry their live draw in the group record; their slot wattage is
    /// stale and must not be double-counted.
    fn ungrouped_scan(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.group == NO_GROUP)
            .map(|n| n.watts)
            .sum()
    }

    /// How many resyncs so far summed the draw tally exactly and how many
    /// fell back to scanning every node: `(exact, scanned)`. Counts start
    /// at zero on construction and on restore.
    #[must_use]
    pub fn resync_counts(&self) -> (u64, u64) {
        (self.resyncs_exact, self.resyncs_scanned)
    }

    /// Records that `node` draws `watts` from time `t` onward.
    ///
    /// Maintains the system-level trace incrementally: the system draw is
    /// the sum of all node draws, updated at each change point.
    pub fn set_node_watts(&mut self, node: NodeId, t: SimTime, watts: f64) {
        let prev = self.apply_node(node, t, watts, NO_GROUP);
        self.tally.remove(prev, 1);
        self.tally.add(watts, 1);
        self.commit_delta(watts - prev, 1);
        self.system_trace.push(t, self.system_watts);
    }

    /// Records that every node in `nodes` draws `watts` from time `t`
    /// onward — one allocation-wide power step (job start, phase change,
    /// batch idle/off transition).
    ///
    /// Equivalent to calling [`set_node_watts`](Self::set_node_watts) per
    /// node (equal-time pushes to the system trace collapse to its final
    /// value), but folds the whole batch into one system-trace update.
    pub fn set_alloc_watts(&mut self, nodes: &[NodeId], t: SimTime, watts: f64) {
        if nodes.is_empty() {
            return;
        }
        let delta = self.apply_alloc(nodes, t, watts, NO_GROUP);
        self.tally.add(watts, nodes.len() as u64);
        self.commit_delta(delta, nodes.len() as u32);
        self.system_trace.push(t, self.system_watts);
    }

    /// Opens an allocation group: every node in `nodes` draws `watts`
    /// from `t` onward, and subsequent uniform power steps over the same
    /// set cost O(1) via [`EnergyMeter::set_group_watts`] instead of a
    /// walk over the allocation. The per-node arithmetic (and its order)
    /// is that of `set_alloc_watts`, so opening a group is bit-exact with
    /// the batch update it replaces.
    ///
    /// One walk over the allocation (the fold of pre-group history into
    /// each node's accumulator) is the only O(n) work a group ever does
    /// besides its close.
    pub fn open_group(&mut self, nodes: &[NodeId], t: SimTime, watts: f64) -> GroupId {
        assert!(!nodes.is_empty(), "cannot open an empty group");
        let gid = self.free_groups.pop().unwrap_or_else(|| {
            self.groups.push(AllocGroup {
                watts: 0.0,
                since: SimTime::ZERO,
                acc_per_node: 0.0,
                members: 0,
                in_use: false,
            });
            (self.groups.len() - 1) as u32
        });
        let delta = self.apply_alloc(nodes, t, watts, gid);
        self.groups[gid as usize] = AllocGroup {
            watts,
            since: t,
            acc_per_node: 0.0,
            members: nodes.len() as u32,
            in_use: true,
        };
        self.commit_delta(delta, nodes.len() as u32);
        self.system_trace.push(t, self.system_watts);
        GroupId(gid)
    }

    /// Steps an open group's uniform per-node draw to `watts` at `t`.
    /// O(1) — this is what makes per-phase power fluctuation affordable
    /// on allocations spanning thousands of nodes.
    pub fn set_group_watts(&mut self, gid: GroupId, t: SimTime, watts: f64) {
        debug_assert!(watts >= 0.0, "negative power draw");
        let g = &mut self.groups[gid.0 as usize];
        debug_assert!(g.in_use, "group already closed");
        debug_assert!(t >= g.since, "meter updates must be time-monotone");
        g.acc_per_node += g.watts * t.saturating_since(g.since).as_secs();
        let delta = (watts - g.watts) * f64::from(g.members);
        g.since = t;
        g.watts = watts;
        self.commit_delta(delta, 1);
        self.system_trace.push(t, self.system_watts);
    }

    /// Closes a group at `t`: folds the group energy back into each
    /// member's accumulator, sets every member's individual draw to
    /// `next_watts` (the post-job draw, typically idle), and returns the
    /// total energy the group consumed over its lifetime. `nodes` must be
    /// the exact member set the group was opened with.
    pub fn close_group(
        &mut self,
        gid: GroupId,
        nodes: &[NodeId],
        t: SimTime,
        next_watts: f64,
    ) -> f64 {
        let g = &mut self.groups[gid.0 as usize];
        debug_assert!(g.in_use, "group already closed");
        debug_assert_eq!(g.members as usize, nodes.len(), "member set mismatch");
        debug_assert!(t >= g.since, "meter updates must be time-monotone");
        g.acc_per_node += g.watts * t.saturating_since(g.since).as_secs();
        let acc_per_node = g.acc_per_node;
        let group_watts = g.watts;
        let energy = acc_per_node * f64::from(g.members);
        g.in_use = false;
        let mut delta = 0.0;
        for &n in nodes {
            let slot = &mut self.nodes[n.0 as usize];
            debug_assert_eq!(slot.group, gid.0, "node not a member of this group");
            slot.acc += acc_per_node;
            slot.since = t;
            slot.watts = next_watts;
            slot.group = NO_GROUP;
            delta += next_watts - group_watts;
        }
        self.free_groups.push(gid.0);
        self.tally.add(next_watts, nodes.len() as u64);
        self.commit_delta(delta, nodes.len() as u32);
        self.system_trace.push(t, self.system_watts);
        energy
    }

    /// Encodes the full metering state — per-node accumulators, open and
    /// recycled groups, the running system sum, the system trace, and the
    /// resync counter — bit-exactly, so a restored meter produces the same
    /// floating-point results as one that was never snapshotted. The draw
    /// tally is derived from the slots and rebuilt on restore.
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        w.seq(&self.nodes, |w, n| {
            w.f64(n.watts);
            w.f64(n.since.as_secs());
            w.f64(n.acc);
            w.u32(n.group);
        });
        w.seq(&self.groups, |w, g| {
            w.f64(g.watts);
            w.f64(g.since.as_secs());
            w.f64(g.acc_per_node);
            w.u32(g.members);
            w.bool(g.in_use);
        });
        w.seq(&self.free_groups, |w, &g| w.u32(g));
        w.f64(self.system_watts);
        match &self.system_trace {
            TraceStore::Full(s) => {
                w.u8(0);
                s.snapshot_into(w);
            }
            TraceStore::Bounded(s) => {
                w.u8(1);
                s.snapshot_into(w);
            }
        }
        w.u32(self.updates_since_resync);
    }

    /// Decodes a meter written by [`EnergyMeter::snapshot_into`].
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        let nodes = r.seq(|r| {
            Ok(NodeAccum {
                watts: r.f64()?,
                since: SimTime::from_secs(r.f64()?),
                acc: r.f64()?,
                group: r.u32()?,
            })
        })?;
        let groups = r.seq(|r| {
            Ok(AllocGroup {
                watts: r.f64()?,
                since: SimTime::from_secs(r.f64()?),
                acc_per_node: r.f64()?,
                members: r.u32()?,
                in_use: r.bool()?,
            })
        })?;
        let free_groups = r.seq(epa_simcore::snap::SnapReader::u32)?;
        let system_watts = r.f64()?;
        let system_trace = match r.u8()? {
            0 => TraceStore::Full(TimeSeries::restore_from(r)?),
            1 => TraceStore::Bounded(BoundedSeries::restore_from(r)?),
            tag => {
                return Err(epa_simcore::snap::SnapshotError::Corrupt {
                    detail: format!("unknown system-trace mode tag {tag}"),
                })
            }
        };
        let updates_since_resync = r.u32()?;
        for (i, n) in nodes.iter().enumerate() {
            if n.group != NO_GROUP && n.group as usize >= groups.len() {
                return Err(epa_simcore::snap::SnapshotError::Corrupt {
                    detail: format!("node {i} references missing group {}", n.group),
                });
            }
        }
        let mut tally = DrawTally::default();
        for n in nodes.iter().filter(|n| n.group == NO_GROUP) {
            tally.add(n.watts, 1);
        }
        Ok(EnergyMeter {
            nodes,
            groups,
            free_groups,
            system_watts,
            system_trace,
            updates_since_resync,
            tally,
            resyncs_exact: 0,
            resyncs_scanned: 0,
        })
    }

    /// Current draw of one node in watts (0 if never recorded). Grouped
    /// nodes report their group's live draw.
    #[must_use]
    pub fn node_watts(&self, node: NodeId) -> f64 {
        self.nodes.get(node.0 as usize).map_or(0.0, |n| {
            if n.group == NO_GROUP {
                n.watts
            } else {
                self.groups[n.group as usize].watts
            }
        })
    }

    /// Current system draw in watts.
    #[must_use]
    pub fn system_watts(&self) -> f64 {
        self.system_watts
    }

    /// Total energy consumed by one node from time zero through `t`,
    /// joules. O(1). `t` must be at-or-after the node's latest update
    /// (simulation time is monotone, so callers get this for free).
    #[must_use]
    pub fn node_energy_to(&self, node: NodeId, t: SimTime) -> f64 {
        let Some(slot) = self.nodes.get(node.0 as usize) else {
            return 0.0;
        };
        if slot.group == NO_GROUP {
            debug_assert!(
                t >= slot.since,
                "meter energy queries must be time-monotone"
            );
            slot.acc + slot.watts * t.saturating_since(slot.since).as_secs()
        } else {
            // Grouped: the slot accumulator is frozen at group open; the
            // energy since then lives in the shared group record.
            let g = &self.groups[slot.group as usize];
            debug_assert!(t >= g.since, "meter energy queries must be time-monotone");
            slot.acc + g.acc_per_node + g.watts * t.saturating_since(g.since).as_secs()
        }
    }

    /// Total energy of `nodes` from time zero through `t`, joules —
    /// summed in the order given. Pair two calls to measure a job: mark
    /// at start, subtract from the value at completion. This is the
    /// number Tokyo Tech and JCAHPC hand users at the end of every job.
    #[must_use]
    pub fn alloc_energy_to(&self, nodes: &[NodeId], t: SimTime) -> f64 {
        nodes.iter().map(|&n| self.node_energy_to(n, t)).sum()
    }

    /// System energy over `[a, b]`, joules. In bounded-trace mode only
    /// the whole-run window is answerable: `a` must be zero and `b`
    /// at-or-after the last power step.
    #[must_use]
    pub fn system_energy_joules(&self, a: SimTime, b: SimTime) -> f64 {
        match &self.system_trace {
            TraceStore::Full(s) => s.integrate(a, b),
            TraceStore::Bounded(s) => {
                assert!(
                    a == SimTime::ZERO,
                    "bounded trace answers whole-run energy only (a must be 0, got {a})"
                );
                s.integrate_from_start(b)
            }
        }
    }

    /// The system power trace resampled on a fixed grid over `[a, b]` —
    /// the rows the engine exports in its outcome. In bounded-trace mode
    /// `a` must be zero and `dt` must equal the meter's grid interval;
    /// the result is bit-identical to full mode's resample of the raw
    /// change-point trace.
    #[must_use]
    pub fn power_trace_rows(&self, a: SimTime, b: SimTime, dt: SimDuration) -> Vec<(SimTime, f64)> {
        match &self.system_trace {
            TraceStore::Full(s) => s.resample(a, b, dt),
            TraceStore::Bounded(s) => {
                assert!(
                    a == SimTime::ZERO,
                    "bounded trace resamples from time zero only (a must be 0, got {a})"
                );
                assert!(
                    dt == s.grid_dt(),
                    "bounded trace resamples at its own grid interval only"
                );
                s.sample_grid(b)
            }
        }
    }

    /// Peak system draw on `[a, b]`, watts. In bounded-trace mode `a`
    /// must be zero and `b` at-or-after the last power step.
    #[must_use]
    pub fn peak_system_watts(&self, a: SimTime, b: SimTime) -> f64 {
        match &self.system_trace {
            TraceStore::Full(s) => s.max_on(a, b).unwrap_or(0.0),
            TraceStore::Bounded(s) => {
                assert!(
                    a == SimTime::ZERO,
                    "bounded trace answers whole-run peak only (a must be 0, got {a})"
                );
                s.max_value(b).unwrap_or(0.0)
            }
        }
    }

    /// Average system draw on `[a, b]`, watts. In bounded-trace mode `a`
    /// must be zero and `b` at-or-after the last power step.
    #[must_use]
    pub fn avg_system_watts(&self, a: SimTime, b: SimTime) -> f64 {
        match &self.system_trace {
            TraceStore::Full(s) => s.time_weighted_mean(a, b),
            TraceStore::Bounded(s) => {
                assert!(
                    a == SimTime::ZERO,
                    "bounded trace answers whole-run average only (a must be 0, got {a})"
                );
                s.mean_from_start(b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn single_node_energy() {
        let mut m = EnergyMeter::new();
        m.set_node_watts(n(0), t(0.0), 100.0);
        m.set_node_watts(n(0), t(10.0), 200.0);
        // [0,10) at 100 + [10,20) at 200.
        assert!((m.node_energy_to(n(0), t(20.0)) - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn mark_diff_measures_a_window() {
        let mut m = EnergyMeter::new();
        m.set_node_watts(n(0), t(0.0), 50.0); // idle history before the job
        let mark = m.alloc_energy_to(&[n(0)], t(5.0));
        m.set_node_watts(n(0), t(5.0), 200.0); // job starts
        let end = m.alloc_energy_to(&[n(0)], t(15.0));
        assert!((end - mark - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn system_tracks_sum_of_nodes() {
        let mut m = EnergyMeter::new();
        m.set_node_watts(n(0), t(0.0), 100.0);
        m.set_node_watts(n(1), t(0.0), 50.0);
        assert_eq!(m.system_watts(), 150.0);
        m.set_node_watts(n(0), t(5.0), 20.0);
        assert_eq!(m.system_watts(), 70.0);
        // System energy: [0,5) at 150 + [5,10) at 70.
        assert!((m.system_energy_joules(t(0.0), t(10.0)) - (750.0 + 350.0)).abs() < 1e-9);
    }

    #[test]
    fn alloc_energy_sums_member_nodes() {
        let mut m = EnergyMeter::new();
        m.set_node_watts(n(0), t(0.0), 100.0);
        m.set_node_watts(n(1), t(0.0), 100.0);
        m.set_node_watts(n(2), t(0.0), 999.0); // not in the job
        let e = m.alloc_energy_to(&[n(0), n(1)], t(10.0));
        assert!((e - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn peak_and_average() {
        let mut m = EnergyMeter::new();
        m.set_node_watts(n(0), t(0.0), 100.0);
        m.set_node_watts(n(0), t(10.0), 300.0);
        m.set_node_watts(n(0), t(20.0), 100.0);
        assert_eq!(m.peak_system_watts(t(0.0), t(30.0)), 300.0);
        let avg = m.avg_system_watts(t(0.0), t(30.0));
        assert!((avg - (100.0 * 10.0 + 300.0 * 10.0 + 100.0 * 10.0) / 30.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_node_reads_zero() {
        let m = EnergyMeter::new();
        assert_eq!(m.node_watts(n(9)), 0.0);
        assert_eq!(m.node_energy_to(n(9), t(10.0)), 0.0);
    }

    #[test]
    fn batched_update_equals_sequential() {
        let nodes = [n(0), n(1), n(2), n(3)];
        let mut batched = EnergyMeter::new();
        let mut sequential = EnergyMeter::new();
        batched.set_alloc_watts(&nodes, t(0.0), 100.0);
        batched.set_alloc_watts(&nodes[..2], t(10.0), 250.0);
        for &nd in &nodes {
            sequential.set_node_watts(nd, t(0.0), 100.0);
        }
        for &nd in &nodes[..2] {
            sequential.set_node_watts(nd, t(10.0), 250.0);
        }
        assert_eq!(batched.system_watts(), sequential.system_watts());
        let (a, b) = (t(0.0), t(20.0));
        assert!(
            (batched.system_energy_joules(a, b) - sequential.system_energy_joules(a, b)).abs()
                < 1e-9
        );
        for &nd in &nodes {
            assert_eq!(
                batched.node_energy_to(nd, b),
                sequential.node_energy_to(nd, b)
            );
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut m = EnergyMeter::new();
        m.set_alloc_watts(&[], t(0.0), 100.0);
        assert_eq!(m.system_watts(), 0.0);
        let dt = SimDuration::from_mins(5.0);
        assert_eq!(
            m.power_trace_rows(SimTime::ZERO, t(600.0), dt),
            EnergyMeter::new().power_trace_rows(SimTime::ZERO, t(600.0), dt)
        );
    }

    #[test]
    fn group_lifecycle_matches_ungrouped_sequence() {
        let nodes = [n(0), n(1), n(2)];
        let mut grouped = EnergyMeter::new();
        let mut plain = EnergyMeter::new();
        for m in [&mut grouped, &mut plain] {
            m.set_alloc_watts(&nodes, t(0.0), 50.0); // idle history
        }

        // Grouped job: open at 100 W, phase to 300 W, phase to 80 W, close.
        let mark_g = grouped.alloc_energy_to(&nodes, t(10.0));
        let gid = grouped.open_group(&nodes, t(10.0), 100.0);
        grouped.set_group_watts(gid, t(20.0), 300.0);
        grouped.set_group_watts(gid, t(30.0), 80.0);
        let energy_g = grouped.close_group(gid, &nodes, t(40.0), 50.0);

        // Same schedule through the ungrouped API.
        plain.set_alloc_watts(&nodes, t(10.0), 100.0);
        let mark_p = plain.alloc_energy_to(&nodes, t(10.0));
        plain.set_alloc_watts(&nodes, t(20.0), 300.0);
        plain.set_alloc_watts(&nodes, t(30.0), 80.0);
        let energy_p = plain.alloc_energy_to(&nodes, t(40.0)) - mark_p;
        plain.set_alloc_watts(&nodes, t(40.0), 50.0);

        assert_eq!(
            mark_g.to_bits(),
            mark_p.to_bits(),
            "pre-open mark must be bit-exact"
        );
        // Per-node: (100*10 + 300*10 + 80*10) * 3 nodes = 14400.
        assert!((energy_g - 14400.0).abs() < 1e-9);
        assert!((energy_g - energy_p).abs() < 1e-9);
        assert!((grouped.system_watts() - plain.system_watts()).abs() < 1e-9);
        for &nd in &nodes {
            let (eg, ep) = (
                grouped.node_energy_to(nd, t(50.0)),
                plain.node_energy_to(nd, t(50.0)),
            );
            assert!((eg - ep).abs() < 1e-9, "node {}: {eg} vs {ep}", nd.0);
        }
        let (sg, sp) = (
            grouped.system_energy_joules(t(0.0), t(50.0)),
            plain.system_energy_joules(t(0.0), t(50.0)),
        );
        assert!((sg - sp).abs() < 1e-9, "{sg} vs {sp}");
    }

    #[test]
    fn grouped_nodes_answer_live_queries() {
        let nodes = [n(0), n(1)];
        let mut m = EnergyMeter::new();
        m.set_alloc_watts(&nodes, t(0.0), 10.0);
        let gid = m.open_group(&nodes, t(5.0), 200.0);
        assert_eq!(m.node_watts(n(0)), 200.0);
        // 10 W for 5 s of history + 200 W for 5 s in-group.
        assert!((m.node_energy_to(n(0), t(10.0)) - 1050.0).abs() < 1e-9);
        m.set_group_watts(gid, t(10.0), 400.0);
        assert_eq!(m.node_watts(n(1)), 400.0);
        assert!((m.node_energy_to(n(1), t(12.0)) - (50.0 + 1000.0 + 800.0)).abs() < 1e-9);
        assert!((m.system_watts() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn group_slots_are_recycled() {
        let mut m = EnergyMeter::new();
        let g1 = m.open_group(&[n(0)], t(0.0), 100.0);
        m.close_group(g1, &[n(0)], t(1.0), 0.0);
        let g2 = m.open_group(&[n(1), n(2)], t(2.0), 50.0);
        assert_eq!(g1, g2, "closed slot must be reused");
        assert_eq!(m.groups.len(), 1);
        let e = m.close_group(g2, &[n(1), n(2)], t(4.0), 0.0);
        assert!((e - 200.0).abs() < 1e-9);
    }

    #[test]
    fn resync_counts_open_groups_once() {
        let mut m = EnergyMeter::new();
        let nodes = [n(0), n(1), n(2), n(3)];
        let gid = m.open_group(&nodes, t(0.0), 100.0);
        m.set_node_watts(n(4), t(0.0), 7.0);
        // Force many resyncs while the group is open; the grouped slots'
        // stale wattage must not leak into the system sum.
        for i in 0..2 * RESYNC_INTERVAL {
            m.set_node_watts(n(4), t(f64::from(i) + 1.0), 7.0);
        }
        assert!((m.system_watts() - 407.0).abs() < 1e-9);
        m.set_group_watts(gid, t(9000.0), 25.0);
        for i in 0..RESYNC_INTERVAL {
            m.set_node_watts(n(4), t(9001.0 + f64::from(i)), 7.0);
        }
        assert!((m.system_watts() - 107.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "grouped node updated individually")]
    #[cfg(debug_assertions)]
    fn individual_update_of_grouped_node_panics() {
        let mut m = EnergyMeter::new();
        let _gid = m.open_group(&[n(0)], t(0.0), 100.0);
        m.set_node_watts(n(0), t(1.0), 50.0);
    }

    #[test]
    fn bounded_trace_matches_full_on_whole_run_queries() {
        let dt = epa_simcore::time::SimDuration::from_mins(5.0);
        let mut full = EnergyMeter::new();
        let mut bounded = EnergyMeter::with_bounded_trace(dt);
        for m in [&mut full, &mut bounded] {
            m.set_alloc_watts(&[n(0), n(1)], t(0.0), 50.0);
            let gid = m.open_group(&[n(0), n(1)], t(100.0), 200.0);
            m.set_group_watts(gid, t(400.0), 350.0);
            m.close_group(gid, &[n(0), n(1)], t(900.0), 50.0);
            m.set_node_watts(n(0), t(1200.0), 0.0);
        }
        let end = t(1800.0);
        let a = SimTime::ZERO;
        assert_eq!(
            full.system_energy_joules(a, end).to_bits(),
            bounded.system_energy_joules(a, end).to_bits()
        );
        assert_eq!(
            full.peak_system_watts(a, end).to_bits(),
            bounded.peak_system_watts(a, end).to_bits()
        );
        assert_eq!(
            full.avg_system_watts(a, end).to_bits(),
            bounded.avg_system_watts(a, end).to_bits()
        );
        let (fr, br) = (
            full.power_trace_rows(a, end, dt),
            bounded.power_trace_rows(a, end, dt),
        );
        assert_eq!(fr.len(), br.len());
        for ((ft, fv), (bt, bv)) in fr.iter().zip(&br) {
            assert_eq!(ft, bt);
            assert_eq!(fv.to_bits(), bv.to_bits());
        }
    }

    #[test]
    fn bounded_trace_snapshot_roundtrip() {
        let dt = epa_simcore::time::SimDuration::from_mins(5.0);
        let mut m = EnergyMeter::with_bounded_trace(dt);
        m.set_node_watts(n(0), t(0.0), 100.0);
        m.set_node_watts(n(0), t(700.0), 40.0);
        let mut w = epa_simcore::snap::SnapWriter::new();
        m.snapshot_into(&mut w);
        let bytes = w.finish(1);
        let mut r = epa_simcore::snap::SnapReader::open(&bytes, 1).unwrap();
        let restored = EnergyMeter::restore_from(&mut r).unwrap();
        let end = t(2000.0);
        assert_eq!(
            m.system_energy_joules(SimTime::ZERO, end).to_bits(),
            restored.system_energy_joules(SimTime::ZERO, end).to_bits()
        );
        assert_eq!(
            m.power_trace_rows(SimTime::ZERO, end, dt),
            restored.power_trace_rows(SimTime::ZERO, end, dt)
        );
    }

    #[test]
    #[should_panic(expected = "bounded trace resamples at its own grid interval only")]
    fn bounded_trace_off_grid_resample_panics() {
        let m = EnergyMeter::with_bounded_trace(SimDuration::from_mins(5.0));
        let _ = m.power_trace_rows(SimTime::ZERO, t(600.0), SimDuration::from_mins(1.0));
    }

    /// Resyncs `m` once and returns the change in `(exact, scanned)`
    /// counts, after checking the result against the node scan.
    fn resync_delta(m: &mut EnergyMeter) -> (u64, u64) {
        let (e0, s0) = m.resync_counts();
        m.resync();
        let groups: f64 = m
            .groups
            .iter()
            .filter(|g| g.in_use)
            .map(|g| g.watts * f64::from(g.members))
            .sum();
        assert_eq!(
            m.system_watts().to_bits(),
            (m.ungrouped_scan() + groups).to_bits()
        );
        let (e1, s1) = m.resync_counts();
        (e1 - e0, s1 - s0)
    }

    #[test]
    fn empty_meter_resyncs_exactly() {
        let mut m = EnergyMeter::new();
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(m.tally.exact_sum().map(f64::to_bits), Some(empty.to_bits()));
        assert_eq!(resync_delta(&mut m), (1, 0));
    }

    #[test]
    fn all_nodes_grouped_leaves_an_empty_tally() {
        let nodes = [n(0), n(1), n(2)];
        let mut m = EnergyMeter::new();
        m.set_alloc_watts(&nodes, t(0.0), 50.0);
        let gid = m.open_group(&nodes, t(1.0), 300.0);
        assert!(m.tally.entries.is_empty());
        assert_eq!(resync_delta(&mut m), (1, 0));
        assert_eq!(m.system_watts(), 900.0);
        m.close_group(gid, &nodes, t(2.0), 50.0);
        assert_eq!(m.tally.entries, vec![(50.0f64.to_bits(), 3)]);
    }

    #[test]
    fn tally_sum_at_the_two_pow_53_granule_limit_falls_back() {
        let two52 = 2f64.powi(52);
        for granule in [1.0, 8.0, f64::from_bits(1)] {
            // Odd multiples of the granule, so the granule is exactly it.
            let below = [(two52 + 1.0) * granule, (two52 - 3.0) * granule];
            let at = [(two52 + 1.0) * granule, (two52 - 1.0) * granule];
            for (draws, want) in [(below, (1, 0)), (at, (0, 1))] {
                let mut m = EnergyMeter::new();
                m.set_node_watts(n(0), t(0.0), draws[0]);
                m.set_node_watts(n(1), t(0.0), draws[1]);
                assert_eq!(m.tally.entries.len(), 2);
                assert_eq!(
                    resync_delta(&mut m),
                    want,
                    "granule {granule}, draws {draws:?}"
                );
            }
        }
    }

    #[test]
    fn negative_zero_draw_takes_the_scan() {
        let mut m = EnergyMeter::new();
        m.set_node_watts(n(0), t(0.0), -0.0);
        assert_eq!(m.tally.exact_sum(), None);
        assert_eq!(resync_delta(&mut m), (0, 1));
        assert_eq!(
            m.system_watts().to_bits(),
            m.ungrouped_scan().to_bits(),
            "the scan keeps the zero's sign"
        );
        m.set_node_watts(n(0), t(1.0), 0.0);
        assert_eq!(resync_delta(&mut m), (1, 0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Power-of-two-granular draws: the tally's exact sum always applies.
    const DYADIC: [f64; 4] = [0.0, 8.0, 90.0, 290.0];
    /// Draws with long odd significands or a tiny granule, which push the
    /// unit count past 2⁵³ and force the scan fallback.
    const NON_DYADIC: [f64; 3] = [85.3, 0.1, f64::from_bits(1)];
    const NODES: u32 = 8;

    /// Drives `ops` — `(kind, selector, draw index)` triples — through a
    /// meter: single-node and batch updates, group open / step / close,
    /// and snapshot→restore. After every op the tally must equal one
    /// rebuilt from the slots and, when it claims an exact sum, that sum
    /// must be bit-identical to the node-order scan. Returns how many ops
    /// ended with a provable (exact) tally sum.
    fn drive_tally(ops: &[(u8, u32, usize)], pool: &[f64]) -> Result<usize, TestCaseError> {
        let mut m = EnergyMeter::new();
        let mut open: Vec<(GroupId, Vec<NodeId>)> = Vec::new();
        let mut exact = 0;
        for (i, &(kind, sel, w)) in ops.iter().enumerate() {
            let now = SimTime::from_secs(i as f64);
            let watts = pool[w % pool.len()];
            let ungrouped = |open: &[(GroupId, Vec<NodeId>)]| -> Vec<NodeId> {
                (0..NODES)
                    .filter(|b| sel & (1 << b) != 0)
                    .map(NodeId)
                    .filter(|nd| open.iter().all(|(_, g)| !g.contains(nd)))
                    .collect()
            };
            match kind {
                0 => {
                    if let Some(&nd) = ungrouped(&open).first() {
                        m.set_node_watts(nd, now, watts);
                    }
                }
                1 => m.set_alloc_watts(&ungrouped(&open), now, watts),
                2 => {
                    let members = ungrouped(&open);
                    if !members.is_empty() {
                        open.push((m.open_group(&members, now, watts), members));
                    }
                }
                3 if !open.is_empty() => {
                    let gid = open[sel as usize % open.len()].0;
                    m.set_group_watts(gid, now, watts);
                }
                4 if !open.is_empty() => {
                    let (gid, members) = open.swap_remove(sel as usize % open.len());
                    m.close_group(gid, &members, now, watts);
                }
                _ => {
                    let mut w = epa_simcore::snap::SnapWriter::new();
                    m.snapshot_into(&mut w);
                    let bytes = w.finish(1);
                    let mut r = epa_simcore::snap::SnapReader::open(&bytes, 1).unwrap();
                    m = EnergyMeter::restore_from(&mut r).unwrap();
                }
            }
            let mut rebuilt = DrawTally::default();
            for s in m.nodes.iter().filter(|s| s.group == NO_GROUP) {
                rebuilt.add(s.watts, 1);
            }
            let (mut have, mut want) = (m.tally.entries.clone(), rebuilt.entries);
            have.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(have, want, "tally drifted from the slots after op {}", i);
            if let Some(sum) = m.tally.exact_sum() {
                prop_assert_eq!(
                    sum.to_bits(),
                    m.ungrouped_scan().to_bits(),
                    "tally sum {} vs scan {} after op {}",
                    sum,
                    m.ungrouped_scan(),
                    i
                );
                exact += 1;
            }
        }
        Ok(exact)
    }

    proptest! {
        /// Dyadic draws: the tally tracks the slots through every kind of
        /// update and its exact sum always applies and matches the scan.
        #[test]
        fn tally_sum_matches_scan_on_dyadic_draws(
            ops in proptest::collection::vec((0u8..6, 0u32..256, 0usize..4), 1..120),
        ) {
            let exact = drive_tally(&ops, &DYADIC)?;
            prop_assert_eq!(exact, ops.len());
        }

        /// Mixed dyadic and non-dyadic draws: whenever the tally claims an
        /// exact sum it matches the scan bit for bit; otherwise the resync
        /// scans.
        #[test]
        fn tally_sum_matches_scan_on_mixed_draws(
            ops in proptest::collection::vec((0u8..6, 0u32..256, 0usize..7), 1..120),
        ) {
            let pool: Vec<f64> = DYADIC.iter().chain(&NON_DYADIC).copied().collect();
            drive_tally(&ops, &pool)?;
        }

        /// Energy conservation: the system energy over the full horizon
        /// equals the sum of per-node energies, for arbitrary
        /// time-monotone update sequences.
        #[test]
        fn system_energy_equals_node_sum(
            updates in proptest::collection::vec(
                (0u32..6, 0.1f64..50.0, 0.0f64..400.0), 1..80),
        ) {
            let mut m = EnergyMeter::new();
            let mut clock = 0.0;
            for (node, dt, w) in &updates {
                m.set_node_watts(NodeId(*node), SimTime::from_secs(clock), *w);
                clock += dt;
            }
            let end = SimTime::from_secs(clock + 10.0);
            let sys = m.system_energy_joules(SimTime::ZERO, end);
            let node_sum: f64 = (0..6)
                .map(|i| m.node_energy_to(NodeId(i), end))
                .sum();
            prop_assert!((sys - node_sum).abs() < 1e-6 * (1.0 + sys.abs()),
                "system {} != node sum {}", sys, node_sum);
        }

        /// O(1) accumulator energy equals the analytic step-function
        /// integral computed from the raw update list.
        #[test]
        fn accumulator_matches_analytic_integral(
            updates in proptest::collection::vec(
                (0u32..4, 0.1f64..50.0, 0.0f64..400.0), 1..60),
        ) {
            let mut m = EnergyMeter::new();
            let mut clock = 0.0;
            let mut steps: Vec<(u32, f64, f64)> = Vec::new(); // (node, t, w)
            for (node, dt, w) in &updates {
                m.set_node_watts(NodeId(*node), SimTime::from_secs(clock), *w);
                steps.push((*node, clock, *w));
                clock += dt;
            }
            let end = clock + 7.0;
            for node in 0..4u32 {
                // Analytic: sum over this node's steps of w * (next_t - t).
                let mine: Vec<(f64, f64)> = steps.iter()
                    .filter(|(n, _, _)| *n == node)
                    .map(|&(_, t, w)| (t, w))
                    .collect();
                let mut analytic = 0.0;
                for (i, &(t, w)) in mine.iter().enumerate() {
                    let next = mine.get(i + 1).map_or(end, |&(nt, _)| nt);
                    analytic += w * (next - t);
                }
                let got = m.node_energy_to(NodeId(node), SimTime::from_secs(end));
                prop_assert!((got - analytic).abs() < 1e-6 * (1.0 + analytic.abs()),
                    "node {}: {} vs analytic {}", node, got, analytic);
            }
        }

        /// The incrementally-maintained system wattage equals the sum of
        /// the latest per-node values.
        #[test]
        fn incremental_sum_correct(
            updates in proptest::collection::vec((0u32..8, 0.0f64..500.0), 1..100),
        ) {
            let mut m = EnergyMeter::new();
            let mut latest = [0.0f64; 8];
            for (i, (node, w)) in updates.iter().enumerate() {
                m.set_node_watts(NodeId(*node), SimTime::from_secs(i as f64), *w);
                latest[*node as usize] = *w;
            }
            let expect: f64 = latest.iter().sum();
            prop_assert!((m.system_watts() - expect).abs() < 1e-6);
        }

        /// Long-horizon drift: after 10k updates the running system sum
        /// must still match the per-node values exactly (the periodic
        /// resync crosses RESYNC_INTERVAL twice in this sequence, so this
        /// exercises the resync path, not just incremental accumulation).
        #[test]
        fn incremental_sum_correct_long_horizon(
            seed_updates in proptest::collection::vec((0u32..16, 0.0f64..500.0), 32),
        ) {
            let mut m = EnergyMeter::new();
            let mut latest = [0.0f64; 16];
            let mut k = 0usize;
            // Tile the 32 generated updates into a 10_000-step sequence
            // with per-step perturbed wattages.
            for rep in 0..10_000usize / seed_updates.len() + 1 {
                for (node, w) in &seed_updates {
                    if k >= 10_000 { break; }
                    let w = w + (rep as f64) * 1e-3;
                    m.set_node_watts(NodeId(*node), SimTime::from_secs(k as f64), w);
                    latest[*node as usize] = w;
                    k += 1;
                }
            }
            let expect: f64 = latest.iter().sum();
            prop_assert!(
                (m.system_watts() - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                "drift after {} updates: {} vs {}", k, m.system_watts(), expect
            );
        }

        /// Batched `set_alloc_watts` is observationally identical to the
        /// per-node loop: same system wattage, same energies.
        #[test]
        fn batched_matches_per_node_loop(
            batches in proptest::collection::vec(
                // (node-subset bitmask, watts) per batch step
                (1u32..256, 0.0f64..400.0), 1..60),
        ) {
            let mut batched = EnergyMeter::new();
            let mut sequential = EnergyMeter::new();
            for (i, (mask, w)) in batches.iter().enumerate() {
                let t = SimTime::from_secs(i as f64 * 3.0);
                let nodes: Vec<NodeId> =
                    (0..8).filter(|b| mask & (1 << b) != 0).map(NodeId).collect();
                batched.set_alloc_watts(&nodes, t, *w);
                for &nd in &nodes {
                    sequential.set_node_watts(nd, t, *w);
                }
            }
            prop_assert!((batched.system_watts() - sequential.system_watts()).abs() < 1e-9);
            let end = SimTime::from_secs(batches.len() as f64 * 3.0 + 5.0);
            let (eb, es) = (
                batched.system_energy_joules(SimTime::ZERO, end),
                sequential.system_energy_joules(SimTime::ZERO, end),
            );
            prop_assert!((eb - es).abs() < 1e-6 * (1.0 + es.abs()), "{} vs {}", eb, es);
            for nd in (0..8).map(NodeId) {
                let (nb, ns) = (
                    batched.node_energy_to(nd, end),
                    sequential.node_energy_to(nd, end),
                );
                prop_assert!((nb - ns).abs() < 1e-9 * (1.0 + ns.abs()));
            }
        }

        /// A group open / phase-steps / close cycle is observationally
        /// identical to the same power schedule issued through
        /// `set_alloc_watts`: same marks, same job energy, same per-node
        /// energies and system draw afterwards.
        #[test]
        fn group_cycle_matches_alloc_updates(
            members in 1u32..6,
            idle in 0.0f64..80.0,
            phases in proptest::collection::vec(0.0f64..500.0, 1..10),
            dt in 0.5f64..20.0,
        ) {
            let nodes: Vec<NodeId> = (0..members).map(NodeId).collect();
            let mut grouped = EnergyMeter::new();
            let mut plain = EnergyMeter::new();
            grouped.set_alloc_watts(&nodes, SimTime::ZERO, idle);
            plain.set_alloc_watts(&nodes, SimTime::ZERO, idle);

            let start = SimTime::from_secs(dt);
            let mark_g = grouped.alloc_energy_to(&nodes, start);
            let gid = grouped.open_group(&nodes, start, phases[0]);
            plain.set_alloc_watts(&nodes, start, phases[0]);
            let mark_p = plain.alloc_energy_to(&nodes, start);
            prop_assert_eq!(mark_g.to_bits(), mark_p.to_bits());

            let mut clock = dt;
            for w in &phases[1..] {
                clock += dt;
                let t = SimTime::from_secs(clock);
                grouped.set_group_watts(gid, t, *w);
                plain.set_alloc_watts(&nodes, t, *w);
            }
            clock += dt;
            let end = SimTime::from_secs(clock);
            let energy_g = grouped.close_group(gid, &nodes, end, idle);
            let energy_p = plain.alloc_energy_to(&nodes, end) - mark_p;
            plain.set_alloc_watts(&nodes, end, idle);

            let tol = 1e-9 * (1.0 + energy_p.abs());
            prop_assert!((energy_g - energy_p).abs() < tol,
                "job energy {} vs {}", energy_g, energy_p);
            prop_assert!(
                (grouped.system_watts() - plain.system_watts()).abs() < 1e-9);
            let probe = SimTime::from_secs(clock + 3.0);
            for &nd in &nodes {
                let (eg, ep) = (
                    grouped.node_energy_to(nd, probe),
                    plain.node_energy_to(nd, probe),
                );
                prop_assert!((eg - ep).abs() < 1e-9 * (1.0 + ep.abs()),
                    "node {}: {} vs {}", nd.0, eg, ep);
            }
        }
    }
}
