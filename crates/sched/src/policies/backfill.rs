//! Backfilling schedulers (Mu'alem & Feitelson, cited by the survey).
//!
//! - **EASY** (aggressive): the head job gets one reservation at its
//!   shadow time; any later job may start now if it fits in the free nodes
//!   and either finishes (by its *estimate*) before the shadow time or
//!   uses only nodes beyond what the head will need ("extra" nodes).
//! - **Conservative**: every queued job gets a reservation; a job may
//!   start early only if it delays no reservation. Reservations live in
//!   a step-function skyline of future busy nodes, and each job's
//!   earliest start is one forward sweep over it.
//!
//! Both operate on walltime *estimates*, never true runtimes — estimate
//! inaccuracy is precisely what makes EASY effective in practice.

use crate::view::{Decision, Policy, SchedView};
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::job::Job;

/// EASY (aggressive) backfilling.
#[derive(Debug, Clone, Copy, Default)]
pub struct EasyBackfill;

impl EasyBackfill {
    /// Queue indices of the jobs EASY starts this round, in start order.
    /// The power- and energy-aware policies refine this selection.
    pub(crate) fn select(view: &SchedView<'_>, queue: &[Job]) -> Vec<usize> {
        let mut out = Vec::new();
        let mut free = view.free_nodes;

        // Start jobs from the head while they fit.
        let mut head = 0;
        while let Some(job) = queue.get(head) {
            if job.nodes > free {
                break;
            }
            free -= job.nodes;
            out.push(head);
            head += 1;
        }
        let Some(head_job) = queue.get(head) else {
            return out;
        };
        let rest = queue.iter().enumerate().skip(head + 1);

        // Shadow time for the (blocked) head, over current running jobs.
        // Jobs we just started are not in `view.running`, but they consumed
        // `free`, which the shadow computation accounts for via the reduced
        // free count: we recompute availability from the view's running
        // list plus our own starts being conservative (they end late).
        let mut avail = free;
        let mut shadow: Option<SimTime> = None;
        let mut extra: u32 = 0;
        if head_job.nodes <= avail {
            shadow = Some(view.now);
        } else {
            for r in view.running {
                avail += r.nodes;
                if avail >= head_job.nodes {
                    shadow = Some(r.estimated_end);
                    extra = avail - head_job.nodes;
                    break;
                }
            }
        }
        let Some(shadow) = shadow else {
            // Head can never run (bigger than machine); skip backfill
            // entirely to avoid starving it forever is moot — just backfill.
            for (i, job) in rest {
                if job.nodes <= free {
                    free -= job.nodes;
                    out.push(i);
                }
            }
            return out;
        };

        // Backfill the rest: fits now AND (ends before shadow OR within
        // the extra nodes).
        for (i, job) in rest {
            if job.nodes > free {
                continue;
            }
            let est_end = view.now + job.walltime_estimate;
            let fits_time = est_end <= shadow;
            let fits_extra = job.nodes <= extra;
            if fits_time || fits_extra {
                free -= job.nodes;
                if fits_extra && !fits_time {
                    extra -= job.nodes;
                }
                out.push(i);
            }
        }
        out
    }
}

impl Policy for EasyBackfill {
    fn name(&self) -> &str {
        "easy-backfill"
    }

    fn schedule(&mut self, view: &SchedView<'_>, queue: &[Job]) -> Vec<Decision> {
        Self::select(view, queue)
            .into_iter()
            .map(|i| Decision::start(queue[i].id))
            .collect()
    }
}

/// Conservative backfilling: no queued job's reservation may be delayed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConservativeBackfill;

impl Policy for ConservativeBackfill {
    fn name(&self) -> &str {
        "conservative-backfill"
    }

    fn schedule(&mut self, view: &SchedView<'_>, queue: &[Job]) -> Vec<Decision> {
        let mut out = Vec::new();
        let mut skyline = Skyline::new(view.now, view.free_nodes, view.total_nodes);
        // Running jobs are already busy at `now`; only their release
        // matters for the future. `view.running` is soonest end first, so
        // each release lands at the tail of the skyline.
        for r in view.running {
            skyline.add(r.estimated_end, -i64::from(r.nodes));
        }
        // Reserve every job in order at its earliest feasible slot; a job
        // whose earliest slot is *now* starts immediately.
        for job in queue {
            // A job wider than the machine can never run. Its fallback
            // reservation would overfill the skyline and block every job
            // behind it, so it gets none (EASY's "head can never run").
            if job.nodes > view.total_nodes {
                continue;
            }
            let start = skyline.earliest_start(job.nodes, job.walltime_estimate);
            skyline.reserve(start, start + job.walltime_estimate, job.nodes);
            if start == view.now {
                out.push(Decision::start(job.id));
            }
        }
        out
    }
}

/// Busy nodes over future time as a step function: the base level at
/// `now` plus one step per distinct change time after `now`.
///
/// A window check tests the limit after every single change, in the
/// order the changes were added, so each step keeps the peak of its
/// running sum next to its net change.
struct Skyline {
    now: SimTime,
    total: i64,
    /// Busy nodes at `now`, with every change at or before `now` folded in.
    base: i64,
    /// Sorted by time, one per distinct time after `now`.
    steps: Vec<Step>,
    /// Latest change time ever added: where a job that never fits goes.
    last: Option<SimTime>,
}

#[derive(Debug, Clone, Copy)]
struct Step {
    time: SimTime,
    /// Sum of the changes at `time`.
    net: i64,
    /// Highest running sum of the changes at `time`, in insertion order.
    peak: i64,
}

impl Skyline {
    fn new(now: SimTime, free_now: u32, total: u32) -> Self {
        Skyline {
            now,
            total: i64::from(total),
            base: i64::from(total - free_now),
            steps: Vec::new(),
            last: None,
        }
    }

    /// Adds a busy-node change of `delta` at `at`.
    fn add(&mut self, at: SimTime, delta: i64) {
        self.last = Some(self.last.map_or(at, |l| l.max(at)));
        if at <= self.now {
            self.base += delta;
            return;
        }
        match self.steps.binary_search_by_key(&at, |s| s.time) {
            Ok(i) => {
                let s = &mut self.steps[i];
                s.peak = s.peak.max(s.net + delta);
                s.net += delta;
            }
            Err(i) => self.steps.insert(
                i,
                Step {
                    time: at,
                    net: delta,
                    peak: delta,
                },
            ),
        }
    }

    /// Reserves `nodes` over `[from, to)`; an empty window adds nothing.
    fn reserve(&mut self, from: SimTime, to: SimTime, nodes: u32) {
        if to <= from {
            return;
        }
        self.add(from.max(self.now), i64::from(nodes));
        self.add(to, -i64::from(nodes));
    }

    /// Earliest time ≥ now, `now` or a step time, at which `nodes` stay
    /// free for `duration`, found in one forward sweep: when a step inside
    /// a candidate's window overflows, every candidate before that step
    /// overflows on it too, so the next candidate is the step itself.
    fn earliest_start(&self, nodes: u32, duration: SimDuration) -> SimTime {
        let limit = self.total - i64::from(nodes);
        let mut start = self.now;
        // Settled level at `start`, and the first step after it.
        let mut level = self.base;
        let mut next = 0;
        loop {
            if level <= limit {
                let end = start + duration;
                let mut run = level;
                let mut j = next;
                loop {
                    match self.steps.get(j) {
                        Some(s) if s.time < end => {
                            if run + s.peak > limit {
                                break;
                            }
                            run += s.net;
                            j += 1;
                        }
                        _ => return start,
                    }
                }
                let s = self.steps[j];
                (start, level, next) = (s.time, run + s.net, j + 1);
            } else {
                let Some(s) = self.steps.get(next) else {
                    return self.last.unwrap_or(self.now);
                };
                (start, level, next) = (s.time, level + s.net, next + 1);
            }
        }
    }
}

/// The retired reservation profile, kept as the oracle the skyline is
/// tested against: a delta list re-sorted on every insert, rescanned from
/// the head for every candidate start.
#[cfg(test)]
mod oracle {
    use super::*;

    /// A stepwise free-node profile over future time.
    pub(super) struct Profile {
        now: SimTime,
        total: u32,
        /// Sorted change points: (time, busy-node delta).
        deltas: Vec<(SimTime, i64)>,
        busy_now: u32,
    }

    impl Profile {
        pub(super) fn new(now: SimTime, free_now: u32, total: u32) -> Self {
            Profile {
                now,
                total,
                deltas: Vec::new(),
                busy_now: total - free_now,
            }
        }

        /// Registers the future release of a currently-running job.
        pub(super) fn add_release(&mut self, at: SimTime, nodes: u32) {
            self.deltas.push((at, -i64::from(nodes)));
            self.deltas.sort_by_key(|d| d.0);
        }

        /// Registers a reservation `[from, to)` (from is at or after now).
        pub(super) fn add_busy(&mut self, from: SimTime, to: SimTime, nodes: u32) {
            if to <= from {
                return;
            }
            self.deltas.push((from.max(self.now), i64::from(nodes)));
            self.deltas.push((to, -i64::from(nodes)));
            self.deltas.sort_by_key(|d| d.0);
        }

        /// Earliest time ≥ now at which `nodes` are continuously free for
        /// `duration_secs`.
        pub(super) fn earliest_start(&self, nodes: u32, duration_secs: f64) -> SimTime {
            // Candidate starts: now and every delta time.
            let mut candidates: Vec<SimTime> = vec![self.now];
            candidates.extend(self.deltas.iter().map(|d| d.0).filter(|&t| t > self.now));
            candidates.sort();
            candidates.dedup();
            for &start in &candidates {
                let end = start + epa_simcore::time::SimDuration::from_secs(duration_secs);
                if self.window_fits(start, end, nodes) {
                    return start;
                }
            }
            // Fallback: after everything ends.
            self.deltas.last().map_or(self.now, |d| d.0)
        }

        fn window_fits(&self, from: SimTime, to: SimTime, nodes: u32) -> bool {
            // Busy count as a function of time, scanning deltas.
            // busy(t) = busy_now + Σ deltas at or before t: running jobs start
            // inside busy_now and subtract at release; reservations add at
            // their start and subtract at their end.
            let mut busy = i64::from(self.busy_now);
            let mut idx = 0;
            while idx < self.deltas.len() && self.deltas[idx].0 <= from {
                busy += self.deltas[idx].1;
                idx += 1;
            }
            if busy + i64::from(nodes) > i64::from(self.total) {
                return false;
            }
            while idx < self.deltas.len() && self.deltas[idx].0 < to {
                busy += self.deltas[idx].1;
                if busy + i64::from(nodes) > i64::from(self.total) {
                    return false;
                }
                idx += 1;
            }
            true
        }
    }

    /// Conservative backfilling over the retired profile.
    pub(super) fn schedule(view: &SchedView<'_>, queue: &[Job]) -> Vec<Decision> {
        let mut out = Vec::new();
        let mut profile = Profile::new(view.now, view.free_nodes, view.total_nodes);
        for r in view.running {
            profile.add_release(r.estimated_end, r.nodes);
        }
        for job in queue {
            if job.nodes > view.total_nodes {
                continue;
            }
            let start = profile.earliest_start(job.nodes, job.walltime_estimate.as_secs());
            profile.add_busy(start, start + job.walltime_estimate, job.nodes);
            if start == view.now {
                out.push(Decision::start(job.id));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::RunningSummary;
    use epa_cluster::node::NodeSpec;
    use epa_power::dvfs::DvfsModel;
    use epa_simcore::time::{SimDuration, SimTime};
    use epa_workload::job::{JobBuilder, JobId};

    fn dvfs() -> DvfsModel {
        DvfsModel::new(NodeSpec::typical_xeon())
    }

    fn running(id: u64, nodes: u32, end_secs: f64) -> RunningSummary {
        RunningSummary {
            id: JobId(id),
            nodes,
            estimated_end: SimTime::from_secs(end_secs),
            watts: 0.0,
            granted_watts: None,
        }
    }

    fn view<'a>(
        free: u32,
        total: u32,
        running: &'a [RunningSummary],
        dvfs: &'a DvfsModel,
        predict: &'a dyn Fn(&Job) -> f64,
    ) -> SchedView<'a> {
        SchedView {
            now: SimTime::ZERO,
            free_nodes: free,
            off_nodes: 0,
            total_nodes: total,
            running,
            power_headroom_watts: f64::INFINITY,
            power_budget_watts: f64::INFINITY,
            system_watts: 0.0,
            temperature_c: 20.0,
            dvfs,
            predicted_watts_per_node: predict,
        }
    }

    #[test]
    fn easy_backfills_short_job_behind_blocked_head() {
        let d = dvfs();
        let predict = |_: &Job| 290.0;
        // 10-node machine: 6 busy until t=1000, 4 free.
        let run = [running(100, 6, 1000.0)];
        // Head needs 8 (blocked until t=1000); a 2-node 500 s job fits
        // before the shadow.
        let queue = vec![
            JobBuilder::new(1).nodes(8).build(),
            JobBuilder::new(2)
                .nodes(2)
                .estimate(SimDuration::from_secs(500.0))
                .runtime(SimDuration::from_secs(400.0))
                .build(),
        ];
        let mut p = EasyBackfill;
        let v = view(4, 10, &run, &d, &predict);
        let decisions = p.schedule(&v, &queue);
        assert_eq!(decisions, vec![Decision::start(JobId(2))]);
    }

    #[test]
    fn easy_rejects_backfill_that_delays_head() {
        let d = dvfs();
        let predict = |_: &Job| 290.0;
        let run = [running(100, 6, 1000.0)];
        // Backfill candidate runs past the shadow (estimate 2000 s) and
        // needs 4 > extra (extra = 4+6-8 = 2).
        let queue = vec![
            JobBuilder::new(1).nodes(8).build(),
            JobBuilder::new(2)
                .nodes(4)
                .estimate(SimDuration::from_secs(2000.0))
                .runtime(SimDuration::from_secs(1500.0))
                .build(),
        ];
        let mut p = EasyBackfill;
        let v = view(4, 10, &run, &d, &predict);
        assert!(p.schedule(&v, &queue).is_empty());
    }

    #[test]
    fn easy_allows_long_backfill_on_extra_nodes() {
        let d = dvfs();
        let predict = |_: &Job| 290.0;
        let run = [running(100, 6, 1000.0)];
        // Extra nodes = 2; a 2-node job of any length may take them.
        let queue = vec![
            JobBuilder::new(1).nodes(8).build(),
            JobBuilder::new(2)
                .nodes(2)
                .estimate(SimDuration::from_hours(10.0))
                .runtime(SimDuration::from_hours(9.0))
                .build(),
        ];
        let mut p = EasyBackfill;
        let v = view(4, 10, &run, &d, &predict);
        assert_eq!(p.schedule(&v, &queue), vec![Decision::start(JobId(2))]);
    }

    #[test]
    fn easy_starts_head_when_it_fits() {
        let d = dvfs();
        let predict = |_: &Job| 290.0;
        let queue = vec![
            JobBuilder::new(1).nodes(4).build(),
            JobBuilder::new(2).nodes(4).build(),
        ];
        let mut p = EasyBackfill;
        let v = view(10, 10, &[], &d, &predict);
        let decisions = p.schedule(&v, &queue);
        assert_eq!(decisions.len(), 2);
    }

    #[test]
    fn conservative_starts_only_non_delaying_jobs() {
        let d = dvfs();
        let predict = |_: &Job| 290.0;
        let run = [running(100, 6, 1000.0)];
        // Head (8 nodes) reserved at t=1000 on 10-node machine; after its
        // reservation [1000, 1000+est], a 4-node job reserving later must
        // not start now if it would collide with the head's window —
        // 2-node jobs shorter than 1000 s may.
        let queue = vec![
            JobBuilder::new(1)
                .nodes(8)
                .estimate(SimDuration::from_secs(4000.0))
                .runtime(SimDuration::from_secs(3000.0))
                .build(),
            JobBuilder::new(2)
                .nodes(2)
                .estimate(SimDuration::from_secs(800.0))
                .runtime(SimDuration::from_secs(700.0))
                .build(),
            JobBuilder::new(3)
                .nodes(4)
                .estimate(SimDuration::from_secs(600.0))
                .runtime(SimDuration::from_secs(500.0))
                .build(),
        ];
        let mut p = ConservativeBackfill;
        let v = view(4, 10, &run, &d, &predict);
        let decisions = p.schedule(&v, &queue);
        // Job 2 fits now (2 ≤ 4 free, ends at 800 < 1000, and after job 2
        // reserves, job 3 needs 4 nodes: free now is 4-2=2 → can't start).
        assert_eq!(decisions, vec![Decision::start(JobId(2))]);
    }

    #[test]
    fn conservative_equals_easy_for_trivial_queue() {
        let d = dvfs();
        let predict = |_: &Job| 290.0;
        let queue = vec![JobBuilder::new(1).nodes(2).build()];
        let v = view(10, 10, &[], &d, &predict);
        let mut c = ConservativeBackfill;
        let mut e = EasyBackfill;
        assert_eq!(c.schedule(&v, &queue), e.schedule(&v, &queue));
    }

    #[test]
    fn conservative_skips_job_wider_than_machine() {
        let d = dvfs();
        let predict = |_: &Job| 290.0;
        // A 1,000-node job at the head of a 64-node machine's queue gets
        // no reservation, so the jobs behind it start.
        let queue = vec![
            JobBuilder::new(1).nodes(1000).build(),
            JobBuilder::new(2).nodes(32).build(),
            JobBuilder::new(3).nodes(32).build(),
        ];
        let v = view(64, 64, &[], &d, &predict);
        assert_eq!(
            ConservativeBackfill.schedule(&v, &queue),
            vec![Decision::start(JobId(2)), Decision::start(JobId(3))]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::view::RunningSummary;
    use epa_cluster::node::NodeSpec;
    use epa_power::dvfs::DvfsModel;
    use epa_workload::job::{JobBuilder, JobId};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Every time and estimate is a multiple of this, so ties are common.
    const GRID: f64 = 600.0;

    fn at(steps: u32) -> SimTime {
        SimTime::from_secs(f64::from(steps) * GRID)
    }

    /// A queued job; `est_steps == 0` gives the zero-length estimate the
    /// builder refuses, which takes the empty-window path of a reservation.
    fn job(id: usize, nodes: u32, est_steps: u32) -> Job {
        let mut j = JobBuilder::new(id as u64).nodes(nodes).build();
        j.walltime_estimate = SimDuration::from_secs(f64::from(est_steps) * GRID);
        j
    }

    /// Running jobs that fit a `total`-node machine with `off` nodes
    /// unavailable, soonest estimated end first (the view's order), and
    /// the free-node count they leave. Ends may fall at or before `now`.
    fn machine(total: u32, off: u32, running: &[(u32, u32)]) -> (Vec<RunningSummary>, u32) {
        let mut busy = off.min(total);
        let mut out = Vec::new();
        for (i, &(nodes, end)) in running.iter().enumerate() {
            if busy + nodes <= total {
                busy += nodes;
                out.push(RunningSummary {
                    id: JobId(10_000 + i as u64),
                    nodes,
                    estimated_end: at(end),
                    watts: 0.0,
                    granted_watts: None,
                });
            }
        }
        out.sort_by_key(|r| r.estimated_end);
        (out, total - busy)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The skyline picks the same start as the retired profile for
        /// every job, wider-than-machine ones included, while both take
        /// the same reservations.
        #[test]
        fn skyline_earliest_start_matches_profile(
            now_steps in 0u32..4,
            total in 1u32..40,
            off in 0u32..6,
            running in vec((1u32..20, 0u32..12), 0..12),
            queue in vec((1u32..48, 0u32..8), 1..40),
        ) {
            let now = at(now_steps);
            let (running, free) = machine(total, off, &running);
            let mut skyline = Skyline::new(now, free, total);
            let mut profile = oracle::Profile::new(now, free, total);
            for r in &running {
                skyline.add(r.estimated_end, -i64::from(r.nodes));
                profile.add_release(r.estimated_end, r.nodes);
            }
            for (i, &(nodes, est_steps)) in queue.iter().enumerate() {
                let est = job(i, nodes, est_steps).walltime_estimate;
                let start = skyline.earliest_start(nodes, est);
                prop_assert_eq!(start, profile.earliest_start(nodes, est.as_secs()), "job {}", i);
                skyline.reserve(start, start + est, nodes);
                profile.add_busy(start, start + est, nodes);
            }
        }

        /// Conservative backfilling decides exactly what it decided over
        /// the retired profile.
        #[test]
        fn conservative_decisions_match_profile(
            now_steps in 0u32..4,
            total in 1u32..40,
            off in 0u32..6,
            running in vec((1u32..20, 0u32..12), 0..12),
            queue in vec((1u32..48, 0u32..8), 0..40),
        ) {
            let (running, free) = machine(total, off, &running);
            let queue: Vec<Job> = queue
                .iter()
                .enumerate()
                .map(|(i, &(nodes, est_steps))| job(i, nodes, est_steps))
                .collect();
            let d = DvfsModel::new(NodeSpec::typical_xeon());
            let predict = |_: &Job| 290.0;
            let v = SchedView {
                now: at(now_steps),
                free_nodes: free,
                off_nodes: 0,
                total_nodes: total,
                running: &running,
                power_headroom_watts: f64::INFINITY,
                power_budget_watts: f64::INFINITY,
                system_watts: 0.0,
                temperature_c: 20.0,
                dvfs: &d,
                predicted_watts_per_node: &predict,
            };
            prop_assert_eq!(ConservativeBackfill.schedule(&v, &queue), oracle::schedule(&v, &queue));
        }
    }
}
