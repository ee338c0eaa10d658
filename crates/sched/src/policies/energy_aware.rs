//! Energy-aware frequency selection (LRZ / Auweter et al.).
//!
//! Table I, LRZ production: "First time new app runs: characterized for
//! frequency, runtime and energy. Administrator selects job scheduling
//! goal, energy to solution or best performance." This policy reproduces
//! that LoadLeveler/LSF capability: per job, pick the DVFS frequency that
//! optimizes the administrator's goal, using the job's (tagged) phase
//! profile as its characterization.

use crate::policies::backfill::EasyBackfill;
use crate::view::{Decision, Policy, SchedView};
use epa_workload::job::Job;
use serde::{Deserialize, Serialize};

/// The administrator-selected objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SchedulingGoal {
    /// Minimize energy-to-solution (runtime may inflate up to the bound).
    #[default]
    EnergyToSolution,
    /// Best performance: run at max frequency.
    Performance,
}

/// Energy-aware frequency selection on top of EASY backfilling.
#[derive(Debug, Clone, Copy)]
pub struct EnergyAwareScheduler {
    /// The site goal.
    pub goal: SchedulingGoal,
    /// Maximum tolerated runtime inflation under the energy goal
    /// (e.g. 1.15 = at most 15% slower than base frequency).
    pub max_slowdown: f64,
}

impl Default for EnergyAwareScheduler {
    fn default() -> Self {
        EnergyAwareScheduler {
            goal: SchedulingGoal::EnergyToSolution,
            max_slowdown: 1.15,
        }
    }
}

impl EnergyAwareScheduler {
    /// The frequency this scheduler would give a job under the view's
    /// DVFS model.
    #[must_use]
    pub fn pick_frequency(&self, view: &SchedView<'_>, job: &Job) -> f64 {
        let dvfs = view.dvfs;
        match self.goal {
            SchedulingGoal::Performance => dvfs.cpu().max_freq_ghz,
            SchedulingGoal::EnergyToSolution => {
                // Evaluate energy over the job's phase mix at every ladder
                // step within the slowdown bound; pick the minimum.
                let phases = job.normalized_phases();
                let mut best = (dvfs.cpu().base_freq_ghz, f64::INFINITY);
                for f in dvfs.cpu().frequency_ladder() {
                    let slow: f64 = phases
                        .iter()
                        .map(|p| p.weight * dvfs.slowdown(f, p.cpu_boundness))
                        .sum();
                    if slow > self.max_slowdown {
                        continue;
                    }
                    let energy: f64 = phases
                        .iter()
                        .map(|p| p.weight * dvfs.phase_energy(1.0, f, p.cpu_boundness))
                        .sum();
                    if energy < best.1 {
                        best = (f, energy);
                    }
                }
                best.0
            }
        }
    }
}

impl Policy for EnergyAwareScheduler {
    fn name(&self) -> &str {
        match self.goal {
            SchedulingGoal::EnergyToSolution => "energy-aware(energy)",
            SchedulingGoal::Performance => "energy-aware(performance)",
        }
    }

    fn schedule(&mut self, view: &SchedView<'_>, queue: &[Job]) -> Vec<Decision> {
        EasyBackfill::select(view, queue)
            .into_iter()
            .map(|i| Decision::Start {
                job: queue[i].id,
                nodes_override: None,
                freq_ghz: Some(self.pick_frequency(view, &queue[i])),
                node_cap_watts: None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_cluster::node::NodeSpec;
    use epa_power::dvfs::DvfsModel;
    use epa_simcore::time::SimTime;
    use epa_workload::job::{AppProfile, JobBuilder};

    fn dvfs() -> DvfsModel {
        DvfsModel::new(NodeSpec::typical_xeon())
    }

    fn view<'a>(dvfs: &'a DvfsModel, predict: &'a dyn Fn(&Job) -> f64) -> SchedView<'a> {
        SchedView {
            now: SimTime::ZERO,
            free_nodes: 64,
            off_nodes: 0,
            total_nodes: 64,
            running: &[],
            power_headroom_watts: f64::INFINITY,
            power_budget_watts: f64::INFINITY,
            system_watts: 0.0,
            temperature_c: 20.0,
            dvfs,
            predicted_watts_per_node: predict,
        }
    }

    #[test]
    fn performance_goal_picks_max_frequency() {
        let d = dvfs();
        let predict = |_: &Job| 290.0;
        let v = view(&d, &predict);
        let s = EnergyAwareScheduler {
            goal: SchedulingGoal::Performance,
            max_slowdown: 1.15,
        };
        let job = JobBuilder::new(1).build();
        assert_eq!(s.pick_frequency(&v, &job), d.cpu().max_freq_ghz);
    }

    #[test]
    fn memory_bound_jobs_get_low_frequency() {
        let d = dvfs();
        let predict = |_: &Job| 290.0;
        let v = view(&d, &predict);
        let s = EnergyAwareScheduler::default();
        let job = JobBuilder::new(1)
            .app(AppProfile::memory_bound("stream"))
            .build();
        let f = s.pick_frequency(&v, &job);
        // Memory-bound: slowdown tiny, so the minimum in-bound frequency
        // minimizes energy.
        assert!(f < d.cpu().base_freq_ghz, "picked {f}");
    }

    #[test]
    fn compute_bound_jobs_stay_near_base() {
        let d = dvfs();
        let predict = |_: &Job| 290.0;
        let v = view(&d, &predict);
        let s = EnergyAwareScheduler {
            goal: SchedulingGoal::EnergyToSolution,
            max_slowdown: 1.10,
        };
        let job = JobBuilder::new(1)
            .app(AppProfile::compute_bound("hpl"))
            .build();
        let f = s.pick_frequency(&v, &job);
        let slow = d.slowdown(f, 0.95);
        assert!(slow <= 1.10 + 1e-9, "slowdown bound violated: {slow}");
    }

    #[test]
    fn slowdown_bound_respected_for_any_mix() {
        let d = dvfs();
        let predict = |_: &Job| 290.0;
        let v = view(&d, &predict);
        let s = EnergyAwareScheduler::default();
        for beta_app in [
            AppProfile::balanced("a"),
            AppProfile::compute_bound("b"),
            AppProfile::memory_bound("c"),
        ] {
            let job = JobBuilder::new(1).app(beta_app).build();
            let f = s.pick_frequency(&v, &job);
            let slow: f64 = job
                .normalized_phases()
                .iter()
                .map(|p| p.weight * d.slowdown(f, p.cpu_boundness))
                .sum();
            assert!(slow <= s.max_slowdown + 1e-9, "{slow} at {f}");
        }
    }

    #[test]
    fn schedule_annotates_frequency() {
        let d = dvfs();
        let predict = |_: &Job| 290.0;
        let v = view(&d, &predict);
        let mut s = EnergyAwareScheduler::default();
        let queue = vec![JobBuilder::new(1)
            .app(AppProfile::memory_bound("m"))
            .build()];
        let decisions = s.schedule(&v, &queue);
        assert_eq!(decisions.len(), 1);
        match &decisions[0] {
            Decision::Start {
                freq_ghz: Some(f), ..
            } => assert!(*f < d.cpu().base_freq_ghz),
            other => panic!("expected frequency annotation, got {other:?}"),
        }
    }
}
