//! Power-aware backfilling (Etinski et al.; Bodas et al.).
//!
//! Extends EASY backfilling with a power admission test: a job may start
//! only if its *predicted* power fits the budget headroom. When it does
//! not fit at base frequency, the policy optionally searches the DVFS
//! ladder downward for a frequency whose power fits — trading runtime for
//! admission, exactly Etinski's "power budget guided" job scheduling.

use crate::policies::backfill::EasyBackfill;
use crate::view::{Decision, Policy, SchedView};
use epa_workload::job::Job;

/// EASY backfilling with power admission and optional DVFS fitting.
#[derive(Debug, Clone, Copy)]
pub struct PowerAwareBackfill {
    /// When true, jobs that do not fit the headroom at base frequency are
    /// retried at reduced frequencies down the ladder.
    pub dvfs_fitting: bool,
    /// Safety margin: only admit while predicted + margin ≤ headroom.
    pub margin_watts: f64,
}

impl Default for PowerAwareBackfill {
    fn default() -> Self {
        PowerAwareBackfill {
            dvfs_fitting: true,
            margin_watts: 0.0,
        }
    }
}

impl Policy for PowerAwareBackfill {
    fn name(&self) -> &str {
        if self.dvfs_fitting {
            "power-aware-backfill+dvfs"
        } else {
            "power-aware-backfill"
        }
    }

    fn schedule(&mut self, view: &SchedView<'_>, queue: &[Job]) -> Vec<Decision> {
        // Delegate job *selection* to EASY, then filter by power and
        // annotate with frequencies.
        let mut headroom = view.power_headroom_watts - self.margin_watts;
        let mut out = Vec::new();
        for i in EasyBackfill::select(view, queue) {
            let job = &queue[i];
            let id = job.id;
            let predicted = (view.predicted_watts_per_node)(job);
            let need = predicted * f64::from(job.nodes);
            if need > view.power_budget_watts {
                // The job can never fit the budget as requested — pass it
                // through and let the resource manager program a hardware
                // cap that makes it fit (the CAPMC production practice);
                // holding it here would head-block the queue forever.
                out.push(Decision::start(id));
                continue;
            }
            if need <= headroom {
                headroom -= need;
                out.push(Decision::start(id));
                continue;
            }
            if !self.dvfs_fitting {
                continue;
            }
            // Search the ladder downward: scale the prediction by the DVFS
            // busy-power ratio at each step.
            let base = view.dvfs.cpu().base_freq_ghz;
            let base_busy = view.dvfs.busy_watts(base);
            let mut ladder = view.dvfs.cpu().frequency_ladder();
            ladder.retain(|&f| f < base);
            ladder.reverse(); // highest first
            for f in ladder {
                let scale = view.dvfs.busy_watts(f) / base_busy;
                let scaled = need * scale;
                if scaled <= headroom {
                    headroom -= scaled;
                    out.push(Decision::Start {
                        job: id,
                        nodes_override: None,
                        freq_ghz: Some(f),
                        node_cap_watts: None,
                    });
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_cluster::node::NodeSpec;
    use epa_power::dvfs::DvfsModel;
    use epa_simcore::time::SimTime;
    use epa_workload::job::{JobBuilder, JobId};

    fn dvfs() -> DvfsModel {
        DvfsModel::new(NodeSpec::typical_xeon())
    }

    fn view<'a>(
        free: u32,
        headroom: f64,
        dvfs: &'a DvfsModel,
        predict: &'a dyn Fn(&Job) -> f64,
    ) -> SchedView<'a> {
        SchedView {
            now: SimTime::ZERO,
            free_nodes: free,
            off_nodes: 0,
            total_nodes: 64,
            running: &[],
            power_headroom_watts: headroom,
            // A large budget: these tests exercise the headroom paths
            // (transient scarcity), not the over-budget pass-through.
            power_budget_watts: 1e9,
            system_watts: 0.0,
            temperature_c: 20.0,
            dvfs,
            predicted_watts_per_node: predict,
        }
    }

    #[test]
    fn admits_within_headroom() {
        let d = dvfs();
        let predict = |_: &Job| 250.0;
        let queue = vec![JobBuilder::new(1).nodes(2).build()];
        let mut p = PowerAwareBackfill::default();
        let v = view(8, 600.0, &d, &predict);
        assert_eq!(p.schedule(&v, &queue), vec![Decision::start(JobId(1))]);
    }

    #[test]
    fn rejects_without_dvfs_when_over_headroom() {
        let d = dvfs();
        let predict = |_: &Job| 250.0;
        let queue = vec![JobBuilder::new(1).nodes(4).build()]; // needs 1000 W
        let mut p = PowerAwareBackfill {
            dvfs_fitting: false,
            margin_watts: 0.0,
        };
        let v = view(8, 600.0, &d, &predict);
        assert!(p.schedule(&v, &queue).is_empty());
    }

    #[test]
    fn dvfs_fitting_lowers_frequency_to_fit() {
        let d = dvfs();
        let predict = |_: &Job| 290.0; // base busy power
        let queue = vec![JobBuilder::new(1).nodes(4).build()]; // 1160 W at base
        let mut p = PowerAwareBackfill::default();
        let v = view(8, 900.0, &d, &predict);
        let decisions = p.schedule(&v, &queue);
        assert_eq!(decisions.len(), 1);
        match &decisions[0] {
            Decision::Start {
                freq_ghz: Some(f), ..
            } => {
                assert!(*f < d.cpu().base_freq_ghz);
                // Scaled power must fit.
                let scale = d.busy_watts(*f) / d.busy_watts(d.cpu().base_freq_ghz);
                assert!(1160.0 * scale <= 900.0 + 1e-6);
            }
            other => panic!("expected DVFS-fitted start, got {other:?}"),
        }
    }

    #[test]
    fn impossible_even_at_min_freq_rejected() {
        let d = dvfs();
        let predict = |_: &Job| 290.0;
        let queue = vec![JobBuilder::new(1).nodes(4).build()];
        let mut p = PowerAwareBackfill::default();
        // Headroom below even min-frequency draw (~4×150 W).
        let v = view(8, 100.0, &d, &predict);
        assert!(p.schedule(&v, &queue).is_empty());
    }

    #[test]
    fn margin_reserved() {
        let d = dvfs();
        let predict = |_: &Job| 100.0;
        let queue = vec![JobBuilder::new(1).nodes(1).build()];
        let mut p = PowerAwareBackfill {
            dvfs_fitting: false,
            margin_watts: 550.0,
        };
        let v = view(8, 600.0, &d, &predict);
        assert!(p.schedule(&v, &queue).is_empty(), "100 > 600-550");
    }

    #[test]
    fn over_budget_job_passes_through_for_capping() {
        // A job whose predicted power exceeds the *total* budget must not
        // head-block the queue: the policy forwards it and the engine's
        // cap-to-fit takes over.
        let d = dvfs();
        let predict = |_: &Job| 250.0;
        let queue = vec![JobBuilder::new(1).nodes(4).build()]; // 1000 W
        let mut p = PowerAwareBackfill {
            dvfs_fitting: false,
            margin_watts: 0.0,
        };
        let v = SchedView {
            power_budget_watts: 600.0, // total budget below the need
            power_headroom_watts: 600.0,
            ..view(8, 600.0, &d, &predict)
        };
        assert_eq!(p.schedule(&v, &queue), vec![Decision::start(JobId(1))]);
    }

    #[test]
    fn headroom_consumed_across_decisions() {
        let d = dvfs();
        let predict = |_: &Job| 250.0;
        let queue = vec![
            JobBuilder::new(1).nodes(2).build(), // 500 W
            JobBuilder::new(2).nodes(2).build(), // 500 W, only 100 left
        ];
        let mut p = PowerAwareBackfill {
            dvfs_fitting: false,
            margin_watts: 0.0,
        };
        let v = view(8, 600.0, &d, &predict);
        let decisions = p.schedule(&v, &queue);
        assert_eq!(decisions, vec![Decision::start(JobId(1))]);
    }
}
