//! First-come-first-served (no backfilling).
//!
//! The strict baseline: jobs start in queue order; the head job blocks
//! everything behind it until it fits. Every survey-cited evaluation of
//! backfilling (Mu'alem & Feitelson) measures against this. A job wider
//! than the whole machine can never fit, so it is passed over instead
//! of blocking the queue forever.

use crate::view::{Decision, Policy, SchedView};
use epa_workload::job::Job;

/// Strict FCFS.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Policy for Fcfs {
    fn name(&self) -> &str {
        "fcfs"
    }

    fn schedule(&mut self, view: &SchedView<'_>, queue: &[Job]) -> Vec<Decision> {
        let mut free = view.free_nodes;
        let mut out = Vec::new();
        for job in queue {
            if job.nodes > view.total_nodes {
                continue;
            }
            if job.nodes <= free {
                free -= job.nodes;
                out.push(Decision::start(job.id));
            } else {
                break; // strict order: head blocks
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
    use epa_simcore::time::SimTime;
    use epa_workload::job::{JobBuilder, JobId};

    fn view<'a>(
        free: u32,
        running: &'a [RunningSummary],
        dvfs: &'a DvfsModel,
        predict: &'a dyn Fn(&Job) -> f64,
    ) -> SchedView<'a> {
        SchedView {
            now: SimTime::ZERO,
            free_nodes: free,
            off_nodes: 0,
            total_nodes: 16,
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
    fn head_blocks_tail() {
        let dvfs = DvfsModel::new(NodeSpec::typical_xeon());
        let predict = |_: &Job| 290.0;
        let queue = vec![
            JobBuilder::new(1).nodes(10).build(),
            JobBuilder::new(2).nodes(1).build(),
        ];
        let mut p = Fcfs;
        let v = view(4, &[], &dvfs, &predict);
        let d = p.schedule(&v, &queue);
        assert!(
            d.is_empty(),
            "head needs 10 > 4 free; FCFS must not skip it"
        );
    }

    #[test]
    fn starts_in_order_while_fitting() {
        let dvfs = DvfsModel::new(NodeSpec::typical_xeon());
        let predict = |_: &Job| 290.0;
        let queue = vec![
            JobBuilder::new(1).nodes(2).build(),
            JobBuilder::new(2).nodes(2).build(),
            JobBuilder::new(3).nodes(10).build(),
        ];
        let mut p = Fcfs;
        let v = view(5, &[], &dvfs, &predict);
        let d = p.schedule(&v, &queue);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], Decision::start(JobId(1)));
        assert_eq!(d[1], Decision::start(JobId(2)));
    }
}
