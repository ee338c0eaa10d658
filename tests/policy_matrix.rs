//! Integration: every scheduling policy runs the same workload to
//! completion with sane outcomes, and theory-predicted orderings hold.

use epa_jsrm::cluster::node::NodeSpec;
use epa_jsrm::cluster::system::SystemSpec;
use epa_jsrm::cluster::topology::Topology;
use epa_jsrm::prelude::*;
use epa_jsrm::sched::policies::energy_aware::SchedulingGoal;

fn system(nodes: u32) -> SystemSpec {
    SystemSpec {
        name: "policy-matrix".into(),
        cabinets: nodes.div_ceil(16),
        nodes_per_cabinet: 16,
        node: NodeSpec::typical_xeon(),
        topology: Topology::FatTree { arity: 16 },
        peak_tflops: 1.0,
    }
}

fn workload(nodes: u32, seed: u64, days: f64) -> Vec<Job> {
    WorkloadGenerator::new(WorkloadParams::typical(nodes, seed))
        .generate(SimTime::from_days(days), 0)
}

fn run(policy: &mut dyn Policy, budget: Option<f64>) -> SimOutcome {
    // Half a day on 64 nodes exercises every policy while staying fast
    // in debug builds.
    let nodes = 64u32;
    let horizon = SimTime::from_hours(12.0);
    let mut config = EngineConfig::new(horizon);
    config.power_budget_watts = budget;
    ClusterSim::new(
        system(nodes).build(),
        workload(nodes, 99, 0.5),
        policy,
        config,
    )
    .run()
}

#[test]
fn every_policy_completes_work() {
    let budget = Some(64.0 * 290.0 * 0.85);
    let outcomes = vec![
        run(&mut Fcfs, None),
        run(&mut EasyBackfill, None),
        run(&mut ConservativeBackfill, None),
        run(&mut PowerAwareBackfill::default(), budget),
        run(
            &mut EnergyAwareScheduler {
                goal: SchedulingGoal::EnergyToSolution,
                max_slowdown: 1.15,
            },
            None,
        ),
        run(&mut OverprovisionScheduler::default(), budget),
    ];
    for o in &outcomes {
        assert!(o.completed > 5, "{}: completed {}", o.policy, o.completed);
        assert!(o.utilization > 0.1, "{}: util {}", o.policy, o.utilization);
        assert!(o.energy_joules > 0.0);
        assert!(
            o.mean_bounded_slowdown >= 1.0,
            "{}: slowdown {}",
            o.policy,
            o.mean_bounded_slowdown
        );
    }
}

#[test]
fn energy_goal_uses_less_energy_per_job_than_performance_goal() {
    let energy = run(
        &mut EnergyAwareScheduler {
            goal: SchedulingGoal::EnergyToSolution,
            max_slowdown: 1.15,
        },
        None,
    );
    let perf = run(
        &mut EnergyAwareScheduler {
            goal: SchedulingGoal::Performance,
            max_slowdown: 1.15,
        },
        None,
    );
    // Energy per completed job must favor the energy goal (the LRZ knob).
    assert!(
        energy.energy_per_job_joules < perf.energy_per_job_joules,
        "energy goal {} vs performance goal {}",
        energy.energy_per_job_joules,
        perf.energy_per_job_joules
    );
}

#[test]
fn power_aware_holds_budget_where_easy_violates() {
    let budget_w = 64.0 * 290.0 * 0.7;
    let mut pa = PowerAwareBackfill::default();
    let constrained = run(&mut pa, Some(budget_w));
    // With the engine enforcing the ledger, violations are structural
    // zero; the policy's job is throughput under the cap.
    assert!(constrained.peak_watts <= budget_w + 64.0 * 90.0 + 1e-6);
    let mut easy = EasyBackfill;
    let unconstrained = run(&mut easy, None);
    assert!(
        unconstrained.peak_watts > budget_w,
        "unconstrained run should exceed the budget level ({} <= {})",
        unconstrained.peak_watts,
        budget_w
    );
}

#[test]
fn deterministic_across_policy_reuse() {
    // Using the same policy object twice must not leak state between runs.
    let mut p = EasyBackfill;
    let a = run(&mut p, None);
    let b = run(&mut p, None);
    assert_eq!(a.completed, b.completed);
    assert!((a.energy_joules - b.energy_joules).abs() < 1e-6);
}

/// Runs 20 jobs on a 64-node machine, one of them 1,000 nodes wide,
/// and returns how many completed.
fn completions_around_a_job_wider_than_the_machine(policy: &mut dyn Policy) -> u64 {
    // The wide job can never run; it must not keep the other 19 from
    // completing.
    let mut jobs = vec![JobBuilder::new(0).nodes(1000).build()];
    jobs.extend((1..20u32).map(|i| {
        JobBuilder::new(u64::from(i))
            .nodes(1 + i * 7 % 32)
            .submit(SimTime::from_secs(f64::from(i) * 600.0))
            .build()
    }));
    ClusterSim::new(
        system(64).build(),
        jobs,
        policy,
        EngineConfig::new(SimTime::from_days(2.0)),
    )
    .run()
    .completed
}

#[test]
fn conservative_runs_around_a_job_wider_than_the_machine() {
    assert_eq!(
        completions_around_a_job_wider_than_the_machine(&mut ConservativeBackfill),
        19
    );
}

#[test]
fn fcfs_runs_around_a_job_wider_than_the_machine() {
    assert_eq!(
        completions_around_a_job_wider_than_the_machine(&mut Fcfs),
        19
    );
}
