//! **E12 — demand response: the ESP–SC interaction** (Bates et al. and
//! Patki et al., the survey's §I/§II motivating works: electricity
//! service providers asking supercomputing centers to shed load).
//!
//! A 128-node machine receives a demand-response request: shed to 50% of
//! its budget for a 4-hour afternoon window. Three site postures:
//! 1. ignore the request (baseline; violation seconds show the exposure),
//! 2. admission-only: stop starting jobs that don't fit the shed budget,
//! 3. admission + emergency killing: actively drive the draw down.
//!
//! The DR event is defined once, as an `epa-grid` [`DrContract`]; the
//! engine consumes it through the contract's budget-schedule adapter,
//! and the settlement comes from the contract's penalty accounting.
//!
//! Expected shape: ignoring leaves hours of violation; admission-only
//! converges slowly (running jobs drain); emergency compliance is fast
//! but kills work.

use epa_bench::{experiment_system, ResultsTable};
use epa_grid::{DrContract, DrEvent};
use epa_sched::emergency::EmergencyPolicy;
use epa_sched::engine::{ClusterSim, EngineConfig};
use epa_sched::policies::EasyBackfill;
use epa_simcore::time::SimTime;
use epa_workload::generator::{WorkloadGenerator, WorkloadParams};

fn main() {
    println!("E12: demand-response window (50% shed, hours 24–28 of a 3-day run)\n");
    let nodes = 128u32;
    let system = experiment_system(nodes);
    let nominal = system.spec().nominal_watts();
    let horizon = SimTime::from_days(3.0);
    let jobs = WorkloadGenerator::new(WorkloadParams::typical(nodes, 17)).generate(horizon, 0);

    // The DR request, as a grid contract: one enforced-by-posture event,
    // 1 kWh of tolerance, a stiff per-kWh penalty.
    let event = DrEvent {
        start: SimTime::from_hours(24.0),
        end: SimTime::from_hours(28.0),
        target_frac: 0.5,
        enforce: false,
    };
    let contract = DrContract {
        events: vec![event],
        penalty_per_excess_kwh: 10.0,
        tolerance_kwh: 1.0,
    };
    contract.validate().expect("well-formed contract");

    let schedule = contract.budget_schedule(nominal);

    let mut table = ResultsTable::new(&[
        "posture",
        "violation s",
        "excess kWh",
        "penalty",
        "kills",
        "finished ok",
        "energy MWh",
    ]);
    for (label, comply, emergency) in [
        ("ignore request", false, false),
        ("admission only", true, false),
        ("admission + emergency", true, true),
    ] {
        let mut config = EngineConfig::new(horizon);
        config.power_budget_watts = Some(nominal);
        if comply {
            config.budget_schedule = schedule.clone();
        }
        if emergency {
            // The emergency response arms only inside the compliance
            // window (a demand-response event, not a standing limit).
            config.emergency = Some(EmergencyPolicy::windowed(
                event.target_watts(nominal),
                event.start,
                event.end,
            ));
        }
        let mut policy = EasyBackfill;
        let out = ClusterSim::new(system.clone(), jobs.clone(), &mut policy, config).run();
        // Settle the window through the contract.
        let acc = contract.account(nominal, &out.power_trace);
        let settled = &acc.events[0];
        let finished_ok = out
            .jobs
            .iter()
            .filter(|j| !j.killed_by_emergency && !j.killed_at_walltime)
            .count();
        table.row(vec![
            label.into(),
            format!("{:.0}", settled.violation_secs),
            format!("{:.1}", settled.excess_kwh),
            format!("{:.1}", settled.penalty),
            out.emergency_kills.to_string(),
            finished_ok.to_string(),
            format!("{:.2}", out.energy_joules / 3.6e9),
        ]);
    }
    println!("{}", table.render());
    println!("Expected shape: ignore = full-window violation at high excess; admission-only same duration");
    println!("but lower excess (the machine drains); emergency ≈ zero excess at the cost of killed jobs.");
}
