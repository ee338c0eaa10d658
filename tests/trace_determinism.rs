//! Trace determinism: the exported JSONL decision trace is a pure
//! function of (config, seed) — byte-identical run to run and invariant
//! under the thread-pool size. Payloads are keyed on `SimTime` and bus
//! sequence numbers only; any wall-clock leakage or thread-order
//! sensitivity shows up here as a byte diff.
//!
//! The scenario mirrors the golden determinism test: backfilling, a power
//! budget with demand-response resizes, idle shutdown, emergency kills
//! with requeue, and node failures, so every trace category fires.
//!
//! CI runs this binary under `EPA_JSRM_THREADS=1` and `=4` with
//! `TRACE_EXPORT=<path>` set, then byte-diffs the two exported files.

use epa_cluster::node::NodeSpec;
use epa_cluster::system::{System, SystemSpec};
use epa_cluster::topology::Topology;
use epa_obs::{trace_to_jsonl, verify_replay, ObsBundle, TraceConfig};
use epa_sched::emergency::EmergencyPolicy;
use epa_sched::engine::{ClusterSim, EngineConfig, SimOutcome};
use epa_sched::policies::backfill::EasyBackfill;
use epa_sched::shutdown::ShutdownPolicy;
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::generator::{WorkloadGenerator, WorkloadParams};
use std::collections::BTreeMap;

fn traced_system() -> System {
    SystemSpec {
        name: "traced-32".into(),
        cabinets: 2,
        nodes_per_cabinet: 16,
        node: NodeSpec::typical_xeon(),
        topology: Topology::FatTree { arity: 16 },
        peak_tflops: 32.0,
    }
    .build()
}

fn traced_run() -> (SimOutcome, ObsBundle) {
    let horizon = SimTime::from_days(2.0);
    let jobs = WorkloadGenerator::new(WorkloadParams::typical(32, 42)).generate(horizon, 0);
    let mut config = EngineConfig::new(horizon);
    config.trace = TraceConfig::all();
    config.power_budget_watts = Some(32.0 * 290.0 * 0.7);
    config.budget_schedule = vec![
        (SimTime::from_hours(20.0), 32.0 * 290.0 * 0.4),
        (SimTime::from_hours(26.0), 32.0 * 290.0 * 0.7),
    ];
    config.shutdown = Some(ShutdownPolicy::default());
    config.emergency = Some(EmergencyPolicy::new(32.0 * 290.0 * 0.65));
    config.requeue_killed = true;
    config.checkpoint_interval = Some(SimDuration::from_mins(30.0));
    config.node_mtbf = Some(SimDuration::from_hours(18.0));
    config.repair_time = SimDuration::from_hours(2.0);
    config.seed = 0xD5;
    let mut policy = EasyBackfill;
    ClusterSim::new(traced_system(), jobs, &mut policy, config).run_traced()
}

fn export() -> String {
    trace_to_jsonl(&traced_run().1.trace)
}

#[test]
fn trace_is_run_to_run_deterministic() {
    let report = verify_replay(export).unwrap_or_else(|d| {
        panic!(
            "trace diverged between two runs at line {}:\n  first : {}\n  second: {}",
            d.line, d.first, d.second
        )
    });
    assert!(report.events > 0, "scenario must produce trace events");

    // CI hook: write the export so the workflow can byte-diff traces
    // produced under different EPA_JSRM_THREADS settings.
    if let Some(path) = std::env::var_os("TRACE_EXPORT") {
        std::fs::write(&path, export()).expect("write trace export");
    }
}

#[test]
fn trace_is_invariant_under_thread_count() {
    let serial = rayon::with_num_threads(1, export);
    let par = rayon::with_num_threads(4, export);
    assert!(serial == par, "trace drifted between 1 and 4 threads");
}

#[test]
fn trace_header_carries_schema_version() {
    let jsonl = export();
    let header = jsonl.lines().next().expect("header line");
    assert!(
        header.starts_with(&format!(
            "{{\"schema_version\":{},\"kind\":\"epa-obs-trace\"",
            epa_obs::OBS_SCHEMA_VERSION
        )),
        "unexpected header: {header}"
    );
}

#[test]
fn outcome_is_unchanged_by_tracing() {
    // The traced run and an untraced run of the same scenario must agree
    // on the outcome bytes: observability is read-only.
    let (out, bundle) = traced_run();
    // One metrics store: the outcome's counter map is the bundle
    // registry's counters, key for key.
    let registry_counters: BTreeMap<String, u64> = bundle
        .registry
        .counters()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    assert_eq!(out.counters, registry_counters);
    let traced = serde_json::to_string(&out).expect("serializes");
    let untraced = {
        let horizon = SimTime::from_days(2.0);
        let jobs = WorkloadGenerator::new(WorkloadParams::typical(32, 42)).generate(horizon, 0);
        let mut config = EngineConfig::new(horizon);
        config.power_budget_watts = Some(32.0 * 290.0 * 0.7);
        config.budget_schedule = vec![
            (SimTime::from_hours(20.0), 32.0 * 290.0 * 0.4),
            (SimTime::from_hours(26.0), 32.0 * 290.0 * 0.7),
        ];
        config.shutdown = Some(ShutdownPolicy::default());
        config.emergency = Some(EmergencyPolicy::new(32.0 * 290.0 * 0.65));
        config.requeue_killed = true;
        config.checkpoint_interval = Some(SimDuration::from_mins(30.0));
        config.node_mtbf = Some(SimDuration::from_hours(18.0));
        config.repair_time = SimDuration::from_hours(2.0);
        config.seed = 0xD5;
        let mut policy = EasyBackfill;
        let sim = ClusterSim::new(traced_system(), jobs, &mut policy, config);
        serde_json::to_string(&sim.run()).expect("serializes")
    };
    assert!(traced == untraced, "tracing perturbed the outcome");
}
