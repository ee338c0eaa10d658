//! Control-plane equivalence: the engineered adapters routed through the
//! unified `ControlAction` apply path produce **byte-identical** outcomes
//! and JSONL traces to the pre-refactor inline dispatch.
//!
//! The inline dispatch no longer exists. Its output for the scenario
//! below is frozen as data: FNV-1a-64 fingerprints (and byte lengths) of
//! the serialized outcome and of the exported trace, recorded from the
//! inline path for seeds `0xC0` and 1–8. The adapter path must reproduce
//! every one of them at thread counts {1, 4}.
//!
//! The scenario exercises every adapter: a power budget with scheduled
//! resizes (budget adapter), idle shutdown (shutdown adapter), emergency
//! kills (emergency adapter), a temperature-conditioned job-limit gate
//! (gate adapter), plus failures/requeues so the interleaving is rich.

use epa_cluster::node::NodeSpec;
use epa_cluster::system::{System, SystemSpec};
use epa_cluster::topology::Topology;
use epa_obs::{trace_to_jsonl, TraceConfig};
use epa_sched::emergency::EmergencyPolicy;
use epa_sched::engine::{ClusterSim, EngineConfig};
use epa_sched::limiting::JobLimitGate;
use epa_sched::policies::backfill::EasyBackfill;
use epa_sched::shutdown::ShutdownPolicy;
use epa_simcore::snap::Fingerprint;
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::generator::{WorkloadGenerator, WorkloadParams};
use proptest::prelude::*;

/// What the inline dispatch produced per seed: `(seed, outcome
/// fingerprint, outcome bytes, trace fingerprint, trace bytes)`.
#[rustfmt::skip]
const FROZEN_LEGACY: [(u64, u64, usize, u64, usize); 9] = [
    (0xC0, 0x1e86366c99088faa, 113343, 0x20fe9f95b09cc3c4, 492642),
    (1, 0x73332160931dcfb6, 113064, 0xe4b31af2b5875c65, 477794),
    (2, 0x2012c4beec9efd6b, 109116, 0x4f066d8c2c366e2b, 480909),
    (3, 0x003d1cf028cd69b3, 119923, 0xbd963b7a6cbb4c1e, 508720),
    (4, 0xa4d80be5ff6e8257, 99098, 0x3fdf0f7ed9137dde, 454920),
    (5, 0x869465880b45bde7, 112787, 0x2c3bebef3fefbb8e, 481256),
    (6, 0xde20ec3261fded48, 117274, 0x6cffd4d4b5277e78, 480571),
    (7, 0x0ddcce48661898e6, 100448, 0x3f96756e94cf8683, 389852),
    (8, 0xaaa13ddbfd9d91a9, 112090, 0xc2390f66e717b5d2, 476479),
];

fn system() -> System {
    SystemSpec {
        name: "ctl-eq-32".into(),
        cabinets: 4,
        nodes_per_cabinet: 8,
        node: NodeSpec::typical_xeon(),
        topology: Topology::FatTree { arity: 8 },
        peak_tflops: 32.0,
    }
    .build()
}

/// Serialized (outcome, trace) for one run of the full-feature scenario.
fn outcome_and_trace(seed: u64) -> (String, String) {
    let horizon = SimTime::from_days(2.0);
    let jobs = WorkloadGenerator::new(WorkloadParams::typical(32, seed)).generate(horizon, 0);
    let mut config = EngineConfig::new(horizon);
    config.trace = TraceConfig::all();
    config.power_budget_watts = Some(32.0 * 290.0 * 0.7);
    config.budget_schedule = vec![
        (SimTime::from_hours(20.0), 32.0 * 290.0 * 0.4),
        (SimTime::from_hours(26.0), 32.0 * 290.0 * 0.7),
    ];
    config.shutdown = Some(ShutdownPolicy::default());
    config.emergency = Some(EmergencyPolicy::windowed(
        32.0 * 290.0 * 0.65,
        SimTime::from_hours(6.0),
        SimTime::from_hours(40.0),
    ))
    .map(|e| e.with_cooldown(SimDuration::from_mins(10.0)));
    config.limit_gate = Some(JobLimitGate {
        normal_limit: 24,
        hot_limit: 6,
        hot_threshold_c: 26.0,
    });
    config.requeue_killed = true;
    config.checkpoint_interval = Some(SimDuration::from_mins(30.0));
    config.node_mtbf = Some(SimDuration::from_hours(18.0));
    config.repair_time = SimDuration::from_hours(2.0);
    config.seed = seed ^ 0xD5;
    let mut policy = EasyBackfill;
    let (outcome, bundle) = ClusterSim::new(system(), jobs, &mut policy, config).run_traced();
    (
        serde_json::to_string(&outcome).expect("serializes"),
        trace_to_jsonl(&bundle.trace),
    )
}

/// Fingerprint and byte length of one serialized artifact.
fn digest(s: &str) -> (u64, usize) {
    (Fingerprint::new().bytes(s.as_bytes()).finish(), s.len())
}

/// Asserts that the adapter path reproduces the frozen inline output
/// for one frozen seed at one thread count.
fn assert_matches_frozen(frozen: &(u64, u64, usize, u64, usize), threads: usize) {
    let &(seed, out_fp, out_len, trace_fp, trace_len) = frozen;
    let (out, trace) = rayon::with_num_threads(threads, || outcome_and_trace(seed));
    assert_eq!(
        digest(&out),
        (out_fp, out_len),
        "seed {seed:#x}: outcome drifted from the inline dispatch at {threads} threads"
    );
    assert_eq!(
        digest(&trace),
        (trace_fp, trace_len),
        "seed {seed:#x}: trace drifted from the inline dispatch at {threads} threads"
    );
}

#[test]
fn adapters_match_frozen_legacy_across_threads() {
    let (out, trace) = outcome_and_trace(0xC0);
    assert!(
        trace.contains("emergency_breach") || out.contains("emergency_kills"),
        "scenario should exercise the emergency path"
    );
    for threads in [1usize, 4] {
        for frozen in &FROZEN_LEGACY {
            assert_matches_frozen(frozen, threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form: a seed drawn at random from the frozen set
    /// reproduces the inline dispatch's outcome and trace.
    #[test]
    fn adapters_equiv_legacy_random_seeds(i in 0usize..FROZEN_LEGACY.len()) {
        assert_matches_frozen(&FROZEN_LEGACY[i], 1);
    }
}
