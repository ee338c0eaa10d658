//! The four benchmark workloads: what each generates from its seed, the
//! one function per workload that builds its `EngineConfig`, and the
//! code that runs one repetition, untraced or traced.
//!
//! Sizes were set on a 2-core host (see README.md); the workloads are one
//! process and one thread.

use crate::checks::{HashSink, SinkTotals, Summary};
use crate::trace::{self, SharedTracer, TimedPolicy, TimedSink, TimedSource, Tracer};
use epa_bench::{experiment_system, streaming_workload_params};
use epa_cluster::system::System;
use epa_faults::{DomainFaultConfig, FaultConfig};
use epa_grid::{DrEvent, GridConfig};
use epa_obs::{CategoryMask, ProfileReport};
use epa_sched::engine::{ClusterSim, EngineConfig};
use epa_sched::policies::make_policy;
use epa_sched::view::Policy;
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::arrival::ArrivalProcess;
use epa_workload::distributions::SizeDistribution;
use epa_workload::generator::{WorkloadGenerator, WorkloadParams};
use epa_workload::job::Job;
use epa_workload::source::{JobSource, LazyGeneratorSource, MaterializedSource};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `bigiron-easy`: nodes, simulated days, arrival rate, and job sizes.
const BIGIRON_NODES: u32 = 262_144;
const BIGIRON_DAYS: f64 = 30.0;
const BIGIRON_RATE_PER_HOUR: f64 = 9.0;
const BIGIRON_SIZES: (u32, u32) = (2048, 32_768);

/// `overload-conservative`: a backlog of `OVERLOAD_JOBS` jobs that arrives
/// within about six minutes, before the first job can finish (runtimes
/// are at least ten minutes), and drains over the horizon, so rounds see
/// queues hundreds deep. Round cost grows with the cube of queue depth,
/// so the depth must not depend on the seed: open-ended Poisson overload
/// let it, and the run's cost, vary threefold from seed to seed.
const OVERLOAD_NODES: u32 = 128;
const OVERLOAD_JOBS: usize = 430;
const OVERLOAD_RATE_PER_HOUR: f64 = 4300.0;
const OVERLOAD_SIZES: (u32, u32) = (1, 64);
const OVERLOAD_DAYS: f64 = 8.0;

/// `stream-grid`: about `STREAM_RATE_PER_HOUR × STREAM_HOURS` jobs.
const STREAM_NODES: u32 = 256;
const STREAM_RATE_PER_HOUR: f64 = 1000.0;
const STREAM_HOURS: u32 = 400;
/// IT budget as a share of nominal draw, the grid twin's price and
/// carbon follow weights, and the DR window's target. Tighter settings
/// (0.85, 0.3, 0.7) let the queue grow without bound: per-round cost then
/// tracks queue depth, which this workload is meant to keep small.
const STREAM_BUDGET_FRAC: f64 = 0.9;
const STREAM_FOLLOW: f64 = 0.1;
const STREAM_DR_TARGET_FRAC: f64 = 0.8;
/// The daily enforced DR window, local hours `[start, start + 1)`.
const STREAM_DR_START_HOUR: u32 = 17;

/// `faulty-fleet`: nodes, days, fault rates, and the checkpoint cycle.
const FAULTY_NODES: u32 = 65_536;
const FAULTY_DAYS: f64 = 10.0;
const FAULTY_RATE_PER_HOUR: f64 = 9.0;
const FAULTY_SIZES: (u32, u32) = (512, 8192);
const FAULTY_NODE_MTBF_MINS: f64 = 10.0;
const FAULTY_RACK_MTBF_HOURS: f64 = 2.0;
const FAULTY_SNAPSHOT_HOURS: u32 = 12;

/// Salts deriving the engine, fault, and grid seeds from the workload
/// seed, so one `--seed` fixes every input.
const ENGINE_SALT: u64 = 0x0e9a_5eed;
const FAULT_SALT: u64 = 0x0fa1_7000;
const GRID_SALT: u64 = 0x0091_d000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 262,144 nodes under EASY: per-allocated-node start/finish work
    /// and per-node completion lists dominate; the policy is bypassed.
    BigironEasy,
    /// 128 overloaded nodes under conservative backfilling: the policy's
    /// reservation profile dominates; start/finish work is trivial.
    OverloadConservative,
    /// Hundreds of thousands of tiny streamed jobs with the grid twin:
    /// per-event dispatch, source pulls, and power/grid ticks dominate.
    StreamGrid,
    /// 65,536 nodes with failures, requeues, and a snapshot/resume cycle:
    /// point updates of node state and the snapshot codec dominate.
    FaultyFleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::BigironEasy,
        Workload::OverloadConservative,
        Workload::StreamGrid,
        Workload::FaultyFleet,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BigironEasy => "bigiron-easy",
            Workload::OverloadConservative => "overload-conservative",
            Workload::StreamGrid => "stream-grid",
            Workload::FaultyFleet => "faulty-fleet",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the workload was sized with, used when `--seed` is absent.
    #[must_use]
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::BigironEasy => 1,
            Workload::OverloadConservative => 5,
            Workload::StreamGrid => 2088,
            Workload::FaultyFleet => 7,
        }
    }

    /// Generates the workload's inputs from `seed`.
    #[must_use]
    pub fn inputs(self, seed: u64) -> Inputs {
        match self {
            Workload::BigironEasy => {
                let params = steady_params(seed, BIGIRON_SIZES, BIGIRON_RATE_PER_HOUR);
                let config = bigiron_config();
                Inputs::materialized(BIGIRON_NODES, params, None, "easy-backfill", config)
            }
            Workload::OverloadConservative => {
                let params = steady_params(seed, OVERLOAD_SIZES, OVERLOAD_RATE_PER_HOUR);
                let config = overload_config();
                Inputs::materialized(
                    OVERLOAD_NODES,
                    params,
                    Some(OVERLOAD_JOBS),
                    "conservative-backfill",
                    config,
                )
            }
            Workload::StreamGrid => {
                let system = experiment_system(STREAM_NODES);
                let config = stream_grid_config(seed, system.spec().nominal_watts());
                Inputs {
                    system,
                    jobs: Jobs::Lazy(streaming_workload_params(STREAM_RATE_PER_HOUR, seed)),
                    config,
                    policy: "easy-backfill",
                    sink: true,
                    snapshot_hours: None,
                }
            }
            Workload::FaultyFleet => {
                let params = steady_params(seed, FAULTY_SIZES, FAULTY_RATE_PER_HOUR);
                let config = faulty_config(seed);
                let mut inputs =
                    Inputs::materialized(FAULTY_NODES, params, None, "easy-backfill", config);
                inputs.snapshot_hours = Some(FAULTY_SNAPSHOT_HOURS);
                inputs
            }
        }
    }
}

/// `WorkloadParams::typical` with Poisson arrivals, log-uniform sizes in
/// `sizes`, no full-machine jobs, and no campaign batches. Bounding the
/// sizes spreads the per-node work over thousands of jobs, so a run's
/// cost varies little from seed to seed; a few full-machine jobs or
/// campaign bursts would otherwise decide it.
fn steady_params(seed: u64, sizes: (u32, u32), rate_per_hour: f64) -> WorkloadParams {
    let mut params = WorkloadParams::typical(sizes.1, seed);
    params.arrivals = ArrivalProcess::Poisson { rate_per_hour };
    params.sizes = SizeDistribution {
        min_nodes: sizes.0,
        max_nodes: sizes.1,
        pow2_bias: 0.7,
        capability_fraction: 0.0,
    };
    params.campaign_probability = 0.0;
    params
}

/// `bigiron-easy`: materialized jobs and default (retained) accounting.
fn bigiron_config() -> EngineConfig {
    EngineConfig::new(SimTime::from_days(BIGIRON_DAYS))
}

/// `overload-conservative`: no budget, default accounting.
fn overload_config() -> EngineConfig {
    EngineConfig::new(SimTime::from_days(OVERLOAD_DAYS))
}

/// `stream-grid`: streaming accounting, an IT budget, and the grid twin
/// with price/carbon following and one enforced DR window per day.
fn stream_grid_config(seed: u64, nominal_watts: f64) -> EngineConfig {
    let mut config = EngineConfig::new(SimTime::from_hours(f64::from(STREAM_HOURS)));
    config.retain_completed = false;
    config.bounded_power_trace = true;
    config.record_history = false;
    let budget = nominal_watts * STREAM_BUDGET_FRAC;
    config.power_budget_watts = Some(budget);
    let days = STREAM_HOURS.div_ceil(24);
    let mut grid = GridConfig::synthetic(
        budget,
        budget * 1.35,
        60.0,
        300.0,
        days + 1,
        0.0,
        seed ^ GRID_SALT,
    );
    grid.price_follow = STREAM_FOLLOW;
    grid.carbon_follow = STREAM_FOLLOW;
    grid.contract.penalty_per_excess_kwh = 200.0;
    grid.contract.tolerance_kwh = 1.0;
    grid.contract.events = (0..days)
        .map(|d| f64::from(d * 24 + STREAM_DR_START_HOUR))
        .filter(|&h| h + 1.0 <= f64::from(STREAM_HOURS))
        .map(|h| DrEvent {
            start: SimTime::from_hours(h),
            end: SimTime::from_hours(h + 1.0),
            target_frac: STREAM_DR_TARGET_FRAC,
            enforce: true,
        })
        .collect();
    config.grid = Some(grid);
    config
}

/// `faulty-fleet`: node failures plus correlated rack events, with
/// killed jobs requeued from 30-minute checkpoints.
fn faulty_config(seed: u64) -> EngineConfig {
    let mut config = EngineConfig::new(SimTime::from_days(FAULTY_DAYS));
    config.seed = seed ^ ENGINE_SALT;
    config.node_mtbf = Some(SimDuration::from_mins(FAULTY_NODE_MTBF_MINS));
    config.repair_time = SimDuration::from_hours(2.0);
    config.faults = Some(FaultConfig {
        domain: Some(DomainFaultConfig {
            mtbf: SimDuration::from_hours(FAULTY_RACK_MTBF_HOURS),
            repair_time: SimDuration::from_hours(4.0),
        }),
        sensor: None,
        actuator: None,
        seed: seed ^ FAULT_SALT,
    });
    config.requeue_killed = true;
    config.checkpoint_interval = Some(SimDuration::from_mins(30.0));
    config
}

/// How the job stream reaches the engine.
enum Jobs {
    /// Generated up front by `WorkloadGenerator::generate`.
    Materialized(Vec<Job>),
    /// Pulled one at a time from a `LazyGeneratorSource`.
    Lazy(WorkloadParams),
}

/// Everything a run needs that the seed determines.
pub struct Inputs {
    system: System,
    jobs: Jobs,
    config: EngineConfig,
    policy: &'static str,
    /// Whether completions stream into a JSONL sink.
    sink: bool,
    /// Snapshot, drop, and resume the engine every this many hours.
    snapshot_hours: Option<u32>,
}

impl Inputs {
    /// Inputs over the jobs `params` generates up to the horizon, or the
    /// first `limit` of them.
    fn materialized(
        nodes: u32,
        params: WorkloadParams,
        limit: Option<usize>,
        policy: &'static str,
        config: EngineConfig,
    ) -> Self {
        let horizon = match limit {
            // Twice the expected time to `limit` arrivals leaves ample
            // room for Poisson variation.
            Some(n) => SimTime::from_hours(2.0 * n as f64 / params.arrivals.peak_intensity()),
            None => config.horizon,
        };
        let mut jobs = WorkloadGenerator::new(params).generate(horizon, 0);
        if let Some(n) = limit {
            assert!(jobs.len() >= n, "generated {} of {n} jobs", jobs.len());
            jobs.truncate(n);
        }
        Inputs {
            system: experiment_system(nodes),
            jobs: Jobs::Materialized(jobs),
            config,
            policy,
            sink: false,
            snapshot_hours: None,
        }
    }

    /// A fresh source at the start of the job stream.
    fn source(&self) -> Box<dyn JobSource> {
        match &self.jobs {
            Jobs::Materialized(jobs) => Box::new(MaterializedSource::new(jobs.clone())),
            Jobs::Lazy(params) => Box::new(LazyGeneratorSource::new(
                params.clone(),
                self.config.horizon,
                0,
            )),
        }
    }
}

/// What a repetition records beyond the untraced end-to-end times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing wrapped, tracing and profiling off.
    Plain,
    /// Policy, source, and sink wrapped; spans around every layer call;
    /// the engine's own profiler on; the run driven in simulated-hour
    /// slices.
    Traced,
    /// As `Plain`, with every engine decision-trace category enabled.
    TraceAll,
}

/// Result of one repetition.
pub struct Run {
    /// Input generation plus engine construction, seconds.
    pub setup_s: f64,
    /// Built engine to returned outcome, snapshots and resumes included.
    pub run_s: f64,
    /// The outcome's correctness facts.
    pub summary: Summary,
    /// Completion-sink totals, for workloads with a sink.
    pub sink: Option<SinkTotals>,
    /// Spans and profile of a traced run.
    pub layers: Option<Layers>,
}

/// Per-layer records of a traced run.
pub struct Layers {
    /// Every span, with the policy wrapper's round facts.
    pub tracer: Tracer,
    /// Size of each snapshot taken, bytes.
    pub snapshot_bytes: Vec<usize>,
    /// The engine's profile of the final engine instance (after the
    /// last resume, on workloads that resume).
    pub profile: ProfileReport,
}

/// Opens a span when tracing.
fn begin(tracer: Option<&SharedTracer>, name: &'static str) -> Option<u32> {
    tracer.map(|t| trace::begin(t, name))
}

/// Closes a span opened by [`begin`].
fn end(tracer: Option<&SharedTracer>, id: Option<u32>) {
    if let (Some(t), Some(id)) = (tracer, id) {
        trace::end(t, id);
    }
}

/// Points the engine's completion sink at `totals` (timed when tracing).
/// Snapshots do not carry the sink, so a resumed engine is re-attached.
fn attach_sink(
    engine: &mut ClusterSim<'_>,
    totals: Option<&Arc<Mutex<SinkTotals>>>,
    tracer: Option<&SharedTracer>,
) {
    let Some(totals) = totals else { return };
    let base: Box<dyn std::io::Write + Send> = Box::new(HashSink(Arc::clone(totals)));
    engine.set_completion_sink(match tracer {
        Some(t) => Box::new(TimedSink::new(base, Arc::clone(t))),
        None => base,
    });
}

/// Constructs the engine over a fresh source, as a run starts it.
fn build<'p>(
    inputs: &Inputs,
    policy: &'p mut dyn Policy,
    sink: Option<&Arc<Mutex<SinkTotals>>>,
    tracer: Option<&SharedTracer>,
) -> ClusterSim<'p> {
    let mut engine = ClusterSim::try_new_with_source(
        inputs.system.clone(),
        wrap_source(inputs.source(), tracer),
        policy,
        inputs.config.clone(),
    )
    .expect("workload config is valid");
    attach_sink(&mut engine, sink, tracer);
    engine
}

/// Wraps `source` in a pull timer when tracing.
fn wrap_source(source: Box<dyn JobSource>, tracer: Option<&SharedTracer>) -> Box<dyn JobSource> {
    match tracer {
        Some(t) => Box::new(TimedSource::new(source, Arc::clone(t))),
        None => source,
    }
}

/// Times one untraced set-up (input generation plus engine
/// construction), exactly as a run performs it, and discards the engine.
#[must_use]
pub fn setup_once(workload: Workload, seed: u64) -> f64 {
    let start = Instant::now();
    let inputs = workload.inputs(seed);
    let mut policy = make_policy(inputs.policy).expect("workload names a registered policy");
    let sink = inputs
        .sink
        .then(|| Arc::new(Mutex::new(SinkTotals::default())));
    let engine = build(&inputs, policy.as_mut(), sink.as_ref(), None);
    let setup_s = start.elapsed().as_secs_f64();
    drop(engine);
    setup_s
}

/// Runs one repetition of `workload`. With `checkpoint` false the
/// snapshot/resume cycle is skipped (the uninterrupted reference run).
#[must_use]
pub fn run_once(workload: Workload, seed: u64, mode: Mode, checkpoint: bool, run_id: u32) -> Run {
    run_inputs(|| workload.inputs(seed), mode, checkpoint, run_id)
}

/// [`run_once`] over the inputs `make_inputs` generates (inside the
/// timed set-up).
fn run_inputs(
    make_inputs: impl FnOnce() -> Inputs,
    mode: Mode,
    checkpoint: bool,
    run_id: u32,
) -> Run {
    let shared = (mode == Mode::Traced).then(|| Tracer::shared(run_id));
    let tracer = shared.as_ref();
    let setup_start = Instant::now();
    let span = begin(tracer, "workload.generate");
    let mut inputs = make_inputs();
    end(tracer, span);
    match mode {
        Mode::Plain => {}
        Mode::Traced => inputs.config.trace.profile = true,
        Mode::TraceAll => inputs.config.trace.mask = CategoryMask::ALL,
    }
    if !checkpoint {
        inputs.snapshot_hours = None;
    }
    let span = begin(tracer, "sched.engine.build");
    let mut policy = make_policy(inputs.policy).expect("workload names a registered policy");
    if let Some(t) = tracer {
        policy = Box::new(TimedPolicy::new(policy, Arc::clone(t)));
    }
    let sink = inputs
        .sink
        .then(|| Arc::new(Mutex::new(SinkTotals::default())));
    let mut engine = build(&inputs, policy.as_mut(), sink.as_ref(), tracer);
    end(tracer, span);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let run_start = Instant::now();
    let run_span = begin(tracer, "sched.engine.run");
    let horizon = inputs.config.horizon;
    // Traced runs advance in one-hour slices; untraced runs advance only
    // as far as each snapshot point.
    let slice_hours = if tracer.is_some() {
        Some(1)
    } else {
        inputs.snapshot_hours
    };
    let mut snapshot_bytes = Vec::new();
    if let Some(step) = slice_hours {
        let mut hours = 0u32;
        loop {
            hours += step;
            let until = SimTime::from_hours(f64::from(hours)).min(horizon);
            let span = begin(tracer, "sched.engine.hour");
            let done = engine.advance_until(until);
            end(tracer, span);
            if done || until >= horizon {
                break;
            }
            if inputs
                .snapshot_hours
                .is_some_and(|every| hours.is_multiple_of(every))
            {
                let span = begin(tracer, "sched.snapshot.save");
                let snap = engine.snapshot();
                end(tracer, span);
                snapshot_bytes.push(snap.len());
                // The crash: the engine is gone, and a fresh one over a
                // fresh source resumes from the snapshot.
                let span = begin(tracer, "sched.snapshot.restore");
                drop(engine);
                engine = ClusterSim::resume_with_source(
                    inputs.system.clone(),
                    wrap_source(inputs.source(), tracer),
                    policy.as_mut(),
                    inputs.config.clone(),
                    &snap,
                )
                .expect("snapshot resumes");
                attach_sink(&mut engine, sink.as_ref(), tracer);
                end(tracer, span);
            }
        }
    }
    let span = begin(tracer, "sched.engine.finalize");
    let (outcome, bundle) = engine.run_traced();
    end(tracer, span);
    end(tracer, run_span);
    let run_s = run_start.elapsed().as_secs_f64();

    drop(policy);
    let sink = sink.map(|s| *s.lock().expect("sink lock poisoned"));
    let summary = Summary::of(outcome, sink);
    let layers = shared.map(|t| Layers {
        tracer: Arc::try_unwrap(t)
            .expect("every wrapper has been dropped")
            .into_inner()
            .expect("tracer lock poisoned"),
        snapshot_bytes,
        profile: bundle.profile,
    });
    Run {
        setup_s,
        run_s,
        summary,
        sink,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small instance of every mechanism the workloads use: a budget
    /// with the grid twin, a completion sink, failures with requeues, and
    /// a snapshot cycle.
    fn small_inputs(snapshot_hours: Option<u32>) -> Inputs {
        let system = experiment_system(64);
        let mut config = stream_grid_config(3, system.spec().nominal_watts());
        config.horizon = SimTime::from_days(2.0);
        if let Some(g) = config.grid.as_mut() {
            g.contract.events.retain(|e| e.end <= config.horizon);
        }
        config.retain_completed = true;
        config.node_mtbf = Some(SimDuration::from_hours(2.0));
        config.requeue_killed = true;
        config.checkpoint_interval = Some(SimDuration::from_mins(30.0));
        let params = steady_params(3, (1, 16), 6.0);
        let jobs = WorkloadGenerator::new(params).generate(config.horizon, 0);
        Inputs {
            system,
            jobs: Jobs::Materialized(jobs),
            config,
            policy: "easy-backfill",
            sink: true,
            snapshot_hours,
        }
    }

    /// The serialized outcome and sink totals of one run over `inputs`.
    fn outcome_bytes(inputs: &Inputs, tracer: Option<&SharedTracer>) -> (String, u64, u64) {
        let mut policy = make_policy(inputs.policy).expect("registered policy");
        if let Some(t) = tracer {
            policy = Box::new(TimedPolicy::new(policy, Arc::clone(t)));
        }
        let sink = Arc::new(Mutex::new(SinkTotals::default()));
        let engine = build(inputs, policy.as_mut(), Some(&sink), tracer);
        let out = engine.run();
        let totals = *sink.lock().expect("not poisoned");
        (
            serde_json::to_string(&out).expect("outcome serializes"),
            totals.hash.finish(),
            totals.bytes,
        )
    }

    #[test]
    fn wrapped_and_bare_engines_give_byte_identical_outcomes() {
        let inputs = small_inputs(None);
        let bare = outcome_bytes(&inputs, None);
        let tracer = Tracer::shared(0);
        let wrapped = outcome_bytes(&inputs, Some(&tracer));
        assert_eq!(bare, wrapped);
        assert!(bare.2 > 0, "the sink received completions");
        let t = tracer.lock().expect("not poisoned");
        for name in [
            "sched.policies.round",
            "workload.pull",
            "sched.engine.sink_write",
        ] {
            assert!(
                t.spans().iter().any(|s| s.name == name),
                "no {name} span recorded"
            );
        }
        assert!(t.rounds.rounds > 0);
    }

    #[test]
    fn traced_and_checkpointed_runs_match_the_plain_run() {
        let plain = run_inputs(|| small_inputs(None), Mode::Plain, true, 0);
        let resumed = run_inputs(|| small_inputs(Some(12)), Mode::Plain, true, 1);
        let traced = run_inputs(|| small_inputs(Some(12)), Mode::Traced, true, 2);
        let all = run_inputs(|| small_inputs(None), Mode::TraceAll, true, 3);
        let fp = plain.summary.facts.fingerprint;
        assert_eq!(resumed.summary.facts.fingerprint, fp);
        assert_eq!(traced.summary.facts.fingerprint, fp);
        assert_eq!(all.summary.facts.fingerprint, fp);
        assert_eq!(plain.summary.facts.unaccounted(), 0);
        let layers = traced.layers.expect("traced run has layers");
        assert_eq!(layers.snapshot_bytes.len(), 3, "snapshots at 12, 24, 36 h");
        let hours = layers
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == "sched.engine.hour")
            .count();
        assert_eq!(hours, 48);
    }

    #[test]
    fn workload_names_parse_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
