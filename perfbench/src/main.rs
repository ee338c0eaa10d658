//! Host-time benchmark of the epa-jsrm simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//! ```
//!
//! `--trace 0` repeats the workload untraced for `--seconds`, spread over
//! fresh child processes, and reports the end-to-end metrics; `--trace 1`
//! alternates untraced and traced repetitions in one process and reports
//! the per-layer metrics. Human-readable lines
//! come first; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Exit code 0 means
//! every correctness check passed. See README.md.

mod checks;
mod stats;
mod trace;
mod workloads;

use crate::checks::Facts;
use crate::stats::{median, percentile};
use crate::trace::self_times_ns;
use crate::workloads::{Layers, Mode, Run, Workload};
use epa_obs::profile::ALL_SCOPES;
use serde_json::{json, Value};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The end-to-end metrics (`--trace 0`): name, unit.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics (`--trace 1`): name, unit. Layers that a
/// workload does not exercise read 0 there (no sink, no snapshots, …).
const PER_LAYER: [(&str, &str); 50] = [
    ("workload.generate_s", "s"),
    ("workload.pulls", "count"),
    ("workload.pull_s", "s"),
    ("sched.engine.build_s", "s"),
    ("sched.engine.events", "count"),
    ("sched.engine.self_s", "s"),
    ("sched.engine.self_share", "ratio"),
    ("sched.engine.ns_per_event", "ns"),
    ("sched.engine.finalize_s", "s"),
    ("sched.engine.hour_p50_ms", "ms"),
    ("sched.engine.hour_max_ms", "ms"),
    ("sched.engine.admit_frac", "ratio"),
    ("sched.engine.sink_records", "count"),
    ("sched.engine.sink_bytes", "bytes"),
    ("sched.engine.sink_write_s", "s"),
    ("sched.engine.traced_run_s", "s"),
    ("sched.policies.rounds", "count"),
    ("sched.policies.busy_s", "s"),
    ("sched.policies.busy_share", "ratio"),
    ("sched.policies.round_p50_us", "us"),
    ("sched.policies.round_p99_us", "us"),
    ("sched.policies.queue_mean", "jobs"),
    ("sched.policies.queue_max", "jobs"),
    ("sched.policies.useful_frac", "ratio"),
    ("cluster.node_starts", "count"),
    ("cluster.alloc_nodes_mean", "nodes"),
    ("sched.snapshot.saves", "count"),
    ("sched.snapshot.save_s", "s"),
    ("sched.snapshot.bytes_mean", "bytes"),
    ("sched.snapshot.restores", "count"),
    ("sched.snapshot.restore_s", "s"),
    ("sched.snapshot.share", "ratio"),
    ("faults.node_failures", "count"),
    ("faults.requeues", "count"),
    ("power.ticks", "count"),
    ("power.budget_resizes", "count"),
    ("grid.dr_events", "count"),
    ("grid.emergency_kills", "count"),
    ("obs.profile.dispatch_s", "s"),
    ("obs.profile.dispatch_calls", "count"),
    ("obs.profile.schedule_s", "s"),
    ("obs.profile.schedule_calls", "count"),
    ("obs.profile.allocator_s", "s"),
    ("obs.profile.allocator_calls", "count"),
    ("obs.profile.meter_s", "s"),
    ("obs.profile.meter_calls", "count"),
    ("obs.profile.shard_drain_s", "s"),
    ("obs.profile.shard_drain_calls", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.trace_all_overhead_frac", "ratio"),
];

/// Environment variables that change how the engine runs; the benchmark
/// measures the defaults and refuses to run under any of them.
const ENGINE_ENV: [&str; 3] = ["EPA_JSRM_SHARDS", "EPA_JSRM_THREADS", "EPA_JSRM_TRACE"];

/// Fewest traced-mode repetitions per variant, however long each takes.
const MIN_REPS: usize = 3;

/// Child processes an untraced run spreads its repetitions over.
const CHILDREN: usize = 4;

/// Set-ups each child times after its repetitions: set-up is short, so
/// it is sampled more often than the runs.
const EXTRA_SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    /// Set in the child processes of an untraced run: seconds to repeat.
    child: Option<f64>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: epa-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut spans = None;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--spans" => spans = Some(value),
            "--child" => {
                child = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad --child {value:?}"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
        spans,
        child,
    })
}

/// The outcome of the correctness checks over every run of an invocation.
struct Verdict {
    /// Jobs submitted in one run of the workload (the base of `failed`).
    attempted: u64,
    /// Jobs the outcome lost, or every job when another check failed.
    failed: u64,
    problems: Vec<String>,
}

impl Verdict {
    /// Checks job conservation and energy on every run, and that every
    /// run's fingerprint equals `expect` (the first run's by default).
    fn of(runs: &[Facts], expect: Option<u64>) -> Self {
        let first = runs.first().copied();
        let mut verdict = Verdict {
            attempted: first.map_or(1, |f| f.submitted.max(1)),
            failed: 0,
            problems: Vec::new(),
        };
        let Some(first) = first else {
            verdict.fail("no run finished".to_owned());
            return verdict;
        };
        let expect = expect.unwrap_or(first.fingerprint);
        for (i, f) in runs.iter().enumerate() {
            if f.unaccounted() > 0 {
                verdict.problems.push(format!(
                    "run {i}: submitted {} + requeued {} != completed {} + unfinished {}",
                    f.submitted, f.requeues, f.completed, f.unfinished
                ));
                verdict.failed = verdict.failed.max(f.unaccounted().min(verdict.attempted));
            }
            if !f.energy_ok {
                verdict.fail(format!("run {i}: energy is not finite and non-negative"));
            }
            if f.fingerprint != expect {
                verdict.fail(format!(
                    "run {i}: fingerprint {:016x} != {expect:016x}",
                    f.fingerprint
                ));
            }
        }
        verdict
    }

    /// Records a failed check that invalidates the whole run.
    fn fail(&mut self, problem: String) {
        self.problems.push(problem);
        self.failed = self.attempted;
    }
}

/// Runs repetitions of `modes` in turn until `seconds` have passed and
/// every mode has at least `min_reps` runs, handing each run to `on_run`
/// as it finishes (a traced run's spans are large; they are not kept).
fn repeat(
    args: &Args,
    modes: &[Mode],
    seconds: f64,
    min_reps: usize,
    mut on_run: impl FnMut(Mode, Run),
) {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_reps || start.elapsed().as_secs_f64() < seconds {
        for &mode in modes {
            let id = u32::try_from(rounds * modes.len()).unwrap_or(u32::MAX);
            let run = workloads::run_once(args.workload, args.seed, mode, true, id);
            eprintln!(
                "  rep {rounds} {mode:?}: setup {:.4} s, run {:.4} s",
                run.setup_s, run.run_s
            );
            on_run(mode, run);
        }
        rounds += 1;
    }
}

/// What one child process measured.
#[derive(Default)]
struct ChildReport {
    setups: Vec<f64>,
    runs: Vec<f64>,
    facts: Vec<Facts>,
    rss_bytes: u64,
}

/// Child-process mode: untraced repetitions for `seconds`, reported one
/// per line, then extra set-ups, then the process's peak RSS (read
/// before the extra set-ups, which allocate less than a run).
fn child(args: &Args, seconds: f64) {
    repeat(args, &[Mode::Plain], seconds, 1, |_, run| {
        println!("rep {} {} {}", run.setup_s, run.run_s, run.summary.facts);
    });
    println!("rss {}", epa_bench::peak_rss_bytes());
    for _ in 0..EXTRA_SETUPS {
        println!("setup {}", workloads::setup_once(args.workload, args.seed));
    }
}

/// Runs a child process for `seconds` of repetitions and parses its report.
fn run_child(args: &Args, seconds: f64) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--child", &seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running a child process: {e}"))?;
    if !out.status.success() {
        return Err(format!("a child process exited with {}", out.status));
    }
    let mut report = ChildReport::default();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let bad = || format!("unreadable child output line {line:?}");
        let (tag, rest) = line.split_once(' ').ok_or_else(bad)?;
        let mut fields = rest.splitn(3, ' ');
        let mut num = || -> Result<f64, String> {
            fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)
        };
        match tag {
            "rep" => {
                report.setups.push(num()?);
                report.runs.push(num()?);
                report.facts.push(fields.next().ok_or_else(bad)?.parse()?);
            }
            "setup" => report.setups.push(num()?),
            "rss" => report.rss_bytes = num()? as u64,
            _ => return Err(bad()),
        }
    }
    if report.runs.is_empty() || report.rss_bytes == 0 {
        return Err("a child process reported no run or no peak RSS".to_owned());
    }
    Ok(report)
}

/// End-to-end metrics from untraced repetitions spread over
/// [`CHILDREN`] fresh processes, so one process's memory layout does not
/// decide the result.
fn untraced(args: &Args) -> (Verdict, Vec<(&'static str, f64)>) {
    let mut all = ChildReport::default();
    let mut rss = Vec::new();
    let mut errors = Vec::new();
    for _ in 0..CHILDREN {
        match run_child(args, args.seconds / CHILDREN as f64) {
            Ok(r) => {
                all.setups.extend(r.setups);
                all.runs.extend(r.runs);
                all.facts.extend(r.facts);
                rss.push(r.rss_bytes as f64);
            }
            Err(e) => errors.push(e),
        }
    }
    let w = args.workload;
    let reference = (w == Workload::FaultyFleet)
        .then(|| workloads::run_once(w, args.seed, Mode::Plain, false, u32::MAX));
    let reference_fp = reference.as_ref().map(|r| r.summary.facts.fingerprint);
    let mut verdict = Verdict::of(&all.facts, reference_fp);
    for e in errors {
        verdict.fail(e);
    }
    if let (Some(fp), Some(first)) = (reference_fp, all.facts.first()) {
        println!(
            "check: checkpointed fingerprint {:016x}, uninterrupted {fp:016x}",
            first.fingerprint
        );
    }
    if let Some(f) = all.facts.first() {
        println!(
            "outcome: {} submitted, {} requeued, {} completed, {} unfinished, fingerprint {:016x}",
            f.submitted, f.requeues, f.completed, f.unfinished, f.fingerprint
        );
    }
    let run_s = median(&all.runs);
    println!(
        "samples: {} runs in {CHILDREN} processes, {} set-ups; run_s quartiles {:.4} / {run_s:.4} / {:.4} s",
        all.runs.len(),
        all.setups.len(),
        percentile(&all.runs, 25.0).unwrap_or(0.0),
        percentile(&all.runs, 75.0).unwrap_or(0.0),
    );
    let completed = all.facts.first().map_or(0, |f| f.completed);
    let metrics = vec![
        ("setup_s", median(&all.setups)),
        ("run_s", run_s),
        ("jobs_per_s", ratio(completed as f64, run_s)),
        ("peak_rss_mb", median(&rss) / (1024.0 * 1024.0)),
    ];
    (verdict, metrics)
}

/// Durations of the spans named `name`, nanoseconds.
fn durations_ns(layers: &Layers, name: &str) -> Vec<f64> {
    layers
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// `num / den`, or 0 when the base is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced run, except the two overhead
/// fractions, which compare runs.
fn layer_metrics(run: &Run) -> Vec<(&'static str, f64)> {
    let layers = run.layers.as_ref().expect("a traced run has layers");
    let s = &run.summary;
    let secs = |name| durations_ns(layers, name).iter().sum::<f64>() / 1e9;
    let count = |name| durations_ns(layers, name).len() as f64;
    // The engine's own time: the run, its hour slices, and the final
    // `run`, minus the wrapped layers and snapshot calls beneath them.
    let spans = layers.tracer.spans();
    let engine_self_s = spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(sp, _)| {
            matches!(
                sp.name,
                "sched.engine.run" | "sched.engine.hour" | "sched.engine.finalize"
            )
        })
        .map(|(_, ns)| ns as f64 / 1e9)
        .sum::<f64>();
    let events = s.counter("sim/events_processed") as f64;
    let hours = durations_ns(layers, "sched.engine.hour");
    let rounds = durations_ns(layers, "sched.policies.round");
    let r = layers.tracer.rounds;
    let started = s.counter("jobs/started") as f64;
    let denied = s.counter("sched/start_power_denied") as f64;
    let sink = run.sink.unwrap_or_default();
    let snaps = &layers.snapshot_bytes;
    let busy_s = secs("sched.policies.round");
    let snapshot_s = secs("sched.snapshot.save") + secs("sched.snapshot.restore");
    let mut m = vec![
        ("workload.generate_s", secs("workload.generate")),
        ("workload.pulls", count("workload.pull")),
        ("workload.pull_s", secs("workload.pull")),
        ("sched.engine.build_s", secs("sched.engine.build")),
        ("sched.engine.events", events),
        ("sched.engine.self_s", engine_self_s),
        ("sched.engine.self_share", ratio(engine_self_s, run.run_s)),
        (
            "sched.engine.ns_per_event",
            ratio(engine_self_s * 1e9, events),
        ),
        ("sched.engine.finalize_s", secs("sched.engine.finalize")),
        ("sched.engine.hour_p50_ms", median(&hours) / 1e6),
        (
            "sched.engine.hour_max_ms",
            hours.iter().copied().fold(0.0, f64::max) / 1e6,
        ),
        ("sched.engine.admit_frac", ratio(started, started + denied)),
        ("sched.engine.sink_records", sink.records as f64),
        ("sched.engine.sink_bytes", sink.bytes as f64),
        ("sched.engine.sink_write_s", secs("sched.engine.sink_write")),
        ("sched.engine.traced_run_s", run.run_s),
        ("sched.policies.rounds", r.rounds as f64),
        ("sched.policies.busy_s", busy_s),
        ("sched.policies.busy_share", ratio(busy_s, run.run_s)),
        (
            "sched.policies.round_p50_us",
            percentile(&rounds, 50.0).unwrap_or(0.0) / 1e3,
        ),
        (
            "sched.policies.round_p99_us",
            percentile(&rounds, 99.0).unwrap_or(0.0) / 1e3,
        ),
        (
            "sched.policies.queue_mean",
            ratio(r.queue_sum as f64, r.rounds as f64),
        ),
        ("sched.policies.queue_max", r.queue_max as f64),
        (
            "sched.policies.useful_frac",
            ratio(r.useful as f64, r.rounds as f64),
        ),
        ("cluster.node_starts", s.node_starts as f64),
        (
            "cluster.alloc_nodes_mean",
            ratio(s.node_starts as f64, s.records as f64),
        ),
        ("sched.snapshot.saves", count("sched.snapshot.save")),
        ("sched.snapshot.save_s", secs("sched.snapshot.save")),
        (
            "sched.snapshot.bytes_mean",
            ratio(snaps.iter().sum::<usize>() as f64, snaps.len() as f64),
        ),
        ("sched.snapshot.restores", count("sched.snapshot.restore")),
        ("sched.snapshot.restore_s", secs("sched.snapshot.restore")),
        ("sched.snapshot.share", ratio(snapshot_s, run.run_s)),
        ("faults.node_failures", s.node_failures as f64),
        ("faults.requeues", s.facts.requeues as f64),
        ("power.ticks", s.counter("rm/power_ticks") as f64),
        (
            "power.budget_resizes",
            s.counter("power/budget_resizes") as f64,
        ),
        ("grid.dr_events", s.counter("grid/dr_events") as f64),
        ("grid.emergency_kills", s.emergency_kills as f64),
    ];
    for (scope, [secs_name, calls_name]) in ALL_SCOPES.into_iter().zip(PROFILE_METRICS) {
        let st = layers.profile.scope(scope);
        m.push((secs_name, st.total_ns as f64 / 1e9));
        m.push((calls_name, st.calls as f64));
    }
    m
}

/// Metric names for the engine profiler's scopes, in `ALL_SCOPES` order.
const PROFILE_METRICS: [[&str; 2]; 5] = [
    ["obs.profile.dispatch_s", "obs.profile.dispatch_calls"],
    ["obs.profile.schedule_s", "obs.profile.schedule_calls"],
    ["obs.profile.allocator_s", "obs.profile.allocator_calls"],
    ["obs.profile.meter_s", "obs.profile.meter_calls"],
    ["obs.profile.shard_drain_s", "obs.profile.shard_drain_calls"],
];

/// Per-layer metrics from alternating untraced and traced repetitions
/// (and, on `stream-grid`, repetitions with every engine trace
/// category on).
fn traced(args: &Args) -> (Verdict, Vec<(&'static str, f64)>) {
    let mut modes = vec![Mode::Plain, Mode::Traced];
    if args.workload == Workload::StreamGrid {
        modes.push(Mode::TraceAll);
    }
    let mut facts = Vec::new();
    let mut run_times = Vec::new();
    let mut per_run = Vec::new();
    let mut last_layers = None;
    repeat(args, &modes, args.seconds, MIN_REPS, |mode, run| {
        facts.push(run.summary.facts);
        run_times.push((mode, run.run_s));
        if mode == Mode::Traced {
            per_run.push(layer_metrics(&run));
            last_layers = run.layers;
        }
    });
    let verdict = Verdict::of(&facts, None);
    let run_median = |m: Mode| {
        let times: Vec<f64> = run_times
            .iter()
            .filter(|(mode, _)| *mode == m)
            .map(|&(_, t)| t)
            .collect();
        median(&times)
    };
    let plain = run_median(Mode::Plain);
    let overhead = |m: Mode| {
        if modes.contains(&m) {
            ratio(run_median(m), plain) - 1.0
        } else {
            0.0
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = match name {
                "obs.trace_overhead_frac" => overhead(Mode::Traced),
                "obs.trace_all_overhead_frac" => overhead(Mode::TraceAll),
                _ => median(
                    &per_run
                        .iter()
                        .map(|m| {
                            m.iter()
                                .find(|(n, _)| *n == name)
                                .map(|&(_, v)| v)
                                .expect("every per-layer metric is computed")
                        })
                        .collect::<Vec<_>>(),
                ),
            };
            (name, value)
        })
        .collect();
    if let (Some(path), Some(layers)) = (&args.spans, last_layers) {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                layers.tracer.write_jsonl(&mut f)?;
                std::io::Write::flush(&mut f)
            });
        if let Err(e) = written {
            eprintln!("error: writing spans to {path}: {e}");
        }
    }
    (verdict, metrics)
}

/// The unit of a listed metric.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Shares the traced run is designed to show, each with its base.
fn print_shares(metrics: &[(&str, f64)]) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let run_s = get("sched.engine.traced_run_s");
    for (label, part) in [
        (
            "policy (sched.policies.busy_s)",
            get("sched.policies.busy_s"),
        ),
        (
            "snapshot (save_s + restore_s)",
            get("sched.snapshot.save_s") + get("sched.snapshot.restore_s"),
        ),
        (
            "engine self (sched.engine.self_s)",
            get("sched.engine.self_s"),
        ),
    ] {
        println!(
            "share: {label} = {:.4} of the traced run_s ({part:.4} s of {run_s:.4} s)",
            ratio(part, run_s)
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = ENGINE_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "error: refusing to run with {} set; the benchmark measures the engine defaults",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    // One process, one thread: the engine's parallel paths stay serial.
    rayon::with_num_threads(1, || run(&args))
}

fn run(args: &Args) -> ExitCode {
    if let Some(seconds) = args.child {
        child(args, seconds);
        return ExitCode::SUCCESS;
    }
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "workload {} seed {} seconds {} trace {} available_cores {cores}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (verdict, metrics) = if args.trace {
        traced(args)
    } else {
        untraced(args)
    };
    for p in &verdict.problems {
        println!("FAILED check: {p}");
    }
    println!(
        "failed_frac = {} ratio ({} failed of {} submitted jobs)",
        ratio(verdict.failed as f64, verdict.attempted as f64),
        verdict.failed,
        verdict.attempted
    );
    for (name, value) in &metrics {
        println!("{name} = {value} {}", unit_of(name));
    }
    if args.trace {
        print_shares(&metrics);
    }
    let metrics = metrics
        .iter()
        .map(|&(name, value)| {
            (
                name.to_owned(),
                json!({"value": value, "unit": unit_of(name)}),
            )
        })
        .collect();
    let correct = verdict.failed == 0;
    let line = json!({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names: 1–64 letters, digits, `_`, `.`, `-`, starting with a letter
    /// or digit. Units: 1–16 letters, digits, `_`, `/`, `%`, `.`, `-`.
    fn valid(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    /// Every `"name": "…"` value in the repository's `BENCHMARK.json`.
    fn benchmark_json_names() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        text.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_owned())
            .collect()
    }

    #[test]
    fn names_and_units_are_valid_and_match_benchmark_json() {
        let workloads = Workload::ALL.map(Workload::name);
        let metrics = END_TO_END.iter().chain(PER_LAYER.iter());
        let ours: Vec<&str> = workloads
            .iter()
            .copied()
            .chain(metrics.clone().map(|(n, _)| *n))
            .collect();
        for name in &ours {
            assert!(valid(name, 64, "_.-"), "invalid name {name:?}");
        }
        for (name, unit) in metrics {
            assert!(valid(unit, 16, "_/%.-"), "invalid unit {unit:?} of {name}");
        }
        let listed = benchmark_json_names();
        let mut sorted_ours = ours.clone();
        sorted_ours.sort_unstable();
        sorted_ours.dedup();
        assert_eq!(sorted_ours.len(), ours.len(), "a name is used twice");
        let mut sorted_listed: Vec<&str> = listed.iter().map(String::as_str).collect();
        sorted_listed.sort_unstable();
        assert_eq!(sorted_ours, sorted_listed);
    }

    #[test]
    fn verdict_counts_lost_jobs_and_fails_whole_runs_on_other_checks() {
        let ok = Facts {
            fingerprint: 1,
            submitted: 100,
            requeues: 5,
            completed: 90,
            unfinished: 15,
            energy_ok: true,
        };
        let v = Verdict::of(&[ok, ok], None);
        assert_eq!((v.attempted, v.failed), (100, 0));
        let lost = Facts {
            unfinished: 12,
            ..ok
        };
        assert_eq!(Verdict::of(&[ok, lost], None).failed, 3);
        let other = Facts {
            fingerprint: 2,
            ..ok
        };
        assert_eq!(Verdict::of(&[ok, other], None).failed, 100);
        assert_eq!(Verdict::of(&[ok], Some(9)).failed, 100);
        assert_eq!(Verdict::of(&[], None).failed, 1);
    }
}
