//! ODA (observe–decide–act) observability report: runs a subset of the
//! surveyed sites over a shortened horizon with full decision tracing
//! enabled and renders a per-site dashboard — robustness counters from
//! the metrics registry, the latency/staleness histograms, and the trace
//! event mix per category. This is the paper's Figure 1 control loop made
//! inspectable: every observe (telemetry), decide (scheduler/budget), and
//! act (actuator) edge shows up as counted, traced evidence.
//!
//! ```text
//! cargo run --release -p epa-bench --bin oda_report
//! ```

use epa_bench::ResultsTable;
use epa_obs::ALL_CATEGORIES;
use epa_simcore::time::SimTime;

/// Sites rendered in the report (one per distinct policy family).
const REPORT_SITES: [&str; 3] = ["lrz", "cea", "riken"];

/// Shortened horizon: two simulated days keeps the report fast while
/// still exercising emergencies, shutdown seasons, and requeues.
const HORIZON_DAYS: f64 = 2.0;

fn main() {
    // The runner reads the trace mask from the environment; the report
    // wants the full decision trace unless the caller narrowed it.
    if std::env::var("EPA_JSRM_TRACE").is_err() {
        std::env::set_var("EPA_JSRM_TRACE", "all");
    }
    let sites: Vec<_> = epa_sites::all_sites(2026)
        .into_iter()
        .filter(|s| REPORT_SITES.contains(&s.meta.key.as_str()))
        .map(|mut s| {
            s.horizon = SimTime::from_days(HORIZON_DAYS);
            s
        })
        .collect();

    let mut summary = ResultsTable::new(&[
        "site",
        "trace events",
        "dropped",
        "requeues",
        "telemetry fallbacks",
        "fenced nodes",
        "mean wait (h)",
        "queue depth (mean)",
    ]);

    for site in &sites {
        let report = epa_sites::run_site(site);
        let obs = &report.obs;

        println!("== {} ({HORIZON_DAYS:.0}-day horizon) ==", report.name);
        // Trace event mix: how many decisions each control-loop edge
        // produced (after the per-category enable mask and sampling).
        let mut mix = ResultsTable::new(&["category", "events seen", "recorded share"]);
        let total_seen: u64 = ALL_CATEGORIES.iter().map(|&c| obs.trace.seen(c)).sum();
        for cat in ALL_CATEGORIES {
            let n = obs.trace.seen(cat);
            if n > 0 {
                mix.row(vec![
                    cat.name().to_owned(),
                    n.to_string(),
                    format!("{:.1}%", 100.0 * n as f64 / total_seen.max(1) as f64),
                ]);
            }
        }
        println!("{}", mix.render());

        // Registry dashboard: histograms summarized as mean/total.
        let mut hists = ResultsTable::new(&["histogram", "samples", "mean"]);
        for (name, h) in obs.registry.histograms() {
            hists.row(vec![
                name.to_owned(),
                h.total.to_string(),
                format!("{:.2}", h.mean()),
            ]);
        }
        println!("{}", hists.render());

        let wait_mean_h = obs
            .registry
            .histogram("sched/wait_secs")
            .map_or(0.0, |h| h.mean() / 3600.0);
        let depth_mean = obs
            .registry
            .histogram("sched/queue_depth")
            .map_or(0.0, epa_obs::Histogram::mean);
        summary.row(vec![
            report.key.clone(),
            obs.trace.len().to_string(),
            obs.trace.dropped().to_string(),
            report.outcome.requeues.to_string(),
            report.outcome.telemetry_fallbacks.to_string(),
            report.outcome.fenced_nodes.to_string(),
            format!("{wait_mean_h:.2}"),
            format!("{depth_mean:.1}"),
        ]);
        // Sanity link: the outcome's counter map *is* the obs registry's
        // counters (one metrics store), so the two must agree key for key.
        assert_eq!(
            report.outcome.requeues,
            obs.registry.counter("jobs/requeued")
        );
        assert!(
            report
                .outcome
                .counters
                .iter()
                .map(|(k, &v)| (k.as_str(), v))
                .eq(obs.registry.counters()),
            "{}: outcome counters differ from the obs registry",
            report.key
        );
    }

    println!("== per-site summary ==");
    println!("{}", summary.render());
}
