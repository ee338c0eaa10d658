//! The observability metrics registry: counters, gauges, and fixed-bucket
//! histograms with Prometheus-text and JSON exposition.
//!
//! It is the engine's only metrics store; two contracts shape it:
//!
//! - **Mergeable.** [`ObsRegistry::merge`] is associative and
//!   order-independent — counters add, gauges take the max, histogram
//!   buckets add element-wise — mirroring the bit-identical parallel-merge
//!   guarantee the campaign runner gives outcome reductions (proptested).
//! - **Exposable.** [`ObsRegistry::to_prometheus_text`] renders the
//!   standard exposition format; [`ObsRegistry::to_json`] emits a
//!   schema-versioned document for diff tooling.
//!
//! All storage is `BTreeMap`-keyed, so exposition order is deterministic.

use crate::OBS_SCHEMA_VERSION;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// A fixed-bucket histogram (Prometheus semantics: cumulative-free bucket
/// storage here, rendered cumulatively with `le` labels on exposition).
///
/// Buckets are defined by ascending finite upper bounds; an observation
/// lands in the first bucket whose bound is `>= value`, or in the implicit
/// overflow (`+Inf`) bucket past the last bound. Bucket counts therefore
/// always sum to `total` (proptested).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    /// Ascending finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`, the last
    /// entry being the overflow (`+Inf`) bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl Histogram {
    /// Creates an empty histogram over the given ascending upper bounds.
    ///
    /// # Panics
    /// If `bounds` is empty, non-finite, or not strictly ascending.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "histogram bounds must be strictly ascending");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (overflow bucket is implicit)"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// Adds another histogram's observations into this one.
    ///
    /// # Panics
    /// If the bucket bounds differ — merging histograms of different shape
    /// would silently corrupt quantiles.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Mean observed value, or 0 with no observations.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Bucket-resolution quantile estimate: the upper bound of the first
    /// bucket whose cumulative count reaches `q * total`. Observations in
    /// the overflow bucket saturate to the last finite bound (histograms
    /// carry no information past it), and an empty histogram reports 0.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum as f64 >= target {
                return self.bounds.get(i).copied().unwrap_or_else(|| {
                    *self
                        .bounds
                        .last()
                        .expect("histogram has at least one bound")
                });
            }
        }
        *self
            .bounds
            .last()
            .expect("histogram has at least one bound")
    }
}

/// The registry: string-keyed counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl ObsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        ObsRegistry::default()
    }

    /// Increments counter `name` by `by` (creating it at 0). The key is
    /// allocated only on first insert.
    pub fn incr(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_owned(), by);
            }
        }
    }

    /// Reads counter `name` (0 if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Raises gauge `name` to `value` if higher (high-water-mark gauges
    /// keep [`ObsRegistry::merge`] order-independent).
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        let g = self.gauges.entry(name.to_string()).or_insert(f64::MIN);
        if value > *g {
            *g = value;
        }
    }

    /// Reads gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Registers histogram `name` over the given bounds (no-op if it
    /// already exists with the same bounds).
    ///
    /// # Panics
    /// If `name` exists with different bounds.
    pub fn register_histogram(&mut self, name: &str, bounds: &[f64]) {
        match self.histograms.get(name) {
            Some(h) => assert_eq!(
                h.bounds, bounds,
                "histogram {name:?} re-registered with different bounds"
            ),
            None => {
                self.histograms
                    .insert(name.to_string(), Histogram::new(bounds));
            }
        }
    }

    /// Records one observation into histogram `name`.
    ///
    /// # Panics
    /// If the histogram was never registered — an unregistered observe is
    /// an instrumentation bug, not a runtime condition.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram {name:?} observed before registration"))
            .observe(value);
    }

    /// Reads histogram `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges `other` into `self`: counters add, gauges take the max,
    /// histograms add bucket-wise. Associative and order-independent
    /// (proptested), so parallel shards can be reduced in any tree shape.
    pub fn merge(&mut self, other: &ObsRegistry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(f64::MIN);
            if v > *g {
                *g = v;
            }
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Encodes the full registry (counters, gauges, histograms).
    pub fn snapshot_into(&self, w: &mut epa_simcore::snap::SnapWriter) {
        let counters: Vec<_> = self.counters.iter().collect();
        w.seq(&counters, |w, (k, v)| {
            w.str(k);
            w.u64(**v);
        });
        let gauges: Vec<_> = self.gauges.iter().collect();
        w.seq(&gauges, |w, (k, v)| {
            w.str(k);
            w.f64(**v);
        });
        let histograms: Vec<_> = self.histograms.iter().collect();
        w.seq(&histograms, |w, (k, h)| {
            w.str(k);
            w.seq(&h.bounds, |w, &b| w.f64(b));
            w.seq(&h.counts, |w, &c| w.u64(c));
            w.u64(h.total);
            w.f64(h.sum);
        });
    }

    /// Decodes a registry written by [`ObsRegistry::snapshot_into`].
    pub fn restore_from(
        r: &mut epa_simcore::snap::SnapReader<'_>,
    ) -> Result<Self, epa_simcore::snap::SnapshotError> {
        let counters = r.seq(|r| Ok((r.str()?, r.u64()?)))?.into_iter().collect();
        let gauges = r.seq(|r| Ok((r.str()?, r.f64()?)))?.into_iter().collect();
        let histograms: BTreeMap<String, Histogram> = r
            .seq(|r| {
                let name = r.str()?;
                let bounds = r.seq(epa_simcore::snap::SnapReader::f64)?;
                let counts = r.seq(epa_simcore::snap::SnapReader::u64)?;
                let total = r.u64()?;
                let sum = r.f64()?;
                if counts.len() != bounds.len() + 1 {
                    return Err(epa_simcore::snap::SnapshotError::Corrupt {
                        detail: format!(
                            "histogram {name:?}: {} counts for {} bounds",
                            counts.len(),
                            bounds.len()
                        ),
                    });
                }
                Ok((
                    name,
                    Histogram {
                        bounds,
                        counts,
                        total,
                        sum,
                    },
                ))
            })?
            .into_iter()
            .collect();
        Ok(ObsRegistry {
            counters,
            gauges,
            histograms,
        })
    }

    /// Renders the Prometheus text exposition format. Metric names are
    /// sanitized (`/`, `-`, etc. become `_`) and prefixed `epa_`.
    #[must_use]
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, &v) in &self.counters {
            let m = prom_name(name);
            out.push_str(&format!("# TYPE {m} counter\n{m} {v}\n"));
        }
        for (name, &v) in &self.gauges {
            let m = prom_name(name);
            out.push_str(&format!("# TYPE {m} gauge\n{m} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let m = prom_name(name);
            out.push_str(&format!("# TYPE {m} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &bound) in h.bounds.iter().enumerate() {
                cumulative += h.counts[i];
                out.push_str(&format!("{m}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{m}_bucket{{le=\"+Inf\"}} {}\n", h.total));
            out.push_str(&format!("{m}_sum {}\n", h.sum));
            out.push_str(&format!("{m}_count {}\n", h.total));
        }
        out
    }

    /// Emits the schema-versioned JSON exposition document.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "schema_version".to_string(),
                Value::UInt(u64::from(OBS_SCHEMA_VERSION)),
            ),
            ("kind".to_string(), Value::String("epa-obs-metrics".into())),
            ("counters".to_string(), self.counters.to_value()),
            ("gauges".to_string(), self.gauges.to_value()),
            ("histograms".to_string(), self.histograms.to_value()),
        ])
    }
}

impl Serialize for ObsRegistry {
    fn to_value(&self) -> Value {
        self.to_json()
    }
}

/// Sanitizes a slash-namespaced metric name into a Prometheus metric name:
/// `sched/wait_secs` → `epa_sched_wait_secs`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("epa_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = ObsRegistry::new();
        r.incr("jobs/started", 3);
        r.incr("jobs/started", 2);
        r.set_gauge("queue/depth", 7.0);
        r.gauge_max("queue/depth_peak", 4.0);
        r.gauge_max("queue/depth_peak", 9.0);
        r.gauge_max("queue/depth_peak", 2.0);
        assert_eq!(r.counter("jobs/started"), 5);
        assert_eq!(r.counter("jobs/never"), 0);
        assert_eq!(r.gauge("queue/depth"), Some(7.0));
        assert_eq!(r.gauge("queue/depth_peak"), Some(9.0));
    }

    #[test]
    fn histogram_bucket_placement() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.observe(0.5); // <= 1.0
        h.observe(1.0); // <= 1.0 (inclusive upper bound)
        h.observe(5.0); // <= 10.0
        h.observe(1000.0); // overflow
        assert_eq!(h.counts, vec![2, 1, 0, 1]);
        assert_eq!(h.total, 4);
        assert!((h.sum - 1006.5).abs() < 1e-9);
        assert!((h.mean() - 251.625).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unordered_bounds_rejected() {
        let _ = Histogram::new(&[10.0, 1.0]);
    }

    #[test]
    fn quantile_walks_cumulative_buckets() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        assert_eq!(h.quantile(0.5), 0.0); // empty
        for v in [0.5, 0.6, 5.0, 5.0, 50.0, 50.0, 50.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.25), 1.0);
        assert_eq!(h.quantile(0.5), 10.0);
        assert_eq!(h.quantile(0.9), 100.0);
        // Overflow observations saturate to the last finite bound.
        h.observe(1e6);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn shape_mismatch_merge_rejected() {
        let mut a = Histogram::new(&[1.0]);
        let b = Histogram::new(&[2.0]);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "before registration")]
    fn unregistered_observe_panics() {
        let mut r = ObsRegistry::new();
        r.observe("nope", 1.0);
    }

    #[test]
    fn merge_adds_and_maxes() {
        let mut a = ObsRegistry::new();
        a.incr("c", 1);
        a.gauge_max("g", 5.0);
        a.register_histogram("h", &[1.0, 2.0]);
        a.observe("h", 0.5);

        let mut b = ObsRegistry::new();
        b.incr("c", 2);
        b.incr("only_b", 7);
        b.gauge_max("g", 3.0);
        b.register_histogram("h", &[1.0, 2.0]);
        b.observe("h", 1.5);
        b.observe("h", 9.0);

        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("only_b"), 7);
        assert_eq!(a.gauge("g"), Some(5.0));
        let h = a.histogram("h").unwrap();
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.total, 3);
    }

    #[test]
    fn prometheus_exposition_format() {
        let mut r = ObsRegistry::new();
        r.incr("jobs/started", 5);
        r.set_gauge("power/headroom_watts", 1200.5);
        r.register_histogram("sched/wait_secs", &[60.0, 300.0]);
        r.observe("sched/wait_secs", 10.0);
        r.observe("sched/wait_secs", 100.0);
        r.observe("sched/wait_secs", 999.0);
        let text = r.to_prometheus_text();
        assert!(text.contains("# TYPE epa_jobs_started counter\nepa_jobs_started 5\n"));
        assert!(text.contains("epa_power_headroom_watts 1200.5\n"));
        // Buckets are cumulative in the exposition.
        assert!(text.contains("epa_sched_wait_secs_bucket{le=\"60\"} 1\n"));
        assert!(text.contains("epa_sched_wait_secs_bucket{le=\"300\"} 2\n"));
        assert!(text.contains("epa_sched_wait_secs_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("epa_sched_wait_secs_count 3\n"));
    }

    #[test]
    fn json_exposition_is_schema_versioned() {
        let mut r = ObsRegistry::new();
        r.incr("c", 1);
        let text = serde_json::to_string(&r.to_json()).unwrap();
        assert!(text.starts_with("{\"schema_version\":1,\"kind\":\"epa-obs-metrics\""));
        assert!(text.contains("\"counters\":{\"c\":1}"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Observations on a dyadic lattice (multiples of 1/32), so f64 sums
    /// are exact and merge associativity holds bit-for-bit. Counters,
    /// bucket counts, totals, and max-gauges are associative for *all*
    /// inputs; histogram sums are exact whenever observations fit the
    /// mantissa, which seconds/watts-scale metrics always do.
    fn arb_observations() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec((-32_000i64..320_000).prop_map(|n| n as f64 / 32.0), 0..200)
    }

    fn registry_from(obs: &[f64], counter_bump: u64) -> ObsRegistry {
        let mut r = ObsRegistry::new();
        r.register_histogram("h", &[0.0, 10.0, 100.0, 1000.0]);
        for &v in obs {
            r.observe("h", v);
            r.incr("n", 1);
        }
        r.incr("bump", counter_bump);
        r.gauge_max("peak", obs.iter().copied().fold(f64::MIN, f64::max));
        r
    }

    proptest! {
        /// Bucket counts always sum to the total observation count.
        #[test]
        fn bucket_counts_sum_to_total(obs in arb_observations()) {
            let mut h = Histogram::new(&[0.0, 10.0, 100.0, 1000.0]);
            for &v in &obs {
                h.observe(v);
            }
            prop_assert_eq!(h.counts.iter().sum::<u64>(), h.total);
            prop_assert_eq!(h.total, obs.len() as u64);
        }

        /// Registry merge is associative and order-independent: merging
        /// (a+b)+c and a+(b+c) and c+(b+a) all expose identical JSON —
        /// the same guarantee the campaign runner's parallel outcome
        /// reduction relies on.
        #[test]
        fn merge_associative_and_commutative(
            xa in arb_observations(),
            xb in arb_observations(),
            xc in arb_observations(),
            (ka, kb, kc) in ((0u64..50), (0u64..50), (0u64..50)),
        ) {
            let a = registry_from(&xa, ka);
            let b = registry_from(&xb, kb);
            let c = registry_from(&xc, kc);

            // (a + b) + c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);

            // a + (b + c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);

            // c + b + a (reversed order)
            let mut rev = c.clone();
            rev.merge(&b);
            rev.merge(&a);

            let render = |r: &ObsRegistry| serde_json::to_string(&r.to_json()).unwrap();
            prop_assert_eq!(render(&left), render(&right));
            prop_assert_eq!(render(&left), render(&rev));
        }
    }
}
