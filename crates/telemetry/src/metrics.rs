//! The metrics registry: counters, gauges, and fixed-bucket histograms
//! with Prometheus-style text exposition and a JSON export.
//!
//! Determinism contract: metrics are keyed in a `BTreeMap`, histogram
//! buckets are fixed at first observation, and both expositions render
//! with `{}` float formatting — so two runs that record the same
//! logical values produce byte-identical text, regardless of thread
//! budget or recording order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A fixed-bucket histogram (Prometheus semantics: `le` buckets are
/// cumulative in exposition, stored here as per-bucket counts plus an
/// implicit `+Inf` overflow bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<f64>,
    /// Per-bucket counts; `counts[bounds.len()]` is the `+Inf` bucket.
    counts: Vec<u64>,
    /// Sum of all observed values.
    sum: f64,
    /// Number of observations.
    count: u64,
}

impl Histogram {
    /// An empty histogram over `bounds` (must be strictly increasing
    /// and finite).
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Cumulative `(le, count)` pairs, ending with `(+Inf, count)`.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.bounds.len() + 1);
        for (i, &b) in self.bounds.iter().enumerate() {
            acc += self.counts[i];
            out.push((b, acc));
        }
        out.push((f64::INFINITY, self.count));
        out
    }
}

/// The value of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Point-in-time value.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Metric {
    help: String,
    value: MetricValue,
}

/// The registry: named metrics in deterministic (lexicographic) order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `v` to counter `name`, registering it with `help` on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn inc_counter(&mut self, name: &str, help: &str, v: u64) {
        let metric = self.entry(name, help, || MetricValue::Counter(0));
        match &mut metric.value {
            MetricValue::Counter(c) => *c += v,
            other => panic!("metric `{name}` is a {}, not a counter", other.type_name()),
        }
    }

    /// Set gauge `name` to `v`, registering it with `help` on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn set_gauge(&mut self, name: &str, help: &str, v: f64) {
        let metric = self.entry(name, help, || MetricValue::Gauge(0.0));
        match &mut metric.value {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("metric `{name}` is a {}, not a gauge", other.type_name()),
        }
    }

    /// Add `delta` to gauge `name` (gauges may move both ways),
    /// registering it with `help` on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn add_gauge(&mut self, name: &str, help: &str, delta: f64) {
        let metric = self.entry(name, help, || MetricValue::Gauge(0.0));
        match &mut metric.value {
            MetricValue::Gauge(g) => *g += delta,
            other => panic!("metric `{name}` is a {}, not a gauge", other.type_name()),
        }
    }

    /// Observe every value of `values`, in order, into histogram
    /// `name`, registering it with `help` and `bounds` on first use
    /// (later calls keep the first bounds). The family is looked up once
    /// per call, and no values register nothing.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn observe(
        &mut self,
        name: &str,
        help: &str,
        bounds: &[f64],
        values: impl IntoIterator<Item = f64>,
    ) {
        let mut values = values.into_iter().peekable();
        if values.peek().is_none() {
            return;
        }
        let metric = self.entry(name, help, || {
            MetricValue::Histogram(Histogram::new(bounds))
        });
        match &mut metric.value {
            MetricValue::Histogram(h) => values.for_each(|v| h.observe(v)),
            other => panic!(
                "metric `{name}` is a {}, not a histogram",
                other.type_name()
            ),
        }
    }

    /// Look up a registered metric's value.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name).map(|m| &m.value)
    }

    /// Estimate quantile `q` (in `[0, 1]`) of histogram `family` by
    /// Prometheus-style linear interpolation within the owning bucket:
    /// the target rank `q·count` is located in the cumulative
    /// distribution and mapped to a value between the bucket's lower and
    /// upper bound proportionally to its position inside the bucket.
    /// Observations past the last finite bound clamp to that bound (the
    /// `+Inf` bucket has no width to interpolate over), matching
    /// `histogram_quantile` in PromQL. Deterministic: a pure function of
    /// the bucket counts. Returns `None` when `family` is missing, not a
    /// histogram, empty, or `q` is outside `[0, 1]`.
    pub fn histogram_quantile(&self, family: &str, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        let hist = match self.get(family)? {
            MetricValue::Histogram(h) => h,
            _ => return None,
        };
        if hist.count() == 0 {
            return None;
        }
        let cumulative = hist.cumulative();
        let rank = q * hist.count() as f64;
        let mut lower = 0.0f64;
        let mut below = 0u64;
        for &(le, cum) in &cumulative {
            if (cum as f64) >= rank && cum > below {
                if le.is_infinite() {
                    // No upper edge to interpolate toward; clamp to the
                    // highest finite bound (or 0 with no finite buckets).
                    return Some(lower);
                }
                let in_bucket = (cum - below) as f64;
                let into = (rank - below as f64).max(0.0);
                return Some(lower + (le - lower) * (into / in_bucket));
            }
            if le.is_finite() {
                lower = le;
                below = cum;
            }
        }
        Some(lower)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The metric registered as `name`, registering it with `help` and
    /// `init()` first if needed. Only a first registration allocates.
    fn entry(&mut self, name: &str, help: &str, init: impl FnOnce() -> MetricValue) -> &mut Metric {
        if !self.metrics.contains_key(name) {
            let metric = Metric {
                help: help.to_string(),
                value: init(),
            };
            self.metrics.insert(name.to_string(), metric);
        }
        self.metrics.get_mut(name).expect("metric registered above")
    }

    /// Prometheus text exposition (format version 0.0.4): `# HELP` /
    /// `# TYPE` headers plus samples, families in lexicographic order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            let _ = writeln!(out, "# HELP {name} {}", metric.help);
            let _ = writeln!(out, "# TYPE {name} {}", metric.value.type_name());
            match &metric.value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{name} {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{name} {g}");
                }
                MetricValue::Histogram(h) => {
                    for (le, count) in h.cumulative() {
                        if le.is_finite() {
                            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {count}");
                        } else {
                            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }

    /// JSON export: `{"metrics": [{name, help, type, ...}, ...]}` in
    /// the same deterministic order as the Prometheus exposition.
    pub fn to_json_value(&self) -> serde::Value {
        let metrics: Vec<serde::Value> = self
            .metrics
            .iter()
            .map(|(name, metric)| {
                let mut fields = vec![
                    ("name".to_string(), serde::Value::String(name.clone())),
                    (
                        "help".to_string(),
                        serde::Value::String(metric.help.clone()),
                    ),
                    (
                        "type".to_string(),
                        serde::Value::String(metric.value.type_name().to_string()),
                    ),
                ];
                match &metric.value {
                    MetricValue::Counter(c) => {
                        fields.push(("value".to_string(), serde::Value::UInt(*c)));
                    }
                    MetricValue::Gauge(g) => {
                        fields.push(("value".to_string(), serde::Value::Float(*g)));
                    }
                    MetricValue::Histogram(h) => {
                        let buckets: Vec<serde::Value> = h
                            .cumulative()
                            .into_iter()
                            .map(|(le, count)| {
                                serde::Value::Object(vec![
                                    (
                                        "le".to_string(),
                                        if le.is_finite() {
                                            serde::Value::Float(le)
                                        } else {
                                            serde::Value::String("+Inf".to_string())
                                        },
                                    ),
                                    ("count".to_string(), serde::Value::UInt(count)),
                                ])
                            })
                            .collect();
                        fields.push(("buckets".to_string(), serde::Value::Array(buckets)));
                        fields.push(("sum".to_string(), serde::Value::Float(h.sum())));
                        fields.push(("count".to_string(), serde::Value::UInt(h.count())));
                    }
                }
                serde::Value::Object(fields)
            })
            .collect();
        serde::Value::Object(vec![("metrics".to_string(), serde::Value::Array(metrics))])
    }

    /// The JSON export rendered as deterministic pretty text (one
    /// trailing newline), the `--metrics-out` format.
    pub fn to_json(&self) -> String {
        let rendered =
            serde_json::to_string_pretty(&self.to_json_value()).expect("metrics serialize");
        format!("{rendered}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_is_ordered_and_typed() {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter("zeta_total", "last family", 3);
        reg.set_gauge("alpha_ratio", "first family", 0.5);
        reg.inc_counter("zeta_total", "last family", 2);
        let prom = reg.to_prometheus();
        let alpha = prom.find("alpha_ratio").expect("gauge present");
        let zeta = prom.find("zeta_total").expect("counter present");
        assert!(alpha < zeta, "families must be lexicographic");
        assert!(prom.contains("# TYPE alpha_ratio gauge"));
        assert!(prom.contains("zeta_total 5"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut reg = MetricsRegistry::new();
        for v in [0.5, 1.5, 1.5, 9.0] {
            reg.observe("lat", "latency", &[1.0, 2.0, 4.0], [v]);
        }
        let prom = reg.to_prometheus();
        assert!(prom.contains("lat_bucket{le=\"1\"} 1"));
        assert!(prom.contains("lat_bucket{le=\"2\"} 3"));
        assert!(prom.contains("lat_bucket{le=\"4\"} 3"));
        assert!(prom.contains("lat_bucket{le=\"+Inf\"} 4"));
        assert!(prom.contains("lat_count 4"));
    }

    #[test]
    fn json_and_prometheus_agree_on_order() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("b_gauge", "b", 1.0);
        reg.inc_counter("a_total", "a", 1);
        let json = reg.to_json();
        let a = json.find("a_total").expect("a present");
        let b = json.find("b_gauge").expect("b present");
        assert!(a < b);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("x", "x", 1.0);
        reg.inc_counter("x", "x", 1);
    }

    #[test]
    fn histogram_quantile_interpolates_within_buckets() {
        let mut reg = MetricsRegistry::new();
        // 10 observations spread as: 4 in (0,10], 4 in (10,20], 2 in +Inf.
        for v in [1.0, 2.0, 5.0, 9.0, 11.0, 12.0, 15.0, 19.0, 30.0, 40.0] {
            reg.observe("lat", "latency", &[10.0, 20.0], [v]);
        }
        // p50: rank 5 lands in the second bucket (cum 4 -> 8);
        // 10 + 10 * (5-4)/4 = 12.5.
        let p50 = reg
            .histogram_quantile("lat", 0.5)
            .expect("histogram present");
        assert!((p50 - 12.5).abs() < 1e-9, "p50 = {p50}");
        // p20: rank 2 in the first bucket: 0 + 10 * 2/4 = 5.
        let p20 = reg
            .histogram_quantile("lat", 0.2)
            .expect("histogram present");
        assert!((p20 - 5.0).abs() < 1e-9, "p20 = {p20}");
        // p99: rank 9.9 falls in the +Inf bucket -> clamp to 20.
        let p99 = reg
            .histogram_quantile("lat", 0.99)
            .expect("histogram present");
        assert!((p99 - 20.0).abs() < 1e-9, "p99 = {p99}");
    }

    #[test]
    fn histogram_quantile_rejects_bad_inputs() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.histogram_quantile("missing", 0.5), None);
        reg.inc_counter("ctr", "not a histogram", 1);
        assert_eq!(reg.histogram_quantile("ctr", 0.5), None);
        reg.observe("h", "empty later", &[1.0], [0.5]);
        assert_eq!(reg.histogram_quantile("h", 1.5), None);
        assert_eq!(reg.histogram_quantile("h", -0.1), None);
    }

    #[test]
    fn histogram_quantile_is_deterministic_across_insert_order() {
        let values = [3.0, 7.0, 1.0, 9.0, 4.0];
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        for v in values {
            a.observe("h", "h", &[2.0, 4.0, 8.0], [v]);
        }
        for v in values.iter().rev() {
            b.observe("h", "h", &[2.0, 4.0, 8.0], [*v]);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
            assert_eq!(a.histogram_quantile("h", q), b.histogram_quantile("h", q));
        }
    }
}
