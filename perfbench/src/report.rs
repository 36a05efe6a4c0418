//! What one workload run measured, checked and counted, and how it is
//! printed: a line per metric with unit, sample count, median and spread,
//! then the one-line JSON result.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (reported with tracing off), with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("campaign.points_per_s", "points/s"),
    ("publish_s", "s"),
    ("search_s", "s"),
    ("serve.rps", "req/s"),
    ("serve.p50_us", "us"),
];

/// Per-layer metrics (reported by the traced run), with their units.
/// `serve.p99_us` is end-to-end in kind, but on a shared host its spread
/// between runs is wider than any bound an end-to-end metric may carry,
/// so it is reported here, unbounded, and printed by every run.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("space.sample_points_ms", "ms"),
    ("iobench.workload_us", "us"),
    ("fsim.run_us", "us"),
    ("fsim.run_total_ms", "ms"),
    ("fsim.run_calls", "count"),
    ("cloudsim.runs", "count"),
    ("cloudsim.pool_miss_ratio", "ratio"),
    ("journal.append_ms", "ms"),
    ("journal.group_commits", "count"),
    ("journal.entries_per_commit", "count"),
    ("store.ingest_ms", "ms"),
    ("store.wal_batches", "count"),
    ("store.fsync_us", "us"),
    ("store.open_ms", "ms"),
    ("store.compact_ms", "ms"),
    ("store.hash_ms", "ms"),
    ("store.snapshot_write_ms", "ms"),
    ("predictor.train_ms", "ms"),
    ("cart.fit_ms", "ms"),
    ("cart.compile_ms", "ms"),
    ("campaign.sim_runs_per_point", "count"),
    ("search.plan_ms", "ms"),
    ("search.collect_ms", "ms"),
    ("search.rounds", "count"),
    ("search.measurements", "count"),
    ("search.sim_runs", "count"),
    ("search.sim_runs_per_measurement", "count"),
    ("serve.p99_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.predict_us.p50", "us"),
    ("serve.predict_us.p99", "us"),
    ("serve.cache_hit_us.p50", "us"),
    ("serve.cache_hit_us.p99", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.shed_ratio", "ratio"),
    ("serve.requests_per_batch", "count"),
    ("predictor.top_k_us", "us"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("snapshot.publish_us", "us"),
    ("trace.spans", "count"),
    ("trace.blocking_ms", "ms"),
    ("trace.residual_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// A metric's measurements.  Repeated measurements are summarised by their
/// mean, not their median: per-repeat times on a shared host fall into
/// slow and fast modes, and a median over a few dozen repeats jumps between
/// the modes from one run to the next where the mean moves smoothly.
enum Series {
    /// Repeated durations; the value is their mean.
    Samples(Vec<f64>),
    /// Repeated `(amount, seconds)` pairs; the value is the total amount
    /// over the total seconds.
    Rate(Vec<(f64, f64)>),
    /// One value derived from a larger population (a latency quantile over
    /// every request, a peak), with that population's size.
    Derived { value: f64, n: u64 },
}

impl Series {
    /// Per-repeat values, for the printed spread.
    fn per_repeat(&self) -> Option<Vec<f64>> {
        match self {
            Series::Samples(v) => Some(v.clone()),
            Series::Rate(v) => Some(v.iter().map(|(a, s)| a / s).collect()),
            Series::Derived { .. } => None,
        }
    }
}

#[derive(Default)]
pub struct Report {
    e2e: BTreeMap<&'static str, Series>,
    layer: BTreeMap<&'static str, f64>,
    /// Extra lines (tail percentiles, the blocking-path split, notes).
    notes: Vec<String>,
    checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// The host's speed against the reference speed (see
    /// [`Report::set_host_speed`]); `None` reports times as measured.
    host_speed: Option<f64>,
}

impl Report {
    /// Express every end-to-end time and rate at the reference host speed:
    /// a time measured while the host ran this guest at `speed` times the
    /// reference speed is multiplied by `speed`, a rate divided by it.
    pub fn set_host_speed(&mut self, speed: f64) {
        self.host_speed = Some(speed);
    }

    /// `value` of an end-to-end metric in `unit`, at the reference speed.
    fn at_reference(&self, unit: &str, value: f64) -> f64 {
        let speed = self.host_speed.unwrap_or(1.0);
        match unit {
            "s" | "us" => value * speed,
            u if u.ends_with("/s") => value / speed,
            _ => value,
        }
    }

    pub fn sample(&mut self, name: &'static str, x: f64) {
        match self
            .e2e
            .entry(name)
            .or_insert_with(|| Series::Samples(Vec::new()))
        {
            Series::Samples(v) => v.push(x),
            _ => panic!("{name} is not a sampled metric"),
        }
    }

    /// One repeat of a rate metric: `amount` done in `seconds`.
    pub fn rate(&mut self, name: &'static str, amount: f64, seconds: f64) {
        match self
            .e2e
            .entry(name)
            .or_insert_with(|| Series::Rate(Vec::new()))
        {
            Series::Rate(v) => v.push((amount, seconds)),
            _ => panic!("{name} is not a rate metric"),
        }
    }

    pub fn derived(&mut self, name: &'static str, value: f64, n: u64) {
        self.e2e.insert(name, Series::Derived { value, n });
    }

    /// Whether the end-to-end metric `name` has a measurement.
    pub fn has(&self, name: &str) -> bool {
        self.e2e.contains_key(name)
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared layer metric {name}"
        );
        self.layer.insert(name, value);
    }

    pub fn has_layer(&self, name: &str) -> bool {
        self.layer.contains_key(name)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn value(&self, name: &str) -> Option<(f64, u64)> {
        match self.e2e.get(name)? {
            Series::Samples(v) => stats::mean(v).map(|m| (m, v.len() as u64)),
            Series::Rate(v) => {
                let (amount, seconds) = v.iter().fold((0.0, 0.0), |(a, s), (x, y)| (a + x, s + y));
                (!v.is_empty()).then(|| (amount / seconds, v.len() as u64))
            }
            Series::Derived { value, n } => Some((*value, *n)),
        }
    }

    /// Human-readable lines: every metric with unit, sample count, median
    /// and spread; the checks; the notes.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let mut out = String::new();
        for (name, unit) in if traced { &[][..] } else { &END_TO_END[..] } {
            let Some(series) = self.e2e.get(name) else {
                let _ = writeln!(out, "[{workload}] {name:<24} missing");
                continue;
            };
            let measured = self.value(name).map_or(f64::NAN, |(v, _)| v);
            let value = self.at_reference(unit, measured);
            let _ = match series.per_repeat() {
                Some(v) => {
                    let spread = stats::iqr_share(&v)
                        .map_or_else(|| "n/a".to_string(), |s| format!("{:.1}%", 100.0 * s));
                    let tail = stats::tail(&v).map_or_else(
                        || "tail n/a (<11 samples)".to_string(),
                        |(p, x)| format!("p{p:.1} {x:.4}"),
                    );
                    let (lo, hi) = v
                        .iter()
                        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                            (lo.min(x), hi.max(x))
                        });
                    writeln!(
                        out,
                        "[{workload}] {name:<24} {value:>14.4} {unit:<8} n={:<4} as measured: \
                         {measured:.4}, median {:.4} iqr={spread:<7} range {lo:.4}..{hi:.4}  {tail}",
                        v.len(),
                        stats::median(&v).unwrap_or(f64::NAN),
                    )
                }
                None => writeln!(
                    out,
                    "[{workload}] {name:<24} {value:>14.4} {unit:<8} n={} as measured: {measured:.4}",
                    series_n(series)
                ),
            };
        }
        if traced {
            for (name, unit) in PER_LAYER {
                let v = self.layer.get(name).copied().unwrap_or(f64::NAN);
                let _ = writeln!(out, "[{workload}] layer {name:<34} {v:>14.4} {unit}");
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "[{workload}] {n}");
        }
        for (what, ok) in &self.checks {
            let _ = writeln!(
                out,
                "[{workload}] check {}: {what}",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        let _ = writeln!(
            out,
            "[{workload}] attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// end-to-end metric (untraced) or every per-layer metric (traced).
    /// `prefix` namespaces metric names when several workloads share one
    /// result line.
    pub fn json_metrics(&self, traced: bool, prefix: &str, out: &mut Vec<String>) {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for (name, unit) in table {
            let v = if traced {
                self.layer.get(name).copied()
            } else {
                self.value(name).map(|(v, _)| self.at_reference(unit, v))
            };
            out.push(format!(
                "\"{prefix}{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            ));
        }
    }
}

fn series_n(series: &Series) -> u64 {
    match series {
        Series::Derived { n, .. } => *n,
        Series::Samples(v) => v.len() as u64,
        Series::Rate(v) => v.len() as u64,
    }
}

/// A JSON number with every digit, or `null` when not measured.
fn num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:?}"),
        _ => "null".to_string(),
    }
}

pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// `"name": "..."` values inside one top-level section of the file.
    fn names_in(section: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &BENCHMARK_JSON[start..];
        let end = body.find(']').expect("section is a list");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    fn is_metric_name(s: &str) -> bool {
        !s.is_empty()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn benchmark_json_names_are_well_formed() {
        for section in ["workloads", "end_to_end", "per_layer"] {
            let names = names_in(section);
            assert!(!names.is_empty(), "{section} is empty");
            for n in names {
                assert!(
                    is_metric_name(&n),
                    "{section} name {n:?} is not [A-Za-z0-9_.-]+"
                );
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        assert_eq!(names_in("per_layer"), layer);
        assert_eq!(names_in("workloads"), crate::WORKLOADS.to_vec());
    }

    #[test]
    fn result_line_has_every_metric_with_full_digits() {
        let mut r = Report::default();
        // Repeats are summarised by their mean, rates by total over total.
        for x in [0.25, 0.125, 0.5, 0.125] {
            r.sample("setup_s", x);
        }
        r.rate("campaign.points_per_s", 100.0, 0.5);
        r.rate("campaign.points_per_s", 300.0, 1.5);
        r.derived("peak_rss_mb", 12.0625, 1);
        r.count(3, 0);
        let mut m = Vec::new();
        r.json_metrics(false, "", &mut m);
        let line = result_line(r.correct(), r.attempted, r.failed, &m);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 12.0625, \"unit\": \"MiB\"}"));
        assert!(
            line.contains("\"campaign.points_per_s\": {\"value\": 200.0, \"unit\": \"points/s\"}")
        );
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
