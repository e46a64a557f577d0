//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of the catalogue that matches the
//! run (end-to-end untraced, per-layer traced), so one name means one
//! thing across runs. A per-layer metric of a layer the workload never
//! calls reads 0: the trace saw no work there.

use crate::stats::{median, Summary};
use std::collections::BTreeMap;

/// `(name, unit)` of each end-to-end metric, measured with tracing off.
/// Each workload defines "request" and "write" as stated in README.md.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("stored_bytes_per_user_byte", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Layers the self-time metrics cover (span-name prefixes).
pub const LAYERS: &[&str] = &[
    "bench",
    "core.query",
    "exec.plan",
    "core.db",
    "core.engine",
    "core.checkpoint",
    "core.recover",
    "recovery.device",
    "recovery.disk",
];

/// Operator kinds of `QueryOutput.profile`, by label prefix.
pub const OP_KINDS: &[&str] = &[
    "scan", "select", "filter", "join", "project", "distinct", "cached",
];

/// `(name, unit)` of each per-layer metric, measured in the traced run.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("exec.plan.explain_us", "us"),
        ("exec.plan.join_regret.small_outer", "ratio"),
        ("exec.plan.join_regret.large_outer", "ratio"),
        ("core.query.outside_ops_us", "us"),
        ("exec.rows_examined_per_row", "ratio"),
        ("index.comparisons_per_query", "count"),
        ("exec.cache.hit_ratio", "ratio"),
        ("exec.cache.evictions", "count"),
        ("exec.cache.delta_applies", "count"),
        ("exec.cache.invalidations", "count"),
        ("exec.cache.repeat_share", "ratio"),
        ("core.engine.read_call_us.p50", "us"),
        ("core.engine.read_call_us.tail", "us"),
        ("core.engine.buffer_call_us.p50", "us"),
        ("core.engine.buffer_call_us.tail", "us"),
        ("core.engine.commit_call_us.p50", "us"),
        ("core.engine.commit_call_us.tail", "us"),
        ("core.engine.attempts_per_commit", "ratio"),
        ("core.engine.txns_per_batch", "ratio"),
        ("lock.requests_per_txn", "count"),
        ("recovery.device.flushes_per_commit", "ratio"),
        ("recovery.disk.writes_per_commit", "ratio"),
        ("recovery.disk.bytes_per_commit", "B"),
        ("recovery.disk.write_amp", "ratio"),
        ("recovery.disk.write_share", "ratio"),
        ("core.checkpoint.ms", "ms"),
        ("core.checkpoint.images", "count"),
        ("core.recover.catalog_ms", "ms"),
        ("core.recover.working_set_ms", "ms"),
        ("core.recover.background_ms", "ms"),
        ("core.recover.index_rebuild_ms", "ms"),
        ("recovery.disk.bytes_read_per_restart", "B"),
        ("trace.overhead_frac", "ratio"),
    ]
    .iter()
    .map(|(n, u)| ((*n).to_string(), *u))
    .collect();
    for kind in OP_KINDS {
        out.push((format!("exec.op.{kind}.self_ms"), "ms"));
    }
    for layer in LAYERS {
        out.push((format!("trace.self_us.{layer}"), "us"));
    }
    out
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (queries, transactions, restart cycles and
    /// their writes).
    pub attempted: u64,
    /// Of those, operations that failed: an error, exhausted retries, a
    /// wrong answer, or an acknowledged write missing after restart.
    pub failed: u64,
    /// Requests (root spans) the traced slices ran; the per-layer self
    /// times are reported per traced request.
    pub traced_requests: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable result lines printed before the result line.
    pub lines: Vec<String>,
}

/// The end-to-end metrics of one untraced run (see README.md for what
/// "request" and "write" mean on each workload).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median set-up time.
    pub setup_s: f64,
    /// Operations per second of the timed phase.
    pub ops_per_s: f64,
    /// Request latency, ms.
    pub request: Summary,
    /// Median write latency, ms.
    pub write_p50_ms: f64,
    /// Disk-copy bytes per byte of live user data.
    pub stored_bytes_per_user_byte: f64,
}

impl Report {
    /// Record the end-to-end metrics, and the peak resident memory.
    pub fn end_to_end(&mut self, e: &EndToEnd) {
        self.set("setup_s", e.setup_s);
        self.set("ops_per_s", e.ops_per_s);
        self.set("p50_ms", e.request.p50);
        self.set("tail_ms", e.request.tail);
        self.set("write_p50_ms", e.write_p50_ms);
        self.set("stored_bytes_per_user_byte", e.stored_bytes_per_user_byte);
        self.set("peak_rss_mb", peak_rss_mb());
    }

    /// Add the set-up line and return the median set-up time.
    pub fn setup_times(&mut self, workload: &str, times: &[f64]) -> f64 {
        let setup_s = median(times);
        self.line(format!(
            "{workload} setup_s {setup_s:?} s (median of {}: {times:?})",
            times.len()
        ));
        setup_s
    }

    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Add a human-readable line.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line for the catalogue `names`: every catalogue metric,
    /// missing ones as 0, in catalogue order.
    ///
    /// # Panics
    /// When the workload reported a metric the catalogue does not name.
    #[must_use]
    pub fn json(&self, names: &[(String, &str)]) -> String {
        for k in self.metrics.keys() {
            assert!(
                names.iter().any(|(n, _)| n == k),
                "metric {k} is not in the catalogue"
            );
        }
        let metrics: Vec<String> = names
            .iter()
            .map(|(n, u)| {
                let v = self.metrics.get(n).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e2e() -> Vec<(String, &'static str)> {
        END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_string(), *u))
            .collect()
    }

    #[test]
    fn result_line_lists_every_catalogue_metric() {
        let mut r = Report::default();
        r.set("p50_ms", 1.25);
        r.check(true);
        let line = r.json(&e2e());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true);
        r.check(false);
        assert!(r
            .json(&e2e())
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_is_a_bug() {
        let mut r = Report::default();
        r.set("latency_ms", 1.0);
        let _ = r.json(&e2e());
    }

    /// `BENCHMARK.json` declares exactly the catalogue, in order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quoted name")].to_string())
                .collect()
        };
        let names = |cat: &[(String, &str)]| cat.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        assert_eq!(section("end_to_end"), names(&e2e()));
        assert_eq!(section("per_layer"), names(&per_layer()));
    }
}
