//! The metric vocabulary, and the run's output: a human-readable table
//! followed by one JSON line.

use std::collections::BTreeMap;

/// A declared metric: name, unit, and which direction is better.
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn decl(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl { name, unit, better }
}

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one; what "low", "high" and a request are differs by workload
/// (see `main.rs`).
pub const END_TO_END: &[Decl] = &[
    decl("setup_s", "s", "lower"),
    decl("peak_rss_mb", "MB", "lower"),
    decl("fit_ms", "ms", "lower"),
    decl("holdout_accuracy", "fraction", "higher"),
    decl("score_rows_per_s", "1/s", "higher"),
    decl("disk_score_rows_per_s", "1/s", "higher"),
    decl("low.p50_us", "us", "lower"),
    decl("low.p90_us", "us", "lower"),
    decl("high.p50_us", "us", "lower"),
    decl("sustained_rps", "1/s", "higher"),
    decl("delta_apply_ms", "ms", "lower"),
];

/// Per-layer metrics, from the traced run. A layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: &[Decl] = &[
    decl("synth.generate_ms", "ms", "lower"),
    decl("serve.plan.compile_ms", "ms", "lower"),
    decl("storage.spill_ms", "ms", "lower"),
    decl("core.learner.find_best_literal_ms", "ms", "lower"),
    decl("core.learner.find_best_literal_calls", "count", "lower"),
    decl("core.propagation.apply_literal_ms", "ms", "lower"),
    decl("core.search.literals_considered", "count", "lower"),
    decl("core.propagation.ids_propagated", "count", "lower"),
    decl("core.propagation.ids_per_scored_row", "count", "lower"),
    decl("core.stats.hit_rate", "fraction", "higher"),
    decl("core.stats.bytes", "bytes", "lower"),
    decl("core.predict_ms", "ms", "lower"),
    decl("serve.eval.all_ms", "ms", "lower"),
    decl("storage.pool_hit_rate", "fraction", "higher"),
    decl("storage.pool_misses", "count", "lower"),
    decl("serve.eval.b1_us", "us", "lower"),
    decl("serve.eval.b8_us", "us", "lower"),
    decl("serve.eval.b64_us", "us", "lower"),
    decl("serve.overlay.b1_us", "us", "lower"),
    decl("serve.server.queue_wait_p50_us", "us", "lower"),
    decl("serve.server.queue_wait_p99_us", "us", "lower"),
    decl("serve.server.eval_p50_us", "us", "lower"),
    decl("serve.server.batch_self_p50_us", "us", "lower"),
    decl("serve.server.mean_batch_rows", "rows", "higher"),
    decl("serve.server.shed", "count", "lower"),
    decl("net.wire_errors", "count", "lower"),
    decl("net.parse_p50_us", "us", "lower"),
    decl("net.write_p50_us", "us", "lower"),
    decl("net.request_self_p50_us", "us", "lower"),
    decl("net.unattributed_p50_us", "us", "lower"),
    decl("relational.apply_delta_ms", "ms", "lower"),
    decl("serve.shard.install_ms", "ms", "lower"),
    decl("serve.shard.max_over_mean_requests", "ratio", "lower"),
    decl("loadgen.lag_p99_us", "us", "lower"),
    decl("obs.trace_overhead_pct", "%", "lower"),
    decl("obs.stage_sum_error_pct", "%", "lower"),
];

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
    /// Printed in the table but not part of the result: numbers too
    /// noisy on a shared machine to gate on (see `Report::info`).
    info: Vec<(String, f64, &'static str, usize)>,
    /// Answers checked.
    pub attempted: u64,
    /// Answers that were wrong, refused, errored or never came.
    pub failed: u64,
    /// Why answers failed (first few).
    pub failures: Vec<String>,
}

impl Report {
    /// Records `value` for the declared metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    /// Records a percentile or median together with its sample count.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, Some(samples)));
    }

    /// Records a number for the table only, with its sample count.
    pub fn info(&mut self, name: String, value: f64, unit: &'static str, samples: usize) {
        self.info.push((name, value, unit, samples));
    }

    /// Counts one checked answer; a wrong one is kept with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(why());
            }
        }
    }

    /// The human-readable table and the final JSON line, for the metrics
    /// of `decls`. Fails when a declared metric is missing or not finite.
    pub fn render(&self, workload: &str, decls: &[Decl]) -> Result<String, String> {
        let mut table = String::new();
        let mut json = String::new();
        for (i, d) in decls.iter().enumerate() {
            let Some(&(value, samples)) = self.values.get(d.name) else {
                return Err(format!("metric {} was not measured", d.name));
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", d.name));
            }
            let n = samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            table.push_str(&format!(
                "{workload:>8}  {:<40} {:>16.4} {:<8} {} is better{n}\n",
                d.name, value, d.unit, d.better
            ));
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        for (name, value, unit, n) in &self.info {
            table.push_str(&format!(
                "{workload:>8}  {name:<40} {value:>16.4} {unit:<8} (not gated, n={n})\n"
            ));
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        table.push_str(&format!(
            "{workload:>8}  {:<40} {:>16.4} {:<8} lower is better  ({} of {} answers)\n",
            "failed_frac", failed_frac, "fraction", self.failed, self.attempted
        ));
        for f in &self.failures {
            table.push_str(&format!("{workload:>8}  FAILED: {f}\n"));
        }
        Ok(format!(
            "{table}{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_prints_a_table_then_one_json_line() {
        let mut r = Report::default();
        r.set("setup_s", 0.5);
        r.set_n("low.p50_us", 123.25, 1000);
        r.check(true, String::new);
        let out = r
            .render("online", &[decl("setup_s", "s", "lower"), decl("low.p50_us", "us", "lower")])
            .unwrap();
        let last = out.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"low.p50_us\": {\"value\": 123.25, \"unit\": \"us\"}}}"
        );
        assert!(out.contains("(n=1000)"));
    }

    #[test]
    fn missing_or_infinite_metrics_are_errors() {
        let mut r = Report::default();
        assert!(r.render("x", &[decl("a", "s", "lower")]).is_err());
        r.set("a", f64::INFINITY);
        assert!(r.render("x", &[decl("a", "s", "lower")]).is_err());
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let mut r = Report::default();
        r.set("a", 1.0);
        r.check(false, || "row 3: got 1, want 0".into());
        let out = r.render("x", &[decl("a", "s", "lower")]).unwrap();
        assert!(out.contains("FAILED: row 3"));
        assert!(out
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }

    /// `BENCHMARK.json` at the repository root must declare exactly these
    /// metrics, with these units and directions.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (section, decls) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let start = text.find(section).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let entries = body.matches("\"name\"").count();
            assert_eq!(entries, decls.len(), "{section} lists every declared metric once");
            for d in decls {
                let needle = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name, d.unit, d.better
                );
                assert!(body.contains(&needle), "{section} is missing {needle}");
            }
        }
    }
}
