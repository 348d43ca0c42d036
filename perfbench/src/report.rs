//! Result records, correctness bookkeeping and the output format.

use paraconv::serve::ServeStats;
use serde_json::{Map, Number, Value};

use crate::stats::median;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// End-to-end metrics every workload reports with `--trace 0`, in
/// print order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("sustained_rps", "1/s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_kb", "KB"),
    ("plan_cycles", "cycles"),
];

/// Per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("synth.graph_us", "us"),
    ("registry.request_key_us", "us"),
    ("registry.encode_us", "us"),
    ("registry.decode_us", "us"),
    ("registry.json_parse_us", "us"),
    ("registry.hash_mb_s", "MB/s"),
    ("registry.put_us", "us"),
    ("registry.get_us", "us"),
    ("sched.schedule_us", "us"),
    ("sched.kernel_us", "us"),
    ("sched.analysis_us", "us"),
    ("sched.alloc_us", "us"),
    ("sched.retime_us", "us"),
    ("sched.emit_us", "us"),
    ("alloc.dp_cells", "count"),
    ("verify.outcome_us", "us"),
    ("pim.simulate_us", "us"),
    ("pim.events", "count"),
    ("pim.ns_per_event", "ns"),
    ("serve.submit_us", "us"),
    ("serve.answer_hit_us", "us"),
    ("serve.answer_miss_us", "us"),
    ("serve.hit_share", "share"),
    ("serve.cache_lookup_us", "us"),
    ("serve.shed_share", "share"),
    ("obs.overhead_ratio", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// One answered request, as a traced serving loop saw it.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Answered `ok`.
    pub ok: bool,
    /// Served from the cache.
    pub cached: bool,
    /// Time inside `ServeCore::submit`.
    pub submit_us: f64,
    /// From `submit` returning to the answer being collected.
    pub answer_us: f64,
}

/// The serve-side per-layer metrics of a traced loop, with the share
/// of requests refused for overload, the generator's lateness and the
/// tracing overhead measured around it.
#[must_use]
pub fn serve_metrics(
    answers: &[Answer],
    shed_share: f64,
    late_p99_ms: f64,
    overhead: f64,
) -> Vec<Metric> {
    let ok: Vec<&Answer> = answers.iter().filter(|a| a.ok).collect();
    let answer_us = |cached: bool| {
        median(
            &ok.iter()
                .filter(|a| a.cached == cached)
                .map(|a| a.answer_us)
                .collect::<Vec<_>>(),
        )
    };
    vec![
        metric(
            "serve.submit_us",
            median(&answers.iter().map(|a| a.submit_us).collect::<Vec<_>>()),
            "us",
        ),
        metric("serve.answer_hit_us", answer_us(true), "us"),
        metric("serve.answer_miss_us", answer_us(false), "us"),
        metric(
            "serve.hit_share",
            ok.iter().filter(|a| a.cached).count() as f64 / ok.len().max(1) as f64,
            "share",
        ),
        metric("serve.shed_share", shed_share, "share"),
        metric("loadgen.late_p99_ms", late_p99_ms, "ms"),
        metric("trace.overhead_ratio", overhead, "ratio"),
    ]
}

/// Correctness checks of one run. Any failure makes the run incorrect
/// and the command exit non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    passed: u64,
    failed: u64,
    /// The first [`MAX_KEPT_FAILURES`] failure descriptions.
    failures: Vec<String>,
}

/// Failure descriptions kept for printing; later ones are only counted.
const MAX_KEPT_FAILURES: usize = 50;

impl Checks {
    /// Records one check; `detail` is only built on failure.
    pub fn expect(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.fail(detail());
        }
    }

    /// Records one failed check.
    pub fn fail(&mut self, detail: String) {
        self.failed += 1;
        if self.failures.len() < MAX_KEPT_FAILURES {
            self.failures.push(detail);
        }
    }

    /// Number of checks that passed.
    #[must_use]
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Number of checks that failed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first failure descriptions.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Did every check pass?
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}

/// The serving conservation laws for one server's lifetime: every
/// submission is accounted once (`accepted + refused == submitted`),
/// every accepted request is answered (`accepted == served + deadline +
/// failed`), and the server's `served` equals the `ok` answers the
/// clients saw.
pub fn check_conservation(s: &ServeStats, submitted: u64, ok: u64, checks: &mut Checks) {
    checks.expect(s.accepted == s.served + s.deadline + s.failed, || {
        format!(
            "conservation broken: accepted {} != served {} + deadline {} + failed {}",
            s.accepted, s.served, s.deadline, s.failed
        )
    });
    let refused = s.shed + s.draining + s.invalid + s.quota + s.circuit_open;
    checks.expect(s.accepted + refused == submitted, || {
        format!(
            "{submitted} submitted but {} accepted + {refused} refused",
            s.accepted
        )
    });
    checks.expect(s.served == ok, || {
        format!(
            "server counted {} served, clients saw {ok} ok answers",
            s.served
        )
    });
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics (end-to-end or per-layer, by mode).
    pub metrics: Vec<Metric>,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Attempted operations refused, failed, or answered wrongly.
    pub failed: u64,
    /// Human-readable context lines (sample counts, percentiles used).
    pub notes: Vec<String>,
    /// Correctness checks.
    pub checks: Checks,
}

impl Outcome {
    /// Share of attempted operations that did not succeed.
    #[must_use]
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn number(v: f64) -> Value {
    Value::Number(Number::from_f64(v).unwrap_or_else(|| Number::from_u64(0)))
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit, as one JSON object.
#[must_use]
pub fn result_line(outcome: &Outcome) -> String {
    let mut metrics = Map::new();
    for m in &outcome.metrics {
        let mut entry = Map::new();
        entry.insert("unit".into(), Value::String(m.unit.to_owned()));
        entry.insert("value".into(), number(m.value));
        metrics.insert(m.name.to_owned(), Value::Object(entry));
    }
    let mut obj = Map::new();
    obj.insert(
        "attempted".into(),
        Value::Number(Number::from_u64(outcome.attempted)),
    );
    obj.insert("correct".into(), Value::Bool(outcome.checks.ok()));
    obj.insert(
        "failed".into(),
        Value::Number(Number::from_u64(outcome.failed)),
    );
    obj.insert("metrics".into(), Value::Object(metrics));
    serde_json::to_string(&Value::Object(obj))
}

/// Checks that `metrics` holds exactly the names of `expected`, each
/// once, with the expected unit and a finite value.
///
/// # Errors
///
/// The first mismatch found.
pub fn check_complete(metrics: &[Metric], expected: &[(&str, &str)]) -> Result<(), String> {
    if metrics.len() != expected.len() {
        return Err(format!(
            "{} metrics reported, {} expected",
            metrics.len(),
            expected.len()
        ));
    }
    for (name, unit) in expected {
        let found: Vec<_> = metrics.iter().filter(|m| m.name == *name).collect();
        match found.as_slice() {
            [m] if m.unit == *unit && m.value.is_finite() => {}
            [m] => return Err(format!("{name}: unit {} value {}", m.unit, m.value)),
            _ => return Err(format!("{name} reported {} times", found.len())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            metrics: vec![metric("p50_ms", 1.25, "ms")],
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        let line = result_line(&outcome);
        let v = serde_json::from_str(&line).expect("valid JSON");
        let obj = v.as_object().expect("object");
        let keys: Vec<_> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        let p50 = v
            .get("metrics")
            .and_then(|m| m.get("p50_ms"))
            .expect("metric");
        assert_eq!(p50.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
        outcome.checks.fail("wrong key".into());
        let v = serde_json::from_str(&result_line(&outcome)).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert!((outcome.fail_share() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn completeness() {
        let all: Vec<Metric> = END_TO_END.iter().map(|&(n, u)| metric(n, 1.0, u)).collect();
        assert!(check_complete(&all, &END_TO_END).is_ok());
        assert!(check_complete(&all[1..], &END_TO_END).is_err());
        let mut bad = all.clone();
        bad[0].value = f64::NAN;
        assert!(check_complete(&bad, &END_TO_END).is_err());
    }
}
