//! Per-layer probes for the traced run.
//!
//! A probe replays, from the benchmark's own code, the calls the
//! planner makes into each crate for a workload's own inputs, and
//! times each call: `synth` graph build, `registry` key, codec, hash
//! and store, `sched` (with the phase spans and DP counter the program
//! already records through `paraconv-obs`), `verify` and the `pim`
//! simulator. The calls the benchmark cannot see from outside —
//! those inside `ServeCore` — are covered by the workloads' traced
//! loops instead.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use paraconv::obs;
use paraconv::registry::{decode, sha256_hex, PlanBundle, Registry};
use paraconv::sched::ParaConvScheduler;
use paraconv::serve::PlanCache;
use paraconv::synth::benchmarks;

use crate::catalog::Spec;
use crate::report::{metric, Metric};
use crate::stats::{mean, median};

/// Artifacts above this size are timed once per probe: the vendored
/// JSON parser is quadratic, so repeating them would dominate the run.
const HEAVY_ARTIFACT_BYTES: usize = 48 * 1024;

/// Spans the scheduler records for its phases, and the metric each
/// feeds.
const SCHED_PHASES: [(&str, &str); 5] = [
    ("sched.kernel", "sched.kernel_us"),
    ("sched.retime.analysis", "sched.analysis_us"),
    ("sched.alloc", "sched.alloc_us"),
    ("sched.retime", "sched.retime_us"),
    ("sched.emit", "sched.emit_us"),
];

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Times `reps` calls of `f` and returns the median in microseconds
/// with the last call's result.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        samples.push(micros(start));
        last = Some(out);
    }
    (median(&samples), last.expect("at least one repetition"))
}

/// Per-spec medians, averaged over the workload's probe set.
#[derive(Default)]
struct Table(HashMap<&'static str, Vec<f64>>);

impl Table {
    fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| mean(v))
    }
}

/// Probes every non-serve layer on `specs`, `reps` times each (once
/// for heavy artifacts). `dir` is a scratch directory for the probe's
/// own registry; `cache`, when the workload runs a server, is its live
/// plan cache, probed with `lookup` on each spec's key.
///
/// # Errors
///
/// When any call the planner would make fails on these inputs.
pub fn probe(
    specs: &[Spec],
    reps: usize,
    dir: &Path,
    cache: Option<&PlanCache>,
) -> Result<Vec<Metric>, String> {
    let was_enabled = obs::enabled();
    obs::enable();
    let registry = Registry::open(dir.join("probe-registry")).map_err(|e| e.to_string())?;
    let mut t = Table::default();
    let mut hash_bytes = 0.0;
    let mut hash_us = 0.0;
    let mut sim_us = 0.0;
    let mut sim_events = 0.0;
    for spec in specs {
        let bench = benchmarks::by_name(spec.bench).ok_or("unknown benchmark")?;
        let (graph_us, graph) = time(reps, || bench.graph());
        let graph = graph.map_err(|e| e.to_string())?;
        t.add("synth.graph_us", graph_us);
        let (_, config, policy) = spec.parts()?;
        let (key_us, key) = time(reps, || {
            paraconv::registry::request_key(&graph, &config, &policy)
        });
        t.add("registry.request_key_us", key_us);

        // Scheduling, with the program's own phase spans and counters.
        let mut sched_us = Vec::new();
        let mut phases: HashMap<&str, Vec<f64>> = HashMap::new();
        let mut cells = 0;
        let mut outcome = None;
        for _ in 0..reps.max(1) {
            obs::reset();
            let start = Instant::now();
            let out = ParaConvScheduler::new(config.clone())
                .with_policy(policy.allocation)
                .schedule(&graph, spec.iterations)
                .map_err(|e| format!("{spec}: {e}"))?;
            sched_us.push(micros(start));
            cells = obs::snapshot().counter("dp.cells_filled");
            for span in obs::take_spans() {
                if let Some((name, _)) = SCHED_PHASES.iter().find(|(s, _)| *s == span.name) {
                    phases.entry(name).or_default().push(span.dur_us as f64);
                }
            }
            outcome = Some(out);
        }
        let outcome = outcome.expect("at least one repetition");
        t.add("sched.schedule_us", median(&sched_us));
        for (span, name) in SCHED_PHASES {
            t.add(name, phases.get(span).map_or(0.0, |v| median(v)));
        }
        t.add("alloc.dp_cells", cells as f64);

        let (verify_us, verified) = time(reps, || {
            paraconv::verify::verify_outcome(&graph, &outcome, &config)
        });
        verified.map_err(|e| format!("{spec}: {e}"))?;
        t.add("verify.outcome_us", verify_us);

        obs::reset();
        let (simulate_us, report) = time(reps, || {
            paraconv::pim::simulate(&graph, &outcome.plan, &config)
        });
        report.map_err(|e| format!("{spec}: {e}"))?;
        let events = obs::snapshot().counter("sim.events") as f64 / reps.max(1) as f64;
        t.add("pim.simulate_us", simulate_us);
        t.add("pim.events", events);
        sim_us += simulate_us;
        sim_events += events;

        let bundle = PlanBundle {
            graph,
            config,
            policy,
            outcome,
        };
        let (encode_us, bytes) = time(reps, || bundle.encode());
        t.add("registry.encode_us", encode_us);
        let heavy = if bytes.len() > HEAVY_ARTIFACT_BYTES {
            1
        } else {
            reps
        };
        let (h_us, _) = time(reps, || sha256_hex(&bytes));
        hash_us += h_us;
        hash_bytes += bytes.len() as f64;
        let body = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| text.split_once('\n'))
            .map(|(_, body)| body.trim_end_matches('\n'))
            .ok_or("artifact has no body line")?;
        let (parse_us, parsed) = time(heavy, || serde_json::from_str(body));
        parsed.map_err(|e| e.to_string())?;
        t.add("registry.json_parse_us", parse_us);
        let (decode_us, decoded) = time(heavy, || decode(&bytes));
        decoded.map_err(|e| format!("{spec}: {e}"))?;
        t.add("registry.decode_us", decode_us);
        let (put_us, put) = time(reps, || registry.put(&key, &bytes));
        put.map_err(|e| e.to_string())?;
        t.add("registry.put_us", put_us);
        let (get_us, got) = time(reps, || registry.get(&key));
        if got.map_err(|e| e.to_string())?.as_deref() != Some(&bytes[..]) {
            return Err(format!("{spec}: registry returned different bytes"));
        }
        t.add("registry.get_us", get_us);
        if let Some(cache) = cache {
            let (lookup_us, _) = time(reps, || cache.lookup(&key));
            t.add("serve.cache_lookup_us", lookup_us);
        }
    }

    // Observability overhead: the same planning calls with recording
    // off and on, alternated.
    let mut off = Vec::new();
    let mut on = Vec::new();
    for round in 0..6 {
        let enabled = round % 2 == 1;
        obs::set_enabled(enabled);
        obs::reset();
        let start = Instant::now();
        for spec in specs.iter().take(8) {
            let (graph, config, policy) = spec.parts()?;
            let outcome = ParaConvScheduler::new(config.clone())
                .with_policy(policy.allocation)
                .schedule(&graph, spec.iterations)
                .map_err(|e| e.to_string())?;
            let _ = std::hint::black_box(paraconv::pim::simulate(&graph, &outcome.plan, &config));
        }
        if enabled { &mut on } else { &mut off }.push(micros(start));
    }
    obs::reset();
    obs::set_enabled(was_enabled);

    let mut out = Vec::new();
    for name in [
        "synth.graph_us",
        "registry.request_key_us",
        "registry.encode_us",
        "registry.decode_us",
        "registry.json_parse_us",
    ] {
        out.push(metric(name, t.mean(name), "us"));
    }
    out.push(metric(
        "registry.hash_mb_s",
        hash_bytes / hash_us.max(1e-9),
        "MB/s",
    ));
    for name in ["registry.put_us", "registry.get_us", "sched.schedule_us"] {
        out.push(metric(name, t.mean(name), "us"));
    }
    for (_, name) in SCHED_PHASES {
        out.push(metric(name, t.mean(name), "us"));
    }
    out.push(metric("alloc.dp_cells", t.mean("alloc.dp_cells"), "count"));
    out.push(metric(
        "verify.outcome_us",
        t.mean("verify.outcome_us"),
        "us",
    ));
    out.push(metric("pim.simulate_us", t.mean("pim.simulate_us"), "us"));
    out.push(metric("pim.events", t.mean("pim.events"), "count"));
    out.push(metric(
        "pim.ns_per_event",
        sim_us * 1e3 / sim_events.max(1.0),
        "ns",
    ));
    out.push(metric(
        "serve.cache_lookup_us",
        t.mean("serve.cache_lookup_us"),
        "us",
    ));
    out.push(metric(
        "obs.overhead_ratio",
        median(&on) / median(&off).max(1e-9),
        "ratio",
    ));
    Ok(out)
}
