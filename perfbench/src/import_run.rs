//! import-run: one client running the `paraconv plan import --run`
//! sequence — `Registry::get` → `decode` → `verify_outcome` →
//! `simulate` — over artifacts exported during set-up.
//!
//! The artifacts range from about 10 KB to a few hundred KB, where
//! the vendored JSON parser's quadratic cost already dominates while a
//! run stays short. This is the read side of the codec and registry
//! layers plan-cold writes, plus the `pim` simulator. Operations come
//! in complete rounds — each a seeded permutation of the export set —
//! so every seed measures the same mix.

use std::path::{Path, PathBuf};
use std::time::Instant;

use paraconv::registry::{decode, request_key, PlanBundle, Registry};
use paraconv::sched::ParaConvScheduler;

use crate::catalog::{import_exports, Rng, Spec};
use crate::report::{metric, serve_metrics, Checks, Outcome};
use crate::stats::{median, tail};
use crate::{Ctx, Inject};

/// The import-run tail percentile.
pub const TAIL_PCT: f64 = 90.0;
/// Set-ups per run, interleaved with the measured rounds; `setup_s` is
/// their median, `peak_rss_mb` the median of the import stretches'
/// peaks.
const SETUPS: usize = 21;

/// One exported artifact and what export recorded about it.
#[derive(Clone)]
struct Export {
    spec: Spec,
    key: String,
    makespan: u64,
    bytes: usize,
}

/// Creates a registry under `name` and exports the whole set into it,
/// as `paraconv plan export --registry` does: schedule, verify,
/// encode, put. Also records each plan's simulated makespan.
fn export(ctx: &Ctx, name: &str) -> Result<(Registry, PathBuf, Vec<Export>), String> {
    let dir = ctx.work.join(name);
    let registry = Registry::open(&dir).map_err(|e| e.to_string())?;
    let mut exports = Vec::new();
    for spec in import_exports() {
        let (graph, config, policy) = spec.parts()?;
        let key = request_key(&graph, &config, &policy);
        let outcome = ParaConvScheduler::new(config.clone())
            .with_policy(policy.allocation)
            .schedule(&graph, policy.iterations)
            .map_err(|e| format!("{spec}: {e}"))?;
        paraconv::verify::verify_outcome(&graph, &outcome, &config)
            .map_err(|e| format!("{spec}: refusing to export an unprovable plan: {e}"))?;
        let makespan = paraconv::pim::simulate(&graph, &outcome.plan, &config)
            .map_err(|e| format!("{spec}: {e}"))?
            .total_time;
        let bytes = PlanBundle {
            graph,
            config,
            policy,
            outcome,
        }
        .encode();
        registry.put(&key, &bytes).map_err(|e| e.to_string())?;
        exports.push(Export {
            spec,
            key,
            makespan,
            bytes: bytes.len(),
        });
    }
    Ok((registry, dir, exports))
}

/// Imports and runs one artifact; returns the op time in ms, or why it
/// failed. Checks (untimed): the decoded key, byte-identical
/// re-encoding, and the simulated makespan recorded at export.
fn import(registry: &Registry, e: &Export, checks: &mut Checks) -> Result<f64, String> {
    let start = Instant::now();
    let bytes = registry
        .get(&e.key)
        .map_err(|err| err.to_string())?
        .ok_or("artifact missing from the registry")?;
    let artifact = decode(&bytes).map_err(|err| format!("import rejected: {err}"))?;
    let b = &artifact.bundle;
    paraconv::verify::verify_outcome(&b.graph, &b.outcome, &b.config)
        .map_err(|err| format!("imported plan failed the verifier gate: {err}"))?;
    let report = paraconv::pim::simulate(&b.graph, &b.outcome.plan, &b.config)
        .map_err(|err| format!("simulation failed: {err}"))?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    checks.expect(artifact.header.key == e.key, || {
        format!(
            "{}: decoded key {} != {}",
            e.spec, artifact.header.key, e.key
        )
    });
    checks.expect(b.encode() == bytes, || {
        format!("{}: re-encoding is not byte-identical", e.spec)
    });
    checks.expect(report.total_time == e.makespan, || {
        format!(
            "{}: simulated {} cycles, export recorded {}",
            e.spec, report.total_time, e.makespan
        )
    });
    Ok(ms)
}

/// Complete rounds of imports until `*measured` — seconds of import
/// time over the whole run — reaches `until`, the host calibrated after
/// each round. Returns the op latencies (ms) of successful imports,
/// each with the stretch it ran in.
fn measure(
    registry: &Registry,
    exports: &[Export],
    rng: &mut Rng,
    measured: &mut f64,
    until: f64,
    out: &mut Outcome,
) -> Vec<(Instant, Instant, f64)> {
    let mut latencies = Vec::new();
    while *measured < until {
        let start = Instant::now();
        let mut order: Vec<usize> = (0..exports.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let e = &exports[i];
            out.attempted += 1;
            let began = Instant::now();
            match import(registry, e, &mut out.checks) {
                Ok(ms) => latencies.push((began, Instant::now(), ms)),
                Err(err) => {
                    out.failed += 1;
                    out.checks.fail(format!("{}: {err}", e.spec));
                }
            }
        }
        *measured += start.elapsed().as_secs_f64();
        crate::host::calibrate();
    }
    latencies
}

/// Each timing divided by the host's pace over its stretch: the
/// timings at the reference host speed.
fn paced(timed: &[(Instant, Instant, f64)]) -> Vec<f64> {
    timed
        .iter()
        .map(|&(from, to, t)| t / crate::host::pace(from, to))
        .collect()
}

fn ops_per_s(latencies: &[f64]) -> f64 {
    latencies.len() as f64 / (latencies.iter().sum::<f64>() / 1e3).max(1e-9)
}

/// Applies `--inject` to a fresh export.
fn inject(ctx: &Ctx, dir: &Path, exports: &mut [Export]) -> Result<(), String> {
    match ctx.inject {
        Some(Inject::WrongKey) => crate::corrupt_key(&mut exports[0].key),
        Some(Inject::FlipByte) => {
            let key = &exports[0].key;
            let path = dir.join("objects").join(&key[..2]).join(&key[2..]);
            let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            crate::flip_byte(&mut bytes);
            std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
        }
        None => {}
    }
    Ok(())
}

/// Runs import-run and reports its metrics.
///
/// # Errors
///
/// When the export set cannot be produced.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // `paraconv plan import` records no metrics unless asked to.
    paraconv::obs::disable();
    let mut out = Outcome::default();
    let mut rng = Rng::new(ctx.seed, 4);
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    let mut latencies = Vec::new();
    let mut first: Option<Vec<Export>> = None;
    let mut measured = 0.0;
    // Set-ups are interleaved with the measured rounds: each exports
    // into a fresh registry that the next stretch of rounds imports
    // from, so set-up and import times share the host's drift.
    for n in 0..SETUPS {
        crate::host::calibrate();
        let start = Instant::now();
        let (registry, dir, mut exports) = export(ctx, &format!("registry-{n}"))?;
        setups.push((start, Instant::now(), start.elapsed().as_secs_f64()));
        match &first {
            Some(first) => out.checks.expect(
                first
                    .iter()
                    .zip(&exports)
                    .all(|(a, b)| (&a.key, a.makespan, a.bytes) == (&b.key, b.makespan, b.bytes)),
                || format!("export {n} differs from the first export"),
            ),
            None => first = Some(exports.clone()),
        }
        inject(ctx, &dir, &mut exports)?;
        // No heap trim here: the imports would fault the returned heap
        // back in, which slows the next round by a third.
        crate::host::reset_peak_rss();
        let until = ctx.seconds * (n + 1) as f64 / SETUPS as f64;
        let before = out.attempted;
        latencies.extend(measure(
            &registry,
            &exports,
            &mut rng,
            &mut measured,
            until,
            &mut out,
        ));
        // A stretch the previous one overran imports nothing.
        if out.attempted > before {
            peaks.push(crate::host::peak_rss_mb());
        }
        drop(registry);
        let _ = std::fs::remove_dir_all(dir);
    }
    let exports = first.expect("at least one set-up");
    let latencies = paced(&latencies);
    let setups = paced(&setups);

    if ctx.trace {
        // The measured loop carries no tracing of the benchmark's own:
        // every layer number comes from the probes below.
        let mut metrics = serve_metrics(&[], 0.0, 0.0, 1.0);
        out.notes.push(
            "serve.* and loadgen.* are 0: import-run does not go through the server; \
             trace.overhead_ratio is 1: its measured loop is the same traced or not"
                .into(),
        );
        let specs: Vec<Spec> = exports.iter().map(|e| e.spec).collect();
        metrics.extend(crate::layers::probe(&specs, 3, &ctx.work, None)?);
        out.metrics = metrics;
        return Ok(out);
    }

    let t = tail(&latencies, TAIL_PCT).ok_or("no import succeeded")?;
    out.notes.push(format!(
        "{} imports in {} rounds of {} over {SETUPS} exports, tail_ms is p{} of {} samples",
        out.attempted,
        out.attempted / exports.len() as u64,
        exports.len(),
        t.percentile,
        t.samples
    ));
    let rate = ops_per_s(&latencies);
    out.metrics = vec![
        // Closed loop: the backlog is bounded by the one client, so the
        // sustained rate is the completed rate.
        metric("sustained_rps", rate, "1/s"),
        metric("ops_per_s", rate, "1/s"),
        metric("p50_ms", median(&latencies), "ms"),
        metric("tail_ms", t.value, "ms"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", median(&peaks), "MB"),
        metric(
            "artifact_kb",
            exports.iter().map(|e| e.bytes as f64).sum::<f64>() / 1024.0 / exports.len() as f64,
            "KB",
        ),
        metric(
            "plan_cycles",
            exports.iter().map(|e| e.makespan as f64).sum(),
            "cycles",
        ),
    ];
    Ok(out)
}
