//! plan-cold: a closed loop of `nproc` clients into a `ServeCore`
//! whose cache writes through to a fresh on-disk registry.
//!
//! Every request has a distinct key: the run walks the catalog (Table 1
//! graphs × PE counts × iteration counts) in passes, each pass a
//! seeded permutation served by a fresh core over a fresh registry. So
//! every request is a miss — the scheduler, verifier, artifact encoder
//! and registry store do the work, and the cache-hit path does none.
//! Only the closed-loop windows are measured. Set-up — deriving every
//! catalog key the answers are checked against (graph build and
//! `request_key`, as the planner does them), then creating each pass's
//! registry and starting its server — is timed as `setup_s`.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use paraconv::registry::{decode, sha256_hex, Registry};
use paraconv::serve::{ServeConfig, ServeCore, ServeStats, ServeStatus};

use crate::catalog::{
    plan_cold_catalog, plan_cold_pass, plan_cold_probe_sample, plan_cold_reference, Spec,
};
use crate::report::{check_conservation, metric, serve_metrics, Answer, Checks, Metric, Outcome};
use crate::stats::{median, windowed_tail};
use crate::{Ctx, Inject};

/// The plan-cold tail percentile, taken per window of
/// [`WINDOW_SAMPLES`] consecutive operations and reported as the median
/// over windows, so one slow fsync burst moves one window, not the
/// result.
pub const TAIL_PCT: f64 = 95.0;
/// Operations per tail window: ten beyond the p95.
const WINDOW_SAMPLES: usize = 200;
/// Fewest server set-ups a run times, for a stable median: one takes
/// well under a millisecond.
const MIN_SETUPS: usize = 31;
/// Fewest times a run derives the catalog's keys, for a stable median.
const MIN_KEY_DERIVATIONS: usize = 5;
/// Passes between two timed key derivations. The host's speed shifts
/// by up to half for seconds at a time, so the derivations are spread
/// over the run rather than taken together.
const KEY_EVERY: u64 = 8;

/// One completed operation.
struct Op {
    spec: Spec,
    id_ok: bool,
    status: ServeStatus,
    cached: bool,
    key: Option<String>,
    latency_ms: f64,
    /// Time inside `submit`, µs (traced passes only).
    submit_us: f64,
    /// Submit returned → answer, µs (traced passes only).
    answer_us: f64,
}

/// One pass: a fresh core and registry, and the operations served.
struct Pass {
    ops: Vec<Op>,
    /// Closed-loop window, seconds.
    elapsed: f64,
    /// The host's pace over the window.
    pace: f64,
    /// Did the clients time `submit` and the answer separately?
    traced: bool,
    /// Peak resident set during the closed loop, MB.
    rss_mb: f64,
    stats: ServeStats,
    registry: PathBuf,
}

fn ok_count(ops: &[Op]) -> usize {
    ops.iter().filter(|o| o.status == ServeStatus::Ok).count()
}

/// Creates a registry under `name` and starts a server over it.
/// Returns them with the timed set-up.
fn set_up(ctx: &Ctx, name: &str) -> Result<(ServeCore, PathBuf, Timed), String> {
    // A fresh server starts with fresh metrics (and no spans held over
    // from earlier passes).
    paraconv::obs::reset();
    let registry = ctx.work.join(name);
    let start = Instant::now();
    let core = ServeCore::new(ServeConfig {
        jobs: ctx.nproc,
        registry_path: Some(registry.clone()),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    core.start();
    Ok((
        core,
        registry,
        (start, Instant::now(), start.elapsed().as_secs_f64()),
    ))
}

/// `nproc` clients, each submitting its next request when the last
/// one is answered, until `order` is exhausted or `secs` pass. Traced
/// clients also time the `submit` call and the wait for the answer
/// apart — the benchmark's own tracing, whose cost
/// `trace.overhead_ratio` measures.
fn closed_loop(
    ctx: &Ctx,
    core: &ServeCore,
    order: &[Spec],
    secs: f64,
    traced: bool,
) -> (Vec<Op>, f64) {
    let cursor = AtomicUsize::new(0);
    let ops = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        for client in 0..ctx.nproc {
            let (cursor, ops) = (&cursor, &ops);
            s.spawn(move || {
                let tenant = format!("client-{client}");
                let mut mine = Vec::new();
                while Instant::now() < deadline {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&spec) = order.get(idx) else { break };
                    let id = format!("pc-{idx}");
                    let began = Instant::now();
                    let submission = core.submit(spec.request(id.clone(), &tenant));
                    let submitted = traced.then(Instant::now);
                    let response = submission.wait();
                    let done = Instant::now();
                    let (submit_us, answer_us) = submitted.map_or((0.0, 0.0), |at| {
                        (
                            at.duration_since(began).as_secs_f64() * 1e6,
                            done.duration_since(at).as_secs_f64() * 1e6,
                        )
                    });
                    mine.push(Op {
                        spec,
                        id_ok: response.id == id,
                        status: response.status,
                        cached: response.cached == Some(true),
                        key: response.key,
                        latency_ms: done.duration_since(began).as_secs_f64() * 1e3,
                        submit_us,
                        answer_us,
                    });
                }
                ops.lock().expect("ops lock poisoned").extend(mine);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (ops.into_inner().expect("ops lock poisoned"), elapsed)
}

/// A timed stretch: its start, its end and its time in seconds.
type Timed = (Instant, Instant, f64);

/// A run's set-up times.
#[derive(Default)]
struct SetupTimes {
    /// Deriving the catalog's keys.
    keys: Vec<Timed>,
    /// Creating a registry and starting a server.
    server: Vec<Timed>,
}

impl SetupTimes {
    /// Derives the catalog's keys and records how long it took.
    fn derive_keys(&mut self) -> Result<HashMap<Spec, String>, String> {
        let start = Instant::now();
        let keys = derive_keys()?;
        self.keys
            .push((start, Instant::now(), start.elapsed().as_secs_f64()));
        Ok(keys)
    }

    /// The median set-up — deriving the keys, then one server — at the
    /// reference host speed.
    fn median(&self) -> f64 {
        let paced = |timed: &[Timed]| {
            median(
                &timed
                    .iter()
                    .map(|&(from, to, secs)| secs / crate::host::pace(from, to))
                    .collect::<Vec<_>>(),
            )
        };
        paced(&self.keys) + paced(&self.server)
    }
}

/// Passes until `secs` of closed-loop time are measured, the host
/// calibrated before each pass and after the last. Each pass's
/// server set-up is timed; file systems are flushed before it, or it
/// would wait on the previous pass's journal commits. Every
/// [`KEY_EVERY`] passes the key derivation is timed again. With
/// `alternate`, every second pass is traced, so traced and untraced
/// passes share the host's drift.
fn measure(
    ctx: &Ctx,
    secs: f64,
    alternate: bool,
    setups: &mut SetupTimes,
) -> Result<Vec<Pass>, String> {
    let mut passes: Vec<Pass> = Vec::new();
    let mut pace_from = Vec::new();
    let mut measured = 0.0;
    let mut n = 0;
    while measured < secs {
        let traced = alternate && n % 2 == 1;
        crate::host::calibrate();
        if n % KEY_EVERY == KEY_EVERY - 1 {
            setups.derive_keys()?;
        }
        crate::host::sync_filesystems();
        let (core, registry, timed) = set_up(ctx, &format!("pass-{n}"))?;
        setups.server.push(timed);
        let order = plan_cold_pass(ctx.seed, n);
        crate::host::trim_heap();
        crate::host::reset_peak_rss();
        let began = Instant::now();
        let (ops, elapsed) = closed_loop(ctx, &core, &order, secs - measured, traced);
        let rss_mb = crate::host::peak_rss_mb();
        measured += elapsed;
        let stats = core.drain();
        passes.push(Pass {
            ops,
            elapsed,
            pace: 0.0,
            traced,
            rss_mb,
            stats,
            registry,
        });
        pace_from.push(began);
        n += 1;
    }
    crate::host::calibrate();
    for (pass, from) in passes.iter_mut().zip(pace_from) {
        pass.pace = crate::host::pace(from, from + Duration::from_secs_f64(pass.elapsed));
    }
    Ok(passes)
}

/// Every catalog spec's registry key, derived by the benchmark itself
/// from the request's graph, configuration and policy.
fn derive_keys() -> Result<HashMap<Spec, String>, String> {
    plan_cold_catalog()
        .into_iter()
        .map(|spec| Ok((spec, spec.key()?)))
        .collect()
}

/// What the checks carry from pass to pass: each spec's derived key and
/// the content hash of each key's first stored object, which was
/// decoded and re-proved.
struct Seen {
    keys: HashMap<Spec, String>,
    objects: HashMap<String, String>,
}

/// Checks one pass — conservation, every ok key recomputed, exactly
/// one stored object per distinct key, each object decoded and
/// re-proved (or byte-identical to one that was) — then deletes its
/// registry. Returns the failed-operation count.
fn check(ctx: &Ctx, pass: &mut Pass, seen: &mut Seen, checks: &mut Checks) -> Result<u64, String> {
    let attempted = pass.ops.len() as u64;
    let ok = ok_count(&pass.ops) as u64;
    check_conservation(&pass.stats, attempted, ok, checks);
    checks.expect(pass.ops.iter().all(|o| o.id_ok), || {
        "an answer echoed the wrong request id".to_owned()
    });
    checks.expect(pass.ops.iter().all(|o| !o.cached), || {
        "a distinct-key request was answered from cache".to_owned()
    });
    if ctx.inject == Some(Inject::WrongKey) {
        if let Some(key) = pass.ops.iter_mut().find_map(|o| o.key.as_mut()) {
            crate::corrupt_key(key);
        }
    }
    for op in &pass.ops {
        let Some(key) = &op.key else { continue };
        let expected = seen
            .keys
            .get(&op.spec)
            .ok_or_else(|| format!("{} is not in the catalog", op.spec))?;
        checks.expect(key == expected, || {
            format!("{} answered key {key}, expected {expected}", op.spec)
        });
    }

    let registry = Registry::open(&pass.registry).map_err(|e| e.to_string())?;
    let stored = registry.keys().map_err(|e| e.to_string())?;
    if ctx.inject == Some(Inject::FlipByte) {
        if let Some(key) = stored.first() {
            let path = pass
                .registry
                .join("objects")
                .join(&key[..2])
                .join(&key[2..]);
            let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            crate::flip_byte(&mut bytes);
            std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
        }
    }
    let ok_keys: Vec<&str> = pass.ops.iter().filter_map(|o| o.key.as_deref()).collect();
    let distinct: HashSet<&str> = ok_keys.iter().copied().collect();
    checks.expect(distinct.len() == ok_keys.len(), || {
        format!("{} ok answers share {} keys", ok_keys.len(), distinct.len())
    });
    checks.expect(
        stored.len() == distinct.len() && stored.iter().all(|k| distinct.contains(k.as_str())),
        || {
            format!(
                "registry holds {} objects for {} distinct keys",
                stored.len(),
                distinct.len()
            )
        },
    );

    // Objects already proved in an earlier pass must be byte-identical;
    // new ones are decoded and re-proved in parallel.
    let mut fresh = Vec::new();
    for key in &stored {
        let bytes = match registry.get(key) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => {
                checks.fail(format!("listed object {key} cannot be read"));
                continue;
            }
            Err(e) => {
                checks.fail(format!("stored object {key} rejected: {e}"));
                continue;
            }
        };
        let hash = sha256_hex(&bytes);
        match seen.objects.get(key) {
            Some(first) => checks.expect(*first == hash, || {
                format!("object {key} differs from the same key's earlier plan")
            }),
            None => fresh.push((key.clone(), hash, bytes)),
        }
    }
    let failures = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..ctx.nproc {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((key, _, bytes)) = fresh.get(i) else {
                    break;
                };
                if let Err(e) = prove(key, bytes) {
                    failures.lock().expect("failures lock poisoned").push(e);
                }
            });
        }
    });
    for failure in failures.into_inner().expect("failures lock poisoned") {
        checks.fail(failure);
    }
    for (key, hash, _) in fresh {
        seen.objects.insert(key, hash);
    }
    let _ = std::fs::remove_dir_all(&pass.registry);
    Ok(attempted - ok)
}

/// A stored object decodes, names its key, and passes the verifier.
fn prove(key: &str, bytes: &[u8]) -> Result<(), String> {
    let artifact = decode(bytes).map_err(|e| format!("stored object {key} rejected: {e}"))?;
    if artifact.header.key != key {
        return Err(format!("object {key} names key {}", artifact.header.key));
    }
    let b = &artifact.bundle;
    paraconv::verify::verify_outcome(&b.graph, &b.outcome, &b.config)
        .map(|_| ())
        .map_err(|e| format!("stored plan {key} fails the verifier: {e}"))
}

/// `plan_cycles` and `artifact_kb` over the reference set, which the
/// first pass plans first (the same set for every seed).
fn reference_quality(pass: &Pass, checks: &mut Checks) -> Result<(f64, f64), String> {
    let reference = plan_cold_reference();
    let registry = Registry::open(&pass.registry).map_err(|e| e.to_string())?;
    let mut artifacts = Vec::new();
    for op in pass.ops.iter().filter(|o| reference.contains(&o.spec)) {
        if let Some(Ok(Some(bytes))) = op.key.as_ref().map(|k| registry.get(k)) {
            artifacts.push((op.spec, bytes));
        }
    }
    checks.expect(artifacts.len() == reference.len(), || {
        format!(
            "{} of {} reference plans were served and stored",
            artifacts.len(),
            reference.len()
        )
    });
    Ok(crate::quality(&artifacts, checks))
}

/// Completed operations per second at the reference host speed: the
/// median over complete passes — each serves the whole catalog, so each
/// does the same work — of each pass's paced rate. A stretch where the
/// host or its disk runs slow then moves a few passes, not the result.
/// A run too short to complete a pass falls back to the pooled rate.
fn ops_per_s<'a>(passes: impl Iterator<Item = &'a Pass>) -> f64 {
    let full = plan_cold_catalog().len();
    let passes: Vec<&Pass> = passes.collect();
    let rates: Vec<f64> = passes
        .iter()
        .filter(|p| p.ops.len() == full)
        .map(|p| ok_count(&p.ops) as f64 * p.pace / p.elapsed.max(1e-9))
        .collect();
    if !rates.is_empty() {
        return median(&rates);
    }
    let (ok, secs) = passes.iter().fold((0, 0.0), |(ok, secs), p| {
        (ok + ok_count(&p.ops), secs + p.elapsed / p.pace)
    });
    ok as f64 / f64::max(secs, 1e-9)
}

/// Per-operation cost of each layer a miss passes through, as a share
/// of their sum, from the layer probe's metrics.
fn layer_shares(metrics: &[Metric]) -> String {
    let layers = [
        "synth.graph_us",
        "registry.request_key_us",
        "sched.schedule_us",
        "verify.outcome_us",
        "registry.encode_us",
        "registry.put_us",
    ];
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let total: f64 = layers.iter().map(|l| value(l)).sum();
    let shares: Vec<String> = layers
        .iter()
        .map(|l| format!("{l} {:.1}%", 100.0 * value(l) / total.max(1e-9)))
        .collect();
    format!("share of a miss's layer time: {}", shares.join(", "))
}

/// Runs plan-cold and reports its metrics.
///
/// # Errors
///
/// When a registry or server cannot be set up.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    paraconv::obs::reset();
    // `paraconv serve` records metrics; so does this workload.
    paraconv::obs::enable();
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    let mut seen = Seen {
        keys: setups.derive_keys()?,
        objects: HashMap::new(),
    };

    if !ctx.trace {
        let mut passes = measure(ctx, ctx.seconds, false, &mut setups)?;
        // Every pass runs the same server over the same keys, so the
        // run's memory figure is the median over passes of each pass's
        // own peak.
        let peak_rss = median(&passes.iter().map(|p| p.rss_mb).collect::<Vec<_>>());
        let (cycles, kb) = reference_quality(&passes[0], &mut out.checks)?;
        for pass in &mut passes {
            out.attempted += pass.ops.len() as u64;
            out.failed += check(ctx, pass, &mut seen, &mut out.checks)?;
        }
        // Short runs have few passes: time more set-ups.
        while setups.keys.len() < MIN_KEY_DERIVATIONS {
            crate::host::calibrate();
            setups.derive_keys()?;
        }
        while setups.server.len() < MIN_SETUPS {
            crate::host::calibrate();
            crate::host::sync_filesystems();
            let name = format!("setup-{}", setups.server.len());
            let (core, registry, timed) = set_up(ctx, &name)?;
            setups.server.push(timed);
            core.drain();
            let _ = std::fs::remove_dir_all(registry);
        }
        crate::host::calibrate();
        let latencies: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.ops.iter().map(|o| o.latency_ms / p.pace))
            .collect();
        let windows = (latencies.len() / WINDOW_SAMPLES).max(1);
        let t = windowed_tail(&latencies, windows, TAIL_PCT).ok_or("too few operations")?;
        out.notes.push(format!(
            "{} operations in {} passes, {} distinct plans proved, \
             tail_ms is the median p{} of {windows} windows of {} samples",
            latencies.len(),
            passes.len(),
            seen.objects.len(),
            t.percentile,
            t.samples / windows
        ));
        let rate = ops_per_s(passes.iter());
        out.metrics = vec![
            // Closed loop: the backlog is bounded by the client count,
            // so the sustained rate is the completed rate.
            metric("sustained_rps", rate, "1/s"),
            metric("ops_per_s", rate, "1/s"),
            metric("p50_ms", median(&latencies), "ms"),
            metric("tail_ms", t.value, "ms"),
            metric("setup_s", setups.median(), "s"),
            metric("peak_rss_mb", peak_rss, "MB"),
            metric("artifact_kb", kb, "KB"),
            metric("plan_cycles", cycles, "cycles"),
        ];
        return Ok(out);
    }

    // Traced: untraced and traced passes alternate, for the overhead.
    let mut passes = measure(ctx, ctx.seconds, true, &mut setups)?;
    let overhead = ops_per_s(passes.iter().filter(|p| !p.traced))
        / ops_per_s(passes.iter().filter(|p| p.traced)).max(1e-9);
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let answers: Vec<Answer> = traced
        .iter()
        .flat_map(|p| &p.ops)
        .map(|o| Answer {
            ok: o.status == ServeStatus::Ok,
            cached: o.cached,
            submit_us: o.submit_us,
            answer_us: o.answer_us,
        })
        .collect();
    let refused: u64 = traced.iter().map(|p| p.stats.shed + p.stats.quota).sum();
    // A closed loop has no schedule to fall behind: lateness is 0.
    let mut metrics = serve_metrics(
        &answers,
        refused as f64 / answers.len().max(1) as f64,
        0.0,
        overhead,
    );
    // Layer probes on a fixed sample of the catalog, resident in a
    // fresh core's cache.
    let sample = plan_cold_probe_sample();
    let (core, registry, _) = set_up(ctx, "probe")?;
    for (i, spec) in sample.iter().enumerate() {
        let response = core
            .submit(spec.request(format!("probe-{i}"), "probe"))
            .wait();
        out.checks.expect(response.status == ServeStatus::Ok, || {
            format!("probe request {spec} answered {}", response.status.as_str())
        });
    }
    metrics.extend(crate::layers::probe(
        &sample,
        3,
        &ctx.work,
        Some(core.cache()),
    )?);
    out.notes.push(layer_shares(&metrics));
    core.drain();
    let _ = std::fs::remove_dir_all(registry);
    for pass in &mut passes {
        out.attempted += pass.ops.len() as u64;
        out.failed += check(ctx, pass, &mut seen, &mut out.checks)?;
    }
    out.metrics = metrics;
    Ok(out)
}
