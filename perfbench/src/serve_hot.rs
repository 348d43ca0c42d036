//! serve-hot: an open loop into an in-process `ServeCore` with a
//! memory-only cache.
//!
//! Fifteen of every sixteen requests hit an eight-key hot set warmed
//! during set-up; the sixteenth walks a seeded cold tail of small
//! graphs. One
//! thread submits on schedule, one collects tickets in submission
//! order, and every latency is timed from when its request was *due*.
//!
//! Each phase runs against a fresh core (so the cold tail stays cold
//! and phases do not depend on each other); its set-up — core
//! creation, worker start, hot-set warm-up — is timed as `setup_s`.
//! Reference segments at [`REFERENCE_RPS`] give `p50_ms` and
//! `tail_ms`. `sustained_rps` is the highest rate on the ladder whose
//! p95 stays within [`LIMIT_MS`] without a growing backlog: a coarse
//! search brackets it, then a staircase of probes — one rung up after
//! a pass, one down after a failure — settles around it, and the run
//! reports the median rate of the passing probes. The staircase's many
//! probes, spread over the run, average out the host's drift that a
//! single pass/fail decision at the boundary would report.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use paraconv::registry::verify_artifact_bytes;
use paraconv::serve::{ServeConfig, ServeCore, ServeStats, ServeStatus, Submission};

use crate::catalog::{serve_cold_tail, serve_hot_set, Rng, Spec};
use crate::report::{check_conservation, metric, serve_metrics, Answer, Checks, Outcome};
use crate::stats::{highest_passing, ladder, median, rung_passes, staircase, tail, windowed_tail};
use crate::{Ctx, Inject};

/// The fixed reference rate for `p50_ms` and `tail_ms`. Low enough that
/// the default admission (a queue of 64, 16 in flight per tenant) never
/// refuses a reference request, even after a host stall of 100 ms makes
/// the submitter send the overdue requests at once.
pub const REFERENCE_RPS: f64 = 500.0;
/// The serve-hot tail percentile. About 1/16 of requests are misses,
/// so p95 sits in the misses' latency, well inside the measured tail.
pub const TAIL_PCT: f64 = 95.0;
/// The latency limit on the tail for a rung to count as sustained.
pub const LIMIT_MS: f64 = 20.0;
/// Lowest rung of the ladder.
const LADDER_BASE: f64 = 500.0;
/// Rungs: `500 · 2^(k/16)` up to about 256k requests/s.
const LADDER_STEPS: usize = 145;
/// The coarse search probes every fourth rung (19% apart).
const COARSE_STRIDE: usize = 4;
/// Share of `--seconds` spent at the reference rate.
const REFERENCE_SHARE: f64 = 0.3;
/// The reference time is split into this many segments spread over
/// the run: one before the coarse search, then one after each
/// staircase probe but the last. Each segment runs on a fresh core
/// whose threads land on the cores anew, which moves a segment's p50 by
/// up to a quarter; the run's figures pool many segments.
const REFERENCE_SEGMENTS: usize = STAIRCASE_PROBES;
/// Share of `--seconds` per coarse probe (about six probes).
const COARSE_SHARE: f64 = 0.03;
/// Staircase probes, each followed by a reference segment.
const STAIRCASE_PROBES: usize = 12;
/// Share of `--seconds` per staircase probe.
const STAIRCASE_SHARE: f64 = 0.04;
/// Windows a rung's tail is the median over.
const RUNG_WINDOWS: usize = 4;
/// Backlog sampling interval.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);
/// Tenants the load is spread over.
const TENANTS: [&str; 4] = ["tenant-0", "tenant-1", "tenant-2", "tenant-3"];

/// The request stream: hot set and cold tail interleaved by the seed.
/// Each block of 16 requests holds exactly one cold-tail request, at a
/// seeded position, so every stretch of the stream has the same miss
/// share: with a random share, the p95 of a window — which sits where
/// the hits end and the misses begin — would move with the window's
/// miss count.
struct Mix {
    specs: Vec<Spec>,
    hot: usize,
    tail_cursor: usize,
    /// Requests drawn so far.
    drawn: usize,
    /// Position of the miss in the current block of 16.
    miss_at: usize,
    rng: Rng,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut specs = serve_hot_set();
        let hot = specs.len();
        specs.extend(serve_cold_tail(seed));
        Mix {
            specs,
            hot,
            tail_cursor: 0,
            drawn: 0,
            miss_at: 0,
            rng: Rng::new(seed, 3),
        }
    }

    /// Starts a phase's stream at cold-tail position `at`. Each phase
    /// runs on a fresh core, so any stretch of the tail is cold. Ladder
    /// probes all start at 0: each draws a thousand or more misses,
    /// enough to span the tail's PE counts. The reference segments draw
    /// about 20 misses each, too few for that, so they walk on from
    /// where the previous segment stopped and a run's reference misses
    /// together span them.
    fn restart(&mut self, at: usize) {
        self.tail_cursor = at;
        self.drawn = 0;
    }

    /// Index into `specs` of the next request.
    fn next(&mut self) -> usize {
        let slot = self.drawn % 16;
        self.drawn += 1;
        if slot == 0 {
            self.miss_at = self.rng.below(16);
        }
        if slot != self.miss_at {
            return self.rng.below(self.hot);
        }
        let tail = self.specs.len() - self.hot;
        let idx = self.hot + self.tail_cursor % tail;
        self.tail_cursor += 1;
        idx
    }
}

/// One answered request.
struct Record {
    /// Request id echoed correctly.
    id_ok: bool,
    status: ServeStatus,
    cached: bool,
    /// Due → answer collected, ms.
    latency_ms: f64,
    /// Due → submit call started, ms (traced only).
    late_ms: f64,
    /// Time inside `submit`, µs (traced only).
    submit_us: f64,
    /// Submit returned → answer collected, µs.
    answer_us: f64,
}

/// What one open-loop phase measured.
struct Phase {
    records: Vec<Record>,
    backlog: Vec<u64>,
    /// First key each spec was answered with.
    keys: HashMap<usize, String>,
    aborted: bool,
    submitted: usize,
    /// Requests per second the submitter actually offered.
    offered_rps: f64,
    elapsed: f64,
    stats: ServeStats,
    setup_s: f64,
    /// Peak resident set during the phase, MB.
    rss_mb: f64,
    /// The phase's stretch, set-up included.
    began: Instant,
    ended: Instant,
}

impl Phase {
    fn ok(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.status == ServeStatus::Ok)
            .count()
    }

    /// Requests refused for overload: shed at the queue or over a
    /// tenant's quota.
    fn refused(&self) -> u64 {
        self.stats.shed + self.stats.quota
    }

    fn latencies(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| {
                if r.status == ServeStatus::Ok {
                    r.latency_ms
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// The host's pace over the phase; call once every calibration of
    /// the run is taken.
    fn pace(&self) -> f64 {
        crate::host::pace(self.began, self.ended)
    }

    /// Latencies at the reference host speed.
    fn paced_latencies(&self) -> Vec<f64> {
        let pace = self.pace();
        self.latencies().into_iter().map(|l| l / pace).collect()
    }

    fn passes(&self, floor: u64) -> bool {
        !self.aborted
            && rung_passes(
                &self.latencies(),
                RUNG_WINDOWS,
                TAIL_PCT,
                LIMIT_MS,
                &self.backlog,
                floor,
            )
    }
}

struct Pending {
    spec: usize,
    id: String,
    due: Instant,
    late_ms: f64,
    submit_us: f64,
    submitted: Instant,
    submission: Submission,
}

/// The server `paraconv serve` runs: default admission (queue of 64,
/// 16 in flight per tenant), so overload shows as shedding and quota
/// refusals, which the tail rule counts as misses.
fn config(jobs: usize) -> ServeConfig {
    ServeConfig {
        jobs,
        ..ServeConfig::default()
    }
}

/// Builds a core, starts it and warms the hot set. Returns the core
/// and the set-up time in seconds.
fn set_up(ctx: &Ctx, mix: &Mix, checks: &mut Checks) -> Result<(ServeCore, f64), String> {
    // A fresh server starts with fresh metrics (and no spans held over
    // from earlier phases).
    paraconv::obs::reset();
    let start = Instant::now();
    let core = ServeCore::new(config(ctx.nproc)).map_err(|e| e.to_string())?;
    core.start();
    for (i, spec) in mix.specs[..mix.hot].iter().enumerate() {
        let response = core
            .submit(spec.request(format!("warm-{i}"), TENANTS[0]))
            .wait();
        checks.expect(response.status == ServeStatus::Ok, || {
            format!("warm-up of {spec} answered {}", response.status.as_str())
        });
    }
    Ok((core, start.elapsed().as_secs_f64()))
}

/// Runs one open-loop phase at `rate` for `secs` against a fresh core.
/// A phase whose backlog passes `cap` cannot meet the limit: it stops
/// submitting rather than queue seconds of work. With `keep_awake`, one
/// `SCHED_IDLE` thread per core spins for the phase — the in-process
/// form of booting with `idle=poll`. At the reference rate the server
/// idles between requests, and on a shared VM a halted vCPU takes from
/// 0.1 to several ms to wake, which swamped the server's own latency
/// (hit p95 0.3–3 ms from run to run, 0.15–0.22 ms kept awake). The
/// spinners run only when no other thread wants the CPU.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    ctx: &Ctx,
    mix: &mut Mix,
    rate: f64,
    secs: f64,
    traced: bool,
    keep_awake: bool,
    cap: u64,
    checks: &mut Checks,
) -> Result<Phase, String> {
    crate::host::calibrate();
    let began = Instant::now();
    let (core, setup_s) = set_up(ctx, mix, checks)?;
    crate::host::trim_heap();
    crate::host::reset_peak_rss();
    let n = (rate * secs).ceil().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let collected = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Pending>();
    let mut backlog = Vec::new();
    let mut aborted = false;
    let mut submitted_count = 0;
    let start = Instant::now() + Duration::from_millis(1);
    let mut last_submit = start;

    let stop = std::sync::atomic::AtomicBool::new(false);
    let (records, keys, key_conflicts) = std::thread::scope(|s| {
        if keep_awake {
            for _ in 0..ctx.nproc {
                s.spawn(|| {
                    crate::host::idle_priority();
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                });
            }
        }
        let collector = s.spawn(|| {
            let mut records = Vec::new();
            // The first key each spec was answered with; every later
            // ok answer for the spec must carry the same key.
            let mut keys: HashMap<usize, String> = HashMap::new();
            let mut conflicts = Vec::new();
            for p in rx {
                let response = p.submission.wait();
                let done = Instant::now();
                collected.fetch_add(1, Ordering::Relaxed);
                let ok = response.status == ServeStatus::Ok;
                match (&response.key, keys.get(&p.spec)) {
                    (Some(key), Some(first)) if key != first => conflicts.push(p.spec),
                    (Some(key), None) => {
                        keys.insert(p.spec, key.clone());
                    }
                    (None, _) if ok => conflicts.push(p.spec),
                    _ => {}
                }
                records.push(Record {
                    id_ok: response.id == p.id,
                    status: response.status,
                    cached: response.cached == Some(true),
                    latency_ms: done.duration_since(p.due).as_secs_f64() * 1e3,
                    late_ms: p.late_ms,
                    submit_us: p.submit_us,
                    answer_us: done.duration_since(p.submitted).as_secs_f64() * 1e6,
                });
            }
            (records, keys, conflicts)
        });

        let mut next_sample = start;
        for i in 0..n {
            let spec = mix.next();
            let id = format!("r{i}");
            let request = mix.specs[spec].request(id.clone(), TENANTS[i % TENANTS.len()]);
            let due = start + interval.mul_f64(i as f64);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let (late_ms, began) = if traced {
                let began = Instant::now();
                (began.duration_since(due).as_secs_f64() * 1e3, Some(began))
            } else {
                (0.0, None)
            };
            let submission = core.submit(request);
            let submitted = Instant::now();
            let submit_us = began.map_or(0.0, |b| submitted.duration_since(b).as_secs_f64() * 1e6);
            let _ = tx.send(Pending {
                spec,
                id,
                due,
                late_ms,
                submit_us,
                submitted,
                submission,
            });
            submitted_count += 1;
            last_submit = submitted;
            if submitted >= next_sample {
                let outstanding = (i as u64 + 1).saturating_sub(collected.load(Ordering::Relaxed));
                backlog.push(outstanding);
                next_sample += SAMPLE_EVERY;
                if outstanding > cap {
                    aborted = true;
                    break;
                }
            }
        }
        drop(tx);
        let joined = collector.join();
        stop.store(true, Ordering::Relaxed);
        joined
    })
    .map_err(|_| "collector thread panicked".to_owned())?;
    let elapsed = start.elapsed().as_secs_f64();
    let rss_mb = crate::host::peak_rss_mb();
    // The rate actually offered: the schedule's rate as the submitter
    // achieved it.
    let span = last_submit.saturating_duration_since(start).as_secs_f64();
    let offered_rps = if submitted_count > 1 && span > 0.0 {
        (submitted_count - 1) as f64 / span
    } else {
        rate
    };
    for spec in key_conflicts {
        checks.fail(format!(
            "{} was answered ok with a missing or different key",
            mix.specs[spec]
        ));
    }
    // Every answered key addresses an intact resident artifact.
    for key in keys.values() {
        match core.cache().lookup(key) {
            Some(bytes) => {
                if let Err(e) = verify_artifact_bytes(&bytes) {
                    checks.fail(format!("artifact {key} fails its hash check: {e}"));
                }
            }
            None => checks.fail(format!("ok key {key} has no resident artifact")),
        }
    }
    let stats = core.drain();
    Ok(Phase {
        rss_mb,
        records,
        backlog,
        keys,
        aborted,
        submitted: submitted_count,
        offered_rps,
        elapsed,
        stats,
        setup_s,
        began,
        ended: Instant::now(),
    })
}

/// Conservation and answer checks for one phase; returns the number of
/// failed (non-ok) requests.
fn check_phase(phase: &Phase, warm: u64, checks: &mut Checks) -> u64 {
    checks.expect(phase.records.len() == phase.submitted, || {
        format!(
            "{} answers for {} submissions",
            phase.records.len(),
            phase.submitted
        )
    });
    check_conservation(
        &phase.stats,
        phase.submitted as u64 + warm,
        phase.ok() as u64 + warm,
        checks,
    );
    checks.expect(phase.records.iter().all(|r| r.id_ok), || {
        "an answer echoed the wrong request id".to_owned()
    });
    (phase.records.len() - phase.ok()) as u64
}

/// Folds one phase's checks, and the key each spec was answered with,
/// into the run. Returns the phase's failed (non-ok) requests.
fn absorb(phase: &Phase, warm: u64, out: &mut Outcome, keys: &mut HashMap<usize, String>) -> u64 {
    let failed = check_phase(phase, warm, &mut out.checks);
    for (spec, key) in &phase.keys {
        if let Some(prev) = keys.insert(*spec, key.clone()) {
            out.checks.expect(&prev == key, || {
                format!("spec #{spec} was answered with two different keys")
            });
        }
    }
    failed
}

/// A passing ladder probe.
struct Rung {
    /// The probe's stretch.
    began: Instant,
    ended: Instant,
    /// Rate the submitter actually offered.
    offered_rps: f64,
    /// Completed ok answers per second.
    ops_per_s: f64,
    /// Generator lateness per request, ms (traced runs).
    late_ms: Vec<f64>,
    submitted: u64,
    failed: u64,
    refused: u64,
}

/// A run's shared state: the request stream, the result being built,
/// the key each spec was answered with, and the ladder search so far.
struct Runner<'a> {
    ctx: &'a Ctx,
    mix: Mix,
    out: Outcome,
    keys: HashMap<usize, String>,
    /// Set-up times with their phase's stretch.
    setups: Vec<(Instant, Instant, f64)>,
    rates: Vec<f64>,
    /// Requests submitted and refused for overload over every rung
    /// probed.
    ladder: (u64, u64),
    /// Requests refused for overload at the reference rate.
    reference_refused: u64,
    /// Where the next reference segment starts in the cold tail.
    reference_cursor: usize,
    error: Option<String>,
}

impl Runner<'_> {
    /// Runs one phase and folds its checks into the run; returns it
    /// with its failed-request count.
    fn phase(
        &mut self,
        rate: f64,
        secs: f64,
        traced: bool,
        keep_awake: bool,
        cap: u64,
    ) -> Result<(Phase, u64), String> {
        let phase = run_phase(
            self.ctx,
            &mut self.mix,
            rate,
            secs,
            traced,
            keep_awake,
            cap,
            &mut self.out.checks,
        )?;
        self.setups.push((phase.began, phase.ended, phase.setup_s));
        let failed = absorb(&phase, self.mix.hot as u64, &mut self.out, &mut self.keys);
        Ok((phase, failed))
    }

    /// A phase at the reference rate. Its requests count towards
    /// `attempted`/`failed`.
    fn reference(&mut self, secs: f64, traced: bool) -> Result<Phase, String> {
        self.mix.restart(self.reference_cursor);
        let (phase, failed) = self.phase(REFERENCE_RPS, secs, traced, true, u64::MAX)?;
        self.out.attempted += phase.submitted as u64;
        self.out.failed += failed;
        self.reference_refused += phase.refused();
        self.reference_cursor = self.mix.tail_cursor;
        Ok(phase)
    }

    /// Probes rung `i` for `secs`: what it measured if it sustained its
    /// rate, `None` if not. After an error every probe fails; the error
    /// is reported by the caller.
    fn probe(&mut self, i: usize, secs: f64) -> Option<Rung> {
        if self.error.is_some() {
            return None;
        }
        let rate = self.rates[i];
        self.mix.restart(0);
        let (phase, failed) =
            match self.phase(rate, secs, self.ctx.trace, false, (rate * 0.1) as u64 + 256) {
                Ok(phase) => phase,
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            };
        let pass = phase.passes(4 * self.ctx.nproc as u64 + 16);
        self.ladder.0 += phase.submitted as u64;
        self.ladder.1 += phase.refused();
        self.out.notes.push(format!(
            "rung {rate:>9.1}/s for {secs:.2} s: {} answers, {} shed, {} over quota, tail {}, \
             backlog end {}{}",
            phase.records.len(),
            phase.stats.shed,
            phase.stats.quota,
            windowed_tail(&phase.latencies(), RUNG_WINDOWS, TAIL_PCT).map_or("-".to_owned(), |t| {
                format!("p{} {:.3} ms", t.percentile, t.value)
            }),
            phase.backlog.last().copied().unwrap_or(0),
            if pass { "  pass" } else { "  FAIL" }
        ));
        pass.then(|| Rung {
            began: phase.began,
            ended: phase.ended,
            offered_rps: phase.offered_rps,
            ops_per_s: phase.ok() as f64 / phase.elapsed.max(1e-9),
            late_ms: phase.records.iter().map(|r| r.late_ms).collect(),
            submitted: phase.submitted as u64,
            failed,
            refused: phase.refused(),
        })
    }

    /// `probes` staircase steps from rung `*at`; returns the passing
    /// probes.
    fn staircase(&mut self, at: &mut usize, probes: usize, secs: f64) -> Vec<Rung> {
        let top = self.rates.len() - 1;
        staircase(at, probes, top, |i| self.probe(i, secs))
    }
}

/// Runs serve-hot and reports its metrics.
///
/// # Errors
///
/// When a phase cannot be set up.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    paraconv::obs::reset();
    // `paraconv serve` records metrics; so does this workload.
    paraconv::obs::enable();
    // This thread is the submitter.
    crate::host::tighten_timer_slack();
    let mut r = Runner {
        ctx,
        mix: Mix::new(ctx.seed),
        out: Outcome::default(),
        keys: HashMap::new(),
        setups: Vec::new(),
        rates: ladder(LADDER_BASE, LADDER_STEPS),
        ladder: (0, 0),
        reference_refused: 0,
        reference_cursor: 0,
        error: None,
    };
    let segment = ctx.seconds * REFERENCE_SHARE / REFERENCE_SEGMENTS as f64;
    let reference = |r: &mut Runner| r.reference(segment, ctx.trace);

    // Traced runs first repeat a reference segment untraced, so the
    // cost of the benchmark's own tracing is measured, not assumed.
    let untraced_p50 = if ctx.trace {
        median(&r.reference(segment, false)?.latencies())
    } else {
        0.0
    };

    // The reference segments are spread over the run — before the
    // searches and between staircase probes — so one slow stretch of the
    // host moves a few windows, not the result.
    let mut segments = vec![reference(&mut r)?];
    // A coarse search over every fourth rung with short probes brackets
    // the boundary; the staircase starts halfway into the bracket.
    let coarse: Vec<usize> = (0..LADDER_STEPS).step_by(COARSE_STRIDE).collect();
    let bracket = highest_passing(0, coarse.len(), |j| {
        r.probe(coarse[j], ctx.seconds * COARSE_SHARE).is_some()
    });
    let stair_secs = ctx.seconds * STAIRCASE_SHARE;
    let mut at = bracket.map_or(0, |j| (coarse[j] + COARSE_STRIDE / 2).min(LADDER_STEPS - 1));
    let mut passed = Vec::new();
    for probe in 0..STAIRCASE_PROBES {
        passed.extend(r.staircase(&mut at, 1, stair_secs));
        if probe + 1 < STAIRCASE_PROBES {
            segments.push(reference(&mut r)?);
        }
    }
    if let Some(e) = r.error.take() {
        return Err(e);
    }
    crate::host::calibrate();
    let Runner {
        mix,
        mut out,
        keys,
        setups,
        ladder,
        reference_refused,
        ..
    } = r;

    // Every ok key must be the key the benchmark derives itself.
    let mut answered: Vec<(usize, String)> = keys.into_iter().collect();
    answered.sort();
    if let (Some(Inject::WrongKey), Some(first)) = (ctx.inject, answered.first_mut()) {
        crate::corrupt_key(&mut first.1);
    }
    for (spec, key) in &answered {
        let expected = mix.specs[*spec].key()?;
        out.checks.expect(*key == expected, || {
            format!(
                "{} answered key {key}, expected {expected}",
                mix.specs[*spec]
            )
        });
    }
    out.notes.push(format!(
        "{} distinct ok keys recomputed and matched",
        answered.len()
    ));

    // Plan quality and size over the hot set (seed-independent), read
    // back from a freshly warmed core.
    let (core, _) = set_up(ctx, &mix, &mut out.checks)?;
    let mut hot = Vec::new();
    for spec in &mix.specs[..mix.hot] {
        let key = spec.key()?;
        let bytes = core
            .cache()
            .lookup(&key)
            .ok_or_else(|| format!("warmed key of {spec} is not resident"))?;
        hot.push((*spec, bytes.to_vec()));
    }
    if let (Some(Inject::FlipByte), Some((_, bytes))) = (ctx.inject, hot.first_mut()) {
        crate::flip_byte(bytes);
    }
    let (plan_cycles, artifact_kb) = crate::quality(&hot, &mut out.checks);

    let ref_latencies: Vec<f64> = segments.iter().flat_map(Phase::paced_latencies).collect();
    // Memory at the fixed reference load, where every run does the same
    // work: the peak of the first segment. It runs before any ladder
    // probe; later segments also hold the allocator's residue from the
    // probes' overload, which varies from run to run by a third.
    let peak_rss = segments[0].rss_mb;
    out.notes.push(format!(
        "peak RSS per reference segment, MB: {:.2?}",
        segments.iter().map(|p| p.rss_mb).collect::<Vec<_>>()
    ));
    // The tail is taken over the half of the segments in which the
    // hypervisor stole the least CPU time. A steal of a few ms delays
    // every request in flight and multiplies a sub-millisecond p95: runs
    // with 7.5% and 18.6% steal read 0.72 and 2.05 ms against 0.44-0.63
    // for runs below 3%, while their p50 did not move. One window per
    // segment; each needs 200 samples for ten beyond its p95, so short
    // runs get fewer windows.
    let mut quiet: Vec<(f64, &Phase)> = segments
        .iter()
        .map(|p| (crate::host::stolen_share(p.began, p.ended), p))
        .collect();
    quiet.sort_by(|a, b| a.0.total_cmp(&b.0));
    quiet.truncate(segments.len().div_ceil(2));
    let tail_latencies: Vec<f64> = quiet
        .iter()
        .flat_map(|(_, p)| p.paced_latencies())
        .collect();
    let windows = (tail_latencies.len() / 200).clamp(1, quiet.len());
    let ref_tail = windowed_tail(&tail_latencies, windows, TAIL_PCT)
        .ok_or("reference phase too short for a tail")?;
    out.notes.push(format!(
        "reference {REFERENCE_RPS}/s: {} requests in {REFERENCE_SEGMENTS} segments, \
         tail_ms is the median p{} of {windows} windows of {} samples from the {} segments \
         with the least CPU stolen (at most {:.1}%)",
        ref_latencies.len(),
        ref_tail.percentile,
        ref_tail.samples / windows,
        quiet.len(),
        100.0 * quiet.last().map_or(0.0, |q| q.0)
    ));
    // Rates at the reference host speed.
    let paced = |rate: fn(&Rung) -> f64| {
        median(
            &passed
                .iter()
                .map(|r| rate(r) * crate::host::pace(r.began, r.ended))
                .collect::<Vec<_>>(),
        )
    };
    let sustained = paced(|r| r.offered_rps);
    let ops_per_s = paced(|r| r.ops_per_s);
    // `attempted`/`failed` cover the fixed reference load. The ladder
    // overloads the server on purpose: its refusals decide the search
    // (they count as misses in each rung's tail) and are reported here
    // and, with the reference load's, in `serve.shed_share`.
    let rung_submitted: u64 = passed.iter().map(|r| r.submitted).sum();
    let rung_failed: u64 = passed.iter().map(|r| r.failed).sum();
    let rung_refused: u64 = passed.iter().map(|r| r.refused).sum();
    out.notes.push(format!(
        "ladder: {} requests over every rung probed, {} refused for overload \
         (shed or over quota); over the passing staircase probes {rung_refused} refused and \
         {rung_failed} not ok of {rung_submitted}",
        ladder.0, ladder.1
    ));
    out.notes.push(format!(
        "sustained: median offered rate of {} passing staircase probes of {STAIRCASE_PROBES} \
         (p{TAIL_PCT} <= {LIMIT_MS} ms, backlog not growing)",
        passed.len()
    ));

    if ctx.trace {
        let answers: Vec<Answer> = segments
            .iter()
            .flat_map(|p| &p.records)
            .map(|r| Answer {
                ok: r.status == ServeStatus::Ok,
                cached: r.cached,
                submit_us: r.submit_us,
                answer_us: r.answer_us,
            })
            .collect();
        // Generator lateness where it matters: at the sustained rate.
        let late: Vec<f64> = passed
            .iter()
            .flat_map(|r| r.late_ms.iter().copied())
            .collect();
        let mut metrics = serve_metrics(
            &answers,
            (reference_refused + rung_refused) as f64
                / (out.attempted + rung_submitted).max(1) as f64,
            tail(&late, 99.0).map_or(0.0, |t| t.value),
            median(
                &segments
                    .iter()
                    .flat_map(Phase::latencies)
                    .collect::<Vec<_>>(),
            ) / untraced_p50.max(1e-9),
        );
        // Layer probes on the hot set and the first tail keys, with
        // lookups against the live cache once all are resident.
        let sample: Vec<Spec> = mix.specs[..mix.hot + 8].to_vec();
        for (i, spec) in sample[mix.hot..].iter().enumerate() {
            let response = core
                .submit(spec.request(format!("probe-{i}"), TENANTS[0]))
                .wait();
            out.checks.expect(response.status == ServeStatus::Ok, || {
                format!("probe request {spec} answered {}", response.status.as_str())
            });
        }
        metrics.extend(crate::layers::probe(
            &sample,
            5,
            &ctx.work,
            Some(core.cache()),
        )?);
        out.metrics = metrics;
    } else {
        out.metrics = vec![
            metric("sustained_rps", sustained, "1/s"),
            metric("ops_per_s", ops_per_s, "1/s"),
            metric("p50_ms", median(&ref_latencies), "ms"),
            metric("tail_ms", ref_tail.value, "ms"),
            metric(
                "setup_s",
                median(
                    &setups
                        .iter()
                        .map(|&(from, to, secs)| secs / crate::host::pace(from, to))
                        .collect::<Vec<_>>(),
                ),
                "s",
            ),
            metric("peak_rss_mb", peak_rss, "MB"),
            metric("artifact_kb", artifact_kb, "KB"),
            metric("plan_cycles", plan_cycles, "cycles"),
        ];
    }
    core.drain();
    Ok(out)
}
