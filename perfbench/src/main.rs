//! `perfbench`: the Para-CONV planner's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! perfbench --workload <serve-hot|plan-cold|import-run> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! It drives the planner's public API in-process, checks every output,
//! and prints a host fingerprint, one line per metric (name, value,
//! unit), the checks, and finally one JSON result line. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer cost table. The exit code is non-zero when any
//! correctness check fails. See `README.md` beside this file.

mod catalog;
mod host;
mod import_run;
mod layers;
mod plan_cold;
mod report;
mod serve_hot;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use paraconv::registry::decode;

use crate::catalog::Spec;
use crate::report::{check_complete, result_line, Checks, Outcome, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <serve-hot|plan-cold|import-run> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// A deliberate fault, used by the tests to prove the checks bite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// One answered registry key is altered before it is checked.
    WrongKey,
    /// One byte of one stored artifact is flipped.
    FlipByte,
}

/// One run's settings.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer run?
    pub trace: bool,
    /// Deliberate fault, if any.
    pub inject: Option<Inject>,
    /// Scratch directory for registries, removed at exit.
    pub work: PathBuf,
    /// Cores available; also the server's worker count and the
    /// closed-loop client count.
    pub nproc: usize,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject: Option<Inject>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => match value {
                "serve-hot" | "plan-cold" | "import-run" => workload = Some(value.to_owned()),
                other => return Err(format!("unknown workload `{other}`")),
            },
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => match value {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace takes 0 or 1".into()),
            },
            "--inject" => match value {
                "wrong-key" => inject = Some(Inject::WrongKey),
                "flip-byte" => inject = Some(Inject::FlipByte),
                other => return Err(format!("unknown fault `{other}`")),
            },
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        inject,
    })
}

/// Alters a hex key in place (first digit toggled between 0 and 1).
pub fn corrupt_key(key: &mut String) {
    let replacement = if key.starts_with('0') { "1" } else { "0" };
    key.replace_range(..1, replacement);
}

/// Flips one byte in the middle of `bytes`.
pub fn flip_byte(bytes: &mut [u8]) {
    if let Some(b) = bytes.get_mut(bytes.len() / 2) {
        *b ^= 0x01;
    }
}

/// Plan quality and size over a reference set of served artifacts:
/// total simulated cycles (each artifact decoded, re-proved and
/// simulated) and mean artifact size in KB. A failure is recorded as a
/// failed check.
pub fn quality(artifacts: &[(Spec, Vec<u8>)], checks: &mut Checks) -> (f64, f64) {
    let mut cycles = 0u64;
    let mut bytes = 0usize;
    for (spec, raw) in artifacts {
        bytes += raw.len();
        let replay = decode(raw).map_err(|e| e.to_string()).and_then(|artifact| {
            let b = artifact.bundle;
            paraconv::verify::verify_outcome(&b.graph, &b.outcome, &b.config)
                .map_err(|e| e.to_string())?;
            paraconv::pim::simulate(&b.graph, &b.outcome.plan, &b.config).map_err(|e| e.to_string())
        });
        match replay {
            Ok(report) => cycles += report.total_time,
            Err(e) => checks.fail(format!("served plan of {spec} does not replay: {e}")),
        }
    }
    (
        cycles as f64,
        bytes as f64 / 1024.0 / artifacts.len().max(1) as f64,
    )
}

/// Removes the scratch directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
        host::sync_filesystems();
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench-work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let _guard = WorkDir(work.clone());
    host::sync_filesystems();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        inject: args.inject,
        work,
        nproc: host::nproc(),
    };
    match args.workload.as_str() {
        "serve-hot" => serve_hot::run(&ctx),
        "plan-cold" => plan_cold::run(&ctx),
        _ => import_run::run(&ctx),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host {}",
        serde_json::to_string(&host::fingerprint(&repo_root()))
    );
    let ticks_before = host::cpu_ticks();
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = check_complete(&outcome.metrics, expected) {
        outcome.checks.fail(format!("incomplete metrics: {e}"));
    }
    let ticks_after = host::cpu_ticks();
    // Steal time: a run on a contended virtual machine reads slow for
    // reasons outside the program; say so next to its numbers.
    outcome.notes.push(format!(
        "host CPU steal during the run: {:.1}%",
        100.0 * ticks_after.steal.saturating_sub(ticks_before.steal) as f64
            / ticks_after.total.saturating_sub(ticks_before.total).max(1) as f64
    ));
    if !args.trace {
        outcome.notes.push(format!(
            "timings are at the reference host speed: each is divided by the host's pace over \
             its stretch (calibration / {} µs, over the share of busy CPU time not stolen; \
             median calibration pace this run {:.3})",
            host::REFERENCE_CALIBRATION_US,
            host::median_pace()
        ));
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    for m in &outcome.metrics {
        println!("metric {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "metric {:<26} {:>16.6} share ({} of {} attempted)",
        "fail_share",
        outcome.fail_share(),
        outcome.failed,
        outcome.attempted
    );
    for failure in outcome.checks.failures() {
        println!("check FAILED {failure}");
    }
    println!(
        "checks {} passed, {} failed",
        outcome.checks.passed(),
        outcome.checks.failed()
    );
    println!("{}", result_line(&outcome));
    if outcome.checks.ok() && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "plan-cold",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("plan-cold", 7, 10.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "serve-hot", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "serve-hot", "--seconds", "0"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn corruptions_change_their_input() {
        let mut key = "0abc".to_owned();
        corrupt_key(&mut key);
        assert_eq!(key, "1abc");
        corrupt_key(&mut key);
        assert_eq!(key, "0abc");
        let mut bytes = vec![b'a'; 5];
        flip_byte(&mut bytes);
        assert_eq!(bytes, b"aa`aa");
    }
}
