//! Host fingerprint and process resource readings.
//!
//! Every result carries the fingerprint, so two results are comparable
//! only when their fingerprints match: same core count, CPU model,
//! compiler and source revision.

use std::path::Path;
use std::process::Command;
use std::sync::Mutex;
use std::time::Instant;

use paraconv::registry::Sha256;
use serde_json::{Map, Number, Value};

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model from `/proc/cpuinfo`, or `unknown`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The source revision: `git rev-parse HEAD` when the sources are a
/// git checkout, else `tree:` and a SHA-256 over every source file
/// under `crates/`, `vendor/` and the benchmark's own directory.
#[must_use]
pub fn source_rev(root: &Path) -> String {
    let git = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned());
    if let Some(rev) = git.filter(|r| !r.is_empty()) {
        return rev;
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hasher = Sha256::new();
    for file in &files {
        let Ok(bytes) = std::fs::read(file) else {
            continue;
        };
        hasher.update(
            file.strip_prefix(root)
                .unwrap_or(file)
                .to_string_lossy()
                .as_bytes(),
        );
        hasher.update(&bytes);
    }
    let digest: String = hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    format!("tree:{}", &digest[..16])
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if name == "target" || name.to_string_lossy().starts_with('.') {
            continue;
        }
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
        {
            out.push(path);
        }
    }
}

/// The fingerprint as one JSON object (alphabetical keys).
#[must_use]
pub fn fingerprint(root: &Path) -> Value {
    let mut obj = Map::new();
    obj.insert("cpu".into(), Value::String(cpu_model()));
    obj.insert("git_rev".into(), Value::String(source_rev(root)));
    obj.insert(
        "nproc".into(),
        Value::Number(Number::from_u64(nproc() as u64)),
    );
    obj.insert(
        "rustc".into(),
        Value::String(env!("PERFBENCH_RUSTC_VERSION").to_owned()),
    );
    Value::Object(obj)
}

/// A `/proc/self/status` memory field (such as `VmHWM:`) in MB, or 0.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`] (or since it started), in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Starts a new peak-memory window: resets `VmHWM` to the current
/// resident set (Linux: `echo 5 > /proc/self/clear_refs`). A measured
/// phase calls this at its start and reads [`peak_rss_mb`] at its end,
/// so the figure is that phase's own peak — requests in flight
/// included — and not one left by set-up or by an earlier phase. Best
/// effort: where the reset is unavailable the peak covers the whole
/// process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Cumulative CPU time of the machine from `/proc/stat`, in clock
/// ticks (all zero where it cannot be read).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// How long the hypervisor ran something else while a vCPU had
    /// work.
    pub steal: u64,
    /// How long the vCPUs had work: ran it (user, nice, system, irq,
    /// softirq) or had it stolen.
    pub busy: u64,
    /// All time, idle included.
    pub total: u64,
}

/// The machine's [`CpuTicks`] now.
#[must_use]
pub fn cpu_ticks() -> CpuTicks {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let fields: Vec<u64> = text
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect();
            let field = |i: usize| fields.get(i).copied().unwrap_or(0);
            Some(CpuTicks {
                steal: field(7),
                busy: [0, 1, 2, 5, 6, 7].into_iter().map(field).sum(),
                total: fields.iter().sum(),
            })
        })
        .unwrap_or_default()
}

/// Asks Linux for 1 ns timer slack on the calling thread, so the
/// open-loop submitter wakes when a request is due rather than up to
/// the default 50 µs later. Best effort: elsewhere it does nothing.
pub fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_ulong};
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        const PR_SET_TIMERSLACK: c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // changes the calling thread's timer slack; no memory is read
        // or written, and a failure is reported through the return
        // value, which is ignored because the call is only a hint.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }
}

/// Moves the calling thread to Linux's `SCHED_IDLE` policy: it runs
/// only when no other thread of the machine wants the CPU. Best effort.
pub fn idle_priority() {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::c_int;
        #[repr(C)]
        struct SchedParam {
            sched_priority: c_int,
        }
        extern "C" {
            fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
        }
        const SCHED_IDLE: c_int = 5;
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: `param` is a valid, initialised sched_param that
        // outlives the call; pid 0 names the calling thread; a failure
        // is reported through the return value, ignored as a hint.
        unsafe {
            sched_setscheduler(0, SCHED_IDLE, &param);
        }
    }
}

/// Flushes every file system's dirty data. The runs write and delete
/// thousands of fsynced registry objects; flushing before measuring
/// and after cleaning up keeps one run's write-back out of the next
/// run's numbers.
pub fn sync_filesystems() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sync();
        }
        // SAFETY: sync(2) takes no arguments, touches no memory of this
        // process and cannot fail.
        unsafe { sync() };
    }
}

/// Returns freed heap memory to the kernel (glibc `malloc_trim`). Each
/// serving phase runs a fresh server in this one process; trimming
/// before a phase makes it start from the footprint a fresh process
/// would have, so `peak_rss_mb` measures one server's peak rather than
/// allocator fragmentation left by earlier phases' threads.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: malloc_trim takes a byte count, only releases memory
        // the allocator holds free, and is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The calibration time of [`calibrate`] on the host the benchmark was
/// tuned on (a 2-vCPU Intel Xeon VM at its faster speed), µs: the
/// end-to-end timings are reported at this host speed.
pub const REFERENCE_CALIBRATION_US: f64 = 1250.0;

/// One calibration: when it was taken, its time in µs, and the
/// machine's CPU ticks then.
type Calibration = (Instant, f64, CpuTicks);

/// This run's calibrations.
static CALIBRATIONS: Mutex<Vec<Calibration>> = Mutex::new(Vec::new());

/// Times a fixed CPU workload of this package's own, which does not
/// touch the planner — sort a pseudo-random vector, build and probe a
/// `BTreeMap`, format numbers — five times, and records the median
/// with the time it was taken and the machine's CPU ticks. The workloads call it between measured
/// stretches, when none of the planner's threads run, and once after
/// the last. Every buffer stays well below glibc's 128 KiB mmap
/// threshold: freeing a larger, mmapped one raises the allocator's
/// mmap and trim thresholds for the rest of the process, which slowed
/// import-run's imports by a third.
pub fn calibrate() {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            calibration_kernel();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    CALIBRATIONS
        .lock()
        .expect("calibration lock poisoned")
        .push((Instant::now(), crate::stats::median(&times), cpu_ticks()));
}

fn calibration_kernel() {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut hits = 0;
    let mut chars = 0;
    for _ in 0..4 {
        let mut v: Vec<u64> = (0..5_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        v.sort_unstable();
        let map: std::collections::BTreeMap<u64, usize> = v
            .iter()
            .step_by(4)
            .enumerate()
            .map(|(i, k)| (*k, i))
            .collect();
        hits += v.iter().filter(|k| map.contains_key(k)).count();
        chars += v
            .iter()
            .take(500)
            .map(|k| format!("{k:x}").len())
            .sum::<usize>();
    }
    std::hint::black_box((hits, chars));
}

/// The host's pace over `from..to`: how much slower than the reference
/// host it ran. That is the mean of the calibrations taken during the
/// stretch and of the last one before and the first one after it,
/// divided by [`REFERENCE_CALIBRATION_US`], and divided again by the
/// share of the vCPUs' busy time the hypervisor did not steal between
/// those two. 1 when there are no calibrations.
///
/// A shared VM's speed moves by up to half within seconds — this
/// host's calibrations alternate between about 1200 and 1700 µs in one
/// run — and every timing of the planner follows it. Steal that falls
/// between calibrations slows the planner's threads without showing in
/// them: plan-cold runs at 7–9% steal read 12–15% slower than the
/// rest. A stretch's timing divided by its pace is the timing at the
/// reference speed. The calibration is this package's own code, so a
/// change to the planner moves the paced figures exactly as it moves
/// the raw ones.
#[must_use]
pub fn pace(from: Instant, to: Instant) -> f64 {
    let all = CALIBRATIONS.lock().expect("calibration lock poisoned");
    bracketing(&all, from, to).map_or(1.0, |(speed, stolen)| speed / (1.0 - stolen))
}

/// The share of the vCPUs' busy time the hypervisor stole over
/// `from..to`, between the calibrations that bracket it (0 when fewer
/// than two do).
#[must_use]
pub fn stolen_share(from: Instant, to: Instant) -> f64 {
    let all = CALIBRATIONS.lock().expect("calibration lock poisoned");
    bracketing(&all, from, to).map_or(0.0, |(_, stolen)| stolen)
}

/// Over the calibrations `all` that bracket `from..to` — those taken
/// within it, the last one before and the first one after — their mean
/// time over [`REFERENCE_CALIBRATION_US`], and the share of busy time
/// stolen between the first and the last of them. `None` when there
/// are no calibrations.
fn bracketing(all: &[Calibration], from: Instant, to: Instant) -> Option<(f64, f64)> {
    let lo = all.iter().rposition(|c| c.0 <= from).unwrap_or(0);
    let hi = all
        .iter()
        .position(|c| c.0 >= to)
        .unwrap_or(all.len().checked_sub(1)?);
    let used = all.get(lo..=hi)?;
    let mean_us = used.iter().map(|c| c.1).sum::<f64>() / used.len() as f64;
    let (first, last) = (used[0].2, used[used.len() - 1].2);
    let busy = last.busy.saturating_sub(first.busy);
    let stolen = if busy == 0 {
        0.0
    } else {
        (last.steal.saturating_sub(first.steal) as f64 / busy as f64).min(0.9)
    };
    Some((mean_us / REFERENCE_CALIBRATION_US, stolen))
}

/// The median pace over this run's calibrations (1 when none), for the
/// notes.
#[must_use]
pub fn median_pace() -> f64 {
    let all = CALIBRATIONS.lock().expect("calibration lock poisoned");
    if all.is_empty() {
        return 1.0;
    }
    crate::stats::median(&all.iter().map(|c| c.1).collect::<Vec<_>>()) / REFERENCE_CALIBRATION_US
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_stretch_is_paced_by_the_calibrations_around_it() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let r = REFERENCE_CALIBRATION_US;
        let ticks = |steal, busy| CpuTicks {
            steal,
            busy,
            total: 2 * busy,
        };
        let all = [
            (at(0), r, ticks(0, 100)),
            (at(10), 2.0 * r, ticks(0, 200)),
            (at(20), 3.0 * r, ticks(25, 300)),
            (at(30), 5.0 * r, ticks(25, 400)),
        ];
        let bracket = |from, to| bracketing(&all, from, to);
        // Between two calibrations: those two, and a quarter of the busy
        // time between them stolen.
        assert_eq!(bracket(at(11), at(19)), Some((2.5, 0.25)));
        // Spanning one: it and its neighbours on both sides.
        assert_eq!(bracket(at(5), at(25)), Some((2.75, 25.0 / 300.0)));
        // Before the first or after the last: the nearest on the open
        // side; one calibration gives no steal.
        assert_eq!(bracket(t0, at(5)), Some((1.5, 0.0)));
        assert_eq!(bracket(at(31), at(40)), Some((5.0, 0.0)));
        assert_eq!(bracketing(&[], t0, at(1)), None);
    }
}
