//! Summary statistics and the serve-hot rate-ladder rule.
//!
//! Everything here is pure so the rules that decide a reported number
//! can be unit-tested without running a workload.

/// The percentile ladder a tail is chosen from, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The fewest samples that must lie strictly beyond a reported tail.
pub const MIN_BEYOND_TAIL: usize = 10;

/// A tail latency: the percentile actually used, its value and how
/// many samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in `(0, 100)`.
    pub percentile: f64,
    /// Value at that percentile (same unit as the samples).
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Nearest-rank index of percentile `p` in a sorted sample of `n`.
fn rank(p: f64, n: usize) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len())]
}

/// Sorts a copy of the samples ascending (NaN-free input assumed;
/// infinities, which stand for failed requests, sort last).
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample; `0.0` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile_sorted(&sorted(samples), 50.0)
}

/// Mean of a sample; `0.0` when empty.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The highest percentile not above `stated` that leaves at least
/// [`MIN_BEYOND_TAIL`] samples strictly beyond its rank. Returns
/// `None` when even the median leaves fewer.
#[must_use]
pub fn tail_percentile(n: usize, stated: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= stated)
        .find(|&p| n > 0 && n - (rank(p, n) + 1) >= MIN_BEYOND_TAIL)
}

/// The tail of a sample at the workload's stated percentile, stepping
/// down the ladder until ten samples lie beyond it. A sample too small
/// for even the median falls back to its maximum (reported as
/// percentile 100).
#[must_use]
pub fn tail(samples: &[f64], stated: f64) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let (percentile, value) = match tail_percentile(s.len(), stated) {
        Some(p) => (p, percentile_sorted(&s, p)),
        None => (100.0, s[s.len() - 1]),
    };
    Some(Tail {
        percentile,
        value,
        samples: s.len(),
    })
}

/// A tail robust to one-off stalls: the sample (in time order) is cut
/// into `windows` equal stretches, the tail of each is taken as in
/// [`tail`], and the median of those tails is reported. A single
/// multi-millisecond stall of the host then moves one window, not the
/// result. `None` when a window would hold fewer than 20 samples.
#[must_use]
pub fn windowed_tail(samples: &[f64], windows: usize, stated: f64) -> Option<Tail> {
    let windows = windows.max(1);
    let len = samples.len() / windows;
    if len < 2 * MIN_BEYOND_TAIL {
        return None;
    }
    let tails: Vec<Tail> = samples
        .chunks(len)
        .take(windows)
        .filter_map(|w| tail(w, stated))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(Tail {
        percentile: tails.iter().map(|t| t.percentile).fold(100.0, f64::min),
        value: median(&values),
        samples: len * windows,
    })
}

/// The serve-hot rate ladder: `base · 2^(k/16)` for `k = 0..steps`,
/// about 4.4% apart.
#[must_use]
pub fn ladder(base: f64, steps: usize) -> Vec<f64> {
    (0..steps)
        .map(|k| base * 2f64.powf(k as f64 / 16.0))
        .collect()
}

/// Binary search for the highest rung in `lo..hi` that passes,
/// assuming a rung that passes implies every lower rung passes and
/// that rung `hi` (if any) fails. Probes about `log2(hi - lo)` rungs;
/// returns `None` when rung `lo` fails too.
pub fn highest_passing(
    lo: usize,
    hi: usize,
    mut passes: impl FnMut(usize) -> bool,
) -> Option<usize> {
    // Invariant: every index <= lo passes (lo = first - 1: none known),
    // every index >= hi fails.
    let first = lo as i64;
    let (mut lo, mut hi) = (first - 1, hi as i64);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if passes(mid as usize) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo >= first).then_some(lo as usize)
}

/// A staircase over rungs `0..=top`: `probes` probes starting at rung
/// `*at`, one rung up after a pass (`Some`), one down after a failure
/// (`None`). It settles around the highest rung that passes and leaves
/// `*at` where the next probe would go. Returns what the passing probes
/// measured, in order.
pub fn staircase<T>(
    at: &mut usize,
    probes: usize,
    top: usize,
    mut probe: impl FnMut(usize) -> Option<T>,
) -> Vec<T> {
    let mut passed = Vec::new();
    for _ in 0..probes {
        match probe(*at) {
            Some(measured) => {
                passed.push(measured);
                *at = (*at + 1).min(top);
            }
            None => *at = at.saturating_sub(1),
        }
    }
    passed
}

/// Does a rung's backlog grow? `samples` are outstanding-request counts
/// taken at even intervals over the rung. The backlog grows when the
/// median of its last quarter exceeds twice the median of its first
/// quarter plus `floor` (the slack a healthy pool keeps in flight).
#[must_use]
pub fn backlog_grows(samples: &[u64], floor: u64) -> bool {
    if samples.len() < 4 {
        return false;
    }
    let q = samples.len() / 4;
    let quarter = |s: &[u64]| median(&s.iter().map(|&v| v as f64).collect::<Vec<_>>());
    let first = quarter(&samples[..q]);
    let last = quarter(&samples[samples.len() - q..]);
    last > 2.0 * first + floor as f64
}

/// The sustained-rate rule for one rung: the windowed tail of
/// `latencies_ms` (in time order; failed or refused requests entered as
/// `f64::INFINITY`) at the stated percentile stays within `limit_ms`,
/// the failures over the whole rung are no more than the share beyond
/// that percentile (so refusals bunched in a few windows cannot hide
/// behind the windows' median), and the backlog does not grow.
#[must_use]
pub fn rung_passes(
    latencies_ms: &[f64],
    windows: usize,
    stated: f64,
    limit_ms: f64,
    backlog: &[u64],
    floor: u64,
) -> bool {
    let within = windowed_tail(latencies_ms, windows, stated).is_some_and(|t| t.value <= limit_ms);
    let failures = latencies_ms.iter().filter(|v| !v.is_finite()).count();
    let allowed = (100.0 - stated) / 100.0 * latencies_ms.len() as f64;
    within && failures as f64 <= allowed && !backlog_grows(backlog, floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2000 samples: p99.5 leaves exactly 10 beyond, p99.9 only 2.
        assert_eq!(tail_percentile(2000, 99.9), Some(99.5));
        assert_eq!(tail_percentile(2000, 99.0), Some(99.0));
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        // 999 samples: p99 rank 990 leaves 9, so step down to p98.
        assert_eq!(tail_percentile(999, 99.0), Some(98.0));
        // 100 samples at a stated p90: exactly 10 beyond.
        assert_eq!(tail_percentile(100, 90.0), Some(90.0));
        assert_eq!(tail_percentile(99, 90.0), Some(80.0));
        // Too few for any percentile.
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
        for n in 20..3000 {
            let p = tail_percentile(n, 99.9).expect("n >= 20 always has a tail");
            assert!(n - (rank(p, n) + 1) >= MIN_BEYOND_TAIL, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_value_is_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&samples, 99.0).expect("non-empty");
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        let small = tail(&[3.0, 1.0, 2.0], 99.0).expect("non-empty");
        assert_eq!((small.percentile, small.value), (100.0, 3.0));
        assert!(tail(&[], 99.0).is_none());
    }

    #[test]
    fn failures_count_as_misses() {
        let mut lat = vec![1.0; 990];
        lat.extend(std::iter::repeat_n(f64::INFINITY, 10));
        // Exactly ten failures sit beyond p99: the tail is still 1 ms.
        assert!(rung_passes(&lat, 1, 99.0, 5.0, &[], 8));
        lat.push(f64::INFINITY);
        assert!(!rung_passes(&lat, 1, 99.0, 5.0, &[], 8));
        // Refusals bunched into one of four windows: each other window's
        // p99 is within the limit, so the windows' median is too, but 2%
        // of the rung failed.
        let mut bunched = vec![1.0; 4000];
        for v in &mut bunched[1000..1080] {
            *v = f64::INFINITY;
        }
        assert_eq!(windowed_tail(&bunched, 4, 99.0).map(|t| t.value), Some(1.0));
        assert!(!rung_passes(&bunched, 4, 99.0, 5.0, &[], 8));
        // Forty bunched refusals are 1% of the rung: allowed.
        for v in &mut bunched[1040..1080] {
            *v = 1.0;
        }
        assert!(rung_passes(&bunched, 4, 99.0, 5.0, &[], 8));
    }

    #[test]
    fn backlog_rule() {
        assert!(!backlog_grows(&[3, 4, 2, 5, 3, 4, 3, 2], 8));
        assert!(!backlog_grows(&[0, 0, 0, 0, 0, 0, 8, 8], 8));
        assert!(backlog_grows(&[0, 0, 5, 10, 20, 40, 80, 160], 8));
        assert!(backlog_grows(&[10, 10, 10, 10, 40, 40, 40, 40], 8));
        assert!(!backlog_grows(&[1, 100], 8), "too few samples to judge");
        let lat = vec![0.1; 2000];
        assert!(rung_passes(&lat, 4, 99.0, 5.0, &[0, 0, 0, 0], 8));
        assert!(!rung_passes(
            &lat,
            4,
            99.0,
            5.0,
            &[0, 0, 50, 100, 200, 400, 800, 1600],
            8
        ));
        assert!(!rung_passes(&vec![6.0; 2000], 4, 99.0, 5.0, &[0; 8], 8));
    }

    #[test]
    fn ladder_search_finds_the_highest_passing_rung() {
        let rates = ladder(250.0, 145);
        assert_eq!(rates.len(), 145);
        assert!((rates[16] - 500.0).abs() < 1e-9);
        for capacity in [0.0, 260.0, 1000.0, 12_345.0, 1e9] {
            let mut probes = 0;
            let found = highest_passing(0, rates.len(), |i| {
                probes += 1;
                rates[i] <= capacity
            });
            let expected = rates.iter().rposition(|&r| r <= capacity);
            assert_eq!(found, expected, "capacity {capacity}");
            assert!(probes <= 8, "{probes} probes for 145 rungs");
        }
        // Bracketed: only rungs 40..53 are probed.
        let mut probed = Vec::new();
        let found = highest_passing(40, 53, |i| {
            probed.push(i);
            i <= 47
        });
        assert_eq!(found, Some(47));
        assert!(probed.iter().all(|i| (40..53).contains(i)) && probed.len() <= 4);
        assert_eq!(highest_passing(40, 53, |_| false), None);
        assert_eq!(highest_passing(40, 53, |_| true), Some(52));
    }

    #[test]
    fn staircase_settles_at_the_highest_passing_rung() {
        // Rungs up to 9 pass: from below it climbs, then alternates 9/10.
        let mut at = 6;
        let passed = staircase(&mut at, 12, 20, |i| (i <= 9).then_some(i));
        assert_eq!(passed, [6, 7, 8, 9, 9, 9, 9, 9]);
        assert_eq!(at, 10);
        // From above it walks down first.
        let mut at = 13;
        let passed = staircase(&mut at, 8, 20, |i| (i <= 9).then_some(i));
        assert_eq!(passed, [9, 9]);
        assert_eq!(
            median(&passed.iter().map(|&i| i as f64).collect::<Vec<_>>()),
            9.0
        );
        // It stays inside the ladder.
        let mut at = 0;
        assert!(staircase(&mut at, 3, 20, |_| None::<usize>).is_empty());
        assert_eq!(at, 0);
        let mut at = 19;
        assert_eq!(staircase(&mut at, 3, 20, Some), [19, 20, 20]);
        assert_eq!(at, 20);
    }

    #[test]
    fn windowed_tail_ignores_one_stall() {
        // Four windows of 1000; one holds a 60-sample stall.
        let mut lat = vec![1.0; 4000];
        for v in &mut lat[1500..1560] {
            *v = 50.0;
        }
        assert_eq!(tail(&lat, 99.0).map(|t| t.value), Some(50.0));
        let w = windowed_tail(&lat, 4, 99.0).expect("enough samples");
        assert_eq!((w.value, w.percentile, w.samples), (1.0, 99.0, 4000));
        assert!(rung_passes(&lat, 4, 99.0, 5.0, &[], 8));
        assert!(!rung_passes(&lat, 1, 99.0, 5.0, &[], 8));
        // A slow-down in every window is not a stall.
        for w in 0..4 {
            for v in &mut lat[w * 1000..w * 1000 + 20] {
                *v = 50.0;
            }
        }
        assert!(!rung_passes(&lat, 4, 99.0, 5.0, &[], 8));
        assert!(windowed_tail(&lat[..79], 4, 99.0).is_none());
    }

    #[test]
    fn summaries() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0, 6.0]), 3.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }
}
