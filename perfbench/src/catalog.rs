//! Seeded request catalogs for the three workloads.
//!
//! The program only ever sees the generated requests; the seed picks
//! their order (and, on serve-hot, the hot/tail interleaving). Each
//! workload's *reference set* — the plans `plan_cycles` and
//! `artifact_kb` are computed over — is the same set for every seed,
//! so those two metrics guard plan quality rather than the draw.

use paraconv::graph::TaskGraph;
use paraconv::pim::PimConfig;
use paraconv::registry::{request_key, PlanPolicy};
use paraconv::sched::AllocationPolicy;
use paraconv::serve::PlanRequest;
use paraconv::synth::benchmarks;

/// SplitMix64: a small, seedable, dependency-free generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on the named `stream`, so independent
    /// draws of one run never share a sequence.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One plan request's parameters: a Table 1 benchmark, a PE count and
/// an iteration count, planned with the DP allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Spec {
    /// Table 1 benchmark name.
    pub bench: &'static str,
    /// PE count of the Neurocube configuration.
    pub pes: usize,
    /// Iterations the plan covers.
    pub iterations: u64,
}

impl Spec {
    /// The serve request for this spec.
    #[must_use]
    pub fn request(&self, id: String, tenant: &str) -> PlanRequest {
        PlanRequest {
            id,
            tenant: tenant.to_owned(),
            benchmark: self.bench.to_owned(),
            pes: self.pes,
            iterations: self.iterations,
            policy: AllocationPolicy::DynamicProgram,
            deadline_ms: None,
        }
    }

    /// The graph, configuration and policy the planner builds for this
    /// spec — what `paraconv serve` and `paraconv plan export` build.
    ///
    /// # Errors
    ///
    /// When the benchmark is unknown or the graph or configuration
    /// cannot be built.
    pub fn parts(&self) -> Result<(TaskGraph, PimConfig, PlanPolicy), String> {
        let bench = benchmarks::by_name(self.bench)
            .ok_or_else(|| format!("unknown benchmark `{}`", self.bench))?;
        let graph = bench.graph().map_err(|e| e.to_string())?;
        let config = PimConfig::neurocube(self.pes).map_err(|e| e.to_string())?;
        let policy = PlanPolicy {
            allocation: AllocationPolicy::DynamicProgram,
            iterations: self.iterations,
        };
        Ok((graph, config, policy))
    }

    /// The registry key, recomputed independently of the server.
    ///
    /// # Errors
    ///
    /// As [`parts`](Self::parts).
    pub fn key(&self) -> Result<String, String> {
        let (graph, config, policy) = self.parts()?;
        Ok(request_key(&graph, &config, &policy))
    }
}

impl std::fmt::Display for Spec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}pe×{}", self.bench, self.pes, self.iterations)
    }
}

fn spec(bench: &'static str, pes: usize, iterations: u64) -> Spec {
    Spec {
        bench,
        pes,
        iterations,
    }
}

fn table1_names() -> Vec<&'static str> {
    benchmarks::all().iter().map(|b| b.name()).collect()
}

/// serve-hot's hot set: eight small-graph keys (`cat`/`car`, 8 or 16
/// PEs, 2 or 4 iterations). Warmed during set-up.
#[must_use]
pub fn serve_hot_set() -> Vec<Spec> {
    let mut out = Vec::new();
    for bench in ["cat", "car"] {
        for pes in [8, 16] {
            for iterations in [2, 4] {
                out.push(spec(bench, pes, iterations));
            }
        }
    }
    out
}

/// serve-hot's cold tail: every other `cat`/`car` key at 2–257 PEs and
/// 1–8 iterations (4088 keys). The order is seeded but stratified: it
/// deals round-robin from the 16 (graph, iteration count) strata, in a
/// seeded stratum order, and each stratum deals its PE counts in
/// bit-reversed order under a seeded mask, so its first `2^k` keys hold
/// one PE count from each block of `256 / 2^k` consecutive ones. Every
/// prefix — what one phase's misses draw — then has the same cost
/// profile whatever the seed.
#[must_use]
pub fn serve_cold_tail(seed: u64) -> Vec<Spec> {
    let hot = serve_hot_set();
    let mut rng = Rng::new(seed, 1);
    let mut strata: Vec<Vec<Spec>> = Vec::new();
    for bench in ["cat", "car"] {
        for iterations in 1..=8 {
            let mask = rng.below(256);
            let stratum: Vec<Spec> = (0..=u8::MAX)
                .map(|i| 2 + (usize::from(i.reverse_bits()) ^ mask))
                .map(|pes| spec(bench, pes, iterations))
                .filter(|s| !hot.contains(s))
                .collect();
            strata.push(stratum);
        }
    }
    rng.shuffle(&mut strata);
    let longest = strata.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| strata.iter().filter_map(move |s| s.get(i).copied()))
        .collect()
}

/// PE counts of plan-cold's walk: the Neurocube sizes the paper's
/// and this repository's sweeps plan for.
const PLAN_COLD_PES: [usize; 3] = [16, 32, 64];
/// Iteration counts of plan-cold's walk. Artifacts grow with the
/// iteration count and the vendored JSON parser's decode cost grows
/// with the square of the artifact; at four iterations the largest
/// graph's plan is already about 290 KB, and every distinct plan must
/// still be decoded and re-proved within the run.
const PLAN_COLD_ITERATIONS: [u64; 4] = [1, 2, 3, 4];

/// plan-cold's reference set: every Table 1 graph at each PE count,
/// two iterations (36 plans). Every walk starts with it.
#[must_use]
pub fn plan_cold_reference() -> Vec<Spec> {
    let mut out = Vec::new();
    for bench in table1_names() {
        for pes in PLAN_COLD_PES {
            out.push(spec(bench, pes, 2));
        }
    }
    out
}

/// plan-cold's catalog: every Table 1 graph × 16, 32 and 64 PEs × one
/// to four iterations — 144 distinct keys, artifacts of about 3 to
/// 290 KB. Small graphs' requests cost little besides the registry's
/// fsync; large graphs' are dominated by encoding.
#[must_use]
pub fn plan_cold_catalog() -> Vec<Spec> {
    let mut out = Vec::new();
    for bench in table1_names() {
        for pes in PLAN_COLD_PES {
            for it in PLAN_COLD_ITERATIONS {
                out.push(spec(bench, pes, it));
            }
        }
    }
    out
}

/// plan-cold's layer-probe sample: every sixth catalog key, in catalog
/// order — two plans per Table 1 graph at mixed PE and iteration
/// counts. The same for every seed.
#[must_use]
pub fn plan_cold_probe_sample() -> Vec<Spec> {
    plan_cold_catalog().into_iter().step_by(6).collect()
}

/// Pass `pass` of plan-cold's walk: a seeded permutation of the
/// catalog (every key once). Pass 0 starts with the reference set, so
/// every run plans it first.
#[must_use]
pub fn plan_cold_pass(seed: u64, pass: u64) -> Vec<Spec> {
    let catalog = plan_cold_catalog();
    let reference = plan_cold_reference();
    let mut rng = Rng::new(seed, 100 + pass);
    if pass > 0 {
        let mut all = catalog;
        rng.shuffle(&mut all);
        return all;
    }
    let mut head = reference.clone();
    rng.shuffle(&mut head);
    let mut rest: Vec<Spec> = catalog
        .into_iter()
        .filter(|s| !reference.contains(s))
        .collect();
    rng.shuffle(&mut rest);
    head.extend(rest);
    head
}

/// import-run's export set: `cat`/`car`/`flower`/`character-*` at 16
/// PEs and rising iteration counts, so artifacts range from about
/// 10 KB to a few hundred KB. Fifteen artifacts: with an odd count the
/// median and p90 of a round fall inside one artifact's cost, not on
/// the edge between two.
#[must_use]
pub fn import_exports() -> Vec<Spec> {
    let mut out = Vec::new();
    for (bench, iterations) in [
        ("cat", &[16, 32, 64, 128, 256][..]),
        ("car", &[32, 64, 128][..]),
        ("flower", &[16, 32, 64][..]),
        ("character-1", &[16, 48][..]),
        ("character-2", &[16, 48][..]),
    ] {
        for &it in iterations {
            out.push(spec(bench, 16, it));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn walks_are_seeded_and_distinct() {
        let catalog: HashSet<_> = plan_cold_catalog().into_iter().collect();
        assert_eq!(catalog.len(), plan_cold_catalog().len());
        assert_eq!(catalog.len(), 144);
        let reference: HashSet<_> = plan_cold_reference().into_iter().collect();
        assert!(reference.is_subset(&catalog));
        for pass in 0..3 {
            let a = plan_cold_pass(7, pass);
            assert_eq!(a, plan_cold_pass(7, pass));
            assert_ne!(a, plan_cold_pass(8, pass));
            assert_eq!(a.iter().copied().collect::<HashSet<_>>(), catalog);
        }
        let first = plan_cold_pass(7, 0);
        assert_eq!(
            first[..36].iter().copied().collect::<HashSet<_>>(),
            reference
        );
        let sample = plan_cold_probe_sample();
        assert_eq!(sample.len(), 24);
        let graphs: HashSet<_> = sample.iter().map(|s| s.bench).collect();
        assert_eq!(graphs.len(), 12);
        let tail = serve_cold_tail(3);
        assert_eq!(tail.len(), 4088);
        assert_ne!(tail, serve_cold_tail(4));
        // Any 16 consecutive keys from the start cover all 16 strata.
        let strata: HashSet<_> = tail[..16].iter().map(|s| (s.bench, s.iterations)).collect();
        assert_eq!(strata.len(), 16);
        assert_eq!(tail.iter().collect::<HashSet<_>>().len(), tail.len());
        // A stratum without hot keys deals its first 16 PE counts one
        // from each block of 16.
        for seed in [3, 4] {
            let tail = serve_cold_tail(seed);
            let first: Vec<usize> = tail
                .iter()
                .filter(|s| (s.bench, s.iterations) == ("car", 5))
                .take(16)
                .map(|s| (s.pes - 2) / 16)
                .collect();
            assert_eq!(first.iter().collect::<HashSet<_>>().len(), 16);
        }
        assert!(serve_hot_set().iter().all(|h| !tail.contains(h)));
    }
}
