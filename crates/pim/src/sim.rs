//! The execution-plan simulator.
//!
//! [`simulate`] replays an [`ExecutionPlan`] on the
//! architecture described by a [`PimConfig`], validating every
//! architectural constraint and producing a [`SimReport`]:
//!
//! * every `(node, iteration)` instance planned exactly once, with the
//!   node's execution time;
//! * no processing engine executes two instances at once;
//! * every data dependency `I_{i,j}^ℓ` is realized by a transfer that
//!   starts after the producer finishes, completes before the consumer
//!   starts, is routed to the consumer's PE, and is no shorter than the
//!   latency of its placement;
//! * cache-resident IPRs never exceed the aggregate on-chip capacity;
//! * in-flight transfers to one PE never exceed its iFIFO depth.
//!
//! Replay follows the plan's type. Every per-task and per-transfer
//! check runs once, over the plan's stored instances: all of an
//! explicit plan, or the block of iterations `1..=u` plus any explicit
//! tail of a periodic one. A periodic plan's repeated iterations are
//! the block shifted by whole periods, so every intra-iteration
//! relation the checks prove carries over unchanged; those iterations
//! only re-apply the block's accounting and sweep events with their
//! shift. What spans iterations is swept
//! over every instance: PE-interval exclusivity by one global sort of
//! packed `(pe, start, index)` keys, and cache, iFIFO and vault
//! occupancy through sorted struct-of-arrays event lanes.
//!
//! The simulator is the ground truth for the evaluation: both SPARTA
//! and Para-CONV plans are replayed here, so reported improvements are
//! measured under identical architectural rules.

use std::collections::HashMap;

use paraconv_graph::{Placement, TaskGraph};

use crate::pe::RecordError;
use crate::{
    CostModel, ExecutionPlan, Pe, PeId, PimConfig, PlannedTransfer, SimError, SimReport, VaultArray,
};

/// Cap on the dense instance-index footprint. Real plans are far
/// below this (the largest benchmark is ~546 nodes × 51 iteration
/// slots ≈ 28k entries); an adversarial plan declaring a huge
/// iteration count falls back to hash-map indexing instead of
/// allocating `keys × iterations` slots.
const MAX_DENSE_INDEX: u128 = 1 << 26;

/// Positional index over `(dense key, iteration)` instance pairs.
///
/// The simulator previously used `HashMap<(NodeId, u64), usize>` /
/// `HashMap<(EdgeId, u64), usize>` here; since node and edge ids are
/// dense and a plan's block covers iterations `1..=n`, a flat
/// `Vec<usize>` keyed `key * (n + 1) + iteration` answers
/// the same lookups without hashing. Iterations outside the declared
/// range (or any iteration, when the declared range is implausibly
/// large) spill to a small `HashMap` so behaviour is unchanged for
/// malformed plans.
struct InstanceIndex {
    /// Dense stride (`iterations + 1`); 0 disables the dense lane.
    stride: usize,
    dense: Vec<usize>,
    spill: HashMap<(usize, u64), usize>,
}

impl InstanceIndex {
    const ABSENT: usize = usize::MAX;

    fn new(keys: usize, iterations: u64) -> Self {
        let stride = iterations.saturating_add(1);
        if (stride as u128) * (keys as u128) <= MAX_DENSE_INDEX {
            InstanceIndex {
                stride: stride as usize,
                dense: vec![Self::ABSENT; keys * stride as usize],
                spill: HashMap::new(),
            }
        } else {
            InstanceIndex {
                stride: 0,
                dense: Vec::new(),
                spill: HashMap::new(),
            }
        }
    }

    fn slot(&self, key: usize, iteration: u64) -> Option<usize> {
        if iteration < self.stride as u64 {
            Some(key * self.stride + iteration as usize)
        } else {
            None
        }
    }

    /// Inserts `value` for the instance, returning the previous value
    /// if the instance was already present (a duplicate plan entry).
    fn insert(&mut self, key: usize, iteration: u64, value: usize) -> Option<usize> {
        match self.slot(key, iteration) {
            Some(slot) => {
                // lint: allow(unchecked-index) — ids are validated against the plan before the event loop starts
                let prev = self.dense[slot];
                // lint: allow(unchecked-index) — ids are validated against the plan before the event loop starts
                self.dense[slot] = value;
                (prev != Self::ABSENT).then_some(prev)
            }
            None => self.spill.insert((key, iteration), value),
        }
    }

    fn get(&self, key: usize, iteration: u64) -> Option<usize> {
        match self.slot(key, iteration) {
            Some(slot) => {
                // lint: allow(unchecked-index) — ids are validated against the plan before the event loop starts
                let v = self.dense[slot];
                (v != Self::ABSENT).then_some(v)
            }
            None => self.spill.get(&(key, iteration)).copied(),
        }
    }

    fn contains(&self, key: usize, iteration: u64) -> bool {
        self.get(key, iteration).is_some()
    }
}

/// A sorted struct-of-arrays event lane.
///
/// The sweeps previously sorted `Vec<(u64, i64)>` / `Vec<(u64, i32)>`
/// tuples; packing `(time, delta)` into one `u128` key — time in the
/// high 64 bits, the delta sign-flipped below it — keeps the exact
/// same order (`sort_unstable` on the keys equals `sort_by_key` on
/// `(t, delta)` because the sign flip is order-preserving for `i64`)
/// while sorting a flat scalar array.
struct EventLane {
    keys: Vec<u128>,
}

impl EventLane {
    /// XOR-ing an `i64` delta with this bit maps the signed order onto
    /// the unsigned order of the low key half.
    const SIGN_FLIP: u64 = 1 << 63;

    fn new() -> Self {
        EventLane { keys: Vec::new() }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn push(&mut self, time: u64, delta: i64) {
        self.keys
            .push((u128::from(time) << 64) | u128::from((delta as u64) ^ Self::SIGN_FLIP));
    }

    fn keys(&self) -> &[u128] {
        &self.keys
    }

    fn into_sorted(mut self) -> Vec<u128> {
        self.keys.sort_unstable();
        self.keys
    }

    fn decode(key: u128) -> (u64, i64) {
        ((key >> 64) as u64, ((key as u64) ^ Self::SIGN_FLIP) as i64)
    }
}

/// Reusable bucket buffers for [`bucketed_peak`], sized once per
/// replay to the plan horizon and re-zeroed after every lane.
struct SweepScratch {
    /// Net delta per time bucket.
    net: Vec<i64>,
    /// Sum of the negative deltas per time bucket (tracked only for
    /// lanes whose occupancy must never dip below zero).
    neg: Vec<i64>,
}

impl SweepScratch {
    fn new() -> Self {
        SweepScratch {
            net: Vec::new(),
            neg: Vec::new(),
        }
    }
}

/// Peak running occupancy of one event lane via a time-bucketed scan:
/// O(events + horizon), no sort.
///
/// Returns `None` when the exact sorted sweep must run instead —
/// an event lies outside `horizon`, the horizon is too sparse for
/// bucketing to pay off, the peak crosses `limit` (the sorted sweep
/// owns the canonical first-violation diagnosis), or
/// `negative_is_violation` and the running value can dip below zero.
///
/// Equal-time ordering (releases sort before acquisitions) only
/// matters inside one bucket, where the running value moves down and
/// then up: its intra-bucket maximum is `max(before, after)` and its
/// minimum is `before + neg[t]`, so per-bucket boundary checks see
/// every extreme the per-event sweep sees.
fn bucketed_peak(
    keys: &[u128],
    horizon: usize,
    limit: Option<i64>,
    negative_is_violation: bool,
    scratch: &mut SweepScratch,
) -> Option<i64> {
    if keys.is_empty() {
        return Some(0);
    }
    if horizon == 0 || horizon > keys.len() * 4 + 1024 {
        return None;
    }
    if keys.iter().any(|&key| (key >> 64) as usize >= horizon) {
        return None;
    }
    if scratch.net.len() < horizon {
        scratch.net.resize(horizon, 0);
        scratch.neg.resize(horizon, 0);
    }
    for &key in keys {
        let t = (key >> 64) as usize;
        let (_, delta) = EventLane::decode(key);
        // lint: allow(unchecked-index) — every time was bounds-checked against the horizon above
        scratch.net[t] += delta;
        if negative_is_violation && delta < 0 {
            // lint: allow(unchecked-index) — every time was bounds-checked against the horizon above
            scratch.neg[t] += delta;
        }
    }
    let mut occupancy = 0i64;
    let mut peak = 0i64;
    let mut rerun = false;
    for t in 0..horizon {
        // lint: allow(unchecked-index) — the scan stays inside the resized scratch length
        if negative_is_violation && occupancy + scratch.neg[t] < 0 {
            rerun = true;
            break;
        }
        // lint: allow(unchecked-index) — the scan stays inside the resized scratch length
        occupancy += scratch.net[t];
        peak = peak.max(occupancy);
        if limit.is_some_and(|l| occupancy > l) {
            rerun = true;
            break;
        }
    }
    for &key in keys {
        let t = (key >> 64) as usize;
        // lint: allow(unchecked-index) — every time was bounds-checked against the horizon above
        scratch.net[t] = 0;
        // lint: allow(unchecked-index) — every time was bounds-checked against the horizon above
        scratch.neg[t] = 0;
    }
    (!rerun).then_some(peak)
}

/// Packs a task instance into one sortable key: PE above start above
/// the task's block index (tie-break, and the handle back to its
/// duration). Blocks are far below 2³² entries, so the index fits the
/// low 32 bits.
fn pack_interval(pe: PeId, start: u64, idx: usize) -> u128 {
    ((pe.index() as u128) << 96) | (u128::from(start) << 32) | idx as u128
}

/// Replays `plan` for `graph` on the architecture `config`.
///
/// # Errors
///
/// Returns the first [`SimError`] describing why the plan is invalid;
/// see the module docs for the validated constraints.
///
/// # Examples
///
/// ```
/// use paraconv_graph::examples;
/// use paraconv_pim::{simulate, ExecutionPlan, PimConfig, PlannedTask, PeId};
///
/// // A single-node graph needs one planned instance and no transfers.
/// let g = examples::chain(1);
/// let cfg = PimConfig::neurocube(16)?;
/// let mut plan = ExecutionPlan::new(1);
/// plan.push_task(PlannedTask {
///     node: g.node_ids().next().unwrap(),
///     iteration: 1,
///     pe: PeId::new(0),
///     start: 0,
///     duration: 1,
/// });
/// let report = simulate(&g, &plan, &cfg)?;
/// assert_eq!(report.total_time, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate(
    graph: &TaskGraph,
    plan: &ExecutionPlan,
    config: &PimConfig,
) -> Result<SimReport, SimError> {
    let report = replay(graph, plan, config)?;
    // Zero-cost-when-disabled fault hook: one relaxed load on the
    // fault-free path, same gating discipline as paraconv-obs.
    if paraconv_fault::active() {
        if let Some(spec) = paraconv_fault::current() {
            let (report, _faults) = crate::faulty::perturb(graph, plan, config, &spec, report)?;
            return Ok(report);
        }
    }
    Ok(report)
}

/// Everything the replay pass accumulates before the sweeps and
/// statistics.
struct ReplayState {
    /// Per-PE busy time.
    busy: Vec<u64>,
    vaults: VaultArray,
    transfer_energy: u64,
    offchip_fetches: u64,
    onchip_hits: u64,
    offchip_units: u64,
    onchip_units: u64,
    /// Cache-occupancy sweep events: +size at producer finish, -size
    /// at transfer completion.
    cache_lane: EventLane,
    /// Per-PE in-flight transfer events for the iFIFO check.
    fifo_lanes: Vec<EventLane>,
    /// Per-vault in-flight transfer events for the contention stat.
    vault_lanes: Vec<EventLane>,
    /// Iterations replayed as shifted copies of the block.
    batched_steps: u64,
}

impl ReplayState {
    fn new(config: &PimConfig) -> Self {
        ReplayState {
            busy: vec![0; config.num_pes()],
            vaults: VaultArray::new(config.vaults()),
            transfer_energy: 0,
            offchip_fetches: 0,
            onchip_hits: 0,
            offchip_units: 0,
            onchip_units: 0,
            cache_lane: EventLane::new(),
            fifo_lanes: (0..config.num_pes()).map(|_| EventLane::new()).collect(),
            vault_lanes: (0..config.vaults()).map(|_| EventLane::new()).collect(),
            batched_steps: 0,
        }
    }

    /// Applies one transfer instance — block transfer `x`, moved
    /// `shift` time units later — to the accounting and sweep lanes.
    fn record_transfer(&mut self, x: &PlannedTransfer, derived: &TransferCost, shift: u64) {
        let size = derived.size;
        self.transfer_energy += derived.energy;
        paraconv_obs::observe("sim.transfer.latency", x.duration);
        match x.placement {
            Placement::Cache => {
                self.onchip_hits += 1;
                self.onchip_units += size;
                // Cache residency: production until the transfer drains.
                self.cache_lane
                    .push(derived.producer_finish + shift, size as i64);
                self.cache_lane.push(x.finish() + shift, -(size as i64));
            }
            Placement::Edram => {
                self.offchip_fetches += 1;
                self.offchip_units += size;
                self.vaults.record_fetch(x.edge, size, x.duration);
                let v = self.vaults.vault_of(x.edge);
                // lint: allow(unchecked-index) — vault_of is modulo the vault count
                self.vault_lanes[v].push(x.start + shift, 1);
                // lint: allow(unchecked-index) — vault_of is modulo the vault count
                self.vault_lanes[v].push(x.finish() + shift, -1);
            }
        }
        // lint: allow(unchecked-index) — dst_pe was bounds-checked by the transfer checks
        self.fifo_lanes[x.dst_pe.index()].push(x.start + shift, 1);
        // lint: allow(unchecked-index) — dst_pe was bounds-checked by the transfer checks
        self.fifo_lanes[x.dst_pe.index()].push(x.finish() + shift, -1);
    }
}

/// What the checks derived for one block transfer, reused by every
/// repeat of it.
struct TransferCost {
    /// The IPR's size in capacity units.
    size: u64,
    /// Transfer energy under the planned placement.
    energy: u64,
    /// The producer instance's finish time.
    producer_finish: u64,
}

/// The fault-free validation and replay pass behind [`simulate`]; the
/// fault layer (`crate::faulty`) reuses it so every fault campaign
/// starts from a fully validated plan.
pub(crate) fn replay(
    graph: &TaskGraph,
    plan: &ExecutionPlan,
    config: &PimConfig,
) -> Result<SimReport, SimError> {
    let _span = paraconv_obs::span("pim.simulate", "pim");
    let cost = CostModel::new(config, graph.edge_count());
    let mut state = ReplayState::new(config);
    let (tasks, transfers) = plan.stored();
    let last_stored = plan.stored_iterations().next_back().unwrap_or(0);
    let num_pes = config.num_pes();

    // ---- task checks (stored) ------------------------------------------
    let mut task_index = InstanceIndex::new(graph.node_count(), last_stored);
    for (idx, t) in tasks.iter().enumerate() {
        let node = graph
            .node(t.node)
            .map_err(|_| SimError::UnknownNode(t.node))?;
        if t.pe.index() >= num_pes {
            return Err(SimError::UnknownPe(t.pe));
        }
        if config.is_pe_failed(t.pe.index() as u32) {
            return Err(SimError::TaskOnFailedPe {
                pe: t.pe,
                node: t.node,
                iteration: t.iteration,
            });
        }
        if t.duration != node.exec_time() {
            return Err(SimError::WrongTaskDuration {
                node: t.node,
                planned: t.duration,
                expected: node.exec_time(),
            });
        }
        if task_index
            .insert(t.node.index(), t.iteration, idx)
            .is_some()
        {
            return Err(SimError::DuplicateTask(t.node, t.iteration));
        }
    }

    // ---- PE-interval sweep (every instance) --------------------------------
    // One packed (pe, start, block index) key per instance; one sort
    // and a per-PE running-max scan decide whether ANY empty or
    // overlapping interval exists, and only then is the plan replayed
    // task-by-task in plan order to recover the canonical first error.
    let mut intervals: Vec<u128> = Vec::with_capacity(plan.tasks().len());
    for (range, _, shift) in plan.runs(tasks) {
        // lint: allow(unchecked-index) — runs() ranges lie inside the stored list
        for (j, t) in tasks[range.clone()].iter().enumerate() {
            intervals.push(pack_interval(t.pe, t.start + shift, range.start + j));
            // lint: allow(unchecked-index) — t.pe was bounds-checked by the task checks
            state.busy[t.pe.index()] += t.duration;
        }
    }
    intervals.sort_unstable();
    let mut prev_pe = u128::MAX;
    let mut max_finish = 0u64;
    for &key in &intervals {
        let pe = key >> 96;
        let start = (key >> 32) as u64;
        // lint: allow(unchecked-index) — the index was packed from this very list
        let finish = start + tasks[(key & 0xFFFF_FFFF) as usize].duration;
        if finish <= start || (pe == prev_pe && start < max_finish) {
            return Err(first_interval_error(plan, config));
        }
        if pe == prev_pe {
            max_finish = max_finish.max(finish);
        } else {
            prev_pe = pe;
            max_finish = finish;
        }
    }
    paraconv_obs::counter_add("pe.tasks_recorded", intervals.len() as u64);

    // ---- transfer checks (stored) ------------------------------------------
    let mut transfer_index = InstanceIndex::new(graph.edge_count(), last_stored);
    let mut costs: Vec<TransferCost> = Vec::with_capacity(transfers.len());
    for (idx, x) in transfers.iter().enumerate() {
        let ipr = graph
            .edge(x.edge)
            .map_err(|_| SimError::UnknownEdge(x.edge))?;
        if x.dst_pe.index() >= num_pes {
            return Err(SimError::UnknownPe(x.dst_pe));
        }
        if transfer_index
            .insert(x.edge.index(), x.iteration, idx)
            .is_some()
        {
            return Err(SimError::DuplicateTransfer(x.edge, x.iteration));
        }
        let required = cost.transfer_time(ipr.size(), x.placement);
        if x.duration < required {
            return Err(SimError::TransferTooShort {
                edge: x.edge,
                planned: x.duration,
                required,
            });
        }
        // Producer must exist and finish before the transfer starts.
        let producer = task_index
            .get(ipr.src().index(), x.iteration)
            // lint: allow(unchecked-index) — indices come from the task checks above
            .map(|i| &tasks[i])
            .ok_or(SimError::MissingProducer(ipr.src(), x.iteration))?;
        if x.start < producer.finish() {
            return Err(SimError::TransferBeforeProduction(x.edge, x.iteration));
        }
        let derived = TransferCost {
            size: ipr.size(),
            energy: cost.transfer_energy(ipr.size(), x.placement),
            producer_finish: producer.finish(),
        };
        state.record_transfer(x, &derived, 0);
        costs.push(derived);
    }

    // ---- dependency coverage (stored) --------------------------------------
    for t in tasks {
        for &e in graph
            .in_edges(t.node)
            .map_err(|_| SimError::UnknownNode(t.node))?
        {
            let x = transfer_index
                .get(e.index(), t.iteration)
                // lint: allow(unchecked-index) — indices come from the transfer checks above
                .map(|i| &transfers[i])
                .ok_or(SimError::MissingTransfer(e, t.iteration))?;
            if x.finish() > t.start {
                return Err(SimError::ConsumerBeforeTransfer(e, t.iteration));
            }
            if x.dst_pe != t.pe {
                return Err(SimError::WrongDestination {
                    edge: e,
                    iteration: t.iteration,
                    routed: x.dst_pe,
                    consumer: t.pe,
                });
            }
        }
    }

    // ---- completeness ------------------------------------------------------
    // The block must hold every `(node, iteration)` instance of its
    // iterations; a periodic plan's repeats then hold the rest.
    for iter in plan.stored_iterations() {
        for id in graph.node_ids() {
            if !task_index.contains(id.index(), iter) {
                return Err(SimError::MissingTask(id, iter));
            }
        }
    }

    // ---- repeated iterations -----------------------------------------------
    for (range, shift) in plan.repeats(transfers) {
        // lint: allow(unchecked-index) — repeats() ranges lie inside the stored list
        for (x, derived) in transfers[range.clone()].iter().zip(&costs[range]) {
            state.record_transfer(x, derived, shift);
        }
    }
    state.batched_steps = plan.repeated_iterations();
    finish(plan, config, state)
}

/// Replays every task instance through per-PE interval recording in
/// plan order, returning the first `EmptyTaskInterval` / `PeConflict`.
/// Only called after the global sweep proved a violation exists.
fn first_interval_error(plan: &ExecutionPlan, config: &PimConfig) -> SimError {
    let mut pes: Vec<Pe> = (0..config.num_pes())
        .map(|i| Pe::new(PeId::new(i as u32)))
        .collect();
    for t in plan.tasks() {
        // lint: allow(unchecked-index) — PE ids were bounds-checked by the task checks
        match pes[t.pe.index()].record_task(t.start, t.finish()) {
            Ok(()) => {}
            Err(RecordError::EmptyInterval) => {
                return SimError::EmptyTaskInterval {
                    node: t.node,
                    iteration: t.iteration,
                };
            }
            Err(RecordError::Overlap) => {
                return SimError::PeConflict {
                    pe: t.pe,
                    node: t.node,
                    iteration: t.iteration,
                };
            }
        }
    }
    unreachable!("interval sweep flagged a violation the exact replay cannot find")
}

/// The tail of the replay pass: event-lane sweeps (cache capacity,
/// per-PE iFIFO, per-vault contention), statistics and the report.
fn finish(
    plan: &ExecutionPlan,
    config: &PimConfig,
    state: ReplayState,
) -> Result<SimReport, SimError> {
    let ReplayState {
        busy,
        vaults,
        transfer_energy,
        offchip_fetches,
        onchip_hits,
        offchip_units,
        onchip_units,
        cache_lane,
        fifo_lanes,
        vault_lanes,
        batched_steps,
    } = state;

    // Event-lane depths: how much sweep state this plan generated.
    if paraconv_obs::enabled() {
        let fifo_lane: usize = fifo_lanes.iter().map(EventLane::len).sum();
        let vault_lane: usize = vault_lanes.iter().map(EventLane::len).sum();
        let total = cache_lane.len() + fifo_lane + vault_lane;
        paraconv_obs::gauge_max("sim.lane.cache_events", cache_lane.len() as u64);
        paraconv_obs::gauge_max("sim.lane.fifo_events", fifo_lane as u64);
        paraconv_obs::gauge_max("sim.lane.vault_events", vault_lane as u64);
        paraconv_obs::counter_add("sim.events", total as u64);
    }

    // Every lane is swept via the bucketed scan first; the per-event
    // sorted sweep runs only when the scan asks for it, and owns the
    // canonical error construction (first violating event in
    // `(time, delta)` order).
    let horizon = usize::try_from(plan.makespan())
        .ok()
        .and_then(|m| m.checked_add(1))
        .unwrap_or(0);
    let mut scratch = SweepScratch::new();

    // ---- cache capacity sweep --------------------------------------------
    // Releases (-) sort before acquisitions (+) at equal times: a slot
    // freed at t is available to data produced at t.
    let capacity = config.total_cache_units();
    let peak_cache = match bucketed_peak(
        cache_lane.keys(),
        horizon,
        Some(capacity as i64),
        false,
        &mut scratch,
    ) {
        Some(peak) => peak,
        None => {
            let mut occupancy = 0i64;
            let mut peak = 0i64;
            for key in cache_lane.into_sorted() {
                let (time, delta) = EventLane::decode(key);
                occupancy += delta;
                peak = peak.max(occupancy);
                if occupancy > capacity as i64 {
                    return Err(SimError::CacheOverflow {
                        time,
                        occupancy: occupancy as u64,
                        capacity,
                    });
                }
            }
            peak
        }
    };

    // ---- iFIFO sweep -------------------------------------------------------
    // The `in_flight as usize` comparison deliberately maps a dip
    // below zero to a huge in-flight count (an overflow report), so
    // the bucketed scan treats any possible negative prefix as a
    // violation and defers to the per-event sweep.
    let mut peak_fifo = 0usize;
    for (pe_index, lane) in fifo_lanes.into_iter().enumerate() {
        let depth = config.pfifo_depth();
        match bucketed_peak(lane.keys(), horizon, Some(depth as i64), true, &mut scratch) {
            Some(peak) => peak_fifo = peak_fifo.max(peak.max(0) as usize),
            None => {
                let mut in_flight = 0i64;
                for key in lane.into_sorted() {
                    let (_, delta) = EventLane::decode(key);
                    in_flight += delta;
                    peak_fifo = peak_fifo.max(in_flight as usize);
                    if in_flight as usize > depth {
                        return Err(SimError::FifoOverflow {
                            pe: PeId::new(pe_index as u32),
                            in_flight: in_flight as usize,
                            depth,
                        });
                    }
                }
            }
        }
    }

    // ---- vault contention sweep (statistic; enforced when the
    // configuration sets a port limit) ----------------------------------------
    let mut peak_vault_concurrency = 0usize;
    for (vault, lane) in vault_lanes.into_iter().enumerate() {
        let limit = config.max_vault_concurrency();
        match bucketed_peak(
            lane.keys(),
            horizon,
            limit.map(|l| l as i64),
            true,
            &mut scratch,
        ) {
            Some(peak) => peak_vault_concurrency = peak_vault_concurrency.max(peak.max(0) as usize),
            None => {
                let mut in_flight = 0i64;
                for key in lane.into_sorted() {
                    let (_, delta) = EventLane::decode(key);
                    in_flight += delta;
                    peak_vault_concurrency = peak_vault_concurrency.max(in_flight as usize);
                    if let Some(limit) = limit {
                        if in_flight as usize > limit {
                            return Err(SimError::VaultOverload {
                                vault,
                                in_flight: in_flight as usize,
                                limit,
                            });
                        }
                    }
                }
            }
        }
    }

    // ---- statistics -----------------------------------------------------
    let total_time = plan.makespan();
    let compute_energy: u64 = busy.iter().sum();
    let avg_pe_utilization = if config.num_pes() == 0 {
        0.0
    } else {
        busy.iter()
            .map(|&b| {
                if total_time == 0 {
                    0.0
                } else {
                    b as f64 / total_time as f64
                }
            })
            .sum::<f64>()
            / config.num_pes() as f64
    };
    let time_per_iteration = if plan.iterations() == 0 {
        0.0
    } else {
        total_time as f64 / plan.iterations() as f64
    };

    paraconv_obs::counter_add("sim.runs", 1);
    paraconv_obs::counter_add("sim.tasks", plan.tasks().len() as u64);
    paraconv_obs::counter_add("sim.transfers", plan.transfers().len() as u64);
    paraconv_obs::counter_add("sim.onchip_hits", onchip_hits);
    paraconv_obs::counter_add("sim.offchip_fetches", offchip_fetches);
    if batched_steps > 0 {
        paraconv_obs::counter_add("sim.batched_steps", batched_steps);
    }
    // Vault totals once per replay, not per fetch: the snapshot is the
    // same and the replay loop stays free of recorder lookups.
    if vaults.total_fetches() > 0 {
        paraconv_obs::counter_add("vault.fetches", vaults.total_fetches());
        paraconv_obs::counter_add("vault.units_moved", vaults.total_units_moved());
        paraconv_obs::gauge_max("vault.peak_fetches", vaults.peak_fetches());
    }
    paraconv_obs::gauge_max("sim.cache.peak_occupancy", peak_cache.max(0) as u64);
    paraconv_obs::gauge_max("sim.fifo.peak_occupancy", peak_fifo as u64);
    paraconv_obs::gauge_max("sim.vault.peak_concurrency", peak_vault_concurrency as u64);
    paraconv_obs::flight_record("sim", "replay.done", total_time, plan.tasks().len() as u64);

    Ok(SimReport {
        total_time,
        iterations: plan.iterations(),
        time_per_iteration,
        offchip_fetches,
        onchip_hits,
        offchip_units_moved: offchip_units,
        onchip_units_moved: onchip_units,
        transfer_energy,
        compute_energy,
        avg_pe_utilization,
        peak_cache_occupancy: peak_cache.max(0) as u64,
        cache_capacity: capacity,
        peak_fifo_occupancy: peak_fifo,
        peak_vault_fetches: vaults.peak_fetches(),
        peak_vault_concurrency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlannedTask, PlannedTransfer};
    use paraconv_graph::{EdgeId, NodeId, OpKind, TaskGraphBuilder};

    /// a -> b with an IPR of size 1.
    fn two_node_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("two");
        let a = b.add_node("a", OpKind::Convolution, 2);
        let z = b.add_node("z", OpKind::Convolution, 1);
        b.add_edge(a, z, 1).unwrap();
        b.build().unwrap()
    }

    fn config() -> PimConfig {
        PimConfig::neurocube(4).unwrap()
    }

    fn task(node: u32, iter: u64, pe: u32, start: u64, dur: u64) -> PlannedTask {
        PlannedTask {
            node: NodeId::new(node),
            iteration: iter,
            pe: PeId::new(pe),
            start,
            duration: dur,
        }
    }

    fn xfer(
        edge: u32,
        iter: u64,
        placement: Placement,
        start: u64,
        dur: u64,
        dst: u32,
    ) -> PlannedTransfer {
        PlannedTransfer {
            edge: EdgeId::new(edge),
            iteration: iter,
            placement,
            start,
            duration: dur,
            dst_pe: PeId::new(dst),
        }
    }

    /// A valid plan for the two-node graph: a on PE0 [0,2), transfer
    /// via cache [2,3), b on PE1 [3,4).
    fn valid_plan() -> ExecutionPlan {
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 1));
        plan.push_task(task(1, 1, 1, 3, 1));
        plan
    }

    /// `valid_plan`'s block repeated to `iters` iterations, each
    /// `period` later than the one before.
    fn periodic_plan(iters: u64, period: u64) -> ExecutionPlan {
        valid_plan().repeat(iters, period).unwrap()
    }

    /// The same instances as `periodic_plan`, pushed one by one into an
    /// explicit plan in iteration order (or reversed).
    fn explicit_plan(iters: u64, period: u64, reversed: bool) -> ExecutionPlan {
        let mut plan = ExecutionPlan::new(iters);
        let mut order: Vec<u64> = (0..iters).collect();
        if reversed {
            order.reverse();
        }
        for i in order {
            let s = i * period;
            plan.push_task(task(0, i + 1, 0, s, 2));
            plan.push_transfer(xfer(0, i + 1, Placement::Cache, s + 2, 1, 1));
            plan.push_task(task(1, i + 1, 1, s + 3, 1));
        }
        plan
    }

    #[test]
    fn valid_plan_simulates() {
        let report = simulate(&two_node_graph(), &valid_plan(), &config()).unwrap();
        assert_eq!(report.total_time, 4);
        assert_eq!(report.onchip_hits, 1);
        assert_eq!(report.offchip_fetches, 0);
        assert_eq!(report.compute_energy, 3);
        assert_eq!(report.peak_cache_occupancy, 1);
    }

    #[test]
    fn edram_transfer_counts_offchip() {
        let g = two_node_graph();
        let cfg = config();
        let edram_time = CostModel::new(&cfg, g.edge_count()).edram_transfer_time(1);
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Edram, 2, edram_time, 1));
        plan.push_task(task(1, 1, 1, 2 + edram_time, 1));
        let report = simulate(&g, &plan, &cfg).unwrap();
        assert_eq!(report.offchip_fetches, 1);
        assert_eq!(report.onchip_hits, 0);
        assert_eq!(report.peak_vault_fetches, 1);
        assert!(report.transfer_energy >= cfg.edram_penalty());
    }

    #[test]
    fn detects_pe_conflict() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 0));
        // b overlaps a on the same PE.
        plan.push_task(task(1, 1, 0, 1, 1));
        assert!(matches!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::PeConflict { .. }
        ));
    }

    #[test]
    fn detects_missing_transfer() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_task(task(1, 1, 1, 3, 1));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::MissingTransfer(EdgeId::new(0), 1)
        );
    }

    #[test]
    fn detects_missing_producer() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 1));
        plan.push_task(task(1, 1, 1, 3, 1));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::MissingProducer(NodeId::new(0), 1)
        );
    }

    #[test]
    fn detects_transfer_before_production() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 1, 1, 1));
        plan.push_task(task(1, 1, 1, 3, 1));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::TransferBeforeProduction(EdgeId::new(0), 1)
        );
    }

    #[test]
    fn detects_consumer_before_transfer() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 1));
        plan.push_task(task(1, 1, 1, 2, 1));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::ConsumerBeforeTransfer(EdgeId::new(0), 1)
        );
    }

    #[test]
    fn detects_wrong_destination() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 3));
        plan.push_task(task(1, 1, 1, 3, 1));
        assert!(matches!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::WrongDestination { .. }
        ));
    }

    #[test]
    fn detects_wrong_task_duration() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 5));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::WrongTaskDuration {
                node: NodeId::new(0),
                planned: 5,
                expected: 2
            }
        );
    }

    #[test]
    fn detects_short_transfer() {
        let g = two_node_graph();
        let cfg = config();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Edram, 2, 1, 1)); // needs 4
        plan.push_task(task(1, 1, 1, 10, 1));
        assert!(matches!(
            simulate(&g, &plan, &cfg).unwrap_err(),
            SimError::TransferTooShort { .. }
        ));
    }

    #[test]
    fn detects_duplicate_task() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_task(task(0, 1, 1, 5, 2));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::DuplicateTask(NodeId::new(0), 1)
        );
    }

    #[test]
    fn detects_unknown_pe() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 99, 0, 2));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::UnknownPe(PeId::new(99))
        );
    }

    #[test]
    fn detects_cache_overflow() {
        // One producer feeding many cached consumers concurrently, with
        // a tiny cache.
        let mut b = TaskGraphBuilder::new("fanout");
        let src = b.add_node("s", OpKind::Convolution, 1);
        let sinks: Vec<NodeId> = (0..3)
            .map(|i| b.add_node(format!("k{i}"), OpKind::Convolution, 1))
            .collect();
        for &k in &sinks {
            b.add_edge(src, k, 2).unwrap();
        }
        let g = b.build().unwrap();
        let cfg = PimConfig::builder(4).per_pe_cache_units(1).build().unwrap(); // capacity 4 < 6
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 1));
        for (i, &k) in sinks.iter().enumerate() {
            plan.push_transfer(xfer(i as u32, 1, Placement::Cache, 1, 2, (i + 1) as u32));
            plan.push_task(PlannedTask {
                node: k,
                iteration: 1,
                pe: PeId::new((i + 1) as u32),
                start: 3,
                duration: 1,
            });
        }
        assert!(matches!(
            simulate(&g, &plan, &cfg).unwrap_err(),
            SimError::CacheOverflow { .. }
        ));
    }

    #[test]
    fn vault_port_limit_enforced_when_configured() {
        // Two eDRAM transfers of the same edge class overlapping on
        // one vault: fine by default, rejected with a limit of 1.
        let mut b = TaskGraphBuilder::new("two-sinks");
        let src = b.add_node("s", OpKind::Convolution, 1);
        let k0 = b.add_node("k0", OpKind::Convolution, 1);
        let k1 = b.add_node("k1", OpKind::Convolution, 1);
        // One vault so both transfers share it.
        b.add_edge(src, k0, 1).unwrap();
        b.add_edge(src, k1, 1).unwrap();
        let g = b.build().unwrap();
        let mk = |limit: Option<usize>| {
            let builder = PimConfig::builder(4).vaults(1);
            match limit {
                Some(l) => builder.max_vault_concurrency(l).build().unwrap(),
                None => builder.build().unwrap(),
            }
        };
        let plan = {
            let mut plan = ExecutionPlan::new(1);
            plan.push_task(task(0, 1, 0, 0, 1));
            plan.push_transfer(xfer(0, 1, Placement::Edram, 1, 4, 1));
            plan.push_transfer(xfer(1, 1, Placement::Edram, 1, 4, 2));
            plan.push_task(task(1, 1, 1, 5, 1));
            plan.push_task(task(2, 1, 2, 5, 1));
            plan
        };
        let relaxed = simulate(&g, &plan, &mk(None)).unwrap();
        assert_eq!(relaxed.peak_vault_concurrency, 2);
        assert!(matches!(
            simulate(&g, &plan, &mk(Some(1))).unwrap_err(),
            SimError::VaultOverload {
                in_flight: 2,
                limit: 1,
                ..
            }
        ));
        assert!(simulate(&g, &plan, &mk(Some(2))).is_ok());
    }

    #[test]
    fn rejects_tasks_on_failed_pes() {
        let g = two_node_graph();
        let cfg = PimConfig::builder(4).failed_pes(vec![0]).build().unwrap();
        // valid_plan places the producer on PE0, now marked dead.
        assert!(matches!(
            simulate(&g, &valid_plan(), &cfg).unwrap_err(),
            SimError::TaskOnFailedPe { .. }
        ));
        // The same plan on a machine where only PE3 failed is fine.
        let cfg = PimConfig::builder(4).failed_pes(vec![3]).build().unwrap();
        assert!(simulate(&g, &valid_plan(), &cfg).is_ok());
    }

    #[test]
    fn utilization_and_throughput_reported() {
        let report = simulate(&two_node_graph(), &valid_plan(), &config()).unwrap();
        // 3 busy units over 4 PEs × 4 time units.
        assert!((report.avg_pe_utilization - 3.0 / 16.0).abs() < 1e-9);
        assert!((report.throughput() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn periodic_replay_matches_explicit_replay() {
        let g = two_node_graph();
        let cfg = config();
        let periodic = periodic_plan(4, 10);
        // The same instances listed explicitly, in plan order and
        // reversed: valid plans are order-insensitive, so all three
        // reports must agree field for field.
        let explicit = explicit_plan(4, 10, false);
        assert_eq!(periodic, explicit);
        let batched = simulate(&g, &periodic, &cfg).unwrap();
        assert_eq!(batched, simulate(&g, &explicit, &cfg).unwrap());
        assert_eq!(
            batched,
            simulate(&g, &explicit_plan(4, 10, true), &cfg).unwrap()
        );
        assert_eq!(batched.onchip_hits, 4);
        assert_eq!(batched.compute_energy, 12);
    }

    #[test]
    fn periodic_plan_with_a_tail_matches_explicit_replay() {
        let g = two_node_graph();
        let cfg = config();
        // Iterations 1..=3 repeat every 10; iteration 4 is a tail that
        // runs 5 later than the period would put it.
        let mut plan = periodic_plan(3, 10);
        let mut tail = ExecutionPlan::new(1);
        tail.push_task(task(0, 4, 0, 35, 2));
        tail.push_transfer(xfer(0, 4, Placement::Cache, 37, 1, 1));
        tail.push_task(task(1, 4, 1, 38, 1));
        plan.append(tail.clone());
        let mut explicit = ExecutionPlan::new(4);
        for part in [&explicit_plan(3, 10, false), &tail] {
            part.tasks().for_each(|t| explicit.push_task(t));
            part.transfers().for_each(|x| explicit.push_transfer(x));
        }
        assert_eq!(plan, explicit);
        let report = simulate(&g, &plan, &cfg).unwrap();
        assert_eq!(report, simulate(&g, &explicit, &cfg).unwrap());
        assert_eq!(report.total_time, 39);
        assert_eq!(report.onchip_hits, 4);

        // The tail walks the same checks as the block.
        let mut bad = periodic_plan(3, 10);
        let mut tail = ExecutionPlan::new(1);
        tail.push_task(task(0, 4, 0, 35, 2));
        tail.push_transfer(xfer(0, 4, Placement::Cache, 37, 1, 2));
        tail.push_task(task(1, 4, 1, 38, 1));
        bad.append(tail);
        assert_eq!(
            simulate(&g, &bad, &cfg).unwrap_err(),
            SimError::WrongDestination {
                edge: EdgeId::new(0),
                iteration: 4,
                routed: PeId::new(2),
                consumer: PeId::new(1),
            }
        );
    }

    #[test]
    fn periodic_edram_plan_matches_explicit_replay() {
        let g = two_node_graph();
        let cfg = config();
        let edram_time = CostModel::new(&cfg, g.edge_count()).edram_transfer_time(1);
        let period = edram_time + 4;
        let mut block = ExecutionPlan::new(1);
        block.push_task(task(0, 1, 0, 0, 2));
        block.push_transfer(xfer(0, 1, Placement::Edram, 2, edram_time, 1));
        block.push_task(task(1, 1, 1, 2 + edram_time, 1));
        let mut explicit = ExecutionPlan::new(3);
        for i in (0..3).rev() {
            let s = i * period;
            explicit.push_task(task(0, i + 1, 0, s, 2));
            explicit.push_transfer(xfer(0, i + 1, Placement::Edram, s + 2, edram_time, 1));
            explicit.push_task(task(1, i + 1, 1, s + 2 + edram_time, 1));
        }
        let batched = simulate(&g, &block.repeat(3, period).unwrap(), &cfg).unwrap();
        let exact = simulate(&g, &explicit, &cfg).unwrap();
        assert_eq!(batched, exact);
        assert_eq!(batched.offchip_fetches, 3);
        assert_eq!(batched.peak_vault_fetches, 3);
    }

    #[test]
    fn periodic_plan_detects_overlap_in_repeated_iterations() {
        // Period 1 < the producer's duration 2: the block is valid on
        // its own, yet consecutive producer instances overlap on PE0.
        // The canonical first error (plan order) must come back.
        let err = simulate(&two_node_graph(), &periodic_plan(4, 1), &config()).unwrap_err();
        assert_eq!(
            err,
            SimError::PeConflict {
                pe: PeId::new(0),
                node: NodeId::new(0),
                iteration: 2,
            }
        );
    }

    #[test]
    fn mutated_block_in_a_periodic_plan_is_revalidated() {
        // Break one instance deep into an explicit plan: wrong
        // duration at iteration 3. Explicit plans are one block, so
        // every instance walks the full structural checks.
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(4);
        for i in 0..4u64 {
            let s = i * 10;
            let dur = if i == 2 { 5 } else { 2 };
            plan.push_task(task(0, i + 1, 0, s, dur));
            plan.push_transfer(xfer(0, i + 1, Placement::Cache, s + 2, 1, 1));
            plan.push_task(task(1, i + 1, 1, s + 3, 1));
        }
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::WrongTaskDuration {
                node: NodeId::new(0),
                planned: 5,
                expected: 2
            }
        );
    }

    #[test]
    fn mutated_transfer_block_is_revalidated() {
        // Tasks stay periodic but iteration 3's transfer routes to the
        // wrong PE: the dependency pass must flag it.
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(4);
        for i in 0..4u64 {
            let s = i * 10;
            let dst = if i == 2 { 2 } else { 1 };
            plan.push_task(task(0, i + 1, 0, s, 2));
            plan.push_transfer(xfer(0, i + 1, Placement::Cache, s + 2, 1, dst));
            plan.push_task(task(1, i + 1, 1, s + 3, 1));
        }
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::WrongDestination {
                edge: EdgeId::new(0),
                iteration: 3,
                routed: PeId::new(2),
                consumer: PeId::new(1),
            }
        );
    }

    #[test]
    fn repeated_iterations_accumulate_cache_occupancy() {
        // Long cache residency windows from repeated iterations stack
        // up: with period 2 and residency length 10, five windows
        // overlap, exceeding a capacity-4 cache. The overflow events
        // come from repeats, so this exercises shifted lane events.
        let g = two_node_graph();
        let cfg = PimConfig::builder(4).per_pe_cache_units(1).build().unwrap();
        let mut block = ExecutionPlan::new(1);
        block.push_task(task(0, 1, 0, 0, 2));
        block.push_transfer(xfer(0, 1, Placement::Cache, 2, 10, 1));
        block.push_task(task(1, 1, 1, 13, 1));
        assert!(simulate(&g, &block, &cfg).is_ok());
        assert!(matches!(
            simulate(&g, &block.repeat(6, 2).unwrap(), &cfg).unwrap_err(),
            SimError::CacheOverflow { .. }
        ));
    }
}
