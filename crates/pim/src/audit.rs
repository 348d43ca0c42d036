//! Independent plan auditor: the second opinion on every schedule.
//!
//! [`simulate`](crate::simulate) replays a plan and rejects physically
//! impossible ones, but it is also the component that *produces* the
//! numbers the paper's tables are built from — a bug there corrupts
//! both the check and the result. This module re-derives the paper's
//! architectural invariants from scratch, sharing no bookkeeping with
//! the simulator, so the two act as a differential pair:
//!
//! * every `(node, iteration)` instance for `1..=iterations` is
//!   scheduled **exactly once**, and no instance lies outside that
//!   range (stricter than the simulator, which tolerates stray
//!   iterations);
//! * task durations equal the node execution times `c_i` and no PE is
//!   double-booked (an independent sort-and-scan, not
//!   [`Pe::record_task`](crate::Pe::record_task));
//! * every transfer departs **exactly** at its producer's finish and
//!   lasts **exactly** the latency of its placement — the steady-state
//!   pipelining both schedulers are built to emit (the simulator only
//!   requires `≥`);
//! * every consumer starts at or after its input transfer completes,
//!   on the PE the transfer was routed to;
//! * concurrent cache residency never exceeds the aggregate on-chip
//!   capacity and in-flight transfers per PE never exceed the iFIFO
//!   depth;
//! * conservation: cached + eDRAM transfers = `edge_count × iterations`.
//!
//! [`audit_plan`] checks a plan alone; [`audit`] additionally
//! cross-checks a [`SimReport`] produced by the simulator against the
//! auditor's independently derived statistics, flagging any divergence.
//!
//! # Examples
//!
//! ```
//! use paraconv_graph::examples;
//! use paraconv_pim::{audit_plan, ExecutionPlan, PeId, PimConfig, PlannedTask};
//!
//! let g = examples::chain(1);
//! let cfg = PimConfig::neurocube(16)?;
//! let mut plan = ExecutionPlan::new(1);
//! plan.push_task(PlannedTask {
//!     node: g.node_ids().next().unwrap(),
//!     iteration: 1,
//!     pe: PeId::new(0),
//!     start: 0,
//!     duration: 1,
//! });
//! let report = audit_plan(&g, &plan, &cfg)?;
//! assert_eq!(report.tasks, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use core::fmt;
use std::collections::HashMap;

use paraconv_graph::{EdgeId, NodeId, Placement, TaskGraph};

use crate::{CostModel, ExecutionPlan, PeId, PimConfig, PlannedTask, SimReport};

/// An architectural invariant a plan (or a simulator report) violated.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuditError {
    /// A planned task referenced a node not in the graph.
    UnknownNode(NodeId),
    /// A planned transfer referenced an edge not in the graph.
    UnknownEdge(EdgeId),
    /// A planned task or transfer referenced a PE outside the array.
    UnknownPe(PeId),
    /// A task instance's iteration lies outside `1..=iterations`.
    TaskIterationOutOfRange {
        /// The stray node instance.
        node: NodeId,
        /// Its out-of-range iteration.
        iteration: u64,
        /// The iteration count the plan declares.
        declared: u64,
    },
    /// A transfer's iteration lies outside `1..=iterations`.
    TransferIterationOutOfRange {
        /// The stray edge transfer.
        edge: EdgeId,
        /// Its out-of-range iteration.
        iteration: u64,
        /// The iteration count the plan declares.
        declared: u64,
    },
    /// The same `(node, iteration)` instance was scheduled twice.
    TaskScheduledTwice(NodeId, u64),
    /// A `(node, iteration)` instance within the declared range is
    /// missing from the plan.
    TaskNotScheduled(NodeId, u64),
    /// The same `(edge, iteration)` transfer was scheduled twice.
    TransferScheduledTwice(EdgeId, u64),
    /// An `(edge, iteration)` transfer within the declared range is
    /// missing from the plan.
    TransferNotScheduled(EdgeId, u64),
    /// A task instance was planned with an empty execution interval.
    EmptyTaskInterval {
        /// The mis-planned node.
        node: NodeId,
        /// Its iteration.
        iteration: u64,
    },
    /// A task's planned duration differs from the node's execution
    /// time `c_i`.
    WrongTaskDuration {
        /// The mis-planned node.
        node: NodeId,
        /// Duration found in the plan.
        planned: u64,
        /// The node's execution time.
        expected: u64,
    },
    /// Two task instances overlap on one PE.
    PeDoubleBooked {
        /// The double-booked processing engine.
        pe: PeId,
        /// The instance occupying the PE first.
        first: NodeId,
        /// The overlapping instance.
        second: NodeId,
        /// Start time of the overlapping instance.
        time: u64,
    },
    /// A transfer's planned duration differs from the exact latency of
    /// its placement (the schedulers emit exact latencies; padding or
    /// truncation indicates a corrupted plan).
    WrongTransferDuration {
        /// The mis-planned edge.
        edge: EdgeId,
        /// Duration found in the plan.
        planned: u64,
        /// The placement's latency.
        expected: u64,
    },
    /// A transfer does not depart exactly at its producer's finish —
    /// the steady-state pipelining invariant (§3.4) both schedulers
    /// uphold.
    TransferNotAtProducerFinish {
        /// The mis-planned edge.
        edge: EdgeId,
        /// Iteration of the transfer.
        iteration: u64,
        /// Departure time found in the plan.
        start: u64,
        /// The producing instance's finish time.
        producer_finish: u64,
    },
    /// A consumer instance starts before its input transfer completes.
    ConsumerBeforeTransfer {
        /// The violated dependency.
        edge: EdgeId,
        /// Iteration of the consumer.
        iteration: u64,
        /// When the transfer completes.
        transfer_finish: u64,
        /// When the consumer starts.
        consumer_start: u64,
    },
    /// A transfer is routed to a PE other than its consumer's.
    TransferMisrouted {
        /// The misrouted edge.
        edge: EdgeId,
        /// Iteration of the transfer.
        iteration: u64,
        /// PE the plan routed the data to.
        routed: PeId,
        /// PE the consumer actually runs on.
        consumer: PeId,
    },
    /// Concurrent cache-resident IPRs exceeded the aggregate on-chip
    /// capacity.
    CacheOverCapacity {
        /// Time at which the overflow occurred.
        time: u64,
        /// Occupancy reached.
        occupancy: u64,
        /// The configured aggregate capacity.
        capacity: u64,
    },
    /// In-flight transfers to one PE exceeded its iFIFO depth.
    FifoDepthExceeded {
        /// The overflowing PE.
        pe: PeId,
        /// In-flight transfer count reached.
        in_flight: usize,
        /// The configured FIFO depth.
        depth: usize,
    },
    /// Cached + eDRAM transfers do not account for every IPR instance
    /// (`edge_count × iterations`).
    ConservationViolated {
        /// Transfers served from the on-chip cache.
        cached: u64,
        /// Transfers served from stacked eDRAM.
        edram: u64,
        /// The required total.
        expected: u64,
    },
    /// A [`SimReport`] statistic diverges from the auditor's
    /// independently derived value.
    ReportDivergence {
        /// The diverging statistic.
        metric: &'static str,
        /// Value the simulator reported.
        simulated: u64,
        /// Value the auditor derived.
        audited: u64,
    },
    /// A derived [`SimReport`] metric is NaN or infinite.
    NonFiniteMetric {
        /// The offending metric.
        metric: &'static str,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::UnknownNode(n) => write!(f, "plan references unknown node {n}"),
            AuditError::UnknownEdge(e) => write!(f, "plan references unknown edge {e}"),
            AuditError::UnknownPe(pe) => write!(f, "plan references {pe} outside the array"),
            AuditError::TaskIterationOutOfRange {
                node,
                iteration,
                declared,
            } => write!(
                f,
                "task {node} iteration {iteration} outside declared range 1..={declared}"
            ),
            AuditError::TransferIterationOutOfRange {
                edge,
                iteration,
                declared,
            } => write!(
                f,
                "transfer {edge} iteration {iteration} outside declared range 1..={declared}"
            ),
            AuditError::TaskScheduledTwice(n, l) => {
                write!(f, "task {n} iteration {l} scheduled twice")
            }
            AuditError::TaskNotScheduled(n, l) => {
                write!(f, "task {n} iteration {l} never scheduled")
            }
            AuditError::TransferScheduledTwice(e, l) => {
                write!(f, "transfer {e} iteration {l} scheduled twice")
            }
            AuditError::TransferNotScheduled(e, l) => {
                write!(f, "transfer {e} iteration {l} never scheduled")
            }
            AuditError::EmptyTaskInterval { node, iteration } => {
                write!(f, "task {node} iteration {iteration} has an empty interval")
            }
            AuditError::WrongTaskDuration {
                node,
                planned,
                expected,
            } => write!(
                f,
                "task {node} planned for {planned} units, execution time is {expected}"
            ),
            AuditError::PeDoubleBooked {
                pe,
                first,
                second,
                time,
            } => write!(
                f,
                "{pe} double-booked at time {time}: {second} overlaps {first}"
            ),
            AuditError::WrongTransferDuration {
                edge,
                planned,
                expected,
            } => write!(
                f,
                "transfer {edge} planned for {planned} units, placement latency is {expected}"
            ),
            AuditError::TransferNotAtProducerFinish {
                edge,
                iteration,
                start,
                producer_finish,
            } => write!(
                f,
                "transfer {edge} iteration {iteration} departs at {start}, \
                 producer finishes at {producer_finish}"
            ),
            AuditError::ConsumerBeforeTransfer {
                edge,
                iteration,
                transfer_finish,
                consumer_start,
            } => write!(
                f,
                "consumer of {edge} iteration {iteration} starts at {consumer_start}, \
                 transfer completes at {transfer_finish}"
            ),
            AuditError::TransferMisrouted {
                edge,
                iteration,
                routed,
                consumer,
            } => write!(
                f,
                "transfer {edge} iteration {iteration} routed to {routed}, \
                 consumer runs on {consumer}"
            ),
            AuditError::CacheOverCapacity {
                time,
                occupancy,
                capacity,
            } => write!(
                f,
                "cache occupancy {occupancy} exceeds capacity {capacity} at time {time}"
            ),
            AuditError::FifoDepthExceeded {
                pe,
                in_flight,
                depth,
            } => write!(
                f,
                "{pe} has {in_flight} in-flight transfers, iFIFO depth is {depth}"
            ),
            AuditError::ConservationViolated {
                cached,
                edram,
                expected,
            } => write!(
                f,
                "transfer conservation violated: {cached} cached + {edram} eDRAM != {expected}"
            ),
            AuditError::ReportDivergence {
                metric,
                simulated,
                audited,
            } => write!(
                f,
                "report divergence on {metric}: simulator says {simulated}, audit derives {audited}"
            ),
            AuditError::NonFiniteMetric { metric } => {
                write!(f, "report metric {metric} is not finite")
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// Statistics derived by a successful audit, independently of the
/// simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditReport {
    /// Logical iterations the plan covers.
    pub iterations: u64,
    /// Task instances audited (`node_count × iterations`).
    pub tasks: u64,
    /// IPR transfers audited (`edge_count × iterations`).
    pub transfers: u64,
    /// Transfers served from the on-chip cache.
    pub cached_transfers: u64,
    /// Transfers served from stacked eDRAM.
    pub edram_transfers: u64,
    /// The plan's makespan.
    pub makespan: u64,
    /// Peak concurrent cache occupancy, in capacity units.
    pub peak_cache_occupancy: u64,
    /// Highest in-flight transfer count observed at any PE's iFIFO.
    pub peak_fifo_occupancy: usize,
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "iterations:        {}", self.iterations)?;
        writeln!(f, "tasks audited:     {}", self.tasks)?;
        writeln!(
            f,
            "transfers audited: {} ({} cached, {} eDRAM)",
            self.transfers, self.cached_transfers, self.edram_transfers
        )?;
        writeln!(f, "makespan:          {}", self.makespan)?;
        writeln!(f, "peak cache:        {}", self.peak_cache_occupancy)?;
        write!(f, "peak iFIFO:        {}", self.peak_fifo_occupancy)
    }
}

/// Sweeps `(time, delta)` events and returns the peak level, or the
/// first `(time, level)` that exceeded `limit`. Releases sort before
/// acquisitions at equal times, matching the architectural rule that a
/// slot freed at `t` is available to data produced at `t`.
fn sweep(mut events: Vec<(u64, i64)>, limit: i64) -> Result<i64, (u64, i64)> {
    events.sort_unstable();
    let mut level = 0i64;
    let mut peak = 0i64;
    for (time, delta) in events {
        level += delta;
        peak = peak.max(level);
        if level > limit {
            return Err((time, level));
        }
    }
    Ok(peak)
}

/// Audits `plan` for `graph` on the architecture `config` against the
/// invariants listed in the module docs, independently of
/// [`simulate`](crate::simulate).
///
/// # Errors
///
/// Returns the first [`AuditError`] describing the violated invariant.
pub fn audit_plan(
    graph: &TaskGraph,
    plan: &ExecutionPlan,
    config: &PimConfig,
) -> Result<AuditReport, AuditError> {
    let iterations = plan.iterations();
    let cost = CostModel::new(config, graph.edge_count());
    let tasks: Vec<PlannedTask> = plan.tasks().collect();
    let transfers: Vec<crate::PlannedTransfer> = plan.transfers().collect();

    // ---- task coverage: exactly once per (node, iteration) ------------
    let mut task_at: HashMap<(usize, u64), &PlannedTask> = HashMap::with_capacity(tasks.len());
    let mut pe_intervals: Vec<Vec<(u64, u64, NodeId)>> = vec![Vec::new(); config.num_pes()];
    for t in &tasks {
        let node = graph
            .node(t.node)
            .map_err(|_| AuditError::UnknownNode(t.node))?;
        if t.iteration == 0 || t.iteration > iterations {
            return Err(AuditError::TaskIterationOutOfRange {
                node: t.node,
                iteration: t.iteration,
                declared: iterations,
            });
        }
        if t.pe.index() >= config.num_pes() {
            return Err(AuditError::UnknownPe(t.pe));
        }
        if t.duration != node.exec_time() {
            return Err(AuditError::WrongTaskDuration {
                node: t.node,
                planned: t.duration,
                expected: node.exec_time(),
            });
        }
        if t.duration == 0 {
            return Err(AuditError::EmptyTaskInterval {
                node: t.node,
                iteration: t.iteration,
            });
        }
        if task_at.insert((t.node.index(), t.iteration), t).is_some() {
            return Err(AuditError::TaskScheduledTwice(t.node, t.iteration));
        }
        pe_intervals[t.pe.index()].push((t.start, t.finish(), t.node));
    }
    for iteration in 1..=iterations {
        for id in graph.node_ids() {
            if !task_at.contains_key(&(id.index(), iteration)) {
                return Err(AuditError::TaskNotScheduled(id, iteration));
            }
        }
    }

    // ---- PE exclusivity: sort-and-scan, no shared Pe bookkeeping ------
    for (pe_index, intervals) in pe_intervals.iter_mut().enumerate() {
        intervals.sort_unstable();
        for pair in intervals.windows(2) {
            if pair[1].0 < pair[0].1 {
                return Err(AuditError::PeDoubleBooked {
                    pe: PeId::new(pe_index as u32),
                    first: pair[0].2,
                    second: pair[1].2,
                    time: pair[1].0,
                });
            }
        }
    }

    // ---- transfers: exact departure, exact latency --------------------
    let mut transfer_at: HashMap<(usize, u64), &crate::PlannedTransfer> =
        HashMap::with_capacity(transfers.len());
    let mut cached = 0u64;
    let mut edram = 0u64;
    let mut cache_events: Vec<(u64, i64)> = Vec::new();
    let mut fifo_events: Vec<Vec<(u64, i64)>> = vec![Vec::new(); config.num_pes()];
    for x in &transfers {
        let ipr = graph
            .edge(x.edge)
            .map_err(|_| AuditError::UnknownEdge(x.edge))?;
        if x.iteration == 0 || x.iteration > iterations {
            return Err(AuditError::TransferIterationOutOfRange {
                edge: x.edge,
                iteration: x.iteration,
                declared: iterations,
            });
        }
        if x.dst_pe.index() >= config.num_pes() {
            return Err(AuditError::UnknownPe(x.dst_pe));
        }
        if transfer_at
            .insert((x.edge.index(), x.iteration), x)
            .is_some()
        {
            return Err(AuditError::TransferScheduledTwice(x.edge, x.iteration));
        }
        let expected = cost.transfer_time(ipr.size(), x.placement);
        if x.duration != expected {
            return Err(AuditError::WrongTransferDuration {
                edge: x.edge,
                planned: x.duration,
                expected,
            });
        }
        // The producer exists: coverage above guarantees every in-range
        // (node, iteration) instance, and x.iteration is in range.
        let producer = task_at[&(ipr.src().index(), x.iteration)];
        if x.start != producer.finish() {
            return Err(AuditError::TransferNotAtProducerFinish {
                edge: x.edge,
                iteration: x.iteration,
                start: x.start,
                producer_finish: producer.finish(),
            });
        }
        match x.placement {
            Placement::Cache => {
                cached += 1;
                cache_events.push((producer.finish(), ipr.size() as i64));
                cache_events.push((x.finish(), -(ipr.size() as i64)));
            }
            Placement::Edram => edram += 1,
        }
        fifo_events[x.dst_pe.index()].push((x.start, 1));
        fifo_events[x.dst_pe.index()].push((x.finish(), -1));
    }
    for iteration in 1..=iterations {
        for id in graph.edge_ids() {
            if !transfer_at.contains_key(&(id.index(), iteration)) {
                return Err(AuditError::TransferNotScheduled(id, iteration));
            }
        }
    }

    // ---- dependency consistency under the retiming --------------------
    for t in &tasks {
        for &e in graph
            .in_edges(t.node)
            .map_err(|_| AuditError::UnknownNode(t.node))?
        {
            let x = transfer_at[&(e.index(), t.iteration)];
            if x.finish() > t.start {
                return Err(AuditError::ConsumerBeforeTransfer {
                    edge: e,
                    iteration: t.iteration,
                    transfer_finish: x.finish(),
                    consumer_start: t.start,
                });
            }
            if x.dst_pe != t.pe {
                return Err(AuditError::TransferMisrouted {
                    edge: e,
                    iteration: t.iteration,
                    routed: x.dst_pe,
                    consumer: t.pe,
                });
            }
        }
    }

    // ---- capacity sweeps ----------------------------------------------
    let capacity = config.total_cache_units();
    let peak_cache = sweep(cache_events, capacity as i64).map_err(|(time, level)| {
        AuditError::CacheOverCapacity {
            time,
            occupancy: level as u64,
            capacity,
        }
    })?;
    let mut peak_fifo = 0usize;
    for (pe_index, events) in fifo_events.into_iter().enumerate() {
        let peak = sweep(events, config.pfifo_depth() as i64).map_err(|(_, level)| {
            AuditError::FifoDepthExceeded {
                pe: PeId::new(pe_index as u32),
                in_flight: level as usize,
                depth: config.pfifo_depth(),
            }
        })?;
        peak_fifo = peak_fifo.max(peak as usize);
    }

    // ---- conservation --------------------------------------------------
    let expected = graph.edge_count() as u64 * iterations;
    if cached + edram != expected {
        return Err(AuditError::ConservationViolated {
            cached,
            edram,
            expected,
        });
    }

    Ok(AuditReport {
        iterations,
        tasks: tasks.len() as u64,
        transfers: transfers.len() as u64,
        cached_transfers: cached,
        edram_transfers: edram,
        makespan: plan.makespan(),
        peak_cache_occupancy: peak_cache.max(0) as u64,
        peak_fifo_occupancy: peak_fifo,
    })
}

/// [`audit_plan`], plus a differential cross-check of the simulator's
/// [`SimReport`] against the auditor's independently derived
/// statistics.
///
/// # Errors
///
/// Returns the first violated invariant, or a
/// [`AuditError::ReportDivergence`] / [`AuditError::NonFiniteMetric`]
/// when the simulator's report disagrees with the audit.
pub fn audit(
    graph: &TaskGraph,
    plan: &ExecutionPlan,
    config: &PimConfig,
    report: &SimReport,
) -> Result<AuditReport, AuditError> {
    let audited = audit_plan(graph, plan, config)?;
    let diverged = |metric, simulated, audited| AuditError::ReportDivergence {
        metric,
        simulated,
        audited,
    };
    if report.iterations != audited.iterations {
        return Err(diverged(
            "iterations",
            report.iterations,
            audited.iterations,
        ));
    }
    if report.total_time != audited.makespan {
        return Err(diverged("total_time", report.total_time, audited.makespan));
    }
    if report.onchip_hits != audited.cached_transfers {
        return Err(diverged(
            "onchip_hits",
            report.onchip_hits,
            audited.cached_transfers,
        ));
    }
    if report.offchip_fetches != audited.edram_transfers {
        return Err(diverged(
            "offchip_fetches",
            report.offchip_fetches,
            audited.edram_transfers,
        ));
    }
    if report.peak_cache_occupancy != audited.peak_cache_occupancy {
        return Err(diverged(
            "peak_cache_occupancy",
            report.peak_cache_occupancy,
            audited.peak_cache_occupancy,
        ));
    }
    if report.cache_capacity != config.total_cache_units() {
        return Err(diverged(
            "cache_capacity",
            report.cache_capacity,
            config.total_cache_units(),
        ));
    }
    if report.peak_fifo_occupancy != audited.peak_fifo_occupancy {
        return Err(diverged(
            "peak_fifo_occupancy",
            report.peak_fifo_occupancy as u64,
            audited.peak_fifo_occupancy as u64,
        ));
    }
    for (metric, value) in [
        ("throughput", report.throughput()),
        ("time_per_iteration", report.time_per_iteration),
        ("avg_pe_utilization", report.avg_pe_utilization),
    ] {
        if !value.is_finite() {
            return Err(AuditError::NonFiniteMetric { metric });
        }
    }
    Ok(audited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, PlannedTransfer};
    use paraconv_graph::{OpKind, TaskGraphBuilder};

    /// a -> b with an IPR of size 1 (mirrors the simulator's fixture).
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

    fn valid_plan() -> ExecutionPlan {
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 1));
        plan.push_task(task(1, 1, 1, 3, 1));
        plan
    }

    #[test]
    fn valid_plan_audits_clean() {
        let g = two_node_graph();
        let cfg = config();
        let audited = audit_plan(&g, &valid_plan(), &cfg).unwrap();
        assert_eq!(audited.tasks, 2);
        assert_eq!(audited.transfers, 1);
        assert_eq!(audited.cached_transfers, 1);
        assert_eq!(audited.edram_transfers, 0);
        assert_eq!(audited.makespan, 4);
        assert_eq!(audited.peak_cache_occupancy, 1);
        assert_eq!(audited.peak_fifo_occupancy, 1);
        assert!(!audited.to_string().is_empty());
    }

    #[test]
    fn audit_agrees_with_simulator_on_valid_plan() {
        let g = two_node_graph();
        let cfg = config();
        let plan = valid_plan();
        let report = simulate(&g, &plan, &cfg).unwrap();
        audit(&g, &plan, &cfg, &report).unwrap();
    }

    #[test]
    fn flags_double_booked_pe() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 0));
        plan.push_task(task(1, 1, 0, 1, 1));
        assert!(matches!(
            audit_plan(&g, &plan, &config()).unwrap_err(),
            AuditError::PeDoubleBooked { .. }
        ));
    }

    #[test]
    fn flags_early_and_late_departures() {
        let g = two_node_graph();
        for start in [1u64, 3] {
            let mut plan = ExecutionPlan::new(1);
            plan.push_task(task(0, 1, 0, 0, 2));
            plan.push_transfer(xfer(0, 1, Placement::Cache, start, 1, 1));
            plan.push_task(task(1, 1, 1, 5, 1));
            assert!(
                matches!(
                    audit_plan(&g, &plan, &config()).unwrap_err(),
                    AuditError::TransferNotAtProducerFinish { .. }
                ),
                "departure at {start} should be flagged"
            );
        }
    }

    #[test]
    fn flags_padded_transfer_the_simulator_accepts() {
        // A transfer longer than the placement latency satisfies the
        // simulator's `>=` check but violates the exact-pipelining
        // invariant the schedulers uphold.
        let g = two_node_graph();
        let cfg = config();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 3, 1));
        plan.push_task(task(1, 1, 1, 5, 1));
        assert!(simulate(&g, &plan, &cfg).is_ok());
        assert!(matches!(
            audit_plan(&g, &plan, &cfg).unwrap_err(),
            AuditError::WrongTransferDuration {
                planned: 3,
                expected: 1,
                ..
            }
        ));
    }

    #[test]
    fn flags_stray_iteration_the_simulator_accepts() {
        // simulate() only checks coverage of 1..=iterations; a stray
        // extra instance beyond the declared range slips through it but
        // not the audit.
        let g = two_node_graph();
        let cfg = config();
        let mut plan = valid_plan();
        plan.push_task(task(0, 2, 2, 0, 2));
        assert!(simulate(&g, &plan, &cfg).is_ok());
        assert_eq!(
            audit_plan(&g, &plan, &cfg).unwrap_err(),
            AuditError::TaskIterationOutOfRange {
                node: NodeId::new(0),
                iteration: 2,
                declared: 1,
            }
        );
    }

    #[test]
    fn flags_missing_task_and_transfer() {
        let g = two_node_graph();
        let cfg = config();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 1));
        assert_eq!(
            audit_plan(&g, &plan, &cfg).unwrap_err(),
            AuditError::TaskNotScheduled(NodeId::new(1), 1)
        );
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_task(task(1, 1, 1, 3, 1));
        assert_eq!(
            audit_plan(&g, &plan, &cfg).unwrap_err(),
            AuditError::TransferNotScheduled(EdgeId::new(0), 1)
        );
    }

    #[test]
    fn flags_over_capacity_cache() {
        let mut b = TaskGraphBuilder::new("fanout");
        let src = b.add_node("s", OpKind::Convolution, 1);
        let sinks: Vec<NodeId> = (0..3)
            .map(|i| b.add_node(format!("k{i}"), OpKind::Convolution, 1))
            .collect();
        for &k in &sinks {
            b.add_edge(src, k, 2).unwrap();
        }
        let g = b.build().unwrap();
        let cfg = PimConfig::builder(4).per_pe_cache_units(1).build().unwrap();
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
            audit_plan(&g, &plan, &cfg).unwrap_err(),
            AuditError::CacheOverCapacity {
                occupancy: 6,
                capacity: 4,
                ..
            }
        ));
    }

    #[test]
    fn flags_misrouted_and_early_consumer() {
        let g = two_node_graph();
        let cfg = config();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 3));
        plan.push_task(task(1, 1, 1, 3, 1));
        assert!(matches!(
            audit_plan(&g, &plan, &cfg).unwrap_err(),
            AuditError::TransferMisrouted { .. }
        ));
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 1));
        plan.push_task(task(1, 1, 1, 2, 1));
        assert!(matches!(
            audit_plan(&g, &plan, &cfg).unwrap_err(),
            AuditError::ConsumerBeforeTransfer { .. }
        ));
    }

    #[test]
    fn flags_report_divergence() {
        let g = two_node_graph();
        let cfg = config();
        let plan = valid_plan();
        let mut report = simulate(&g, &plan, &cfg).unwrap();
        report.total_time += 1;
        assert_eq!(
            audit(&g, &plan, &cfg, &report).unwrap_err(),
            AuditError::ReportDivergence {
                metric: "total_time",
                simulated: 5,
                audited: 4,
            }
        );
        let mut report = simulate(&g, &plan, &cfg).unwrap();
        report.onchip_hits = 0;
        assert!(matches!(
            audit(&g, &plan, &cfg, &report).unwrap_err(),
            AuditError::ReportDivergence {
                metric: "onchip_hits",
                ..
            }
        ));
    }

    #[test]
    fn flags_non_finite_metrics() {
        let g = two_node_graph();
        let cfg = config();
        let plan = valid_plan();
        let mut report = simulate(&g, &plan, &cfg).unwrap();
        report.time_per_iteration = f64::NAN;
        assert_eq!(
            audit(&g, &plan, &cfg, &report).unwrap_err(),
            AuditError::NonFiniteMetric {
                metric: "time_per_iteration"
            }
        );
    }

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AuditError>();
        let errors = [
            AuditError::UnknownNode(NodeId::new(0)),
            AuditError::UnknownEdge(EdgeId::new(0)),
            AuditError::UnknownPe(PeId::new(9)),
            AuditError::TaskIterationOutOfRange {
                node: NodeId::new(0),
                iteration: 9,
                declared: 4,
            },
            AuditError::TransferIterationOutOfRange {
                edge: EdgeId::new(0),
                iteration: 9,
                declared: 4,
            },
            AuditError::TaskScheduledTwice(NodeId::new(0), 1),
            AuditError::TaskNotScheduled(NodeId::new(0), 1),
            AuditError::TransferScheduledTwice(EdgeId::new(0), 1),
            AuditError::TransferNotScheduled(EdgeId::new(0), 1),
            AuditError::EmptyTaskInterval {
                node: NodeId::new(0),
                iteration: 1,
            },
            AuditError::WrongTaskDuration {
                node: NodeId::new(0),
                planned: 1,
                expected: 2,
            },
            AuditError::PeDoubleBooked {
                pe: PeId::new(0),
                first: NodeId::new(0),
                second: NodeId::new(1),
                time: 3,
            },
            AuditError::WrongTransferDuration {
                edge: EdgeId::new(0),
                planned: 3,
                expected: 1,
            },
            AuditError::TransferNotAtProducerFinish {
                edge: EdgeId::new(0),
                iteration: 1,
                start: 5,
                producer_finish: 4,
            },
            AuditError::ConsumerBeforeTransfer {
                edge: EdgeId::new(0),
                iteration: 1,
                transfer_finish: 5,
                consumer_start: 4,
            },
            AuditError::TransferMisrouted {
                edge: EdgeId::new(0),
                iteration: 1,
                routed: PeId::new(0),
                consumer: PeId::new(1),
            },
            AuditError::CacheOverCapacity {
                time: 1,
                occupancy: 9,
                capacity: 8,
            },
            AuditError::FifoDepthExceeded {
                pe: PeId::new(0),
                in_flight: 17,
                depth: 16,
            },
            AuditError::ConservationViolated {
                cached: 1,
                edram: 2,
                expected: 4,
            },
            AuditError::ReportDivergence {
                metric: "total_time",
                simulated: 1,
                audited: 2,
            },
            AuditError::NonFiniteMetric {
                metric: "throughput",
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
