//! Periodic plans are the plans the paper's formula describes.
//!
//! The scheduler emits one kernel's worth of iterations and the plan
//! type repeats it. For every Table 1 benchmark and model-zoo network
//! at 16, 32 and 64 PEs and 1, 4, 20 and 100 iterations, this checks
//! that the expanded plan equals an explicit plan built instance by
//! instance from the closed form — `V_i^ℓ` in copy `(ℓ−1) mod u` of
//! kernel group `(ℓ−1) div u`, starting at
//! `(group + R_max − R(i))·p + offset(i)`, every transfer leaving when
//! its producer finishes — and that both replay to the same
//! [`SimReport`] and pass the independent audit. SPARTA's plans —
//! full batches repeated, a partial last batch as an explicit tail —
//! must replay to the same report as their instances pushed one by
//! one.

use paraconv::graph::{Placement, TaskGraph};
use paraconv::pim::{
    audit, simulate, CostModel, ExecutionPlan, PimConfig, PlannedTask, PlannedTransfer,
};
use paraconv::sched::{ParaConvOutcome, ParaConvScheduler, SpartaScheduler};
use paraconv::synth::benchmarks;

const PES: [usize; 3] = [16, 32, 64];
const ITERATIONS: [u64; 4] = [1, 4, 20, 100];

/// The explicit plan the closed form gives for `outcome`'s kernel,
/// retiming and allocation.
fn closed_form(graph: &TaskGraph, outcome: &ParaConvOutcome, config: &PimConfig) -> ExecutionPlan {
    let kernel = &outcome.kernel;
    let (u, p) = (kernel.copies(), kernel.period());
    let rmax = outcome.retiming.max_value();
    let r = |node| outcome.retiming.node_value(node).expect("retimed node");
    let cost = CostModel::new(config, graph.edge_count());
    let placements = outcome.allocation.to_placement_vec(graph.edge_count());
    let iterations = outcome.plan.iterations();
    let mut plan = ExecutionPlan::new(iterations);
    for iteration in 1..=iterations {
        let (group, copy) = ((iteration - 1) / u, (iteration - 1) % u);
        for node in graph.nodes() {
            plan.push_task(PlannedTask {
                node: node.id(),
                iteration,
                pe: kernel.pe_at(node.id(), copy),
                start: (group + rmax - r(node.id())) * p + kernel.start_at(node.id(), copy),
                duration: node.exec_time(),
            });
        }
        for ipr in graph.edges() {
            let placement: Placement = placements[ipr.id().index()];
            plan.push_transfer(PlannedTransfer {
                edge: ipr.id(),
                iteration,
                placement,
                start: (group + rmax - r(ipr.src())) * p + kernel.finish_at(ipr.src(), copy),
                duration: cost.transfer_time(ipr.size(), placement),
                dst_pe: kernel.pe_at(ipr.dst(), copy),
            });
        }
    }
    plan
}

/// `plan`'s instances pushed one by one into an explicit plan.
fn flattened(plan: &ExecutionPlan) -> ExecutionPlan {
    let mut flat = ExecutionPlan::new(plan.iterations());
    plan.tasks().for_each(|t| flat.push_task(t));
    plan.transfers().for_each(|x| flat.push_transfer(x));
    flat
}

fn assert_periodic_equals_closed_form(name: &str, graph: &TaskGraph) {
    for pes in PES {
        let config = PimConfig::neurocube(pes).expect("preset is valid");
        for iterations in ITERATIONS {
            let outcome = ParaConvScheduler::new(config.clone())
                .schedule(graph, iterations)
                .expect("schedulable");
            let explicit = closed_form(graph, &outcome, &config);
            let at = format!("{name} @ {pes} PEs, {iterations} iterations");
            assert_eq!(outcome.plan, explicit, "{at}: plans differ");
            let periodic = simulate(graph, &outcome.plan, &config).expect("periodic replays");
            let flat = simulate(graph, &explicit, &config).expect("explicit replays");
            assert_eq!(periodic, flat, "{at}: reports differ");
            audit(graph, &outcome.plan, &config, &periodic).expect("periodic plan audits");

            let sparta = SpartaScheduler::new(config.clone())
                .schedule(graph, iterations)
                .expect("schedulable")
                .plan;
            let report = simulate(graph, &sparta, &config).expect("SPARTA plan replays");
            let flat = simulate(graph, &flattened(&sparta), &config).expect("flat plan replays");
            assert_eq!(report, flat, "{at}: SPARTA reports differ");
            audit(graph, &sparta, &config, &report).expect("SPARTA plan audits");
        }
    }
}

#[test]
fn every_benchmark_matches_the_closed_form() {
    for bench in benchmarks::all() {
        let graph = bench.graph().expect("benchmark builds");
        assert_periodic_equals_closed_form(bench.name(), &graph);
    }
}

#[test]
fn every_zoo_network_matches_the_closed_form() {
    for (class, network) in &paraconv::cnn::zoo::all().expect("zoo builds") {
        let graph = paraconv::cnn::partition(network, paraconv::cnn::PartitionConfig::default())
            .expect("network partitions");
        assert_periodic_equals_closed_form(&format!("{class}/{}", network.name()), &graph);
    }
}
