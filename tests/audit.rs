//! Seeded-mutation coverage for the plan auditor, plus a clean bill of
//! health for every experiment module with auditing switched on.
//!
//! `tests/mutation.rs` checks that the *simulator* never panics on a
//! corrupted plan; this file checks the stronger property that the
//! *auditor* positively flags each seeded corruption with the right
//! typed error, and that every plan the repo's own experiment drivers
//! emit passes the auditor unmodified.

use paraconv::experiments::{
    ablation, cases, energy, fig5, fig6, scalability, table1, table2, zoo,
};
use paraconv::graph::{OpKind, Placement, TaskGraph, TaskGraphBuilder};
use paraconv::pim::{
    audit, audit_plan, AuditError, CostModel, ExecutionPlan, PeId, PimConfig, PlannedTask,
    PlannedTransfer,
};
use paraconv::sched::ParaConvScheduler;
use paraconv::ExperimentConfig;

/// A motivational-example plan known to pass the auditor.
fn valid_setup() -> (TaskGraph, ExecutionPlan, PimConfig) {
    let graph = paraconv::graph::examples::motivational();
    let config = PimConfig::builder(4)
        .per_pe_cache_units(1)
        .build()
        .expect("valid");
    let plan = ParaConvScheduler::new(config.clone())
        .schedule(&graph, 6)
        .expect("schedules")
        .plan;
    (graph, plan, config)
}

/// Rebuilds a plan applying `task_map` to every task and `xfer_map` to
/// every transfer, dropping any that map to `None`.
fn rebuild(
    plan: &ExecutionPlan,
    mut task_map: impl FnMut(usize, PlannedTask) -> Option<PlannedTask>,
    mut xfer_map: impl FnMut(usize, PlannedTransfer) -> Option<PlannedTransfer>,
) -> ExecutionPlan {
    let mut out = ExecutionPlan::new(plan.iterations());
    for (i, t) in plan.tasks().enumerate() {
        if let Some(t) = task_map(i, t) {
            out.push_task(t);
        }
    }
    for (i, x) in plan.transfers().enumerate() {
        if let Some(x) = xfer_map(i, x) {
            out.push_transfer(x);
        }
    }
    out
}

#[test]
fn baseline_plan_passes_audit() {
    let (graph, plan, config) = valid_setup();
    audit_plan(&graph, &plan, &config).expect("unmutated plan is clean");
}

#[test]
fn dropped_task_is_flagged() {
    let (graph, plan, config) = valid_setup();
    let mutated = rebuild(&plan, |i, t| (i != 0).then_some(t), |_, x| Some(x));
    assert!(matches!(
        audit_plan(&graph, &mutated, &config),
        Err(AuditError::TaskNotScheduled { .. })
    ));
}

#[test]
fn duplicated_task_is_flagged() {
    let (graph, plan, config) = valid_setup();
    let mut mutated = rebuild(&plan, |_, t| Some(t), |_, x| Some(x));
    mutated.push_task(plan.tasks().next().unwrap());
    assert!(matches!(
        audit_plan(&graph, &mutated, &config),
        Err(AuditError::TaskScheduledTwice { .. })
    ));
}

#[test]
fn dropped_transfer_is_flagged() {
    let (graph, plan, config) = valid_setup();
    let mutated = rebuild(&plan, |_, t| Some(t), |i, x| (i != 0).then_some(x));
    assert!(matches!(
        audit_plan(&graph, &mutated, &config),
        Err(AuditError::TransferNotScheduled { .. })
    ));
}

#[test]
fn duplicated_transfer_is_flagged() {
    let (graph, plan, config) = valid_setup();
    let mut mutated = rebuild(&plan, |_, t| Some(t), |_, x| Some(x));
    mutated.push_transfer(plan.transfers().next().unwrap());
    assert!(matches!(
        audit_plan(&graph, &mutated, &config),
        Err(AuditError::TransferScheduledTwice { .. })
    ));
}

#[test]
fn double_booked_pe_is_flagged() {
    let (graph, plan, config) = valid_setup();
    // Move every task onto PE 0: the compacted kernel keeps several
    // PEs busy at once, so at least two intervals must now collide.
    let mutated = rebuild(
        &plan,
        |_, mut t| {
            t.pe = PeId::new(0);
            Some(t)
        },
        |_, x| Some(x),
    );
    assert!(matches!(
        audit_plan(&graph, &mutated, &config),
        Err(AuditError::PeDoubleBooked { .. })
    ));
}

#[test]
fn early_transfer_departure_is_flagged() {
    let (graph, plan, config) = valid_setup();
    let victim = plan
        .transfers()
        .position(|x| x.start > 0)
        .expect("some transfer departs after t=0");
    let mutated = rebuild(
        &plan,
        |_, t| Some(t),
        |i, mut x| {
            if i == victim {
                x.start -= 1;
            }
            Some(x)
        },
    );
    assert!(matches!(
        audit_plan(&graph, &mutated, &config),
        Err(AuditError::TransferNotAtProducerFinish { .. })
    ));
}

#[test]
fn padded_transfer_is_flagged() {
    let (graph, plan, config) = valid_setup();
    let mutated = rebuild(
        &plan,
        |_, t| Some(t),
        |i, mut x| {
            if i == 0 {
                x.duration += 1;
            }
            Some(x)
        },
    );
    assert!(matches!(
        audit_plan(&graph, &mutated, &config),
        Err(AuditError::WrongTransferDuration { .. })
    ));
}

#[test]
fn over_capacity_cache_is_flagged() {
    // One producer fanning out to four consumers with size-2 IPRs on a
    // four-unit cache: forcing every IPR on chip must overflow, because
    // all four transfers depart together at the producer's finish
    // (8 units live at once against a capacity of 4).
    let mut b = TaskGraphBuilder::new("fanout");
    let src = b.add_node("src", OpKind::Convolution, 2);
    for i in 0..4 {
        let dst = b.add_node(format!("dst{i}"), OpKind::Convolution, 1);
        b.add_edge(src, dst, 2).expect("forward edge");
    }
    let graph = b.build().expect("acyclic");
    let config = PimConfig::builder(4)
        .per_pe_cache_units(1)
        .build()
        .expect("valid");
    let plan = ParaConvScheduler::new(config.clone())
        .schedule(&graph, 2)
        .expect("schedules")
        .plan;
    audit_plan(&graph, &plan, &config).expect("scheduler respects capacity");

    let cost = CostModel::new(&config, graph.edge_count());
    let mutated = rebuild(
        &plan,
        |_, t| Some(t),
        |_, mut x| {
            let size = graph.edge(x.edge).expect("edge exists").size();
            x.placement = Placement::Cache;
            x.duration = cost.transfer_time(size, Placement::Cache);
            Some(x)
        },
    );
    assert!(matches!(
        audit_plan(&graph, &mutated, &config),
        Err(AuditError::CacheOverCapacity { .. })
    ));
}

#[test]
fn misrouted_transfer_is_flagged() {
    let (graph, plan, config) = valid_setup();
    let mutated = rebuild(
        &plan,
        |_, t| Some(t),
        |i, mut x| {
            if i == 0 {
                x.dst_pe = PeId::new((x.dst_pe.index() as u32 + 1) % 4);
            }
            Some(x)
        },
    );
    // Rerouting the data away from the consumer's PE trips either the
    // routing check or, if the new destination happens to host another
    // consumer, the per-PE FIFO accounting — both are audit failures.
    assert!(audit_plan(&graph, &mutated, &config).is_err());
}

/// Small-but-real configuration with the auditor enabled.
fn audited_config() -> ExperimentConfig {
    ExperimentConfig {
        pe_counts: vec![8, 16],
        iterations: 4,
        audit: true,
        ..ExperimentConfig::default()
    }
}

#[test]
fn all_experiment_modules_pass_audit_clean() {
    let config = audited_config();
    let suite = &paraconv::experiments::quick_suite()[..2];

    table1::run(&config, suite).expect("table1 audits clean");
    table2::run(&config, suite).expect("table2 audits clean");
    fig5::run(&config, suite).expect("fig5 audits clean");
    fig6::run(&config, suite).expect("fig6 audits clean");
    cases::run(&config, suite).expect("cases audits clean");
    energy::run(&config, suite).expect("energy audits clean");
    scalability::pe_sweep(&config, &suite[0], &[4, 8]).expect("pe_sweep audits clean");
    scalability::fetch_penalty(&config, suite).expect("fetch_penalty audits clean");
    ablation::policies(&config, suite).expect("policies audit clean");
    ablation::contributions(&config, suite).expect("contributions audit clean");
    ablation::unrolling(&config, suite).expect("unrolling audits clean");
    ablation::penalty_sweep(&config, &suite[0], &[2, 8]).expect("penalty_sweep audits clean");
    ablation::cache_sweep(&config, &suite[0], &[1, 4]).expect("cache_sweep audits clean");
}

#[test]
fn zoo_passes_audit_clean() {
    let config = ExperimentConfig {
        pe_counts: vec![16],
        iterations: 2,
        audit: true,
        ..ExperimentConfig::default()
    };
    zoo::run(&config).expect("zoo audits clean");
}

#[test]
fn audit_agrees_with_the_simulator_on_clean_runs() {
    let (graph, plan, config) = valid_setup();
    let report = paraconv::pim::simulate(&graph, &plan, &config).expect("valid plan");
    let audited = audit(&graph, &plan, &config, &report).expect("report matches plan");
    assert_eq!(audited.makespan, report.total_time);
    assert_eq!(audited.iterations, report.iterations);
}
