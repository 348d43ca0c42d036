//! Canonical [`Value`] codecs between the domain types and the
//! artifact body.
//!
//! Every encoder builds a [`serde_json::Value`] tree whose objects are
//! `BTreeMap`s, so serialization emits keys in alphabetical order and
//! the byte encoding is canonical by construction: the same bundle
//! always produces the same bytes, which is what makes content
//! addressing and cross-process `cmp` checks meaningful. Every decoder
//! is total — hostile shapes come back as
//! [`ArtifactError::SchemaMismatch`] with a dotted path, never a panic.
//!
//! The body schema is intentionally integer-only (sizes, times, ids,
//! and enum tags as strings); floating-point never enters the hashed
//! bytes, so content hashes cannot drift on float formatting.

use paraconv_alloc::CacheAllocation;
use paraconv_graph::{EdgeId, NodeId, OpKind, Placement, TaskGraph, TaskGraphBuilder};
use paraconv_pim::{PeId, PimConfig};
use paraconv_retime::{MovementAnalysis, Retiming, RetimingCase};
use paraconv_sched::{emit_plan, AllocationPolicy, KernelSchedule, ParaConvOutcome};
use serde_json::{Map, Number, Value};

use crate::artifact::PlanPolicy;
use crate::error::ArtifactError;

// ---------------------------------------------------------------------------
// Building-block encoders
// ---------------------------------------------------------------------------

fn u64_value(v: u64) -> Value {
    Value::Number(Number::from_u64(v))
}

fn usize_value(v: usize) -> Value {
    u64_value(v as u64)
}

fn str_value(s: &str) -> Value {
    Value::String(s.to_owned())
}

fn u64_array(values: impl IntoIterator<Item = u64>) -> Value {
    Value::Array(values.into_iter().map(u64_value).collect())
}

// ---------------------------------------------------------------------------
// Building-block decoders
// ---------------------------------------------------------------------------

fn as_obj<'a>(v: &'a Value, path: &str) -> Result<&'a Map, ArtifactError> {
    v.as_object()
        .ok_or_else(|| ArtifactError::schema(path, "expected an object"))
}

fn as_array<'a>(v: &'a Value, path: &str) -> Result<&'a [Value], ArtifactError> {
    v.as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| ArtifactError::schema(path, "expected an array"))
}

fn as_u64(v: &Value, path: &str) -> Result<u64, ArtifactError> {
    v.as_u64()
        .ok_or_else(|| ArtifactError::schema(path, "expected an unsigned integer"))
}

fn as_str<'a>(v: &'a Value, path: &str) -> Result<&'a str, ArtifactError> {
    v.as_str()
        .ok_or_else(|| ArtifactError::schema(path, "expected a string"))
}

fn field<'a>(obj: &'a Map, path: &str, key: &str) -> Result<&'a Value, ArtifactError> {
    obj.get(key)
        .ok_or_else(|| ArtifactError::schema(format!("{path}.{key}"), "missing field"))
}

pub(crate) fn u64_field(obj: &Map, path: &str, key: &str) -> Result<u64, ArtifactError> {
    as_u64(field(obj, path, key)?, &format!("{path}.{key}"))
}

fn usize_field(obj: &Map, path: &str, key: &str) -> Result<usize, ArtifactError> {
    let v = u64_field(obj, path, key)?;
    usize::try_from(v)
        .map_err(|_| ArtifactError::schema(format!("{path}.{key}"), "value exceeds usize"))
}

pub(crate) fn str_field<'a>(obj: &'a Map, path: &str, key: &str) -> Result<&'a str, ArtifactError> {
    as_str(field(obj, path, key)?, &format!("{path}.{key}"))
}

fn array_field<'a>(obj: &'a Map, path: &str, key: &str) -> Result<&'a [Value], ArtifactError> {
    as_array(field(obj, path, key)?, &format!("{path}.{key}"))
}

fn u64_vec_field(obj: &Map, path: &str, key: &str) -> Result<Vec<u64>, ArtifactError> {
    let items = array_field(obj, path, key)?;
    items
        .iter()
        .enumerate()
        .map(|(i, v)| as_u64(v, &format!("{path}.{key}[{i}]")))
        .collect()
}

fn id32(v: u64, path: &str) -> Result<u32, ArtifactError> {
    u32::try_from(v).map_err(|_| ArtifactError::schema(path, "id exceeds u32"))
}

/// Rejects unknown fields: every artifact field is mandatory, so the
/// key set must match `expected` exactly. Extra keys on import mean a
/// foreign producer or tampering — surfaced, never ignored, since an
/// ignored field could not survive a re-export byte-compare anyway.
fn check_keys(obj: &Map, path: &str, expected: &[&str]) -> Result<(), ArtifactError> {
    for key in obj.keys() {
        if !expected.contains(&key.as_str()) {
            return Err(ArtifactError::schema(
                format!("{path}.{key}"),
                "unknown field",
            ));
        }
    }
    for key in expected {
        if !obj.contains_key(*key) {
            return Err(ArtifactError::schema(
                format!("{path}.{key}"),
                "missing field",
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Enum tags
// ---------------------------------------------------------------------------

fn kind_tag(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Convolution => "convolution",
        OpKind::Pooling => "pooling",
        OpKind::FullyConnected => "fully-connected",
    }
}

fn kind_from_tag(tag: &str, path: &str) -> Result<OpKind, ArtifactError> {
    match tag {
        "convolution" => Ok(OpKind::Convolution),
        "pooling" => Ok(OpKind::Pooling),
        "fully-connected" => Ok(OpKind::FullyConnected),
        other => Err(ArtifactError::schema(
            path,
            format!("unknown operation kind `{other}`"),
        )),
    }
}

fn placement_tag(placement: Placement) -> &'static str {
    match placement {
        Placement::Cache => "cache",
        Placement::Edram => "edram",
    }
}

fn placement_from_tag(tag: &str, path: &str) -> Result<Placement, ArtifactError> {
    match tag {
        "cache" => Ok(Placement::Cache),
        "edram" => Ok(Placement::Edram),
        other => Err(ArtifactError::schema(
            path,
            format!("unknown placement `{other}`"),
        )),
    }
}

fn policy_tag(policy: AllocationPolicy) -> &'static str {
    match policy {
        AllocationPolicy::DynamicProgram => "dynamic-program",
        AllocationPolicy::GreedyByDensity => "greedy-by-density",
        AllocationPolicy::AllEdram => "all-edram",
    }
}

fn policy_from_tag(tag: &str, path: &str) -> Result<AllocationPolicy, ArtifactError> {
    match tag {
        "dynamic-program" => Ok(AllocationPolicy::DynamicProgram),
        "greedy-by-density" => Ok(AllocationPolicy::GreedyByDensity),
        "all-edram" => Ok(AllocationPolicy::AllEdram),
        other => Err(ArtifactError::schema(
            path,
            format!("unknown allocation policy `{other}`"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Task graph
// ---------------------------------------------------------------------------

/// Encodes a task graph. Node and edge ids are implicit in array order,
/// which is exactly the builder's dense sequential assignment.
#[must_use]
pub fn graph_to_value(graph: &TaskGraph) -> Value {
    let nodes: Vec<Value> = graph
        .node_ids()
        .map(|id| {
            // lint: allow(no-unwrap) — iterating the graph's own ids.
            let node = graph.node(id).unwrap();
            let mut obj = Map::new();
            obj.insert("exec".into(), u64_value(node.exec_time()));
            obj.insert("kind".into(), str_value(kind_tag(node.kind())));
            obj.insert("name".into(), str_value(node.name()));
            Value::Object(obj)
        })
        .collect();
    let edges: Vec<Value> = graph
        .edge_ids()
        .map(|id| {
            // lint: allow(no-unwrap) — iterating the graph's own ids.
            let edge = graph.edge(id).unwrap();
            let mut obj = Map::new();
            obj.insert("dst".into(), usize_value(edge.dst().index()));
            obj.insert("size".into(), u64_value(edge.size()));
            obj.insert("src".into(), usize_value(edge.src().index()));
            Value::Object(obj)
        })
        .collect();
    let mut obj = Map::new();
    obj.insert("edges".into(), Value::Array(edges));
    obj.insert("name".into(), str_value(graph.name()));
    obj.insert("nodes".into(), Value::Array(nodes));
    Value::Object(obj)
}

/// Rebuilds a task graph through [`TaskGraphBuilder`], so every
/// structural invariant (edge endpoints in range, acyclicity, …) is
/// re-validated on import.
pub fn graph_from_value(v: &Value, path: &str) -> Result<TaskGraph, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(obj, path, &["edges", "name", "nodes"])?;
    let name = str_field(obj, path, "name")?;
    let mut builder = TaskGraphBuilder::new(name);
    for (i, node) in array_field(obj, path, "nodes")?.iter().enumerate() {
        let node_path = format!("{path}.nodes[{i}]");
        let node = as_obj(node, &node_path)?;
        check_keys(node, &node_path, &["exec", "kind", "name"])?;
        let kind = kind_from_tag(
            str_field(node, &node_path, "kind")?,
            &format!("{node_path}.kind"),
        )?;
        builder.add_node(
            str_field(node, &node_path, "name")?,
            kind,
            u64_field(node, &node_path, "exec")?,
        );
    }
    for (i, edge) in array_field(obj, path, "edges")?.iter().enumerate() {
        let edge_path = format!("{path}.edges[{i}]");
        let edge = as_obj(edge, &edge_path)?;
        check_keys(edge, &edge_path, &["dst", "size", "src"])?;
        let src = id32(
            u64_field(edge, &edge_path, "src")?,
            &format!("{edge_path}.src"),
        )?;
        let dst = id32(
            u64_field(edge, &edge_path, "dst")?,
            &format!("{edge_path}.dst"),
        )?;
        builder
            .add_edge(
                NodeId::new(src),
                NodeId::new(dst),
                u64_field(edge, &edge_path, "size")?,
            )
            .map_err(|e| ArtifactError::schema(&edge_path, e.to_string()))?;
    }
    builder
        .build()
        .map_err(|e| ArtifactError::schema(path, e.to_string()))
}

// ---------------------------------------------------------------------------
// Architecture config
// ---------------------------------------------------------------------------

/// Encodes a [`PimConfig`], one field per getter.
#[must_use]
pub fn config_to_value(config: &PimConfig) -> Value {
    let mut obj = Map::new();
    obj.insert(
        "cache_cost_per_unit".into(),
        u64_value(config.cache_cost_per_unit()),
    );
    obj.insert("edram_penalty".into(), u64_value(config.edram_penalty()));
    obj.insert(
        "failed_pes".into(),
        u64_array(config.failed_pes().iter().map(|&pe| u64::from(pe))),
    );
    obj.insert(
        "max_vault_concurrency".into(),
        match config.max_vault_concurrency() {
            Some(limit) => usize_value(limit),
            None => Value::Null,
        },
    );
    obj.insert("num_pes".into(), usize_value(config.num_pes()));
    obj.insert(
        "per_pe_cache_units".into(),
        u64_value(config.per_pe_cache_units()),
    );
    obj.insert("pfifo_depth".into(), usize_value(config.pfifo_depth()));
    obj.insert(
        "vault_queue_cost".into(),
        u64_value(config.vault_queue_cost()),
    );
    obj.insert("vaults".into(), usize_value(config.vaults()));
    Value::Object(obj)
}

/// Rebuilds a [`PimConfig`] through its builder, so the architecture
/// invariants (positive PE count, sane eDRAM penalty, failed-PE indices
/// in range, …) are re-validated on import.
pub fn config_from_value(v: &Value, path: &str) -> Result<PimConfig, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(
        obj,
        path,
        &[
            "cache_cost_per_unit",
            "edram_penalty",
            "failed_pes",
            "max_vault_concurrency",
            "num_pes",
            "per_pe_cache_units",
            "pfifo_depth",
            "vault_queue_cost",
            "vaults",
        ],
    )?;
    let failed_path = format!("{path}.failed_pes");
    let failed_pes = u64_vec_field(obj, path, "failed_pes")?
        .into_iter()
        .enumerate()
        .map(|(i, pe)| id32(pe, &format!("{failed_path}[{i}]")))
        .collect::<Result<Vec<u32>, _>>()?;
    let mut builder = PimConfig::builder(usize_field(obj, path, "num_pes")?)
        .per_pe_cache_units(u64_field(obj, path, "per_pe_cache_units")?)
        .vaults(usize_field(obj, path, "vaults")?)
        .edram_penalty(u64_field(obj, path, "edram_penalty")?)
        .cache_cost_per_unit(u64_field(obj, path, "cache_cost_per_unit")?)
        .vault_queue_cost(u64_field(obj, path, "vault_queue_cost")?)
        .pfifo_depth(usize_field(obj, path, "pfifo_depth")?)
        .failed_pes(failed_pes);
    let concurrency = field(obj, path, "max_vault_concurrency")?;
    if !concurrency.is_null() {
        builder = builder.max_vault_concurrency(usize_field(obj, path, "max_vault_concurrency")?);
    }
    builder
        .build()
        .map_err(|e| ArtifactError::schema(path, format!("invalid architecture config: {e}")))
}

// ---------------------------------------------------------------------------
// Plan policy
// ---------------------------------------------------------------------------

/// Encodes the request policy that keys the registry.
#[must_use]
pub fn policy_to_value(policy: &PlanPolicy) -> Value {
    let mut obj = Map::new();
    obj.insert(
        "allocation".into(),
        str_value(policy_tag(policy.allocation)),
    );
    obj.insert("iterations".into(), u64_value(policy.iterations));
    Value::Object(obj)
}

/// Decodes a [`PlanPolicy`].
pub fn policy_from_value(v: &Value, path: &str) -> Result<PlanPolicy, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(obj, path, &["allocation", "iterations"])?;
    Ok(PlanPolicy {
        allocation: policy_from_tag(
            str_field(obj, path, "allocation")?,
            &format!("{path}.allocation"),
        )?,
        iterations: u64_field(obj, path, "iterations")?,
    })
}

// ---------------------------------------------------------------------------
// Scheduling outcome
// ---------------------------------------------------------------------------

/// Encodes a [`ParaConvOutcome`] by the parts that determine its plan
/// and that the verifier re-proves: kernel, retiming, allocation and
/// movement analysis. The plan itself is not stored; see
/// [`outcome_from_value`].
#[must_use]
pub fn outcome_to_value(outcome: &ParaConvOutcome) -> Value {
    let mut obj = Map::new();
    obj.insert(
        "allocation".into(),
        allocation_to_value(&outcome.allocation),
    );
    obj.insert("analysis".into(), analysis_to_value(&outcome.analysis));
    obj.insert("kernel".into(), kernel_to_value(&outcome.kernel));
    obj.insert("retiming".into(), retiming_to_value(&outcome.retiming));
    Value::Object(obj)
}

/// Decodes a [`ParaConvOutcome`] and rebuilds its plan for `graph` on
/// `config` over `iterations` iterations through
/// [`paraconv_sched::emit_plan`] — the scheduler's own emission — so
/// the plan that runs is the plan the decoded parts prove, at
/// O(u·(nodes + edges)) cost whatever the iteration count.
pub fn outcome_from_value(
    v: &Value,
    path: &str,
    graph: &TaskGraph,
    config: &PimConfig,
    iterations: u64,
) -> Result<ParaConvOutcome, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(obj, path, &["allocation", "analysis", "kernel", "retiming"])?;
    let kernel = kernel_from_value(field(obj, path, "kernel")?, &format!("{path}.kernel"))?;
    let retiming = retiming_from_value(field(obj, path, "retiming")?, &format!("{path}.retiming"))?;
    let allocation = allocation_from_value(
        field(obj, path, "allocation")?,
        &format!("{path}.allocation"),
    )?;
    let plan = emit_plan(graph, &kernel, &retiming, &allocation, config, iterations)
        .map_err(|e| ArtifactError::schema(path, e.to_string()))?;
    Ok(ParaConvOutcome {
        plan,
        kernel,
        retiming,
        allocation,
        analysis: analysis_from_value(field(obj, path, "analysis")?, &format!("{path}.analysis"))?,
    })
}

fn kernel_to_value(kernel: &KernelSchedule) -> Value {
    let mut obj = Map::new();
    obj.insert("copies".into(), u64_value(kernel.copies()));
    obj.insert(
        "finish".into(),
        u64_array(kernel.finish_slots().iter().copied()),
    );
    obj.insert("node_count".into(), usize_value(kernel.node_count()));
    obj.insert(
        "pe".into(),
        u64_array(kernel.pe_slots().iter().map(|pe| pe.index() as u64)),
    );
    obj.insert("period".into(), u64_value(kernel.period()));
    obj.insert(
        "start".into(),
        u64_array(kernel.start_slots().iter().copied()),
    );
    Value::Object(obj)
}

fn kernel_from_value(v: &Value, path: &str) -> Result<KernelSchedule, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(
        obj,
        path,
        &["copies", "finish", "node_count", "pe", "period", "start"],
    )?;
    let copies = u64_field(obj, path, "copies")?;
    let node_count = usize_field(obj, path, "node_count")?;
    let slots = usize::try_from(copies)
        .ok()
        .and_then(|c| c.checked_mul(node_count))
        .ok_or_else(|| ArtifactError::schema(path, "copies × node_count exceeds usize"))?;
    let pe_path = format!("{path}.pe");
    let pe_of = u64_vec_field(obj, path, "pe")?
        .into_iter()
        .enumerate()
        .map(|(i, pe)| Ok(PeId::new(id32(pe, &format!("{pe_path}[{i}]"))?)))
        .collect::<Result<Vec<PeId>, ArtifactError>>()?;
    let start_of = u64_vec_field(obj, path, "start")?;
    let finish_of = u64_vec_field(obj, path, "finish")?;
    for (key, len) in [
        ("pe", pe_of.len()),
        ("start", start_of.len()),
        ("finish", finish_of.len()),
    ] {
        if len != slots {
            return Err(ArtifactError::schema(
                format!("{path}.{key}"),
                format!("expected copies × node_count = {slots} slots, got {len}"),
            ));
        }
    }
    KernelSchedule::from_parts(
        u64_field(obj, path, "period")?,
        copies,
        node_count,
        pe_of,
        start_of,
        finish_of,
    )
    .map_err(|detail| ArtifactError::schema(path, detail))
}

fn retiming_to_value(retiming: &Retiming) -> Value {
    let mut obj = Map::new();
    obj.insert(
        "edges".into(),
        u64_array(retiming.edge_values_raw().iter().copied()),
    );
    obj.insert(
        "nodes".into(),
        u64_array(retiming.node_values().map(|(_, v)| v)),
    );
    Value::Object(obj)
}

fn retiming_from_value(v: &Value, path: &str) -> Result<Retiming, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(obj, path, &["edges", "nodes"])?;
    Ok(Retiming::from_values(
        u64_vec_field(obj, path, "nodes")?,
        u64_vec_field(obj, path, "edges")?,
    ))
}

fn allocation_to_value(allocation: &CacheAllocation) -> Value {
    let mut placements: Vec<(EdgeId, Placement)> = allocation.placements().collect();
    placements.sort_by_key(|(edge, _)| edge.index());
    let placements: Vec<Value> = placements
        .into_iter()
        .map(|(edge, placement)| {
            Value::Array(vec![
                usize_value(edge.index()),
                str_value(placement_tag(placement)),
            ])
        })
        .collect();
    let mut obj = Map::new();
    obj.insert(
        "cached".into(),
        u64_array(allocation.cached().iter().map(|e| e.index() as u64)),
    );
    obj.insert("capacity".into(), u64_value(allocation.capacity()));
    obj.insert("placements".into(), Value::Array(placements));
    obj.insert("total_profit".into(), u64_value(allocation.total_profit()));
    obj.insert(
        "used_capacity".into(),
        u64_value(allocation.used_capacity()),
    );
    Value::Object(obj)
}

fn allocation_from_value(v: &Value, path: &str) -> Result<CacheAllocation, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(
        obj,
        path,
        &[
            "cached",
            "capacity",
            "placements",
            "total_profit",
            "used_capacity",
        ],
    )?;
    let mut placements = Vec::new();
    for (i, entry) in array_field(obj, path, "placements")?.iter().enumerate() {
        let entry_path = format!("{path}.placements[{i}]");
        let row = as_array(entry, &entry_path)?;
        if row.len() != 2 {
            return Err(ArtifactError::schema(
                &entry_path,
                format!("expected [edge, placement], got {} elements", row.len()),
            ));
        }
        let edge = EdgeId::new(id32(
            as_u64(&row[0], &format!("{entry_path}[0]"))?,
            &format!("{entry_path}[0]"),
        )?);
        let placement = placement_from_tag(
            as_str(&row[1], &format!("{entry_path}[1]"))?,
            &format!("{entry_path}[1]"),
        )?;
        placements.push((edge, placement));
    }
    let cached_path = format!("{path}.cached");
    let cached = u64_vec_field(obj, path, "cached")?
        .into_iter()
        .enumerate()
        .map(|(i, e)| Ok(EdgeId::new(id32(e, &format!("{cached_path}[{i}]"))?)))
        .collect::<Result<Vec<EdgeId>, ArtifactError>>()?;
    Ok(CacheAllocation::from_parts(
        placements,
        cached,
        u64_field(obj, path, "total_profit")?,
        u64_field(obj, path, "used_capacity")?,
        u64_field(obj, path, "capacity")?,
    ))
}

fn analysis_to_value(analysis: &MovementAnalysis) -> Value {
    let cases: Vec<Value> = analysis
        .cases()
        .map(|(_, case)| {
            Value::Array(vec![
                u64_value(case.cache_requirement()),
                u64_value(case.edram_requirement()),
            ])
        })
        .collect();
    let mut obj = Map::new();
    obj.insert("cases".into(), Value::Array(cases));
    obj.insert("period".into(), u64_value(analysis.period()));
    Value::Object(obj)
}

fn analysis_from_value(v: &Value, path: &str) -> Result<MovementAnalysis, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(obj, path, &["cases", "period"])?;
    let mut cases = Vec::new();
    for (i, entry) in array_field(obj, path, "cases")?.iter().enumerate() {
        let case_path = format!("{path}.cases[{i}]");
        let row = as_array(entry, &case_path)?;
        if row.len() != 2 {
            return Err(ArtifactError::schema(
                &case_path,
                format!("expected [k_cache, k_edram], got {} elements", row.len()),
            ));
        }
        let k_cache = as_u64(&row[0], &format!("{case_path}[0]"))?;
        let k_edram = as_u64(&row[1], &format!("{case_path}[1]"))?;
        cases.push(
            RetimingCase::classify(k_cache, k_edram)
                .map_err(|e| ArtifactError::schema(&case_path, e.to_string()))?,
        );
    }
    let period = u64_field(obj, path, "period")?;
    MovementAnalysis::from_cases(cases, period)
        .map_err(|e| ArtifactError::schema(path, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::examples;
    use paraconv_sched::ParaConvScheduler;

    fn sample() -> (TaskGraph, PimConfig, ParaConvOutcome) {
        let graph = examples::motivational();
        // lint: allow(no-unwrap) — test fixture with known-good inputs.
        let config = PimConfig::neurocube(4).unwrap();
        // lint: allow(no-unwrap) — test fixture with known-good inputs.
        let outcome = ParaConvScheduler::new(config.clone())
            .schedule(&graph, 6)
            .unwrap();
        (graph, config, outcome)
    }

    #[test]
    fn graph_round_trips() {
        let (graph, _, _) = sample();
        let value = graph_to_value(&graph);
        let back = graph_from_value(&value, "graph").unwrap();
        assert_eq!(
            serde_json::to_string(&graph_to_value(&back)),
            serde_json::to_string(&value)
        );
        assert_eq!(back.node_count(), graph.node_count());
        assert_eq!(back.edge_count(), graph.edge_count());
        assert_eq!(back.name(), graph.name());
    }

    #[test]
    fn config_round_trips() {
        let (_, config, _) = sample();
        let value = config_to_value(&config);
        let back = config_from_value(&value, "config").unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn config_with_failures_and_concurrency_round_trips() {
        let config = PimConfig::builder(8)
            .per_pe_cache_units(3)
            .max_vault_concurrency(2)
            .failed_pes(vec![1, 5])
            .build()
            .unwrap();
        let back = config_from_value(&config_to_value(&config), "config").unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn outcome_round_trips_exactly() {
        let (graph, config, outcome) = sample();
        let value = outcome_to_value(&outcome);
        let back = outcome_from_value(&value, "body", &graph, &config, 6).unwrap();
        assert_eq!(back.plan, outcome.plan);
        assert_eq!(back.kernel, outcome.kernel);
        assert_eq!(back.retiming, outcome.retiming);
        assert_eq!(back.allocation, outcome.allocation);
        assert_eq!(back.analysis, outcome.analysis);
        // Canonical bytes are stable through the round trip.
        assert_eq!(
            serde_json::to_string(&outcome_to_value(&back)),
            serde_json::to_string(&value)
        );
    }

    #[test]
    fn policy_round_trips() {
        for allocation in [
            AllocationPolicy::DynamicProgram,
            AllocationPolicy::GreedyByDensity,
            AllocationPolicy::AllEdram,
        ] {
            let policy = PlanPolicy {
                allocation,
                iterations: 12,
            };
            let back = policy_from_value(&policy_to_value(&policy), "policy").unwrap();
            assert_eq!(back, policy);
        }
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let (graph, _, _) = sample();
        let mut value = graph_to_value(&graph);
        if let Value::Object(obj) = &mut value {
            obj.insert("zzz_extra".into(), Value::Null);
        }
        let err = graph_from_value(&value, "graph").unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }));
        assert!(err.to_string().contains("zzz_extra"));
    }

    #[test]
    fn missing_fields_are_rejected_with_dotted_paths() {
        let (_, config, _) = sample();
        let mut value = config_to_value(&config);
        if let Value::Object(obj) = &mut value {
            obj.remove("vaults");
        }
        let err = config_from_value(&value, "body.config").unwrap_err();
        assert!(err.to_string().contains("body.config.vaults"), "{err}");
    }

    #[test]
    fn wrong_types_are_schema_errors_not_panics() {
        let err = graph_from_value(&Value::Bool(true), "graph").unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }));
        let err = config_from_value(&Value::Array(vec![]), "config").unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }));
    }

    #[test]
    fn invalid_case_pair_is_rejected() {
        let mut obj = Map::new();
        obj.insert(
            "cases".into(),
            Value::Array(vec![Value::Array(vec![u64_value(2), u64_value(1)])]),
        );
        obj.insert("period".into(), u64_value(4));
        let err = analysis_from_value(&Value::Object(obj), "analysis").unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }));
    }
}
