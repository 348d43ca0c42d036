//! End-to-end contract of the versioned plan IR and registry.
//!
//! Four layers:
//!
//! 1. **Round trip** — every benchmark and model-zoo plan survives
//!    encode → decode → verify → re-encode *byte-identically*, with a
//!    request key that depends only on (graph, config, policy). The
//!    artifact stores the kernel, retiming and allocation, not the
//!    plan's instances: decode rebuilds the plan from them, so the
//!    imported plan equals a fresh schedule of the same request and
//!    the artifact's size does not grow with the iteration count;
//! 2. **Hostile imports** — truncated files, flipped header bytes,
//!    stale versions (format 1 included) and hash-mismatched bodies
//!    all map to typed [`ArtifactError`]s, never a panic. A
//!    tampered-but-hash-valid body — a smuggled plan section, a
//!    corrupted kernel or retiming — is rejected at decode, at the
//!    verifier gate or by the simulator, with a typed error, and an
//!    iteration count whose plan would expand past
//!    `MAX_PLAN_INSTANCES` is refused at decode;
//! 3. **Registry** — the sharded store returns exactly the bytes it
//!    was given and rejects path-shaped keys;
//! 4. **Concurrency** — a same-key put storm and a put-while-get loop
//!    never expose a torn artifact (the protocol the
//!    `registry-put-same-key` model harness in `paraconv-analyze`
//!    proves schedule-exhaustively, re-checked here against the real
//!    filesystem), with exact `registry.hits`/`misses`/`puts`
//!    counters.

use proptest::prelude::*;

use paraconv::graph::TaskGraph;
use paraconv::pim::{simulate, PeId, PimConfig};
use paraconv::registry::{
    decode, request_key, sha256_hex, ArtifactError, PlanBundle, PlanPolicy, Registry,
    FORMAT_VERSION, MAX_PLAN_INSTANCES, PRODUCER,
};
use paraconv::retime::Retiming;
use paraconv::sched::{AllocationPolicy, KernelSchedule, ParaConvScheduler};
use paraconv::synth::benchmarks;
use paraconv::verify::verify_outcome;

const PES: usize = 16;
const ITERS: u64 = 8;

fn config() -> PimConfig {
    PimConfig::neurocube(PES).expect("valid config")
}

fn policy() -> PlanPolicy {
    PlanPolicy {
        allocation: AllocationPolicy::DynamicProgram,
        iterations: ITERS,
    }
}

fn cat_graph() -> TaskGraph {
    benchmarks::by_name("cat")
        .expect("cat exists")
        .graph()
        .expect("cat builds")
}

/// Schedules, verifies and bundles one plan.
fn bundle_for(graph: TaskGraph) -> PlanBundle {
    let cfg = config();
    let outcome = ParaConvScheduler::new(cfg.clone())
        .with_policy(AllocationPolicy::DynamicProgram)
        .schedule(&graph, ITERS)
        .expect("schedulable");
    verify_outcome(&graph, &outcome, &cfg).expect("exported plans prove");
    PlanBundle {
        graph,
        config: cfg,
        policy: policy(),
        outcome,
    }
}

/// The full export → import → verify → re-export loop for one plan.
fn assert_round_trips(name: &str, graph: TaskGraph) {
    let bundle = bundle_for(graph);
    let key = bundle.key();
    assert_eq!(
        key,
        request_key(&bundle.graph, &bundle.config, &bundle.policy),
        "{name}: the key must be computable from the request alone"
    );
    let bytes = bundle.encode();
    let artifact = decode(&bytes).unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
    assert_eq!(artifact.header.format, FORMAT_VERSION);
    assert_eq!(artifact.header.producer, PRODUCER);
    assert_eq!(artifact.header.key, key, "{name}: key drifted");
    verify_outcome(
        &artifact.bundle.graph,
        &artifact.bundle.outcome,
        &artifact.bundle.config,
    )
    .unwrap_or_else(|e| panic!("{name}: imported plan failed the gate: {e}"));
    assert_eq!(
        artifact.bundle.encode(),
        bytes,
        "{name}: re-encode is not byte-identical"
    );
    // Deterministic: a second export of the same request matches too.
    assert_eq!(bundle.encode(), bytes, "{name}: encode is not a function");
}

#[test]
fn every_benchmark_round_trips_byte_identically() {
    for b in benchmarks::all() {
        assert_round_trips(b.name(), b.graph().expect("benchmark builds"));
    }
}

#[test]
fn every_zoo_network_round_trips_byte_identically() {
    let zoo = paraconv::cnn::zoo::all().expect("zoo builds");
    for (class, network) in &zoo {
        let graph = paraconv::cnn::partition(network, paraconv::cnn::PartitionConfig::default())
            .expect("network partitions");
        assert_round_trips(&format!("{class}/{}", network.name()), graph);
    }
}

#[test]
fn request_keys_ignore_the_outcome_and_separate_requests() {
    let cat = bundle_for(cat_graph());
    let car = bundle_for(
        benchmarks::by_name("car")
            .expect("car exists")
            .graph()
            .expect("car builds"),
    );
    assert_ne!(cat.key(), car.key(), "different graphs, different keys");
    let mut other_policy = cat.policy;
    other_policy.iterations += 1;
    assert_ne!(
        cat.key(),
        request_key(&cat.graph, &cat.config, &other_policy),
        "the policy is part of the request"
    );
}

/// One valid artifact, scheduled once and shared by the hostile tests.
fn sample_bytes() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES
        .get_or_init(|| bundle_for(cat_graph()).encode())
        .clone()
}

fn decode_err(bytes: &[u8]) -> ArtifactError {
    match decode(bytes) {
        Err(e) => e,
        Ok(_) => panic!("hostile input decoded cleanly"),
    }
}

#[test]
fn truncated_artifacts_are_rejected_with_typed_errors() {
    let bytes = sample_bytes();
    // Empty file, header cut mid-JSON, missing body line, body cut
    // mid-JSON: all Truncated or SchemaMismatch, never a panic.
    for cut in [0, 1, 10, bytes.len() / 2, bytes.len() - 1] {
        let truncated = &bytes[..cut];
        let err = decode_err(truncated);
        assert!(
            matches!(
                err,
                ArtifactError::Truncated { .. } | ArtifactError::SchemaMismatch { .. }
            ),
            "cut at {cut} gave unexpected error: {err}"
        );
    }
}

#[test]
fn flipped_magic_is_a_schema_mismatch() {
    let mut bytes = sample_bytes();
    let pos = bytes
        .windows(b"paraconv-plan".len())
        .position(|w| w == b"paraconv-plan")
        .expect("magic present");
    bytes[pos] = b'q';
    assert!(matches!(
        decode_err(&bytes),
        ArtifactError::SchemaMismatch { .. }
    ));
}

#[test]
fn stale_format_versions_are_a_version_skew() {
    let text = String::from_utf8(sample_bytes()).expect("artifact is UTF-8");
    assert_eq!(FORMAT_VERSION, 2);
    // Format 1 stored the plan's expansion; this build reads neither
    // it nor any other version but its own.
    for version in [1, 99] {
        let stale = text.replacen("\"format\":2", &format!("\"format\":{version}"), 1);
        assert_ne!(stale, text, "format field present exactly once");
        match decode_err(stale.as_bytes()) {
            ArtifactError::VersionSkew { found, supported } => {
                assert_eq!(found, version);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected VersionSkew, got {other}"),
        }
    }
}

#[test]
fn corrupted_bodies_are_a_hash_mismatch() {
    let bytes = sample_bytes();
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("two-line artifact");
    let mut corrupt = bytes.clone();
    // Flip one digit deep inside the body line.
    let target = header_end + (corrupt.len() - header_end) / 2;
    let pos = (target..corrupt.len())
        .find(|&i| corrupt[i].is_ascii_digit())
        .expect("body has digits");
    corrupt[pos] = if corrupt[pos] == b'7' { b'8' } else { b'7' };
    match decode_err(&corrupt) {
        ArtifactError::HashMismatch { field, .. } => assert_eq!(field, "content_hash"),
        other => panic!("expected HashMismatch, got {other}"),
    }
}

/// Replaces the body of a valid artifact and re-hashes it honestly,
/// so only the codec and the gates downstream of it can object.
fn rehashed(bytes: &[u8], edit: impl FnOnce(&str) -> String) -> Vec<u8> {
    let text = String::from_utf8(bytes.to_vec()).expect("artifact is UTF-8");
    let (header, rest) = text.split_once('\n').expect("two-line artifact");
    let body = rest.strip_suffix('\n').expect("newline-terminated body");
    let evil_body = edit(body);
    assert_ne!(evil_body, body, "the edit changed the body");
    let old_hash_field = format!("\"content_hash\":\"{}\"", sha256_hex(body.as_bytes()));
    let new_hash_field = format!("\"content_hash\":\"{}\"", sha256_hex(evil_body.as_bytes()));
    let evil_header = header.replacen(&old_hash_field, &new_hash_field, 1);
    assert_ne!(evil_header, header, "content_hash field patched");
    format!("{evil_header}\n{evil_body}\n").into_bytes()
}

#[test]
fn hash_fixed_schema_corruption_is_a_schema_mismatch() {
    // Corrupt the body *and* recompute the content hash: the hash gate
    // passes, so the codec's strict key checking must catch it.
    let evil = rehashed(&sample_bytes(), |body| {
        body.replacen("\"kernel\":", "\"kernal\":", 1)
    });
    match decode_err(&evil) {
        ArtifactError::SchemaMismatch { path, .. } => {
            assert!(path.starts_with("body"), "schema path localizes: {path}")
        }
        other => panic!("expected SchemaMismatch, got {other}"),
    }
}

#[test]
fn a_smuggled_plan_section_cannot_change_what_import_runs() {
    // Format 1 stored the plan's instances next to the parts that
    // determine them, and nothing tied the two together: a plan
    // shifted 1000 cycles and honestly re-hashed passed decode and the
    // gate, then simulated 1000 cycles late. Format 2 has no plan
    // section, so the same smuggled section is an unknown field.
    let fresh = bundle_for(cat_graph());
    let mut rows = Vec::new();
    for t in fresh.outcome.plan.tasks() {
        rows.push(format!(
            "[{},{},{},{},{}]",
            t.node.index(),
            t.iteration,
            t.pe.index(),
            t.start + 1000,
            t.duration
        ));
    }
    let section = format!(
        ",\"plan\":{{\"iterations\":{ITERS},\"tasks\":[{}],\"transfers\":[]}},\"retiming\":",
        rows.join(",")
    );
    let evil = rehashed(&sample_bytes(), |body| {
        body.replacen(",\"retiming\":", &section, 1)
    });
    match decode_err(&evil) {
        ArtifactError::SchemaMismatch { path, .. } => assert_eq!(path, "body.outcome.plan"),
        other => panic!("expected SchemaMismatch, got {other}"),
    }

    // What import runs is what the scheduler emits for the request.
    let imported = decode(&sample_bytes()).expect("sample decodes").bundle;
    assert_eq!(imported.outcome.plan, fresh.outcome.plan);
    let cfg = config();
    assert_eq!(
        simulate(&imported.graph, &imported.outcome.plan, &cfg).expect("imported plan replays"),
        simulate(&fresh.graph, &fresh.outcome.plan, &cfg).expect("fresh plan replays")
    );
}

/// Whether a hash-valid artifact is refused before it could run: a
/// typed error at decode, at the verifier gate or in the simulator.
/// Panics (the test fails) if any stage panics instead.
fn refused_before_running(bytes: &[u8]) -> bool {
    let Ok(artifact) = decode(bytes) else {
        return true;
    };
    let b = &artifact.bundle;
    verify_outcome(&b.graph, &b.outcome, &b.config).is_err()
        || simulate(&b.graph, &b.outcome.plan, &b.config).is_err()
}

#[test]
fn hash_valid_tampered_outcomes_are_refused_before_running() {
    // An attacker who re-encodes honestly (valid hashes, valid schema)
    // after corrupting the outcome still cannot get a plan executed:
    // import re-derives the plan from the artifact and re-proves it.
    let fresh = bundle_for(cat_graph());

    // An illegal retiming: R(edge) < R(dst).
    let mut bundle = fresh.clone();
    let dst = bundle
        .graph
        .edges()
        .next()
        .expect("benchmark graphs have edges")
        .dst()
        .index();
    let mut node_values: Vec<u64> = bundle
        .outcome
        .retiming
        .node_values()
        .map(|(_, v)| v)
        .collect();
    let edge_values = bundle.outcome.retiming.edge_values_raw().to_vec();
    node_values[dst] = u64::MAX;
    bundle.outcome.retiming = Retiming::from_values(node_values, edge_values);
    assert!(
        refused_before_running(&bundle.encode()),
        "tampered retiming slipped through"
    );

    // Kernels rebuilt with one slot's PE replaced.
    let kernel = &fresh.outcome.kernel;
    let with_pe = |slot: usize, pe: PeId| {
        let mut pes = kernel.pe_slots().to_vec();
        pes[slot] = pe;
        let mut bundle = fresh.clone();
        bundle.outcome.kernel = KernelSchedule::from_parts(
            kernel.period(),
            kernel.copies(),
            kernel.node_count(),
            pes,
            kernel.start_slots().to_vec(),
            kernel.finish_slots().to_vec(),
        )
        .expect("same shape");
        bundle.encode()
    };
    // A slot on a PE outside the array.
    assert!(
        refused_before_running(&with_pe(0, PeId::new(PES as u32))),
        "a slot outside the PE array slipped through"
    );
    // Two slots whose windows overlap, moved onto one PE.
    let (starts, finishes) = (kernel.start_slots(), kernel.finish_slots());
    let (a, b) = (0..starts.len())
        .flat_map(|a| (0..starts.len()).map(move |b| (a, b)))
        .find(|&(a, b)| {
            a != b
                && kernel.pe_slots()[a] != kernel.pe_slots()[b]
                && starts[a] < finishes[b]
                && starts[b] < finishes[a]
        })
        .expect("a compacted kernel runs some slots in parallel");
    assert!(
        refused_before_running(&with_pe(b, kernel.pe_slots()[a])),
        "overlapping slots on one PE slipped through"
    );
}

#[test]
fn absurd_iteration_counts_are_refused_at_decode() {
    // The plan is rebuilt from the kernel, so a few-KB body could
    // otherwise declare an iteration count whose replay touches
    // trillions of instances. Decode refuses any count that would
    // expand past MAX_PLAN_INSTANCES, before building anything.
    let fresh = bundle_for(cat_graph());
    let with_iterations = |iterations: u64| {
        let mut bundle = fresh.clone();
        bundle.policy.iterations = iterations;
        bundle.encode()
    };
    let per_iteration = (fresh.graph.node_count() + fresh.graph.edge_count()) as u64;
    let limit = MAX_PLAN_INSTANCES / per_iteration;
    for iterations in [u64::MAX, u64::MAX - 1, 1 << 62, 1 << 40, limit + 1] {
        let bytes = with_iterations(iterations);
        match decode_err(&bytes) {
            ArtifactError::SchemaMismatch { path, .. } => {
                assert_eq!(path, "body.policy.iterations");
            }
            other => panic!("expected SchemaMismatch, got {other}"),
        }
        assert!(refused_before_running(&bytes));
    }
    // At the limit the plan decodes, still without expanding it.
    let artifact = decode(&with_iterations(limit)).expect("the limit itself decodes");
    let plan = &artifact.bundle.outcome.plan;
    assert_eq!(plan.iterations(), limit);
    assert!(
        (plan.tasks().len() + plan.transfers().len()) as u64 <= MAX_PLAN_INSTANCES,
        "the limit bounds the expansion"
    );
    assert!(plan.makespan() > limit, "the last iteration runs last");
}

#[test]
fn artifact_size_does_not_grow_with_iterations() {
    // Past the unroll cap the kernel no longer changes, so neither do
    // the artifact's bytes, apart from the iteration count itself.
    let graph = cat_graph();
    let cfg = config();
    let export = |iterations: u64| {
        let outcome = ParaConvScheduler::new(cfg.clone())
            .schedule(&graph, iterations)
            .expect("schedulable");
        PlanBundle {
            graph: graph.clone(),
            config: cfg.clone(),
            policy: PlanPolicy {
                allocation: AllocationPolicy::DynamicProgram,
                iterations,
            },
            outcome,
        }
        .encode()
    };
    let (small, large) = (export(100), export(1000));
    assert!(
        small.len().abs_diff(large.len()) <= 1,
        "100 iterations: {} bytes, 1000 iterations: {} bytes",
        small.len(),
        large.len()
    );
}

#[test]
fn registry_stores_and_returns_exact_bytes() {
    let dir = std::env::temp_dir().join(format!("paraconv-plan-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::open(&dir).expect("registry opens");
    let bytes = sample_bytes();
    let artifact = decode(&bytes).expect("sample decodes");
    let key = artifact.header.key.clone();
    assert!(registry.get(&key).expect("get works").is_none());
    registry.put(&key, &bytes).expect("put works");
    assert!(registry.contains(&key).expect("contains works"));
    assert_eq!(
        registry.get(&key).expect("get works").as_deref(),
        Some(&bytes[..])
    );
    assert_eq!(registry.keys().expect("keys list"), vec![key]);
    assert!(registry.put("../../etc/passwd", &bytes).is_err());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_byte_mutations_never_panic_or_change_plans(
        offset in 0usize..1_000_000,
        value in 0u8..=255,
    ) {
        // Any one-byte corruption of a valid artifact either fails
        // with a typed error or — when it hits a provenance-only field
        // like the producer tag — decodes to the *same* plan, which
        // re-encodes to the canonical original bytes.
        let original = sample_bytes();
        let mut mutated = original.clone();
        let i = offset % mutated.len();
        mutated[i] = value;
        match decode(&mutated) {
            Err(_) => {} // typed rejection is the expected outcome
            Ok(artifact) => prop_assert_eq!(
                artifact.bundle.encode(),
                original,
                "a surviving mutation must be semantically invisible"
            ),
        }
    }
}

/// Minimal bytes that pass the registry's read-side verification: a
/// well-formed artifact header over an arbitrary single-line body.
fn mini_artifact(body: &str) -> Vec<u8> {
    let hash = sha256_hex(body.as_bytes());
    format!(
        "{{\"content_hash\":\"{hash}\",\"format\":2,\"key\":\"{hash}\",\
         \"magic\":\"paraconv-plan\",\"producer\":\"storm-test\"}}\n{body}\n"
    )
    .into_bytes()
}

/// Serializes the tests that do registry operations: counter
/// exactness needs the process-global obs recorder to itself.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn concurrent_same_key_put_storm_never_tears_and_counts_exactly() {
    let _guard = obs_lock();
    paraconv::obs::reset();
    paraconv::obs::enable();

    let dir = std::env::temp_dir().join(format!("paraconv-put-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let body: String = format!("{{\"payload\":\"{}\"}}", "cd".repeat(1 << 15));
    let payload = mini_artifact(&body);
    let key = sha256_hex(&payload);
    const WRITERS: usize = 8;
    const PUTS_EACH: usize = 4;
    let threads: Vec<_> = (0..WRITERS)
        .map(|_| {
            let registry = Registry::open(&dir).expect("registry opens");
            let key = key.clone();
            let payload = payload.clone();
            std::thread::spawn(move || {
                for _ in 0..PUTS_EACH {
                    registry.put(&key, &payload).expect("put succeeds");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("writer thread completes");
    }

    // Worker threads flushed their obs buffers on exit; snapshot
    // before the final get so the put count stands alone.
    let snapshot = paraconv::obs::snapshot();
    assert_eq!(
        snapshot.counter("registry.puts"),
        (WRITERS * PUTS_EACH) as u64,
        "every put lands exactly once in the counter"
    );
    assert_eq!(snapshot.counter("registry.hits"), 0);
    assert_eq!(snapshot.counter("registry.misses"), 0);

    let registry = Registry::open(&dir).expect("registry opens");
    assert_eq!(
        registry.get(&key).expect("get works"),
        Some(payload),
        "the artifact is whole after the storm"
    );
    let shard = dir.join("objects").join(&key[..2]);
    let leftovers: Vec<_> = std::fs::read_dir(&shard)
        .expect("shard exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "no temp files survive the storm");

    paraconv::obs::disable();
    paraconv::obs::reset();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn put_while_get_sees_none_or_the_whole_artifact() {
    let _guard = obs_lock();
    paraconv::obs::reset();
    paraconv::obs::enable();

    let dir = std::env::temp_dir().join(format!("paraconv-put-get-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let body: String = format!("{{\"payload\":\"{}\"}}", "ef".repeat(1 << 15));
    let payload = mini_artifact(&body);
    let key = sha256_hex(&payload);
    const PUTS: usize = 16;
    let writer = {
        let registry = Registry::open(&dir).expect("registry opens");
        let key = key.clone();
        let payload = payload.clone();
        std::thread::spawn(move || {
            for _ in 0..PUTS {
                registry.put(&key, &payload).expect("put succeeds");
            }
        })
    };

    // Read concurrently: every get is either a miss or the complete
    // payload — never a prefix, never zero-filled bytes.
    let registry = Registry::open(&dir).expect("registry opens");
    let mut hits = 0u64;
    let mut misses = 0u64;
    for _ in 0..64 {
        match registry.get(&key).expect("get never errors") {
            None => misses += 1,
            Some(got) => {
                assert_eq!(got, payload, "a visible artifact is always whole");
                hits += 1;
            }
        }
    }
    writer.join().expect("writer completes");

    // One settled read after the writer is done must hit.
    assert_eq!(registry.get(&key).expect("get works"), Some(payload));
    hits += 1;

    let snapshot = paraconv::obs::snapshot();
    assert_eq!(snapshot.counter("registry.puts"), PUTS as u64);
    assert_eq!(snapshot.counter("registry.hits"), hits);
    assert_eq!(snapshot.counter("registry.misses"), misses);

    paraconv::obs::disable();
    paraconv::obs::reset();
    let _ = std::fs::remove_dir_all(&dir);
}
