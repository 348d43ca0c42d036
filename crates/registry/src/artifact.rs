//! The versioned plan artifact: header, canonical encoding, and the
//! schema-checked decoder.
//!
//! An artifact is two JSON lines (the idiom the obs JSONL exporter
//! established):
//!
//! ```text
//! {"content_hash":"…","format":2,"key":"…","magic":"paraconv-plan","producer":"paraconv 0.1.0"}
//! {"config":{…},"graph":{…},"outcome":{…},"policy":{…}}
//! ```
//!
//! The header carries everything needed to reject a foreign or
//! tampered file *before* touching the body codec: a magic string, the
//! format version, the SHA-256 of the body line (`content_hash`), and
//! the registry key (SHA-256 of the canonical request — graph, config,
//! policy — that produced the plan). The `producer` field is
//! provenance only and is never validated, so artifacts exported by a
//! newer patch release still import cleanly.
//!
//! The body stores the request and the parts of the outcome that
//! determine the plan — kernel, retiming, allocation and movement
//! analysis — but not the plan's task and transfer instances: decode
//! rebuilds those from the decoded parts with the scheduler's own
//! emission, so an artifact is O(kernel) in size and cannot carry a
//! plan other than the one its parts prove.
//!
//! Decoding is strict and total: every failure is a typed
//! [`ArtifactError`]; hostile bytes can never panic or yield a plan
//! that skips the verifier gate.

use paraconv_graph::TaskGraph;
use paraconv_pim::PimConfig;
use paraconv_sched::{AllocationPolicy, ParaConvOutcome};
use serde_json::{Map, Value};

use crate::codec;
use crate::error::ArtifactError;
use crate::hash::sha256_hex;

/// Magic string identifying a Para-CONV plan artifact.
pub const MAGIC: &str = "paraconv-plan";

/// The single artifact format version this build reads and writes.
/// Format 2 dropped the stored plan expansion that format 1 carried.
pub const FORMAT_VERSION: u64 = 2;

/// The most task and transfer instances a decoded plan may expand to.
/// Decode rebuilds a plan from its kernel at O(u) cost whatever the
/// declared iteration count, but replaying or auditing the plan visits
/// every instance, so an artifact of a few KB must not be able to ask
/// for unbounded work. The largest benchmark at the default 50
/// iterations (protein, 99 750 instances) expands to under 3% of this.
pub const MAX_PLAN_INSTANCES: u64 = 1 << 22;

/// Producer tag written into exported headers (provenance only).
pub const PRODUCER: &str = concat!("paraconv ", env!("CARGO_PKG_VERSION"));

/// The request half of a plan: how the scheduler was asked to run.
/// Together with the graph and config it forms the registry key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanPolicy {
    /// Cache-allocation policy the scheduler used.
    pub allocation: AllocationPolicy,
    /// Number of logical iterations the plan covers.
    pub iterations: u64,
}

/// A complete, self-contained plan: the request (graph, config,
/// policy) plus the full scheduling outcome, which is everything
/// `paraconv-verify` needs to re-prove the plan without trusting the
/// producer. Encoding skips `outcome.plan`, which decoding derives
/// from the rest.
#[derive(Debug, Clone)]
pub struct PlanBundle {
    /// The task graph the plan executes.
    pub graph: TaskGraph,
    /// The PIM architecture the plan targets.
    pub config: PimConfig,
    /// The scheduling request parameters.
    pub policy: PlanPolicy,
    /// The scheduler's full outcome (plan, kernel, retiming,
    /// allocation, movement analysis); the plan is derived, not
    /// encoded.
    pub outcome: ParaConvOutcome,
}

/// Named sections reported by [`PlanBundle::diff_sections`].
const DIFF_SECTIONS: [&str; 7] = [
    "graph",
    "config",
    "policy",
    "outcome.kernel",
    "outcome.retiming",
    "outcome.allocation",
    "outcome.analysis",
];

/// The registry key of a plan request: SHA-256 of the canonical
/// encoding of `(graph, config, policy)`. Computable before any
/// scheduling work, which is what lets the CLI consult the registry
/// first and skip the scheduler on a hit.
#[must_use]
pub fn request_key(graph: &TaskGraph, config: &PimConfig, policy: &PlanPolicy) -> String {
    let mut obj = Map::new();
    obj.insert("config".into(), codec::config_to_value(config));
    obj.insert("graph".into(), codec::graph_to_value(graph));
    obj.insert("policy".into(), codec::policy_to_value(policy));
    sha256_hex(serde_json::to_string(&Value::Object(obj)).as_bytes())
}

impl PlanBundle {
    /// The registry key: SHA-256 of the canonical request encoding.
    /// Two exports of the same (graph, config, policy) always collide
    /// here — that is the content-addressing contract.
    #[must_use]
    pub fn key(&self) -> String {
        request_key(&self.graph, &self.config, &self.policy)
    }

    /// The canonical body value (alphabetical keys).
    #[must_use]
    fn body_value(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("config".into(), codec::config_to_value(&self.config));
        obj.insert("graph".into(), codec::graph_to_value(&self.graph));
        obj.insert("outcome".into(), codec::outcome_to_value(&self.outcome));
        obj.insert("policy".into(), codec::policy_to_value(&self.policy));
        Value::Object(obj)
    }

    /// Encodes the bundle as a complete artifact: header line + body
    /// line, each `\n`-terminated. Byte-deterministic: the same bundle
    /// always encodes to the same bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let body_line = serde_json::to_string(&self.body_value());
        let mut header = Map::new();
        header.insert(
            "content_hash".into(),
            Value::String(sha256_hex(body_line.as_bytes())),
        );
        header.insert(
            "format".into(),
            Value::Number(serde_json::Number::from_u64(FORMAT_VERSION)),
        );
        header.insert("key".into(), Value::String(self.key()));
        header.insert("magic".into(), Value::String(MAGIC.to_owned()));
        header.insert("producer".into(), Value::String(PRODUCER.to_owned()));
        let header_line = serde_json::to_string(&Value::Object(header));
        let mut out = Vec::with_capacity(header_line.len() + body_line.len() + 2);
        out.extend_from_slice(header_line.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(body_line.as_bytes());
        out.push(b'\n');
        out
    }

    /// Names the sections in which `self` and `other` differ (empty
    /// when the bundles encode identically). Sections follow the body
    /// schema: `graph`, `config`, `policy`, and the four encoded
    /// outcome components.
    #[must_use]
    pub fn diff_sections(&self, other: &PlanBundle) -> Vec<&'static str> {
        let sections = |bundle: &PlanBundle| -> [String; 7] {
            let outcome = codec::outcome_to_value(&bundle.outcome);
            let component = |key: &str| -> String {
                match outcome.as_object().and_then(|obj| obj.get(key)) {
                    Some(section) => serde_json::to_string(section),
                    None => String::new(),
                }
            };
            [
                serde_json::to_string(&codec::graph_to_value(&bundle.graph)),
                serde_json::to_string(&codec::config_to_value(&bundle.config)),
                serde_json::to_string(&codec::policy_to_value(&bundle.policy)),
                component("kernel"),
                component("retiming"),
                component("allocation"),
                component("analysis"),
            ]
        };
        let a = sections(self);
        let b = sections(other);
        DIFF_SECTIONS
            .iter()
            .zip(a.iter().zip(b.iter()))
            .filter(|(_, (a, b))| a != b)
            .map(|(name, _)| *name)
            .collect()
    }
}

/// The schema-checked artifact header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactHeader {
    /// Format version recorded by the producer (always
    /// [`FORMAT_VERSION`] after a successful decode).
    pub format: u64,
    /// Producer tag (provenance only, never validated).
    pub producer: String,
    /// SHA-256 of the body line, re-verified on decode.
    pub content_hash: String,
    /// Registry key — SHA-256 of the canonical request, re-verified on
    /// decode against the rebuilt bundle.
    pub key: String,
}

/// A decoded, hash-verified artifact.
#[derive(Debug, Clone)]
pub struct PlanArtifact {
    /// The validated header.
    pub header: ArtifactHeader,
    /// The rebuilt plan bundle.
    pub bundle: PlanBundle,
}

/// Cheap integrity check over raw artifact bytes: line structure,
/// header JSON (magic, version) and the body `content_hash` — but not
/// the body codec or the registry-key recompute, so it costs one JSON
/// parse of the short header plus one SHA-256 pass over the body.
///
/// This is the defense-in-depth gate [`Registry::get`] runs on every
/// read: bit rot anywhere in a stored object surfaces as a typed
/// [`ArtifactError::HashMismatch`] instead of being served.
///
/// [`Registry::get`]: crate::Registry::get
///
/// # Errors
///
/// Returns the same typed errors as [`decode`] for the validation
/// stages it runs; never panics on hostile bytes.
pub fn verify_artifact_bytes(bytes: &[u8]) -> Result<(), ArtifactError> {
    let (header, body_line) = split_artifact(bytes)?;
    let computed = sha256_hex(body_line.as_bytes());
    if computed != header.content_hash {
        return Err(ArtifactError::HashMismatch {
            field: "content_hash",
            recorded: header.content_hash,
            computed,
        });
    }
    Ok(())
}

/// Splits raw bytes into a validated [`ArtifactHeader`] and the body
/// line (without its trailing newline). Shared by [`decode`] and
/// [`verify_artifact_bytes`]; checks UTF-8, two-line structure, header
/// JSON, magic and format version — not the body hash.
fn split_artifact(bytes: &[u8]) -> Result<(ArtifactHeader, &str), ArtifactError> {
    let text = core::str::from_utf8(bytes)
        .map_err(|_| ArtifactError::schema("artifact", "not valid UTF-8"))?;
    if text.is_empty() {
        return Err(ArtifactError::Truncated {
            detail: "empty file",
        });
    }
    let Some((header_line, rest)) = text.split_once('\n') else {
        return Err(ArtifactError::Truncated {
            detail: "missing body line (no newline after header)",
        });
    };
    if rest.is_empty() {
        return Err(ArtifactError::Truncated {
            detail: "missing body line",
        });
    }
    let Some(body_line) = rest.strip_suffix('\n') else {
        return Err(ArtifactError::Truncated {
            detail: "body line not newline-terminated",
        });
    };
    if body_line.contains('\n') || body_line.is_empty() {
        return Err(ArtifactError::schema(
            "artifact",
            "expected exactly two lines: header and body",
        ));
    }

    // Header: parse, then check magic before anything else so foreign
    // files get the clearest rejection.
    let header_value = serde_json::from_str(header_line).map_err(|e| {
        ArtifactError::schema(
            "header",
            format!("invalid JSON at byte {}: {e}", e.offset()),
        )
    })?;
    let header_obj = header_value
        .as_object()
        .ok_or_else(|| ArtifactError::schema("header", "expected an object"))?;
    let magic = codec::str_field(header_obj, "header", "magic")?;
    if magic != MAGIC {
        return Err(ArtifactError::schema(
            "header.magic",
            format!("expected `{MAGIC}`, found `{magic}`"),
        ));
    }
    let format = codec::u64_field(header_obj, "header", "format")?;
    if format != FORMAT_VERSION {
        return Err(ArtifactError::VersionSkew {
            found: format,
            supported: FORMAT_VERSION,
        });
    }
    let producer = codec::str_field(header_obj, "header", "producer")?.to_owned();
    let content_hash = codec::str_field(header_obj, "header", "content_hash")?.to_owned();
    let key = codec::str_field(header_obj, "header", "key")?.to_owned();
    Ok((
        ArtifactHeader {
            format,
            producer,
            content_hash,
            key,
        },
        body_line,
    ))
}

/// Decodes and validates an artifact from raw bytes.
///
/// Validation runs outside-in, cheapest first, so tampering is caught
/// before any expensive work: UTF-8 → line structure → header JSON →
/// magic → format version → body `content_hash` → body codec (which
/// refuses a `policy.iterations` that would expand past
/// [`MAX_PLAN_INSTANCES`], then rebuilds the plan from the decoded
/// kernel, retiming and allocation) → registry-key recompute. The
/// `producer` field is not validated.
///
/// # Errors
///
/// Every malformed input maps to a typed [`ArtifactError`]; this
/// function never panics, regardless of input.
pub fn decode(bytes: &[u8]) -> Result<PlanArtifact, ArtifactError> {
    let (header, body_line) = split_artifact(bytes)?;
    let ArtifactHeader {
        format,
        producer,
        content_hash,
        key,
    } = header;

    // Body integrity before body parsing: a flipped byte anywhere in
    // the body line is a hash mismatch, not a confusing codec error.
    let computed = sha256_hex(body_line.as_bytes());
    if computed != content_hash {
        return Err(ArtifactError::HashMismatch {
            field: "content_hash",
            recorded: content_hash,
            computed,
        });
    }

    let body_value = serde_json::from_str(body_line).map_err(|e| {
        ArtifactError::schema("body", format!("invalid JSON at byte {}: {e}", e.offset()))
    })?;
    let body_obj = body_value
        .as_object()
        .ok_or_else(|| ArtifactError::schema("body", "expected an object"))?;
    for field in ["config", "graph", "outcome", "policy"] {
        if !body_obj.contains_key(field) {
            return Err(ArtifactError::schema(
                format!("body.{field}"),
                "missing field",
            ));
        }
    }
    for key in body_obj.keys() {
        if !["config", "graph", "outcome", "policy"].contains(&key.as_str()) {
            return Err(ArtifactError::schema(
                format!("body.{key}"),
                "unknown field",
            ));
        }
    }
    // lint: allow(no-unwrap) — presence checked just above.
    let graph = codec::graph_from_value(body_obj.get("graph").unwrap(), "body.graph")?;
    // lint: allow(no-unwrap) — presence checked just above.
    let config = codec::config_from_value(body_obj.get("config").unwrap(), "body.config")?;
    // lint: allow(no-unwrap) — presence checked just above.
    let policy = codec::policy_from_value(body_obj.get("policy").unwrap(), "body.policy")?;
    // Even an empty iteration costs replay a step.
    let per_iteration = (graph.node_count() + graph.edge_count()).max(1) as u64;
    if policy
        .iterations
        .checked_mul(per_iteration)
        .is_none_or(|instances| instances > MAX_PLAN_INSTANCES)
    {
        return Err(ArtifactError::schema(
            "body.policy.iterations",
            format!(
                "{} iterations of {per_iteration} instances each exceed the \
                 {MAX_PLAN_INSTANCES}-instance plan limit",
                policy.iterations
            ),
        ));
    }
    let outcome = codec::outcome_from_value(
        // lint: allow(no-unwrap) — presence checked just above.
        body_obj.get("outcome").unwrap(),
        "body.outcome",
        &graph,
        &config,
        policy.iterations,
    )?;
    let bundle = PlanBundle {
        graph,
        config,
        policy,
        outcome,
    };

    // The recorded key must match the request we just rebuilt —
    // otherwise the registry would file this plan under a lie.
    let computed_key = bundle.key();
    if computed_key != key {
        return Err(ArtifactError::HashMismatch {
            field: "key",
            recorded: key,
            computed: computed_key,
        });
    }

    Ok(PlanArtifact {
        header: ArtifactHeader {
            format,
            producer,
            content_hash,
            key,
        },
        bundle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::examples;
    use paraconv_sched::ParaConvScheduler;

    fn bundle() -> PlanBundle {
        let graph = examples::motivational();
        // lint: allow(no-unwrap) — test fixture with known-good inputs.
        let config = PimConfig::neurocube(4).unwrap();
        // lint: allow(no-unwrap) — test fixture with known-good inputs.
        let outcome = ParaConvScheduler::new(config.clone())
            .schedule(&graph, 6)
            .unwrap();
        PlanBundle {
            graph,
            config,
            policy: PlanPolicy {
                allocation: AllocationPolicy::DynamicProgram,
                iterations: 6,
            },
            outcome,
        }
    }

    #[test]
    fn encode_decode_reencode_is_byte_identical() {
        let bundle = bundle();
        let bytes = bundle.encode();
        let artifact = decode(&bytes).unwrap();
        assert_eq!(artifact.header.format, FORMAT_VERSION);
        assert_eq!(artifact.header.producer, PRODUCER);
        assert_eq!(artifact.bundle.encode(), bytes);
        assert_eq!(artifact.header.key, bundle.key());
    }

    /// An allocation that caches nothing, unlike the fixture's.
    fn empty_allocation() -> paraconv_alloc::CacheAllocation {
        paraconv_alloc::CacheAllocation::from_parts(Vec::new(), Vec::new(), 0, 0, 0)
    }

    #[test]
    fn key_ignores_outcome() {
        let bundle = bundle();
        let mut other = bundle.clone();
        other.outcome.allocation = empty_allocation();
        assert_eq!(bundle.key(), other.key());
        assert_ne!(bundle.encode(), other.encode());
    }

    #[test]
    fn plan_is_derived_not_encoded() {
        // The plan instances are not part of the bytes: replacing them
        // changes nothing, and decoding rebuilds the scheduler's plan.
        let bundle = bundle();
        let mut other = bundle.clone();
        other.outcome.plan = paraconv_pim::ExecutionPlan::new(999);
        assert_eq!(bundle.encode(), other.encode());
        let decoded = decode(&other.encode()).unwrap().bundle;
        assert_eq!(decoded.outcome.plan, bundle.outcome.plan);
    }

    #[test]
    fn wrong_magic_is_schema_mismatch() {
        let bundle = bundle();
        let bytes = bundle.encode();
        let text = String::from_utf8(bytes).unwrap();
        let text = text.replacen("paraconv-plan", "paraconv-elan", 1);
        let err = decode(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }), "{err}");
    }

    #[test]
    fn old_and_future_versions_are_version_skew() {
        let bundle = bundle();
        let text = String::from_utf8(bundle.encode()).unwrap();
        for found in [1, 99] {
            let skewed = text.replacen("\"format\":2", &format!("\"format\":{found}"), 1);
            let err = decode(skewed.as_bytes()).unwrap_err();
            assert!(
                matches!(err, ArtifactError::VersionSkew { found: f, supported: 2 } if f == found),
                "{err}"
            );
        }
    }

    #[test]
    fn flipped_body_byte_is_hash_mismatch() {
        let bundle = bundle();
        let mut bytes = bundle.encode();
        let body_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        // Flip a digit deep in the body without breaking UTF-8.
        let target = bytes[body_start..]
            .iter()
            .position(|&b| b.is_ascii_digit())
            .unwrap()
            + body_start;
        bytes[target] = if bytes[target] == b'0' { b'1' } else { b'0' };
        let err = decode(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::HashMismatch {
                    field: "content_hash",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn truncations_are_typed() {
        let bundle = bundle();
        let bytes = bundle.encode();
        assert!(matches!(
            decode(&[]).unwrap_err(),
            ArtifactError::Truncated { .. }
        ));
        let header_only = &bytes[..bytes.iter().position(|&b| b == b'\n').unwrap()];
        assert!(matches!(
            decode(header_only).unwrap_err(),
            ArtifactError::Truncated { .. }
        ));
        assert!(matches!(
            decode(&bytes[..bytes.len() - 1]).unwrap_err(),
            ArtifactError::Truncated { .. }
        ));
    }

    #[test]
    fn non_utf8_is_schema_mismatch() {
        let err = decode(&[0xff, 0xfe, 0x00, b'\n', b'x', b'\n']).unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }));
    }

    #[test]
    fn diff_sections_localizes_changes() {
        let a = bundle();
        let mut b = a.clone();
        assert!(a.diff_sections(&b).is_empty());
        b.policy.iterations += 1;
        assert_eq!(a.diff_sections(&b), vec!["policy"]);
        let mut c = a.clone();
        c.outcome.allocation = empty_allocation();
        assert_eq!(a.diff_sections(&c), vec!["outcome.allocation"]);
    }
}
