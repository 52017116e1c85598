//! The `mcr-req v1` / `mcr-resp v1` wire protocol.
//!
//! One frame ([`crate::frame`]) carries one JSON object. Requests:
//!
//! ```json
//! {"schema":"mcr-req v1","id":1,"op":"solve",
//!  "graph":"p edge 3 3\n...","algorithm":"howard-exact",
//!  "objective":"ratio","maximize":false,"epsilon":1e-6,
//!  "deadline_ms":250,"budget":"iters=400,time=200ms",
//!  "fallback":"karp,burns-exact","threads":1}
//! ```
//!
//! `op` is one of `solve`, `edit`, `ping`, `metrics`, `shutdown`. A
//! solve request names its graph either inline (`graph`, DIMACS text)
//! or by content hash (`graph_hash`, 16 lowercase hex digits of the
//! FNV-1a hash of the exact DIMACS text) to hit the daemon's cache
//! without re-sending the instance. Unknown keys are ignored (forward
//! compatibility); unknown values of known keys are typed input errors.
//!
//! An `edit` request mutates a cached instance in place and re-answers
//! incrementally from the daemon's [`mcr_core::DynamicSolver`] — no
//! re-parse, no re-send. Its `edits` array carries `mcr-edits v1` edit
//! objects (`op` one of `insert`/`delete`/`reweight`/`retime` plus the
//! op's scalar fields; see `schemas/mcr-edits-v1.txt`):
//!
//! ```json
//! {"schema":"mcr-req v1","id":2,"op":"edit",
//!  "graph_hash":"1234567890abcdef","algorithm":"howard-exact",
//!  "edits":[{"op":"reweight","arc":0,"weight":9},
//!           {"op":"insert","src":1,"dst":0,"weight":3,"transit":1}]}
//! ```
//!
//! After an `edit` settles, the hash names the *mutated* instance: it
//! is a handle to an evolving graph, not a digest of its current text.
//!
//! Responses echo the request `id` — the daemon may interleave
//! responses from concurrent workers in any order, so clients MUST
//! match on `id`, not arrival order:
//!
//! ```json
//! {"schema":"mcr-resp v1","id":1,"status":"ok","code":0,
//!  "graph_hash":"1234567890abcdef","acyclic":false,
//!  "lambda":"7/2","lambda_f64":3.5,"guarantee":"exact",
//!  "solved_by":"Howard-exact","cycle":[0,2,5]}
//! ```
//!
//! `status`/`code` mirror [`SolveStatus`] and the CLI exit taxonomy
//! exactly — a request that would exit the one-shot CLI with code 2
//! produces `"status":"budget-exhausted","code":2` here. Failure
//! responses carry `error` (human-readable) and, when the condition is
//! load shedding, `retry_after_ms`.

// Everything here parses bytes off a socket; reject, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::json::{self, ObjWriter, Value};
use mcr_core::spec::{parse_budget_spec, parse_fallback_spec};
use mcr_core::{
    Algorithm, Budget, DynamicOutcome, Edit, FallbackChain, Guarantee, Objective, Solution,
    SolveSpec, SolveStatus,
};

/// Schema tag every request must carry.
pub const REQ_SCHEMA: &str = "mcr-req v1";
/// Schema tag every response carries.
pub const RESP_SCHEMA: &str = "mcr-resp v1";

/// Most worker threads a single request may ask for: a service must
/// not let one request commandeer the whole box.
pub const MAX_REQUEST_THREADS: usize = 8;

/// A parsed, validated request.
#[derive(Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// What to do.
    pub op: Op,
}

/// The operations of `mcr-req v1`.
#[derive(Debug)]
pub enum Op {
    /// Solve a cycle mean / cycle ratio instance.
    Solve(Box<SolveJob>),
    /// Mutate a cached instance and re-answer incrementally.
    Edit(Box<EditJob>),
    /// Liveness probe.
    Ping,
    /// Dump the daemon's `mcr-metrics v1` counters.
    Metrics,
    /// Ask the daemon to stop accepting work and exit.
    Shutdown,
}

/// A fully validated solve request, ready for the worker pool.
#[derive(Debug, Clone)]
pub struct SolveJob {
    /// Algorithm, objective, orientation.
    pub spec: SolveSpec,
    /// Inline DIMACS text, if the client sent the instance.
    pub graph_text: Option<String>,
    /// Content hash, if the client referenced a cached instance (also
    /// cross-checked against `graph_text` when both are present).
    pub graph_hash: Option<u64>,
    /// Precision override for the approximate algorithms.
    pub epsilon: Option<f64>,
    /// Relative deadline, measured from *admission* (not dequeue): the
    /// worker converts it to one absolute [`std::time::Instant`].
    pub deadline_ms: Option<u64>,
    /// Work limits, parsed from the CLI's `--budget` mini-language.
    pub budget: Option<Budget>,
    /// Fallback override, parsed from the CLI's `--fallback` spec.
    pub fallback: Option<FallbackChain>,
    /// Intra-solve threads, clamped to `1..=`[`MAX_REQUEST_THREADS`].
    pub threads: usize,
    /// Set by a client re-sending after a possibly-delivered write: ask
    /// the daemon to suppress a duplicate solve by answering from the
    /// journal when this id already settled.
    pub dedup: bool,
}

/// A fully validated `edit` request: an edit batch against a cached
/// (or inline-seeded) instance, answered by the daemon's persistent
/// [`mcr_core::DynamicSolver`] for that instance.
#[derive(Debug, Clone)]
pub struct EditJob {
    /// Algorithm, objective, orientation the incremental answer is for.
    pub spec: SolveSpec,
    /// Inline DIMACS text, to seed the cache when the instance is new.
    pub graph_text: Option<String>,
    /// Content hash naming the instance to mutate.
    pub graph_hash: Option<u64>,
    /// Precision override for the approximate algorithms.
    pub epsilon: Option<f64>,
    /// Intra-solve threads, clamped to `1..=`[`MAX_REQUEST_THREADS`].
    pub threads: usize,
    /// The edit batch, applied atomically (all or none).
    pub edits: Vec<Edit>,
}

/// Why a request was rejected at parse time. Carries whatever `id`
/// could be salvaged so the rejection can still be correlated.
#[derive(Debug)]
pub struct RequestError {
    /// The request's `id` if it parsed, else 0.
    pub id: u64,
    /// What was wrong.
    pub message: String,
}

fn fail(id: u64, message: impl Into<String>) -> RequestError {
    RequestError {
        id,
        message: message.into(),
    }
}

fn not_utf8(e: std::str::Utf8Error) -> RequestError {
    fail(0, format!("request is not UTF-8: {e}"))
}

/// Parses and validates one request frame.
pub fn parse_request(payload: &[u8]) -> Result<Request, RequestError> {
    parse_request_text(std::str::from_utf8(payload).map_err(not_utf8)?)
}

/// Takes ownership of a frame's payload as text, failing exactly as
/// [`parse_request`] does on bytes that are not UTF-8. The daemon
/// validates each frame once here and then parses and journals the
/// same `String`.
pub fn request_text(payload: Vec<u8>) -> Result<String, RequestError> {
    String::from_utf8(payload).map_err(|e| not_utf8(e.utf8_error()))
}

/// Parses and validates one request already known to be UTF-8.
pub fn parse_request_text(text: &str) -> Result<Request, RequestError> {
    let mut obj = json::parse(text).map_err(|e| fail(0, format!("request is not JSON: {e}")))?;
    if !matches!(obj, Value::Obj(_)) {
        return Err(fail(0, "request must be a JSON object"));
    }
    // Salvage the id first so every later rejection is correlatable.
    let id = obj.get("id").and_then(Value::as_u64).unwrap_or(0);
    match obj.get("schema").and_then(Value::as_str) {
        Some(REQ_SCHEMA) => {}
        Some(other) => return Err(fail(id, format!("unsupported schema {other:?}"))),
        None => return Err(fail(id, format!("missing schema (expected {REQ_SCHEMA:?})"))),
    }
    if obj.get("id").and_then(Value::as_u64).is_none() {
        return Err(fail(0, "missing or non-integer id"));
    }
    let op = match obj.get("op").and_then(Value::as_str) {
        Some("solve") => Op::Solve(Box::new(parse_solve(id, &mut obj)?)),
        Some("edit") => Op::Edit(Box::new(parse_edit(id, &mut obj)?)),
        Some("ping") => Op::Ping,
        Some("metrics") => Op::Metrics,
        Some("shutdown") => Op::Shutdown,
        Some(other) => return Err(fail(id, format!("unknown op {other:?}"))),
        None => return Err(fail(id, "missing op")),
    };
    Ok(Request { id, op })
}

/// Parses the `algorithm`/`objective`/`maximize` triple shared by the
/// `solve` and `edit` ops.
fn parse_spec(id: u64, obj: &Value) -> Result<SolveSpec, RequestError> {
    let algorithm = match obj.get("algorithm").and_then(Value::as_str) {
        None => Algorithm::HowardExact,
        Some(name) => Algorithm::by_name(name)
            .ok_or_else(|| fail(id, format!("unknown algorithm {name:?}")))?,
    };
    let objective = match obj.get("objective").and_then(Value::as_str) {
        None => Objective::Mean,
        Some(name) => Objective::by_name(name)
            .ok_or_else(|| fail(id, format!("unknown objective {name:?} (mean|ratio)")))?,
    };
    let maximize = obj.get("maximize").and_then(Value::as_bool).unwrap_or(false);
    let mut spec = match objective {
        Objective::Mean => SolveSpec::mean(algorithm),
        Objective::Ratio => SolveSpec::ratio(algorithm),
    };
    if maximize {
        spec = spec.maximize();
    }
    Ok(spec)
}

/// Parses the `graph`/`graph_hash` pair shared by `solve` and `edit`.
/// The graph text is moved out of `obj`, not copied: it is most of the
/// payload, and nothing reads it from the object again.
fn parse_instance(
    id: u64,
    obj: &mut Value,
    what: &str,
) -> Result<(Option<String>, Option<u64>), RequestError> {
    let graph_text = obj.take_str("graph");
    let graph_hash = match obj.get("graph_hash").and_then(Value::as_str) {
        None => None,
        Some(hex) => Some(
            parse_hash(hex).ok_or_else(|| fail(id, format!("malformed graph_hash {hex:?}")))?,
        ),
    };
    if graph_text.is_none() && graph_hash.is_none() {
        return Err(fail(id, format!("{what} request needs graph or graph_hash")));
    }
    Ok((graph_text, graph_hash))
}

fn parse_solve(id: u64, obj: &mut Value) -> Result<SolveJob, RequestError> {
    let spec = parse_spec(id, obj)?;
    let (graph_text, graph_hash) = parse_instance(id, obj, "solve")?;
    let epsilon = obj.get("epsilon").and_then(Value::as_f64);
    let deadline_ms = obj.get("deadline_ms").and_then(Value::as_u64);
    let budget = match obj.get("budget").and_then(Value::as_str) {
        None => None,
        Some(spec) => {
            Some(parse_budget_spec(spec).map_err(|e| fail(id, format!("bad budget: {e}")))?)
        }
    };
    let fallback = match obj.get("fallback").and_then(Value::as_str) {
        None => None,
        Some(spec) => {
            Some(parse_fallback_spec(spec).map_err(|e| fail(id, format!("bad fallback: {e}")))?)
        }
    };
    let threads = obj
        .get("threads")
        .and_then(Value::as_u64)
        .map(|t| (t as usize).clamp(1, MAX_REQUEST_THREADS))
        .unwrap_or(1);
    let dedup = obj.get("dedup").and_then(Value::as_bool).unwrap_or(false);
    Ok(SolveJob {
        spec,
        graph_text,
        graph_hash,
        epsilon,
        deadline_ms,
        budget,
        fallback,
        threads,
        dedup,
    })
}

/// JSON integers arrive as [`Value::Num`]; accept exactly those that
/// are whole and fit `i64` (weights may be negative on the wire).
fn as_i64(v: &Value) -> Option<i64> {
    match v.as_f64() {
        Some(n) if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&n) => {
            Some(n as i64)
        }
        _ => None,
    }
}

fn parse_one_edit(id: u64, idx: usize, v: &Value) -> Result<Edit, RequestError> {
    let num = |key: &'static str| {
        v.get(key)
            .and_then(as_i64)
            .ok_or_else(|| fail(id, format!("edit {idx}: missing or non-integer {key:?}")))
    };
    let index = |key: &'static str| {
        num(key).and_then(|n| {
            usize::try_from(n).map_err(|_| fail(id, format!("edit {idx}: negative {key:?}")))
        })
    };
    match v.get("op").and_then(Value::as_str) {
        Some("insert") => Ok(Edit::InsertArc {
            src: index("src")?,
            dst: index("dst")?,
            weight: num("weight")?,
            transit: num("transit")?,
        }),
        Some("delete") => Ok(Edit::DeleteArc { arc: index("arc")? }),
        Some("reweight") => Ok(Edit::Reweight {
            arc: index("arc")?,
            weight: num("weight")?,
        }),
        Some("retime") => Ok(Edit::Retime {
            arc: index("arc")?,
            transit: num("transit")?,
        }),
        Some(other) => Err(fail(id, format!("edit {idx}: unknown op {other:?}"))),
        None => Err(fail(id, format!("edit {idx}: missing op"))),
    }
}

fn parse_edit(id: u64, obj: &mut Value) -> Result<EditJob, RequestError> {
    let spec = parse_spec(id, obj)?;
    let (graph_text, graph_hash) = parse_instance(id, obj, "edit")?;
    let epsilon = obj.get("epsilon").and_then(Value::as_f64);
    let threads = obj
        .get("threads")
        .and_then(Value::as_u64)
        .map(|t| (t as usize).clamp(1, MAX_REQUEST_THREADS))
        .unwrap_or(1);
    let edits = match obj.get("edits") {
        None => Vec::new(),
        Some(Value::Arr(items)) => items
            .iter()
            .enumerate()
            .map(|(idx, v)| parse_one_edit(id, idx, v))
            .collect::<Result<Vec<Edit>, RequestError>>()?,
        Some(_) => return Err(fail(id, "edits must be an array of edit objects")),
    };
    Ok(EditJob {
        spec,
        graph_text,
        graph_hash,
        epsilon,
        threads,
        edits,
    })
}

/// Renders a hash the way the wire expects it: 16 lowercase hex digits.
pub fn format_hash(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses a wire-format hash.
pub fn parse_hash(hex: &str) -> Option<u64> {
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn resp_base(id: u64, status: SolveStatus) -> ObjWriter {
    ObjWriter::new()
        .str("schema", RESP_SCHEMA)
        .u64("id", id)
        .str("status", status.wire_name())
        .u64("code", u64::from(status.code()))
}

/// Success response for a solved instance.
pub fn resp_solution(id: u64, graph_hash: Option<u64>, sol: &Solution) -> String {
    let mut w = resp_base(id, SolveStatus::Ok);
    if let Some(h) = graph_hash {
        w = w.str("graph_hash", &format_hash(h));
    }
    w = w
        .bool("acyclic", false)
        .str("lambda", &sol.lambda.to_string())
        .f64("lambda_f64", sol.lambda.to_f64());
    w = match sol.guarantee {
        Guarantee::Exact => w.str("guarantee", "exact"),
        Guarantee::Epsilon(e) => w.str("guarantee", "epsilon").f64("epsilon", e),
    };
    let cycle: Vec<String> = sol.cycle.iter().map(|a| a.index().to_string()).collect();
    w.str("solved_by", sol.solved_by.name())
        .raw("cycle", &format!("[{}]", cycle.join(",")))
        .finish()
}

/// Success response for an `edit` op: the incremental answer for the
/// mutated instance, plus `mode` (`"incremental"`/`"full"`) reporting
/// whether the daemon's [`mcr_core::DynamicSolver`] answered from its
/// component cache or fell back to a from-scratch solve.
pub fn resp_edit(id: u64, graph_hash: Option<u64>, outcome: &DynamicOutcome) -> String {
    let mut w = resp_base(id, SolveStatus::Ok);
    if let Some(h) = graph_hash {
        w = w.str("graph_hash", &format_hash(h));
    }
    w = w.str("mode", outcome.mode.name());
    match &outcome.solution {
        None => w.bool("acyclic", true).finish(),
        Some(sol) => {
            w = w
                .bool("acyclic", false)
                .str("lambda", &sol.lambda.to_string())
                .f64("lambda_f64", sol.lambda.to_f64());
            w = match sol.guarantee {
                Guarantee::Exact => w.str("guarantee", "exact"),
                Guarantee::Epsilon(e) => w.str("guarantee", "epsilon").f64("epsilon", e),
            };
            let cycle: Vec<String> = sol.cycle.iter().map(|a| a.index().to_string()).collect();
            w.str("solved_by", sol.solved_by.name())
                .raw("cycle", &format!("[{}]", cycle.join(",")))
                .finish()
        }
    }
}

/// Success response for an acyclic instance (no cycle mean exists).
pub fn resp_acyclic(id: u64, graph_hash: Option<u64>) -> String {
    let mut w = resp_base(id, SolveStatus::Ok);
    if let Some(h) = graph_hash {
        w = w.str("graph_hash", &format_hash(h));
    }
    w.bool("acyclic", true).finish()
}

/// Failure response; `retry_after_ms` is set for load shedding.
pub fn resp_error(
    id: u64,
    status: SolveStatus,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let mut w = resp_base(id, status)
        .str("error", message)
        .bool("retryable", status.is_retryable());
    if let Some(ms) = retry_after_ms {
        w = w.u64("retry_after_ms", ms);
    }
    w.finish()
}

/// Duplicate-suppressed response: the id already settled, so the
/// journaled outcome is replayed instead of re-solving. Carries
/// `"deduped":true` plus the recorded status and λ (when the original
/// solve produced one); it does not reconstruct the full solution body.
pub fn resp_deduped(id: u64, status: SolveStatus, lambda: Option<&str>) -> String {
    let mut w = resp_base(id, status).bool("deduped", true);
    if let Some(l) = lambda {
        w = w.str("lambda", l);
    }
    w.finish()
}

/// `ping` response.
pub fn resp_pong(id: u64) -> String {
    resp_base(id, SolveStatus::Ok).bool("pong", true).finish()
}

/// `metrics` response: the counter dump rides along as one string of
/// `mcr-metrics v1` JSONL.
pub fn resp_metrics(id: u64, metrics_jsonl: &str) -> String {
    resp_base(id, SolveStatus::Ok)
        .str("metrics", metrics_jsonl)
        .finish()
}

/// `shutdown` acknowledgment.
pub fn resp_shutdown(id: u64) -> String {
    resp_base(id, SolveStatus::Ok)
        .bool("shutting_down", true)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIANGLE: &str = "p mcr 3 3\na 1 2 1\na 2 3 2\na 3 1 3\n";

    fn req(body: &str) -> Result<Request, RequestError> {
        parse_request(body.as_bytes())
    }

    fn quoted(s: &str) -> String {
        format!("\"{}\"", json::escape(s))
    }

    #[test]
    fn solve_request_round_trips() {
        let graph = quoted(TRIANGLE);
        let r = req(&format!(
            "{{\"schema\":\"mcr-req v1\",\"id\":7,\"op\":\"solve\",\"graph\":{graph},\
             \"algorithm\":\"karp\",\"objective\":\"mean\",\"maximize\":true,\
             \"epsilon\":0.5,\"deadline_ms\":250,\"budget\":\"iters=40\",\
             \"fallback\":\"none\",\"threads\":3}}"
        ))
        .expect("parse");
        assert_eq!(r.id, 7);
        let Op::Solve(job) = r.op else {
            panic!("expected solve")
        };
        assert_eq!(job.spec.algorithm, Algorithm::Karp);
        assert_eq!(job.spec.objective, Objective::Mean);
        assert!(job.spec.maximize);
        assert_eq!(job.graph_text.as_deref(), Some(TRIANGLE));
        assert_eq!(job.epsilon, Some(0.5));
        assert_eq!(job.deadline_ms, Some(250));
        assert_eq!(job.budget.and_then(|b| b.max_iterations), Some(40));
        assert_eq!(job.threads, 3);
    }

    #[test]
    fn defaults_are_howard_exact_mean_minimize() {
        let graph = quoted(TRIANGLE);
        let r = req(&format!(
            "{{\"schema\":\"mcr-req v1\",\"id\":1,\"op\":\"solve\",\"graph\":{graph}}}"
        ))
        .expect("parse");
        let Op::Solve(job) = r.op else {
            panic!("expected solve")
        };
        assert_eq!(job.spec.algorithm, Algorithm::HowardExact);
        assert_eq!(job.spec.objective, Objective::Mean);
        assert!(!job.spec.maximize);
        assert_eq!(job.threads, 1);
    }

    #[test]
    fn rejections_keep_the_id_when_salvageable() {
        let e = req("{\"schema\":\"mcr-req v1\",\"id\":9,\"op\":\"solve\"}").expect_err("no graph");
        assert_eq!(e.id, 9);
        assert!(e.message.contains("graph"));
        let e = req("{\"schema\":\"mcr-req v1\",\"id\":9,\"op\":\"fry\"}").expect_err("bad op");
        assert!(e.message.contains("unknown op"));
        let e = req("{\"schema\":\"mcr-req v0\",\"id\":9,\"op\":\"ping\"}").expect_err("schema");
        assert!(e.message.contains("unsupported schema"));
        let e = req("not json at all").expect_err("json");
        assert_eq!(e.id, 0);
    }

    #[test]
    fn hashes_round_trip_and_reject_junk() {
        for h in [0u64, 1, u64::MAX, 0xdead_beef_0000_1234] {
            assert_eq!(parse_hash(&format_hash(h)), Some(h));
        }
        assert_eq!(parse_hash("123"), None);
        assert_eq!(parse_hash("zz345678zz345678"), None);
    }

    #[test]
    fn responses_parse_back_and_carry_the_taxonomy() {
        let text = resp_error(3, SolveStatus::Overloaded, "queue full", Some(50));
        let v = json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("overloaded"));
        assert_eq!(v.get("code").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_u64), Some(50));
        assert_eq!(v.get("retryable").and_then(Value::as_bool), Some(true));
        let text = resp_acyclic(4, Some(0xabc));
        let v = json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("acyclic").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("graph_hash").and_then(Value::as_str),
            Some("0000000000000abc")
        );
    }

    #[test]
    fn dedup_flag_parses_and_defaults_off() {
        let graph = quoted(TRIANGLE);
        let r = req(&format!(
            "{{\"schema\":\"mcr-req v1\",\"id\":1,\"op\":\"solve\",\"graph\":{graph},\"dedup\":true}}"
        ))
        .expect("parse");
        let Op::Solve(job) = r.op else {
            panic!("expected solve")
        };
        assert!(job.dedup);
        let r = req(&format!(
            "{{\"schema\":\"mcr-req v1\",\"id\":1,\"op\":\"solve\",\"graph\":{graph}}}"
        ))
        .expect("parse");
        let Op::Solve(job) = r.op else {
            panic!("expected solve")
        };
        assert!(!job.dedup);
    }

    #[test]
    fn deduped_responses_replay_the_settled_outcome() {
        let text = resp_deduped(6, SolveStatus::Ok, Some("7/2"));
        let v = json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("deduped").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(v.get("lambda").and_then(Value::as_str), Some("7/2"));
        let text = resp_deduped(7, SolveStatus::Cancelled, None);
        let v = json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("cancelled"));
        assert!(v.get("lambda").is_none());
    }

    #[test]
    fn edit_requests_parse_all_four_ops() {
        let graph = quoted(TRIANGLE);
        let r = req(&format!(
            "{{\"schema\":\"mcr-req v1\",\"id\":5,\"op\":\"edit\",\"graph\":{graph},\
             \"algorithm\":\"karp\",\"edits\":[\
             {{\"op\":\"reweight\",\"arc\":0,\"weight\":-9}},\
             {{\"op\":\"insert\",\"src\":1,\"dst\":0,\"weight\":3,\"transit\":2}},\
             {{\"op\":\"retime\",\"arc\":1,\"transit\":4}},\
             {{\"op\":\"delete\",\"arc\":2}}]}}"
        ))
        .expect("parse");
        let Op::Edit(job) = r.op else {
            panic!("expected edit")
        };
        assert_eq!(job.spec.algorithm, Algorithm::Karp);
        assert_eq!(
            job.edits,
            vec![
                Edit::Reweight { arc: 0, weight: -9 },
                Edit::InsertArc {
                    src: 1,
                    dst: 0,
                    weight: 3,
                    transit: 2
                },
                Edit::Retime { arc: 1, transit: 4 },
                Edit::DeleteArc { arc: 2 },
            ]
        );
    }

    #[test]
    fn edit_requests_reject_malformed_edits() {
        let graph = quoted(TRIANGLE);
        let e = req(&format!(
            "{{\"schema\":\"mcr-req v1\",\"id\":5,\"op\":\"edit\",\"graph\":{graph},\
             \"edits\":[{{\"op\":\"grow\"}}]}}"
        ))
        .expect_err("unknown edit op");
        assert!(e.message.contains("unknown op"), "{}", e.message);
        let e = req(&format!(
            "{{\"schema\":\"mcr-req v1\",\"id\":5,\"op\":\"edit\",\"graph\":{graph},\
             \"edits\":[{{\"op\":\"delete\",\"arc\":-1}}]}}"
        ))
        .expect_err("negative index");
        assert!(e.message.contains("negative"), "{}", e.message);
        let e = req("{\"schema\":\"mcr-req v1\",\"id\":5,\"op\":\"edit\",\"edits\":[]}")
            .expect_err("no instance");
        assert!(e.message.contains("graph"), "{}", e.message);
    }

    #[test]
    fn edit_responses_carry_the_mode() {
        use mcr_core::{DynamicOutcome, SolveMode};
        let outcome = DynamicOutcome {
            solution: None,
            mode: SolveMode::Incremental,
            cache_hits: 1,
            cache_misses: 0,
        };
        let text = resp_edit(8, Some(0xabc), &outcome);
        let v = json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("mode").and_then(Value::as_str), Some("incremental"));
        assert_eq!(v.get("acyclic").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    }

    #[test]
    fn threads_are_clamped_to_the_service_cap() {
        let graph = quoted(TRIANGLE);
        let r = req(&format!(
            "{{\"schema\":\"mcr-req v1\",\"id\":1,\"op\":\"solve\",\"graph\":{graph},\"threads\":999}}"
        ))
        .expect("parse");
        let Op::Solve(job) = r.op else {
            panic!("expected solve")
        };
        assert_eq!(job.threads, MAX_REQUEST_THREADS);
    }
}
