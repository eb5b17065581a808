//! Wire format of the serving layer: newline-delimited JSON requests
//! in, newline-delimited JSON responses out.
//!
//! One line is one request; one response line always answers it (a
//! `sweep` expands to one response per expanded job). The request
//! shape follows the atomix workload-generator convention of
//! kebab-case first-class scenario fields (`num-keys`,
//! `zipf-exponent`, `max-concurrency`) rather than a nested opaque
//! config blob, so operators can grep and template requests the same
//! way they template the generator's configs. `sharing-degree` is
//! accepted and echoed as a forward-looking scenario field (the
//! shared-cache sharing-degree axis of Yavits et al.,
//! arXiv:1602.01329) — validated, recorded in the response, not yet
//! an input of the underlying simulator.
//!
//! A `run` request may instead carry an inline `spec` object — a
//! declarative scenario spec ([`cmp_bench::spec`]) naming the whole
//! machine and workload (core count, organization, sharing mix,
//! sizing, stop rule). The spec shadows the flat per-field knobs, so
//! those are rejected alongside it, and validation errors inside the
//! object come back field-qualified as `spec.<key>`.
//!
//! Validation is strict and field-level: every rejection names the
//! offending key, the accepted shape, and the received value
//! ([`SimError::InvalidRequest`]), so a client can fix a request
//! from the error alone. Unknown keys are rejected rather than
//! ignored — a typoed `max-concurency` silently ignored would be a
//! debugging trap, not tolerance.

use std::time::Duration;

use cmp_bench::{Json, Pair, ScenarioSpec, WorkloadId, MIXES, MULTITHREADED};
use cmp_sim::{OrgKind, RunConfig, SimError, StopMetric, StopRule};

/// Hard ceiling on `max-concurrency` (beyond this a request is a
/// resource-exhaustion vector, not a tuning knob).
pub const MAX_CONCURRENCY_CEILING: usize = 64;

/// One validated simulation job: the unit the admission queue holds.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Client correlation id, echoed verbatim in every response to
    /// this job (`Json::Null` when the request carried none).
    pub id: Json,
    /// The (workload, organization) pair to simulate.
    pub pair: Pair,
    /// Run sizing for this job (request fields override the
    /// service's defaults).
    pub cfg: RunConfig,
    /// Per-request deadline; `None` defers to the service default.
    pub deadline: Option<Duration>,
    /// Worker-count cap for this job's batch; `None` uses the
    /// service's thread count.
    pub max_concurrency: Option<usize>,
    /// Validated scenario fields echoed into the result response
    /// (`num-keys`, `zipf-exponent`, `sharing-degree`).
    pub scenario: Vec<(String, Json)>,
}

/// A parsed, validated request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// `run` / `sweep`: simulation jobs to admit.
    Jobs(Vec<JobSpec>),
    /// `health`: liveness probe, answered immediately.
    Health(Json),
    /// `stats`: serving counters snapshot, answered immediately.
    Stats(Json),
    /// `drain`: graceful shutdown — queued jobs are shed with
    /// structured responses, journals are synced.
    Drain(Json),
}

fn invalid(field: &str, expected: impl Into<String>, got: impl Into<String>) -> SimError {
    SimError::InvalidRequest { field: field.into(), expected: expected.into(), got: got.into() }
}

/// Truncates a value for inclusion in an error response (a 64 KiB
/// garbage line must not come back as a 64 KiB error).
fn clip(s: &str) -> String {
    const MAX: usize = 80;
    if s.len() <= MAX {
        return s.to_string();
    }
    let mut end = MAX;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}...", &s[..end])
}

fn workload_catalog() -> String {
    let names: Vec<&str> = MULTITHREADED.iter().chain(MIXES.iter()).copied().collect();
    format!("one of {}", names.join("|"))
}

fn org_catalog() -> String {
    let names: Vec<&str> = OrgKind::ALL.iter().map(|k| k.name()).collect();
    format!("one of {}", names.join("|"))
}

/// The top-level request keys every `run`/`sweep` accepts.
const JOB_KEYS: [&str; 17] = [
    "type",
    "id",
    "workload",
    "workloads",
    "org",
    "orgs",
    "spec",
    "deadline-ms",
    "max-concurrency",
    "warmup-accesses",
    "measure-accesses",
    "seed",
    "num-keys",
    "approx",
    "confidence",
    "rel-half-width",
    "metric",
];
const SCENARIO_KEYS: [&str; 3] = ["num-keys", "zipf-exponent", "sharing-degree"];

fn known_key(key: &str) -> bool {
    JOB_KEYS.contains(&key) || SCENARIO_KEYS.contains(&key)
}

fn get_u64(obj: &Json, key: &str, min: u64, expected: &str) -> Result<Option<u64>, SimError> {
    match obj.get(key) {
        None => Ok(None),
        Some(Json::Num(n)) if n.fract() == 0.0 && *n >= min as f64 && *n <= (1u64 << 53) as f64 => {
            Ok(Some(*n as u64))
        }
        Some(other) => Err(invalid(key, expected, clip(&other.compact()))),
    }
}

/// Parses and validates one request line against the service's
/// default run configuration and line-size ceiling.
pub fn parse_line(
    line: &str,
    defaults: RunConfig,
    max_line_bytes: usize,
) -> Result<Request, SimError> {
    if line.len() > max_line_bytes {
        return Err(invalid(
            "request",
            format!("a request line of at most {max_line_bytes} bytes"),
            format!("{} bytes", line.len()),
        ));
    }
    let value = Json::parse(line)
        .map_err(|e| invalid("request", format!("a JSON object ({e})"), clip(line)))?;
    let Some(_) = value.fields() else {
        return Err(invalid("request", "a JSON object", clip(&value.compact())));
    };
    let id = value.get("id").cloned().unwrap_or(Json::Null);
    match value.get("type").and_then(|t| t.as_str()) {
        Some("run") | Some("sweep") => parse_jobs(&value, id, defaults),
        Some("health") => Ok(Request::Health(id)),
        Some("stats") => Ok(Request::Stats(id)),
        Some("drain") => Ok(Request::Drain(id)),
        Some(other) => Err(invalid("type", "one of run|sweep|health|stats|drain", clip(other))),
        None => Err(invalid(
            "type",
            "a string, one of run|sweep|health|stats|drain",
            clip(&value.get("type").map(|t| t.compact()).unwrap_or_else(|| "absent".into())),
        )),
    }
}

/// Parses the per-job admission limits shared by the catalog and
/// spec paths.
fn parse_limits(value: &Json) -> Result<(Option<Duration>, Option<usize>), SimError> {
    let deadline = get_u64(value, "deadline-ms", 1, "an integer >= 1 of milliseconds")?
        .map(Duration::from_millis);
    let max_concurrency = get_u64(
        value,
        "max-concurrency",
        1,
        &format!("an integer in 1..={MAX_CONCURRENCY_CEILING}"),
    )?
    .map(|n| n as usize);
    if let Some(n) = max_concurrency {
        if n > MAX_CONCURRENCY_CEILING {
            return Err(invalid(
                "max-concurrency",
                format!("an integer in 1..={MAX_CONCURRENCY_CEILING}"),
                n.to_string(),
            ));
        }
    }
    Ok((deadline, max_concurrency))
}

/// The spec path of a `run` request: the inline `spec` object defines
/// the whole scenario (machine, workload, sizing, stop rule), so the
/// flat per-field knobs are rejected alongside it rather than
/// silently shadowed. Validation errors inside the object come back
/// field-qualified as `spec.<key>`.
fn parse_spec_job(
    value: &Json,
    spec_val: &Json,
    id: Json,
    defaults: RunConfig,
) -> Result<Request, SimError> {
    const SHADOWED: [&str; 12] = [
        "workload",
        "workloads",
        "org",
        "orgs",
        "warmup-accesses",
        "measure-accesses",
        "seed",
        "approx",
        "confidence",
        "rel-half-width",
        "metric",
        "num-keys",
    ];
    for key in SHADOWED.iter().chain(SCENARIO_KEYS.iter()) {
        if value.get(key).is_some() {
            return Err(invalid(
                key,
                "no scenario or sizing fields alongside spec (the spec defines the whole scenario)",
                format!("{key} alongside spec"),
            ));
        }
    }
    if spec_val.fields().is_none() {
        return Err(invalid(
            "spec",
            "a JSON object (an inline scenario spec)",
            clip(&spec_val.compact()),
        ));
    }
    let spec = ScenarioSpec::from_json(spec_val).map_err(|e| match e {
        SimError::InvalidRequest { field, expected, got } => {
            SimError::InvalidRequest { field: format!("spec.{field}"), expected, got }
        }
        other => other,
    })?;
    let (deadline, max_concurrency) = parse_limits(value)?;
    // Pin the resolved sizing into the spec before interning: one
    // simulation gets one cache key however it was spelled, and the
    // key survives a round trip through `shard::request_line`.
    let spec = spec.pinned(spec.org, &defaults);
    let cfg = spec.run_config(&defaults);
    let org = spec.org;
    let interned = cmp_bench::spec::intern(&spec);
    let job = JobSpec {
        id,
        pair: (WorkloadId::Spec(interned), org),
        cfg,
        deadline,
        max_concurrency,
        // Echo the canonical form so the client sees exactly what
        // ran, defaults and sizing filled in.
        scenario: vec![("spec".to_string(), spec.to_json())],
    };
    Ok(Request::Jobs(vec![job]))
}

fn parse_jobs(value: &Json, id: Json, defaults: RunConfig) -> Result<Request, SimError> {
    let fields = value.fields().expect("checked by parse_line");
    if let Some((key, _)) = fields.iter().find(|(k, _)| !known_key(k)) {
        return Err(invalid(key, "a known request field (see DESIGN.md \"Serving\")", clip(key)));
    }
    let is_sweep = value.get("type").and_then(|t| t.as_str()) == Some("sweep");
    if let Some(spec_val) = value.get("spec") {
        if is_sweep {
            return Err(invalid(
                "spec",
                "a run request (a spec names one scenario; sweep an axis via spec files)",
                "spec inside a sweep",
            ));
        }
        return parse_spec_job(value, spec_val, id, defaults);
    }

    // Workload axis: `workload` (run) or `workloads` (sweep).
    let workloads: Vec<WorkloadId> = if is_sweep {
        let arr = match value.get("workloads") {
            Some(Json::Arr(items)) if !items.is_empty() => items,
            other => {
                let got = other.map(|v| clip(&v.compact())).unwrap_or_else(|| "absent".to_string());
                return Err(invalid("workloads", "a non-empty array of workload names", got));
            }
        };
        arr.iter()
            .map(|w| {
                let name = w
                    .as_str()
                    .ok_or_else(|| invalid("workloads", workload_catalog(), clip(&w.compact())))?;
                WorkloadId::from_catalog(name)
                    .ok_or_else(|| invalid("workloads", workload_catalog(), clip(name)))
            })
            .collect::<Result<_, _>>()?
    } else {
        let name = match value.get("workload") {
            Some(Json::Str(s)) => s.as_str(),
            other => {
                let got = other.map(|v| clip(&v.compact())).unwrap_or_else(|| "absent".to_string());
                return Err(invalid("workload", workload_catalog(), got));
            }
        };
        vec![WorkloadId::from_catalog(name)
            .ok_or_else(|| invalid("workload", workload_catalog(), clip(name)))?]
    };

    // Organization axis: `org` (run) or `orgs` (sweep).
    let orgs: Vec<OrgKind> = if is_sweep {
        let arr = match value.get("orgs") {
            Some(Json::Arr(items)) if !items.is_empty() => items,
            other => {
                let got = other.map(|v| clip(&v.compact())).unwrap_or_else(|| "absent".to_string());
                return Err(invalid("orgs", "a non-empty array of organization names", got));
            }
        };
        arr.iter()
            .map(|o| {
                let name =
                    o.as_str().ok_or_else(|| invalid("orgs", org_catalog(), clip(&o.compact())))?;
                OrgKind::from_name(name).ok_or_else(|| invalid("orgs", org_catalog(), clip(name)))
            })
            .collect::<Result<_, _>>()?
    } else {
        let name = match value.get("org") {
            Some(Json::Str(s)) => s.as_str(),
            other => {
                let got = other.map(|v| clip(&v.compact())).unwrap_or_else(|| "absent".to_string());
                return Err(invalid("org", org_catalog(), got));
            }
        };
        vec![OrgKind::from_name(name).ok_or_else(|| invalid("org", org_catalog(), clip(name)))?]
    };

    // Run sizing (request overrides the service defaults).
    let mut cfg = defaults;
    if let Some(w) = get_u64(value, "warmup-accesses", 0, "an integer number of accesses")? {
        cfg.warmup_accesses = w;
    }
    if let Some(m) = get_u64(value, "measure-accesses", 1, "an integer >= 1 of accesses")? {
        cfg.measure_accesses = m;
    }
    if let Some(s) = get_u64(value, "seed", 0, "an integer seed")? {
        cfg.seed = s;
    }
    cfg.stop = parse_stop_rule(value)?;

    let (deadline, max_concurrency) = parse_limits(value)?;

    // Scenario fields: validated, echoed, forward-looking.
    let mut scenario = Vec::new();
    if let Some(n) = get_u64(value, "num-keys", 1, "an integer >= 1 of keys")? {
        scenario.push(("num-keys".to_string(), Json::Num(n as f64)));
    }
    match value.get("zipf-exponent") {
        None => {}
        Some(Json::Num(theta)) if (0.0..=2.0).contains(theta) => {
            scenario.push(("zipf-exponent".to_string(), Json::Num(*theta)));
        }
        Some(other) => {
            return Err(invalid("zipf-exponent", "a number in 0.0..=2.0", clip(&other.compact())));
        }
    }
    if let Some(d) = get_u64(value, "sharing-degree", 1, "an integer >= 1 of sharer cores")? {
        if d > 16 {
            return Err(invalid("sharing-degree", "an integer in 1..=16", d.to_string()));
        }
        scenario.push(("sharing-degree".to_string(), Json::Num(d as f64)));
    }

    let mut jobs = Vec::with_capacity(workloads.len() * orgs.len());
    for &workload in &workloads {
        for &org in &orgs {
            jobs.push(JobSpec {
                id: id.clone(),
                pair: (workload, org),
                cfg,
                deadline,
                max_concurrency,
                scenario: scenario.clone(),
            });
        }
    }
    Ok(Request::Jobs(jobs))
}

/// Parses the approximate-mode fields into a stop rule. `approx:
/// true` opts a job into confidence-based early stopping (defaults:
/// miss-rate metric, ±2 % relative half-width, 95 % confidence); the
/// tuning fields are only meaningful alongside it, so their presence
/// without `approx: true` is rejected rather than silently ignored.
fn parse_stop_rule(value: &Json) -> Result<StopRule, SimError> {
    let approx = match value.get("approx") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(other) => return Err(invalid("approx", "a boolean", clip(&other.compact()))),
    };
    let confidence = match value.get("confidence") {
        None => None,
        Some(Json::Num(c)) if *c >= 0.5 && *c < 1.0 => Some(*c),
        Some(other) => {
            return Err(invalid(
                "confidence",
                "a number in 0.5..1.0 (1.0 exclusive: certainty needs the exact mode)",
                clip(&other.compact()),
            ));
        }
    };
    let rel_half_width = match value.get("rel-half-width") {
        None => None,
        Some(Json::Num(w)) if *w > 0.0 && *w <= 0.5 => Some(*w),
        Some(other) => {
            return Err(invalid(
                "rel-half-width",
                "a number in 0.0..=0.5 (exclusive of 0)",
                clip(&other.compact()),
            ));
        }
    };
    let metric = match value.get("metric") {
        None => None,
        Some(Json::Str(s)) => Some(
            StopMetric::from_name(s)
                .ok_or_else(|| invalid("metric", "one of miss-rate|ipc", clip(s)))?,
        ),
        Some(other) => {
            return Err(invalid("metric", "one of miss-rate|ipc", clip(&other.compact())))
        }
    };
    if !approx {
        for (key, present) in [
            ("confidence", confidence.is_some()),
            ("rel-half-width", rel_half_width.is_some()),
            ("metric", metric.is_some()),
        ] {
            if present {
                return Err(invalid(
                    key,
                    "\"approx\": true alongside approximate-mode tuning fields",
                    format!("{key} without approx"),
                ));
            }
        }
        return Ok(StopRule::Fixed);
    }
    Ok(StopRule::Confidence {
        metric: metric.unwrap_or(StopMetric::MissRate),
        rel_half_width: rel_half_width.unwrap_or(0.02),
        confidence: confidence.unwrap_or(0.95),
    })
}

/// Renders a [`SimError::InvalidRequest`] (or any other refusal) as
/// the wire error response.
pub fn error_response(id: &Json, err: &SimError) -> Json {
    let mut resp = Json::obj();
    resp.set("type", Json::Str("error".into()));
    resp.set("id", id.clone());
    match err {
        SimError::InvalidRequest { field, expected, got } => {
            resp.set("kind", Json::Str("invalid-request".into()));
            resp.set("field", Json::Str(field.clone()));
            resp.set("expected", Json::Str(expected.clone()));
            resp.set("got", Json::Str(got.clone()));
        }
        SimError::Shed { reason } => {
            resp.set("kind", Json::Str("shed".into()));
            resp.set("reason", Json::Str(reason.clone()));
        }
        SimError::DeadlineExpired { pair } => {
            resp.set("kind", Json::Str("deadline-expired".into()));
            resp.set("pair", Json::Str(pair.clone()));
        }
        other => {
            resp.set("kind", Json::Str("failed".into()));
            resp.set("error", Json::Str(other.to_string()));
        }
    }
    resp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> RunConfig {
        RunConfig::sized(200, 400, 7)
    }

    fn parse(line: &str) -> Result<Request, SimError> {
        parse_line(line, defaults(), 4096)
    }

    fn expect_invalid(line: &str) -> (String, String, String) {
        match parse(line) {
            Err(SimError::InvalidRequest { field, expected, got }) => (field, expected, got),
            other => panic!("expected InvalidRequest for {line:?}, got {other:?}"),
        }
    }

    #[test]
    fn run_request_fills_defaults_and_overrides() {
        let req = parse(
            r#"{"type":"run","id":"r1","workload":"oltp","org":"nurapid","seed":11,"deadline-ms":250,"max-concurrency":2}"#,
        )
        .unwrap();
        let Request::Jobs(jobs) = req else { panic!("expected jobs") };
        assert_eq!(jobs.len(), 1);
        let job = &jobs[0];
        assert_eq!(job.id, Json::Str("r1".into()));
        assert_eq!(job.pair.0.name(), "oltp");
        assert_eq!(job.pair.1, OrgKind::Nurapid);
        assert_eq!(job.cfg.seed, 11, "request seed overrides the default");
        assert_eq!(job.cfg.warmup_accesses, 200, "unset fields keep the default");
        assert_eq!(job.deadline, Some(Duration::from_millis(250)));
        assert_eq!(job.max_concurrency, Some(2));
    }

    #[test]
    fn sweep_request_expands_the_cross_product() {
        let req = parse(
            r#"{"type":"sweep","id":7,"workloads":["oltp","MIX1"],"orgs":["shared","private","nurapid"]}"#,
        )
        .unwrap();
        let Request::Jobs(jobs) = req else { panic!("expected jobs") };
        assert_eq!(jobs.len(), 6);
        assert!(jobs.iter().all(|j| j.id == Json::Num(7.0)));
        assert_eq!(jobs[0].pair.0.name(), "oltp");
        assert_eq!(jobs[5].pair.0.name(), "MIX1");
        assert_eq!(jobs[5].pair.1, OrgKind::Nurapid);
    }

    #[test]
    fn scenario_fields_are_validated_and_echoed() {
        let req = parse(
            r#"{"type":"run","workload":"ocean","org":"shared","num-keys":4096,"zipf-exponent":0.6,"sharing-degree":2}"#,
        )
        .unwrap();
        let Request::Jobs(jobs) = req else { panic!("expected jobs") };
        let keys: Vec<&str> = jobs[0].scenario.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["num-keys", "zipf-exponent", "sharing-degree"]);
    }

    /// Satellite: the table-driven malformed-spec suite. Every row is
    /// a wire line that must be rejected with field-level context.
    #[test]
    fn malformed_requests_name_the_offending_field() {
        // (line, expected offending field, fragment of the expected-shape text)
        let table: &[(&str, &str, &str)] = &[
            // Unknown organization.
            (r#"{"type":"run","workload":"oltp","org":"l4"}"#, "org", "nurapid-isc"),
            // Unknown workload.
            (r#"{"type":"run","workload":"tpch","org":"shared"}"#, "workload", "MIX4"),
            // Unknown org inside a sweep's array.
            (
                r#"{"type":"sweep","workloads":["oltp"],"orgs":["shared","l4"]}"#,
                "orgs",
                "one of shared",
            ),
            // Theta out of range.
            (
                r#"{"type":"run","workload":"oltp","org":"shared","zipf-exponent":3.5}"#,
                "zipf-exponent",
                "0.0..=2.0",
            ),
            // Theta of the wrong type.
            (
                r#"{"type":"run","workload":"oltp","org":"shared","zipf-exponent":"steep"}"#,
                "zipf-exponent",
                "0.0..=2.0",
            ),
            // Truncated JSON.
            (r#"{"type":"run","workload":"oltp"#, "request", "a JSON object"),
            // Not an object at all.
            (r#"[1,2,3]"#, "request", "a JSON object"),
            // Missing type.
            (r#"{"workload":"oltp","org":"shared"}"#, "type", "run|sweep"),
            // Unknown type.
            (r#"{"type":"explode"}"#, "type", "run|sweep"),
            // Unknown key (typo) is rejected, not ignored.
            (
                r#"{"type":"run","workload":"oltp","org":"shared","max-concurency":4}"#,
                "max-concurency",
                "known request field",
            ),
            // Zero-valued knobs that must be >= 1.
            (
                r#"{"type":"run","workload":"oltp","org":"shared","deadline-ms":0}"#,
                "deadline-ms",
                ">= 1",
            ),
            (
                r#"{"type":"run","workload":"oltp","org":"shared","max-concurrency":0}"#,
                "max-concurrency",
                "1..=",
            ),
            (
                r#"{"type":"run","workload":"oltp","org":"shared","measure-accesses":0}"#,
                "measure-accesses",
                ">= 1",
            ),
            // Fractional where an integer is required.
            (
                r#"{"type":"run","workload":"oltp","org":"shared","num-keys":2.5}"#,
                "num-keys",
                "integer",
            ),
            // Empty sweep axes.
            (r#"{"type":"sweep","workloads":[],"orgs":["shared"]}"#, "workloads", "non-empty"),
            (r#"{"type":"sweep","workloads":["oltp"],"orgs":[]}"#, "orgs", "non-empty"),
            // Approximate mode: out-of-range confidence values.
            (
                r#"{"type":"run","workload":"oltp","org":"shared","approx":true,"confidence":1.0}"#,
                "confidence",
                "0.5..1.0",
            ),
            (
                r#"{"type":"run","workload":"oltp","org":"shared","approx":true,"confidence":0.2}"#,
                "confidence",
                "0.5..1.0",
            ),
            (
                r#"{"type":"run","workload":"oltp","org":"shared","approx":true,"confidence":"high"}"#,
                "confidence",
                "0.5..1.0",
            ),
            // Approximate mode: bad half-width / metric / flag types.
            (
                r#"{"type":"run","workload":"oltp","org":"shared","approx":true,"rel-half-width":0.0}"#,
                "rel-half-width",
                "0.0..=0.5",
            ),
            (
                r#"{"type":"run","workload":"oltp","org":"shared","approx":true,"metric":"latency"}"#,
                "metric",
                "miss-rate|ipc",
            ),
            (
                r#"{"type":"run","workload":"oltp","org":"shared","approx":"yes"}"#,
                "approx",
                "boolean",
            ),
            // Tuning fields without the approx opt-in are rejected.
            (
                r#"{"type":"run","workload":"oltp","org":"shared","confidence":0.95}"#,
                "confidence",
                "\"approx\": true",
            ),
        ];
        for (line, field, fragment) in table {
            let (got_field, expected, _) = expect_invalid(line);
            assert_eq!(&got_field, field, "offending field for {line:?}");
            assert!(
                expected.contains(fragment),
                "expected-shape text for {line:?}: {expected:?} missing {fragment:?}"
            );
        }
    }

    #[test]
    fn spec_requests_lower_into_a_spec_job() {
        let req = parse(
            r#"{"type":"run","id":"s1","spec":{"name":"web8","cores":8,"base":"apache","org":"cnuca","measure-accesses":900},"deadline-ms":250}"#,
        )
        .unwrap();
        let Request::Jobs(jobs) = req else { panic!("expected jobs") };
        assert_eq!(jobs.len(), 1);
        let job = &jobs[0];
        assert_eq!(job.pair.0.name(), "web8");
        assert_eq!(job.pair.1, OrgKind::Cnuca, "org comes from the spec");
        assert_eq!(job.cfg.measure_accesses, 900, "spec sizing overrides the default");
        assert_eq!(job.cfg.warmup_accesses, 200, "unset sizing keeps the service default");
        assert_eq!(job.deadline, Some(Duration::from_millis(250)));
        // The canonical spec is echoed, defaults filled in.
        let (key, echoed) = &job.scenario[0];
        assert_eq!(key, "spec");
        assert_eq!(echoed.get("cores").and_then(|v| v.as_f64()), Some(8.0));
        assert_eq!(echoed.get("sharing-degree").and_then(|v| v.as_f64()), Some(8.0));
        let WorkloadId::Spec(interned) = job.pair.0 else { panic!("expected a spec workload") };
        assert_eq!(interned.spec.cores, 8);
    }

    /// Malformed-spec rows for the serve wire: errors inside the
    /// inline object come back field-qualified as `spec.<key>`.
    #[test]
    fn malformed_spec_requests_name_the_offending_key() {
        let table: &[(&str, &str, &str)] = &[
            // Spec must be an object.
            (r#"{"type":"run","spec":"web8.json"}"#, "spec", "JSON object"),
            // Spec cannot ride inside a sweep.
            (r#"{"type":"sweep","spec":{"name":"w"},"orgs":["shared"]}"#, "spec", "run request"),
            // Spec shadows the flat fields; both present is an error.
            (
                r#"{"type":"run","spec":{"name":"w"},"workload":"oltp"}"#,
                "workload",
                "alongside spec",
            ),
            (r#"{"type":"run","spec":{"name":"w"},"seed":3}"#, "seed", "alongside spec"),
            (
                r#"{"type":"run","spec":{"name":"w"},"sharing-degree":2}"#,
                "sharing-degree",
                "alongside spec",
            ),
            // Errors inside the object are field-qualified.
            (r#"{"type":"run","spec":{"name":"w","cores":12}}"#, "spec.cores", "power of two"),
            (r#"{"type":"run","spec":{"name":"w","org":"l4"}}"#, "spec.org", "organization"),
            (r#"{"type":"run","spec":{"cores":8}}"#, "spec.name", "non-empty"),
            (r#"{"type":"run","spec":{"name":"w","turbo":true}}"#, "spec.turbo", "spec key"),
        ];
        for (line, field, fragment) in table {
            let (got_field, expected, _) = expect_invalid(line);
            assert_eq!(&got_field, field, "offending field for {line:?}");
            assert!(
                expected.contains(fragment),
                "expected-shape text for {line:?}: {expected:?} missing {fragment:?}"
            );
        }
    }

    #[test]
    fn approx_requests_carry_a_confidence_stop_rule() {
        // Bare opt-in gets the documented defaults.
        let req =
            parse(r#"{"type":"run","workload":"oltp","org":"shared","approx":true}"#).unwrap();
        let Request::Jobs(jobs) = req else { panic!("expected jobs") };
        assert_eq!(
            jobs[0].cfg.stop,
            StopRule::Confidence {
                metric: StopMetric::MissRate,
                rel_half_width: 0.02,
                confidence: 0.95
            }
        );
        // Tuning fields override the defaults.
        let req = parse(
            r#"{"type":"run","workload":"oltp","org":"shared","approx":true,"metric":"ipc","confidence":0.9,"rel-half-width":0.05}"#,
        )
        .unwrap();
        let Request::Jobs(jobs) = req else { panic!("expected jobs") };
        assert_eq!(
            jobs[0].cfg.stop,
            StopRule::Confidence { metric: StopMetric::Ipc, rel_half_width: 0.05, confidence: 0.9 }
        );
        // approx: false is the exact mode.
        let req =
            parse(r#"{"type":"run","workload":"oltp","org":"shared","approx":false}"#).unwrap();
        let Request::Jobs(jobs) = req else { panic!("expected jobs") };
        assert_eq!(jobs[0].cfg.stop, StopRule::Fixed);
    }

    #[test]
    fn oversized_line_is_rejected_before_parsing() {
        let huge = format!(r#"{{"type":"run","workload":"{}"}}"#, "x".repeat(8192));
        let err = parse_line(&huge, defaults(), 4096).unwrap_err();
        let SimError::InvalidRequest { field, expected, got } = err else {
            panic!("expected InvalidRequest");
        };
        assert_eq!(field, "request");
        assert!(expected.contains("4096"));
        assert!(got.contains("bytes"));
    }

    #[test]
    fn error_values_are_clipped_in_responses() {
        let line = format!(r#"{{"type":"run","workload":"oltp","org":"{}"}}"#, "z".repeat(500));
        let (_, _, got) = expect_invalid(&line);
        assert!(got.len() < 120, "offending value is clipped, got {} bytes", got.len());
    }

    #[test]
    fn error_response_carries_field_level_context() {
        let err = SimError::InvalidRequest {
            field: "org".into(),
            expected: "one of shared|...".into(),
            got: "l4".into(),
        };
        let resp = error_response(&Json::Str("r9".into()), &err);
        assert_eq!(resp.get("type").and_then(|v| v.as_str()), Some("error"));
        assert_eq!(resp.get("kind").and_then(|v| v.as_str()), Some("invalid-request"));
        assert_eq!(resp.get("field").and_then(|v| v.as_str()), Some("org"));
        assert_eq!(resp.get("got").and_then(|v| v.as_str()), Some("l4"));
        assert_eq!(resp.get("id").and_then(|v| v.as_str()), Some("r9"));
    }

    #[test]
    fn admin_requests_parse() {
        assert!(matches!(parse(r#"{"type":"health"}"#), Ok(Request::Health(Json::Null))));
        assert!(matches!(parse(r#"{"type":"stats","id":"s"}"#), Ok(Request::Stats(Json::Str(_)))));
        assert!(matches!(parse(r#"{"type":"drain"}"#), Ok(Request::Drain(Json::Null))));
    }
}
