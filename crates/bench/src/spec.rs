//! Declarative workload/scenario specs: the DSL that un-hardwires
//! the 4-core machine.
//!
//! A [`ScenarioSpec`] names a machine (core count, org), a workload
//! (one of the Table 3 profiles as a base, plus sharing-mix /
//! working-set / zipf / write-fraction / sharing-degree overrides),
//! and optionally a run sizing and stop rule — everything needed to
//! simulate a CMP that is *not* the paper's 2x2 8 MB machine, stated
//! as data instead of code. Specs parse from JSON (via the crate's
//! dependency-free [`crate::json`]) or a deliberately minimal flat
//! TOML (`key = value` lines), validate with field-level
//! [`SimError::InvalidRequest`] errors naming the offending key, and
//! re-emit canonically so that `parse(emit(spec)) == spec` and the
//! compact canonical string can serve as a cache/journal identity.
//!
//! Lowering targets the sized runner entry points grown for this
//! path: the workload becomes a [`SyntheticWorkload`] at the spec's
//! core count and sharing degree, the machine a
//! [`LatencyBook::from_table1`] book plus a proportionally scaled L2
//! (2 MB per core, the paper's ratio), and the run goes through
//! `cmp_sim::run_workload_mono_with`. Interned specs
//! ([`intern`]) become [`crate::lab::WorkloadId::Spec`] cache keys,
//! so spec runs ride the same memoizing batch engine, checkpoint
//! journal, and serving layer as the paper's own pairs.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use cmp_latency::{LatencyBook, Table1};
use cmp_sim::{
    run_workload_mono_with, OrgKind, RunConfig, RunResult, SimError, StopMetric, StopRule,
};
use cmp_trace::{profiles, SyntheticWorkload, WorkloadParams};

use crate::json::Json;

/// The Table 3 profile names a spec's `base` may reference.
pub const BASE_PROFILES: [&str; 5] = crate::MULTITHREADED;

/// Every key a scenario spec accepts, in canonical emission order.
/// Unknown keys are rejected by name, and [`ScenarioSpec::to_json`]
/// emits present fields in exactly this order, which is what makes
/// the compact form canonical.
pub const SPEC_KEYS: [&str; 18] = [
    "name",
    "cores",
    "base",
    "org",
    "sharing-degree",
    "private-fraction",
    "read-only-shared-fraction",
    "read-write-shared-fraction",
    "working-set-blocks",
    "zipf-theta",
    "write-fraction",
    "hot-window",
    "hot-fraction",
    "warmup-accesses",
    "measure-accesses",
    "seed",
    "approx",
    "metric",
];

/// A declarative scenario: machine + workload + (optional) run
/// sizing, with every default resolved at parse time so two specs
/// that mean the same machine compare equal.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name; becomes the workload name in results and
    /// figures.
    pub name: String,
    /// Core count: a power of two in `1..=64` (default 4, the
    /// paper's machine).
    pub cores: usize,
    /// Base workload profile (Table 3 name, default `"oltp"`); the
    /// overrides below start from its parameters.
    pub base: String,
    /// The organization to run when the caller does not supply an
    /// org axis of its own (default [`OrgKind::Nurapid`]).
    pub org: OrgKind,
    /// Cores per sharing group (default = `cores`, the whole-machine
    /// sharing of the paper); must divide `cores`.
    pub sharing_degree: usize,
    /// Override: probability of a cold private reference.
    pub private_fraction: Option<f64>,
    /// Override: probability of a cold read-only-shared reference.
    pub read_only_shared_fraction: Option<f64>,
    /// Override: probability of a cold read-write-shared reference.
    pub read_write_shared_fraction: Option<f64>,
    /// Override: private working set per core, in 128 B blocks.
    pub working_set_blocks: Option<usize>,
    /// Override: zipf skew of the private region, in `0..=2`.
    pub zipf_theta: Option<f64>,
    /// Override: store fraction of private references.
    pub write_fraction: Option<f64>,
    /// Override: hot-window size in blocks.
    pub hot_window: Option<usize>,
    /// Override: probability a reference revisits the hot window.
    pub hot_fraction: Option<f64>,
    /// Override: warm-up accesses per core (else the driver's run
    /// config decides).
    pub warmup_accesses: Option<u64>,
    /// Override: measured accesses per core.
    pub measure_accesses: Option<u64>,
    /// Override: workload seed.
    pub seed: Option<u64>,
    /// Confidence stop rule (`approx`/`metric`/`rel-half-width`/
    /// `confidence` keys); `None` keeps the driver's stop rule.
    pub stop: Option<StopRule>,
}

impl ScenarioSpec {
    /// A spec with every field at its default, ready for overrides —
    /// the 4-core paper machine running OLTP under CMP-NuRAPID.
    pub fn defaults(name: impl Into<String>) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            cores: cmp_mem::PAPER_CORES,
            base: "oltp".into(),
            org: OrgKind::Nurapid,
            sharing_degree: cmp_mem::PAPER_CORES,
            private_fraction: None,
            read_only_shared_fraction: None,
            read_write_shared_fraction: None,
            working_set_blocks: None,
            zipf_theta: None,
            write_fraction: None,
            hot_window: None,
            hot_fraction: None,
            warmup_accesses: None,
            measure_accesses: None,
            seed: None,
            stop: None,
        }
    }

    /// Parses a spec from JSON or flat TOML text, sniffing the format:
    /// text whose first non-whitespace byte is `{` is JSON, anything
    /// else is treated as TOML `key = value` lines.
    pub fn parse_str(text: &str) -> Result<ScenarioSpec, SimError> {
        let value = if text.trim_start().starts_with('{') {
            Json::parse(text).map_err(|e| invalid("spec", "a JSON object", &e))?
        } else {
            toml_to_json(text)?
        };
        ScenarioSpec::from_json(&value)
    }

    /// Reads and parses a spec file; `.toml` paths parse as flat
    /// TOML, everything else as JSON.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<ScenarioSpec, SimError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            invalid("spec-file", "a readable spec file", &format!("{}: {e}", path.display()))
        })?;
        let value = if path.extension().is_some_and(|e| e == "toml") {
            toml_to_json(&text)?
        } else {
            Json::parse(&text).map_err(|e| invalid("spec-file", "a JSON object", &e))?
        };
        ScenarioSpec::from_json(&value)
    }

    /// Parses and validates a spec from a JSON object. Every failure
    /// is a [`SimError::InvalidRequest`] naming the offending key.
    pub fn from_json(value: &Json) -> Result<ScenarioSpec, SimError> {
        let fields =
            value.fields().ok_or_else(|| invalid("spec", "a JSON object", &value.compact()))?;
        for (key, _) in fields {
            let known =
                SPEC_KEYS.contains(&key.as_str()) || key == "rel-half-width" || key == "confidence";
            if !known {
                return Err(invalid(key, "no such spec key (see SPEC_KEYS)", key));
            }
        }
        let name = match value.get("name") {
            Some(Json::Str(s)) if !s.trim().is_empty() => s.clone(),
            Some(other) => return Err(invalid("name", "a non-empty string", &other.compact())),
            None => return Err(invalid("name", "a non-empty string", "absent")),
        };
        let mut spec = ScenarioSpec::defaults(name);

        if let Some(v) = value.get("cores") {
            let n = usize_field("cores", v, 1, 64)?;
            if !n.is_power_of_two() {
                return Err(invalid("cores", "a power of two in 1..=64", &v.compact()));
            }
            spec.cores = n;
            spec.sharing_degree = n;
        }
        if let Some(v) = value.get("base") {
            match v.as_str() {
                Some(b) if BASE_PROFILES.contains(&b) => spec.base = b.to_string(),
                _ => return Err(invalid("base", "one of the Table 3 profile names", &v.compact())),
            }
        }
        if let Some(v) = value.get("org") {
            match v.as_str().and_then(OrgKind::from_name) {
                Some(k) => spec.org = k,
                None => return Err(invalid("org", "a known organization name", &v.compact())),
            }
        }
        if let Some(v) = value.get("sharing-degree") {
            let n = usize_field("sharing-degree", v, 1, spec.cores)?;
            if !spec.cores.is_multiple_of(n) {
                return Err(invalid("sharing-degree", "a divisor of the core count", &v.compact()));
            }
            spec.sharing_degree = n;
        }
        spec.private_fraction = fraction_field(value, "private-fraction")?;
        spec.read_only_shared_fraction = fraction_field(value, "read-only-shared-fraction")?;
        spec.read_write_shared_fraction = fraction_field(value, "read-write-shared-fraction")?;
        let given = [
            spec.private_fraction,
            spec.read_only_shared_fraction,
            spec.read_write_shared_fraction,
        ];
        let present = given.iter().filter(|f| f.is_some()).count();
        if present != 0 && present != 3 {
            return Err(invalid(
                "private-fraction",
                "all three sharing-mix fractions together",
                &format!("{present} of 3 given"),
            ));
        }
        if present == 3 {
            let total: f64 = given.iter().map(|f| f.unwrap_or(0.0)).sum();
            if (total - 1.0).abs() > 1e-9 {
                return Err(invalid(
                    "private-fraction",
                    "sharing-mix fractions summing to 1",
                    &format!("sum {total}"),
                ));
            }
        }
        if let Some(v) = value.get("working-set-blocks") {
            spec.working_set_blocks = Some(usize_field("working-set-blocks", v, 1, 1 << 30)?);
        }
        if let Some(v) = value.get("zipf-theta") {
            spec.zipf_theta = Some(f64_field("zipf-theta", v, 0.0, 2.0)?);
        }
        if let Some(v) = value.get("write-fraction") {
            spec.write_fraction = Some(f64_field("write-fraction", v, 0.0, 1.0)?);
        }
        if let Some(v) = value.get("hot-window") {
            spec.hot_window = Some(usize_field("hot-window", v, 1, 1 << 20)?);
        }
        if let Some(v) = value.get("hot-fraction") {
            spec.hot_fraction = Some(f64_field("hot-fraction", v, 0.0, 1.0)?);
        }
        if let Some(v) = value.get("warmup-accesses") {
            spec.warmup_accesses = Some(u64_field("warmup-accesses", v)?);
        }
        if let Some(v) = value.get("measure-accesses") {
            let n = u64_field("measure-accesses", v)?;
            if n == 0 {
                return Err(invalid("measure-accesses", "a positive access count", "0"));
            }
            spec.measure_accesses = Some(n);
        }
        if let Some(v) = value.get("seed") {
            spec.seed = Some(u64_field("seed", v)?);
        }
        spec.stop = parse_stop(value)?;
        Ok(spec)
    }

    /// The canonical JSON form: every present field in [`SPEC_KEYS`]
    /// order, defaults resolved. `parse(emit(spec)) == spec`, and the
    /// compact rendering is the identity [`intern`] keys on.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("name", Json::Str(self.name.clone()));
        obj.set("cores", Json::Num(self.cores as f64));
        obj.set("base", Json::Str(self.base.clone()));
        obj.set("org", Json::Str(self.org.name().into()));
        obj.set("sharing-degree", Json::Num(self.sharing_degree as f64));
        let mut opt = |key: &str, v: Option<f64>| {
            if let Some(x) = v {
                obj.set(key, Json::Num(x));
            }
        };
        opt("private-fraction", self.private_fraction);
        opt("read-only-shared-fraction", self.read_only_shared_fraction);
        opt("read-write-shared-fraction", self.read_write_shared_fraction);
        opt("working-set-blocks", self.working_set_blocks.map(|n| n as f64));
        opt("zipf-theta", self.zipf_theta);
        opt("write-fraction", self.write_fraction);
        opt("hot-window", self.hot_window.map(|n| n as f64));
        opt("hot-fraction", self.hot_fraction);
        opt("warmup-accesses", self.warmup_accesses.map(|n| n as f64));
        opt("measure-accesses", self.measure_accesses.map(|n| n as f64));
        opt("seed", self.seed.map(|n| n as f64));
        if let Some(StopRule::Confidence { metric, rel_half_width, confidence }) = self.stop {
            obj.set("approx", Json::Bool(true));
            obj.set("metric", Json::Str(metric.name().into()));
            obj.set("rel-half-width", Json::Num(rel_half_width));
            obj.set("confidence", Json::Num(confidence));
        }
        obj
    }

    /// The canonical compact string (the intern/journal identity).
    pub fn canonical(&self) -> String {
        self.to_json().compact()
    }

    /// The base profile's parameters with this spec's overrides
    /// applied and the workload renamed to the scenario name.
    pub fn params(&self) -> WorkloadParams {
        let mut p = match self.base.as_str() {
            "oltp" => profiles::oltp_params(),
            "apache" => profiles::apache_params(),
            "specjbb" => profiles::specjbb_params(),
            "ocean" => profiles::ocean_params(),
            "barnes" => profiles::barnes_params(),
            other => unreachable!("validated base profile {other:?}"),
        };
        p.name = self.name.clone();
        if let (Some(wp), Some(ros), Some(rws)) =
            (self.private_fraction, self.read_only_shared_fraction, self.read_write_shared_fraction)
        {
            p.weight_private = wp;
            p.weight_ros = ros;
            p.weight_rws = rws;
        }
        if let Some(n) = self.working_set_blocks {
            p.private_blocks = n;
        }
        if let Some(z) = self.zipf_theta {
            p.private_zipf = z;
        }
        if let Some(w) = self.write_fraction {
            p.private_write_frac = w;
        }
        if let Some(n) = self.hot_window {
            p.hot_window = n;
        }
        if let Some(h) = self.hot_fraction {
            p.hot_prob = h;
        }
        p.validate();
        p
    }

    /// The driver's run config with this spec's sizing/seed/stop
    /// overrides applied (absent fields keep the driver's values).
    pub fn run_config(&self, defaults: &RunConfig) -> RunConfig {
        let mut cfg = *defaults;
        if let Some(w) = self.warmup_accesses {
            cfg.warmup_accesses = w;
        }
        if let Some(m) = self.measure_accesses {
            cfg.measure_accesses = m;
        }
        if let Some(s) = self.seed {
            cfg.seed = s;
        }
        if let Some(stop) = self.stop {
            cfg.stop = stop;
        }
        cfg
    }

    /// This spec with `org` and the effective run configuration
    /// (`run_config(defaults)`) written in, so it names one exact
    /// simulation: whoever parses it back gets the same sizing, seed
    /// and stop rule whatever their own defaults. A fixed stop rule is
    /// written as no stop rule: the wire has no spelling for it, and
    /// a service's defaults always use it.
    pub fn pinned(&self, org: OrgKind, defaults: &RunConfig) -> ScenarioSpec {
        let cfg = self.run_config(defaults);
        ScenarioSpec {
            org,
            warmup_accesses: Some(cfg.warmup_accesses),
            measure_accesses: Some(cfg.measure_accesses),
            seed: Some(cfg.seed),
            stop: match cfg.stop {
                StopRule::Fixed => None,
                rule => Some(rule),
            },
            ..self.clone()
        }
    }

    /// Instantiates the workload at this spec's core count and
    /// sharing degree.
    pub fn workload(&self, seed: u64) -> SyntheticWorkload {
        SyntheticWorkload::with_sharing_degree(self.params(), self.cores, seed, self.sharing_degree)
    }

    /// The machine's latency book: Table 1's published latencies laid
    /// out for this spec's core count.
    pub fn book(&self) -> LatencyBook {
        LatencyBook::from_table1(&Table1::published(), self.cores)
    }

    /// Total L2 capacity: the paper's 2 MB per core, scaled.
    pub fn l2_bytes(&self) -> usize {
        cmp_mem::L2_TOTAL_BYTES / cmp_mem::PAPER_CORES * self.cores
    }

    /// Simulates this scenario on `org` (the caller's org axis; use
    /// [`ScenarioSpec::org`] when there is none), with the spec's
    /// sizing overrides applied over `defaults`.
    pub fn simulate(&self, org: OrgKind, defaults: &RunConfig) -> RunResult {
        let cfg = self.run_config(defaults);
        run_workload_mono_with(self.workload(cfg.seed), org, &cfg, &self.book(), self.l2_bytes())
    }
}

/// A leak-interned spec: the `'static` identity that lets
/// [`crate::lab::WorkloadId`] stay `Copy` while carrying an
/// arbitrary scenario. Equality and hashing go through the canonical
/// string, so two textual spellings of the same scenario share one
/// cache slot.
#[derive(Debug)]
pub struct InternedSpec {
    /// The parsed, validated spec.
    pub spec: ScenarioSpec,
    /// Its canonical compact JSON (the identity and journal form).
    pub canon: String,
}

impl PartialEq for InternedSpec {
    fn eq(&self, other: &Self) -> bool {
        self.canon == other.canon
    }
}

impl Eq for InternedSpec {}

impl std::hash::Hash for InternedSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.canon.hash(state);
    }
}

/// Interns a spec into the process-global registry, returning the
/// `'static` handle [`crate::lab::WorkloadId::Spec`] carries.
/// First-insert-wins: the same canonical form always returns the same
/// pointer, so pointer-carrying `WorkloadId`s from different requests
/// compare equal in the memo cache.
pub fn intern(spec: &ScenarioSpec) -> &'static InternedSpec {
    static REGISTRY: OnceLock<Mutex<HashMap<String, &'static InternedSpec>>> = OnceLock::new();
    let canon = spec.canonical();
    let mut map = REGISTRY
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some(interned) = map.get(&canon) {
        return interned;
    }
    let interned: &'static InternedSpec =
        Box::leak(Box::new(InternedSpec { spec: spec.clone(), canon: canon.clone() }));
    map.insert(canon, interned);
    interned
}

/// Re-parses a canonical string from a journal record back into the
/// intern registry.
pub(crate) fn intern_canonical(canon: &str) -> Option<&'static InternedSpec> {
    let value = Json::parse(canon).ok()?;
    let spec = ScenarioSpec::from_json(&value).ok()?;
    Some(intern(&spec))
}

fn invalid(field: &str, expected: &str, got: &str) -> SimError {
    SimError::InvalidRequest {
        field: field.to_string(),
        expected: expected.to_string(),
        got: clip(got),
    }
}

/// Clips an offending value for the error message.
fn clip(s: &str) -> String {
    const MAX: usize = 80;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let mut end = MAX;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}...", &s[..end])
    }
}

fn f64_field(key: &str, v: &Json, lo: f64, hi: f64) -> Result<f64, SimError> {
    match v.as_f64() {
        Some(x) if x.is_finite() && (lo..=hi).contains(&x) => Ok(x),
        _ => Err(invalid(key, &format!("a number in {lo}..={hi}"), &v.compact())),
    }
}

fn usize_field(key: &str, v: &Json, lo: usize, hi: usize) -> Result<usize, SimError> {
    match v.as_f64() {
        Some(x) if x.fract() == 0.0 && x >= lo as f64 && x <= hi as f64 => Ok(x as usize),
        _ => Err(invalid(key, &format!("an integer in {lo}..={hi}"), &v.compact())),
    }
}

fn u64_field(key: &str, v: &Json) -> Result<u64, SimError> {
    match v.as_f64() {
        Some(x) if x.fract() == 0.0 && (0.0..9.0e15).contains(&x) => Ok(x as u64),
        _ => Err(invalid(key, "a non-negative integer", &v.compact())),
    }
}

fn fraction_field(value: &Json, key: &str) -> Result<Option<f64>, SimError> {
    match value.get(key) {
        Some(v) => Ok(Some(f64_field(key, v, 0.0, 1.0)?)),
        None => Ok(None),
    }
}

/// Parses the confidence-stop keys, mirroring the serving layer's
/// semantics: tuning keys require `approx: true`.
fn parse_stop(value: &Json) -> Result<Option<StopRule>, SimError> {
    let approx = match value.get("approx") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(other) => return Err(invalid("approx", "a boolean", &other.compact())),
    };
    if !approx {
        for key in ["metric", "rel-half-width", "confidence"] {
            if let Some(v) = value.get(key) {
                return Err(invalid(key, "approx: true when tuning the stop rule", &v.compact()));
            }
        }
        return Ok(None);
    }
    let metric = match value.get("metric") {
        None => StopMetric::MissRate,
        Some(v) => v
            .as_str()
            .and_then(StopMetric::from_name)
            .ok_or_else(|| invalid("metric", "\"miss-rate\" or \"ipc\"", &v.compact()))?,
    };
    let rel_half_width = match value.get("rel-half-width") {
        None => 0.02,
        Some(v) => match v.as_f64() {
            Some(x) if x > 0.0 && x <= 0.5 => x,
            _ => return Err(invalid("rel-half-width", "a number in (0, 0.5]", &v.compact())),
        },
    };
    let confidence = match value.get("confidence") {
        None => 0.95,
        Some(v) => match v.as_f64() {
            Some(x) if x > 0.5 && x < 1.0 => x,
            _ => return Err(invalid("confidence", "a number in (0.5, 1)", &v.compact())),
        },
    };
    Ok(Some(StopRule::Confidence { metric, rel_half_width, confidence }))
}

/// Converts flat TOML (`key = value` lines, `#` comments, quoted
/// strings, numbers, booleans — no sections, no arrays) into a JSON
/// object for [`ScenarioSpec::from_json`]. Deliberately minimal:
/// exactly the subset a flat scenario spec needs, nothing more.
fn toml_to_json(text: &str) -> Result<Json, SimError> {
    let mut fields: Vec<(String, Json)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            return Err(invalid("spec", "flat key = value lines (no TOML sections)", &line));
        }
        let Some((key, val)) = line.split_once('=') else {
            return Err(invalid("spec", &format!("key = value on line {}", i + 1), &line));
        };
        let key = key.trim().trim_matches('"').to_string();
        let val = val.trim();
        let parsed = if let Some(s) = val.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
            Json::Str(s.to_string())
        } else if val == "true" {
            Json::Bool(true)
        } else if val == "false" {
            Json::Bool(false)
        } else if let Ok(n) = val.parse::<f64>() {
            Json::Num(n)
        } else {
            return Err(invalid(&key, "a quoted string, number, or boolean", val));
        };
        fields.push((key, parsed));
    }
    Ok(Json::Obj(fields))
}

/// Strips a `#` comment, respecting (unescaped) double-quoted
/// strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_trace::TraceSource;

    fn eight_core_json() -> &'static str {
        r#"{
            "name": "web8",
            "cores": 8,
            "base": "apache",
            "org": "snuca",
            "sharing-degree": 4,
            "working-set-blocks": 9000,
            "zipf-theta": 0.7,
            "write-fraction": 0.2,
            "warmup-accesses": 500,
            "measure-accesses": 1000,
            "seed": 11
        }"#
    }

    #[test]
    fn json_spec_parses_and_lowers() {
        let spec = ScenarioSpec::parse_str(eight_core_json()).unwrap();
        assert_eq!(spec.cores, 8);
        assert_eq!(spec.sharing_degree, 4);
        assert_eq!(spec.org, OrgKind::Snuca);
        let p = spec.params();
        assert_eq!(p.name, "web8");
        assert_eq!(p.private_blocks, 9000);
        assert_eq!(p.private_zipf, 0.7);
        assert_eq!(p.private_write_frac, 0.2);
        let w = spec.workload(11);
        assert_eq!(w.cores(), 8);
        assert_eq!(spec.book().cores(), 8);
        assert_eq!(spec.l2_bytes(), 2 * cmp_mem::L2_TOTAL_BYTES);
        let cfg = spec.run_config(&RunConfig::paper());
        assert_eq!((cfg.warmup_accesses, cfg.measure_accesses, cfg.seed), (500, 1000, 11));
    }

    #[test]
    fn toml_spec_parses_like_json() {
        let toml = r#"
            # a 16-core scientific scenario
            name = "sci16"
            cores = 16
            base = "ocean"
            org = "cnuca"
            sharing-degree = 8
            hot-fraction = 0.9  # trailing comment
        "#;
        let spec = ScenarioSpec::parse_str(toml).unwrap();
        assert_eq!(spec.cores, 16);
        assert_eq!(spec.base, "ocean");
        assert_eq!(spec.org, OrgKind::Cnuca);
        assert_eq!(spec.sharing_degree, 8);
        assert_eq!(spec.hot_fraction, Some(0.9));
        // The same scenario written as JSON means the same spec.
        let json = r#"{"name":"sci16","cores":16,"base":"ocean","org":"cnuca",
                       "sharing-degree":8,"hot-fraction":0.9}"#;
        assert_eq!(spec, ScenarioSpec::parse_str(json).unwrap());
    }

    #[test]
    fn roundtrip_is_lossless() {
        // Property: parse(emit(spec)) == spec, across a grid of specs
        // exercising every field (including the stop rule).
        let mut specs = vec![ScenarioSpec::defaults("plain")];
        for cores in [1usize, 2, 8, 16, 64] {
            for degree in [1usize, cores] {
                let mut s = ScenarioSpec::defaults(format!("s{cores}d{degree}"));
                s.cores = cores;
                s.sharing_degree = degree;
                s.base = "barnes".into();
                s.org = OrgKind::Cnuca;
                s.private_fraction = Some(0.6);
                s.read_only_shared_fraction = Some(0.3);
                s.read_write_shared_fraction = Some(0.1);
                s.working_set_blocks = Some(5000);
                s.zipf_theta = Some(0.4);
                s.write_fraction = Some(0.25);
                s.hot_window = Some(32);
                s.hot_fraction = Some(0.9);
                s.warmup_accesses = Some(100);
                s.measure_accesses = Some(200);
                s.seed = Some(3);
                s.stop = Some(StopRule::Confidence {
                    metric: StopMetric::Ipc,
                    rel_half_width: 0.05,
                    confidence: 0.9,
                });
                specs.push(s);
            }
        }
        for spec in specs {
            let emitted = spec.to_json();
            let back = ScenarioSpec::from_json(&emitted).unwrap();
            assert_eq!(back, spec, "round-trip diverged for {}", spec.canonical());
            // Emission is canonical: a second round-trip is textually
            // identical.
            assert_eq!(back.canonical(), spec.canonical());
        }
    }

    #[test]
    fn malformed_specs_name_the_offending_key() {
        let cases: &[(&str, &str)] = &[
            (r#"{"cores": 8}"#, "name"),
            (r#"{"name": ""}"#, "name"),
            (r#"{"name": "x", "cores": 3}"#, "cores"),
            (r#"{"name": "x", "cores": 128}"#, "cores"),
            (r#"{"name": "x", "cores": "four"}"#, "cores"),
            (r#"{"name": "x", "base": "tpch"}"#, "base"),
            (r#"{"name": "x", "org": "l4"}"#, "org"),
            (r#"{"name": "x", "cores": 8, "sharing-degree": 3}"#, "sharing-degree"),
            (r#"{"name": "x", "sharing-degree": 0}"#, "sharing-degree"),
            (r#"{"name": "x", "private-fraction": 0.5}"#, "private-fraction"),
            (
                r#"{"name": "x", "private-fraction": 0.8,
                    "read-only-shared-fraction": 0.8,
                    "read-write-shared-fraction": 0.8}"#,
                "private-fraction",
            ),
            (r#"{"name": "x", "zipf-theta": 3.0}"#, "zipf-theta"),
            (r#"{"name": "x", "write-fraction": -0.1}"#, "write-fraction"),
            (r#"{"name": "x", "working-set-blocks": 0}"#, "working-set-blocks"),
            (r#"{"name": "x", "hot-fraction": 1.5}"#, "hot-fraction"),
            (r#"{"name": "x", "measure-accesses": 0}"#, "measure-accesses"),
            (r#"{"name": "x", "seed": -1}"#, "seed"),
            (r#"{"name": "x", "approx": "yes"}"#, "approx"),
            (r#"{"name": "x", "metric": "ipc"}"#, "metric"),
            (r#"{"name": "x", "approx": true, "metric": "latency"}"#, "metric"),
            (r#"{"name": "x", "approx": true, "rel-half-width": 0.9}"#, "rel-half-width"),
            (r#"{"name": "x", "approx": true, "confidence": 1.0}"#, "confidence"),
            (r#"{"name": "x", "zipf": 0.5}"#, "zipf"),
            (r#"[8, 9]"#, "spec"),
        ];
        for (text, want_field) in cases {
            match ScenarioSpec::parse_str(text) {
                Err(SimError::InvalidRequest { field, .. }) => {
                    assert_eq!(&field, want_field, "wrong field for {text}");
                }
                other => panic!("{text} should fail on {want_field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn default_sharing_degree_tracks_cores() {
        let spec = ScenarioSpec::parse_str(r#"{"name": "x", "cores": 16}"#).unwrap();
        assert_eq!(spec.sharing_degree, 16, "default degree is whole-machine sharing");
    }

    #[test]
    fn approx_keys_lower_into_a_stop_rule() {
        let spec = ScenarioSpec::parse_str(
            r#"{"name": "x", "approx": true, "metric": "ipc",
                "rel-half-width": 0.05, "confidence": 0.9}"#,
        )
        .unwrap();
        let cfg = spec.run_config(&RunConfig::quick());
        assert_eq!(
            cfg.stop,
            StopRule::Confidence { metric: StopMetric::Ipc, rel_half_width: 0.05, confidence: 0.9 }
        );
        // approx: false with no tuning keys keeps the driver's rule.
        let plain = ScenarioSpec::parse_str(r#"{"name": "x", "approx": false}"#).unwrap();
        assert_eq!(plain.stop, None);
    }

    #[test]
    fn interning_is_canonical_and_stable() {
        let a = ScenarioSpec::parse_str(eight_core_json()).unwrap();
        // The same scenario with fields in a different order.
        let reordered = r#"{
            "seed": 11, "measure-accesses": 1000, "warmup-accesses": 500,
            "write-fraction": 0.2, "zipf-theta": 0.7, "working-set-blocks": 9000,
            "sharing-degree": 4, "org": "snuca", "base": "apache",
            "cores": 8, "name": "web8"
        }"#;
        let b = ScenarioSpec::parse_str(reordered).unwrap();
        let ia = intern(&a);
        let ib = intern(&b);
        assert!(std::ptr::eq(ia, ib), "one canonical form, one interned pointer");
        assert_eq!(intern_canonical(&ia.canon).map(|s| std::ptr::eq(s, ia)), Some(true));
    }

    #[test]
    fn spec_simulation_is_deterministic_and_core_scaled() {
        let spec = ScenarioSpec::parse_str(
            r#"{"name": "tiny8", "cores": 8, "base": "barnes",
                "warmup-accesses": 300, "measure-accesses": 600, "seed": 5}"#,
        )
        .unwrap();
        let defaults = RunConfig::paper();
        let a = spec.simulate(OrgKind::Shared, &defaults);
        let b = spec.simulate(OrgKind::Shared, &defaults);
        assert_eq!(a, b, "spec runs are pure functions of (spec, org, defaults)");
        assert_eq!(a.workload, "tiny8");
        // The schedule stops once the slowest core hits its 600-access
        // quota, so the total is bounded by 8 * 600 — but all eight
        // cores run, so it must exceed what a 4-core machine could
        // measure under the same per-core budget.
        assert!(a.accesses <= 8 * 600, "per-core budget bounds the total: {}", a.accesses);
        assert!(a.accesses > 4 * 600, "an 8-core spec measures on all 8 cores: {}", a.accesses);
    }
}
