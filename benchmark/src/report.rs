//! What one workload run reports: metrics, correctness accounting,
//! layer spans, and the files and lines they are written to.

use std::path::PathBuf;
use std::time::Instant;

use cmp_bench::Json;

/// Directory (relative to the repository root) every result and span
/// file goes to.
pub const OUT_DIR: &str = "target/benchmark";

/// Correctness accounting: every timed operation and every check is
/// one attempted operation, and counts at most once as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One named measurement with its unit and sample count.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric { name: name.into(), unit, value, samples }
    }
}

/// A span at a layer boundary, recorded by the benchmark around its
/// own calls into the program.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// Spans kept in memory for the whole run and written at exit.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    /// Records a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span { name: name.into(), parent, start, end });
        self.spans.len() - 1
    }

    fn to_json(&self) -> Json {
        let ns = |t: Instant| Json::Num(t.saturating_duration_since(self.origin).as_nanos() as f64);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut o = Json::obj();
                    o.set("id", Json::Num(id as f64));
                    o.set("name", Json::Str(s.name.clone()));
                    o.set("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64)));
                    o.set("start_ns", ns(s.start));
                    o.set("end_ns", ns(s.end));
                    o
                })
                .collect(),
        )
    }
}

/// Everything one `--workload` run produced.
#[derive(Debug)]
pub struct Outcome {
    pub checks: Checks,
    /// The metrics the run reports in its result line.
    pub metrics: Vec<Metric>,
    /// Further breakdowns, printed and written to the result file.
    pub extras: Vec<Metric>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.checks.attempted
    }

    pub fn failed(&self) -> u64 {
        self.checks.failures.len() as u64
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut v = Json::obj();
            v.set("value", Json::Num(m.value));
            v.set("unit", Json::Str(m.unit.into()));
            metrics.set(&m.name, v);
        }
        let mut out = Json::obj();
        out.set("correct", Json::Bool(self.failed() == 0));
        out.set("attempted", Json::Num(self.attempted() as f64));
        out.set("failed", Json::Num(self.failed() as f64));
        out.set("metrics", metrics);
        out
    }

    /// Prints one line per metric, then the failures, then writes the
    /// result file (and the span file of a traced run). Returns the
    /// result line, which the caller prints last.
    pub fn report(&self, workload: &str, seed: u64, trace: bool) -> String {
        for m in self.metrics.iter().chain(&self.extras) {
            println!(
                "{workload:<15} {:<32} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "{workload:<15} {:<32} {:>16.6} {:<6} n={}",
            "fail_ratio",
            self.fail_ratio(),
            "ratio",
            self.attempted()
        );
        for f in &self.checks.failures {
            println!("{workload:<15} FAILED CHECK: {f}");
        }
        let line = self.result_json();
        let mut file = line.clone();
        file.set("workload", Json::Str(workload.into()));
        file.set("seed", Json::Num(seed as f64));
        file.set("trace", Json::Bool(trace));
        let mut extras = Json::obj();
        for m in &self.extras {
            let mut v = Json::obj();
            v.set("value", Json::Num(m.value));
            v.set("unit", Json::Str(m.unit.into()));
            v.set("samples", Json::Num(m.samples as f64));
            extras.set(&m.name, v);
        }
        file.set("extras", extras);
        file.set(
            "failures",
            Json::Arr(self.checks.failures.iter().cloned().map(Json::Str).collect()),
        );
        let mode = if trace { "trace" } else { "run" };
        write_out(&format!("{workload}-seed{seed}-{mode}.json"), &file);
        if let Some(tracer) = &self.tracer {
            let mut spans = Json::obj();
            spans.set("workload", Json::Str(workload.into()));
            spans.set("seed", Json::Num(seed as f64));
            spans.set("spans", tracer.to_json());
            write_out(&format!("trace-{workload}.json"), &spans);
        }
        line.compact()
    }
}

/// Writes `value` to `OUT_DIR/name`, warning (not failing) on error:
/// the result line on stdout is the authoritative output.
pub fn write_out(name: &str, value: &Json) -> Option<PathBuf> {
    let path = PathBuf::from(OUT_DIR).join(name);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, value.compact() + "\n"));
    match written {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("cmp-benchmark: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB; `None` off Linux
/// or once the process is gone.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
