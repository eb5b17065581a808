//! Exports the observability layer's metrics through [`crate::json`].
//!
//! The binaries that opt in (via [`cmp_obs::ENV_VAR`]) serialize a
//! [`cmp_obs::Snapshot`] into `BENCH_obs.json` next to their main
//! report. The shape is lossless for counters and spans and exact for
//! histograms (all quantities are integers well inside `f64`'s 2^53
//! range at bench scale), so [`snapshot_from_json`] round-trips a
//! snapshot bit-identically — the property the obs test suite pins.
//!
//! Writing the report goes through [`write_report`], which surfaces a
//! failure as [`SimError::Report`] so binaries exit nonzero instead
//! of warning — a CI artifact upload can therefore never silently
//! miss the file.

use std::path::Path;

use cmp_obs::{CounterSnapshot, HistogramSnapshot, Snapshot, SpanSnapshot, HIST_BUCKETS};
use cmp_sim::SimError;

use crate::json::Json;

/// Default file name the binaries write the metrics export to.
pub const OBS_REPORT_PATH: &str = "BENCH_obs.json";

fn u(x: u64) -> Json {
    debug_assert!(x < (1u64 << 53), "metric exceeds f64 exact-integer range");
    Json::Num(x as f64)
}

/// Serializes a metrics snapshot: `enabled` flag plus one object per
/// metric family, keyed by metric name in the snapshot's (sorted)
/// order so the export diffs cleanly between runs.
pub fn snapshot_to_json(snap: &Snapshot) -> Json {
    let mut root = Json::obj();
    root.set("enabled", Json::Bool(cmp_obs::enabled()));
    let mut counters = Json::obj();
    for c in &snap.counters {
        counters.set(&c.name, u(c.value));
    }
    root.set("counters", counters);
    let mut histograms = Json::obj();
    for h in &snap.histograms {
        let mut obj = Json::obj();
        obj.set("count", u(h.count));
        obj.set("sum", u(h.sum));
        obj.set("min", u(h.min));
        obj.set("max", u(h.max));
        obj.set("buckets", Json::Arr(h.buckets.iter().map(|b| u(*b)).collect()));
        histograms.set(&h.name, obj);
    }
    root.set("histograms", histograms);
    let mut spans = Json::obj();
    for s in &snap.spans {
        let mut obj = Json::obj();
        obj.set("count", u(s.count));
        obj.set("total_ns", u(s.total_ns));
        obj.set("max_ns", u(s.max_ns));
        spans.set(&s.name, obj);
    }
    root.set("spans", spans);
    root
}

fn get_u64(value: &Json, key: &str) -> Result<u64, String> {
    let n = value.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing {key:?}"))?;
    if n < 0.0 || n.fract() != 0.0 || n >= (1u64 << 53) as f64 {
        return Err(format!("{key:?} is not an exact u64: {n}"));
    }
    Ok(n as u64)
}

/// Deserializes a snapshot written by [`snapshot_to_json`] (the
/// round-trip direction exists for the test suite and for external
/// tooling that wants typed access to an exported report).
pub fn snapshot_from_json(value: &Json) -> Result<Snapshot, String> {
    let family = |key: &str| {
        value.get(key).and_then(Json::fields).ok_or_else(|| format!("missing object field {key:?}"))
    };
    let mut counters = Vec::new();
    for (name, v) in family("counters")? {
        let n = v.as_f64().ok_or_else(|| format!("counter {name:?} is not a number"))?;
        if n < 0.0 || n.fract() != 0.0 || n >= (1u64 << 53) as f64 {
            return Err(format!("counter {name:?} is not an exact u64: {n}"));
        }
        counters.push(CounterSnapshot { name: name.clone(), value: n as u64 });
    }
    let mut histograms = Vec::new();
    for (name, v) in family("histograms")? {
        let arr = match v.get("buckets") {
            Some(Json::Arr(items)) if items.len() == HIST_BUCKETS => items,
            _ => return Err(format!("histogram {name:?} lacks a {HIST_BUCKETS}-bucket array")),
        };
        let mut buckets = [0u64; HIST_BUCKETS];
        for (slot, item) in buckets.iter_mut().zip(arr) {
            let n = item.as_f64().ok_or_else(|| format!("histogram {name:?} bucket non-number"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("histogram {name:?} bucket non-integer: {n}"));
            }
            *slot = n as u64;
        }
        histograms.push(HistogramSnapshot {
            name: name.clone(),
            count: get_u64(v, "count")?,
            sum: get_u64(v, "sum")?,
            min: get_u64(v, "min")?,
            max: get_u64(v, "max")?,
            buckets,
        });
    }
    let mut spans = Vec::new();
    for (name, v) in family("spans")? {
        spans.push(SpanSnapshot {
            name: name.clone(),
            count: get_u64(v, "count")?,
            total_ns: get_u64(v, "total_ns")?,
            max_ns: get_u64(v, "max_ns")?,
        });
    }
    Ok(Snapshot { counters, histograms, spans })
}

/// Writes a report artifact, mapping an I/O failure to
/// [`SimError::Report`] so binaries can exit nonzero through
/// [`crate::ok_or_exit`] instead of warning and succeeding.
pub fn write_report(path: impl AsRef<Path>, report: &Json) -> Result<(), SimError> {
    let path = path.as_ref();
    let text = format!("{report}\n");
    std::fs::write(path, text)
        .map_err(|e| SimError::Report { path: path.display().to_string(), cause: e.to_string() })
}

/// Snapshots the registry and writes it to [`OBS_REPORT_PATH`] when
/// the obs layer is enabled; a no-op (and `Ok`) when it is disabled.
/// Returns the serialized snapshot for callers that embed it in a
/// larger report.
pub fn export_if_enabled() -> Result<Option<Json>, SimError> {
    if !cmp_obs::enabled() {
        return Ok(None);
    }
    let json = snapshot_to_json(&cmp_obs::snapshot());
    write_report(OBS_REPORT_PATH, &json)?;
    Ok(Some(json))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![
                CounterSnapshot { name: "cache.l2.accesses".into(), value: 12_345 },
                CounterSnapshot { name: "sweep.quarantined".into(), value: 2 },
            ],
            histograms: vec![HistogramSnapshot {
                name: "bus.arbitration_wait".into(),
                count: 9,
                sum: 120,
                min: 0,
                max: 64,
                buckets: {
                    let mut b = [0u64; HIST_BUCKETS];
                    b[0] = 3;
                    b[7] = 6;
                    b
                },
            }],
            spans: vec![SpanSnapshot {
                name: "sim.run".into(),
                count: 4,
                total_ns: 1_000_000,
                max_ns: 400_000,
            }],
        }
    }

    #[test]
    fn snapshot_roundtrips_through_json_text() {
        let snap = sample();
        let json = snapshot_to_json(&snap);
        let text = json.to_string();
        let back = snapshot_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn malformed_exports_are_rejected() {
        for bad in [
            "{}",
            "{\"counters\":{},\"histograms\":{\"h\":{\"count\":1}},\"spans\":{}}",
            "{\"counters\":{\"c\":1.5},\"histograms\":{},\"spans\":{}}",
        ] {
            let value = Json::parse(bad).unwrap();
            assert!(snapshot_from_json(&value).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn write_report_failure_is_a_report_error() {
        let err = write_report("/nonexistent-dir/BENCH_obs.json", &Json::obj()).unwrap_err();
        match err {
            SimError::Report { path, .. } => assert_eq!(path, "/nonexistent-dir/BENCH_obs.json"),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
