//! `compare <parent-dir> <change-dir>`: judges a change against its
//! parent from sets of runs (files `run-*.json` written by
//! `cmp-benchmark run`), pairing the i-th set of each side, under the
//! bounds in `BENCHMARK.json`.
//!
//! Per (workload, end-to-end metric):
//! - *improved*: the change wins at least 9 of every 10 pairs (ties
//!   count for neither side) and the medians differ, in the better
//!   direction, by more than the parent's interquartile range;
//! - *worse*: the same rule with the sides swapped, or the change's
//!   median is worse than the parent's by more than the bound. The
//!   first catches a consistent regression smaller than a bound that
//!   host noise has made wide;
//! - *unresolved*: neither, and the parent's own spread (interquartile
//!   range over median) is wider than the bound, unless every change
//!   run beats every parent run;
//! - *unchanged*: otherwise.

use std::path::Path;

use cmp_bench::Json;

use crate::report::OUT_DIR;
use crate::stats::{median, quartiles};
use crate::workloads::Workload;

/// One end-to-end metric of `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_bounds() -> Result<Vec<Bound>, String> {
    let bench = load_json(Path::new("BENCHMARK.json"))?;
    let Some(Json::Arr(items)) = bench.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without better")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok(Bound { name: name.into(), lower_is_better: better == "lower", bound })
        })
        .collect()
}

/// The untraced sets in `dir`, in file-name order.
fn load_sets(dir: &str) -> Result<Vec<Json>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut sets = Vec::new();
    for p in paths {
        let set = load_json(&p)?;
        if set.get("mode").and_then(Json::as_str) == Some("run") {
            sets.push(set);
        }
    }
    Ok(sets)
}

fn value(set: &Json, workload: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

/// Judges paired samples `parent[i]` / `change[i]` (see module docs).
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let n = parent.len().min(change.len());
    let (parent, change) = (&parent[..n], &change[..n]);
    let (Some(p_med), Some(c_med)) = (median(parent), median(change)) else {
        return Verdict::Unresolved;
    };
    let iqr = quartiles(parent).map_or(0.0, |[q1, _, q3]| q3 - q1);
    let clearly = |wins: usize, better_median: bool| {
        wins * 10 >= n * 9 && better_median && (c_med - p_med).abs() > iqr
    };
    let wins = parent.iter().zip(change).filter(|(p, c)| better(**c, **p)).count();
    let losses = parent.iter().zip(change).filter(|(p, c)| better(**p, **c)).count();
    if clearly(wins, better(c_med, p_med)) {
        return Verdict::Improved;
    }
    let worse_by = if lower_is_better { c_med - p_med } else { p_med - c_med } / p_med.abs();
    if clearly(losses, better(p_med, c_med)) || worse_by > bound {
        return Verdict::Worse;
    }
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    if iqr / p_med.abs() > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

pub fn main(args: &[String]) -> i32 {
    let [parent_dir, change_dir] = args else {
        eprintln!("usage: cmp-benchmark compare <parent-dir> <change-dir>");
        return 2;
    };
    let loaded =
        load_bounds().and_then(|b| Ok((b, load_sets(parent_dir)?, load_sets(change_dir)?)));
    let (bounds, parent, change) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cmp-benchmark compare: {e}");
            return 2;
        }
    };
    let n = parent.len().min(change.len());
    if n == 0 {
        eprintln!("cmp-benchmark compare: need untraced sets (run-*.json) on both sides");
        return 2;
    }
    println!("{n} paired set(s); bounds from BENCHMARK.json");
    for w in Workload::ALL.map(Workload::name) {
        let mut cells = Vec::new();
        for b in &bounds {
            let side = |sets: &[Json]| -> Option<Vec<f64>> {
                sets[..n].iter().map(|s| value(s, w, &b.name)).collect()
            };
            let (Some(p), Some(c)) = (side(&parent), side(&change)) else { continue };
            let v = verdict(&p, &c, b.lower_is_better, b.bound);
            let (pm, cm) = (median(&p).unwrap_or(f64::NAN), median(&c).unwrap_or(f64::NAN));
            cells.push(format!("{}: {v:?} ({pm:.4} -> {cm:.4})", b.name).to_lowercase());
        }
        if !cells.is_empty() {
            println!("{w:<15} | {}", cells.join(" | "));
        }
    }
    0
}

/// After a traced run, prints how its timed loop compares with the
/// untraced run of the same workload and seed (if one was made): the
/// cost of tracing itself.
pub fn print_tracing_overhead(workload: &str, seed: u64) {
    let file = |mode: &str| {
        load_json(&Path::new(OUT_DIR).join(format!("{workload}-seed{seed}-{mode}.json")))
    };
    let (Ok(plain), Ok(traced)) = (file("run"), file("trace")) else { return };
    for metric in ["op_ms.p50", "ops_per_s"] {
        let untraced =
            plain.get("metrics").and_then(|m| m.get(metric)).and_then(|v| v.get("value"));
        let with = traced.get("extras").and_then(|m| m.get(metric)).and_then(|v| v.get("value"));
        if let (Some(a), Some(b)) = (untraced.and_then(Json::as_f64), with.and_then(Json::as_f64)) {
            println!(
                "{workload:<15} tracing overhead on {metric}: {a:.4} -> {b:.4} ({:+.2}%)",
                (b - a) / a * 100.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.2).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(verdict(&parent, &faster, true, 0.05), Verdict::Improved);
        assert_eq!(verdict(&parent, &slower, true, 0.05), Verdict::Worse);
        assert_eq!(verdict(&parent, &same, true, 0.05), Verdict::Unchanged);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&parent, &faster, false, 0.05), Verdict::Worse);
        // A consistent regression inside a wide bound is still worse.
        let a_bit_slower: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(verdict(&parent, &a_bit_slower, true, 0.25), Verdict::Worse);
        // A parent spread wider than the bound cannot call "unchanged".
        let noisy: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 80.0 } else { 120.0 }).collect();
        let mixed: Vec<f64> = noisy.iter().rev().copied().collect();
        assert_eq!(verdict(&noisy, &mixed, true, 0.05), Verdict::Unresolved);
    }
}
