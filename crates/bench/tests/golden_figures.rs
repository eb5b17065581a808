//! Golden-figure regression suite.
//!
//! Every figure/table series produced by the seed-default
//! [`RunConfig`] is snapshotted under `tests/goldens/*.json`. The
//! harness recomputes each series (prefetching the whole sweep
//! through the parallel lab) and compares against the snapshot with
//! per-metric tolerances: sample counts must match exactly, every
//! other metric within a tight relative tolerance. The simulator is
//! fully deterministic, so any drift is a real behavioural change —
//! inspect it, and if intended regenerate the fixtures with
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p cmp-bench --test golden_figures
//! ```

use std::path::PathBuf;

use cmp_bench::{figures, Json, Lab, ResultSource};
use cmp_sim::RunConfig;

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("goldens")
}

/// Per-metric tolerance, keyed on the metric-name suffix: sample
/// counts (`.../n`) are integral and must match exactly; fractions
/// and ratios get a relative tolerance far below the text renderers'
/// display precision but above any conceivable float-noise floor.
fn tolerance(key: &str) -> f64 {
    if key.ends_with("/n") {
        0.0
    } else {
        1e-9
    }
}

fn within(key: &str, golden: f64, current: f64) -> bool {
    let tol = tolerance(key);
    (current - golden).abs() <= tol * golden.abs().max(1.0)
}

use figures::series::golden_json;

#[test]
fn golden_figures_match() {
    let cfg = RunConfig::default();
    let update = std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1");
    let mut lab = Lab::new(cfg);
    // One batch for the whole sweep: everything lands on the pool.
    lab.prefetch(&figures::pairs::all()).expect("sweep must simulate");

    let mut failures: Vec<String> = Vec::new();
    for (name, _, extract) in figures::series::catalog() {
        let series = extract(&mut lab);
        let current = golden_json(name, lab.config(), &series);
        let path = goldens_dir().join(format!("{name}.json"));
        if update {
            std::fs::write(&path, format!("{current}\n"))
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {}: {e}\nregenerate with UPDATE_GOLDENS=1 cargo test \
                 -p cmp-bench --test golden_figures",
                path.display()
            )
        });
        let golden = Json::parse(&text)
            .unwrap_or_else(|e| panic!("unparseable golden {}: {e}", path.display()));

        // The snapshot is only comparable at the configuration it was
        // taken with.
        if golden.get("config") != current.get("config") {
            failures.push(format!(
                "{name}: golden config {:?} != current default {:?} (regenerate goldens)",
                golden.get("config"),
                current.get("config")
            ));
            continue;
        }

        let golden_series = golden
            .get("series")
            .and_then(Json::fields)
            .unwrap_or_else(|| panic!("golden {name} has no series object"));
        // Key sets must match exactly, in order (the series order is
        // part of the figure's shape).
        let golden_keys: Vec<&str> = golden_series.iter().map(|(k, _)| k.as_str()).collect();
        let current_keys: Vec<&str> = series.iter().map(|(k, _)| k.as_str()).collect();
        if golden_keys != current_keys {
            failures.push(format!(
                "{name}: series keys changed (golden {} vs current {})",
                golden_keys.len(),
                current_keys.len()
            ));
            continue;
        }
        for ((key, value), (_, golden_value)) in series.iter().zip(golden_series) {
            let golden_value = golden_value
                .as_f64()
                .unwrap_or_else(|| panic!("golden {name}/{key} is not a number"));
            if !within(key, golden_value, *value) {
                failures.push(format!(
                    "{name}/{key}: golden {golden_value} vs current {value} \
                     (tolerance {})",
                    tolerance(key)
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "golden-figure regressions ({}):\n  {}\nIf the change is intended, regenerate with \
         UPDATE_GOLDENS=1 cargo test -p cmp-bench --test golden_figures",
        failures.len(),
        failures.join("\n  ")
    );
}

#[test]
fn goldens_exist_for_every_catalogued_figure() {
    for (name, _, _) in figures::series::catalog() {
        let path = goldens_dir().join(format!("{name}.json"));
        assert!(
            path.exists() || std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1"),
            "no golden committed for {name} ({})",
            path.display()
        );
    }
}
