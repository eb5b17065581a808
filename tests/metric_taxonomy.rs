//! Docs-drift gate for the observability taxonomy: every counter,
//! histogram and span the workspace registers must be listed in
//! DESIGN.md's Observability table, and the table must list nothing
//! else.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The constructors that name a metric, with the kind the table gives.
const SITES: [(&str, &str); 3] =
    [("Counter::new(\"", "counter"), ("Histogram::new(\"", "histogram"), ("span!(\"", "span")];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(name, kind)` of every metric registered in `source`, up to its
/// `#[cfg(test)] mod` block. Comment lines are skipped, so doc
/// examples (`demo.*`) do not count.
fn registered_in(source: &str, out: &mut BTreeSet<(String, String)>) {
    let lines: Vec<&str> = source.lines().map(str::trim).collect();
    for (i, line) in lines.iter().enumerate() {
        if *line == "#[cfg(test)]"
            && lines[i + 1..].iter().find(|l| !l.is_empty()).is_some_and(|l| l.starts_with("mod "))
        {
            break;
        }
        if line.starts_with("//") {
            continue;
        }
        for (site, kind) in SITES {
            for (at, _) in line.match_indices(site) {
                let rest = &line[at + site.len()..];
                let name = &rest[..rest.find('"').expect("closing quote of a metric name")];
                out.insert((name.to_string(), kind.to_string()));
            }
        }
    }
}

/// `(name, kind)` of every row of the table in DESIGN.md's
/// Observability section whose first cell is a code span.
fn documented() -> BTreeSet<(String, String)> {
    let design = fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    let start = design.find("\n## Observability\n").expect("an Observability section");
    let section = &design[start + 1..];
    let section = &section[..section[1..].find("\n## ").map_or(section.len(), |e| e + 1)];
    section
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> =
                line.trim().strip_prefix('|')?.split('|').map(str::trim).collect();
            let name = cells.first()?.strip_prefix('`')?.strip_suffix('`')?;
            Some((name.to_string(), cells.get(1)?.to_string()))
        })
        .collect()
}

#[test]
fn design_md_documents_exactly_the_registered_metrics() {
    let mut files = Vec::new();
    for krate in fs::read_dir(root().join("crates")).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut registered = BTreeSet::new();
    for file in &files {
        registered_in(&fs::read_to_string(file).expect("readable source"), &mut registered);
    }
    assert!(registered.len() > 30, "the scan found only {registered:?}");
    let documented = documented();
    let missing: Vec<_> = registered.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&registered).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "DESIGN.md's Observability table is out of date.\n\
         registered but not documented: {missing:?}\n\
         documented but not registered: {stale:?}"
    );
}

#[test]
fn doc_examples_and_test_modules_are_not_registrations() {
    let source = r#"
//! static LOOKUPS: Counter = Counter::new("demo.lookups");
static REAL: Counter = Counter::new("area.real");
fn f() { let _span = cmp_obs::span!("area.phase"); }
#[cfg(test)]
pub(crate) fn helper() { static H: Histogram = Histogram::new("area.helper"); }

#[cfg(test)]
mod tests {
    static HITS: Counter = Counter::new("test.hits");
}
"#;
    let mut found = BTreeSet::new();
    registered_in(source, &mut found);
    let names: Vec<&str> = found.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["area.helper", "area.phase", "area.real"]);
}
