//! The `repro` binary: its subcommands are exactly
//! [`figures::ENTRIES`], and each prints its entry's renderer output
//! byte for byte. Also checks the Table 1 and Table 2 blocks of
//! EXPERIMENTS.md against their renderers.

use std::process::{Command, Output};

use cmp_bench::{figures, Lab};
use cmp_sim::RunConfig;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove(cmp_bench::JOURNAL_ENV)
        .env_remove("CMP_OBS")
        .output()
        .expect("spawn repro")
}

#[test]
fn unknown_subcommand_exits_2_listing_every_entry() {
    for args in [&["fig4"][..], &[]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
        let usage = String::from_utf8(out.stderr).unwrap();
        assert!(usage.contains("all"), "{usage}");
        for e in figures::ENTRIES {
            assert!(usage.contains(e.name), "usage misses {}: {usage}", e.name);
        }
    }
}

#[test]
fn table1_prints_the_table() {
    let out = repro(&["table1"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap(), figures::table1());
}

#[test]
fn fig5_prints_the_figure_at_the_requested_sizing() {
    let out = repro(&["fig5", "600"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut lab = Lab::new(RunConfig::sized(300, 600, RunConfig::paper().seed));
    assert_eq!(String::from_utf8(out.stdout).unwrap(), figures::fig5(&mut lab));
}

#[test]
fn the_summary_counts_lab_pairs_and_study_runs() {
    // Ablations divide 21 custom CMP-NuRAPID runs by 5 uniform-shared
    // catalog pairs.
    let out = repro(&["ablations", "600"]);
    assert!(out.status.success());
    let summary = String::from_utf8(out.stderr).unwrap();
    assert!(summary.contains("(5 simulation runs + 21 study runs, "), "{summary}");
}

#[test]
fn zero_sizing_is_a_usage_error() {
    // A run that measures nothing would print ratios of zero cycles.
    let out = repro(&["fig6", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let usage = String::from_utf8(out.stderr).unwrap();
    assert!(usage.contains("usage"), "{usage}");
}

/// The body of the first code block after `heading` in EXPERIMENTS.md.
fn experiments_block(heading: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let text = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    let section = &text[text.find(heading).unwrap_or_else(|| panic!("no {heading:?}"))..];
    let block = section.split("```").nth(1).expect("a code block");
    block.split_once('\n').expect("an info-string line").1.to_string()
}

#[test]
fn experiments_md_tables_match_their_renderers() {
    assert_eq!(experiments_block("## Table 1 "), figures::table1());
    assert_eq!(experiments_block("## Table 2 "), figures::table2());
}
