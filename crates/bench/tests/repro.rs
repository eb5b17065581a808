//! The `repro` binary: its subcommands are exactly
//! [`figures::ENTRIES`], and each prints its entry's renderer output
//! byte for byte.

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
        for (name, _, _) in figures::ENTRIES {
            assert!(usage.contains(name), "usage misses {name}: {usage}");
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
