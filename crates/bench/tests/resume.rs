//! Checkpoint/resume suite: a journaled sweep that is "killed"
//! mid-run — including mid-*write*, leaving a torn final record —
//! must resume with exactly the surviving records restored, simulate
//! only the remainder, and render figures byte-identical to an
//! uninterrupted run.
//!
//! The kill is simulated by truncating the journal file, which is
//! precisely the on-disk state a real `kill -9` leaves: a prefix of
//! fsync'd complete records, optionally followed by a partial line.

use std::collections::HashSet;
use std::io::Write as _;
use std::path::PathBuf;

use cmp_bench::{figures, Lab, Pair, ResultSource};
use cmp_sim::{RunConfig, RunResult};

fn tiny_cfg() -> RunConfig {
    RunConfig::sized(200, 400, 11)
}

fn temp_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("cmp-resume-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The batch under test: Figure 5's pairs (small enough for a tiny
/// config, big enough that a half-way kill leaves work on both sides).
fn batch() -> (Vec<Pair>, Vec<Pair>) {
    let submitted = figures::pairs::fig5();
    let mut seen = HashSet::new();
    let unique: Vec<Pair> = submitted.iter().copied().filter(|p| seen.insert(*p)).collect();
    (submitted, unique)
}

/// Reference: the uninterrupted, journal-free answer.
fn reference(submitted: &[Pair], unique: &[Pair]) -> (Vec<RunResult>, String) {
    let mut lab = Lab::with_threads(tiny_cfg(), 2);
    lab.prefetch(submitted).unwrap();
    let results = unique.iter().map(|&(w, k)| lab.result(w, k).clone()).collect();
    (results, figures::fig5(&mut lab))
}

/// Truncates the journal to its header plus `keep` complete records,
/// then (optionally) a torn half-record with no trailing newline.
fn kill_journal(path: &PathBuf, keep: usize, torn_tail: bool) {
    let text = std::fs::read_to_string(path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > keep + 1, "journal shorter than the kill point");
    let mut survived = lines[..=keep].join("\n");
    survived.push('\n');
    if torn_tail {
        let next = lines[keep + 1];
        survived.push_str(&next[..next.len() / 2]);
    }
    let mut f = std::fs::File::create(path).unwrap();
    f.write_all(survived.as_bytes()).unwrap();
}

/// Reopens a killed journal; a torn tail must be announced as
/// dropped, a clean cut must not be.
fn reopen_after_kill(path: &PathBuf, torn_tail: bool) -> Lab {
    let capture = cmp_obs::Capture::install();
    let lab = Lab::with_journal(tiny_cfg(), 2, path).unwrap();
    let journal = path.display().to_string();
    let warned = capture
        .lines()
        .iter()
        .any(|l| l.contains("sweep journal: dropping torn tail") && l.contains(&journal));
    assert_eq!(warned, torn_tail, "torn-tail warning: {:?}", capture.lines());
    lab
}

fn run_resume_scenario(name: &str, torn_tail: bool) {
    let (submitted, unique) = batch();
    let n = unique.len();
    let keep = n / 2;
    let (want_results, want_figure) = reference(&submitted, &unique);

    // First run: journaled, completes, then is "killed" after the
    // fact by truncating its journal to `keep` records.
    let path = temp_journal(name);
    {
        let mut first = Lab::with_journal(tiny_cfg(), 2, &path).unwrap();
        assert_eq!(first.restored(), 0, "fresh journal must restore nothing");
        first.prefetch(&submitted).unwrap();
        assert_eq!(first.simulations(), n);
    }
    kill_journal(&path, keep, torn_tail);

    // Resume: restore the survivors, simulate only the remainder.
    let mut resumed = reopen_after_kill(&path, torn_tail);
    assert_eq!(resumed.restored(), keep, "must restore exactly the intact records");
    resumed.prefetch(&submitted).unwrap();
    assert_eq!(resumed.simulations(), n - keep, "resume must re-simulate only the lost pairs");

    // The resumed lab's answers are bit-identical to the
    // uninterrupted run, pair by pair and figure byte by figure byte.
    for (&(w, k), want) in unique.iter().zip(&want_results) {
        assert_eq!(resumed.result(w, k), want, "{}/{}", w.name(), k.name());
    }
    assert_eq!(figures::fig5(&mut resumed), want_figure, "figure bytes diverged after resume");

    // And the journal healed: a third open restores all N records.
    drop(resumed);
    let third = Lab::with_journal(tiny_cfg(), 2, &path).unwrap();
    assert_eq!(third.restored(), n, "resumed run must have re-journaled the lost pairs");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_after_clean_kill_is_byte_identical() {
    run_resume_scenario("clean", false);
}

#[test]
fn resume_after_torn_final_record_is_byte_identical() {
    run_resume_scenario("torn", true);
}

/// Group commit (the sweep default, `CMP_JOURNAL_FSYNC_EVERY=8`)
/// changes the durability trade — a kill may cost the unsynced tail,
/// up to `fsync_every - 1` records — but must never change resume
/// semantics: whatever prefix survives on disk restores exactly, the
/// rest re-simulates, and the final answers are byte-identical to an
/// uninterrupted run. The kill here drops a whole unsynced group
/// (several trailing records) plus a torn half-record, the worst
/// on-disk state a group-committed crash can leave.
#[test]
fn resume_under_group_commit_is_byte_identical() {
    let (submitted, unique) = batch();
    let n = unique.len();
    // Keep fewer than a full group: the crash loses the entire
    // unsynced window, not just the record being written.
    assert!(n > 4, "batch too small to lose a group");
    let keep = n - 4;
    let (want_results, want_figure) = reference(&submitted, &unique);

    let path = temp_journal("group-commit");
    {
        let mut first = Lab::with_journal(tiny_cfg(), 2, &path).unwrap();
        first.set_journal_fsync_every(8);
        first.prefetch(&submitted).unwrap();
        assert_eq!(first.simulations(), n);
    }
    kill_journal(&path, keep, true);

    let mut resumed = reopen_after_kill(&path, true);
    resumed.set_journal_fsync_every(8);
    assert_eq!(resumed.restored(), keep, "must restore exactly the synced prefix");
    resumed.prefetch(&submitted).unwrap();
    assert_eq!(resumed.simulations(), n - keep, "resume must re-simulate only the lost group");

    for (&(w, k), want) in unique.iter().zip(&want_results) {
        assert_eq!(resumed.result(w, k), want, "{}/{}", w.name(), k.name());
    }
    assert_eq!(figures::fig5(&mut resumed), want_figure, "figure bytes diverged after resume");

    // The healed journal is complete even though the resumed run also
    // group-committed: the batch-end sync (and Drop) flush the tail.
    drop(resumed);
    let third = Lab::with_journal(tiny_cfg(), 2, &path).unwrap();
    assert_eq!(third.restored(), n, "group-committed resume must re-journal the lost pairs");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn on_demand_lookups_are_journaled_too() {
    let path = temp_journal("on-demand");
    let (w, k) = figures::pairs::fig5()[0];
    {
        let mut lab = Lab::with_journal(tiny_cfg(), 2, &path).unwrap();
        lab.try_result(w, k).unwrap();
    }
    let mut lab = Lab::with_journal(tiny_cfg(), 2, &path).unwrap();
    assert_eq!(lab.restored(), 1, "single sequential lookups must checkpoint as well");
    lab.try_result(w, k).unwrap();
    assert_eq!(lab.simulations(), 0);
    let _ = std::fs::remove_file(&path);
}
