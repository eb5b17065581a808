//! Crash-consistent checkpoint journal for sweep results.
//!
//! An append-only file of JSON lines (built on [`crate::json`], the
//! same dependency-free module the goldens use): line 1 is a header
//! binding the journal to one [`RunConfig`], every further line is
//! one completed `(pair, RunResult)` record, fsync'd as it is
//! written. A sweep that is killed mid-run therefore loses at most
//! the record being written; on reopen the journal
//!
//! * rejects a header whose config does not match (resuming a `quick`
//!   sweep against a `paper` journal would silently mix scales);
//! * replays every intact record into the caller's memo cache;
//! * detects a *torn tail* — a final record missing its newline, cut
//!   mid-byte, or failing to parse — truncates the file back to the
//!   last intact record, and continues appending from there.
//!
//! Records round-trip **losslessly**: every counter of a
//! [`RunResult`] (including the reuse histograms and per-transaction
//! bus counts, via the `raw_counts` accessors those types expose) is
//! stored as an exact integer well inside `f64`'s 2^53 range, and
//! [`Journal::append`] re-parses its own line and compares against
//! the original before trusting it — a resumed sweep renders figures
//! byte-identical to an uninterrupted one or fails loudly.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use cmp_coherence::BusStats;
use cmp_mem::ReuseHistogram;
use cmp_sim::{OrgKind, RunConfig, RunResult, SimError};

use crate::json::Json;
use crate::lab::{Pair, WorkloadId};

/// Environment variable naming the journal file the sweep binaries
/// checkpoint to and resume from (unset: no journaling).
pub const JOURNAL_ENV: &str = "CMP_SWEEP_JOURNAL";

/// Environment variable setting the group-commit interval: fsync once
/// every N appended records instead of after every one. Unset (or 1)
/// preserves the original per-record durability; the serving layer
/// defaults to batching because its hot path showed the per-record
/// fsync as a parallel-scaling contention point. A crash under
/// group-commit loses at most the last N-1 records — torn-tail
/// recovery on reopen is unchanged.
pub const FSYNC_EVERY_ENV: &str = "CMP_JOURNAL_FSYNC_EVERY";

/// The group-commit interval from [`FSYNC_EVERY_ENV`]: a positive
/// integer, warned about and defaulted to 1 (per-record fsync)
/// otherwise.
pub fn fsync_every_from_env() -> usize {
    fsync_every_from_env_or(1)
}

/// Like [`fsync_every_from_env`] but with a caller-chosen default for
/// when the variable is unset or invalid (clamped to at least 1).
pub fn fsync_every_from_env_or(default: usize) -> usize {
    cmp_obs::env_parse_valid::<usize>(FSYNC_EVERY_ENV, |n| *n >= 1).unwrap_or(default.max(1))
}

/// Default group-commit interval for the batch sweep paths
/// ([`crate::lab::Lab::with_journal`] and the services built
/// on it). Per-record fsync showed up as a parallel-scaling
/// bottleneck: the merge loop fsyncs on the caller's thread, so at
/// ~5 ms per fsync a 51-pair sweep spent more wall-clock committing
/// records than the workers saved. Batching amortizes that to one
/// fsync per `SWEEP_FSYNC_EVERY` records plus a final sync when the
/// batch completes; a crash loses at most the last
/// `SWEEP_FSYNC_EVERY - 1` records of an *unfinished* batch, which
/// resume simply re-simulates (torn-tail recovery is unchanged).
/// `CMP_JOURNAL_FSYNC_EVERY=1` restores per-record durability.
pub const SWEEP_FSYNC_EVERY: usize = 8;

/// Magic tag in the header line; bump on any format change.
const MAGIC: &str = "cmp-sweep-journal-v1";

/// `RunResult.org` is `&'static str` (it comes from
/// `CacheOrg::name()`); a journal record stores it as text and interns
/// it back through this table on load.
const ORG_NAMES: [&str; 7] = ["shared", "ideal", "private", "snuca", "dnuca", "nurapid", "cnuca"];

fn intern_org_name(name: &str) -> Option<&'static str> {
    ORG_NAMES.iter().find(|n| **n == name).copied()
}

/// Resolves a journal record's workload back to a [`WorkloadId`]
/// (whose name must be `&'static str`) via the crate's workload
/// tables.
fn intern_workload(kind: &str, name: &str) -> Option<WorkloadId> {
    match (kind, WorkloadId::from_catalog(name)) {
        // The kind tag must agree with the catalog: an `mt` record
        // naming a mix is rejected.
        ("mt", Some(id @ WorkloadId::Multithreaded(_)))
        | ("mix", Some(id @ WorkloadId::Mix(_))) => Some(id),
        // A spec record stores its canonical JSON as the name; it
        // re-parses back through the intern registry.
        ("spec", _) => crate::spec::intern_canonical(name).map(WorkloadId::Spec),
        _ => None,
    }
}

fn journal_err(msg: impl Into<String>) -> SimError {
    SimError::Journal(msg.into())
}

/// An open, append-position journal. Obtain one (plus the replayed
/// records) through [`Journal::open`].
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    records: usize,
    /// Group-commit interval: fsync once every this many written
    /// lines (1 = per-record durability, the default).
    fsync_every: usize,
    /// Lines written since the last fsync.
    unsynced: usize,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` for the given
    /// config and replays its intact records.
    ///
    /// Returns the journal positioned for appending plus every
    /// `(pair, result)` already completed, in append order. A torn
    /// tail is truncated away; a config mismatch or a semantically
    /// stale record (unknown workload/organization) is an error — the
    /// file holds real compute hours, so it is never silently
    /// clobbered.
    pub fn open(
        path: impl AsRef<Path>,
        cfg: &RunConfig,
    ) -> Result<(Journal, Vec<(Pair, RunResult)>), SimError> {
        let path = path.as_ref().to_path_buf();
        let data = match std::fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(journal_err(format!("read {}: {e}", path.display()))),
        };

        let mut restored = Vec::new();
        let mut good_end = 0usize;
        let mut offset = 0usize;
        let mut line_no = 0usize;
        while let Some(nl) = data[offset..].iter().position(|b| *b == b'\n') {
            let line = &data[offset..offset + nl];
            line_no += 1;
            let parsed = std::str::from_utf8(line).ok().and_then(|text| Json::parse(text).ok());
            let Some(value) = parsed else { break };
            if line_no == 1 {
                check_header(&value, cfg, &path)?;
            } else {
                restored.push(
                    record_from_json(&value).map_err(|e| {
                        journal_err(format!("{} line {line_no}: {e}", path.display()))
                    })?,
                );
            }
            offset += nl + 1;
            good_end = offset;
        }
        let torn = data.len() - good_end;
        static RESTORED: cmp_obs::Counter = cmp_obs::Counter::new("journal.restored");
        static TORN_TAILS: cmp_obs::Counter = cmp_obs::Counter::new("journal.torn_tails");
        RESTORED.add(restored.len() as u64);

        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false) // existing records are the whole point
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| journal_err(format!("open {}: {e}", path.display())))?;
        if torn > 0 {
            TORN_TAILS.inc();
            let journal = path.display().to_string();
            let intact = restored.len();
            cmp_obs::warn!(
                "sweep journal: dropping torn tail",
                journal = journal,
                torn_bytes = torn,
                intact_records = intact
            );
            file.set_len(good_end as u64)
                .map_err(|e| journal_err(format!("truncate {}: {e}", path.display())))?;
        }
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| journal_err(format!("seek {}: {e}", path.display())))?;
        let mut journal = Journal {
            path,
            file,
            records: restored.len(),
            fsync_every: fsync_every_from_env(),
            unsynced: 0,
        };
        if good_end == 0 {
            journal.write_line(&header_json(cfg))?;
        }
        Ok((journal, restored))
    }

    /// Overrides the group-commit interval (clamped to at least 1).
    /// The default comes from [`FSYNC_EVERY_ENV`] at open time.
    pub fn set_fsync_every(&mut self, every: usize) {
        self.fsync_every = every.max(1);
    }

    /// The active group-commit interval.
    pub fn fsync_every(&self) -> usize {
        self.fsync_every
    }

    /// Forces any buffered appends to disk now (group-commit mode);
    /// a no-op when nothing is pending.
    pub fn sync(&mut self) -> Result<(), SimError> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.file
            .sync_data()
            .map_err(|e| journal_err(format!("fsync {}: {e}", self.path.display())))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Appends one completed record and commits it according to the
    /// group-commit interval (fsync'd immediately at the default
    /// interval of 1), after verifying the line parses back to a
    /// bit-identical result (the round-trip guard).
    pub fn append(&mut self, pair: Pair, result: &RunResult) -> Result<(), SimError> {
        let value = record_to_json(pair, result);
        let (back_pair, back_result) = record_from_json(&value)
            .map_err(|e| journal_err(format!("record failed self-parse: {e}")))?;
        if back_pair != pair || &back_result != result {
            return Err(journal_err(format!(
                "record round-trip diverged for {}/{}",
                pair.0.name(),
                pair.1.name()
            )));
        }
        self.write_line(&value)?;
        self.records += 1;
        static APPENDS: cmp_obs::Counter = cmp_obs::Counter::new("journal.appends");
        APPENDS.inc();
        Ok(())
    }

    fn write_line(&mut self, value: &Json) -> Result<(), SimError> {
        let mut line = value.compact();
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| journal_err(format!("append to {}: {e}", self.path.display())))?;
        self.unsynced += 1;
        if self.unsynced >= self.fsync_every {
            self.file
                .sync_data()
                .map_err(|e| journal_err(format!("fsync {}: {e}", self.path.display())))?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Number of records currently persisted (restored + appended).
    pub fn records(&self) -> usize {
        self.records
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Journal {
    /// Best-effort final commit so a *graceful* close never leaves
    /// group-committed records unsynced; a crash can still lose up to
    /// `fsync_every - 1` records, which is the documented trade.
    fn drop(&mut self) {
        if self.unsynced > 0 {
            let _ = self.file.sync_data();
        }
    }
}

fn u(x: u64) -> Json {
    debug_assert!(x < (1u64 << 53), "counter exceeds f64 exact-integer range");
    Json::Num(x as f64)
}

fn header_json(cfg: &RunConfig) -> Json {
    let mut h = Json::obj();
    h.set("journal", Json::Str(MAGIC.into()));
    h.set("warmup_accesses", u(cfg.warmup_accesses));
    h.set("measure_accesses", u(cfg.measure_accesses));
    h.set("seed", u(cfg.seed));
    h.set("stop", Json::Str(cfg.stop.tag()));
    h
}

fn check_header(value: &Json, cfg: &RunConfig, path: &Path) -> Result<(), SimError> {
    let field = |key: &str| value.get(key).and_then(Json::as_f64);
    if value.get("journal").and_then(Json::as_str) != Some(MAGIC) {
        return Err(journal_err(format!("{}: not a {MAGIC} file", path.display())));
    }
    // Pre-approx journals carry no "stop" field; they were all exact.
    let stop = value
        .get("stop")
        .and_then(Json::as_str)
        .map(str::to_string)
        .unwrap_or_else(|| "fixed".into());
    let matches = field("warmup_accesses") == Some(cfg.warmup_accesses as f64)
        && field("measure_accesses") == Some(cfg.measure_accesses as f64)
        && field("seed") == Some(cfg.seed as f64)
        && stop == cfg.stop.tag();
    if !matches {
        return Err(journal_err(format!(
            "{}: config mismatch (journal was written for warmup={} measure={} seed={} stop={}; \
             delete the file or rerun with its config)",
            path.display(),
            field("warmup_accesses").unwrap_or(f64::NAN),
            field("measure_accesses").unwrap_or(f64::NAN),
            field("seed").unwrap_or(f64::NAN),
            stop,
        )));
    }
    Ok(())
}

/// Serializes one completed record (public for the resilience tests,
/// which assert on the wire format).
pub fn record_to_json(pair: Pair, result: &RunResult) -> Json {
    let mut record = Json::obj();
    let (kind, name) = match pair.0 {
        WorkloadId::Multithreaded(n) => ("mt", n),
        WorkloadId::Mix(n) => ("mix", n),
        WorkloadId::Spec(s) => ("spec", s.canon.as_str()),
    };
    record.set("kind", Json::Str(kind.into()));
    record.set("workload", Json::Str(name.into()));
    record.set("org", Json::Str(pair.1.name().into()));
    record.set("result", run_result_to_json(result));
    record
}

/// Deserializes one record line (public for the resilience tests).
pub fn record_from_json(value: &Json) -> Result<(Pair, RunResult), String> {
    let text = |key: &str| {
        value.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing field {key:?}"))
    };
    let kind = text("kind")?;
    let name = text("workload")?;
    let workload =
        intern_workload(kind, name).ok_or_else(|| format!("unknown workload {kind}:{name}"))?;
    let org_name = text("org")?;
    let org =
        OrgKind::from_name(org_name).ok_or_else(|| format!("unknown organization {org_name:?}"))?;
    let result = value.get("result").ok_or("missing field \"result\"")?;
    Ok(((workload, org), run_result_from_json(result)?))
}

fn stats_obj(fields: &[(&str, u64)]) -> Json {
    let mut obj = Json::obj();
    for (key, val) in fields {
        obj.set(key, u(*val));
    }
    obj
}

fn counts_arr(counts: [u64; 4]) -> Json {
    Json::Arr(counts.iter().map(|c| u(*c)).collect())
}

/// Serializes a [`RunResult`] losslessly (all counters exact).
pub fn run_result_to_json(r: &RunResult) -> Json {
    let mut root = Json::obj();
    root.set("workload", Json::Str(r.workload.clone()));
    root.set("org", Json::Str(r.org.into()));
    root.set("instructions", u(r.instructions));
    root.set("accesses", u(r.accesses));
    root.set("cycles", u(r.cycles));
    let mut l2 = stats_obj(&[
        ("hits_closest", r.l2.hits_closest),
        ("hits_farther", r.l2.hits_farther),
        ("miss_ros", r.l2.miss_ros),
        ("miss_rws", r.l2.miss_rws),
        ("miss_capacity", r.l2.miss_capacity),
        ("writebacks", r.l2.writebacks),
        ("l1_invalidations", r.l2.l1_invalidations),
        ("promotions", r.l2.promotions),
        ("demotions", r.l2.demotions),
        ("replications", r.l2.replications),
        ("pointer_transfers", r.l2.pointer_transfers),
        ("busrepl_invalidations", r.l2.busrepl_invalidations),
        ("evictions_shared", r.l2.evictions_shared),
        ("evictions_private", r.l2.evictions_private),
        ("c_collapses", r.l2.c_collapses),
    ]);
    l2.set("ros_reuse", counts_arr(r.l2.ros_reuse.raw_counts()));
    l2.set("rws_reuse", counts_arr(r.l2.rws_reuse.raw_counts()));
    root.set("l2", l2);
    for (key, l1) in [("l1", &r.l1), ("l1i", &r.l1i)] {
        root.set(
            key,
            stats_obj(&[
                ("hits", l1.hits),
                ("misses", l1.misses),
                ("store_forwards", l1.store_forwards),
                ("invalidations", l1.invalidations),
                ("writebacks", l1.writebacks),
            ]),
        );
    }
    root.set("l2_stall_cycles", u(r.l2_stall_cycles));
    let mut bus = Json::obj();
    bus.set("counts", counts_arr(r.bus.raw_counts()));
    bus.set("arbitration_wait", u(r.bus.arbitration_wait));
    root.set("bus", bus);
    root
}

fn get_u64(value: &Json, key: &str) -> Result<u64, String> {
    let n = value.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing {key:?}"))?;
    if n < 0.0 || n.fract() != 0.0 || n >= (1u64 << 53) as f64 {
        return Err(format!("{key:?} is not an exact u64: {n}"));
    }
    Ok(n as u64)
}

fn get_counts(value: &Json, key: &str) -> Result<[u64; 4], String> {
    let arr = match value.get(key) {
        Some(Json::Arr(items)) if items.len() == 4 => items,
        _ => return Err(format!("{key:?} is not a 4-element array")),
    };
    let mut out = [0u64; 4];
    for (slot, item) in out.iter_mut().zip(arr) {
        let n = item.as_f64().ok_or_else(|| format!("{key:?} holds a non-number"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("{key:?} holds a non-integer: {n}"));
        }
        *slot = n as u64;
    }
    Ok(out)
}

/// Deserializes a [`RunResult`] written by [`run_result_to_json`].
pub fn run_result_from_json(value: &Json) -> Result<RunResult, String> {
    let org_name =
        value.get("org").and_then(Json::as_str).ok_or_else(|| "missing \"org\"".to_string())?;
    let org = intern_org_name(org_name)
        .ok_or_else(|| format!("unknown result organization {org_name:?}"))?;
    let l2 = value.get("l2").ok_or("missing \"l2\"")?;
    let read_l1 = |key: &str| -> Result<cmp_sim::L1Stats, String> {
        let obj = value.get(key).ok_or_else(|| format!("missing {key:?}"))?;
        Ok(cmp_sim::L1Stats {
            hits: get_u64(obj, "hits")?,
            misses: get_u64(obj, "misses")?,
            store_forwards: get_u64(obj, "store_forwards")?,
            invalidations: get_u64(obj, "invalidations")?,
            writebacks: get_u64(obj, "writebacks")?,
        })
    };
    let bus = value.get("bus").ok_or("missing \"bus\"")?;
    Ok(RunResult {
        workload: value
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("missing \"workload\"")?
            .to_string(),
        org,
        instructions: get_u64(value, "instructions")?,
        accesses: get_u64(value, "accesses")?,
        cycles: get_u64(value, "cycles")?,
        l2: cmp_cache::OrgStats {
            hits_closest: get_u64(l2, "hits_closest")?,
            hits_farther: get_u64(l2, "hits_farther")?,
            miss_ros: get_u64(l2, "miss_ros")?,
            miss_rws: get_u64(l2, "miss_rws")?,
            miss_capacity: get_u64(l2, "miss_capacity")?,
            writebacks: get_u64(l2, "writebacks")?,
            l1_invalidations: get_u64(l2, "l1_invalidations")?,
            ros_reuse: ReuseHistogram::from_raw_counts(get_counts(l2, "ros_reuse")?),
            rws_reuse: ReuseHistogram::from_raw_counts(get_counts(l2, "rws_reuse")?),
            promotions: get_u64(l2, "promotions")?,
            demotions: get_u64(l2, "demotions")?,
            replications: get_u64(l2, "replications")?,
            pointer_transfers: get_u64(l2, "pointer_transfers")?,
            busrepl_invalidations: get_u64(l2, "busrepl_invalidations")?,
            evictions_shared: get_u64(l2, "evictions_shared")?,
            evictions_private: get_u64(l2, "evictions_private")?,
            c_collapses: get_u64(l2, "c_collapses")?,
        },
        l1: read_l1("l1")?,
        l1i: read_l1("l1i")?,
        l2_stall_cycles: get_u64(value, "l2_stall_cycles")?,
        bus: BusStats::from_raw_counts(
            get_counts(bus, "counts")?,
            get_u64(bus, "arbitration_wait")?,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_sim::{run_workload_mono, try_multithreaded_workload};

    fn tiny_cfg() -> RunConfig {
        RunConfig::sized(200, 400, 11)
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cmp_journal_{}_{name}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample() -> (Pair, RunResult) {
        let pair: Pair = (WorkloadId::Multithreaded("barnes"), OrgKind::Nurapid);
        let cfg = tiny_cfg();
        let barnes = try_multithreaded_workload("barnes", cfg.seed).unwrap();
        let r = run_workload_mono(barnes, OrgKind::Nurapid, &cfg);
        (pair, r)
    }

    #[test]
    fn run_result_roundtrips_bit_exactly() {
        let (_, r) = sample();
        let back = run_result_from_json(&run_result_to_json(&r)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn append_then_reopen_restores_records() {
        let path = tmp("reopen");
        let (pair, r) = sample();
        {
            let (mut j, restored) = Journal::open(&path, &tiny_cfg()).unwrap();
            assert!(restored.is_empty());
            j.append(pair, &r).unwrap();
            assert_eq!(j.records(), 1);
        }
        let (j, restored) = Journal::open(&path, &tiny_cfg()).unwrap();
        assert_eq!(j.records(), 1);
        assert_eq!(restored, vec![(pair, r)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn spec_records_roundtrip_through_reopen() {
        let path = tmp("spec");
        let spec = crate::ScenarioSpec::parse_str(
            r#"{"name": "j8", "cores": 8, "base": "ocean", "org": "cnuca",
                "warmup-accesses": 200, "measure-accesses": 400, "seed": 11}"#,
        )
        .unwrap();
        let interned = crate::spec::intern(&spec);
        let pair: Pair = (WorkloadId::Spec(interned), OrgKind::Cnuca);
        let r = spec.simulate(OrgKind::Cnuca, &tiny_cfg());
        {
            let (mut j, _) = Journal::open(&path, &tiny_cfg()).unwrap();
            j.append(pair, &r).unwrap();
        }
        let (_, restored) = Journal::open(&path, &tiny_cfg()).unwrap();
        assert_eq!(restored, vec![(pair, r)], "spec record re-interns to the same identity");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_kept() {
        let path = tmp("torn");
        let (pair, r) = sample();
        {
            let (mut j, _) = Journal::open(&path, &tiny_cfg()).unwrap();
            j.append(pair, &r).unwrap();
        }
        let intact = std::fs::read(&path).unwrap();
        // Simulate a crash mid-append: a second record cut mid-byte.
        let mut torn = intact.clone();
        let half: Vec<u8> = record_to_json(pair, &r).compact().bytes().take(40).collect();
        torn.extend_from_slice(&half);
        std::fs::write(&path, &torn).unwrap();

        let capture = cmp_obs::Capture::install();
        let (j, restored) = Journal::open(&path, &tiny_cfg()).unwrap();
        assert!(capture.contains("dropping torn tail"), "{:?}", capture.lines());
        drop(capture);
        assert_eq!(restored.len(), 1, "the intact record survives");
        assert_eq!(j.records(), 1);
        drop(j);
        assert_eq!(std::fs::read(&path).unwrap(), intact, "torn bytes were truncated away");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_keeps_records_and_recovers_torn_tails() {
        let path = tmp("group_commit");
        let (pair, r) = sample();
        {
            let (mut j, _) = Journal::open(&path, &tiny_cfg()).unwrap();
            j.set_fsync_every(8);
            assert_eq!(j.fsync_every(), 8);
            for _ in 0..3 {
                j.append(pair, &r).unwrap();
            }
            j.sync().unwrap();
            j.append(pair, &r).unwrap();
            // Drop commits the final unsynced record.
        }
        let (_, restored) = Journal::open(&path, &tiny_cfg()).unwrap();
        assert_eq!(restored.len(), 4, "group-committed records all survive a graceful close");

        // Torn-tail recovery is mode-independent: cut the last record
        // mid-byte and reopen under group-commit.
        let intact = std::fs::read(&path).unwrap();
        let mut torn = intact.clone();
        torn.extend_from_slice(&record_to_json(pair, &r).compact().as_bytes()[..25]);
        std::fs::write(&path, &torn).unwrap();
        let capture = cmp_obs::Capture::install();
        let (mut j, restored) = Journal::open(&path, &tiny_cfg()).unwrap();
        assert!(capture.contains("dropping torn tail"), "{:?}", capture.lines());
        drop(capture);
        j.set_fsync_every(4);
        assert_eq!(restored.len(), 4, "torn tail dropped, intact records kept");
        j.append(pair, &r).unwrap();
        drop(j);
        let (_, restored) = Journal::open(&path, &tiny_cfg()).unwrap();
        assert_eq!(restored.len(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_every_clamps_to_one() {
        let path = tmp("clamp");
        let (mut j, _) = Journal::open(&path, &tiny_cfg()).unwrap();
        j.set_fsync_every(0);
        assert_eq!(j.fsync_every(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_mismatch_is_refused() {
        let path = tmp("mismatch");
        let (pair, r) = sample();
        {
            let (mut j, _) = Journal::open(&path, &tiny_cfg()).unwrap();
            j.append(pair, &r).unwrap();
        }
        let other = RunConfig { seed: 999, ..tiny_cfg() };
        let err = Journal::open(&path, &other).unwrap_err();
        assert!(matches!(err, SimError::Journal(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_file_is_not_adopted() {
        let path = tmp("garbage");
        std::fs::write(&path, b"{\"journal\":\"something-else\"}\n").unwrap();
        let err = Journal::open(&path, &tiny_cfg()).unwrap_err();
        assert!(matches!(err, SimError::Journal(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_workload_names_error_instead_of_corrupting() {
        // An unknown name, and a catalog name under the wrong kind tag
        // (the sample is an `mt` record; MIX1 is a mix).
        for name in ["tpch", "MIX1"] {
            let path = tmp("stale");
            let (pair, r) = sample();
            let mut record = record_to_json(pair, &r);
            if let Json::Obj(fields) = &mut record {
                for (k, v) in fields.iter_mut() {
                    if k == "workload" {
                        *v = Json::Str(name.into());
                    }
                }
            }
            let header = header_json(&tiny_cfg()).compact();
            std::fs::write(&path, format!("{header}\n{}\n", record.compact())).unwrap();
            let err = Journal::open(&path, &tiny_cfg()).unwrap_err();
            assert!(matches!(err, SimError::Journal(_)), "{name}: {err}");
            let _ = std::fs::remove_file(&path);
        }
    }
}
