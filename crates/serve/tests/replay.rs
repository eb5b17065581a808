//! Replay lines round-trip: the `run` request `shard::request_line`
//! builds for a pair — the replay artifact of a quarantined job —
//! parses back to the same pair and run configuration, and serving it
//! reproduces the lab's result.

use cmp_bench::journal::run_result_to_json;
use cmp_bench::shard::request_line;
use cmp_bench::{Lab, ResultSource};
use cmp_serve::{parse_line, JobSpec, Request, ServeOptions, Service};
use cmp_sim::RunConfig;

const MAX_LINE: usize = 65_536;

fn defaults() -> RunConfig {
    RunConfig::sized(200, 400, 7)
}

fn job(line: &str) -> JobSpec {
    match parse_line(line, defaults(), MAX_LINE) {
        Ok(Request::Jobs(mut jobs)) if jobs.len() == 1 => jobs.remove(0),
        other => panic!("{line} is not one run job: {other:?}"),
    }
}

#[test]
fn replay_lines_parse_back_to_the_same_pair_and_config() {
    for original in [
        r#"{"type":"run","workload":"oltp","org":"nurapid","seed":9}"#,
        r#"{"type":"run","workload":"MIX2","org":"private","measure-accesses":700}"#,
        r#"{"type":"run","workload":"apache","org":"shared","approx":true,"metric":"ipc","rel-half-width":0.03,"confidence":0.9}"#,
        r#"{"type":"run","spec":{"name":"oltp","cores":16,"org":"cnuca","seed":4}}"#,
    ] {
        let want = job(original);
        let replay = request_line(0, want.pair, &want.cfg);
        let got = job(&replay);
        assert_eq!(got.pair, want.pair, "{original} -> {replay}");
        let sizing = |c: &RunConfig| (c.warmup_accesses, c.measure_accesses, c.seed);
        assert_eq!(sizing(&got.cfg), sizing(&want.cfg), "{original} -> {replay}");
        assert_eq!(got.cfg.stop, want.cfg.stop, "{original} -> {replay}");
    }
}

#[test]
fn a_served_replay_line_reproduces_the_lab_result() {
    let want = job(r#"{"type":"run","spec":{"name":"web8","cores":8,"base":"apache"}}"#);
    let mut svc = Service::new(ServeOptions::new(defaults()));
    svc.handle_line(&request_line(0, want.pair, &want.cfg));
    let responses = svc.process_ready();
    let served = responses[0].get("result").unwrap_or_else(|| panic!("{}", responses[0]));
    let mut lab = Lab::new(want.cfg);
    let expected = run_result_to_json(lab.try_result(want.pair.0, want.pair.1).unwrap());
    assert_eq!(served.compact(), expected.compact());
}
