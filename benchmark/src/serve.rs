//! The `serve-closed` workload: the `cmp-serve` binary over TCP,
//! driven closed-loop by one client process.
//!
//! Each connection sends one request at a time and waits for its
//! answer. The request sequence is drawn from the seed: 60 % fresh
//! `run` requests (random workload, organization and seed, which
//! simulate and append to the journal), 30 % repeats of an earlier
//! request (memo hits) and 10 % fresh `approx` runs. The client writes
//! each line with one `write_all` on a `TCP_NODELAY` socket, so a
//! stall it measures is the server's.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cmp_bench::journal::run_result_from_json;
use cmp_bench::{Json, Lab, ResultSource, WorkloadId, MIXES, MULTITHREADED};
use cmp_mem::Rng;
use cmp_sim::{OrgKind, RunConfig, RunResult, StopMetric, StopRule};

use crate::host::Calibrator;
use crate::job::Job;
use crate::report::{peak_rss_mb, Checks, Metric, Outcome, Tracer};
use crate::stats::{median, percentile};
use crate::workloads::{self, Opts};

/// Requests per run at most; the run also ends when its time is up.
pub const MAX_REQUESTS: usize = 1000;
/// Fresh requests whose in-process counterparts the traced run
/// puts through the layer ledger.
const LEDGER_JOBS: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Fresh,
    Repeat,
    Approx,
}

/// One request of the seeded sequence.
#[derive(Clone, Debug)]
pub struct Request {
    pub class: Class,
    /// The request whose result this one must equal (itself unless a
    /// repeat).
    pub original: usize,
    pub job: Job,
    /// The NDJSON line, newline included.
    pub line: String,
}

/// The stop rule of an `"approx":true` request with no tuning fields.
fn approx_rule() -> StopRule {
    StopRule::Confidence { metric: StopMetric::MissRate, rel_half_width: 0.02, confidence: 0.95 }
}

fn render(i: usize, job: &Job) -> String {
    let approx = if job.cfg.stop.is_fixed() { "" } else { r#","approx":true"# };
    format!(
        "{{\"type\":\"run\",\"id\":\"r{i}\",\"workload\":\"{}\",\"org\":\"{}\",\"seed\":{}{approx}}}\n",
        job.id.name(),
        job.org.name(),
        job.cfg.seed
    )
}

/// The first `n` requests of the sequence for `seed`.
pub fn generate(seed: u64, n: usize) -> Vec<Request> {
    let workloads: Vec<WorkloadId> = MULTITHREADED
        .iter()
        .map(|w| WorkloadId::Multithreaded(w))
        .chain(MIXES.iter().map(|m| WorkloadId::Mix(m)))
        .collect();
    let mut rng = Rng::new(seed ^ 0x5E4E_C105);
    let mut out: Vec<Request> = Vec::with_capacity(n);
    for i in 0..n {
        let x = rng.gen_f64();
        if (0.6..0.9).contains(&x) && i > 0 {
            let original = out[rng.gen_index(i)].original;
            let job = out[original].job;
            out.push(Request { class: Class::Repeat, original, job, line: render(i, &job) });
            continue;
        }
        let class = if x >= 0.9 { Class::Approx } else { Class::Fresh };
        let id = workloads[rng.gen_index(workloads.len())];
        let org = OrgKind::ALL[rng.gen_index(OrgKind::ALL.len())];
        let stop = if class == Class::Approx { approx_rule() } else { StopRule::Fixed };
        let cfg = RunConfig { seed: rng.gen_range(1 << 32), stop, ..RunConfig::quick() };
        let job = Job { id, org, cfg };
        out.push(Request { class, original: i, job, line: render(i, &job) });
    }
    out
}

/// The first fresh requests as `(index, job)`: their in-process
/// counterparts go through the layer ledger in a traced run.
pub fn ledger_requests(seed: u64, smoke: bool) -> Vec<(usize, Job)> {
    let n = if smoke { 4 } else { LEDGER_JOBS };
    generate(seed, MAX_REQUESTS)
        .into_iter()
        .enumerate()
        .filter(|(_, r)| r.class != Class::Repeat)
        .take(n)
        .map(|(i, r)| (i, r.job))
        .collect()
}

/// A running `cmp-serve --tcp` child.
struct Server {
    child: Child,
    addr: SocketAddr,
}

fn serve_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("cmp-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} not found (build it with -p cmp-serve)", bin.display()))
    }
}

fn free_port() -> Result<u16, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    listener.local_addr().map(|a| a.port()).map_err(|e| format!("local_addr: {e}"))
}

/// One client connection, answered in order.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(resp)
    }
}

/// Spawns the server in `dir` and waits for its first `health`
/// reply; returns it with the time from spawn to that reply.
fn start_server(dir: &Path) -> Result<(Server, f64), String> {
    let bin = serve_binary()?;
    let mut last_err = String::new();
    // A free port can be taken between probing and binding; retry.
    for _ in 0..5 {
        let addr = SocketAddr::from(([127, 0, 0, 1], free_port()?));
        let stderr = std::fs::File::create(dir.join("stderr.log")).map_err(|e| e.to_string())?;
        let spawned = Instant::now();
        let mut child = Command::new(&bin)
            .args(["quick", "--tcp", &addr.to_string()])
            .env("CMP_SERVE_THREADS", "2")
            .env("CMP_SERVE_JOURNAL", dir.join("serve.jsonl"))
            .env_remove("CMP_OBS")
            .current_dir(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        loop {
            if let Ok(mut conn) = Conn::open(addr) {
                let reply = conn.round_trip("{\"type\":\"health\",\"id\":\"h\"}\n");
                let setup = spawned.elapsed().as_secs_f64();
                let healthy = reply
                    .as_deref()
                    .ok()
                    .and_then(|r| Json::parse(r.trim()).ok())
                    .is_some_and(|r| r.get("type").and_then(Json::as_str) == Some("health"));
                if healthy {
                    return Ok((Server { child, addr }, setup));
                }
                last_err = format!("bad health reply {reply:?}");
                stop_server(Server { child, addr });
                break;
            }
            if let Ok(Some(status)) = child.try_wait() {
                last_err = format!("cmp-serve exited early ({status})");
                break;
            }
            if spawned.elapsed() > Duration::from_secs(10) {
                last_err = "cmp-serve did not accept connections within 10 s".into();
                stop_server(Server { child, addr });
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    Err(last_err)
}

/// Closes the server's stdin (its drain signal) and waits for it,
/// killing it if it does not exit within ten seconds.
fn stop_server(mut server: Server) {
    drop(server.child.stdin.take());
    let waited = Instant::now();
    while waited.elapsed() < Duration::from_secs(10) {
        if let Ok(Some(_)) = server.child.try_wait() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = server.child.kill();
    let _ = server.child.wait();
}

/// One answered (or failed) request of the timed loop.
struct Record {
    index: usize,
    start: Instant,
    end: Instant,
    response: Result<String, String>,
}

impl Record {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Sends requests closed-loop on `conn` until the sequence or the
/// time runs out.
fn drive(
    conn: &mut Conn,
    requests: &[Request],
    next: &AtomicUsize,
    deadline: Instant,
) -> Vec<Record> {
    let mut records = Vec::new();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= requests.len() || Instant::now() >= deadline {
            return records;
        }
        let start = Instant::now();
        let response = conn.round_trip(&requests[index].line).map_err(|e| e.to_string());
        let failed = response.is_err();
        records.push(Record { index, start, end: Instant::now(), response });
        if failed {
            return records;
        }
    }
}

/// Parses a `result` response for request `index`.
fn parse_result(index: usize, response: &str) -> Result<(RunResult, bool), String> {
    let json = Json::parse(response.trim()).map_err(|e| format!("r{index}: bad JSON: {e}"))?;
    let kind = json.get("type").and_then(Json::as_str);
    let id = json.get("id").and_then(Json::as_str);
    if kind != Some("result") || id != Some(&format!("r{index}")) {
        return Err(format!("r{index}: expected a result, got {}", response.trim()));
    }
    let cached = json.get("cached") == Some(&Json::Bool(true));
    let result = json.get("result").ok_or_else(|| format!("r{index}: no result payload"))?;
    Ok((run_result_from_json(result).map_err(|e| format!("r{index}: {e}"))?, cached))
}

/// Runs the workload once: server set-ups, the timed loop, and the
/// served-versus-in-process checks.
pub fn measure(opts: &Opts) -> Result<Outcome, String> {
    let origin = Instant::now();
    let base = PathBuf::from(crate::report::OUT_DIR).join("tmp");
    let mut setups = Vec::new();
    let mut cal = Calibrator::new();
    for n in 0..opts.setup_repeats() {
        let dir = base.join(format!("serve-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        cal.sample();
        let started = start_server(&dir);
        let server = match started {
            Ok((server, setup)) => {
                setups.push(setup);
                server
            }
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(e);
            }
        };
        if n + 1 < opts.setup_repeats() {
            stop_server(server);
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        let measured = timed_loop(&server, opts);
        let peak = peak_rss_mb(Some(server.child.id()));
        stop_server(server);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(&base);
        return finish(opts, origin, (&setups, cal.speed()), measured?, peak);
    }
    Err("no set-up repeats".into())
}

struct Measured {
    requests: Vec<Request>,
    records: Vec<Record>,
    loop_start: Instant,
    loop_end: Instant,
}

fn timed_loop(server: &Server, opts: &Opts) -> Result<Measured, String> {
    let cap = if opts.smoke { 40 } else { MAX_REQUESTS };
    let requests = generate(opts.seed, cap);
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    let mut open = (0..conns)
        .map(|_| Conn::open(server.addr))
        .collect::<std::io::Result<Vec<Conn>>>()
        .map_err(|e| format!("connect {}: {e}", server.addr))?;
    let next = AtomicUsize::new(0);
    let loop_start = Instant::now();
    let deadline = loop_start + Duration::from_secs_f64(opts.seconds);
    let mut records = std::thread::scope(|s| {
        let (first, rest) = open.split_first_mut().expect("conns >= 1");
        let others: Vec<_> =
            rest.iter_mut().map(|c| s.spawn(|| drive(c, &requests, &next, deadline))).collect();
        let mut records = drive(first, &requests, &next, deadline);
        for h in others {
            records.extend(h.join().expect("client connection thread panicked"));
        }
        records
    });
    let loop_end = Instant::now();
    records.sort_by_key(|r| r.index);
    Ok(Measured { requests, records, loop_start, loop_end })
}

/// Checks and reports one run. `setups` holds the spawn-to-health
/// times and the host speed while they were taken.
fn finish(
    opts: &Opts,
    origin: Instant,
    (setups, setup_speed): (&[f64], f64),
    m: Measured,
    peak: Option<f64>,
) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut served: HashMap<usize, RunResult> = HashMap::new();
    let (mut hit_ms, mut miss_ms, mut approx_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut tracer = opts.trace.then(|| Tracer::new(origin));
    let root = tracer.as_mut().map(|t| t.record("serve.loop", None, m.loop_start, m.loop_end));
    let mut served_ms: HashMap<usize, f64> = HashMap::new();
    // Each request is one check: it must be answered with a result, and
    // a repeat with its original's result.
    for r in &m.records {
        let req = &m.requests[r.index];
        let parsed = r.response.clone().and_then(|resp| parse_result(r.index, &resp));
        let (result, cached) = match parsed {
            Ok(ok) => ok,
            Err(e) => {
                checks.expect(false, || e);
                continue;
            }
        };
        let (class, bucket) = match (cached, req.class) {
            (true, _) => ("hit", &mut hit_ms),
            (false, Class::Approx) => ("approx", &mut approx_ms),
            (false, _) => ("miss", &mut miss_ms),
        };
        bucket.push(r.ms());
        if let Some(t) = tracer.as_mut() {
            t.record(format!("serve.request.{class}"), root, r.start, r.end);
        }
        if !cached {
            served_ms.entry(req.original).or_insert(r.ms());
        }
        let same = match served.get(&req.original) {
            Some(first) => *first == result,
            None => {
                served.insert(req.original, result);
                true
            }
        };
        checks.expect(same, || {
            format!("r{}: repeat of r{} answered differently", r.index, req.original)
        });
    }
    // After the timed loop: every distinct served result must equal an
    // in-process lab result for the same pair, config and stop rule.
    let mut originals: Vec<usize> = served.keys().copied().collect();
    originals.sort_unstable();
    let locals = workloads::par_map(&originals, |&i| {
        let job = m.requests[i].job;
        let t = Instant::now();
        let local = Lab::new(job.cfg).try_result(job.id, job.org).cloned().ok();
        (local, t.elapsed().as_secs_f64() * 1e3)
    });
    let mut sim_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    for (&i, (local, ms)) in originals.iter().zip(locals) {
        let job = m.requests[i].job;
        if m.requests[i].class == Class::Fresh {
            sim_ms.push(ms);
            if let Some(served) = served_ms.get(&i) {
                overhead_ms.push(served - ms);
            }
        }
        checks.expect(local.as_ref() == served.get(&i), || {
            format!("r{i} ({}): served result differs from in-process", job.label())
        });
    }

    let all_ms: Vec<f64> = m.records.iter().map(Record::ms).collect();
    let wall = (m.loop_end - m.loop_start).as_secs_f64();
    let n = all_ms.len();
    let setup_s = median(setups).unwrap_or(f64::NAN);
    let mut e2e = vec![
        Metric::new("setup_s", "s", setup_s * setup_speed, setups.len()),
        Metric::new("op_ms.p50", "ms", median(&all_ms).unwrap_or(f64::NAN), n),
        Metric::new("ops_per_s", "1/s", n as f64 / wall, n),
        Metric::new("peak_rss_mb", "MiB", peak.unwrap_or(f64::NAN), 1),
    ];
    let mut extras = vec![
        Metric::new("setup_s.raw", "s", setup_s, setups.len()),
        Metric::new("host.speed", "ratio", setup_speed, setups.len()),
    ];
    for (p, name) in [(0.90, "op_ms.p90"), (0.99, "op_ms.p99")] {
        if let Some(v) = percentile(&all_ms, p) {
            extras.push(Metric::new(name, "ms", v, n));
        }
    }
    for (name, v) in [
        ("serve.hit_ms.p50", &hit_ms),
        ("serve.miss_ms.p50", &miss_ms),
        ("serve.approx_ms.p50", &approx_ms),
        ("serve.sim_ms.p50", &sim_ms),
        ("serve.overhead_ms.p50", &overhead_ms),
    ] {
        if let Some(med) = median(v) {
            extras.push(Metric::new(name, "ms", med, v.len()));
        }
    }
    extras.push(Metric::new("wall_s", "s", wall, 1));

    let metrics = if opts.trace {
        extras.splice(0..0, e2e.drain(..));
        let ledger = ledger_requests(opts.seed, opts.smoke);
        let jobs: Vec<Job> = ledger.iter().map(|&(_, job)| job).collect();
        let tracer = tracer.as_mut().expect("traced run");
        let runs = workloads::run_ledger(&jobs, &mut checks, tracer);
        let entry_ms: Vec<Option<f64>> =
            ledger.iter().map(|(i, _)| served_ms.get(i).copied()).collect();
        for ((i, _), run) in ledger.iter().zip(&runs) {
            if let Some(served) = served.get(i) {
                checks.expect(*served == run.result, || {
                    format!("r{i}: ledger live run differs from the served result")
                });
            }
        }
        let (ctors, _) = workloads::spawn_setups(workloads::Workload::ServeClosed, opts)?;
        let (layers, more) = workloads::layer_metrics(&runs, &entry_ms, &ctors);
        extras.extend(more);
        layers
    } else {
        e2e
    };
    Ok(Outcome { checks, metrics, extras, tracer })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seeded_mix_is_deterministic_and_near_60_30_10() {
        for seed in [1, 5578, 0xDEAD_BEEF] {
            let a = generate(seed, MAX_REQUESTS);
            let b = generate(seed, MAX_REQUESTS);
            let lines = |v: &[Request]| v.iter().map(|r| r.line.clone()).collect::<Vec<_>>();
            assert_eq!(lines(&a), lines(&b), "seed {seed}");
            let share = |c: Class| {
                a.iter().filter(|r| r.class == c).count() as f64 * 100.0 / a.len() as f64
            };
            for (class, target) in
                [(Class::Fresh, 60.0), (Class::Repeat, 30.0), (Class::Approx, 10.0)]
            {
                let got = share(class);
                assert!((got - target).abs() <= 3.0, "seed {seed} {class:?}: {got:.1}%");
            }
        }
        assert_ne!(generate(1, 50)[0].line, generate(2, 50)[0].line);
    }

    #[test]
    fn repeats_point_at_a_fresh_original_with_the_same_job() {
        let reqs = generate(9, 500);
        for (i, r) in reqs.iter().enumerate() {
            let orig = &reqs[r.original];
            assert!(r.original <= i && orig.class != Class::Repeat);
            let body = |line: &str, id: usize| line.replace(&format!("\"id\":\"r{id}\""), "");
            assert_eq!(body(&orig.line, r.original), body(&r.line, i));
            assert!(r.line.contains(&format!("\"id\":\"r{i}\"")));
        }
        let approx = reqs.iter().find(|r| r.class == Class::Approx).expect("some approx");
        assert!(approx.line.contains("\"approx\":true"));
    }

    #[test]
    fn a_failed_request_counts_once() {
        let mut requests = generate(3, 2);
        let job = Job { cfg: RunConfig::sized(200, 400, 7), ..requests[0].job };
        requests[0] = Request { class: Class::Fresh, original: 0, job, line: render(0, &job) };
        let result = Lab::new(job.cfg).try_result(job.id, job.org).cloned().expect("tiny run");
        let mut answer = Json::obj();
        answer.set("type", Json::Str("result".into()));
        answer.set("id", Json::Str("r0".into()));
        answer.set("result", cmp_bench::journal::run_result_to_json(&result));
        let t = Instant::now();
        let record = |index, response| Record { index, start: t, end: t, response };
        let m = Measured {
            requests,
            records: vec![record(0, Ok(answer.compact())), record(1, Err("reset".into()))],
            loop_start: t,
            loop_end: t,
        };
        let opts = Opts { seed: 3, seconds: 1.0, trace: false, smoke: true };
        let outcome = finish(&opts, t, (&[0.001], 1.0), m, None).expect("finish");
        // Two requests and one served-versus-in-process check.
        assert_eq!((outcome.attempted(), outcome.failed()), (3, 1));
        assert_eq!(outcome.fail_ratio(), 1.0 / 3.0);
    }
}
