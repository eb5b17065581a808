//! `cmp-benchmark`: the repository's end-to-end benchmark and its
//! outside-in layer ledger. See README.md for the workloads, metrics
//! and commands.
//!
//! ```text
//! cmp-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! cmp-benchmark run [--trace] [--smoke] [--seed N] [--seconds S] [--workload <name>]...
//! cmp-benchmark compare <parent-dir> <change-dir>
//! ```

mod compare;
mod host;
mod job;
mod ledger;
mod report;
mod serve;
mod stats;
mod workloads;

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use cmp_bench::Json;

use crate::workloads::{Opts, Workload, DEFAULT_SEED};

/// Length of the timed loop when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;
/// Timed-loop length under `--smoke`.
const SMOKE_SECONDS: f64 = 0.5;

fn usage() -> i32 {
    eprintln!(
        "usage: cmp-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      cmp-benchmark run [--trace] [--smoke] [--seed N] [--seconds S] [--workload <name>]...\n\
         \x20      cmp-benchmark compare <parent-dir> <change-dir>\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    2
}

/// Parsed command-line options shared by the subcommands.
struct Args {
    workloads: Vec<Workload>,
    opts: Opts,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        opts: Opts { seed: DEFAULT_SEED, seconds: DEFAULT_SECONDS, trace: false, smoke: false },
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w = Workload::from_name(name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                parsed.workloads.push(w);
            }
            "--seed" => {
                let v = value("--seed")?;
                parsed.opts.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {v} outside (0, 3600]"));
                }
                parsed.opts.seconds = s;
            }
            // `--trace 0|1` (one workload) or a bare `--trace` (`run`).
            "--trace" => {
                parsed.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => parsed.opts.smoke = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if parsed.opts.smoke {
        parsed.opts.seconds = parsed.opts.seconds.min(SMOKE_SECONDS);
    }
    Ok(parsed)
}

/// Measures one workload in this process and prints its result line
/// last.
fn measure(args: &Args) -> i32 {
    let [w] = args.workloads[..] else {
        eprintln!("cmp-benchmark: name exactly one --workload");
        return usage();
    };
    let opts = &args.opts;
    let outcome = match w {
        Workload::ServeClosed => serve::measure(opts),
        sim => workloads::measure_sim(sim, opts),
    };
    match outcome {
        Ok(outcome) => {
            let line = outcome.report(w.name(), opts.seed, opts.trace);
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("cmp-benchmark: {}: {e}", w.name());
            1
        }
    }
}

/// Runs each workload in a fresh child process, echoes its lines, and
/// writes the set of result lines to `target/benchmark/sets/`.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cmp-benchmark: current_exe: {e}");
            return 1;
        }
    };
    let workloads =
        if args.workloads.is_empty() { Workload::ALL.to_vec() } else { args.workloads.clone() };
    let opts = &args.opts;
    let mode = if opts.trace { "trace" } else { "run" };
    let mut set = Json::obj();
    set.set("mode", Json::Str(mode.into()));
    set.set("seed", Json::Num(opts.seed as f64));
    set.set("seconds", Json::Num(opts.seconds));
    set.set("smoke", Json::Bool(opts.smoke));
    let mut results = Json::obj();
    let mut ok = true;
    for w in workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &opts.seed.to_string()]).args([
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            if opts.trace { "1" } else { "0" },
        ]);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let mut child = match cmd.stdout(Stdio::piped()).stderr(Stdio::inherit()).spawn() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cmp-benchmark: spawn {}: {e}", w.name());
                return 1;
            }
        };
        let mut last = String::new();
        if let Some(out) = child.stdout.take() {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                if !last.is_empty() {
                    println!("{last}");
                }
                last = line;
            }
        }
        let status = child.wait();
        let result = Json::parse(&last).ok().filter(|_| status.as_ref().is_ok_and(|s| s.success()));
        match result {
            Some(r) => {
                ok &= r.get("correct") == Some(&Json::Bool(true));
                if opts.trace {
                    compare::print_tracing_overhead(w.name(), opts.seed);
                }
                results.set(w.name(), r);
            }
            None => {
                eprintln!("cmp-benchmark: {} produced no result ({status:?})", w.name());
                println!("{last}");
                ok = false;
            }
        }
    }
    set.set("workloads", results);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    if let Some(path) = report::write_out(&format!("sets/{mode}-{stamp}.json"), &set) {
        println!("set written to {}", path.display());
    }
    i32::from(!ok)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "setup-child")) => (c, &argv[1..]),
        Some("-h" | "--help") | None => std::process::exit(usage()),
        Some(_) => ("measure", &argv[..]),
    };
    if cmd == "compare" {
        std::process::exit(compare::main(rest));
    }
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cmp-benchmark: {e}");
            std::process::exit(usage());
        }
    };
    let code = match cmd {
        "run" => run_all(&args),
        "setup-child" => match args.workloads[..] {
            [w] => {
                println!(
                    "{}",
                    workloads::setup_child(w, args.opts.seed, args.opts.smoke).compact()
                );
                0
            }
            _ => usage(),
        },
        _ => measure(&args),
    };
    std::process::exit(code);
}
