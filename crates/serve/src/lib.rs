#![warn(missing_docs)]

//! Simulation-as-a-service over the experiment lab.
//!
//! `cmp-serve` turns the batch experiment harness into a long-lived
//! service: newline-delimited JSON requests in (stdin or a TCP
//! socket), newline-delimited JSON responses out, with the
//! robustness properties a shared endpoint needs layered on top of
//! the [`cmp_bench::Lab`] the CLI binaries already use:
//!
//! * bounded admission queue with explicit load shedding — overload
//!   answers with a structured `shed` response, never with unbounded
//!   memory;
//! * bounded TCP accept loop with the same contract ([`conn`]): a
//!   connection cap that sheds over-limit clients with a structured
//!   response, and a read/idle timeout that reclaims silent
//!   connections;
//! * concurrent front doors ([`SharedService`]): the service lock is
//!   held to admit, plan, commit and answer, never while simulating,
//!   so one connection's memo hit does not wait for another's miss;
//! * optional OS-process fault isolation for batches
//!   ([`cmp_bench::shard`], `CMP_SERVE_SHARD_WORKERS`): sweeps fan
//!   out to `cmp-shard-worker` processes a supervisor can `kill -9`
//!   and restart without losing the service;
//! * per-request deadlines propagated into the supervised pool's
//!   cancellation tokens, with timed-out work fenced so no partial
//!   result escapes;
//! * quarantine on first failure: a job whose worker panics or
//!   stalls is answered with a structured job-failed error carrying a
//!   one-line `replay` request that reproduces it;
//! * concurrent-duplicate coalescing through the lab's memo
//!   cache: N identical requests cost one simulation and produce N
//!   responses;
//! * crash-consistent per-shard checkpoint journaling with
//!   resume-on-restart, group-committed while serving;
//! * graceful drain: in-flight work finishes, queued work is shed
//!   with structured responses, journals are fsynced.
//!
//! Because the service and the CLI batch path share one
//! [`cmp_bench::Lab`], a result served here is
//! byte-identical to the same pair run by `repro` — the service's
//! chaos unit tests and the flood tests assert that equality on
//! serialized bytes.
//!
//! The wire format is documented in `DESIGN.md` ("Serving") and in
//! [`request`].

pub mod conn;
pub mod request;
pub mod service;

pub use conn::{accept_loop, ConnOptions};
pub use request::{error_response, parse_line, JobSpec, Request};
pub use service::{
    env, shard_journal_path, worker_binary, Caller, Planned, Ran, ServeOptions, ServeStats,
    Service, SharedService, MAX_OPEN_SHARDS,
};
