//! Error type for the experiment runner.
//!
//! The original runner entry points panicked on unknown workload,
//! mix, or organization names. Batch experiment drivers (and the
//! replay path, which parses artifacts produced elsewhere) need to
//! surface those conditions instead of tearing the process down, so
//! the workload constructors they call (`try_multithreaded_workload`,
//! `try_mix_workload`, `workload_by_name`) return [`SimError`].

use std::fmt;

/// Errors the fallible runner entry points can return.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The multithreaded-workload name is not one of Table 3's.
    UnknownWorkload(String),
    /// The mix name is not one of Table 2's.
    UnknownMix(String),
    /// The organization name does not resolve to an
    /// [`crate::OrgKind`].
    UnknownOrg(String),
    /// A sweep job exhausted its retry budget and was quarantined;
    /// `pair` names the (workload, organization) pair, `cause` the
    /// last per-attempt failure (panic payload, timeout, ...).
    JobFailed {
        /// `workload/org` display key of the quarantined pair.
        pair: String,
        /// Human-readable cause of the final failed attempt.
        cause: String,
    },
    /// The sweep checkpoint journal could not be opened, parsed, or
    /// appended to (I/O failure, config mismatch, stale contents).
    Journal(String),
    /// A benchmark/report artifact (e.g. `BENCH_*.json`) could not be
    /// written. Binaries exit nonzero on this instead of warning, so
    /// CI artifact uploads cannot silently miss the file.
    Report {
        /// Path of the artifact that failed to write.
        path: String,
        /// Underlying I/O failure.
        cause: String,
    },
    /// A serving-layer request failed validation. Carries field-level
    /// context so the JSON error response can name the offending key
    /// and the shape it expected.
    InvalidRequest {
        /// The request field that failed validation (`"org"`,
        /// `"zipf-exponent"`, or `"request"` for whole-line failures
        /// such as truncated JSON or an oversized line).
        field: String,
        /// Human-readable description of the accepted shape.
        expected: String,
        /// The offending value as received (possibly truncated).
        got: String,
    },
    /// Admission control refused the job: the bounded queue was full
    /// or the service was draining. The work was never started.
    Shed {
        /// Why the job was refused (`"queue full"`, `"draining"`).
        reason: String,
    },
    /// The request's deadline expired before a result was produced;
    /// any in-flight attempt was cancellation-fenced, so no partial
    /// result escapes.
    DeadlineExpired {
        /// `workload/org` display key of the expired job.
        pair: String,
    },
    /// The workload cannot honor the requested core count (the Table 2
    /// mixes are defined as exactly one application per core over four
    /// applications). Returned instead of silently running a
    /// different machine.
    UnsupportedCores {
        /// The workload that was asked for.
        workload: String,
        /// The core count it cannot honor.
        cores: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownWorkload(name) => {
                write!(f, "unknown multithreaded workload {name:?}")
            }
            SimError::UnknownMix(name) => write!(f, "unknown mix {name:?}"),
            SimError::UnknownOrg(name) => write!(f, "unknown organization {name:?}"),
            SimError::JobFailed { pair, cause } => {
                write!(f, "sweep job {pair} failed after retries: {cause}")
            }
            SimError::Journal(msg) => write!(f, "sweep journal: {msg}"),
            SimError::Report { path, cause } => {
                write!(f, "cannot write report {path}: {cause}")
            }
            SimError::InvalidRequest { field, expected, got } => {
                write!(f, "invalid request field {field:?}: expected {expected}, got {got:?}")
            }
            SimError::Shed { reason } => write!(f, "request shed: {reason}"),
            SimError::DeadlineExpired { pair } => {
                write!(f, "deadline expired for {pair}")
            }
            SimError::UnsupportedCores { workload, cores } => {
                write!(f, "workload {workload:?} cannot run at {cores} cores")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let e = SimError::UnknownWorkload("tpch".into());
        assert_eq!(e.to_string(), "unknown multithreaded workload \"tpch\"");
        let e = SimError::UnknownMix("MIX9".into());
        assert_eq!(e.to_string(), "unknown mix \"MIX9\"");
        let e = SimError::UnknownOrg("l4".into());
        assert_eq!(e.to_string(), "unknown organization \"l4\"");
        let e = SimError::JobFailed { pair: "oltp/shared".into(), cause: "panicked: boom".into() };
        assert_eq!(e.to_string(), "sweep job oltp/shared failed after retries: panicked: boom");
        let e = SimError::Journal("config mismatch".into());
        assert_eq!(e.to_string(), "sweep journal: config mismatch");
        let e = SimError::Report { path: "BENCH_obs.json".into(), cause: "disk full".into() };
        assert_eq!(e.to_string(), "cannot write report BENCH_obs.json: disk full");
        let e = SimError::InvalidRequest {
            field: "org".into(),
            expected: "a known organization name".into(),
            got: "l4".into(),
        };
        assert_eq!(
            e.to_string(),
            "invalid request field \"org\": expected a known organization name, got \"l4\""
        );
        let e = SimError::Shed { reason: "queue full".into() };
        assert_eq!(e.to_string(), "request shed: queue full");
        let e = SimError::DeadlineExpired { pair: "oltp/shared".into() };
        assert_eq!(e.to_string(), "deadline expired for oltp/shared");
        let e = SimError::UnsupportedCores { workload: "MIX1".into(), cores: 8 };
        assert_eq!(e.to_string(), "workload \"MIX1\" cannot run at 8 cores");
    }
}
