//! One simulation job and the constructors the benchmark drives it
//! through: the workload generators and the L2 organizations, built
//! by the same public constructors the production run path uses.

use cmp_bench::WorkloadId;
use cmp_cache::{CacheOrg, Cnuca, Dnuca, PrivateMesi, Snuca, UniformShared};
use cmp_latency::LatencyBook;
use cmp_nurapid::{CmpNurapid, NurapidConfig};
use cmp_sim::{try_multithreaded_workload, OrgKind, RunConfig};
use cmp_trace::{MixWorkload, TraceSource};

/// A (workload, organization, run configuration) triple: the unit the
/// labs memoize and the serve layer answers.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub id: WorkloadId,
    pub org: OrgKind,
    pub cfg: RunConfig,
}

/// A computation generic over the concrete workload type, handed a
/// constructor of fresh generators.
pub trait WorkloadFn {
    type Out;
    fn call<W: TraceSource>(self, make: &dyn Fn() -> W) -> Self::Out;
}

/// A computation generic over the concrete organization type, handed
/// a constructor of fresh, empty organizations.
pub trait OrgFn {
    type Out;
    fn call<O: CacheOrg>(self, make: &dyn Fn() -> O) -> Self::Out;
}

impl Job {
    /// `workload/org`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.id.name(), self.org.name())
    }

    /// The configuration the simulation actually uses: a spec's own
    /// sizing, seed and stop rule override the job's.
    pub fn run_config(&self) -> RunConfig {
        match self.id {
            WorkloadId::Spec(s) => s.spec.run_config(&self.cfg),
            _ => self.cfg,
        }
    }

    /// The machine: its latency book (which fixes the core count) and
    /// total L2 bytes.
    pub fn machine(&self) -> (LatencyBook, usize) {
        match self.id {
            WorkloadId::Spec(s) => (s.spec.book(), s.spec.l2_bytes()),
            _ => (LatencyBook::paper(), cmp_mem::L2_TOTAL_BYTES),
        }
    }

    pub fn cores(&self) -> usize {
        match self.id {
            WorkloadId::Spec(s) => s.spec.cores,
            _ => cmp_mem::PAPER_CORES,
        }
    }

    /// References a fixed-budget run simulates over all cores, warm-up
    /// included, given its measured `accesses`. The run stops when the
    /// first core reaches its target, so this is exact to within a
    /// reference per core.
    pub fn refs(&self, measured_accesses: u64) -> u64 {
        self.cores() as u64 * self.run_config().warmup_accesses + measured_accesses
    }

    /// Runs `f` with a constructor of this job's workload generator:
    /// the concrete type the lab's run path builds.
    pub fn with_workload<F: WorkloadFn>(&self, f: F) -> F::Out {
        let seed = self.run_config().seed;
        match self.id {
            WorkloadId::Multithreaded(name) => {
                f.call(&|| try_multithreaded_workload(name, seed).expect("catalog workload name"))
            }
            WorkloadId::Mix(name) => {
                f.call(&|| MixWorkload::table2(name, seed).expect("catalog mix name"))
            }
            WorkloadId::Spec(s) => f.call(&|| s.spec.workload(seed)),
        }
    }
}

/// Runs `f` with a constructor of `kind` sized for the machine,
/// through the public sized constructors and with the same NuRAPID
/// d-group sizing as `cmp_sim::run_workload_mono_with`, so each org is
/// a concrete type and its calls monomorphize as in production.
pub fn with_org<F: OrgFn>(kind: OrgKind, book: &LatencyBook, l2_bytes: usize, f: F) -> F::Out {
    let nurapid = |base: NurapidConfig| {
        CmpNurapid::new(NurapidConfig {
            cores: book.cores(),
            dgroup_bytes: l2_bytes / book.cores().next_power_of_two(),
            latencies: book.clone(),
            ..base
        })
    };
    match kind {
        OrgKind::Shared => f.call(&|| UniformShared::sized_shared(book, l2_bytes)),
        OrgKind::Private => f.call(&|| PrivateMesi::sized(book, l2_bytes)),
        OrgKind::Snuca => f.call(&|| Snuca::sized(book, l2_bytes)),
        OrgKind::Dnuca => f.call(&|| Dnuca::sized(book, l2_bytes)),
        OrgKind::Ideal => f.call(&|| UniformShared::sized_ideal(book, l2_bytes)),
        OrgKind::Nurapid => f.call(&|| nurapid(NurapidConfig::paper())),
        OrgKind::NurapidCrOnly => f.call(&|| nurapid(NurapidConfig::paper_cr_only())),
        OrgKind::NurapidIscOnly => f.call(&|| nurapid(NurapidConfig::paper_isc_only())),
        OrgKind::Cnuca => f.call(&|| Cnuca::sized(book, l2_bytes)),
    }
}
