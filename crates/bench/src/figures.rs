//! One function per table/figure of the paper, and [`ENTRIES`], the
//! one list of every experiment the repository runs.
//!
//! Every function renders the measured results in the paper's layout
//! and, where the paper states numbers, appends them for comparison.
//! The functions return `String`s so the `repro` binary and
//! EXPERIMENTS.md generation share one code path; [`ENTRIES`] lists
//! them, and the studies of [`crate::studies`], with the pairs each
//! one needs and its golden series. They take a [`Lab`] and look
//! results up through it, so a figure renders the same bytes whether
//! its pairs were simulated on demand or prefetched across a worker
//! pool — the determinism suite compares the two byte for byte.
//!
//! Two sibling modules expose the figures' data without the text
//! layout: [`pairs`] names each figure's full (workload,
//! organization) set so batch drivers can prefetch it through
//! [`Lab::prefetch`] before rendering, and [`series`]
//! extracts each figure's numeric series for the golden-figure
//! regression suite.

use cmp_cache::AccessClass;
use cmp_latency::Table1;
use cmp_mem::{ReuseBucket, ReuseHistogram};
use cmp_sim::OrgKind;

use crate::lab::{Lab, Pair, ResultSource};
use crate::studies;
use crate::table::{pct, rel, TextTable};
use crate::{WorkloadId, COMMERCIAL, MIXES, MULTITHREADED};

fn mt(name: &'static str) -> WorkloadId {
    WorkloadId::Multithreaded(name)
}

fn mix(name: &'static str) -> WorkloadId {
    WorkloadId::Mix(name)
}

/// The figure's (workload, organization) pair sets, in rendering
/// order. Prefetching a figure's set through
/// [`Lab::prefetch`] before calling the renderer moves
/// every simulation onto the worker pool; the renderer then only
/// takes cache hits.
pub mod pairs {
    use super::*;

    fn cross(
        workloads: &[&'static str],
        id: fn(&'static str) -> WorkloadId,
        orgs: &[OrgKind],
    ) -> Vec<Pair> {
        workloads.iter().flat_map(|w| orgs.iter().map(move |&k| (id(w), k))).collect()
    }

    /// Figure 5: multithreaded workloads on shared and private.
    pub fn fig5() -> Vec<Pair> {
        cross(&MULTITHREADED, mt, &[OrgKind::Shared, OrgKind::Private])
    }

    /// Figure 6: the performance-opportunity organizations (plus the
    /// uniform-shared baseline every `relative` call divides by).
    pub fn fig6() -> Vec<Pair> {
        cross(
            &MULTITHREADED,
            mt,
            &[OrgKind::Shared, OrgKind::Snuca, OrgKind::Private, OrgKind::Ideal],
        )
    }

    /// Figure 7: private-cache reuse patterns.
    pub fn fig7() -> Vec<Pair> {
        cross(&MULTITHREADED, mt, &[OrgKind::Private])
    }

    /// Figure 8: tag-array access distribution across five
    /// organizations.
    pub fn fig8() -> Vec<Pair> {
        cross(
            &MULTITHREADED,
            mt,
            &[
                OrgKind::Shared,
                OrgKind::Private,
                OrgKind::NurapidCrOnly,
                OrgKind::NurapidIscOnly,
                OrgKind::Nurapid,
            ],
        )
    }

    /// Figure 9: data-array access distribution of the NuRAPID
    /// configurations.
    pub fn fig9() -> Vec<Pair> {
        cross(
            &MULTITHREADED,
            mt,
            &[OrgKind::NurapidCrOnly, OrgKind::NurapidIscOnly, OrgKind::Nurapid],
        )
    }

    /// Figure 10: the headline comparison.
    pub fn fig10() -> Vec<Pair> {
        cross(
            &MULTITHREADED,
            mt,
            &[OrgKind::Shared, OrgKind::Snuca, OrgKind::Private, OrgKind::Ideal, OrgKind::Nurapid],
        )
    }

    /// Figure 11: multiprogrammed access distribution.
    pub fn fig11() -> Vec<Pair> {
        cross(&MIXES, mix, &[OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid])
    }

    /// Figure 12: multiprogrammed relative performance.
    pub fn fig12() -> Vec<Pair> {
        cross(&MIXES, mix, &[OrgKind::Shared, OrgKind::Snuca, OrgKind::Private, OrgKind::Nurapid])
    }

    /// The closest-d-group share table (Section 5.2.1).
    pub fn closest_dgroup_share() -> Vec<Pair> {
        cross(&MIXES, mix, &[OrgKind::Nurapid])
    }

    /// The `dnuca` study: the multithreaded workloads on
    /// uniform-shared, CMP-SNUCA and CMP-DNUCA.
    pub fn dnuca() -> Vec<Pair> {
        cross(&MULTITHREADED, mt, &[OrgKind::Shared, OrgKind::Snuca, OrgKind::Dnuca])
    }

    /// The `energy` study: two commercial workloads on the compared
    /// organizations.
    pub fn energy() -> Vec<Pair> {
        cross(&studies::ENERGY_WORKLOADS, mt, &OrgKind::COMPARISON)
    }

    /// The `ablations` study: the uniform-shared baselines its custom
    /// runs divide by.
    pub fn ablations() -> Vec<Pair> {
        studies::ABLATION_BASELINES.map(|w| (studies::catalog(w), OrgKind::Shared)).to_vec()
    }

    /// The paper's figure sweep: the union of the pairs of every
    /// [`Entry::paper`] entry, in [`ENTRIES`] order, duplicates
    /// included (prefetch deduplicates). The studies' pairs are not
    /// part of it.
    pub fn all() -> Vec<Pair> {
        PAPER.iter().flat_map(|pairs| pairs()).collect()
    }

    /// The [`Entry::paper`] entries' pair functions, picked out of
    /// [`ENTRIES`] at compile time: iterating `ENTRIES` at run time
    /// would link every renderer and study into each binary that only
    /// needs the sweep, such as `cmp-benchmark`, and raise its
    /// peak RSS. The length pins the count.
    const PAPER: [fn() -> Vec<Pair>; 12] = {
        let mut out = [Vec::new as fn() -> Vec<Pair>; 12];
        let (mut i, mut n) = (0, 0);
        while i < ENTRIES.len() {
            if ENTRIES[i].paper {
                out[n] = ENTRIES[i].pairs;
                n += 1;
            }
            i += 1;
        }
        assert!(n == out.len(), "PAPER's length must count the paper entries");
        out
    };
}

/// One experiment: a table or figure of the paper, or a study
/// beyond them. [`ENTRIES`] is the one list of them: `repro`'s
/// subcommands, the golden suite and the determinism suite all
/// iterate it.
#[derive(Clone, Copy)]
pub struct Entry {
    /// The `repro` subcommand, also the golden file's name.
    pub name: &'static str,
    /// The memoized pairs to prefetch before rendering.
    pub pairs: fn() -> Vec<Pair>,
    /// The text `repro` prints.
    pub render: fn(&mut Lab) -> String,
    /// The raw numeric series the golden suite snapshots; `None` only
    /// for the tables, which simulate nothing.
    pub series: Option<fn(&mut Lab) -> series::Series>,
    /// One of the paper's tables and figures: its pairs belong to the
    /// figure sweep [`pairs::all`]. The studies' do not.
    pub paper: bool,
}

const fn table(name: &'static str, render: fn(&mut Lab) -> String) -> Entry {
    Entry { name, pairs: Vec::new, render, series: None, paper: true }
}

const fn figure(
    name: &'static str,
    pairs: fn() -> Vec<Pair>,
    render: fn(&mut Lab) -> String,
    series: fn(&mut Lab) -> series::Series,
) -> Entry {
    Entry { name, pairs, render, series: Some(series), paper: true }
}

const fn study(
    name: &'static str,
    pairs: fn() -> Vec<Pair>,
    render: fn(&mut Lab) -> String,
    series: fn(&mut Lab) -> series::Series,
) -> Entry {
    Entry { name, pairs, render, series: Some(series), paper: false }
}

/// Every experiment: the paper's tables and figures in the paper's
/// order, then the studies ([`crate::studies`]).
pub const ENTRIES: [Entry; 18] = [
    table("table1", |_| table1()),
    table("table2", |_| table2()),
    table("table3", |_| table3()),
    figure("fig5", pairs::fig5, fig5, series::fig5),
    figure("fig6", pairs::fig6, fig6, series::fig6),
    figure("fig7", pairs::fig7, fig7, series::fig7),
    figure("fig8", pairs::fig8, fig8, series::fig8),
    figure("fig9", pairs::fig9, fig9, series::fig9),
    figure("fig10", pairs::fig10, fig10, series::fig10),
    figure("fig11", pairs::fig11, fig11, series::fig11),
    figure("fig12", pairs::fig12, fig12, series::fig12),
    figure(
        "closest_dgroup_share",
        pairs::closest_dgroup_share,
        closest_dgroup_share,
        series::closest_dgroup_share,
    ),
    study(
        "ablations",
        pairs::ablations,
        |l| studies::ablations(l).text,
        |l| studies::ablations(l).series,
    ),
    study("dnuca", pairs::dnuca, |l| studies::dnuca(l).text, |l| studies::dnuca(l).series),
    study("energy", pairs::energy, |l| studies::energy(l).text, |l| studies::energy(l).series),
    study("cores", Vec::new, |l| studies::cores(l).text, |l| studies::cores(l).series),
    study(
        "sensitivity",
        Vec::new,
        |l| studies::sensitivity(l).text,
        |l| studies::sensitivity(l).series,
    ),
    study("icache", Vec::new, |l| studies::icache(l).text, |l| studies::icache(l).series),
];

/// Looks an entry up by name.
pub fn entry(name: &str) -> Option<&'static Entry> {
    ENTRIES.iter().find(|e| e.name == name)
}

/// Table 1: cache and bus latencies, from the analytical model, with
/// the published values asserted equal.
pub fn table1() -> String {
    let model = Table1::from_model();
    let published = Table1::published();
    let mut out = model.to_string();
    out.push_str("\n\n");
    out.push_str(if model == published {
        "model == published Table 1 (exact match)\n"
    } else {
        "WARNING: analytical model deviates from the published Table 1\n"
    });
    out
}

/// Table 2: the multiprogrammed mixes.
pub fn table2() -> String {
    let mut t = TextTable::new(vec!["Workload", "Benchmarks"]);
    for (name, apps) in cmp_trace::SPEC_MIXES {
        t.row(vec![name.to_string(), apps.join(", ")]);
    }
    format!("Table 2: Multiprogrammed Workloads\n{t}")
}

/// Table 3: the multithreaded workloads, with the synthetic profile
/// standing in for each (the calibration knobs are in
/// `cmp_trace::profiles`).
pub fn table3() -> String {
    let mut t = TextTable::new(vec![
        "Workload",
        "cold mix P/ROS/RWS",
        "private blocks",
        "ROS pool",
        "RWS objects",
    ]);
    for params in [
        cmp_trace::profiles::oltp_params(),
        cmp_trace::profiles::apache_params(),
        cmp_trace::profiles::specjbb_params(),
        cmp_trace::profiles::ocean_params(),
        cmp_trace::profiles::barnes_params(),
    ] {
        t.row(vec![
            params.name.clone(),
            format!(
                "{:.0}/{:.0}/{:.0}%",
                params.weight_private * 100.0,
                params.weight_ros * 100.0,
                params.weight_rws * 100.0
            ),
            params.private_blocks.to_string(),
            params.ros_pool_blocks().to_string(),
            params.rws_objects.to_string(),
        ]);
    }
    format!(
        "Table 3: Multithreaded Workloads (synthetic profiles standing in for
         OLTP/DBT-2+PostgreSQL, Apache+SURGE, SPECjbb2000, SPLASH-2 ocean and barnes)
{t}"
    )
}

/// Figure 5: distribution of L2 cache accesses, shared vs private.
pub fn fig5(lab: &mut Lab) -> String {
    let mut t = TextTable::new(vec!["workload", "org", "hits", "ROS miss", "RWS miss", "cap miss"]);
    for wl in MULTITHREADED {
        for kind in [OrgKind::Shared, OrgKind::Private] {
            let s = lab.result(mt(wl), kind).l2.clone();
            t.row(vec![
                wl.to_string(),
                kind.label().to_string(),
                pct(s.hit_fraction().value()),
                pct(s.class_fraction(AccessClass::MissRos).value()),
                pct(s.class_fraction(AccessClass::MissRws).value()),
                pct(s.class_fraction(AccessClass::MissCapacity).value()),
            ]);
        }
    }
    format!(
        "Figure 5: Distribution of L2 Cache Accesses\n{t}\n\
         paper (commercial avg): shared capacity misses ~3%, private capacity ~5%,\n\
         private ROS ~4%, private RWS ~10% (OLTP dominated by RWS misses)\n"
    )
}

/// Figure 6: performance opportunity — non-uniform-shared, private,
/// and ideal relative to uniform-shared.
pub fn fig6(lab: &mut Lab) -> String {
    let mut t = TextTable::new(vec!["workload", "non-uniform-shared", "private", "ideal"]);
    for wl in MULTITHREADED {
        t.row(vec![
            wl.to_string(),
            rel(lab.relative(mt(wl), OrgKind::Snuca)),
            rel(lab.relative(mt(wl), OrgKind::Private)),
            rel(lab.relative(mt(wl), OrgKind::Ideal)),
        ]);
    }
    let avg = |lab: &mut Lab, k| lab.average_relative(&COMMERCIAL, k);
    let row = format!(
        "commercial average: non-uniform-shared {}, private {}, ideal {}",
        rel(avg(lab, OrgKind::Snuca)),
        rel(avg(lab, OrgKind::Private)),
        rel(avg(lab, OrgKind::Ideal)),
    );
    format!(
        "Figure 6: Performance Opportunity (relative to uniform-shared)\n{t}\n{row}\n\
         paper (commercial avg): non-uniform-shared 1.04, private 1.05, ideal 1.17\n"
    )
}

fn reuse_cells(h: &ReuseHistogram) -> Vec<String> {
    ReuseBucket::ALL.iter().map(|b| pct(h.fraction(*b).value())).collect()
}

/// Figure 7: reuse patterns of replaced ROS blocks and invalidated
/// RWS blocks in private caches.
pub fn fig7(lab: &mut Lab) -> String {
    let mut t = TextTable::new(vec![
        "workload",
        "kind",
        "0 reuse",
        "1 reuse",
        "2-5 reuses",
        ">5 reuses",
        "n",
    ]);
    for wl in MULTITHREADED {
        let s = lab.result(mt(wl), OrgKind::Private).l2.clone();
        let mut ros = vec![wl.to_string(), "replaced ROS".to_string()];
        ros.extend(reuse_cells(&s.ros_reuse));
        ros.push(s.ros_reuse.total().to_string());
        t.row(ros);
        let mut rws = vec![wl.to_string(), "invalidated RWS".to_string()];
        rws.extend(reuse_cells(&s.rws_reuse));
        rws.push(s.rws_reuse.total().to_string());
        t.row(rws);
    }
    format!(
        "Figure 7: Reuse Patterns (private caches)\n{t}\n\
         paper (commercial avg): 42% of replaced ROS blocks had 0 reuses and ~50% were\n\
         reused at least twice; 69% of invalidated RWS blocks were reused 2-5 times,\n\
         only 8% more than 5 times\n"
    )
}

/// Figure 8: distribution of tag-array accesses for shared, private,
/// CMP-NuRAPID with CR only, and with ISC only.
pub fn fig8(lab: &mut Lab) -> String {
    let mut t = TextTable::new(vec!["workload", "org", "hits", "ROS miss", "RWS miss", "cap miss"]);
    let orgs = [
        (OrgKind::Shared, "shared"),
        (OrgKind::Private, "private"),
        (OrgKind::NurapidCrOnly, "CR"),
        (OrgKind::NurapidIscOnly, "ISC"),
        (OrgKind::Nurapid, "CR+ISC"),
    ];
    for wl in MULTITHREADED {
        for (kind, label) in orgs {
            let s = lab.result(mt(wl), kind).l2.clone();
            t.row(vec![
                wl.to_string(),
                label.to_string(),
                pct(s.hit_fraction().value()),
                pct(s.class_fraction(AccessClass::MissRos).value()),
                pct(s.class_fraction(AccessClass::MissRws).value()),
                pct(s.class_fraction(AccessClass::MissCapacity).value()),
            ]);
        }
    }
    format!(
        "Figure 8: Distribution of Tag Array Accesses\n{t}\n\
         paper (commercial avg): CR cuts capacity misses 5%->3% (~40%) and ROS misses\n\
         4%->2% (~50%) vs private; ISC cuts RWS misses 10%->2% (~80%). The paper\n\
         omits the combined rows but states (Section 5.1.2) that with both, ROS and\n\
         capacity misses match CR's and RWS misses match ISC's - the CR+ISC rows\n\
         above check that claim.\n"
    )
}

/// Figure 9: distribution of data-array accesses for CR and ISC:
/// closest-d-group hits vs farther hits vs misses.
pub fn fig9(lab: &mut Lab) -> String {
    let mut t =
        TextTable::new(vec!["workload", "config", "closest hits", "farther hits", "misses"]);
    for wl in MULTITHREADED {
        for (kind, label) in [
            (OrgKind::NurapidCrOnly, "CR"),
            (OrgKind::NurapidIscOnly, "ISC"),
            (OrgKind::Nurapid, "CR+ISC"),
        ] {
            let s = lab.result(mt(wl), kind).l2.clone();
            t.row(vec![
                wl.to_string(),
                label.to_string(),
                pct(s.class_fraction(AccessClass::Hit { closest: true }).value()),
                pct(s.class_fraction(AccessClass::Hit { closest: false }).value()),
                pct(s.miss_fraction().value()),
            ]);
        }
    }
    format!(
        "Figure 9: Distribution of Data Array Accesses\n{t}\n\
         paper (commercial avg): CR 83% closest-d-group hits, ISC 76% (ISC writers\n\
         reach into farther d-groups on every write to RWS data); the combined\n\
         distribution should match ISC's (Section 5.1.2), checked by the CR+ISC rows\n"
    )
}

/// Figure 10: relative performance of all organizations on the
/// multithreaded workloads.
pub fn fig10(lab: &mut Lab) -> String {
    let mut t =
        TextTable::new(vec!["workload", "non-uniform-shared", "private", "ideal", "CMP-NuRAPID"]);
    for wl in MULTITHREADED {
        t.row(vec![
            wl.to_string(),
            rel(lab.relative(mt(wl), OrgKind::Snuca)),
            rel(lab.relative(mt(wl), OrgKind::Private)),
            rel(lab.relative(mt(wl), OrgKind::Ideal)),
            rel(lab.relative(mt(wl), OrgKind::Nurapid)),
        ]);
    }
    let avg = |lab: &mut Lab, k| lab.average_relative(&COMMERCIAL, k);
    let row = format!(
        "commercial average: non-uniform-shared {}, private {}, ideal {}, CMP-NuRAPID {}",
        rel(avg(lab, OrgKind::Snuca)),
        rel(avg(lab, OrgKind::Private)),
        rel(avg(lab, OrgKind::Ideal)),
        rel(avg(lab, OrgKind::Nurapid)),
    );
    format!(
        "Figure 10: Performance (relative to uniform-shared)\n{t}\n{row}\n\
         paper (commercial avg): non-uniform-shared 1.04, private 1.05, ideal 1.17,\n\
         CMP-NuRAPID 1.13 (max 1.16 on OLTP; within 3% of ideal on average)\n"
    )
}

/// Figure 11: cache access distribution (hits vs misses) for the
/// multiprogrammed mixes.
pub fn fig11(lab: &mut Lab) -> String {
    let mut t = TextTable::new(vec!["mix", "org", "hits", "misses"]);
    for m in MIXES {
        for kind in [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid] {
            let s = lab.result(mix(m), kind).l2.clone();
            t.row(vec![
                m.to_string(),
                kind.label().to_string(),
                pct(s.hit_fraction().value()),
                pct(s.miss_fraction().value()),
            ]);
        }
    }
    // Averages across mixes.
    let mut avg = TextTable::new(vec!["org", "avg miss rate"]);
    for kind in [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid] {
        let total: f64 =
            MIXES.iter().map(|m| lab.result(mix(m), kind).l2.miss_fraction().value()).sum();
        avg.row(vec![kind.label().to_string(), pct(total / MIXES.len() as f64)]);
    }
    format!(
        "Figure 11: Distribution of Cache Accesses (multiprogrammed)\n{t}\n{avg}\n\
         paper: average miss rates shared 8.9%, private 14%, CMP-NuRAPID 9.7%;\n\
         85% of CMP-NuRAPID accesses (93% of hits) hit the closest d-group\n"
    )
}

/// Figure 12: relative IPC for the multiprogrammed mixes.
pub fn fig12(lab: &mut Lab) -> String {
    let mut t = TextTable::new(vec!["mix", "non-uniform-shared", "private", "CMP-NuRAPID"]);
    for m in MIXES {
        t.row(vec![
            m.to_string(),
            rel(lab.relative(mix(m), OrgKind::Snuca)),
            rel(lab.relative(mix(m), OrgKind::Private)),
            rel(lab.relative(mix(m), OrgKind::Nurapid)),
        ]);
    }
    let avg = |lab: &mut Lab, k: OrgKind| {
        let s: f64 = MIXES.iter().map(|m| lab.relative(mix(m), k)).sum();
        s / MIXES.len() as f64
    };
    let row = format!(
        "average: non-uniform-shared {}, private {}, CMP-NuRAPID {}",
        rel(avg(lab, OrgKind::Snuca)),
        rel(avg(lab, OrgKind::Private)),
        rel(avg(lab, OrgKind::Nurapid)),
    );
    format!(
        "Figure 12: Performance (multiprogrammed, relative to uniform-shared)\n{t}\n{row}\n\
         paper: non-uniform-shared 1.07, private 1.19, CMP-NuRAPID 1.28\n\
         (CMP-NuRAPID beats private by ~8% via capacity stealing)\n"
    )
}

/// CMP-NuRAPID's closest-d-group hit share on the multiprogrammed
/// mixes (the capacity-stealing effectiveness claim of Section
/// 5.2.1).
pub fn closest_dgroup_share(lab: &mut Lab) -> String {
    let mut t = TextTable::new(vec!["mix", "closest/accesses", "closest/hits"]);
    for m in MIXES {
        let s = lab.result(mix(m), OrgKind::Nurapid).l2.clone();
        t.row(vec![
            m.to_string(),
            pct(s.class_fraction(AccessClass::Hit { closest: true }).value()),
            pct(s.hits_closest as f64 / s.hits().max(1) as f64),
        ]);
    }
    format!(
        "CMP-NuRAPID closest-d-group hits (multiprogrammed)\n{t}\n\
         paper: 85% of accesses and 93% of hits land in the closest d-group\n"
    )
}

/// Raw numeric series per figure, for the golden-figure regression
/// suite: flat `(key, value)` lists in a stable order, with raw
/// (unrounded) values so goldens catch drifts smaller than the text
/// renderers' display precision. Keys are
/// `<workload>/<org-short-name>/<metric>`.
pub mod series {
    use super::*;

    /// One figure's series: `(key, value)` in rendering order.
    pub type Series = Vec<(String, f64)>;

    fn access_classes(out: &mut Series, wl: &str, org: OrgKind, s: &cmp_cache::OrgStats) {
        let key = |metric: &str| format!("{wl}/{}/{metric}", org.name());
        out.push((key("hits"), s.hit_fraction().value()));
        out.push((key("miss_ros"), s.class_fraction(AccessClass::MissRos).value()));
        out.push((key("miss_rws"), s.class_fraction(AccessClass::MissRws).value()));
        out.push((key("miss_capacity"), s.class_fraction(AccessClass::MissCapacity).value()));
    }

    /// Figure 5 series: access-class fractions, shared vs private.
    pub fn fig5(lab: &mut Lab) -> Series {
        let mut out = Vec::new();
        for wl in MULTITHREADED {
            for kind in [OrgKind::Shared, OrgKind::Private] {
                let s = lab.result(mt(wl), kind).l2.clone();
                access_classes(&mut out, wl, kind, &s);
            }
        }
        out
    }

    /// Figure 6 series: relative performance per workload plus the
    /// commercial averages.
    pub fn fig6(lab: &mut Lab) -> Series {
        let mut out = Vec::new();
        let orgs = [OrgKind::Snuca, OrgKind::Private, OrgKind::Ideal];
        for wl in MULTITHREADED {
            for kind in orgs {
                out.push((format!("{wl}/{}/rel", kind.name()), lab.relative(mt(wl), kind)));
            }
        }
        for kind in orgs {
            out.push((
                format!("commercial-avg/{}/rel", kind.name()),
                lab.average_relative(&COMMERCIAL, kind),
            ));
        }
        out
    }

    /// Figure 7 series: reuse-bucket fractions and totals of the
    /// private organization.
    pub fn fig7(lab: &mut Lab) -> Series {
        let mut out = Vec::new();
        for wl in MULTITHREADED {
            let s = lab.result(mt(wl), OrgKind::Private).l2.clone();
            for (name, hist) in [("ros_reuse", &s.ros_reuse), ("rws_reuse", &s.rws_reuse)] {
                for b in ReuseBucket::ALL {
                    out.push((
                        format!("{wl}/private/{name}/{}", b.label()),
                        hist.fraction(b).value(),
                    ));
                }
                out.push((format!("{wl}/private/{name}/n"), hist.total() as f64));
            }
        }
        out
    }

    /// Figure 8 series: access-class fractions across the five
    /// tag-array organizations.
    pub fn fig8(lab: &mut Lab) -> Series {
        let mut out = Vec::new();
        for wl in MULTITHREADED {
            for kind in [
                OrgKind::Shared,
                OrgKind::Private,
                OrgKind::NurapidCrOnly,
                OrgKind::NurapidIscOnly,
                OrgKind::Nurapid,
            ] {
                let s = lab.result(mt(wl), kind).l2.clone();
                access_classes(&mut out, wl, kind, &s);
            }
        }
        out
    }

    /// Figure 9 series: data-array hit/miss split of the NuRAPID
    /// configurations.
    pub fn fig9(lab: &mut Lab) -> Series {
        let mut out = Vec::new();
        for wl in MULTITHREADED {
            for kind in [OrgKind::NurapidCrOnly, OrgKind::NurapidIscOnly, OrgKind::Nurapid] {
                let s = lab.result(mt(wl), kind).l2.clone();
                let key = |metric: &str| format!("{wl}/{}/{metric}", kind.name());
                out.push((
                    key("hits_closest"),
                    s.class_fraction(AccessClass::Hit { closest: true }).value(),
                ));
                out.push((
                    key("hits_farther"),
                    s.class_fraction(AccessClass::Hit { closest: false }).value(),
                ));
                out.push((key("misses"), s.miss_fraction().value()));
            }
        }
        out
    }

    /// Figure 10 series: headline relative performance plus the
    /// commercial averages.
    pub fn fig10(lab: &mut Lab) -> Series {
        let mut out = Vec::new();
        let orgs = [OrgKind::Snuca, OrgKind::Private, OrgKind::Ideal, OrgKind::Nurapid];
        for wl in MULTITHREADED {
            for kind in orgs {
                out.push((format!("{wl}/{}/rel", kind.name()), lab.relative(mt(wl), kind)));
            }
        }
        for kind in orgs {
            out.push((
                format!("commercial-avg/{}/rel", kind.name()),
                lab.average_relative(&COMMERCIAL, kind),
            ));
        }
        out
    }

    /// Figure 11 series: hit/miss fractions of the mixes plus average
    /// miss rates.
    pub fn fig11(lab: &mut Lab) -> Series {
        let mut out = Vec::new();
        let orgs = [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid];
        for m in MIXES {
            for kind in orgs {
                let s = lab.result(mix(m), kind).l2.clone();
                let key = |metric: &str| format!("{m}/{}/{metric}", kind.name());
                out.push((key("hits"), s.hit_fraction().value()));
                out.push((key("misses"), s.miss_fraction().value()));
            }
        }
        for kind in orgs {
            let total: f64 =
                MIXES.iter().map(|m| lab.result(mix(m), kind).l2.miss_fraction().value()).sum();
            out.push((format!("mix-avg/{}/miss_rate", kind.name()), total / MIXES.len() as f64));
        }
        out
    }

    /// Figure 12 series: relative IPC of the mixes plus averages.
    pub fn fig12(lab: &mut Lab) -> Series {
        let mut out = Vec::new();
        let orgs = [OrgKind::Snuca, OrgKind::Private, OrgKind::Nurapid];
        for m in MIXES {
            for kind in orgs {
                out.push((format!("{m}/{}/rel", kind.name()), lab.relative(mix(m), kind)));
            }
        }
        for kind in orgs {
            let s: f64 = MIXES.iter().map(|m| lab.relative(mix(m), kind)).sum();
            out.push((format!("mix-avg/{}/rel", kind.name()), s / MIXES.len() as f64));
        }
        out
    }

    /// Closest-d-group share series (Section 5.2.1).
    pub fn closest_dgroup_share(lab: &mut Lab) -> Series {
        let mut out = Vec::new();
        for m in MIXES {
            let s = lab.result(mix(m), OrgKind::Nurapid).l2.clone();
            out.push((
                format!("{m}/nurapid/closest_of_accesses"),
                s.class_fraction(AccessClass::Hit { closest: true }).value(),
            ));
            out.push((
                format!("{m}/nurapid/closest_of_hits"),
                s.hits_closest as f64 / s.hits().max(1) as f64,
            ));
        }
        out
    }

    /// Serializes one figure's series in the golden-fixture shape:
    /// figure name, the exact [`cmp_sim::RunConfig`] that produced
    /// it, and the raw series values in rendering order. The golden
    /// suite, the determinism suites, and the obs suite all compare
    /// `format!("{json}\n")` of this value byte for byte, so the
    /// shape (and [`crate::Json`]'s stable rendering) is load-bearing.
    pub fn golden_json(name: &str, cfg: &cmp_sim::RunConfig, series: &Series) -> crate::Json {
        use crate::Json;
        let mut out = Json::obj();
        out.set("figure", Json::Str(name.to_string()));
        let mut config = Json::obj();
        config.set("warmup_accesses", Json::Num(cfg.warmup_accesses as f64));
        config.set("measure_accesses", Json::Num(cfg.measure_accesses as f64));
        config.set("seed", Json::Num(cfg.seed as f64));
        out.set("config", config);
        let mut s = Json::obj();
        for (key, value) in series {
            s.set(key, Json::Num(*value));
        }
        out.set("series", s);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_sim::RunConfig;

    fn tiny_cfg() -> RunConfig {
        RunConfig::sized(300, 600, 5)
    }

    fn tiny_lab() -> Lab {
        Lab::new(tiny_cfg())
    }

    #[test]
    fn table1_matches_published() {
        let s = table1();
        assert!(s.contains("exact match"), "{s}");
    }

    #[test]
    fn table3_lists_all_workloads() {
        let s = table3();
        for wl in MULTITHREADED {
            assert!(s.contains(wl));
        }
    }

    #[test]
    fn table2_lists_all_mixes() {
        let s = table2();
        for m in MIXES {
            assert!(s.contains(m));
        }
        assert!(s.contains("apsi, art, equake, mesa"));
    }

    #[test]
    fn fig5_renders_all_workloads() {
        let mut lab = tiny_lab();
        let s = fig5(&mut lab);
        for wl in MULTITHREADED {
            assert!(s.contains(wl), "{s}");
        }
        assert!(s.contains("Figure 5"));
    }

    #[test]
    fn fig12_renders_all_mixes() {
        let mut lab = tiny_lab();
        let s = fig12(&mut lab);
        for m in MIXES {
            assert!(s.contains(m));
        }
    }

    #[test]
    fn lab_is_shared_across_figures() {
        let mut lab = tiny_lab();
        let _ = fig6(&mut lab);
        let runs_after_fig6 = lab.runs();
        let _ = fig10(&mut lab);
        // fig10 adds only the nurapid runs on top of fig6's.
        assert_eq!(lab.runs(), runs_after_fig6 + MULTITHREADED.len());
    }

    #[test]
    fn prefetched_figure_takes_no_extra_runs() {
        let mut lab = Lab::with_threads(tiny_cfg(), 2);
        lab.prefetch(&pairs::fig5()).unwrap();
        let runs = lab.runs();
        let _ = fig5(&mut lab);
        assert_eq!(lab.runs(), runs, "prefetch must cover the whole figure");
    }

    #[test]
    fn figure_sweep_is_the_papers_51_pairs() {
        // `pairs::all()` is the benchmark's `figsweep-quick` job list
        // and the scaling and approx suites' sweep: a study added to
        // `ENTRIES` must not grow it.
        let mut seen = std::collections::HashSet::new();
        let unique: Vec<Pair> = pairs::all().into_iter().filter(|p| seen.insert(*p)).collect();
        assert_eq!(unique.len(), 51);
        assert!(unique.iter().all(|&(_, k)| k != OrgKind::Dnuca));
    }

    #[test]
    fn pair_sets_cover_their_entries() {
        // Rendering each entry and its series from a prefetched lab
        // must not add runs — i.e. the pair sets are complete. The
        // studies' custom runs bypass the memo and do not count.
        for e in ENTRIES {
            let mut lab = Lab::with_threads(tiny_cfg(), 2);
            lab.prefetch(&(e.pairs)()).unwrap();
            let runs = lab.runs();
            let _ = (e.render)(&mut lab);
            if let Some(series) = e.series {
                let _ = series(&mut lab);
            }
            assert_eq!(lab.runs(), runs, "{} pair set incomplete", e.name);
        }
    }

    #[test]
    fn series_keys_are_unique_and_finite() {
        let mut lab = tiny_lab();
        for e in ENTRIES {
            let Some(extract) = e.series else {
                assert!(e.name.starts_with("table"), "{} has no series", e.name);
                continue;
            };
            let s = extract(&mut lab);
            assert!(!s.is_empty(), "{} empty", e.name);
            let keys: std::collections::HashSet<_> = s.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(keys.len(), s.len(), "{} has duplicate keys", e.name);
            for (k, v) in &s {
                assert!(v.is_finite(), "{}/{k} not finite", e.name);
                if !e.paper {
                    assert!(k.starts_with(&format!("{}/", e.name)), "{k} not under {}", e.name);
                }
            }
        }
    }
}
