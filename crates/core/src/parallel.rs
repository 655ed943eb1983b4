//! Parallel per-case auditing.
//!
//! §7: "the analysis of process instances is independent from each other,
//! allowing for massive parallelization". Cases share nothing but the
//! read-only auditor and trail, so the audit scales across worker threads
//! with no synchronization beyond result collection.

use crate::auditor::{AuditReport, Auditor, CaseResult};
use audit::entry::LogEntry;
use audit::trail::{AuditTrail, CaseGroups};
use cows::symbol::Symbol;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One unit of work: a case and its projection of the trail.
type CaseSlice<'g, 't> = (Symbol, &'g [&'t LogEntry]);

/// Audit every case of `trail` using `threads` worker threads.
///
/// Produces the same `cases` vector as [`Auditor::audit`] (sorted by case),
/// plus the preventive pass (run once, on the calling thread).
pub fn audit_parallel(auditor: &Auditor, trail: &AuditTrail, threads: usize) -> AuditReport {
    let groups = trail.by_case();
    report(auditor, trail, &groups, groups.keys().copied(), threads)
}

/// Audit a specific set of cases in parallel. A case absent from the trail
/// is checked with no entries.
pub fn audit_cases_parallel(
    auditor: &Auditor,
    trail: &AuditTrail,
    cases: &BTreeSet<Symbol>,
    threads: usize,
) -> AuditReport {
    report(
        auditor,
        trail,
        &trail.by_case(),
        cases.iter().copied(),
        threads,
    )
}

/// The parallel core over a case list: group the trail once, then replay
/// `cases` (in order) across `threads` workers.
pub fn check_cases_parallel(
    auditor: &Auditor,
    trail: &AuditTrail,
    cases: &[Symbol],
    threads: usize,
) -> Vec<CaseResult> {
    let groups = trail.by_case();
    check_slices(auditor, &slices(&groups, cases.iter().copied()), threads)
}

/// Each case's slice of `groups`; empty for a case the trail never
/// mentions.
fn slices<'g, 't>(
    groups: &'g CaseGroups<'t>,
    cases: impl Iterator<Item = Symbol>,
) -> Vec<CaseSlice<'g, 't>> {
    cases
        .map(|c| (c, groups.get(&c).map(Vec::as_slice).unwrap_or_default()))
        .collect()
}

/// Replay `cases` from `trail`'s grouping, then run the preventive pass
/// over the whole trail (its case set is the grouping's keys).
fn report(
    auditor: &Auditor,
    trail: &AuditTrail,
    groups: &CaseGroups,
    cases: impl Iterator<Item = Symbol>,
    threads: usize,
) -> AuditReport {
    let results = check_slices(auditor, &slices(groups, cases), threads);
    let preventive = auditor.preventive_check_cases(trail, groups.keys().copied());
    if let Some(registry) = &auditor.metrics {
        registry.add_counter("audit_preventive_violations", preventive.len() as u64);
    }
    AuditReport {
        cases: results,
        preventive_violations: preventive,
    }
}

/// Replay each case's slice across `threads` workers, work-stealing from a
/// shared counter; results come back in `work` order.
fn check_slices(auditor: &Auditor, work: &[CaseSlice], threads: usize) -> Vec<CaseResult> {
    let threads = threads.max(1).min(work.len().max(1));
    if threads == 1 {
        let results: Vec<CaseResult> = work
            .iter()
            .map(|&(case, entries)| auditor.check_case_entries(case, entries))
            .collect();
        if let Some(registry) = &auditor.metrics {
            let mut shard = registry.shard();
            for r in &results {
                crate::metrics::record_case_metrics(&mut shard, r);
            }
            shard.flush(registry);
        }
        return results;
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, CaseResult)>> = Mutex::new(Vec::with_capacity(work.len()));
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                // Metrics go into a worker-owned shard — the replay hot
                // loop records with plain map writes and the registry lock
                // is taken exactly once per worker, at join.
                let mut shard = auditor.metrics.as_deref().map(|m| m.shard());
                let mut local: Vec<(usize, CaseResult)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(case, entries)) = work.get(i) else {
                        break;
                    };
                    let result = auditor.check_case_entries(case, entries);
                    if let Some(shard) = shard.as_mut() {
                        crate::metrics::record_case_metrics(shard, &result);
                    }
                    local.push((i, result));
                }
                if let (Some(mut shard), Some(registry)) = (shard, auditor.metrics.as_deref()) {
                    shard.flush(registry);
                }
                results.lock().extend(local);
            });
        }
    })
    .expect("audit worker panicked");
    let mut out = results.into_inner();
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::{CaseOutcome, ProcessRegistry};
    use audit::samples::figure4_trail;
    use bpmn::models::{clinical_trial, healthcare_treatment};
    use policy::samples::{
        clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
    };

    fn auditor() -> Auditor {
        let mut registry = ProcessRegistry::new();
        registry.register(treatment(), healthcare_treatment());
        registry.register(clinical_trial_purpose(), clinical_trial());
        registry.add_case_prefix("HT-", treatment());
        registry.add_case_prefix("CT-", clinical_trial_purpose());
        Auditor::new(registry, extended_hospital_policy(), hospital_context())
    }

    fn outcome_key(o: &CaseOutcome) -> &'static str {
        match o {
            CaseOutcome::Compliant { .. } => "compliant",
            CaseOutcome::Infringement { .. } => "infringement",
            CaseOutcome::Unresolved(_) => "unresolved",
            CaseOutcome::Failed(_) => "failed",
            CaseOutcome::Inconclusive { .. } => "inconclusive",
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = auditor();
        let trail = figure4_trail();
        let seq = a.audit(&trail);
        for threads in [1, 2, 4, 8] {
            let par = audit_parallel(&a, &trail, threads);
            assert_eq!(par.cases.len(), seq.cases.len());
            for (p, s) in par.cases.iter().zip(&seq.cases) {
                assert_eq!(p.case, s.case);
                assert_eq!(outcome_key(&p.outcome), outcome_key(&s.outcome));
            }
        }
    }

    #[test]
    fn more_threads_than_cases_is_fine() {
        let a = auditor();
        let trail = figure4_trail();
        let par = audit_parallel(&a, &trail, 64);
        assert_eq!(par.cases.len(), trail.cases().len());
    }

    // --- fault isolation ------------------------------------------------
    //
    // One deliberately poisoned case (panic or deadline) must not alter
    // any other case's outcome, at any thread count, deterministically.

    fn assert_blast_radius_confined(poison: crate::replay::FailPoints, expect_reason: &str) {
        use crate::auditor::InconclusiveReason;
        let trail = figure4_trail();
        let clean = auditor().audit(&trail);
        let poisoned_case = cows::sym("HT-2");

        let mut a = auditor();
        a.options.failpoints = poison;
        if poison.stall_case.is_some() {
            // Generous enough that every healthy Fig. 4 case finishes well
            // inside it even in debug builds; the stalled case sleeps past
            // it deterministically.
            a.options.case_deadline_ms = Some(300);
        }
        for threads in [1, 2, 8] {
            // Two runs per thread count: determinism, not luck.
            for _ in 0..2 {
                let par = audit_parallel(&a, &trail, threads);
                assert_eq!(par.cases.len(), clean.cases.len());
                for (p, s) in par.cases.iter().zip(&clean.cases) {
                    assert_eq!(p.case, s.case);
                    if p.case == poisoned_case {
                        let CaseOutcome::Inconclusive { reason } = &p.outcome else {
                            panic!("poisoned case must be inconclusive, got {:?}", p.outcome);
                        };
                        match expect_reason {
                            "panicked" => {
                                assert!(matches!(reason, InconclusiveReason::Panicked { .. }))
                            }
                            "deadline" => assert!(matches!(
                                reason,
                                InconclusiveReason::DeadlineExceeded { .. }
                            )),
                            other => unreachable!("{other}"),
                        }
                    } else {
                        assert_eq!(
                            outcome_key(&p.outcome),
                            outcome_key(&s.outcome),
                            "case {} outcome changed at {threads} threads",
                            p.case
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn panicking_case_does_not_poison_the_run() {
        assert_blast_radius_confined(
            crate::replay::FailPoints {
                panic_case: Some(cows::sym("HT-2")),
                ..Default::default()
            },
            "panicked",
        );
    }

    #[test]
    fn deadline_blown_case_does_not_poison_the_run() {
        assert_blast_radius_confined(
            crate::replay::FailPoints {
                stall_case: Some((cows::sym("HT-2"), 600)),
                ..Default::default()
            },
            "deadline",
        );
    }
}
