//! Case grouping identity: every batch path groups the trail by case once
//! (`AuditTrail::by_case`) and replays each case's slice. Each must report
//! exactly what a per-case `check_one_case` loop over `project_case`
//! reports — outcomes, severities, counters and evidence traces.

use audit::samples::figure4_trail;
use audit::trail::AuditTrail;
use bpmn::models::{clinical_trial, healthcare_treatment};
use cows::symbol::{sym, Symbol};
use policy::object::ObjectId;
use policy::samples::{
    clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
};
use purpose_control::auditor::{AuditReport, Auditor, CaseOutcome, CaseResult, ProcessRegistry};
use purpose_control::parallel::{audit_cases_parallel, audit_parallel, check_cases_parallel};
use std::collections::{BTreeMap, BTreeSet};
use workload::dupheavy::{generate_dupheavy, DupHeavyConfig};

fn evidence_auditor() -> Auditor {
    let mut registry = ProcessRegistry::new();
    registry.register(treatment(), healthcare_treatment());
    registry.register(clinical_trial_purpose(), clinical_trial());
    registry.add_case_prefix("HT-", treatment());
    registry.add_case_prefix("CT-", clinical_trial_purpose());
    registry.add_case_prefix("DH-", treatment());
    let mut auditor = Auditor::new(registry, extended_hospital_policy(), hospital_context());
    auditor.options.record_evidence = true;
    auditor
}

fn small_dupheavy_day() -> AuditTrail {
    generate_dupheavy(
        &DupHeavyConfig {
            cases: 120,
            archetypes: 3,
            duplicate_fraction: 0.9,
            deviant_fraction: 0.1,
            error_prob: 0.1,
        },
        5,
    )
    .trail
}

/// Everything a case reports, rendered: the result (outcome with its
/// severity, entry count, peak configurations) and the evidence trace
/// materialized against `project_case`. (Raw evidence is compared through
/// its trace: its debug form also shows the shared automaton's running
/// cache counters.)
fn fingerprint(auditor: &Auditor, trail: &AuditTrail, r: &CaseResult) -> String {
    let entries = trail.project_case(r.case);
    let trace = auditor
        .case_evidence(r, &entries)
        .map(|ev| ev.to_json_line());
    let result = CaseResult {
        evidence: None,
        ..r.clone()
    };
    format!("{result:?}\n{}\n{trace:?}", r.evidence.is_some())
}

fn report_fingerprint(auditor: &Auditor, trail: &AuditTrail, report: &AuditReport) -> Vec<String> {
    let mut out: Vec<String> = report
        .cases
        .iter()
        .map(|r| fingerprint(auditor, trail, r))
        .collect();
    out.push(format!("{:?}", report.preventive_violations));
    out
}

/// The per-case loop every grouped path must equal.
fn per_case_loop(auditor: &Auditor, trail: &AuditTrail, cases: &BTreeSet<Symbol>) -> Vec<String> {
    let mut out: Vec<String> = cases
        .iter()
        .map(|&c| fingerprint(auditor, trail, &auditor.check_one_case(trail, c)))
        .collect();
    out.push(format!("{:?}", auditor.preventive_check(trail)));
    out
}

#[test]
fn grouped_audits_equal_the_per_case_loop() {
    let auditor = evidence_auditor();
    for trail in [figure4_trail(), small_dupheavy_day()] {
        let expected = per_case_loop(&auditor, &trail, &trail.cases());
        assert!(expected.iter().any(|f| f.contains("Infringement")));
        assert_eq!(
            report_fingerprint(&auditor, &trail, &auditor.audit(&trail)),
            expected,
            "audit"
        );
        for threads in [1, 2, 8] {
            let report = audit_parallel(&auditor, &trail, threads);
            assert_eq!(
                report_fingerprint(&auditor, &trail, &report),
                expected,
                "audit_parallel at {threads} threads"
            );
        }
    }
}

#[test]
fn object_audit_equals_the_per_case_loop_over_touched_cases() {
    let auditor = evidence_auditor();
    let day = small_dupheavy_day();
    // The dupheavy day's most-shared patient record, and Jane's EPR in
    // Fig. 4 (HT-1 and the HT-11 sweep).
    let mut cases_by_subject: BTreeMap<Symbol, BTreeSet<Symbol>> = BTreeMap::new();
    for e in day.iter() {
        if let Some(subject) = e.object.as_ref().and_then(|o| o.subject) {
            cases_by_subject.entry(subject).or_default().insert(e.case);
        }
    }
    let (&patient, _) = cases_by_subject
        .iter()
        .max_by_key(|(_, cases)| cases.len())
        .expect("the day accesses patient records");
    for (trail, object) in [
        (day, ObjectId::of_subject(patient, "EPR")),
        (figure4_trail(), ObjectId::of_subject("Jane", "EPR")),
    ] {
        let touched = trail.cases_touching(&object);
        assert!(!touched.is_empty(), "{object:?} touches no case");
        assert_eq!(
            report_fingerprint(&auditor, &trail, &auditor.audit_object(&trail, &object)),
            per_case_loop(&auditor, &trail, &touched),
        );
    }
}

#[test]
fn absent_cases_report_zero_entries_and_their_usual_outcome() {
    let auditor = evidence_auditor();
    let trail = figure4_trail();
    // Present, absent-but-resolvable (replays an empty slice) and
    // absent-and-unresolvable.
    let cases = BTreeSet::from([sym("HT-1"), sym("HT-404"), sym("XX-404")]);
    let expected = per_case_loop(&auditor, &trail, &cases);
    for report in [
        auditor.audit_cases(&trail, &cases),
        audit_cases_parallel(&auditor, &trail, &cases, 2),
    ] {
        assert_eq!(report_fingerprint(&auditor, &trail, &report), expected);
        let by_case: BTreeMap<Symbol, &CaseResult> =
            report.cases.iter().map(|c| (c.case, c)).collect();
        assert_eq!(by_case[&sym("HT-404")].entries, 0);
        assert_eq!(by_case[&sym("XX-404")].entries, 0);
        assert!(matches!(
            by_case[&sym("XX-404")].outcome,
            CaseOutcome::Unresolved(_)
        ));
    }
    let listed: Vec<Symbol> = cases.iter().copied().collect();
    let results = check_cases_parallel(&auditor, &trail, &listed, 2);
    let fingerprints: Vec<String> = results
        .iter()
        .map(|r| fingerprint(&auditor, &trail, r))
        .collect();
    assert_eq!(fingerprints, expected[..cases.len()]);
}
