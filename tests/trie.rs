//! Production-engine equivalence: replay through the prefix-sharing trie
//! is a pure compilation of Algorithm 1, so every observable output —
//! verdicts, evidence traces, Algorithm-1 counters — must be byte-identical
//! to the direct Algorithm 1 oracle (`Engine::Direct`), on every workload
//! and at every thread count. These tests pin that, plus the trie's own
//! counters and its flush path.

use audit::entry::LogEntry;
use audit::samples::figure4_trail;
use audit::trail::AuditTrail;
use bpmn::encode::{encode, Encoded};
use bpmn::models::{clinical_trial, healthcare_treatment};
use cows::symbol::Symbol;
use obs::json::{parse_json, validate};
use obs::Registry;
use policy::hierarchy::RoleHierarchy;
use policy::samples::{
    clinical_trial_purpose, extended_hospital_policy, hospital_context, treatment,
};
use purpose_control::auditor::{AuditReport, Auditor, ProcessRegistry};
use purpose_control::parallel::audit_parallel;
use purpose_control::replay::{check_case, check_case_with, CheckOptions, Engine};
use purpose_control::{LiveAuditor, LiveConfig, ReplayTrie};
use std::collections::BTreeMap;
use std::sync::Arc;
use workload::dupheavy::{generate_dupheavy, DupHeavyConfig};
use workload::hospital::{generate_day, HospitalConfig};

fn hospital_auditor(engine: Engine) -> Auditor {
    let mut registry = ProcessRegistry::new();
    registry.register(treatment(), healthcare_treatment());
    registry.register(clinical_trial_purpose(), clinical_trial());
    registry.add_case_prefix("HT-", treatment());
    registry.add_case_prefix("CT-", clinical_trial_purpose());
    registry.add_case_prefix("DH-", treatment());
    let mut auditor = Auditor::new(registry, extended_hospital_policy(), hospital_context());
    auditor.options.engine = engine;
    auditor
}

fn dupheavy_trail(seed: u64) -> AuditTrail {
    generate_dupheavy(
        &DupHeavyConfig {
            cases: 120,
            archetypes: 3,
            duplicate_fraction: 0.9,
            deviant_fraction: 0.1,
            error_prob: 0.1,
        },
        seed,
    )
    .trail
}

/// The full per-case fingerprint two engines must agree on: the whole
/// outcome (infringement index, expected and active sets, severity), the
/// peak configuration count and the case size.
fn report_fingerprint(report: &AuditReport) -> BTreeMap<Symbol, (String, usize, usize)> {
    report
        .cases
        .iter()
        .map(|c| {
            (
                c.case,
                (format!("{:?}", c.outcome), c.peak_configurations, c.entries),
            )
        })
        .collect()
}

/// Per-case `(verdict, explored_successors, peak_configurations)` of every
/// case of `trail`, replayed over `threads` workers. With `shared`, every
/// worker steps through that one trie (the auditor's arrangement).
fn replay_fingerprint(
    encoded: &Encoded,
    trail: &AuditTrail,
    opts: &CheckOptions,
    shared: Option<&Arc<ReplayTrie>>,
    threads: usize,
) -> BTreeMap<Symbol, (String, usize, usize)> {
    let h = hospital_context().roles().clone();
    let cases: Vec<Symbol> = trail.cases().into_iter().collect();
    let chunk = cases.len().div_ceil(threads.max(1));
    std::thread::scope(|s| {
        let workers: Vec<_> = cases
            .chunks(chunk)
            .map(|slice| {
                let h = &h;
                s.spawn(move || {
                    slice
                        .iter()
                        .map(|&case| {
                            let entries = trail.project_case(case);
                            let check = check_case_with(
                                encoded,
                                h,
                                &entries,
                                opts,
                                &obs::Recorder::noop(),
                                shared,
                            )
                            .expect("replay succeeds");
                            (
                                case,
                                (
                                    format!("{:?}", check.verdict),
                                    check.explored_successors,
                                    check.peak_configurations,
                                ),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("replay worker panicked"))
            .collect()
    })
}

/// The duplicate-heavy property — 90%+ shared prefixes, production engine
/// vs the direct oracle byte-identical verdicts and counters at 1, 2 and 8
/// threads, through the auditor and through a raw shared trie.
#[test]
fn dupheavy_production_matches_the_oracle_at_all_thread_counts() {
    for seed in [7u64, 42] {
        let trail = dupheavy_trail(seed);
        let oracle = hospital_auditor(Engine::Direct);
        let production = hospital_auditor(Engine::Trie);
        let baseline = report_fingerprint(&audit_parallel(&oracle, &trail, 1));
        assert!(
            baseline
                .values()
                .any(|(o, _, _)| o.starts_with("Infringement")),
            "workload must include deviant cases"
        );

        let encoded = encode(&healthcare_treatment());
        let direct = CheckOptions {
            engine: Engine::Direct,
            ..CheckOptions::default()
        };
        let counters = replay_fingerprint(&encoded, &trail, &direct, None, 1);
        let shared = Arc::new(ReplayTrie::new(encoded.automaton.clone()));
        for threads in [1usize, 2, 8] {
            let got = report_fingerprint(&audit_parallel(&production, &trail, threads));
            assert_eq!(
                baseline, got,
                "production diverged from the oracle at {threads} threads (seed {seed})"
            );
            let got = replay_fingerprint(
                &encoded,
                &trail,
                &CheckOptions::default(),
                Some(&shared),
                threads,
            );
            assert_eq!(
                counters, got,
                "explored/peak counters diverged at {threads} threads (seed {seed})"
            );
        }
    }
}

/// The paper's own workloads (Fig. 4 scenario and the hospital day) replay
/// identically under the production engine and the oracle.
#[test]
fn paper_workloads_replay_identically_to_the_oracle() {
    let day = generate_day(
        &HospitalConfig {
            target_entries: 400,
            trial_fraction: 0.1,
            attack_fraction: 0.2,
            error_prob: 0.1,
        },
        1337,
    );
    for trail in [figure4_trail(), day.trail] {
        let oracle = hospital_auditor(Engine::Direct);
        let production = hospital_auditor(Engine::Trie);
        assert_eq!(
            report_fingerprint(&oracle.audit(&trail)),
            report_fingerprint(&production.audit(&trail)),
        );
    }
}

/// Evidence traces are byte-identical modulo the provenance engine label.
#[test]
fn evidence_traces_match_the_oracle_modulo_engine_label() {
    let trail = dupheavy_trail(3);
    let mut oracle = hospital_auditor(Engine::Direct);
    oracle.options.record_evidence = true;
    let mut production = hospital_auditor(Engine::Trie);
    production.options.record_evidence = true;
    let o_report = oracle.audit(&trail);
    let p_report = production.audit(&trail);
    assert_eq!(o_report.cases.len(), p_report.cases.len());
    let mut compared = 0usize;
    for (o, p) in o_report.cases.iter().zip(&p_report.cases) {
        assert_eq!(o.case, p.case);
        let (Some(mut oe), Some(mut pe)) = (
            oracle.case_evidence(&trail, o),
            production.case_evidence(&trail, p),
        ) else {
            assert_eq!(o.evidence.is_some(), p.evidence.is_some());
            continue;
        };
        assert_eq!(oe.engine, "direct");
        assert_eq!(pe.engine, "trie");
        oe.engine.clear();
        pe.engine.clear();
        assert_eq!(oe.to_json_line(), pe.to_json_line(), "case {}", o.case);
        compared += 1;
    }
    assert!(compared > 50, "only {compared} evidence traces compared");
}

/// The live monitor raises the same alarms as the oracle under
/// eviction/rehydration pressure (resident cap far below the case count,
/// so sessions round-trip the spill path mid-case). The production engine
/// spills through the run-local `PCLE` envelope; a durable checkpoint and
/// restore halfway through brings its sessions back through the `PCLC`
/// path too. The oracle spills through `PCLC` throughout.
#[test]
fn live_monitor_matches_the_oracle_under_eviction_pressure() {
    let trail = dupheavy_trail(11);
    let config = LiveConfig {
        max_open_cases: 8,
        ..LiveConfig::default()
    };
    let run = |engine: Engine, restore_at: Option<usize>| {
        let mut monitor = LiveAuditor::with_config(hospital_auditor(engine), config.clone());
        let mut rehydrations = 0u64;
        for (i, entry) in trail.entries().iter().enumerate() {
            if restore_at == Some(i) {
                rehydrations += monitor.stats().rehydrations;
                let bytes = monitor.checkpoint(i as u64).unwrap();
                let (restored, offset) =
                    LiveAuditor::restore(hospital_auditor(engine), config.clone(), &bytes).unwrap();
                assert_eq!(offset, i as u64);
                assert!(restored.open_cases() > 0, "restore admitted no sessions");
                monitor = restored;
            }
            monitor.observe(entry).unwrap();
        }
        rehydrations += monitor.stats().rehydrations;
        assert!(rehydrations > 0, "{engine:?}: no session was rehydrated");
        let mut by_case: BTreeMap<Symbol, String> = monitor
            .alarms()
            .into_iter()
            .map(|(case, inf)| (case, format!("{inf:?}")))
            .collect();
        let (retired, errors) = monitor.retire_completed();
        assert!(errors.is_empty(), "{engine:?}: {errors:?}");
        for case in retired {
            by_case.entry(case).or_insert_with(|| "retired".to_string());
        }
        by_case
    };
    let oracle = run(Engine::Direct, None);
    assert!(!oracle.is_empty());
    assert_eq!(oracle, run(Engine::Trie, None), "PCLE spill path");
    assert_eq!(
        oracle,
        run(Engine::Trie, Some(trail.len() / 2)),
        "PCLE spill plus PCLC restore"
    );
}

/// Trie counters land in the metrics export, under the committed schema.
#[test]
fn trie_counters_export_and_match_schema() {
    let trail = dupheavy_trail(5);
    let metrics = Arc::new(Registry::new());
    purpose_control::register_audit_metrics(&metrics);
    let mut auditor = hospital_auditor(Engine::Trie);
    auditor.metrics = Some(Arc::clone(&metrics));
    audit::trail_stats(&trail).export_into(&metrics);
    let report = audit_parallel(&auditor, &trail, 4);
    assert!(!report.cases.is_empty());
    for purpose in auditor.registry.purposes() {
        let rp = auditor.registry.process_for(purpose).unwrap();
        rp.encoded.automaton.stats().export_into(&metrics);
        rp.trie.stats().export_into(&metrics);
    }
    cows::semantics::cache_stats().export_into(&metrics);

    // On a duplicate-heavy day the cache must dominate: far more steps
    // served from the trie than computed into it.
    let hits = metrics.counter_value("trie_hits");
    let misses = metrics.counter_value("trie_misses");
    assert!(
        hits > 4 * misses.max(1),
        "expected a hit-dominated run, got {hits} hits / {misses} misses"
    );
    assert!(metrics.counter_value("trie_frontiers") > 0);
    assert!(metrics.counter_value("trie_transitions") > 0);
    assert!(metrics.counter_value("trie_bytes") > 0);

    let doc = parse_json(&metrics.to_json()).expect("metrics export parses");
    let schema_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("schemas")
        .join("metrics.schema.json");
    let schema = parse_json(&std::fs::read_to_string(schema_path).unwrap()).unwrap();
    let errors = validate(&doc, &schema);
    assert!(errors.is_empty(), "schema violations: {errors:?}");
}

/// A trie capped to a handful of cached transitions flushes wholesale and
/// recomputes — verdicts must not move.
#[test]
fn tiny_transition_cap_flushes_without_changing_verdicts() {
    let encoded = encode(&healthcare_treatment());
    let h = RoleHierarchy::new();
    let tiny = Arc::new(ReplayTrie::with_max_transitions(
        encoded.automaton.clone(),
        2,
    ));
    let trail = dupheavy_trail(9);
    let oracle_opts = CheckOptions {
        engine: Engine::Direct,
        ..CheckOptions::default()
    };
    let mut checked = 0usize;
    for case in trail.cases() {
        let entries: Vec<&LogEntry> = trail.project_case(case);
        let expected = check_case(&encoded, &h, &entries, &oracle_opts).unwrap();
        let got = check_case_with(
            &encoded,
            &h,
            &entries,
            &CheckOptions::default(),
            &obs::Recorder::noop(),
            Some(&tiny),
        )
        .unwrap();
        assert_eq!(expected.verdict, got.verdict, "case {case}");
        assert_eq!(expected.explored_successors, got.explored_successors);
        assert_eq!(expected.peak_configurations, got.peak_configurations);
        checked += 1;
    }
    assert!(checked > 100);
    // The cap held: the cache never outgrew its bound.
    assert!(tiny.stats().transitions <= 2);
}

/// A shared trie bound to one role hierarchy refuses to serve a session
/// under a different one — typed error, not silently wrong verdicts.
#[test]
fn trie_bound_to_another_hierarchy_is_refused() {
    let encoded = encode(&healthcare_treatment());
    let trie = Arc::new(ReplayTrie::new(encoded.automaton.clone()));
    let flat = RoleHierarchy::new();
    let hospital = hospital_context().roles().clone();
    trie.bind(&flat).unwrap();
    // Re-binding to the same hierarchy is fine; a different one is not.
    trie.bind(&flat).unwrap();
    let err = trie.bind(&hospital).unwrap_err();
    assert!(matches!(
        err,
        purpose_control::CheckError::EngineConfig { .. }
    ));
}
