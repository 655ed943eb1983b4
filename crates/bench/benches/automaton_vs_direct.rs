//! The engine ablation: Algorithm 1 driven by the production engine (the
//! replay trie over the compiled `ProcessAutomaton`) versus the direct
//! per-case `WeakNext` recomputation of the oracle.
//!
//! The workload is the repeated-same-process shape the automaton targets:
//! 100 simulated `HT-*` cases of the running example's treatment process,
//! all replayed against one shared encoding. The direct engine rewrites
//! COWS terms for every case; the production engine compiles each state
//! once, walks integer edges and memoizes steps shared across cases.

use audit::entry::LogEntry;
use bpmn::encode::encode;
use bpmn::models::healthcare_treatment;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use policy::hierarchy::RoleHierarchy;
use purpose_control::replay::{check_case_with, CheckOptions, Engine};
use purpose_control::ReplayTrie;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use workload::simulate::{simulate_case, SimConfig};

const CASES: usize = 100;

fn bench_engines(c: &mut Criterion) {
    let encoded = encode(&healthcare_treatment());
    let mut rng = StdRng::seed_from_u64(7);
    let cases: Vec<Vec<LogEntry>> = (1..=CASES)
        .map(|i| {
            let mut cfg = SimConfig::new(format!("subject{i:03}").as_str());
            cfg.start = audit::Timestamp(6_000_000 + i as u64 * 600);
            simulate_case(&encoded, format!("HT-{i}").as_str(), &cfg, &mut rng)
        })
        .collect();
    let hierarchy = RoleHierarchy::new();

    let mut g = c.benchmark_group("automaton_vs_direct");
    g.throughput(Throughput::Elements(CASES as u64));
    for (name, engine) in [("direct", Engine::Direct), ("production", Engine::Trie)] {
        let opts = CheckOptions {
            engine,
            ..CheckOptions::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                // One trie per pass, shared across its cases as the auditor
                // shares it; the direct oracle ignores it.
                let trie = Arc::new(ReplayTrie::new(encoded.automaton.clone()));
                let mut compliant = 0usize;
                for entries in &cases {
                    let refs: Vec<&LogEntry> = entries.iter().collect();
                    let out = check_case_with(
                        &encoded,
                        &hierarchy,
                        &refs,
                        &opts,
                        &obs::Recorder::noop(),
                        Some(&trie),
                    )
                    .expect("replay machinery succeeds");
                    if out.verdict.is_compliant() {
                        compliant += 1;
                    }
                }
                black_box(compliant)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
