//! The batch path: `purposectl audit` run as a child process (untraced,
//! end-to-end numbers) and the same pipeline driven in-process on one
//! thread through each layer's public functions (traced, per-layer
//! numbers).

use crate::child::{fresh_dir, run_audit};
use crate::gen::Workload;
use crate::oracle::{Expected, Oracle};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::{Ctx, Report};
use audit::codec::parse_trail;
use bpmn::encode::Encoded;
use purpose_control::auditor::{AuditReport, CaseOutcome, CaseResult};
use purpose_control::replay::{check_case_with, Verdict};
use purpose_control::severity::assess;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Set-up probes after each measured run, and the fewest per benchmark
/// run (median reported).
const SETUPS_PER_REP: usize = 2;
const MIN_SETUPS: usize = 15;
/// Fewest measured `audit` runs, however long each takes.
const MIN_REPS: usize = 3;

pub fn audit_args(ctx: &Ctx, wl: &Workload, trail: &Path) -> Vec<String> {
    let mut args = vec!["--trail".to_string(), trail.display().to_string()];
    args.extend(wl.catalog_args());
    args.push("--threads".to_string());
    args.push(ctx.threads.to_string());
    if wl.cold_cache {
        args.push("--automaton-cache".to_string());
        args.push(wl.cache_dir().display().to_string());
    }
    args
}

/// The report header `purposectl audit` prints for the reference verdicts.
fn expected_header(oracle: &Oracle) -> String {
    let infringing = oracle.infringing();
    format!(
        "audit report: {} cases ({} compliant, {infringing} infringing), {} preventive violations",
        oracle.cases.len(),
        oracle.cases.len() - infringing,
        oracle.preventive
    )
}

/// Check one rendered report (header plus per-case lines) against the
/// reference, counting one operation per case plus one for the header and
/// exit code together.
pub fn check_report(text: &str, code: i32, oracle: &Oracle, report: &mut Report) {
    let mut lines: BTreeMap<&str, &str> = BTreeMap::new();
    for line in text.lines() {
        if line.contains(" entries] ") {
            if let Some(case) = line.split_whitespace().next() {
                lines.insert(case, line);
            }
        }
    }
    let want_code = i32::from(oracle.infringing() > 0);
    let header_ok = code == want_code && text.lines().any(|l| l == expected_header(oracle));
    report.op(header_ok, || {
        format!("report header or exit code {code} differs from the reference")
    });
    for (case, (n, expected)) in &oracle.cases {
        let want = Oracle::cli_line(case, *n, expected);
        let got = lines.remove(case.as_str());
        report.op(got == Some(want.as_str()), || {
            format!("case {case}: got {got:?}, want {want:?}")
        });
    }
    for (case, _) in lines {
        report.op(false, || format!("case {case} is not in the reference"));
    }
}

/// The untraced run: repeat the real command for `--seconds`, probing
/// set-up time on an empty trail after each run.
pub fn measure(
    ctx: &Ctx,
    wl: &Workload,
    oracle: &Oracle,
    report: &mut Report,
) -> Result<(), String> {
    let out = wl.dir.join("audit.out");
    let args = audit_args(ctx, wl, &wl.trail_path);
    let probe = audit_args(ctx, wl, &wl.empty_trail_path);
    let empty = Oracle {
        cases: BTreeMap::new(),
        preventive: 0,
    };
    let (mut walls, mut rss, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < MIN_REPS
        || start.elapsed().as_secs_f64() < ctx.seconds
        || setups.len() < MIN_SETUPS
    {
        if wl.cold_cache {
            fresh_dir(&wl.cache_dir())?;
        }
        let run = run_audit(&ctx.bin, &args, &out)?;
        check_report(&run.stdout, run.code, oracle, report);
        walls.push(run.wall.as_secs_f64());
        rss.push(run.maxrss_kib as f64 / 1024.0);
        // Set-up probes spread over the run, each with the snapshot state
        // the run just left.
        for _ in 0..SETUPS_PER_REP {
            let run = run_audit(&ctx.bin, &probe, &out)?;
            check_report(&run.stdout, run.code, &empty, report);
            setups.push(run.wall.as_secs_f64());
        }
    }

    let wall = median(&walls);
    let rate = wl.entries() as f64 / wall;
    // A batch audit acknowledges every entry, and delivers every verdict,
    // when it exits: within one run every entry's ingest latency and
    // verdict lag is the run's wall time (so p50 = p99), and the arrival
    // rate it keeps up with is its throughput. Medians over the runs.
    report.note(format!(
        "audit walls (s): {}",
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.runs = walls.len();
    report.metric("setup_s", median(&setups), "s");
    report.metric("entries_per_s", rate, "1/s");
    report.metric("peak_rss_mb", median(&rss), "MB");
    for name in [
        "ingest_p50_ms",
        "ingest_p99_ms",
        "verdict_lag_p50_ms",
        "verdict_lag_p99_ms",
    ] {
        report.metric(name, wall * 1e3, "ms");
    }
    report.metric("sustained_entries_per_s", rate, "1/s");
    Ok(())
}

/// Render a report exactly as `purposectl audit` prints it.
fn render(report: &AuditReport) -> String {
    let mut out = format!("{report}");
    for case in &report.cases {
        let expected = match &case.outcome {
            CaseOutcome::Compliant { can_complete } => Expected::Compliant {
                can_complete: *can_complete,
            },
            CaseOutcome::Infringement {
                infringement,
                severity,
            } => Expected::Infringement {
                entry_index: infringement.entry_index,
                severity: severity.score,
            },
            other => {
                writeln!(
                    out,
                    "  {:<8} [{} entries] {other:?}",
                    case.case.to_string(),
                    case.entries
                )
                .expect("writing to a String cannot fail");
                continue;
            }
        };
        out.push_str(&Oracle::cli_line(
            case.case.as_str(),
            case.entries,
            &expected,
        ));
        out.push('\n');
    }
    out
}

/// The traced in-process batch pipeline, stage by stage on one thread.
/// Returns the traced wall of the `audit` root span.
pub fn traced(
    wl: &Workload,
    oracle: &Oracle,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<f64, String> {
    let snapshot_dir = fresh_dir(&wl.dir.join("traced-cache"))?;
    let snapshot_path = |spec: &str| {
        Encoded::snapshot_path(Path::new(spec.trim_start_matches('@')), Some(&snapshot_dir))
    };
    let rendered = tracer.span("audit", |t| -> Result<String, String> {
        let text = t
            .span("audit.read", |_| std::fs::read_to_string(&wl.trail_path))
            .map_err(|e| format!("{}: {e}", wl.trail_path.display()))?;
        let trail = t
            .span("audit.parse", |_| parse_trail(&text))
            .map_err(|e| e.to_string())?;
        let auditor = t.span("bpmn.encode", |_| wl.auditor())?;
        let projected = t.span("audit.group", |_| {
            trail
                .cases()
                .into_iter()
                .map(|case| (case, trail.project_case(case)))
                .collect::<Vec<_>>()
        });
        let hierarchy = auditor.context.roles();
        let mut cases = Vec::with_capacity(projected.len());
        for (case, entries) in &projected {
            let purpose = auditor
                .resolve_case(*case)
                .ok_or_else(|| format!("case {case} resolves to no purpose"))?;
            let process = auditor
                .registry
                .process_for(purpose)
                .ok_or_else(|| format!("purpose {purpose} has no process"))?;
            let checked = t.span("core.replay", |_| {
                check_case_with(
                    &process.encoded,
                    hierarchy,
                    entries,
                    &auditor.options,
                    &auditor.recorder,
                    Some(&process.trie),
                )
            });
            let outcome = match checked {
                Ok(c) => match c.verdict {
                    Verdict::Compliant { can_complete } => CaseOutcome::Compliant { can_complete },
                    Verdict::Infringement(infringement) => {
                        let severity = t.span("core.severity", |_| {
                            assess(&infringement, entries, &auditor.sensitivity)
                        });
                        CaseOutcome::Infringement {
                            infringement,
                            severity,
                        }
                    }
                },
                Err(e) => CaseOutcome::Failed(e),
            };
            cases.push(CaseResult {
                case: *case,
                purpose: Some(purpose),
                entries: entries.len(),
                outcome,
                peak_configurations: 0,
                evidence: None,
            });
        }
        let preventive_violations =
            t.span("policy.preventive", |_| auditor.preventive_check(&trail));
        let rendered = t
            .span("cli.report", |_| {
                let out = render(&AuditReport {
                    cases,
                    preventive_violations,
                });
                std::fs::write(wl.dir.join("traced.out"), &out).map(|_| out)
            })
            .map_err(|e| e.to_string())?;
        t.span("cows.snapshot_save", |_| {
            for (purpose, spec) in &wl.processes {
                if let Some(rp) = auditor.registry.process_for(cows::sym(purpose)) {
                    rp.encoded
                        .save_snapshot(&snapshot_path(spec))
                        .map_err(|e| format!("snapshot save: {e}"))?;
                }
            }
            Ok::<(), String>(())
        })?;
        Ok(rendered)
    })?;
    let wall = tracer.total("audit");
    let code = i32::from(rendered.contains("INFRINGEMENT"));
    check_report(&rendered, code, oracle, report);

    // Warm start as the next invocation pays it: encode, then load the
    // snapshot this run saved.
    tracer.span("setup", |t| -> Result<(), String> {
        let auditor = t.span("bpmn.encode", |_| wl.auditor())?;
        t.span("cows.snapshot_load", |_| {
            for (purpose, spec) in &wl.processes {
                if let Some(rp) = auditor.registry.process_for(cows::sym(purpose)) {
                    rp.encoded
                        .load_snapshot(&snapshot_path(spec))
                        .map_err(|e| format!("snapshot load: {e}"))?;
                }
            }
            Ok::<(), String>(())
        })
    })?;
    let bytes: u64 = wl
        .processes
        .iter()
        .filter_map(|(_, spec)| std::fs::metadata(snapshot_path(spec)).ok())
        .map(|m| m.len())
        .sum();
    report.metric("cows.snapshot_bytes", bytes as f64, "bytes");
    Ok(wall)
}

/// One real `purposectl audit --metrics-out` run (same cache state as the
/// measured runs) for the cache counters the program exports.
pub fn exported_counters(
    ctx: &Ctx,
    wl: &Workload,
    oracle: &Oracle,
    report: &mut Report,
) -> Result<(), String> {
    let metrics_path = wl.dir.join("metrics.json");
    let mut args = audit_args(ctx, wl, &wl.trail_path);
    args.push("--metrics-out".to_string());
    args.push(metrics_path.display().to_string());
    if wl.cold_cache {
        fresh_dir(&wl.cache_dir())?;
    }
    let run = run_audit(&ctx.bin, &args, &wl.dir.join("audit.out"))?;
    check_report(&run.stdout, run.code, oracle, report);
    let text = std::fs::read_to_string(&metrics_path)
        .map_err(|e| format!("{}: {e}", metrics_path.display()))?;
    let doc = obs::parse_json(&text).map_err(|e| format!("metrics JSON: {e}"))?;
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let hit_rate = |hits: &str, misses: &str| ratio(counter(hits), counter(hits) + counter(misses));
    report.metric(
        "cows.automaton_states",
        counter("automaton_states"),
        "count",
    );
    report.metric(
        "cows.automaton_expanded",
        counter("automaton_expanded"),
        "count",
    );
    report.metric(
        "cows.edge_hit_rate",
        hit_rate("automaton_edge_hits", "automaton_edge_misses"),
        "ratio",
    );
    report.metric(
        "cows.transitions_hit_rate",
        hit_rate("semantics_cache_hits", "semantics_cache_misses"),
        "ratio",
    );
    report.metric(
        "core.trie_hit_rate",
        hit_rate("trie_hits", "trie_misses"),
        "ratio",
    );
    report.metric("core.trie_bytes", counter("trie_bytes"), "bytes");
    Ok(())
}
