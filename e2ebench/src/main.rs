//! End-to-end benchmark of the user paths `purposectl audit` and
//! `purposectl serve`, driven from outside as child processes, with every
//! verdict checked against the direct Algorithm 1 oracle. `--trace 1`
//! instead runs the per-layer view: the same pipeline in-process on one
//! thread with spans around each layer's public calls.
//!
//! Usage (normally through `run.py`, which builds both binaries first):
//!
//! ```text
//! e2ebench --workload <audit-dupheavy|audit-gateway|serve-live> --seed <n>
//!          --seconds <s> --trace <0|1> --bin <purposectl> --work <dir>
//!          --nominal-posts-per-s <r> --lag-limit-ms <ms>
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (name → value and unit).

mod batch;
mod child;
mod gen;
mod oracle;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// What every part of a run needs to know.
pub struct Ctx {
    pub bin: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// `nproc`: audit threads, serve shards, generator threads and
    /// connections.
    pub threads: usize,
}

/// Operations attempted and failed, plus the metrics, of one run.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    /// Measured repetitions behind the medians.
    pub runs: usize,
}

impl Report {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn ops(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failures.extend(failures);
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    fn json(&self, names: &[&str]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|name| {
                let (_, value, unit) = self
                    .metrics
                    .iter()
                    .find(|m| m.0 == *name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// Printed with `--trace 0`, in `BENCHMARK.json` order.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "entries_per_s",
    "peak_rss_mb",
    "ingest_p50_ms",
    "ingest_p99_ms",
    "verdict_lag_p50_ms",
    "verdict_lag_p99_ms",
    "sustained_entries_per_s",
];

/// Printed with `--trace 1`: (metric, span whose self time it is).
const LAYER_TIMES: [(&str, &str); 10] = [
    ("audit.read_s", "audit.read"),
    ("audit.parse_s", "audit.parse"),
    ("audit.group_s", "audit.group"),
    ("core.replay_s", "core.replay"),
    ("core.severity_s", "core.severity"),
    ("policy.preventive_s", "policy.preventive"),
    ("cli.report_s", "cli.report"),
    ("bpmn.encode_s", "bpmn.encode"),
    ("cows.snapshot_load_s", "cows.snapshot_load"),
    ("cows.snapshot_save_s", "cows.snapshot_save"),
];
const PER_LAYER: [&str; 31] = [
    "audit.read_s",
    "audit.parse_s",
    "audit.group_s",
    "core.replay_s",
    "core.severity_s",
    "policy.preventive_s",
    "cli.report_s",
    "bpmn.encode_s",
    "cows.snapshot_load_s",
    "cows.snapshot_save_s",
    "cows.snapshot_bytes",
    "cows.automaton_states",
    "cows.automaton_expanded",
    "cows.edge_hit_rate",
    "cows.transitions_hit_rate",
    "core.trie_hit_rate",
    "core.trie_bytes",
    "serve.healthz_rtt_p50_ms",
    "serve.healthz_rtt_p99_ms",
    "serve.admission_us_p99",
    "serve.queue_wait_us_p99",
    "serve.replay_us_p99",
    "serve.verdict_us_p99",
    "live.entries_per_s",
    "live.evictions",
    "live.rehydrations",
    "live.evictions_avoided",
    "live.spill_tier_hit_rate",
    "bench.generator_late_p99_ms",
    "bench.stage_coverage",
    "bench.traced_wall_s",
];

struct Args {
    workload: String,
    ctx: Ctx,
    trace: bool,
    work: PathBuf,
    load: serve::LoadSpec,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let num = |name: &str, default: Option<f64>| -> Result<f64, String> {
        match flag(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: `{v}` is not a number")),
            None => default.ok_or_else(|| format!("missing {name}")),
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload: flag("--workload").ok_or("missing --workload")?.to_string(),
        ctx: Ctx {
            bin: PathBuf::from(flag("--bin").ok_or("missing --bin")?),
            seed: flag("--seed")
                .ok_or("missing --seed")?
                .parse()
                .map_err(|_| "--seed: not a whole number")?,
            seconds: num("--seconds", None)?,
            threads,
        },
        trace: num("--trace", Some(0.0))? != 0.0,
        work: PathBuf::from(flag("--work").unwrap_or(".bench_work")),
        load: serve::LoadSpec {
            nominal_posts_per_s: num("--nominal-posts-per-s", None)?,
            lag_limit_ms: num("--lag-limit-ms", None)?,
        },
    })
}

/// Identifies the build that generated cached inputs and reference verdicts.
fn build_stamp() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let modified = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{modified}", m.len())
        })
        .unwrap_or_default()
}

fn run(args: &Args) -> Result<Report, String> {
    let ctx = &args.ctx;
    let stamp = build_stamp();
    let wl = gen::prepare(&args.workload, ctx.seed, &args.work, &stamp)?;
    let auditor = wl.auditor()?;
    let oracle = oracle::Oracle::compute(
        &auditor,
        &wl.trail,
        ctx.threads,
        &args.work.join(format!("{}-memo.txt", wl.name)),
        &stamp,
    )?;
    println!(
        "workload {}: {} entries, {} cases, peak concurrency {}, {} infringing by the reference; {}",
        wl.name,
        wl.entries(),
        wl.cases,
        wl.peak_concurrency,
        oracle.infringing(),
        wl.why
    );

    let mut report = Report::default();
    if !args.trace {
        if wl.name == "serve-live" {
            serve::measure(ctx, &wl, &oracle, &args.load, &mut report)?;
        } else {
            batch::measure(ctx, &wl, &oracle, &mut report)?;
        }
        return Ok(report);
    }

    let mut tracer = trace::Tracer::new();
    let wall = batch::traced(&wl, &oracle, &mut tracer, &mut report)?;
    batch::exported_counters(ctx, &wl, &oracle, &mut report)?;
    serve::traced(ctx, &wl, &oracle, &args.load, &mut tracer, &mut report)?;
    let self_times = tracer.self_times();
    for (metric, span) in LAYER_TIMES {
        report.metric(metric, self_times.get(span).copied().unwrap_or(0.0), "s");
    }
    report.metric("bench.stage_coverage", tracer.coverage("audit"), "ratio");
    report.metric("bench.traced_wall_s", wall, "s");
    let spans = wl.dir.join("spans.jsonl");
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    report.note(format!("spans written to {}", spans.display()));
    report.runs = 1;
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(1);
        }
    };
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    println!(
        "provenance: rev {} source {} rustc {} nproc {} seed {} seconds {} trace {} runs {} estimator median",
        env("E2EBENCH_REV"),
        env("E2EBENCH_SOURCE"),
        env("E2EBENCH_RUSTC"),
        args.ctx.threads,
        args.ctx.seed,
        args.ctx.seconds,
        u8::from(args.trace),
        report.runs
    );
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    println!(
        "error_rate {} ({} failed of {} operations)",
        stats::ratio(report.failures.len() as f64, report.attempted as f64),
        report.failures.len(),
        report.attempted
    );
    for failure in report.failures.iter().take(10) {
        println!("  FAILED: {failure}");
    }
    let names: Vec<&str> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    println!("{}", report.json(&names));
    ExitCode::SUCCESS
}
