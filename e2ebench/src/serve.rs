//! The service path: `purposectl serve` as a child process, fed by an
//! open-loop generator (requests timed from when they were due, not from
//! when they were sent), plus the live layer driven in-process.
//!
//! Each of the `nproc` generator threads owns one connection slot and one
//! tenant, and sends that tenant's cases in arrival order: the trail is
//! split by the shared case-routing hash, so every case reaches exactly
//! one tenant whole and in order, and every batch's end offset in its
//! tenant's stream is known. Each thread also polls its tenant's
//! `verdicts` at a fixed interval on the same connection slot.

use crate::child::{request, Server};
use crate::gen::Workload;
use crate::oracle::{Expected, Oracle};
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::{Ctx, Report};
use audit::codec::parse_trail;
use purpose_control::{LiveConfig, LiveStats, ShardedMonitor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Entries per POST.
pub const BATCH: usize = 40;
/// Resident sessions per tenant: far below each tenant's peak concurrency.
pub const MAX_OPEN_CASES: usize = 32;
/// Verdict poll interval per generator thread.
const POLL_MS: f64 = 50.0;
/// `GET /healthz` sample interval (last thread only).
const HEALTHZ_MS: f64 = 250.0;
/// Ladder rungs, POSTs per second over all connections: from `LADDER_FROM`
/// to `LADDER_TO` times the closed-loop rate the bulk phase measured,
/// `LADDER_STEP` apart. Open loop cannot sustain more than closed loop, so
/// the ladder tops out where the server does, not at a fixed rate.
const LADDER_FROM: f64 = 0.6;
const LADDER_TO: f64 = 1.5;
const LADDER_STEP: f64 = 1.04;
/// POSTs per tenant in each ladder step, whatever its rate, so that the
/// ladder fits in the day however fast the server gets.
const STEP_POSTS: usize = 40;
/// The ladder stops after this many unsustained steps in a row.
const LADDER_MISSES: usize = 2;
/// Generator lateness p99 above which a ladder step counts as unsustained.
const LATE_LIMIT_MS: f64 = 25.0;
/// POSTs per tenant of the closed-loop bulk phase.
const BULK_POSTS: usize = 150;
/// Set-up probes before and again after the measured server.
const SETUP_PROBES: usize = 8;
/// How long a queue may take to drain after a phase before entries count
/// as lost.
const SETTLE_LIMIT: Duration = Duration::from_secs(30);

/// Open-loop settings (from the command line, fixed in `BENCHMARK.json`).
pub struct LoadSpec {
    /// Nominal POST rate over all connections.
    pub nominal_posts_per_s: f64,
    /// Verdict-lag p99 a ladder step must meet.
    pub lag_limit_ms: f64,
}

/// One tenant's share of the trail.
struct Feed {
    tenant: String,
    bodies: Vec<String>,
    /// Entries in the tenant's stream after each batch.
    ends: Vec<u64>,
    cases: Vec<String>,
}

fn feeds(wl: &Workload, n: usize) -> Result<Vec<Feed>, String> {
    let text = std::fs::read_to_string(&wl.trail_path).map_err(|e| e.to_string())?;
    let mut lines: Vec<Vec<&str>> = vec![Vec::new(); n];
    let mut cases: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for line in text.lines() {
        let case = line.split_whitespace().nth(5).ok_or("short trail line")?;
        let j = audit::partition_of(audit::case_key(case), n);
        lines[j].push(line);
        cases[j].insert(case.to_string());
    }
    Ok(lines
        .into_iter()
        .zip(cases)
        .enumerate()
        .map(|(j, (lines, cases))| {
            let mut ends = Vec::new();
            let mut end = 0u64;
            let bodies = lines
                .chunks(BATCH)
                .map(|chunk| {
                    end += chunk.len() as u64;
                    ends.push(end);
                    let mut body = chunk.join("\n");
                    body.push('\n');
                    body
                })
                .collect();
            Feed {
                tenant: format!("p{j}"),
                bodies,
                ends,
                cases: cases.into_iter().collect(),
            }
        })
        .collect())
}

#[derive(Clone, Copy)]
enum Kind {
    Post(usize),
    Poll,
    Health,
}

/// One request as the generator saw it; times are seconds from the
/// phase start.
struct Sample {
    kind: Kind,
    due: f64,
    sent: f64,
    done: f64,
    status: u16,
    /// Poll: `audited`/`queued`. Post: `quarantined` in `queued`.
    audited: u64,
    queued: u64,
}

fn field(body: &str, key: &str) -> u64 {
    obs::parse_json(body)
        .ok()
        .and_then(|d| d.get(key).and_then(|v| v.as_f64()))
        .map_or(0, |v| v as u64)
}

fn send(addr: &str, tenant: &str, feed: &Feed, kind: Kind) -> (u16, u64, u64) {
    let (method, path, body) = match kind {
        Kind::Post(k) => (
            "POST",
            format!("/v1/{tenant}/entries"),
            feed.bodies[k].as_str(),
        ),
        Kind::Poll => ("GET", format!("/v1/{tenant}/verdicts"), ""),
        Kind::Health => ("GET", "/healthz".to_string(), ""),
    };
    match request(addr, method, &path, body) {
        Ok((status, body)) => match kind {
            Kind::Poll => (status, field(&body, "audited"), field(&body, "queued")),
            Kind::Post(_) => (status, 0, field(&body, "quarantined")),
            Kind::Health => (status, 0, 0),
        },
        Err(_) => (0, 0, 0),
    }
}

/// Play one thread's timeline; `None` due times mean back-to-back.
fn play(addr: &str, feed: &Feed, events: &[(Option<f64>, Kind)], t0: Instant) -> Vec<Sample> {
    events
        .iter()
        .map(|&(due, kind)| {
            if let Some(due) = due {
                let wait = due - t0.elapsed().as_secs_f64();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
            }
            let sent = t0.elapsed().as_secs_f64();
            let (status, audited, queued) = send(addr, &feed.tenant, feed, kind);
            Sample {
                kind,
                due: due.unwrap_or(sent),
                sent,
                done: t0.elapsed().as_secs_f64(),
                status,
                audited,
                queued,
            }
        })
        .collect()
}

/// What one phase showed.
#[derive(Default)]
struct Phase {
    posts: usize,
    refused: usize,
    quarantined: u64,
    ingest_s: Vec<f64>,
    lag_s: Vec<f64>,
    late_s: Vec<f64>,
    healthz_s: Vec<f64>,
    backlog_grew: bool,
    /// Entries the tenants accepted in this phase.
    entries: u64,
    /// Phase start until every tenant had audited all it was sent.
    wall: f64,
    lost: bool,
}

impl Phase {
    /// Why the phase's rate was not sustained (empty when it was): refused
    /// POSTs, lost entries, a growing backlog, verdict lag or generator
    /// lateness over its limit.
    fn unsustained(&self, load: &LoadSpec) -> String {
        let lag = percentile(&self.lag_s, 0.99) * 1e3;
        let late = percentile(&self.late_s, 0.99) * 1e3;
        [
            (self.refused > 0, "refused".to_string()),
            (self.lost, "lost".to_string()),
            (self.backlog_grew, "backlog".to_string()),
            (lag > load.lag_limit_ms, format!("lag {lag:.0}ms")),
            (late > LATE_LIMIT_MS, format!("late {late:.0}ms")),
        ]
        .into_iter()
        .filter_map(|(hit, why)| hit.then_some(why))
        .collect::<Vec<_>>()
        .join(",")
    }
}

struct Session<'a> {
    addr: String,
    feeds: &'a [Feed],
    /// Next unsent batch per tenant.
    cursor: Vec<usize>,
    /// Entries in refused batches per tenant.
    refused: Vec<u64>,
    /// Seeds the schedule's jitter, with the phase count.
    seed: u64,
    phases: u64,
}

impl Session<'_> {
    /// Entries tenant `j` has accepted so far.
    fn submitted(&self, j: usize) -> u64 {
        let sent = match self.cursor[j] {
            0 => 0,
            k => self.feeds[j].ends[k - 1],
        };
        sent - self.refused[j]
    }

    /// Send up to `posts[j]` batches to tenant `j`, open-loop at `rate` POSTs/s
    /// over all connections (`None`: back-to-back, no polls), then wait
    /// until every tenant has audited everything it was sent.
    fn phase(&mut self, posts: &[usize], rate: Option<f64>, healthz: bool) -> Phase {
        let n = self.feeds.len();
        self.phases += 1;
        let before: u64 = (0..n).map(|j| self.submitted(j)).sum();
        let timelines: Vec<Vec<(Option<f64>, Kind)>> = (0..n)
            .map(|j| {
                let first = self.cursor[j];
                let last = (first + posts[j]).min(self.feeds[j].bodies.len());
                let Some(rate) = rate else {
                    return (first..last).map(|k| (None, Kind::Post(k))).collect();
                };
                let period = n as f64 / rate;
                let offset = j as f64 / n as f64;
                // Every request is due in its own slot, jittered by up to a
                // quarter period: a strictly periodic schedule phase-locks
                // with the server's 10 ms accept poll and makes a run's
                // latencies depend on its starting phase.
                let mut rng = StdRng::seed_from_u64(self.seed ^ (self.phases << 8) ^ j as u64);
                let mut at =
                    |slot: f64| Some((slot + offset + (rng.gen::<f64>() - 0.5) / 2.0) * period);
                let slots = last - first;
                let mut events: Vec<(Option<f64>, Kind)> = (first..last)
                    .map(|k| (at((k - first) as f64), Kind::Post(k)))
                    .collect();
                // Reads go half-way between two POSTs: polls every `poll`
                // slots and once more after the last POST; healthz samples
                // on the last thread, in half-slots off the poll grid.
                let every = |ms: f64| ((ms / 1e3 / period).round() as usize).max(1);
                let poll = every(POLL_MS);
                let health: Vec<usize> = if healthz && j + 1 == n {
                    let step = poll * (every(HEALTHZ_MS) / poll).max(1);
                    (poll / 2..slots).step_by(step).collect()
                } else {
                    Vec::new()
                };
                for i in (0..=slots).step_by(poll).chain([slots]) {
                    if !health.contains(&i) {
                        events.push((at(i as f64 + 0.5), Kind::Poll));
                    }
                }
                for &i in &health {
                    events.push((at(i as f64 + 0.5), Kind::Health));
                }
                events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("due times are finite"));
                events
            })
            .collect();
        let t0 = Instant::now();
        let addr = self.addr.as_str();
        let played: Vec<Vec<Sample>> = std::thread::scope(|s| {
            let threads: Vec<_> = timelines
                .iter()
                .zip(self.feeds)
                .map(|(events, feed)| s.spawn(move || play(addr, feed, events, t0)))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("generator thread panicked"))
                .collect()
        });

        let mut phase = Phase::default();
        for (j, mut samples) in played.into_iter().enumerate() {
            let feed = &self.feeds[j];
            for s in &samples {
                if let Kind::Post(k) = s.kind {
                    phase.posts += 1;
                    self.cursor[j] = k + 1;
                    if s.status == 202 {
                        phase.quarantined += s.queued;
                    } else {
                        phase.refused += 1;
                        let first = if k == 0 { 0 } else { feed.ends[k - 1] };
                        self.refused[j] += feed.ends[k] - first;
                    }
                }
            }
            if rate.is_some() {
                phase
                    .late_s
                    .extend(samples.iter().map(|s| (s.sent - s.due).max(0.0)));
            }
            let polls: Vec<&Sample> = samples
                .iter()
                .filter(|s| matches!(s.kind, Kind::Poll))
                .collect();
            if let (Some(a), Some(b)) = (polls.first(), polls.last()) {
                phase.backlog_grew |= b.queued > a.queued + BATCH as u64;
            }
            // Drain: keep polling until the tenant has audited all it got.
            let want = self.submitted(j);
            let deadline = Instant::now() + SETTLE_LIMIT;
            loop {
                let sent = t0.elapsed().as_secs_f64();
                let (status, audited, queued) = send(addr, &feed.tenant, feed, Kind::Poll);
                let done = t0.elapsed().as_secs_f64();
                samples.push(Sample {
                    kind: Kind::Poll,
                    due: sent,
                    sent,
                    done,
                    status,
                    audited,
                    queued,
                });
                if status == 200 && audited >= want {
                    break;
                }
                if Instant::now() > deadline {
                    phase.lost = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            phase.wall = phase.wall.max(t0.elapsed().as_secs_f64());

            let mut seen: Vec<(f64, u64)> = samples
                .iter()
                .filter(|s| matches!(s.kind, Kind::Poll) && s.status == 200)
                .map(|s| (s.done, s.audited))
                .collect();
            seen.sort_by(|a, b| a.0.total_cmp(&b.0));
            for s in &samples {
                match s.kind {
                    Kind::Post(k) if s.status == 202 && rate.is_some() => {
                        phase.ingest_s.push(s.done - s.due);
                        let end = feed.ends[k];
                        if let Some((at, _)) = seen
                            .iter()
                            .find(|(at, audited)| *audited >= end && *at >= s.done)
                        {
                            phase.lag_s.push(at - s.due);
                        }
                    }
                    Kind::Health if s.status == 200 => phase.healthz_s.push(s.done - s.sent),
                    _ => {}
                }
            }
        }
        phase.entries = (0..n).map(|j| self.submitted(j)).sum::<u64>() - before;
        phase
    }

    /// Compare every tenant's served verdicts with the reference: the
    /// alarmed set covers every case, `audited` must equal what was sent,
    /// and `cases/{id}` must carry the reference label for every alarmed
    /// case and about 1 in 64 of the rest.
    fn verify(&self, oracle: &Oracle, report: &mut Report) {
        let addr = self.addr.as_str();
        std::thread::scope(|s| {
            let checks: Vec<_> = self
                .feeds
                .iter()
                .enumerate()
                .map(|(j, feed)| {
                    let want = self.submitted(j);
                    s.spawn(move || {
                        let mut failures = Vec::new();
                        let mut attempted = 0u64;
                        let mut op = |ok: bool, what: String| {
                            attempted += 1;
                            if !ok {
                                failures.push(what);
                            }
                        };
                        let verdicts =
                            request(addr, "GET", &format!("/v1/{}/verdicts", feed.tenant), "");
                        let (audited, alarmed) = match &verdicts {
                            Ok((200, body)) => {
                                let doc = obs::parse_json(body).unwrap_or(obs::JsonValue::Null);
                                let alarmed: BTreeSet<String> = doc
                                    .get("alarmed")
                                    .and_then(|a| a.as_array())
                                    .unwrap_or(&[])
                                    .iter()
                                    .filter_map(|v| v.as_str().map(str::to_string))
                                    .collect();
                                (field(body, "audited"), alarmed)
                            }
                            _ => (0, BTreeSet::new()),
                        };
                        op(
                            audited == want,
                            format!("{}: audited {audited} of {want} entries sent", feed.tenant),
                        );
                        for case in &feed.cases {
                            let Some((_, expected)) = oracle.cases.get(case) else {
                                op(false, format!("case {case} is not in the reference"));
                                continue;
                            };
                            let infringing = matches!(expected, Expected::Infringement { .. });
                            op(
                                alarmed.contains(case) == infringing,
                                format!(
                                    "case {case}: alarmed={} but reference infringing={infringing}",
                                    alarmed.contains(case)
                                ),
                            );
                            if infringing || audit::case_key(case).is_multiple_of(64) {
                                let want = Oracle::served_label(expected);
                                let got = request(
                                    addr,
                                    "GET",
                                    &format!("/v1/{}/cases/{case}", feed.tenant),
                                    "",
                                )
                                .ok()
                                .and_then(|(_, body)| obs::parse_json(&body).ok())
                                .and_then(|d| {
                                    d.get("verdict")
                                        .and_then(|v| v.as_str())
                                        .map(str::to_string)
                                });
                                op(
                                    got.as_deref() == Some(want.as_str()),
                                    format!("case {case}: served {got:?}, want {want:?}"),
                                );
                            }
                        }
                        (attempted, failures)
                    })
                })
                .collect();
            for check in checks {
                let (attempted, failures) = check.join().expect("verifier thread panicked");
                report.ops(attempted, failures);
            }
        });
    }

    /// Largest `stage_latency_us_<stage>` p99 over the tenants.
    fn stage_p99(&self, stages: &[&str], report: &mut Report, names: &[&'static str]) {
        let docs: Vec<obs::JsonValue> = self
            .feeds
            .iter()
            .filter_map(|f| {
                request(&self.addr, "GET", &format!("/v1/{}/metrics", f.tenant), "").ok()
            })
            .filter_map(|(_, body)| obs::parse_json(&body).ok())
            .collect();
        for (stage, name) in stages.iter().zip(names) {
            let p99 = docs
                .iter()
                .filter_map(|d| {
                    d.get("histograms")
                        .and_then(|h| h.get(&format!("stage_latency_us_{stage}")))
                        .and_then(|h| h.get("p99"))
                        .and_then(|v| v.as_f64())
                })
                .fold(0.0, f64::max);
            report.metric(name, p99, "us");
        }
    }
}

/// Every POST is one operation; a refused or quarantining one, or a
/// phase whose entries never all got audited, is a failed one.
fn count(report: &mut Report, phase: &Phase) {
    report.ops(
        phase.posts as u64 + 1,
        (0..phase.refused)
            .map(|_| "POST refused".to_string())
            .chain(
                (phase.quarantined > 0).then(|| format!("{} lines quarantined", phase.quarantined)),
            )
            .chain(
                phase
                    .lost
                    .then(|| "entries lost: queue never drained".to_string()),
            )
            .collect(),
    );
}

/// Time `SETUP_PROBES` spawns of `serve` to its `serving on` line.
fn probe_setup(
    ctx: &Ctx,
    args: &[String],
    setups: &mut Vec<f64>,
    report: &mut Report,
) -> Result<(), String> {
    for _ in 0..SETUP_PROBES {
        let server = Server::start(&ctx.bin, args)?;
        setups.push(server.setup.as_secs_f64());
        // Stop it only once it answers: `serve` prints its ready line
        // before it installs its SIGTERM handler, and a SIGTERM in
        // between kills it without a drain.
        let health = request(&server.addr, "GET", "/healthz", "");
        report.op(matches!(health, Ok((200, _))), || {
            format!("healthz: {health:?}")
        });
        let code = server.stop()?;
        report.op(code == 0, || format!("serve exited with {code} on SIGTERM"));
    }
    Ok(())
}

fn serve_args(ctx: &Ctx, wl: &Workload, n: usize) -> Vec<String> {
    let tenants: Vec<String> = (0..n).map(|j| format!("p{j}")).collect();
    let mut args = vec![
        "--tenants".to_string(),
        tenants.join(","),
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--shards".to_string(),
        ctx.threads.to_string(),
        "--max-open-cases".to_string(),
        MAX_OPEN_CASES.to_string(),
        "--no-automaton-cache".to_string(),
    ];
    args.extend(wl.catalog_args());
    args
}

fn ms(v: f64) -> f64 {
    v * 1e3
}

/// The untraced serve-live run: set-up probe, nominal open-loop phase,
/// closed-loop bulk phase, rate ladder, verdict check.
pub fn measure(
    ctx: &Ctx,
    wl: &Workload,
    oracle: &Oracle,
    load: &LoadSpec,
    report: &mut Report,
) -> Result<(), String> {
    let n = ctx.threads;
    let feeds = feeds(wl, n)?;
    let args = serve_args(ctx, wl, n);
    let mut setups = Vec::new();
    probe_setup(ctx, &args, &mut setups, report)?;
    let server = Server::start(&ctx.bin, &args)?;
    setups.push(server.setup.as_secs_f64());
    let mut session = Session {
        addr: server.addr.clone(),
        feeds: &feeds,
        cursor: vec![0; n],
        refused: vec![0; n],
        seed: ctx.seed,
        phases: 0,
    };

    let nominal_posts = ((load.nominal_posts_per_s * ctx.seconds) / n as f64)
        .round()
        .max(1.0) as usize;
    let nominal = session.phase(
        &vec![nominal_posts; n],
        Some(load.nominal_posts_per_s),
        true,
    );
    let rate_of = |p: &Phase| ratio(p.entries as f64, p.wall);
    let bulk = session.phase(&vec![BULK_POSTS; n], None, false);
    let closed_loop = rate_of(&bulk) / BATCH as f64;
    // The sustained rate is measured on the highest sustained rate (the
    // nominal phase or a ladder step): entries it carried over the time
    // from its first POST until they were audited.
    let mut best = if nominal.unsustained(load).is_empty() {
        load.nominal_posts_per_s
    } else {
        0.0
    };
    let mut sustained = if best > 0.0 { rate_of(&nominal) } else { 0.0 };
    let mut steps = Vec::new();
    let mut misses = 0;
    let mut rate = closed_loop * LADDER_FROM;
    while misses < LADDER_MISSES && rate <= closed_loop * LADDER_TO {
        if (0..n).any(|j| session.cursor[j] + STEP_POSTS > feeds[j].bodies.len()) {
            steps.push("out-of-day".to_string());
            break;
        }
        let step = session.phase(&vec![STEP_POSTS; n], Some(rate), false);
        let why = step.unsustained(load);
        steps.push(format!(
            "{rate:.0}/s:{}",
            if why.is_empty() { "ok" } else { &why }
        ));
        count(report, &step);
        if !why.is_empty() {
            misses += 1;
        } else {
            misses = 0;
            if rate > best {
                best = rate;
                sustained = rate_of(&step);
            }
        }
        rate *= LADDER_STEP;
    }
    // The rest of the day, unmeasured.
    let rest: Vec<usize> = (0..n)
        .map(|j| feeds[j].bodies.len() - session.cursor[j])
        .collect();
    if rest.iter().any(|&r| r > 0) {
        let filler = session.phase(&rest, None, false);
        count(report, &filler);
    }
    count(report, &nominal);
    count(report, &bulk);
    report.op(
        (0..n).all(|j| session.cursor[j] == feeds[j].bodies.len()),
        || "not every batch was accepted".to_string(),
    );
    session.verify(oracle, report);
    let rss_mb = server.peak_rss_kib() as f64 / 1024.0;
    let code = server.stop()?;
    report.op(code == 0, || format!("serve exited with {code} on SIGTERM"));
    probe_setup(ctx, &args, &mut setups, report)?;

    report.note(format!(
        "nominal {} POSTs at {}/s (late p99 {:.2} ms); bulk {} entries in {:.3} s ({closed_loop:.0} POSTs/s); ladder {} (best {best:.0}/s)",
        nominal.posts,
        load.nominal_posts_per_s,
        ms(percentile(&nominal.late_s, 0.99)),
        bulk.entries,
        bulk.wall,
        if steps.is_empty() { "-".to_string() } else { steps.join(" ") },
    ));
    report.runs = 1;
    report.metric("setup_s", median(&setups), "s");
    report.metric("entries_per_s", rate_of(&bulk), "1/s");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.metric("ingest_p50_ms", ms(median(&nominal.ingest_s)), "ms");
    report.metric(
        "ingest_p99_ms",
        ms(percentile(&nominal.ingest_s, 0.99)),
        "ms",
    );
    report.metric("verdict_lag_p50_ms", ms(median(&nominal.lag_s)), "ms");
    report.metric(
        "verdict_lag_p99_ms",
        ms(percentile(&nominal.lag_s, 0.99)),
        "ms",
    );
    report.metric("sustained_entries_per_s", sustained, "1/s");
    Ok(())
}

/// The traced view of the service layers on any workload: the nominal
/// phase over this workload's trail (healthz sampled, stage histograms
/// scraped at the end), then the same stream through `ShardedMonitor`
/// in-process without HTTP.
pub fn traced(
    ctx: &Ctx,
    wl: &Workload,
    oracle: &Oracle,
    load: &LoadSpec,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let n = ctx.threads;
    let feeds = feeds(wl, n)?;
    // Tracing on (nothing sampled): the verdict stage is only timed for
    // requests that carry a trace context.
    let mut args = serve_args(ctx, wl, n);
    args.extend(["--trace-sample".to_string(), "0".to_string()]);
    let server = Server::start(&ctx.bin, &args)?;
    let mut session = Session {
        addr: server.addr.clone(),
        feeds: &feeds,
        cursor: vec![0; n],
        refused: vec![0; n],
        seed: ctx.seed,
        phases: 0,
    };
    let posts = ((load.nominal_posts_per_s * ctx.seconds) / n as f64).round() as usize;
    let nominal = session.phase(&vec![posts; n], Some(load.nominal_posts_per_s), true);
    count(report, &nominal);
    let rest = session.phase(&vec![usize::MAX / 2; n], None, false);
    count(report, &rest);
    session.verify(oracle, report);
    session.stage_p99(
        &["admission", "queue_wait", "replay", "verdict"],
        report,
        &[
            "serve.admission_us_p99",
            "serve.queue_wait_us_p99",
            "serve.replay_us_p99",
            "serve.verdict_us_p99",
        ],
    );
    let code = server.stop()?;
    report.op(code == 0, || format!("serve exited with {code} on SIGTERM"));
    report.metric(
        "serve.healthz_rtt_p50_ms",
        ms(median(&nominal.healthz_s)),
        "ms",
    );
    report.metric(
        "serve.healthz_rtt_p99_ms",
        ms(percentile(&nominal.healthz_s, 0.99)),
        "ms",
    );
    report.metric(
        "bench.generator_late_p99_ms",
        ms(percentile(&nominal.late_s, 0.99)),
        "ms",
    );

    // The live layer alone: each tenant's stream through its own monitor
    // with the same resident cap and shards, in the same batches.
    let auditor = wl.auditor()?;
    let config = LiveConfig {
        max_open_cases: MAX_OPEN_CASES,
        ..LiveConfig::default()
    };
    let mut stats = LiveStats::default();
    let mut entries = 0usize;
    tracer.span("live", |t| -> Result<(), String> {
        for feed in &feeds {
            let batches: Vec<audit::trail::AuditTrail> = feed
                .bodies
                .iter()
                .map(|b| parse_trail(b).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            let mut monitor = ShardedMonitor::new(auditor.clone(), &config, ctx.threads);
            for batch in &batches {
                entries += batch.len();
                t.span("live.ingest", |_| monitor.ingest(batch.entries()))
                    .map_err(|e| format!("live ingest: {e}"))?;
            }
            let s = monitor.stats();
            stats.evictions += s.evictions;
            stats.rehydrations += s.rehydrations;
            stats.evictions_avoided += s.evictions_avoided;
            stats.spill_tier_hits += s.spill_tier_hits;
        }
        Ok(())
    })?;
    report.metric(
        "live.entries_per_s",
        ratio(entries as f64, tracer.total("live.ingest")),
        "1/s",
    );
    report.metric("live.evictions", stats.evictions as f64, "count");
    report.metric("live.rehydrations", stats.rehydrations as f64, "count");
    report.metric(
        "live.evictions_avoided",
        stats.evictions_avoided as f64,
        "count",
    );
    report.metric(
        "live.spill_tier_hit_rate",
        ratio(stats.spill_tier_hits as f64, stats.rehydrations as f64),
        "ratio",
    );
    Ok(())
}
