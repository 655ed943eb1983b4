//! Structural operational semantics.
//!
//! [`raw_transitions`] derives every labeled transition a service can take,
//! following the COWS SOS of Lapadula, Pugliese and Tiezzi (ESOP'07) in the
//! minimal fragment used by the paper. [`transitions`] restricts to
//! closed-system steps (communications and kills), applies kill priority and
//! normalizes residuals — this is the step function used by LTS exploration.
//!
//! Deviations from full COWS are listed in `DESIGN.md` §3.1: simple pattern
//! matching instead of best-match, and global (rather than scope-local) kill
//! priority. Both are invisible on the image of the BPMN encoding.

use crate::label::Label;
use crate::normal::{halt, normalize};
use crate::subst::{match_pattern, substitute};
use crate::term::{Decl, Service, Word};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// All SOS transitions of `s`, including open (invoke/request) labels.
///
/// Residuals are *not* normalized; callers that explore closed systems
/// should use [`transitions`] instead.
pub fn raw_transitions(s: &Service) -> Vec<(Label, Service)> {
    match s {
        Service::Nil => Vec::new(),
        Service::Invoke(i) => {
            // An invoke can execute only once its arguments are closed
            // values; open invokes are stuck until substitution closes them.
            let mut args = Vec::with_capacity(i.args.len());
            for a in &i.args {
                match a.as_name() {
                    Some(n) => args.push(n),
                    None => return Vec::new(),
                }
            }
            vec![(
                Label::Invoke {
                    ep: i.ep,
                    args,
                    completes: i.completes.clone(),
                },
                Service::Nil,
            )]
        }
        Service::Guarded(g) => g
            .branches
            .iter()
            .map(|b| {
                (
                    Label::Request {
                        ep: b.ep,
                        params: b.params.clone(),
                    },
                    (*b.cont).clone(),
                )
            })
            .collect(),
        Service::Kill(k) => vec![(Label::Kill(*k), Service::Nil)],
        Service::Protect(body) => raw_transitions(body)
            .into_iter()
            .map(|(l, s1)| (l, Service::Protect(Arc::new(s1))))
            .collect(),
        Service::Parallel(children) => parallel_transitions(children),
        Service::Delim(d, body) => delim_transitions(*d, body),
        Service::Repl(body) => repl_transitions(body),
    }
}

fn parallel_transitions(children: &[Service]) -> Vec<(Label, Service)> {
    let per_child: Vec<Vec<(Label, Service)>> = children.iter().map(raw_transitions).collect();
    let mut out = Vec::new();

    // Interleaving; an executing kill halts every sibling (COWS par rule).
    for (i, ts) in per_child.iter().enumerate() {
        for (l, resid) in ts {
            let mut next: Vec<Service> = Vec::with_capacity(children.len());
            for (j, c) in children.iter().enumerate() {
                if j == i {
                    next.push(resid.clone());
                } else if matches!(l, Label::Kill(_)) {
                    next.push(halt(c));
                } else {
                    next.push(c.clone());
                }
            }
            out.push((l.clone(), Service::Parallel(next)));
        }
    }

    // Communication between distinct components.
    for i in 0..children.len() {
        for j in 0..children.len() {
            if i == j {
                continue;
            }
            for (li, ri) in &per_child[i] {
                for (lj, rj) in &per_child[j] {
                    if let Some((label, ri2, rj2)) = pair(li, ri, lj, rj) {
                        let mut next: Vec<Service> = Vec::with_capacity(children.len());
                        for (k, c) in children.iter().enumerate() {
                            if k == i {
                                next.push(ri2.clone());
                            } else if k == j {
                                next.push(rj2.clone());
                            } else {
                                next.push(c.clone());
                            }
                        }
                        out.push((label, Service::Parallel(next)));
                    }
                }
            }
        }
    }
    out
}

/// Try to combine an invoke transition with a request transition.
///
/// Returns the communication label together with the updated residuals of
/// the invoking and requesting components.
fn pair(li: &Label, ri: &Service, lj: &Label, rj: &Service) -> Option<(Label, Service, Service)> {
    let Label::Invoke {
        ep: e1,
        args,
        completes,
    } = li
    else {
        return None;
    };
    let Label::Request { ep: e2, params } = lj else {
        return None;
    };
    if e1 != e2 {
        return None;
    }
    let bindings = match_pattern(params, args)?;
    Some((
        Label::Comm {
            ep: *e1,
            args: args.clone(),
            completes: completes.clone(),
        },
        ri.clone(),
        substitute(rj, &bindings),
    ))
}

fn delim_transitions(d: Decl, body: &Service) -> Vec<(Label, Service)> {
    let mut out = Vec::new();
    for (l, resid) in raw_transitions(body) {
        match (&l, &d) {
            // A kill reaching its own delimiter has executed: the label
            // becomes † and stops propagating.
            (Label::Kill(k), Decl::Killer(dk)) if k == dk => {
                out.push((Label::KillExec, Service::Delim(d, Arc::new(resid))));
            }
            // A request whose pattern still mentions the variable bound
            // here: the communication that fires this request will
            // instantiate the variable, so the delimiter is consumed (scope
            // resolution of the COWS delimitation rule).
            (Label::Request { params, .. }, Decl::Var(x)) if params.contains(&Word::Var(*x)) => {
                out.push((l, resid));
            }
            // A private name cannot support interaction with the
            // environment: open labels on an endpoint using the name are
            // blocked at the delimiter. (Internal communications carry a
            // `Comm` label and pass through — the paper's LTSs show
            // `sys·T1` edges even though `sys` is private.)
            (Label::Invoke { ep, .. } | Label::Request { ep, .. }, Decl::Name(n))
                if ep.partner == *n || ep.op == *n => {}
            _ => {
                out.push((l, Service::Delim(d, Arc::new(resid))));
            }
        }
    }
    out
}

fn repl_transitions(body: &Arc<Service>) -> Vec<(Label, Service)> {
    let ts = raw_transitions(body);
    let mut out: Vec<(Label, Service)> = Vec::with_capacity(ts.len());
    for (l, resid) in &ts {
        out.push((
            l.clone(),
            Service::Parallel(vec![resid.clone(), Service::Repl(body.clone())]),
        ));
    }
    // Communication between two copies of the replicated service. The BPMN
    // encoding never needs this (each element holds either invokes or
    // request prefixes at top level, not both), but the rule is part of the
    // calculus.
    for (li, ri) in &ts {
        for (lj, rj) in &ts {
            if let Some((label, ri2, rj2)) = pair(li, ri, lj, rj) {
                out.push((
                    label,
                    Service::Parallel(vec![ri2, rj2, Service::Repl(body.clone())]),
                ));
            }
        }
    }
    out
}

/// Closed-system transitions: communications and kills, with kill priority
/// applied and residuals in canonical normal form. Deduplicated and sorted
/// for deterministic exploration.
///
/// This clones the full transition `Vec` out of the memo on every call —
/// every `(Label, Service)` pair, label args and all. Production callers
/// (WeakNext, exploration, the automaton) use [`transitions_shared`] and
/// borrow through the `Arc`; this owned variant survives only for tests
/// and one-shot inspection code where the clone cost is irrelevant.
pub fn transitions(s: &Service) -> Vec<(Label, Service)> {
    transitions_shared(s).as_ref().clone()
}

/// [`transitions`] bypassing the memo — exists for the cache-ablation
/// benchmark (`bench cache_ablation`) and for callers that know their
/// states never repeat.
pub fn transitions_uncached(s: &Service) -> Vec<(Label, Service)> {
    compute_transitions(s)
}

fn compute_transitions(s: &Service) -> Vec<(Label, Service)> {
    let mut out: Vec<(Label, Service)> = raw_transitions(s)
        .into_iter()
        .filter(|(l, _)| l.is_closed())
        .map(|(l, resid)| (l, normalize(resid)))
        .collect();
    if out
        .iter()
        .any(|(l, _)| matches!(l, Label::Kill(_) | Label::KillExec))
    {
        out.retain(|(l, _)| matches!(l, Label::Kill(_) | Label::KillExec));
    }
    out.sort();
    out.dedup();
    out
}

/// Shard count of the global memo (a power of two; sharding keeps lock
/// contention negligible for the §7 parallel auditor).
const CACHE_SHARDS: usize = 64;

/// Bound per shard; when exceeded, half the shard is evicted (an arbitrary
/// half — whatever the drain yields first). Evicting half instead of
/// clearing wholesale keeps the other half warm, avoiding the periodic
/// re-warm cliffs a full clear causes under sustained load.
const SHARD_CAP: usize = 4_096;

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Counters of the global transitions memo, for the bench report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that recomputed (and inserted).
    pub misses: u64,
    /// Half-shard eviction events (not entries evicted).
    pub evictions: u64,
    /// Entries currently resident across all shards.
    pub entries: usize,
}

impl CacheStats {
    /// The delta between this snapshot and an earlier `baseline`. The memo
    /// counters are process-global, so a section of work that wants *its
    /// own* hit/miss/eviction numbers must snapshot before, snapshot after
    /// and subtract — anything else silently double-counts whatever ran
    /// earlier in the process (the P8 bench bug). `entries` stays
    /// point-in-time (it is a level, not a flow).
    pub fn since(&self, baseline: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(baseline.hits),
            misses: self.misses.saturating_sub(baseline.misses),
            evictions: self.evictions.saturating_sub(baseline.evictions),
            entries: self.entries,
        }
    }

    /// Export into a metrics registry. The counters are absolute
    /// process-global totals, so this uses *set* semantics — re-exporting
    /// after more work overwrites rather than double-counts.
    pub fn export_into(&self, registry: &obs::Registry) {
        registry.set_counter("semantics_cache_hits", self.hits);
        registry.set_counter("semantics_cache_misses", self.misses);
        registry.set_counter("semantics_cache_evictions", self.evictions);
        registry.set_gauge("semantics_cache_entries", self.entries as f64);
    }
}

/// Snapshot the global memo counters. Counters are process-wide and
/// monotone (relaxed atomics); `entries` is a point-in-time sum over the
/// shards.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
        evictions: CACHE_EVICTIONS.load(Ordering::Relaxed),
        entries: cache().iter().map(|s| s.read().len()).sum(),
    }
}

/// Recorder observing eviction events of the global memo. `set` installs a
/// clone; evictions are rare cold-path events (a few per million lookups
/// at steady state), so the hook costs one relaxed load on the eviction
/// branch only — the lookup fast path is untouched.
static CACHE_RECORDER: RwLock<Option<obs::Recorder>> = RwLock::new(None);

/// Install (or, with a noop recorder, clear) the global memo's eviction
/// observer.
pub fn set_cache_recorder(recorder: obs::Recorder) {
    *CACHE_RECORDER.write() = if recorder.enabled() {
        Some(recorder)
    } else {
        None
    };
}

type Shard = RwLock<HashMap<Service, Arc<Vec<(Label, Service)>>>>;

fn cache() -> &'static [Shard] {
    static CACHE: OnceLock<Vec<Shard>> = OnceLock::new();
    CACHE.get_or_init(|| {
        (0..CACHE_SHARDS)
            .map(|_| RwLock::new(HashMap::new()))
            .collect()
    })
}

fn shard_index(s: &Service) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    (h.finish() as usize) % CACHE_SHARDS
}

/// [`transitions`] with global (sharded) memoization.
///
/// Replay and exploration revisit the same canonical states constantly —
/// different configurations of Algorithm 1, successive log entries, BFS
/// frontiers, and concurrent auditor workers checking cases of the same
/// process. The memo turns those revisits into hash lookups and is shared
/// across threads so parallel workers benefit from each other's warm-up.
/// `s` should be in canonical normal form — residuals returned by this
/// function are.
pub fn transitions_shared(s: &Service) -> Arc<Vec<(Label, Service)>> {
    let idx = shard_index(s);
    let shard = &cache()[idx];
    if let Some(hit) = shard.read().get(s) {
        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return hit.clone();
    }
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    let computed = Arc::new(compute_transitions(s));
    let mut wr = shard.write();
    if wr.len() >= SHARD_CAP {
        let before = wr.len();
        evict_half(&mut wr);
        let evicted = before - wr.len();
        CACHE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
        if let Some(recorder) = CACHE_RECORDER.read().as_ref() {
            recorder.emit(|| obs::ObsEvent::CacheEviction {
                shard: idx,
                evicted,
            });
        }
    }
    wr.insert(s.clone(), computed.clone());
    computed
}

/// Evict half of a full shard, keeping an arbitrary half warm (whatever
/// the drain yields first). The survivors are a strict subset of the
/// original entries — nothing is invented or mutated, only dropped.
fn evict_half<K: std::hash::Hash + Eq, V>(map: &mut HashMap<K, V>) {
    let keep = map.len() / 2;
    let retained: HashMap<K, V> = map.drain().take(keep).collect();
    *map = retained;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;
    use crate::term::{
        delim, delim_killer, delim_var, ep, invoke, invoke_args, invoke_completing, kill, par,
        protect, repl, request, request_params, Request, Service, Word,
    };

    fn sync_label(partner: &str, op: &str) -> Label {
        Label::Comm {
            ep: ep(partner, op),
            args: vec![],
            completes: vec![],
        }
    }

    #[test]
    fn invoke_offers_invoke_label() {
        let s = invoke(ep("P", "T"));
        let ts = raw_transitions(&s);
        assert_eq!(ts.len(), 1);
        assert!(matches!(ts[0].0, Label::Invoke { .. }));
    }

    #[test]
    fn open_invoke_is_stuck() {
        let s = invoke_args(ep("P", "T"), vec![Word::var(sym("x"))]);
        assert!(raw_transitions(&s).is_empty());
    }

    #[test]
    fn simple_sync() {
        // Fig. 7: [[S]] | [[T]] | [[E]] steps P.T then P.E.
        let p = "P";
        let s = par(vec![
            invoke(ep(p, "T")),
            request(ep(p, "T"), invoke(ep(p, "E"))),
            request(ep(p, "E"), Service::Nil),
        ]);
        let ts = transitions(&s);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].0, sync_label("P", "T"));
        let ts2 = transitions(&ts[0].1);
        assert_eq!(ts2.len(), 1);
        assert_eq!(ts2[0].0, sync_label("P", "E"));
        assert_eq!(transitions(&ts2[0].1), vec![]);
        assert!(ts2[0].1.is_nil());
    }

    #[test]
    fn communication_substitutes_message() {
        // [z] P.S?<z>.P.Q!<z>  |  P.S!<msg>
        let z = sym("z");
        let recv = delim_var(
            z,
            request_params(
                ep("P", "S"),
                vec![Word::var(z)],
                invoke_args(ep("P", "Q"), vec![Word::var(z)]),
            ),
        );
        let send = invoke_args(ep("P", "S"), vec![Word::name("msg")]);
        let ts = transitions(&par(vec![recv, send]));
        assert_eq!(ts.len(), 1);
        match &ts[0].0 {
            Label::Comm { ep: e, args, .. } => {
                assert_eq!(*e, ep("P", "S"));
                assert_eq!(args, &vec![sym("msg")]);
            }
            other => panic!("expected comm, got {other}"),
        }
        // The continuation now invokes with the received value.
        assert_eq!(ts[0].1, invoke_args(ep("P", "Q"), vec![Word::name("msg")]));
    }

    #[test]
    fn mismatched_payload_does_not_sync() {
        let recv = request_params(ep("P", "S"), vec![Word::name("a")], Service::Nil);
        let send = invoke_args(ep("P", "S"), vec![Word::name("b")]);
        assert!(transitions(&par(vec![recv, send])).is_empty());
    }

    #[test]
    fn choice_commits_to_one_branch() {
        let g = crate::term::choice(vec![
            Request {
                ep: ep("sys", "T1"),
                params: vec![],
                cont: invoke(ep("P", "A")).into(),
            },
            Request {
                ep: ep("sys", "T2"),
                params: vec![],
                cont: invoke(ep("P", "B")).into(),
            },
        ]);
        let s = par(vec![g, invoke(ep("sys", "T1")), invoke(ep("sys", "T2"))]);
        let ts = transitions(&s);
        // Two possible syncs; each residual keeps the *other* invoke pending
        // but loses the alternative branch.
        assert_eq!(ts.len(), 2);
        for (l, resid) in &ts {
            match l {
                Label::Comm { ep: e, .. } if e.op == sym("T1") => {
                    assert_eq!(
                        resid,
                        &normalize(par(vec![invoke(ep("P", "A")), invoke(ep("sys", "T2"))]))
                    );
                }
                Label::Comm { ep: e, .. } if e.op == sym("T2") => {
                    assert_eq!(
                        resid,
                        &normalize(par(vec![invoke(ep("P", "B")), invoke(ep("sys", "T1"))]))
                    );
                }
                other => panic!("unexpected label {other}"),
            }
        }
    }

    #[test]
    fn kill_halts_unprotected_siblings() {
        // [k]( kill(k) | {|P.T1!<>|} | P.T2!<> )
        let s = delim_killer(
            "k",
            par(vec![
                kill("k"),
                protect(invoke(ep("P", "T1"))),
                invoke(ep("P", "T2")),
            ]),
        );
        let ts = transitions(&s);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].0, Label::KillExec);
        // Only the protected invoke survives.
        assert_eq!(ts[0].1, protect(invoke(ep("P", "T1"))));
    }

    #[test]
    fn kill_has_priority_over_communication() {
        let s = delim_killer(
            "k",
            par(vec![
                kill("k"),
                invoke(ep("P", "T")),
                request(ep("P", "T"), Service::Nil),
            ]),
        );
        let ts = transitions(&s);
        assert_eq!(ts.len(), 1, "kill must preempt the communication");
        assert_eq!(ts[0].0, Label::KillExec);
    }

    #[test]
    fn exclusive_gateway_encoding_from_fig8() {
        // [[G]] = P.G?<>.[k][sys]( sys.T1!<> | sys.T2!<> |
        //          sys.T1?<>.(kill(k)|{|P.T1!<>|}) | sys.T2?<>.(kill(k)|{|P.T2!<>|}) )
        let gate_body = delim_killer(
            "k",
            delim(
                Decl::Name(sym("sys")),
                par(vec![
                    invoke(ep("sys", "T1")),
                    invoke(ep("sys", "T2")),
                    request(
                        ep("sys", "T1"),
                        par(vec![kill("k"), protect(invoke(ep("P", "T1")))]),
                    ),
                    request(
                        ep("sys", "T2"),
                        par(vec![kill("k"), protect(invoke(ep("P", "T2")))]),
                    ),
                ]),
            ),
        );
        let g = request(ep("P", "G"), gate_body);
        let s = par(vec![invoke(ep("P", "G")), g]);

        // Step 1: P.G sync.
        let ts = transitions(&s);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].0, sync_label("P", "G"));

        // Step 2: internal choice, two sys syncs.
        let ts2 = transitions(&ts[0].1);
        assert_eq!(ts2.len(), 2);
        assert!(ts2
            .iter()
            .all(|(l, _)| matches!(l, Label::Comm { ep, .. } if ep.partner == sym("sys"))));

        // Step 3: kill preempts; afterwards exactly one branch invoke
        // survives and the alternative is gone.
        for (label, st) in &ts2 {
            let chosen = match label {
                Label::Comm { ep: e, .. } => e.op,
                _ => unreachable!(),
            };
            let ts3 = transitions(st);
            assert_eq!(ts3.len(), 1);
            assert_eq!(ts3[0].0, Label::KillExec);
            let after = &ts3[0].1;
            let ts4 = raw_transitions(after);
            // Exactly one invoke offer remains: P.<chosen>.
            let invokes: Vec<_> = ts4
                .iter()
                .filter_map(|(l, _)| match l {
                    Label::Invoke { ep: e, .. } => Some(*e),
                    _ => None,
                })
                .collect();
            assert_eq!(invokes, vec![ep("P", chosen.as_str())]);
        }
    }

    #[test]
    fn replication_spawns_copies() {
        // *P.T?<>.P.E!<>  |  P.T!<>  — after the sync the replicated
        // service is still available.
        let body = request(ep("P", "T"), invoke(ep("P", "E")));
        let s = par(vec![repl(body.clone()), invoke(ep("P", "T"))]);
        let ts = transitions(&s);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].0, sync_label("P", "T"));
        let resid = &ts[0].1;
        // Residual contains the replication plus the unlocked continuation.
        assert_eq!(
            resid,
            &normalize(par(vec![repl(body), invoke(ep("P", "E"))]))
        );
    }

    #[test]
    fn replication_cycle_returns_to_same_state() {
        // A one-element "cycle": *P.T?<>.P.T!<> fed with one token loops
        // through the same canonical state forever.
        let body = request(ep("P", "T"), invoke(ep("P", "T")));
        let s0 = normalize(par(vec![repl(body), invoke(ep("P", "T"))]));
        let ts = transitions(&s0);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].1, s0, "canonical forms must close the loop");
    }

    #[test]
    fn completes_metadata_rides_the_label() {
        let t = ep("P", "T");
        let s = par(vec![
            invoke_completing(ep("P", "E"), vec![t]),
            request(ep("P", "E"), Service::Nil),
        ]);
        let ts = transitions(&s);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].0.completed_tasks(), &[t]);
    }

    #[test]
    fn private_name_blocks_open_labels_only() {
        // [sys]( sys.T!<> ) offers nothing to the environment…
        let s = delim(Decl::Name(sym("sys")), invoke(ep("sys", "T")));
        assert!(raw_transitions(&s).is_empty());
        // …but an internal sync on sys is a visible Comm step.
        let s2 = delim(
            Decl::Name(sym("sys")),
            par(vec![
                invoke(ep("sys", "T")),
                request(ep("sys", "T"), Service::Nil),
            ]),
        );
        let ts = transitions(&s2);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].0, sync_label("sys", "T"));
    }

    #[test]
    fn evict_half_drops_half_and_keeps_a_subset() {
        // Odd and even sizes, including the SHARD_CAP shape the live path
        // hits: survivors must number len/2 and all come from the original.
        for n in [0usize, 1, 2, 101, SHARD_CAP] {
            let mut map: HashMap<u32, u32> = (0..n as u32).map(|i| (i, i * 10)).collect();
            evict_half(&mut map);
            assert_eq!(map.len(), n / 2, "size {n}");
            assert!(
                map.iter().all(|(&k, &v)| k < n as u32 && v == k * 10),
                "size {n}: eviction must only drop entries, never alter them"
            );
        }
    }

    #[test]
    fn cache_stats_are_monotone_and_reset_free() {
        // The memo is global to the process; other tests contribute to it
        // concurrently. Monotonicity must hold regardless: the counters
        // only ever go up, including across automaton-engine activity.
        let before = cache_stats();
        let s = par(vec![
            invoke(ep("mono", "Tick")),
            request(ep("mono", "Tick"), Service::Nil),
        ]);
        transitions_shared(&s); // miss (first time this term is seen)
        transitions_shared(&s); // hit
        let mid = cache_stats();
        assert!(mid.hits > before.hits);
        assert!(mid.misses > before.misses);
        assert!(mid.evictions >= before.evictions);

        // Drive the compiled automaton over the same term; the shared memo
        // keeps counting up — no reset, no divergent counter space.
        let auto = crate::automaton::ProcessAutomaton::new();
        let o = crate::observe::TaskObservability::with([sym("mono")], [sym("Tick")]);
        let id = auto.initial_id(&s);
        auto.successors(id, &o, crate::weaknext::WeakNextLimits::default())
            .unwrap();
        let after = cache_stats();
        assert!(after.hits >= mid.hits);
        assert!(after.misses >= mid.misses);
        assert!(after.evictions >= mid.evictions);
        assert!(after.hits + after.misses > mid.hits + mid.misses);
    }
}
