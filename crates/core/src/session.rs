//! Incremental replay sessions.
//!
//! §4: "the analysis of the audit trail may lead the computation to a state
//! for which further activities are still possible. In this case the
//! analysis should be resumed when new actions within the process instance
//! are recorded." A [`ReplaySession`] is that resumable computation: feed
//! it log entries as they arrive; it maintains the configuration set of
//! Algorithm 1 across calls and reports the deviation the moment an entry
//! cannot be simulated.
//!
//! The session also enforces the §4 temporal constraint: "if a maximum
//! duration for the process is defined, an infringement can be raised in
//! the case where this temporal constraint is violated."
//!
//! [`SessionCore`] is the borrow-free state machine underneath — shared
//! with [`crate::live::LiveAuditor`], which owns its processes through
//! `Arc` instead of borrowing them.

use crate::error::CheckError;
use crate::replay::{
    CaseCheck, CheckOptions, Configuration, Engine, Infringement, InfringementKind, MatchKind,
    StepRecord, Verdict,
};
use crate::trie::ReplayTrie;
use audit::entry::{LogEntry, TaskStatus};
use audit::time::Timestamp;
use bpmn::encode::Encoded;
use cows::automaton::frontier::FrontierId;
use cows::automaton::{ProcessAutomaton, StateId};
use cows::observe::Observation;
use cows::weaknext::{can_terminate_silently, weak_next_traced, Marked, TaskInstance};
use obs::{CaseEvidence, EvidenceStep, EvidenceViolation, ObsEvent, Recorder};
use policy::hierarchy::RoleHierarchy;
use std::collections::HashSet;
use std::sync::Arc;

/// Outcome of feeding one entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FeedOutcome {
    /// The entry is explainable; the session advanced.
    Accepted { matches: Vec<MatchKind> },
    /// The entry deviates; the session is closed with this infringement
    /// (subsequent feeds return it again).
    Rejected(Infringement),
}

/// The configuration set of Algorithm 1, in the representation of the
/// selected [`Engine`].
///
/// Both variants track the same mathematical set of Def. 6 configurations.
/// `Direct` (the oracle) owns the `Marked` states and their precomputed
/// successors. `Trie` holds dense [`StateId`]s into the process's shared
/// [`ProcessAutomaton`] as an interned [`FrontierId`] row of a
/// [`ReplayTrie`]; every id in the row was expanded when inserted (its
/// edges are compiled), so a feed step is table walking, memoized across
/// cases.
#[derive(Clone, Debug)]
enum ConfSet {
    Direct(Vec<Configuration>),
    Trie {
        trie: Arc<ReplayTrie>,
        frontier: FrontierId,
        /// The dense row behind `frontier` (shared with the trie's table).
        ids: Arc<[StateId]>,
    },
}

impl ConfSet {
    fn len(&self) -> usize {
        match self {
            ConfSet::Direct(confs) => confs.len(),
            ConfSet::Trie { ids, .. } => ids.len(),
        }
    }
}

/// The production-engine invariant: ids stored in the live set were
/// expanded when inserted, so their edges are always compiled.
const PRE_EXPANDED: &str = "live configuration ids are expanded on insertion";

/// The portable state of an open session — what
/// [`SessionCore::export_state`] extracts and [`SessionCore::open`]
/// rebuilds ([`SessionStart::State`]): the configurations as owned
/// [`Marked`] states in live-set order, plus Algorithm 1's bookkeeping,
/// carried verbatim so a rehydrated session is indistinguishable from one
/// that never left memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionState {
    /// The live configuration set (Def. 6), in set order.
    pub confs: Vec<Marked>,
    pub meta: SessionMeta,
}

/// The session's Algorithm-1 bookkeeping without the configuration set —
/// the run-independent half of [`SessionState`]. The churn spill path
/// pairs this with raw automaton [`StateId`]s (run-local) instead of
/// owned [`Marked`] states, skipping the deep clone that makes
/// [`SessionCore::export_state`] too expensive for eviction traffic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionMeta {
    /// Largest configuration-set size seen.
    pub peak: usize,
    /// Total successors explored (the `max_explored` budget's counter).
    pub explored: usize,
    /// Entries consumed so far.
    pub consumed: usize,
    /// Timestamp of the first fed entry (temporal-constraint anchor).
    pub first_time: Option<Timestamp>,
    /// Case label adopted from the first fed entry.
    pub case_name: Option<String>,
}

/// The configuration set of one evidence step, in capture form.
///
/// Evidence capture sits on Algorithm 1's per-entry hot path, so it must
/// not allocate or render strings there. Under the production engine a
/// step stores only the interned state ids (inline when there is a single live
/// configuration, the common case); the active/token sets and frontier are
/// recovered from the shared automaton at materialization time — interned
/// states and their compiled edges are immutable, so the late lookup sees
/// exactly what the replay saw. The direct engine clones whole `Marked`
/// states per step anyway, so its evidence is captured eagerly.
#[derive(Clone, Debug)]
enum RawConfs {
    Eager {
        active: Vec<String>,
        tokens: Vec<String>,
        frontier: usize,
        configurations: usize,
    },
    One(StateId),
    Many(Vec<StateId>),
}

/// One consumed entry in capture form: its projection index, how the first
/// configuration accepted it, and the surviving configuration set.
#[derive(Clone, Debug)]
struct RawStep {
    index: usize,
    matched: MatchKind,
    confs: RawConfs,
}

/// The un-rendered evidence trace of one case — everything
/// [`obs::CaseEvidence`] needs, keyed rather than stringified.
///
/// Produced by [`SessionCore::finish`] (via [`CaseCheck::evidence`]);
/// rendered by [`RawEvidence::materialize`]. The split keeps the replay
/// loop near-free under `record_evidence` while the rendered trace stays
/// byte-identical to eager capture.
#[derive(Clone, Debug)]
pub struct RawEvidence {
    /// Case label adopted from the first fed entry; the auditor overwrites
    /// it with the canonical case name after purpose resolution.
    pub case: String,
    /// Empty at the session layer; the auditor fills it in.
    pub purpose: String,
    engine: &'static str,
    verdict: &'static str,
    steps: Vec<RawStep>,
    violation: Option<EvidenceViolation>,
    /// The shared automaton the step ids point into (production engine only).
    auto: Option<Arc<ProcessAutomaton>>,
}

impl RawEvidence {
    /// Render the serializable trace: resolve state ids into active/token
    /// task sets and frontier sizes, and attach each step's log line.
    /// `entries` must be the same chronological case projection that was
    /// replayed.
    pub fn materialize(&self, encoded: &Encoded, entries: &[&LogEntry]) -> CaseEvidence {
        CaseEvidence {
            case: self.case.clone(),
            purpose: self.purpose.clone(),
            engine: self.engine.to_string(),
            verdict: self.verdict.to_string(),
            steps: self
                .steps
                .iter()
                .map(|s| self.render_step(encoded, entries, s))
                .collect(),
            violation: self.violation.clone(),
        }
    }

    fn render_step(&self, encoded: &Encoded, entries: &[&LogEntry], s: &RawStep) -> EvidenceStep {
        let entry = entries.get(s.index).copied();
        let matched = match (s.matched, entry) {
            (MatchKind::Absorbed, Some(e)) => format!("absorbed:{}.{}", e.role, e.task),
            (MatchKind::Started, Some(e)) => format!("started:{}.{}", e.role, e.task),
            _ => "err:sys.Err".to_string(),
        };
        let (active, tokens, frontier, configurations) = match &s.confs {
            RawConfs::Eager {
                active,
                tokens,
                frontier,
                configurations,
            } => (active.clone(), tokens.clone(), *frontier, *configurations),
            RawConfs::One(id) => self.resolve(encoded, std::slice::from_ref(id)),
            RawConfs::Many(ids) => self.resolve(encoded, ids),
        };
        EvidenceStep {
            index: s.index,
            entry: entry.map(|e| e.to_string()).unwrap_or_default(),
            matched,
            active,
            tokens,
            frontier,
            configurations,
        }
    }

    fn resolve(
        &self,
        encoded: &Encoded,
        ids: &[StateId],
    ) -> (Vec<String>, Vec<String>, usize, usize) {
        let auto = self
            .auto
            .as_deref()
            .expect("interned evidence steps carry their automaton");
        let tokens = task_labels(
            ids.iter()
                .flat_map(|&id| (*auto.token_tasks(id, &encoded.observability)).clone()),
        );
        (
            running_labels(auto, ids),
            tokens,
            frontier_of(auto, ids),
            ids.len(),
        )
    }
}

/// `role.task` labels, sorted and deduplicated.
fn task_labels(tasks: impl IntoIterator<Item = TaskInstance>) -> Vec<String> {
    let mut v: Vec<String> = tasks.into_iter().map(|(r, q)| format!("{r}.{q}")).collect();
    v.sort();
    v.dedup();
    v
}

/// Labels of the tasks running in the interned states `ids`.
fn running_labels(auto: &ProcessAutomaton, ids: &[StateId]) -> Vec<String> {
    task_labels(ids.iter().flat_map(|&id| auto.state(id).running.clone()))
}

/// Total `WeakNext` frontier of the interned (expanded) states `ids`.
fn frontier_of(auto: &ProcessAutomaton, ids: &[StateId]) -> usize {
    ids.iter()
        .map(|&id| auto.cached_edges(id).expect(PRE_EXPANDED).len())
        .sum()
}

/// The borrow-free Algorithm-1 state machine: the configuration set plus
/// bookkeeping, independent of how the process and hierarchy are owned.
#[derive(Clone, Debug)]
pub struct SessionCore {
    opts: CheckOptions,
    confs: ConfSet,
    steps: Vec<StepRecord>,
    /// Counters, first-entry time and case label ([`SessionMeta`]).
    meta: SessionMeta,
    infringement: Option<Infringement>,
    /// Wall-clock cutoff derived from `opts.case_deadline_ms` at open.
    deadline: Option<std::time::Instant>,
    /// Event sink for replay telemetry (a noop recorder costs one branch
    /// per would-be event).
    recorder: Recorder,
    /// Per-entry evidence in capture form, accumulated when
    /// `opts.record_evidence` is set.
    evidence_steps: Vec<RawStep>,
    evidence_violation: Option<EvidenceViolation>,
}

/// Where [`SessionCore::open`] starts a session.
#[derive(Clone, Debug)]
pub enum SessionStart {
    /// The process's initial configuration (a new case).
    Initial,
    /// An exported portable state ([`SessionCore::export_state`]) — the
    /// durable rehydrate.
    State(SessionState),
    /// Run-local automaton ids plus bookkeeping ([`SessionCore::conf_ids`]
    /// and [`SessionCore::export_meta`]) — the cheap churn rehydrate. The
    /// ids must come from this run's shared automaton (which only ever
    /// grows, so any id it issued stays valid); an out-of-range id is a
    /// checkpoint error, never trusted.
    Interned {
        ids: Vec<StateId>,
        meta: SessionMeta,
    },
}

impl SessionCore {
    /// Open a session — the one constructor.
    ///
    /// `start` picks the configurations and bookkeeping (see
    /// [`SessionStart`]). Under the production engine the session steps
    /// through `trie`, fingerprint-bound to `hierarchy` here so a trie
    /// shared under a different role hierarchy fails fast with
    /// [`CheckError::EngineConfig`]; without one it gets a private,
    /// unshared trie (same verdicts, no cross-case memoization). The
    /// [`Engine::Direct`] oracle ignores `trie` and recomputes `WeakNext`
    /// per configuration. Replay events (entry steps, automaton
    /// expansions, `WeakNext` computations) go to `recorder`; pass
    /// [`Recorder::noop`] for none.
    ///
    /// Each starting configuration is expanded on admission. Only a fresh
    /// case counts that work toward `explored`: a rehydrated session keeps
    /// its exported counters, so it and its never-evicted twin stay
    /// identical. The wall-clock `case_deadline_ms` budget is (re-)armed
    /// here — wall time spent evicted is not replay work.
    pub fn open(
        encoded: &Encoded,
        hierarchy: &RoleHierarchy,
        opts: CheckOptions,
        start: SessionStart,
        trie: Option<&Arc<ReplayTrie>>,
        recorder: &Recorder,
    ) -> Result<SessionCore, CheckError> {
        enum Seed {
            Initial,
            States(Vec<Marked>),
            Ids(Vec<StateId>),
        }
        let (seed, meta) = match start {
            SessionStart::Initial => (Seed::Initial, None),
            SessionStart::State(state) => (Seed::States(state.confs), Some(state.meta)),
            SessionStart::Interned { ids, meta } => {
                let known = encoded.automaton.len() as u64;
                if let Some(id) = ids.iter().find(|&&id| u64::from(id) >= known) {
                    return Err(CheckError::Checkpoint {
                        detail: format!(
                            "churn checkpoint id {id} outside automaton ({known} states)"
                        ),
                    });
                }
                (Seed::Ids(ids), Some(meta))
            }
        };
        let mut explored = 0usize;
        let confs = match opts.engine {
            Engine::Direct => {
                let states = match seed {
                    Seed::Initial => vec![encoded.initial()],
                    Seed::States(states) => states,
                    Seed::Ids(ids) => ids
                        .iter()
                        .map(|&id| (*encoded.automaton.state(id)).clone())
                        .collect(),
                };
                let mut confs = Vec::with_capacity(states.len());
                for state in states {
                    let next =
                        weak_next_traced(&state, &encoded.observability, opts.weaknext, recorder)?;
                    explored += next.len();
                    confs.push(Configuration { state, next });
                }
                ConfSet::Direct(confs)
            }
            Engine::Trie => {
                let trie = match trie {
                    Some(trie) => trie.clone(),
                    None => Arc::new(ReplayTrie::new(encoded.automaton.clone())),
                };
                debug_assert!(Arc::ptr_eq(trie.automaton(), &encoded.automaton));
                trie.bind(hierarchy)?;
                let auto = trie.automaton();
                let ids = match seed {
                    Seed::Initial => vec![auto.initial_id(&encoded.service)],
                    Seed::States(states) => states.into_iter().map(|m| auto.intern(m)).collect(),
                    Seed::Ids(ids) => ids,
                };
                // Restore the [`PRE_EXPANDED`] invariant; for a rehydrated
                // id the edges are already compiled, so this is a table hit.
                for &id in &ids {
                    explored += auto
                        .successors_traced(id, &encoded.observability, opts.weaknext, recorder)?
                        .len();
                }
                let (frontier, ids) = trie.intern_frontier(&ids);
                ConfSet::Trie {
                    trie,
                    frontier,
                    ids,
                }
            }
        };
        Ok(SessionCore {
            opts,
            confs,
            steps: Vec::new(),
            meta: meta.unwrap_or(SessionMeta {
                peak: 1,
                explored,
                consumed: 0,
                first_time: None,
                case_name: None,
            }),
            infringement: None,
            deadline: opts
                .case_deadline_ms
                .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms)),
            recorder: recorder.clone(),
            evidence_steps: Vec::new(),
            evidence_violation: None,
        })
    }

    pub fn consumed(&self) -> usize {
        self.meta.consumed
    }

    pub fn is_closed(&self) -> bool {
        self.infringement.is_some()
    }

    pub fn infringement(&self) -> Option<&Infringement> {
        self.infringement.as_ref()
    }

    /// The observations the process would accept next.
    pub fn expected_observations(&self) -> Vec<String> {
        let mut v: Vec<String> = Vec::new();
        match &self.confs {
            ConfSet::Direct(confs) => {
                for c in confs {
                    v.extend(c.next.iter().map(|s| s.observation.to_string()));
                }
            }
            ConfSet::Trie { trie, ids, .. } => {
                let auto = trie.automaton();
                for &id in ids.iter() {
                    let edges = auto.cached_edges(id).expect(PRE_EXPANDED);
                    v.extend(edges.iter().map(|(o, _)| o.to_string()));
                }
            }
        }
        v.sort();
        v.dedup();
        v
    }

    /// Tasks currently running in some configuration.
    pub fn active_tasks(&self) -> Vec<String> {
        match &self.confs {
            ConfSet::Direct(confs) => {
                task_labels(confs.iter().flat_map(|c| c.state.running.iter().copied()))
            }
            ConfSet::Trie { trie, ids, .. } => running_labels(trie.automaton(), ids),
        }
    }

    /// Total `WeakNext` frontier size: the sum of expected-next observation
    /// counts across the live configurations.
    fn frontier_size(&self) -> usize {
        match &self.confs {
            ConfSet::Direct(confs) => confs.iter().map(|c| c.next.len()).sum(),
            ConfSet::Trie { trie, ids, .. } => frontier_of(trie.automaton(), ids),
        }
    }

    /// Feed the next log entry of the case (chronological order is the
    /// caller's responsibility, as in Def. 5).
    pub fn feed(
        &mut self,
        encoded: &Encoded,
        hierarchy: &RoleHierarchy,
        entry: &LogEntry,
    ) -> Result<FeedOutcome, CheckError> {
        if let Some(inf) = &self.infringement {
            return Ok(FeedOutcome::Rejected(inf.clone()));
        }
        let entry_index = self.meta.consumed;
        if self.meta.case_name.is_none() {
            self.meta.case_name = Some(entry.case.to_string());
        }

        // Chaos failpoints (inert unless a test armed them).
        if self.opts.failpoints.panic_case == Some(entry.case) {
            panic!(
                "failpoint: forced panic while consuming case {}",
                entry.case
            );
        }
        if let Some((case, ms)) = self.opts.failpoints.stall_case {
            if case == entry.case {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }

        // Fault isolation: a case that outlives its wall-clock budget is
        // aborted as *inconclusive* — an engine limit, never a verdict.
        if let Some(deadline) = self.deadline {
            if std::time::Instant::now() >= deadline {
                return Err(CheckError::DeadlineExceeded {
                    entry_index,
                    limit_ms: self.opts.case_deadline_ms.unwrap_or(0),
                });
            }
        }

        // Temporal constraint (§4): the whole case must fit in the window.
        let start = *self.meta.first_time.get_or_insert(entry.time);
        if let Some(limit) = self.opts.max_case_minutes {
            let elapsed = entry.time.0.saturating_sub(start.0);
            if elapsed > limit {
                let inf = Infringement {
                    entry_index,
                    entry: entry.clone(),
                    expected: Vec::new(),
                    active: self.active_tasks(),
                    kind: InfringementKind::TemporalViolation {
                        elapsed_minutes: elapsed,
                        limit_minutes: limit,
                    },
                };
                if self.opts.record_evidence {
                    self.evidence_violation = Some(EvidenceViolation {
                        entry_index,
                        entry: entry.to_string(),
                        expected: Vec::new(),
                        kind: "temporal-violation".to_string(),
                    });
                }
                self.infringement = Some(inf.clone());
                return Ok(FeedOutcome::Rejected(inf));
            }
        }

        let role_matches = |entry_role: cows::Symbol, pool_role: cows::Symbol| {
            hierarchy.is_specialization_of(entry_role, pool_role)
        };

        let mut matches: Vec<MatchKind> = Vec::new();

        let next_confs: ConfSet = match &self.confs {
            ConfSet::Direct(confs) => {
                let mut next_confs: Vec<Configuration> = Vec::new();
                let mut seen: HashSet<Marked> = HashSet::new();
                for conf in confs {
                    let task_running = conf
                        .state
                        .running
                        .iter()
                        .any(|&(r, q)| q == entry.task && role_matches(entry.role, r));

                    // Line 8: absorbed only if active and successful.
                    if task_running && entry.status == TaskStatus::Success {
                        if seen.insert(conf.state.clone()) {
                            next_confs.push(conf.clone());
                        }
                        matches.push(MatchKind::Absorbed);
                        continue;
                    }

                    // Lines 9–13: consume an observable successor.
                    for succ in &conf.next {
                        let accept = match (succ.observation, entry.status) {
                            (Observation::Task { role, task }, TaskStatus::Success) => {
                                task == entry.task && role_matches(entry.role, role)
                            }
                            (Observation::Error, TaskStatus::Failure) => true,
                            _ => false,
                        };
                        if !accept {
                            continue;
                        }
                        matches.push(match succ.observation {
                            Observation::Error => MatchKind::Failed,
                            Observation::Task { .. } => MatchKind::Started,
                        });
                        if seen.insert(succ.state.clone()) {
                            let next = weak_next_traced(
                                &succ.state,
                                &encoded.observability,
                                self.opts.weaknext,
                                &self.recorder,
                            )?;
                            self.meta.explored += next.len();
                            next_confs.push(Configuration {
                                state: succ.state.clone(),
                                next,
                            });
                        }
                    }
                }
                ConfSet::Direct(next_confs)
            }
            ConfSet::Trie { trie, frontier, .. } => {
                // One memoized step ([`ReplayTrie::step`]): the same loop
                // as the direct arm over interned ids, keyed on everything
                // it inspects (frontier row, entry role/task,
                // success-vs-failure), so a hit replays the exact match
                // vector, survivors and exploration delta.
                let step = trie.step(
                    encoded,
                    hierarchy,
                    *frontier,
                    entry,
                    self.opts.weaknext,
                    &self.recorder,
                )?;
                self.meta.explored += step.explored_delta;
                matches.extend_from_slice(&step.matches);
                ConfSet::Trie {
                    trie: trie.clone(),
                    frontier: step.next,
                    ids: step.next_row.clone(),
                }
            }
        };

        // Fault isolation: the step budget caps total exploration work per
        // case. Checked before the verdict so an exhausted case reads as
        // inconclusive rather than as a spurious infringement.
        if let Some(limit) = self.opts.max_explored {
            if self.meta.explored > limit {
                return Err(CheckError::StepBudgetExhausted { entry_index, limit });
            }
        }

        if next_confs.len() == 0 {
            // Line 21: the entry cannot be simulated by the process.
            let inf = Infringement {
                entry_index,
                entry: entry.clone(),
                expected: self.expected_observations(),
                active: self.active_tasks(),
                kind: InfringementKind::ProcessDeviation,
            };
            if self.opts.record_evidence {
                self.evidence_violation = Some(EvidenceViolation {
                    entry_index,
                    entry: entry.to_string(),
                    expected: inf.expected.clone(),
                    kind: "process-deviation".to_string(),
                });
            }
            self.recorder.emit(|| ObsEvent::EntryStep {
                case: entry.case.to_string(),
                index: entry_index,
                matched: "err:sys.Err".to_string(),
                frontier: 0,
            });
            self.infringement = Some(inf.clone());
            return Ok(FeedOutcome::Rejected(inf));
        }
        if next_confs.len() > self.opts.max_configurations {
            return Err(CheckError::ConfigurationLimit {
                limit: self.opts.max_configurations,
                entry_index,
            });
        }
        self.meta.peak = self.meta.peak.max(next_confs.len());
        if self.opts.record_trace {
            let token_tasks: Vec<Vec<String>> = match &next_confs {
                ConfSet::Direct(confs) => confs
                    .iter()
                    .map(|c| {
                        c.state
                            .token_tasks(&encoded.observability)
                            .iter()
                            .map(|(r, q)| format!("{r}.{q}"))
                            .collect()
                    })
                    .collect(),
                ConfSet::Trie { trie, ids, .. } => {
                    let auto = trie.automaton();
                    ids.iter()
                        .map(|&id| {
                            auto.token_tasks(id, &encoded.observability)
                                .iter()
                                .map(|(r, q)| format!("{r}.{q}"))
                                .collect()
                        })
                        .collect()
                }
            };
            self.steps.push(StepRecord {
                entry_index,
                matches: matches.clone(),
                configurations: next_confs.len(),
                token_tasks,
            });
        }
        self.confs = next_confs;
        self.meta.consumed += 1;
        if self.opts.record_evidence {
            let confs = match &self.confs {
                // Token tasks (Fig. 6) flattened across configurations —
                // the evidence rendering of "what could still start".
                ConfSet::Direct(confs) => RawConfs::Eager {
                    active: self.active_tasks(),
                    tokens: task_labels(
                        confs
                            .iter()
                            .flat_map(|c| c.state.token_tasks(&encoded.observability)),
                    ),
                    frontier: self.frontier_size(),
                    configurations: confs.len(),
                },
                ConfSet::Trie { ids, .. } => match ids.as_ref() {
                    [id] => RawConfs::One(*id),
                    _ => RawConfs::Many(ids.to_vec()),
                },
            };
            self.evidence_steps.push(RawStep {
                index: entry_index,
                matched: matches.first().copied().unwrap_or(MatchKind::Failed),
                confs,
            });
        }
        self.recorder.emit(|| ObsEvent::EntryStep {
            case: entry.case.to_string(),
            index: entry_index,
            matched: matched_label(&matches, entry),
            frontier: self.frontier_size(),
        });
        Ok(FeedOutcome::Accepted { matches })
    }

    /// Extract the portable state of an *open* session: everything `feed`
    /// mutates, with the configuration set as owned [`Marked`] states so
    /// the result is engine- and run-independent (automaton ids are
    /// run-local and never exported).
    ///
    /// Closed sessions are not exportable — the live monitor retires them
    /// into compact records instead of checkpointing them — and trace or
    /// evidence accumulation (`record_trace` / `record_evidence`) does not
    /// survive a checkpoint: those buffers replay history, which eviction
    /// exists to shed.
    pub fn export_state(&self) -> SessionState {
        debug_assert!(
            self.infringement.is_none(),
            "closed sessions are retired, not checkpointed"
        );
        let confs = match &self.confs {
            ConfSet::Direct(confs) => confs.iter().map(|c| c.state.clone()).collect(),
            ConfSet::Trie { trie, ids, .. } => {
                let auto = trie.automaton();
                ids.iter().map(|&id| (*auto.state(id)).clone()).collect()
            }
        };
        SessionState {
            confs,
            meta: self.meta.clone(),
        }
    }

    /// The live configuration set as shared-automaton ids, or `None` under
    /// the direct engine. Ids are run-local (see [`SessionMeta`]); with
    /// [`SessionCore::export_meta`] they form the cheap churn checkpoint.
    pub fn conf_ids(&self) -> Option<&[StateId]> {
        match &self.confs {
            ConfSet::Direct(_) => None,
            ConfSet::Trie { ids, .. } => Some(ids),
        }
    }

    /// The bookkeeping half of [`SessionCore::export_state`], without
    /// cloning any configuration state.
    pub fn export_meta(&self) -> SessionMeta {
        debug_assert!(
            self.infringement.is_none(),
            "closed sessions are retired, not checkpointed"
        );
        self.meta.clone()
    }

    /// Test hook: tighten the τ-budget of an open session after the fact,
    /// to exercise finish-time budget exhaustion without touching feeds.
    #[cfg(test)]
    pub(crate) fn set_weaknext_limits(&mut self, limits: cows::weaknext::WeakNextLimits) {
        self.opts.weaknext = limits;
    }

    /// Snapshot the Algorithm-1 result for everything fed so far. The
    /// session can keep being fed afterwards — this is what "resume when
    /// new actions are recorded" needs.
    pub fn finish(&self, encoded: &Encoded) -> Result<CaseCheck, CheckError> {
        let verdict = match &self.infringement {
            Some(inf) => Verdict::Infringement(inf.clone()),
            None => {
                let mut can_complete = false;
                match &self.confs {
                    ConfSet::Direct(confs) => {
                        for conf in confs {
                            if can_terminate_silently(
                                &conf.state,
                                &encoded.observability,
                                self.opts.weaknext,
                            )? {
                                can_complete = true;
                                break;
                            }
                        }
                    }
                    ConfSet::Trie { trie, ids, .. } => {
                        let auto = trie.automaton();
                        for &id in ids.iter() {
                            if auto.can_quiesce(id, &encoded.observability, self.opts.weaknext)? {
                                can_complete = true;
                                break;
                            }
                        }
                    }
                }
                Verdict::Compliant { can_complete }
            }
        };
        let evidence = if self.opts.record_evidence {
            Some(RawEvidence {
                case: self.meta.case_name.clone().unwrap_or_default(),
                // The session does not know the purpose; the auditor fills
                // it in after purpose resolution.
                purpose: String::new(),
                engine: match self.opts.engine {
                    Engine::Direct => "direct",
                    Engine::Trie => "trie",
                },
                verdict: match &verdict {
                    Verdict::Compliant { can_complete: true } => "compliant",
                    Verdict::Compliant {
                        can_complete: false,
                    } => "compliant-incomplete",
                    Verdict::Infringement(_) => "infringement",
                },
                steps: self.evidence_steps.clone(),
                violation: self.evidence_violation.clone(),
                auto: match &self.confs {
                    ConfSet::Direct(_) => None,
                    ConfSet::Trie { trie, .. } => Some(trie.automaton().clone()),
                },
            })
        } else {
            None
        };
        Ok(CaseCheck {
            verdict,
            steps: self.steps.clone(),
            peak_configurations: self.meta.peak,
            explored_successors: self.meta.explored,
            evidence,
        })
    }
}

/// The stable evidence label of how an accepted entry matched: the first
/// match in configuration order (identical across engines — the
/// equivalence tests pin match vectors). `absorbed:R.T` and `started:R.T`
/// use the *entry's* role and task; a consumed `sys·Err` edge renders as
/// `err:sys.Err`.
fn matched_label(matches: &[MatchKind], entry: &LogEntry) -> String {
    match matches.first() {
        Some(MatchKind::Absorbed) => format!("absorbed:{}.{}", entry.role, entry.task),
        Some(MatchKind::Started) => format!("started:{}.{}", entry.role, entry.task),
        Some(MatchKind::Failed) | None => "err:sys.Err".to_string(),
    }
}

/// A resumable Algorithm-1 computation over one case, borrowing its process.
pub struct ReplaySession<'a> {
    encoded: &'a Encoded,
    hierarchy: &'a RoleHierarchy,
    core: SessionCore,
}

impl<'a> ReplaySession<'a> {
    /// Open a session at the process's initial configuration.
    pub fn new(
        encoded: &'a Encoded,
        hierarchy: &'a RoleHierarchy,
        opts: CheckOptions,
    ) -> Result<ReplaySession<'a>, CheckError> {
        Ok(ReplaySession {
            encoded,
            hierarchy,
            core: SessionCore::open(
                encoded,
                hierarchy,
                opts,
                SessionStart::Initial,
                None,
                &Recorder::noop(),
            )?,
        })
    }

    /// Entries consumed so far.
    pub fn consumed(&self) -> usize {
        self.core.consumed()
    }

    /// Whether the session already found a deviation.
    pub fn is_closed(&self) -> bool {
        self.core.is_closed()
    }

    /// Feed the next log entry of the case.
    pub fn feed(&mut self, entry: &LogEntry) -> Result<FeedOutcome, CheckError> {
        self.core.feed(self.encoded, self.hierarchy, entry)
    }

    /// Feed a batch of entries; stops at the first rejection.
    pub fn feed_all<'e>(
        &mut self,
        entries: impl IntoIterator<Item = &'e LogEntry>,
    ) -> Result<Option<Infringement>, CheckError> {
        for e in entries {
            if let FeedOutcome::Rejected(inf) = self.feed(e)? {
                return Ok(Some(inf));
            }
        }
        Ok(None)
    }

    /// The observations the process would accept next.
    pub fn expected_observations(&self) -> Vec<String> {
        self.core.expected_observations()
    }

    /// Tasks currently running in some configuration.
    pub fn active_tasks(&self) -> Vec<String> {
        self.core.active_tasks()
    }

    /// Close the session and produce the Algorithm-1 result for everything
    /// fed so far (a snapshot — feeding can continue afterwards).
    pub fn finish(&self) -> Result<CaseCheck, CheckError> {
        self.core.finish(self.encoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmn::encode::encode;
    use bpmn::models::fig8_exclusive;
    use policy::statement::Action;

    fn entry(task: &str, minute: u64) -> LogEntry {
        LogEntry::success("u", "P", Action::Read, None, task, "c", Timestamp(minute))
    }

    #[test]
    fn session_matches_batch_check() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let mut session = ReplaySession::new(&encoded, &h, CheckOptions::default()).unwrap();
        assert!(matches!(
            session.feed(&entry("T", 1)).unwrap(),
            FeedOutcome::Accepted { .. }
        ));
        // Mid-flight snapshot: compliant but incomplete.
        let snap = session.finish().unwrap();
        assert_eq!(
            snap.verdict,
            Verdict::Compliant {
                can_complete: false
            }
        );
        // Resume with the rest.
        assert!(matches!(
            session.feed(&entry("T1", 2)).unwrap(),
            FeedOutcome::Accepted { .. }
        ));
        let done = session.finish().unwrap();
        assert_eq!(done.verdict, Verdict::Compliant { can_complete: true });
    }

    #[test]
    fn session_rejects_and_stays_closed() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let mut session = ReplaySession::new(&encoded, &h, CheckOptions::default()).unwrap();
        let out = session.feed(&entry("T2", 1)).unwrap();
        let FeedOutcome::Rejected(inf) = out else {
            panic!("expected rejection");
        };
        assert_eq!(inf.kind, InfringementKind::ProcessDeviation);
        assert!(session.is_closed());
        // Feeding more keeps reporting the same infringement.
        let again = session.feed(&entry("T", 2)).unwrap();
        assert!(matches!(again, FeedOutcome::Rejected(i) if i.entry_index == inf.entry_index));
    }

    #[test]
    fn temporal_constraint_raises_infringement() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let opts = CheckOptions {
            max_case_minutes: Some(60),
            ..CheckOptions::default()
        };
        let mut session = ReplaySession::new(&encoded, &h, opts).unwrap();
        assert!(matches!(
            session.feed(&entry("T", 0)).unwrap(),
            FeedOutcome::Accepted { .. }
        ));
        // A process-valid entry arriving past the window is still flagged.
        let out = session.feed(&entry("T1", 100)).unwrap();
        let FeedOutcome::Rejected(inf) = out else {
            panic!("expected temporal rejection");
        };
        assert_eq!(
            inf.kind,
            InfringementKind::TemporalViolation {
                elapsed_minutes: 100,
                limit_minutes: 60
            }
        );
    }

    #[test]
    fn expired_deadline_aborts_as_engine_error_not_verdict() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let opts = CheckOptions {
            // An already-expired deadline plus a stall failpoint: the very
            // first feed must abort with DeadlineExceeded.
            case_deadline_ms: Some(0),
            ..CheckOptions::default()
        };
        let mut session = ReplaySession::new(&encoded, &h, opts).unwrap();
        let err = session.feed(&entry("T", 1)).unwrap_err();
        assert_eq!(
            err,
            CheckError::DeadlineExceeded {
                entry_index: 0,
                limit_ms: 0
            }
        );
    }

    #[test]
    fn exhausted_step_budget_aborts_with_entry_index() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let opts = CheckOptions {
            max_explored: Some(0),
            ..CheckOptions::default()
        };
        let mut session = ReplaySession::new(&encoded, &h, opts).unwrap();
        let err = session.feed(&entry("T", 1)).unwrap_err();
        assert!(
            matches!(err, CheckError::StepBudgetExhausted { limit: 0, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn panic_failpoint_fires_only_for_armed_case() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let opts = CheckOptions {
            failpoints: crate::replay::FailPoints {
                panic_case: Some(cows::sym("poisoned")),
                ..Default::default()
            },
            ..CheckOptions::default()
        };
        // Entries of other cases replay normally.
        let mut session = ReplaySession::new(&encoded, &h, opts).unwrap();
        assert!(matches!(
            session.feed(&entry("T", 1)).unwrap(),
            FeedOutcome::Accepted { .. }
        ));
        // The armed case panics (caught here; in production the auditor's
        // catch_unwind turns this into CaseOutcome::Inconclusive).
        let poisoned =
            LogEntry::success("u", "P", Action::Read, None, "T", "poisoned", Timestamp(1));
        let mut session = ReplaySession::new(&encoded, &h, opts).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = session.feed(&poisoned);
        }));
        assert!(caught.is_err());
    }

    fn open(
        encoded: &Encoded,
        h: &RoleHierarchy,
        opts: CheckOptions,
        start: SessionStart,
    ) -> SessionCore {
        SessionCore::open(encoded, h, opts, start, None, &Recorder::noop()).unwrap()
    }

    #[test]
    fn exported_state_rehydrates_to_an_identical_twin() {
        for engine in [Engine::Direct, Engine::Trie] {
            let encoded = encode(&fig8_exclusive());
            let h = RoleHierarchy::new();
            let opts = CheckOptions {
                engine,
                ..CheckOptions::default()
            };
            let mut twin = open(&encoded, &h, opts, SessionStart::Initial);
            twin.feed(&encoded, &h, &entry("T", 1)).unwrap();

            // Checkpoint mid-case through both rehydrate starts, rebuild,
            // and compare against the twin that never left memory.
            let state = twin.export_state();
            let interned = SessionStart::Interned {
                ids: twin.conf_ids().map_or_else(
                    || {
                        state
                            .confs
                            .iter()
                            .map(|m| encoded.automaton.intern(m.clone()))
                            .collect()
                    },
                    <[StateId]>::to_vec,
                ),
                meta: twin.export_meta(),
            };
            let e = entry("T1", 2);
            for start in [SessionStart::State(state.clone()), interned] {
                let mut back = open(&encoded, &h, opts, start);
                assert_eq!(back.export_state(), state, "export is a fixed point");
                let mut twin = twin.clone();
                let a = twin.feed(&encoded, &h, &e).unwrap();
                let b = back.feed(&encoded, &h, &e).unwrap();
                assert_eq!(a, b, "{engine:?}: outcomes diverged");
                assert_eq!(back.export_state(), twin.export_state());
                let (back, twin) = (
                    back.finish(&encoded).unwrap(),
                    twin.finish(&encoded).unwrap(),
                );
                assert_eq!(back.verdict, twin.verdict);
                assert_eq!(back.explored_successors, twin.explored_successors);
                assert_eq!(back.peak_configurations, twin.peak_configurations);
            }
        }
    }

    #[test]
    fn interned_start_rejects_ids_outside_the_automaton() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let twin = open(&encoded, &h, CheckOptions::default(), SessionStart::Initial);
        let start = SessionStart::Interned {
            ids: vec![encoded.automaton.len() as StateId],
            meta: twin.export_meta(),
        };
        let err = SessionCore::open(
            &encoded,
            &h,
            CheckOptions::default(),
            start,
            None,
            &Recorder::noop(),
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::Checkpoint { .. }), "{err:?}");
    }

    #[test]
    fn expected_observations_exposed() {
        let encoded = encode(&fig8_exclusive());
        let h = RoleHierarchy::new();
        let session = ReplaySession::new(&encoded, &h, CheckOptions::default()).unwrap();
        assert_eq!(session.expected_observations(), vec!["P.T".to_string()]);
        assert!(session.active_tasks().is_empty());
    }
}
