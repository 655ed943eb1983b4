//! Encoding BPMN into COWS (§3.3 and Appendix A of the paper).
//!
//! Every BPMN element becomes a distinct COWS service; the process is the
//! parallel composition of those services. The token game is rendered as
//! communications: element `m` hands the token to element `n` by invoking
//! `n`'s trigger endpoint `role(n)·name(n)`, which `n` receives.
//!
//! Conventions (matching the paper's examples):
//!
//! * task-start synchronizations `r·q` are the observable labels; every
//!   other endpoint uses either a gateway/event name (unobservable, since
//!   the operation is not a task) or the reserved partner `sys`;
//! * gateway decisions use `sys`-endpoints inside a `[sys]` delimiter with a
//!   `[k]`/`kill(k)`/`{|·|}` block, exactly as in Fig. 8;
//! * error boundaries raise the observable `sys·Err` (Fig. 9);
//! * message flows are communications across pools carrying a message name
//!   (Fig. 10);
//! * the invoke that hands the token onward from a task is annotated with
//!   `completes(task)` — the bookkeeping behind Def. 6's active tasks;
//! * OR-split/OR-join pairs synchronize through an unobservable count
//!   channel on the reserved partner `sysg` (the paper leaves the OR-join
//!   encoding unspecified; see `DESIGN.md` §2).

use crate::model::{NodeId, NodeKind, ProcessModel};
use cows::automaton::snapshot::{hash_service, MergeReport, SnapshotError, StableHasher};
use cows::automaton::ProcessAutomaton;
use cows::observe::{err_op, sys_partner, TaskObservability};
use cows::symbol::{sym, Symbol};
use cows::term::{
    delim, delim_killer, delim_var, ep, invoke, invoke_args, par, protect, repl, request,
    request_params, Decl, Endpoint, Invoke, Service, Word,
};
use cows::weaknext::Marked;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The reserved partner for cross-scope bookkeeping (OR-join counts). Like
/// `sys` it is never a role, so its labels are unobservable; unlike `sys` it
/// is not delimited, because the count must travel between two services.
pub fn sysg_partner() -> Symbol {
    sym("sysg")
}

/// A BPMN process encoded as a COWS service.
#[derive(Clone, Debug)]
pub struct Encoded {
    /// The parallel composition of all element services.
    pub service: Service,
    /// The paper's observability for this process: pool roles × task names,
    /// plus `sys·Err`.
    pub observability: TaskObservability,
    /// The process's lazily compiled observable-step automaton, shared by
    /// every replay of this encoding (clones of `Encoded` share it too).
    /// The §7 parallel workers warm it for each other: once any case has
    /// expanded a state, every later case walks cached `u32` edges.
    pub automaton: Arc<ProcessAutomaton>,
}

/// Extension of the snapshot files written next to process definitions.
pub const SNAPSHOT_EXT: &str = "pcas";

impl Encoded {
    /// The initial marked state for [`cows::weaknext`] / Algorithm 1.
    pub fn initial(&self) -> Marked {
        Marked::initial(&self.service)
    }

    /// The content key binding automaton snapshots to this encoding: a
    /// stable hash over the (un-normalized) process term and the
    /// observability alphabet, computed from symbol *strings* so it is
    /// identical across runs and machines. Any change to the process
    /// definition or its roles/tasks changes the key, and the stale
    /// snapshot self-invalidates on load.
    pub fn snapshot_key(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("purposectl-automaton-v1");
        hash_service(&mut h, &self.service);
        let mut roles: Vec<&str> = self.observability.roles().map(|s| s.as_str()).collect();
        roles.sort_unstable();
        h.write_u32(roles.len() as u32);
        for r in roles {
            h.write_str(r);
        }
        let mut tasks: Vec<&str> = self.observability.tasks().map(|s| s.as_str()).collect();
        tasks.sort_unstable();
        h.write_u32(tasks.len() as u32);
        for t in tasks {
            h.write_str(t);
        }
        h.finish()
    }

    /// Serialize the automaton's current compilation, keyed to this
    /// encoding.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.automaton.to_snapshot_bytes(self.snapshot_key())
    }

    /// Fail-open in-memory load: merge snapshot bytes into this encoding's
    /// automaton if (and only if) they validate against [`Self::snapshot_key`].
    pub fn load_snapshot_bytes(&self, bytes: &[u8]) -> Result<MergeReport, SnapshotError> {
        self.automaton
            .load_snapshot_bytes(bytes, self.snapshot_key())
    }

    /// Fail-open load from `path`. Missing or unreadable files, stale keys,
    /// corruption — every failure leaves the automaton cold and reports why.
    pub fn load_snapshot(&self, path: &Path) -> Result<MergeReport, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        self.load_snapshot_bytes(&bytes)
    }

    /// Write the automaton's current compilation to `path` crash-atomically
    /// and synced ([`codec::atomic_write`]). Readers never observe a
    /// half-written snapshot, and a power cut right after return cannot
    /// lose the rename — a torn write at worst costs a cold start, never a
    /// wrong verdict.
    pub fn save_snapshot(&self, path: &Path) -> Result<(), SnapshotError> {
        codec::atomic_write(path, &self.snapshot_bytes(), true)
            .map(|_| ())
            .map_err(|e| SnapshotError::Io(e.to_string()))
    }

    /// The conventional snapshot path for a process definition file:
    /// `<file name>.pcas` in `cache_dir` if given, else beside the process
    /// file.
    pub fn snapshot_path(process_file: &Path, cache_dir: Option<&Path>) -> PathBuf {
        let name = process_file
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "process".to_string());
        let dir = cache_dir.map(Path::to_path_buf).unwrap_or_else(|| {
            process_file
                .parent()
                .unwrap_or(Path::new("."))
                .to_path_buf()
        });
        dir.join(format!("{name}.{SNAPSHOT_EXT}"))
    }
}

/// Encode `model` into COWS.
///
/// `model` must have passed validation (guaranteed when built through
/// [`crate::model::ProcessBuilder::build`]).
pub fn encode(model: &ProcessModel) -> Encoded {
    let enc = Encoder { model };
    let mut services: Vec<Service> = Vec::with_capacity(model.nodes().len());
    for node in model.nodes() {
        services.push(enc.encode_node(node.id));
    }
    let observability = TaskObservability::with(
        model.pools().iter().map(|p| p.role),
        model.tasks().map(|t| t.name),
    );
    Encoded {
        service: par(services),
        observability,
        automaton: Arc::new(ProcessAutomaton::new()),
    }
}

struct Encoder<'m> {
    model: &'m ProcessModel,
}

impl Encoder<'_> {
    /// Trigger endpoint of a node: `role(n)·name(n)`.
    fn endpoint(&self, id: NodeId) -> Endpoint {
        ep(self.model.role_of(id), self.model.node(id).name)
    }

    /// The invoke that hands the token to `to`. When the token leaves a
    /// task, the invoke is annotated as completing it.
    fn trigger(&self, to: NodeId, completes: Option<NodeId>) -> Service {
        Service::Invoke(Invoke {
            ep: self.endpoint(to),
            args: Vec::new(),
            completes: completes.into_iter().map(|t| self.endpoint(t)).collect(),
        })
    }

    /// The single sequence-flow successor of a node (validated shape).
    fn only_successor(&self, id: NodeId) -> NodeId {
        let succ = self.model.successors(id);
        debug_assert_eq!(succ.len(), 1, "validated nodes have one successor");
        succ[0]
    }

    fn encode_node(&self, id: NodeId) -> Service {
        let node = self.model.node(id);
        match node.kind {
            NodeKind::Start => {
                // [[S]] = x·y!⟨⟩ — fires once.
                self.trigger(self.only_successor(id), None)
            }
            NodeKind::MessageStart => {
                // [[S]] = ∗ [z] p·S?⟨z⟩. trigger(succ)  (Fig. 10)
                let z = sym(&format!("z_{}", node.name));
                let succ = self.only_successor(id);
                repl(delim_var(
                    z,
                    request_params(
                        self.endpoint(id),
                        vec![Word::Var(z)],
                        self.trigger(succ, None),
                    ),
                ))
            }
            NodeKind::End => {
                // [[E]] = ∗ p·E?⟨⟩.
                repl(request(self.endpoint(id), Service::Nil))
            }
            NodeKind::MessageEnd { to } => {
                // [[E]] = ∗ p·E?⟨⟩. q·S!⟨msg⟩  (Fig. 10); a message into an
                // OR join is a plain token.
                let body = match self.model.node(to).kind {
                    NodeKind::MessageStart => {
                        let msg = sym(&format!("msg_{}", node.name));
                        invoke_args(self.endpoint(to), vec![Word::Name(msg)])
                    }
                    _ => invoke(self.endpoint(to)),
                };
                repl(request(self.endpoint(id), body))
            }
            NodeKind::Task { on_error } => self.encode_task(id, on_error),
            NodeKind::Xor => self.encode_xor(id),
            NodeKind::And => self.encode_and(id),
            NodeKind::Or { join } => self.encode_or_split(id, join),
            NodeKind::OrJoin => self.encode_or_join(id),
        }
    }

    fn encode_task(&self, id: NodeId, on_error: Option<NodeId>) -> Service {
        let succ = self.only_successor(id);
        let body = match on_error {
            None => {
                // [[T]] = ∗ r·T?⟨⟩. trigger(succ) — the trigger completes T.
                self.trigger(succ, Some(id))
            }
            Some(handler) => {
                // Fig. 9: after starting, the task internally either
                // proceeds (τ on sys·ok_T) or fails (observable sys·Err,
                // which also completes the task — §3.4: "the failure of a
                // task makes the task completed").
                let k = sym(&format!("k_{}", self.model.node(id).name));
                let ok = ep(
                    sys_partner(),
                    sym(&format!("ok_{}", self.model.node(id).name)),
                );
                let err = ep(sys_partner(), err_op());
                let err_invoke = Service::Invoke(Invoke {
                    ep: err,
                    args: Vec::new(),
                    completes: vec![self.endpoint(id)],
                });
                delim_killer(
                    k,
                    delim(
                        Decl::Name(sys_partner()),
                        par(vec![
                            invoke(ok),
                            err_invoke,
                            request(
                                ok,
                                par(vec![
                                    Service::Kill(k),
                                    protect(self.trigger(succ, Some(id))),
                                ]),
                            ),
                            request(
                                err,
                                par(vec![Service::Kill(k), protect(self.trigger(handler, None))]),
                            ),
                        ]),
                    ),
                )
            }
        };
        repl(request(self.endpoint(id), body))
    }

    fn encode_xor(&self, id: NodeId) -> Service {
        let succs = self.model.successors(id);
        let body = if succs.len() == 1 {
            // Join / pass-through merge.
            self.trigger(succs[0], None)
        } else {
            // Split (Fig. 8): internal choice followed by a kill of the
            // alternatives.
            let gate = self.model.node(id).name;
            let k = sym(&format!("k_{gate}"));
            let mut parts: Vec<Service> = Vec::with_capacity(succs.len() * 2);
            for &s in &succs {
                let pick = ep(
                    sys_partner(),
                    sym(&format!("{gate}_{}", self.model.node(s).name)),
                );
                parts.push(invoke(pick));
                parts.push(request(
                    pick,
                    par(vec![Service::Kill(k), protect(self.trigger(s, None))]),
                ));
            }
            delim_killer(k, delim(Decl::Name(sys_partner()), par(parts)))
        };
        repl(request(self.endpoint(id), body))
    }

    fn encode_and(&self, id: NodeId) -> Service {
        let succs = self.model.successors(id);
        let preds = self.model.predecessors(id);
        let body = if succs.len() > 1 {
            // Split: fork the token to every branch.
            par(succs.iter().map(|&s| self.trigger(s, None)).collect())
        } else {
            // Join: collect one token per incoming flow (the outer request
            // below consumes the first), then pass on.
            let mut inner = self.trigger(succs[0], None);
            for _ in 1..preds.len() {
                inner = request(self.endpoint(id), inner);
            }
            inner
        };
        repl(request(self.endpoint(id), body))
    }

    fn encode_or_split(&self, id: NodeId, join: Option<NodeId>) -> Service {
        let succs = self.model.successors(id);
        let gate = self.model.node(id).name;
        let k = sym(&format!("k_{gate}"));
        // One alternative per non-empty subset of the outgoing branches.
        let subset_count: usize = (1usize << succs.len()) - 1;
        let mut parts: Vec<Service> = Vec::with_capacity(subset_count * 2);
        for mask in 1..=subset_count {
            let pick = ep(sys_partner(), sym(&format!("{gate}_c{mask}")));
            let mut fired: Vec<Service> = Vec::new();
            let mut chosen = 0usize;
            for (i, &s) in succs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    fired.push(self.trigger(s, None));
                    chosen += 1;
                }
            }
            let cont = match join {
                // Tell the paired join how many tokens to expect, and wait
                // for its acknowledgment before releasing the branch tokens
                // (the handshake keeps the count delivery out of the
                // observable interleaving, so WeakNext state counts match
                // the paper's Fig. 6).
                Some(j) => par(vec![
                    invoke(self.count_endpoint(j, id, chosen)),
                    request(self.ack_endpoint(id), par(fired)),
                ]),
                None => par(fired),
            };
            parts.push(invoke(pick));
            parts.push(request(pick, par(vec![Service::Kill(k), protect(cont)])));
        }
        let body = delim_killer(k, delim(Decl::Name(sys_partner()), par(parts)));
        repl(request(self.endpoint(id), body))
    }

    /// The channel on which an OR split announces the number of activated
    /// branches to its paired join.
    fn count_endpoint(&self, join: NodeId, split: NodeId, count: usize) -> Endpoint {
        ep(
            sysg_partner(),
            sym(&format!(
                "{}_{}_cnt{count}",
                self.model.node(join).name,
                self.model.node(split).name
            )),
        )
    }

    /// The channel on which a join acknowledges a count announcement,
    /// releasing the split's branch tokens.
    fn ack_endpoint(&self, split: NodeId) -> Endpoint {
        ep(
            sysg_partner(),
            sym(&format!("ack_{}", self.model.node(split).name)),
        )
    }

    fn encode_or_join(&self, id: NodeId) -> Service {
        let succ = self.only_successor(id);
        // The OR splits paired with this join.
        let splits: Vec<NodeId> = self
            .model
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Or { join: Some(j) } if j == id))
            .map(|n| n.id)
            .collect();
        if splits.is_empty() {
            // Degrades to a pass-through merge.
            return repl(request(self.endpoint(id), self.trigger(succ, None)));
        }
        // ∗ Σ_{split,c}  sysg·J_split_cnt{c}?⟨⟩.( sysg·ack_split!⟨⟩ | (J?⟨⟩)^c. trigger(succ) )
        let mut branches = Vec::new();
        for &split in &splits {
            let fanout = self.model.successors(split).len();
            for c in 1..=fanout {
                let mut inner = self.trigger(succ, None);
                for _ in 0..c {
                    inner = request(self.endpoint(id), inner);
                }
                branches.push(cows::term::Request {
                    ep: self.count_endpoint(id, split, c),
                    params: Vec::new(),
                    cont: par(vec![invoke(self.ack_endpoint(split)), inner]).into(),
                });
            }
        }
        repl(cows::term::choice(branches))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ProcessBuilder;
    use cows::lts::{explore, ExploreLimits};
    use cows::observe::{Observability, Observation};
    use cows::weaknext::{weak_next, WeakNextLimits};

    fn obs_strings(encoded: &Encoded, from: &Marked) -> Vec<String> {
        weak_next(from, &encoded.observability, WeakNextLimits::default())
            .unwrap()
            .iter()
            .map(|w| w.observation.to_string())
            .collect()
    }

    /// Fig. 7: S → T → E has LTS St1 → St2 → St3.
    #[test]
    fn fig7_sequence() {
        let mut b = ProcessBuilder::new("fig7");
        let p = b.pool("P");
        let s = b.start(p, "S");
        let t = b.task(p, "T");
        let e = b.end(p, "E");
        b.chain(&[s, t, e]);
        let enc = encode(&b.build().unwrap());
        let lts = explore(&enc.service, ExploreLimits::default()).unwrap();
        assert_eq!(lts.state_count(), 3);
        assert_eq!(lts.edge_count(), 2);
    }

    /// Fig. 8: XOR split — exactly one of T1/T2 runs; both reach the same
    /// end-state count.
    #[test]
    fn fig8_exclusive_gateway() {
        let mut b = ProcessBuilder::new("fig8");
        let p = b.pool("P");
        let s = b.start(p, "S");
        let t = b.task(p, "T");
        let g = b.xor(p, "G");
        let t1 = b.task(p, "T1");
        let t2 = b.task(p, "T2");
        let e1 = b.end(p, "E1");
        let e2 = b.end(p, "E2");
        b.chain(&[s, t, g]);
        b.flow(g, t1);
        b.flow(g, t2);
        b.flow(t1, e1);
        b.flow(t2, e2);
        let enc = encode(&b.build().unwrap());

        let m0 = enc.initial();
        // First observable: T.
        let succ = obs_strings(&enc, &m0);
        assert_eq!(succ, vec!["P.T"]);
        // After T: either T1 or T2 — never both in one run.
        let after_t = weak_next(&m0, &enc.observability, WeakNextLimits::default()).unwrap();
        let next = obs_strings(&enc, &after_t[0].state);
        assert_eq!(next, vec!["P.T1", "P.T2"]);
        let branches = weak_next(
            &after_t[0].state,
            &enc.observability,
            WeakNextLimits::default(),
        )
        .unwrap();
        for b in &branches {
            // After committing to one branch, the other is gone.
            assert!(obs_strings(&enc, &b.state).is_empty());
        }
    }

    /// Fig. 9: a task with an error boundary offers both the normal
    /// continuation and sys·Err.
    #[test]
    fn fig9_error_event() {
        let mut b = ProcessBuilder::new("fig9");
        let p = b.pool("P");
        let s = b.start(p, "S");
        let t1 = b.task(p, "T1"); // error handler
        let t2 = b.task(p, "T2"); // normal continuation
        let e1 = b.end(p, "E1");
        let e2 = b.end(p, "E2");
        let t = b.task_with_error(p, "T", t1);
        b.flow(s, t);
        b.flow(t, t2);
        b.flow(t1, e1);
        b.flow(t2, e2);
        let enc = encode(&b.build().unwrap());

        let m0 = enc.initial();
        let after_t = weak_next(&m0, &enc.observability, WeakNextLimits::default()).unwrap();
        assert_eq!(after_t.len(), 1);
        assert_eq!(after_t[0].observation.to_string(), "P.T");
        // From the running task: the two paths of Fig. 9(c) — the normal
        // continuation (via the unobservable sys·T2-style choice) or the
        // observable error.
        let next = obs_strings(&enc, &after_t[0].state);
        assert_eq!(next, vec!["P.T2", "sys.Err"]);
        // The error completes T: after sys·Err nothing is running, and the
        // handler T1 is the next observable activity.
        let err_succ = weak_next(
            &after_t[0].state,
            &enc.observability,
            WeakNextLimits::default(),
        )
        .unwrap();
        let err_state = err_succ
            .iter()
            .find(|w| w.observation == Observation::Error)
            .unwrap();
        assert!(err_state.state.running.is_empty());
        assert_eq!(obs_strings(&enc, &err_state.state), vec!["P.T1"]);
    }

    /// Fig. 10: message flow between two pools, with a cycle.
    #[test]
    fn fig10_message_flow_cycle() {
        let mut b = ProcessBuilder::new("fig10");
        let p1 = b.pool("P1");
        let p2 = b.pool("P2");
        let s1 = b.start(p1, "S1");
        let s2 = b.message_start(p1, "S2");
        let t1 = b.task(p1, "T1");
        let s3 = b.message_start(p2, "S3");
        let t2 = b.task(p2, "T2");
        let e1 = b.message_end(p1, "E1", s3);
        let e2 = b.message_end(p2, "E2", s2);
        b.flow(s1, t1);
        b.flow(s2, t1);
        b.flow(t1, e1);
        b.flow(s3, t2);
        b.flow(t2, e2);
        let enc = encode(&b.build().unwrap());

        // The observable behaviour cycles T1, T2, T1, T2, …
        let mut m = enc.initial();
        for expected in ["P1.T1", "P2.T2", "P1.T1", "P2.T2"] {
            let succ = weak_next(&m, &enc.observability, WeakNextLimits::default()).unwrap();
            assert_eq!(succ.len(), 1);
            assert_eq!(succ[0].observation.to_string(), expected);
            m = succ[0].state.clone();
        }
        // And the LTS itself is finite (canonical forms close the cycle).
        let lts = explore(&enc.service, ExploreLimits::default()).unwrap();
        assert!(lts.state_count() <= 8, "got {}", lts.state_count());
    }

    /// AND split/join: both tasks run (in either order), join waits for both.
    #[test]
    fn and_gateway_fork_join() {
        let mut b = ProcessBuilder::new("and");
        let p = b.pool("P");
        let s = b.start(p, "S");
        let f = b.and(p, "F");
        let t1 = b.task(p, "T1");
        let t2 = b.task(p, "T2");
        let j = b.and(p, "J");
        let t3 = b.task(p, "T3");
        let e = b.end(p, "E");
        b.flow(s, f);
        b.flow(f, t1);
        b.flow(f, t2);
        b.flow(t1, j);
        b.flow(t2, j);
        b.flow(j, t3);
        b.flow(t3, e);
        let enc = encode(&b.build().unwrap());

        let m0 = enc.initial();
        let first = weak_next(&m0, &enc.observability, WeakNextLimits::default()).unwrap();
        let names: Vec<String> = first.iter().map(|w| w.observation.to_string()).collect();
        assert_eq!(names, vec!["P.T1", "P.T2"]);
        // Take T1 then T2; only then T3 becomes available. (Several states
        // may share the observation — the interleaving of T1's hand-over to
        // the join with T2's start — exactly the St11/St12 phenomenon of
        // Fig. 6.)
        let after1 = &first[0].state;
        let second = weak_next(after1, &enc.observability, WeakNextLimits::default()).unwrap();
        let names2: std::collections::BTreeSet<String> =
            second.iter().map(|w| w.observation.to_string()).collect();
        assert_eq!(
            names2,
            std::collections::BTreeSet::from(["P.T2".to_string()]),
            "join must wait for both tokens"
        );
        // Pick the state where T1 has already handed its token to the join.
        let third_names: std::collections::BTreeSet<String> = second
            .iter()
            .flat_map(|w| {
                weak_next(&w.state, &enc.observability, WeakNextLimits::default()).unwrap()
            })
            .map(|x| x.observation.to_string())
            .collect();
        assert_eq!(
            third_names,
            std::collections::BTreeSet::from(["P.T3".to_string()])
        );
    }

    /// OR split/join: one, the other, or both branches; the join
    /// synchronizes exactly the activated set.
    #[test]
    fn or_gateway_inclusive_choice() {
        let mut b = ProcessBuilder::new("or");
        let p = b.pool("P");
        let s = b.start(p, "S");
        let g = b.or_split(p, "G");
        let t1 = b.task(p, "T1");
        let t2 = b.task(p, "T2");
        let j = b.or_join(p, "J");
        let t3 = b.task(p, "T3");
        let e = b.end(p, "E");
        b.pair_or(g, j);
        b.flow(s, g);
        b.flow(g, t1);
        b.flow(g, t2);
        b.flow(t1, j);
        b.flow(t2, j);
        b.flow(j, t3);
        b.flow(t3, e);
        let enc = encode(&b.build().unwrap());

        let m0 = enc.initial();
        let first = weak_next(&m0, &enc.observability, WeakNextLimits::default()).unwrap();
        // Reachable one observable step away: T1 (alone or with T2 pending)
        // and T2 (alone or with T1 pending) — 4 states, 2 observations,
        // mirroring the paper's St9–St12 discussion.
        assert_eq!(first.len(), 4);
        let names: std::collections::BTreeSet<String> =
            first.iter().map(|w| w.observation.to_string()).collect();
        assert_eq!(
            names,
            std::collections::BTreeSet::from(["P.T1".to_string(), "P.T2".to_string()])
        );

        for w in &first {
            let next = weak_next(&w.state, &enc.observability, WeakNextLimits::default()).unwrap();
            let nn: std::collections::BTreeSet<String> =
                next.iter().map(|x| x.observation.to_string()).collect();
            // Either the branch was alone (join fires, T3 next) or the other
            // branch is still pending.
            assert!(
                nn == std::collections::BTreeSet::from(["P.T3".to_string()])
                    || nn.contains("P.T1")
                    || nn.contains("P.T2"),
                "unexpected successors {nn:?}"
            );
        }
    }

    #[test]
    fn snapshot_key_is_stable_per_process_and_distinct_across_processes() {
        let build = |task: &str| {
            let mut b = ProcessBuilder::new("keyed");
            let p = b.pool("P");
            let s = b.start(p, "S");
            let t = b.task(p, task);
            let e = b.end(p, "E");
            b.chain(&[s, t, e]);
            encode(&b.build().unwrap())
        };
        let a1 = build("T");
        let a2 = build("T");
        let b = build("U");
        assert_eq!(a1.snapshot_key(), a2.snapshot_key());
        assert_ne!(a1.snapshot_key(), b.snapshot_key());
        // A snapshot of one process never loads into the other.
        let bytes = a1.snapshot_bytes();
        assert!(a2.load_snapshot_bytes(&bytes).is_ok());
        assert!(matches!(
            b.load_snapshot_bytes(&bytes),
            Err(cows::SnapshotError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn snapshot_path_convention() {
        use std::path::Path;
        assert_eq!(
            Encoded::snapshot_path(Path::new("/tmp/procs/care.toml"), None),
            Path::new("/tmp/procs/care.toml.pcas")
        );
        assert_eq!(
            Encoded::snapshot_path(
                Path::new("/tmp/procs/care.toml"),
                Some(Path::new("/var/cache"))
            ),
            Path::new("/var/cache/care.toml.pcas")
        );
    }

    #[test]
    fn observability_covers_tasks_and_roles() {
        let mut b = ProcessBuilder::new("obs");
        let p = b.pool("GP");
        let s = b.start(p, "S");
        let t = b.task(p, "T01");
        let e = b.end(p, "E");
        b.chain(&[s, t, e]);
        let enc = encode(&b.build().unwrap());
        let l = cows::label::Label::Comm {
            ep: ep("GP", "T01"),
            args: vec![],
            completes: vec![],
        };
        assert!(enc.observability.observe(&l).is_some());
    }
}
