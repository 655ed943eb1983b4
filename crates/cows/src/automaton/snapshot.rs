//! On-disk snapshots of a compiled [`ProcessAutomaton`].
//!
//! PR 1 compiled the observable LTS lazily, but every `purposectl`
//! invocation rebuilt it from scratch: short-lived CLI runs and cold
//! auditors paid the full COWS term-rewriting cost Algorithm 1 was supposed
//! to amortize. This module persists the compilation — the interned
//! [`Marked`] states, the `(Observation, StateId)` edge tables and the
//! quiescence/token-task caches — in a versioned, checksummed binary format
//! so the next run starts warm.
//!
//! ## Format (version 1)
//!
//! The [`codec`] envelope with magic `b"PCAS"`, whose content key is a
//! stable content hash of the encoded process + observability, computed
//! by the owner (bpmn).
//!
//! The payload is: a local symbol table (symbols are stored as strings once
//! and referenced by dense `u32` index — interner indices are run-local and
//! never persisted), the state list (each state a COWS term plus its
//! `running` set), the interned initial state, then per-state edge tables,
//! quiescence bits and token-task caches. The symbol table and the state
//! encoding ([`SymbolWriter`], [`SymbolTable`]) are shared with the
//! live-session checkpoints.
//!
//! ## Run-independence
//!
//! Canonical normal forms and `weak_next`'s successor order both depend on
//! [`Symbol`] ordering, which is interner-index order — a property of the
//! *run*, not of the process. A snapshot written by one process would
//! therefore deserialize into terms that are congruent to, but not equal
//! to, the loading run's canonical states. The loader repairs this by
//! construction: every decoded state is re-normalized under the current
//! run's ordering, and every edge table is re-sorted with exactly the
//! comparator `weak_next` uses. After a merge, the automaton is
//! indistinguishable from one warmed by replay in this run.
//!
//! ## Fail-open
//!
//! Decoding is strictly fail-open: a bad magic, version or key mismatch,
//! truncation, checksum failure or malformed payload returns a typed
//! [`SnapshotError`] and leaves the automaton untouched — no panic, no
//! partial load. Callers fall back to cold compilation and log the reason.

use super::{ProcessAutomaton, StateId};
use crate::normal::normalize;
use crate::observe::Observation;
use crate::symbol::Symbol;
use crate::term::{Decl, Endpoint, Guard, Invoke, Request, Service, Word};
use crate::weaknext::{Marked, TaskInstance};
use codec::{Reader, Writer};
pub use codec::{SnapshotError, StableHasher, HEADER_LEN};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The four magic bytes opening every snapshot.
pub const MAGIC: [u8; 4] = *b"PCAS";

/// Current format version. Bump deliberately on any layout change — the
/// golden-fixture test exists to force that deliberation.
pub const FORMAT_VERSION: u32 = 1;

/// Decode recursion guard: deeper terms than this are rejected as malformed
/// rather than risking a stack overflow on hostile input.
const MAX_TERM_DEPTH: usize = 4_096;

// ---------------------------------------------------------------------------
// Stable hashing (process keys)
// ---------------------------------------------------------------------------

fn hash_word(h: &mut StableHasher, w: &Word) {
    match w {
        Word::Name(s) => {
            h.write_u8(0);
            h.write_str(s.as_str());
        }
        Word::Var(s) => {
            h.write_u8(1);
            h.write_str(s.as_str());
        }
    }
}

fn hash_endpoint(h: &mut StableHasher, e: &Endpoint) {
    h.write_str(e.partner.as_str());
    h.write_str(e.op.as_str());
}

/// Feed a structural, interner-independent encoding of `s` into `h`.
/// Symbols are hashed as their strings, so two runs that interned the same
/// process in different orders produce the same key.
pub fn hash_service(h: &mut StableHasher, s: &Service) {
    match s {
        Service::Nil => h.write_u8(0),
        Service::Invoke(i) => {
            h.write_u8(1);
            hash_endpoint(h, &i.ep);
            h.write_u32(i.args.len() as u32);
            for w in &i.args {
                hash_word(h, w);
            }
            h.write_u32(i.completes.len() as u32);
            for e in &i.completes {
                hash_endpoint(h, e);
            }
        }
        Service::Guarded(g) => {
            h.write_u8(2);
            h.write_u32(g.branches.len() as u32);
            for b in &g.branches {
                hash_endpoint(h, &b.ep);
                h.write_u32(b.params.len() as u32);
                for w in &b.params {
                    hash_word(h, w);
                }
                hash_service(h, &b.cont);
            }
        }
        Service::Parallel(ps) => {
            h.write_u8(3);
            h.write_u32(ps.len() as u32);
            for p in ps {
                hash_service(h, p);
            }
        }
        Service::Delim(d, body) => {
            h.write_u8(4);
            match d {
                Decl::Name(n) => {
                    h.write_u8(0);
                    h.write_str(n.as_str());
                }
                Decl::Var(v) => {
                    h.write_u8(1);
                    h.write_str(v.as_str());
                }
                Decl::Killer(k) => {
                    h.write_u8(2);
                    h.write_str(k.as_str());
                }
            }
            hash_service(h, body);
        }
        Service::Protect(body) => {
            h.write_u8(5);
            hash_service(h, body);
        }
        Service::Kill(k) => {
            h.write_u8(6);
            h.write_str(k.as_str());
        }
        Service::Repl(body) => {
            h.write_u8(7);
            hash_service(h, body);
        }
    }
}

// ---------------------------------------------------------------------------
// Symbol tables and state encoding
// ---------------------------------------------------------------------------

/// The encode side of a payload's local symbol table: each distinct symbol
/// is written once, as its string, and every use is a dense `u32` index.
/// A payload is the table followed by the body ([`SymbolWriter::payload`]).
#[derive(Default)]
pub struct SymbolWriter {
    table: Vec<Symbol>,
    index: HashMap<Symbol, u32>,
}

impl SymbolWriter {
    /// Write `s` to `out` as its table index.
    #[inline]
    pub fn put(&mut self, out: &mut Vec<u8>, s: Symbol) {
        let next = self.table.len() as u32;
        let id = *self.index.entry(s).or_insert_with(|| {
            self.table.push(s);
            next
        });
        out.put_u32(id);
    }

    fn put_word(&mut self, out: &mut Vec<u8>, w: &Word) {
        match w {
            Word::Name(s) => {
                out.put_u8(0);
                self.put(out, *s);
            }
            Word::Var(s) => {
                out.put_u8(1);
                self.put(out, *s);
            }
        }
    }

    fn put_endpoint(&mut self, out: &mut Vec<u8>, e: &Endpoint) {
        self.put(out, e.partner);
        self.put(out, e.op);
    }

    fn put_service(&mut self, out: &mut Vec<u8>, s: &Service) {
        match s {
            Service::Nil => out.put_u8(0),
            Service::Invoke(i) => {
                out.put_u8(1);
                self.put_endpoint(out, &i.ep);
                out.put_count(i.args.len());
                for w in &i.args {
                    self.put_word(out, w);
                }
                out.put_count(i.completes.len());
                for e in &i.completes {
                    self.put_endpoint(out, e);
                }
            }
            Service::Guarded(g) => {
                out.put_u8(2);
                out.put_count(g.branches.len());
                for b in &g.branches {
                    self.put_endpoint(out, &b.ep);
                    out.put_count(b.params.len());
                    for w in &b.params {
                        self.put_word(out, w);
                    }
                    self.put_service(out, &b.cont);
                }
            }
            Service::Parallel(ps) => {
                out.put_u8(3);
                out.put_count(ps.len());
                for p in ps {
                    self.put_service(out, p);
                }
            }
            Service::Delim(d, body) => {
                out.put_u8(4);
                let (tag, s) = match d {
                    Decl::Name(n) => (0, n),
                    Decl::Var(v) => (1, v),
                    Decl::Killer(k) => (2, k),
                };
                out.put_u8(tag);
                self.put(out, *s);
                self.put_service(out, body);
            }
            Service::Protect(body) => {
                out.put_u8(5);
                self.put_service(out, body);
            }
            Service::Kill(k) => {
                out.put_u8(6);
                self.put(out, *k);
            }
            Service::Repl(body) => {
                out.put_u8(7);
                self.put_service(out, body);
            }
        }
    }

    fn put_task_set(&mut self, out: &mut Vec<u8>, tasks: &BTreeSet<TaskInstance>) {
        out.put_count(tasks.len());
        for &(r, q) in tasks {
            self.put(out, r);
            self.put(out, q);
        }
    }

    /// One marked state: the COWS term plus its running-task set.
    pub fn put_state(&mut self, out: &mut Vec<u8>, m: &Marked) {
        self.put_service(out, &m.service);
        self.put_task_set(out, &m.running);
    }

    /// Assemble a payload: the table (it was filled while `body` was
    /// written), then `body`. Takes `body` so it is freed as soon as it is
    /// copied: a large snapshot then never holds three buffers at once.
    pub fn payload(self, body: Vec<u8>) -> Vec<u8> {
        let mut out = Vec::with_capacity(body.len() + 16 * self.table.len());
        out.put_count(self.table.len());
        for s in &self.table {
            out.put_str(s.as_str());
        }
        out.extend_from_slice(&body);
        out
    }
}

/// The decode side of a payload's symbol table, read from the payload's
/// front and interned into this run.
pub struct SymbolTable(Vec<Symbol>);

impl SymbolTable {
    pub fn read(r: &mut Reader<'_>) -> Result<SymbolTable, SnapshotError> {
        let n = r.count()?;
        (0..n)
            .map(|_| {
                std::str::from_utf8(r.bytes()?)
                    .map(Symbol::new)
                    .map_err(|_| SnapshotError::Malformed("symbol is not utf-8"))
            })
            .collect::<Result<_, _>>()
            .map(SymbolTable)
    }

    /// A symbol written by [`SymbolWriter::put`].
    pub fn sym(&self, r: &mut Reader<'_>) -> Result<Symbol, SnapshotError> {
        let id = r.u32()? as usize;
        self.0
            .get(id)
            .copied()
            .ok_or(SnapshotError::Malformed("symbol index out of range"))
    }

    fn word(&self, r: &mut Reader<'_>) -> Result<Word, SnapshotError> {
        match r.u8()? {
            0 => Ok(Word::Name(self.sym(r)?)),
            1 => Ok(Word::Var(self.sym(r)?)),
            _ => Err(SnapshotError::Malformed("bad word tag")),
        }
    }

    fn endpoint(&self, r: &mut Reader<'_>) -> Result<Endpoint, SnapshotError> {
        Ok(Endpoint {
            partner: self.sym(r)?,
            op: self.sym(r)?,
        })
    }

    fn words(&self, r: &mut Reader<'_>) -> Result<Vec<Word>, SnapshotError> {
        let n = r.count()?;
        (0..n).map(|_| self.word(r)).collect()
    }

    fn service(&self, r: &mut Reader<'_>, depth: usize) -> Result<Service, SnapshotError> {
        if depth > MAX_TERM_DEPTH {
            return Err(SnapshotError::Malformed("term nested too deep"));
        }
        match r.u8()? {
            0 => Ok(Service::Nil),
            1 => {
                let ep = self.endpoint(r)?;
                let args = self.words(r)?;
                let n = r.count()?;
                let completes = (0..n).map(|_| self.endpoint(r)).collect::<Result<_, _>>()?;
                Ok(Service::Invoke(Invoke {
                    ep,
                    args,
                    completes,
                }))
            }
            2 => {
                let n = r.count()?;
                let mut branches = Vec::with_capacity(n);
                for _ in 0..n {
                    branches.push(Request {
                        ep: self.endpoint(r)?,
                        params: self.words(r)?,
                        cont: Arc::new(self.service(r, depth + 1)?),
                    });
                }
                Ok(Service::Guarded(Guard { branches }))
            }
            3 => {
                let n = r.count()?;
                let children = (0..n)
                    .map(|_| self.service(r, depth + 1))
                    .collect::<Result<_, _>>()?;
                Ok(Service::Parallel(children))
            }
            4 => {
                let decl = match r.u8()? {
                    0 => Decl::Name(self.sym(r)?),
                    1 => Decl::Var(self.sym(r)?),
                    2 => Decl::Killer(self.sym(r)?),
                    _ => return Err(SnapshotError::Malformed("bad decl tag")),
                };
                Ok(Service::Delim(decl, Arc::new(self.service(r, depth + 1)?)))
            }
            5 => Ok(Service::Protect(Arc::new(self.service(r, depth + 1)?))),
            6 => Ok(Service::Kill(self.sym(r)?)),
            7 => Ok(Service::Repl(Arc::new(self.service(r, depth + 1)?))),
            _ => Err(SnapshotError::Malformed("bad service tag")),
        }
    }

    fn task_set(&self, r: &mut Reader<'_>) -> Result<BTreeSet<TaskInstance>, SnapshotError> {
        let n = r.count()?;
        let mut set = BTreeSet::new();
        for _ in 0..n {
            set.insert((self.sym(r)?, self.sym(r)?));
        }
        Ok(set)
    }

    /// One state in the writer's normal form.
    fn raw_state(&self, r: &mut Reader<'_>) -> Result<Marked, SnapshotError> {
        Ok(Marked {
            service: self.service(r, 0)?,
            running: self.task_set(r)?,
        })
    }

    /// One state written by [`SymbolWriter::put_state`], re-normalized
    /// under this run's symbol order (see the module docs on
    /// run-independence).
    pub fn state(&self, r: &mut Reader<'_>) -> Result<Marked, SnapshotError> {
        let m = self.raw_state(r)?;
        Ok(Marked {
            service: normalize(m.service),
            running: m.running,
        })
    }
}

// ---------------------------------------------------------------------------
// Snapshot encode / decode
// ---------------------------------------------------------------------------

/// A decoded snapshot: states still in the writer's normal form, edge
/// targets still snapshot-local (re-normalization under the current
/// interner order and remapping to live [`StateId`]s happen in the merge).
#[derive(Debug)]
pub struct DecodedSnapshot {
    pub states: Vec<Marked>,
    pub initial: Option<u32>,
    pub edges: Vec<Option<Vec<(Observation, u32)>>>,
    pub silent: Vec<Option<bool>>,
    pub tokens: Vec<Option<BTreeSet<TaskInstance>>>,
}

/// What a merge changed, for the warm/cold stats surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// States carried by the snapshot.
    pub snapshot_states: usize,
    /// Snapshot states that were not already interned.
    pub new_states: usize,
    /// Edge tables adopted (states the replay engine will never have to
    /// expand with `weak_next`).
    pub edges_loaded: usize,
    /// Quiescence bits adopted.
    pub silent_loaded: usize,
    /// Token-task annotations adopted.
    pub tokens_loaded: usize,
}

impl MergeReport {
    /// Whether the merge made the automaton warm (any edge table adopted).
    pub fn is_warm(&self) -> bool {
        self.edges_loaded > 0
    }
}

/// Serialize the automaton's current compilation, keyed by `key`.
///
/// The node table is append-only, so a consistent view is a clone of the
/// `Arc` list; an edge table compiled concurrently with the snapshot may
/// reference states interned after the clone and is skipped (it will be
/// recompiled on load — correctness over completeness).
pub fn encode_snapshot(auto: &ProcessAutomaton, key: u64) -> Vec<u8> {
    let nodes: Vec<Arc<super::Node>> = auto.nodes.read().clone();
    let n = nodes.len();
    let mut syms = SymbolWriter::default();
    let mut body = Vec::new();

    body.put_count(n);
    for node in &nodes {
        syms.put_state(&mut body, &node.state);
    }

    match auto.initial.get() {
        Some(&id) if (id as usize) < n => {
            body.put_u8(1);
            body.put_u32(id);
        }
        _ => body.put_u8(0),
    }

    for node in &nodes {
        let edges = node.edges.read().clone();
        match edges {
            Some(list) if list.iter().all(|&(_, t)| (t as usize) < n) => {
                body.put_u8(1);
                body.put_count(list.len());
                for &(obs, target) in list.iter() {
                    match obs {
                        Observation::Task { role, task } => {
                            body.put_u8(0);
                            syms.put(&mut body, role);
                            syms.put(&mut body, task);
                        }
                        Observation::Error => body.put_u8(1),
                    }
                    body.put_u32(target);
                }
            }
            _ => body.put_u8(0),
        }
    }

    for node in &nodes {
        body.put_u8(match *node.silent.read() {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }

    for node in &nodes {
        let tokens = node.tokens.read().clone();
        match tokens {
            Some(set) => {
                body.put_u8(1);
                syms.put_task_set(&mut body, &set);
            }
            None => body.put_u8(0),
        }
    }

    codec::seal(MAGIC, FORMAT_VERSION, key, &syms.payload(body))
}

/// Validate the envelope and decode the payload. States keep the writer's
/// normal form here; re-normalization under this run's canonical ordering
/// happens in the merge (see the module docs). Nothing is interned into
/// any automaton yet.
pub fn decode_snapshot(bytes: &[u8], expected_key: u64) -> Result<DecodedSnapshot, SnapshotError> {
    let (_, payload) = codec::open(bytes, MAGIC, FORMAT_VERSION, Some(expected_key))?;
    let mut r = Reader::new(payload);
    let t = SymbolTable::read(&mut r)?;

    // States, still in the writer's normal form; the merge re-normalizes
    // them under this run's symbol order (in parallel — see `intern_all`).
    let nstates = r.count()?;
    let mut states = Vec::with_capacity(nstates);
    for _ in 0..nstates {
        states.push(t.raw_state(&mut r)?);
    }

    let initial = match r.u8()? {
        0 => None,
        1 => {
            let id = r.u32()?;
            if id as usize >= nstates {
                return Err(SnapshotError::Malformed("initial state out of range"));
            }
            Some(id)
        }
        _ => return Err(SnapshotError::Malformed("bad initial flag")),
    };

    let mut edges = Vec::with_capacity(nstates);
    for _ in 0..nstates {
        match r.u8()? {
            0 => edges.push(None),
            1 => {
                let n = r.count()?;
                let mut list = Vec::with_capacity(n);
                for _ in 0..n {
                    let obs = match r.u8()? {
                        0 => Observation::Task {
                            role: t.sym(&mut r)?,
                            task: t.sym(&mut r)?,
                        },
                        1 => Observation::Error,
                        _ => return Err(SnapshotError::Malformed("bad observation tag")),
                    };
                    let target = r.u32()?;
                    if target as usize >= nstates {
                        return Err(SnapshotError::Malformed("edge target out of range"));
                    }
                    list.push((obs, target));
                }
                edges.push(Some(list));
            }
            _ => return Err(SnapshotError::Malformed("bad edges flag")),
        }
    }

    let mut silent = Vec::with_capacity(nstates);
    for _ in 0..nstates {
        silent.push(match r.u8()? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            _ => return Err(SnapshotError::Malformed("bad quiescence flag")),
        });
    }

    let mut tokens = Vec::with_capacity(nstates);
    for _ in 0..nstates {
        tokens.push(match r.u8()? {
            0 => None,
            1 => Some(t.task_set(&mut r)?),
            _ => return Err(SnapshotError::Malformed("bad tokens flag")),
        });
    }

    r.finish()?;
    Ok(DecodedSnapshot {
        states,
        initial,
        edges,
        silent,
        tokens,
    })
}

/// Merge a decoded snapshot into a live automaton under its sharded locks.
///
/// States are interned (deduplicating against anything already live), edge
/// targets are remapped to live ids, and every adopted edge table is
/// re-sorted with `weak_next`'s comparator under this run's symbol order so
/// the warm automaton is bit-identical to a cold-compiled one. Existing
/// compiled entries always win over snapshot entries (they are equal by
/// construction; skipping the store avoids pointless churn).
pub fn merge_snapshot(auto: &ProcessAutomaton, snap: DecodedSnapshot) -> MergeReport {
    let mut report = MergeReport {
        snapshot_states: snap.states.len(),
        ..MergeReport::default()
    };

    let before = auto.len();
    let map = intern_all(auto, snap.states);
    report.new_states = auto.len() - before;

    if let Some(i) = snap.initial {
        auto.initial.get_or_init(|| map[i as usize]);
    }

    for (i, entry) in snap.edges.into_iter().enumerate() {
        let Some(list) = entry else { continue };
        let node = auto.node(map[i]);
        if node.edges.read().is_some() {
            continue;
        }
        // Remap, then re-sort in the current run's `weak_next` order:
        // (observation, running, service) over the *target* states.
        let mut remapped: Vec<(Observation, StateId, Arc<Marked>)> = list
            .into_iter()
            .map(|(obs, t)| {
                let id = map[t as usize];
                (obs, id, auto.state(id))
            })
            .collect();
        remapped.sort_by(|a, b| {
            (a.0, &a.2.running, &a.2.service).cmp(&(b.0, &b.2.running, &b.2.service))
        });
        remapped.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        let edges: super::Edges =
            Arc::new(remapped.into_iter().map(|(o, id, _)| (o, id)).collect());
        let mut wr = node.edges.write();
        if wr.is_none() {
            *wr = Some(edges);
            report.edges_loaded += 1;
        }
    }

    for (i, entry) in snap.silent.into_iter().enumerate() {
        let Some(v) = entry else { continue };
        let node = auto.node(map[i]);
        let mut wr = node.silent.write();
        if wr.is_none() {
            *wr = Some(v);
            report.silent_loaded += 1;
        }
    }

    for (i, entry) in snap.tokens.into_iter().enumerate() {
        let Some(set) = entry else { continue };
        let node = auto.node(map[i]);
        let mut wr = node.tokens.write();
        if wr.is_none() {
            *wr = Some(Arc::new(set));
            report.tokens_loaded += 1;
        }
    }

    auto.loaded_states.fetch_add(
        report.new_states as u64,
        std::sync::atomic::Ordering::Relaxed,
    );
    auto.loaded_edges.fetch_add(
        report.edges_loaded as u64,
        std::sync::atomic::Ordering::Relaxed,
    );
    report
}

/// Re-normalize and intern every snapshot state, preserving snapshot order
/// in the returned id map.
///
/// Normalization under this run's symbol order plus the deep hashing that
/// interning performs dominate warm-start time, and every state is
/// independent, so large batches are split across scoped threads. The
/// intern maps are sharded and thread-safe, and state ids are arbitrary
/// handles (edges resolve through the returned map, replay never orders by
/// id), so concurrent id assignment is safe.
fn intern_all(auto: &ProcessAutomaton, states: Vec<Marked>) -> Vec<StateId> {
    let renorm = |m: Marked| Marked {
        service: normalize(m.service),
        running: m.running,
    };
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8);
    if workers < 2 || states.len() < 16 {
        return states.into_iter().map(|m| auto.intern(renorm(m))).collect();
    }
    let chunk = states.len().div_ceil(workers);
    let mut chunks: Vec<Vec<Marked>> = Vec::with_capacity(workers);
    let mut it = states.into_iter();
    loop {
        let c: Vec<Marked> = it.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| {
                s.spawn(move || {
                    c.into_iter()
                        .map(|m| auto.intern(renorm(m)))
                        .collect::<Vec<StateId>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("intern worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::TaskObservability;
    use crate::symbol::sym;
    use crate::term::{ep, invoke, par, request};
    use crate::weaknext::{weak_next, WeakNextLimits};

    fn obs(roles: &[&str], tasks: &[&str]) -> TaskObservability {
        TaskObservability::with(roles.iter().map(|r| sym(r)), tasks.iter().map(|t| sym(t)))
    }

    /// A then (B or C): multiple edges out of one state, so order matters.
    fn branchy() -> Service {
        par(vec![
            invoke(ep("P", "A")),
            request(
                ep("P", "A"),
                par(vec![invoke(ep("P", "B")), invoke(ep("P", "C"))]),
            ),
            request(ep("P", "B"), Service::Nil),
            request(ep("P", "C"), Service::Nil),
        ])
    }

    fn warmed() -> (ProcessAutomaton, TaskObservability) {
        let auto = ProcessAutomaton::new();
        let o = obs(&["P"], &["A", "B", "C"]);
        let limits = WeakNextLimits::default();
        let s = branchy();
        let id = auto.initial_id(&s);
        let mut frontier = vec![id];
        while let Some(next) = frontier.pop() {
            for &(_, t) in auto.successors(next, &o, limits).unwrap().iter() {
                if auto.cached_edges(t).is_none() {
                    frontier.push(t);
                }
            }
            auto.can_quiesce(next, &o, limits).unwrap();
            auto.token_tasks(next, &o);
        }
        (auto, o)
    }

    #[test]
    fn round_trip_preserves_states_edges_and_caches() {
        let (auto, o) = warmed();
        let bytes = encode_snapshot(&auto, 7);
        let fresh = ProcessAutomaton::new();
        let report = merge_snapshot(&fresh, decode_snapshot(&bytes, 7).unwrap());
        assert_eq!(report.snapshot_states, auto.len());
        assert_eq!(report.new_states, auto.len());
        assert_eq!(report.edges_loaded, auto.stats().expanded);
        assert!(report.is_warm());

        // Warm lookups on the fresh automaton never run weak_next and agree
        // with a direct computation, edge order included.
        let limits = WeakNextLimits::default();
        let id = fresh.initial_id(&branchy());
        let edges = fresh.successors(id, &o, limits).unwrap();
        let direct = weak_next(&Marked::initial(&branchy()), &o, limits).unwrap();
        assert_eq!(edges.len(), direct.len());
        for (edge, succ) in edges.iter().zip(&direct) {
            assert_eq!(edge.0, succ.observation);
            assert_eq!(*fresh.state(edge.1), succ.state);
        }
        assert_eq!(fresh.stats().edge_misses, 0);
        assert_eq!(fresh.stats().loaded_states as usize, auto.len());
    }

    #[test]
    fn merge_into_warm_automaton_is_idempotent() {
        let (auto, _) = warmed();
        let bytes = encode_snapshot(&auto, 7);
        let before = auto.stats();
        let report = merge_snapshot(&auto, decode_snapshot(&bytes, 7).unwrap());
        assert_eq!(report.new_states, 0);
        assert_eq!(report.edges_loaded, 0);
        let after = auto.stats();
        assert_eq!(before.states, after.states);
        assert_eq!(before.expanded, after.expanded);
    }

    #[test]
    fn key_mismatch_is_rejected_before_decode() {
        let (auto, _) = warmed();
        let bytes = encode_snapshot(&auto, 7);
        assert_eq!(
            decode_snapshot(&bytes, 8).unwrap_err(),
            SnapshotError::KeyMismatch {
                found: 7,
                expected: 8
            }
        );
    }

    #[test]
    fn every_truncation_point_is_fail_open() {
        let (auto, _) = warmed();
        let bytes = encode_snapshot(&auto, 7);
        for len in 0..bytes.len() {
            let err = decode_snapshot(&bytes[..len], 7).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::ChecksumMismatch { .. }
                ),
                "prefix of {len} bytes: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_checksum_are_typed() {
        let (auto, _) = warmed();
        let good = encode_snapshot(&auto, 7);

        let mut magic = good.clone();
        magic[0] ^= 0xff;
        assert_eq!(
            decode_snapshot(&magic, 7).unwrap_err(),
            SnapshotError::BadMagic
        );

        let mut version = good.clone();
        version[4] = version[4].wrapping_add(1);
        assert!(matches!(
            decode_snapshot(&version, 7).unwrap_err(),
            SnapshotError::VersionMismatch {
                expected: FORMAT_VERSION,
                ..
            }
        ));

        let mut flipped = good.clone();
        let mid = HEADER_LEN + (good.len() - HEADER_LEN) / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            decode_snapshot(&flipped, 7).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            decode_snapshot(&trailing, 7).unwrap_err(),
            SnapshotError::Malformed("trailing bytes after payload")
        );
    }

    #[test]
    fn stable_hash_is_interner_independent() {
        // Same structural term hashed via different (but same-named)
        // symbols gives the same key; different structure differs.
        let a = branchy();
        let mut h1 = StableHasher::new();
        hash_service(&mut h1, &a);
        let mut h2 = StableHasher::new();
        hash_service(&mut h2, &branchy());
        assert_eq!(h1.finish(), h2.finish());

        let mut h3 = StableHasher::new();
        hash_service(&mut h3, &invoke(ep("P", "A")));
        assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn state_codec_round_trips_scalars_and_states() {
        let state = Marked {
            service: normalize(branchy()),
            running: [(sym("P"), sym("A")), (sym("P"), sym("B"))]
                .into_iter()
                .collect(),
        };
        let mut syms = SymbolWriter::default();
        let mut body = Vec::new();
        body.put_u8(3);
        body.put_str("HT-7 café"); // non-ascii exercises utf-8 handling
        syms.put(&mut body, sym("treatment"));
        syms.put(&mut body, sym("treatment")); // second use: table index, not a copy
        syms.put_state(&mut body, &state);
        let payload = syms.payload(body);

        let decode = |bytes: &[u8]| -> Result<(), SnapshotError> {
            let mut r = Reader::new(bytes);
            let t = SymbolTable::read(&mut r)?;
            assert_eq!(r.u8()?, 3);
            assert_eq!(r.str()?, "HT-7 café");
            assert_eq!(t.sym(&mut r)?, sym("treatment"));
            assert_eq!(t.sym(&mut r)?, sym("treatment"));
            assert_eq!(t.state(&mut r)?, state);
            r.finish()
        };
        decode(&payload).unwrap();

        // Trailing garbage is caught, truncation is fail-open.
        let mut longer = payload.clone();
        longer.push(0);
        assert!(decode(&longer).is_err());
        for len in 0..payload.len() {
            assert!(
                decode(&payload[..len]).is_err(),
                "truncation to {len} bytes must not decode"
            );
        }
    }
}
