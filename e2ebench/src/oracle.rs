//! Reference verdicts from the direct Algorithm 1 engine (`Engine::Direct`,
//! which recomputes `WeakNext` per configuration and shares nothing across
//! cases), computed outside every timed region.
//!
//! Algorithm 1 reads only the role, task and status of a case's entries
//! (the timestamp only under `--max-minutes`, which no workload sets), so
//! a reference verdict is computed once per distinct `(purpose, [(role,
//! task, failed)])` sequence and kept in a memo file shared by every seed
//! of a workload; the severity of an infringement is then assessed on each
//! case's own entries, as the auditor does.

use audit::entry::{LogEntry, TaskStatus};
use audit::trail::AuditTrail;
use cows::symbol::Symbol;
use purpose_control::auditor::Auditor;
use purpose_control::replay::{
    check_case, CheckOptions, Engine, Infringement, InfringementKind, Verdict,
};
use purpose_control::severity::assess;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expected {
    Compliant { can_complete: bool },
    Infringement { entry_index: usize, severity: f64 },
}

pub struct Oracle {
    /// Case name → (entries in the case, reference verdict).
    pub cases: BTreeMap<String, (usize, Expected)>,
    /// Entries failing the preventive Def. 3 check.
    pub preventive: usize,
}

/// A memoized replay verdict: compliant (with its can-complete flag), or
/// infringing at an entry index.
#[derive(Clone, Copy)]
enum Memo {
    Compliant(bool),
    Infringement(usize),
}

/// Replay key → verdict, persisted as `key\tC\t<0|1>` / `key\tI\t<index>`
/// lines under a first line naming the build (`stamp`) that computed them.
struct MemoFile(HashMap<u64, Memo>);

impl MemoFile {
    fn load(path: &Path, stamp: &str) -> MemoFile {
        let mut memo = HashMap::new();
        if let Ok(text) = std::fs::read_to_string(path) {
            let mut lines = text.lines();
            if lines.next() == Some(stamp) {
                for line in lines {
                    let f: Vec<&str> = line.split('\t').collect();
                    let (Some(key), Some(v)) = (
                        f.first().and_then(|k| u64::from_str_radix(k, 16).ok()),
                        f.get(2),
                    ) else {
                        continue;
                    };
                    match (f.get(1), v.parse::<usize>()) {
                        (Some(&"C"), Ok(c)) => memo.insert(key, Memo::Compliant(c == 1)),
                        (Some(&"I"), Ok(i)) => memo.insert(key, Memo::Infringement(i)),
                        _ => None,
                    };
                }
            }
        }
        MemoFile(memo)
    }

    fn save(&self, path: &Path, stamp: &str) -> Result<(), String> {
        let mut out = format!("{stamp}\n");
        for (key, memo) in &self.0 {
            out.push_str(&match memo {
                Memo::Compliant(c) => format!("{key:016x}\tC\t{}\n", u8::from(*c)),
                Memo::Infringement(i) => format!("{key:016x}\tI\t{i}\n"),
            });
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn replay_key(purpose: Symbol, entries: &[&LogEntry]) -> u64 {
    let mut h = DefaultHasher::new();
    purpose.as_str().hash(&mut h);
    for e in entries {
        (
            e.role.as_str(),
            e.task.as_str(),
            e.status == TaskStatus::Failure,
        )
            .hash(&mut h);
    }
    h.finish()
}

impl Oracle {
    /// The reference for `trail`, replaying with the direct engine (on
    /// `threads` threads) only the sequences the memo at `memo_path` lacks.
    pub fn compute(
        auditor: &Auditor,
        trail: &AuditTrail,
        threads: usize,
        memo_path: &Path,
        stamp: &str,
    ) -> Result<Oracle, String> {
        let mut by_case: BTreeMap<Symbol, Vec<&LogEntry>> = BTreeMap::new();
        for e in trail {
            by_case.entry(e.case).or_default().push(e);
        }
        let mut memo = MemoFile::load(memo_path, stamp);
        let mut keys = Vec::with_capacity(by_case.len());
        let mut missing: BTreeMap<u64, (Symbol, &[&LogEntry])> = BTreeMap::new();
        for (case, entries) in &by_case {
            let purpose = auditor
                .resolve_case(*case)
                .ok_or_else(|| format!("oracle: case {case} resolves to no purpose"))?;
            let key = replay_key(purpose, entries);
            if !memo.0.contains_key(&key) {
                missing.entry(key).or_insert((purpose, entries.as_slice()));
            }
            keys.push(key);
        }

        let opts = CheckOptions {
            engine: Engine::Direct,
            ..CheckOptions::default()
        };
        let hierarchy = auditor.context.roles();
        let check = |(key, (purpose, entries)): (&u64, &(Symbol, &[&LogEntry]))| -> Result<(u64, Memo), String> {
            let process = auditor
                .registry
                .process_for(*purpose)
                .ok_or_else(|| format!("oracle: purpose {purpose} has no process"))?;
            let verdict = check_case(&process.encoded, hierarchy, entries, &opts)
                .map_err(|e| format!("oracle: direct replay failed: {e}"))?
                .verdict;
            Ok((
                *key,
                match verdict {
                    Verdict::Compliant { can_complete } => Memo::Compliant(can_complete),
                    Verdict::Infringement(inf) => Memo::Infringement(inf.entry_index),
                },
            ))
        };
        if !missing.is_empty() {
            let work: Vec<_> = missing.iter().collect();
            let chunk = work.len().div_ceil(threads.max(1));
            let computed = std::thread::scope(|s| {
                let workers: Vec<_> = work
                    .chunks(chunk)
                    .map(|part| {
                        s.spawn(move || part.iter().map(|&kv| check(kv)).collect::<Vec<_>>())
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("oracle worker panicked"))
                    .collect::<Result<Vec<_>, String>>()
            })?;
            memo.0.extend(computed);
            memo.save(memo_path, stamp)?;
        }

        let mut cases = BTreeMap::new();
        for ((case, entries), key) in by_case.iter().zip(keys) {
            let expected = match memo.0[&key] {
                Memo::Compliant(can_complete) => Expected::Compliant { can_complete },
                Memo::Infringement(entry_index) => {
                    // `assess` reads only the infringing entry's index.
                    let infringement = Infringement {
                        entry_index,
                        entry: entries[entry_index.min(entries.len() - 1)].clone(),
                        expected: Vec::new(),
                        active: Vec::new(),
                        kind: InfringementKind::ProcessDeviation,
                    };
                    Expected::Infringement {
                        entry_index,
                        severity: assess(&infringement, entries, &auditor.sensitivity).score,
                    }
                }
            };
            cases.insert(case.to_string(), (entries.len(), expected));
        }
        Ok(Oracle {
            cases,
            preventive: auditor.preventive_check(trail).len(),
        })
    }

    pub fn infringing(&self) -> usize {
        self.cases
            .values()
            .filter(|(_, e)| matches!(e, Expected::Infringement { .. }))
            .count()
    }

    /// The per-case line `purposectl audit` prints for a case.
    pub fn cli_line(case: &str, entries: usize, expected: &Expected) -> String {
        let verdict = match expected {
            Expected::Compliant { can_complete } => format!(
                "compliant ({})",
                if *can_complete {
                    "complete"
                } else {
                    "in progress"
                }
            ),
            Expected::Infringement {
                entry_index,
                severity,
            } => format!("INFRINGEMENT at entry {entry_index} (severity {severity:.2})"),
        };
        format!("  {case:<8} [{entries} entries] {verdict}")
    }

    /// The label `GET /v1/{tenant}/cases/{id}` serves for a case.
    pub fn served_label(expected: &Expected) -> String {
        match expected {
            Expected::Compliant { can_complete } => format!("compliant complete={can_complete}"),
            Expected::Infringement {
                entry_index,
                severity,
            } => format!("infringement@{entry_index} severity={severity:.4}"),
        }
    }
}
