//! Audit trails (Def. 5).
//!
//! An audit trail is the chronological sequence of log entries. Entries
//! with equal timestamps (Fig. 4 contains two) keep their insertion order —
//! the trail is stable-sorted on time only.

use crate::entry::LogEntry;
use cows::symbol::Symbol;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A trail grouped by case: each case's entries in trail order, keyed in
/// the order of [`AuditTrail::cases`]. Built by [`AuditTrail::by_case`].
pub type CaseGroups<'a> = BTreeMap<Symbol, Vec<&'a LogEntry>>;

/// Def. 5 — a chronologically-ordered sequence of log entries.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AuditTrail {
    entries: Vec<LogEntry>,
}

impl AuditTrail {
    pub fn new() -> AuditTrail {
        AuditTrail::default()
    }

    /// Build from entries, stable-sorting by time.
    pub fn from_entries(mut entries: Vec<LogEntry>) -> AuditTrail {
        entries.sort_by_key(|e| e.time);
        AuditTrail { entries }
    }

    /// Append an entry, keeping chronological order. Appending in time
    /// order is O(1); out-of-order entries are inserted at the right
    /// position (stable: after any equal timestamp).
    pub fn push(&mut self, entry: LogEntry) {
        match self.entries.last() {
            Some(last) if last.time > entry.time => {
                let pos = self.entries.partition_point(|e| e.time <= entry.time);
                self.entries.insert(pos, entry);
            }
            _ => self.entries.push(entry),
        }
    }

    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, LogEntry> {
        self.entries.iter()
    }

    /// The portion of the trail belonging to one case, in order — the unit
    /// Algorithm 1 analyzes.
    pub fn project_case(&self, case: Symbol) -> Vec<&LogEntry> {
        self.entries.iter().filter(|e| e.case == case).collect()
    }

    /// Every case's projection at once, in a single pass over the trail:
    /// `by_case()[&c] == project_case(c)` for each `c` in `cases()`. Use it
    /// wherever more than one case is projected — per-case
    /// [`project_case`](Self::project_case) calls in a loop cost
    /// O(entries × cases).
    pub fn by_case(&self) -> CaseGroups<'_> {
        let mut groups = CaseGroups::new();
        for e in &self.entries {
            groups.entry(e.case).or_default().push(e);
        }
        groups
    }

    /// All cases mentioned by the trail, sorted.
    pub fn cases(&self) -> BTreeSet<Symbol> {
        self.entries.iter().map(|e| e.case).collect()
    }

    /// The cases in which `object` (or a sub-object of it) was accessed —
    /// §4: "for each case in which the object under investigation was
    /// accessed".
    pub fn cases_touching(&self, object: &policy::object::ObjectId) -> BTreeSet<Symbol> {
        self.entries
            .iter()
            .filter(|e| {
                e.object
                    .as_ref()
                    .map(|o| object.dominates(o) || o.dominates(object))
                    .unwrap_or(false)
            })
            .map(|e| e.case)
            .collect()
    }

    /// Merge another trail into this one (e.g. logs collected from several
    /// applications into "a single database", §3.4).
    pub fn merge(&mut self, other: AuditTrail) {
        for e in other.entries {
            self.push(e);
        }
    }

    /// Whether entries are in chronological order (always true by
    /// construction; used by property tests and the codec).
    pub fn is_chronological(&self) -> bool {
        self.entries.windows(2).all(|w| w[0].time <= w[1].time)
    }
}

impl IntoIterator for AuditTrail {
    type Item = LogEntry;
    type IntoIter = std::vec::IntoIter<LogEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a AuditTrail {
    type Item = &'a LogEntry;
    type IntoIter = std::slice::Iter<'a, LogEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use cows::sym;
    use policy::object::ObjectId;
    use policy::statement::Action;
    use proptest::prelude::*;

    fn entry(task: &str, case: &str, minute: u64) -> LogEntry {
        LogEntry::success(
            "John",
            "GP",
            Action::Read,
            Some(ObjectId::of_subject("Jane", "EPR/Clinical")),
            task,
            case,
            Timestamp(minute),
        )
    }

    #[test]
    fn from_entries_sorts() {
        let t = AuditTrail::from_entries(vec![entry("B", "c", 5), entry("A", "c", 1)]);
        assert_eq!(t.entries()[0].task, sym("A"));
        assert!(t.is_chronological());
    }

    #[test]
    fn push_keeps_order() {
        let mut t = AuditTrail::new();
        t.push(entry("A", "c", 10));
        t.push(entry("C", "c", 30));
        t.push(entry("B", "c", 20));
        let tasks: Vec<_> = t.iter().map(|e| e.task.to_string()).collect();
        assert_eq!(tasks, vec!["A", "B", "C"]);
    }

    #[test]
    fn equal_timestamps_keep_insertion_order() {
        let mut t = AuditTrail::new();
        t.push(entry("first", "c", 10));
        t.push(entry("second", "c", 10));
        let tasks: Vec<_> = t.iter().map(|e| e.task.to_string()).collect();
        assert_eq!(tasks, vec!["first", "second"]);
    }

    #[test]
    fn case_projection() {
        let t = AuditTrail::from_entries(vec![
            entry("A", "HT-1", 1),
            entry("B", "HT-2", 2),
            entry("C", "HT-1", 3),
        ]);
        let ht1 = t.project_case(sym("HT-1"));
        assert_eq!(ht1.len(), 2);
        assert_eq!(t.cases().len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// One grouping pass equals projecting every case on its own, on
        /// trails with interleaved cases and many equal timestamps
        /// (including the empty trail); and building by `push` equals the
        /// stable sort of `from_entries`.
        #[test]
        fn by_case_equals_per_case_projection(
            seeds in prop::collection::vec((0u64..6, 0u64..8), 0..40)
        ) {
            let entries: Vec<LogEntry> = seeds
                .iter()
                .enumerate()
                .map(|(i, &(case, minute))| {
                    entry(&format!("T{i}"), &format!("P-{case}"), minute)
                })
                .collect();
            let mut pushed = AuditTrail::new();
            for e in entries.iter().cloned() {
                pushed.push(e);
            }
            let t = AuditTrail::from_entries(entries);
            prop_assert_eq!(&pushed, &t);
            let groups = t.by_case();
            prop_assert!(groups.keys().copied().eq(t.cases()));
            for (&case, group) in &groups {
                prop_assert_eq!(group, &t.project_case(case));
            }
            prop_assert_eq!(
                groups.values().map(Vec::len).sum::<usize>(),
                t.len()
            );
        }
    }

    #[test]
    fn cases_touching_object() {
        let t = AuditTrail::from_entries(vec![
            entry("A", "HT-1", 1),
            LogEntry::success(
                "Bob",
                "Cardiologist",
                Action::Write,
                Some(ObjectId::plain("ClinicalTrial/Criteria")),
                "T91",
                "CT-1",
                Timestamp(2),
            ),
        ]);
        // Jane's whole EPR dominates the clinical section accessed in HT-1.
        let jane = ObjectId::of_subject("Jane", "EPR");
        assert_eq!(t.cases_touching(&jane), BTreeSet::from([sym("HT-1")]));
    }

    #[test]
    fn merge_interleaves() {
        let mut a = AuditTrail::from_entries(vec![entry("A", "c", 1), entry("C", "c", 30)]);
        let b = AuditTrail::from_entries(vec![entry("B", "c", 10)]);
        a.merge(b);
        let tasks: Vec<_> = a.iter().map(|e| e.task.to_string()).collect();
        assert_eq!(tasks, vec!["A", "B", "C"]);
    }
}
