//! Stable case routing keys.
//!
//! Every component that partitions a trail by case — the sharded live
//! monitor behind `purposectl watch`, the per-tenant ingest path of
//! `purposectl serve`, checkpoint restore — must agree on where a case
//! lands, across runs *and* across processes. They all derive the
//! partition from one function: [`case_key`], FNV-1a over the case name
//! via the same length-prefixed [`StableHasher`] the snapshot formats use
//! (no `DefaultHasher` seeding, so a checkpoint written by one process
//! routes identically in the next).
//!
//! Before this module, the tail reader's consumer and the serve ingest
//! path each re-derived the hash inline; a drift between them would have
//! silently routed a resumed case to the wrong shard. Now there is exactly
//! one derivation to pin with tests.

use codec::StableHasher;

/// The stable routing key of a case name. Identical for the same string
/// in every run, process, and crate that links this function.
pub fn case_key(case: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(case);
    h.finish()
}

/// Reduce a routing key onto `n` partitions (shards, tenants, workers).
/// `n = 0` is treated as one partition so the reduction is total.
pub fn partition_of(key: u64, n: usize) -> usize {
    (key % n.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_stable_across_calls() {
        for case in ["HT-1", "CT-930", "ORD-17", ""] {
            assert_eq!(case_key(case), case_key(case));
        }
    }

    #[test]
    fn key_separates_length_prefixed() {
        // The length prefix keeps concatenation ambiguity out of the key
        // space (same guarantee StableHasher::write_str documents).
        assert_ne!(case_key("HT-1"), case_key("HT-11"));
        assert_ne!(case_key("AB"), case_key("A"));
    }

    #[test]
    fn partition_is_total_and_in_range() {
        for n in [0usize, 1, 2, 3, 8, 1024] {
            for case in ["HT-1", "HT-2", "CT-1"] {
                let p = partition_of(case_key(case), n);
                assert!(p < n.max(1));
            }
        }
    }
}
