//! Verify-on-read sealed payloads for self-healing memo caches.
//!
//! A cache that is never re-validated silently serves whatever bit
//! rot (or bug) left in it. A [`Sealed`] entry pairs a canonical
//! byte payload with its fnv64 digest (the same checksum the
//! `GTOBS01`/`GTJRNL01` framing uses, via [`gtpin_obs::frame`]):
//! the owner seals the bytes once at insert and re-verifies them on
//! every read. A mismatch means the entry can no longer be trusted —
//! the entry is dropped and recomputed from source, which is
//! lossless because recompute is the reference path that produced
//! the entry in the first place ("heal, don't trust").
//!
//! The `cache.corrupt` fault site drives the negative path
//! deterministically: when armed, an occurrence-salted decision
//! flips one payload byte *before* the digest check, so the
//! corruption the verifier catches is real, not simulated.
//!
//! Every sealed cache in the workspace is a [`Memo`], so the lookup →
//! verify → heal → recompute pattern is written once, here.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::{inject_next, mix64, site};

/// A byte payload sealed with its fnv64 digest at insert time.
#[derive(Debug, Clone)]
pub struct Sealed {
    payload: Vec<u8>,
    digest: u64,
}

impl Sealed {
    /// Seal `payload`: record its fnv64 so every later read can
    /// prove the bytes are still the ones that were inserted.
    pub fn new(payload: Vec<u8>) -> Sealed {
        let digest = gtpin_obs::frame::fnv64(&payload);
        Sealed { payload, digest }
    }

    /// Verify-on-read under the entry's stable `ident`. With the
    /// `cache.corrupt` site armed, each read first draws an
    /// [`inject_next`] decision that may flip one payload byte; then
    /// the digest is checked. `None` means the seal broke, and the
    /// entry must be dropped and recomputed, as [`Memo::get`] does.
    pub fn read(&mut self, ident: u64) -> Option<&[u8]> {
        if !self.payload.is_empty() {
            if let Some(occ) = inject_next(site::CACHE_CORRUPT, ident) {
                let pos = (mix64(ident ^ mix64(occ)) as usize) % self.payload.len();
                self.payload[pos] ^= 0xFF;
            }
        }
        if gtpin_obs::frame::fnv64(&self.payload) == self.digest {
            Some(&self.payload)
        } else {
            None
        }
    }
}

/// Account one heal of a corrupted cache entry: `what` names the
/// cache (e.g. `serve.profile`, `selection.interval_table`). Bumps
/// the shared `recovered.cache_heal` fault counter, a per-cache
/// `healed.<what>` counter, and the `cache.heal` telemetry counter.
fn note_heal(what: &str) {
    crate::note("recovered.cache_heal", 1);
    crate::note(&format!("healed.{what}"), 1);
    gtpin_obs::counter_add("cache.heal", 1);
}

/// A single-owner map of `key → (value, sealed canary, ident)`. The
/// chaos digests fold its read schedule: a [`Memo::get`] of a present
/// entry makes exactly one [`Sealed::read`] under the entry's ident,
/// and an insert or a miss makes none. Nothing evicts: every owner
/// bounds its key space instead.
#[derive(Debug)]
pub struct Memo<K, V> {
    kind: &'static str,
    counters: Option<(&'static str, &'static str)>,
    entries: BTreeMap<K, (Arc<V>, Sealed, u64)>,
}

impl<K: Ord, V> Memo<K, V> {
    /// An empty memo whose heals are accounted as `healed.<kind>`.
    /// With `Some((hit, miss))` counters, every [`Self::get`] also
    /// bumps one of the two telemetry counters (a heal is a miss).
    pub fn new(kind: &'static str, counters: Option<(&'static str, &'static str)>) -> Self {
        Memo {
            kind,
            counters,
            entries: BTreeMap::new(),
        }
    }

    /// Verify-on-read: `Some` shares an intact entry's value. A canary
    /// mismatch removes the entry, accounts the heal and returns
    /// `None`, so the caller recomputes from source and inserts again.
    pub fn get(&mut self, key: &K) -> Option<Arc<V>> {
        let read = self
            .entries
            .get_mut(key)
            .map(|(value, seal, ident)| seal.read(*ident).map(|_| Arc::clone(value)));
        let found = match read {
            Some(None) => {
                self.entries.remove(key);
                note_heal(self.kind);
                None
            }
            lookup => lookup.flatten(),
        };
        if let Some((hit, miss)) = self.counters {
            gtpin_obs::counter_add(if found.is_some() { hit } else { miss }, 1);
        }
        found
    }

    /// Seal `canary` and store `value` under `key`, unless a duplicate
    /// compute got there first (the same data): the first writer wins.
    pub fn insert(&mut self, key: K, ident: u64, value: V, canary: Vec<u8>) -> Arc<V> {
        let (stored, ..) = self
            .entries
            .entry(key)
            .or_insert_with(|| (Arc::new(value), Sealed::new(canary), ident));
        Arc::clone(stored)
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memo holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{accounting, disable, install, occurrence, FaultPlan};
    use std::collections::BTreeMap;

    // The registry is process-global; these tests share the lib
    // tests' lock so no two plans interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        crate::tests::LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn intact_seal_reads_back_the_bytes() {
        let _g = lock();
        disable();
        let mut s = Sealed::new(b"interval table payload".to_vec());
        assert_eq!(s.read(7), Some(&b"interval table payload"[..]));
        // Reads are repeatable with faults off.
        assert_eq!(s.read(7), Some(&b"interval table payload"[..]));
    }

    #[test]
    fn corruption_at_rate_one_is_caught_every_read() {
        let _g = lock();
        install(FaultPlan::single(site::CACHE_CORRUPT, 1.0, 42));
        let mut s = Sealed::new(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(s.read(99), None, "flipped byte must fail the seal");
        note_heal("test.cache");
        let acc: BTreeMap<String, u64> = accounting().into_iter().collect();
        assert_eq!(acc["injected.cache.corrupt"], 1);
        assert_eq!(acc["recovered.cache_heal"], 1);
        assert_eq!(acc["healed.test.cache"], 1);
        disable();
    }

    #[test]
    fn corruption_decisions_replay_identically() {
        let _g = lock();
        let run = || -> Vec<bool> {
            install(FaultPlan::single(site::CACHE_CORRUPT, 0.5, 1234));
            (0..64)
                .map(|ident| Sealed::new(vec![0xAB; 16]).read(ident).is_none())
                .collect()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second);
        let corrupted = first.iter().filter(|&&c| c).count();
        assert!(
            corrupted > 8 && corrupted < 56,
            "rate 0.5 corrupted {corrupted}/64"
        );
        disable();
    }

    #[test]
    fn memo_hit_shares_the_value_and_first_writer_wins() {
        let _g = lock();
        disable();
        let mut memo: Memo<&str, u32> = Memo::new("test.memo", None);
        assert!(memo.get(&"a").is_none(), "a miss");
        let first = memo.insert("a", 1, 10, b"ten".to_vec());
        let second = memo.insert("a", 1, 20, b"twenty".to_vec());
        assert_eq!((*first, *second), (10, 10), "the first writer wins");
        let hit = memo.get(&"a");
        assert!(
            hit.is_some_and(|h| Arc::ptr_eq(&h, &first)),
            "an intact entry hits and shares its value, never a clone"
        );
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn memo_corrupted_read_removes_the_entry_and_heals_once() {
        let _g = lock();
        install(FaultPlan::single(site::CACHE_CORRUPT, 1.0, 42));
        let mut memo: Memo<u64, String> = Memo::new("test.memo", None);
        memo.insert(5, 55, "value".to_string(), b"value".to_vec());
        assert!(
            memo.get(&5).is_none(),
            "a flipped canary must not be trusted"
        );
        assert!(memo.is_empty(), "the corrupted entry is removed");
        assert!(memo.get(&5).is_none(), "a miss reads nothing");
        let acc: BTreeMap<String, u64> = accounting().into_iter().collect();
        disable();
        assert_eq!(acc["injected.cache.corrupt"], 1);
        assert_eq!(acc["healed.test.memo"], 1);
        assert_eq!(acc["recovered.cache_heal"], 1);
    }

    #[test]
    fn memo_reads_one_seal_per_get_of_a_present_entry() {
        let _g = lock();
        install(FaultPlan::quiescent(3));
        let ident = 0xABCD;
        let mut memo: Memo<u8, u8> = Memo::new("test.memo", None);
        assert!(memo.get(&1).is_none());
        memo.insert(1, ident, 7, vec![7; 8]);
        memo.insert(1, ident, 8, vec![8; 8]);
        let n = 5;
        for _ in 0..n {
            assert_eq!(memo.get(&1).as_deref(), Some(&7));
            assert!(memo.get(&2).is_none());
        }
        // `occurrence` returns how many reads came before it.
        assert_eq!(occurrence(site::CACHE_CORRUPT, ident), n);
        disable();
    }

    #[test]
    fn reseal_after_recompute_heals_the_entry() {
        let _g = lock();
        install(FaultPlan::single(site::CACHE_CORRUPT, 1.0, 7));
        let mut s = Sealed::new(b"value".to_vec());
        assert!(s.read(1).is_none());
        // The heal path: recompute the value, seal it fresh.
        s = Sealed::new(b"value".to_vec());
        disable();
        assert_eq!(s.read(1), Some(&b"value"[..]));
    }
}
