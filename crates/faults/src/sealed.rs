//! Verify-on-read sealed payloads for self-healing memo caches.
//!
//! A cache that is never re-validated silently serves whatever bit
//! rot (or bug) left in it. A [`Sealed`] entry pairs a canonical
//! byte payload with its fnv64 digest (the same checksum the
//! `GTOBS01`/`GTJRNL01` framing uses, via [`gtpin_obs::frame`]):
//! the owner seals the bytes once at insert and re-verifies them on
//! every read. A mismatch means the entry can no longer be trusted —
//! the caller quarantines it and recomputes from source, which is
//! lossless because recompute is the reference path that produced
//! the entry in the first place ("heal, don't trust").
//!
//! The `cache.corrupt` fault site drives the negative path
//! deterministically: when armed, an occurrence-salted decision
//! flips one payload byte *before* the digest check, so the
//! corruption the verifier catches is real, not simulated. Every
//! heal is accounted through [`note_heal`] (`recovered.cache_heal`
//! in the fault accounting, `cache.heal` in telemetry).

use crate::{enabled, mix64, occurrence, should_inject, site};

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

    /// Verify-on-read. With the `cache.corrupt` site armed, an
    /// occurrence-salted injection first flips one payload byte (so
    /// repeated reads of the same entry get independent, replayable
    /// decisions); then the stored digest is checked against the
    /// payload. Returns `Some(bytes)` when the seal holds, `None`
    /// after a mismatch — the caller must quarantine the entry,
    /// recompute it, and account the heal via [`note_heal`].
    ///
    /// `ident` is the entry's stable identity (e.g. a hash of its
    /// cache key); decisions are pure in `(plan, ident, occurrence)`.
    pub fn read(&mut self, ident: u64) -> Option<&[u8]> {
        if enabled() && !self.payload.is_empty() {
            let occ = occurrence(site::CACHE_CORRUPT, ident);
            if should_inject(
                site::CACHE_CORRUPT,
                ident.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(occ),
            ) {
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

    /// The digest recorded at seal time (for reporting).
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// Account one heal of a corrupted cache entry: `what` names the
/// cache (e.g. `serve.profile`, `selection.interval_table`). Bumps
/// the shared `recovered.cache_heal` fault counter, a per-cache
/// `healed.<what>` counter, and the `cache.heal` telemetry counter.
pub fn note_heal(what: &str) {
    crate::note("recovered.cache_heal", 1);
    crate::note(&format!("healed.{what}"), 1);
    gtpin_obs::counter_add("cache.heal", 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{accounting, disable, install, FaultPlan};
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
