//! Deterministic fault injection for the GT-Pin reproduction.
//!
//! Profiling shares a trace buffer with the workload, JIT builds can
//! fail, kernels can hang, and fan-out workers can die — the
//! characterization must survive all of it and account honestly for
//! what was lost. This crate is the switchboard: a process-wide
//! registry of **named injection points** whose fire/no-fire
//! decisions are a pure function of `(plan seed, site, caller key)`,
//! so a trial replays bit-identically no matter how many worker
//! threads ask, and in what order.
//!
//! Design discipline matches `gtpin-obs`:
//!
//! - **Off by default, zero-cost when off.** With `GTPIN_FAULTS`
//!   unset every instrumented seam costs one relaxed atomic load and
//!   a never-taken branch.
//! - **Deterministic when on.** Decisions never consult wall clocks,
//!   thread ids, or global call order. Each caller supplies a stable
//!   `key` (hardware-thread id, launch index, kernel-name hash, task
//!   index) and the registry hashes `(seed, site, key)` through a
//!   seeded RNG — one draw per decision, no shared stream to race on.
//! - **Recovery is accounted, not silent.** Every injection and every
//!   recovery step bumps a named counter; `summary()` renders the
//!   degradation report the CLI prints.
//!
//! Environment contract (`GTPIN_FAULTS`):
//!
//! - unset / `0` / `false` / `off` / `no` — disabled entirely.
//! - `1` / `true` / `yes` / `on` — *armed but quiescent*: every
//!   instrumented path runs its fault-aware branch, but all rates are
//!   zero so behaviour is bit-identical to a no-faults build. This is
//!   what the CI smoke exercises.
//! - anything else — a comma-separated spec: `seed=N`, `all=RATE`,
//!   or `<site>=RATE` (e.g. `GTPIN_FAULTS=seed=7,jit.build_fail=0.4`).
//!
//! `GTPIN_FAULTS_SEED` overrides the seed for the `1`-style forms.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

pub mod sealed;
pub use sealed::{Memo, Sealed};

/// Environment variable that arms the registry.
pub const FAULTS_ENV: &str = "GTPIN_FAULTS";
/// Environment variable that overrides the seed for `GTPIN_FAULTS=1`.
pub const FAULTS_SEED_ENV: &str = "GTPIN_FAULTS_SEED";
/// Seed used when none is given; arbitrary but fixed forever.
pub const DEFAULT_SEED: u64 = 0xF417;

/// Panic payload used by injected worker panics (`panic_any` with
/// this exact `&'static str`). The process panic hook swallows these
/// so recovered injections don't spray backtraces; every other panic
/// reports normally.
pub const INJECTED_PANIC_MARKER: &str = "gtpin-faults: injected worker panic";

fn quiet_injected_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| *s == INJECTED_PANIC_MARKER)
            {
                return;
            }
            prev(info);
        }));
    });
}

/// Canonical injection-point names. Callers pass these to
/// [`should_inject`]; specs in `GTPIN_FAULTS` refer to them by the
/// same strings.
pub mod site {
    /// Per-hardware-thread trace shard overflows early (recovered by
    /// early drain into the spill area — no records lost).
    pub const SHARD_OVERFLOW: &str = "trace.shard_overflow";
    /// A trace record is corrupted in flight (recovered by checksum
    /// quarantine before the observer sees the stream).
    pub const RECORD_CORRUPT: &str = "trace.record_corrupt";
    /// JIT kernel build fails transiently (recovered by bounded
    /// retry in the driver).
    pub const JIT_FAIL: &str = "jit.build_fail";
    /// A kernel launch hangs past the watchdog (recovered by retry
    /// with deterministic virtual-clock backoff).
    pub const LAUNCH_HANG: &str = "driver.launch_hang";
    /// A fan-out worker task panics (recovered by catch_unwind +
    /// retry-once + serial fallback).
    pub const WORKER_PANIC: &str = "par.worker_panic";
    /// The process dies mid-append to the durable run journal: either
    /// between writing the segment temp file and the atomic rename
    /// (orphan `.tmp` left behind) or after a torn partial write made
    /// it into the renamed segment (recovered by `Journal::recover`
    /// truncating the torn tail and the caller re-appending).
    pub const JOURNAL_CRASH: &str = "journal.crash";
    /// A detailed-simulator shard worker panics mid-epoch (recovered
    /// by abandoning the parallel run and re-simulating the launch
    /// serially from a pristine snapshot — results stay bit-identical
    /// because serial IS the reference schedule).
    pub const SIM_SHARD: &str = "sim.shard";
    /// The client connection of a `gtpin serve` session drops while
    /// the daemon is streaming the response (recovered by abandoning
    /// delivery only: the computed response is already journaled and
    /// cached, the session is accounted, and the daemon keeps
    /// serving its other sessions).
    pub const SERVE_CONN_DROP: &str = "serve.conn_drop";
    /// A `gtpin serve` session handler panics mid-request (recovered
    /// by catch_unwind isolation: the session is demoted to a typed
    /// `error[session]` response and the daemon — and every sibling
    /// session — keeps running).
    pub const SERVE_SESSION_CRASH: &str = "serve.session_crash";
    /// A sealed memo-cache payload is corrupted at rest (recovered by
    /// verify-on-read: the fnv64 digest mismatch quarantines the
    /// entry and the caller recomputes it from source — results stay
    /// bit-identical because recompute IS the reference path).
    pub const CACHE_CORRUPT: &str = "cache.corrupt";

    /// Every named site, for drivers that sweep them all.
    pub const ALL: [&str; 10] = [
        SHARD_OVERFLOW,
        RECORD_CORRUPT,
        JIT_FAIL,
        LAUNCH_HANG,
        WORKER_PANIC,
        JOURNAL_CRASH,
        SIM_SHARD,
        SERVE_CONN_DROP,
        SERVE_SESSION_CRASH,
        CACHE_CORRUPT,
    ];
}

/// A complete, immutable description of one fault trial: the seed and
/// a per-site injection rate. Everything the registry decides is a
/// pure function of this plan plus the caller-supplied key.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Injection probability per site, in `[0, 1]`. Absent = 0.
    pub rates: BTreeMap<String, f64>,
}

impl FaultPlan {
    /// A plan that is armed but never fires: all rates zero.
    pub fn quiescent(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: BTreeMap::new(),
        }
    }

    /// A plan with a single active site.
    pub fn single(site: &str, rate: f64, seed: u64) -> FaultPlan {
        FaultPlan::quiescent(seed).with_rate(site, rate)
    }

    /// A plan firing every known site at `rate`.
    pub fn uniform(rate: f64, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::quiescent(seed);
        for s in site::ALL {
            plan = plan.with_rate(s, rate);
        }
        plan
    }

    /// Builder: set one site's rate.
    pub fn with_rate(mut self, site: &str, rate: f64) -> FaultPlan {
        self.rates.insert(site.to_string(), rate);
        self
    }

    /// The injection rate for `site` (0 when unlisted).
    pub fn rate(&self, site: &str) -> f64 {
        self.rates.get(site).copied().unwrap_or(0.0)
    }

    /// Parse the `GTPIN_FAULTS` value. `Ok(None)` means disabled.
    /// `seed` seeds the `1`-style armed-quiescent forms (the caller
    /// passes `GTPIN_FAULTS_SEED` or [`DEFAULT_SEED`]); a rated spec
    /// takes its seed from its own `seed=N` entry.
    pub fn parse(spec: &str, seed: u64) -> Result<Option<FaultPlan>, String> {
        let trimmed = spec.trim();
        match trimmed.to_ascii_lowercase().as_str() {
            "" | "0" | "false" | "off" | "no" => return Ok(None),
            "1" | "true" | "yes" | "on" => return Ok(Some(FaultPlan::quiescent(seed))),
            _ => {}
        }
        let mut plan = FaultPlan::quiescent(DEFAULT_SEED);
        for part in trimmed.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| format!("fault seed `{value}` is not an integer"))?;
                continue;
            }
            let rate: f64 = value
                .parse()
                .map_err(|_| format!("fault rate `{value}` for `{key}` is not a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} for `{key}` outside [0, 1]"));
            }
            if key == "all" {
                for s in site::ALL {
                    plan = plan.with_rate(s, rate);
                }
            } else if site::ALL.contains(&key) {
                plan = plan.with_rate(key, rate);
            } else {
                return Err(format!(
                    "unknown fault site `{key}` (known: {})",
                    site::ALL.join(", ")
                ));
            }
        }
        Ok(Some(plan))
    }
}

struct State {
    /// The single branch every instrumented seam checks.
    enabled: AtomicBool,
    plan: Mutex<FaultPlan>,
    /// Named event counters: `injected.<site>`, `recovered.<what>`,
    /// plus whatever seams `note()`.
    accounting: Mutex<BTreeMap<String, u64>>,
    /// Per-(site, identity) call counters, for callers that need a
    /// deterministic occurrence number (e.g. retry attempt keys).
    occurrences: Mutex<HashMap<(&'static str, u64), u64>>,
}

fn state() -> &'static State {
    static GLOBAL: OnceLock<State> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        // A malformed seed falls back here; front ends reject it
        // before anything runs (`gtpin_par::RunConfig`).
        let seed = std::env::var(FAULTS_SEED_ENV)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(DEFAULT_SEED);
        let env_plan =
            std::env::var(FAULTS_ENV)
                .ok()
                .and_then(|v| match FaultPlan::parse(&v, seed) {
                    Ok(p) => p,
                    Err(e) => {
                        gtpin_obs::warn!("faults: ignoring invalid {FAULTS_ENV}: {e}");
                        None
                    }
                });
        let enabled = env_plan.is_some();
        if enabled {
            quiet_injected_panics();
        }
        State {
            enabled: AtomicBool::new(enabled),
            plan: Mutex::new(env_plan.unwrap_or_else(|| FaultPlan::quiescent(DEFAULT_SEED))),
            accounting: Mutex::new(BTreeMap::new()),
            occurrences: Mutex::new(HashMap::new()),
        }
    })
}

/// The one branch: is fault injection armed at all? Inlines to a
/// relaxed atomic load; every seam checks this before doing anything
/// fault-related.
#[inline]
pub fn enabled() -> bool {
    state().enabled.load(Ordering::Relaxed)
}

/// Install `plan` programmatically (e.g. from a `gtpin chaos` trial),
/// arming the registry and clearing all accounting so a fresh trial
/// starts from zero.
pub fn install(plan: FaultPlan) {
    quiet_injected_panics();
    let s = state();
    *s.plan.lock().unwrap() = plan;
    s.accounting.lock().unwrap().clear();
    s.occurrences.lock().unwrap().clear();
    s.enabled.store(true, Ordering::SeqCst);
}

/// Disarm the registry (instrumented paths go back to the never-taken
/// branch). Accounting is left readable until the next `install`.
pub fn disable() {
    state().enabled.store(false, Ordering::SeqCst);
}

/// splitmix64-style finalizer: full-avalanche mix of one word.
/// Public because key-derivation call sites (sealed caches, the
/// chaos scenario generator) need the same avalanche the registry
/// uses, and two subtly different mixers would be a trap.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a string, for site names and other identifiers.
pub fn hash_str(s: &str) -> u64 {
    gtpin_obs::frame::fnv64(s.as_bytes())
}

/// Should the fault at `site` fire for this `key`?
///
/// The decision is a pure function of `(plan.seed, site, key)`:
/// thread-safe, order-independent, and replay-identical. Rate 0 never
/// fires (without touching the RNG); rate ≥ 1 always fires. A firing
/// decision bumps the `injected.<site>` counter.
#[inline]
pub fn should_inject(site: &'static str, key: u64) -> bool {
    if !enabled() {
        return false;
    }
    should_inject_slow(site, key)
}

#[cold]
fn should_inject_slow(site: &'static str, key: u64) -> bool {
    let s = state();
    let (seed, rate) = {
        let plan = s.plan.lock().unwrap();
        (plan.seed, plan.rate(site))
    };
    if rate <= 0.0 {
        return false;
    }
    let fire = if rate >= 1.0 {
        true
    } else {
        let mut rng = StdRng::seed_from_u64(mix64(seed ^ mix64(hash_str(site) ^ mix64(key))));
        // 53 uniform bits → u in [0, 1), compared against the rate.
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < rate
    };
    if fire {
        note_name(format!("injected.{site}"), 1);
    }
    fire
}

/// Deterministic per-(site, identity) occurrence counter: returns 0
/// the first time a given `(site, ident)` pair asks, 1 the next, …
/// Callers mix this into their key when the *same* logical operation
/// can be attempted repeatedly (e.g. JIT retries) and each attempt
/// must get an independent decision.
pub fn occurrence(site: &'static str, ident: u64) -> u64 {
    let s = state();
    let mut occ = s.occurrences.lock().unwrap();
    let n = occ.entry((site, ident)).or_insert(0);
    let out = *n;
    *n += 1;
    out
}

/// [`should_inject`] for the next repeat of an operation on `ident`,
/// salted by its [`occurrence`] so every repeat gets an independent,
/// replayable decision. `Some(occurrence)` when the fault fires.
pub fn inject_next(site: &'static str, ident: u64) -> Option<u64> {
    if !enabled() {
        return None;
    }
    let occ = occurrence(site, ident);
    should_inject(
        site,
        ident.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(occ),
    )
    .then_some(occ)
}

/// Bump a named accounting counter (recovery paths use
/// `recovered.<what>`; seams may add their own names).
pub fn note(event: &str, delta: u64) {
    if !enabled() {
        return;
    }
    note_name(event.to_string(), delta);
}

fn note_name(event: String, delta: u64) {
    let s = state();
    *s.accounting.lock().unwrap().entry(event).or_insert(0) += delta;
}

/// Snapshot of all accounting counters, sorted by name.
pub fn accounting() -> Vec<(String, u64)> {
    state()
        .accounting
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Drain the accounting counters, returning the snapshot and leaving
/// the registry at zero (used between chaos trial stages).
pub fn take_accounting() -> Vec<(String, u64)> {
    let s = state();
    let mut acc = s.accounting.lock().unwrap();
    let out = acc.iter().map(|(k, v)| (k.clone(), *v)).collect();
    acc.clear();
    s.occurrences.lock().unwrap().clear();
    out
}

/// Human-readable degradation summary: what fired, what recovered.
pub fn summary() -> String {
    let acc = accounting();
    let mut out = String::new();
    if acc.is_empty() {
        out.push_str("degradation: no faults fired\n");
        return out;
    }
    out.push_str("degradation summary:\n");
    for (name, count) in acc {
        out.push_str(&format!("  {name:40} {count:>8}\n"));
    }
    out
}

/// `Some(summary())` only when the registry is armed — lets callers
/// print the degradation report exactly when fault injection was on.
pub fn summary_if_enabled() -> Option<String> {
    enabled().then(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests that install plans must
    // not interleave, including the `sealed` module's.
    pub(crate) static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_forms() {
        let _g = LOCK.lock().unwrap();
        assert_eq!(FaultPlan::parse("0", DEFAULT_SEED).unwrap(), None);
        assert_eq!(FaultPlan::parse("off", DEFAULT_SEED).unwrap(), None);
        assert_eq!(FaultPlan::parse("", DEFAULT_SEED).unwrap(), None);
        let armed = FaultPlan::parse("1", DEFAULT_SEED).unwrap().unwrap();
        assert!(armed.rates.is_empty());
        assert_eq!(armed.seed, DEFAULT_SEED);
        let spec = FaultPlan::parse("seed=9,jit.build_fail=0.5,all=0.1", DEFAULT_SEED)
            .unwrap()
            .unwrap();
        assert_eq!(spec.seed, 9);
        // `all` came after the specific site, so it overwrote it.
        assert_eq!(spec.rate(site::JIT_FAIL), 0.1);
        assert_eq!(spec.rate(site::WORKER_PANIC), 0.1);
        let spec = FaultPlan::parse("all=0.1,trace.record_corrupt=0.9", DEFAULT_SEED)
            .unwrap()
            .unwrap();
        assert_eq!(spec.rate(site::RECORD_CORRUPT), 0.9);
        assert!(FaultPlan::parse("bogus.site=0.5", DEFAULT_SEED).is_err());
        assert!(FaultPlan::parse("all=1.5", DEFAULT_SEED).is_err());
        assert!(FaultPlan::parse("seed=xyz", DEFAULT_SEED).is_err());
    }

    #[test]
    fn parse_takes_the_quiescent_seed_from_its_caller() {
        // Pure in its arguments: the armed-quiescent forms use the
        // passed seed, a rated spec its own `seed=` entry.
        for spec in ["1", " ON ", "yes"] {
            let plan = FaultPlan::parse(spec, 42).unwrap().unwrap();
            assert_eq!(plan, FaultPlan::quiescent(42), "{spec}");
        }
        let rated = FaultPlan::parse("seed=9,all=0.1", 42).unwrap().unwrap();
        assert_eq!(rated.seed, 9);
        let unseeded = FaultPlan::parse("all=0.1", 42).unwrap().unwrap();
        assert_eq!(unseeded.seed, DEFAULT_SEED);
    }

    #[test]
    fn decisions_are_deterministic_and_rate_bounded() {
        let _g = LOCK.lock().unwrap();
        install(FaultPlan::single(site::JIT_FAIL, 0.5, 1234));
        let first: Vec<bool> = (0..256).map(|k| should_inject(site::JIT_FAIL, k)).collect();
        // Replay with the same plan: identical decisions.
        install(FaultPlan::single(site::JIT_FAIL, 0.5, 1234));
        let second: Vec<bool> = (0..256).map(|k| should_inject(site::JIT_FAIL, k)).collect();
        assert_eq!(first, second);
        let fired = first.iter().filter(|&&f| f).count();
        assert!(fired > 64 && fired < 192, "rate 0.5 fired {fired}/256");
        // A different seed decides differently somewhere.
        install(FaultPlan::single(site::JIT_FAIL, 0.5, 99));
        let third: Vec<bool> = (0..256).map(|k| should_inject(site::JIT_FAIL, k)).collect();
        assert_ne!(first, third);
        disable();
    }

    #[test]
    fn rate_edges() {
        let _g = LOCK.lock().unwrap();
        install(FaultPlan::single(site::LAUNCH_HANG, 1.0, 5));
        assert!((0..64).all(|k| should_inject(site::LAUNCH_HANG, k)));
        // Unlisted site never fires, and neither does rate 0.
        assert!(!(0..64).any(|k| should_inject(site::JIT_FAIL, k)));
        install(FaultPlan::quiescent(5));
        assert!(!(0..64).any(|k| should_inject(site::LAUNCH_HANG, k)));
        disable();
        assert!(!should_inject(site::LAUNCH_HANG, 0));
    }

    #[test]
    fn accounting_tracks_injections_and_notes() {
        let _g = LOCK.lock().unwrap();
        install(FaultPlan::single(site::WORKER_PANIC, 1.0, 7));
        for k in 0..5 {
            should_inject(site::WORKER_PANIC, k);
        }
        note("recovered.worker_retry", 3);
        let acc: BTreeMap<String, u64> = accounting().into_iter().collect();
        assert_eq!(acc["injected.par.worker_panic"], 5);
        assert_eq!(acc["recovered.worker_retry"], 3);
        let text = summary();
        assert!(text.contains("injected.par.worker_panic"));
        let drained = take_accounting();
        assert_eq!(drained.len(), 2);
        assert!(accounting().is_empty());
        disable();
    }

    #[test]
    fn occurrences_count_per_identity() {
        let _g = LOCK.lock().unwrap();
        install(FaultPlan::quiescent(1));
        assert_eq!(occurrence(site::JIT_FAIL, 10), 0);
        assert_eq!(occurrence(site::JIT_FAIL, 10), 1);
        assert_eq!(occurrence(site::JIT_FAIL, 11), 0);
        install(FaultPlan::quiescent(1)); // reinstall clears
        assert_eq!(occurrence(site::JIT_FAIL, 10), 0);
        disable();
    }
}
