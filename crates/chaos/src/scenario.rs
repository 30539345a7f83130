//! Seeded scenario generation: everything a chaos trial does is a
//! pure function of one `u64` seed.
//!
//! A scenario bundles a multi-site fault plan (a random subset of
//! the registered `gtpin_faults` sites at randomly chosen rates), a
//! kill/resume schedule for the serve pipeline, a thread count, and
//! the oracle the trial will be judged against. Deriving all of it
//! from the seed is what makes failures reportable as a single
//! number — and what makes [`crate::shrink`] possible: a shrunk
//! scenario is the same seed with fewer sites or an earlier kill.

use gtpin_faults::{mix64, site, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault sites whose recovery is **lossless**: a run that is killed
/// and resumed under any subset of these must come out byte-identical
/// to an uninterrupted run. `journal.crash` qualifies because the
/// trial confines it to the sweep stage, whose resume loop is exactly
/// the recovery path the site exists to exercise.
pub const POOL_RESUME_SAFE: [&str; 5] = [
    site::WORKER_PANIC,
    site::CACHE_CORRUPT,
    site::SERVE_SESSION_CRASH,
    site::SERVE_CONN_DROP,
    site::JOURNAL_CRASH,
];

/// Fault sites that degrade *visibly* (typed errors, quarantined
/// records, serial fallbacks). Replay of the same seed is still
/// deterministic, but a kill/resume schedule under these is not
/// required to match an uninterrupted run, so resume-identity
/// scenarios never draw from this pool.
pub const POOL_LOSSY: [&str; 5] = [
    site::SHARD_OVERFLOW,
    site::RECORD_CORRUPT,
    site::JIT_FAIL,
    site::LAUNCH_HANG,
    site::SIM_SHARD,
];

/// Injection-rate ladder scenarios draw from. Discrete steps keep
/// summary lines short and make shrunk scenarios easy to re-derive
/// by hand.
pub const RATE_LADDER: [f64; 4] = [0.2, 0.4, 0.7, 1.0];

/// Which invariant the trial asserts for this scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Run the whole pipeline twice under identical seeding; digests,
    /// fault accounting, and supervisor trajectory must agree.
    ReplayIdentity,
    /// Run the serve pipeline once uninterrupted and once killed at
    /// the scheduled point and resumed from its journal; the resumed
    /// responses and policy trajectory must be byte-identical.
    ResumeIdentity,
    /// Run the pipeline once under the plan and once with the fault
    /// registry disabled; the result digest (profile outcome, sweep
    /// report, serve responses) must be identical — the recovery is
    /// lossless. Only pinned scenarios use it; [`Scenario::derive`]
    /// never does.
    Baseline,
}

impl OracleKind {
    /// Stable label for summary lines.
    pub fn label(&self) -> &'static str {
        match self {
            OracleKind::ReplayIdentity => "replay",
            OracleKind::ResumeIdentity => "resume",
            OracleKind::Baseline => "baseline",
        }
    }
}

/// One chaos scenario. A derived scenario's every field is a pure
/// function of [`Scenario::seed`]. The two sanctioned exceptions are
/// the hand-built rows of [`pinned`] and shrinking, which edits
/// `sites`, `kill_point`, and `explore` directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The generating seed (also the fault plan's seed).
    pub seed: u64,
    /// Armed fault sites with their injection rates, in pool order.
    pub sites: Vec<(&'static str, f64)>,
    /// Worker threads the trial passes *explicitly* to every stage
    /// (never the caller's `GTPIN_THREADS`), so the trial digest is
    /// independent of the environment it runs in.
    pub threads: usize,
    /// Index into the serve request list before which the daemon is
    /// killed (resume-identity scenarios only; `0 < kill_point <
    /// requests`).
    pub kill_point: usize,
    /// The invariant this scenario is judged against.
    pub oracle: OracleKind,
    /// Include an `explore` request (the 30-configuration sweep) in
    /// the serve pipeline — the most expensive request kind, so only
    /// about a quarter of scenarios pay for it.
    pub explore: bool,
    /// Profile with memory tracing and the kernel timer on, so the
    /// trace-record seams (`trace.shard_overflow` early drains,
    /// `trace.record_corrupt` quarantine) have records to act on.
    /// Derived scenarios leave it off: their profile stage counts
    /// basic blocks only, which appends no trace records.
    pub trace_memory: bool,
}

impl Scenario {
    /// Derive the scenario for `seed`.
    pub fn derive(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0xC4A0_5EED));
        let oracle = if rng.gen_range(0u32..2) == 0 {
            OracleKind::ReplayIdentity
        } else {
            OracleKind::ResumeIdentity
        };
        let pool: Vec<&'static str> = if oracle == OracleKind::ResumeIdentity {
            POOL_RESUME_SAFE.to_vec()
        } else {
            POOL_RESUME_SAFE
                .iter()
                .chain(POOL_LOSSY.iter())
                .copied()
                .collect()
        };
        let count = rng.gen_range(1usize..4).min(pool.len());
        let mut picked: Vec<usize> = Vec::with_capacity(count);
        while picked.len() < count {
            let idx = rng.gen_range(0usize..pool.len());
            if !picked.contains(&idx) {
                picked.push(idx);
            }
        }
        picked.sort_unstable();
        let sites: Vec<(&'static str, f64)> = picked
            .into_iter()
            .map(|idx| {
                let site = pool[idx];
                let mut rate = RATE_LADDER[rng.gen_range(0usize..RATE_LADDER.len())];
                // A certain crash on every journal append can never
                // converge; cap the site so each resume makes
                // progress (the occurrence salt advances per retry).
                if site == site::JOURNAL_CRASH {
                    rate = rate.min(0.7);
                }
                (site, rate)
            })
            .collect();
        let threads = rng.gen_range(1usize..9);
        let explore = rng.gen_range(0u32..4) == 0;
        let requests = request_count(explore);
        let kill_point = rng.gen_range(1usize..requests);
        Scenario {
            seed,
            sites,
            threads,
            kill_point,
            oracle,
            explore,
            trace_memory: false,
        }
    }

    /// The full fault plan this scenario installs.
    pub fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::quiescent(self.seed);
        for (site, rate) in &self.sites {
            plan = plan.with_rate(site, *rate);
        }
        plan
    }

    /// The plan for the serve stage: identical, except that
    /// `journal.crash` is disarmed. The serve layer journals through
    /// `append_with_recovery`, which *degrades* (session not durable)
    /// instead of crashing — sound for a daemon, but it would poison
    /// the resume-identity oracle, so the trial confines that site to
    /// the sweep stage where crash-and-resume is the contract.
    pub fn serve_plan(&self) -> FaultPlan {
        let mut plan = self.plan();
        plan.rates.remove(site::JOURNAL_CRASH);
        plan
    }

    /// True when `site` is armed at a non-zero rate.
    pub fn arms(&self, site: &str) -> bool {
        self.sites.iter().any(|(s, r)| *s == site && *r > 0.0)
    }

    /// True when any site of the lossy pool is armed — the killed
    /// run's profile digests may then legitimately differ from a
    /// fault-free baseline.
    pub fn arms_lossy(&self) -> bool {
        POOL_LOSSY.iter().any(|s| self.arms(s))
    }

    /// Number of requests in the serve pipeline for this scenario.
    pub fn request_count(&self) -> usize {
        request_count(self.explore)
    }

    /// Deterministic one-line description (no volatile fields) —
    /// the unit the chaos digest folds over.
    pub fn describe(&self) -> String {
        let sites: Vec<String> = self
            .sites
            .iter()
            // One decimal for the derived rate ladder; full precision
            // for finer pinned rates.
            .map(|(s, r)| {
                if (r * 10.0).fract() == 0.0 {
                    format!("{s}@{r:.1}")
                } else {
                    format!("{s}@{r}")
                }
            })
            .collect();
        format!(
            "seed {:#06x} oracle {} threads {} kill {} explore {} sites [{}]{}",
            self.seed,
            self.oracle.label(),
            self.threads,
            self.kill_point,
            self.explore,
            sites.join(", "),
            if self.trace_memory {
                " trace-memory"
            } else {
                ""
            }
        )
    }
}

/// The pinned set: one named scenario per fault contract, each
/// seeded with `seed`. Lossless recoveries are judged against the
/// fault-free baseline; recoveries that degrade visibly (quarantined
/// records, typed errors, isolated sessions) against a replay. Every
/// site is armed alone by at least one row; `zero-rate` arms none
/// and `all` arms every site. A new site in `site::ALL` needs a pool
/// in this module and a row here (the tests enforce both).
#[rustfmt::skip]
pub fn pinned(seed: u64) -> Vec<(&'static str, Scenario)> {
    use OracleKind::{Baseline, ReplayIdentity as Replay};
    // Four worker threads, so the executor's and the simulator's
    // shard seams exist; memory tracing, so trace seams have records.
    let row = |name, sites, oracle, explore| {
        let sc = Scenario {
            seed,
            sites,
            threads: 4,
            kill_point: 1,
            oracle,
            explore,
            trace_memory: true,
        };
        (name, sc)
    };
    let one = |site, rate| vec![(site, rate)];
    vec![
        row("zero-rate", Vec::new(), Baseline, false),
        row("shard-overflow", one(site::SHARD_OVERFLOW, 1.0), Baseline, false),
        row("worker-panic", one(site::WORKER_PANIC, 0.5), Baseline, false),
        row("sim-shard", one(site::SIM_SHARD, 1.0), Baseline, false),
        row("serve-conn-drop", one(site::SERVE_CONN_DROP, 0.5), Baseline, false),
        // The explore request routes the profile memo and the
        // per-configuration interval tables through their heals too.
        row("cache-corrupt", one(site::CACHE_CORRUPT, 1.0), Baseline, true),
        row("journal-crash", one(site::JOURNAL_CRASH, 0.3), Baseline, false),
        row("journal-crash-heavy", one(site::JOURNAL_CRASH, 0.7), Baseline, false),
        row("record-corrupt", one(site::RECORD_CORRUPT, 0.05), Replay, false),
        row("jit-fail", one(site::JIT_FAIL, 0.4), Replay, false),
        row("launch-hang", one(site::LAUNCH_HANG, 0.3), Replay, false),
        row("serve-session-crash", one(site::SERVE_SESSION_CRASH, 0.5), Replay, false),
        row("all", site::ALL.map(|site| (site, 0.2)).to_vec(), Replay, false),
    ]
}

/// Serve requests per scenario: two apps, each Profile + Sim + Lint,
/// plus one Explore of the first app when `explore` is set.
fn request_count(explore: bool) -> usize {
    6 + usize::from(explore)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_a_pure_function_of_the_seed() {
        for seed in 0..64u64 {
            let a = Scenario::derive(seed);
            let b = Scenario::derive(seed);
            assert_eq!(a, b, "seed {seed} derived two different scenarios");
            assert_eq!(a.describe(), b.describe());
        }
    }

    #[test]
    fn scenarios_respect_their_pools_and_bounds() {
        for seed in 0..256u64 {
            let sc = Scenario::derive(seed);
            assert!(!sc.sites.is_empty() && sc.sites.len() <= 3, "{sc:?}");
            assert!((1..=8).contains(&sc.threads), "{sc:?}");
            assert!(sc.kill_point >= 1 && sc.kill_point < sc.request_count());
            for (site, rate) in &sc.sites {
                assert!(*rate > 0.0 && *rate <= 1.0);
                if sc.oracle == OracleKind::ResumeIdentity {
                    assert!(
                        POOL_RESUME_SAFE.contains(site),
                        "resume scenario armed lossy site {site}"
                    );
                }
                if *site == site::JOURNAL_CRASH {
                    assert!(*rate <= 0.7, "journal.crash must leave room to converge");
                }
            }
        }
    }

    #[test]
    fn both_oracles_and_every_pool_site_are_reachable() {
        let mut replay = 0usize;
        let mut resume = 0usize;
        let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for seed in 0..512u64 {
            let sc = Scenario::derive(seed);
            match sc.oracle {
                OracleKind::ReplayIdentity => replay += 1,
                OracleKind::ResumeIdentity => resume += 1,
                OracleKind::Baseline => panic!("seed {seed} derived a baseline scenario"),
            }
            for (site, _) in &sc.sites {
                seen.insert(site);
            }
        }
        assert!(replay > 100 && resume > 100, "{replay} vs {resume}");
        for site in POOL_RESUME_SAFE.iter().chain(POOL_LOSSY.iter()) {
            assert!(seen.contains(site), "site {site} never drawn in 512 seeds");
        }
    }

    #[test]
    fn serve_plan_confines_journal_crash_to_the_sweep_stage() {
        let sc = (0..512u64)
            .map(Scenario::derive)
            .find(|sc| sc.arms(site::JOURNAL_CRASH))
            .expect("some seed arms journal.crash");
        assert!(sc.plan().rate(site::JOURNAL_CRASH) > 0.0);
        assert_eq!(sc.serve_plan().rate(site::JOURNAL_CRASH), 0.0);
    }

    /// Adding a site to `site::ALL` must come with a decision about
    /// its recovery (a pool) and a pinned row that arms it alone.
    #[test]
    fn every_site_is_classified_and_pinned() {
        use std::collections::BTreeSet;
        let all: BTreeSet<&str> = site::ALL.into_iter().collect();
        let safe: BTreeSet<&str> = POOL_RESUME_SAFE.into_iter().collect();
        let lossy: BTreeSet<&str> = POOL_LOSSY.into_iter().collect();
        assert!(
            safe.is_disjoint(&lossy),
            "sites in both pools: {:?}",
            safe.intersection(&lossy).collect::<Vec<_>>()
        );
        assert_eq!(
            safe.union(&lossy).copied().collect::<BTreeSet<_>>(),
            all,
            "POOL_RESUME_SAFE and POOL_LOSSY must partition site::ALL"
        );

        let rows = pinned(42);
        for site in site::ALL {
            assert!(
                rows.iter()
                    .any(|(_, sc)| sc.sites.len() == 1 && sc.arms(site)),
                "no pinned row arms {site} alone"
            );
        }
        let zero = rows.iter().filter(|(_, sc)| sc.sites.is_empty()).count();
        let every = rows
            .iter()
            .filter(|(_, sc)| site::ALL.iter().all(|site| sc.arms(site)))
            .count();
        assert_eq!((zero, every), (1, 1), "one zero-site row, one all-site row");

        let names: BTreeSet<&str> = rows.iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), rows.len(), "pinned row names are unique");
        for (name, sc) in &rows {
            assert_eq!(sc.threads, 4, "{name}: shard seams need threads > 1");
            assert_eq!(sc.seed, 42, "{name}");
        }
    }
}
