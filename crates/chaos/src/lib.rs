//! # gtpin-chaos
//!
//! End-to-end chaos harness for the GT-Pin suite, surfaced as
//! `gtpin chaos --seeds N` (seed-derived scenarios) and `gtpin chaos
//! --pinned` (one hand-built scenario per fault contract).
//!
//! Each scenario is derived **purely from one seed**
//! ([`Scenario::derive`]): a multi-site fault plan (a random subset
//! of the registered `gtpin_faults` sites at random rates), a
//! kill/resume schedule across the profile → explore → sim → serve
//! pipeline, and a worker-thread count in `1..=8`. The trial driver
//! ([`run_trial`]) executes the scenario and judges it against the
//! invariant oracle:
//!
//! - **conservation** — every trace record appended is stored,
//!   dropped, or quarantined (the executor's own identity check,
//!   surfaced through fault accounting);
//! - **resume identity** — a run killed at the scheduled point and
//!   resumed from its journal is byte-identical to an uninterrupted
//!   run, including the supervisor's policy trajectory;
//! - **replay identity** — two identically-seeded runs agree on
//!   digests, accounting, and trajectory;
//! - **bounded convergence** — the sweep's injected crash/resume
//!   loop converges within the restart budget.
//!
//! The pinned set ([`scenario::pinned`], run by [`run_pinned`]) adds
//! the **baseline** oracle for lossless recoveries — the faulted run's
//! results equal a run with the fault registry disabled — and fails
//! any row that arms sites when none of them fired.
//!
//! A failing scenario is shrunk ([`shrink_scenario`]) to a minimal
//! `(seed, site-set, kill-point)` triple before it is reported.
//!
//! The chaos run itself honors the same standards it enforces: with
//! `--journal` each completed scenario's summary is durable, and a
//! killed run resumed with `--resume` skips finished scenarios and
//! produces the identical final digest. Nothing volatile is folded
//! into the digest, and every stage receives the scenario's thread
//! count explicitly, so the digest is also independent of the
//! caller's `GTPIN_THREADS`.

pub mod scenario;
pub mod shrink;
pub mod trial;

pub use scenario::{pinned, OracleKind, Scenario, POOL_LOSSY, POOL_RESUME_SAFE, RATE_LADDER};
pub use shrink::shrink_scenario;
pub use trial::{run_trial, TrialReport, DEFAULT_MAX_RESTARTS};

use std::path::PathBuf;

use gtpin_durable::Journal;
use gtpin_obs::frame::fnv_fold;
use serde::{Deserialize, Serialize};

/// Configuration of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of scenarios (seeds `seed_base .. seed_base + seeds`).
    pub seeds: u64,
    /// First seed (`--seed-base`); the pinned set's one seed.
    pub seed_base: u64,
    /// Journal directory for the chaos run's own durability; `None`
    /// runs without it.
    pub journal_dir: Option<PathBuf>,
    /// Recover `journal_dir` and skip completed scenarios.
    pub resume: bool,
    /// Sweep restart budget per scenario; `0` allows no restarts,
    /// which fails any scenario that arms `journal.crash`.
    pub max_restarts: u64,
    /// Scratch directory for per-trial journals.
    pub scratch: PathBuf,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seeds: 5,
            seed_base: 0,
            journal_dir: None,
            resume: false,
            max_restarts: DEFAULT_MAX_RESTARTS,
            scratch: trial::default_scratch(),
        }
    }
}

/// One journaled scenario outcome — everything needed to skip the
/// scenario on resume and still fold the identical digest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioRecord {
    /// The scenario's seed.
    pub seed: u64,
    /// The deterministic summary line.
    pub line: String,
    /// The trial digest.
    pub digest: u64,
    /// Oracle violations (empty = passed).
    pub violations: Vec<String>,
    /// Shrunk minimal description, present only for failures.
    pub shrunk: Option<String>,
}

/// The chaos run's final report.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Scenario outcomes in seed order.
    pub scenarios: Vec<ScenarioRecord>,
    /// Scenarios replayed from the journal instead of re-run.
    pub replayed: usize,
    /// Deterministic digest over every scenario line + digest.
    pub digest: u64,
}

impl ChaosReport {
    /// Count of failed scenarios.
    pub fn failures(&self) -> usize {
        self.scenarios
            .iter()
            .filter(|s| !s.violations.is_empty())
            .count()
    }

    /// Deterministic human rendering — what `gtpin chaos` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for record in &self.scenarios {
            out.push_str(&record.line);
            out.push('\n');
            for violation in &record.violations {
                out.push_str(&format!("  violation: {violation}\n"));
            }
            if let Some(shrunk) = &record.shrunk {
                out.push_str(&format!("  shrunk to: {shrunk}\n"));
            }
        }
        out.push_str(&format!(
            "chaos: {} scenario(s), {} failure(s), digest {:#018x}\n",
            self.scenarios.len(),
            self.failures(),
            self.digest
        ));
        out
    }
}

/// Errors of the chaos harness itself (journal trouble, bad config).
/// Scenario failures are *results*, not errors.
#[derive(Debug)]
pub enum ChaosError {
    /// The chaos journal could not be created, recovered, or
    /// appended to.
    Journal(gtpin_durable::JournalError),
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Journal(e) => write!(f, "chaos journal: {e}"),
        }
    }
}

impl std::error::Error for ChaosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChaosError::Journal(e) => Some(e),
        }
    }
}

impl From<gtpin_durable::JournalError> for ChaosError {
    fn from(e: gtpin_durable::JournalError) -> ChaosError {
        ChaosError::Journal(e)
    }
}

/// Run the chaos harness under `config`.
///
/// # Errors
///
/// Returns [`ChaosError`] only for harness-level trouble (its own
/// journal); scenario failures land in the report.
pub fn run_chaos(config: &ChaosConfig) -> Result<ChaosReport, ChaosError> {
    let mut span = gtpin_obs::span("chaos.run");
    if span.active() {
        span.arg_u64("seeds", config.seeds);
        span.arg_u64("seed_base", config.seed_base);
    }

    // Recover (or create) the chaos run's own journal: completed
    // scenarios replay from their durable summaries, so a killed
    // `gtpin chaos` resumed mid-run folds the identical digest.
    let mut completed: std::collections::BTreeMap<u64, ScenarioRecord> =
        std::collections::BTreeMap::new();
    let mut journal = match &config.journal_dir {
        None => None,
        Some(dir) if config.resume => {
            let (journal, recovery) = Journal::recover(dir)?;
            for payload in &recovery.records {
                if let Ok(record) =
                    serde_json::from_str::<ScenarioRecord>(&String::from_utf8_lossy(payload))
                {
                    completed.insert(record.seed, record);
                }
            }
            Some(journal)
        }
        Some(dir) => Some(Journal::create(dir)?),
    };

    let mut scenarios: Vec<ScenarioRecord> = Vec::with_capacity(config.seeds as usize);
    let mut replayed = 0usize;
    for seed in config.seed_base..config.seed_base.saturating_add(config.seeds) {
        if let Some(record) = completed.get(&seed) {
            gtpin_obs::counter_add("chaos.scenario_replayed", 1);
            scenarios.push(record.clone());
            replayed += 1;
            continue;
        }
        let record = run_one(&Scenario::derive(seed), config, false);
        if let Some(journal) = &mut journal {
            let json = serde_json::to_string(&record).unwrap_or_default();
            journal.append(json.as_bytes())?;
        }
        scenarios.push(record);
    }

    Ok(finish(scenarios, replayed, config))
}

/// Run the pinned set ([`scenario::pinned`]) seeded with
/// `config.seed_base`. Each row is judged by its oracle and also
/// fails when it arms sites but none of them fired, so no row passes
/// vacuously. The set is fixed and short, so it keeps no journal:
/// `seeds`, `journal_dir`, and `resume` are not consulted.
pub fn run_pinned(config: &ChaosConfig) -> ChaosReport {
    let _span = gtpin_obs::span("chaos.pinned");
    let scenarios = pinned(config.seed_base)
        .into_iter()
        .map(|(name, sc)| {
            let mut record = run_one(&sc, config, true);
            record.line = format!("{name}: {}", record.line);
            record
        })
        .collect();
    finish(scenarios, 0, config)
}

/// Fold the scenario records into the report digest and clear the
/// trial scratch directory.
fn finish(scenarios: Vec<ScenarioRecord>, replayed: usize, config: &ChaosConfig) -> ChaosReport {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for record in &scenarios {
        digest = fnv_fold(digest, record.line.as_bytes());
        digest = fnv_fold(digest, &record.digest.to_le_bytes());
    }
    let _ = std::fs::remove_dir_all(&config.scratch);
    ChaosReport {
        scenarios,
        replayed,
        digest,
    }
}

/// Run and (on an oracle failure) shrink one scenario. `pinned`
/// scenarios also fail when they arm sites but none of them fired. A
/// multi-site row need not fire every site: an early typed error can
/// end the pipeline before a later seam. That failure is not shrunk,
/// since dropping sites cannot make a site fire.
fn run_one(sc: &Scenario, config: &ChaosConfig, pinned: bool) -> ScenarioRecord {
    let mut span = gtpin_obs::span("chaos.scenario");
    if span.active() {
        span.arg_u64("seed", sc.seed);
        span.arg_str("oracle", sc.oracle.label().to_string());
        span.arg_u64("sites", sc.sites.len() as u64);
        span.arg_u64("threads", sc.threads as u64);
    }
    gtpin_obs::counter_add("chaos.scenarios", 1);
    let mut report = run_trial(sc, config.max_restarts, &config.scratch);
    let shrunk = (!report.passed()).then(|| {
        // Minimize before reporting: re-run the trial on each
        // candidate and keep edits that still violate an oracle.
        let minimal = shrink_scenario(sc, |candidate| {
            !run_trial(candidate, config.max_restarts, &config.scratch).passed()
        });
        minimal.describe()
    });
    let fired = |site: &str| {
        let key = format!("injected.{site}");
        report.accounting.iter().any(|(k, v)| *k == key && *v > 0)
    };
    if pinned && !sc.sites.is_empty() && !sc.sites.iter().any(|(site, _)| fired(site)) {
        report
            .violations
            .push("vacuous: no armed site fired".to_string());
    }
    if !report.passed() {
        gtpin_obs::counter_add("chaos.failures", 1);
    }
    ScenarioRecord {
        seed: sc.seed,
        line: report.line(),
        digest: report.digest,
        violations: report.violations,
        shrunk,
    }
}

/// Run the built-in shrinker self-test: derive a scenario, force a
/// synthetic single-site failure predicate, and check the shrinker
/// reduces it to exactly that site. Returns the deterministic
/// summary line and whether the contract held.
pub fn self_test() -> (String, bool) {
    // Find a derived scenario arming at least two sites so shrinking
    // has work to do; seed the predicate on its first armed site.
    let sc = (0..512u64)
        .map(Scenario::derive)
        .find(|sc| sc.sites.len() >= 2)
        .expect("some seed arms two or more sites");
    let guilty = sc.sites[0].0;
    let shrunk = shrink_scenario(&sc, |candidate| candidate.arms(guilty));
    let ok = shrunk.sites.len() == 1 && shrunk.arms(guilty) && shrunk.kill_point <= sc.kill_point;
    let line = format!(
        "self-test: {} shrunk to sites [{}@{:.1}] kill {} -> {}",
        sc.describe(),
        shrunk.sites[0].0,
        shrunk.sites[0].1,
        shrunk.kill_point,
        if ok { "ok" } else { "FAIL" }
    );
    (line, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chaos self-test: demonstrates on a synthetic predicate
    /// that the shrinker reduces a seeded multi-site failure to a
    /// single-site minimal form — the contract `gtpin chaos
    /// --self-test` prints.
    #[test]
    fn self_test_shrinks_synthetic_failure_to_single_site() {
        let (line, ok) = self_test();
        assert!(ok, "self-test failed: {line}");
        assert!(
            line.contains("sites [") && line.contains("shrunk"),
            "{line}"
        );
    }

    /// The env knobs are the CLI's business: the library default is
    /// a constant, whatever the environment holds.
    #[test]
    fn default_config_is_independent_of_the_environment() {
        let config = ChaosConfig::default();
        assert_eq!(config.seeds, 5);
        assert_eq!(config.seed_base, 0);
        assert_eq!(config.max_restarts, DEFAULT_MAX_RESTARTS);
    }
}
