//! Chaos harness properties.
//!
//! 1. A **single-site** chaos scenario at any seed honors its site's
//!    degradation contract: the trial's oracles (conservation, heal
//!    accounting, replay identity, resume identity, bounded restarts)
//!    all hold.
//! 2. Trials are deterministic: the same scenario judged twice
//!    yields the identical summary line and digest.
//! 3. The chaos run's own journal gives kill/resume identity: a run
//!    killed after some scenarios and resumed folds the same final
//!    digest as an uninterrupted run.
//! 4. A lossless pinned row matches the fault-free baseline while its
//!    site fires.

use std::path::PathBuf;
use std::sync::Mutex;

use gtpin_chaos::{
    pinned, run_chaos, run_trial, ChaosConfig, OracleKind, Scenario, POOL_LOSSY, POOL_RESUME_SAFE,
};
use gtpin_faults::site;
use proptest::prelude::*;

/// The faults registry is process-global; serialize every trial so
/// concurrently running tests cannot see each other's plans.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gtpin-chaos-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A hand-built single-site scenario: resume-safe sites get the
/// strict resume-identity oracle, lossy sites the replay oracle.
fn single_site(site: &'static str, rate: f64, seed: u64) -> Scenario {
    let oracle = if POOL_RESUME_SAFE.contains(&site) {
        OracleKind::ResumeIdentity
    } else {
        OracleKind::ReplayIdentity
    };
    let rate = if site == site::JOURNAL_CRASH {
        rate.min(0.7)
    } else {
        rate
    };
    Scenario {
        seed,
        sites: vec![(site, rate)],
        threads: 1 + (seed as usize % 4),
        kill_point: 1 + (seed as usize % 5),
        oracle,
        explore: false,
        trace_memory: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Every registered fault site, armed alone, honors its
    /// contract under the chaos oracles.
    #[test]
    fn single_site_scenarios_honor_their_contract(
        index in 0usize..10,
        rate in prop::sample::select(vec![0.4f64, 1.0]),
        seed in 0u64..1000,
    ) {
        let _guard = lock();
        let site = POOL_RESUME_SAFE
            .iter()
            .chain(POOL_LOSSY.iter())
            .copied()
            .nth(index)
            .unwrap();
        let sc = single_site(site, rate, seed);
        let dir = scratch("single");
        let report = run_trial(&sc, 200, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(
            report.passed(),
            "site {site} violated its contract: {:?}",
            report.violations
        );
    }
}

/// Judging the same scenario twice yields identical lines and
/// digests — the property the check.sh pinned-digest gate rests on.
#[test]
fn trials_are_deterministic() {
    let _guard = lock();
    let dir = scratch("det");
    let sc = Scenario::derive(7);
    let first = run_trial(&sc, 200, &dir);
    let second = run_trial(&sc, 200, &dir);
    assert_eq!(first.line(), second.line());
    assert_eq!(first.digest, second.digest);
    assert!(first.passed(), "{:?}", first.violations);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chaos run killed mid-way and resumed from its journal skips the
/// completed scenarios and folds the identical final digest.
#[test]
fn chaos_journal_gives_kill_resume_identity() {
    let _guard = lock();
    let journal = scratch("journal");
    let uninterrupted = ChaosConfig {
        seeds: 2,
        seed_base: 0,
        journal_dir: None,
        resume: false,
        max_restarts: 200,
        scratch: scratch("uninterrupted"),
    };
    let baseline = run_chaos(&uninterrupted).expect("uninterrupted run");

    // "Kill" after the first scenario: run only seed 0 with the
    // journal, then resume the full range from the same journal.
    let partial = ChaosConfig {
        seeds: 1,
        journal_dir: Some(journal.clone()),
        scratch: scratch("partial"),
        ..uninterrupted.clone()
    };
    run_chaos(&partial).expect("partial run");
    let resumed_config = ChaosConfig {
        seeds: 2,
        journal_dir: Some(journal.clone()),
        resume: true,
        scratch: scratch("resumed"),
        ..uninterrupted
    };
    let resumed = run_chaos(&resumed_config).expect("resumed run");

    assert_eq!(resumed.replayed, 1, "seed 0 should replay from the journal");
    assert_eq!(
        resumed.digest, baseline.digest,
        "killed+resumed chaos digest diverged from the uninterrupted run"
    );
    assert_eq!(resumed.render(), baseline.render());
    let _ = std::fs::remove_dir_all(&journal);
}

/// The shard-overflow row arms a lossless recovery: its shards drain
/// early under memory tracing, and the profile, sweep, and serve
/// results still equal a run with the fault registry disabled.
#[test]
fn pinned_shard_overflow_row_matches_the_fault_free_baseline() {
    let _guard = lock();
    let (_, sc) = pinned(42)
        .into_iter()
        .find(|(name, _)| *name == "shard-overflow")
        .expect("the pinned set has a shard-overflow row");
    assert_eq!(sc.oracle, OracleKind::Baseline);
    let dir = scratch("pinned");
    let report = run_trial(&sc, 200, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.passed(), "{:?}", report.violations);
    assert!(
        report.line().contains("oracle baseline"),
        "{}",
        report.line()
    );
    assert!(
        report
            .accounting
            .iter()
            .any(|(key, count)| key == "injected.trace.shard_overflow" && *count > 0),
        "{:?}",
        report.accounting
    );
}
