//! Proptest-style shrinking for failing scenarios.
//!
//! When a trial's oracle fires, the raw scenario may arm three sites
//! at once and kill the pipeline mid-way — too much surface to debug
//! from. The shrinker greedily minimizes the failing `(seed,
//! site-set, kill-point)` triple while re-checking the failure
//! predicate after every candidate edit:
//!
//! 1. drop armed sites one at a time (restarting the sweep whenever
//!    a removal still fails, so interacting pairs reduce fully);
//! 2. pull the kill point back to the earliest request index that
//!    still fails;
//! 3. drop the expensive `explore` request if the failure survives
//!    without it.
//!
//! The predicate is injected as a closure, so production callers pass
//! "re-run the trial and check for violations" while the self-test
//! passes a synthetic predicate with a known minimal form.

use crate::scenario::Scenario;

/// Greedily shrink `failing` to a minimal scenario that still makes
/// `fails` return true. `failing` itself must satisfy the predicate;
/// the result always does.
pub fn shrink_scenario<F>(failing: &Scenario, mut fails: F) -> Scenario
where
    F: FnMut(&Scenario) -> bool,
{
    let mut current = failing.clone();

    // 1. Site-set minimization: retry from the first site after any
    // successful removal, so every order-dependent pair collapses.
    let mut progress = true;
    while progress && current.sites.len() > 1 {
        progress = false;
        for index in 0..current.sites.len() {
            let mut candidate = current.clone();
            candidate.sites.remove(index);
            if fails(&candidate) {
                current = candidate;
                progress = true;
                break;
            }
        }
    }

    // 2. Kill-point minimization: the earliest kill that still fails
    // is the one worth staring at.
    for kill_point in 1..current.kill_point {
        let mut candidate = current.clone();
        candidate.kill_point = kill_point;
        if fails(&candidate) {
            current = candidate;
            break;
        }
    }

    // 3. Drop the explore request when the failure does not need it.
    if current.explore {
        let mut candidate = current.clone();
        candidate.explore = false;
        // A scenario without the explore request has one fewer kill
        // slot; clamp so the candidate stays well-formed.
        candidate.kill_point = candidate.kill_point.min(candidate.request_count() - 1);
        if fails(&candidate) {
            current = candidate;
        }
    }

    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::OracleKind;
    use gtpin_faults::site;

    fn synthetic(sites: &[(&'static str, f64)], kill_point: usize, explore: bool) -> Scenario {
        Scenario {
            seed: 0x5EED,
            sites: sites.to_vec(),
            threads: 4,
            kill_point,
            oracle: OracleKind::ResumeIdentity,
            explore,
            trace_memory: false,
        }
    }

    /// The chaos self-test contract: a synthetic predicate that fails
    /// iff one specific site is armed must shrink to exactly that
    /// single site with the earliest kill point.
    #[test]
    fn shrinks_a_multi_site_failure_to_the_single_guilty_site() {
        let failing = synthetic(
            &[
                (site::WORKER_PANIC, 0.4),
                (site::CACHE_CORRUPT, 1.0),
                (site::SERVE_CONN_DROP, 0.7),
            ],
            5,
            true,
        );
        let mut evaluations = 0usize;
        let shrunk = shrink_scenario(&failing, |sc| {
            evaluations += 1;
            sc.arms(site::CACHE_CORRUPT)
        });
        assert_eq!(
            shrunk.sites,
            vec![(site::CACHE_CORRUPT, 1.0)],
            "expected the guilty site alone, got {shrunk:?}"
        );
        assert_eq!(shrunk.kill_point, 1, "kill point should reduce to earliest");
        assert!(!shrunk.explore, "explore request should be dropped");
        assert!(evaluations > 0);
    }

    /// Interacting failures (two sites required together) keep both
    /// sites and drop only the bystander.
    #[test]
    fn keeps_an_interacting_pair_intact() {
        let failing = synthetic(
            &[
                (site::WORKER_PANIC, 0.4),
                (site::CACHE_CORRUPT, 1.0),
                (site::SERVE_SESSION_CRASH, 0.2),
            ],
            3,
            false,
        );
        let shrunk = shrink_scenario(&failing, |sc| {
            sc.arms(site::WORKER_PANIC) && sc.arms(site::SERVE_SESSION_CRASH)
        });
        assert_eq!(
            shrunk.sites,
            vec![(site::WORKER_PANIC, 0.4), (site::SERVE_SESSION_CRASH, 0.2)]
        );
    }

    /// The shrinker never returns a passing scenario.
    #[test]
    fn result_always_satisfies_the_predicate() {
        for seed in 0..32u64 {
            let sc = Scenario::derive(seed);
            let guilty = sc.sites[0].0;
            let shrunk = shrink_scenario(&sc, |c| c.arms(guilty));
            assert!(shrunk.arms(guilty), "seed {seed} shrunk away the failure");
            assert_eq!(shrunk.sites.len(), 1, "seed {seed}: {shrunk:?}");
        }
    }
}
