//! Seeded inputs repeat for a seed, differ across seeds, and keep the
//! work the same, and every seed the checks use profiles cleanly.

use std::collections::BTreeSet;

use pipeline_bench::inputs::{serve_requests, trial, SERVE_WARM_REQUESTS};
use pipeline_bench::stages::{build, gpu_config, profile};
use pipeline_bench::trace::Tracer;
use workloads::{all_specs, Scale};

#[test]
fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
    for seed in [0, 1, 2, 3, u64::MAX] {
        assert_eq!(trial(seed), trial(seed));
        assert_eq!(serve_requests(seed), serve_requests(seed));
    }
    assert_ne!(trial(1), trial(2));
    assert_ne!(trial(0), trial(1));
    assert_ne!(serve_requests(1), serve_requests(2));
}

#[test]
fn seed_zero_is_the_papers_first_trial() {
    let t = trial(0);
    assert_eq!((t.trial_seed, t.heldout_seed), (1, 2));
    assert_eq!(gpu_config(t.trial_seed).trial_seed, 1);
}

#[test]
fn every_serve_key_is_requested_whatever_the_seed() {
    let apps = all_specs().len();
    for seed in [0, 1, 99] {
        let requests = serve_requests(seed);
        assert_eq!(requests.len(), apps * 8 + SERVE_WARM_REQUESTS);
        let keys: BTreeSet<String> = requests.iter().map(|r| r.session_key()).collect();
        assert_eq!(
            keys.len(),
            apps * 8,
            "seed {seed}: every key, so the cold work is fixed"
        );
    }
}

#[test]
fn seeds_zero_to_three_build_and_profile_cleanly() {
    let off = Tracer::off();
    let programs: Vec<_> = all_specs()
        .iter()
        .map(|s| build(s, Scale::Test, &off))
        .collect();
    let mut instructions = Vec::new();
    for seed in 0..=3 {
        let mut total = 0;
        for program in &programs {
            let p = profile(program, trial(seed), &off)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", program.name));
            total += p.data.total_instructions();
        }
        instructions.push(total);
    }
    assert!(
        instructions.windows(2).all(|w| w[0] == w[1]),
        "a trial reorders and retimes launches but never changes the work: {instructions:?}"
    );
}
