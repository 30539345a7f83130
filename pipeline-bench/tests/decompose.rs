//! The traced, decomposed path computes exactly what the one-call
//! library path computes, so per-layer numbers describe the same work
//! the end-to-end numbers time.

use pipeline_bench::inputs::{named_specs, trial};
use pipeline_bench::run::Options;
use pipeline_bench::run_workload;
use pipeline_bench::stages::{build, explore, explore_decomposed, profile, profile_decomposed};
use pipeline_bench::trace::Tracer;
use workloads::Scale;

const APPS: [&str; 2] = ["cb-gaussian-image", "cb-histogram-image"];

#[test]
fn decomposed_profile_and_explore_equal_the_one_call_path() {
    let (off, on) = (Tracer::off(), Tracer::on());
    for seed in [0, 7] {
        for spec in named_specs(&APPS) {
            let program = build(&spec, Scale::Test, &off);
            let whole = profile(&program, trial(seed), &off).expect("profiles");
            let parts = profile_decomposed(&program, trial(seed), &on).expect("profiles");
            assert_eq!(whole.data, parts.data, "{} seed {seed}: AppData", spec.name);

            let whole = explore(&whole.data, 1, &off);
            let parts = explore_decomposed(&parts.data, &on);
            assert_eq!(whole.evaluations.len(), 30);
            assert_eq!(
                whole.evaluations, parts.evaluations,
                "{} seed {seed}: evaluations",
                spec.name
            );
            assert_eq!(
                whole.min_error().map(|e| e.config),
                parts.min_error().map(|e| e.config)
            );
        }
    }
    let fold = on.fold();
    for span in [
        "runtime.capture",
        "core.replay",
        "selection.merge",
        "selection.tables",
        "selection.features",
        "simpoint.select",
    ] {
        assert!(fold.stat(span).count > 0, "{span} recorded");
    }
}

/// A traced run alternates untraced and traced rounds and fails its
/// own checks when their digests differ; it also verifies the GTOBS01
/// journal it writes.
#[test]
fn traced_detailed_sim_matches_untraced() {
    let opts = Options {
        seed: 3,
        seconds: 0,
        trace: true,
    };
    let traced = run_workload("detailed-sim", &opts).expect("runs");
    assert!(traced.correct, "{:?}", traced.problems);
    assert_eq!(
        traced.artifacts.len(),
        2,
        "journal and Chrome trace written"
    );
    let untraced = run_workload(
        "detailed-sim",
        &Options {
            trace: false,
            ..opts
        },
    )
    .expect("runs");
    assert!(untraced.correct, "{:?}", untraced.problems);
    assert_eq!(traced.digest, untraced.digest);
}
