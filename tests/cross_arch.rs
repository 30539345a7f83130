//! Cross-architecture-generation validation (Figure 8 bottom): Ivy
//! Bridge selections predict Haswell performance; Haswell is the
//! faster part (LuxMark 269 vs 351 in the paper).

use gtpin_suite::device::GpuConfig;
use gtpin_suite::par::available_threads;
use gtpin_suite::selection::{cross_error_pct, profile_app, replay_timings, Exploration};
use gtpin_suite::simpoint::SimpointConfig;
use gtpin_suite::workloads::{build_program, luxmark_score, spec_by_name, Scale};

#[test]
fn luxmark_ordering_matches_the_paper() {
    let ivy = luxmark_score(GpuConfig::hd4000());
    let hsw = luxmark_score(GpuConfig::hd4600());
    assert!(hsw > ivy, "HD4600 {hsw:.0} must outscore HD4000 {ivy:.0}");
    assert!(
        (150.0..450.0).contains(&ivy),
        "scores land near the paper's magnitudes (269/351): {ivy:.0}"
    );
}

#[test]
fn ivy_bridge_selections_predict_haswell() {
    for name in ["cb-throughput-ao", "sonyvegas-proj-r5"] {
        let spec = spec_by_name(name).expect("known app");
        let program = build_program(&spec, Scale::Test);
        let profiled = profile_app(&program, GpuConfig::hd4000(), 5).expect("profiles");
        let data = &profiled.data;
        let approx = gtpin_suite::selection::default_approx_target(data);
        let ex = Exploration::run_with_threads(
            data,
            approx,
            &SimpointConfig::default(),
            available_threads(),
        );
        let best = ex.min_error().expect("evaluations exist");

        let timing = replay_timings(&profiled.recording, GpuConfig::hd4600().with_trial_seed(9))
            .expect("replays on Haswell");
        let haswell = data.with_timings(&timing).expect("same order");
        let err = cross_error_pct(best, &haswell);
        assert!(
            err < 12.0,
            "{name}: Haswell error {err:.2}% (paper's worst case was ~11%)"
        );

        // The Haswell replay really is a different machine: totals move.
        assert!(
            (haswell.total_seconds() - data.total_seconds()).abs() / data.total_seconds() > 1e-4,
            "{name}: Haswell timings differ from Ivy Bridge"
        );
    }
}
