//! CoFluent-style record/replay semantics: recordings pin down API
//! order; replays are deterministic; cross-trial validation works
//! on top (Section V-E).

use gtpin_suite::device::{Gpu, GpuConfig};
use gtpin_suite::par::available_threads;
use gtpin_suite::runtime::cofluent::Recording;
use gtpin_suite::runtime::runtime::{OclRuntime, Schedule};
use gtpin_suite::selection::{cross_error_pct, profile_app, replay_timings, Exploration};
use gtpin_suite::simpoint::SimpointConfig;
use gtpin_suite::workloads::{build_program, spec_by_name, Scale};

#[test]
fn replays_of_a_recording_are_bit_identical() {
    let spec = spec_by_name("cb-physics-part-sim-64k").expect("known app");
    let program = build_program(&spec, Scale::Test);
    let mut rt = OclRuntime::new(Gpu::new(GpuConfig::hd4000()));
    let (recording, _) = Recording::capture(&mut rt, &program, 42).expect("captures");

    let run = || {
        let mut rt = OclRuntime::new(Gpu::new(GpuConfig::hd4000()));
        let r = recording.replay(&mut rt).expect("replays");
        r.cofluent
            .invocations
            .iter()
            .map(|i| (i.kernel, i.global_work_size, i.seconds.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same device config → bit-identical timings");
}

#[test]
fn natural_trials_can_reorder_but_replay_is_stable() {
    let spec = spec_by_name("cb-graphics-t-rex").expect("known app");
    let program = build_program(&spec, Scale::Test);

    let resolved = |seed: u64| {
        let mut rt = OclRuntime::new(Gpu::new(GpuConfig::hd4000()));
        rt.run(&program, Schedule::Natural { seed })
            .expect("runs")
            .resolved_calls
    };
    // At least one pair of seeds disagrees on order (the
    // non-determinism CoFluent recordings exist to pin down).
    let base = resolved(0);
    assert!(
        (1..12).any(|s| resolved(s) != base),
        "natural scheduling shows run-to-run order variation"
    );
}

#[test]
fn one_trials_selections_hold_across_trials() {
    let spec = spec_by_name("sonyvegas-proj-r2").expect("known app");
    let program = build_program(&spec, Scale::Test);
    let profiled = profile_app(&program, GpuConfig::hd4000(), 7).expect("profiles");
    let data = &profiled.data;
    let approx = gtpin_suite::selection::default_approx_target(data);
    let ex = Exploration::run_with_threads(
        data,
        approx,
        &SimpointConfig::default(),
        available_threads(),
    );
    let best = ex.min_error().expect("evaluations exist");

    for trial in 2..=5u64 {
        let timing = replay_timings(
            &profiled.recording,
            GpuConfig::hd4000().with_trial_seed(trial),
        )
        .expect("replays");
        let new_data = data.with_timings(&timing).expect("same order");
        let err = cross_error_pct(best, &new_data);
        assert!(
            err < best.error_pct + 3.0,
            "trial {trial}: error {err:.2}% should stay near the original {:.2}%",
            best.error_pct
        );
    }
}

#[test]
fn cross_frequency_validation_stays_accurate() {
    let spec = spec_by_name("cb-physics-ocean-surf").expect("known app");
    let program = build_program(&spec, Scale::Test);
    let profiled = profile_app(&program, GpuConfig::hd4000(), 3).expect("profiles");
    let data = &profiled.data;
    let approx = gtpin_suite::selection::default_approx_target(data);
    let ex = Exploration::run_with_threads(
        data,
        approx,
        &SimpointConfig::default(),
        available_threads(),
    );
    let best = ex.min_error().expect("evaluations exist");

    for freq in [1.0e9, 0.7e9, 0.35e9] {
        let timing = replay_timings(
            &profiled.recording,
            GpuConfig::hd4000()
                .with_trial_seed(2)
                .with_frequency_hz(freq),
        )
        .expect("replays");
        let new_data = data.with_timings(&timing).expect("same order");
        let err = cross_error_pct(best, &new_data);
        assert!(
            err < 8.0,
            "{:.0}MHz: error {err:.2}% should stay mostly below the paper's 3% band",
            freq / 1e6
        );
    }
}
