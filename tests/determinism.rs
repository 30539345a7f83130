//! Whole-pipeline determinism: identical inputs produce identical
//! profiles, selections, and reports — the property that makes the
//! methodology reproducible and the experiments in EXPERIMENTS.md
//! regenerable.

use gtpin_suite::device::GpuConfig;
use gtpin_suite::par::available_threads;
use gtpin_suite::selection::{profile_app, Exploration};
use gtpin_suite::simpoint::SimpointConfig;
use gtpin_suite::workloads::{build_program, spec_by_name, Scale};

#[test]
fn profiles_are_deterministic() {
    let spec = spec_by_name("cb-throughput-bitcoin").expect("known app");
    let program = build_program(&spec, Scale::Test);
    let a = profile_app(&program, GpuConfig::hd4000(), 11).expect("profiles");
    let b = profile_app(&program, GpuConfig::hd4000(), 11).expect("profiles");
    assert_eq!(a.data, b.data);
    assert_eq!(a.profile.invocations, b.profile.invocations);
}

#[test]
fn explorations_are_deterministic() {
    let spec = spec_by_name("cb-gaussian-image").expect("known app");
    let program = build_program(&spec, Scale::Test);
    let profiled = profile_app(&program, GpuConfig::hd4000(), 2).expect("profiles");
    let run = || {
        Exploration::run_with_threads(
            &profiled.data,
            50_000,
            &SimpointConfig::default(),
            available_threads(),
        )
        .evaluations
        .iter()
        .map(|e| (e.config.to_string(), e.error_pct.to_bits(), e.selection.k))
        .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn different_capture_seeds_may_change_order_but_not_totals() {
    let spec = spec_by_name("cb-graphics-provence").expect("known app");
    let program = build_program(&spec, Scale::Test);
    let a = profile_app(&program, GpuConfig::hd4000(), 1).expect("profiles");
    let b = profile_app(&program, GpuConfig::hd4000(), 99).expect("profiles");
    assert_eq!(
        a.data.total_instructions(),
        b.data.total_instructions(),
        "work is schedule-invariant"
    );
}

#[test]
fn serde_round_trips_the_key_artifacts() {
    let spec = spec_by_name("cb-histogram-image").expect("known app");
    let program = build_program(&spec, Scale::Test);
    let profiled = profile_app(&program, GpuConfig::hd4000(), 1).expect("profiles");

    let json = serde_json::to_string(&profiled.data).expect("serializes");
    let back: subset_select::AppData = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(profiled.data, back);

    let ex = Exploration::run_with_threads(
        &profiled.data,
        50_000,
        &SimpointConfig::default(),
        available_threads(),
    );
    let best = ex.min_error().expect("evaluations exist");
    let json = serde_json::to_string(best).expect("serializes");
    let back: subset_select::Evaluation = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(best.error_pct.to_bits(), back.error_pct.to_bits());
}
