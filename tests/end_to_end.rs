//! End-to-end pipeline tests: workload → JIT → GT-Pin
//! instrumentation → native execution → profile → intervals →
//! features → SimPoint → selection → SPI projection.

use gtpin_suite::device::GpuConfig;
use gtpin_suite::par::available_threads;
use gtpin_suite::selection::{build_intervals, profile_app, Exploration, IntervalScheme};
use gtpin_suite::simpoint::SimpointConfig;
use gtpin_suite::workloads::{build_program, spec_by_name, Scale};

fn explore(name: &str) -> (Exploration, subset_select::AppData) {
    let spec = spec_by_name(name).expect("known app");
    let program = build_program(&spec, Scale::Test);
    let profiled = profile_app(&program, GpuConfig::hd4000(), 1).expect("profiles");
    let data = profiled.data;
    let approx = gtpin_suite::selection::default_approx_target(&data);
    (
        Exploration::run_with_threads(
            &data,
            approx,
            &SimpointConfig::default(),
            available_threads(),
        ),
        data,
    )
}

#[test]
fn full_pipeline_produces_accurate_selections() {
    for name in ["cb-physics-ocean-surf", "sonyvegas-proj-r1"] {
        let (ex, data) = explore(name);
        assert_eq!(ex.evaluations.len(), 30, "{name}: all 30 configs evaluated");
        let best = ex.min_error().expect("evaluations exist");
        assert!(
            best.error_pct < 8.0,
            "{name}: best error {:.2}% should be small at test scale",
            best.error_pct
        );
        assert!(
            best.speedup() > 1.5,
            "{name}: speedup {:.1}",
            best.speedup()
        );
        assert!(
            (best.selection.total_ratio() - 1.0).abs() < 1e-9,
            "{name}: representation ratios sum to 1"
        );
        assert!(best.selected_instructions <= data.total_instructions());
    }
}

#[test]
fn every_config_projects_a_positive_spi() {
    let (ex, _) = explore("cb-gaussian-buffer");
    for e in &ex.evaluations {
        assert!(e.projected_spi > 0.0, "{}: projected SPI", e.config);
        assert!(e.measured_spi > 0.0);
        assert!(e.error_pct.is_finite());
        assert!(
            e.selection.k <= 10,
            "{}: max 10 clusters as in the paper",
            e.config
        );
    }
}

#[test]
fn intervals_respect_the_simulator_team_constraints() {
    // The paper's strict requirement: selections are at least one
    // whole kernel invocation and never span a synchronization call.
    let spec = spec_by_name("cb-vision-tv-l1-of").expect("known app");
    let program = build_program(&spec, Scale::Test);
    let profiled = profile_app(&program, GpuConfig::hd4000(), 1).expect("profiles");
    let data = &profiled.data;
    let epochs = data.invocations.last().unwrap().sync_epoch as u64 + 1;
    for scheme in [
        IntervalScheme::SyncBounded,
        IntervalScheme::ApproxInstructions(data.total_instructions() / (2 * epochs)),
        IntervalScheme::SingleKernel,
    ] {
        let intervals = build_intervals(data, scheme);
        let mut cursor = 0;
        for iv in &intervals {
            assert_eq!(iv.start, cursor, "{scheme}: contiguous whole invocations");
            assert!(!iv.is_empty(), "{scheme}: at least one whole invocation");
            let epoch = data.invocations[iv.start].sync_epoch;
            for i in iv.start..iv.end {
                assert_eq!(
                    data.invocations[i].sync_epoch, epoch,
                    "{scheme}: interval spans a synchronization call"
                );
            }
            cursor = iv.end;
        }
        assert_eq!(cursor, data.invocations.len(), "{scheme}: covers the trace");
    }
}

#[test]
fn selecting_every_interval_projects_exactly() {
    // The weighted-mean identity: when every interval is its own
    // cluster, projected SPI equals measured SPI by construction.
    use gtpin_suite::selection::{evaluate_config, FeatureKind, SelectionConfig};
    let spec = spec_by_name("cb-gaussian-image").expect("known app");
    let program = build_program(&spec, Scale::Test);
    let profiled = profile_app(&program, GpuConfig::hd4000(), 1).expect("profiles");
    let sp = SimpointConfig {
        max_k: 10_000,
        bic_fraction: 1.0,
        ..SimpointConfig::default()
    };
    let e = evaluate_config(
        &profiled.data,
        SelectionConfig {
            interval: IntervalScheme::SingleKernel,
            features: FeatureKind::KnArgsGws,
        },
        &sp,
    )
    .expect("evaluates");
    if e.selection.k == e.intervals.len() {
        assert!(
            e.error_pct < 1e-6,
            "full selection must project exactly, got {:.6}%",
            e.error_pct
        );
    }
}
