//! The detailed simulator against the analytic model, and the
//! paper's core promise: selected subsets predict full detailed
//! simulation at a fraction of the simulated instructions.

use gtpin_suite::device::detailed::{DetailedConfig, DetailedSimulator};
use gtpin_suite::device::{GpuConfig, GpuGeneration};
use gtpin_suite::par::available_threads;
use gtpin_suite::selection::{
    detailed_projection, profile_app, DetailedProjection, Evaluation, Exploration, PipelineError,
    ProfiledApp,
};
use gtpin_suite::simpoint::SimpointConfig;
use gtpin_suite::workloads::{build_program, spec_by_name, Scale};

/// Profile `app` at test scale and take Figure 6's min-error
/// selection.
fn min_error_selection(app: &str) -> (ProfiledApp, Evaluation) {
    let spec = spec_by_name(app).expect("known app");
    let program = build_program(&spec, Scale::Test);
    let profiled = profile_app(&program, GpuConfig::hd4000(), 1).expect("profiles");
    let approx = gtpin_suite::selection::default_approx_target(&profiled.data);
    let ex = Exploration::run_with_threads(
        &profiled.data,
        approx,
        &SimpointConfig::default(),
        available_threads(),
    );
    let best = ex.min_error().expect("evaluations exist").clone();
    (profiled, best)
}

/// Project `selection` on the HD 4000 at 1150 MHz.
fn project_on_hd4000(
    selection: &Evaluation,
    profiled: &ProfiledApp,
) -> Result<DetailedProjection, PipelineError> {
    let topo = GpuGeneration::IvyBridgeHd4000.topology();
    detailed_projection(selection, profiled, topo, 1.15e9)
}

#[test]
fn subset_predicts_full_detailed_simulation() {
    let (profiled, best) = min_error_selection("cb-gaussian-buffer");
    let projection = project_on_hd4000(&best, &profiled).expect("simulates");
    let error = projection.error_pct;
    assert!(
        error < 25.0,
        "subset-projected cycles within 25% of full detailed simulation, got {error:.1}%"
    );
    assert!(
        projection.subset_instructions <= projection.full_instructions,
        "the subset is never larger than the program"
    );
}

/// An app whose selection covers a small share of its instructions:
/// the picks simulate exactly the launches their intervals name in
/// the profile, so their instructions add up to the profile's.
#[test]
fn picks_simulate_the_launches_their_intervals_name() {
    let (profiled, best) = min_error_selection("cb-vision-facedetect");
    assert!(
        best.selection_fraction() < 0.5,
        "the selection covers {:.1}% of instructions",
        best.selection_fraction() * 100.0
    );
    let picked: u64 = best
        .selection
        .picks
        .iter()
        .map(|p| best.intervals[p.interval].instructions(&profiled.data))
        .sum();
    let projection = project_on_hd4000(&best, &profiled).expect("simulates");
    assert_eq!(projection.subset_instructions, picked);
    assert_eq!(
        projection.full_instructions,
        profiled.data.total_instructions()
    );
    let error = projection.error_pct;
    assert!(error < 25.0, "projection error {error:.2}%");
}

/// A profile that disagrees with the replay is refused at the first
/// launch that differs.
#[test]
fn a_misaligned_profile_is_refused_at_its_first_differing_launch() {
    let (mut profiled, best) = min_error_selection("cb-gaussian-buffer");
    let recorded = profiled.data.invocations[2].instructions;
    profiled.data.invocations[2].instructions += 1;
    match project_on_hd4000(&best, &profiled) {
        Err(PipelineError::LaunchMismatch {
            launch,
            simulated,
            profiled,
        }) => {
            assert_eq!(launch, 2);
            assert_eq!(simulated, recorded);
            assert_eq!(profiled, recorded + 1);
        }
        other => panic!("expected a launch mismatch, got {other:?}"),
    }
}

#[test]
fn detailed_and_analytic_models_agree_on_ordering() {
    // Whatever the absolute numbers, a compute-light kernel must be
    // faster than a compute-heavy one in BOTH models.
    use gen_isa::ExecSize;
    use ocl_runtime::api::ArgValue;
    use ocl_runtime::ir::{IrOp, KernelIr, TripCount};

    let mk = |ops: u16| {
        let mut ir = KernelIr::new("k", 1);
        ir.body = vec![
            IrOp::LoopBegin {
                trip: TripCount::Arg(0),
            },
            IrOp::Compute {
                ops,
                width: ExecSize::S16,
            },
            IrOp::LoopEnd,
        ];
        gpu_device::jit::compile_kernel(&ir)
            .expect("compiles")
            .flatten()
    };
    let light = mk(5);
    let heavy = mk(80);
    let args = [ArgValue::Scalar(20)];
    let topo = GpuGeneration::IvyBridgeHd4000.topology();

    let run = |k: &gen_isa::DecodedKernel| {
        let mut sim = DetailedSimulator::new(topo, 1.15e9, DetailedConfig::default());
        sim.simulate_launch(k, &args, 512)
            .expect("simulates")
            .cycles
    };
    assert!(run(&heavy) > 2 * run(&light), "detailed ordering");

    let analytic = |k: &gen_isa::DecodedKernel| {
        use gpu_device::{
            Cache, CacheConfig, ExecConfig, Executor, TimingConfig, TimingModel, TraceBuffer,
        };
        let mut cache = Cache::new(CacheConfig::default());
        let mut trace = TraceBuffer::new();
        let stats = Executor {
            cache: &mut cache,
            trace: &mut trace,
            config: ExecConfig::default(),
        }
        .execute_launch(k, &args, 512)
        .expect("runs");
        TimingModel::new(
            topo,
            TimingConfig {
                noise: 0.0,
                ..Default::default()
            },
        )
        .launch_seconds_ideal(&stats)
    };
    assert!(
        analytic(&heavy) > 2.0 * analytic(&light),
        "analytic ordering"
    );
}
