//! The detailed simulator against the analytic model, and the
//! paper's core promise: selected subsets predict full detailed
//! simulation at a fraction of the simulated instructions.

use gtpin_suite::device::detailed::{DetailedConfig, DetailedSimulator};
use gtpin_suite::device::{Gpu, GpuConfig, GpuGeneration};
use gtpin_suite::par::available_threads;
use gtpin_suite::runtime::runtime::{OclRuntime, Schedule};
use gtpin_suite::selection::{detailed_projection, profile_app, Exploration};
use gtpin_suite::simpoint::SimpointConfig;
use gtpin_suite::workloads::{build_program, spec_by_name, Scale};

#[test]
fn subset_predicts_full_detailed_simulation() {
    let spec = spec_by_name("cb-gaussian-buffer").expect("known app");
    let program = build_program(&spec, Scale::Test);
    let profiled = profile_app(&program, GpuConfig::hd4000(), 1).expect("profiles");
    let data = &profiled.data;
    let approx = gtpin_suite::selection::default_approx_target(data);
    let ex = Exploration::run_with_threads(
        data,
        approx,
        &SimpointConfig::default(),
        available_threads(),
    );
    let best = ex.min_error().expect("evaluations exist");

    // Launch descriptors + binaries for the simulator.
    let mut rt = OclRuntime::new(Gpu::new(GpuConfig::hd4000()));
    rt.run(&program, Schedule::Replay).expect("runs");
    let gpu = rt.into_device();

    let topo = GpuGeneration::IvyBridgeHd4000.topology();
    let projection = detailed_projection(best, &gpu, topo, 1.15e9).expect("simulates");
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
