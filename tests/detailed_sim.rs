//! The detailed simulator against the analytic model, and the
//! paper's core promise: selected subsets predict full detailed
//! simulation at a fraction of the simulated instructions.

use gtpin_suite::device::detailed::{DetailedConfig, DetailedSimulator};
use gtpin_suite::device::{Gpu, GpuConfig, GpuGeneration};
use gtpin_suite::par::available_threads;
use gtpin_suite::runtime::runtime::{OclRuntime, Schedule};
use gtpin_suite::selection::{profile_app, Exploration};
use gtpin_suite::simpoint::SimpointConfig;
use gtpin_suite::workloads::{build_program, spec_by_name, Scale};

fn simulate_range(
    gpu: &Gpu,
    sim: &mut DetailedSimulator,
    range: std::ops::Range<usize>,
) -> (u64, u64) {
    let mut cycles = 0u64;
    let mut instrs = 0u64;
    for launch in &gpu.launches()[range] {
        let kernel = gpu.driver().kernel(launch.kernel.index()).expect("built");
        let r = sim
            .simulate_launch(kernel, &launch.args, launch.global_work_size)
            .expect("simulates");
        cycles += r.cycles;
        instrs += r.stats.instructions;
    }
    (cycles, instrs)
}

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
    let mut full_sim = DetailedSimulator::new(topo, 1.15e9, DetailedConfig::default());
    let (full_cycles, full_instrs) = simulate_range(&gpu, &mut full_sim, 0..data.invocations.len());

    // Each sample starts from a PinPlay-style checkpoint (warm cache
    // captured by one cheap functional replay).
    let kernels: Vec<_> = (0..program.source.kernels.len())
        .map(|i| gpu.driver().kernel(i).expect("built").clone())
        .collect();
    let descriptors: Vec<gpu_device::LaunchDescriptor> = gpu
        .launches()
        .iter()
        .map(|l| gpu_device::LaunchDescriptor {
            kernel_index: l.kernel.index(),
            args: l.args.clone(),
            global_work_size: l.global_work_size,
        })
        .collect();
    let boundaries: Vec<usize> = best
        .selection
        .picks
        .iter()
        .map(|p| best.intervals[p.interval].start)
        .collect();
    let checkpoints = gpu_device::CheckpointLibrary::build(
        &kernels,
        &descriptors,
        gpu_device::CacheConfig::llc_slice(topo.llc_slice_kib),
        &boundaries,
    )
    .expect("checkpoints build");

    let mut projected_cpi = 0.0;
    let mut subset_instrs = 0u64;
    for pick in &best.selection.picks {
        let iv = best.intervals[pick.interval];
        let mut sim = DetailedSimulator::new(topo, 1.15e9, DetailedConfig::default());
        if let Some(cache) = checkpoints.cache_before(iv.start) {
            sim.restore_cache(cache.clone());
        }
        let (cycles, instrs) = simulate_range(&gpu, &mut sim, iv.start..iv.end);
        subset_instrs += instrs;
        projected_cpi += pick.ratio * cycles as f64 / instrs.max(1) as f64;
    }
    let projected = projected_cpi * full_instrs as f64;
    let error = (projected - full_cycles as f64).abs() / full_cycles as f64 * 100.0;
    assert!(
        error < 25.0,
        "subset-projected cycles within 25% of full detailed simulation, got {error:.1}%"
    );
    assert!(
        subset_instrs <= full_instrs,
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
