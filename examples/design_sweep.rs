//! The paper's end goal: evaluate a future GPU design by simulating
//! only the selected subsets in detail, then extrapolating
//! whole-program performance from the representation ratios
//! (Section V-A steps 6–7).
//!
//! This example:
//! 1. profiles an application natively on the Ivy Bridge model and
//!    selects representative intervals,
//! 2. simulates *only the selected invocations* in the detailed
//!    cycle-level simulator, for several candidate designs
//!    (frequency scaling and the 20-EU Haswell), and
//! 3. compares the subset-extrapolated cycles against simulating the
//!    full program in detail — showing the error/speedup trade the
//!    paper promises.
//!
//! ```sh
//! cargo run --release --example design_sweep
//! ```

use gtpin_suite::device::cache::CacheConfig;
use gtpin_suite::device::checkpoint::{CheckpointLibrary, LaunchDescriptor};
use gtpin_suite::device::detailed::{DetailedConfig, DetailedSimulator};
use gtpin_suite::device::{Gpu, GpuConfig, GpuGeneration, GpuTopology};
use gtpin_suite::par::available_threads;
use gtpin_suite::runtime::runtime::{OclRuntime, Schedule};
use gtpin_suite::selection::{profile_app, Exploration};
use gtpin_suite::simpoint::SimpointConfig;
use gtpin_suite::workloads::{build_program, spec_by_name, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec_by_name("cb-vision-facedetect").expect("known app");
    let program = build_program(&spec, Scale::Test);

    // 1. Native profile + selection on today's hardware.
    println!("profiling {} natively on the HD 4000 model ...", spec.name);
    let profiled = profile_app(&program, GpuConfig::hd4000(), 1)?;
    let data = &profiled.data;
    let approx = gtpin_suite::selection::default_approx_target(data);
    let exploration = Exploration::run_with_threads(
        data,
        approx,
        &SimpointConfig::default(),
        available_threads(),
    );
    let selection = exploration.min_error().expect("configurations evaluated");
    println!(
        "selection: {} — {} representatives, {:.2}% of instructions, native error {:.2}%",
        selection.config,
        selection.selection.k,
        selection.selection_fraction() * 100.0,
        selection.error_pct
    );

    // Replay once per design to collect launch descriptors and
    // compiled binaries for the detailed simulator.
    let mut rt = OclRuntime::new(Gpu::new(GpuConfig::hd4000()));
    rt.run(&program, Schedule::Replay)?;
    let gpu = rt.into_device();

    println!();
    println!(
        "{:34} {:>16} {:>16} {:>8} {:>9}",
        "candidate design", "full-sim cycles", "subset cycles", "error", "sim work"
    );
    let value_design = GpuTopology {
        name: "hypothetical 8-EU value part",
        execution_units: 8,
        subslices: 1,
        threads_per_eu: 7,
        max_frequency_hz: 1.0e9,
        llc_slice_kib: 128,
        dram_bytes_per_second: 8.0e9,
        l3_bytes_per_cycle: 32.0,
    };
    let designs: Vec<(String, GpuTopology, f64)> = vec![
        (
            "Ivy Bridge HD4000 @ 1150MHz".into(),
            GpuGeneration::IvyBridgeHd4000.topology(),
            1.15e9,
        ),
        (
            "Ivy Bridge HD4000 @ 350MHz".into(),
            GpuGeneration::IvyBridgeHd4000.topology(),
            0.35e9,
        ),
        (
            "Haswell HD4600 @ 1250MHz".into(),
            GpuGeneration::HaswellHd4600.topology(),
            1.25e9,
        ),
        ("8-EU value design @ 1000MHz".into(), value_design, 1.0e9),
    ];

    for (name, topology, freq) in designs {
        // Full-program detailed simulation (what the paper wants to avoid).
        let mut full_sim = DetailedSimulator::new(topology, freq, DetailedConfig::default());
        let (full_cycles, full_instrs) = simulate(&gpu, &mut full_sim, 0..data.invocations.len());

        // Subset-only detailed simulation, extrapolated by ratios.
        // Each sample starts from a PinPlay-style checkpoint: warm
        // cache state captured by one cheap functional replay
        // (gpu_device::checkpoint), so samples pay no cold-start
        // penalty and no detailed warm-up cycles.
        let kernels: Vec<_> = (0..program.source.kernels.len())
            .map(|i| gpu.driver().kernel(i).expect("built").clone())
            .collect();
        let descriptors: Vec<LaunchDescriptor> = gpu
            .launches()
            .iter()
            .map(|l| LaunchDescriptor {
                kernel_index: l.kernel.index(),
                args: l.args.clone(),
                global_work_size: l.global_work_size,
            })
            .collect();
        let boundaries: Vec<usize> = selection
            .selection
            .picks
            .iter()
            .map(|p| selection.intervals[p.interval].start)
            .collect();
        let checkpoints = CheckpointLibrary::build(
            &kernels,
            &descriptors,
            CacheConfig::llc_slice(topology.llc_slice_kib),
            &boundaries,
        )?;

        let mut projected_cpi = 0.0;
        let mut subset_instrs = 0u64;
        for pick in &selection.selection.picks {
            let iv = selection.intervals[pick.interval];
            let mut sim = DetailedSimulator::new(topology, freq, DetailedConfig::default());
            if let Some(cache) = checkpoints.cache_before(iv.start) {
                sim.restore_cache(cache.clone());
            }
            let (cycles, instrs) = simulate(&gpu, &mut sim, iv.start..iv.end);
            subset_instrs += instrs;
            projected_cpi += pick.ratio * cycles as f64 / instrs.max(1) as f64;
        }
        let projected_cycles = projected_cpi * full_instrs as f64;
        let error = (projected_cycles - full_cycles as f64).abs() / full_cycles as f64 * 100.0;
        println!(
            "{:34} {:>16} {:>16.0} {:>7.2}% {:>8.1}x",
            name,
            full_cycles,
            projected_cycles,
            error,
            full_instrs as f64 / subset_instrs as f64
        );
    }
    println!();
    println!("'sim work' is the detailed-simulation reduction: the subset predicts");
    println!("each design's full-program cycles from a fraction of the instructions");
    Ok(())
}

/// Detailed-simulate a range of invocations on a candidate design;
/// returns (cycles, instructions).
fn simulate(gpu: &Gpu, sim: &mut DetailedSimulator, range: std::ops::Range<usize>) -> (u64, u64) {
    let mut cycles = 0u64;
    let mut instrs = 0u64;
    for launch in &gpu.launches()[range] {
        let kernel = gpu
            .driver()
            .kernel(launch.kernel.index())
            .expect("kernel was built");
        let r = sim
            .simulate_launch(kernel, &launch.args, launch.global_work_size)
            .expect("simulation runs");
        cycles += r.cycles;
        instrs += r.stats.instructions;
    }
    (cycles, instrs)
}
