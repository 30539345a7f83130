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

use gtpin_suite::device::{GpuConfig, GpuGeneration, GpuTopology};
use gtpin_suite::par::available_threads;
use gtpin_suite::selection::{detailed_projection, profile_app, Exploration};
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
        // Full-program detailed simulation (what the paper wants to
        // avoid) against subset-only simulation extrapolated by ratios,
        // each sample starting from a warm-cache checkpoint.
        let p = detailed_projection(selection, &profiled, topology, freq)?;
        println!(
            "{:34} {:>16} {:>16.0} {:>7.2}% {:>8.1}x",
            name,
            p.full_cycles,
            p.projected_cycles,
            p.error_pct,
            p.full_instructions as f64 / p.subset_instructions as f64
        );
    }
    println!();
    println!("'sim work' is the detailed-simulation reduction: the subset predicts");
    println!("each design's full-program cycles from a fraction of the instructions");
    Ok(())
}
