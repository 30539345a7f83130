//! End-to-end simulation subset selection (Section V): profile an
//! application once natively, explore all 30 interval/feature
//! configurations, and report the selections a simulator team would
//! use in place of the full program.
//!
//! ```sh
//! cargo run --release --example select_subsets [app-name] [error-threshold-%]
//! ```

use gtpin_suite::device::GpuConfig;
use gtpin_suite::par::available_threads;
use gtpin_suite::selection::{profile_app, Exploration};
use gtpin_suite::simpoint::SimpointConfig;
use gtpin_suite::workloads::{build_program, spec_by_name, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "sonyvegas-proj-r3".into());
    let threshold: f64 = std::env::args()
        .nth(2)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(3.0);
    let spec = spec_by_name(&name)
        .ok_or_else(|| format!("unknown app {name}; see workloads::all_specs()"))?;

    let program = build_program(&spec, Scale::Default);
    println!(
        "profiling {} natively (no simulation required) ...",
        spec.name
    );
    let profiled = profile_app(&program, GpuConfig::hd4000(), 1)?;
    let data = &profiled.data;

    let approx = gtpin_suite::selection::default_approx_target(data);
    println!(
        "exploring 30 interval/feature configurations over {} invocations ...",
        data.invocations.len()
    );
    let exploration = Exploration::run_with_threads(
        data,
        approx,
        &SimpointConfig::default(),
        available_threads(),
    );

    let best = exploration.min_error().expect("configurations evaluated");
    println!();
    println!("error-minimizing configuration: {}", best.config);
    println!(
        "  error {:.3}%   speedup {:.1}x   {} intervals → {} selected",
        best.error_pct,
        best.speedup(),
        best.intervals.len(),
        best.selection.k
    );
    for pick in &best.selection.picks {
        let iv = best.intervals[pick.interval];
        println!(
            "  simulate invocations [{:>5}, {:>5})  weight {:.1}%",
            iv.start,
            iv.end,
            pick.ratio * 100.0
        );
    }

    let co = exploration
        .co_optimize(threshold)
        .expect("configurations evaluated");
    println!();
    println!(
        "co-optimized at {threshold}% error threshold: {}",
        co.config
    );
    println!(
        "  error {:.3}%   speedup {:.1}x   simulate only {:.2}% of {} instructions",
        co.error_pct,
        co.speedup(),
        co.selection_fraction() * 100.0,
        data.total_instructions()
    );
    println!();
    println!(
        "projected whole-program SPI {:.3e} vs measured {:.3e}",
        co.projected_spi, co.measured_spi
    );
    Ok(())
}
