//! The report text the CLI and the daemon share: `gtpin sim` and a
//! served `sim` session print [`simulate_program`]'s report, and
//! `gtpin select` and a served `explore` session print
//! [`render_selection`]'s lines. Each front end keeps its own error
//! kinds; only the computation and the bytes are shared.

use gpu_device::detailed::{DetailedConfig, DetailedSimulator};
use gpu_device::ExecError;
use gpu_device::{Gpu, GpuConfig, GpuGeneration};
use gtpin_obs::frame::fnv_fold;
use ocl_runtime::runtime::{OclRuntime, RunError, Schedule};
use ocl_runtime::HostProgram;
use subset_select::Exploration;

/// A finished detailed simulation: the 3-line report and the
/// simulated cycle total it summarizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// `<app>: <n> launch(es) …`, the cycle/occupancy line and the
    /// stats digest, each newline-terminated.
    pub text: String,
    /// Simulated cycles over every launch in the report.
    pub cycles: u64,
}

/// Why [`simulate_program`] failed.
#[derive(Debug)]
pub enum SimError {
    /// The functional replay failed.
    Run(RunError),
    /// A launch names a kernel the driver never built.
    UnbuiltKernel,
    /// The detailed simulator faulted on a launch.
    Simulate(ExecError),
    /// A launch's stats did not serialize.
    Json(serde_json::Error),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Run(e) => write!(f, "{e}"),
            SimError::UnbuiltKernel => f.write_str("launch references an unbuilt kernel"),
            SimError::Simulate(e) => write!(f, "{e}"),
            SimError::Json(e) => write!(f, "{e}"),
        }
    }
}

/// Replay `program` functionally on the HD 4000 with `exec_threads`
/// executor workers, then run its first `limit` launches through the
/// epoch-sharded detailed simulator with `sim_workers` shard workers.
/// The report names the scale as `scale_label` and is bit-identical
/// at every thread and worker count.
///
/// # Errors
///
/// The first replay, lookup, simulation or serialization failure.
pub fn simulate_program(
    program: &HostProgram,
    scale_label: &str,
    exec_threads: usize,
    sim_workers: usize,
    limit: usize,
) -> Result<SimReport, SimError> {
    let mut gpu_config = GpuConfig::hd4000();
    gpu_config.exec.threads = exec_threads;
    let mut rt = OclRuntime::new(Gpu::new(gpu_config));
    rt.run(program, Schedule::Replay).map_err(SimError::Run)?;
    let gpu = rt.into_device();

    let topo = GpuGeneration::IvyBridgeHd4000.topology();
    let mut sim =
        DetailedSimulator::new(topo, 1.15e9, DetailedConfig::default()).with_workers(sim_workers);
    let launches = gpu.launches();
    let n = launches.len().min(limit);
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut cycles = 0u64;
    let mut instructions = 0u64;
    let mut busy_cycles = 0u64;
    let mut eu_cycles = 0u64;
    for launch in &launches[..n] {
        let kernel = gpu
            .driver()
            .kernel(launch.kernel.index())
            .ok_or(SimError::UnbuiltKernel)?;
        let r = sim
            .simulate_launch(kernel, &launch.args, launch.global_work_size)
            .map_err(SimError::Simulate)?;
        cycles += r.cycles;
        instructions += r.stats.instructions;
        busy_cycles += r.busy_cycles;
        eu_cycles += r.eu_cycles;
        digest = fnv_fold(digest, &r.cycles.to_le_bytes());
        digest = fnv_fold(digest, &r.busy_cycles.to_le_bytes());
        digest = fnv_fold(digest, &r.eu_cycles.to_le_bytes());
        let stats_json = serde_json::to_string(&r.stats).map_err(SimError::Json)?;
        digest = fnv_fold(digest, stats_json.as_bytes());
    }
    let text = format!(
        "{}: {n} launch(es) detailed-simulated at {scale_label} scale\n\
         cycles {cycles}  instructions {instructions}  occupancy {:.4}\n\
         stats digest: {digest:016x}\n",
        program.name,
        if eu_cycles == 0 {
            0.0
        } else {
            busy_cycles as f64 / eu_cycles as f64
        }
    );
    Ok(SimReport { text, cycles })
}

/// The min-error line, the co-opt line at `threshold_pct` and one
/// `simulate invocations` line per co-opt pick, or `None` when `ex`
/// evaluated no configuration.
pub fn render_selection(ex: &Exploration, threshold_pct: f64) -> Option<String> {
    let best = ex.min_error()?;
    let co = ex.co_optimize(threshold_pct)?;
    let mut out = format!(
        "min-error:      {:24} error {:.3}%  speedup {:.1}x  k={}\n\
         co-opt @ {threshold_pct:>4}%: {:24} error {:.3}%  speedup {:.1}x  k={}\n",
        best.config.to_string(),
        best.error_pct,
        best.speedup(),
        best.selection.k,
        co.config.to_string(),
        co.error_pct,
        co.speedup(),
        co.selection.k,
    );
    for pick in &co.selection.picks {
        let iv = co.intervals[pick.interval];
        out.push_str(&format!(
            "  simulate invocations [{:>6}, {:>6})  ratio {:.2}%\n",
            iv.start,
            iv.end,
            pick.ratio * 100.0
        ));
    }
    Some(out)
}
