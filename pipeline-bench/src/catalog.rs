//! Every metric the benchmark prints, with its unit and direction.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `catalog` integration test keeps the two in step. The runner prints
//! exactly [`END_TO_END`] (untraced) or [`PER_LAYER`] (traced), in
//! this order, and a workload can set only names [`per_layer`] finds.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: printed by every workload when tracing is
/// off, and bounded — a change may worsen its median by at most
/// `bound` (a share of the parent's median).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
}

/// A per-layer metric: printed by every workload when tracing is on.
/// Unbounded; `moves` names the end-to-end metric and workload it
/// should move when the layer changes.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name (`<layer>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric and workload(s) this metric should move.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer: the crate or module the metric describes.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

use Better::{Higher, Lower};

macro_rules! end_to_end {
    ($name:literal, $unit:literal, $better:ident, $bound:literal) => {
        EndToEnd {
            name: $name,
            unit: $unit,
            better: $better,
            bound: $bound,
        }
    };
}

/// The end-to-end metrics. An "op" is the workload's unit of work:
/// one app profiled and selected (suite-select), one exploration
/// (explore-sweep), one launch simulated (detailed-sim), one request
/// answered (serve-mix). Latency percentiles are over op positions
/// (see [`crate::run`]); `setup_s` is the median of a run's set-ups.
///
/// Every bound is the 0.25 maximum: on a shared 2-vCPU host the
/// interquartile spread of ten runs reached 17% for the timing
/// metrics and 8% for `peak_rss_mb` (`BENCHMARK.md` lists them).
pub const END_TO_END: [EndToEnd; 5] = [
    end_to_end!("setup_s", "s", Lower, 0.25),
    end_to_end!("op_p50_ms", "ms", Lower, 0.25),
    end_to_end!("op_p90_ms", "ms", Lower, 0.25),
    end_to_end!("ops_per_s", "1/s", Higher, 0.25),
    end_to_end!("peak_rss_mb", "MB", Lower, 0.25),
];

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $moves:expr) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
            moves: $moves,
        }
    };
}

/// The per-layer metrics, grouped by layer. Busy shares are the
/// layer's span self time over the traced run's wall time; rates are
/// work per second of that layer's self time; counts are per round
/// and repeat exactly for a given seed.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 46] = [
    layer!("bench.trace_overhead_pct", "%", Lower, "none (cost of the bench-side spans)"),
    layer!("workloads.busy_pct", "%", Lower, "setup_s on every workload except serve-mix"),
    layer!("workloads.builds_per_s", "1/s", Higher, "setup_s on every workload except serve-mix"),
    layer!("runtime.busy_pct", "%", Lower, "ops_per_s, op_p50_ms on suite-select; setup_s on explore-sweep and detailed-sim"),
    layer!("runtime.minstr", "Minstr", Higher, "none (exact work count)"),
    layer!("runtime.minstr_per_s", "Minstr/s", Higher, "ops_per_s on suite-select; setup_s on explore-sweep and detailed-sim"),
    layer!("runtime.invocations", "count", Higher, "none (exact work count)"),
    layer!("core.busy_pct", "%", Lower, "ops_per_s, op_p50_ms on suite-select; setup_s on explore-sweep"),
    layer!("core.minstr_per_s", "Minstr/s", Higher, "ops_per_s on suite-select; setup_s on explore-sweep"),
    layer!("core.host_overhead_x", "x", Lower, "ops_per_s on suite-select"),
    layer!("device.busy_pct", "%", Lower, "ops_per_s on detailed-sim"),
    layer!("device.sim_launches", "count", Higher, "none (exact work count)"),
    layer!("device.sim_mcycles", "Mcyc", Higher, "none (exact simulated time; must not change)"),
    layer!("device.sim_launches_per_s", "1/s", Higher, "ops_per_s on detailed-sim"),
    layer!("device.wide_mcyc_per_s", "Mcyc/s", Higher, "op_p90_ms on detailed-sim (wide launches are the tail)"),
    layer!("device.narrow_mcyc_per_s", "Mcyc/s", Higher, "op_p50_ms on detailed-sim (narrow launches are the median)"),
    layer!("device.sim_ipc", "instr/cyc", Higher, "none (exact simulated statistic; must not change)"),
    layer!("device.sim_occupancy_pct", "%", Higher, "none (exact simulated statistic; must not change)"),
    layer!("device.sim_speedup_2w", "x", Higher, "none (informational: 2 shard workers vs 1)"),
    layer!("selection.busy_pct", "%", Lower, "ops_per_s on suite-select and explore-sweep"),
    layer!("selection.merge_busy_pct", "%", Lower, "ops_per_s on suite-select"),
    layer!("selection.tables_busy_pct", "%", Lower, "ops_per_s on explore-sweep and suite-select"),
    layer!("selection.features_busy_pct", "%", Lower, "ops_per_s on explore-sweep and suite-select"),
    layer!("selection.intervals", "count", Higher, "none (exact work count)"),
    layer!("selection.explores_per_s", "1/s", Higher, "ops_per_s, op_p50_ms on explore-sweep"),
    layer!("selection.mean_error_pct", "%", Lower, "none (exact Eq.-1 error of the min-error picks; must not change)"),
    layer!("selection.geomean_speedup", "x", Higher, "none (exact total/selected instructions; must not change)"),
    layer!("selection.heldout_error_pct", "%", Lower, "none (exact error of the picks on a held-out replay)"),
    layer!("simpoint.busy_pct", "%", Lower, "ops_per_s on explore-sweep and suite-select"),
    layer!("simpoint.select_calls", "count", Higher, "none (exact work count)"),
    layer!("simpoint.selects_per_s", "1/s", Higher, "ops_per_s, op_p90_ms on explore-sweep"),
    layer!("par.explore_speedup", "x", Higher, "ops_per_s on explore-sweep"),
    layer!("serve.cold_requests", "count", Higher, "none (exact: first request of each key)"),
    layer!("serve.warm_requests", "count", Higher, "none (exact: repeated keys)"),
    layer!("serve.cold_per_s", "1/s", Higher, "ops_per_s, op_p90_ms on serve-mix"),
    layer!("serve.warm_per_s", "1/s", Higher, "op_p50_ms on serve-mix"),
    layer!("serve.handle_warm_per_s", "1/s", Higher, "op_p50_ms on serve-mix"),
    layer!("serve.transport_warm_pct", "%", Lower, "op_p50_ms on serve-mix"),
    layer!("serve.explore_memo_per_s", "1/s", Higher, "op_p90_ms on serve-mix"),
    layer!("serve.cold_profile_per_s", "1/s", Higher, "ops_per_s on serve-mix"),
    layer!("serve.cold_explore_per_s", "1/s", Higher, "ops_per_s on serve-mix"),
    layer!("serve.cold_sim_per_s", "1/s", Higher, "ops_per_s on serve-mix"),
    layer!("serve.cold_lint_per_s", "1/s", Higher, "op_p90_ms on serve-mix"),
    layer!("serve.cold_analyze_per_s", "1/s", Higher, "op_p90_ms on serve-mix"),
    layer!("durable.journal_bytes", "count", Lower, "op_p90_ms on serve-mix (fsync'd appends)"),
    layer!("durable.journal_records", "count", Lower, "op_p90_ms on serve-mix"),
];

/// The workloads, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "suite-select",
        "the paper's whole flow over all 25 apps; profiling (runtime, core) dominates, so a profiling gain shows here",
    ),
    (
        "explore-sweep",
        "repeated 30-config explorations of 6 profiled apps; selection, simpoint and par do the work and device does none",
    ),
    (
        "detailed-sim",
        "every launch of 2 wide and 2 narrow apps through the detailed simulator; only device::detailed does work",
    ),
    (
        "serve-mix",
        "one closed-loop client against a journaled daemon; cold keys compute and fsync, warm keys hit the memo",
    ),
];

/// Look up a per-layer metric; panics on a name this file does not
/// define (a bug in the benchmark, caught by every traced run).
pub fn per_layer(name: &str) -> &'static PerLayer {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not in the catalog"))
}
