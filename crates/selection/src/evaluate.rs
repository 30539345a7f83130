//! Evaluating one (interval scheme, feature kind) configuration:
//! run SimPoint, project whole-program SPI from the selections, and
//! score the projection with Equation 1 of the paper.

use serde::{Deserialize, Serialize};
use simpoint::{select_filtered, SelectError, Selection, SimpointConfig};

use crate::data::AppData;
use crate::features::FeatureKind;
use crate::interval::{Interval, IntervalScheme, SchemeTable};

/// One point of the 30-configuration space (3 interval schemes ×
/// 10 feature kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SelectionConfig {
    /// How the trace is divided.
    pub interval: IntervalScheme,
    /// How intervals are summarized.
    pub features: FeatureKind,
}

impl std::fmt::Display for SelectionConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.interval, self.features)
    }
}

/// The full 30-configuration space, with `approx_target` standing in
/// for the paper's ~100M-instruction medium division (scaled to our
/// workload sizes).
pub fn all_configs(approx_target: u64) -> Vec<SelectionConfig> {
    let schemes = [
        IntervalScheme::SyncBounded,
        IntervalScheme::ApproxInstructions(approx_target),
        IntervalScheme::SingleKernel,
    ];
    let mut out = Vec::with_capacity(30);
    for scheme in schemes {
        for features in FeatureKind::ALL {
            out.push(SelectionConfig {
                interval: scheme,
                features,
            });
        }
    }
    out
}

/// A scored selection for one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The configuration evaluated.
    pub config: SelectionConfig,
    /// The intervals the trace was divided into.
    pub intervals: Vec<Interval>,
    /// SimPoint's picks and ratios.
    pub selection: Selection,
    /// Whole-program measured SPI.
    pub measured_spi: f64,
    /// SPI projected from the selected intervals (Section V-B).
    pub projected_spi: f64,
    /// Equation 1 error, in percent.
    pub error_pct: f64,
    /// Dynamic instructions inside the selected intervals.
    pub selected_instructions: u64,
    /// Dynamic instructions in the whole program.
    pub total_instructions: u64,
}

impl Evaluation {
    /// Fraction of program instructions that must be simulated.
    pub fn selection_fraction(&self) -> f64 {
        if self.total_instructions == 0 {
            return 0.0;
        }
        self.selected_instructions as f64 / self.total_instructions as f64
    }

    /// Simulation speedup from skipping unselected instructions
    /// (the paper's headline metric: total ÷ selected).
    pub fn speedup(&self) -> f64 {
        if self.selected_instructions == 0 {
            return f64::INFINITY;
        }
        self.total_instructions as f64 / self.selected_instructions as f64
    }
}

/// Project whole-program SPI from a selection: Σ ratio × interval
/// SPI (step 7 of Section V-A).
pub fn projected_spi(data: &AppData, intervals: &[Interval], selection: &Selection) -> f64 {
    selection
        .picks
        .iter()
        .map(|p| p.ratio * intervals[p.interval].spi(data))
        .sum()
}

/// Equation 1: `|measured − projected| / measured × 100`.
pub fn error_pct(measured_spi: f64, projected_spi: f64) -> f64 {
    if measured_spi == 0.0 {
        return 0.0;
    }
    (measured_spi - projected_spi).abs() / measured_spi * 100.0
}

/// Evaluate one configuration over one application dataset.
///
/// # Example
///
/// ```no_run
/// use gpu_device::GpuConfig;
/// use simpoint::SimpointConfig;
/// use subset_select::{evaluate_config, profile_app, FeatureKind, IntervalScheme, SelectionConfig};
/// use workloads::{build_program, spec_by_name, Scale};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = spec_by_name("cb-gaussian-image").expect("known app");
/// let program = build_program(&spec, Scale::Test);
/// let profiled = profile_app(&program, GpuConfig::hd4000(), 1)?;
/// let e = evaluate_config(
///     &profiled.data,
///     SelectionConfig { interval: IntervalScheme::SyncBounded, features: FeatureKind::Bb },
///     &SimpointConfig::default(),
/// )?;
/// println!("{}: {:.2}% error at {:.1}x speedup", e.config, e.error_pct, e.speedup());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates [`SelectError`] when the trace yields no usable
/// intervals.
pub fn evaluate_config(
    data: &AppData,
    config: SelectionConfig,
    simpoint_config: &SimpointConfig,
) -> Result<Evaluation, SelectError> {
    evaluate_config_weighted(
        data,
        config,
        simpoint_config,
        crate::features::FeatureWeighting::InstructionWeighted,
    )
}

/// Evaluate one configuration with an explicit feature-weighting
/// policy (the weighting ablation).
///
/// # Errors
///
/// Propagates [`SelectError`] when the trace yields no usable
/// intervals.
pub fn evaluate_config_weighted(
    data: &AppData,
    config: SelectionConfig,
    simpoint_config: &SimpointConfig,
    weighting: crate::features::FeatureWeighting,
) -> Result<Evaluation, SelectError> {
    let table = SchemeTable::build(data, config.interval);
    evaluate_config_with_table(data, config, &table, simpoint_config, weighting)
}

/// Evaluate one configuration against a pre-built [`SchemeTable`],
/// reusing its interval division and per-interval base profiles.
///
/// This is the memoized core `Exploration::run_with_threads` fans out
/// over: the 3 tables are built once and shared by the 10 feature
/// kinds each, so 30 evaluations cost 3 trace divisions instead of
/// 30. Results are bitwise identical to [`evaluate_config_weighted`]
/// because the table accumulates its sums in the same order the
/// direct path does.
///
/// # Panics
///
/// Debug-asserts that `table` was built under `config.interval`.
///
/// # Errors
///
/// Propagates [`SelectError`] when the trace yields no usable
/// intervals.
pub fn evaluate_config_with_table(
    data: &AppData,
    config: SelectionConfig,
    table: &SchemeTable,
    simpoint_config: &SimpointConfig,
    weighting: crate::features::FeatureWeighting,
) -> Result<Evaluation, SelectError> {
    debug_assert_eq!(
        config.interval, table.scheme,
        "table built under a different scheme"
    );
    let mut span = gtpin_obs::span("selection.evaluate");
    if span.active() {
        span.arg_str("config", config.to_string());
        span.arg_u64("intervals", table.intervals.len() as u64);
    }
    let vectors = crate::features::feature_vectors_weighted(
        data,
        &table.intervals,
        config.features,
        weighting,
    );
    // Quarantined intervals (degraded traces) are excluded from
    // clustering and the remaining weights renormalized; healthy runs
    // have an all-false mask and take the bitwise-identical unfiltered
    // path inside `select_filtered`.
    let selection = select_filtered(
        &vectors,
        table.weights(),
        table.quarantine_mask(),
        simpoint_config,
    )?;

    let measured = data.measured_spi();
    let projected: f64 = selection
        .picks
        .iter()
        .map(|p| p.ratio * table.spi(p.interval))
        .sum();
    let selected_instructions: u64 = selection
        .picks
        .iter()
        .map(|p| table.instructions(p.interval))
        .sum();

    if span.active() {
        span.arg_u64("k", selection.k as u64);
        span.arg_f64("error_pct", error_pct(measured, projected));
    }
    Ok(Evaluation {
        config,
        selection,
        measured_spi: measured,
        projected_spi: projected,
        error_pct: error_pct(measured, projected),
        selected_instructions,
        total_instructions: data.total_instructions(),
        intervals: table.intervals.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::test_support::synthetic_app;

    fn spcfg() -> SimpointConfig {
        SimpointConfig::default()
    }

    #[test]
    fn thirty_configurations() {
        let configs = all_configs(100_000);
        assert_eq!(configs.len(), 30);
        let unique: std::collections::HashSet<String> =
            configs.iter().map(|c| c.to_string()).collect();
        assert_eq!(unique.len(), 30);
    }

    #[test]
    fn projection_is_exact_when_every_interval_is_selected() {
        let d = synthetic_app(2, 2); // 4 invocations
        let cfg = SelectionConfig {
            interval: IntervalScheme::SingleKernel,
            features: FeatureKind::KnArgs,
        };
        // Force one cluster per interval.
        let sp = SimpointConfig {
            max_k: 16,
            bic_fraction: 1.0,
            ..spcfg()
        };
        let e = evaluate_config(&d, cfg, &sp).unwrap();
        if e.selection.k == e.intervals.len() {
            assert!(
                e.error_pct < 1e-9,
                "full selection projects exactly: {}",
                e.error_pct
            );
        }
        // Regardless of k, the weighted-mean identity bounds sanity:
        assert!(e.projected_spi > 0.0);
    }

    #[test]
    fn identical_phases_give_tiny_error_with_few_picks() {
        let d = synthetic_app(6, 4);
        let cfg = SelectionConfig {
            interval: IntervalScheme::SyncBounded,
            features: FeatureKind::Bb,
        };
        let e = evaluate_config(&d, cfg, &spcfg()).unwrap();
        // All epochs are the same mix, so one or two clusters suffice
        // and projection is near-exact.
        assert!(e.selection.k <= 3, "k = {}", e.selection.k);
        assert!(e.error_pct < 1.0, "error {}%", e.error_pct);
        assert!(e.speedup() > 1.0);
    }

    #[test]
    fn kernel_features_distinguish_the_two_kernels_at_single_granularity() {
        let d = synthetic_app(3, 6);
        let cfg = SelectionConfig {
            interval: IntervalScheme::SingleKernel,
            features: FeatureKind::Kn,
        };
        let e = evaluate_config(&d, cfg, &spcfg()).unwrap();
        assert!(e.selection.k >= 2, "two kernels → at least two clusters");
        assert!(e.error_pct < 5.0, "error {}%", e.error_pct);
    }

    #[test]
    fn selection_fraction_and_speedup_are_reciprocal() {
        let d = synthetic_app(4, 6);
        let cfg = SelectionConfig {
            interval: IntervalScheme::SingleKernel,
            features: FeatureKind::Bb,
        };
        let e = evaluate_config(&d, cfg, &spcfg()).unwrap();
        assert!((e.selection_fraction() * e.speedup() - 1.0).abs() < 1e-9);
        assert!(e.selected_instructions <= e.total_instructions);
    }

    #[test]
    fn quarantined_intervals_are_skipped_and_ratios_renormalize() {
        let mut d = synthetic_app(4, 4);
        d.invocations[0].quarantined_records = 3;
        d.invocations[5].dropped_records = 1;
        let cfg = SelectionConfig {
            interval: IntervalScheme::SingleKernel,
            features: FeatureKind::Bb,
        };
        let e = evaluate_config(&d, cfg, &spcfg()).unwrap();
        assert!(
            e.selection
                .picks
                .iter()
                .all(|p| p.interval != 0 && p.interval != 5),
            "degraded intervals never picked as representatives"
        );
        assert!(
            (e.selection.total_ratio() - 1.0).abs() < 1e-9,
            "Eq. 1 weights renormalize over healthy intervals"
        );
    }

    #[test]
    fn error_pct_formula() {
        assert_eq!(error_pct(2.0, 2.0), 0.0);
        assert!((error_pct(2.0, 1.0) - 50.0).abs() < 1e-12);
        assert!((error_pct(2.0, 3.0) - 50.0).abs() < 1e-12, "absolute value");
        assert_eq!(error_pct(0.0, 1.0), 0.0, "degenerate measured SPI");
    }
}
