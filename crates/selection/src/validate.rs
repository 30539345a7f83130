//! Validation of selections across trials, frequencies, and
//! architecture generations — Figure 8 of the paper.
//!
//! One set of selections (intervals + representation ratios) is made
//! from a single recorded trial; replays of the same recording on
//! other trials/machines produce new per-invocation timings, and the
//! old selections must still project the new whole-program SPI —
//! and, through [`detailed_projection`], a detailed-simulated
//! design's whole-program cycles.

use std::ops::Range;

use gpu_device::detailed::{DetailedConfig, DetailedSimulator};
use gpu_device::{
    Cache, CacheConfig, CheckpointLibrary, ExecError, Gpu, GpuTopology, LaunchDescriptor,
};
use serde::{Deserialize, Serialize};

use crate::data::AppData;
use crate::evaluate::{error_pct, projected_spi, Evaluation};

/// The error of applying an existing selection to a new trial's
/// timing data.
///
/// `new_data` must be the same recording replayed (same invocation
/// order and counts, new seconds); the intervals and ratios of
/// `selection` are reused verbatim.
pub fn cross_error_pct(selection: &Evaluation, new_data: &AppData) -> f64 {
    let measured = new_data.measured_spi();
    let projected = projected_spi(new_data, &selection.intervals, &selection.selection);
    error_pct(measured, projected)
}

/// One validation row of Figure 8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationPoint {
    /// What varied ("trial 3", "700MHz", "Haswell HD4600").
    pub label: String,
    /// Error of the original selections on the new execution
    /// (percent).
    pub error_pct: f64,
}

/// Validate a selection against several replayed executions.
///
/// Replays are independent of one another, so they fan out across
/// `threads` workers; points come back in replay order, bitwise
/// identical at every count.
pub fn validate_against_with_threads(
    selection: &Evaluation,
    replays: &[(String, AppData)],
    threads: usize,
) -> Vec<ValidationPoint> {
    gtpin_par::parallel_map(replays, threads, |_, (label, data)| ValidationPoint {
        label: label.clone(),
        error_pct: cross_error_pct(selection, data),
    })
}

/// A selection's Eq.-1 projection on one detailed-simulated design,
/// against the full program simulated in detail. The simulated
/// instruction fraction is `subset_instructions / full_instructions`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailedProjection {
    /// Cycles of the whole program simulated in detail.
    pub full_cycles: u64,
    /// Σ ratio × pick cycles-per-instruction × program instructions.
    pub projected_cycles: f64,
    /// |projected − full| / full, in percent.
    pub error_pct: f64,
    /// Instructions the full run simulated.
    pub full_instructions: u64,
    /// Instructions the selected intervals simulated.
    pub subset_instructions: u64,
}

/// Section V-A, steps 6–7: detail-simulate `selection`'s picks on
/// `topology` at `frequency_hz`, each from a warm-cache checkpoint,
/// extrapolate by their ratios, and score that against every launch
/// of `gpu` (a functional replay of the profiled program).
///
/// # Errors
///
/// Returns [`ExecError`] if a launch fails to execute or simulate.
pub fn detailed_projection(
    selection: &Evaluation,
    gpu: &Gpu,
    topology: GpuTopology,
    frequency_hz: f64,
) -> Result<DetailedProjection, ExecError> {
    let kernels: Vec<_> = (0..gpu.driver().num_kernels())
        .filter_map(|i| gpu.driver().kernel(i).cloned())
        .collect();
    let launches: Vec<LaunchDescriptor> = gpu
        .launches()
        .iter()
        .map(|l| LaunchDescriptor {
            kernel_index: l.kernel.index(),
            args: l.args.clone(),
            global_work_size: l.global_work_size,
        })
        .collect();
    // (cycles, instructions) of `range`, from `cache` or a cold one.
    let simulate = |cache: Option<&Cache>, range: Range<usize>| {
        let mut sim = DetailedSimulator::new(topology, frequency_hz, DetailedConfig::default());
        if let Some(cache) = cache {
            sim.restore_cache(cache.clone());
        }
        launches[range].iter().try_fold((0u64, 0u64), |(c, n), l| {
            let r = sim.simulate_launch(&kernels[l.kernel_index], &l.args, l.global_work_size)?;
            Ok::<_, ExecError>((c + r.cycles, n + r.stats.instructions))
        })
    };

    let (full_cycles, full_instructions) = simulate(None, 0..launches.len())?;
    let picks = &selection.selection.picks;
    let starts: Vec<usize> = picks
        .iter()
        .map(|p| selection.intervals[p.interval].start)
        .collect();
    let cache = CacheConfig::llc_slice(topology.llc_slice_kib);
    let checkpoints = CheckpointLibrary::build(&kernels, &launches, cache, &starts)?;
    let (mut projected_cpi, mut subset_instructions) = (0.0, 0u64);
    for pick in picks {
        let iv = selection.intervals[pick.interval];
        let (cycles, instructions) =
            simulate(checkpoints.cache_before(iv.start), iv.start..iv.end)?;
        subset_instructions += instructions;
        projected_cpi += pick.ratio * cycles as f64 / instructions.max(1) as f64;
    }
    let projected_cycles = projected_cpi * full_instructions as f64;
    Ok(DetailedProjection {
        full_cycles,
        projected_cycles,
        error_pct: (projected_cycles - full_cycles as f64).abs() / full_cycles as f64 * 100.0,
        full_instructions,
        subset_instructions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::test_support::synthetic_app;
    use crate::evaluate::{evaluate_config, SelectionConfig};
    use crate::features::FeatureKind;
    use crate::interval::IntervalScheme;
    use simpoint::SimpointConfig;

    fn base_selection() -> (Evaluation, AppData) {
        let d = synthetic_app(5, 6);
        let e = evaluate_config(
            &d,
            SelectionConfig {
                interval: IntervalScheme::SyncBounded,
                features: FeatureKind::Bb,
            },
            &SimpointConfig::default(),
        )
        .unwrap();
        (e, d)
    }

    #[test]
    fn same_data_reproduces_same_error() {
        let (e, d) = base_selection();
        let err = cross_error_pct(&e, &d);
        assert!((err - e.error_pct).abs() < 1e-9);
    }

    #[test]
    fn uniform_slowdown_cancels_in_relative_error() {
        // A frequency change scaling every invocation equally leaves
        // relative projection error unchanged.
        let (e, d) = base_selection();
        let mut slow = d.clone();
        for inv in &mut slow.invocations {
            inv.seconds *= 3.0;
        }
        let err = cross_error_pct(&e, &slow);
        assert!((err - e.error_pct).abs() < 1e-6, "{err} vs {}", e.error_pct);
    }

    #[test]
    fn selective_perturbation_of_unselected_work_shows_up_as_error() {
        let (e, d) = base_selection();
        let selected: std::collections::HashSet<usize> = e
            .selection
            .picks
            .iter()
            .flat_map(|p| {
                let iv = e.intervals[p.interval];
                iv.start..iv.end
            })
            .collect();
        let mut skewed = d.clone();
        for inv in &mut skewed.invocations {
            if !selected.contains(&(inv.index as usize)) {
                inv.seconds *= 4.0;
            }
        }
        let err = cross_error_pct(&e, &skewed);
        assert!(
            err > e.error_pct + 5.0,
            "skewing only unselected intervals must hurt: {err} vs {}",
            e.error_pct
        );
    }

    #[test]
    fn validate_against_labels_every_replay() {
        let (e, d) = base_selection();
        let replays = vec![
            ("trial 2".to_string(), d.clone()),
            ("trial 3".to_string(), d),
        ];
        let points = validate_against_with_threads(&e, &replays, 2);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].label, "trial 2");
    }
}
