//! Exploring the 30-configuration space per application:
//! error-minimizing selection (Figure 6) and error/selection-size
//! co-optimization (Figure 7).
//!
//! The key property the paper exploits (Section V-C): the native
//! profile is collected **once**; evaluating all 30 interval/feature
//! combinations is pure post-processing with no additional profiling
//! or simulation.

use serde::{Deserialize, Serialize};
use simpoint::SimpointConfig;

use crate::data::AppData;
use crate::evaluate::{all_configs, evaluate_config_with_table, Evaluation};
use crate::features::FeatureWeighting;
use crate::interval::{scheme_tables, table_memo};

/// The outcome of evaluating every configuration for one app.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Exploration {
    /// Application name.
    pub app: String,
    /// One evaluation per configuration (30 when all succeed).
    pub evaluations: Vec<Evaluation>,
}

impl Exploration {
    /// Evaluate all 30 configurations across `threads` workers.
    ///
    /// `approx_target` is the medium interval size in instructions
    /// (the paper's ~100M, scaled).
    ///
    /// Configurations that fail (e.g. zero-weight traces) are
    /// skipped; an empty result means the app has no kernel work.
    ///
    /// The trace is divided **once per interval scheme** (3 divisions
    /// for 30 configurations, with per-interval base profiles shared
    /// across the 10 feature kinds). Each of the 30 evaluations is
    /// independent (SimPoint seeds derive from the configuration,
    /// never from shared mutable state) and results are collected in
    /// configuration order, so `run_with_threads(d, t, s, n)` returns
    /// the same bits for every `n ≥ 1`; `n = 1` is a plain serial loop.
    pub fn run_with_threads(
        data: &AppData,
        approx_target: u64,
        simpoint: &SimpointConfig,
        threads: usize,
    ) -> Exploration {
        let mut span = gtpin_obs::span("selection.explore");
        if span.active() {
            span.arg_str("app", data.app.clone());
            span.arg_u64("threads", threads as u64);
        }
        // Divide once per scheme (filling the memo reads no seal),
        // then verify every table once at the serial point, before
        // the read-only fan-out: a corrupted table heals here (rebuilt
        // bitwise identical), so every worker sees proven bytes.
        let configs = all_configs(approx_target);
        let mut memo = table_memo();
        scheme_tables(&mut memo, data, &configs);
        let tables = scheme_tables(&mut memo, data, &configs);

        let evaluations = gtpin_par::parallel_map(&configs, threads, |i, &cfg| {
            evaluate_config_with_table(
                data,
                cfg,
                &tables[i],
                simpoint,
                FeatureWeighting::InstructionWeighted,
            )
            .ok()
        });
        let evaluations: Vec<Evaluation> = evaluations.into_iter().flatten().collect();
        if span.active() {
            span.arg_u64("configs", 30);
            span.arg_u64("evaluations", evaluations.len() as u64);
        }
        Exploration {
            app: data.app.clone(),
            evaluations,
        }
    }

    /// The error-minimizing configuration (Figure 6's policy).
    /// Ties break toward the smaller selection, then toward
    /// block-based features (strictly finer-grained than kernel
    /// features, so preferable at equal cost).
    pub fn min_error(&self) -> Option<&Evaluation> {
        self.evaluations.iter().min_by(|a, b| {
            let key = |e: &Evaluation| {
                (
                    e.error_pct,
                    e.selected_instructions,
                    u8::from(!e.config.features.is_block_based()),
                )
            };
            key(a).partial_cmp(&key(b)).expect("finite errors")
        })
    }

    /// Figure 7's policy: the smallest selection with error below
    /// `threshold_pct`; if none qualifies, fall back to the
    /// error-minimizing configuration.
    pub fn co_optimize(&self, threshold_pct: f64) -> Option<&Evaluation> {
        let qualifying = self
            .evaluations
            .iter()
            .filter(|e| e.error_pct <= threshold_pct)
            .min_by(|a, b| {
                (a.selected_instructions, a.error_pct)
                    .partial_cmp(&(b.selected_instructions, b.error_pct))
                    .expect("finite")
            });
        qualifying.or_else(|| self.min_error())
    }
}

/// Cross-application summary row for one threshold (one point of
/// Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdPoint {
    /// The error threshold applied (percent); `None` encodes the
    /// pure error-minimizing policy (Figure 7's leftmost point).
    pub threshold_pct: Option<f64>,
    /// Mean error across applications (percent).
    pub mean_error_pct: f64,
    /// Mean simulation speedup across applications.
    pub mean_speedup: f64,
}

/// Sweep thresholds across many apps' explorations, producing the
/// Figure 7 curve. `thresholds` of `None` means minimize-error.
pub fn threshold_sweep(
    explorations: &[Exploration],
    thresholds: &[Option<f64>],
) -> Vec<ThresholdPoint> {
    thresholds
        .iter()
        .map(|&t| {
            let mut err_sum = 0.0;
            let mut speedup_sum = 0.0;
            let mut n = 0usize;
            for ex in explorations {
                let pick = match t {
                    Some(th) => ex.co_optimize(th),
                    None => ex.min_error(),
                };
                if let Some(e) = pick {
                    err_sum += e.error_pct;
                    speedup_sum += e.speedup();
                    n += 1;
                }
            }
            let n = n.max(1) as f64;
            ThresholdPoint {
                threshold_pct: t,
                mean_error_pct: err_sum / n,
                mean_speedup: speedup_sum / n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::test_support::synthetic_app;

    fn explored() -> Exploration {
        let d = synthetic_app(6, 8);
        Exploration::run_with_threads(&d, 30_000, &SimpointConfig::default(), 2)
    }

    #[test]
    fn evaluates_all_thirty_configs() {
        let ex = explored();
        assert_eq!(ex.evaluations.len(), 30);
    }

    #[test]
    fn min_error_is_minimal() {
        let ex = explored();
        let best = ex.min_error().unwrap();
        for e in &ex.evaluations {
            assert!(best.error_pct <= e.error_pct + 1e-12);
        }
    }

    #[test]
    fn co_optimize_prefers_smaller_selections_under_threshold() {
        let ex = explored();
        let best = ex.min_error().unwrap();
        let loose = ex.co_optimize(best.error_pct + 50.0).unwrap();
        assert!(
            loose.selected_instructions <= best.selected_instructions,
            "a loose threshold can only shrink the selection"
        );
        assert!(loose.error_pct <= best.error_pct + 50.0);
    }

    #[test]
    fn co_optimize_falls_back_when_nothing_qualifies() {
        let ex = explored();
        let fallback = ex.co_optimize(-1.0).unwrap();
        let best = ex.min_error().unwrap();
        assert_eq!(fallback.error_pct, best.error_pct);
    }

    #[test]
    fn threshold_sweep_speedup_is_monotone() {
        let exs = vec![explored()];
        let thresholds: Vec<Option<f64>> = std::iter::once(None)
            .chain((1..=10).map(|t| Some(t as f64)))
            .collect();
        let points = threshold_sweep(&exs, &thresholds);
        assert_eq!(points.len(), 11);
        for w in points.windows(2).skip(1) {
            assert!(
                w[1].mean_speedup >= w[0].mean_speedup - 1e-9,
                "speedups rise monotonically with threshold: {points:?}"
            );
        }
    }
}
