//! Static pre-screening for the exploration sweep.
//!
//! When [`SweepOptions::prescreen`] is enabled (`gtpin explore` sets
//! it from `GTPIN_PRESCREEN`), the sweep prices every app *before* any
//! simulation with the structural static cycle estimator
//! ([`gtpin_analyze::StaticCost`]): each kernel is compiled and
//! analyzed once, yielding a static seconds-per-instruction, and an
//! app's estimated runtime is the sum over its invocations of
//! dynamic instructions × the invoked kernel's static SPI.
//!
//! The estimates **never** change what the sweep simulates or
//! selects — final selections are bit-identical to an unscreened
//! run. They are recorded next to the simulated (profiled) runtimes
//! as a [`PrescreenReport`]: per-app estimate-vs-simulated error and
//! the Spearman rank correlation between the static ranking and the
//! simulated ranking across apps. A correlation near 1.0 means the
//! static model orders apps by cost the same way the simulator does,
//! so it can safely pre-screen which configurations deserve
//! simulation time.
//!
//! Pre-screening is a pure function of the journaled profile data
//! plus the (deterministic) static analysis, so it is *not*
//! journaled itself: a resumed sweep may toggle it freely and an
//! unscreened resume of a screened journal (or vice versa) still
//! reproduces the identical selection report.
//!
//! [`SweepOptions::prescreen`]: crate::sweep::SweepOptions::prescreen

use std::collections::BTreeMap;

use gpu_device::{jit, GpuConfig};
use ocl_runtime::host::HostProgram;
use serde::{Deserialize, Serialize};

use crate::data::AppData;

/// Per-kernel static seconds-per-instruction for every app in the
/// sweep, computed once up front from the kernel binaries alone.
#[derive(Debug)]
pub struct StaticEstimator {
    /// app → kernel name → static seconds per dynamic instruction.
    per_app: BTreeMap<String, BTreeMap<String, f64>>,
}

impl StaticEstimator {
    /// Compile and statically analyze every kernel of every program.
    /// Kernels that fail to compile or decode simply contribute no
    /// estimate (their invocations price as zero); the sweep itself
    /// surfaces those failures through the profile unit.
    pub fn build(programs: &[HostProgram], gpu: &GpuConfig) -> StaticEstimator {
        let params = gpu.generation.topology().cost_params();
        let mut per_app = BTreeMap::new();
        for program in programs {
            let mut kernels = BTreeMap::new();
            for ir in &program.source.kernels {
                let spi = jit::compile_kernel(ir)
                    .ok()
                    .and_then(|bin| gtpin_analyze::analyze_kernel(&bin, &params).ok())
                    .map(|report| report.cost.seconds_per_instruction());
                if let Some(spi) = spi {
                    kernels.insert(ir.name.clone(), spi);
                }
            }
            per_app.insert(program.name.clone(), kernels);
        }
        StaticEstimator { per_app }
    }

    /// Pair the static estimate with the simulated (profiled) runtime
    /// for one app whose profile succeeded.
    pub fn sample(&self, app: &str, data: &AppData) -> PrescreenSample {
        let kernels = self.per_app.get(app);
        let mut est_seconds = 0.0f64;
        for inv in &data.invocations {
            let spi = data
                .kernels
                .get(inv.kernel_index as usize)
                .and_then(|shape| kernels.and_then(|k| k.get(&shape.name)))
                .copied()
                .unwrap_or(0.0);
            est_seconds += inv.instructions as f64 * spi;
        }
        PrescreenSample {
            app: app.to_string(),
            est_seconds,
            simulated_seconds: data.total_seconds(),
        }
    }
}

/// One app's static estimate next to its simulated runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrescreenSample {
    /// App name.
    pub app: String,
    /// Static estimate: Σ invocation instructions × kernel SPI.
    pub est_seconds: f64,
    /// Simulated (profiled timing model) runtime the estimate is
    /// judged against.
    pub simulated_seconds: f64,
}

/// One row of the prescreen section, in static-estimate order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrescreenRow {
    /// App name.
    pub app: String,
    /// Static estimate in seconds.
    pub est_seconds: f64,
    /// Simulated runtime in seconds.
    pub simulated_seconds: f64,
    /// Signed estimate error, percent of the simulated runtime.
    pub error_pct: f64,
    /// 1-based average rank by static estimate (descending).
    pub est_rank: f64,
    /// 1-based average rank by simulated runtime (descending).
    pub simulated_rank: f64,
}

/// The estimate-vs-simulated record the sweep report carries when
/// pre-screening is enabled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrescreenReport {
    /// Per-app rows, sorted by static estimate descending (the
    /// pre-screening priority order), ties broken by app name.
    pub rows: Vec<PrescreenRow>,
    /// Spearman rank correlation between the static and simulated
    /// orderings (average ranks for ties). 1.0 = identical ordering.
    pub rank_correlation: f64,
    /// Mean of |error_pct| over the rows.
    pub mean_abs_error_pct: f64,
}

impl PrescreenReport {
    /// Derive the report from per-app samples. `None` when no app
    /// produced both an estimate and a simulated runtime.
    pub fn from_samples(samples: &[PrescreenSample]) -> Option<PrescreenReport> {
        if samples.is_empty() {
            return None;
        }
        let est: Vec<f64> = samples.iter().map(|s| s.est_seconds).collect();
        let sim: Vec<f64> = samples.iter().map(|s| s.simulated_seconds).collect();
        let est_ranks = descending_average_ranks(&est);
        let sim_ranks = descending_average_ranks(&sim);
        let rank_correlation = pearson(&est_ranks, &sim_ranks);
        let mut rows: Vec<PrescreenRow> = samples
            .iter()
            .enumerate()
            .map(|(i, s)| PrescreenRow {
                app: s.app.clone(),
                est_seconds: s.est_seconds,
                simulated_seconds: s.simulated_seconds,
                error_pct: if s.simulated_seconds > 0.0 {
                    (s.est_seconds - s.simulated_seconds) / s.simulated_seconds * 100.0
                } else {
                    0.0
                },
                est_rank: est_ranks[i],
                simulated_rank: sim_ranks[i],
            })
            .collect();
        rows.sort_by(|a, b| {
            b.est_seconds
                .total_cmp(&a.est_seconds)
                .then_with(|| a.app.cmp(&b.app))
        });
        let mean_abs_error_pct =
            rows.iter().map(|r| r.error_pct.abs()).sum::<f64>() / rows.len() as f64;
        Some(PrescreenReport {
            rows,
            rank_correlation,
            mean_abs_error_pct,
        })
    }

    /// Deterministic human rendering, appended to the sweep report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "prescreen: static estimate vs simulated time, {} app(s)\n",
            self.rows.len()
        ));
        out.push_str(&format!(
            "{:28} {:>12} {:>12} {:>9} {:>6} {:>6}\n",
            "app", "est-s", "sim-s", "err%", "e-rank", "s-rank"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:28} {:>12.4e} {:>12.4e} {:>+9.2} {:>6.1} {:>6.1}\n",
                r.app,
                r.est_seconds,
                r.simulated_seconds,
                r.error_pct,
                r.est_rank,
                r.simulated_rank
            ));
        }
        out.push_str(&format!(
            "prescreen rank correlation {:.3}  mean |error| {:.2}%\n",
            self.rank_correlation, self.mean_abs_error_pct
        ));
        out
    }
}

/// 1-based ranks by descending value, averaging ranks across ties.
fn descending_average_ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
    let mut ranks = vec![0.0f64; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Positions i..=j (0-based) share the average 1-based rank.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Pearson correlation; applied to rank vectors this is Spearman's ρ.
fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    if a.is_empty() {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        // A constant ranking carries no ordering information; report
        // zero correlation rather than dividing by zero.
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_average_ties_and_order_descending() {
        // values: 5, 3, 5, 1 → descending order [5, 5, 3, 1] → the
        // two 5s share rank (1+2)/2 = 1.5.
        let r = descending_average_ranks(&[5.0, 3.0, 5.0, 1.0]);
        assert_eq!(r, vec![1.5, 3.0, 1.5, 4.0]);
    }

    #[test]
    fn spearman_is_one_for_identical_orderings() {
        let a = [10.0, 7.0, 99.0, 1.0];
        let b = [20.0, 14.0, 200.0, 3.0];
        let ra = descending_average_ranks(&a);
        let rb = descending_average_ranks(&b);
        assert!((pearson(&ra, &rb) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_is_minus_one_for_reversed_orderings() {
        let a = [4.0, 3.0, 2.0, 1.0];
        let b = [1.0, 2.0, 3.0, 4.0];
        let ra = descending_average_ranks(&a);
        let rb = descending_average_ranks(&b);
        assert!((pearson(&ra, &rb) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_ranking_reports_zero_correlation() {
        let ra = descending_average_ranks(&[1.0, 1.0, 1.0]);
        let rb = descending_average_ranks(&[3.0, 2.0, 1.0]);
        assert_eq!(pearson(&ra, &rb), 0.0);
    }

    #[test]
    fn empty_samples_produce_no_report() {
        assert!(PrescreenReport::from_samples(&[]).is_none());
    }

    #[test]
    fn report_rows_sort_by_estimate_descending() {
        let samples = vec![
            PrescreenSample {
                app: "small".into(),
                est_seconds: 1.0,
                simulated_seconds: 2.0,
            },
            PrescreenSample {
                app: "big".into(),
                est_seconds: 10.0,
                simulated_seconds: 8.0,
            },
        ];
        let report = PrescreenReport::from_samples(&samples).unwrap();
        assert_eq!(report.rows[0].app, "big");
        assert_eq!(report.rows[1].app, "small");
        assert!((report.rank_correlation - 1.0).abs() < 1e-12);
        // big: (10-8)/8 = +25%; small: (1-2)/2 = -50%.
        assert!((report.rows[0].error_pct - 25.0).abs() < 1e-9);
        assert!((report.rows[1].error_pct + 50.0).abs() < 1e-9);
        assert!((report.mean_abs_error_pct - 37.5).abs() < 1e-9);
        let text = report.render();
        assert!(text.contains("rank correlation 1.000"));
    }
}
