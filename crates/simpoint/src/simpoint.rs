//! The top-level SimPoint pipeline: normalize variable-size interval
//! feature vectors, project, cluster across candidate k with BIC
//! model selection, and return cluster representatives with
//! representation ratios (steps 3–5 of the paper's Section V-A).

use serde::{Deserialize, Serialize};

use crate::bic::bic_score_dims;
use crate::kmeans::row;
use crate::project::{distance2, project_normalized, DEFAULT_DIMS};
use crate::vector::FeatureVector;

/// SimPoint configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimpointConfig {
    /// Maximum clusters (and therefore selections). The paper uses
    /// 10 in all experiments.
    pub max_k: usize,
    /// Projected dimensionality (SimPoint 3.0 default: 15).
    pub dims: usize,
    /// Seed for projection and clustering.
    pub seed: u64,
    /// Keep the smallest k whose BIC reaches this fraction of the
    /// best BIC seen (SimPoint's rule; 0.9 by default).
    pub bic_fraction: f64,
    /// Lloyd iteration cap per k.
    pub max_iters: usize,
}

impl Default for SimpointConfig {
    fn default() -> SimpointConfig {
        SimpointConfig {
            max_k: 10,
            dims: DEFAULT_DIMS,
            seed: 0xD1CE,
            bic_fraction: 0.9,
            max_iters: 100,
        }
    }
}

/// One selected interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimpointPick {
    /// Index of the representative interval in the input order.
    pub interval: usize,
    /// The cluster it represents.
    pub cluster: usize,
    /// Representation ratio: the cluster's share of total weight
    /// (dynamic instructions). Ratios across picks sum to 1.
    pub ratio: f64,
}

/// A complete SimPoint selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// The chosen representatives, one per cluster, ordered by
    /// cluster index.
    pub picks: Vec<SimpointPick>,
    /// Cluster assignment per input interval.
    pub assignments: Vec<usize>,
    /// Number of clusters the BIC rule settled on (≤ `max_k`).
    pub k: usize,
}

impl Selection {
    /// The selected interval indices in input order.
    pub fn selected_intervals(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.picks.iter().map(|p| p.interval).collect();
        v.sort_unstable();
        v
    }

    /// Sum of representation ratios (1.0 up to rounding).
    pub fn total_ratio(&self) -> f64 {
        self.picks.iter().map(|p| p.ratio).sum()
    }
}

/// Errors from [`select`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// No intervals were provided.
    NoIntervals,
    /// `weights` and `vectors` lengths differ.
    LengthMismatch { vectors: usize, weights: usize },
    /// All interval weights are zero.
    ZeroWeight,
    /// The BIC sweep produced no run clearing its own threshold —
    /// every clustering degenerated (a numerical pathology, surfaced
    /// instead of panicking).
    NoViableClustering,
    /// A quarantine mask's length differs from the interval count.
    MaskMismatch { vectors: usize, mask: usize },
    /// Every interval was quarantined; nothing remains to select.
    AllQuarantined,
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::NoIntervals => write!(f, "no intervals to select from"),
            SelectError::LengthMismatch { vectors, weights } => {
                write!(f, "{vectors} vectors but {weights} weights")
            }
            SelectError::ZeroWeight => write!(f, "all interval weights are zero"),
            SelectError::NoViableClustering => {
                write!(f, "no clustering run cleared the BIC threshold")
            }
            SelectError::MaskMismatch { vectors, mask } => {
                write!(f, "{vectors} vectors but quarantine mask of length {mask}")
            }
            SelectError::AllQuarantined => {
                write!(f, "every interval is quarantined; nothing to select")
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// Run the SimPoint pipeline over per-interval feature vectors and
/// weights (dynamic instruction counts — SimPoint 3.0's
/// variable-size interval support).
///
/// # Errors
///
/// Returns [`SelectError`] on empty input, length mismatch, or
/// all-zero weights.
///
/// This is the serial entry point; [`select_with_threads`] fans the
/// same computation out, bit for bit.
pub fn select(
    vectors: &[FeatureVector],
    weights: &[u64],
    config: &SimpointConfig,
) -> Result<Selection, SelectError> {
    select_with_threads(vectors, weights, config, 1)
}

/// [`select`] with an explicit worker count.
///
/// The k = 1..=`max_k` sweep fans out across threads — each run owns
/// its RNG (seeded from `config.seed` and `k` alone) and its BIC
/// score, and runs are collected back in k order, so the BIC
/// threshold rule sees exactly the serial sequence. For large
/// interval populations the sweep instead stays serial and the
/// thread budget goes to chunking each run's Lloyd assignment step
/// (see [`crate::kmeans::kmeans_with_threads`]). Either way the
/// selection is bitwise identical at every thread count.
///
/// # Errors
///
/// Returns [`SelectError`] on empty input, length mismatch, or
/// all-zero weights.
pub fn select_with_threads(
    vectors: &[FeatureVector],
    weights: &[u64],
    config: &SimpointConfig,
    threads: usize,
) -> Result<Selection, SelectError> {
    if vectors.is_empty() {
        return Err(SelectError::NoIntervals);
    }
    if vectors.len() != weights.len() {
        return Err(SelectError::LengthMismatch {
            vectors: vectors.len(),
            weights: weights.len(),
        });
    }
    let total_weight: u64 = weights.iter().sum();
    if total_weight == 0 {
        return Err(SelectError::ZeroWeight);
    }
    let mut obs_span = gtpin_obs::span("simpoint.select");
    if obs_span.active() {
        obs_span.arg_u64("intervals", vectors.len() as u64);
        obs_span.arg_u64("threads", threads as u64);
    }

    // Normalize per-vector so interval length does not dominate the
    // geometry; length re-enters through the clustering weights. The
    // flat point matrix is built once and shared by every k run.
    let dims = config.dims;
    let points = project_normalized(vectors, dims, config.seed);
    let w: Vec<f64> = weights.iter().map(|&x| x as f64).collect();

    // Sweep k, score with BIC, keep the smallest k clearing the
    // fraction-of-best threshold. Small populations spend the thread
    // budget on concurrent k runs; large ones keep the sweep serial
    // and chunk each run's assignment step instead (nesting both
    // would oversubscribe).
    let max_k = config.max_k.min(vectors.len()).max(1);
    let (sweep_threads, lloyd_threads) = if vectors.len() >= crate::kmeans::PAR_MIN_POINTS {
        (1, threads)
    } else {
        (threads, 1)
    };
    let sweep_ns = gtpin_obs::now_ns();
    let runs: Vec<(crate::kmeans::Run, f64)> =
        gtpin_par::parallel_indexed(max_k, sweep_threads, |i| {
            let k = i + 1;
            let run = crate::kmeans::lloyd(
                &points,
                dims,
                &w,
                k,
                config.seed ^ (k as u64) << 32,
                config.max_iters,
                lloyd_threads,
            );
            let bic = bic_score_dims(dims, &w, &run.result);
            (run, bic)
        });
    if obs_span.active() {
        obs_span.arg_u64("max_k", max_k as u64);
        gtpin_obs::hist_ns(
            "simpoint.bic_sweep_ns",
            gtpin_obs::now_ns().saturating_sub(sweep_ns),
        );
        let iters = runs.iter().map(|(r, _)| r.iters).sum();
        obs_span.arg_u64("lloyd_iters", iters);
        gtpin_obs::counter_add("simpoint.lloyd_iters", iters);
        gtpin_obs::counter_add(
            "simpoint.lloyd_skipped",
            runs.iter().map(|(r, _)| r.skipped).sum(),
        );
    }
    // SimPoint 3.0's rule: normalize BIC scores to [min, max] across
    // the k sweep and keep the smallest k whose normalized score
    // reaches the threshold fraction.
    let finite: Vec<f64> = runs
        .iter()
        .map(|(_, b)| *b)
        .filter(|b| b.is_finite())
        .collect();
    let best_bic = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min_bic = finite.iter().cloned().fold(f64::INFINITY, f64::min);
    let span = (best_bic - min_bic).max(1e-12);
    // Clamp to best_bic: `min + 1.0·span` can exceed the max by an
    // ulp, and when every BIC is non-finite any run qualifies.
    let threshold = (min_bic + config.bic_fraction * span).min(best_bic);
    let result = runs
        .into_iter()
        .find(|(_, b)| *b >= threshold || !threshold.is_finite())
        .ok_or(SelectError::NoViableClustering)?
        .0
        .result;

    // Representatives: the member closest to each centroid; ratios:
    // cluster weight share.
    let k = result.k();
    let mut picks = Vec::with_capacity(k);
    for c in 0..k {
        let members = result.members(c);
        // `total_cmp` keeps the choice well-defined even if a
        // distance degenerates to NaN (NaN orders last, so a finite
        // member still wins).
        let Some(rep) = members.iter().copied().min_by(|&a, &b| {
            let da = distance2(row(&points, dims, a), &result.centroids[c]);
            let db = distance2(row(&points, dims, b), &result.centroids[c]);
            da.total_cmp(&db)
        }) else {
            continue;
        };
        let mass: u64 = members.iter().map(|&i| weights[i]).sum();
        if obs_span.active() {
            gtpin_obs::hist_ns("simpoint.cluster_size", members.len() as u64);
        }
        picks.push(SimpointPick {
            interval: rep,
            cluster: c,
            ratio: mass as f64 / total_weight as f64,
        });
    }
    obs_span.arg_u64("k", picks.len() as u64);

    Ok(Selection {
        k: picks.len(),
        picks,
        assignments: result.assignments,
    })
}

/// Cluster assignment given to quarantined intervals in
/// [`select_filtered`]'s output: they belong to no cluster.
pub const QUARANTINED: usize = usize::MAX;

/// [`select`] over a population where some intervals are quarantined
/// (their trace data was corrupted or dropped): the pipeline skips
/// them, warns, and renormalizes representation ratios over the
/// surviving weight (the Eq. 1 denominators shrink accordingly)
/// instead of aborting the whole characterization.
///
/// Pick indices and assignments are reported in the *original*
/// interval numbering; quarantined intervals get the [`QUARANTINED`]
/// sentinel assignment. With an all-false mask this is exactly
/// [`select`] — same decisions, bit for bit. Serial, like [`select`];
/// [`select_filtered_with_threads`] takes a worker count.
///
/// # Errors
///
/// [`SelectError::MaskMismatch`] when the mask length differs,
/// [`SelectError::AllQuarantined`] when nothing survives, plus
/// everything [`select`] returns.
pub fn select_filtered(
    vectors: &[FeatureVector],
    weights: &[u64],
    quarantined: &[bool],
    config: &SimpointConfig,
) -> Result<Selection, SelectError> {
    select_filtered_with_threads(vectors, weights, quarantined, config, 1)
}

/// [`select_filtered`] with an explicit worker count.
///
/// # Errors
///
/// See [`select_filtered`].
pub fn select_filtered_with_threads(
    vectors: &[FeatureVector],
    weights: &[u64],
    quarantined: &[bool],
    config: &SimpointConfig,
    threads: usize,
) -> Result<Selection, SelectError> {
    if vectors.len() != quarantined.len() {
        return Err(SelectError::MaskMismatch {
            vectors: vectors.len(),
            mask: quarantined.len(),
        });
    }
    let skipped = quarantined.iter().filter(|&&q| q).count();
    if skipped == 0 {
        // Fast path: bitwise identical to the unfiltered pipeline.
        return select_with_threads(vectors, weights, config, threads);
    }
    if skipped == vectors.len() {
        return Err(SelectError::AllQuarantined);
    }
    gtpin_obs::warn!(
        "simpoint: skipping {skipped}/{} quarantined interval(s) and \
         renormalizing weights over the survivors",
        vectors.len()
    );
    gtpin_obs::counter_add("simpoint.quarantined_intervals", skipped as u64);

    // Select over the kept subset; `keep[j]` maps compacted index j
    // back to the original interval numbering.
    let keep: Vec<usize> = (0..vectors.len()).filter(|&i| !quarantined[i]).collect();
    let kept_vectors: Vec<FeatureVector> = keep.iter().map(|&i| vectors[i].clone()).collect();
    let kept_weights: Vec<u64> = keep.iter().map(|&i| weights[i]).collect();
    let inner = select_with_threads(&kept_vectors, &kept_weights, config, threads)?;

    let picks = inner
        .picks
        .iter()
        .map(|p| SimpointPick {
            interval: keep[p.interval],
            cluster: p.cluster,
            ratio: p.ratio,
        })
        .collect();
    let mut assignments = vec![QUARANTINED; vectors.len()];
    for (j, &orig) in keep.iter().enumerate() {
        assignments[orig] = inner.assignments[j];
    }
    Ok(Selection {
        picks,
        assignments,
        k: inner.k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build an interval population with `phases` distinct behaviours.
    fn phased_vectors(phases: usize, per_phase: usize) -> (Vec<FeatureVector>, Vec<u64>) {
        let mut vectors = Vec::new();
        let mut weights = Vec::new();
        for p in 0..phases {
            for i in 0..per_phase {
                let mut v = FeatureVector::new();
                // Each phase exercises a distinct pair of keys;
                // intervals within a phase differ only in magnitude,
                // which L1 normalization removes.
                let scale = 1.0 + (i % 3) as f64 * 0.2;
                v.add(100 * p as u64, 10.0 * scale);
                v.add(100 * p as u64 + 1, 5.0 * scale);
                vectors.push(v);
                weights.push(1000 + (i as u64 % 7) * 10);
            }
        }
        (vectors, weights)
    }

    #[test]
    fn ratios_sum_to_one() {
        let (v, w) = phased_vectors(3, 8);
        let s = select(&v, &w, &SimpointConfig::default()).unwrap();
        assert!((s.total_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_phase_structure() {
        let (v, w) = phased_vectors(3, 8);
        let s = select(&v, &w, &SimpointConfig::default()).unwrap();
        assert!(
            s.k >= 3,
            "three behaviours need at least three clusters, got {}",
            s.k
        );
        // Intervals of the same phase share a cluster.
        for p in 0..3 {
            let base = s.assignments[p * 8];
            for i in 0..8 {
                assert_eq!(s.assignments[p * 8 + i], base, "phase {p} interval {i}");
            }
        }
    }

    #[test]
    fn respects_max_k() {
        let (v, w) = phased_vectors(6, 5);
        let cfg = SimpointConfig {
            max_k: 4,
            ..Default::default()
        };
        let s = select(&v, &w, &cfg).unwrap();
        assert!(s.k <= 4);
    }

    #[test]
    fn representative_belongs_to_its_cluster() {
        let (v, w) = phased_vectors(4, 6);
        let s = select(&v, &w, &SimpointConfig::default()).unwrap();
        for pick in &s.picks {
            assert_eq!(s.assignments[pick.interval], pick.cluster);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (v, w) = phased_vectors(3, 7);
        let a = select(&v, &w, &SimpointConfig::default()).unwrap();
        let b = select(&v, &w, &SimpointConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_population_selects_few() {
        let v: Vec<FeatureVector> = (0..20)
            .map(|_| [(1u64, 1.0), (2, 2.0)].into_iter().collect())
            .collect();
        let w = vec![100u64; 20];
        let s = select(&v, &w, &SimpointConfig::default()).unwrap();
        assert!(
            s.k <= 2,
            "identical intervals should collapse, got k={}",
            s.k
        );
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            select(&[], &[], &SimpointConfig::default()).unwrap_err(),
            SelectError::NoIntervals
        );
        let v = vec![FeatureVector::new()];
        assert!(matches!(
            select(&v, &[1, 2], &SimpointConfig::default()).unwrap_err(),
            SelectError::LengthMismatch { .. }
        ));
        assert_eq!(
            select(&v, &[0], &SimpointConfig::default()).unwrap_err(),
            SelectError::ZeroWeight
        );
    }

    #[test]
    fn filtered_with_empty_mask_is_bitwise_identical() {
        let (v, w) = phased_vectors(3, 8);
        let mask = vec![false; v.len()];
        let plain = select(&v, &w, &SimpointConfig::default()).unwrap();
        let filtered = select_filtered(&v, &w, &mask, &SimpointConfig::default()).unwrap();
        assert_eq!(plain, filtered);
    }

    #[test]
    fn filtered_skips_quarantined_and_renormalizes() {
        let (v, w) = phased_vectors(3, 8);
        let mut mask = vec![false; v.len()];
        mask[0] = true;
        mask[9] = true;
        mask[17] = true;
        let s = select_filtered(&v, &w, &mask, &SimpointConfig::default()).unwrap();
        // Quarantined intervals get the sentinel and are never picked.
        for (i, &q) in mask.iter().enumerate() {
            if q {
                assert_eq!(s.assignments[i], QUARANTINED);
                assert!(s.picks.iter().all(|p| p.interval != i));
            } else {
                assert_ne!(s.assignments[i], QUARANTINED);
            }
        }
        // Eq. 1 renormalization: ratios over the surviving weight
        // still sum to one.
        assert!((s.total_ratio() - 1.0).abs() < 1e-9);
        // Picks are reported in original numbering and belong to
        // their clusters.
        for p in &s.picks {
            assert_eq!(s.assignments[p.interval], p.cluster);
        }
    }

    #[test]
    fn filtered_error_cases() {
        let (v, w) = phased_vectors(2, 4);
        assert!(matches!(
            select_filtered(&v, &w, &[false], &SimpointConfig::default()).unwrap_err(),
            SelectError::MaskMismatch { .. }
        ));
        let all = vec![true; v.len()];
        assert_eq!(
            select_filtered(&v, &w, &all, &SimpointConfig::default()).unwrap_err(),
            SelectError::AllQuarantined
        );
    }

    #[test]
    fn single_interval_selects_itself_fully() {
        let v = vec![[(1u64, 3.0)].into_iter().collect::<FeatureVector>()];
        let s = select(&v, &[500], &SimpointConfig::default()).unwrap();
        assert_eq!(s.k, 1);
        assert_eq!(s.picks[0].interval, 0);
        assert!((s.picks[0].ratio - 1.0).abs() < 1e-12);
    }
}
