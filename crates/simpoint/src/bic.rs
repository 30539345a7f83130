//! Bayesian Information Criterion scoring for choosing the number of
//! clusters, following SimPoint's approach: run k-means for several
//! values of k and keep the smallest k whose BIC clears a fixed
//! fraction of the best BIC observed.

use crate::kmeans::KmeansResult;

/// BIC of a clustering over weighted points.
///
/// Uses the spherical-Gaussian likelihood approximation (Pelleg &
/// Moore's X-means formulation, which SimPoint adopts): higher is
/// better; more clusters improve fit but pay a parameter penalty.
pub fn bic_score(points: &[Vec<f64>], weights: &[f64], result: &KmeansResult) -> f64 {
    bic_score_dims(points.first().map_or(0, Vec::len), weights, result)
}

/// [`bic_score`] given the points' dimensionality, the only thing it
/// reads from them.
pub(crate) fn bic_score_dims(dims: usize, weights: &[f64], result: &KmeansResult) -> f64 {
    let n: f64 = weights.iter().sum();
    let k = result.k() as f64;
    let dims = dims as f64;
    if n <= k {
        return f64::NEG_INFINITY;
    }

    // Weighted variance estimate.
    let variance = (result.sse / (n - k)).max(1e-12);

    // Log-likelihood per cluster.
    let mut cluster_mass = vec![0.0; result.k()];
    for (i, &a) in result.assignments.iter().enumerate() {
        cluster_mass[a] += weights[i];
    }
    let mut log_likelihood = 0.0;
    for &m in &cluster_mass {
        if m > 0.0 {
            log_likelihood += m * (m.ln() - n.ln());
        }
    }
    log_likelihood -= n * dims / 2.0 * (2.0 * std::f64::consts::PI * variance).ln();
    log_likelihood -= (n - k) / 2.0;

    let num_params = k * (dims + 1.0);
    log_likelihood - num_params / 2.0 * n.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::kmeans_with_threads;

    fn blobs(centers: &[f64], per: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut pts = Vec::new();
        for &c in centers {
            for i in 0..per {
                pts.push(vec![c + 0.01 * i as f64, c]);
            }
        }
        let w = vec![1.0; pts.len()];
        (pts, w)
    }

    #[test]
    fn bic_prefers_true_cluster_count() {
        let (pts, w) = blobs(&[0.0, 50.0, 100.0], 12);
        let b1 = bic_score(&pts, &w, &kmeans_with_threads(&pts, &w, 1, 7, 100, 1));
        let b3 = bic_score(&pts, &w, &kmeans_with_threads(&pts, &w, 3, 7, 100, 1));
        assert!(
            b3 > b1,
            "three real blobs: BIC(3)={b3} must beat BIC(1)={b1}"
        );
    }

    #[test]
    fn bic_penalizes_excess_clusters_at_equal_fit() {
        // Identical points: every k fits perfectly (SSE = 0), so the
        // parameter penalty and mass-entropy terms must make more
        // clusters strictly worse.
        let pts = vec![vec![5.0, 5.0]; 24];
        let w = vec![1.0; 24];
        let b1 = bic_score(&pts, &w, &kmeans_with_threads(&pts, &w, 1, 7, 100, 1));
        let b6 = bic_score(&pts, &w, &kmeans_with_threads(&pts, &w, 6, 7, 100, 1));
        assert!(
            b1 >= b6,
            "equal fit: BIC(1)={b1} should not lose to BIC(6)={b6}"
        );
    }

    #[test]
    fn degenerate_inputs_are_finite_or_neg_infinity() {
        let pts = vec![vec![1.0]];
        let w = vec![1.0];
        let r = kmeans_with_threads(&pts, &w, 1, 0, 10, 1);
        let b = bic_score(&pts, &w, &r);
        assert!(b == f64::NEG_INFINITY || b.is_finite());
    }
}
