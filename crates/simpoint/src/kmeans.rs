//! Weighted k-means with k-means++ seeding and Lloyd iterations —
//! the clustering engine behind SimPoint (step 4 of the standard
//! subset-selection procedure in Section V-A of the paper).
//!
//! # Reseed cycles and the exact cycle skip
//!
//! Interval populations often hold fewer *distinct* projected points
//! than the `k` being tried: a single-kernel scheme over an app with
//! one hot kernel projects every interval to the same point. At such
//! a `k`, k-means++ seeding places duplicate centroids. `nearest`
//! breaks ties toward the lower index, so the higher-index copies
//! get no members; every iteration then reseeds those empty clusters
//! to the farthest point and counts as a change. The weighted mean of
//! identical points can also differ from the point by an ulp, so
//! members swap between the mean and the reseeded copy. The
//! "nothing changed" exit never fires and the run spends its whole
//! iteration cap going round the same few states.
//!
//! One Lloyd iteration is a pure function of the state at its top,
//! `(assignments, centroids)`. The loop tracks that state with
//! Brent's cycle detection: one saved copy, compared bitwise after
//! every iteration that did not stop the loop, and re-saved whenever
//! the distance to it reaches the next power of two. A match at
//! iteration `it` against a copy saved `λ` iterations earlier means
//! the states from there on repeat with period `λ`. Every iteration
//! of that period continued the loop, so the uncapped loop would run
//! to `max_iters` and end on the state `(max_iters − it) mod λ`
//! steps further round the cycle. The loop runs exactly those steps
//! and stops, which returns the same bits as running the cap out.
//!
//! Points and centroids are stored flat and row-major, and the
//! update step reuses its buffers across iterations; every floating-
//! point sum still runs in the original point and dimension order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::project::distance2;

/// The outcome of one k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Weighted sum of squared distances to assigned centroids.
    pub sse: f64,
}

impl KmeansResult {
    /// Number of clusters actually produced.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Members of cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == c).then_some(i))
            .collect()
    }
}

/// Run weighted k-means: k-means++ seeding, then Lloyd iterations
/// until nothing changes or `max_iters` runs out.
///
/// `weights` give each point's importance (interval instruction
/// counts, in SimPoint's use). Empty clusters are reseeded to the
/// point farthest from its centroid. Requesting more clusters than
/// points clamps `k`. Every floating-point sum runs in point order,
/// so a seed fixes the result bit for bit.
///
/// # Example
///
/// ```
/// use simpoint::kmeans;
///
/// let points = vec![vec![0.0], vec![0.1], vec![9.0], vec![9.1]];
/// let weights = vec![1.0; 4];
/// let result = kmeans(&points, &weights, 2, 42, 100);
/// assert_eq!(result.k(), 2);
/// assert_eq!(result.assignments[0], result.assignments[1]);
/// assert_ne!(result.assignments[0], result.assignments[2]);
/// ```
///
/// # Panics
///
/// Panics if `points` is empty, `weights.len() != points.len()`, or
/// the points differ in length.
pub fn kmeans(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    seed: u64,
    max_iters: usize,
) -> KmeansResult {
    assert!(!points.is_empty(), "kmeans needs at least one point");
    assert_eq!(points.len(), weights.len(), "one weight per point");
    let dims = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dims),
        "every point has the same dimensionality"
    );
    let flat: Vec<f64> = points.concat();
    lloyd(&flat, dims, weights, k, seed, max_iters).result
}

/// One k-means run plus its Lloyd iteration accounting.
pub(crate) struct Run {
    pub(crate) result: KmeansResult,
    /// Lloyd iterations executed.
    pub(crate) iters: u64,
    /// Iterations the cycle skip did not have to execute.
    pub(crate) skipped: u64,
}

/// Point `i` of a flat row-major matrix with `dims` columns.
pub(crate) fn row(data: &[f64], dims: usize, i: usize) -> &[f64] {
    &data[i * dims..(i + 1) * dims]
}

/// The k-means core over flat row-major `points` (`weights.len()`
/// rows of `dims` columns), stopping early once the Lloyd loop is in
/// a cycle (see the module docs).
pub(crate) fn lloyd(
    points: &[f64],
    dims: usize,
    weights: &[f64],
    k: usize,
    seed: u64,
    max_iters: usize,
) -> Run {
    let n = weights.len();
    assert!(n > 0, "kmeans needs at least one point");
    assert_eq!(points.len(), n * dims, "one weight per point row");
    let k = k.clamp(1, n);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut centroids = plus_plus_seed(points, dims, weights, k, &mut rng);
    let mut assignments = vec![0usize; n];

    let mut sums = vec![0.0; k * dims];
    let mut masses = vec![0.0; k];
    // Brent's cycle detection over the state at the top of an
    // iteration; `None` once a cycle has fixed the end.
    let mut saved = Some((assignments.clone(), centroids.clone()));
    let (mut power, mut lambda) = (1, 0);
    let mut end = max_iters;
    let mut it = 0;
    while it < end {
        // Assign.
        let mut changed = false;
        for (i, slot) in assignments.iter_mut().enumerate() {
            let c = nearest(row(points, dims, i), &centroids, dims, k).0;
            changed |= *slot != c;
            *slot = c;
        }

        // Update.
        sums.fill(0.0);
        masses.fill(0.0);
        for (i, &c) in assignments.iter().enumerate() {
            masses[c] += weights[i];
            let sum = &mut sums[c * dims..(c + 1) * dims];
            for (s, &x) in sum.iter_mut().zip(row(points, dims, i)) {
                *s += weights[i] * x;
            }
        }
        // Reseed candidate for empty clusters: the point farthest
        // from its assigned (pre-update) centroid.
        // Only computed when some cluster is actually empty.
        let far = (!masses.iter().all(|&m| m > 0.0))
            .then(|| farthest(points, dims, &centroids, &assignments));
        for (c, &mass) in masses.iter().enumerate() {
            let centroid = &mut centroids[c * dims..(c + 1) * dims];
            if mass > 0.0 {
                for (slot, s) in centroid.iter_mut().zip(row(&sums, dims, c)) {
                    *slot = s / mass;
                }
            } else if let Some(far) = far {
                centroid.copy_from_slice(row(points, dims, far));
                changed = true;
            }
        }

        it += 1;
        if !changed {
            break;
        }
        if let Some((saved_assignments, saved_centroids)) = &mut saved {
            lambda += 1;
            if *saved_assignments == assignments && same_bits(saved_centroids, &centroids) {
                end = it + (max_iters - it) % lambda;
                saved = None;
            } else if lambda == power {
                saved_assignments.copy_from_slice(&assignments);
                saved_centroids.copy_from_slice(&centroids);
                power *= 2;
                lambda = 0;
            }
        }
    }

    // Final assignment + SSE, summed in point order.
    let mut sse = 0.0;
    for (i, slot) in assignments.iter_mut().enumerate() {
        let (best, d2) = nearest(row(points, dims, i), &centroids, dims, k);
        *slot = best;
        sse += weights[i] * d2;
    }

    Run {
        result: KmeansResult {
            assignments,
            centroids: (0..k).map(|c| row(&centroids, dims, c).to_vec()).collect(),
            sse,
        },
        iters: it as u64,
        skipped: (max_iters - end) as u64,
    }
}

/// Bitwise equality, so a NaN coordinate still matches itself.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The point farthest from its assigned centroid; the last one on
/// ties. `total_cmp` keeps a NaN distance from panicking (it orders
/// above every number); on the non-negative distances of finite
/// points it is the ordinary order.
fn farthest(points: &[f64], dims: usize, centroids: &[f64], assignments: &[usize]) -> usize {
    let distance = |i: usize| distance2(row(points, dims, i), row(centroids, dims, assignments[i]));
    let mut far = 0;
    let mut far_d = distance(0);
    for i in 1..assignments.len() {
        let d = distance(i);
        if d.total_cmp(&far_d).is_ge() {
            far = i;
            far_d = d;
        }
    }
    far
}

fn nearest(p: &[f64], centroids: &[f64], dims: usize, k: usize) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for c in 0..k {
        let d = distance2(p, row(centroids, dims, c));
        if d < best_d {
            best = c;
            best_d = d;
        }
    }
    (best, best_d)
}

/// k-means++ seeding: first centroid weighted-random, then each next
/// centroid with probability proportional to weight × squared
/// distance from the nearest existing centroid. Returns the `k`
/// centroids flat and row-major.
fn plus_plus_seed(
    points: &[f64],
    dims: usize,
    weights: &[f64],
    k: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    let n = weights.len();
    let mut centroids = Vec::with_capacity(k * dims);
    let total_w: f64 = weights.iter().sum();
    let first = weighted_pick(weights, total_w, rng);
    centroids.extend_from_slice(row(points, dims, first));

    let mut d2: Vec<f64> = (0..n)
        .map(|i| distance2(row(points, dims, i), row(points, dims, first)))
        .collect();

    for _ in 1..k {
        let scores: Vec<f64> = d2.iter().zip(weights).map(|(d, w)| d * w).collect();
        let total: f64 = scores.iter().sum();
        let pick = if total > 0.0 {
            weighted_pick(&scores, total, rng)
        } else {
            // All points coincide with centroids; any point works.
            rng.gen_range(0..n)
        };
        centroids.extend_from_slice(row(points, dims, pick));
        for (i, slot) in d2.iter_mut().enumerate() {
            let d = distance2(row(points, dims, i), row(points, dims, pick));
            if d < *slot {
                *slot = d;
            }
        }
    }
    centroids
}

fn weighted_pick(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut t = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if t < *w {
            return i;
        }
        t -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0]);
            pts.push(vec![10.0 + 0.01 * i as f64, 10.0]);
        }
        let w = vec![1.0; pts.len()];
        (pts, w)
    }

    #[test]
    fn separates_two_blobs() {
        let (pts, w) = two_blobs();
        let r = kmeans(&pts, &w, 2, 7, 100);
        assert_eq!(r.k(), 2);
        // All even indices together, all odd together.
        let a = r.assignments[0];
        let b = r.assignments[1];
        assert_ne!(a, b);
        for i in 0..pts.len() {
            assert_eq!(r.assignments[i], if i % 2 == 0 { a } else { b });
        }
        assert!(r.sse < 0.1, "tight blobs: sse {}", r.sse);
    }

    #[test]
    fn k_clamped_to_point_count() {
        let pts = vec![vec![1.0], vec![2.0]];
        let r = kmeans(&pts, &[1.0, 1.0], 10, 1, 50);
        assert!(r.k() <= 2);
    }

    #[test]
    fn deterministic_under_seed() {
        let (pts, w) = two_blobs();
        let a = kmeans(&pts, &w, 3, 42, 100);
        let b = kmeans(&pts, &w, 3, 42, 100);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn weights_pull_centroids() {
        // One heavy point and one light point, k=1: centroid near
        // the heavy point.
        let pts = vec![vec![0.0], vec![10.0]];
        let r = kmeans(&pts, &[9.0, 1.0], 1, 3, 50);
        assert!(
            (r.centroids[0][0] - 1.0).abs() < 1e-9,
            "weighted mean is 1.0"
        );
    }

    #[test]
    fn identical_points_fold_into_one_effective_cluster() {
        let pts = vec![vec![5.0, 5.0]; 8];
        let r = kmeans(&pts, &[1.0; 8], 3, 11, 50);
        assert_eq!(r.sse, 0.0);
        for a in &r.assignments {
            assert!(*a < r.k());
        }
    }

    #[test]
    fn members_partitions_all_points() {
        let (pts, w) = two_blobs();
        let r = kmeans(&pts, &w, 2, 5, 100);
        let total: usize = (0..r.k()).map(|c| r.members(c).len()).sum();
        assert_eq!(total, pts.len());
    }

    #[test]
    fn nan_coordinate_returns_instead_of_panicking() {
        // The NaN point's distances are NaN; empty clusters still
        // need a reseed candidate, and picking one must not panic.
        let pts = vec![
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![f64::NAN, 2.0],
            vec![3.0, 2.0],
        ];
        for k in 1..=4 {
            for seed in 0..16 {
                let r = kmeans(&pts, &[1.0; 4], k, seed, 20);
                assert_eq!(r.assignments.len(), pts.len());
                assert!(r.assignments.iter().all(|&a| a < r.k()));
            }
        }
    }

    #[test]
    fn reseed_cycles_stop_early() {
        // One distinct point, more clusters than it can fill: the
        // duplicate centroids reseed every iteration, so the loop
        // never settles and the cycle skip ends it.
        let pts = [0.25, -0.5, 0.125].repeat(25);
        let w: Vec<f64> = (0..25).map(|i| 1_000.0 + 37.0 * i as f64).collect();
        let run = lloyd(&pts, 3, &w, 4, 9, 100);
        assert!(run.iters < 10, "ran {} iterations", run.iters);
        assert_eq!(run.iters + run.skipped, 100);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_input_panics() {
        kmeans(&[], &[], 2, 0, 10);
    }
}
