//! Oracle test for the cycle-skipping Lloyd loop: on populations with
//! few distinct points (where empty-cluster reseeds keep the loop
//! cycling) `kmeans` must return exactly what the
//! original run-to-the-cap loop returns — same assignments, same
//! centroid bits, same SSE bits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simpoint::project::distance2;
use simpoint::{kmeans, KmeansResult};

// ---------------------------------------------------------------
// Reference: the Lloyd loop before the cycle skip, run serially.
// ---------------------------------------------------------------

fn reference_kmeans(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    seed: u64,
    max_iters: usize,
) -> KmeansResult {
    assert!(!points.is_empty(), "kmeans needs at least one point");
    assert_eq!(points.len(), weights.len(), "one weight per point");
    let k = k.clamp(1, points.len());
    let mut rng = StdRng::seed_from_u64(seed);

    let mut centroids = plus_plus_seed(points, weights, k, &mut rng);
    let mut assignments = vec![0usize; points.len()];

    let mut scratch = vec![0usize; points.len()];
    for _ in 0..max_iters {
        // Assign.
        for (i, slot) in scratch.iter_mut().enumerate() {
            *slot = nearest(&points[i], &centroids).0;
        }
        let mut changed = assignments != scratch;
        std::mem::swap(&mut assignments, &mut scratch);

        // Update.
        let dims = points[0].len();
        let mut sums = vec![vec![0.0; dims]; centroids.len()];
        let mut masses = vec![0.0; centroids.len()];
        for (i, p) in points.iter().enumerate() {
            let c = assignments[i];
            masses[c] += weights[i];
            for (s, &x) in sums[c].iter_mut().zip(p) {
                *s += weights[i] * x;
            }
        }
        // Reseed candidate for empty clusters: the point farthest
        // from its assigned (pre-update) centroid.
        let far = (0..points.len())
            .max_by(|&a, &b| {
                let da = distance2(&points[a], &centroids[assignments[a]]);
                let db = distance2(&points[b], &centroids[assignments[b]]);
                da.partial_cmp(&db).expect("finite distances")
            })
            .expect("points is non-empty");
        for (c, centroid) in centroids.iter_mut().enumerate() {
            if masses[c] > 0.0 {
                for (slot, s) in centroid.iter_mut().zip(&sums[c]) {
                    *slot = s / masses[c];
                }
            } else {
                *centroid = points[far].clone();
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }

    // Final assignment + SSE, summed in point order.
    let mut sse = 0.0;
    for (i, slot) in assignments.iter_mut().enumerate() {
        let (best, d2) = nearest(&points[i], &centroids);
        *slot = best;
        sse += weights[i] * d2;
    }

    KmeansResult {
        assignments,
        centroids,
        sse,
    }
}

fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = distance2(p, centroid);
        if d < best_d {
            best = c;
            best_d = d;
        }
    }
    (best, best_d)
}

/// k-means++ seeding: first centroid weighted-random, then each next
/// centroid with probability proportional to weight × squared
/// distance from the nearest existing centroid.
fn plus_plus_seed(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    rng: &mut StdRng,
) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    let total_w: f64 = weights.iter().sum();
    let first = weighted_pick(weights, total_w, rng);
    centroids.push(points[first].clone());

    let mut d2: Vec<f64> = points.iter().map(|p| distance2(p, &centroids[0])).collect();

    while centroids.len() < k {
        let scores: Vec<f64> = d2.iter().zip(weights).map(|(d, w)| d * w).collect();
        let total: f64 = scores.iter().sum();
        let pick = if total > 0.0 {
            weighted_pick(&scores, total, rng)
        } else {
            // All points coincide with centroids; any point works.
            rng.gen_range(0..points.len())
        };
        centroids.push(points[pick].clone());
        for (i, p) in points.iter().enumerate() {
            let d = distance2(p, centroids.last().expect("just pushed"));
            if d < d2[i] {
                d2[i] = d;
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

// ---------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------

fn assert_bit_identical(got: &KmeansResult, want: &KmeansResult, what: &str) {
    assert_eq!(got.assignments, want.assignments, "{what}: assignments");
    assert_eq!(got.k(), want.k(), "{what}: k");
    for (c, (g, w)) in got.centroids.iter().zip(&want.centroids).enumerate() {
        let g: Vec<u64> = g.iter().map(|x| x.to_bits()).collect();
        let w: Vec<u64> = w.iter().map(|x| x.to_bits()).collect();
        assert_eq!(g, w, "{what}: centroid {c} bits");
    }
    assert_eq!(got.sse.to_bits(), want.sse.to_bits(), "{what}: sse bits");
}

/// A population of 1–6 distinct points in 1–15 dimensions, each
/// interval a copy of one of them (up to 150 intervals), with mixed
/// weights: instruction-count-like integers, fractions, ones and the
/// occasional zero.
fn arb_duplicated() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (1usize..=15, 1usize..=6).prop_flat_map(|(dims, distinct)| {
        (
            prop::collection::vec(prop::collection::vec(-1.0f64..1.0, dims), distinct),
            prop::collection::vec(
                (
                    0..distinct,
                    prop_oneof![
                        (1u64..100_000).prop_map(|w| w as f64),
                        0.0f64..1.0,
                        Just(1.0),
                        Just(0.0),
                    ],
                ),
                1..=150,
            ),
        )
            .prop_map(|(distinct, intervals)| {
                intervals
                    .into_iter()
                    .map(|(which, w)| (distinct[which].clone(), w))
                    .unzip()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cycle skip returns the reference loop's result bit for bit.
    #[test]
    fn cycle_skip_matches_the_reference_loop(
        pop in arb_duplicated(),
        k in 1usize..=12,
        max_iters in 1usize..=100,
        seed in 0u64..1_000_000,
    ) {
        let (points, weights) = pop;
        let want = reference_kmeans(&points, &weights, k, seed, max_iters);
        let got = kmeans(&points, &weights, k, seed, max_iters);
        assert_bit_identical(&got, &want, &format!("k={k} max_iters={max_iters} seed={seed}"));
    }
}

/// A large duplicated population (the aes128 single-kernel shape:
/// three phases, 1,524 intervals) matches the reference.
#[test]
fn cycle_skip_matches_the_reference_loop_on_large_populations() {
    let n = 1_524;
    let phases = [
        vec![0.5, -0.25, 0.125, 0.0, 1.0],
        vec![0.1, 0.2, 0.3, 0.4, 0.5],
        vec![-0.7, 0.0, 0.3, 0.9, -0.1],
    ];
    let points: Vec<Vec<f64>> = (0..n).map(|i| phases[i % 7 % 3].clone()).collect();
    let weights: Vec<f64> = (0..n).map(|i| 1_000.0 + (i % 13) as f64 * 37.0).collect();
    for k in [1usize, 3, 6, 10] {
        let want = reference_kmeans(&points, &weights, k, 0xD1CE ^ k as u64, 100);
        let got = kmeans(&points, &weights, k, 0xD1CE ^ k as u64, 100);
        assert_bit_identical(&got, &want, &format!("k={k}"));
    }
}
