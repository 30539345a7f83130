//! Random projection of sparse feature vectors to a small dense
//! space, as SimPoint 3.0 does before clustering (15 dimensions by
//! default; Hamerly et al. 2005).
//!
//! Each sparse key is deterministically hashed to a ±1 vector, so
//! the projection needs no stored matrix and is stable across runs.

use crate::vector::FeatureVector;

/// Default projected dimensionality (SimPoint's choice).
pub const DEFAULT_DIMS: usize = 15;

/// Project one sparse vector to `dims` dense dimensions under `seed`.
pub fn project(v: &FeatureVector, dims: usize, seed: u64) -> Vec<f64> {
    let mut out = vec![0.0; dims];
    project_into(v, 1.0, seed, &mut out);
    out
}

/// Project each vector after L1-normalizing it (as
/// [`FeatureVector::normalize`] would), flat and row-major: vector
/// `i` lands in `[i * dims, (i + 1) * dims)`. Normalization happens
/// on the fly, as `(value / mass) * sign`, so no vector is cloned.
pub(crate) fn project_normalized(vectors: &[FeatureVector], dims: usize, seed: u64) -> Vec<f64> {
    let mut out = vec![0.0; vectors.len() * dims];
    for (v, row) in vectors.iter().zip(out.chunks_exact_mut(dims.max(1))) {
        let mass = v.l1();
        project_into(v, if mass > 0.0 { mass } else { 1.0 }, seed, row);
    }
    out
}

/// Accumulate the projection of `v / mass` into `out`. Dividing by
/// 1.0 is exact, so `mass = 1.0` projects `v` unchanged.
fn project_into(v: &FeatureVector, mass: f64, seed: u64, out: &mut [f64]) {
    for (key, value) in v.iter() {
        let value = value / mass;
        for (d, slot) in out.iter_mut().enumerate() {
            let h = mix(seed ^ key, d as u64);
            let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
            *slot += value * sign;
        }
    }
}

/// Squared Euclidean distance between dense points.
pub fn distance2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn mix(seed: u64, x: u64) -> u64 {
    let mut v = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    v ^= v >> 30;
    v = v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    v ^= v >> 27;
    v = v.wrapping_mul(0x94D0_49BB_1331_11EB);
    v ^= v >> 31;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(pairs: &[(u64, f64)]) -> FeatureVector {
        pairs.iter().copied().collect()
    }

    #[test]
    fn projection_is_deterministic() {
        let v = vec_of(&[(1, 0.5), (7, 0.5)]);
        assert_eq!(project(&v, 15, 42), project(&v, 15, 42));
    }

    #[test]
    fn different_seeds_give_different_projections() {
        let v = vec_of(&[(1, 0.5), (7, 0.5)]);
        assert_ne!(project(&v, 15, 1), project(&v, 15, 2));
    }

    #[test]
    fn identical_vectors_project_identically() {
        let a = vec_of(&[(3, 1.0)]);
        let b = vec_of(&[(3, 1.0)]);
        assert_eq!(distance2(&project(&a, 15, 9), &project(&b, 15, 9)), 0.0);
    }

    #[test]
    fn projection_is_linear() {
        let a = vec_of(&[(3, 1.0)]);
        let b = vec_of(&[(5, 2.0)]);
        let sum = vec_of(&[(3, 1.0), (5, 2.0)]);
        let pa = project(&a, 8, 7);
        let pb = project(&b, 8, 7);
        let ps = project(&sum, 8, 7);
        for d in 0..8 {
            assert!((pa[d] + pb[d] - ps[d]).abs() < 1e-12);
        }
    }

    #[test]
    fn distance_roughly_preserved_for_distinct_vectors() {
        // Vectors far apart in the sparse space stay apart in the
        // projected space (Johnson–Lindenstrauss, qualitatively).
        let a = vec_of(&[(1, 1.0)]);
        let b = vec_of(&[(2, 1.0)]);
        let d = distance2(&project(&a, 15, 3), &project(&b, 15, 3));
        assert!(d > 0.0, "distinct keys must not collapse");
    }
}
