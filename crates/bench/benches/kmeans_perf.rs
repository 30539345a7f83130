//! SimPoint clustering throughput: the selection step itself must be
//! cheap (the paper stresses that evaluating all 30 configurations
//! requires no simulation and negligible post-processing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simpoint::{select, FeatureVector, SimpointConfig};

fn synthetic_vectors(n: usize, phases: usize) -> (Vec<FeatureVector>, Vec<u64>) {
    let mut vectors = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    for i in 0..n {
        let p = i % phases;
        let mut v = FeatureVector::new();
        for j in 0..20u64 {
            v.add(p as u64 * 1000 + j, 1.0 + ((i * 7 + j as usize) % 5) as f64);
        }
        vectors.push(v);
        weights.push(1_000 + (i as u64 % 13) * 100);
    }
    (vectors, weights)
}

fn bench_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("simpoint_select");
    for &n in &[100usize, 1000, 5000] {
        let (vectors, weights) = synthetic_vectors(n, 6);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| select(&vectors, &weights, &SimpointConfig::default()).expect("selects"))
        });
    }
    // The aes128 single-kernel shape: 112 intervals but only 3
    // distinct phases, so every k above 3 reseeds empty clusters each
    // iteration and the Lloyd loop cycles until the cycle skip ends it.
    let (vectors, weights) = duplicated_vectors(112, 3);
    group.bench_function("duplicated_112x3", |b| {
        b.iter(|| select(&vectors, &weights, &SimpointConfig::default()).expect("selects"))
    });
    group.finish();
}

/// `n` intervals that are exact copies of `phases` distinct feature
/// vectors, with distinct weights.
fn duplicated_vectors(n: usize, phases: usize) -> (Vec<FeatureVector>, Vec<u64>) {
    let vectors = (0..n)
        .map(|i| {
            let p = (i % phases) as u64;
            (0..8u64).map(|j| (p * 1000 + j, 1.0 + j as f64)).collect()
        })
        .collect();
    let weights = (0..n as u64).map(|i| 20_000 + (i % 17) * 311).collect();
    (vectors, weights)
}

criterion_group!(benches, bench_kmeans);
criterion_main!(benches);
