//! Telemetry drain cost: the GTOBS01 binary journal (ring-buffered
//! fixed-width records, bulk section writes, one offline conversion
//! pass) versus the legacy direct JSONL writer (a formatted string
//! and a file write per event). The binary path must stay at least
//! 3x faster end-to-end — that margin is what justified demoting the
//! text exporters to converters — and the disabled path must stay a
//! single-branch no-op.

use std::io::Write as _;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use gtpin_obs::{ArgVal, ManualClock, Registry};
use serde::Serialize;

/// Journal lines produced per workload iteration (span exit + instant).
const LINES_PER_ITER: usize = 2;
const ITERS: usize = 8192;

/// The instrumented inner loop both paths run: a span with two args,
/// an instant with one, a counter bump, and a histogram sample.
fn workload(reg: &Registry, clock: &ManualClock, iters: usize) {
    for i in 0..iters {
        {
            let mut span = reg.span("bench.stage");
            span.arg_u64("iter", i as u64);
            span.arg_u64("items", (i as u64 * 7) & 0xFF);
            clock.advance(120);
        }
        reg.instant("bench.tick", vec![("iter", ArgVal::U64(i as u64))]);
        reg.counter_add("bench.ops", 1);
        reg.hist_record("bench.latency_ns", (i as u64 * 37) & 0x3FFF);
        clock.advance(40);
    }
}

/// Legacy shape: record, then stream every event to `journal.jsonl`
/// with one formatted line and one write call per event — what the
/// registry did before the binary journal existed.
fn legacy_jsonl(dir: &std::path::Path, iters: usize) -> std::path::PathBuf {
    let clock = Arc::new(ManualClock::new());
    let reg = Registry::new(true, Box::new(clock.clone()));
    workload(&reg, &clock, iters);
    let snap = reg.snapshot();
    let path = dir.join("legacy.jsonl");
    let mut file = std::fs::File::create(&path).expect("create legacy journal");
    for event in &snap.events {
        let line = gtpin_obs::event_jsonl_line(event);
        file.write_all(line.as_bytes()).expect("write event line");
    }
    file.write_all(gtpin_obs::totals_jsonl(&snap).as_bytes())
        .expect("write totals");
    file.sync_data().expect("sync legacy journal");
    path
}

/// Binary shape: record through the ring-buffered GTOBS01 writer,
/// flush, persist the journal, then convert it to the same JSONL.
fn binary_drain_convert(dir: &std::path::Path, iters: usize) -> std::path::PathBuf {
    let clock = Arc::new(ManualClock::new());
    let (reg, buf) = Registry::with_buffer_sink(true, Box::new(clock.clone()));
    workload(&reg, &clock, iters);
    reg.flush().expect("flush binary journal");
    let bytes = buf.lock().unwrap().clone();
    std::fs::write(dir.join("journal.gtobs"), &bytes).expect("persist binary journal");
    let path = dir.join("converted.jsonl");
    std::fs::write(&path, gtpin_obs::reader::to_jsonl(&bytes)).expect("write converted journal");
    path
}

fn time(f: impl Fn()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

#[derive(Serialize)]
struct DrainSummary {
    events: usize,
    legacy_jsonl_secs: f64,
    binary_drain_convert_secs: f64,
    speedup: f64,
    jsonl_identical: bool,
    disabled_ns_per_op: f64,
}

fn bench_obsdrain(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("gtpin-obsdrain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");

    let mut group = c.benchmark_group("obs_drain");
    group.sample_size(10);
    group.bench_function("legacy_jsonl", |b| b.iter(|| legacy_jsonl(&dir, ITERS)));
    group.bench_function("binary_drain_convert", |b| {
        b.iter(|| binary_drain_convert(&dir, ITERS))
    });
    group.finish();

    // The converter must reproduce the legacy writer byte-for-byte —
    // the speedup is only meaningful if the outputs are the same.
    let legacy_path = legacy_jsonl(&dir, ITERS);
    let binary_path = binary_drain_convert(&dir, ITERS);
    let identical = std::fs::read(&legacy_path).expect("read legacy")
        == std::fs::read(&binary_path).expect("read converted");

    let legacy_secs = time(|| {
        legacy_jsonl(&dir, ITERS);
    });
    let binary_secs = time(|| {
        binary_drain_convert(&dir, ITERS);
    });

    // Disabled path: every op must reduce to a branch on a cached
    // bool. Measured per op over the same instrumented loop.
    let disabled_ns = {
        let clock = Arc::new(ManualClock::new());
        let reg = Registry::new(false, Box::new(clock.clone()));
        let iters = 200_000usize;
        let secs = time(|| workload(&reg, &clock, iters));
        secs * 1e9 / (iters * 5) as f64 // 5 instrumentation calls per iter
    };

    let summary = DrainSummary {
        events: ITERS * LINES_PER_ITER,
        legacy_jsonl_secs: legacy_secs,
        binary_drain_convert_secs: binary_secs,
        speedup: legacy_secs / binary_secs.max(1e-12),
        jsonl_identical: identical,
        disabled_ns_per_op: disabled_ns,
    };
    assert!(
        summary.jsonl_identical,
        "binary->JSONL conversion diverged from the legacy writer"
    );
    assert!(
        summary.speedup >= 3.0,
        "binary drain+convert must be >=3x the legacy JSONL writer, got {:.2}x",
        summary.speedup
    );
    // A disabled registry must cost a branch per call, nothing more.
    // 50 ns/op is an order of magnitude above the measured cost but
    // far below any path that allocates, locks, or reads a clock.
    assert!(
        summary.disabled_ns_per_op < 50.0,
        "disabled telemetry must be a near-free branch, got {:.1} ns/op",
        summary.disabled_ns_per_op
    );
    let json = serde_json::to_string_pretty(&summary).expect("render summary");
    // Fresh numbers go under target/bench/; the checked-in
    // BENCH_obsdrain.json is the baseline they are read against.
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench");
    std::fs::create_dir_all(out_dir).expect("create target/bench");
    let path = format!("{out_dir}/BENCH_obsdrain.json");
    std::fs::write(&path, &json).expect("write summary artifact");
    println!("\nobs drain summary ({path}):\n{json}");

    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_obsdrain);
criterion_main!(benches);
