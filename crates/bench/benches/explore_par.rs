//! Parallel-engine benchmark: serial vs fanned-out 30-configuration
//! exploration, and serial vs sharded-trace-buffer kernel execution.
//!
//! Beyond the timings, this bench *verifies* the engine's contract —
//! parallel results bitwise identical to serial — and writes a JSON
//! summary artifact (`target/explore_par.json`) with the measured
//! speedups so CI and the README numbers come from one place.
//!
//! Wall-clock speedup needs physical cores; on a single-core host the
//! parallel paths degenerate gracefully (same results, thread
//! overhead included in the artifact's numbers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gen_isa::ExecSize;
use gpu_device::{Cache, CacheConfig, ExecConfig, Executor, TraceBuffer};
use ocl_runtime::api::ArgValue;
use ocl_runtime::ir::{AccessPattern, IrOp, KernelIr, TripCount};
use serde::Serialize;
use simpoint::SimpointConfig;
use subset_select::{AppData, Exploration};
use workloads::{build_program, spec_by_name, Scale};

const PAR_THREADS: usize = 4;

fn profiled_data() -> AppData {
    let spec = spec_by_name("cb-gaussian-image").expect("known app");
    let program = build_program(&spec, Scale::Test);
    subset_select::profile_app(&program, gpu_device::GpuConfig::hd4000(), 1)
        .expect("profiles")
        .data
}

fn trace_kernel() -> gen_isa::DecodedKernel {
    let mut ir = KernelIr::new("explore_par_trace", 1);
    ir.body = vec![
        IrOp::LoopBegin {
            trip: TripCount::Const(40),
        },
        IrOp::Compute {
            ops: 12,
            width: ExecSize::S16,
        },
        IrOp::Load {
            arg: 0,
            bytes: 64,
            width: ExecSize::S16,
            pattern: AccessPattern::Gather,
        },
        IrOp::LoopEnd,
    ];
    gpu_device::jit::compile_kernel(&ir)
        .expect("compiles")
        .flatten()
}

fn run_traced(
    kernel: &gen_isa::DecodedKernel,
    threads: usize,
) -> (gpu_device::ExecutionStats, TraceBuffer) {
    let mut cache = Cache::new(CacheConfig::default());
    let mut trace = TraceBuffer::new();
    let stats = Executor {
        cache: &mut cache,
        trace: &mut trace,
        config: ExecConfig {
            threads,
            ..Default::default()
        },
    }
    .execute_launch(kernel, &[ArgValue::Buffer(0)], 256 * 16)
    .expect("runs");
    (stats, trace)
}

fn time<R>(f: impl Fn() -> R) -> (f64, R) {
    // One warm-up, then the median-ish of 3 timed runs (min, to damp
    // scheduler noise on shared hosts).
    f();
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("ran at least once"))
}

#[derive(Serialize)]
struct Summary {
    host_cores: usize,
    threads: usize,
    explore_serial_secs: f64,
    explore_parallel_secs: f64,
    explore_speedup: f64,
    explore_bit_identical: bool,
    trace_serial_secs: f64,
    trace_sharded_secs: f64,
    trace_speedup: f64,
    trace_bit_identical: bool,
}

fn bench_explore_par(c: &mut Criterion) {
    let data = profiled_data();
    let target = subset_select::default_approx_target(&data);
    let sp = SimpointConfig::default();
    let kernel = trace_kernel();

    let mut group = c.benchmark_group("explore_par");
    group.sample_size(10);
    for threads in [1usize, PAR_THREADS] {
        group.bench_with_input(
            BenchmarkId::new("exploration_30cfg", threads),
            &threads,
            |b, &t| b.iter(|| Exploration::run_with_threads(&data, target, &sp, t)),
        );
        group.bench_with_input(
            BenchmarkId::new("traced_execution", threads),
            &threads,
            |b, &t| b.iter(|| run_traced(&kernel, t)),
        );
    }
    group.finish();

    // Summary artifact: measured speedups plus the bit-identity
    // verdicts the speedup claims are conditional on.
    let (es, ex_serial) = time(|| Exploration::run_with_threads(&data, target, &sp, 1));
    let (ep, ex_par) = time(|| Exploration::run_with_threads(&data, target, &sp, PAR_THREADS));
    let explore_identical = ex_serial.evaluations == ex_par.evaluations
        && ex_serial
            .evaluations
            .iter()
            .zip(&ex_par.evaluations)
            .all(|(a, b)| a.error_pct.to_bits() == b.error_pct.to_bits());

    let (ts, (stats_serial, trace_serial)) = time(|| run_traced(&kernel, 1));
    let (tp, (stats_par, trace_par)) = time(|| run_traced(&kernel, PAR_THREADS));
    let trace_identical = stats_serial == stats_par
        && trace_serial.records() == trace_par.records()
        && trace_serial.num_slots() == trace_par.num_slots();

    let summary = Summary {
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        threads: PAR_THREADS,
        explore_serial_secs: es,
        explore_parallel_secs: ep,
        explore_speedup: es / ep.max(1e-12),
        explore_bit_identical: explore_identical,
        trace_serial_secs: ts,
        trace_sharded_secs: tp,
        trace_speedup: ts / tp.max(1e-12),
        trace_bit_identical: trace_identical,
    };
    assert!(
        summary.explore_bit_identical,
        "parallel exploration diverged from serial"
    );
    assert!(
        summary.trace_bit_identical,
        "sharded execution diverged from serial"
    );

    let json = serde_json::to_string_pretty(&summary).expect("render summary");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/explore_par.json");
    std::fs::write(path, &json).expect("write summary artifact");
    println!("\nexplore_par summary ({path}):\n{json}");

    // With GTPIN_OBS=1, drop the telemetry view of the same runs next
    // to the summary artifact: a Perfetto-loadable Chrome trace plus
    // the per-stage rollup on stdout.
    if gtpin_obs::enabled() {
        let trace_path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/explore_par_trace.json"
        );
        gtpin_obs::global()
            .write_chrome_trace(std::path::Path::new(trace_path))
            .expect("write telemetry trace");
        println!("telemetry trace: {trace_path}");
        print!("{}", gtpin_obs::global().summary());
    }
}

criterion_group!(benches, bench_explore_par);
criterion_main!(benches);
