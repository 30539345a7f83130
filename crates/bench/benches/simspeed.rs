//! Section I / V — the cost gap that motivates subset selection:
//! detailed cycle-level simulation is orders of magnitude slower
//! than native execution (the paper cites up to 2,000,000× for real
//! simulators). This bench measures our functional engine versus the
//! detailed simulator on identical launches, and the implied
//! full-program simulation cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gen_isa::ExecSize;
use gpu_device::detailed::{DetailedConfig, DetailedSimulator};
use gpu_device::{Cache, CacheConfig, ExecConfig, Executor, GpuGeneration, TraceBuffer};
use ocl_runtime::api::ArgValue;
use ocl_runtime::ir::{AccessPattern, IrOp, KernelIr, TripCount};
use serde::Serialize;

fn kernel() -> gen_isa::DecodedKernel {
    let mut ir = KernelIr::new("simspeed", 2);
    ir.body = vec![
        IrOp::LoopBegin {
            trip: TripCount::Arg(0),
        },
        IrOp::Compute {
            ops: 24,
            width: ExecSize::S16,
        },
        IrOp::MathCompute {
            ops: 4,
            width: ExecSize::S8,
        },
        IrOp::Load {
            arg: 1,
            bytes: 64,
            width: ExecSize::S16,
            pattern: AccessPattern::Linear,
        },
        IrOp::LoopEnd,
    ];
    gpu_device::jit::compile_kernel(&ir)
        .expect("compiles")
        .flatten()
}

/// A launch big enough that epoch phase A (per-EU cycle advancement)
/// dominates the barrier/reconciliation overhead: 512 hardware
/// threads spread over 16 EUs, each looping a compute+math+load body.
const SHARD_GWS: u64 = 8192;
const SHARD_ARGS: [ArgValue; 2] = [ArgValue::Scalar(160), ArgValue::Buffer(0)];
const SHARD_WORKERS: [usize; 4] = [1, 2, 4, 8];

fn simulate_sharded(
    k: &gen_isa::DecodedKernel,
    workers: usize,
) -> gpu_device::detailed::DetailedResult {
    let mut sim = DetailedSimulator::new(
        GpuGeneration::IvyBridgeHd4000.topology(),
        1.15e9,
        DetailedConfig::default(),
    )
    .with_workers(workers);
    sim.simulate_launch(k, &SHARD_ARGS, SHARD_GWS)
        .expect("runs")
}

fn time<R>(f: impl Fn() -> R) -> (f64, R) {
    // One warm-up, then the min of 3 timed runs (damps scheduler
    // noise on shared hosts).
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
struct ShardPoint {
    workers: usize,
    secs: f64,
    cycles_per_sec: f64,
    speedup_vs_serial: f64,
}

#[derive(Serialize)]
struct ShardSummary {
    host_cores: usize,
    global_work_size: u64,
    simulated_cycles: u64,
    epoch_cycles: u64,
    bit_identical: bool,
    points: Vec<ShardPoint>,
}

fn bench_simspeed(c: &mut Criterion) {
    let k = kernel();
    let args = [ArgValue::Scalar(50), ArgValue::Buffer(0)];
    let gws = 1024;

    let mut group = c.benchmark_group("simulation_speed");
    group.sample_size(10);

    group.bench_function("functional_native_model", |b| {
        b.iter(|| {
            let mut cache = Cache::new(CacheConfig::default());
            let mut trace = TraceBuffer::new();
            Executor {
                cache: &mut cache,
                trace: &mut trace,
                config: ExecConfig::default(),
            }
            .execute_launch(&k, &args, gws)
            .expect("runs")
        })
    });

    group.bench_function("detailed_cycle_simulator", |b| {
        b.iter(|| {
            let mut sim = DetailedSimulator::new(
                GpuGeneration::IvyBridgeHd4000.topology(),
                1.15e9,
                DetailedConfig::default(),
            );
            sim.simulate_launch(&k, &args, gws).expect("runs")
        })
    });
    for workers in SHARD_WORKERS {
        group.bench_with_input(
            BenchmarkId::new("sharded_detailed", workers),
            &workers,
            |b, &w| b.iter(|| simulate_sharded(&k, w)),
        );
    }
    group.finish();

    // Sharded-simulator summary artifact: serial vs sharded cycles/sec
    // at 1/2/4/8 workers, plus the bit-identity verdict the speedups
    // are conditional on.
    let serial = simulate_sharded(&k, 1);
    let mut identical = true;
    let points: Vec<ShardPoint> = SHARD_WORKERS
        .iter()
        .map(|&w| {
            let (secs, r) = time(|| simulate_sharded(&k, w));
            identical &= r == serial && r.seconds.to_bits() == serial.seconds.to_bits();
            ShardPoint {
                workers: w,
                secs,
                cycles_per_sec: serial.cycles as f64 / secs.max(1e-12),
                speedup_vs_serial: 0.0, // filled below from point[0]
            }
        })
        .collect();
    let serial_secs = points[0].secs;
    let points: Vec<ShardPoint> = points
        .into_iter()
        .map(|p| ShardPoint {
            speedup_vs_serial: serial_secs / p.secs.max(1e-12),
            ..p
        })
        .collect();
    let summary = ShardSummary {
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        global_work_size: SHARD_GWS,
        simulated_cycles: serial.cycles,
        epoch_cycles: DetailedConfig::default().epoch_cycles,
        bit_identical: identical,
        points,
    };
    assert!(
        summary.bit_identical,
        "sharded detailed simulation diverged from serial"
    );
    let json = serde_json::to_string_pretty(&summary).expect("render summary");
    // Fresh numbers go under target/bench/; the checked-in
    // BENCH_simspeed.json is the baseline they are read against.
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench");
    std::fs::create_dir_all(out_dir).expect("create target/bench");
    let path = format!("{out_dir}/BENCH_simspeed.json");
    std::fs::write(&path, &json).expect("write summary artifact");
    println!("\nsharded simspeed summary ({path}):\n{json}");

    // Report the measured ratio once.
    let t0 = std::time::Instant::now();
    {
        let mut cache = Cache::new(CacheConfig::default());
        let mut trace = TraceBuffer::new();
        Executor {
            cache: &mut cache,
            trace: &mut trace,
            config: ExecConfig::default(),
        }
        .execute_launch(&k, &args, gws)
        .expect("runs");
    }
    let functional = t0.elapsed();
    let t1 = std::time::Instant::now();
    let result = {
        let mut sim = DetailedSimulator::new(
            GpuGeneration::IvyBridgeHd4000.topology(),
            1.15e9,
            DetailedConfig::default(),
        );
        sim.simulate_launch(&k, &args, gws).expect("runs")
    };
    let detailed = t1.elapsed();
    println!(
        "\ndetailed/functional wall-clock ratio: {:.1}x",
        detailed.as_secs_f64() / functional.as_secs_f64().max(1e-12)
    );
    // The paper's headline gap compares simulation against *silicon*:
    // simulating one GPU-second of work costs this many host-seconds.
    println!(
        "detailed-simulation slowdown vs modelled hardware: {:.0}x \
         (paper cites up to 2,000,000x for production simulators; \
         subset selection divides the simulated instruction count)",
        detailed.as_secs_f64() / result.seconds.max(1e-12)
    );
}

criterion_group!(benches, bench_simspeed);
criterion_main!(benches);
