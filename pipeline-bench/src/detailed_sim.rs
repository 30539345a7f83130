//! `detailed-sim`: every launch of four apps through the cycle-level
//! simulator, one shard worker, a fresh simulator (empty LLC) per app
//! per round.
//!
//! The apps form two classes. *Wide* apps (aes128, juliaset) launch
//! large global work sizes a few long times; *narrow* apps
//! (facedetect, histogram-buffer) gather through many short launches.
//! Per-epoch clone and replay overhead dominates short launches, so an
//! epoch change can help one class and hurt the other. Only
//! `gpu_device::detailed` does work in the rounds.

use std::time::Instant;

use gpu_device::detailed::{DetailedConfig, DetailedSimulator};
use gpu_device::{ExecutionStats, Gpu, GpuGeneration};
use ocl_runtime::runtime::{OclRuntime, Schedule};
use workloads::{Scale, WorkloadSpec};

use crate::inputs::{named_specs, trial, Trial, CAPTURE_SEED};
use crate::run::{Recorder, Workload};
use crate::stages::{build, fnv, fold_json, gpu_config, FNV_BASIS};
use crate::trace::{ratio, Fold, Tracer};

/// Wide apps: large global work size, few long launches.
const WIDE: [&str; 2] = ["sandra-crypt-aes128", "cb-throughput-juliaset"];

/// Narrow apps: gather-heavy, many short launches.
const NARROW: [&str; 2] = ["cb-vision-facedetect", "cb-histogram-buffer"];

/// The simulated device clock, Hz.
const FREQUENCY_HZ: f64 = 1.15e9;

/// One natively-run app: its device holds the built kernels and the
/// launch log.
pub struct SimApp {
    /// App name.
    pub name: &'static str,
    /// Whether the app is in the wide class.
    pub wide: bool,
    /// The device after a native run.
    pub gpu: Gpu,
}

#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    launches: u64,
    cycles: u64,
    instructions: u64,
    busy_cycles: u64,
    eu_cycles: u64,
    /// Host time and simulated cycles per class (wide, narrow).
    class_ns: [u64; 2],
    class_cycles: [u64; 2],
}

/// The workload.
pub struct DetailedSim {
    specs: Vec<(WorkloadSpec, bool)>,
    trial: Trial,
    round_totals: Totals,
    /// Host time and simulated cycles per class over the untraced
    /// rounds.
    class_ns: [u64; 2],
    class_cycles: [u64; 2],
    native_minstr: f64,
}

impl DetailedSim {
    /// The four apps in the trial of `seed`.
    pub fn new(seed: u64) -> DetailedSim {
        let wide = named_specs(&WIDE).into_iter().map(|s| (s, true));
        let narrow = named_specs(&NARROW).into_iter().map(|s| (s, false));
        DetailedSim {
            specs: wide.chain(narrow).collect(),
            trial: trial(seed),
            round_totals: Totals::default(),
            class_ns: [0; 2],
            class_cycles: [0; 2],
            native_minstr: 0.0,
        }
    }
}

/// Simulate every launch of every app with `workers` shard workers,
/// recording each launch as an op when `rec` is given. Returns the
/// outputs' digest and totals.
fn simulate_all(
    apps: &[SimApp],
    workers: usize,
    tr: &Tracer,
    mut rec: Option<&mut Recorder>,
) -> Result<(u64, Totals), String> {
    let mut digest = FNV_BASIS;
    let mut totals = Totals::default();
    let topology = GpuGeneration::IvyBridgeHd4000.topology();
    for app in apps {
        let mut sim = DetailedSimulator::new(topology, FREQUENCY_HZ, DetailedConfig::default())
            .with_workers(workers);
        for (i, launch) in app.gpu.launches().iter().enumerate() {
            let kernel = app
                .gpu
                .driver()
                .kernel(launch.kernel.index())
                .ok_or_else(|| format!("{}: launch {i} references an unbuilt kernel", app.name))?;
            let mut simulate = || {
                tr.time("device.simulate", || {
                    sim.simulate_launch(kernel, &launch.args, launch.global_work_size)
                })
            };
            let (r, ns) = match rec.as_deref_mut() {
                Some(rec) => match rec.op(format_args!("{} launch {i}", app.name), simulate) {
                    Some(done) => done,
                    None => continue,
                },
                None => {
                    let start = Instant::now();
                    let r = simulate().map_err(|e| format!("{} launch {i}: {e}", app.name))?;
                    (r, start.elapsed().as_nanos() as u64)
                }
            };
            if let Some(rec) = rec.as_deref_mut() {
                rec.check(
                    same_architecture(&r.stats, &launch.stats) && r.cycles > 0,
                    || {
                        format!(
                            "{} launch {i}: detailed statistics differ from the functional run",
                            app.name
                        )
                    },
                );
            }
            let class = usize::from(!app.wide);
            totals.class_ns[class] += ns;
            totals.class_cycles[class] += r.cycles;
            totals.launches += 1;
            totals.cycles += r.cycles;
            totals.instructions += r.stats.instructions;
            totals.busy_cycles += r.busy_cycles;
            totals.eu_cycles += r.eu_cycles;
            for word in [r.cycles, r.busy_cycles, r.eu_cycles] {
                digest = fnv(digest, &word.to_le_bytes());
            }
            digest = fold_json(digest, &r.stats);
        }
    }
    Ok((digest, totals))
}

/// The detailed model must execute exactly the functional run's
/// instructions and memory traffic (cache outcomes and timing
/// legitimately differ).
fn same_architecture(detailed: &ExecutionStats, functional: &ExecutionStats) -> bool {
    detailed.instructions == functional.instructions
        && detailed.per_category == functional.per_category
        && detailed.per_width == functional.per_width
        && detailed.bytes_read == functional.bytes_read
        && detailed.bytes_written == functional.bytes_written
        && detailed.global_sends == functional.global_sends
}

impl Workload for DetailedSim {
    type State = Vec<SimApp>;

    fn name(&self) -> &'static str {
        "detailed-sim"
    }

    fn setup(&mut self, tr: &Tracer) -> Result<Vec<SimApp>, String> {
        let mut apps = Vec::new();
        let mut instructions = 0u64;
        for (spec, wide) in &self.specs {
            let program = build(spec, Scale::Test, tr);
            let gpu = tr
                .time("runtime.native_run", || {
                    let mut runtime = OclRuntime::new(Gpu::new(gpu_config(self.trial.trial_seed)));
                    let schedule = Schedule::Natural { seed: CAPTURE_SEED };
                    runtime
                        .run(&program, schedule)
                        .map(|_| runtime.into_device())
                })
                .map_err(|e| format!("{}: native run: {e}", spec.name))?;
            let executed = gpu.total_stats().instructions;
            tr.count("runtime.instructions", executed);
            instructions += executed;
            apps.push(SimApp {
                name: spec.name,
                wide: *wide,
                gpu,
            });
        }
        self.native_minstr = instructions as f64 / 1e6;
        Ok(apps)
    }

    fn round(
        &mut self,
        apps: &mut Vec<SimApp>,
        tr: &Tracer,
        rec: &mut Recorder,
    ) -> Result<u64, String> {
        let (digest, totals) = simulate_all(apps, 1, tr, Some(rec))?;
        if !tr.enabled() {
            for c in 0..2 {
                self.class_ns[c] += totals.class_ns[c];
                self.class_cycles[c] += totals.class_cycles[c];
            }
        }
        self.round_totals = totals;
        Ok(digest)
    }

    fn summary(&self) -> Vec<String> {
        let t = self.round_totals;
        vec![
            format!("sim_launches {}", t.launches),
            format!("sim_cycles {}", t.cycles),
            format!(
                "sim_ipc {:.6}",
                ratio(t.instructions as f64, t.cycles as f64)
            ),
        ]
    }

    fn layer_metrics(
        &mut self,
        state: Option<&mut Vec<SimApp>>,
        _fold: &Fold,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let apps = state.ok_or("detailed-sim keeps its set-up")?;
        let t = self.round_totals;
        let mcyc_per_s = |c: usize| {
            ratio(
                self.class_cycles[c] as f64 / 1e6,
                self.class_ns[c] as f64 / 1e9,
            )
        };
        rec.set("device.wide_mcyc_per_s", mcyc_per_s(0));
        rec.set("device.narrow_mcyc_per_s", mcyc_per_s(1));
        rec.set("device.sim_launches", t.launches as f64);
        rec.set("device.sim_mcycles", t.cycles as f64 / 1e6);
        rec.set(
            "device.sim_ipc",
            ratio(t.instructions as f64, t.cycles as f64),
        );
        rec.set(
            "device.sim_occupancy_pct",
            ratio(t.busy_cycles as f64 * 100.0, t.eu_cycles as f64),
        );
        rec.set("runtime.minstr", self.native_minstr);
        rec.set(
            "runtime.invocations",
            apps.iter().map(|a| a.gpu.launches().len() as f64).sum(),
        );
        // Informational: two shard workers against one. The simulator
        // promises bit-identical outputs at any worker count; check it.
        let workers = crate::parallel_workers();
        let timed = |workers: usize| -> Result<(f64, u64), String> {
            let start = Instant::now();
            let (digest, _) = simulate_all(apps, workers, &Tracer::off(), None)?;
            Ok((start.elapsed().as_secs_f64(), digest))
        };
        let (serial, d1) = timed(1)?;
        let (sharded, d2) = timed(workers)?;
        rec.check(d1 == d2, || {
            format!("{workers}-worker simulation digest differs from 1-worker")
        });
        rec.set("device.sim_speedup_2w", ratio(serial, sharded));
        Ok(())
    }
}
