//! The pipeline stages the workloads share, each in two forms: the
//! one-call library path (untraced) and the same work decomposed into
//! the public calls it is made of, each inside a span of its layer
//! (traced). The `decompose` integration test pins the two to equal
//! outputs.

use gpu_device::{Gpu, GpuConfig};
use gtpin_core::{GtPin, RewriteConfig};
use ocl_runtime::cofluent::Recording;
use ocl_runtime::host::HostProgram;
use ocl_runtime::runtime::OclRuntime;
use simpoint::{select, select_filtered, SimpointConfig};
use subset_select::{
    all_configs, default_approx_target, error_pct, feature_vectors_weighted, profile_app, AppData,
    Evaluation, Exploration, FeatureWeighting, ProfiledApp, SchemeTable,
};
use workloads::{build_program, Scale, WorkloadSpec};

use crate::inputs::{Trial, CAPTURE_SEED};
use crate::trace::Tracer;

/// The device every workload profiles and runs on: the paper's HD 4000
/// at timing-noise seed `trial_seed`, with the functional executor's
/// fan-out pinned to one thread.
pub fn gpu_config(trial_seed: u64) -> GpuConfig {
    let mut gpu = GpuConfig::hd4000().with_trial_seed(trial_seed);
    gpu.exec.threads = 1;
    gpu
}

/// Build one app (span `workloads.build`).
pub fn build(spec: &WorkloadSpec, scale: Scale, tr: &Tracer) -> HostProgram {
    tr.time("workloads.build", || build_program(spec, scale))
}

/// Profile one app in `trial`: `profile_app` untraced,
/// [`profile_decomposed`] traced.
///
/// # Errors
///
/// The pipeline's error, as text.
pub fn profile(program: &HostProgram, trial: Trial, tr: &Tracer) -> Result<ProfiledApp, String> {
    if tr.enabled() {
        profile_decomposed(program, trial, tr)
    } else {
        profile_app(program, gpu_config(trial.trial_seed), CAPTURE_SEED).map_err(|e| e.to_string())
    }
}

/// `profile_app` as its parts: `Recording::capture` (runtime), then
/// `GtPin::attach` + `Recording::replay` + `GtPin::profile` (core),
/// then `AppData::merge` (selection).
///
/// # Errors
///
/// The failing stage's error, as text.
pub fn profile_decomposed(
    program: &HostProgram,
    trial: Trial,
    tr: &Tracer,
) -> Result<ProfiledApp, String> {
    let gpu_config = gpu_config(trial.trial_seed);
    let (recording, native) = tr
        .time("runtime.capture", || {
            let mut runtime = OclRuntime::new(Gpu::new(gpu_config));
            Recording::capture(&mut runtime, program, CAPTURE_SEED)
        })
        .map_err(|e| format!("capture: {e}"))?;
    let gtpin = GtPin::new(RewriteConfig::default());
    let mut gpu = Gpu::new(gpu_config);
    tr.time("core.attach", || gtpin.attach(&mut gpu));
    let mut instrumented = OclRuntime::new(gpu);
    tr.time("core.replay", || recording.replay(&mut instrumented))
        .map_err(|e| format!("instrumented replay: {e}"))?;
    let profile = tr.time("core.profile", || gtpin.profile(&program.name));
    let data = tr
        .time("selection.merge", || {
            AppData::merge(&profile, &native.cofluent)
        })
        .map_err(|e| format!("merge: {e}"))?;
    let instructions = data.total_instructions();
    tr.count("runtime.instructions", instructions);
    tr.count("core.instructions", instructions);
    Ok(ProfiledApp {
        recording,
        data,
        profile,
        cofluent: native.cofluent,
    })
}

/// Explore all 30 configurations: `Exploration::run_with_threads`
/// untraced, [`explore_decomposed`] (serial) traced.
pub fn explore(data: &AppData, threads: usize, tr: &Tracer) -> Exploration {
    if tr.enabled() {
        explore_decomposed(data, tr)
    } else {
        Exploration::run_with_threads(
            data,
            default_approx_target(data),
            &SimpointConfig::default(),
            threads,
        )
    }
}

/// `Exploration::run` as its parts: one `SchemeTable::build` per
/// interval scheme, then per configuration `feature_vectors_weighted`,
/// `simpoint::select`, and the Eq.-1 projection. Configurations whose
/// selection fails are skipped, as the library does.
pub fn explore_decomposed(data: &AppData, tr: &Tracer) -> Exploration {
    let _explore = tr.span("selection.explore");
    let simpoint = SimpointConfig::default();
    let configs = all_configs(default_approx_target(data));
    let mut tables: Vec<SchemeTable> = Vec::new();
    for cfg in &configs {
        if !tables.iter().any(|t| t.scheme == cfg.interval) {
            tables.push(tr.time("selection.tables", || {
                SchemeTable::build(data, cfg.interval)
            }));
        }
    }
    let mut evaluations = Vec::with_capacity(configs.len());
    for config in configs {
        let table = tables
            .iter()
            .find(|t| t.scheme == config.interval)
            .expect("a table was built for every scheme");
        let vectors = tr.time("selection.features", || {
            feature_vectors_weighted(
                data,
                &table.intervals,
                config.features,
                FeatureWeighting::InstructionWeighted,
            )
        });
        let selection = tr.time("simpoint.select", || {
            if table.has_quarantined() {
                select_filtered(
                    &vectors,
                    table.weights(),
                    table.quarantine_mask(),
                    &simpoint,
                )
            } else {
                select(&vectors, table.weights(), &simpoint)
            }
        });
        let Ok(selection) = selection else { continue };
        let evaluation = tr.time("selection.project", || {
            let measured = data.measured_spi();
            let projected: f64 = selection
                .picks
                .iter()
                .map(|p| p.ratio * table.spi(p.interval))
                .sum();
            let selected_instructions = selection
                .picks
                .iter()
                .map(|p| table.instructions(p.interval))
                .sum();
            Evaluation {
                config,
                intervals: table.intervals.clone(),
                selection,
                measured_spi: measured,
                projected_spi: projected,
                error_pct: error_pct(measured, projected),
                selected_instructions,
                total_instructions: data.total_instructions(),
            }
        });
        evaluations.push(evaluation);
    }
    Exploration {
        app: data.app.clone(),
        evaluations,
    }
}

/// Intervals across an exploration's divisions (one per interval
/// scheme).
pub fn scheme_intervals(ex: &Exploration) -> u64 {
    let mut seen = Vec::new();
    ex.evaluations
        .iter()
        .filter(|e| {
            let new = !seen.contains(&e.config.interval);
            seen.push(e.config.interval);
            new
        })
        .map(|e| e.intervals.len() as u64)
        .sum()
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Fold the canonical JSON of `value` into `h`: floats render with
/// every digit, so equal digests mean bitwise-equal outputs.
pub fn fold_json<T: serde::Serialize>(h: u64, value: &T) -> u64 {
    fnv(
        h,
        serde_json::to_string(value)
            .expect("outputs serialize")
            .as_bytes(),
    )
}
