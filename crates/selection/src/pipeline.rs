//! The end-to-end workflow of the paper, as one call:
//!
//! 1. run the application natively once under CoFluent, capturing a
//!    **recording** (API order + timings) — the "measured" side,
//! 2. replay the recording with **GT-Pin attached** to collect
//!    instruction/block/memory profiles (the 2–10× profiling run),
//! 3. join the two by launch order into [`AppData`], ready for
//!    interval division, feature construction, and SimPoint.
//!
//! Validation replays (other trials, frequencies, generations) rerun
//! step 1 on a differently-configured device and swap the timings
//! into the existing dataset.

use gpu_device::{ExecError, Gpu, GpuConfig};
use gtpin_core::{GtPin, ProgramProfile, RewriteConfig};
use ocl_runtime::cofluent::{CofluentReport, Recording};
use ocl_runtime::host::HostProgram;
use ocl_runtime::runtime::{OclRuntime, RunError};

use crate::data::{AppData, MergeError};

/// Errors from the profiling pipeline and the detailed projection
/// built on it.
#[derive(Debug)]
pub enum PipelineError {
    /// A run failed.
    Run(RunError),
    /// Profile and timing data did not line up.
    Merge(MergeError),
    /// The detailed simulator failed on a launch.
    Exec(ExecError),
    /// A replayed launch simulated a different instruction count than
    /// the profile recorded at the same index (0 for a launch one side
    /// lacks), so interval bounds would pick the wrong launches.
    LaunchMismatch {
        launch: usize,
        simulated: u64,
        profiled: u64,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Run(e) => write!(f, "run failed: {e}"),
            PipelineError::Merge(e) => write!(f, "merge failed: {e}"),
            PipelineError::Exec(e) => write!(f, "detailed simulation failed: {e}"),
            PipelineError::LaunchMismatch {
                launch,
                simulated,
                profiled,
            } => write!(
                f,
                "launch {launch} simulated {simulated} instructions but the profile \
                 recorded {profiled}"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<RunError> for PipelineError {
    fn from(e: RunError) -> PipelineError {
        PipelineError::Run(e)
    }
}

impl From<ExecError> for PipelineError {
    fn from(e: ExecError) -> PipelineError {
        PipelineError::Exec(e)
    }
}

impl From<MergeError> for PipelineError {
    fn from(e: MergeError) -> PipelineError {
        PipelineError::Merge(e)
    }
}

/// Everything the one-time native profiling pass produces.
#[derive(Debug)]
pub struct ProfiledApp {
    /// The CoFluent recording (replayable on any device config).
    pub recording: Recording,
    /// Joined profile + timing dataset for selection.
    pub data: AppData,
    /// The raw GT-Pin profile (characterization uses this).
    pub profile: ProgramProfile,
    /// The raw CoFluent report of the native (timing) run.
    pub cofluent: CofluentReport,
}

/// Profile an application once: capture + instrumented replay +
/// join.
///
/// `capture_seed` is the natural API ordering of the first trial;
/// the GPU config's `trial_seed` drives timing noise.
///
/// # Errors
///
/// Returns [`PipelineError`] when any run fails or the data cannot
/// be joined.
pub fn profile_app(
    program: &HostProgram,
    gpu_config: GpuConfig,
    capture_seed: u64,
) -> Result<ProfiledApp, PipelineError> {
    let mut span = gtpin_obs::span("selection.profile_app");
    if span.active() {
        span.arg_str("app", program.name.clone());
    }

    // 1. Native run with CoFluent recording: measured timings.
    let mut native = OclRuntime::new(Gpu::new(gpu_config));
    let (recording, native_report) = Recording::capture(&mut native, program, capture_seed)?;

    // 2. Instrumented replay: GT-Pin counts (timing perturbed by the
    //    2–10× overhead, so timings are taken from the native run).
    let instrumented_span = gtpin_obs::span("selection.instrumented_replay");
    let mut gpu = Gpu::new(gpu_config);
    let gtpin = GtPin::new(RewriteConfig::default());
    gtpin.attach(&mut gpu);
    let mut instrumented = OclRuntime::new(gpu);
    recording.replay(&mut instrumented)?;
    let profile = gtpin.profile(&program.name);
    drop(instrumented_span);

    // 3. Join by launch order.
    let data = AppData::merge(&profile, &native_report.cofluent)?;
    if span.active() {
        span.arg_u64("invocations", data.invocations.len() as u64);
    }
    Ok(ProfiledApp {
        recording,
        data,
        profile,
        cofluent: native_report.cofluent,
    })
}

/// Replay a recording natively on a (possibly different) device
/// configuration, returning its timing report — the validation side
/// of Figure 8.
///
/// # Errors
///
/// Returns [`PipelineError::Run`] when the replay fails.
pub fn replay_timings(
    recording: &Recording,
    gpu_config: GpuConfig,
) -> Result<CofluentReport, PipelineError> {
    let mut rt = OclRuntime::new(Gpu::new(gpu_config));
    let report = recording.replay(&mut rt)?;
    Ok(report.cofluent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen_isa::ExecSize;
    use ocl_runtime::api::{ArgValue, KernelId, SyncCall};
    use ocl_runtime::host::{HostScriptBuilder, ProgramSource};
    use ocl_runtime::ir::{IrOp, KernelIr, TripCount};

    fn program() -> HostProgram {
        let mut k = KernelIr::new("w", 1);
        k.body = vec![
            IrOp::LoopBegin {
                trip: TripCount::Arg(0),
            },
            IrOp::Compute {
                ops: 10,
                width: ExecSize::S16,
            },
            IrOp::LoopEnd,
        ];
        let mut b = HostScriptBuilder::new("pipe-app", ProgramSource { kernels: vec![k] });
        for e in 0..4u64 {
            for i in 0..3u64 {
                b.set_arg(KernelId(0), 0, ArgValue::Scalar(5 + 3 * ((e + i) % 3)));
                b.launch(KernelId(0), 128);
            }
            b.sync(SyncCall::Finish);
        }
        b.finish().unwrap()
    }

    #[test]
    fn profile_app_produces_consistent_data() {
        let p = profile_app(&program(), GpuConfig::hd4000(), 7).unwrap();
        assert_eq!(p.data.invocations.len(), 12);
        assert!(p.data.total_instructions() > 0);
        assert!(p.data.total_seconds() > 0.0);
        // Profile counts joined with native timings, same order.
        for (inv, prof) in p.data.invocations.iter().zip(&p.profile.invocations) {
            assert_eq!(inv.instructions, prof.instructions);
        }
        assert_eq!(p.data.invocations.last().unwrap().sync_epoch, 3);
    }

    #[test]
    fn replay_timings_matches_original_trial_when_config_identical() {
        let p = profile_app(&program(), GpuConfig::hd4000(), 7).unwrap();
        let replay = replay_timings(&p.recording, GpuConfig::hd4000()).unwrap();
        for (a, b) in p.cofluent.invocations.iter().zip(&replay.invocations) {
            assert_eq!(
                a.seconds, b.seconds,
                "same machine, same trial seed, same time"
            );
        }
    }

    #[test]
    fn different_trial_seed_changes_timings_only() {
        let p = profile_app(&program(), GpuConfig::hd4000(), 7).unwrap();
        let replay = replay_timings(&p.recording, GpuConfig::hd4000().with_trial_seed(99)).unwrap();
        let new_data = p.data.with_timings(&replay).unwrap();
        assert_eq!(
            new_data.total_instructions(),
            p.data.total_instructions(),
            "replays are architecturally deterministic"
        );
        assert_ne!(new_data.total_seconds(), p.data.total_seconds());
    }
}
