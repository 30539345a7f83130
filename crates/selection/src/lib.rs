//! # subset-select
//!
//! GPU simulation subset selection — Section V of *Fast
//! Computational GPU Design with GT-Pin* (IISWC 2015).
//!
//! Given one native GT-Pin profiling run (no simulation required),
//! the library divides an application's execution into intervals
//! ([`interval`], Table II), summarizes each interval as an
//! instruction-weighted feature vector ([`features`], Table III),
//! clusters with SimPoint (max 10 clusters), and selects one
//! representative interval per cluster with a representation ratio.
//! Whole-program seconds-per-instruction is projected as
//! Σ ratio × interval-SPI and scored with Equation 1
//! ([`evaluate`]).
//!
//! On top of that sit the paper's three headline experiments:
//!
//! * [`explore`] — evaluate all 30 interval/feature configurations
//!   per app; pick the error-minimizing one (Figure 6) or co-optimize
//!   error and selection size under a threshold (Figure 7);
//! * [`validate`] — reuse one trial's selections across trials,
//!   frequencies, and architecture generations (Figure 8), and
//!   project them on a detailed-simulated design;
//! * [`pipeline`] — the end-to-end native-profile → dataset flow,
//!   built on CoFluent-style record/replay.

pub mod data;
pub mod evaluate;
pub mod explore;
pub mod features;
pub mod interval;
pub mod pipeline;
pub mod sweep;
pub mod validate;

pub use data::{AppData, InvRecord, KernelShape, MergeError};
pub use evaluate::{
    all_configs, error_pct, evaluate_config, evaluate_config_weighted, evaluate_config_with_table,
    projected_spi, Evaluation, SelectionConfig,
};
pub use explore::{threshold_sweep, Exploration, ThresholdPoint};
pub use features::{
    feature_vector, feature_vector_weighted, feature_vectors, feature_vectors_weighted,
    FeatureKind, FeatureWeighting,
};
pub use interval::{build_intervals, default_approx_target, Interval, IntervalScheme, SchemeTable};
pub use pipeline::{profile_app, replay_timings, PipelineError, ProfiledApp};
pub use sweep::{
    run_sweep, AppSweepSummary, SweepOptions, SweepOutcome, SweepReport, SweepStats, UnitRecord,
};
pub use validate::{
    cross_error_pct, detailed_projection, validate_against_with_threads, DetailedProjection,
    ValidationPoint,
};
