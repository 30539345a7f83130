//! # gtpin-analyze
//!
//! Static analysis for GEN kernel binaries: the correctness layer the
//! GT-Pin pipeline runs over every compiled and rewritten artifact.
//!
//! Four layers:
//!
//! * **Framework** — [`cfg::Cfg`] builds predecessor/successor maps,
//!   reverse post-order and reachability over a flattened instruction
//!   stream; [`dataflow::solve`] runs any [`dataflow::Analysis`] to a
//!   fixpoint with an RPO-ordered worklist. Concrete analyses:
//!   [`liveness::Liveness`] (backward, registers *and* flag
//!   registers, predication-aware) and [`reaching::ReachingDefs`]
//!   (forward, with synthetic entry definitions for the dispatch
//!   payload).
//! * **Structure & cost** — [`dominators::Dominators`] (iterative
//!   Cooper–Harvey–Kennedy), [`loops::LoopForest`] (natural loops,
//!   nesting, trip-count bounds), [`range::ValueRanges`] (unsigned
//!   interval analysis over GRF registers) and [`cost::StaticCost`]
//!   (per-category cycle pricing over the loop forest), aggregated
//!   per kernel by [`report::KernelReport`] with a deterministic
//!   digest. `gtpin analyze` prints it, and the serve daemon's
//!   `analyze` session charges its cycle total as virtual cost.
//! * **Lints** — [`lint::lint_kernel`] emits [`lint::Diagnostic`]s
//!   with stable `GTnnn` codes and severities, renderable for humans
//!   and serializable to JSON. See the code table in [`lint`].
//! * **Verifier** — [`verify::verify_rewrite`] proves a rewritten
//!   binary safe: original code intact, every probe inert (writes
//!   only reserved registers dead at its injection point, no control
//!   transfer, no app-memory traffic), every repaired branch mapped
//!   to its original target.
//!
//! The engine runs the verifier on every rewrite, and the CLI exposes
//! it as `gtpin lint`.

pub mod bitset;
pub mod cfg;
pub mod cost;
pub mod dataflow;
pub mod dominators;
pub mod lint;
pub mod liveness;
pub mod loops;
pub mod range;
pub mod reaching;
pub mod report;
pub mod verify;

pub use bitset::{DefSet, RegSet};
pub use cfg::{Cfg, KernelCfg};
pub use cost::{BlockCost, CostParams, StaticCost};
pub use dataflow::{solve, Analysis, Direction, Solution};
pub use dominators::Dominators;
pub use lint::{lint_flat, lint_kernel, Diagnostic, LintCode, LintConfig, Severity};
pub use liveness::Liveness;
pub use loops::{LoopForest, NaturalLoop, TripCount};
pub use range::{Interval, ValueRanges};
pub use reaching::{Def, DefTarget, ReachingDefs};
pub use report::{analyze_kernel, analyze_kernels, KernelReport};
pub use verify::{is_probe, verify_rewrite, VerifyError, VerifyReport, Violation};
