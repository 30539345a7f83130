//! # pipeline-bench
//!
//! The GT-Pin pipeline benchmark: four workloads that time the path
//! from an application to a validated simulation subset — profile,
//! select (Eq. 1), detailed-simulate, serve — end to end with tracing
//! off, and layer by layer from bench-side spans with tracing on.
//! `BENCHMARK.md` in this directory describes the workloads, the
//! metrics and how to compare two commits.
//!
//! Everything is measured from outside the program, by timing calls
//! into each crate's public functions. Thread and worker counts are
//! fixed here; [`refuse_ambient_knobs`] stops a run when any
//! `GTPIN_*` variable is set, because those knobs move the numbers.

pub mod catalog;
pub mod compare;
mod detailed_sim;
mod explore_sweep;
pub mod inputs;
pub mod run;
mod serve_mix;
pub mod stages;
pub mod stats;
mod suite_select;
pub mod trace;

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker count the traced runs time the explore and detailed-sim
/// fan-outs at: two, or fewer on a smaller machine.
pub fn parallel_workers() -> usize {
    nproc().min(2)
}

/// Refuse to run under ambient `GTPIN_*` knobs.
///
/// # Errors
///
/// The names of the variables that are set.
pub fn refuse_ambient_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GTPIN_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: GTPIN_* knobs move the numbers; unset them",
            set.join(", ")
        ))
    }
}

/// Pin the library's one remaining ambient read: the thread count
/// `simpoint::select` and friends take when no count is passed. Call
/// once, before any thread starts, after [`refuse_ambient_knobs`].
pub fn pin_library_threads() {
    std::env::set_var("GTPIN_THREADS", "1");
}

/// Run one workload.
///
/// # Errors
///
/// An unknown workload name, or a set-up or round that could not
/// complete.
pub fn run_workload(name: &str, opts: &run::Options) -> Result<run::Outcome, String> {
    match name {
        "suite-select" => run::run(&mut suite_select::SuiteSelect::new(opts.seed), opts),
        "explore-sweep" => run::run(
            &mut explore_sweep::ExploreSweep::new(opts.seed, parallel_workers()),
            opts,
        ),
        "detailed-sim" => run::run(&mut detailed_sim::DetailedSim::new(opts.seed), opts),
        "serve-mix" => run::run(&mut serve_mix::ServeMix::new(opts.seed), opts),
        other => {
            let known: Vec<&str> = catalog::WORKLOADS.iter().map(|(name, _)| *name).collect();
            Err(format!(
                "unknown workload {other} (known: {}, all)",
                known.join(", ")
            ))
        }
    }
}

/// One run's result file (`--out`): what ran, where, and what it
/// measured. `--compare` reads these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Requested round time, seconds.
    pub seconds: u64,
    /// Logical CPUs of the host.
    pub nproc: u64,
    /// Git revision of the checkout (`unknown` outside a repository).
    pub git_rev: String,
    /// Digest of the outputs (hex); equal seeds must give equal
    /// digests on any commit that keeps behaviour.
    pub digest: String,
    /// Whether every check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    /// The record of `outcome`.
    pub fn new(outcome: &run::Outcome, opts: &run::Options) -> RunRecord {
        RunRecord {
            workload: outcome.workload.to_string(),
            seed: opts.seed,
            trace: opts.trace,
            seconds: opts.seconds,
            nproc: nproc() as u64,
            git_rev: git_rev(),
            digest: format!("{:016x}", outcome.digest),
            correct: outcome.correct,
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics: outcome
                .metrics
                .iter()
                .map(|(name, value, _)| (name.to_string(), *value))
                .collect(),
        }
    }
}

/// The checkout's git revision, read from `.git` in the working
/// directory without running git; `unknown` when there is none.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
