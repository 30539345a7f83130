//! The chaos trial driver: run one scenario end-to-end through the
//! pipeline and judge it against its oracle.
//!
//! A trial is one or two **passes** over the same three stages:
//!
//! 1. **Profile conservation** — profile one app natively under the
//!    fault plan and check the trace-layer conservation identity
//!    (every appended record is stored, dropped, or quarantined; the
//!    executor surfaces violations as `violation.*` accounting keys).
//!    `trace_memory` scenarios profile with memory tracing on, so the
//!    trace-record seams have records to drain and quarantine.
//! 2. **Sweep kill/resume** — only when `journal.crash` is armed:
//!    drive the journaled exploration sweep through its injected
//!    crash/resume loop until it converges, bounded by the restart
//!    budget, and compare the final report to a fault-free baseline.
//! 3. **Serve pipeline** — a fixed request list through one
//!    `SessionEngine`; resume-identity scenarios kill the engine at
//!    the scheduled request (drop it, reinstall the plan to model
//!    process death clearing in-process fault state, resume from the
//!    session journal) and must reproduce the uninterrupted pass's
//!    responses and supervisor trajectory byte-for-byte.
//!
//! Every pass also checks its books: each corrupted sealed-cache read
//! was healed.
//!
//! Baseline scenarios run the second pass with the fault registry
//! disabled and require the same *result* — profile outcome, sweep
//! report, serve responses — as the faulted pass: the recovery lost
//! nothing. The result leaves out restart, dropped-delivery, and
//! fault counts, which measure the faults themselves.
//!
//! Everything folded into the trial digest is a pure function of the
//! scenario, so `gtpin chaos` prints one digest that is identical at
//! any `GTPIN_THREADS` and across a mid-run kill/resume of the chaos
//! run itself.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use gpu_device::{Gpu, GpuConfig};
use gtpin_core::{GtPin, RewriteConfig};
use gtpin_durable::JournalError;
use gtpin_faults::{site, FaultPlan};
use gtpin_obs::frame::fnv_fold;
use gtpin_serve::wire::Request;
use gtpin_serve::{ServeConfig, SessionEngine};
use ocl_runtime::host::HostProgram;
use ocl_runtime::runtime::{OclRuntime, Schedule};
use subset_select::{profile_app, run_sweep, SweepOptions};
use workloads::{all_specs, build_program, Scale};

use crate::scenario::{OracleKind, Scenario};

/// Default restart budget for the sweep crash/resume loop
/// (`gtpin chaos --max-restarts` overrides it).
pub const DEFAULT_MAX_RESTARTS: u64 = 200;

/// The judged result of one scenario trial.
#[derive(Debug, Clone)]
pub struct TrialReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Deterministic digest of the trial (reference pass only — the
    /// checking pass exists to be compared against, not hashed).
    pub digest: u64,
    /// Oracle violations; empty means the scenario passed.
    pub violations: Vec<String>,
    /// Sweep restarts the crash/resume loop consumed.
    pub restarts: u64,
    /// Fault accounting of the reference pass across every stage —
    /// the `injected.<site>` counts show which armed sites fired.
    pub accounting: Vec<(String, u64)>,
}

impl TrialReport {
    /// True when every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic one-line summary (scenario + digest + verdict).
    pub fn line(&self) -> String {
        let verdict = if self.passed() { "ok" } else { "FAIL" };
        format!(
            "{} -> digest {:#018x} {verdict}",
            self.scenario.describe(),
            self.digest
        )
    }
}

/// One pass over the three stages.
#[derive(Debug)]
struct PassOutcome {
    /// Fold of every stage digest (profile, sweep, serve, resume
    /// accounting) — the replay-identity comparison unit.
    digest: u64,
    /// Fold of the stage results alone (profile outcome, rendered
    /// sweep report, serve response digest) — the baseline-identity
    /// comparison unit.
    result: u64,
    /// The serve stage's response digest alone — the resume-identity
    /// comparison unit.
    serve_digest: u64,
    /// Rendered supervisor trajectory of the serve stage.
    supervisor: String,
    /// Accumulated fault accounting across every install/reinstall.
    accounting: Vec<(String, u64)>,
    /// Sweep restarts consumed.
    restarts: u64,
    /// Violations detected inside the pass (conservation, restart
    /// budget, sweep divergence).
    violations: Vec<String>,
}

/// Run one scenario to a judged report. `scratch` must be a
/// directory the trial may create per-seed subdirectories in; they
/// are removed before returning.
pub fn run_trial(sc: &Scenario, max_restarts: u64, scratch: &Path) -> TrialReport {
    let root = scratch.join(format!("seed-{:04x}", sc.seed));
    let _ = std::fs::remove_dir_all(&root);
    let reference = run_pass(sc, &root.join("ref"), None, max_restarts, true);
    let mut violations = reference.violations.clone();

    match sc.oracle {
        OracleKind::ReplayIdentity => {
            let again = run_pass(sc, &root.join("again"), None, max_restarts, true);
            if again.digest != reference.digest {
                violations.push(format!(
                    "replay divergence: digest {:#018x} vs {:#018x}",
                    reference.digest, again.digest
                ));
            }
            if again.accounting != reference.accounting {
                violations.push("replay divergence: fault accounting differs".to_string());
            }
            if again.supervisor != reference.supervisor {
                violations.push("replay divergence: supervisor trajectory differs".to_string());
            }
            violations.extend(
                again
                    .violations
                    .iter()
                    .map(|v| format!("second replay: {v}")),
            );
        }
        OracleKind::ResumeIdentity => {
            let resumed = run_pass(
                sc,
                &root.join("killed"),
                Some(sc.kill_point),
                max_restarts,
                true,
            );
            if resumed.serve_digest != reference.serve_digest {
                violations.push(format!(
                    "resume divergence: responses {:#018x} (resumed) vs {:#018x} (uninterrupted)",
                    resumed.serve_digest, reference.serve_digest
                ));
            }
            if resumed.supervisor != reference.supervisor {
                violations.push(
                    "resume divergence: supervisor trajectory differs from uninterrupted run"
                        .to_string(),
                );
            }
            violations.extend(
                resumed
                    .violations
                    .iter()
                    .map(|v| format!("resumed run: {v}")),
            );
        }
        OracleKind::Baseline => {
            let baseline = run_pass(sc, &root.join("baseline"), None, max_restarts, false);
            if baseline.result != reference.result {
                violations.push(format!(
                    "baseline divergence: result {:#018x} (faulted) vs {:#018x} (fault-free)",
                    reference.result, baseline.result
                ));
            }
            violations.extend(
                baseline
                    .violations
                    .iter()
                    .map(|v| format!("fault-free run: {v}")),
            );
        }
    }

    let _ = std::fs::remove_dir_all(&root);
    let mut digest = reference.digest;
    for (key, value) in &reference.accounting {
        digest = fnv_fold(digest, key.as_bytes());
        digest = fnv_fold(digest, &value.to_le_bytes());
    }
    TrialReport {
        scenario: sc.clone(),
        digest,
        violations,
        restarts: reference.restarts,
        accounting: reference.accounting,
    }
}

/// Fold freshly-taken fault accounting into the pass accumulator.
/// Accounting accumulates *across* plan reinstalls: a kill clears
/// in-process occurrence state (as a real SIGKILL would) but the
/// trial's books keep every count.
fn fold_accounting(acc: &mut BTreeMap<String, u64>, taken: Vec<(String, u64)>) {
    for (key, value) in taken {
        *acc.entry(key).or_insert(0) += value;
    }
}

fn accounting_value(acc: &BTreeMap<String, u64>, key: &str) -> u64 {
    acc.get(key).copied().unwrap_or(0)
}

/// Run one pass over the three stages. With `armed` false the fault
/// registry stays disabled throughout — the baseline oracle's
/// fault-free reference.
fn run_pass(
    sc: &Scenario,
    dir: &Path,
    kill: Option<usize>,
    max_restarts: u64,
    armed: bool,
) -> PassOutcome {
    let arm = |plan: FaultPlan| {
        if armed {
            gtpin_faults::install(plan);
        } else {
            gtpin_faults::disable();
        }
    };
    let mut violations: Vec<String> = Vec::new();
    let mut accounting: BTreeMap<String, u64> = BTreeMap::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut result = digest;
    let specs = all_specs();
    let programs: Vec<HostProgram> = specs
        .iter()
        .take(2)
        .map(|s| build_program(s, Scale::Test))
        .collect();

    // The scenario's thread count governs every executor the trial
    // spawns, because which fault seams exist depends on the worker
    // count (the serial loop has no shards to overflow), and the
    // trial digest folds fault accounting.
    let mut gpu = GpuConfig::hd4000();
    gpu.exec.threads = sc.threads;

    // Stage 1: profile conservation under the full plan.
    arm(sc.plan());
    let (outcome, records) = profile_stage(sc, &programs, gpu);
    digest = fnv_fold(digest, b"profile:");
    digest = fnv_fold(digest, &outcome);
    result = fnv_fold(result, &outcome);
    let stage = gtpin_faults::take_accounting();
    fold_accounting(&mut accounting, stage);
    // A run that failed with a typed error has no complete profile to
    // check: its last launch never reached the drain.
    if let Some((dropped, quarantined)) = records {
        if sc.arms(site::RECORD_CORRUPT)
            && accounting_value(&accounting, "injected.trace.record_corrupt") > 0
            && quarantined == 0
        {
            violations.push("conservation: corrupt records injected but none quarantined".into());
        }
        if !sc.arms(site::SHARD_OVERFLOW)
            && !sc.arms(site::RECORD_CORRUPT)
            && (dropped != 0 || quarantined != 0)
        {
            violations.push(format!(
                "conservation: {dropped} dropped / {quarantined} quarantined with no trace faults armed"
            ));
        }
    }

    // Stage 2: journaled sweep through its crash/resume loop.
    let mut restarts = 0u64;
    if sc.arms(site::JOURNAL_CRASH) {
        gtpin_faults::disable();
        let baseline_opts = SweepOptions {
            threads: sc.threads,
            gpu,
            ..SweepOptions::default()
        };
        let baseline = run_sweep(&programs[..1], &baseline_opts)
            .map(|outcome| outcome.report.render())
            .unwrap_or_else(|e| format!("error: {e}"));

        arm(sc.plan());
        let sweep_dir = dir.join("sweep");
        let mut opts = SweepOptions {
            threads: sc.threads,
            gpu,
            journal_dir: Some(sweep_dir),
            resume: false,
            ..SweepOptions::default()
        };
        let outcome = loop {
            match run_sweep(&programs[..1], &opts) {
                Ok(outcome) => {
                    let rendered = outcome.report.render();
                    if !sc.arms_lossy() && rendered != baseline {
                        violations.push(
                            "sweep: resumed report diverged from the fault-free baseline".into(),
                        );
                    }
                    break rendered;
                }
                Err(JournalError::InjectedCrash { .. }) => {
                    restarts += 1;
                    opts.resume = true;
                    if restarts > max_restarts {
                        violations.push(format!(
                            "sweep: did not converge within {max_restarts} restart(s)"
                        ));
                        break "unconverged".to_string();
                    }
                }
                Err(e) => break format!("error: {e}"),
            }
        };
        digest = fnv_fold(digest, b"sweep:");
        digest = fnv_fold(digest, outcome.as_bytes());
        digest = fnv_fold(digest, &restarts.to_le_bytes());
        result = fnv_fold(result, outcome.as_bytes());
        fold_accounting(&mut accounting, gtpin_faults::take_accounting());
    }

    // Stage 3: the serve pipeline, optionally killed and resumed.
    arm(sc.serve_plan());
    let requests = serve_requests(sc, &specs);
    let serve_dir = dir.join("serve");
    let config = ServeConfig {
        journal_dir: Some(serve_dir.clone()),
        resume: false,
        threads: sc.threads,
        ..ServeConfig::default()
    };
    digest = fnv_fold(digest, b"serve:");
    let mut dropped_deliveries = 0u64;
    let (serve_digest, supervisor) = match SessionEngine::new(config.clone()) {
        Err(e) => {
            let rendered = format!("error: {e}");
            digest = fnv_fold(digest, rendered.as_bytes());
            (fnv_fold(0, rendered.as_bytes()), rendered)
        }
        Ok((engine, _)) => {
            let mut engine = engine;
            let kill_at = kill.unwrap_or(requests.len()).min(requests.len());
            for request in &requests[..kill_at] {
                serve_one(&engine, request, &mut dropped_deliveries);
            }
            if kill.is_some() {
                // The kill: drop the engine mid-pipeline, clear the
                // in-process fault occurrence state (a SIGKILL takes
                // that memory with it), and resume from the journal.
                drop(engine);
                fold_accounting(&mut accounting, gtpin_faults::take_accounting());
                arm(sc.serve_plan());
                match SessionEngine::new(ServeConfig {
                    resume: true,
                    ..config
                }) {
                    Ok((resumed, report)) => {
                        engine = resumed;
                        digest = fnv_fold(
                            digest,
                            format!(
                                "resume replayed {} recomputed {} reaped {}",
                                report.replayed, report.recomputed, report.reaped
                            )
                            .as_bytes(),
                        );
                    }
                    Err(e) => {
                        let rendered = format!("resume error: {e}");
                        violations.push(rendered.clone());
                        digest = fnv_fold(digest, rendered.as_bytes());
                        gtpin_faults::disable();
                        let acc = std::mem::take(&mut accounting);
                        return PassOutcome {
                            digest,
                            result,
                            serve_digest: 0,
                            supervisor: rendered,
                            accounting: acc.into_iter().collect(),
                            restarts,
                            violations,
                        };
                    }
                }
            }
            for request in &requests[kill_at..] {
                serve_one(&engine, request, &mut dropped_deliveries);
            }
            let serve_digest = engine.response_digest();
            let supervisor = format!("{:?}", engine.supervisor_report());
            (serve_digest, supervisor)
        }
    };
    digest = fnv_fold(digest, &serve_digest.to_le_bytes());
    result = fnv_fold(result, &serve_digest.to_le_bytes());
    digest = fnv_fold(digest, supervisor.as_bytes());
    digest = fnv_fold(digest, &dropped_deliveries.to_le_bytes());
    fold_accounting(&mut accounting, gtpin_faults::take_accounting());
    gtpin_faults::disable();

    // Global conservation oracle: the executor's append = stored +
    // dropped + quarantined identity is checked on every shard drain
    // and surfaces breakage as `violation.*` accounting keys.
    for key in accounting.keys() {
        if key.starts_with("violation.") {
            violations.push(format!("conservation: accounting reports {key}"));
        }
    }
    // Heal oracle: a corrupted canary leaves the cached value intact,
    // so results cannot show a skipped heal — only the books can.
    // Every corrupted sealed-cache read must have been healed.
    let corrupted = accounting_value(&accounting, "injected.cache.corrupt");
    let healed = accounting_value(&accounting, "recovered.cache_heal");
    if corrupted != healed {
        violations.push(format!(
            "heal: {corrupted} corrupted cache read(s) but {healed} heal(s)"
        ));
    }

    PassOutcome {
        digest,
        result,
        serve_digest,
        supervisor,
        accounting: accounting.into_iter().collect(),
        restarts,
        violations,
    }
}

/// Stage 1's profile: the outcome bytes both pass digests fold, and
/// — when every run completed — the trace records the profiles
/// dropped and quarantined.
type ProfileOutcome = (Vec<u8>, Option<(u64, u64)>);

/// Profile the first app with `profile_app`, or — for `trace_memory`
/// scenarios — every app with memory tracing on.
fn profile_stage(sc: &Scenario, programs: &[HostProgram], gpu: GpuConfig) -> ProfileOutcome {
    if sc.trace_memory {
        return traced_profile(programs, gpu);
    }
    match profile_app(&programs[0], gpu, 1) {
        Ok(profiled) => {
            let invocations = &profiled.data.invocations;
            let dropped: u64 = invocations.iter().map(|i| i.dropped_records).sum();
            let quarantined: u64 = invocations.iter().map(|i| i.quarantined_records).sum();
            let instructions: u64 = invocations.iter().map(|i| i.instructions).sum();
            let mut outcome = profiled.data.app.into_bytes();
            outcome.extend_from_slice(&(invocations.len() as u64).to_le_bytes());
            outcome.extend_from_slice(&instructions.to_le_bytes());
            outcome.extend_from_slice(&dropped.to_le_bytes());
            outcome.extend_from_slice(&quarantined.to_le_bytes());
            (outcome, Some((dropped, quarantined)))
        }
        Err(e) => (format!("error: {e}").into_bytes(), None),
    }
}

/// Run every program once under GT-Pin with every recording tool on
/// — basic-block counters, the kernel timer, and memory tracing —
/// and return the profiles' JSON (or typed errors) as the outcome.
/// Every app runs even after one fails. The second app matters: only
/// its kernels append enough records per hardware thread to make an
/// overflowing shard drain early.
fn traced_profile(programs: &[HostProgram], gpu: GpuConfig) -> ProfileOutcome {
    let mut outcome = Vec::new();
    let mut records = Some((0, 0));
    for program in programs {
        let mut device = Gpu::new(gpu);
        let gtpin = GtPin::new(RewriteConfig {
            count_basic_blocks: true,
            time_kernels: true,
            trace_memory: true,
            naive_per_instruction_counters: false,
        });
        gtpin.attach(&mut device);
        let mut runtime = OclRuntime::new(device);
        if let Err(e) = runtime.run(program, Schedule::Replay) {
            outcome.extend_from_slice(format!("error: {e}").as_bytes());
            records = None;
            continue;
        }
        let profile = gtpin.profile(&program.name);
        let dropped: u64 = profile.invocations.iter().map(|i| i.dropped_records).sum();
        let quarantined: u64 = profile
            .invocations
            .iter()
            .map(|i| i.quarantined_records)
            .sum();
        records = records.map(|(d, q)| (d + dropped, q + quarantined));
        let json = serde_json::to_string(&profile)
            .unwrap_or_else(|e| format!("unserializable profile: {e}"));
        outcome.extend_from_slice(json.as_bytes());
    }
    (outcome, records)
}

/// The scenario's serve request list: two apps, each profiled,
/// simulated, and linted, plus one exploration of the first app for
/// `explore` scenarios. Keep [`crate::scenario`]'s `request_count`
/// in sync with this shape.
fn serve_requests(sc: &Scenario, specs: &[workloads::WorkloadSpec]) -> Vec<Request> {
    let first = specs[0].name.to_string();
    let second = specs[1].name.to_string();
    let mut requests = vec![Request::Profile {
        app: first.clone(),
        scale: "test".to_string(),
    }];
    if sc.explore {
        requests.push(Request::Explore {
            app: first.clone(),
            scale: "test".to_string(),
            threshold_pct: 5.0,
        });
    }
    requests.push(Request::Sim {
        app: first.clone(),
        launches: 2,
    });
    requests.push(Request::Lint { app: first });
    requests.push(Request::Profile {
        app: second.clone(),
        scale: "test".to_string(),
    });
    requests.push(Request::Sim {
        app: second.clone(),
        launches: 2,
    });
    requests.push(Request::Lint { app: second });
    requests
}

/// Handle one request and deliver its response into a byte sink
/// through the `serve.conn_drop` seam (delivery loss must never
/// perturb the journaled/cached responses).
fn serve_one(engine: &SessionEngine, request: &Request, dropped: &mut u64) {
    let key = request.session_key();
    let result = engine.handle(request);
    let mut sink = Vec::new();
    match engine.deliver(&key, &result, &mut sink) {
        Ok(true) | Err(_) => {}
        Ok(false) => *dropped += 1,
    }
}

/// Scratch root for chaos trials.
pub fn default_scratch() -> PathBuf {
    std::env::temp_dir().join(format!("gtpin-chaos-{}", std::process::id()))
}
