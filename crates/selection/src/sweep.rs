//! The resumable exploration sweep: the paper's 25-app ×
//! 30-configuration study (Section V) as a supervised, crash-
//! consistent batch job.
//!
//! Work is cut at three **unit boundaries**, each journaled as one
//! durable record the moment it completes:
//!
//! 1. `profile/<app>` — the one native + instrumented profiling pass
//!    ([`profile_app`]), by far the most expensive unit;
//! 2. `eval/<app>/<index>` — one of the 30 interval/feature
//!    configuration evaluations (pure post-processing);
//! 3. `summary/<app>` — the app's selection summary (Figure 6/7
//!    rows), derived from its evaluations.
//!
//! A resumed sweep recovers the journal, **replays** recorded
//! outcomes through the same supervisor policy (deadlines, per-app
//! circuit breaker, global run budget), and recomputes only the
//! missing units. Because every unit is deterministic and every
//! recorded f64 round-trips bitwise through JSON, a resumed sweep's
//! final report is **bit-identical** to an uninterrupted run's — the
//! property `crates/selection/tests/prop_resume.rs` pins under
//! injected crash points and thread counts 1..=8.

use gpu_device::GpuConfig;
use gtpin_durable::{Journal, JournalError, Recovery};
use gtpin_par::{Outcome, Supervisor, SupervisorConfig};
use ocl_runtime::host::HostProgram;
use serde::{Deserialize, Serialize};
use simpoint::SimpointConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::data::AppData;
use crate::evaluate::{all_configs, evaluate_config_with_table, Evaluation};
use crate::explore::Exploration;
use crate::features::FeatureWeighting;
use crate::interval::{scheme_tables, table_memo};
use crate::pipeline::profile_app;

/// Everything a sweep run needs. `threads` is a pure wall-clock knob
/// — the report is bit-identical at any value — and is deliberately
/// *not* fingerprinted into the journal.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Co-optimization error threshold (Figure 7), in percent.
    pub threshold_pct: f64,
    /// Device configuration profiled against.
    pub gpu: GpuConfig,
    /// Supervision policy (deadlines, breaker, budget).
    pub supervisor: SupervisorConfig,
    /// Fan-out width for configuration evaluations.
    pub threads: usize,
    /// Journal directory: `None` runs without durability.
    pub journal_dir: Option<PathBuf>,
    /// When true, recover `journal_dir` and skip completed units;
    /// when false, `journal_dir` must be a fresh directory.
    pub resume: bool,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            threshold_pct: 3.0,
            gpu: GpuConfig::hd4000(),
            supervisor: SupervisorConfig::default(),
            threads: 1,
            journal_dir: None,
            resume: false,
        }
    }
}

/// One durable journal record — exactly one completed (or decided)
/// unit of sweep work, externally tagged JSON on disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UnitRecord {
    /// Run fingerprint, written first: a resume under different
    /// options would not reproduce the interrupted run, so it is
    /// rejected instead of producing a silently divergent report.
    Meta {
        /// `threshold_pct` of the run.
        threshold_pct: f64,
        /// Capture seed of the native recording. Always 1, as for
        /// every other `profile_app` caller; the field stays so sweep
        /// journals are unchanged and older ones still resume.
        capture_seed: u64,
        /// Supervisor deadline (0 = none).
        deadline_virtual_ns: u64,
        /// Breaker threshold.
        breaker_threshold: u32,
        /// Max tasks (0 = none).
        max_tasks: u64,
        /// Max virtual ns (0 = none).
        max_virtual_ns: u64,
        /// Dispatch round size.
        batch: u64,
        /// App names, in sweep order.
        apps: Vec<String>,
    },
    /// `profile/<app>` completed.
    ProfileDone {
        /// App name.
        app: String,
        /// Virtual nanoseconds the profiled execution spanned.
        virtual_ns: u64,
        /// The joined profile + timing dataset.
        data: AppData,
    },
    /// `profile/<app>` ran and failed.
    ProfileFailed {
        /// App name.
        app: String,
        /// The pipeline error, rendered.
        error: String,
    },
    /// `profile/<app>` was skipped by policy.
    ProfileSkipped {
        /// App name.
        app: String,
        /// `skip-breaker` or `skip-budget`.
        kind: String,
    },
    /// `eval/<app>/<index>` completed.
    EvalDone {
        /// App name.
        app: String,
        /// Configuration index in `all_configs` order.
        index: u64,
        /// Virtual cost charged (1 ns per dynamic instruction).
        virtual_ns: u64,
        /// The scored selection.
        evaluation: Evaluation,
    },
    /// `eval/<app>/<index>` ran and failed.
    EvalFailed {
        /// App name.
        app: String,
        /// Configuration index.
        index: u64,
        /// The selection error, rendered.
        error: String,
    },
    /// `eval/<app>/<index>` blew its virtual deadline.
    EvalDeadline {
        /// App name.
        app: String,
        /// Configuration index.
        index: u64,
        /// Virtual cost observed (> deadline).
        virtual_ns: u64,
    },
    /// `eval/<app>/<index>` was skipped by policy.
    EvalSkipped {
        /// App name.
        app: String,
        /// Configuration index.
        index: u64,
        /// `skip-breaker` or `skip-budget`.
        kind: String,
    },
    /// `summary/<app>` derived.
    Summary {
        /// App name.
        app: String,
        /// The derived summary.
        summary: AppSweepSummary,
    },
}

impl UnitRecord {
    /// The unit key this record completes.
    pub fn key(&self) -> String {
        match self {
            UnitRecord::Meta { .. } => "meta".into(),
            UnitRecord::ProfileDone { app, .. }
            | UnitRecord::ProfileFailed { app, .. }
            | UnitRecord::ProfileSkipped { app, .. } => format!("profile/{app}"),
            UnitRecord::EvalDone { app, index, .. }
            | UnitRecord::EvalFailed { app, index, .. }
            | UnitRecord::EvalDeadline { app, index, .. }
            | UnitRecord::EvalSkipped { app, index, .. } => format!("eval/{app}/{index:02}"),
            UnitRecord::Summary { app, .. } => format!("summary/{app}"),
        }
    }
}

fn skip_outcome<R>(kind: &str) -> Outcome<R, String> {
    if kind == "skip-budget" {
        Outcome::SkippedBudget
    } else {
        Outcome::SkippedBreakerOpen
    }
}

/// One configuration row of the final report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigRow {
    /// Rendered configuration name (`division/features`).
    pub config: String,
    /// Equation 1 error, percent.
    pub error_pct: f64,
    /// Simulation speedup (total ÷ selected instructions).
    pub speedup: f64,
    /// Cluster count.
    pub k: u64,
}

impl ConfigRow {
    fn from_eval(e: &Evaluation) -> ConfigRow {
        ConfigRow {
            config: e.config.to_string(),
            error_pct: e.error_pct,
            speedup: e.speedup(),
            k: e.selection.k as u64,
        }
    }
}

/// One selected interval of the co-optimized configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PickRow {
    /// First invocation of the interval.
    pub start: u64,
    /// One past the last invocation.
    pub end: u64,
    /// Representation ratio (Eq. 1 weight), renormalized over
    /// healthy intervals when any were quarantined.
    pub ratio: f64,
}

/// Per-application outcome of the sweep — the journaled `summary/`
/// unit and the row source of the final report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AppSweepSummary {
    /// App name.
    pub app: String,
    /// `ok`, `degraded` (breaker/eval failures), `budget`
    /// (units skipped by the run budget), or `profile-failed`.
    pub status: String,
    /// Rendered profile error when `status == "profile-failed"`.
    pub profile_error: Option<String>,
    /// Configurations evaluated successfully.
    pub evaluated: u64,
    /// Configurations that ran and failed.
    pub failed: u64,
    /// Configurations demoted for blowing the deadline.
    pub deadline_exceeded: u64,
    /// Configurations skipped behind the open breaker.
    pub skipped_breaker: u64,
    /// Configurations skipped after budget exhaustion.
    pub skipped_budget: u64,
    /// Virtual nanoseconds this app charged against the budget.
    pub virtual_ns: u64,
    /// Error-minimizing configuration (Figure 6 row).
    pub min_error: Option<ConfigRow>,
    /// Co-optimized configuration under the threshold (Figure 7 row).
    pub co_opt: Option<ConfigRow>,
    /// The co-optimized configuration's selected intervals.
    pub picks: Vec<PickRow>,
}

/// The sweep's final report. Everything here — including the
/// rendering — is a pure function of the work done, so a resumed run
/// reproduces it bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Co-optimization threshold applied, percent.
    pub threshold_pct: f64,
    /// Per-app summaries, in sweep order.
    pub apps: Vec<AppSweepSummary>,
    /// Apps whose status is not `ok`, in sweep order.
    pub degraded_apps: Vec<String>,
    /// Mean co-opt error over contributing apps (renormalized: the
    /// mean divides by the contributing count, not the app count).
    pub mean_error_pct: f64,
    /// Mean co-opt speedup over contributing apps.
    pub mean_speedup: f64,
    /// Apps contributing to the means.
    pub contributing_apps: u64,
    /// Units actually run (fresh or replayed-as-run).
    pub tasks_run: u64,
    /// Cumulative virtual nanoseconds charged.
    pub virtual_ns_spent: u64,
    /// True when the run budget cut the sweep short.
    pub budget_exhausted: bool,
}

impl SweepReport {
    /// Deterministic human rendering — the text `gtpin explore`
    /// prints and the kill-and-resume smoke diffs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "exploration sweep: {} app(s), co-opt threshold {:.2}%\n",
            self.apps.len(),
            self.threshold_pct
        ));
        out.push_str(&format!(
            "{:28} {:14} {:>5} {:>5} {:>5}  {}\n",
            "app", "status", "evals", "fail", "skip", "co-opt config / error% / speedup / k"
        ));
        for app in &self.apps {
            let co = match &app.co_opt {
                Some(row) => format!(
                    "{} / {:.3}% / {:.1}x / k={}",
                    row.config, row.error_pct, row.speedup, row.k
                ),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:28} {:14} {:>5} {:>5} {:>5}  {}\n",
                app.app,
                app.status,
                app.evaluated,
                app.failed + app.deadline_exceeded,
                app.skipped_breaker + app.skipped_budget,
                co
            ));
            for p in &app.picks {
                out.push_str(&format!(
                    "  simulate invocations [{:>6}, {:>6})  ratio {:.2}%\n",
                    p.start,
                    p.end,
                    p.ratio * 100.0
                ));
            }
        }
        if !self.degraded_apps.is_empty() {
            out.push_str(&format!("degraded: {}\n", self.degraded_apps.join(", ")));
        }
        if self.budget_exhausted {
            out.push_str(&format!(
                "run budget exhausted: partial results after {} task(s), {} virtual ns\n",
                self.tasks_run, self.virtual_ns_spent
            ));
        }
        out.push_str(&format!(
            "mean co-opt error {:.3}%  mean speedup {:.1}x  (over {} contributing app(s))\n",
            self.mean_error_pct, self.mean_speedup, self.contributing_apps
        ));
        out
    }
}

/// Volatile side-channel of one run — differs between a fresh and a
/// resumed run, so it is *never* part of the report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Units replayed from the journal.
    pub resumed_units: u64,
    /// Units executed fresh this run.
    pub executed_units: u64,
    /// What recovery found (resume runs only).
    pub recovery: Option<Recovery>,
}

/// A finished sweep: the deterministic report plus volatile stats.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The deterministic final report.
    pub report: SweepReport,
    /// Fresh/replayed accounting for this particular run.
    pub stats: SweepStats,
}

/// The journal-backed unit cache plus append half of a run.
struct UnitStore {
    journal: Option<Journal>,
    cache: BTreeMap<String, UnitRecord>,
    stats: SweepStats,
}

impl UnitStore {
    fn open(opts: &SweepOptions) -> Result<UnitStore, JournalError> {
        let mut stats = SweepStats::default();
        let (journal, cache) = match &opts.journal_dir {
            None => (None, BTreeMap::new()),
            Some(dir) if opts.resume => {
                let (journal, recovery) = Journal::recover(dir)?;
                let mut cache = BTreeMap::new();
                for payload in &recovery.records {
                    let text = String::from_utf8_lossy(payload);
                    let record: UnitRecord =
                        serde_json::from_str(&text).map_err(|e| JournalError::NotAJournal {
                            path: dir.clone(),
                            reason: format!("unparseable sweep record: {e}"),
                        })?;
                    cache.insert(record.key(), record);
                }
                stats.recovery = Some(recovery);
                (Some(journal), cache)
            }
            Some(dir) => (Some(Journal::create(dir)?), BTreeMap::new()),
        };
        Ok(UnitStore {
            journal,
            cache,
            stats,
        })
    }

    fn cached(&self, key: &str) -> Option<&UnitRecord> {
        self.cache.get(key)
    }

    /// Persist a freshly-completed unit. No-op without a journal.
    fn commit(&mut self, record: &UnitRecord) -> Result<(), JournalError> {
        self.stats.executed_units += 1;
        gtpin_obs::counter_add("sweep.executed_units", 1);
        if let Some(journal) = &mut self.journal {
            let json = serde_json::to_string(record).map_err(|e| JournalError::NotAJournal {
                path: journal.dir().to_path_buf(),
                reason: format!("unserializable sweep record: {e}"),
            })?;
            journal.append(json.as_bytes())?;
        }
        Ok(())
    }

    fn note_replayed(&mut self) {
        self.stats.resumed_units += 1;
        gtpin_obs::counter_add("sweep.resumed_units", 1);
    }
}

fn meta_record(opts: &SweepOptions, apps: &[String]) -> UnitRecord {
    UnitRecord::Meta {
        threshold_pct: opts.threshold_pct,
        capture_seed: 1,
        deadline_virtual_ns: opts.supervisor.deadline_virtual_ns.unwrap_or(0),
        breaker_threshold: opts.supervisor.breaker_threshold,
        max_tasks: opts.supervisor.max_tasks.unwrap_or(0),
        max_virtual_ns: opts.supervisor.max_virtual_ns.unwrap_or(0),
        batch: opts.supervisor.batch as u64,
        apps: apps.to_vec(),
    }
}

/// Run (or resume) the exploration sweep over `programs`.
///
/// # Errors
///
/// Returns [`JournalError`] when the journal cannot be created,
/// recovered, or appended to — including
/// [`JournalError::InjectedCrash`] when the `journal.crash` fault
/// simulates process death mid-append (the sweep is then considered
/// interrupted, exactly like a `SIGKILL`, and can be resumed).
/// Unit-level failures (profile errors, selection errors, deadline
/// and budget skips) are *not* errors: they degrade gracefully into
/// the report.
pub fn run_sweep(
    programs: &[HostProgram],
    opts: &SweepOptions,
) -> Result<SweepOutcome, JournalError> {
    let mut span = gtpin_obs::span("sweep.run");
    if span.active() {
        span.arg_u64("apps", programs.len() as u64);
        span.arg_u64("threads", opts.threads as u64);
    }
    let app_names: Vec<String> = programs.iter().map(|p| p.name.clone()).collect();
    let mut store = UnitStore::open(opts)?;

    // Fingerprint gate: resuming under different options would not
    // reproduce the interrupted run.
    let meta = meta_record(opts, &app_names);
    match store.cached("meta").cloned() {
        Some(found) if found != meta => {
            let dir = opts.journal_dir.clone().unwrap_or_default();
            return Err(JournalError::NotAJournal {
                path: dir,
                reason: "journal was written under different sweep options \
                         (threshold, seed, budget, or app list changed)"
                    .into(),
            });
        }
        Some(_) => store.note_replayed(),
        None => store.commit(&meta)?,
    }

    let mut supervisor = Supervisor::new(opts.supervisor.clone());
    let mut summaries: Vec<AppSweepSummary> = Vec::with_capacity(programs.len());

    for program in programs {
        let app = program.name.clone();
        let summary = sweep_one_app(program, &app, opts, &mut supervisor, &mut store)?;
        summaries.push(summary);
    }

    let degraded_apps: Vec<String> = summaries
        .iter()
        .filter(|s| s.status != "ok")
        .map(|s| s.app.clone())
        .collect();
    let (mut err_sum, mut speedup_sum, mut contributing) = (0.0f64, 0.0f64, 0u64);
    for s in &summaries {
        if let Some(row) = &s.co_opt {
            err_sum += row.error_pct;
            speedup_sum += row.speedup;
            contributing += 1;
        }
    }
    let n = (contributing.max(1)) as f64;
    let sup_report = supervisor.report();
    let report = SweepReport {
        threshold_pct: opts.threshold_pct,
        apps: summaries,
        degraded_apps,
        mean_error_pct: err_sum / n,
        mean_speedup: speedup_sum / n,
        contributing_apps: contributing,
        tasks_run: sup_report.tasks_run,
        virtual_ns_spent: sup_report.virtual_ns_spent,
        budget_exhausted: sup_report.budget_exhausted,
    };
    Ok(SweepOutcome {
        report,
        stats: store.stats,
    })
}

/// Profile, evaluate, and summarize one app, journaling each unit.
fn sweep_one_app(
    program: &HostProgram,
    app: &str,
    opts: &SweepOptions,
    supervisor: &mut Supervisor,
    store: &mut UnitStore,
) -> Result<AppSweepSummary, JournalError> {
    // Fast path: the whole app is already journaled. Its units still
    // replay through the supervisor so breaker/budget state (and the
    // report totals) walk the identical trajectory.
    let profile_key = format!("profile/{app}");
    let cached_profile: Option<Outcome<AppData, String>> =
        store.cached(&profile_key).map(|r| match r {
            UnitRecord::ProfileDone {
                virtual_ns, data, ..
            } => Outcome::Done {
                value: data.clone(),
                virtual_ns: *virtual_ns,
            },
            UnitRecord::ProfileFailed { error, .. } => Outcome::Failed(error.clone()),
            UnitRecord::ProfileSkipped { kind, .. } => skip_outcome(kind),
            other => Outcome::Failed(format!("wrong record under {profile_key}: {other:?}")),
        });
    let profile_was_cached = cached_profile.is_some();

    let profile_outcomes = supervisor.run_units(
        app,
        std::slice::from_ref(program),
        1,
        |_| cached_profile.clone(),
        |_, program| {
            profile_app(program, opts.gpu, 1)
                .map(|profiled| {
                    let virtual_ns = (profiled.data.total_seconds() * 1e9) as u64;
                    (profiled.data, virtual_ns)
                })
                .map_err(|e| e.to_string())
        },
    );
    let profile_outcome = profile_outcomes
        .into_iter()
        .next()
        .expect("one profile unit per app");
    if profile_was_cached {
        store.note_replayed();
    } else {
        store.commit(&match &profile_outcome {
            Outcome::Done { value, virtual_ns } => UnitRecord::ProfileDone {
                app: app.to_string(),
                virtual_ns: *virtual_ns,
                data: value.clone(),
            },
            Outcome::Failed(e) => UnitRecord::ProfileFailed {
                app: app.to_string(),
                error: e.clone(),
            },
            other => UnitRecord::ProfileSkipped {
                app: app.to_string(),
                kind: other.kind().to_string(),
            },
        })?;
    }

    let (data, profile_ns) = match profile_outcome {
        Outcome::Done { value, virtual_ns } => (value, virtual_ns),
        Outcome::Failed(error) => {
            return finish_summary(
                store,
                AppSweepSummary {
                    app: app.to_string(),
                    status: "profile-failed".into(),
                    profile_error: Some(error),
                    ..AppSweepSummary::default()
                },
            );
        }
        other => {
            return finish_summary(
                store,
                AppSweepSummary {
                    app: app.to_string(),
                    status: "budget".into(),
                    skipped_budget: u64::from(other.kind() == "skip-budget"),
                    ..AppSweepSummary::default()
                },
            );
        }
    };

    // The 30 configuration evaluations, in fixed `all_configs`
    // order. Tables are built lazily: a fully-journaled app never
    // pays for trace division again.
    let approx = crate::interval::default_approx_target(&data);
    let configs = all_configs(approx);
    let mut memo = table_memo();
    let all_cached =
        (0..configs.len()).all(|i| store.cached(&format!("eval/{app}/{i:02}")).is_some());
    if !all_cached {
        scheme_tables(&mut memo, &data, &configs);
    }

    // Dispatch in explicit `batch`-sized chunks so each chunk's
    // outcomes are journaled before the next chunk starts — that is
    // the crash granularity — while the supervisor sees the same
    // round boundaries an uninterrupted run would.
    let batch = supervisor.config().batch;
    let simpoint = SimpointConfig::default();
    let mut outcomes: Vec<Outcome<Evaluation, String>> = Vec::with_capacity(configs.len());
    let mut chunk_start = 0usize;
    while chunk_start < configs.len() {
        let chunk_end = (chunk_start + batch).min(configs.len());
        let chunk = &configs[chunk_start..chunk_end];
        // Verify the memoized tables at the chunk boundary — the
        // serial point between dispatches. Tables live across all 30
        // evaluations; a corrupted one heals here (rebuilt bitwise
        // identical from `data`) before any worker reads it. The
        // schedule is chunk-count-driven, so it replays identically
        // at every thread count.
        let tables = if all_cached {
            Vec::new()
        } else {
            scheme_tables(&mut memo, &data, &configs)
        };
        let chunk_outcomes = supervisor.run_units(
            app,
            chunk,
            opts.threads,
            |j| {
                let i = chunk_start + j;
                store
                    .cached(&format!("eval/{app}/{i:02}"))
                    .map(|r| match r {
                        UnitRecord::EvalDone {
                            virtual_ns,
                            evaluation,
                            ..
                        } => Outcome::Done {
                            value: evaluation.clone(),
                            virtual_ns: *virtual_ns,
                        },
                        UnitRecord::EvalFailed { error, .. } => Outcome::Failed(error.clone()),
                        UnitRecord::EvalDeadline { virtual_ns, .. } => Outcome::DeadlineExceeded {
                            virtual_ns: *virtual_ns,
                        },
                        UnitRecord::EvalSkipped { kind, .. } => skip_outcome(kind),
                        other => Outcome::Failed(format!("wrong record under eval: {other:?}")),
                    })
            },
            |j, cfg| {
                let i = chunk_start + j;
                evaluate_config_with_table(
                    &data,
                    *cfg,
                    &tables[i],
                    &simpoint,
                    FeatureWeighting::InstructionWeighted,
                )
                .map(|e| {
                    // Virtual cost model: one virtual ns per dynamic
                    // instruction the evaluation had to weigh.
                    let virtual_ns = e.total_instructions;
                    (e, virtual_ns)
                })
                .map_err(|e| e.to_string())
            },
        );
        for (j, outcome) in chunk_outcomes.iter().enumerate() {
            let i = chunk_start + j;
            let key = format!("eval/{app}/{i:02}");
            if store.cached(&key).is_some() {
                store.note_replayed();
                continue;
            }
            let index = i as u64;
            store.commit(&match outcome {
                Outcome::Done { value, virtual_ns } => UnitRecord::EvalDone {
                    app: app.to_string(),
                    index,
                    virtual_ns: *virtual_ns,
                    evaluation: value.clone(),
                },
                Outcome::Failed(e) => UnitRecord::EvalFailed {
                    app: app.to_string(),
                    index,
                    error: e.clone(),
                },
                Outcome::DeadlineExceeded { virtual_ns } => UnitRecord::EvalDeadline {
                    app: app.to_string(),
                    index,
                    virtual_ns: *virtual_ns,
                },
                other => UnitRecord::EvalSkipped {
                    app: app.to_string(),
                    index,
                    kind: other.kind().to_string(),
                },
            })?;
        }
        outcomes.extend(chunk_outcomes);
        chunk_start = chunk_end;
    }

    // Derive the app summary from the outcome sequence.
    let summary_key = format!("summary/{app}");
    if let Some(UnitRecord::Summary { summary, .. }) = store.cached(&summary_key) {
        let summary = summary.clone();
        store.note_replayed();
        return Ok(summary);
    }
    let mut evaluations: Vec<Evaluation> = Vec::new();
    let (mut failed, mut deadline, mut skip_breaker, mut skip_budget) = (0u64, 0u64, 0u64, 0u64);
    let mut eval_ns = 0u64;
    for outcome in &outcomes {
        eval_ns += outcome.virtual_ns();
        match outcome {
            Outcome::Done { value, .. } => evaluations.push(value.clone()),
            Outcome::Failed(_) => failed += 1,
            Outcome::DeadlineExceeded { .. } => deadline += 1,
            Outcome::SkippedBreakerOpen => skip_breaker += 1,
            Outcome::SkippedBudget => skip_budget += 1,
        }
    }
    let exploration = Exploration {
        app: app.to_string(),
        evaluations,
    };
    let min_error = exploration.min_error().map(ConfigRow::from_eval);
    let co_opt = exploration.co_optimize(opts.threshold_pct);
    let picks = co_opt
        .map(|e| {
            e.selection
                .picks
                .iter()
                .map(|p| {
                    let iv = e.intervals[p.interval];
                    PickRow {
                        start: iv.start as u64,
                        end: iv.end as u64,
                        ratio: p.ratio,
                    }
                })
                .collect()
        })
        .unwrap_or_default();
    let co_opt = co_opt.map(ConfigRow::from_eval);
    let status = if skip_budget > 0 {
        "budget"
    } else if skip_breaker > 0 || failed + deadline > 0 || supervisor.group_degraded(app) {
        "degraded"
    } else {
        "ok"
    };
    finish_summary(
        store,
        AppSweepSummary {
            app: app.to_string(),
            status: status.into(),
            profile_error: None,
            evaluated: exploration.evaluations.len() as u64,
            failed,
            deadline_exceeded: deadline,
            skipped_breaker: skip_breaker,
            skipped_budget: skip_budget,
            virtual_ns: profile_ns + eval_ns,
            min_error,
            co_opt,
            picks,
        },
    )
}

/// Journal and return a freshly-derived summary.
fn finish_summary(
    store: &mut UnitStore,
    summary: AppSweepSummary,
) -> Result<AppSweepSummary, JournalError> {
    // A cached summary is handled by the caller; reaching here means
    // the summary was derived fresh this run.
    store.commit(&UnitRecord::Summary {
        app: summary.app.clone(),
        summary: summary.clone(),
    })?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen_isa::ExecSize;
    use ocl_runtime::api::{ArgValue, KernelId, SyncCall};
    use ocl_runtime::host::{HostScriptBuilder, ProgramSource};
    use ocl_runtime::ir::{IrOp, KernelIr, TripCount};

    fn program(name: &str, epochs: u64) -> HostProgram {
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
        let mut b = HostScriptBuilder::new(name, ProgramSource { kernels: vec![k] });
        for e in 0..epochs {
            for i in 0..3u64 {
                b.set_arg(KernelId(0), 0, ArgValue::Scalar(5 + 3 * ((e + i) % 3)));
                b.launch(KernelId(0), 128);
            }
            b.sync(SyncCall::Finish);
        }
        b.finish().unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gtpin-sweep-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sweep_without_journal_produces_full_report() {
        let programs = vec![program("sw-a", 3), program("sw-b", 4)];
        let out = run_sweep(&programs, &SweepOptions::default()).unwrap();
        assert_eq!(out.report.apps.len(), 2);
        for app in &out.report.apps {
            assert_eq!(app.status, "ok");
            assert_eq!(app.evaluated, 30);
            assert!(app.co_opt.is_some());
        }
        assert!(out.report.degraded_apps.is_empty());
        assert_eq!(out.report.contributing_apps, 2);
        assert!(!out.report.render().is_empty());
        assert_eq!(out.stats.resumed_units, 0);
        // meta + 2 × (profile + 30 evals + summary)
        assert_eq!(out.stats.executed_units, 1 + 2 * 32);
    }

    #[test]
    fn journaled_rerun_replays_everything_bit_identically() {
        let programs = vec![program("sw-j", 3)];
        let dir = tmpdir("rerun");
        let fresh = run_sweep(
            &programs,
            &SweepOptions {
                journal_dir: Some(dir.clone()),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let resumed = run_sweep(
            &programs,
            &SweepOptions {
                journal_dir: Some(dir.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.report, fresh.report);
        assert_eq!(resumed.report.render(), fresh.report.render());
        assert_eq!(
            serde_json::to_string(&resumed.report).unwrap(),
            serde_json::to_string(&fresh.report).unwrap()
        );
        assert_eq!(resumed.stats.executed_units, 0, "everything cached");
        assert_eq!(resumed.stats.resumed_units, 1 + 32);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_under_different_options_is_rejected() {
        let programs = vec![program("sw-m", 3)];
        let dir = tmpdir("meta");
        run_sweep(
            &programs,
            &SweepOptions {
                journal_dir: Some(dir.clone()),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let err = run_sweep(
            &programs,
            &SweepOptions {
                journal_dir: Some(dir.clone()),
                resume: true,
                threshold_pct: 9.0,
                ..SweepOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, JournalError::NotAJournal { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_exhaustion_degrades_to_partial_report() {
        let programs = vec![program("sw-ba", 3), program("sw-bb", 3)];
        let opts = SweepOptions {
            supervisor: SupervisorConfig {
                max_tasks: Some(10),
                batch: 8,
                ..SupervisorConfig::default()
            },
            ..SweepOptions::default()
        };
        let out = run_sweep(&programs, &opts).unwrap();
        assert!(out.report.budget_exhausted);
        // Rounds are atomic: profile (1) + two full eval rounds of 8
        // run before the between-round budget gate fires at 17 ≥ 10.
        assert_eq!(out.report.tasks_run, 17);
        let statuses: Vec<&str> = out.report.apps.iter().map(|a| a.status.as_str()).collect();
        assert!(statuses.contains(&"budget"), "statuses: {statuses:?}");
        assert!(!out.report.degraded_apps.is_empty());
        assert!(out.report.render().contains("run budget exhausted"));
    }

    #[test]
    fn budget_partial_report_is_resume_stable() {
        let programs = vec![program("sw-bp", 3), program("sw-bq", 3)];
        let opts = |dir: Option<PathBuf>, resume: bool| SweepOptions {
            supervisor: SupervisorConfig {
                max_tasks: Some(12),
                ..SupervisorConfig::default()
            },
            journal_dir: dir,
            resume,
            ..SweepOptions::default()
        };
        let baseline = run_sweep(&programs, &opts(None, false)).unwrap();
        let dir = tmpdir("budget");
        let journaled = run_sweep(&programs, &opts(Some(dir.clone()), false)).unwrap();
        assert_eq!(journaled.report, baseline.report);
        let resumed = run_sweep(&programs, &opts(Some(dir.clone()), true)).unwrap();
        assert_eq!(resumed.report, baseline.report);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
