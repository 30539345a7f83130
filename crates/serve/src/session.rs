//! The session engine: admission control, memoized computation,
//! journaled outcomes, and crash resume.
//!
//! One [`SessionEngine`] lives for the lifetime of the daemon and is
//! shared by every connection thread. A session walks a fixed
//! pipeline:
//!
//! 1. **Response cache.** Equal requests share one
//!    [`Request::session_key`]; a key with a journaled/cached
//!    terminal result is served directly — no admission charge, no
//!    recompute, bit-identical bytes.
//! 2. **Admission ticket.** The concurrent-session cap sheds with
//!    `error[busy]`; [`Supervisor::admit`] sheds `error[budget]`
//!    (global budget) or `error[busy]` (per-app breaker open) —
//!    deterministic typed errors, never a queue.
//! 3. **Journal Start.** The request is recorded before compute, so
//!    a SIGKILL mid-session leaves a Start without a Finish and the
//!    resumed daemon knows to recompute it.
//! 4. **Compute under `catch_unwind`.** A panicking handler (the
//!    `serve.session_crash` fault site) is demoted to a typed
//!    `error[session]` outcome; sibling sessions never notice.
//! 5. **Judge + finish.** The supervisor applies the virtual-clock
//!    deadline and folds the outcome into breaker/budget state —
//!    the same policy trajectory `run_units` walks for batch sweeps.
//! 6. **Journal Finish + cache.** The terminal result is durable
//!    before it is delivered; delivery failures
//!    (`serve.conn_drop`) lose nothing.
//!
//! Cross-request memoization: the expensive artifacts — the one-time
//! profiling pass and the 30-configuration interval-table sweep —
//! are cached per `(app, scale)`, so a `profile` and any number of
//! `explore`s at different thresholds share one pass.

use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use gpu_device::{GpuConfig, GpuGeneration};
use gtpin_durable::Journal;
use gtpin_faults::{site, Memo};
use gtpin_obs::frame::fnv_fold;
use gtpin_par::config::DEFAULT_LEASE_VIRTUAL_MS;
use gtpin_par::{Admission, Outcome, Supervisor, SupervisorConfig};
use serde::{Deserialize, Serialize};
use simpoint::SimpointConfig;
use subset_select::{default_approx_target, profile_app, Exploration, ProfiledApp};
use workloads::{build_program, spec_by_name, Scale};

use crate::report::{render_selection, simulate_program, SimError};
use crate::wire::{self, Request, Response};
use crate::ServeError;

/// Daemon configuration. `gtpin serve` fills the supervision,
/// thread and lease fields from its [`gtpin_par::RunConfig`]; the
/// default leaves them at the library defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path the daemon binds.
    pub socket: PathBuf,
    /// Session journal directory; `None` disables durability.
    pub journal_dir: Option<PathBuf>,
    /// Recover `journal_dir` instead of creating it fresh.
    pub resume: bool,
    /// Concurrent-session cap; the N+1th simultaneous session sheds
    /// with `error[busy]` instead of queueing.
    pub max_sessions: usize,
    /// Admission policy (deadline, breaker, budget).
    pub supervisor: SupervisorConfig,
    /// Worker threads for per-session fan-out: exploration workers,
    /// executor hardware-thread fan-out, and detailed-sim shard
    /// workers are all pinned here, so a session's behavior
    /// (including which fault seams it exercises) is a pure function
    /// of this config.
    pub threads: usize,
    /// Session lease length in virtual milliseconds (`GTPIN_LEASE_MS`,
    /// 0 disables): each journaled Start carries a virtual-clock
    /// deadline, and the resume reaper reclaims pending sessions
    /// whose deadline the clock has passed into `error[lease]`
    /// instead of recomputing them.
    pub lease_virtual_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            socket: crate::default_socket(),
            journal_dir: None,
            resume: false,
            max_sessions: 8,
            supervisor: SupervisorConfig::default(),
            threads: 1,
            lease_virtual_ms: DEFAULT_LEASE_VIRTUAL_MS,
        }
    }
}

/// The terminal result of one session — exactly what gets journaled,
/// cached, and rendered to response frames. No volatile fields: a
/// resumed daemon's result is bit-identical to a fresh one's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionResult {
    /// The session completed; `report` is the full deterministic
    /// report text.
    Done {
        /// Report text, streamed to the client one line per chunk.
        report: String,
        /// Virtual nanoseconds charged against the run budget.
        virtual_ns: u64,
    },
    /// The session failed or was demoted; `kind` matches the CLI's
    /// `error[kind]` taxonomy.
    Failed {
        /// Stable error-kind label (`busy`, `budget`, `deadline`,
        /// `session`, `cli`, `run`, ...).
        kind: String,
        /// Human-readable message.
        message: String,
        /// Virtual nanoseconds charged (deadline demotions still
        /// cost their virtual time).
        virtual_ns: u64,
    },
}

impl SessionResult {
    /// True for shed/failed sessions.
    pub fn is_err(&self) -> bool {
        matches!(self, SessionResult::Failed { .. })
    }

    /// Render as the wire frames a client receives: one
    /// [`Response::Chunk`] per report line, then the terminal frame.
    pub fn responses(&self) -> Vec<Response> {
        match self {
            SessionResult::Done { report, .. } => {
                let mut out: Vec<Response> = report
                    .split_inclusive('\n')
                    .map(|line| Response::Chunk {
                        text: line.to_string(),
                    })
                    .collect();
                out.push(Response::Done);
                out
            }
            SessionResult::Failed { kind, message, .. } => vec![Response::Err {
                kind: kind.clone(),
                message: message.clone(),
            }],
        }
    }
}

/// One record of the session journal, serialized as JSON inside the
/// `GTJRNL01` framing. `Start` is appended before compute, `Finish`
/// after — a Start without a matching Finish marks a session the
/// crash interrupted.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SessionRecord {
    /// A session was admitted and is about to compute.
    Start {
        /// The session key ([`Request::session_key`]).
        key: String,
        /// The full request, so resume can recompute it.
        request: Request,
    },
    /// A session reached its terminal result.
    Finish {
        /// The session key.
        key: String,
        /// The supervisor group (the app) the outcome is charged to.
        app: String,
        /// The terminal result, replayed verbatim on resume.
        result: SessionResult,
    },
    /// A lease on a started session: if the virtual clock passes
    /// `deadline_virtual_ns` with no Finish journaled, the resume
    /// reaper reclaims the session into `error[lease]` instead of
    /// recomputing it. A separate record (not a `Start` field) so
    /// pre-lease journals replay unchanged.
    Lease {
        /// The session key the lease covers.
        key: String,
        /// The supervisor group the reaped outcome is charged to.
        app: String,
        /// Virtual-clock deadline in nanoseconds.
        deadline_virtual_ns: u64,
    },
}

/// What resume recovered, for the daemon's stderr report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResumeReport {
    /// Completed sessions replayed from the journal.
    pub replayed: usize,
    /// Interrupted sessions (Start without Finish) recomputed.
    pub recomputed: usize,
    /// Torn records recovery truncated away.
    pub torn_records: usize,
    /// Orphan `.tmp` segments recovery swept.
    pub orphan_tmps: usize,
    /// Pending sessions whose lease had expired, reclaimed into
    /// `error[lease]` by the virtual-clock reaper.
    pub reaped: usize,
}

/// Mutex guard that survives poisoning: a caught session panic must
/// never wedge the daemon's shared state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The shared state behind every connection of one daemon lifetime.
pub struct SessionEngine {
    config: ServeConfig,
    supervisor: Mutex<Supervisor>,
    journal: Option<Mutex<Journal>>,
    /// Terminal results by session key — the response cache and the
    /// journal's in-memory mirror. A plain map, not sealed.
    responses: Mutex<BTreeMap<String, SessionResult>>,
    /// One-time profiling passes by `app/scale`, shared by `profile`
    /// and `explore` sessions, sealed over the serialized trace data.
    /// An unknown app or scale fails before any insert.
    profiles: Mutex<Memo<String, ProfiledApp>>,
    /// 30-configuration sweeps by `app/scale`; the co-optimization
    /// threshold only affects selection over the finished sweep, so
    /// explores at different thresholds share one entry. Sealed over
    /// its JSON.
    explorations: Mutex<Memo<String, Exploration>>,
    /// Structural analyses by kernel **content hash** — apps sharing
    /// a kernel binary share its dominator/loop/cost analysis, and a
    /// re-request of the same app re-renders from the memo instead
    /// of re-walking the CFG. Sealed over the rendered report text.
    analyses: Mutex<Memo<u64, gtpin_analyze::KernelReport>>,
    /// Sessions currently computing (admission cap).
    active: AtomicUsize,
}

impl SessionEngine {
    /// Build an engine under `config`: create or recover the journal
    /// and — when resuming — replay completed sessions through the
    /// supervisor and recompute the interrupted ones.
    pub fn new(config: ServeConfig) -> Result<(SessionEngine, ResumeReport), ServeError> {
        let mut report = ResumeReport::default();
        let mut journal = None;
        let mut replay: Vec<SessionRecord> = Vec::new();
        if let Some(dir) = &config.journal_dir {
            if config.resume {
                let (j, recovery) = Journal::recover(dir)?;
                report.torn_records = recovery.torn_records;
                report.orphan_tmps = recovery.orphan_tmps;
                for payload in &recovery.records {
                    // Unparsable records are recovery debris, not
                    // fatal: the session they belonged to recomputes.
                    if let Ok(record) =
                        serde_json::from_str::<SessionRecord>(&String::from_utf8_lossy(payload))
                    {
                        replay.push(record);
                    }
                }
                journal = Some(Mutex::new(j));
            } else {
                journal = Some(Mutex::new(Journal::create(dir)?));
            }
        }

        let engine = SessionEngine {
            supervisor: Mutex::new(Supervisor::new(config.supervisor.clone())),
            journal,
            responses: Mutex::new(BTreeMap::new()),
            profiles: Mutex::new(Memo::new(
                "serve.profile",
                Some(("serve.memo_profile_hit", "serve.memo_profile_miss")),
            )),
            explorations: Mutex::new(Memo::new(
                "serve.exploration",
                Some(("serve.memo_explore_hit", "serve.memo_explore_miss")),
            )),
            analyses: Mutex::new(Memo::new(
                "serve.analysis",
                Some(("serve.memo_analyze_hit", "serve.memo_analyze_miss")),
            )),
            active: AtomicUsize::new(0),
            config,
        };

        // Replay finished sessions in journal order so the resumed
        // supervisor walks the identical breaker/budget trajectory,
        // then sweep the interrupted ones (Start, no Finish): a
        // pending session whose lease deadline the virtual clock has
        // passed is *reaped* into `error[lease]` — it was stuck, and
        // recomputing it would re-run work the original owner may
        // still be mid-flight on — while an unexpired (or unleased)
        // one recomputes as before.
        let mut pending: Vec<(String, Request)> = Vec::new();
        let mut leases: BTreeMap<String, u64> = BTreeMap::new();
        for record in replay {
            match record {
                SessionRecord::Start { key, request } => {
                    if !pending.iter().any(|(k, _)| *k == key) {
                        pending.push((key, request));
                    }
                }
                SessionRecord::Finish { key, app, result } => {
                    pending.retain(|(k, _)| *k != key);
                    leases.remove(&key);
                    engine.replay_finish(&app, &key, result);
                    report.replayed += 1;
                }
                SessionRecord::Lease {
                    key,
                    deadline_virtual_ns,
                    ..
                } => {
                    leases.insert(key, deadline_virtual_ns);
                }
            }
        }
        let virtual_now = lock(&engine.supervisor).report().virtual_ns_spent;
        for (key, request) in pending {
            if lock(&engine.responses).contains_key(&key) {
                continue;
            }
            if let Some(&deadline) = leases.get(&key) {
                if deadline <= virtual_now {
                    engine.reap(&key, &request, deadline, virtual_now);
                    report.reaped += 1;
                    continue;
                }
            }
            gtpin_obs::counter_add("serve.resume_recomputed", 1);
            engine.handle(&request);
            report.recomputed += 1;
        }
        Ok((engine, report))
    }

    /// Reclaim a pending session whose lease expired: journal a
    /// durable `error[lease]` Finish, charge the supervisor a
    /// failure, and cache the typed result — all deterministic, so a
    /// second resume replays the identical trajectory.
    fn reap(&self, key: &str, request: &Request, deadline_virtual_ns: u64, virtual_now: u64) {
        let app = request.app().to_string();
        let result = SessionResult::Failed {
            kind: "lease".to_string(),
            message: format!(
                "session lease expired at {deadline_virtual_ns} virtual ns \
                 (clock {virtual_now}); reclaimed by the reaper"
            ),
            virtual_ns: 0,
        };
        lock(&self.supervisor).finish(&app, &Outcome::<(), ()>::Failed(()));
        self.journal_append(&SessionRecord::Finish {
            key: key.to_string(),
            app,
            result: result.clone(),
        });
        lock(&self.responses).insert(key.to_string(), result);
        gtpin_obs::counter_add("lease.reaped", 1);
        gtpin_faults::note("recovered.lease_reaped", 1);
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The cached terminal result for a session key, if any.
    pub fn cached(&self, key: &str) -> Option<SessionResult> {
        lock(&self.responses).get(key).cloned()
    }

    /// Deterministic digest over every cached terminal result —
    /// the chaos harness's identity oracles compare this.
    pub fn response_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (key, result) in lock(&self.responses).iter() {
            h = fnv_fold(h, key.as_bytes());
            let json = serde_json::to_string(result).unwrap_or_default();
            h = fnv_fold(h, json.as_bytes());
        }
        h
    }

    /// Snapshot of the supervisor's accounting.
    pub fn supervisor_report(&self) -> gtpin_par::SupervisorReport {
        lock(&self.supervisor).report()
    }

    /// Serve one request to its terminal result. Never panics and
    /// never blocks indefinitely: overload and policy rejections
    /// come back as typed [`SessionResult::Failed`] values.
    pub fn handle(&self, request: &Request) -> SessionResult {
        let key = request.session_key();
        let mut span = gtpin_obs::span("serve.session");
        if span.active() {
            span.arg_str("kind", request.kind().to_string());
            span.arg_str("app", request.app().to_string());
        }
        gtpin_obs::counter_add("serve.sessions", 1);

        // 1. Memoized terminal result: serve it even to a degraded
        // group — a cache hit costs nothing, so there is nothing to
        // protect the daemon from.
        if let Some(cached) = self.cached(&key) {
            gtpin_obs::counter_add("serve.cache_hit", 1);
            return cached;
        }

        // 2. Concurrent-session cap: shed, never queue.
        let active = self.active.fetch_add(1, Ordering::SeqCst);
        let _guard = ActiveGuard { engine: self };
        if active >= self.config.max_sessions {
            gtpin_obs::counter_add("serve.shed_busy", 1);
            return SessionResult::Failed {
                kind: "busy".to_string(),
                message: format!(
                    "daemon at capacity ({} concurrent sessions); retry later",
                    self.config.max_sessions
                ),
                virtual_ns: 0,
            };
        }

        // 3. Admission ticket from the supervisor.
        match lock(&self.supervisor).admit(request.app()) {
            Admission::Granted => {}
            Admission::RejectedBudget => {
                gtpin_obs::counter_add("serve.shed_budget", 1);
                return SessionResult::Failed {
                    kind: "budget".to_string(),
                    message: "run budget exhausted; the daemon is shedding new sessions"
                        .to_string(),
                    virtual_ns: 0,
                };
            }
            Admission::RejectedBreakerOpen => {
                gtpin_obs::counter_add("serve.shed_breaker", 1);
                return SessionResult::Failed {
                    kind: "busy".to_string(),
                    message: format!(
                        "circuit breaker open for {} after repeated failures",
                        request.app()
                    ),
                    virtual_ns: 0,
                };
            }
        }

        // 4. Journal the Start before any compute, then its lease: a
        // virtual-clock deadline after which a resume may reap the
        // session instead of recomputing it.
        self.journal_append(&SessionRecord::Start {
            key: key.clone(),
            request: request.clone(),
        });
        if self.config.lease_virtual_ms > 0 {
            let now_ns = lock(&self.supervisor).report().virtual_ns_spent;
            self.journal_append(&SessionRecord::Lease {
                key: key.clone(),
                app: request.app().to_string(),
                deadline_virtual_ns: now_ns
                    .saturating_add(self.config.lease_virtual_ms.saturating_mul(1_000_000)),
            });
        }

        // 5. Compute in panic isolation. The `serve.session_crash`
        // seam fires at the top of `compute`, before any shared lock
        // is held, so an injected crash can never poison the caches.
        let computed = catch_unwind(AssertUnwindSafe(|| self.compute(request, &key)));
        let outcome: Outcome<(String, u64), (String, String)> = match computed {
            Ok(result) => lock(&self.supervisor).judge(match result {
                Ok((report, virtual_ns)) => Ok(((report, virtual_ns), virtual_ns)),
                Err(e) => Err(e),
            }),
            Err(payload) => {
                gtpin_faults::note("recovered.serve_session_crash", 1);
                gtpin_obs::counter_add("serve.session_panic", 1);
                let what = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("opaque panic payload");
                Outcome::Failed((
                    "session".to_string(),
                    format!("session handler panicked ({what}); session isolated"),
                ))
            }
        };
        lock(&self.supervisor).finish(request.app(), &outcome);

        let result = match outcome {
            Outcome::Done {
                value: (report, _),
                virtual_ns,
            } => SessionResult::Done { report, virtual_ns },
            Outcome::DeadlineExceeded { virtual_ns } => SessionResult::Failed {
                kind: "deadline".to_string(),
                message: format!(
                    "session exceeded its virtual deadline ({virtual_ns} ns); result discarded"
                ),
                virtual_ns,
            },
            Outcome::Failed((kind, message)) => SessionResult::Failed {
                kind,
                message,
                virtual_ns: 0,
            },
            // admit() granted, so the skip outcomes cannot occur.
            Outcome::SkippedBreakerOpen | Outcome::SkippedBudget => unreachable!(),
        };

        // 6. Terminal result is durable before it is delivered.
        self.journal_append(&SessionRecord::Finish {
            key: key.clone(),
            app: request.app().to_string(),
            result: result.clone(),
        });
        lock(&self.responses).insert(key, result.clone());
        result
    }

    /// Write a terminal result's frames to `w` in one write and one
    /// flush. Returns `Ok(false)` when the `serve.conn_drop` fault
    /// abandoned delivery mid-stream: only the frames before the drop
    /// are written, and the result stays journaled and cached, so
    /// nothing but this one delivery is lost.
    pub fn deliver<W: Write>(
        &self,
        key: &str,
        result: &SessionResult,
        w: &mut W,
    ) -> Result<bool, wire::WireError> {
        let ident = gtpin_faults::hash_str(key);
        let mut frames = Vec::new();
        let mut complete = true;
        for response in result.responses() {
            // Each frame of each delivery attempt gets an independent,
            // deterministic decision.
            if gtpin_faults::inject_next(site::SERVE_CONN_DROP, ident).is_some() {
                gtpin_faults::note("recovered.serve_conn_drop", 1);
                gtpin_obs::counter_add("serve.conn_dropped", 1);
                complete = false;
                break;
            }
            frames.extend_from_slice(&wire::encode_message(&response)?);
        }
        w.write_all(&frames)?;
        w.flush()?;
        Ok(complete)
    }

    /// Feed one journaled terminal result back through the
    /// supervisor (the single-session equivalent of `run_units`'s
    /// cached replay) and into the response cache.
    fn replay_finish(&self, app: &str, key: &str, result: SessionResult) {
        let outcome: Outcome<(), ()> = match &result {
            SessionResult::Done { virtual_ns, .. } => Outcome::Done {
                value: (),
                virtual_ns: *virtual_ns,
            },
            SessionResult::Failed {
                kind, virtual_ns, ..
            } if kind == "deadline" => Outcome::DeadlineExceeded {
                virtual_ns: *virtual_ns,
            },
            SessionResult::Failed { .. } => Outcome::Failed(()),
        };
        lock(&self.supervisor).finish(app, &outcome);
        gtpin_obs::counter_add("serve.resume_replayed", 1);
        lock(&self.responses).insert(key.to_string(), result);
    }

    /// Best-effort durable append: a failing journal degrades the
    /// daemon to in-memory serving (the session still completes; it
    /// just will not survive a crash), which beats refusing service.
    fn journal_append(&self, record: &SessionRecord) {
        let Some(journal) = &self.journal else { return };
        let Ok(json) = serde_json::to_string(record) else {
            return;
        };
        if let Err(e) = lock(journal).append_with_recovery(json.as_bytes()) {
            gtpin_obs::warn!("serve: journal append failed, session not durable: {e}");
            gtpin_obs::counter_add("serve.journal_degraded", 1);
        }
    }

    /// The session body: dispatch by request kind. The
    /// `serve.session_crash` seam fires here, before any shared
    /// state is touched.
    fn compute(&self, request: &Request, key: &str) -> Result<(String, u64), (String, String)> {
        let ident = gtpin_faults::hash_str(key);
        if gtpin_faults::inject_next(site::SERVE_SESSION_CRASH, ident).is_some() {
            std::panic::panic_any(gtpin_faults::INJECTED_PANIC_MARKER);
        }
        match request {
            Request::Profile { app, scale } => self.compute_profile(app, scale),
            Request::Explore {
                app,
                scale,
                threshold_pct,
            } => self.compute_explore(app, scale, *threshold_pct),
            Request::Sim { app, launches } => {
                compute_sim(app, *launches, self.config.threads.max(1))
            }
            Request::Lint { app } => compute_lint(app),
            Request::Analyze { app } => self.compute_analyze(app),
        }
    }

    /// Structurally analyze every kernel of `app` at test scale,
    /// memoizing each kernel's analysis by content hash. The
    /// per-kernel text and the analysis digest match
    /// `gtpin analyze <app>` exactly.
    fn compute_analyze(&self, app: &str) -> Result<(String, u64), (String, String)> {
        use gpu_device::jit::compile_kernel;

        let spec = lookup_spec(app)?;
        let program = build_program(&spec, Scale::Test);
        let params = GpuGeneration::IvyBridgeHd4000.topology().cost_params();

        let mut report = String::new();
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        digest = fnv_fold(digest, app.as_bytes());
        let mut loops = 0usize;
        let mut proven = 0usize;
        let mut kernels = 0usize;
        let mut virtual_ns = 0u64;
        for ir in &program.source.kernels {
            let bin = compile_kernel(ir).map_err(|e| ("jit".to_string(), e.to_string()))?;
            let hash = gtpin_analyze::report::fnv64(&bin.encode());
            let cached = lock(&self.analyses).get(&hash);
            let analysis = match cached {
                Some(a) => a,
                None => {
                    let a = gtpin_analyze::analyze_kernel(&bin, &params)
                        .map_err(|e| ("analyze".to_string(), e.to_string()))?;
                    let canary = a.render().into_bytes();
                    lock(&self.analyses).insert(hash, hash, a, canary)
                }
            };
            kernels += 1;
            loops += analysis.loops.len();
            proven += analysis
                .loops
                .iter()
                .filter(|l| !l.trips.starts_with('?'))
                .count();
            virtual_ns += analysis.cost.cycles_per_invocation;
            let text = analysis.render();
            digest = fnv_fold(digest, text.as_bytes());
            report.push_str(&text);
        }
        report.push_str(&format!(
            "analyze {app}: {kernels} kernel(s): {loops} loop(s), \
             {proven} with proven trip bounds\n\
             analysis digest: {digest:016x}\n"
        ));
        Ok((report, virtual_ns))
    }

    /// The memoized one-time profiling pass for `(app, scale)`. A
    /// corrupted entry heals by recomputing — bitwise identical,
    /// since profiling is deterministic.
    fn profiled(&self, app: &str, scale: &str) -> Result<Arc<ProfiledApp>, (String, String)> {
        let scale = parse_scale(scale)?;
        let memo_key = format!("{app}/{scale:?}");
        if let Some(p) = lock(&self.profiles).get(&memo_key) {
            return Ok(p);
        }
        let spec = lookup_spec(app)?;
        let program = build_program(&spec, scale);
        // The engine's configured thread count governs executor
        // fan-out too, so fault accounting (which seams exist depends
        // on worker count) is a pure function of the ServeConfig.
        let mut gpu = GpuConfig::hd4000();
        gpu.exec.threads = self.config.threads.max(1);
        let profiled =
            profile_app(&program, gpu, 1).map_err(|e| ("pipeline".to_string(), e.to_string()))?;
        let canary = serde_json::to_string(&profiled.data)
            .unwrap_or_default()
            .into_bytes();
        let ident = gtpin_faults::hash_str(&memo_key);
        Ok(lock(&self.profiles).insert(memo_key, ident, profiled, canary))
    }

    /// The memoized 30-configuration sweep for `(app, scale)`, healed
    /// like [`Self::profiled`].
    fn exploration(&self, app: &str, scale: &str) -> Result<Arc<Exploration>, (String, String)> {
        let parsed = parse_scale(scale)?;
        let memo_key = format!("{app}/{parsed:?}");
        if let Some(ex) = lock(&self.explorations).get(&memo_key) {
            return Ok(ex);
        }
        let profiled = self.profiled(app, scale)?;
        let ex = Exploration::run_with_threads(
            &profiled.data,
            default_approx_target(&profiled.data),
            &SimpointConfig::default(),
            self.config.threads.max(1),
        );
        let canary = serde_json::to_string(&ex).unwrap_or_default().into_bytes();
        let ident = gtpin_faults::hash_str(&memo_key) ^ 0x5EED;
        Ok(lock(&self.explorations).insert(memo_key, ident, ex, canary))
    }

    fn compute_profile(&self, app: &str, scale: &str) -> Result<(String, u64), (String, String)> {
        let profiled = self.profiled(app, scale)?;
        let data = &profiled.data;
        let report = format!(
            "profile {app} @ {scale}\n\
             invocations {}  unique kernels {}\n\
             dynamic instructions {}\n\
             instrumentation: {:.2}x dynamic instruction overhead\n\
             native virtual time {:.6} s\n",
            data.invocations.len(),
            profiled.profile.unique_kernels(),
            data.total_instructions(),
            profiled.profile.dynamic_overhead_factor(),
            data.total_seconds(),
        );
        Ok((report, (data.total_seconds() * 1e9) as u64))
    }

    fn compute_explore(
        &self,
        app: &str,
        scale: &str,
        threshold_pct: f64,
    ) -> Result<(String, u64), (String, String)> {
        let profiled = self.profiled(app, scale)?;
        let ex = self.exploration(app, scale)?;
        let selection = render_selection(&ex, threshold_pct).ok_or_else(|| {
            (
                "explore".to_string(),
                "no configurations evaluated".to_string(),
            )
        })?;
        let report = format!(
            "explore {app} @ {scale} ({} configurations)\n{selection}",
            ex.evaluations.len()
        );
        Ok((report, (profiled.data.total_seconds() * 1e9) as u64))
    }
}

/// RAII decrement of the engine's active-session counter.
struct ActiveGuard<'a> {
    engine: &'a SessionEngine,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.engine.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn lookup_spec(app: &str) -> Result<workloads::WorkloadSpec, (String, String)> {
    spec_by_name(app).ok_or_else(|| {
        (
            "cli".to_string(),
            format!("unknown application {app}; try `gtpin list`"),
        )
    })
}

fn parse_scale(scale: &str) -> Result<Scale, (String, String)> {
    match scale {
        "test" => Ok(Scale::Test),
        "default" => Ok(Scale::Default),
        other => Err((
            "cli".to_string(),
            format!("unknown scale {other} (known: test, default)"),
        )),
    }
}

/// Detailed-simulate the first `launches` launches (0 = all) at test
/// scale: `gtpin sim`'s report. Both the functional replay's executor
/// fan-out and the detailed simulator's shard workers follow the
/// engine's thread count: results are bit-identical at any value by
/// contract, and the fault seams exercised follow the config.
fn compute_sim(
    app: &str,
    launches: u64,
    threads: usize,
) -> Result<(String, u64), (String, String)> {
    let spec = lookup_spec(app)?;
    let program = build_program(&spec, Scale::Test);
    let limit = match launches {
        0 => usize::MAX,
        n => usize::try_from(n).unwrap_or(usize::MAX),
    };
    let report = simulate_program(&program, "Test", threads, threads, limit).map_err(|e| {
        let kind = match e {
            SimError::Run(_) => "run",
            SimError::UnbuiltKernel | SimError::Simulate(_) => "sim",
            SimError::Json(_) => "json",
        };
        (kind.to_string(), e.to_string())
    })?;
    // Virtual cost: simulated cycles at the 1.15 GHz device clock.
    Ok((report.text, report.cycles.saturating_mul(20) / 23))
}

/// Run the static lints and the instrumentation-safety verifier over
/// every kernel of `app` at test scale.
fn compute_lint(app: &str) -> Result<(String, u64), (String, String)> {
    use gpu_device::jit::compile_kernel;
    use gtpin_analyze::{lint_kernel, verify_rewrite, LintConfig, Severity};
    use gtpin_core::rewriter::rewrite_binary;
    use gtpin_core::RewriteConfig;

    let spec = lookup_spec(app)?;
    let program = build_program(&spec, Scale::Test);
    let verify_config = RewriteConfig {
        count_basic_blocks: true,
        time_kernels: true,
        trace_memory: true,
        naive_per_instruction_counters: false,
    };

    let mut report = String::new();
    let mut kernels = 0usize;
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut verify_failures = 0usize;
    for ir in &program.source.kernels {
        let kernel = compile_kernel(ir).map_err(|e| ("jit".to_string(), e.to_string()))?;
        kernels += 1;
        let diags = lint_kernel(&kernel, &LintConfig::for_metadata(&kernel.metadata))
            .map_err(|e| ("lint".to_string(), e.to_string()))?;
        for d in &diags {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
            report.push_str(&format!("{d}\n"));
        }
        let bytes = kernel.encode();
        let rw =
            rewrite_binary(&bytes, &verify_config, 0, 0).map_err(|e| ("lint".to_string(), e))?;
        match verify_rewrite(&bytes, &rw.bytes) {
            Ok(v) => report.push_str(&format!(
                "verify[ok] {} — {} probes, {} repaired branches\n",
                kernel.name, v.probes, v.repaired_branches
            )),
            Err(e) => {
                verify_failures += 1;
                report.push_str(&format!("verify[FAIL] {}: {e}\n", kernel.name));
            }
        }
    }
    report.push_str(&format!(
        "lint {app}: {kernels} kernel(s): {errors} error(s), {warnings} warning(s)\n"
    ));
    if errors > 0 || verify_failures > 0 {
        return Err((
            "lint".to_string(),
            format!(
                "lint {app}: {errors} error-severity finding(s), \
                 {verify_failures} verify failure(s) across {kernels} kernel(s)"
            ),
        ));
    }
    Ok((report, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(config: ServeConfig) -> SessionEngine {
        SessionEngine::new(config).expect("engine builds").0
    }

    fn first_app() -> String {
        workloads::all_specs()
            .into_iter()
            .next()
            .expect("workloads exist")
            .name
            .to_string()
    }

    #[test]
    fn unknown_app_fails_typed_and_identical_twice() {
        let e = engine(ServeConfig::default());
        let req = Request::Sim {
            app: "no-such-app".to_string(),
            launches: 1,
        };
        let first = e.handle(&req);
        match &first {
            SessionResult::Failed { kind, .. } => assert_eq!(kind, "cli"),
            other => panic!("expected cli failure, got {other:?}"),
        }
        // Second identical request: served from the response cache.
        assert_eq!(e.handle(&req), first);
    }

    #[test]
    fn breaker_opens_per_app_and_sheds_busy() {
        let e = engine(ServeConfig {
            supervisor: SupervisorConfig {
                breaker_threshold: 2,
                ..SupervisorConfig::default()
            },
            ..ServeConfig::default()
        });
        // Two distinct failing sessions in group "nope" open its
        // breaker; a third request to the group sheds error[busy].
        for launches in 1..=2 {
            let r = e.handle(&Request::Sim {
                app: "nope".to_string(),
                launches,
            });
            assert!(r.is_err());
        }
        match e.handle(&Request::Lint {
            app: "nope".to_string(),
        }) {
            SessionResult::Failed { kind, message, .. } => {
                assert_eq!(kind, "busy");
                assert!(message.contains("circuit breaker"));
            }
            other => panic!("expected busy shed, got {other:?}"),
        }
        // Other groups still fail on their own merits, not the shed
        // path (unknown app → cli, not busy).
        match e.handle(&Request::Lint {
            app: "also-unknown".to_string(),
        }) {
            SessionResult::Failed { kind, .. } => assert_eq!(kind, "cli"),
            other => panic!("expected cli failure, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_sheds_deterministically() {
        let e = engine(ServeConfig {
            supervisor: SupervisorConfig {
                max_tasks: Some(1),
                breaker_threshold: 0,
                ..SupervisorConfig::default()
            },
            ..ServeConfig::default()
        });
        let app = first_app();
        let first = e.handle(&Request::Sim {
            app: app.clone(),
            launches: 1,
        });
        assert!(!first.is_err(), "first session runs: {first:?}");
        match e.handle(&Request::Lint { app: app.clone() }) {
            SessionResult::Failed { kind, .. } => assert_eq!(kind, "budget"),
            other => panic!("expected budget shed, got {other:?}"),
        }
        // A cached response is still served after exhaustion — it
        // costs nothing.
        assert_eq!(e.handle(&Request::Sim { app, launches: 1 }), first);
    }

    #[test]
    fn zero_session_cap_sheds_busy() {
        let e = engine(ServeConfig {
            max_sessions: 0,
            ..ServeConfig::default()
        });
        match e.handle(&Request::Lint {
            app: "anything".to_string(),
        }) {
            SessionResult::Failed { kind, .. } => assert_eq!(kind, "busy"),
            other => panic!("expected busy shed, got {other:?}"),
        }
    }

    #[test]
    fn responses_render_one_chunk_per_line_and_terminal() {
        let done = SessionResult::Done {
            report: "a\nb\n".to_string(),
            virtual_ns: 7,
        };
        let frames = done.responses();
        assert_eq!(frames.len(), 3);
        assert_eq!(
            frames[0],
            Response::Chunk {
                text: "a\n".to_string()
            }
        );
        assert_eq!(frames[2], Response::Done);
        let failed = SessionResult::Failed {
            kind: "busy".to_string(),
            message: "m".to_string(),
            virtual_ns: 0,
        };
        assert_eq!(
            failed.responses(),
            vec![Response::Err {
                kind: "busy".to_string(),
                message: "m".to_string()
            }]
        );
    }

    #[test]
    fn sim_session_is_deterministic_and_cached() {
        let e = engine(ServeConfig::default());
        let req = Request::Sim {
            app: first_app(),
            launches: 1,
        };
        let first = e.handle(&req);
        match &first {
            SessionResult::Done { report, virtual_ns } => {
                assert!(report.contains("stats digest"));
                assert!(*virtual_ns > 0);
            }
            other => panic!("sim session failed: {other:?}"),
        }
        assert_eq!(e.handle(&req), first);
        // A fresh engine recomputes to the identical bytes.
        let e2 = engine(ServeConfig::default());
        assert_eq!(e2.handle(&req), first);
    }

    #[test]
    fn analyze_session_is_deterministic_and_memoizes_per_kernel() {
        let e = engine(ServeConfig::default());
        let req = Request::Analyze { app: first_app() };
        let first = e.handle(&req);
        match &first {
            SessionResult::Done { report, .. } => {
                assert!(report.contains("analysis digest:"));
                assert!(report.contains("kernel "));
            }
            other => panic!("analyze session failed: {other:?}"),
        }
        // Second identical request: response cache.
        assert_eq!(e.handle(&req), first);
        // A fresh engine recomputes to the identical bytes.
        let e2 = engine(ServeConfig::default());
        assert_eq!(e2.handle(&req), first);
        // The per-kernel cache is keyed by content hash: after one
        // analyze, every kernel of the app is cached.
        assert!(!lock(&e.analyses).is_empty());
        let before = lock(&e2.analyses).len();
        // Re-analyzing via a *different* session key (unknown apps
        // fail before compile, so reuse the same app through a fresh
        // engine whose response cache is cold) does not grow the
        // kernel cache: every kernel hits by hash.
        let mut cold = lock(&e2.responses);
        cold.clear();
        drop(cold);
        assert_eq!(e2.handle(&req), first);
        assert_eq!(lock(&e2.analyses).len(), before);
    }

    #[test]
    fn failed_computes_insert_nothing_into_the_memos() {
        let e = engine(ServeConfig::default());
        let requests = [
            Request::Profile {
                app: "no-such-app".to_string(),
                scale: "test".to_string(),
            },
            Request::Explore {
                app: first_app(),
                scale: "huge".to_string(),
                threshold_pct: 5.0,
            },
            Request::Analyze {
                app: "no-such-app".to_string(),
            },
        ];
        for req in &requests {
            match e.handle(req) {
                SessionResult::Failed { kind, .. } => assert_eq!(kind, "cli"),
                other => panic!("expected cli failure, got {other:?}"),
            }
        }
        // Only catalogue keys ever reach an insert, so the memos stay
        // bounded without eviction.
        assert!(lock(&e.profiles).is_empty());
        assert!(lock(&e.explorations).is_empty());
        assert!(lock(&e.analyses).is_empty());
    }

    #[test]
    fn journal_resume_replays_and_recomputes_to_identical_responses() {
        let app = first_app();
        let requests = [
            Request::Sim {
                app: app.clone(),
                launches: 1,
            },
            Request::Lint { app: app.clone() },
        ];
        let dir = std::env::temp_dir().join(format!("gtpin-serve-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Uninterrupted baseline (no journal).
        let baseline = engine(ServeConfig::default());
        let expect: Vec<SessionResult> = requests.iter().map(|r| baseline.handle(r)).collect();

        // Journaled run that "crashes" before the second session
        // finishes: complete session 1, then hand-append session 2's
        // Start with no Finish — exactly what a SIGKILL leaves.
        {
            let journaled = engine(ServeConfig {
                journal_dir: Some(dir.clone()),
                ..ServeConfig::default()
            });
            journaled.handle(&requests[0]);
        }
        {
            let (mut j, _) = Journal::recover(&dir).expect("recovers");
            let start = SessionRecord::Start {
                key: requests[1].session_key(),
                request: requests[1].clone(),
            };
            j.append(serde_json::to_string(&start).unwrap().as_bytes())
                .expect("appends");
        }

        let (resumed, report) = SessionEngine::new(ServeConfig {
            journal_dir: Some(dir.clone()),
            resume: true,
            ..ServeConfig::default()
        })
        .expect("resumes");
        assert_eq!(report.replayed, 1);
        assert_eq!(report.recomputed, 1);
        for (req, want) in requests.iter().zip(&expect) {
            assert_eq!(&resumed.handle(req), want);
        }
        // Policy trajectory matches the uninterrupted run too.
        assert_eq!(resumed.supervisor_report(), baseline.supervisor_report());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_reaper_reclaims_expired_sessions_into_error_lease() {
        let _g = FAULTS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        gtpin_faults::disable();
        let app = first_app();
        let dir = std::env::temp_dir().join(format!("gtpin-serve-lease-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stuck = Request::Lint { app: app.clone() };

        // One completed session advances the virtual clock well past
        // the tiny lease deadline appended below.
        {
            let journaled = engine(ServeConfig {
                journal_dir: Some(dir.clone()),
                ..ServeConfig::default()
            });
            let done = journaled.handle(&Request::Sim {
                app: app.clone(),
                launches: 1,
            });
            assert!(!done.is_err(), "clock-advancing session runs: {done:?}");
        }
        // A SIGKILL'd session: Start + Lease, no Finish.
        {
            let (mut j, _) = Journal::recover(&dir).expect("recovers");
            let start = SessionRecord::Start {
                key: stuck.session_key(),
                request: stuck.clone(),
            };
            j.append(serde_json::to_string(&start).unwrap().as_bytes())
                .expect("appends start");
            let lease = SessionRecord::Lease {
                key: stuck.session_key(),
                app: app.clone(),
                deadline_virtual_ns: 1,
            };
            j.append(serde_json::to_string(&lease).unwrap().as_bytes())
                .expect("appends lease");
        }

        // Resume armed but quiescent, so the reaper's accounting
        // registers without any fault firing.
        let reaped_count = || {
            gtpin_faults::take_accounting()
                .into_iter()
                .find(|(key, _)| key == "recovered.lease_reaped")
                .map_or(0, |(_, count)| count)
        };
        gtpin_faults::install(gtpin_faults::FaultPlan::quiescent(42));
        let (resumed, report) = SessionEngine::new(ServeConfig {
            journal_dir: Some(dir.clone()),
            resume: true,
            ..ServeConfig::default()
        })
        .expect("resumes");
        assert_eq!(report.replayed, 1);
        assert_eq!(report.recomputed, 0, "reaped, not recomputed");
        assert_eq!(report.reaped, 1);
        assert_eq!(reaped_count(), 1, "the reap is accounted");
        match resumed.cached(&stuck.session_key()) {
            Some(SessionResult::Failed { kind, message, .. }) => {
                assert_eq!(kind, "lease");
                assert!(message.contains("reaper"), "message: {message}");
            }
            other => panic!("expected reaped error[lease], got {other:?}"),
        }
        let digest = resumed.response_digest();

        // The reaped Finish is durable: a second resume replays it
        // verbatim — identical responses and policy trajectory,
        // nothing left to reap.
        let (again, second) = SessionEngine::new(ServeConfig {
            journal_dir: Some(dir.clone()),
            resume: true,
            ..ServeConfig::default()
        })
        .expect("resumes again");
        assert_eq!(reaped_count(), 0, "nothing left to reap");
        gtpin_faults::disable();
        assert_eq!(second.reaped, 0);
        assert_eq!(second.replayed, 2);
        assert_eq!(again.response_digest(), digest);
        assert_eq!(again.supervisor_report(), resumed.supervisor_report());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unexpired_lease_still_recomputes_on_resume() {
        let app = first_app();
        let dir = std::env::temp_dir().join(format!("gtpin-serve-lease-ok-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stuck = Request::Lint { app: app.clone() };

        // Start + far-future Lease, no Finish, no prior virtual time:
        // the lease has not expired, so resume recomputes as always.
        {
            let mut j = Journal::create(&dir).expect("creates");
            let start = SessionRecord::Start {
                key: stuck.session_key(),
                request: stuck.clone(),
            };
            j.append(serde_json::to_string(&start).unwrap().as_bytes())
                .expect("appends start");
            let lease = SessionRecord::Lease {
                key: stuck.session_key(),
                app: app.clone(),
                deadline_virtual_ns: u64::MAX,
            };
            j.append(serde_json::to_string(&lease).unwrap().as_bytes())
                .expect("appends lease");
        }
        let (resumed, report) = SessionEngine::new(ServeConfig {
            journal_dir: Some(dir.clone()),
            resume: true,
            ..ServeConfig::default()
        })
        .expect("resumes");
        assert_eq!(report.reaped, 0);
        assert_eq!(report.recomputed, 1);
        let recomputed = resumed.cached(&stuck.session_key()).expect("recomputed");
        // The recomputed result matches a fresh engine's.
        let fresh = engine(ServeConfig::default());
        assert_eq!(fresh.handle(&stuck), recomputed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The fault registry is process-global; tests that install plans
    // serialize on this lock.
    static FAULTS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn corrupted_memo_caches_heal_to_identical_responses() {
        use gtpin_faults::FaultPlan;

        let _g = FAULTS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        gtpin_faults::disable();
        let app = first_app();
        let profile = Request::Profile {
            app: app.clone(),
            scale: "test".to_string(),
        };
        let explore = Request::Explore {
            app: app.clone(),
            scale: "test".to_string(),
            threshold_pct: 5.0,
        };
        let analyze = Request::Analyze { app: app.clone() };

        // Clean baseline: the bytes every faulted run must reproduce.
        let clean = engine(ServeConfig::default());
        let want_profile = clean.handle(&profile);
        let want_explore = clean.handle(&explore);
        let want_analyze = clean.handle(&analyze);
        assert!(!want_profile.is_err() && !want_explore.is_err() && !want_analyze.is_err());

        // Corrupt every cache read: each memo hit trips its canary,
        // quarantines the entry, and recomputes — the responses stay
        // bitwise identical to the clean baseline.
        gtpin_faults::install(FaultPlan::single(site::CACHE_CORRUPT, 1.0, 99));
        let e = engine(ServeConfig::default());
        assert_eq!(e.handle(&profile), want_profile);
        assert_eq!(e.handle(&explore), want_explore);
        // The first analyze fills the per-kernel memo; with the
        // response cache cleared, the second reads every kernel back
        // through its canary and re-analyzes the corrupted entries.
        assert_eq!(e.handle(&analyze), want_analyze);
        lock(&e.responses).clear();
        assert_eq!(e.handle(&analyze), want_analyze);
        let acc: BTreeMap<String, u64> = gtpin_faults::take_accounting().into_iter().collect();
        gtpin_faults::disable();
        assert!(acc["injected.cache.corrupt"] >= 1, "{acc:?}");
        assert!(acc["healed.serve.profile"] >= 1, "{acc:?}");
        assert!(acc["healed.serve.analysis"] >= 1, "{acc:?}");
        assert!(acc["recovered.cache_heal"] >= 1, "{acc:?}");
    }

    /// A `Done` report of `lines` distinct lines.
    fn report_of(lines: usize) -> SessionResult {
        SessionResult::Done {
            report: (0..lines).map(|i| format!("line {i}: \"q\"\n")).collect(),
            virtual_ns: 1,
        }
    }

    /// Counts the `write` and `flush` calls a delivery makes.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
        flushes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    /// The reference delivery: one `write_message` per frame, with the
    /// same `serve.conn_drop` decisions `deliver` makes.
    fn deliver_per_frame(
        key: &str,
        result: &SessionResult,
        w: &mut Vec<u8>,
    ) -> Result<bool, wire::WireError> {
        let ident = gtpin_faults::hash_str(key);
        for response in result.responses() {
            if gtpin_faults::enabled() {
                let occ = gtpin_faults::occurrence(site::SERVE_CONN_DROP, ident);
                if gtpin_faults::should_inject(
                    site::SERVE_CONN_DROP,
                    ident.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(occ),
                ) {
                    gtpin_faults::note("recovered.serve_conn_drop", 1);
                    return Ok(false);
                }
            }
            wire::write_message(w, &response)?;
        }
        Ok(true)
    }

    #[test]
    fn deliver_writes_every_frame_in_one_write() {
        let _g = FAULTS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        gtpin_faults::disable();
        let e = engine(ServeConfig::default());
        let failed = SessionResult::Failed {
            kind: "busy".to_string(),
            message: "shed".to_string(),
            virtual_ns: 0,
        };
        for result in [report_of(0), report_of(1), report_of(3000), failed] {
            let mut want = Vec::new();
            assert!(matches!(
                deliver_per_frame("k", &result, &mut want),
                Ok(true)
            ));
            let mut sink = CountingSink::default();
            assert!(matches!(e.deliver("k", &result, &mut sink), Ok(true)));
            assert!(sink.bytes == want, "delivered bytes differ for {result:?}");
            assert_eq!((sink.writes, sink.flushes), (1, 1));
        }
    }

    #[test]
    fn conn_drop_cuts_delivery_where_the_per_frame_loop_did() {
        use gtpin_faults::FaultPlan;

        let _g = FAULTS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let e = engine(ServeConfig::default());
        let result = report_of(400);
        let keys: Vec<String> = (0..8).map(|i| format!("lint/app-{i}")).collect();
        // Every key is delivered three times, so occurrence numbers
        // advance exactly as they do across repeated requests.
        let run = |batched: bool| {
            gtpin_faults::install(FaultPlan::single(site::SERVE_CONN_DROP, 0.002, 7));
            let mut outcomes = Vec::new();
            for key in keys.iter().chain(&keys).chain(&keys) {
                let mut sink = Vec::new();
                let complete = if batched {
                    e.deliver(key, &result, &mut sink)
                } else {
                    deliver_per_frame(key, &result, &mut sink)
                };
                outcomes.push((complete.ok(), sink));
            }
            let acc = gtpin_faults::take_accounting();
            gtpin_faults::disable();
            (outcomes, acc)
        };
        let (batched, batched_acc) = run(true);
        let (per_frame, per_frame_acc) = run(false);
        assert!(batched == per_frame, "written prefixes differ");
        assert_eq!(batched_acc, per_frame_acc);
        let dropped = batched
            .iter()
            .filter(|(complete, _)| *complete == Some(false))
            .count();
        assert!(dropped > 0 && dropped < batched.len(), "{dropped} dropped");
        assert!(
            batched
                .iter()
                .any(|(complete, w)| *complete == Some(false) && !w.is_empty()),
            "some drop lands mid-stream"
        );
    }
}
