//! `serve-mix`: one closed-loop client against a journaled
//! `gtpin-serve` daemon on a Unix socket.
//!
//! Each round starts a fresh daemon (cold memo, empty journal) and
//! sends the seeded request sequence of [`serve_requests`]: every
//! key once (cold: computed, with fsync'd journal appends) and
//! repeats (warm: answered from the response memo). The client sends
//! each request after the previous answer arrives, so the daemon sees
//! one connection at a time.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Read;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gtpin_durable::Journal;
use gtpin_serve::wire::{Request, Response};
use gtpin_serve::{request_drain, request_once, ServeConfig, ServeError, SessionEngine};

use crate::inputs::serve_requests;
use crate::run::{Recorder, Workload};
use crate::stages::{fnv, fold_json, FNV_BASIS};
use crate::stats::percentile;
use crate::trace::{ratio, Fold, Tracer};

/// Journal records per computed session: Start, Lease, Finish.
const RECORDS_PER_SESSION: usize = 3;

/// How long a daemon may take to start answering.
const READY_TIMEOUT: Duration = Duration::from_secs(10);

/// Request classes, for the per-layer rates.
const CLASSES: [&str; 8] = [
    "warm", "profile", "explore", "memo", "sim", "lint", "analyze", "cold",
];

/// A daemon serving on a thread of this process.
pub struct Daemon {
    dir: PathBuf,
    socket: PathBuf,
    journal: PathBuf,
    thread: Option<JoinHandle<Result<(), ServeError>>>,
}

impl Daemon {
    /// Start a daemon with a fresh journal under `target/bench/` and
    /// wait until its accept loop answers.
    ///
    /// # Errors
    ///
    /// A message when the directory cannot be made or the daemon does
    /// not come up.
    pub fn start() -> Result<Daemon, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(format!(
            "target/bench/serve-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let journal = dir.join("journal");
        let config = ServeConfig {
            socket: socket.clone(),
            journal_dir: Some(journal.clone()),
            resume: false,
            max_sessions: 8,
            threads: 1,
            ..ServeConfig::default()
        };
        let mut daemon = Daemon {
            dir,
            socket,
            journal,
            thread: Some(std::thread::spawn(move || gtpin_serve::serve(config))),
        };
        daemon.wait_ready()?;
        Ok(daemon)
    }

    /// The daemon is ready once it accepts a connection and closes it
    /// on EOF: accepting proves the accept loop is running (so a later
    /// drain request cannot race its start).
    fn wait_ready(&mut self) -> Result<(), String> {
        let start = Instant::now();
        loop {
            if self.thread.as_ref().is_some_and(|t| t.is_finished()) {
                return Err(format!("daemon exited at start-up: {}", self.stop()?));
            }
            if let Ok(mut stream) = UnixStream::connect(&self.socket) {
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let _ = stream.set_read_timeout(Some(READY_TIMEOUT));
                let mut byte = [0u8; 1];
                return match stream.read(&mut byte) {
                    Ok(0) => Ok(()),
                    other => Err(format!("daemon readiness probe got {other:?}")),
                };
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err("daemon did not bind its socket".to_string());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Drain the daemon and wait for its thread. Returns how it ended.
    ///
    /// # Errors
    ///
    /// A message when the daemon thread panicked.
    pub fn stop(&mut self) -> Result<String, String> {
        let Some(thread) = self.thread.take() else {
            return Ok("already stopped".to_string());
        };
        request_drain();
        match thread.join() {
            Ok(Ok(())) => Ok("drained".to_string()),
            Ok(Err(e)) => Ok(format!("error[{}] {e}", e.kind())),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The workload.
pub struct ServeMix {
    requests: Vec<Request>,
    /// Response digest of each key's first answer.
    answers: BTreeMap<String, u64>,
    /// Untraced latencies by class (see [`CLASSES`]).
    class_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Per round: cold and warm requests, journal records and bytes.
    counts: [u64; 4],
}

impl ServeMix {
    /// The request sequence for `seed`.
    pub fn new(seed: u64) -> ServeMix {
        ServeMix {
            requests: serve_requests(seed),
            answers: BTreeMap::new(),
            class_ns: BTreeMap::new(),
            counts: [0; 4],
        }
    }
}

fn span_name(request: &Request) -> &'static str {
    match request {
        Request::Profile { .. } => "serve.profile",
        Request::Explore { .. } => "serve.explore",
        Request::Sim { .. } => "serve.sim",
        Request::Lint { .. } => "serve.lint",
        Request::Analyze { .. } => "serve.analyze",
    }
}

/// The class of a cold request: its kind, or `memo` for an explore
/// whose app was already explored at another threshold.
fn cold_class(request: &Request, explored: &mut BTreeSet<String>) -> &'static str {
    match request {
        Request::Explore { app, .. } if !explored.insert(app.clone()) => "memo",
        r => &span_name(r)["serve.".len()..],
    }
}

fn answered(responses: &[Response]) -> bool {
    matches!(responses.last(), Some(Response::Done))
        && !responses.iter().any(|r| matches!(r, Response::Err { .. }))
}

impl Workload for ServeMix {
    type State = Daemon;

    fn name(&self) -> &'static str {
        "serve-mix"
    }

    fn setup(&mut self, _tr: &Tracer) -> Result<Daemon, String> {
        Daemon::start()
    }

    fn one_round_per_state(&self) -> bool {
        true
    }

    fn round(
        &mut self,
        daemon: &mut Daemon,
        tr: &Tracer,
        rec: &mut Recorder,
    ) -> Result<u64, String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut explored: BTreeSet<String> = BTreeSet::new();
        let mut digest = FNV_BASIS;
        let (mut cold, mut warm) = (0u64, 0u64);
        for request in &self.requests {
            let key = request.session_key();
            let Some((responses, ns)) = rec.op(&key, || {
                tr.time(span_name(request), || request_once(&daemon.socket, request))
            }) else {
                continue;
            };
            rec.check(answered(&responses), || {
                format!("{key}: not answered: {responses:?}")
            });
            let answer = fold_json(FNV_BASIS, &responses);
            let class = if seen.insert(key.clone()) {
                cold += 1;
                let first = *self.answers.entry(key.clone()).or_insert(answer);
                rec.check(first == answer, || {
                    format!("{key}: answer differs between rounds")
                });
                cold_class(request, &mut explored)
            } else {
                warm += 1;
                rec.check(self.answers.get(&key) == Some(&answer), || {
                    format!("{key}: warm answer differs from the cold one")
                });
                "warm"
            };
            if !tr.enabled() {
                self.class_ns.entry(class).or_default().push(ns);
                if class != "warm" {
                    self.class_ns.entry("cold").or_default().push(ns);
                }
            }
            digest = fnv(fnv(digest, key.as_bytes()), &answer.to_le_bytes());
        }
        let ended = daemon.stop()?;
        rec.check(ended == "drained", || format!("daemon ended with {ended}"));
        let (_journal, recovery) = Journal::recover(&daemon.journal)
            .map_err(|e| format!("recovering the journal: {e}"))?;
        rec.check(
            recovery.torn_records == 0
                && recovery.records.len() == RECORDS_PER_SESSION * cold as usize,
            || {
                format!(
                    "journal holds {} records ({} torn) for {cold} computed sessions",
                    recovery.records.len(),
                    recovery.torn_records
                )
            },
        );
        let bytes: u64 = std::fs::read_dir(&daemon.journal)
            .map_err(|e| format!("listing the journal: {e}"))?
            .filter_map(|entry| entry.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum();
        self.counts = [cold, warm, recovery.records.len() as u64, bytes];
        Ok(digest)
    }

    fn summary(&self) -> Vec<String> {
        let [cold, warm, records, bytes] = self.counts;
        vec![
            format!("serve_cold_requests {cold}"),
            format!("serve_warm_requests {warm}"),
            format!("journal_records {records} journal_bytes {bytes}"),
        ]
    }

    fn layer_metrics(
        &mut self,
        _state: Option<&mut Daemon>,
        _fold: &Fold,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let [cold, warm, records, bytes] = self.counts;
        rec.set("serve.cold_requests", cold as f64);
        rec.set("serve.warm_requests", warm as f64);
        rec.set("durable.journal_records", records as f64);
        rec.set("durable.journal_bytes", bytes as f64);
        let per_s = |class: &str| {
            let ns = self.class_ns.get(class).map(Vec::as_slice).unwrap_or(&[]);
            ratio(ns.len() as f64 * 1e9, ns.iter().sum::<u64>() as f64)
        };
        for (class, name) in CLASSES.iter().zip([
            "serve.warm_per_s",
            "serve.cold_profile_per_s",
            "serve.cold_explore_per_s",
            "serve.explore_memo_per_s",
            "serve.cold_sim_per_s",
            "serve.cold_lint_per_s",
            "serve.cold_analyze_per_s",
            "serve.cold_per_s",
        ]) {
            rec.set(name, per_s(class));
        }

        // The same sequence in process, straight through the session
        // engine: no socket, no journal. Its answers must match the
        // daemon's; its warm latency is the engine's share of the
        // client's.
        let config = ServeConfig {
            journal_dir: None,
            threads: 1,
            ..ServeConfig::default()
        };
        let (engine, _) = SessionEngine::new(config).map_err(|e| e.to_string())?;
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut handle_warm_ns: Vec<f64> = Vec::new();
        for request in &self.requests {
            let key = request.session_key();
            let start = Instant::now();
            let result = engine.handle(request);
            let ns = start.elapsed().as_nanos() as f64;
            if !seen.insert(key.clone()) {
                handle_warm_ns.push(ns);
            }
            rec.check(
                self.answers.get(&key) == Some(&fold_json(FNV_BASIS, &result.responses())),
                || format!("{key}: in-process answer differs from the daemon's"),
            );
        }
        rec.set(
            "serve.handle_warm_per_s",
            ratio(
                handle_warm_ns.len() as f64 * 1e9,
                handle_warm_ns.iter().sum::<f64>(),
            ),
        );
        let warm: Vec<f64> = self
            .class_ns
            .get("warm")
            .into_iter()
            .flatten()
            .map(|&ns| ns as f64)
            .collect();
        let client = percentile(&warm, 0.5);
        let handle = percentile(&handle_warm_ns, 0.5);
        rec.set(
            "serve.transport_warm_pct",
            ratio((client - handle).max(0.0) * 100.0, client),
        );
        Ok(())
    }
}
