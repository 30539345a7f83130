//! The measurement loop shared by every workload.
//!
//! A run sets up [`SETUP_REPS`] times (reporting the median), then
//! repeats identical rounds until `seconds` of round time have passed.
//! Every round of a run must produce the same output digest — the
//! inputs are the same, so any difference is a correctness failure.
//!
//! Because rounds repeat the same ops in the same order, an op is
//! identified by its position in the round. Latency percentiles are
//! taken over the per-position medians across rounds, and throughput
//! is the median over rounds: both damp host noise without mixing
//! different ops' costs.
//!
//! With tracing on, untraced and traced rounds alternate: the traced
//! rounds (and one traced set-up) feed the per-layer metrics, and the
//! ratio of the two kinds' median round times is the tracing
//! overhead.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::catalog;
use crate::stats::{median, percentile};
use crate::trace::{ratio, Fold, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// What one run does.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Round time to measure, seconds.
    pub seconds: u64,
    /// Whether to run the traced variant.
    pub trace: bool,
}

/// A workload: inputs built by [`Workload::setup`], consumed by
/// identical [`Workload::round`]s.
pub trait Workload {
    /// What set-up produces.
    type State;

    /// The workload's name.
    fn name(&self) -> &'static str;

    /// Build everything the rounds need. Spans go to `tr`.
    ///
    /// # Errors
    ///
    /// A message when set-up cannot complete; the run stops.
    fn setup(&mut self, tr: &Tracer) -> Result<Self::State, String>;

    /// One round over the inputs, recording each op in `rec`. Returns
    /// a digest of the round's outputs. With `tr` enabled the round
    /// takes the decomposed, span-wrapped path; its digest must equal
    /// the one-call path's.
    ///
    /// # Errors
    ///
    /// A message when the round cannot continue; the run stops.
    fn round(
        &mut self,
        state: &mut Self::State,
        tr: &Tracer,
        rec: &mut Recorder,
    ) -> Result<u64, String>;

    /// Whether a round consumes its state, so the next round needs a
    /// fresh set-up (a daemon serves one round from cold caches).
    fn one_round_per_state(&self) -> bool {
        false
    }

    /// Deterministic output summaries for the human-readable report
    /// (identical between traced and untraced runs of one seed).
    fn summary(&self) -> Vec<String>;

    /// Per-layer metrics only this workload can measure, set into
    /// `rec`. Runs once after the traced rounds; `state` is the last
    /// set-up when the workload keeps one.
    ///
    /// # Errors
    ///
    /// A message when the extra measurement fails.
    fn layer_metrics(
        &mut self,
        state: Option<&mut Self::State>,
        fold: &Fold,
        rec: &mut Recorder,
    ) -> Result<(), String>;
}

/// What a run recorded.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Set-up durations.
    setup_ns: Vec<u64>,
    /// Op latencies of each untraced round, in op order.
    rounds: Vec<Vec<u64>>,
    current: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Correctness failures, in the order found.
    problems: Vec<String>,
    /// Per-layer values set by the workload.
    layer: BTreeMap<&'static str, f64>,
}

impl Recorder {
    /// Time one op. An error counts as a failed op and a problem.
    pub fn op<T, E: Display>(
        &mut self,
        what: impl Display,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<(T, u64)> {
        let start = Instant::now();
        let result = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.attempted += 1;
        match result {
            Ok(value) => {
                self.current.push(ns);
                Some((value, ns))
            }
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Record a correctness problem unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Set a per-layer metric (must be in the catalog).
    pub fn set(&mut self, name: &'static str, value: f64) {
        catalog::per_layer(name);
        self.layer.insert(name, value);
    }

    /// Close a round: keep its op latencies when it was untraced.
    fn end_round(&mut self, traced: bool) {
        let ops = std::mem::take(&mut self.current);
        if !traced {
            self.rounds.push(ops);
        }
    }

    /// Each op position's median latency across the untraced rounds,
    /// nanoseconds.
    fn position_medians(&self) -> Vec<f64> {
        let positions = self.rounds.iter().map(Vec::len).min().unwrap_or(0);
        (0..positions)
            .map(|i| {
                let samples: Vec<f64> = self.rounds.iter().map(|r| r[i] as f64).collect();
                median(&samples)
            })
            .collect()
    }

    /// Median over untraced rounds of ops per second of op time.
    fn ops_per_s(&self) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| ratio(r.len() as f64 * 1e9, r.iter().sum::<u64>() as f64))
            .collect();
        median(&per_round)
    }
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// No correctness problem and no failed op.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Correctness problems.
    pub problems: Vec<String>,
    /// Metrics in catalog order: every end-to-end metric untraced,
    /// every per-layer metric traced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Digest of the round outputs.
    pub digest: u64,
    /// Deterministic output summaries.
    pub summary: Vec<String>,
    /// Trace artifacts written.
    pub artifacts: Vec<String>,
}

/// Run `w` under `opts`.
///
/// # Errors
///
/// A message when set-up or a round cannot complete.
pub fn run<W: Workload>(w: &mut W, opts: &Options) -> Result<Outcome, String> {
    let mut rec = Recorder::default();
    let off = Tracer::off();
    let on = if opts.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let budget = Duration::from_secs(opts.seconds);

    let mut state = None;
    if opts.trace {
        let _root = on.span("bench.setup");
        state = Some(w.setup(&on)?);
    } else {
        for _ in 0..SETUP_REPS {
            drop(state.take());
            state = Some(timed_setup(w, &off, &mut rec)?);
        }
    }

    let mut digests: Vec<u64> = Vec::new();
    let mut untraced_ns: Vec<f64> = Vec::new();
    let mut traced_ns: Vec<f64> = Vec::new();
    let mut spent = Duration::ZERO;
    while spent < budget || untraced_ns.is_empty() || (opts.trace && traced_ns.is_empty()) {
        // Traced runs alternate untraced and traced rounds.
        let traced = opts.trace && untraced_ns.len() > traced_ns.len();
        let tr = if traced { &on } else { &off };
        if state.is_none() {
            state = Some(if traced {
                let _root = on.span("bench.setup");
                w.setup(&on)?
            } else {
                timed_setup(w, &off, &mut rec)?
            });
        }
        let st = state.as_mut().expect("set up above");
        let start = Instant::now();
        let root = traced.then(|| on.span("bench.round"));
        let digest = w.round(st, tr, &mut rec)?;
        drop(root);
        let elapsed = start.elapsed();
        spent += elapsed;
        rec.end_round(traced);
        if traced {
            traced_ns.push(elapsed.as_nanos() as f64);
        } else {
            untraced_ns.push(elapsed.as_nanos() as f64);
        }
        if let Some(&first) = digests.first() {
            rec.check(digest == first, || {
                format!(
                    "round {} ({}) digest {digest:016x} differs from round 1's {first:016x}",
                    digests.len() + 1,
                    if traced { "traced" } else { "untraced" }
                )
            });
        }
        digests.push(digest);
        if w.one_round_per_state() {
            drop(state.take());
        }
    }

    let mut metrics = Vec::new();
    let mut artifacts = Vec::new();
    if opts.trace {
        let fold = on.fold();
        span_metrics(&fold, &mut rec);
        rec.set(
            "bench.trace_overhead_pct",
            (ratio(median(&traced_ns), median(&untraced_ns)) - 1.0) * 100.0,
        );
        w.layer_metrics(state.as_mut(), &fold, &mut rec)?;
        let stem = format!("pipeline-{}-seed{}", w.name(), opts.seed);
        for path in on.write_journal(Path::new("target/bench"), &stem)? {
            artifacts.push(path.display().to_string());
        }
        for m in catalog::PER_LAYER.iter() {
            metrics.push((
                m.name,
                rec.layer.get(m.name).copied().unwrap_or(0.0),
                m.unit,
            ));
        }
    } else {
        let setup: Vec<f64> = rec.setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        let positions = rec.position_medians();
        let values = [
            ("setup_s", median(&setup)),
            ("op_p50_ms", percentile(&positions, 0.5) / 1e6),
            ("op_p90_ms", percentile(&positions, 0.9) / 1e6),
            ("ops_per_s", rec.ops_per_s()),
            ("peak_rss_mb", peak_rss_mb()?),
        ];
        for m in catalog::END_TO_END.iter() {
            let (_, value) = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .expect("every end-to-end metric is computed");
            metrics.push((m.name, *value, m.unit));
        }
    }
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            rec.problems.push(format!("metric {name} is not finite"));
            // Keep the printed result valid JSON.
            *value = 0.0;
        }
    }
    Ok(Outcome {
        workload: w.name(),
        correct: rec.problems.is_empty() && rec.failed == 0,
        attempted: rec.attempted.max(1),
        failed: rec.failed,
        problems: rec.problems,
        metrics,
        digest: digests.first().copied().unwrap_or(0),
        summary: w.summary(),
        artifacts,
    })
}

fn timed_setup<W: Workload>(
    w: &mut W,
    tr: &Tracer,
    rec: &mut Recorder,
) -> Result<W::State, String> {
    let start = Instant::now();
    let state = w.setup(tr)?;
    rec.setup_ns.push(start.elapsed().as_nanos() as u64);
    Ok(state)
}

/// The per-layer metrics every workload derives the same way from
/// its spans and counters.
fn span_metrics(fold: &Fold, rec: &mut Recorder) {
    let secs = |ns: u64| ns as f64 / 1e9;
    for (layer, name) in [
        ("workloads", "workloads.busy_pct"),
        ("runtime", "runtime.busy_pct"),
        ("core", "core.busy_pct"),
        ("device", "device.busy_pct"),
        ("selection", "selection.busy_pct"),
        ("simpoint", "simpoint.busy_pct"),
    ] {
        rec.set(name, fold.share_pct(fold.layer_self_ns(layer)));
    }
    for (span, name) in [
        ("selection.merge", "selection.merge_busy_pct"),
        ("selection.tables", "selection.tables_busy_pct"),
        ("selection.features", "selection.features_busy_pct"),
    ] {
        rec.set(name, fold.share_pct(fold.stat(span).self_ns));
    }
    let per_s = |span: &str| {
        let s = fold.stat(span);
        ratio(s.count as f64, secs(s.self_ns))
    };
    rec.set("workloads.builds_per_s", per_s("workloads.build"));
    rec.set("device.sim_launches_per_s", per_s("device.simulate"));
    rec.set("simpoint.selects_per_s", per_s("simpoint.select"));
    rec.set(
        "simpoint.select_calls",
        fold.stat("simpoint.select").count as f64,
    );
    let explore = fold.stat("selection.explore");
    rec.set(
        "selection.explores_per_s",
        ratio(explore.count as f64, secs(explore.total_ns)),
    );
    rec.set(
        "runtime.minstr_per_s",
        ratio(
            fold.counter("runtime.instructions") as f64 / 1e6,
            secs(fold.layer_self_ns("runtime")),
        ),
    );
    let replay = fold.stat("core.replay");
    rec.set(
        "core.minstr_per_s",
        ratio(
            fold.counter("core.instructions") as f64 / 1e6,
            secs(replay.self_ns),
        ),
    );
    rec.set(
        "core.host_overhead_x",
        ratio(
            replay.total_ns as f64,
            fold.stat("runtime.capture").total_ns as f64,
        ),
    );
}

/// Peak resident set of this process (Linux `VmHWM`), megabytes.
///
/// # Errors
///
/// A message when `/proc/self/status` has no `VmHWM` line.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
