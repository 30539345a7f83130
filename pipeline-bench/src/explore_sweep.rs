//! `explore-sweep`: repeated 30-configuration explorations of six
//! explore-heavy apps, plus the Figure-7 threshold sweep over them.
//!
//! Set-up profiles the apps once and replays each recording under a
//! second trial's timing noise as held-out data. The rounds then run
//! only selection and SimPoint — the device does no work — so this is
//! the mirror image of suite-select: a SimPoint gain shows here and a
//! profiling gain does not.
//!
//! Rounds explore serially. On a shared 2-vCPU host, two explore
//! workers spread ten runs' op latencies by 26–30% against 8–16% for
//! one, wider than any usable bound; the `gtpin-par` fan-out is timed
//! apart in traced runs (`par.explore_speedup`).

use std::time::Instant;

use subset_select::{cross_error_pct, replay_timings, threshold_sweep, AppData, Exploration};
use workloads::{Scale, WorkloadSpec};

use crate::inputs::{named_specs, trial, Trial};
use crate::run::{Recorder, Workload};
use crate::stages::{build, explore, fold_json, gpu_config, profile, scheme_intervals, FNV_BASIS};
use crate::trace::{ratio, Fold, Tracer};

/// The explore-heavy apps.
const APPS: [&str; 6] = [
    "sandra-crypt-aes128",
    "sandra-crypt-aes256",
    "cb-throughput-bitcoin",
    "cb-histogram-buffer",
    "cb-histogram-image",
    "cb-gaussian-buffer",
];

/// The sweep's thresholds (`None` = minimize error).
const THRESHOLDS: [Option<f64>; 5] = [None, Some(1.0), Some(2.0), Some(5.0), Some(10.0)];

/// Upper limit on the mean held-out error (percent).
const MAX_HELDOUT_ERROR_PCT: f64 = 20.0;

/// One profiled app with its held-out replay.
pub struct Profiled {
    /// Trial-1 dataset.
    pub data: AppData,
    /// The same recording's trial-2 timings.
    pub heldout: AppData,
}

/// The workload.
pub struct ExploreSweep {
    specs: Vec<WorkloadSpec>,
    trial: Trial,
    /// Workers the fan-out speedup is measured at.
    par_threads: usize,
    heldout_error_pct: Option<f64>,
    setup_minstr: f64,
    intervals: u64,
}

impl ExploreSweep {
    /// The six apps in the trial of `seed`; traced runs time the
    /// explore fan-out at `par_threads` workers against one.
    pub fn new(seed: u64, par_threads: usize) -> ExploreSweep {
        ExploreSweep {
            specs: named_specs(&APPS),
            trial: trial(seed),
            par_threads,
            heldout_error_pct: None,
            setup_minstr: 0.0,
            intervals: 0,
        }
    }
}

impl Workload for ExploreSweep {
    type State = Vec<Profiled>;

    fn name(&self) -> &'static str {
        "explore-sweep"
    }

    fn setup(&mut self, tr: &Tracer) -> Result<Vec<Profiled>, String> {
        let mut out = Vec::new();
        let mut instructions = 0u64;
        for spec in &self.specs {
            let program = build(spec, Scale::Test, tr);
            let profiled =
                profile(&program, self.trial, tr).map_err(|e| format!("{}: {e}", spec.name))?;
            let report = tr
                .time("runtime.heldout_replay", || {
                    replay_timings(&profiled.recording, gpu_config(self.trial.heldout_seed))
                })
                .map_err(|e| format!("{}: held-out replay: {e}", spec.name))?;
            let heldout = tr
                .time("selection.merge", || profiled.data.with_timings(&report))
                .map_err(|e| format!("{}: held-out merge: {e}", spec.name))?;
            tr.count("runtime.instructions", heldout.total_instructions());
            instructions += 2 * heldout.total_instructions();
            out.push(Profiled {
                data: profiled.data,
                heldout,
            });
        }
        self.setup_minstr = instructions as f64 / 1e6;
        Ok(out)
    }

    fn round(
        &mut self,
        apps: &mut Vec<Profiled>,
        tr: &Tracer,
        rec: &mut Recorder,
    ) -> Result<u64, String> {
        let mut explorations: Vec<Exploration> = Vec::new();
        for app in apps.iter() {
            if let Some((ex, _)) = rec.op(&app.data.app, || {
                let ex = explore(&app.data, 1, tr);
                match ex.evaluations.len() {
                    30 => Ok(ex),
                    n => Err(format!("{n} of 30 configurations evaluated")),
                }
            }) {
                explorations.push(ex);
            }
        }
        let _pick = tr.span("selection.pick");
        let points = threshold_sweep(&explorations, &THRESHOLDS);
        rec.check(
            points
                .windows(2)
                .skip(1)
                .all(|w| w[1].mean_speedup >= w[0].mean_speedup - 1e-9),
            || "threshold sweep speedups are not monotone".to_string(),
        );
        let mut heldout = 0.0;
        for (app, ex) in apps.iter().zip(&explorations) {
            let best = ex.min_error().expect("30 configurations evaluated");
            heldout += cross_error_pct(best, &app.heldout);
        }
        let heldout = heldout / explorations.len().max(1) as f64;
        rec.check(
            heldout.is_finite() && heldout <= MAX_HELDOUT_ERROR_PCT,
            || format!("held-out error {heldout}% exceeds {MAX_HELDOUT_ERROR_PCT}%"),
        );
        self.heldout_error_pct = Some(heldout);
        self.intervals = explorations.iter().map(scheme_intervals).sum();
        let mut digest = FNV_BASIS;
        for ex in &explorations {
            digest = fold_json(digest, &ex.evaluations);
        }
        digest = fold_json(digest, &points);
        Ok(fold_json(digest, &heldout))
    }

    fn summary(&self) -> Vec<String> {
        self.heldout_error_pct
            .map(|e| vec![format!("heldout_error_pct {e:.6}")])
            .unwrap_or_default()
    }

    fn layer_metrics(
        &mut self,
        state: Option<&mut Vec<Profiled>>,
        _fold: &Fold,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let apps = state.ok_or("explore-sweep keeps its set-up")?;
        // Fan-out speedup: the one-call explore at `par_threads`
        // workers against one, best of three each.
        let time = |threads: usize| {
            (0..3)
                .map(|_| {
                    let start = Instant::now();
                    for app in apps.iter() {
                        explore(&app.data, threads, &Tracer::off());
                    }
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let serial = time(1);
        rec.set("par.explore_speedup", ratio(serial, time(self.par_threads)));
        if let Some(e) = self.heldout_error_pct {
            rec.set("selection.heldout_error_pct", e);
        }
        rec.set("selection.intervals", self.intervals as f64);
        rec.set("runtime.minstr", self.setup_minstr);
        rec.set("runtime.invocations", {
            apps.iter().map(|a| a.data.invocations.len() as f64).sum()
        });
        Ok(())
    }
}
