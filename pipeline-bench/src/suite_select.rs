//! `suite-select`: the paper's whole flow — profile, explore the 30
//! configurations, pick — over all 25 apps, serially.
//!
//! Apps run at `Scale::Test`, where one pass over the suite takes a
//! few seconds, so a run holds several passes. Profiling (runtime
//! and core) does most of the work, so a profiling gain shows here.

use ocl_runtime::host::HostProgram;
use subset_select::Exploration;
use workloads::{all_specs, Scale, WorkloadSpec};

use crate::inputs::{trial, Trial};
use crate::run::{Recorder, Workload};
use crate::stages::{build, explore, fold_json, profile, scheme_intervals, FNV_BASIS};
use crate::trace::{Fold, Tracer};

/// The co-optimization threshold of the selection step (percent).
const CO_OPT_THRESHOLD_PCT: f64 = 5.0;

/// Upper limit on a min-error pick's Eq.-1 error (percent). The
/// suite's picks sit well below it at every seed tried; a pick above
/// it means selection broke.
const MAX_ERROR_PCT: f64 = 20.0;

/// The workload.
pub struct SuiteSelect {
    specs: Vec<WorkloadSpec>,
    trial: Trial,
    quality: Option<Quality>,
}

#[derive(Debug, Clone, Copy)]
struct Quality {
    mean_error_pct: f64,
    geomean_speedup: f64,
    minstr: f64,
    invocations: u64,
    intervals: u64,
}

impl SuiteSelect {
    /// The suite in the trial of `seed`.
    pub fn new(seed: u64) -> SuiteSelect {
        SuiteSelect {
            specs: all_specs(),
            trial: trial(seed),
            quality: None,
        }
    }
}

/// One app's selection, as the round checks and digests it.
struct AppSelection {
    profiled: subset_select::ProfiledApp,
    exploration: Exploration,
}

/// Profile, explore and pick for one app.
///
/// # Errors
///
/// The failing stage's error, or a pick that breaks an invariant.
fn select_app(program: &HostProgram, trial: Trial, tr: &Tracer) -> Result<AppSelection, String> {
    let profiled = profile(program, trial, tr)?;
    let exploration = explore(&profiled.data, 1, tr);
    let _pick = tr.span("selection.pick");
    let best = exploration
        .min_error()
        .ok_or("no configuration evaluated")?;
    let co = exploration
        .co_optimize(CO_OPT_THRESHOLD_PCT)
        .ok_or("no configuration evaluated")?;
    if !(best.error_pct.is_finite() && best.error_pct <= MAX_ERROR_PCT) {
        return Err(format!("min-error pick has {}% error", best.error_pct));
    }
    if co.error_pct > CO_OPT_THRESHOLD_PCT && co.error_pct != best.error_pct {
        return Err("co-optimized pick exceeds its threshold".to_string());
    }
    for e in [best, co] {
        if (e.selection.total_ratio() - 1.0).abs() > 1e-9 {
            return Err(format!(
                "{} ratios sum to {}",
                e.config,
                e.selection.total_ratio()
            ));
        }
    }
    Ok(AppSelection {
        profiled,
        exploration,
    })
}

impl Workload for SuiteSelect {
    type State = Vec<HostProgram>;

    fn name(&self) -> &'static str {
        "suite-select"
    }

    fn setup(&mut self, tr: &Tracer) -> Result<Vec<HostProgram>, String> {
        Ok(self
            .specs
            .iter()
            .map(|s| build(s, Scale::Test, tr))
            .collect())
    }

    fn round(
        &mut self,
        programs: &mut Vec<HostProgram>,
        tr: &Tracer,
        rec: &mut Recorder,
    ) -> Result<u64, String> {
        let mut digest = FNV_BASIS;
        let (mut err_sum, mut log_speedup, mut n) = (0.0, 0.0, 0usize);
        let (mut instructions, mut invocations, mut intervals) = (0u64, 0u64, 0u64);
        for program in programs.iter() {
            let Some((app, _)) = rec.op(&program.name, || select_app(program, self.trial, tr))
            else {
                continue;
            };
            let data = &app.profiled.data;
            rec.check(
                data.invocations.len() == app.profiled.cofluent.invocations.len()
                    && app.exploration.evaluations.len() == 30,
                || format!("{}: incomplete profile or exploration", program.name),
            );
            let best = app.exploration.min_error().expect("checked by select_app");
            err_sum += best.error_pct;
            log_speedup += best.speedup().ln();
            n += 1;
            instructions += data.total_instructions();
            invocations += data.invocations.len() as u64;
            intervals += scheme_intervals(&app.exploration);
            digest = fold_json(digest, data);
            digest = fold_json(digest, &app.exploration.evaluations);
        }
        let n = n.max(1) as f64;
        self.quality = Some(Quality {
            mean_error_pct: err_sum / n,
            geomean_speedup: (log_speedup / n).exp(),
            minstr: instructions as f64 / 1e6,
            invocations,
            intervals,
        });
        Ok(digest)
    }

    fn summary(&self) -> Vec<String> {
        match self.quality {
            Some(q) => vec![
                format!("mean_error_pct {:.6}", q.mean_error_pct),
                format!("geomean_speedup {:.6}", q.geomean_speedup),
                format!("minstr {:.6}", q.minstr),
            ],
            None => Vec::new(),
        }
    }

    fn layer_metrics(
        &mut self,
        _state: Option<&mut Vec<HostProgram>>,
        _fold: &Fold,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        if let Some(q) = self.quality {
            rec.set("selection.mean_error_pct", q.mean_error_pct);
            rec.set("selection.geomean_speedup", q.geomean_speedup);
            rec.set("runtime.minstr", q.minstr);
            rec.set("runtime.invocations", q.invocations as f64);
            rec.set("selection.intervals", q.intervals as f64);
        }
        Ok(())
    }
}
