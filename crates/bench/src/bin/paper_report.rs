//! Every table and figure of the GT-Pin paper, from one profiling
//! pass:
//!
//! ```sh
//! cargo run --release -p bench-suite --bin paper-report -- --scale default
//! ```
//!
//! The suite is profiled once and explored once; every section renders
//! from those shared results. The output holds no wall-clock and is
//! byte-identical at any `GTPIN_THREADS`. Its last line is the FNV-1a
//! digest of every byte printed before it.
//!
//! Table II's large → medium → small ordering and Figure 7's monotone
//! speedup are checked: when either breaks, the report still prints,
//! then stderr names the app or threshold pair and the exit is nonzero.

use std::process::ExitCode;

use bench_suite::drivers::{parse_scale, pct, profile_suite, thousands, ProfiledWorkload, Summary};
use gen_isa::OpcodeCategory;
use gpu_device::{Gpu, GpuConfig, GpuGeneration};
use gtpin_core::{AppCharacterization, GtPin, RewriteConfig};
use ocl_runtime::runtime::{OclRuntime, Schedule};
use simpoint::SimpointConfig;
use subset_select::{
    all_configs, build_intervals, cross_error_pct, default_approx_target, evaluate_config_weighted,
    replay_timings, threshold_sweep, Evaluation, Exploration, FeatureWeighting::RawCounts,
    IntervalScheme,
};
use workloads::{all_specs, build_program, figure5_sample_names, luxmark_score, Scale};

/// The report text so far, plus the shape checks that failed.
#[derive(Default)]
struct Report {
    text: String,
    failures: Vec<String>,
}

impl Report {
    fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    fn header(&mut self, title: &str) {
        self.line("");
        self.line(format!("=== {title} ==="));
        self.line("");
    }
}

/// One numeric table column: its heading and how a value prints.
type Column<'a> = (&'a str, fn(f64) -> String);

/// Columns with these headings, all printed by `show`.
fn cols<'a>(heads: &[&'a str], show: fn(f64) -> String) -> Vec<Column<'a>> {
    heads.iter().map(|&head| (head, show)).collect()
}

/// Print a titled table: one row per app, then MIN / AVERAGE / MAX
/// rows over each column.
fn table(r: &mut Report, title: &str, cols: &[Column], rows: &[(&str, Vec<f64>)]) {
    r.header(title);
    r.line(row("app", cols.iter().map(|c| c.0.to_string())));
    for (name, values) in rows {
        r.line(row(name, cols.iter().zip(values).map(|(c, &v)| c.1(v))));
    }
    let sums: Vec<Summary> = (0..cols.len())
        .map(|i| Summary::of(rows, |row| row.1[i]))
        .collect();
    let summary_row = |label, pick: fn(&Summary) -> f64| {
        row(label, cols.iter().zip(&sums).map(|(c, s)| c.1(pick(s))))
    };
    r.line(summary_row("MIN", |s| s.min));
    r.line(summary_row("AVERAGE", |s| s.mean));
    r.line(summary_row("MAX", |s| s.max));
}

/// One table line: the app (or summary) label, then right-aligned cells.
fn row(label: &str, cells: impl Iterator<Item = String>) -> String {
    cells.fold(format!("{label:28}"), |line, cell| {
        line + &format!(" {cell:>13}")
    })
}

/// A count, with thousands separators and one decimal when it has a
/// fraction (averages).
fn count(v: f64) -> String {
    let tenths = (v * 10.0).round() as u64;
    let whole = thousands(tenths / 10);
    match tenths % 10 {
        0 => whole,
        frac => format!("{whole}.{frac}"),
    }
}

fn error(v: f64) -> String {
    format!("{v:.3}%")
}

fn factor(v: f64) -> String {
    format!("{v:.2}x")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Ok(scale) = parse_scale(&args).inspect_err(|e| eprintln!("paper-report: {e}")) else {
        return ExitCode::from(2);
    };

    let suite = profile_suite(scale);
    let spc = SimpointConfig::default();
    let explorations: Vec<Exploration> = suite
        .iter()
        .map(|w| {
            let data = &w.profiled.data;
            Exploration::run(data, default_approx_target(data), &spc)
        })
        .collect();
    let best: Vec<&Evaluation> = explorations
        .iter()
        .map(|ex| ex.min_error().expect("every suite app has evaluations"))
        .collect();

    let mut r = Report::default();
    table1(&mut r);
    characterization(&mut r, &suite);
    table2(&mut r, &suite);
    figure5(&mut r, &explorations, &best);
    figure6(&mut r, &suite, &best);
    figure7(&mut r, &explorations);
    figure8(&mut r, &suite, &best);
    overhead(&mut r, &suite, scale);
    weighting_ablation(&mut r, &suite, &best);

    let digest = gtpin_obs::frame::fnv64(r.text.as_bytes());
    println!("{}report digest: 0x{digest:016x}", r.text);
    if r.failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    for failure in &r.failures {
        eprintln!("paper-report: shape check failed: {failure}");
    }
    ExitCode::FAILURE
}

fn table1(r: &mut Report) {
    r.header("Table I: Benchmarks used in this study");
    for apps in all_specs().chunk_by(|a, b| a.suite == b.suite) {
        let names: Vec<&str> = apps.iter().map(|s| s.name).collect();
        let label = apps[0].suite.label();
        r.line(format!("{label:28} | {}", names.join(", ")));
    }

    r.header("Figure 2: Processor architecture of the test system");
    for generation in [GpuGeneration::IvyBridgeHd4000, GpuGeneration::HaswellHd4600] {
        let t = generation.topology();
        r.line(format!(
            "{:28} | {} EUs in {} subslices ({} EUs/subslice), {} HW threads/EU \
             ({} total), max {:.0} MHz, LLC slice {} KiB",
            t.name,
            t.execution_units,
            t.subslices,
            t.eus_per_subslice(),
            t.threads_per_eu,
            t.total_hw_threads(),
            t.max_frequency_hz / 1e6,
            t.llc_slice_kib,
        ));
    }
    r.line("");
    r.line("paper: HD4000 = 16 EUs, 2 subslices, 8 threads/EU, 128 HW threads, 1150 MHz");
}

/// Figures 3a–c and 4a–c.
fn characterization(r: &mut Report, suite: &[ProfiledWorkload]) {
    let apps: Vec<(&str, AppCharacterization)> = suite
        .iter()
        .map(|w| {
            let c = AppCharacterization::new(&w.profiled.cofluent, &w.profiled.profile);
            (w.spec.name, c)
        })
        .collect();
    let rows = |columns: fn(&AppCharacterization) -> Vec<f64>| -> Vec<(&str, Vec<f64>)> {
        apps.iter().map(|(name, c)| (*name, columns(c))).collect()
    };

    let mut calls = cols(&["calls"], count);
    calls.extend(cols(&["kernel", "sync", "other"], pct));
    table(
        r,
        "Figure 3a: OpenCL API call breakdown",
        &calls,
        &rows(|c| {
            vec![
                c.total_api_calls as f64,
                c.kernel_call_fraction,
                c.sync_call_fraction,
                c.other_call_fraction,
            ]
        }),
    );
    r.line("");
    r.line("paper shape: 703–160,000 calls; kernel ≈15% typical (bitcoin 4.5%,");
    r.line("             part-sim-32k 76.5%); sync avg 6.8% and mostly <3% (juliaset 25.7%)");

    table(
        r,
        "Figure 3b: GPU program structures (static)",
        &cols(&["kernels", "basic blks"], count),
        &rows(|c| vec![c.unique_kernels as f64, c.unique_basic_blocks as f64]),
    );
    r.line("");
    r.line("paper shape: 1–50 kernels (mean 10.2), 7–11500 blocks (mean 1139)");

    table(
        r,
        "Figure 3c: dynamic GPU work",
        &cols(&["kernels", "basic blks", "instructions"], count),
        &rows(|c| {
            vec![
                c.kernel_invocations as f64,
                c.bb_executions as f64,
                c.instructions as f64,
            ]
        }),
    );
    r.line("");
    r.line("paper shape (unscaled): 55–18157 invocations (mean 4764),");
    r.line("44M–180B block execs, 3.7B–2.9T instructions (mean 227B);");
    r.line("this model runs at ~1e-5 dynamic scale — see DESIGN.md");

    table(
        r,
        "Figure 4a: dynamic instruction mixes",
        &cols(&OpcodeCategory::ALL.map(OpcodeCategory::label), pct),
        &rows(|c| c.category_fractions.to_vec()),
    );
    r.line("");
    r.line("paper shape: control avg 7.3%, computation 36.2%, sends 5.1%;");
    r.line("proc-gpu stands out with ~91% computation");

    table(
        r,
        "Figure 4b: SIMD widths",
        &cols(&["w1", "w2", "w4", "w8", "w16"], pct),
        &rows(|c| c.width_fractions.to_vec()),
    );
    r.line("");
    r.line("paper shape: 16-wide 52%, 8-wide 45%, 1-wide 4%, 4-wide <0.1%, 2-wide never");

    let mut memory = cols(&["bytes read", "bytes written"], count);
    memory.extend(cols(&["R/W", "W/R"], |v| format!("{v:.1}")));
    table(
        r,
        "Figure 4c: GPU memory activity",
        &memory,
        &rows(|c| {
            let (read, written) = (c.bytes_read as f64, c.bytes_written as f64);
            vec![read, written, read / written, written / read]
        }),
    );
    r.line("");
    r.line("paper shape: crypto apps read the most (624 / 2174 GB); the Sony apps write");
    r.line("far more than they read (up to 525× for proj-r5); on average reads ≫ writes");
}

/// Table II, checking the large → medium → small ordering per app.
fn table2(r: &mut Report, suite: &[ProfiledWorkload]) {
    let rows: Vec<(&str, Vec<f64>)> = suite
        .iter()
        .map(|w| {
            let data = &w.profiled.data;
            let counts = [
                IntervalScheme::SyncBounded,
                IntervalScheme::ApproxInstructions(default_approx_target(data)),
                IntervalScheme::SingleKernel,
            ]
            .map(|scheme| build_intervals(data, scheme).len() as f64);
            (w.spec.name, counts.to_vec())
        })
        .collect();

    table(
        r,
        "Table II: the program interval space (intervals per program)",
        &cols(&["sync", "~target", "single-kernel"], count),
        &rows,
    );
    let broken: Vec<_> = rows
        .iter()
        .filter(|(_, n)| !(n[0] <= n[1] && n[1] <= n[2]))
        .collect();
    r.line("");
    r.line(format!(
        "sync <= ~target <= single-kernel holds for {}/{} apps",
        rows.len() - broken.len(),
        rows.len()
    ));
    for (app, n) in broken {
        r.failures.push(format!(
            "Table II: {app} breaks large → medium → small with {} sync, {} ~target, \
             {} single-kernel intervals",
            n[0], n[1], n[2]
        ));
    }
    r.line("");
    r.line("paper (unscaled): sync 56/545/2115, ~100M 55/916/3121,");
    r.line("single-kernel 55/4749/18157 (min/avg/max); the ordering");
    r.line("large → medium → small must hold per app and on average");
}

/// Figure 5: all 30 configurations of the three sample apps.
fn figure5(r: &mut Report, explorations: &[Exploration], best: &[&Evaluation]) {
    for (ex, best) in explorations.iter().zip(best) {
        if !figure5_sample_names().contains(&ex.app.as_str()) {
            continue;
        }
        r.header(&format!("Figure 5: {}", ex.app));
        r.line(format!(
            "{:14} {:>12} {:>12} {:>12} {:>4}",
            "interval", "features", "error", "sel. size", "k"
        ));
        for e in &ex.evaluations {
            r.line(format!(
                "{:14} {:>12} {:>11.2}% {:>11.2}% {:>4}",
                e.config.interval.label(),
                e.config.features.label(),
                e.error_pct,
                e.selection_fraction() * 100.0,
                e.selection.k,
            ));
        }
        r.line(format!(
            "best: {} with {:.2}% error, {:.2}% of instructions selected",
            best.config,
            best.error_pct,
            best.selection_fraction() * 100.0
        ));
    }
    r.line("");
    r.line("paper shape: no single configuration is best across apps; block-based");
    r.line("features tend to beat kernel-based ones; memory features usually help;");
    r.line("sync-bounded intervals give the smallest errors but largest selections");
}

/// Figure 6: each app's error-minimizing configuration.
fn figure6(r: &mut Report, suite: &[ProfiledWorkload], best: &[&Evaluation]) {
    r.header("Figure 6: per-application error-minimizing configurations");
    r.line(format!(
        "{:28} {:>24} {:>9} {:>10} {:>4}",
        "app", "best config", "error", "speedup", "k"
    ));
    for (w, e) in suite.iter().zip(best) {
        r.line(format!(
            "{:28} {:>24} {:>8.3}% {:>9.1}x {:>4}",
            w.spec.name,
            e.config.to_string(),
            e.error_pct,
            e.speedup(),
            e.selection.k,
        ));
    }
    let error = Summary::of(best, |e| e.error_pct);
    let speedup = Summary::of(best, |e| e.speedup());
    let n = best.len();
    let picks = |keep: fn(&Evaluation) -> bool| best.iter().filter(|e| keep(e)).count();
    r.line("");
    r.line(format!(
        "average error {:.3}%   worst {:.3}%   average speedup {:.1}x (range {:.1}x–{:.1}x)",
        error.mean, error.max, speedup.mean, speedup.min, speedup.max,
    ));
    r.line(format!(
        "feature choices: {}/{n} block-based, {}/{n} kernel-based, {}/{n} memory-based",
        picks(|e| e.config.features.is_block_based()),
        picks(|e| !e.config.features.is_block_based()),
        picks(|e| e.config.features.uses_memory()),
    ));
    r.line(format!(
        "interval choices: {} sync-bounded, {} ~target, {} single-kernel",
        picks(|e| e.config.interval == IntervalScheme::SyncBounded),
        picks(|e| matches!(e.config.interval, IntervalScheme::ApproxInstructions(_))),
        picks(|e| e.config.interval == IntervalScheme::SingleKernel),
    ));
    r.line("");
    r.line("paper: 0.3% average error (worst 2.1%), 35x average speedup (6x–6509x);");
    r.line("20/25 memory features, 5/25 kernel features; intervals split 11/11/3");
}

/// Figure 7: the threshold sweep, checking that speedup rises with
/// the threshold.
fn figure7(r: &mut Report, explorations: &[Exploration]) {
    let thresholds: Vec<Option<f64>> = [None, Some(0.5)]
        .into_iter()
        .chain((1..=10).map(|t| Some(f64::from(t))))
        .collect();
    let points = threshold_sweep(explorations, &thresholds);
    let label = |t: Option<f64>| t.map_or("min-error".to_string(), |t| format!("{t:.1}%"));

    r.header("Figure 7: optimizing for both error and selection size");
    r.line(format!(
        "{:>12} {:>14} {:>14}",
        "threshold", "avg error", "avg speedup"
    ));
    for p in &points {
        r.line(format!(
            "{:>12} {:>13.3}% {:>13.1}x",
            label(p.threshold_pct),
            p.mean_error_pct,
            p.mean_speedup
        ));
    }
    let falls: Vec<_> = points[1..]
        .windows(2)
        .filter(|w| w[1].mean_speedup < w[0].mean_speedup - 1e-9)
        .collect();
    for w in &falls {
        r.failures.push(format!(
            "Figure 7: mean speedup falls from {:.1}x at {} to {:.1}x at {}",
            w[0].mean_speedup,
            label(w[0].threshold_pct),
            w[1].mean_speedup,
            label(w[1].threshold_pct),
        ));
    }
    let loosest = points.last().expect("thresholds are non-empty");
    r.line("");
    r.line(format!(
        "speedup monotone with threshold: {}",
        if falls.is_empty() { "yes" } else { "NO" }
    ));
    r.line("");
    r.line("paper: at 10% threshold, 3.0% average error and 223x average speedup;");
    r.line(format!(
        "ours at 10%: {:.2}% error, {:.0}x speedup (shape: error rises, speedup soars)",
        loosest.mean_error_pct, loosest.mean_speedup
    ));
}

/// Figure 8: trial-1 selections against replays on new trials,
/// lower frequencies and Haswell.
///
/// The 15 replays per app are independent, so (app, replay) pairs fan
/// out across `GTPIN_THREADS` with device-internal parallelism off;
/// errors come back in input order.
fn figure8(r: &mut Report, suite: &[ProfiledWorkload], best: &[&Evaluation]) {
    const TRIALS: usize = 9;
    let freqs = [1000.0e6, 850.0e6, 700.0e6, 550.0e6, 350.0e6];
    let replays: Vec<GpuConfig> = (2..=10)
        .map(|trial| GpuConfig::hd4000().with_trial_seed(trial))
        .chain(freqs.map(|f| GpuConfig::hd4000().with_trial_seed(2).with_frequency_hz(f)))
        .chain([GpuConfig::hd4600().with_trial_seed(3)])
        .collect();
    let tasks: Vec<(usize, GpuConfig)> = (0..suite.len())
        .flat_map(|app| replays.iter().map(move |&gpu| (app, gpu)))
        .collect();
    let threads = gtpin_par::configured_threads();
    let errors = gtpin_par::parallel_map(&tasks, threads, |_, &(app, mut gpu)| {
        gpu.exec.threads = 1;
        let profiled = &suite[app].profiled;
        let timing = replay_timings(&profiled.recording, gpu).expect("replay runs");
        let data = profiled.data.with_timings(&timing).expect("same order");
        cross_error_pct(best[app], &data)
    });
    let columns = |range: std::ops::Range<usize>| -> Vec<(&str, Vec<f64>)> {
        let per_app = errors.chunks(replays.len());
        let rows = suite.iter().zip(per_app);
        rows.map(|(w, e)| (w.spec.name, e[range.clone()].to_vec()))
            .collect()
    };

    let trials = columns(0..TRIALS);
    let rows: Vec<(&str, Vec<f64>)> = trials
        .iter()
        .map(|(name, e)| {
            let s = Summary::of(e, |&e| e);
            (*name, vec![s.min, s.mean, s.max])
        })
        .collect();
    table(
        r,
        "Figure 8 (top): error using trial-1 selections on trials 2-10",
        &cols(&["min", "mean", "max"], error),
        &rows,
    );
    summarize(r, &trials);

    let heads = freqs.map(|f| format!("{:.0}MHz", f / 1e6));
    let rows = columns(TRIALS..TRIALS + freqs.len());
    table(
        r,
        "Figure 8 (middle): error using 1150MHz selections at lower frequencies",
        &cols(&heads.each_ref().map(String::as_str), error),
        &rows,
    );
    summarize(r, &rows);

    let rows = columns(replays.len() - 1..replays.len());
    table(
        r,
        "Figure 8 (bottom): error using Ivy Bridge selections on Haswell",
        &cols(&["Haswell"], error),
        &rows,
    );
    r.line(format!(
        "LuxMark-style scores: HD4000 {:.0}, HD4600 {:.0} (paper: 269 vs 351)",
        luxmark_score(GpuConfig::hd4000()),
        luxmark_score(GpuConfig::hd4600())
    ));
    summarize(r, &rows);
    let worst = Summary::of(&rows, |row| row.1[0]).max;
    let app = rows
        .iter()
        .find(|row| row.1[0] == worst)
        .map_or("", |row| row.0);
    r.line(format!(
        "worst app: {app} at {worst:.2}% (paper's worst was gaussian-image at ~11%)"
    ));
    r.line("");
    r.line("paper shape: most errors below 3% in all three validations, many below 1%");
}

/// Pooled mean and max of one Figure 8 validation, and how many of its
/// errors stay below the paper's 3% mark.
fn summarize(r: &mut Report, rows: &[(&str, Vec<f64>)]) {
    let errors: Vec<f64> = rows.iter().flat_map(|row| row.1.iter().copied()).collect();
    let s = Summary::of(&errors, |&e| e);
    let below3 = errors.iter().filter(|&&e| e < 3.0).count();
    r.line(format!(
        "summary: mean {:.3}%, max {:.3}%, {below3}/{} below 3%",
        s.mean,
        s.max,
        errors.len()
    ));
}

/// Section III-C: what instrumentation costs over a native run, in
/// dynamic instructions and in modelled time, for per-block counters
/// (GT-Pin's design), full instrumentation (counters, timers and
/// memory tracing) and the naive per-instruction counters.
fn overhead(r: &mut Report, suite: &[ProfiledWorkload], scale: Scale) {
    let apps = [
        "cb-gaussian-buffer",
        "cb-vision-facedetect",
        "sandra-proc-gpu",
    ];
    let block = RewriteConfig::default();
    let (mut full, mut per_instruction) = (block, block);
    (full.time_kernels, full.trace_memory) = (true, true);
    per_instruction.naive_per_instruction_counters = true;
    let variants = [None, Some(block), Some(full), Some(per_instruction)];
    let measured: Vec<&ProfiledWorkload> = suite
        .iter()
        .filter(|w| apps.contains(&w.spec.name))
        .collect();
    let threads = gtpin_par::configured_threads();
    let rows = gtpin_par::parallel_map(&measured, threads, |_, w| {
        let program = build_program(&w.spec, scale);
        // (dynamic instructions, modelled seconds) of one run.
        let run = |rewrite: Option<RewriteConfig>| {
            let mut config = GpuConfig::hd4000();
            config.exec.threads = 1;
            let mut gpu = Gpu::new(config);
            let _gtpin = rewrite.map(|c| {
                let g = GtPin::new(c);
                g.attach(&mut gpu);
                g
            });
            let mut rt = OclRuntime::new(gpu);
            rt.run(&program, Schedule::Replay).expect("runs");
            let launches = rt.device().launches();
            let instructions: u64 = launches.iter().map(|l| l.stats.instructions).sum();
            (
                instructions as f64,
                launches.iter().map(|l| l.seconds).sum::<f64>(),
            )
        };
        let [(instrs, secs), instrumented @ ..] = variants.map(run);
        let mut row = vec![instrs];
        row.extend(instrumented.iter().map(|run| run.0 / instrs));
        row.extend(instrumented.iter().map(|run| run.1 / secs));
        (w.spec.name, row)
    });

    let mut overheads = cols(&["native ins"], count);
    overheads.extend(cols(&["block ins", "full ins", "per-ins ins"], factor));
    overheads.extend(cols(&["block time", "full time", "per-ins time"], factor));
    table(
        r,
        "Section III-C: GT-Pin overhead over native (per-block, full, per-instruction)",
        &overheads,
        &rows,
    );
    r.line("");
    r.line("paper: profiling runs take 2-10x native; per-block counting is what keeps");
    r.line("GT-Pin there, a per-instruction design pays several times more for the same data");
}

/// Instruction-weighted vs raw-count feature vectors (Section V-B).
/// The weighted column is Figure 6's minimum: the exploration
/// evaluates every configuration instruction-weighted.
fn weighting_ablation(r: &mut Report, suite: &[ProfiledWorkload], best: &[&Evaluation]) {
    let apps = [
        "cb-physics-ocean-surf",
        "cb-vision-tv-l1-of",
        "sandra-crypt-aes128",
        "sonyvegas-proj-r4",
        "cb-graphics-t-rex",
    ];
    let spc = SimpointConfig::default();
    let rows: Vec<(&str, Vec<f64>)> = suite
        .iter()
        .zip(best)
        .filter(|(w, _)| apps.contains(&w.spec.name))
        .map(|(w, weighted)| {
            let data = &w.profiled.data;
            let raw = all_configs(default_approx_target(data))
                .into_iter()
                .filter_map(|cfg| evaluate_config_weighted(data, cfg, &spc, RawCounts).ok())
                .map(|e| e.error_pct)
                .fold(f64::INFINITY, f64::min);
            (w.spec.name, vec![weighted.error_pct, raw])
        })
        .collect();

    table(
        r,
        "Ablation: instruction-weighted vs raw-count features (Section V-B)",
        &cols(&["weighted err", "raw-count err"], error),
        &rows,
    );
    r.line("");
    r.line("paper's argument: a block executed 5 times at 20 instructions must");
    r.line("outweigh one executed 10 times at 3 — weighting should not lose");
}
