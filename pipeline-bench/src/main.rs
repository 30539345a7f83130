//! `pipeline`: run one benchmark workload, or compare two sets of
//! runs.
//!
//! ```text
//! pipeline --workload <name>|all [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! pipeline --compare BASE_DIR NEW_DIR
//! ```
//!
//! A run prints its deterministic output summary, every metric as
//! `name value unit`, and, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. It exits 1 when a
//! check fails and 2 on bad usage.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use pipeline_bench::catalog::WORKLOADS;
use pipeline_bench::compare::{compare, load_dir, Verdict};
use pipeline_bench::run::{Options, Outcome};
use pipeline_bench::{nproc, pin_library_threads, refuse_ambient_knobs, run_workload, RunRecord};

const USAGE: &str = "usage: pipeline --workload <name>|all [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       pipeline --compare BASE_DIR NEW_DIR";

struct Args {
    workload: String,
    opts: Options,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value(i)?.clone()),
            "--seed" => opts.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => out = Some(PathBuf::from(value(i)?)),
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => opts.trace = false,
                Some("1") => opts.trace = true,
                // A bare `--trace` turns tracing on and takes no value.
                _ => {
                    opts.trace = true;
                    i += 1;
                    continue;
                }
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        opts,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.as_slice() {
            [_, base, new] => run_compare(Path::new(base), Path::new(new)),
            _ => usage_error("--compare takes BASE_DIR NEW_DIR"),
        };
    }
    let parsed = match parse(&args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if let Err(e) = refuse_ambient_knobs() {
        eprintln!("pipeline: {e}");
        return ExitCode::from(2);
    }
    if parsed.workload == "all" {
        return run_all(&args);
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == parsed.workload) {
        return usage_error(&format!("unknown workload {}", parsed.workload));
    }
    pin_library_threads();
    match run_workload(&parsed.workload, &parsed.opts) {
        Ok(outcome) => report(&outcome, &parsed),
        Err(e) => {
            eprintln!("pipeline: {}: {e}", parsed.workload);
            ExitCode::from(1)
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("pipeline: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// Each workload in a process of its own, one after another.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("pipeline: locating this executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed --workload")
            + 1;
        child_args[at] = workload.to_string();
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("pipeline: running {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn report(outcome: &Outcome, args: &Args) -> ExitCode {
    let opts = &args.opts;
    let record = RunRecord::new(outcome, opts);
    println!(
        "pipeline {} seed {} seconds {} trace {} nproc {} rev {}",
        outcome.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        nproc(),
        record.git_rev
    );
    println!("digest {}", record.digest);
    for line in &outcome.summary {
        println!("{line}");
    }
    for path in &outcome.artifacts {
        println!("wrote {path}");
    }
    for problem in &outcome.problems {
        println!("FAILED {problem}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name} {value} {unit}");
    }
    if let Some(dir) = &args.out {
        if let Err(e) = write_record(dir, &record) {
            eprintln!("pipeline: {e}");
            return ExitCode::from(1);
        }
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn write_record(dir: &Path, record: &RunRecord) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let path = dir.join(format!(
        "{}-seed{}-trace{}-{stamp}.json",
        record.workload,
        record.seed,
        u8::from(record.trace)
    ));
    let json = serde_json::to_string_pretty(record).map_err(|e| format!("{e:?}"))?;
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run_compare(base: &Path, new: &Path) -> ExitCode {
    let loaded = load_dir(base).and_then(|b| Ok((b, load_dir(new)?)));
    let rows = match loaded.and_then(|(b, n)| compare(&b, &n)) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("pipeline: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<12} {:<14} {:>32} {:>32} {:>8}  verdict",
        "metric", "workload", "base median [q1, q3]", "new median [q1, q3]", "change"
    );
    let show = |q: &pipeline_bench::stats::Quartiles| {
        format!("{:.4} [{:.4}, {:.4}]", q.median, q.q1, q.q3)
    };
    for row in &rows {
        let change = if row.base.median == 0.0 {
            0.0
        } else {
            (row.new.median / row.base.median - 1.0) * 100.0
        };
        println!(
            "{:<12} {:<14} {:>32} {:>32} {:>+7.2}%  {}",
            row.metric,
            row.workload,
            show(&row.base),
            show(&row.new),
            change,
            row.verdict.label()
        );
    }
    if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
