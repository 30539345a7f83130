//! `gtpin` — command-line front end for the GT-Pin reproduction.
//!
//! ```text
//! gtpin list                          list the 25 benchmark applications
//! gtpin run <app> [options]           profile an app with GT-Pin
//!     --scale test|default            workload scale (default: default)
//!     --time-kernels                  enable the kernel timer tool
//!     --trace-memory                  enable memory tracing
//!     --json <path>                   dump the profile as JSON
//! gtpin select <app> [threshold%]     explore configs and print selections
//!     --scale test|default            workload scale (default: default)
//! gtpin explore <app>...|--all [opts] supervised exploration sweep over
//!                                     many apps (crash-consistent)
//!     --threshold <pct>               co-opt error threshold (default 3)
//!     --scale test|default            workload scale (default: default)
//!     --journal <dir>                 journal completed units to a fresh
//!                                     directory as the sweep runs
//!     --resume <dir>                  recover <dir>, skip journaled
//!                                     units; the final report is
//!                                     bit-identical to an uninterrupted
//!                                     run
//!     (supervision knobs come from GTPIN_DEADLINE_MS, GTPIN_BREAKER,
//!     GTPIN_MAX_TASKS, GTPIN_MAX_VIRTUAL_MS; budget exhaustion prints
//!     the partial report and exits nonzero with error[budget])
//! gtpin sim <app> [options]           detailed-simulate an app's launches
//!                                     and print a deterministic stats
//!                                     digest (executor and shard
//!                                     workers from GTPIN_THREADS; the
//!                                     digest is bit-identical at every
//!                                     count)
//!     --scale test|default            workload scale (default: test)
//!     --launches <n>                  simulate only the first n launches
//! gtpin disasm <app> [kernel-index]   disassemble a JIT-compiled kernel
//! gtpin lint <app>|--all [--json <p>] run the static lints over every
//!                                     kernel of an app (or all apps) and
//!                                     verify the instrumentation rewrite
//!                                     is safe; nonzero exit on Error-
//!                                     severity findings
//! gtpin analyze <app>|--all           structural analysis of every kernel:
//!                                     loop forest with nesting depth and
//!                                     trip bounds, value ranges, and the
//!                                     device-derived static cycle estimate
//!                                     with per-block provenance; ends with
//!                                     a deterministic digest (bit-identical
//!                                     at every GTPIN_THREADS)
//!     [--json <path>]                 also dump the reports as JSON
//! gtpin luxmark                       compare HD4000 vs HD4600 scores
//! gtpin obs-report [app]              run an instrumented exploration and
//!                                     print the telemetry summary table
//!                                     (artifacts land in GTPIN_OBS_DIR,
//!                                     default target/obs)
//!     --journal <journal.gtobs>       summarize an existing binary journal
//!                                     instead of running anything
//! gtpin obs-verify <journal>          verify a journal: GTOBS01 binary
//!                                     journals get full CRC + version +
//!                                     structure checks, JSONL journals the
//!                                     legacy well-formedness check
//! gtpin obs-convert <journal.gtobs>   convert a binary journal to text
//!     [--jsonl <path>]                write the JSONL journal here
//!     [--trace <path>]                write the Chrome trace_event JSON
//!                                     (no flags: JSONL to stdout)
//! gtpin obs-timeline <journal.gtobs>  per-EU / per-epoch utilization from
//!                                     the detailed simulator's provenance
//!                                     events (virtual cycles on stdout —
//!                                     identical at every thread count —
//!                                     wall-clock barrier stats on stderr)
//! gtpin chaos [options]               seeded end-to-end chaos: each seed
//!                                     derives a multi-site fault plan, a
//!                                     kill/resume schedule across the
//!                                     profile/explore/sim/serve pipeline,
//!                                     and a thread count; oracles check
//!                                     conservation, replay identity,
//!                                     resume identity, and bounded
//!                                     restarts; failures shrink to a
//!                                     minimal (seed, site-set, kill-point)
//!                                     triple; ends with a deterministic
//!                                     digest (bit-identical at every
//!                                     GTPIN_THREADS and across a mid-run
//!                                     kill/resume of the chaos run itself)
//!     --seeds <n>                     scenarios to run (default 5)
//!     --seed-base <n>                 first seed (default 0)
//!     --journal <dir>                 journal completed scenarios to a
//!                                     fresh directory
//!     --resume <dir>                  recover <dir>; skip completed
//!                                     scenarios, identical final digest
//!     --max-restarts <n>              sweep crash/resume budget per
//!                                     scenario (default 200)
//!     --pinned                        run the pinned set instead: one
//!                                     scenario per fault contract, all
//!                                     seeded with --seed-base; lossless
//!                                     recoveries must match a fault-free
//!                                     run, and every armed site must fire
//!     --self-test                     run the shrinker self-test and exit
//! gtpin serve [options]               run the profiling daemon on a Unix
//!                                     socket until SIGTERM/SIGINT drains
//!                                     it (admission knobs come from
//!                                     GTPIN_DEADLINE_MS, GTPIN_BREAKER,
//!                                     GTPIN_MAX_TASKS,
//!                                     GTPIN_MAX_VIRTUAL_MS)
//!     --socket <path>                 socket path (default
//!                                     target/gtpin.sock)
//!     --journal <dir>                 journal sessions to a fresh dir
//!     --resume <dir>                  recover <dir>: replay completed
//!                                     sessions, recompute interrupted
//!                                     ones; responses are bit-identical
//!                                     to an uninterrupted daemon
//!     --max-sessions <n>              concurrent-session cap (default 8);
//!                                     the n+1th sheds error[busy]
//! gtpin request <kind> <app> [opts]   submit one request to a running
//!                                     daemon and stream the response;
//!                                     exits nonzero on error[*] payloads;
//!                                     transient failures (connect/IO/wire
//!                                     errors, error[busy] sheds) retry
//!                                     with deterministic seeded jittered
//!                                     backoff (3 attempts, 10 ms base
//!                                     delay)
//!     kinds: profile [--scale s], explore [--scale s] [--threshold pct],
//!            sim [--launches n], lint, analyze; --socket <path> selects
//!            the daemon
//! ```
//!
//! Every `GTPIN_*` variable must be one of the knobs named above
//! (plus `GTPIN_OBS`, `GTPIN_OBS_DIR`, `GTPIN_FAULTS` and
//! `GTPIN_FAULTS_SEED`); a malformed or unknown one exits 2 with
//! `error[cli]` before any work runs.

use gtpin_suite::device::{Gpu, GpuConfig};
use gtpin_suite::faults;
use gtpin_suite::gtpin::{AppCharacterization, GtPin, RewriteConfig};
use gtpin_suite::isa::disasm::disassemble_flat;
use gtpin_suite::obs::frame::fnv_fold;
use gtpin_suite::par::RunConfig;
use gtpin_suite::runtime::runtime::{OclRuntime, Schedule};
use gtpin_suite::selection::{profile_app, run_sweep, Exploration, SweepOptions};
use gtpin_suite::serve::{render_selection, simulate_program, SimError};
use gtpin_suite::simpoint::SimpointConfig;
use gtpin_suite::workloads::{all_specs, build_program, luxmark_score, spec_by_name, Scale};
use gtpin_suite::GtPinError;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every GTPIN_* knob is parsed here, once; commands get explicit
    // values from it. A malformed or unknown knob (GTPIN_THREADS=four,
    // GTPIN_THREAD=4) is a usage error, raised before any work runs.
    let config = match RunConfig::from_env() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error[cli]: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..], &config),
        Some("select") => cmd_select(&args[1..], &config),
        Some("explore") => cmd_explore(&args[1..], &config),
        Some("sim") => cmd_sim(&args[1..], &config),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..], &config),
        Some("luxmark") => cmd_luxmark(),
        Some("obs-report") => cmd_obs_report(&args[1..], &config),
        Some("obs-verify") => cmd_obs_verify(&args[1..]),
        Some("obs-convert") => cmd_obs_convert(&args[1..]),
        Some("obs-timeline") => cmd_obs_timeline(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("serve") => cmd_serve(&args[1..], &config),
        Some("request") => cmd_request(&args[1..]),
        _ => {
            eprintln!(
                "usage: gtpin <list|run|select|explore|sim|disasm|lint|analyze|luxmark|obs-report|obs-verify|obs-convert|obs-timeline|chaos|serve|request> [args]"
            );
            eprintln!("       see crate docs for options");
            std::process::exit(2);
        }
    };
    // With GTPIN_FAULTS armed, always report what fired and what was
    // recovered — on success and on failure alike.
    if let Some(summary) = faults::summary_if_enabled() {
        eprintln!("{summary}");
    }
    if let Err(e) = result {
        eprintln!("error[{}]: {e}", e.kind());
        std::process::exit(1);
    }
}

type CliResult = Result<(), GtPinError>;

/// The paper's HD 4000 with the executor fanning out across
/// `GTPIN_THREADS` workers.
fn hd4000(config: &RunConfig) -> GpuConfig {
    let mut gpu = GpuConfig::hd4000();
    gpu.exec.threads = config.threads;
    gpu
}

fn cmd_list() -> CliResult {
    for spec in all_specs() {
        println!(
            "{:28} {:26} {:>3} kernels {:>6} invocations",
            spec.name,
            format!("[{:?}]", spec.suite),
            spec.unique_kernels,
            spec.invocations
        );
    }
    Ok(())
}

/// The application a command names: its first positional argument,
/// skipping the value slot of every flag in `value_flags`, so flags
/// may come before or after it.
fn parse_app(
    args: &[String],
    value_flags: &[&str],
) -> Result<gtpin_suite::workloads::WorkloadSpec, String> {
    let name = *positional_args(args, value_flags)
        .first()
        .ok_or("missing application name; try `gtpin list`")?;
    spec_by_name(name).ok_or_else(|| format!("unknown application {name}; try `gtpin list`"))
}

/// The value following `--flag`, if the flag is present. A flag given
/// without a value (end of args, or another flag in the value slot)
/// is a typed CLI error, never a panic.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, GtPinError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.as_str())),
            _ => Err(format!("{flag} needs a value").into()),
        },
    }
}

fn parse_scale(args: &[String], default: Scale) -> Result<Scale, GtPinError> {
    match flag_value(args, "--scale")? {
        None => Ok(default),
        Some("default") => Ok(Scale::Default),
        Some("test") => Ok(Scale::Test),
        Some(other) => Err(format!("unknown scale {other} (known: test, default)").into()),
    }
}

/// `--journal` / `--resume` directories for the durable commands.
/// Mutually exclusive: `--journal` starts fresh, `--resume` recovers.
fn parse_journal_flags(args: &[String]) -> Result<(Option<PathBuf>, bool), GtPinError> {
    let journal = flag_value(args, "--journal")?;
    let resume = flag_value(args, "--resume")?;
    match (journal, resume) {
        (Some(_), Some(_)) => Err("--journal and --resume are mutually exclusive \
             (--resume already appends to the recovered journal)"
            .into()),
        (Some(dir), None) => Ok((Some(PathBuf::from(dir)), false)),
        (None, Some(dir)) => Ok((Some(PathBuf::from(dir)), true)),
        (None, None) => Ok((None, false)),
    }
}

fn cmd_run(args: &[String], run_config: &RunConfig) -> CliResult {
    let spec = parse_app(args, &["--scale", "--json"])?;
    let scale = parse_scale(args, Scale::Default)?;
    let config = RewriteConfig {
        count_basic_blocks: true,
        time_kernels: args.iter().any(|a| a == "--time-kernels"),
        trace_memory: args.iter().any(|a| a == "--trace-memory"),
        naive_per_instruction_counters: false,
    };
    let program = build_program(&spec, scale);
    let mut gpu = Gpu::new(hd4000(run_config));
    let gtpin = GtPin::new(config);
    gtpin.attach(&mut gpu);
    let mut rt = OclRuntime::new(gpu);
    let report = rt.run(&program, Schedule::Replay)?;
    let profile = gtpin.profile(spec.name);
    let device = rt.into_device();
    let mut launch_stats = gtpin_suite::device::stats::ExecutionStats::default();
    for launch in device.launches() {
        launch_stats.merge(&launch.stats);
    }

    print!(
        "{}\n\ninstrumentation: {:.2}x dynamic instruction overhead across {} kernels\n",
        AppCharacterization::new(&report.cofluent, &profile).with_measured_overhead(&launch_stats),
        profile.dynamic_overhead_factor(),
        profile.unique_kernels()
    );
    if let Some(path) = flag_value(args, "--json")? {
        std::fs::write(path, serde_json::to_string_pretty(&profile)?)?;
        println!("profile written to {path}");
    }
    Ok(())
}

fn cmd_select(args: &[String], config: &RunConfig) -> CliResult {
    let spec = parse_app(args, &["--scale"])?;
    let threshold: f64 = positional_args(args, &["--scale"])
        .get(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(3.0);
    let program = build_program(&spec, parse_scale(args, Scale::Default)?);
    let profiled = profile_app(&program, hd4000(config), 1)?;
    let data = &profiled.data;
    let approx = gtpin_suite::selection::default_approx_target(data);
    let ex =
        Exploration::run_with_threads(data, approx, &SimpointConfig::default(), config.threads);

    let selection = render_selection(&ex, threshold).ok_or("no configurations evaluated")?;
    print!("{selection}");
    Ok(())
}

/// `gtpin sim`: run every launch of an app through the epoch-sharded
/// detailed simulator and print a deterministic digest of the
/// results. `GTPIN_THREADS` sets both the functional replay's
/// executor fan-out and the shard workers, as in a served `sim`
/// session; stdout is bit-identical at every count, which is exactly
/// what the `scripts/check.sh` serial-vs-sharded gate diffs.
fn cmd_sim(args: &[String], config: &RunConfig) -> CliResult {
    let spec = parse_app(args, &["--scale", "--launches"])?;
    // Detailed simulation is the slow path by design; default to the
    // test scale so the gate stays cheap.
    let scale = parse_scale(args, Scale::Test)?;
    let limit: usize = flag_value(args, "--launches")?
        .map(str::parse)
        .transpose()?
        .unwrap_or(usize::MAX);

    // Worker count on stderr only: stdout must diff clean across
    // thread counts.
    eprintln!("sim: {} workers (GTPIN_THREADS)", config.threads);
    let program = build_program(&spec, scale);
    let report = simulate_program(&program, &format!("{scale:?}"), config.threads, limit);
    let report = report.map_err(|e| match e {
        SimError::Run(e) => GtPinError::Run(e),
        SimError::UnbuiltKernel => GtPinError::Msg(e.to_string()),
        SimError::Simulate(e) => GtPinError::Exec(e),
        SimError::Json(e) => GtPinError::Json(e),
    })?;
    print!("{}", report.text);
    // Artifact paths on stderr only: stdout must diff clean across
    // thread counts, and telemetry file names are machine context.
    if gtpin_suite::obs::enabled() {
        for path in gtpin_suite::obs::write_artifacts()? {
            eprintln!("obs: wrote {}", path.display());
        }
    }
    Ok(())
}

/// Positional (non-flag) arguments, skipping the value slot of every
/// flag in `value_flags`.
fn positional_args<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            if value_flags.contains(&a) {
                i += 1;
            }
        } else {
            out.push(a);
        }
        i += 1;
    }
    out
}

fn cmd_explore(args: &[String], config: &RunConfig) -> CliResult {
    let threshold: f64 = flag_value(args, "--threshold")?
        .map(str::parse)
        .transpose()?
        .unwrap_or(3.0);
    let scale = parse_scale(args, Scale::Default)?;
    let (journal_dir, resume) = parse_journal_flags(args)?;

    let specs: Vec<gtpin_suite::workloads::WorkloadSpec> = if args.iter().any(|a| a == "--all") {
        all_specs()
    } else {
        let names = positional_args(args, &["--threshold", "--scale", "--journal", "--resume"]);
        if names.is_empty() {
            return Err("explore needs application names or --all; try `gtpin list`".into());
        }
        names
            .iter()
            .map(|n| {
                spec_by_name(n).ok_or_else(|| format!("unknown application {n}; try `gtpin list`"))
            })
            .collect::<Result<_, _>>()?
    };
    let programs: Vec<_> = specs.iter().map(|s| build_program(s, scale)).collect();

    let opts = SweepOptions {
        threshold_pct: threshold,
        gpu: hd4000(config),
        supervisor: config.supervisor.clone(),
        threads: config.threads,
        journal_dir,
        resume,
    };
    let outcome = run_sweep(&programs, &opts)?;

    // The report is the deterministic artifact — stdout only, so a
    // resumed run diffs byte-identical against an uninterrupted one.
    // Volatile run stats (what was replayed vs executed) go to stderr.
    print!("{}", outcome.report.render());
    if resume {
        eprintln!(
            "resume: {} unit(s) replayed from the journal, {} executed fresh",
            outcome.stats.resumed_units, outcome.stats.executed_units
        );
        if let Some(rec) = &outcome.stats.recovery {
            if rec.repaired() {
                eprintln!(
                    "resume: recovery repaired crash damage \
                     ({} torn record(s) truncated, {} orphan tmp(s) swept)",
                    rec.torn_records, rec.orphan_tmps
                );
            }
        }
    }
    if outcome.report.budget_exhausted {
        return Err(GtPinError::Budget(format!(
            "run budget exhausted after {} task(s) / {} virtual ns; \
             partial results above",
            outcome.report.tasks_run, outcome.report.virtual_ns_spent
        )));
    }
    Ok(())
}

fn cmd_disasm(args: &[String]) -> CliResult {
    let spec = parse_app(args, &[])?;
    let index: usize = args.get(1).map(|s| s.parse()).transpose()?.unwrap_or(0);
    let program = build_program(&spec, Scale::Test);
    let mut gpu = Gpu::new(GpuConfig::hd4000());
    use gtpin_suite::runtime::Device;
    gpu.build_program(&program.source)?;
    let kernel = gpu
        .driver()
        .kernel(index)
        .ok_or_else(|| format!("kernel index {index} out of range"))?;
    print!("{}", disassemble_flat(kernel));
    Ok(())
}

fn cmd_lint(args: &[String]) -> CliResult {
    use gtpin_suite::serve::{lint_program, lint_tally, LintError};

    let specs: Vec<gtpin_suite::workloads::WorkloadSpec> =
        if args.first().map(String::as_str) == Some("--all") {
            all_specs()
        } else {
            vec![parse_app(args, &["--json"])?]
        };

    let mut all_diags = Vec::new();
    let mut kernels = 0usize;
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut first_verify_failure: Option<GtPinError> = None;
    for spec in &specs {
        let lints = lint_program(&build_program(spec, Scale::Test)).map_err(|e| match e {
            LintError::Jit(e) => GtPinError::Jit(e),
            LintError::Decode(e) => GtPinError::Decode(e),
            LintError::Rewrite(e) => GtPinError::Msg(e),
        })?;
        let (e, w) = lint_tally(&lints);
        kernels += lints.len();
        errors += e;
        warnings += w;
        for k in lints {
            for d in &k.diagnostics {
                println!("{}: {d}", spec.name);
            }
            let line = format!("{}: {}", spec.name, k.verify_line());
            match k.verify {
                Ok(_) => println!("{line}"),
                Err(e) => {
                    eprintln!("{line}");
                    first_verify_failure = first_verify_failure.or(Some(e.into()));
                }
            }
            all_diags.extend(k.diagnostics);
        }
    }

    println!(
        "\nlint: {} kernel(s) across {} app(s): {} error(s), {} warning(s)",
        kernels,
        specs.len(),
        errors,
        warnings
    );
    if let Some(path) = flag_value(args, "--json")? {
        std::fs::write(path, serde_json::to_string_pretty(&all_diags)?)?;
        println!("diagnostics written to {path}");
    }
    if let Some(e) = first_verify_failure {
        return Err(e);
    }
    if errors > 0 {
        return Err(format!("lint found {errors} error-severity finding(s)").into());
    }
    Ok(())
}

/// `gtpin analyze`: the structural pipeline (dominators, natural
/// loops, value-range trip bounds, static cycle cost) over every
/// kernel of an app or the whole suite. Stdout is deterministic and
/// thread-count invariant; the closing digest line is what the
/// `scripts/check.sh` gate pins.
fn cmd_analyze(args: &[String], config: &RunConfig) -> CliResult {
    use gtpin_suite::analyze::analyze_kernels;
    use gtpin_suite::device::jit::compile_kernel;
    use gtpin_suite::device::GpuGeneration;

    let specs: Vec<gtpin_suite::workloads::WorkloadSpec> =
        if args.first().map(String::as_str) == Some("--all") {
            all_specs()
        } else {
            vec![parse_app(args, &["--json"])?]
        };
    let params = GpuGeneration::IvyBridgeHd4000.topology().cost_params();

    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut kernels = 0usize;
    let mut loops = 0usize;
    let mut proven = 0usize;
    let mut json_apps = Vec::new();
    for spec in &specs {
        let program = build_program(spec, Scale::Test);
        let bins: Vec<gtpin_suite::isa::KernelBinary> = program
            .source
            .kernels
            .iter()
            .map(compile_kernel)
            .collect::<Result<_, _>>()?;
        let reports = analyze_kernels(&bins, &params, config.threads)?;
        println!("== {} ==", spec.name);
        digest = fnv_fold(digest, spec.name.as_bytes());
        for r in &reports {
            print!("{}", r.render());
            digest = fnv_fold(digest, r.render().as_bytes());
            kernels += 1;
            loops += r.loops.len();
            proven += r.loops.iter().filter(|l| !l.trips.starts_with('?')).count();
        }
        if flag_value(args, "--json")?.is_some() {
            use serde::json::Value;
            json_apps.push(Value::Obj(vec![
                ("app".to_string(), Value::Str(spec.name.to_string())),
                (
                    "kernels".to_string(),
                    Value::Arr(reports.iter().map(|r| r.to_json()).collect()),
                ),
            ]));
        }
    }
    println!(
        "\nanalyze: {} kernel(s) across {} app(s): {} loop(s), {} with proven trip bounds",
        kernels,
        specs.len(),
        loops,
        proven
    );
    println!("analysis digest: {digest:016x}");
    if let Some(path) = flag_value(args, "--json")? {
        let mut out = String::new();
        serde::json::render(&serde::json::Value::Arr(json_apps), &mut out);
        std::fs::write(path, out)?;
        println!("reports written to {path}");
    }
    Ok(())
}

fn cmd_obs_report(args: &[String], config: &RunConfig) -> CliResult {
    use gtpin_suite::obs;
    // Offline mode: summarize an existing binary journal without
    // running anything.
    if let Some(journal) = flag_value(args, "--journal")? {
        let bytes =
            obs::reader::read_journal(std::path::Path::new(journal)).map_err(GtPinError::from)?;
        obs::reader::verify(&bytes).map_err(GtPinError::from)?;
        print!("{}", obs::reader::summarize(&bytes));
        return Ok(());
    }
    // Force telemetry on before anything records, so the report works
    // without the user exporting GTPIN_OBS.
    if !obs::force_enable() {
        return Err("telemetry registry was already initialized disabled".into());
    }
    let name = args
        .first()
        .map(String::as_str)
        .unwrap_or("cb-gaussian-image");
    let spec = spec_by_name(name).ok_or_else(|| format!("unknown application {name}"))?;

    let program = build_program(&spec, Scale::Default);
    let profiled = profile_app(&program, hd4000(config), 1)?;
    let approx = gtpin_suite::selection::default_approx_target(&profiled.data);
    let ex = Exploration::run_with_threads(
        &profiled.data,
        approx,
        &SimpointConfig::default(),
        config.threads,
    );

    println!(
        "telemetry for {} ({} invocations profiled, {} configurations evaluated)\n",
        spec.name,
        profiled.data.invocations.len(),
        ex.evaluations.len()
    );
    print!("{}", obs::global().summary());
    for path in obs::write_artifacts()? {
        println!("wrote {}", path.display());
    }
    if let Some(journal) = obs::global().journal_path() {
        println!("journal streamed to {}", journal.display());
    }
    Ok(())
}

fn cmd_obs_verify(args: &[String]) -> CliResult {
    use gtpin_suite::obs::{binary, reader};
    let path = args.first().ok_or("obs-verify needs a journal path")?;
    let bytes = std::fs::read(path)?;
    // Sniff the 8-byte magic: GTOBS01 binary journals get the full
    // CRC/version/structure verification, anything else the legacy
    // line-oriented JSONL check.
    if bytes.starts_with(&binary::MAGIC) {
        let report = reader::verify(&bytes).map_err(GtPinError::from)?;
        println!(
            "{path}: GTOBS01 intact — {} stream(s), {} section(s), {} record(s), \
             {} string(s), {} byte(s)",
            report.streams, report.sections, report.records, report.strings, report.bytes
        );
        return Ok(());
    }
    let text = String::from_utf8(bytes).map_err(|e| format!("{path}: not UTF-8: {e}"))?;
    let mut events = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        serde_json::from_str_value(line)
            .map_err(|e| format!("{path}:{}: invalid JSON: {e}", i + 1))?;
        events += 1;
    }
    if events == 0 {
        return Err(format!("{path}: journal is empty").into());
    }
    println!("{path}: {events} well-formed JSONL event(s)");
    Ok(())
}

fn cmd_obs_convert(args: &[String]) -> CliResult {
    use gtpin_suite::obs::reader;
    let positional = positional_args(args, &["--jsonl", "--trace"]);
    let path = *positional
        .first()
        .ok_or("obs-convert needs a binary journal path")?;
    let bytes = reader::read_journal(std::path::Path::new(path)).map_err(GtPinError::from)?;
    reader::verify(&bytes).map_err(GtPinError::from)?;
    let jsonl_out = flag_value(args, "--jsonl")?;
    let trace_out = flag_value(args, "--trace")?;
    if let Some(p) = jsonl_out {
        std::fs::write(p, reader::to_jsonl(&bytes))?;
        eprintln!("wrote {p}");
    }
    if let Some(p) = trace_out {
        std::fs::write(p, reader::to_chrome_trace(&bytes))?;
        eprintln!("wrote {p}");
    }
    if jsonl_out.is_none() && trace_out.is_none() {
        print!("{}", reader::to_jsonl(&bytes));
    }
    Ok(())
}

fn cmd_obs_timeline(args: &[String]) -> CliResult {
    use gtpin_suite::obs::reader;
    let path = args.first().ok_or("obs-timeline needs a journal path")?;
    let bytes = reader::read_journal(std::path::Path::new(path)).map_err(GtPinError::from)?;
    reader::verify(&bytes).map_err(GtPinError::from)?;
    let t = reader::timeline(&bytes);
    // Virtual-cycle report on stdout: byte-identical at every
    // GTPIN_THREADS setting. Wall-clock barrier stats are host
    // context, so they go to stderr.
    print!("{}", reader::render_timeline(&t));
    if t.barrier.waits > 0 {
        eprintln!(
            "barrier: {} wait(s) across {} worker(s), total {} ns, max {} ns",
            t.barrier.waits, t.barrier.workers, t.barrier.total_ns, t.barrier.max_ns
        );
    }
    Ok(())
}

fn cmd_luxmark() -> CliResult {
    let ivy = luxmark_score(GpuConfig::hd4000());
    let hsw = luxmark_score(GpuConfig::hd4600());
    println!("HD4000 (Ivy Bridge): {ivy:.0}   (paper: 269)");
    println!("HD4600 (Haswell):    {hsw:.0}   (paper: 351)");
    Ok(())
}

fn cmd_serve(args: &[String], config: &RunConfig) -> CliResult {
    use gtpin_suite::serve::ServeConfig;
    let socket = flag_value(args, "--socket")?
        .map(PathBuf::from)
        .unwrap_or_else(gtpin_suite::serve::default_socket);
    let (journal_dir, resume) = parse_journal_flags(args)?;
    let max_sessions: usize = flag_value(args, "--max-sessions")?
        .map(str::parse)
        .transpose()?
        .unwrap_or(8);
    gtpin_suite::serve::serve(ServeConfig {
        socket,
        journal_dir,
        resume,
        max_sessions,
        supervisor: config.supervisor.clone(),
        threads: config.threads,
        ..ServeConfig::default()
    })?;
    Ok(())
}

fn cmd_request(args: &[String]) -> CliResult {
    use gtpin_suite::serve::wire::{Request, Response};
    let kind = args
        .first()
        .map(String::as_str)
        .ok_or("request needs a kind: profile, explore, sim, lint, or analyze")?;
    let rest = &args[1..];
    let socket = flag_value(rest, "--socket")?
        .map(PathBuf::from)
        .unwrap_or_else(gtpin_suite::serve::default_socket);
    let positional = positional_args(rest, &["--socket", "--scale", "--threshold", "--launches"]);
    let app = positional
        .first()
        .ok_or("request needs an application name; try `gtpin list`")?
        .to_string();
    // App and scale strings are validated daemon-side, where the
    // typed error comes back as an in-band error[...] response.
    let scale = flag_value(rest, "--scale")?
        .unwrap_or("default")
        .to_string();
    let request = match kind {
        "profile" => Request::Profile { app, scale },
        "explore" => Request::Explore {
            app,
            scale,
            threshold_pct: flag_value(rest, "--threshold")?
                .map(str::parse)
                .transpose()?
                .unwrap_or(3.0),
        },
        "sim" => Request::Sim {
            app,
            launches: flag_value(rest, "--launches")?
                .map(str::parse)
                .transpose()?
                .unwrap_or(0),
        },
        "lint" => Request::Lint { app },
        "analyze" => Request::Analyze { app },
        other => {
            return Err(format!(
                "unknown request kind {other} (known: profile, explore, sim, lint, analyze)"
            )
            .into())
        }
    };

    // Transient failures (dead socket, torn frame, busy shed) retry
    // behind deterministic seeded jittered backoff; terminal typed
    // errors come back on the first attempt they are observed.
    let policy = gtpin_suite::serve::RetryPolicy::default();
    let responses = gtpin_suite::serve::request_with_retry(&socket, &request, &policy)?;
    for response in responses {
        match response {
            Response::Chunk { text } => print!("{text}"),
            Response::Done => return Ok(()),
            Response::Err { kind, message } => {
                return Err(GtPinError::Remote { kind, message });
            }
        }
    }
    Err("connection closed before a terminal response".into())
}

fn cmd_chaos(args: &[String]) -> CliResult {
    use gtpin_suite::chaos::{run_chaos, run_pinned, self_test, ChaosConfig};

    if args.iter().any(|a| a == "--self-test") {
        let (line, ok) = self_test();
        println!("{line}");
        if ok {
            return Ok(());
        }
        return Err("chaos --self-test: shrinking did not reach a single site".into());
    }

    // A flag wins over the library default.
    let defaults = ChaosConfig::default();
    let flag_u64 = |flag: &str, default: u64| -> Result<u64, GtPinError> {
        Ok(flag_value(args, flag)?
            .map(str::parse)
            .transpose()?
            .unwrap_or(default))
    };
    let seeds = flag_u64("--seeds", defaults.seeds)?;
    let seed_base = flag_u64("--seed-base", defaults.seed_base)?;
    let max_restarts = flag_u64("--max-restarts", defaults.max_restarts)?;
    let (journal_dir, resume) = parse_journal_flags(args)?;
    let pinned = args.iter().any(|a| a == "--pinned");
    if pinned && (journal_dir.is_some() || args.iter().any(|a| a == "--seeds")) {
        return Err("chaos --pinned runs a fixed set; drop --seeds/--journal/--resume".into());
    }
    let chaos = ChaosConfig {
        seeds,
        seed_base,
        journal_dir,
        resume,
        max_restarts,
        ..defaults
    };
    let report = if pinned {
        run_pinned(&chaos)
    } else {
        run_chaos(&chaos)?
    };
    print!("{}", report.render());
    if report.failures() == 0 {
        Ok(())
    } else {
        Err(format!("chaos: {} scenario(s) failed", report.failures()).into())
    }
}
