//! The one typed run configuration: every `GTPIN_*` knob, parsed
//! strictly and exactly once, by the binary.
//!
//! Library code never reads the environment. A front end (`gtpin`,
//! `paper-report`) builds one [`RunConfig`] at start-up with
//! [`RunConfig::from_env`] and passes explicit values down — thread
//! counts and supervision limits — so a selection, a digest or a
//! report is a pure function of the app and the values passed in,
//! never of whatever the process inherited. A malformed value is an
//! error naming the variable, raised before any work runs, instead of
//! a silently clamped knob. So is a set `GTPIN_*` variable that no
//! knob reads: a misspelled or retired knob fails loudly instead of
//! being ignored. The accepted names are exactly the ones the parser
//! reads; there is no second table of them.
//!
//! Two knob families are validated here but not carried:
//! `GTPIN_OBS`/`GTPIN_OBS_DIR` and `GTPIN_FAULTS`/`GTPIN_FAULTS_SEED`
//! arm process-wide registries ([`gtpin_obs`], [`gtpin_faults`]) that
//! sit below this crate and read their own variables on first use.

use std::collections::BTreeMap;

use crate::supervisor::SupervisorConfig;

/// Every `GTPIN_*` knob a front end passes down, one field per knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// `GTPIN_THREADS`: fan-out width — exploration workers, executor
    /// fan-out and detailed-simulator shard workers alike; defaults to
    /// the machine's available parallelism.
    pub threads: usize,
    /// `GTPIN_DEADLINE_MS`, `GTPIN_BREAKER`, `GTPIN_MAX_TASKS` and
    /// `GTPIN_MAX_VIRTUAL_MS` over [`SupervisorConfig::default`].
    pub supervisor: SupervisorConfig,
}

/// The machine's available parallelism (at least 1): the thread
/// count when `GTPIN_THREADS` is unset.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl RunConfig {
    /// [`RunConfig::from_vars`] over the process environment. A name
    /// or value that is not valid Unicode is read lossily, so it is
    /// refused as unknown or malformed instead of counting as unset.
    ///
    /// # Errors
    ///
    /// See [`RunConfig::from_vars`].
    pub fn from_env() -> Result<RunConfig, String> {
        let lossy = |s: std::ffi::OsString| s.to_string_lossy().into_owned();
        RunConfig::from_vars(std::env::vars_os().map(|(name, value)| (lossy(name), lossy(value))))
    }

    /// Parse every knob from `vars` (name → value pairs; names without
    /// the `GTPIN_` prefix are ignored).
    ///
    /// # Errors
    ///
    /// The first malformed value, as a message naming the variable:
    /// a thread count that is not a positive integer, a limit that is
    /// not an unsigned integer, a flag outside the on/off vocabulary
    /// of [`gtpin_obs::parse_flag`], or a fault plan
    /// [`gtpin_faults::FaultPlan::parse`] rejects. Failing that, every
    /// set `GTPIN_*` variable the parse did not read, named next to
    /// the knobs it did.
    pub fn from_vars(
        vars: impl IntoIterator<Item = (String, String)>,
    ) -> Result<RunConfig, String> {
        let mut set: BTreeMap<String, String> = vars
            .into_iter()
            .filter(|(name, _)| name.starts_with("GTPIN_"))
            .collect();
        let mut known = Vec::new();
        let config = parse_knobs(&mut |name| {
            known.push(name);
            set.remove(name)
        })?;
        if set.is_empty() {
            return Ok(config);
        }
        let unknown = set.into_keys().collect::<Vec<_>>().join(", ");
        Err(format!(
            "unknown knob(s) {unknown}: unset them (known knobs: {})",
            known.join(", ")
        ))
    }
}

/// Every knob, read through `var` (name → value, `None` when unset).
fn parse_knobs(var: &mut impl FnMut(&'static str) -> Option<String>) -> Result<RunConfig, String> {
    let threads = knob(var, "GTPIN_THREADS", thread_count)?.unwrap_or_else(available_threads);
    let ms_to_ns = |ms: u64| ms.saturating_mul(1_000_000);
    let defaults = SupervisorConfig::default();
    let supervisor = SupervisorConfig {
        deadline_virtual_ns: knob(var, "GTPIN_DEADLINE_MS", limit)?.map(ms_to_ns),
        breaker_threshold: knob(var, "GTPIN_BREAKER", limit)?.unwrap_or(defaults.breaker_threshold),
        max_tasks: knob(var, "GTPIN_MAX_TASKS", limit)?,
        max_virtual_ns: knob(var, "GTPIN_MAX_VIRTUAL_MS", limit)?.map(ms_to_ns),
        ..defaults
    };

    // Validated, not carried: the registries read these on first use.
    knob(var, gtpin_obs::OBS_ENV, flag)?;
    // Any path is a valid artifact directory; read so it is known.
    var(gtpin_obs::OBS_DIR_ENV);
    let faults_seed = knob(var, gtpin_faults::FAULTS_SEED_ENV, limit)?;
    if let Some(raw) = var(gtpin_faults::FAULTS_ENV) {
        let seed = faults_seed.unwrap_or(gtpin_faults::DEFAULT_SEED);
        gtpin_faults::FaultPlan::parse(&raw, seed).map_err(|e| {
            format!(
                "{}={raw:?} is not a valid fault plan: {e}",
                gtpin_faults::FAULTS_ENV
            )
        })?;
    }

    Ok(RunConfig {
        threads,
        supervisor,
    })
}

/// `name`'s value checked by `parse`, or `None` when it is unset.
fn knob<T>(
    var: &mut impl FnMut(&'static str) -> Option<String>,
    name: &'static str,
    parse: fn(&str, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    var(name).map(|raw| parse(name, &raw)).transpose()
}

/// A worker count: a positive integer (`1` is the serial path).
fn thread_count(var: &str, raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        Ok(_) => Err(format!(
            "{var}={raw:?} is not a valid thread count (must be >= 1)"
        )),
        Err(_) => Err(format!(
            "{var}={raw:?} is not a valid thread count (expected a positive integer)"
        )),
    }
}

/// A budget or limit: any unsigned integer that fits the field.
fn limit<T: std::str::FromStr>(var: &str, raw: &str) -> Result<T, String> {
    raw.trim()
        .parse()
        .map_err(|_| format!("{var}={raw:?} is not a valid limit (expected an unsigned integer)"))
}

/// An on/off switch in the [`gtpin_obs::parse_flag`] vocabulary.
fn flag(var: &str, raw: &str) -> Result<bool, String> {
    gtpin_obs::parse_flag(raw).ok_or_else(|| {
        format!(
            "{var}={raw:?} is not a valid on/off flag \
             (expected 1/true/yes/on or 0/false/no/off)"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse a config from `pairs` alone — no process environment.
    fn parse(pairs: &[(&str, &str)]) -> Result<RunConfig, String> {
        RunConfig::from_vars(pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())))
    }

    /// The error for `var=raw`, asserting it names the variable.
    fn rejects(var: &str, raw: &str) -> String {
        let err = parse(&[(var, raw)]).expect_err(raw);
        assert!(err.contains(var), "error names the variable: {err}");
        err
    }

    #[test]
    fn nothing_set_is_the_documented_defaults() {
        let c = parse(&[]).expect("defaults parse");
        assert_eq!(c.threads, available_threads());
        assert_eq!(c.supervisor, SupervisorConfig::default());
        assert_eq!(c.supervisor.breaker_threshold, 3);
    }

    #[test]
    fn thread_counts_are_positive_integers() {
        for (raw, n) in [("1", 1), ("4", 4), (" 8 ", 8), ("128", 128)] {
            let c = parse(&[("GTPIN_THREADS", raw)]).expect(raw);
            assert_eq!(c.threads, n);
        }
        for bad in ["0", "-1", "four", "4.5", "", "  "] {
            rejects("GTPIN_THREADS", bad);
        }
    }

    #[test]
    fn limits_accept_zero_but_reject_garbage() {
        let c = parse(&[
            ("GTPIN_DEADLINE_MS", "250"),
            ("GTPIN_BREAKER", "0"),
            ("GTPIN_MAX_TASKS", " 1000 "),
            ("GTPIN_MAX_VIRTUAL_MS", "7"),
        ])
        .expect("limits parse");
        assert_eq!(c.supervisor.deadline_virtual_ns, Some(250_000_000));
        assert_eq!(c.supervisor.breaker_threshold, 0);
        assert_eq!(c.supervisor.max_tasks, Some(1000));
        assert_eq!(c.supervisor.max_virtual_ns, Some(7_000_000));
        assert_eq!(c.supervisor.batch, SupervisorConfig::default().batch);
        for var in [
            "GTPIN_DEADLINE_MS",
            "GTPIN_BREAKER",
            "GTPIN_MAX_TASKS",
            "GTPIN_MAX_VIRTUAL_MS",
        ] {
            for bad in ["-1", "fast", "2.5", "", "1e9"] {
                rejects(var, bad);
            }
        }
        // The 32-bit field rejects what would otherwise truncate.
        rejects("GTPIN_BREAKER", "4294967296");
    }

    #[test]
    fn flags_share_one_trimmed_case_insensitive_vocabulary() {
        // The values each flag maps to are pinned by obs's
        // `flag_vocabulary`; here the parse must accept and reject the
        // same spellings.
        for raw in ["TRUE", " on ", "1", "Yes", "off", "0", "", " FALSE "] {
            parse(&[(gtpin_obs::OBS_ENV, raw)]).expect(raw);
        }
        for bad in ["ture", "2", "enable", "y", "1.0"] {
            rejects(gtpin_obs::OBS_ENV, bad);
        }
    }

    #[test]
    fn fault_knobs_are_validated() {
        use gtpin_faults::{FAULTS_ENV, FAULTS_SEED_ENV};
        let rated = format!("{}=1.0,seed=7", gtpin_faults::site::WORKER_PANIC);
        for good in ["", "0", "1", "on", "all=0.5", rated.as_str()] {
            parse(&[(FAULTS_ENV, good)]).expect(good);
        }
        for bad in ["journal.crash", "rate=fast", "=0.5"] {
            rejects(FAULTS_ENV, bad);
        }
        parse(&[(FAULTS_ENV, "1"), (FAULTS_SEED_ENV, "42")]).expect("seeded");
        // A malformed seed used to fall back to the default silently.
        rejects(FAULTS_SEED_ENV, "4x2");
        let err = parse(&[(FAULTS_ENV, "1"), (FAULTS_SEED_ENV, "4x2")]).unwrap_err();
        assert!(err.contains(FAULTS_SEED_ENV), "{err}");
    }

    /// The nine knobs, each at a valid value.
    const EVERY_KNOB: [(&str, &str); 9] = [
        ("GTPIN_THREADS", "2"),
        ("GTPIN_DEADLINE_MS", "1"),
        ("GTPIN_BREAKER", "1"),
        ("GTPIN_MAX_TASKS", "1"),
        ("GTPIN_MAX_VIRTUAL_MS", "1"),
        ("GTPIN_OBS", "0"),
        ("GTPIN_OBS_DIR", "target/obs"),
        ("GTPIN_FAULTS_SEED", "7"),
        ("GTPIN_FAULTS", "0"),
    ];

    #[test]
    fn every_knob_is_accepted_and_other_variables_are_ignored() {
        let mut pairs = EVERY_KNOB.to_vec();
        pairs.extend([
            ("PATH", "/bin"),
            ("THREADS", "four"),
            ("gtpin_threads", "x"),
        ]);
        assert_eq!(parse(&pairs).map(|c| c.threads), Ok(2));
    }

    #[test]
    fn an_unread_gtpin_variable_is_refused_by_name() {
        // The message lists the accepted names — exactly the nine, in
        // the order the parser reads them.
        let known = EVERY_KNOB.map(|(name, _)| name).join(", ");
        // Retired knobs and misspellings alike: nothing reads them, so
        // a value set there would otherwise be ignored without a word.
        for name in [
            "GTPIN_SIM_THREADS",
            "GTPIN_CHAOS_SEED",
            "GTPIN_CHAOS_MAX_RESTARTS",
            "GTPIN_RETRY_MAX",
            "GTPIN_RETRY_BASE_MS",
            "GTPIN_LEASE_MS",
            "GTPIN_PRESCREEN",
            "GTPIN_THREAD",
            "GTPIN_",
        ] {
            let err = rejects(name, "4");
            assert!(err.ends_with(&format!("(known knobs: {known})")), "{err}");
        }
        // Every unread name is listed, next to valid knobs.
        let err = parse(&[
            ("GTPIN_THREADS", "2"),
            ("GTPIN_SIM_THREADS", "4"),
            ("GTPIN_LEASE_MS", "0"),
        ])
        .unwrap_err();
        assert!(
            err.starts_with("unknown knob(s) GTPIN_LEASE_MS, GTPIN_SIM_THREADS:"),
            "{err}"
        );
        // A malformed knob is still reported as malformed.
        let err = parse(&[("GTPIN_THREADS", "four"), ("GTPIN_SIM_THREADS", "4")]).unwrap_err();
        assert!(err.contains("not a valid thread count"), "{err}");
    }
}
