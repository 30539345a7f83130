//! The one typed run configuration: every `GTPIN_*` knob, parsed
//! strictly and exactly once, by the binary.
//!
//! Library code never reads the environment. A front end (`gtpin`,
//! `paper-report`) builds one [`RunConfig`] at start-up with
//! [`RunConfig::from_env`] and passes explicit values down — thread
//! counts, supervision limits, lease and retry settings — so a
//! selection, a digest or a report is a pure function of the app and
//! the values passed in, never of whatever the process inherited. A
//! malformed value is an error naming the variable, raised before any
//! work runs, instead of a silently clamped knob.
//!
//! Two knob families are validated here but not carried:
//! `GTPIN_OBS`/`GTPIN_OBS_DIR` and `GTPIN_FAULTS`/`GTPIN_FAULTS_SEED`
//! arm process-wide registries ([`gtpin_obs`], [`gtpin_faults`]) that
//! sit below this crate and read their own variables on first use.

use crate::supervisor::SupervisorConfig;

/// Session lease length when `GTPIN_LEASE_MS` is unset — generous
/// relative to test-scale virtual time, so only genuinely stuck
/// sessions are reaped.
pub const DEFAULT_LEASE_VIRTUAL_MS: u64 = 60_000;
/// Client attempt cap when `GTPIN_RETRY_MAX` is unset.
pub const DEFAULT_RETRY_MAX: u32 = 3;
/// Client base backoff when `GTPIN_RETRY_BASE_MS` is unset.
pub const DEFAULT_RETRY_BASE_MS: u64 = 10;

/// Every `GTPIN_*` knob a front end passes down, one field per knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// `GTPIN_THREADS`: fan-out width; defaults to the machine's
    /// available parallelism.
    pub threads: usize,
    /// `GTPIN_SIM_THREADS`: detailed-simulator shard workers;
    /// defaults to `threads`.
    pub sim_threads: usize,
    /// `GTPIN_PRESCREEN`: statically price the sweep's apps up front.
    pub prescreen: bool,
    /// `GTPIN_DEADLINE_MS`, `GTPIN_BREAKER`, `GTPIN_MAX_TASKS` and
    /// `GTPIN_MAX_VIRTUAL_MS` over [`SupervisorConfig::default`].
    pub supervisor: SupervisorConfig,
    /// `GTPIN_LEASE_MS`: serve session lease in virtual milliseconds.
    pub lease_virtual_ms: u64,
    /// `GTPIN_RETRY_MAX`: serve client attempt cap.
    pub retry_max: u32,
    /// `GTPIN_RETRY_BASE_MS`: serve client base backoff.
    pub retry_base_ms: u64,
    /// `GTPIN_CHAOS_SEED`: chaos base seed, when set.
    pub chaos_seed: Option<u64>,
    /// `GTPIN_CHAOS_MAX_RESTARTS`: chaos restart budget, when set.
    pub chaos_max_restarts: Option<u64>,
}

/// The machine's available parallelism (at least 1): the thread
/// count when `GTPIN_THREADS` is unset.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl RunConfig {
    /// [`RunConfig::from_vars`] over the process environment. Values
    /// that are not valid Unicode count as unset.
    ///
    /// # Errors
    ///
    /// See [`RunConfig::from_vars`].
    pub fn from_env() -> Result<RunConfig, String> {
        RunConfig::from_vars(|name| std::env::var(name).ok())
    }

    /// Parse every knob from `var` (name → value, `None` when unset).
    ///
    /// # Errors
    ///
    /// The first malformed value, as a message naming the variable:
    /// a thread count that is not a positive integer, a limit that is
    /// not an unsigned integer, a flag outside the on/off vocabulary
    /// of [`gtpin_obs::parse_flag`], or a fault plan
    /// [`gtpin_faults::FaultPlan::parse`] rejects.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<RunConfig, String> {
        let threads = knob(&var, "GTPIN_THREADS", thread_count)?.unwrap_or_else(available_threads);
        let ms_to_ns = |ms: u64| ms.saturating_mul(1_000_000);
        let defaults = SupervisorConfig::default();
        let supervisor = SupervisorConfig {
            deadline_virtual_ns: knob(&var, "GTPIN_DEADLINE_MS", limit)?.map(ms_to_ns),
            breaker_threshold: knob(&var, "GTPIN_BREAKER", limit)?
                .unwrap_or(defaults.breaker_threshold),
            max_tasks: knob(&var, "GTPIN_MAX_TASKS", limit)?,
            max_virtual_ns: knob(&var, "GTPIN_MAX_VIRTUAL_MS", limit)?.map(ms_to_ns),
            ..defaults
        };

        // Validated, not carried: the registries read these on first use.
        knob(&var, gtpin_obs::OBS_ENV, flag)?;
        let faults_seed = knob(&var, gtpin_faults::FAULTS_SEED_ENV, limit)?;
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
            sim_threads: knob(&var, "GTPIN_SIM_THREADS", thread_count)?.unwrap_or(threads),
            prescreen: knob(&var, "GTPIN_PRESCREEN", flag)?.unwrap_or(false),
            supervisor,
            lease_virtual_ms: knob(&var, "GTPIN_LEASE_MS", limit)?
                .unwrap_or(DEFAULT_LEASE_VIRTUAL_MS),
            retry_max: knob(&var, "GTPIN_RETRY_MAX", limit)?.unwrap_or(DEFAULT_RETRY_MAX),
            retry_base_ms: knob(&var, "GTPIN_RETRY_BASE_MS", limit)?
                .unwrap_or(DEFAULT_RETRY_BASE_MS),
            chaos_seed: knob(&var, "GTPIN_CHAOS_SEED", limit)?,
            chaos_max_restarts: knob(&var, "GTPIN_CHAOS_MAX_RESTARTS", limit)?,
        })
    }
}

/// `name`'s value checked by `parse`, or `None` when it is unset.
fn knob<T>(
    var: &impl Fn(&str) -> Option<String>,
    name: &str,
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
        RunConfig::from_vars(|name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
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
        assert_eq!(c.sim_threads, c.threads);
        assert!(!c.prescreen);
        assert_eq!(c.supervisor, SupervisorConfig::default());
        assert_eq!(c.supervisor.breaker_threshold, 3);
        assert_eq!(c.lease_virtual_ms, 60_000);
        assert_eq!((c.retry_max, c.retry_base_ms), (3, 10));
        assert_eq!((c.chaos_seed, c.chaos_max_restarts), (None, None));
    }

    #[test]
    fn thread_counts_are_positive_integers() {
        for (raw, n) in [("1", 1), ("4", 4), (" 8 ", 8), ("128", 128)] {
            let c = parse(&[("GTPIN_THREADS", raw)]).expect(raw);
            assert_eq!((c.threads, c.sim_threads), (n, n), "sim follows threads");
        }
        let c = parse(&[("GTPIN_THREADS", "2"), ("GTPIN_SIM_THREADS", "5")]).unwrap();
        assert_eq!((c.threads, c.sim_threads), (2, 5));
        for bad in ["0", "-1", "four", "4.5", "", "  "] {
            rejects("GTPIN_THREADS", bad);
            rejects("GTPIN_SIM_THREADS", bad);
        }
    }

    #[test]
    fn limits_accept_zero_but_reject_garbage() {
        let c = parse(&[
            ("GTPIN_DEADLINE_MS", "250"),
            ("GTPIN_BREAKER", "0"),
            ("GTPIN_MAX_TASKS", " 1000 "),
            ("GTPIN_MAX_VIRTUAL_MS", "7"),
            ("GTPIN_LEASE_MS", "0"),
            ("GTPIN_RETRY_MAX", "1"),
            ("GTPIN_RETRY_BASE_MS", "25"),
            ("GTPIN_CHAOS_SEED", "42"),
            ("GTPIN_CHAOS_MAX_RESTARTS", "0"),
        ])
        .expect("limits parse");
        assert_eq!(c.supervisor.deadline_virtual_ns, Some(250_000_000));
        assert_eq!(c.supervisor.breaker_threshold, 0);
        assert_eq!(c.supervisor.max_tasks, Some(1000));
        assert_eq!(c.supervisor.max_virtual_ns, Some(7_000_000));
        assert_eq!(c.supervisor.batch, SupervisorConfig::default().batch);
        assert_eq!(c.lease_virtual_ms, 0);
        assert_eq!((c.retry_max, c.retry_base_ms), (1, 25));
        assert_eq!((c.chaos_seed, c.chaos_max_restarts), (Some(42), Some(0)));
        for var in [
            "GTPIN_DEADLINE_MS",
            "GTPIN_BREAKER",
            "GTPIN_MAX_TASKS",
            "GTPIN_MAX_VIRTUAL_MS",
            "GTPIN_LEASE_MS",
            "GTPIN_RETRY_MAX",
            "GTPIN_RETRY_BASE_MS",
            "GTPIN_CHAOS_SEED",
            "GTPIN_CHAOS_MAX_RESTARTS",
        ] {
            for bad in ["-1", "fast", "2.5", "", "1e9"] {
                rejects(var, bad);
            }
        }
        // The 32-bit fields reject what would otherwise truncate.
        rejects("GTPIN_BREAKER", "4294967296");
        rejects("GTPIN_RETRY_MAX", "4294967296");
    }

    #[test]
    fn flags_share_one_trimmed_case_insensitive_vocabulary() {
        for (raw, on) in [
            ("TRUE", true),
            (" on ", true),
            ("1", true),
            ("Yes", true),
            ("off", false),
            ("0", false),
            ("", false),
            (" FALSE ", false),
        ] {
            assert_eq!(
                parse(&[("GTPIN_PRESCREEN", raw)]).unwrap().prescreen,
                on,
                "{raw:?}"
            );
            parse(&[(gtpin_obs::OBS_ENV, raw)]).expect(raw);
        }
        for bad in ["ture", "2", "enable", "y", "1.0"] {
            rejects("GTPIN_PRESCREEN", bad);
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
}
