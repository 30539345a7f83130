//! Shared pieces of the `paper-report` driver: profiling the suite,
//! parsing its `--scale` flag, per-column summaries and number
//! formatting.

use gpu_device::GpuConfig;
use subset_select::{profile_app, ProfiledApp};
use workloads::{all_specs, build_program, Scale, WorkloadSpec};

/// One profiled application.
pub struct ProfiledWorkload {
    /// The spec it was built from.
    pub spec: WorkloadSpec,
    /// Profile, timings, recording.
    pub profiled: ProfiledApp,
}

/// Profile every application in the suite on the paper's HD 4000 at
/// maximum frequency (trial 1).
///
/// Applications are independent, so they fan out across `threads`
/// workers (each app's device state is private); results come back in
/// suite order regardless of thread count. Each per-app profile runs
/// its device serially — across-app fan-out already uses the budget.
pub fn profile_suite(scale: Scale, threads: usize) -> Vec<ProfiledWorkload> {
    let specs = all_specs();
    gtpin_par::parallel_map(&specs, threads, |_, spec| {
        let program = build_program(spec, scale);
        let profiled =
            profile_app(&program, GpuConfig::hd4000(), 1).expect("suite programs profile cleanly");
        ProfiledWorkload {
            spec: *spec,
            profiled,
        }
    })
}

/// Parse the report's command line: exactly `--scale test` or
/// `--scale default`.
///
/// # Errors
///
/// Returns the message to print when the arguments are anything else.
pub fn parse_scale(args: &[String]) -> Result<Scale, String> {
    match args {
        [flag, value] if flag == "--scale" => match value.as_str() {
            "test" => Ok(Scale::Test),
            "default" => Ok(Scale::Default),
            other => Err(format!("unknown scale `{other}` (known: test, default)")),
        },
        _ => Err("usage: paper-report --scale test|default".to_string()),
    }
}

/// Minimum, arithmetic mean and maximum of one table column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest value.
    pub min: f64,
    /// Arithmetic mean, summed in row order.
    pub mean: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarize the column `column` picks out of `rows`. An empty
    /// column summarizes to all zeros.
    pub fn of<T>(rows: &[T], column: impl Fn(&T) -> f64) -> Summary {
        let values: Vec<f64> = rows.iter().map(column).collect();
        Summary {
            min: values.iter().copied().reduce(f64::min).unwrap_or(0.0),
            mean: mean(&values),
            max: values.iter().copied().reduce(f64::max).unwrap_or(0.0),
        }
    }
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format a large count with thousands separators.
pub fn thousands(mut n: u64) -> String {
    let mut parts = Vec::new();
    while n >= 1000 {
        parts.push(format!("{:03}", n % 1000));
        n /= 1000;
    }
    parts.push(n.to_string());
    parts.reverse();
    parts.join(",")
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_formatting() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1234), "1,234");
        assert_eq!(thousands(1_234_567), "1,234,567");
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.153), "15.3%");
    }

    #[test]
    fn summary_takes_min_mean_max_of_one_column() {
        let rows = [(3.0, 10.0), (1.0, 20.0), (2.0, 60.0)];
        let s = Summary::of(&rows, |r| r.1);
        assert_eq!(
            s,
            Summary {
                min: 10.0,
                mean: 30.0,
                max: 60.0
            }
        );
        assert_eq!(Summary::of(&rows, |r| r.0).min, 1.0);
    }

    #[test]
    fn summary_of_an_empty_column_is_zero() {
        let rows: [f64; 0] = [];
        let zero = Summary {
            min: 0.0,
            mean: 0.0,
            max: 0.0,
        };
        assert_eq!(Summary::of(&rows, |&v| v), zero);
    }

    #[test]
    fn summary_of_a_single_row_is_that_row() {
        let s = Summary::of(&[4.25], |&v| v);
        assert_eq!((s.min, s.mean, s.max), (4.25, 4.25, 4.25));
    }

    #[test]
    fn scale_parse_accepts_only_test_and_default() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_scale(&args(&["--scale", "test"])), Ok(Scale::Test));
        assert_eq!(
            parse_scale(&args(&["--scale", "default"])),
            Ok(Scale::Default)
        );
        for bad in [
            &["--scale", "full"][..],
            &["--scale"],
            &[],
            &["--scale", "test", "extra"],
            &["--size", "test"],
        ] {
            assert!(parse_scale(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
