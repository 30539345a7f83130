//! `--compare <base-dir> <new-dir>`: judge a set of runs of a change
//! against a set of runs of its parent, metric by metric and workload
//! by workload, against the bounds in the catalog.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::catalog::{Better, END_TO_END};
use crate::stats::{quartiles, Quartiles};
use crate::RunRecord;

/// How a metric moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the parent's own spread.
    Better,
    /// Worsened by more than the bound (a regression).
    Worse,
    /// Within the bound.
    Unchanged,
    /// Run-to-run spread wider than the bound, and the change does not
    /// win every pair of runs.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (metric, workload) comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name.
    pub metric: &'static str,
    /// Workload name.
    pub workload: String,
    /// The parent's quartiles.
    pub base: Quartiles,
    /// The change's quartiles.
    pub new: Quartiles,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge `new` against `base` for a metric that improves toward
/// `better` and may worsen by at most `bound` (a share of the base
/// median). A median worse by more than the bound is a regression.
/// Otherwise, where either side's spread exceeds the bound, the metric
/// is unresolved unless every run of the change beats every run of
/// the parent.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(b), Some(n)) = (quartiles(base), quartiles(new)) else {
        return Verdict::Unresolved;
    };
    // Positive = worse, as a share of the base median.
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = if b.median == 0.0 {
        sign * (n.median - b.median).signum()
    } else {
        sign * (n.median - b.median) / b.median.abs()
    };
    let all_better = new
        .iter()
        .all(|&x| base.iter().all(|&y| sign * (x - y) < 0.0));
    if worse_by > bound {
        Verdict::Worse
    } else if b.spread() > bound || n.spread() > bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by < 0.0 && -worse_by > b.spread() {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Read every `*.json` run record in `dir`.
///
/// # Errors
///
/// A message naming the unreadable or unparsable file.
pub fn load_dir(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text =
                std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e:?}", p.display()))
        })
        .collect()
}

/// Compare two sets of run records: one row per end-to-end metric and
/// workload present on both sides, from the untraced runs.
///
/// # Errors
///
/// Refuses when the two sides' output digests differ for the same
/// workload and seed — the change altered behaviour, so its timings
/// are not comparable — or when a run is marked incorrect.
pub fn compare(base: &[RunRecord], new: &[RunRecord]) -> Result<Vec<Row>, String> {
    let mut digests: BTreeMap<(&str, u64), BTreeSet<&str>> = BTreeMap::new();
    for r in base.iter().chain(new) {
        if !r.correct {
            return Err(format!(
                "{} seed {} (rev {}) is marked incorrect",
                r.workload, r.seed, r.git_rev
            ));
        }
        digests
            .entry((&r.workload, r.seed))
            .or_default()
            .insert(&r.digest);
    }
    for ((workload, seed), set) in &digests {
        if set.len() > 1 {
            return Err(format!(
                "refusing to compare: {workload} seed {seed} has output digests {set:?}"
            ));
        }
    }
    let workloads: BTreeSet<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    let mut rows = Vec::new();
    for workload in workloads {
        for m in END_TO_END.iter() {
            let values = |side: &[RunRecord]| -> Vec<f64> {
                side.iter()
                    .filter(|r| r.workload == workload && !r.trace)
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (b, n) = (values(base), values(new));
            let (Some(bq), Some(nq)) = (quartiles(&b), quartiles(&n)) else {
                continue;
            };
            rows.push(Row {
                metric: m.name,
                workload: workload.to_string(),
                base: bq,
                new: nq,
                verdict: verdict(&b, &n, m.better, m.bound),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 20% slower on a lower-is-better metric with a 10% bound.
        let slow = base.map(|x| x * 1.2);
        assert_eq!(verdict(&base, &slow, Better::Lower, 0.1), Verdict::Worse);
        // 5% slower: within the bound.
        let bit_slow = base.map(|x| x * 1.05);
        assert_eq!(
            verdict(&base, &bit_slow, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // 20% faster.
        let fast = base.map(|x| x * 0.8);
        assert_eq!(verdict(&base, &fast, Better::Lower, 0.1), Verdict::Better);
        // Higher is better flips the sense.
        assert_eq!(verdict(&base, &fast, Better::Higher, 0.1), Verdict::Worse);
        // Overlapping runs with a spread wider than the bound.
        let noisy = [50.0, 100.0, 150.0, 80.0, 120.0];
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
