//! Interval schemes — Table II of the paper.
//!
//! GPU intervals are subject to hard constraints the paper's
//! simulator teams imposed: an interval is **at least one whole
//! kernel invocation** and **never spans a synchronization call**.
//! Three schemes satisfy them at different granularities:
//!
//! | scheme | relative size |
//! |---|---|
//! | synchronization-bounded | large |
//! | ~N instructions (paper: ~100M) | medium |
//! | single kernel invocation | small |

use std::sync::Arc;

use gtpin_faults::Memo;
use gtpin_obs::frame::fnv64;
use serde::{Deserialize, Serialize};

use crate::data::AppData;
use crate::evaluate::SelectionConfig;

/// How to divide a program trace into intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IntervalScheme {
    /// Split at each synchronization call (largest intervals).
    SyncBounded,
    /// Subdivide sync epochs into runs of approximately this many
    /// dynamic instructions, without splitting invocations (the
    /// paper's "approximately 100M instructions").
    ApproxInstructions(u64),
    /// Every kernel invocation is its own interval (smallest).
    SingleKernel,
}

impl IntervalScheme {
    /// Short label used in tables and reports.
    pub fn label(&self) -> String {
        match self {
            IntervalScheme::SyncBounded => "sync".to_string(),
            IntervalScheme::ApproxInstructions(n) => format!("approx-{n}"),
            IntervalScheme::SingleKernel => "single-kernel".to_string(),
        }
    }
}

impl std::fmt::Display for IntervalScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A half-open range of invocation indices `[start, end)` — always
/// whole invocations, never crossing a sync epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    /// First invocation index.
    pub start: usize,
    /// One past the last invocation index.
    pub end: usize,
}

impl Interval {
    /// Number of invocations covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the interval is empty (never produced by
    /// [`build_intervals`]).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Dynamic instructions in this interval.
    pub fn instructions(&self, data: &AppData) -> u64 {
        data.invocations[self.start..self.end]
            .iter()
            .map(|i| i.instructions)
            .sum()
    }

    /// Measured seconds in this interval.
    pub fn seconds(&self, data: &AppData) -> f64 {
        data.invocations[self.start..self.end]
            .iter()
            .map(|i| i.seconds)
            .sum()
    }

    /// Seconds-per-instruction of the interval.
    pub fn spi(&self, data: &AppData) -> f64 {
        let n = self.instructions(data);
        if n == 0 {
            0.0
        } else {
            self.seconds(data) / n as f64
        }
    }
}

/// A scheme's interval division plus per-interval base profiles
/// (instruction and time sums), computed **once** and shared across
/// every feature kind that evaluates under the scheme.
///
/// `Exploration::run_with_threads` evaluates 10 feature kinds per
/// scheme; without this table each evaluation re-divides the trace
/// and re-walks the invocations (30 divisions per app). With it, the
/// division and the per-interval sums happen 3 times and are read 30
/// times — and the sums are accumulated in exactly the order
/// [`Interval::instructions`] and [`Interval::seconds`] use, so every
/// derived quantity (weights, SPI, projections) is bitwise identical
/// to the un-memoized path.
#[derive(Debug, Clone)]
pub struct SchemeTable {
    /// The scheme this table divides under.
    pub scheme: IntervalScheme,
    /// The division (same contents as [`build_intervals`]).
    pub intervals: Vec<Interval>,
    instructions: Vec<u64>,
    seconds: Vec<f64>,
    quarantined: Vec<bool>,
}

impl SchemeTable {
    /// Divide `data` under `scheme` and profile every interval.
    pub fn build(data: &AppData, scheme: IntervalScheme) -> SchemeTable {
        let intervals = build_intervals(data, scheme);
        let instructions = intervals.iter().map(|iv| iv.instructions(data)).collect();
        let seconds = intervals.iter().map(|iv| iv.seconds(data)).collect();
        let quarantined = intervals
            .iter()
            .map(|iv| {
                data.invocations[iv.start..iv.end]
                    .iter()
                    .any(crate::data::InvRecord::is_degraded)
            })
            .collect();
        SchemeTable {
            scheme,
            intervals,
            instructions,
            seconds,
            quarantined,
        }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the division is empty (no invocations).
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Per-interval dynamic instruction counts — SimPoint's
    /// clustering weights.
    pub fn weights(&self) -> &[u64] {
        &self.instructions
    }

    /// Dynamic instructions in interval `i`.
    pub fn instructions(&self, i: usize) -> u64 {
        self.instructions[i]
    }

    /// Seconds-per-instruction of interval `i`; bitwise equal to
    /// [`Interval::spi`] on the same data.
    pub fn spi(&self, i: usize) -> f64 {
        if self.instructions[i] == 0 {
            0.0
        } else {
            self.seconds[i] / self.instructions[i] as f64
        }
    }

    /// Per-interval quarantine mask: `true` where any invocation in
    /// the interval dropped or quarantined trace records. All-false
    /// in healthy runs, in which case selection takes the unfiltered
    /// (bitwise-identical) path.
    pub fn quarantine_mask(&self) -> &[bool] {
        &self.quarantined
    }

    /// Whether any interval is quarantined.
    pub fn has_quarantined(&self) -> bool {
        self.quarantined.iter().any(|&q| q)
    }
}

/// The memo an exploration or a sweep keeps its [`SchemeTable`]s in
/// for one call, sealed over [`pack_table`] under `fnv64("app/label")`.
pub(crate) fn table_memo() -> Memo<IntervalScheme, SchemeTable> {
    Memo::new("selection.interval_table", None)
}

/// The table of each config's scheme, looking each distinct scheme up
/// once in first-appearance order. A missing or corrupted table is
/// built from `data`, so the first call fills the memo without a seal
/// read and each later call verifies every table once.
pub(crate) fn scheme_tables(
    memo: &mut Memo<IntervalScheme, SchemeTable>,
    data: &AppData,
    configs: &[SelectionConfig],
) -> Vec<Arc<SchemeTable>> {
    let mut looked_up: Vec<Arc<SchemeTable>> = Vec::new();
    configs
        .iter()
        .map(|cfg| {
            let scheme = cfg.interval;
            if let Some(table) = looked_up.iter().find(|t| t.scheme == scheme) {
                return Arc::clone(table);
            }
            let table = memo.get(&scheme).unwrap_or_else(|| {
                let table = SchemeTable::build(data, scheme);
                let canary = pack_table(&table);
                let ident = fnv64(format!("{}/{}", data.app, scheme.label()).as_bytes());
                memo.insert(scheme, ident, table, canary)
            });
            looked_up.push(Arc::clone(&table));
            table
        })
        .collect()
}

/// Canonical byte packing of a table for sealing: scheme label,
/// interval bounds, instruction sums (LE), second sums as IEEE bits
/// (LE), quarantine flags. Stable across runs — no pointers, no
/// volatile state — so seals replay identically.
fn pack_table(t: &SchemeTable) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + t.len() * 33);
    out.extend_from_slice(t.scheme.label().as_bytes());
    for iv in &t.intervals {
        out.extend_from_slice(&(iv.start as u64).to_le_bytes());
        out.extend_from_slice(&(iv.end as u64).to_le_bytes());
    }
    for i in 0..t.len() {
        out.extend_from_slice(&t.instructions(i).to_le_bytes());
        out.extend_from_slice(&t.seconds[i].to_bits().to_le_bytes());
    }
    for &q in t.quarantine_mask() {
        out.push(u8::from(q));
    }
    out
}

/// The default medium-interval target for an application — the
/// analogue of the paper's fixed "~100M instructions" at our workload
/// scale: roughly two sub-intervals per synchronization epoch, which
/// reproduces Table II's sync : approx ratio.
pub fn default_approx_target(data: &AppData) -> u64 {
    let epochs = data
        .invocations
        .last()
        .map(|i| i.sync_epoch as u64 + 1)
        .unwrap_or(1);
    (data.total_instructions() / (2 * epochs).max(1)).max(1_000)
}

/// Divide `data` into intervals under `scheme`.
///
/// The result partitions the invocation sequence exactly: intervals
/// are contiguous, non-empty, cover every invocation once, and never
/// straddle a synchronization epoch.
pub fn build_intervals(data: &AppData, scheme: IntervalScheme) -> Vec<Interval> {
    let n = data.invocations.len();
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }

    // Epoch boundaries first: indices where a new epoch starts.
    let mut epoch_starts = vec![0usize];
    for i in 1..n {
        if data.invocations[i].sync_epoch != data.invocations[i - 1].sync_epoch {
            epoch_starts.push(i);
        }
    }
    epoch_starts.push(n);

    match scheme {
        IntervalScheme::SyncBounded => {
            for w in epoch_starts.windows(2) {
                out.push(Interval {
                    start: w[0],
                    end: w[1],
                });
            }
        }
        IntervalScheme::SingleKernel => {
            for i in 0..n {
                out.push(Interval {
                    start: i,
                    end: i + 1,
                });
            }
        }
        IntervalScheme::ApproxInstructions(target) => {
            let target = target.max(1);
            for w in epoch_starts.windows(2) {
                let (mut start, end) = (w[0], w[1]);
                let mut acc = 0u64;
                for i in w[0]..end {
                    acc += data.invocations[i].instructions;
                    if acc >= target {
                        out.push(Interval { start, end: i + 1 });
                        start = i + 1;
                        acc = 0;
                    }
                }
                if start < end {
                    out.push(Interval { start, end });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::test_support::synthetic_app;

    fn assert_partition(data: &AppData, intervals: &[Interval]) {
        assert!(!intervals.is_empty());
        let mut cursor = 0;
        for iv in intervals {
            assert_eq!(iv.start, cursor, "contiguous");
            assert!(!iv.is_empty(), "non-empty");
            cursor = iv.end;
            // Never straddles an epoch.
            let e = data.invocations[iv.start].sync_epoch;
            for i in iv.start..iv.end {
                assert_eq!(
                    data.invocations[i].sync_epoch, e,
                    "single epoch per interval"
                );
            }
        }
        assert_eq!(cursor, data.invocations.len(), "covers everything");
    }

    #[test]
    fn sync_bounded_matches_epochs() {
        let d = synthetic_app(5, 6);
        let ivs = build_intervals(&d, IntervalScheme::SyncBounded);
        assert_eq!(ivs.len(), 5);
        assert_partition(&d, &ivs);
    }

    #[test]
    fn single_kernel_is_one_per_invocation() {
        let d = synthetic_app(3, 4);
        let ivs = build_intervals(&d, IntervalScheme::SingleKernel);
        assert_eq!(ivs.len(), 12);
        assert_partition(&d, &ivs);
    }

    #[test]
    fn approx_instructions_sits_between() {
        let d = synthetic_app(4, 8);
        // Each epoch ≈ 4×10k + 4×4k = 56k instructions.
        let sync = build_intervals(&d, IntervalScheme::SyncBounded).len();
        let approx = build_intervals(&d, IntervalScheme::ApproxInstructions(20_000)).len();
        let single = build_intervals(&d, IntervalScheme::SingleKernel).len();
        assert!(
            sync <= approx && approx <= single,
            "{sync} <= {approx} <= {single}"
        );
        assert_partition(
            &d,
            &build_intervals(&d, IntervalScheme::ApproxInstructions(20_000)),
        );
    }

    #[test]
    fn oversized_invocations_get_their_own_interval() {
        let d = synthetic_app(1, 6);
        // Target far below any single invocation.
        let ivs = build_intervals(&d, IntervalScheme::ApproxInstructions(1));
        assert_eq!(ivs.len(), 6, "every invocation exceeds the target alone");
        assert_partition(&d, &ivs);
    }

    #[test]
    fn huge_target_collapses_to_sync_bounds() {
        let d = synthetic_app(3, 5);
        let ivs = build_intervals(&d, IntervalScheme::ApproxInstructions(u64::MAX));
        assert_eq!(ivs.len(), 3, "target never reached within an epoch");
    }

    #[test]
    fn interval_spi_matches_hand_computation() {
        let d = synthetic_app(1, 2);
        let iv = Interval { start: 0, end: 2 };
        let spi = iv.spi(&d);
        let secs = d.invocations[0].seconds + d.invocations[1].seconds;
        let instrs = d.invocations[0].instructions + d.invocations[1].instructions;
        assert!((spi - secs / instrs as f64).abs() < 1e-18);
    }

    #[test]
    fn empty_data_yields_no_intervals() {
        let mut d = synthetic_app(1, 1);
        d.invocations.clear();
        assert!(build_intervals(&d, IntervalScheme::SyncBounded).is_empty());
    }

    #[test]
    fn scheme_table_matches_interval_methods_bitwise() {
        let d = synthetic_app(5, 7);
        for scheme in [
            IntervalScheme::SyncBounded,
            IntervalScheme::ApproxInstructions(25_000),
            IntervalScheme::SingleKernel,
        ] {
            let table = SchemeTable::build(&d, scheme);
            let intervals = build_intervals(&d, scheme);
            assert_eq!(table.intervals, intervals);
            assert_eq!(table.len(), intervals.len());
            for (i, iv) in intervals.iter().enumerate() {
                assert_eq!(table.instructions(i), iv.instructions(&d));
                assert_eq!(table.weights()[i], iv.instructions(&d));
                assert_eq!(
                    table.spi(i).to_bits(),
                    iv.spi(&d).to_bits(),
                    "memoized SPI must be bit-identical ({scheme})"
                );
            }
        }
    }

    // The fault registry is process-global; serialize the one test
    // that installs a plan (same discipline as the faults crate).
    static FAULTS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn table_memo_heals_corruption_to_identical_bits() {
        let _g = FAULTS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let d = synthetic_app(5, 7);
        let scheme = IntervalScheme::ApproxInstructions(25_000);
        let reference = SchemeTable::build(&d, scheme);

        // Corrupt on every read: the canary trips, the table heals.
        gtpin_faults::install(gtpin_faults::FaultPlan::single(
            gtpin_faults::site::CACHE_CORRUPT,
            1.0,
            77,
        ));
        let configs = [SelectionConfig {
            interval: scheme,
            features: crate::features::FeatureKind::Kn,
        }];
        let mut memo = table_memo();
        scheme_tables(&mut memo, &d, &configs);
        let healed = &scheme_tables(&mut memo, &d, &configs)[0];
        assert_eq!(healed.intervals, reference.intervals);
        for i in 0..reference.len() {
            assert_eq!(healed.instructions(i), reference.instructions(i));
            assert_eq!(
                healed.spi(i).to_bits(),
                reference.spi(i).to_bits(),
                "healed table must be bitwise identical"
            );
        }
        let acc: std::collections::BTreeMap<String, u64> =
            gtpin_faults::take_accounting().into_iter().collect();
        assert!(acc["injected.cache.corrupt"] >= 1);
        assert!(acc["healed.selection.interval_table"] >= 1);
        gtpin_faults::disable();

        // Quiescent: the seal holds and no heal is accounted.
        let mut clean = table_memo();
        scheme_tables(&mut clean, &d, &configs);
        scheme_tables(&mut clean, &d, &configs);
        let acc: std::collections::BTreeMap<String, u64> =
            gtpin_faults::take_accounting().into_iter().collect();
        assert!(!acc.contains_key("healed.selection.interval_table"));
    }

    #[test]
    fn memoized_division_never_straddles_sync_calls() {
        // Eight epochs → seven synchronization calls between them;
        // every scheme's memoized division must respect all seven
        // boundaries exactly as the direct division does.
        let d = synthetic_app(8, 5);
        let sync_calls = 7;
        assert_eq!(
            d.invocations.last().unwrap().sync_epoch as usize,
            sync_calls
        );
        for scheme in [
            IntervalScheme::SyncBounded,
            IntervalScheme::ApproxInstructions(15_000),
            IntervalScheme::SingleKernel,
        ] {
            let table = SchemeTable::build(&d, scheme);
            assert_partition(&d, &table.intervals);
            // Each of the 7 boundaries coincides with an interval edge.
            let edges: std::collections::HashSet<usize> =
                table.intervals.iter().map(|iv| iv.start).collect();
            for i in 1..d.invocations.len() {
                if d.invocations[i].sync_epoch != d.invocations[i - 1].sync_epoch {
                    assert!(
                        edges.contains(&i),
                        "sync boundary at {i} must start an interval"
                    );
                }
            }
        }
    }
}
