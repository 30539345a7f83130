//! Bench-side tracing: spans recorded around calls into each layer's
//! public functions, on a private `gtpin_obs` registry (the program's
//! own global registry stays off), folded into per-layer self times.
//!
//! A span's self time is its duration minus the time its direct
//! child spans cover. The layer of a span is its name up to the first
//! `.`; `bench.*` spans are the roots (one per set-up or round), and
//! their total is the traced wall time that busy shares divide by.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use gtpin_obs::{EventKind, MonotonicClock, Registry, SpanGuard};

/// A registry that records spans when tracing is on and costs one
/// branch per span when it is off.
pub struct Tracer {
    registry: Registry,
    sink: Option<Arc<Mutex<Vec<u8>>>>,
}

impl Tracer {
    /// Tracing off: spans are inert.
    pub fn off() -> Tracer {
        Tracer {
            registry: Registry::new(false, Box::new(MonotonicClock::new())),
            sink: None,
        }
    }

    /// Tracing on, with the GTOBS01 journal captured in memory.
    pub fn on() -> Tracer {
        let (registry, sink) = Registry::with_buffer_sink(true, Box::new(MonotonicClock::new()));
        Tracer {
            registry,
            sink: Some(sink),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.registry.enabled()
    }

    /// Open a span; it records when dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.registry.span(name)
    }

    /// Run `f` inside a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }

    /// Add to a counter (no-op when off).
    pub fn count(&self, name: &'static str, delta: u64) {
        self.registry.counter_add(name, delta);
    }

    /// Fold the recorded spans into per-name totals.
    pub fn fold(&self) -> Fold {
        let snap = self.registry.snapshot();
        let mut spans: Vec<(u32, u64, u64, usize, &'static str)> = snap
            .events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.kind {
                EventKind::Span { dur_ns } => Some((e.tid, e.ts_ns, dur_ns, i, e.name)),
                _ => None,
            })
            .collect();
        // Parents before children: by thread, start, longer first, and
        // on a full tie the later-recorded span (spans record at their
        // end, so the parent records after its children).
        spans.sort_by(|a, b| {
            (a.0, a.1, std::cmp::Reverse(a.2), std::cmp::Reverse(a.3)).cmp(&(
                b.0,
                b.1,
                std::cmp::Reverse(b.2),
                std::cmp::Reverse(b.3),
            ))
        });
        let mut child_ns = vec![0u64; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        let mut fold = Fold {
            counters: snap.counters.clone(),
            ..Fold::default()
        };
        for (i, &(tid, start, dur, _, _)) in spans.iter().enumerate() {
            while let Some(&top) = stack.last() {
                let (ttid, tstart, tdur, _, _) = spans[top];
                if ttid != tid || tstart + tdur <= start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                child_ns[parent] += dur;
            }
            stack.push(i);
        }
        for (i, &(_, _, dur, _, name)) in spans.iter().enumerate() {
            let stat = fold.by_name.entry(name).or_default();
            stat.count += 1;
            stat.total_ns += dur;
            stat.self_ns += dur.saturating_sub(child_ns[i]);
            if name.starts_with("bench.") {
                fold.root_ns += dur;
            }
        }
        fold
    }

    /// Flush the journal, verify it with the strict GTOBS01 reader,
    /// and write it plus its Chrome trace conversion as
    /// `<dir>/<stem>.gtobs` and `<dir>/<stem>.trace.json`.
    ///
    /// # Errors
    ///
    /// A message when the journal does not verify or a file cannot be
    /// written.
    pub fn write_journal(&self, dir: &Path, stem: &str) -> Result<Vec<PathBuf>, String> {
        let Some(sink) = &self.sink else {
            return Ok(Vec::new());
        };
        self.registry
            .flush()
            .map_err(|e| format!("flushing the trace journal: {e}"))?;
        let bytes = sink.lock().expect("trace sink poisoned").clone();
        gtpin_obs::reader::verify(&bytes)
            .map_err(|e| format!("trace journal does not verify: {e}"))?;
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let journal = dir.join(format!("{stem}.gtobs"));
        let chrome = dir.join(format!("{stem}.trace.json"));
        std::fs::write(&journal, &bytes)
            .map_err(|e| format!("writing {}: {e}", journal.display()))?;
        std::fs::write(&chrome, gtpin_obs::reader::to_chrome_trace(&bytes))
            .map_err(|e| format!("writing {}: {e}", chrome.display()))?;
        Ok(vec![journal, chrome])
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Folded spans of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Fold {
    /// Totals by span name.
    pub by_name: BTreeMap<&'static str, SpanStat>,
    /// Summed durations of the root (`bench.*`) spans.
    pub root_ns: u64,
    /// Counter totals.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Fold {
    /// Totals of one span name (zero when it never ran).
    pub fn stat(&self, name: &str) -> SpanStat {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Self time of every span in `layer`, nanoseconds.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, s)| s.self_ns)
            .sum()
    }

    /// A counter total (zero when never added to).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `ns` as a percentage of the traced wall time.
    pub fn share_pct(&self, ns: u64) -> f64 {
        ratio(ns as f64 * 100.0, self.root_ns as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
