//! The telemetry registry: spans, counters, gauges, histograms, and
//! the buffered event journal they all feed.
//!
//! One [`Registry`] is process-wide (see [`crate::global`]); tests
//! construct private instances with an injected [`Clock`] so recorded
//! timestamps are deterministic. A disabled registry records nothing
//! and never reads the clock — every recording call is a branch on
//! one bool and an immediate return.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use crate::binary::BinaryWriter;
use crate::clock::{Clock, MonotonicClock};
use crate::export;
use crate::reader;

/// Cap on buffered events; past it, events are dropped and counted
/// (the binary journal, when present, still receives every event).
pub const MAX_BUFFERED_EVENTS: usize = 1 << 20;

/// The environment variable enabling telemetry (`1`/`true`/`yes`/`on`).
pub const OBS_ENV: &str = "GTPIN_OBS";

/// The environment variable choosing the artifact directory
/// (default: `target/obs`, relative to the working directory).
pub const OBS_DIR_ENV: &str = "GTPIN_OBS_DIR";

/// A typed argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values export as `null`).
    F64(f64),
    /// Text.
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// What kind of event was recorded.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A completed scoped span.
    Span {
        /// Wall-clock duration, nanoseconds.
        dur_ns: u64,
    },
    /// A point-in-time marker.
    Instant,
    /// A diagnostic that would historically have gone to stderr.
    Warn {
        /// The formatted message.
        msg: String,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Span/marker name (empty for warnings).
    pub name: &'static str,
    /// What happened.
    pub kind: EventKind,
    /// Start timestamp, nanoseconds since registry origin.
    pub ts_ns: u64,
    /// Registry-scoped thread id (0 = first thread to record).
    pub tid: u32,
    /// Typed key/value arguments.
    pub args: Vec<(&'static str, ArgVal)>,
}

/// A fixed-bucket latency histogram: bucket `i` counts values whose
/// bit length is `i` (i.e. value in `[2^(i-1), 2^i)`), so the bucket
/// boundaries are powers of two from 1 ns to ~17 minutes.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket counts, indexed by bit length of the value.
    pub buckets: [u64; 41],
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 41],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros() as usize).min(40);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Approximate quantile: the upper bound of the bucket containing
    /// the `q`-th value (q in `[0, 1]`), clamped to the observed max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                let upper = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                return upper.min(self.max).max(self.min);
            }
        }
        self.max
    }
}

/// An immutable copy of everything a registry has gathered, consumed
/// by the exporters ([`export::jsonl`], [`export::chrome_trace`]).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Buffered events, in recording (span-end) order.
    pub events: Vec<Event>,
    /// Events dropped past [`MAX_BUFFERED_EVENTS`].
    pub dropped_events: u64,
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-set gauge values by name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

#[derive(Default)]
struct Inner {
    events: Vec<Event>,
    dropped_events: u64,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    tids: Vec<ThreadId>,
}

impl Inner {
    fn tid(&mut self, id: ThreadId) -> u32 {
        if let Some(i) = self.tids.iter().position(|&t| t == id) {
            return i as u32;
        }
        self.tids.push(id);
        (self.tids.len() - 1) as u32
    }
}

/// The telemetry registry. See the crate docs for the data model and
/// the module docs for the concurrency story.
pub struct Registry {
    enabled: bool,
    clock: Box<dyn Clock>,
    inner: Mutex<Inner>,
    /// The GTOBS01 binary journal writer (the process-wide registry
    /// opens one when enabled; plain test registries leave it `None`,
    /// and [`Registry::with_buffer_sink`] records to memory).
    binary: Option<BinaryWriter>,
    journal_path: Option<PathBuf>,
    artifact_dir: Option<PathBuf>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled)
            .field("journal", &self.journal_path)
            .finish()
    }
}

/// The one on/off vocabulary of every `GTPIN_*` switch, trimmed and
/// case-insensitive: `1`/`true`/`yes`/`on` are `Some(true)`,
/// `0`/`false`/`no`/`off` and the empty string are `Some(false)`, and
/// anything else (the typo `ture`) is `None` — malformed.
pub fn parse_flag(value: &str) -> Option<bool> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Some(true),
        "" | "0" | "false" | "no" | "off" => Some(false),
        _ => None,
    }
}

impl Registry {
    /// A registry with an explicit enablement and clock; no journal
    /// stream. This is the constructor tests use.
    pub fn new(enabled: bool, clock: Box<dyn Clock>) -> Registry {
        Registry {
            enabled,
            clock,
            inner: Mutex::new(Inner::default()),
            binary: None,
            journal_path: None,
            artifact_dir: None,
        }
    }

    /// A registry recording its binary journal to an in-memory
    /// buffer — what the golden tests, proptests, and benches use to
    /// inspect GTOBS01 bytes without touching disk.
    pub fn with_buffer_sink(
        enabled: bool,
        clock: Box<dyn Clock>,
    ) -> (Registry, Arc<Mutex<Vec<u8>>>) {
        let mut reg = Registry::new(enabled, clock);
        let (writer, buf) = BinaryWriter::buffer();
        reg.binary = Some(writer);
        (reg, buf)
    }

    /// The process-wide configuration: enabled iff `GTPIN_OBS` is
    /// truthy (or `force` is set), artifacts under `GTPIN_OBS_DIR`
    /// (default `target/obs`). When enabled, the GTOBS01 binary
    /// journal (`journal.gtobs`) is opened in append mode immediately
    /// and events drain to it through per-thread ring buffers; the
    /// JSONL and Chrome trace artifacts are derived from it at
    /// [`Registry::write_artifacts`] time.
    pub fn from_env(force: bool) -> Registry {
        let enabled = force || std::env::var(OBS_ENV).is_ok_and(|v| parse_flag(&v) == Some(true));
        let mut reg = Registry::new(enabled, Box::new(MonotonicClock::new()));
        if !enabled {
            return reg;
        }
        let dir = std::env::var(OBS_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/obs"));
        // Telemetry must never take the program down: an unwritable
        // directory just means no journal.
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join("journal.gtobs");
            if let Ok(writer) = BinaryWriter::open_file(&path) {
                reg.binary = Some(writer);
                reg.journal_path = Some(path);
            }
        }
        reg.artifact_dir = Some(dir);
        reg
    }

    /// Whether this registry records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current time, nanoseconds since the registry origin; 0 when
    /// disabled (the clock is never consulted).
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            self.clock.now_ns()
        } else {
            0
        }
    }

    /// The binary journal path, when one is open.
    pub fn journal_path(&self) -> Option<&Path> {
        self.journal_path.as_deref()
    }

    /// The artifact directory, when configured.
    pub fn artifact_dir(&self) -> Option<&Path> {
        self.artifact_dir.as_deref()
    }

    /// Open a scoped span; it records itself when dropped. Attach
    /// arguments via [`SpanGuard::arg`] before it closes.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        if self.enabled {
            if let Some(bin) = &self.binary {
                let tid = {
                    let mut inner = self.inner.lock().expect("obs registry poisoned");
                    inner.tid(std::thread::current().id())
                };
                bin.span_enter(name, tid, start_ns);
            }
        }
        SpanGuard {
            reg: if self.enabled { Some(self) } else { None },
            name,
            start_ns,
            args: Vec::new(),
        }
    }

    /// Add `delta` to counter `name`.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if !self.enabled || delta == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        *inner.counters.entry(name).or_insert(0) += delta;
    }

    /// Set gauge `name` to `value`.
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        inner.gauges.insert(name, value);
    }

    /// Record `value` (conventionally nanoseconds) into histogram
    /// `name`.
    pub fn hist_record(&self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        inner.histograms.entry(name).or_default().record(value);
    }

    /// Record a point-in-time marker.
    pub fn instant(&self, name: &'static str, args: Vec<(&'static str, ArgVal)>) {
        if !self.enabled {
            return;
        }
        let ts_ns = self.clock.now_ns();
        self.push_event(name, EventKind::Instant, ts_ns, args);
    }

    /// Record a diagnostic message (prefer the [`crate::warn!`]
    /// macro, which formats lazily and is a no-op when disabled).
    pub fn warn(&self, msg: String) {
        if !self.enabled {
            return;
        }
        let ts_ns = self.clock.now_ns();
        self.push_event("", EventKind::Warn { msg }, ts_ns, Vec::new());
    }

    fn push_event(
        &self,
        name: &'static str,
        kind: EventKind,
        ts_ns: u64,
        args: Vec<(&'static str, ArgVal)>,
    ) {
        let event = {
            let mut inner = self.inner.lock().expect("obs registry poisoned");
            let tid = inner.tid(std::thread::current().id());
            let event = Event {
                name,
                kind,
                ts_ns,
                tid,
                args,
            };
            if inner.events.len() < MAX_BUFFERED_EVENTS {
                inner.events.push(event.clone());
            } else {
                inner.dropped_events += 1;
            }
            event
        };
        // Journal outside the inner lock: the binary writer appends
        // to this thread's own ring buffer (uncontended) and drains
        // to the sink in section-sized batches.
        if let Some(bin) = &self.binary {
            bin.append_event(&event);
        }
    }

    /// Copy out everything gathered so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("obs registry poisoned");
        Snapshot {
            events: inner.events.clone(),
            dropped_events: inner.dropped_events,
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// Render the per-stage summary table (see [`export::summary`]).
    pub fn summary(&self) -> String {
        export::summary(&self.snapshot())
    }

    /// Drain every ring buffer and append the counter/gauge/histogram
    /// totals section to the binary journal (no-op without one).
    /// Telemetry stays on disk even if the process never calls
    /// [`Registry::write_artifacts`].
    pub fn flush(&self) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        match &self.binary {
            Some(bin) => bin.flush(Some(&self.snapshot())),
            None => Ok(()),
        }
    }

    /// Flush the binary journal (rings plus a totals section), then
    /// derive the text artifacts from it: `journal.jsonl` and
    /// `trace.json` under the artifact directory are *conversions* of
    /// the binary journal, so they can never disagree with it.
    /// Returns the paths written.
    pub fn write_artifacts(&self) -> std::io::Result<Vec<PathBuf>> {
        if !self.enabled {
            return Ok(Vec::new());
        }
        self.flush()?;
        let mut written = Vec::new();
        if self.binary.is_some() {
            if let Some(p) = &self.journal_path {
                written.push(p.clone());
            }
        }
        if let Some(dir) = &self.artifact_dir {
            match &self.journal_path {
                Some(journal) => {
                    let bytes = std::fs::read(journal)?;
                    let jsonl_path = dir.join("journal.jsonl");
                    std::fs::write(&jsonl_path, reader::to_jsonl(&bytes))?;
                    written.push(jsonl_path);
                    let trace_path = dir.join("trace.json");
                    std::fs::write(&trace_path, reader::to_chrome_trace(&bytes))?;
                    written.push(trace_path);
                }
                None => {
                    // No journal on disk (the directory was not
                    // writable): fall back to the snapshot exporter.
                    let trace_path = dir.join("trace.json");
                    self.write_chrome_trace(&trace_path)?;
                    written.push(trace_path);
                }
            }
        }
        Ok(written)
    }

    /// Write the Chrome `trace_event` JSON to an explicit path
    /// (used by benches that want the artifact next to their own).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        std::fs::write(path, export::chrome_trace(&self.snapshot()))
    }
}

/// RAII guard for a scoped span: created by [`Registry::span`],
/// records a [`EventKind::Span`] event when dropped. When the
/// registry is disabled the guard holds nothing and drops for free.
pub struct SpanGuard<'a> {
    reg: Option<&'a Registry>,
    name: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, ArgVal)>,
}

impl SpanGuard<'_> {
    /// Whether this guard is recording.
    pub fn active(&self) -> bool {
        self.reg.is_some()
    }

    /// Attach an argument (no-op when disabled).
    pub fn arg(&mut self, key: &'static str, value: ArgVal) {
        if self.reg.is_some() {
            self.args.push((key, value));
        }
    }

    /// Attach an unsigned-integer argument.
    pub fn arg_u64(&mut self, key: &'static str, value: u64) {
        self.arg(key, ArgVal::U64(value));
    }

    /// Attach a float argument.
    pub fn arg_f64(&mut self, key: &'static str, value: f64) {
        self.arg(key, ArgVal::F64(value));
    }

    /// Attach a text argument (the string is only built when the
    /// guard is active, so pass a closure-produced value via
    /// [`SpanGuard::active`] checks if construction is expensive).
    pub fn arg_str(&mut self, key: &'static str, value: impl Into<String>) {
        if self.reg.is_some() {
            self.args.push((key, ArgVal::Str(value.into())));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(reg) = self.reg else { return };
        let end_ns = reg.clock.now_ns();
        let dur_ns = end_ns.saturating_sub(self.start_ns);
        reg.push_event(
            self.name,
            EventKind::Span { dur_ns },
            self.start_ns,
            std::mem::take(&mut self.args),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::sync::Arc;

    fn manual_registry() -> (Registry, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let reg = Registry::new(true, Box::new(clock.clone()));
        (reg, clock)
    }

    #[test]
    fn spans_record_duration_and_args() {
        let (reg, clock) = manual_registry();
        {
            let mut s = reg.span("stage.a");
            clock.advance(250);
            s.arg_u64("items", 7);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.events.len(), 1);
        let e = &snap.events[0];
        assert_eq!(e.name, "stage.a");
        assert_eq!(e.ts_ns, 0);
        assert_eq!(e.kind, EventKind::Span { dur_ns: 250 });
        assert_eq!(e.args, vec![("items", ArgVal::U64(7))]);
        assert_eq!(e.tid, 0);
    }

    #[test]
    fn disabled_registry_records_nothing_and_skips_the_clock() {
        struct PanickingClock;
        impl Clock for PanickingClock {
            fn now_ns(&self) -> u64 {
                panic!("clock consulted while disabled")
            }
        }
        let reg = Registry::new(false, Box::new(PanickingClock));
        {
            let mut s = reg.span("never");
            s.arg_u64("x", 1);
        }
        reg.counter_add("c", 5);
        reg.gauge_set("g", 1.0);
        reg.hist_record("h", 10);
        reg.warn("nope".into());
        assert_eq!(reg.now_ns(), 0);
        let snap = reg.snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let (reg, _) = manual_registry();
        reg.counter_add("records", 3);
        reg.counter_add("records", 4);
        reg.counter_add("zero", 0);
        reg.gauge_set("ratio", 1.5);
        reg.gauge_set("ratio", 2.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("records"), Some(&7));
        assert!(!snap.counters.contains_key("zero"));
        assert_eq!(snap.gauges.get("ratio"), Some(&2.5));
    }

    #[test]
    fn histogram_tracks_distribution() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1_000_000);
        assert_eq!(h.sum, 1_001_006);
        assert!(h.mean() > 0.0);
        assert!(h.quantile(0.5) <= h.quantile(0.99));
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn event_buffer_is_bounded() {
        let (reg, _) = manual_registry();
        // Shrinking the real cap would slow the test; instead verify
        // the accounting path with a tiny synthetic inner.
        let mut inner = Inner::default();
        for i in 0..3 {
            let e = Event {
                name: "x",
                kind: EventKind::Instant,
                ts_ns: i,
                tid: 0,
                args: Vec::new(),
            };
            if inner.events.len() < 2 {
                inner.events.push(e);
            } else {
                inner.dropped_events += 1;
            }
        }
        assert_eq!(inner.events.len(), 2);
        assert_eq!(inner.dropped_events, 1);
        drop(reg);
    }

    #[test]
    fn tids_are_assigned_in_first_seen_order() {
        let (reg, _) = manual_registry();
        reg.instant("main", Vec::new());
        std::thread::scope(|s| {
            s.spawn(|| reg.instant("worker", Vec::new()));
        });
        let snap = reg.snapshot();
        assert_eq!(snap.events[0].tid, 0, "main thread recorded first");
        assert_eq!(snap.events[1].tid, 1, "worker got the next tid");
    }

    #[test]
    fn flag_vocabulary() {
        for v in ["1", "true", "YES", " on "] {
            assert_eq!(parse_flag(v), Some(true), "{v}");
        }
        for v in ["0", "false", "", "OFF", " no "] {
            assert_eq!(parse_flag(v), Some(false), "{v}");
        }
        for v in ["2", "ture", "enable"] {
            assert_eq!(parse_flag(v), None, "{v}");
        }
    }

    #[test]
    fn global_registry_follows_the_environment() {
        let env_on = std::env::var(OBS_ENV).is_ok_and(|v| parse_flag(&v) == Some(true));
        assert_eq!(crate::enabled(), env_on);
        let mut s = crate::span("test.noop");
        s.arg_u64("x", 1);
        assert_eq!(s.active(), env_on);
        drop(s);
        // Whichever way the switch is set, the free functions must
        // not panic or misbehave.
        crate::counter_add("c", 1);
        crate::hist_ns("h", 1);
        crate::instant("i");
        crate::warn!("formatted only when enabled {}", 1);
        if env_on {
            assert!(crate::now_ns() > 0);
        } else {
            assert_eq!(crate::now_ns(), 0);
            assert!(crate::write_artifacts().unwrap().is_empty());
        }
    }
}
