//! # gtpin-obs — telemetry for the GT-Pin reproduction
//!
//! A dependency-free observability layer: scoped spans, typed
//! counters/gauges, fixed-bucket latency histograms, and a binary
//! event journal (GTOBS01, see [`binary`]) from which the text
//! artifacts — a JSONL journal and a Chrome `trace_event` JSON
//! viewable in `about:tracing` / Perfetto — are derived by the
//! converters in [`reader`].
//!
//! ## Enablement
//!
//! Everything is gated on the `GTPIN_OBS` environment variable
//! (`1`/`true`/`yes`/`on`). When unset, every call on the global
//! registry is a branch on a cached bool and an immediate return —
//! no clock reads, no allocation, no locking — so instrumented code
//! costs effectively nothing in production and outputs stay bitwise
//! identical at any thread count. Artifacts land in `GTPIN_OBS_DIR`
//! (default `target/obs`): events drain to `journal.gtobs` through
//! per-thread ring buffers as they happen, and [`write_artifacts`]
//! flushes it (adding the counter/gauge/histogram totals) and
//! converts it to `journal.jsonl` plus `trace.json`.
//!
//! ## Usage
//!
//! ```
//! let mut span = gtpin_obs::span("engine.launch");
//! span.arg_u64("invocation", 7);
//! gtpin_obs::counter_add("executor.trace_records", 4096);
//! gtpin_obs::hist_ns("par.task_ns", 12_345);
//! gtpin_obs::warn!("kernel {} missing from site table", 3);
//! drop(span); // records the span with its duration
//! ```
//!
//! Tests construct private [`Registry`] instances with a
//! [`ManualClock`] so exported artifacts are byte-deterministic;
//! [`Registry::with_buffer_sink`] additionally captures the binary
//! journal in memory.

pub mod binary;
mod clock;
mod export;
pub mod frame;
pub mod reader;
mod registry;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use export::{chrome_trace, event_jsonl_line, json_escape, jsonl, summary, totals_jsonl};
pub use registry::{
    parse_flag, ArgVal, Event, EventKind, Histogram, Registry, Snapshot, SpanGuard,
    MAX_BUFFERED_EVENTS, OBS_DIR_ENV, OBS_ENV,
};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();
static FORCE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// The process-wide registry, initialized from the environment on
/// first use (see [`force_enable`] for the programmatic override).
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(|| Registry::from_env(FORCE.load(std::sync::atomic::Ordering::SeqCst)))
}

/// Enable telemetry regardless of `GTPIN_OBS` — used by `gtpin
/// obs-report` so users get a report without exporting variables.
/// Must be called before the first telemetry call; returns false if
/// the global registry was already initialized disabled.
pub fn force_enable() -> bool {
    FORCE.store(true, std::sync::atomic::Ordering::SeqCst);
    global().enabled()
}

/// Whether the global registry records anything.
pub fn enabled() -> bool {
    global().enabled()
}

/// Current global-registry time in nanoseconds; 0 when disabled, so
/// ad-hoc `now_ns()..now_ns()` deltas cost nothing in production.
pub fn now_ns() -> u64 {
    global().now_ns()
}

/// Open a scoped span on the global registry.
pub fn span(name: &'static str) -> SpanGuard<'static> {
    global().span(name)
}

/// Add to a counter on the global registry.
pub fn counter_add(name: &'static str, delta: u64) {
    global().counter_add(name, delta);
}

/// Set a gauge on the global registry.
pub fn gauge_set(name: &'static str, value: f64) {
    global().gauge_set(name, value);
}

/// Record a (nanosecond) value into a histogram on the global
/// registry.
pub fn hist_ns(name: &'static str, value_ns: u64) {
    global().hist_record(name, value_ns);
}

/// Record a point-in-time marker on the global registry.
pub fn instant(name: &'static str) {
    global().instant(name, Vec::new());
}

/// Record a pre-formatted diagnostic (prefer [`warn!`], which skips
/// formatting entirely when telemetry is off).
pub fn warn_str(msg: String) {
    global().warn(msg);
}

/// Print the per-stage summary and write `trace.json` + journal
/// totals. Returns the artifact paths written (empty when disabled).
pub fn write_artifacts() -> std::io::Result<Vec<std::path::PathBuf>> {
    global().write_artifacts()
}

/// Route a diagnostic through the telemetry journal instead of
/// stderr. Arguments are only evaluated and formatted when telemetry
/// is enabled, so quiet runs are quiet *and* free.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::enabled() {
            $crate::warn_str(format!($($arg)*));
        }
    };
}
