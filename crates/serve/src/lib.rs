//! # gtpin-serve
//!
//! A long-running profiling daemon for the GT-Pin suite: `gtpin
//! serve` binds a Unix socket, accepts profile / explore / sim /
//! lint requests over the length-prefixed [`wire`] protocol, and
//! keeps shared work memoized across requests (one interval-table
//! sweep serves every exploration of the same app, one profiling
//! pass serves both `profile` and `explore`).
//!
//! Robustness is the design center, not a bolt-on:
//!
//! - **Admission tickets, never unbounded queueing.** Every session
//!   asks the generalized [`gtpin_par::Supervisor`] for an admission
//!   ticket before any work starts: the per-app circuit breaker and
//!   the global run budget (the `GTPIN_DEADLINE_MS` / `GTPIN_BREAKER`
//!   / `GTPIN_MAX_TASKS` / `GTPIN_MAX_VIRTUAL_MS` knobs) shed
//!   overload **deterministically** with typed `error[busy]` /
//!   `error[budget]` responses inside the deadline.
//! - **Crash consistency.** Each accepted session is journaled
//!   through `gtpin-durable` (Start before compute, Finish after): a
//!   SIGKILL'd daemon restarted with `--resume` recovers torn tails,
//!   replays completed sessions through identical supervisor policy
//!   state, recomputes the in-flight ones, and serves responses
//!   **bit-identical** to an uninterrupted run.
//! - **Fault isolation.** A panicking session handler
//!   (`serve.session_crash`) is caught and demoted to a typed
//!   `error[session]` response; a dropped client connection
//!   (`serve.conn_drop`) abandons delivery only — the computed
//!   response is already journaled and cached, and every sibling
//!   session keeps running. `gtpin chaos --pinned` pins both
//!   contracts.
//! - **Graceful drain.** SIGTERM/SIGINT stop the accept loop,
//!   in-flight sessions finish, and the socket is removed.

pub mod daemon;
pub mod report;
pub mod session;
pub mod wire;

pub use daemon::{request_drain, request_once, request_with_retry, serve, RetryPolicy};
pub use report::{lint_program, lint_tally, render_selection, simulate_program, LintError};
pub use report::{KernelLint, SimError, SimReport};
pub use session::{ResumeReport, ServeConfig, SessionEngine, SessionRecord, SessionResult};

use std::path::PathBuf;

/// Errors from the serving layer itself (socket, protocol, session
/// journal). Session *outcomes* — including shed and crashed
/// sessions — are in-band [`wire::Response::Err`] payloads, not
/// `ServeError`s: the daemon survives them by design.
#[derive(Debug)]
pub enum ServeError {
    /// A socket or filesystem operation failed.
    Io {
        /// What the daemon was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The wire protocol was violated (torn frame, oversized length
    /// prefix, unparsable payload).
    Wire(wire::WireError),
    /// The session journal could not be created, recovered, or
    /// appended to.
    Journal(gtpin_durable::JournalError),
    /// Bad arguments (unknown request kind, malformed flag values).
    Cli(String),
    /// Another live daemon already owns the socket — the startup
    /// liveness probe got an answer, so this instance refuses to
    /// replace it (only *dead* sockets are reclaimed).
    Busy(String),
}

impl ServeError {
    /// Stable short label, matching the CLI's `error[kind]` scheme.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Io { .. } => "io",
            ServeError::Wire(_) => "wire",
            ServeError::Journal(_) => "journal",
            ServeError::Cli(_) => "cli",
            ServeError::Busy(_) => "busy",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { context, source } => write!(f, "{context}: {source}"),
            ServeError::Wire(e) => write!(f, "{e}"),
            ServeError::Journal(e) => write!(f, "{e}"),
            ServeError::Cli(s) => f.write_str(s),
            ServeError::Busy(s) => f.write_str(s),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            ServeError::Wire(e) => Some(e),
            ServeError::Journal(e) => Some(e),
            ServeError::Cli(_) | ServeError::Busy(_) => None,
        }
    }
}

impl From<wire::WireError> for ServeError {
    fn from(e: wire::WireError) -> ServeError {
        ServeError::Wire(e)
    }
}

impl From<gtpin_durable::JournalError> for ServeError {
    fn from(e: gtpin_durable::JournalError) -> ServeError {
        ServeError::Journal(e)
    }
}

impl From<String> for ServeError {
    fn from(s: String) -> ServeError {
        ServeError::Cli(s)
    }
}

impl From<&str> for ServeError {
    fn from(s: &str) -> ServeError {
        ServeError::Cli(s.to_string())
    }
}

fn io_err(context: impl Into<String>, source: std::io::Error) -> ServeError {
    ServeError::Io {
        context: context.into(),
        source,
    }
}

/// The default Unix socket path when `--socket` is not given.
pub fn default_socket() -> PathBuf {
    PathBuf::from("target/gtpin.sock")
}
