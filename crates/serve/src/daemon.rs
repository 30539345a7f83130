//! The Unix-socket daemon loop and the one-shot client.
//!
//! `serve` binds the socket and blocks in `poll(2)` on two fds: the
//! listener and a process-wide wake socket. A readable listener means
//! a connection is pending; it is accepted and handed to a thread that
//! reads one framed [`Request`], runs it through the shared
//! [`SessionEngine`], and writes the framed responses back in one
//! write. SIGTERM/SIGINT (and [`request_drain`]) set a drain flag and
//! write one byte to the wake socket, so a daemon idle in `poll`
//! wakes at once: the accept loop stops, in-flight sessions finish
//! and deliver, and the socket is removed. A SIGKILL skips all of
//! that — which is exactly what the session journal plus `--resume`
//! is for.

use std::io::{BufReader, Read as _, Write as _};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::session::{ServeConfig, SessionEngine};
use crate::wire::{self, Request, Response};
use crate::{io_err, ServeError};

/// Per-connection read timeout: a client that connects and then
/// never sends a frame cannot pin a worker thread past the drain.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Drain requested (SIGTERM/SIGINT or [`request_drain`]). Reset at
/// every `serve` entry so one daemon's drain does not leak into the
/// next.
static DRAIN: AtomicBool = AtomicBool::new(false);

/// The wake socket pair: a drain writes one byte to `.1`, and the
/// accept loop polls `.0`. Both ends are nonblocking and live for
/// the whole process, like [`DRAIN`].
static WAKE: OnceLock<(UnixStream, UnixStream)> = OnceLock::new();

/// Raw fd of the wake pair's write end, for the signal handler
/// (`-1` until the first `serve`).
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `POLLIN` from `<poll.h>`.
const POLLIN: i16 = 1;

/// `nfds_t` from `<poll.h>`.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

// Raw libc keeps the crate dependency-free.
type SigHandler = extern "C" fn(i32);
extern "C" {
    fn signal(signum: i32, handler: SigHandler) -> usize;
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// Ask a running in-process daemon to drain (the test equivalent of
/// `kill -TERM`): set the drain flag, then wake the accept loop. Only
/// an atomic store and `write(2)` on a nonblocking fd, both
/// async-signal-safe, so the signal handler calls this too. A full
/// wake buffer drops the byte, which is fine: the fd is already
/// readable.
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
    let fd = WAKE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        // SAFETY: `fd` is the write end of `WAKE`, which is never
        // closed, and the buffer is one valid byte.
        unsafe {
            write(fd, [1u8].as_ptr(), 1);
        }
    }
}

extern "C" fn on_signal(_signum: i32) {
    request_drain();
}

fn install_signal_handlers() {
    // SIGTERM = 15, SIGINT = 2.
    // SAFETY: `on_signal` only touches atomics and calls `write(2)`.
    unsafe {
        signal(15, on_signal);
        signal(2, on_signal);
    }
}

/// The process-wide wake pair, created on first use.
fn wake_pair() -> Result<&'static (UnixStream, UnixStream), ServeError> {
    if let Some(pair) = WAKE.get() {
        return Ok(pair);
    }
    let (rx, tx) = UnixStream::pair().map_err(|e| io_err("creating the wake socket", e))?;
    for end in [&rx, &tx] {
        end.set_nonblocking(true)
            .map_err(|e| io_err("setting the wake socket nonblocking", e))?;
    }
    // A racing `serve` may have won; its pair is then the one used.
    let pair = WAKE.get_or_init(|| (rx, tx));
    WAKE_FD.store(pair.1.as_raw_fd(), Ordering::SeqCst);
    Ok(pair)
}

/// Read every pending wake byte, so a drain that ended an earlier
/// daemon neither stops this one nor leaves its fd readable forever.
fn empty_wake(mut rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!(rx.read(&mut buf), Ok(n) if n > 0) {}
}

/// Block until the listener or the wake fd is readable. Returns
/// whether the listener is.
fn wait_readable(listener: &UnixListener, wake: &UnixStream) -> std::io::Result<bool> {
    let mut fds = [
        PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        },
        PollFd {
            fd: wake.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        },
    ];
    // SAFETY: `fds` is a live array of two `pollfd`s for its whole
    // call, and both fds stay open (borrowed for this call).
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, -1) };
    if ready < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(fds[0].revents != 0)
}

/// Probe an existing socket file: connect to tell a live daemon from
/// a stale corpse. `Err(Busy)` if something answers; `Ok(())` after
/// removing a dead socket (a SIGKILL'd predecessor's leftover) or
/// when no socket exists. The probe connection sends no frame, so a
/// live daemon sees a clean EOF and carries on.
fn reclaim_socket(socket: &Path) -> Result<(), ServeError> {
    if !socket.exists() {
        return Ok(());
    }
    match UnixStream::connect(socket) {
        Ok(_probe) => Err(ServeError::Busy(format!(
            "a live daemon already serves {}; stop it first or use another --socket",
            socket.display()
        ))),
        Err(_) => {
            eprintln!(
                "serve: removing stale socket {} (liveness probe got no answer)",
                socket.display()
            );
            let _ = std::fs::remove_file(socket);
            Ok(())
        }
    }
}

/// Run the daemon until drained. Lifecycle messages go to stderr;
/// stdout stays clean.
pub fn serve(config: ServeConfig) -> Result<(), ServeError> {
    let socket = config.socket.clone();
    // Refuse to fight a live daemon *before* paying for resume; a
    // dead predecessor's socket is reclaimed here.
    reclaim_socket(&socket)?;
    let (engine, resume) = SessionEngine::new(config)?;
    let engine = Arc::new(engine);
    if resume.replayed + resume.recomputed + resume.reaped > 0
        || resume.torn_records + resume.orphan_tmps > 0
    {
        eprintln!(
            "serve: resume replayed {} session(s), recomputed {} interrupted, \
             reaped {} expired lease(s), truncated {} torn record(s), swept {} orphan tmp(s)",
            resume.replayed,
            resume.recomputed,
            resume.reaped,
            resume.torn_records,
            resume.orphan_tmps
        );
    }

    let listener = UnixListener::bind(&socket)
        .map_err(|e| io_err(format!("binding {}", socket.display()), e))?;
    // Nonblocking: `poll` can report a connection that is gone again
    // by the time `accept` runs.
    listener
        .set_nonblocking(true)
        .map_err(|e| io_err("setting the listener nonblocking", e))?;
    let (wake_rx, _) = wake_pair()?;
    install_signal_handlers();
    // Reset the flag before emptying the wake fd: a drain landing in
    // between leaves the flag set, and the loop checks it first.
    DRAIN.store(false, Ordering::SeqCst);
    empty_wake(wake_rx);
    eprintln!("serve: listening on {}", socket.display());

    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let fail = |e: std::io::Error, what: &str| -> Result<(), ServeError> {
        let _ = std::fs::remove_file(&socket);
        Err(io_err(what, e))
    };
    while !DRAIN.load(Ordering::SeqCst) {
        match wait_readable(&listener, wake_rx) {
            Ok(true) => {}
            // The wake fd alone: a drain (the loop condition sees it;
            // the byte stays, so every daemon in this process wakes)
            // or a stray byte, which is consumed.
            Ok(false) => {
                if !DRAIN.load(Ordering::SeqCst) {
                    empty_wake(wake_rx);
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return fail(e, "waiting for a connection"),
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let engine = engine.clone();
                workers.push(std::thread::spawn(move || {
                    handle_connection(&engine, stream);
                }));
                workers.retain(|h| !h.is_finished());
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return fail(e, "accepting a connection"),
        }
    }

    // Graceful drain: stop accepting, let in-flight sessions finish
    // and deliver, then remove the socket.
    eprintln!("serve: draining {} in-flight connection(s)", workers.len());
    for handle in workers {
        let _ = handle.join();
    }
    let _ = std::fs::remove_file(&socket);
    eprintln!("serve: drained");
    Ok(())
}

/// One connection: read one request, serve it, write the response.
/// Panics are contained here as a last resort — the engine already
/// isolates session panics, so anything reaching this guard is a
/// wire-layer bug, and it still must not take the daemon down.
fn handle_connection(engine: &SessionEngine, mut stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let outcome = catch_unwind(AssertUnwindSafe(|| serve_connection(engine, &mut stream)));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            gtpin_obs::counter_add("serve.connection_error", 1);
            // Best effort: tell the client what went wrong before
            // hanging up on it.
            let _ = wire::write_message(
                &mut stream,
                &Response::Err {
                    kind: "wire".to_string(),
                    message: e.to_string(),
                },
            );
        }
        Err(_) => {
            gtpin_obs::counter_add("serve.connection_panic", 1);
        }
    }
    let _ = stream.flush();
}

fn serve_connection(
    engine: &SessionEngine,
    stream: &mut UnixStream,
) -> Result<(), wire::WireError> {
    let Some(request) = wire::read_message::<_, Request>(stream)? else {
        // Clean EOF before any frame: the peer connected and left.
        return Ok(());
    };
    let key = request.session_key();
    let result = engine.handle(&request);
    match engine.deliver(&key, &result, stream) {
        Ok(true) => {}
        Ok(false) => {
            // serve.conn_drop fired: this delivery is abandoned, but
            // the result is journaled and cached — the daemon and its
            // other sessions carry on.
        }
        Err(e) => return Err(e),
    }
    Ok(())
}

/// One-shot client: connect, submit `request`, collect the streamed
/// responses until the terminal frame. The CLI's `gtpin request`
/// subcommand is a thin wrapper over this.
pub fn request_once(socket: &Path, request: &Request) -> Result<Vec<Response>, ServeError> {
    let mut stream = UnixStream::connect(socket)
        .map_err(|e| io_err(format!("connecting to {}", socket.display()), e))?;
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    wire::write_message(&mut stream, request)?;
    let _ = stream.shutdown(std::net::Shutdown::Write);

    let mut reader = BufReader::new(stream);
    let mut responses = Vec::new();
    while let Some(response) = wire::read_message::<_, Response>(&mut reader)? {
        let terminal = matches!(response, Response::Done | Response::Err { .. });
        responses.push(response);
        if terminal {
            break;
        }
    }
    Ok(responses)
}

/// Deterministic jittered-backoff retry policy for the one-shot
/// client. Retryable outcomes are transport failures (connection
/// refused or dropped mid-stream — `ServeError::Io`/`Wire`) and
/// terminal `error[busy]` sheds (capacity or breaker — transient by
/// construction); every other outcome returns immediately. The
/// backoff schedule is a pure function of `(seed, session key,
/// attempt)`, so a retried run replays identically — no wall-clock
/// randomness ever reaches an output.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempt cap (first try included). 1 disables retry.
    pub max_attempts: u32,
    /// Base backoff in milliseconds; attempt `n` waits
    /// `base << min(n, 6)` halved plus deterministic jitter below
    /// `base`.
    pub base_ms: u64,
    /// Jitter seed, mixed with the session key and attempt index.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: gtpin_par::config::DEFAULT_RETRY_MAX,
            base_ms: gtpin_par::config::DEFAULT_RETRY_BASE_MS,
            seed: 0x6774_7069_6e21,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry attempt `attempt` (1-based): capped
    /// exponential backoff with deterministic jitter — pure in
    /// `(seed, key, attempt)`.
    pub fn backoff_ms(&self, key: &str, attempt: u32) -> u64 {
        let ceiling = self.base_ms << attempt.min(6);
        let jitter_src = gtpin_faults::mix64(
            self.seed ^ gtpin_faults::hash_str(key) ^ u64::from(attempt).wrapping_mul(0x9E37),
        );
        let jitter = if self.base_ms == 0 {
            0
        } else {
            jitter_src % self.base_ms
        };
        ceiling / 2 + jitter
    }
}

/// Whether a terminal response is a retryable shed: `error[busy]`
/// means capacity or an open breaker — both transient.
fn is_busy_shed(responses: &[Response]) -> bool {
    matches!(
        responses.last(),
        Some(Response::Err { kind, .. }) if kind == "busy"
    )
}

/// [`request_once`] under a [`RetryPolicy`]: connection failures and
/// `error[busy]` sheds are retried with deterministic jittered
/// backoff, up to the attempt cap; the last attempt's outcome is
/// returned as-is. Each retry bumps the `serve.retry_attempts`
/// counter.
pub fn request_with_retry(
    socket: &Path,
    request: &Request,
    policy: &RetryPolicy,
) -> Result<Vec<Response>, ServeError> {
    let key = request.session_key();
    let mut attempt = 1u32;
    loop {
        let outcome = request_once(socket, request);
        let retryable = match &outcome {
            Ok(responses) => is_busy_shed(responses),
            Err(ServeError::Io { .. } | ServeError::Wire(_)) => true,
            Err(_) => false,
        };
        if !retryable || attempt >= policy.max_attempts.max(1) {
            return outcome;
        }
        gtpin_obs::counter_add("serve.retry_attempts", 1);
        std::thread::sleep(Duration::from_millis(policy.backoff_ms(&key, attempt)));
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_socket_is_reclaimed_and_live_socket_refused() {
        let dir = std::env::temp_dir().join(format!("gtpin-serve-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");

        // A SIGKILL'd daemon's leftover: the file exists but nothing
        // listens (dropping the listener leaves the socket file).
        let stale = dir.join("stale.sock");
        drop(UnixListener::bind(&stale).expect("binds"));
        assert!(stale.exists(), "dropped listener leaves its socket file");
        reclaim_socket(&stale).expect("dead socket is reclaimed");
        assert!(!stale.exists(), "stale socket removed");

        // A live daemon answers the probe: refuse, never remove.
        let live = dir.join("live.sock");
        let _listener = UnixListener::bind(&live).expect("binds");
        match reclaim_socket(&live) {
            Err(e) => {
                assert_eq!(e.kind(), "busy");
                assert!(e.to_string().contains("live daemon"));
            }
            Ok(()) => panic!("a live socket must refuse with error[busy]"),
        }
        assert!(live.exists(), "a live socket is never removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 1..=8 {
            let a = p.backoff_ms("explore/bitonic/5", attempt);
            assert_eq!(
                a,
                p.backoff_ms("explore/bitonic/5", attempt),
                "pure in (seed, key, attempt)"
            );
            assert!(a <= (p.base_ms << 6) / 2 + p.base_ms, "capped shift");
        }
        // The schedule grows: late attempts back off far longer than
        // the first (jitter is bounded below base_ms).
        assert!(p.backoff_ms("k", 1) < p.backoff_ms("k", 6));
        // Different keys de-synchronize their jitter somewhere in the
        // schedule (thundering-herd protection).
        assert!((1..=6).any(|n| p.backoff_ms("key-a", n) != p.backoff_ms("key-b", n)));
    }

    #[test]
    fn retry_gives_up_after_capped_attempts_on_dead_socket() {
        let missing = std::env::temp_dir().join("gtpin-no-such-daemon.sock");
        let _ = std::fs::remove_file(&missing);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_ms: 0,
            seed: 1,
        };
        let req = Request::Lint {
            app: "anything".to_string(),
        };
        match request_with_retry(&missing, &req, &policy) {
            Err(e) => assert_eq!(e.kind(), "io"),
            Ok(r) => panic!("expected io failure, got {r:?}"),
        }
    }
}
