//! End-to-end daemon tests: bind a real Unix socket, serve concurrent
//! one-shot clients, then drain gracefully (the in-process version of
//! `kill -TERM`).

use std::io::Read;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gtpin_serve::wire::{Request, Response};
use gtpin_serve::{request_drain, request_once, serve, ServeConfig, ServeError};

/// The drain flag and wake socket are process-wide, so the daemons of
/// these tests must not overlap.
static DAEMON_LOCK: Mutex<()> = Mutex::new(());

fn first_app() -> String {
    workloads::all_specs()
        .into_iter()
        .next()
        .expect("workloads exist")
        .name
        .to_string()
}

/// Start a daemon on `name`'s socket and wait until its accept loop
/// answers: a connection that sends nothing is accepted and closed,
/// which proves the loop is past its start-up (so a drain cannot race
/// it).
fn start_daemon(name: &str) -> (PathBuf, JoinHandle<Result<(), ServeError>>) {
    let socket =
        std::env::temp_dir().join(format!("gtpin-serve-{name}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let config = ServeConfig {
        socket: socket.clone(),
        ..ServeConfig::default()
    };
    let daemon = std::thread::spawn(move || serve(config));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut probe) = UnixStream::connect(&socket) {
            probe
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close the probe");
            let mut byte = [0u8; 1];
            assert_eq!(probe.read(&mut byte).expect("probe reads EOF"), 0);
            return (socket, daemon);
        }
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn drain(socket: &Path, daemon: JoinHandle<Result<(), ServeError>>) {
    request_drain();
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    assert!(!socket.exists(), "drained daemon removes its socket");
}

/// User + system CPU time of this process, in clock ticks (fields 14
/// and 15 of `/proc/self/stat`, after the parenthesized command name).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm field") + 2..]
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

#[test]
fn daemon_serves_concurrent_clients_and_drains() {
    let _g = DAEMON_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (socket, daemon) = start_daemon("clients");

    // Concurrent clients: two identical sims (second is a cache hit
    // on the daemon side — same bytes either way) and one unknown app.
    let app = first_app();
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let socket = socket.clone();
            let app = app.clone();
            std::thread::spawn(move || request_once(&socket, &Request::Sim { app, launches: 1 }))
        })
        .collect();
    let sims: Vec<Vec<Response>> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread").expect("request succeeds"))
        .collect();
    assert_eq!(sims[0], sims[1], "identical requests get identical bytes");
    assert!(matches!(sims[0].last(), Some(Response::Done)));
    assert!(
        sims[0]
            .iter()
            .any(|r| matches!(r, Response::Chunk { text } if text.contains("stats digest"))),
        "sim report streamed: {:?}",
        sims[0]
    );

    let err = request_once(
        &socket,
        &Request::Lint {
            app: "no-such-app".to_string(),
        },
    )
    .expect("request completes");
    match err.last() {
        Some(Response::Err { kind, .. }) => assert_eq!(kind, "cli"),
        other => panic!("expected typed error frame, got {other:?}"),
    }

    drain(&socket, daemon);
}

#[test]
fn idle_daemon_drains_within_a_second() {
    let _g = DAEMON_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (socket, daemon) = start_daemon("idle");
    std::thread::sleep(Duration::from_millis(50));
    let asked = Instant::now();
    drain(&socket, daemon);
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "drain took {:?}",
        asked.elapsed()
    );
}

#[cfg(target_os = "linux")]
#[test]
fn daemon_after_a_drained_one_serves_and_idles_without_spinning() {
    let _g = DAEMON_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (socket, daemon) = start_daemon("first");
    drain(&socket, daemon);

    // The first drain's wake byte must neither stop this daemon nor
    // keep its poll returning.
    let (socket, daemon) = start_daemon("second");
    let answer = request_once(
        &socket,
        &Request::Lint {
            app: "no-such-app".to_string(),
        },
    )
    .expect("second daemon answers");
    assert!(matches!(answer.last(), Some(Response::Err { kind, .. }) if kind == "cli"));

    let before = cpu_ticks();
    std::thread::sleep(Duration::from_millis(200));
    let used = cpu_ticks() - before;
    // Clock ticks are 10 ms on Linux (USER_HZ = 100).
    assert!(used < 5, "idle daemon used {used} ticks of CPU in 200 ms");
    drain(&socket, daemon);
}
