//! Deterministic parallel execution primitives.
//!
//! Everything in this workspace that fans out across threads goes
//! through this crate, and everything here preserves one contract:
//! **the result is bitwise identical to the serial execution at any
//! thread count**. That holds because
//!
//! - tasks are pure with respect to each other (no shared mutable
//!   state inside a fan-out; each task owns its RNG and scratch), and
//! - results are collected **by task index**, never by completion
//!   order, so every reduction downstream sees the serial order.
//!
//! Every primitive takes its thread count as an explicit argument;
//! nothing here reads the environment. `GTPIN_THREADS` reaches it only
//! through the one [`RunConfig`] a binary parses at start-up and
//! passes down. `threads <= 1` falls back to a plain serial loop with
//! no thread machinery at all. Workers are
//! `std::thread::scope` scoped threads — no pool, no queues, no
//! external dependencies — which keeps the fan-out cheap enough for
//! per-kernel-launch use.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub mod config;
pub mod supervisor;

pub use config::{available_threads, RunConfig};
pub use supervisor::{Admission, Outcome, Supervisor, SupervisorConfig, SupervisorReport};

/// Run `f(0..n)` across up to `threads` workers and return results in
/// index order.
///
/// Tasks are claimed through a shared counter (work stealing), so
/// uneven task costs balance; results are scattered back by index, so
/// the output is independent of claiming order. With `threads <= 1`
/// or `n <= 1` this is exactly `(0..n).map(f).collect()`.
pub fn parallel_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n <= 1 {
        if !gtpin_faults::enabled() {
            return (0..n).map(f).collect();
        }
        // Faults armed: the worker-panic seam is keyed per
        // `(task, attempt)`, never per worker, so the serial path
        // must offer the identical injection points and recovery
        // ladder as the fan-out below — otherwise whether the seam
        // even exists would depend on the worker count, and any
        // digest folding the injected accounting would move with
        // the thread count.
        return (0..n)
            .map(|i| {
                run_guarded(&f, i, 0).unwrap_or_else(|| {
                    gtpin_faults::note("recovered.worker_retry", 1);
                    run_guarded(&f, i, 1).unwrap_or_else(|| {
                        gtpin_faults::note("recovered.serial_fallback", 1);
                        gtpin_obs::warn!("par: task {i} panicked twice, running serial unguarded");
                        f(i)
                    })
                })
            })
            .collect();
    }
    let workers = threads.min(n);
    // Telemetry is observational only: timings and counts are
    // recorded, but nothing about claiming or collection changes, so
    // the determinism contract holds with GTPIN_OBS on or off.
    let obs = gtpin_obs::enabled();
    // With faults armed, workers run tasks under `catch_unwind` so an
    // injected (or genuine) panic loses one task, not the fan-out.
    // Failed tasks are retried once, then fall back to an unguarded
    // serial run with no injection — a pure task always completes,
    // and because recovery happens by task index the output stays
    // serial-identical at any panic rate. One branch when unarmed.
    let faults_on = gtpin_faults::enabled();
    let mut fanout = gtpin_obs::span("par.fanout");
    fanout.arg_u64("tasks", n as u64);
    fanout.arg_u64("workers", workers as u64);
    let start_ns = gtpin_obs::now_ns();
    let busy_ns_total = AtomicU64::new(0);
    let counter = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);

    let mut failed: Vec<usize> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let counter = &counter;
            let f = &f;
            let busy_ns_total = &busy_ns_total;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                let mut lost: Vec<usize> = Vec::new();
                let mut busy_ns = 0u64;
                let mut first_claim = true;
                loop {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let t0 = gtpin_obs::now_ns();
                    if obs && first_claim {
                        first_claim = false;
                        gtpin_obs::hist_ns("par.queue_wait_ns", t0.saturating_sub(start_ns));
                    }
                    if faults_on {
                        match run_guarded(f, i, 0) {
                            Some(r) => local.push((i, r)),
                            None => lost.push(i),
                        }
                    } else {
                        local.push((i, f(i)));
                    }
                    if obs {
                        let dt = gtpin_obs::now_ns().saturating_sub(t0);
                        busy_ns += dt;
                        gtpin_obs::hist_ns("par.task_ns", dt);
                    }
                }
                if obs {
                    busy_ns_total.fetch_add(busy_ns, Ordering::Relaxed);
                    gtpin_obs::counter_add("par.tasks", local.len() as u64);
                    // Per-worker provenance: which pool worker did how
                    // much of this fan-out (wall-clock context; the
                    // deterministic outputs never depend on it).
                    gtpin_obs::global().instant(
                        "par.worker",
                        vec![
                            ("worker", gtpin_obs::ArgVal::U64(w as u64)),
                            ("tasks", gtpin_obs::ArgVal::U64(local.len() as u64)),
                            ("busy_ns", gtpin_obs::ArgVal::U64(busy_ns)),
                        ],
                    );
                }
                (local, lost)
            }));
        }
        for handle in handles {
            let (local, lost) = handle.join().expect("parallel worker panicked");
            for (i, r) in local {
                out[i] = Some(r);
            }
            failed.extend(lost);
        }
    });

    if !failed.is_empty() {
        // Degradation ladder, in task-index order so accounting and
        // results replay identically: retry once (still guarded, a
        // fresh injection decision), then unguarded serial with no
        // injection.
        failed.sort_unstable();
        for i in failed {
            gtpin_faults::note("recovered.worker_retry", 1);
            match run_guarded(&f, i, 1) {
                Some(r) => out[i] = Some(r),
                None => {
                    gtpin_faults::note("recovered.serial_fallback", 1);
                    gtpin_obs::warn!("par: task {i} panicked twice, running serial unguarded");
                    out[i] = Some(f(i));
                }
            }
        }
    }

    if obs {
        gtpin_obs::counter_add("par.fanouts", 1);
        let elapsed = gtpin_obs::now_ns().saturating_sub(start_ns);
        if elapsed > 0 {
            // Pool occupancy: busy worker-time over available
            // worker-time for this fan-out (1.0 = perfectly packed).
            let occupancy =
                busy_ns_total.load(Ordering::Relaxed) as f64 / (elapsed as f64 * workers as f64);
            gtpin_obs::gauge_set("par.occupancy", occupancy);
            gtpin_obs::hist_ns("par.occupancy_pct", (occupancy * 100.0) as u64);
        }
    }

    out.into_iter()
        .map(|r| r.expect("every index produced exactly once"))
        .collect()
}

/// Run task `i` under `catch_unwind`, with the `par.worker_panic`
/// fault able to fire per `(task, attempt)`. `None` means the task
/// panicked (injected or genuine) and the caller should walk the
/// recovery ladder.
fn run_guarded<R, F>(f: &F, i: usize, attempt: u64) -> Option<R>
where
    F: Fn(usize) -> R + Sync,
{
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if gtpin_faults::should_inject(
            gtpin_faults::site::WORKER_PANIC,
            ((i as u64) << 8) | attempt,
        ) {
            std::panic::panic_any(gtpin_faults::INJECTED_PANIC_MARKER);
        }
        f(i)
    }))
    .ok()
}

/// Map a slice in parallel, preserving order: `parallel_map(items,
/// t, f)[i] == f(i, &items[i])` for every `i` and every `t`.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_indexed(items.len(), threads, |i| f(i, &items[i]))
}

/// The faults registry is process-global and one test in this crate
/// arms it at rate 1.0; any sibling test running `parallel_*`
/// concurrently (including the supervisor's) would both hit injected
/// panics and pollute the recovery accounting. Every test in this
/// crate takes this lock.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::test_guard as guard;

    #[test]
    fn parallel_map_matches_serial_at_every_thread_count() {
        let _guard = guard();
        let items: Vec<u64> = (0..97).collect();
        let serial = parallel_map(&items, 1, |i, &x| x * x + i as u64);
        for threads in 2..=8 {
            let par = parallel_map(&items, threads, |i, &x| x * x + i as u64);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_work_still_collects_in_order() {
        let _guard = guard();
        // Make early tasks slow so late tasks finish first.
        let out = parallel_indexed(16, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let _guard = guard();
        let empty: Vec<usize> = parallel_indexed(0, 8, |i| i);
        assert!(empty.is_empty());
        assert_eq!(parallel_indexed(1, 8, |i| i + 7), vec![7]);
    }

    #[test]
    fn injected_worker_panics_recover_to_serial_results() {
        let _guard = guard();
        // Even at rate 1.0 (every guarded attempt panics) the ladder
        // bottoms out in the unguarded serial fallback, so pure tasks
        // always complete with serial-identical results. The faults
        // registry is process-global; this is the only test in this
        // crate that installs a plan.
        gtpin_faults::install(gtpin_faults::FaultPlan::single(
            gtpin_faults::site::WORKER_PANIC,
            1.0,
            42,
        ));
        let serial: Vec<u64> = (0..40u64).map(|i| i * i + 1).collect();
        for threads in 2..=6 {
            let par = parallel_indexed(40, threads, |i| (i as u64) * (i as u64) + 1);
            assert_eq!(par, serial, "threads = {threads}");
        }
        let acc: std::collections::BTreeMap<String, u64> =
            gtpin_faults::take_accounting().into_iter().collect();
        assert_eq!(acc["recovered.worker_retry"], 40 * 5);
        assert_eq!(acc["recovered.serial_fallback"], 40 * 5);
        gtpin_faults::disable();
    }
}
