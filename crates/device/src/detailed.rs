//! The detailed cycle-level simulator — the *slow* path whose cost
//! motivates the whole paper.
//!
//! Where the analytic model converts counters to seconds in O(1), this
//! simulator walks the machine cycle by cycle: threads are assigned
//! round-robin to EUs, each EU issues at most one instruction per
//! cycle from its resident SMT threads (in-order per thread, with a
//! per-register scoreboard), ALU results have multi-cycle latency,
//! extended math is slower still, and send results arrive after a
//! cache-hit or DRAM-miss delay. Architectural semantics are shared
//! with the functional engine (the internal `machine` module), so the two can
//! never diverge on results — only on time.
//!
//! # Epoch-barrier sharding
//!
//! The machine model is **epoch-based**: every EU advances through a
//! bounded window of virtual cycles (an *epoch*) against a private
//! snapshot of the shared LLC taken at the epoch boundary, logging its
//! global-memory accesses as it goes. At the barrier between epochs
//! the logs are replayed into the master cache **in EU index order**.
//! Each EU's behaviour is therefore a pure function of (its own
//! state, the master snapshot), and the master's evolution is a pure
//! function of the ordered logs — neither depends on how EUs are
//! partitioned across host workers, which is why the sharded run is
//! bit-identical to the serial run at any worker count (see DESIGN.md
//! decision 11). The worker count is passed in
//! ([`DetailedSimulator::with_workers`]; `gtpin sim` passes
//! `GTPIN_SIM_THREADS`); a shard worker that panics —
//! genuinely or via the `sim.shard` fault site — abandons the
//! parallel attempt and the launch re-simulates serially from the
//! untouched master state, so degradation never changes results.
//!
//! Simulating a full program here is orders of magnitude slower than
//! native functional execution; simulating only the intervals subset
//! selection picks is the paper's remedy.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

use gen_isa::{DecodedKernel, Opcode};
use gtpin_obs::ArgVal;
use ocl_runtime::api::ArgValue;

use crate::cache::{Cache, CacheConfig};
use crate::executor::{ExecError, DISPATCH_WIDTH};
use crate::machine::{step, StepOutcome, ThreadState};
use crate::memory::TraceBuffer;
use crate::stats::ExecutionStats;
use crate::topology::GpuTopology;

/// Latency parameters of the detailed pipeline model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetailedConfig {
    /// Result latency of ordinary ALU instructions.
    pub alu_latency: u64,
    /// Result latency of extended math.
    pub math_latency: u64,
    /// Send result latency on a cache hit.
    pub send_hit_latency: u64,
    /// Send result latency on a miss (DRAM round trip).
    pub send_miss_latency: u64,
    /// Per-thread dynamic instruction budget (runaway guard).
    pub thread_budget: u64,
    /// Virtual cycles per reconciliation epoch. Smaller epochs track
    /// cross-EU cache sharing more tightly (and cost more barriers);
    /// the value changes the *model*, not just the schedule, so it is
    /// part of the config — results at a given `epoch_cycles` are
    /// identical at every worker count.
    pub epoch_cycles: u64,
}

impl Default for DetailedConfig {
    fn default() -> DetailedConfig {
        DetailedConfig {
            alu_latency: 4,
            math_latency: 16,
            send_hit_latency: 50,
            send_miss_latency: 300,
            thread_budget: 8_000_000,
            epoch_cycles: 8192,
        }
    }
}

/// What one detailed simulation produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailedResult {
    /// Simulated GPU cycles for the launch (max across EUs, with a
    /// DRAM bandwidth floor).
    pub cycles: u64,
    /// Cycles converted to seconds at the simulated frequency.
    pub seconds: f64,
    /// Total issue cycles across EUs (each EU's busy cycles summed).
    pub busy_cycles: u64,
    /// Total cycles summed across the EUs that had work (the
    /// denominator of [`occupancy`](DetailedResult::occupancy)).
    pub eu_cycles: u64,
    /// Architectural statistics (identical to functional execution).
    pub stats: ExecutionStats,
}

impl DetailedResult {
    /// Fraction of EU-cycles that issued an instruction — the
    /// machine-utilization figure a designer reads off a detailed
    /// simulation.
    pub fn occupancy(&self) -> f64 {
        if self.eu_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.eu_cycles as f64
        }
    }
}

struct ThreadCtx {
    st: ThreadState,
    ip: i64,
    executed: u64,
    reg_ready: Vec<u64>,
    flag_ready: [u64; 2],
    done: bool,
}

impl ThreadCtx {
    fn new(thread_id: u64, args: &[ArgValue]) -> ThreadCtx {
        ThreadCtx {
            st: ThreadState::new(thread_id, args),
            ip: 0,
            executed: 0,
            reg_ready: vec![0; gen_isa::NUM_GRF as usize],
            flag_ready: [0; 2],
            done: false,
        }
    }

    /// Earliest cycle at which the next instruction's dependencies
    /// resolve, or `None` when the thread is done.
    fn ready_at(&self, kernel: &DecodedKernel) -> Option<u64> {
        if self.done {
            return None;
        }
        let instr = kernel.instrs.get(self.ip as usize)?;
        let mut at = 0u64;
        for r in instr.reads() {
            at = at.max(self.reg_ready[r.0 as usize]);
        }
        if let Some(p) = instr.pred {
            at = at.max(self.flag_ready[p.flag.index()]);
        }
        Some(at)
    }
}

/// One EU's persistent simulation state: resident SMT threads, the
/// wait queue behind them, its private virtual clock, trace-buffer
/// shard, statistics, and the access log drained at each barrier.
struct EuSim {
    active: Vec<ThreadCtx>,
    waiting: Vec<u64>,
    next_admit: usize,
    cycle: u64,
    busy: u64,
    rr: usize,
    trace: TraceBuffer,
    stats: ExecutionStats,
    log: Vec<(u64, u32)>,
    error: Option<ExecError>,
}

impl EuSim {
    fn new(
        eu: usize,
        thread_ids: Vec<u64>,
        args: &[ArgValue],
        slots: usize,
        trace_capacity: usize,
    ) -> EuSim {
        let active: Vec<ThreadCtx> = thread_ids
            .iter()
            .take(slots)
            .map(|&t| ThreadCtx::new(t, args))
            .collect();
        let next_admit = active.len();
        EuSim {
            active,
            waiting: thread_ids,
            next_admit,
            cycle: 0,
            busy: 0,
            rr: 0,
            trace: TraceBuffer::new()
                .with_record_capacity(trace_capacity)
                .with_fault_salt(eu as u64),
            stats: ExecutionStats::default(),
            log: Vec::new(),
            error: None,
        }
    }

    /// This EU has nothing left to do (all threads retired, or it
    /// faulted).
    fn done(&self) -> bool {
        self.active.is_empty() || self.error.is_some()
    }

    /// Advance this EU until its clock reaches `epoch_end` (a stall
    /// fast-forward may overshoot — the EU then idles through later
    /// epochs until the global clock catches up), running every
    /// access against `cache` (the private epoch snapshot) and
    /// appending it to `self.log` for barrier replay.
    fn advance_epoch(
        &mut self,
        kernel: &DecodedKernel,
        args: &[ArgValue],
        config: &DetailedConfig,
        cache: &mut Cache,
        epoch_end: u64,
    ) {
        while !self.done() && self.cycle < epoch_end {
            // Find a ready thread, round-robin from rr.
            let n = self.active.len();
            let mut issued = false;
            let mut next_ready = u64::MAX;
            for k in 0..n {
                let i = (self.rr + k) % n;
                let ready_at = self.active[i]
                    .ready_at(kernel)
                    .expect("active threads not done");
                if ready_at <= self.cycle {
                    if let Err(e) = issue(
                        kernel,
                        &mut self.active[i],
                        self.cycle,
                        config,
                        cache,
                        &mut self.trace,
                        &mut self.stats,
                        &mut self.log,
                    ) {
                        self.error = Some(e);
                        return;
                    }
                    self.rr = (i + 1) % n;
                    issued = true;
                    self.busy += 1;
                    break;
                }
                next_ready = next_ready.min(ready_at);
            }

            if issued {
                self.cycle += 1;
            } else {
                // Nothing ready: the EU stalls. A cycle-level
                // simulator pays for every cycle — this is precisely
                // why detailed simulation is so much slower than
                // native execution, and what subset selection
                // amortizes. (`next_ready` guards against pathological
                // multi-thousand-cycle gaps.)
                self.cycle = (self.cycle + 1).max(next_ready.min(self.cycle + 64));
            }

            // Retire finished threads, admit waiting ones.
            let mut i = 0;
            while i < self.active.len() {
                if self.active[i].done {
                    self.active.swap_remove(i);
                    if self.next_admit < self.waiting.len() {
                        self.active
                            .push(ThreadCtx::new(self.waiting[self.next_admit], args));
                        self.next_admit += 1;
                    }
                } else {
                    i += 1;
                }
            }
            if !self.active.is_empty() {
                self.rr %= self.active.len();
            }
        }
    }
}

/// Issue one instruction from thread `t` at `cycle`: architectural
/// step against the epoch-private cache (logging the access for
/// barrier replay), then scoreboard updates from the modelled result
/// latency.
#[allow(clippy::too_many_arguments)]
fn issue(
    kernel: &DecodedKernel,
    t: &mut ThreadCtx,
    cycle: u64,
    config: &DetailedConfig,
    cache: &mut Cache,
    trace: &mut TraceBuffer,
    stats: &mut ExecutionStats,
    log: &mut Vec<(u64, u32)>,
) -> Result<(), ExecError> {
    if t.executed >= config.thread_budget {
        return Err(ExecError::BudgetExceeded {
            budget: config.thread_budget,
        });
    }
    if t.ip < 0 || t.ip as usize >= kernel.instrs.len() {
        return Err(ExecError::RanOffEnd { ip: t.ip });
    }
    let instr = &kernel.instrs[t.ip as usize];
    t.executed += 1;
    let issue = crate::executor::instruction_cost(instr);
    t.st.issue_cycles += issue;
    stats.count_instruction(instr.opcode.category(), instr.exec_size, issue);

    let misses_before = stats.cache_misses;
    let outcome = step(&mut t.st, instr, cache, trace, stats, Some(log));
    let missed = stats.cache_misses > misses_before;

    let latency = match instr.opcode {
        Opcode::Inv | Opcode::Sqrt | Opcode::Exp | Opcode::Log | Opcode::Sin | Opcode::Cos => {
            config.math_latency
        }
        Opcode::Send | Opcode::Sendc => {
            if missed {
                config.send_miss_latency
            } else {
                config.send_hit_latency
            }
        }
        _ => config.alu_latency,
    };
    if let Some(dst) = instr.dst {
        t.reg_ready[dst.0 as usize] = cycle + latency;
    }
    if let Some(flag) = instr.flag {
        t.flag_ready[flag.index()] = cycle + 2;
    }

    match outcome {
        StepOutcome::Done => t.done = true,
        StepOutcome::Fault => return Err(ExecError::StrayReturn { ip: t.ip as usize }),
        StepOutcome::Branch(off) => t.ip += 1 + off as i64,
        StepOutcome::Next => t.ip += 1,
    }
    Ok(())
}

/// How one pass of the epoch loop ended.
enum EpochOutcome {
    /// Every EU retired all its threads after this many epochs.
    Completed { epochs: u64 },
    /// The lowest-indexed EU that faulted in the failing epoch.
    ExecFailed(ExecError),
    /// A shard worker died (injected or genuine panic); the caller
    /// falls back to the serial path. Never produced by the serial
    /// path itself.
    ShardFailed,
}

/// Per-EU, per-epoch provenance instant: the virtual-cycle facts
/// `gtpin obs-timeline` aggregates. All values are schedule-invariant
/// (epoch deltas of the EU's own counters), so the aggregate report
/// is identical at every worker count.
fn eu_epoch_instant(launch: u64, eu: u64, epoch: u64, busy: u64, cycles: u64) {
    gtpin_obs::global().instant(
        "sim.eu_epoch",
        vec![
            ("launch", ArgVal::U64(launch)),
            ("eu", ArgVal::U64(eu)),
            ("epoch", ArgVal::U64(epoch)),
            ("busy", ArgVal::U64(busy)),
            ("cycles", ArgVal::U64(cycles)),
        ],
    );
}

/// The sharded-schedule variant of [`eu_epoch_instant`], tagging the
/// host worker that advanced the shard (wall-clock context only).
fn eu_epoch_instant_on_worker(
    launch: u64,
    eu: u64,
    epoch: u64,
    busy: u64,
    cycles: u64,
    worker: u64,
) {
    gtpin_obs::global().instant(
        "sim.eu_epoch",
        vec![
            ("launch", ArgVal::U64(launch)),
            ("eu", ArgVal::U64(eu)),
            ("epoch", ArgVal::U64(epoch)),
            ("busy", ArgVal::U64(busy)),
            ("cycles", ArgVal::U64(cycles)),
            ("worker", ArgVal::U64(worker)),
        ],
    );
}

/// The cycle-level simulator. Owns its own cache so detailed runs
/// don't disturb the native device's warm state.
pub struct DetailedSimulator {
    topology: GpuTopology,
    config: DetailedConfig,
    frequency_hz: f64,
    cache: Cache,
    trace: TraceBuffer,
    workers: usize,
    /// Launches simulated so far — provenance tag on per-EU telemetry
    /// so `gtpin obs-timeline` can separate launches in one journal.
    launches: u64,
}

impl DetailedSimulator {
    /// A simulator of `topology` at `frequency_hz` with one shard
    /// worker, the serial epoch loop; [`Self::with_workers`] widens
    /// it. Results never depend on the worker count.
    pub fn new(
        topology: GpuTopology,
        frequency_hz: f64,
        config: DetailedConfig,
    ) -> DetailedSimulator {
        DetailedSimulator {
            topology,
            config,
            frequency_hz,
            cache: Cache::new(CacheConfig::llc_slice(topology.llc_slice_kib)),
            trace: TraceBuffer::new(),
            workers: 1,
            launches: 0,
        }
    }

    /// Override the shard worker count (`1` forces the serial epoch
    /// loop). Results are bit-identical at every setting; only
    /// wall-clock changes.
    pub fn with_workers(mut self, workers: usize) -> DetailedSimulator {
        self.workers = workers.max(1);
        self
    }

    /// Start from a captured warm cache (a
    /// [`CheckpointLibrary`](crate::checkpoint::CheckpointLibrary)
    /// snapshot) instead of a cold machine — the PinPlay-style
    /// warm-up the CPU SimPoint toolchain uses before each sample.
    pub fn restore_cache(&mut self, cache: Cache) {
        self.cache = cache;
    }

    /// Simulate one kernel launch in detail.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on runaway loops or malformed control
    /// flow.
    pub fn simulate_launch(
        &mut self,
        kernel: &DecodedKernel,
        args: &[ArgValue],
        global_work_size: u64,
    ) -> Result<DetailedResult, ExecError> {
        let num_threads = global_work_size.div_ceil(DISPATCH_WIDTH).max(1);
        let num_eus = (self.topology.execution_units as u64).min(num_threads);
        let slots = self.topology.threads_per_eu as usize;
        let trace_capacity = self.trace.record_capacity();
        let workers = self.workers.max(1).min(num_eus as usize);
        self.launches += 1;
        let launch = self.launches;

        let mut span = gtpin_obs::span("sim.launch");
        if span.active() {
            span.arg_str("kernel", kernel.name.clone());
            span.arg_u64("launch", launch);
            span.arg_u64("hw_threads", num_threads);
            span.arg_u64("eus", num_eus);
            span.arg_u64("workers", workers as u64);
        }

        let build_shards = || -> Vec<EuSim> {
            (0..num_eus)
                .map(|eu| {
                    // Threads assigned round-robin to EUs.
                    let ids: Vec<u64> = (eu..num_threads).step_by(num_eus as usize).collect();
                    EuSim::new(eu as usize, ids, args, slots, trace_capacity)
                })
                .collect()
        };

        let mut eus = build_shards();
        let outcome = if workers <= 1 {
            self.run_epochs_serial(kernel, args, &mut eus, launch)
        } else {
            let (back, outcome) = self.run_epochs_parallel(kernel, args, eus, workers, launch);
            eus = back;
            if matches!(outcome, EpochOutcome::ShardFailed) {
                // Degradation contract: the parallel attempt never
                // touched the master cache or trace, so re-running the
                // whole launch serially reproduces the reference
                // result exactly.
                gtpin_faults::note("recovered.sim_serial_fallback", 1);
                gtpin_obs::warn!(
                    "sim: shard worker died; re-simulating launch serially from pristine state"
                );
                eus = build_shards();
                self.run_epochs_serial(kernel, args, &mut eus, launch)
            } else {
                outcome
            }
        };

        let epochs = match outcome {
            EpochOutcome::Completed { epochs } => epochs,
            EpochOutcome::ExecFailed(e) => return Err(e),
            EpochOutcome::ShardFailed => unreachable!("serial epochs cannot shard-fail"),
        };

        let mut stats = ExecutionStats {
            hw_threads: num_threads,
            ..Default::default()
        };
        let mut max_cycles = 0u64;
        let mut busy_cycles = 0u64;
        let mut eu_cycles = 0u64;
        let obs = span.active();
        for eu in eus {
            max_cycles = max_cycles.max(eu.cycle);
            busy_cycles += eu.busy;
            eu_cycles += eu.cycle;
            if obs {
                // Per-shard occupancy: how well each EU's issue slots
                // were packed, before the cross-EU aggregate below.
                gtpin_obs::hist_ns("sim.shard_occupancy_pct", eu.busy * 100 / eu.cycle.max(1));
            }
            stats.merge(&eu.stats);
            self.trace.merge_shard(eu.trace);
        }

        // DRAM bandwidth floor: total miss traffic cannot beat the
        // memory system.
        let dram_bytes_per_cycle = self.topology.dram_bytes_per_second / self.frequency_hz;
        let dram_floor = (stats.cache_misses as f64 * 64.0 / dram_bytes_per_cycle) as u64;
        let cycles = max_cycles.max(dram_floor);

        let result = DetailedResult {
            cycles,
            seconds: cycles as f64 / self.frequency_hz,
            busy_cycles,
            eu_cycles,
            stats,
        };
        if obs {
            span.arg_u64("epochs", epochs);
            span.arg_u64("cycles", cycles);
            span.arg_f64("occupancy", result.occupancy());
            gtpin_obs::counter_add("sim.launches", 1);
            gtpin_obs::counter_add("sim.epochs", epochs);
            gtpin_obs::gauge_set("sim.occupancy", result.occupancy());
        }
        Ok(result)
    }

    /// The reference schedule: one host thread advances every EU
    /// through each epoch in index order, then replays the access
    /// logs into the master cache — also in index order.
    fn run_epochs_serial(
        &mut self,
        kernel: &DecodedKernel,
        args: &[ArgValue],
        eus: &mut [EuSim],
        launch: u64,
    ) -> EpochOutcome {
        let obs = gtpin_obs::enabled();
        let epoch = self.config.epoch_cycles.max(1);
        let mut scratch = self.cache.clone();
        let mut round = 0u64;
        loop {
            let epoch_end = epoch * (round + 1);
            for (e, eu) in eus.iter_mut().enumerate() {
                if eu.done() {
                    continue;
                }
                scratch.copy_state_from(&self.cache);
                let (busy0, cycle0) = (eu.busy, eu.cycle);
                eu.advance_epoch(kernel, args, &self.config, &mut scratch, epoch_end);
                if obs {
                    eu_epoch_instant(launch, e as u64, round, eu.busy - busy0, eu.cycle - cycle0);
                }
            }
            if let Some(e) = eus.iter().find_map(|s| s.error.clone()) {
                return EpochOutcome::ExecFailed(e);
            }
            let mut all_done = true;
            for eu in eus.iter_mut() {
                for &(addr, bytes) in &eu.log {
                    self.cache.access(addr, bytes);
                }
                eu.log.clear();
                if !eu.done() {
                    all_done = false;
                }
            }
            round += 1;
            if all_done {
                return EpochOutcome::Completed { epochs: round };
            }
        }
    }

    /// The sharded schedule: `workers` host threads own EUs by index
    /// stride and advance them concurrently within each epoch; worker
    /// 0 performs the same in-order log replay the serial path does
    /// between two barrier waits. The master cache is only committed
    /// back on success, so a shard failure leaves the simulator state
    /// untouched for the serial fallback.
    fn run_epochs_parallel(
        &mut self,
        kernel: &DecodedKernel,
        args: &[ArgValue],
        eus: Vec<EuSim>,
        workers: usize,
        launch: u64,
    ) -> (Vec<EuSim>, EpochOutcome) {
        let epoch = self.config.epoch_cycles.max(1);
        let num_eus = eus.len();
        let cells: Vec<Mutex<EuSim>> = eus.into_iter().map(Mutex::new).collect();
        let master = RwLock::new(self.cache.clone());
        let barrier = Barrier::new(workers);
        let failed = AtomicBool::new(false);
        let all_done = AtomicBool::new(false);
        let epochs = AtomicU64::new(0);
        let first_error: Mutex<Option<ExecError>> = Mutex::new(None);
        let config = &self.config;

        std::thread::scope(|scope| {
            for w in 0..workers {
                let cells = &cells;
                let master = &master;
                let barrier = &barrier;
                let failed = &failed;
                let all_done = &all_done;
                let epochs = &epochs;
                let first_error = &first_error;
                scope.spawn(move || {
                    let obs = gtpin_obs::enabled();
                    let faults_on = gtpin_faults::enabled();
                    let mut scratch = master.read().expect("master lock").clone();
                    let mut round = 0u64;
                    loop {
                        let epoch_end = epoch * (round + 1);
                        for e in (w..num_eus).step_by(workers) {
                            let mut eu = cells[e].lock().expect("shard lock");
                            if eu.done() {
                                continue;
                            }
                            {
                                let m = master.read().expect("master lock");
                                scratch.copy_state_from(&m);
                            }
                            // The fault key mixes (EU, epoch) only, so
                            // injection decisions are independent of
                            // the worker count and host schedule.
                            let inject = faults_on
                                && gtpin_faults::should_inject(
                                    gtpin_faults::site::SIM_SHARD,
                                    ((e as u64) << 32) | (round & 0xFFFF_FFFF),
                                );
                            let (busy0, cycle0) = (eu.busy, eu.cycle);
                            let advanced =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    if inject {
                                        std::panic::panic_any(gtpin_faults::INJECTED_PANIC_MARKER);
                                    }
                                    eu.advance_epoch(kernel, args, config, &mut scratch, epoch_end);
                                }));
                            match advanced {
                                Ok(()) if obs => {
                                    // Same virtual-cycle provenance the
                                    // serial loop records — the extra
                                    // `worker` arg is wall-clock-only
                                    // context the timeline ignores.
                                    eu_epoch_instant_on_worker(
                                        launch,
                                        e as u64,
                                        round,
                                        eu.busy - busy0,
                                        eu.cycle - cycle0,
                                        w as u64,
                                    );
                                }
                                Ok(()) => {}
                                Err(_) => failed.store(true, Ordering::Relaxed),
                            }
                        }
                        let t0 = if obs { gtpin_obs::now_ns() } else { 0 };
                        barrier.wait();
                        if obs {
                            let wait_ns = gtpin_obs::now_ns().saturating_sub(t0);
                            gtpin_obs::hist_ns("sim.barrier_wait_ns", wait_ns);
                            // Wall-clock provenance: which worker waited
                            // how long at this epoch's barrier.
                            gtpin_obs::global().instant(
                                "sim.barrier",
                                vec![
                                    ("launch", ArgVal::U64(launch)),
                                    ("worker", ArgVal::U64(w as u64)),
                                    ("epoch", ArgVal::U64(round)),
                                    ("wait_ns", ArgVal::U64(wait_ns)),
                                ],
                            );
                        }
                        if w == 0 && !failed.load(Ordering::Relaxed) {
                            // Same reconciliation the serial loop
                            // runs, in the same EU order.
                            let mut err: Option<ExecError> = None;
                            for cell in cells.iter() {
                                let eu = cell.lock().expect("shard lock");
                                if let Some(e) = &eu.error {
                                    err = Some(e.clone());
                                    break;
                                }
                            }
                            if let Some(e) = err {
                                *first_error.lock().expect("error lock") = Some(e);
                            } else {
                                let mut m = master.write().expect("master lock");
                                let mut done = true;
                                for cell in cells.iter() {
                                    let mut eu = cell.lock().expect("shard lock");
                                    for &(addr, bytes) in &eu.log {
                                        m.access(addr, bytes);
                                    }
                                    eu.log.clear();
                                    if !eu.done() {
                                        done = false;
                                    }
                                }
                                if done {
                                    all_done.store(true, Ordering::Relaxed);
                                }
                            }
                            epochs.store(round + 1, Ordering::Relaxed);
                        }
                        barrier.wait();
                        round += 1;
                        if failed.load(Ordering::Relaxed)
                            || all_done.load(Ordering::Relaxed)
                            || first_error.lock().expect("error lock").is_some()
                        {
                            break;
                        }
                    }
                });
            }
        });

        let eus: Vec<EuSim> = cells
            .into_iter()
            .map(|c| c.into_inner().expect("shard lock"))
            .collect();
        if failed.load(Ordering::Relaxed) {
            return (eus, EpochOutcome::ShardFailed);
        }
        if let Some(e) = first_error.lock().expect("error lock").take() {
            return (eus, EpochOutcome::ExecFailed(e));
        }
        // Commit the reconciled master state only now that the
        // parallel attempt is known good.
        self.cache = master.into_inner().expect("master lock");
        (
            eus,
            EpochOutcome::Completed {
                epochs: epochs.load(Ordering::Relaxed),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ExecConfig, Executor};
    use crate::jit::compile_kernel;
    use crate::topology::GpuGeneration;
    use gen_isa::ExecSize;
    use ocl_runtime::ir::{AccessPattern, IrOp, KernelIr, TripCount};

    fn kernel(body: Vec<IrOp>, num_args: u8) -> DecodedKernel {
        let mut ir = KernelIr::new("d", num_args);
        ir.body = body;
        compile_kernel(&ir).unwrap().flatten()
    }

    fn sim() -> DetailedSimulator {
        DetailedSimulator::new(
            GpuGeneration::IvyBridgeHd4000.topology(),
            1.15e9,
            DetailedConfig::default(),
        )
    }

    #[test]
    fn architectural_results_match_functional_execution() {
        let k = kernel(
            vec![
                IrOp::LoopBegin {
                    trip: TripCount::Const(7),
                },
                IrOp::Compute {
                    ops: 6,
                    width: ExecSize::S16,
                },
                IrOp::Load {
                    arg: 0,
                    bytes: 64,
                    width: ExecSize::S16,
                    pattern: AccessPattern::Linear,
                },
                IrOp::LoopEnd,
            ],
            1,
        );
        let args = [ArgValue::Buffer(0)];
        let detailed = sim().simulate_launch(&k, &args, 128).unwrap();

        let mut cache = Cache::new(CacheConfig::default());
        let mut trace = TraceBuffer::new();
        let functional = Executor {
            cache: &mut cache,
            trace: &mut trace,
            config: ExecConfig::default(),
        }
        .execute_launch(&k, &args, 128)
        .unwrap();

        assert_eq!(detailed.stats.instructions, functional.instructions);
        assert_eq!(detailed.stats.per_category, functional.per_category);
        assert_eq!(detailed.stats.bytes_read, functional.bytes_read);
    }

    #[test]
    fn cycles_grow_with_work() {
        let small = kernel(
            vec![IrOp::Compute {
                ops: 10,
                width: ExecSize::S16,
            }],
            0,
        );
        let large = kernel(
            vec![IrOp::Compute {
                ops: 200,
                width: ExecSize::S16,
            }],
            0,
        );
        let cs = sim().simulate_launch(&small, &[], 256).unwrap().cycles;
        let cl = sim().simulate_launch(&large, &[], 256).unwrap().cycles;
        assert!(
            cl > 4 * cs,
            "20× more work should cost clearly more cycles: {cs} vs {cl}"
        );
    }

    #[test]
    fn memory_bound_kernels_cost_more_cycles_per_instruction() {
        let compute = kernel(
            vec![
                IrOp::LoopBegin {
                    trip: TripCount::Const(50),
                },
                IrOp::Compute {
                    ops: 10,
                    width: ExecSize::S16,
                },
                IrOp::LoopEnd,
            ],
            0,
        );
        let memory = kernel(
            vec![
                IrOp::LoopBegin {
                    trip: TripCount::Const(50),
                },
                IrOp::Load {
                    arg: 0,
                    bytes: 64,
                    width: ExecSize::S16,
                    pattern: AccessPattern::Gather,
                },
                // The compute consumes the loaded value, so the miss
                // latency is actually on the critical path.
                IrOp::Compute {
                    ops: 2,
                    width: ExecSize::S16,
                },
                IrOp::LoopEnd,
            ],
            1,
        );
        let rc = sim().simulate_launch(&compute, &[], 64).unwrap();
        let rm = sim()
            .simulate_launch(&memory, &[ArgValue::Buffer(0)], 64)
            .unwrap();
        let cpi_c = rc.cycles as f64 / rc.stats.instructions as f64;
        let cpi_m = rm.cycles as f64 / rm.stats.instructions as f64;
        assert!(
            cpi_m > cpi_c,
            "gather kernel CPI {cpi_m} should exceed compute CPI {cpi_c}"
        );
    }

    #[test]
    fn smt_hides_latency() {
        // One thread per EU vs eight: eight threads should take far
        // fewer than 8× the cycles of one.
        let k = kernel(
            vec![
                IrOp::LoopBegin {
                    trip: TripCount::Const(20),
                },
                IrOp::MathCompute {
                    ops: 4,
                    width: ExecSize::S8,
                },
                IrOp::LoopEnd,
            ],
            0,
        );
        let one = sim().simulate_launch(&k, &[], 16 * 16).unwrap().cycles; // 16 threads, 1/EU
        let eight = sim().simulate_launch(&k, &[], 16 * 16 * 8).unwrap().cycles; // 8/EU
        assert!(
            (eight as f64) < 4.0 * one as f64,
            "SMT overlap: {one} cycles for 1 thread/EU, {eight} for 8"
        );
    }

    #[test]
    fn sharded_simulation_is_bit_identical_to_serial() {
        let k = kernel(
            vec![
                IrOp::LoopBegin {
                    trip: TripCount::Const(11),
                },
                IrOp::Compute {
                    ops: 9,
                    width: ExecSize::S16,
                },
                IrOp::Load {
                    arg: 0,
                    bytes: 64,
                    width: ExecSize::S16,
                    pattern: AccessPattern::Gather,
                },
                IrOp::MathCompute {
                    ops: 2,
                    width: ExecSize::S8,
                },
                IrOp::LoopEnd,
            ],
            1,
        );
        let args = [ArgValue::Buffer(0)];
        let serial = sim()
            .with_workers(1)
            .simulate_launch(&k, &args, 48 * 16)
            .unwrap();
        for workers in 2..=8 {
            let par = sim()
                .with_workers(workers)
                .simulate_launch(&k, &args, 48 * 16)
                .unwrap();
            assert_eq!(par, serial, "workers = {workers}");
        }
    }

    #[test]
    fn shard_panics_degrade_to_the_serial_result() {
        // Rate 1.0 on sim.shard: the very first parallel epoch dies,
        // and the launch must fall back to a serial re-run that
        // reproduces the reference result exactly. The faults
        // registry is process-global; a sim.shard-only plan is
        // quiescent for every other site, so concurrently running
        // tests are unaffected.
        let k = kernel(
            vec![
                IrOp::LoopBegin {
                    trip: TripCount::Const(5),
                },
                IrOp::Compute {
                    ops: 4,
                    width: ExecSize::S16,
                },
                IrOp::LoopEnd,
            ],
            0,
        );
        let baseline = sim().with_workers(1).simulate_launch(&k, &[], 256).unwrap();
        gtpin_faults::install(gtpin_faults::FaultPlan::single(
            gtpin_faults::site::SIM_SHARD,
            1.0,
            7,
        ));
        let degraded = sim().with_workers(4).simulate_launch(&k, &[], 256).unwrap();
        let acc: std::collections::BTreeMap<String, u64> =
            gtpin_faults::take_accounting().into_iter().collect();
        gtpin_faults::disable();
        assert_eq!(degraded, baseline, "fallback must reproduce serial result");
        assert!(
            acc.get("recovered.sim_serial_fallback")
                .copied()
                .unwrap_or(0)
                >= 1,
            "fallback recovery must be accounted, got {acc:?}"
        );
    }

    #[test]
    fn detailed_simulation_is_slower_than_functional_in_wall_clock() {
        let k = kernel(
            vec![
                IrOp::LoopBegin {
                    trip: TripCount::Const(400),
                },
                IrOp::Compute {
                    ops: 20,
                    width: ExecSize::S16,
                },
                IrOp::MathCompute {
                    ops: 4,
                    width: ExecSize::S16,
                },
                IrOp::LoopEnd,
            ],
            0,
        );
        // Serial on both sides, best-of-three, to keep the comparison
        // robust against scheduler noise in debug builds.
        let functional = (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let mut cache = Cache::new(CacheConfig::default());
                let mut trace = TraceBuffer::new();
                Executor {
                    cache: &mut cache,
                    trace: &mut trace,
                    config: ExecConfig {
                        threads: 1,
                        ..Default::default()
                    },
                }
                .execute_launch(&k, &[], 4096)
                .unwrap();
                t0.elapsed()
            })
            .min()
            .unwrap();
        let detailed = (0..3)
            .map(|_| {
                let t1 = std::time::Instant::now();
                sim()
                    .with_workers(1)
                    .simulate_launch(&k, &[], 4096)
                    .unwrap();
                t1.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            detailed > functional,
            "detailed ({detailed:?}) must cost more than functional ({functional:?})"
        );
    }
}
