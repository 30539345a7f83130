//! The fast functional execution engine: runs GEN kernel binaries
//! over an NDRange, one hardware thread at a time, with real register
//! and flag state.
//!
//! The engine is what makes GT-Pin's instrumentation *real* in this
//! model: injected instructions execute here like any other code,
//! accumulating counters in the trace buffer via `send.atomic_add`
//! messages. The engine also maintains native performance counters
//! ([`ExecutionStats`]) used by the timing model and as ground truth
//! in tests.

use gen_isa::{DecodedKernel, Opcode, NUM_LANES};
use ocl_runtime::api::ArgValue;

use crate::cache::Cache;
use crate::machine::{step, StepOutcome, ThreadState};
use crate::memory::TraceBuffer;
use crate::stats::ExecutionStats;

/// SIMD lanes one hardware thread covers (dispatch width).
pub const DISPATCH_WIDTH: u64 = NUM_LANES as u64;

/// Per-opcode issue cost in cycles (the compute term of the timing
/// model). Extended math is the slow path; sends pay an issue cost
/// here plus memory time modelled separately.
pub fn issue_cost(opcode: Opcode) -> u64 {
    use Opcode::*;
    match opcode {
        Inv | Sqrt | Exp | Log | Sin | Cos => 4,
        Send | Sendc => 2,
        Mad | Lrp | Dp4 => 2,
        _ => 1,
    }
}

/// Issue cost of a concrete instruction. Atomic messages to the
/// CPU/GPU-shared trace buffer serialize against every other
/// hardware thread, so they cost far more than ordinary sends —
/// this contention is the dominant component of GT-Pin's observed
/// 2–10× profiling overhead (Section III-C of the paper).
pub fn instruction_cost(instr: &gen_isa::Instruction) -> u64 {
    if let Some(desc) = instr.send {
        if desc.surface == gen_isa::Surface::TraceBuffer {
            return match desc.op {
                gen_isa::SendOp::AtomicAdd => 24,
                gen_isa::SendOp::Write => 12,
                _ => 4,
            };
        }
    }
    issue_cost(instr.opcode)
}

/// Execution faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A thread exceeded the per-thread instruction budget
    /// (runaway-loop guard).
    BudgetExceeded {
        /// The configured budget.
        budget: u64,
    },
    /// The instruction pointer left the stream without an `eot`.
    RanOffEnd {
        /// Where it ended up.
        ip: i64,
    },
    /// `ret`/`call` executed with no subroutine support.
    StrayReturn {
        /// Offending instruction index.
        ip: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::BudgetExceeded { budget } => {
                write!(f, "thread exceeded instruction budget of {budget}")
            }
            ExecError::RanOffEnd { ip } => write!(f, "instruction pointer {ip} left the stream"),
            ExecError::StrayReturn { ip } => write!(f, "stray ret/call at instruction {ip}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Execution-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Per-thread dynamic instruction budget.
    pub thread_budget: u64,
    /// Worker threads for hardware-thread fan-out (default `1`, the
    /// plain serial loop). Results are bitwise identical at every
    /// value.
    pub threads: usize,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            thread_budget: 8_000_000,
            threads: 1,
        }
    }
}

/// Executes kernel launches against shared device state (cache,
/// trace buffer).
pub struct Executor<'d> {
    /// Device cache fed by global sends.
    pub cache: &'d mut Cache,
    /// GT-Pin trace buffer fed by trace-surface sends.
    pub trace: &'d mut TraceBuffer,
    /// Limits.
    pub config: ExecConfig,
}

/// Whether any instruction reads the trace buffer back into a
/// register. Such kernels see other hardware threads' counter writes
/// in serial execution, so they cannot run against private shards —
/// the executor falls back to the serial loop for them.
fn reads_trace_buffer(kernel: &DecodedKernel) -> bool {
    kernel.instrs.iter().any(|i| {
        matches!(
            i.send,
            Some(d) if d.surface == gen_isa::Surface::TraceBuffer && d.op == gen_isa::SendOp::Read
        )
    })
}

/// Everything one hardware thread produced while running against
/// private state: its counters, its trace-buffer shard, and the
/// global-memory access log the main thread replays on the shared
/// cache.
struct ThreadRun {
    result: Result<(), ExecError>,
    stats: ExecutionStats,
    shard: TraceBuffer,
    accesses: Vec<(u64, u32)>,
}

impl<'d> Executor<'d> {
    /// Execute one kernel launch over `global_work_size` work items;
    /// returns aggregated statistics across hardware threads.
    ///
    /// With `config.threads > 1` the hardware threads fan out across
    /// workers, each against a scratch cache and a private trace
    /// shard; shards and access logs merge back in hardware-thread
    /// order, so statistics, cache state, and trace contents are
    /// bitwise identical to the serial loop. Kernels that read the
    /// trace buffer back into registers depend on cross-thread write
    /// order and run serially regardless.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on runaway loops, bad control flow, or
    /// stray returns — all of which indicate a malformed binary. On
    /// error the cache and trace buffer hold the effects of every
    /// hardware thread before the (lowest-numbered) failing one plus
    /// the failing thread's partial run — the same state the serial
    /// loop leaves.
    pub fn execute_launch(
        &mut self,
        kernel: &DecodedKernel,
        args: &[ArgValue],
        global_work_size: u64,
    ) -> Result<ExecutionStats, ExecError> {
        let num_threads = global_work_size.div_ceil(DISPATCH_WIDTH).max(1);
        let mut stats = ExecutionStats {
            hw_threads: num_threads,
            ..Default::default()
        };
        let workers = self.config.threads.min(num_threads as usize);
        let serial = workers <= 1 || reads_trace_buffer(kernel);
        let mut span = gtpin_obs::span("executor.launch");
        if span.active() {
            span.arg_str("kernel", kernel.name.clone());
            span.arg_u64("hw_threads", num_threads);
            span.arg_u64("workers", if serial { 1 } else { workers as u64 });
        }
        let records_before = self.trace.records().len() as u64;
        let dropped_before = self.trace.dropped_records();
        let appended_before = self.trace.appended_records();
        let early_drains_before = self.trace.early_drains();
        if serial {
            for t in 0..num_threads {
                run_thread(
                    kernel,
                    args,
                    t,
                    self.config.thread_budget,
                    self.cache,
                    self.trace,
                    &mut stats,
                    None,
                )?;
            }
            self.finalize_trace_accounting(
                &mut stats,
                records_before,
                dropped_before,
                early_drains_before,
            );
            self.note_launch_telemetry(&mut span, &stats, records_before, dropped_before);
            return Ok(stats);
        }

        let budget = self.config.thread_budget;
        let proto_cache = self.cache.clone();
        let record_cap = self.trace.record_capacity();
        let faults_on = gtpin_faults::enabled();
        let runs = gtpin_par::parallel_indexed(num_threads as usize, workers, |t| {
            let mut cache = proto_cache.clone();
            let mut shard = TraceBuffer::new()
                .with_record_capacity(record_cap)
                .with_fault_salt(t as u64 + 1);
            if faults_on
                && gtpin_faults::should_inject(gtpin_faults::site::SHARD_OVERFLOW, t as u64)
            {
                // Injected shard overflow: shrink the live stream so
                // the shard early-drains. Records spill instead of
                // dropping, so the merged trace is unchanged — the
                // recovery the fault exists to prove.
                shard = shard.with_soft_capacity(8);
            }
            let mut tstats = ExecutionStats::default();
            let mut accesses = Vec::new();
            let result = run_thread(
                kernel,
                args,
                t as u64,
                budget,
                &mut cache,
                &mut shard,
                &mut tstats,
                Some(&mut accesses),
            );
            ThreadRun {
                result,
                stats: tstats,
                shard,
                accesses,
            }
        });

        let obs = gtpin_obs::enabled();
        let mut drain = gtpin_obs::span("executor.drain");
        let mut replayed_accesses = 0u64;
        for run in runs {
            // Replay this thread's global accesses on the shared
            // cache: hit/miss counts and cache state come out exactly
            // as the serial loop's (the scratch-cache counts in the
            // worker's stats are discarded below).
            let mut hits = 0u64;
            let mut misses = 0u64;
            for &(addr, bytes) in &run.accesses {
                let (h, m) = self.cache.access(addr, bytes);
                hits += h as u64;
                misses += m as u64;
            }
            if obs {
                replayed_accesses += run.accesses.len() as u64;
                gtpin_obs::hist_ns("executor.shard_records", run.shard.records().len() as u64);
            }
            self.trace.merge_shard(run.shard);
            run.result?;
            let mut s = run.stats;
            s.cache_hits = hits;
            s.cache_misses = misses;
            stats.merge(&s);
        }
        if drain.active() {
            drain.arg_u64("replayed_accesses", replayed_accesses);
            gtpin_obs::counter_add("executor.cache_replays", replayed_accesses);
        }
        drop(drain);

        // Conservation check on the shard-drain merge path: every
        // record a hardware thread appended is now either stored or
        // counted as dropped. A violation is a bug in the merge —
        // fail loudly in debug builds, count it in release builds so
        // long characterization runs degrade instead of aborting.
        let appended_delta = self.trace.appended_records() - appended_before;
        let stored_delta = self.trace.records().len() as u64 - records_before;
        let dropped_delta = self.trace.dropped_records() - dropped_before;
        if appended_delta != stored_delta + dropped_delta {
            #[cfg(debug_assertions)]
            panic!(
                "shard-drain conservation violated: {appended_delta} appended != \
                 {stored_delta} stored + {dropped_delta} dropped"
            );
            #[cfg(not(debug_assertions))]
            {
                gtpin_obs::counter_add("executor.conservation_violations", 1);
                gtpin_faults::note("violation.trace_conservation", 1);
            }
        }

        self.finalize_trace_accounting(
            &mut stats,
            records_before,
            dropped_before,
            early_drains_before,
        );
        self.note_launch_telemetry(&mut span, &stats, records_before, dropped_before);
        Ok(stats)
    }

    /// Post-launch trace accounting: quarantine checksum-stale
    /// records (fault-armed runs only — the scan is behind the single
    /// `GTPIN_FAULTS` branch) and surface drop/drain/quarantine
    /// deltas in the launch statistics.
    fn finalize_trace_accounting(
        &mut self,
        stats: &mut ExecutionStats,
        records_before: u64,
        dropped_before: u64,
        early_drains_before: u64,
    ) {
        if gtpin_faults::enabled() {
            let quarantined = self.trace.quarantine_invalid(records_before as usize);
            if quarantined > 0 {
                stats.trace_quarantined = quarantined;
                gtpin_faults::note("recovered.record_quarantine", quarantined);
                gtpin_obs::counter_add("executor.trace_quarantined", quarantined);
                gtpin_obs::warn!(
                    "executor: quarantined {quarantined} corrupted trace record(s) before drain"
                );
            }
        }
        stats.trace_dropped = self.trace.dropped_records() - dropped_before;
        stats.trace_early_drains = self.trace.early_drains() - early_drains_before;
    }

    /// Attach per-launch trace-buffer fill/drop and overhead numbers
    /// to the launch span and the process-wide counters. A no-op
    /// (beyond one branch) when telemetry is disabled.
    fn note_launch_telemetry(
        &self,
        span: &mut gtpin_obs::SpanGuard<'_>,
        stats: &ExecutionStats,
        records_before: u64,
        dropped_before: u64,
    ) {
        if !span.active() {
            return;
        }
        let records = self.trace.records().len() as u64 - records_before;
        let dropped = self.trace.dropped_records() - dropped_before;
        span.arg_u64("trace_records", records);
        span.arg_u64("trace_dropped", dropped);
        span.arg_u64("trace_bytes", stats.trace_bytes);
        span.arg_f64("overhead_ratio", stats.overhead_ratio());
        gtpin_obs::counter_add("executor.launches", 1);
        gtpin_obs::counter_add("executor.trace_records", records);
        gtpin_obs::counter_add("executor.trace_dropped", dropped);
        gtpin_obs::counter_add("executor.trace_bytes", stats.trace_bytes);
    }
}

/// Run one hardware thread to completion against the given cache and
/// trace buffer (shared in serial execution, private in parallel).
#[allow(clippy::too_many_arguments)]
fn run_thread(
    kernel: &DecodedKernel,
    args: &[ArgValue],
    thread_id: u64,
    thread_budget: u64,
    cache: &mut Cache,
    trace: &mut TraceBuffer,
    stats: &mut ExecutionStats,
    mut access_log: Option<&mut Vec<(u64, u32)>>,
) -> Result<(), ExecError> {
    let mut st = ThreadState::new(thread_id, args);
    let mut ip: i64 = 0;
    let mut executed: u64 = 0;
    let instrs = &kernel.instrs;

    loop {
        if executed >= thread_budget {
            return Err(ExecError::BudgetExceeded {
                budget: thread_budget,
            });
        }
        if ip < 0 || ip as usize >= instrs.len() {
            return Err(ExecError::RanOffEnd { ip });
        }
        let instr = &instrs[ip as usize];
        executed += 1;
        let cost = instruction_cost(instr);
        st.issue_cycles += cost;
        stats.count_instruction(instr.opcode.category(), instr.exec_size, cost);
        if matches!(instr.send, Some(d) if d.surface == gen_isa::Surface::TraceBuffer) {
            stats.trace_cycles += cost;
        }

        match step(
            &mut st,
            instr,
            cache,
            trace,
            stats,
            access_log.as_deref_mut(),
        ) {
            StepOutcome::Done => break,
            StepOutcome::Fault => return Err(ExecError::StrayReturn { ip: ip as usize }),
            StepOutcome::Branch(off) => ip += 1 + off as i64,
            StepOutcome::Next => ip += 1,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::jit::compile_kernel;
    use gen_isa::ExecSize;
    use ocl_runtime::ir::{AccessPattern, IrOp, KernelIr, TripCount};

    fn run(
        ir_body: Vec<IrOp>,
        num_args: u8,
        args: &[ArgValue],
        gws: u64,
    ) -> (ExecutionStats, TraceBuffer) {
        let mut ir = KernelIr::new("t", num_args);
        ir.body = ir_body;
        let bin = compile_kernel(&ir).unwrap();
        let flat = bin.flatten();
        let mut cache = Cache::new(CacheConfig::default());
        let mut trace = TraceBuffer::new();
        let stats = Executor {
            cache: &mut cache,
            trace: &mut trace,
            config: ExecConfig::default(),
        }
        .execute_launch(&flat, args, gws)
        .unwrap();
        (stats, trace)
    }

    #[test]
    fn one_thread_per_sixteen_work_items() {
        let (s, _) = run(
            vec![IrOp::Compute {
                ops: 1,
                width: ExecSize::S16,
            }],
            0,
            &[],
            64,
        );
        assert_eq!(s.hw_threads, 4);
        let (s, _) = run(vec![], 0, &[], 1);
        assert_eq!(s.hw_threads, 1, "tiny launches still dispatch one thread");
    }

    #[test]
    fn loop_trip_count_follows_argument() {
        let body = vec![
            IrOp::LoopBegin {
                trip: TripCount::Arg(0),
            },
            IrOp::Compute {
                ops: 10,
                width: ExecSize::S16,
            },
            IrOp::LoopEnd,
        ];
        let (s5, _) = run(body.clone(), 1, &[ArgValue::Scalar(5)], 16);
        let (s10, _) = run(body, 1, &[ArgValue::Scalar(10)], 16);
        // Each iteration: 10 compute + add + cmp + brc = 13.
        let diff = s10.instructions - s5.instructions;
        assert_eq!(diff, 5 * 13, "five extra iterations of 13 instructions");
    }

    #[test]
    fn instruction_count_scales_with_threads() {
        let body = vec![IrOp::Compute {
            ops: 7,
            width: ExecSize::S8,
        }];
        let (s1, _) = run(body.clone(), 0, &[], 16);
        let (s4, _) = run(body, 0, &[], 64);
        assert_eq!(s4.instructions, 4 * s1.instructions);
    }

    #[test]
    fn memory_bytes_accounted_per_execution() {
        let body = vec![
            IrOp::LoopBegin {
                trip: TripCount::Const(3),
            },
            IrOp::Load {
                arg: 0,
                bytes: 64,
                width: ExecSize::S16,
                pattern: AccessPattern::Linear,
            },
            IrOp::Store {
                arg: 1,
                bytes: 32,
                width: ExecSize::S16,
                pattern: AccessPattern::Linear,
            },
            IrOp::LoopEnd,
        ];
        let (s, _) = run(body, 2, &[ArgValue::Buffer(0), ArgValue::Buffer(1)], 16);
        assert_eq!(s.bytes_read, 3 * 64);
        assert_eq!(s.bytes_written, 3 * 32);
        assert_eq!(s.global_sends, 6);
    }

    #[test]
    fn gather_misses_more_than_linear() {
        let mk = |pattern| {
            vec![
                IrOp::LoopBegin {
                    trip: TripCount::Const(200),
                },
                IrOp::Load {
                    arg: 0,
                    bytes: 16,
                    width: ExecSize::S16,
                    pattern,
                },
                IrOp::LoopEnd,
            ]
        };
        let (lin, _) = run(mk(AccessPattern::Linear), 1, &[ArgValue::Buffer(0)], 16);
        let (gat, _) = run(mk(AccessPattern::Gather), 1, &[ArgValue::Buffer(0)], 16);
        assert!(
            gat.cache_misses > lin.cache_misses,
            "gather ({}) should miss more than linear ({})",
            gat.cache_misses,
            lin.cache_misses
        );
    }

    #[test]
    fn runaway_loop_hits_budget_guard() {
        let mut ir = KernelIr::new("r", 0);
        ir.body = vec![
            IrOp::LoopBegin {
                trip: TripCount::Const(1 << 30),
            },
            IrOp::Compute {
                ops: 1,
                width: ExecSize::S1,
            },
            IrOp::LoopEnd,
        ];
        let bin = compile_kernel(&ir).unwrap().flatten();
        let mut cache = Cache::new(CacheConfig::default());
        let mut trace = TraceBuffer::new();
        let err = Executor {
            cache: &mut cache,
            trace: &mut trace,
            config: ExecConfig {
                thread_budget: 1000,
                ..Default::default()
            },
        }
        .execute_launch(&bin, &[], 16)
        .unwrap_err();
        assert_eq!(err, ExecError::BudgetExceeded { budget: 1000 });
    }

    #[test]
    fn if_region_skipped_when_condition_fails() {
        let body = vec![
            IrOp::IfArgLt { arg: 0, value: 100 },
            IrOp::Compute {
                ops: 50,
                width: ExecSize::S16,
            },
            IrOp::EndIf,
        ];
        let (taken, _) = run(body.clone(), 1, &[ArgValue::Scalar(5)], 16);
        let (skipped, _) = run(body, 1, &[ArgValue::Scalar(500)], 16);
        assert!(taken.instructions > skipped.instructions + 40);
    }

    #[test]
    fn trace_buffer_sends_accumulate_counters() {
        // Hand-build a binary with instrumentation-style counter sends.
        use gen_isa::builder::KernelBuilder;
        use gen_isa::{Reg, Src, Surface};
        let mut b = KernelBuilder::new("counter");
        let e = b.entry_block();
        b.block_mut(e)
            .mov(ExecSize::S1, Reg(100), Src::Imm(3)) // slot
            .mov(ExecSize::S1, Reg(101), Src::Imm(1)) // increment
            .atomic_add(Reg(100), Reg(101), Surface::TraceBuffer)
            .eot();
        let flat = b.build().unwrap().flatten();
        let mut cache = Cache::new(CacheConfig::default());
        let mut trace = TraceBuffer::new();
        Executor {
            cache: &mut cache,
            trace: &mut trace,
            config: ExecConfig::default(),
        }
        .execute_launch(&flat, &[], 8 * 16)
        .unwrap();
        assert_eq!(trace.slot(3), 8, "one increment per hardware thread");
    }

    #[test]
    fn trace_traffic_not_counted_as_app_bytes() {
        use gen_isa::builder::KernelBuilder;
        use gen_isa::{Reg, Src, Surface};
        let mut b = KernelBuilder::new("t");
        let e = b.entry_block();
        b.block_mut(e)
            .mov(ExecSize::S1, Reg(100), Src::Imm(0))
            .mov(ExecSize::S1, Reg(101), Src::Imm(1))
            .atomic_add(Reg(100), Reg(101), Surface::TraceBuffer)
            .eot();
        let flat = b.build().unwrap().flatten();
        let mut cache = Cache::new(CacheConfig::default());
        let mut trace = TraceBuffer::new();
        let stats = Executor {
            cache: &mut cache,
            trace: &mut trace,
            config: ExecConfig::default(),
        }
        .execute_launch(&flat, &[], 16)
        .unwrap();
        assert_eq!(stats.bytes_read + stats.bytes_written, 0);
        assert_eq!(stats.global_sends, 0);
    }

    fn run_with_threads(
        ir_body: Vec<IrOp>,
        num_args: u8,
        args: &[ArgValue],
        gws: u64,
        threads: usize,
    ) -> (ExecutionStats, TraceBuffer, Cache) {
        let mut ir = KernelIr::new("t", num_args);
        ir.body = ir_body;
        let bin = compile_kernel(&ir).unwrap();
        let flat = bin.flatten();
        let mut cache = Cache::new(CacheConfig::default());
        let mut trace = TraceBuffer::new();
        let stats = Executor {
            cache: &mut cache,
            trace: &mut trace,
            config: ExecConfig {
                threads,
                ..Default::default()
            },
        }
        .execute_launch(&flat, args, gws)
        .unwrap();
        (stats, trace, cache)
    }

    #[test]
    fn parallel_launch_is_bit_identical_to_serial() {
        let body = vec![
            IrOp::LoopBegin {
                trip: TripCount::Const(7),
            },
            IrOp::Compute {
                ops: 3,
                width: ExecSize::S16,
            },
            IrOp::Load {
                arg: 0,
                bytes: 64,
                width: ExecSize::S16,
                pattern: AccessPattern::Gather,
            },
            IrOp::Store {
                arg: 1,
                bytes: 32,
                width: ExecSize::S16,
                pattern: AccessPattern::Linear,
            },
            IrOp::LoopEnd,
        ];
        let args = [ArgValue::Buffer(0), ArgValue::Buffer(1)];
        let (s1, t1, c1) = run_with_threads(body.clone(), 2, &args, 8 * 16, 1);
        for threads in 2..=5 {
            let (sp, tp, cp) = run_with_threads(body.clone(), 2, &args, 8 * 16, threads);
            assert_eq!(sp, s1, "stats at {threads} threads");
            assert_eq!(tp.records(), t1.records());
            assert_eq!(tp.num_slots(), t1.num_slots());
            assert_eq!(
                cp.stats(),
                c1.stats(),
                "replayed cache state at {threads} threads"
            );
        }
    }

    #[test]
    fn parallel_trace_shards_merge_to_serial_counters() {
        use gen_isa::builder::KernelBuilder;
        use gen_isa::{Reg, Src, Surface};
        let mut b = KernelBuilder::new("counter");
        let e = b.entry_block();
        b.block_mut(e)
            .mov(ExecSize::S1, Reg(100), Src::Imm(3))
            .mov(ExecSize::S1, Reg(101), Src::Imm(1))
            .atomic_add(Reg(100), Reg(101), Surface::TraceBuffer)
            .eot();
        let flat = b.build().unwrap().flatten();
        for threads in [1usize, 4] {
            let mut cache = Cache::new(CacheConfig::default());
            let mut trace = TraceBuffer::new();
            let stats = Executor {
                cache: &mut cache,
                trace: &mut trace,
                config: ExecConfig {
                    threads,
                    ..Default::default()
                },
            }
            .execute_launch(&flat, &[], 8 * 16)
            .unwrap();
            assert_eq!(trace.slot(3), 8, "threads = {threads}");
            assert_eq!(stats.trace_bytes, 8 * 64);
        }
    }

    #[test]
    fn budget_error_surfaces_from_parallel_path() {
        let mut ir = KernelIr::new("r", 0);
        ir.body = vec![
            IrOp::LoopBegin {
                trip: TripCount::Const(1 << 30),
            },
            IrOp::Compute {
                ops: 1,
                width: ExecSize::S1,
            },
            IrOp::LoopEnd,
        ];
        let bin = compile_kernel(&ir).unwrap().flatten();
        let mut cache = Cache::new(CacheConfig::default());
        let mut trace = TraceBuffer::new();
        let err = Executor {
            cache: &mut cache,
            trace: &mut trace,
            config: ExecConfig {
                thread_budget: 1000,
                threads: 4,
            },
        }
        .execute_launch(&bin, &[], 4 * 16)
        .unwrap_err();
        assert_eq!(err, ExecError::BudgetExceeded { budget: 1000 });
    }

    #[test]
    fn execution_is_deterministic() {
        let body = vec![
            IrOp::LoopBegin {
                trip: TripCount::Const(9),
            },
            IrOp::Compute {
                ops: 5,
                width: ExecSize::S16,
            },
            IrOp::Load {
                arg: 0,
                bytes: 64,
                width: ExecSize::S16,
                pattern: AccessPattern::Gather,
            },
            IrOp::LoopEnd,
        ];
        let (a, _) = run(body.clone(), 1, &[ArgValue::Buffer(2)], 128);
        let (b, _) = run(body, 1, &[ArgValue::Buffer(2)], 128);
        assert_eq!(a, b);
    }
}
