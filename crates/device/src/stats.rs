//! Device-side execution statistics — the model's "hardware
//! performance counters". GT-Pin computes its own numbers through
//! injected instructions; these native counters are the ground truth
//! the tool is tested against, and the input to the timing model.

use gen_isa::{ExecSize, OpcodeCategory};
use serde::{Deserialize, Serialize};

/// Counters for one kernel launch, aggregated across hardware
/// threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionStats {
    /// Dynamic instructions executed (including any instrumentation).
    pub instructions: u64,
    /// Dynamic instructions per opcode category, indexed per
    /// [`OpcodeCategory::ALL`].
    pub per_category: [u64; 5],
    /// Dynamic instructions per SIMD width, indexed per
    /// [`ExecSize::ALL`].
    pub per_width: [u64; 5],
    /// Application-visible bytes read from global memory.
    pub bytes_read: u64,
    /// Application-visible bytes written to global memory.
    pub bytes_written: u64,
    /// Global-memory send messages issued.
    pub global_sends: u64,
    /// Cache hits among global sends.
    pub cache_hits: u64,
    /// Cache misses among global sends.
    pub cache_misses: u64,
    /// Hardware threads the launch dispatched.
    pub hw_threads: u64,
    /// Weighted issue cycles (latency-weighted instruction cost) —
    /// the compute term of the timing model.
    pub issue_cycles: u64,
    /// Bytes moved to the CPU/GPU-shared trace buffer by
    /// instrumentation (uncached round trips; zero for
    /// uninstrumented binaries). This traffic is what makes GT-Pin
    /// profiling runs 2–10× slower than native execution.
    pub trace_bytes: u64,
    /// Issue cycles spent on instrumentation sends to the trace
    /// buffer — the subset of [`ExecutionStats::issue_cycles`] the
    /// application would not pay natively.
    pub trace_cycles: u64,
    /// Trace records dropped because the buffer was full — honest
    /// data-loss accounting, always zero in fault-free runs with the
    /// default capacity.
    pub trace_dropped: u64,
    /// Trace records quarantined by the CPU-side checksum drain
    /// (corrupted in flight; zero unless corruption occurred).
    pub trace_quarantined: u64,
    /// Early shard drains taken when a per-thread trace shard hit its
    /// soft capacity (the records survive via spill — degradation,
    /// not loss).
    pub trace_early_drains: u64,
}

impl ExecutionStats {
    /// Record one executed instruction.
    pub fn count_instruction(
        &mut self,
        category: OpcodeCategory,
        width: ExecSize,
        issue_cost: u64,
    ) {
        self.instructions += 1;
        self.per_category[category.index()] += 1;
        self.per_width[width.index()] += 1;
        self.issue_cycles += issue_cost;
    }

    /// Merge another launch's counters into this one.
    pub fn merge(&mut self, other: &ExecutionStats) {
        self.instructions += other.instructions;
        for i in 0..5 {
            self.per_category[i] += other.per_category[i];
            self.per_width[i] += other.per_width[i];
        }
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.global_sends += other.global_sends;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.hw_threads += other.hw_threads;
        self.issue_cycles += other.issue_cycles;
        self.trace_bytes += other.trace_bytes;
        self.trace_cycles += other.trace_cycles;
        self.trace_dropped += other.trace_dropped;
        self.trace_quarantined += other.trace_quarantined;
        self.trace_early_drains += other.trace_early_drains;
    }

    /// Instrumented-over-native slowdown on the compute term:
    /// `issue_cycles / (issue_cycles - trace_cycles)`. The paper
    /// reports this ratio in the 2–10× band for full instrumentation
    /// (Section III); uninstrumented launches report exactly 1.0.
    pub fn overhead_ratio(&self) -> f64 {
        let native = self.issue_cycles.saturating_sub(self.trace_cycles);
        if native == 0 || self.trace_cycles == 0 {
            return 1.0;
        }
        self.issue_cycles as f64 / native as f64
    }

    /// Fraction of instructions in the given category.
    pub fn category_fraction(&self, category: OpcodeCategory) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.per_category[category.index()] as f64 / self.instructions as f64
    }

    /// Fraction of instructions at the given SIMD width.
    pub fn width_fraction(&self, width: ExecSize) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.per_width[width.index()] as f64 / self.instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_updates_all_views() {
        let mut s = ExecutionStats::default();
        s.count_instruction(OpcodeCategory::Computation, ExecSize::S16, 1);
        s.count_instruction(OpcodeCategory::Send, ExecSize::S8, 2);
        assert_eq!(s.instructions, 2);
        assert_eq!(s.per_category[OpcodeCategory::Computation.index()], 1);
        assert_eq!(s.per_width[ExecSize::S8.index()], 1);
        assert_eq!(s.issue_cycles, 3);
        assert!((s.category_fraction(OpcodeCategory::Send) - 0.5).abs() < 1e-12);
        assert!((s.width_fraction(ExecSize::S16) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = ExecutionStats::default();
        a.count_instruction(OpcodeCategory::Move, ExecSize::S1, 1);
        a.bytes_read = 10;
        let mut b = ExecutionStats::default();
        b.count_instruction(OpcodeCategory::Move, ExecSize::S1, 1);
        b.bytes_written = 20;
        a.merge(&b);
        assert_eq!(a.instructions, 2);
        assert_eq!(a.bytes_read, 10);
        assert_eq!(a.bytes_written, 20);
    }

    #[test]
    fn overhead_ratio_covers_the_paper_band_and_degenerate_cases() {
        let mut s = ExecutionStats::default();
        assert_eq!(s.overhead_ratio(), 1.0, "empty stats");
        s.issue_cycles = 100;
        assert_eq!(s.overhead_ratio(), 1.0, "uninstrumented launch");
        s.trace_cycles = 75;
        assert!((s.overhead_ratio() - 4.0).abs() < 1e-12, "4x slowdown");
        s.trace_cycles = 100;
        assert_eq!(s.overhead_ratio(), 1.0, "all-trace degenerate case");
    }

    #[test]
    fn empty_stats_have_zero_fractions() {
        let s = ExecutionStats::default();
        assert_eq!(s.category_fraction(OpcodeCategory::Move), 0.0);
        assert_eq!(s.width_fraction(ExecSize::S16), 0.0);
    }
}
