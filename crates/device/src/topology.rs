//! GPU topologies: execution units, subslices, hardware threads.
//!
//! Figure 2 of the paper shows the test system: an Ivy Bridge
//! HD 4000 with 16 EUs in two subslices, 8 hardware threads per EU
//! (128 simultaneous hardware threads), peak 332.8 GFLOPS at a
//! maximum frequency of 1150 MHz. Section V-E adds the Haswell
//! HD 4600 with 20 EUs.

use serde::{Deserialize, Serialize};

/// A named GPU generation with a stock topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuGeneration {
    /// Ivy Bridge HD 4000: 16 EUs, two subslices (the paper's main
    /// test system).
    IvyBridgeHd4000,
    /// Haswell HD 4600: 20 EUs (the paper's cross-generation
    /// validation target).
    HaswellHd4600,
}

impl GpuGeneration {
    /// The stock topology of this generation.
    pub fn topology(self) -> GpuTopology {
        match self {
            GpuGeneration::IvyBridgeHd4000 => GpuTopology {
                name: "Intel HD 4000 (Ivy Bridge)",
                execution_units: 16,
                subslices: 2,
                threads_per_eu: 8,
                max_frequency_hz: 1_150_000_000.0,
                llc_slice_kib: 256,
                dram_bytes_per_second: 12.0e9,
                l3_bytes_per_cycle: 64.0,
            },
            GpuGeneration::HaswellHd4600 => GpuTopology {
                name: "Intel HD 4600 (Haswell)",
                execution_units: 20,
                subslices: 2,
                threads_per_eu: 7,
                max_frequency_hz: 1_250_000_000.0,
                llc_slice_kib: 256,
                dram_bytes_per_second: 14.0e9,
                l3_bytes_per_cycle: 64.0,
            },
        }
    }
}

impl std::fmt::Display for GpuGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.topology().name)
    }
}

/// The machine parameters the execution and timing models consume.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuTopology {
    /// Human-readable name.
    pub name: &'static str,
    /// Number of execution units.
    pub execution_units: u32,
    /// Number of subslices the EUs are organized into.
    pub subslices: u32,
    /// SMT hardware threads per EU.
    pub threads_per_eu: u32,
    /// Maximum GPU frequency in Hz.
    pub max_frequency_hz: f64,
    /// Last-level-cache slice size in KiB.
    pub llc_slice_kib: u32,
    /// Sustained DRAM bandwidth in bytes/second (frequency
    /// independent).
    pub dram_bytes_per_second: f64,
    /// L3 bandwidth in bytes per GPU cycle (scales with frequency).
    pub l3_bytes_per_cycle: f64,
}

impl GpuTopology {
    /// Total simultaneous hardware threads (EUs × threads/EU); 128 on
    /// the HD 4000.
    pub fn total_hw_threads(&self) -> u32 {
        self.execution_units * self.threads_per_eu
    }

    /// EUs per subslice.
    pub fn eus_per_subslice(&self) -> u32 {
        self.execution_units / self.subslices
    }

    /// Pricing knobs for the static cycle estimator
    /// ([`gtpin_analyze::StaticCost`]), derived from this topology so
    /// the same kernel prices differently across generations:
    ///
    /// * the send base cost grows with hardware-thread pressure (more
    ///   threads contending for the same message gateway);
    /// * the payload bandwidth divisor is the per-cycle DRAM budget,
    ///   `dram_bytes_per_second / max_frequency_hz`, floored at one
    ///   byte per cycle;
    /// * issue tables are fixed per [`gen_isa::OpcodeCategory`]: one
    ///   cycle for moves and logic, two for control and computation.
    ///
    /// All derived knobs are integers so estimates stay bit-stable.
    pub fn cost_params(&self) -> gtpin_analyze::CostParams {
        let send_base = 16 + u64::from(self.total_hw_threads() / 8);
        let bytes_per_cycle = (self.dram_bytes_per_second / self.max_frequency_hz) as u64;
        gtpin_analyze::CostParams {
            // Move, Logic, Control, Computation, Send (base).
            issue_cycles: [1, 1, 2, 2, send_base],
            extended_math_cycles: 6,
            send_bytes_per_cycle: bytes_per_cycle.max(1),
            native_simd_lanes: 4,
            assumed_trips: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hd4000_matches_the_paper() {
        let t = GpuGeneration::IvyBridgeHd4000.topology();
        assert_eq!(t.execution_units, 16);
        assert_eq!(t.subslices, 2);
        assert_eq!(t.eus_per_subslice(), 8);
        assert_eq!(t.threads_per_eu, 8);
        assert_eq!(
            t.total_hw_threads(),
            128,
            "128 simultaneous hardware threads"
        );
        assert!((t.max_frequency_hz - 1.15e9).abs() < 1.0);
    }

    #[test]
    fn cost_params_vary_across_generations() {
        let ivy = GpuGeneration::IvyBridgeHd4000.topology().cost_params();
        let hsw = GpuGeneration::HaswellHd4600.topology().cost_params();
        // 128 threads / 8 = 16 extra send cycles on Ivy Bridge; 140/8
        // = 17 on Haswell.
        assert_eq!(ivy.issue_cycles[4], 32);
        assert_eq!(hsw.issue_cycles[4], 33);
        // 12e9 / 1.15e9 ≈ 10 bytes per cycle; 14e9 / 1.25e9 ≈ 11.
        assert_eq!(ivy.send_bytes_per_cycle, 10);
        assert_eq!(hsw.send_bytes_per_cycle, 11);
        assert!(ivy != hsw);
    }

    #[test]
    fn hd4600_has_more_parallelism() {
        let ivy = GpuGeneration::IvyBridgeHd4000.topology();
        let hsw = GpuGeneration::HaswellHd4600.topology();
        assert_eq!(hsw.execution_units, 20);
        assert!(hsw.execution_units > ivy.execution_units);
    }
}
