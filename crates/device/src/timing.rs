//! The analytic "native hardware" timing model.
//!
//! This model plays the role of the paper's real Ivy Bridge /
//! Haswell silicon: it converts a launch's execution statistics into
//! wall-clock seconds, sensitive to
//!
//! * **instruction mix** — via latency-weighted issue cycles,
//! * **occupancy** — launches with fewer hardware threads than EUs
//!   leave the machine underutilized,
//! * **frequency** — compute and L3 time scale with the clock; DRAM
//!   time does not (this is what makes the cross-frequency
//!   validation of Figure 8 non-trivial),
//! * **cache behaviour** — misses pay DRAM bandwidth,
//! * **per-trial noise** — a small seeded disturbance standing in
//!   for run-to-run variation on real hardware.

use serde::{Deserialize, Serialize};

use crate::stats::ExecutionStats;
use crate::topology::GpuTopology;

/// Timing-model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// GPU frequency in Hz.
    pub frequency_hz: f64,
    /// Per-trial noise seed (real trials differ; replays of the same
    /// trial agree).
    pub trial_seed: u64,
    /// Relative noise amplitude (standard-deviation-ish; 0 disables).
    pub noise: f64,
    /// Fixed per-launch overhead in seconds (dispatch, walker setup).
    pub launch_overhead_s: f64,
}

impl Default for TimingConfig {
    fn default() -> TimingConfig {
        TimingConfig {
            frequency_hz: 1_150_000_000.0,
            trial_seed: 1,
            noise: 0.01,
            launch_overhead_s: 2.0e-6,
        }
    }
}

/// Converts [`ExecutionStats`] into seconds for a given machine.
#[derive(Debug, Clone, Copy)]
pub struct TimingModel {
    topology: GpuTopology,
    config: TimingConfig,
}

impl TimingModel {
    /// A model for `topology` under `config`.
    pub fn new(topology: GpuTopology, config: TimingConfig) -> TimingModel {
        TimingModel { topology, config }
    }

    /// The active configuration.
    pub fn config(&self) -> TimingConfig {
        self.config
    }

    /// Effective instruction throughput divisor for a launch with
    /// `hw_threads` threads: how many issue cycles retire per GPU
    /// cycle across the machine.
    fn effective_parallelism(&self, hw_threads: u64) -> f64 {
        let eus = self.topology.execution_units as u64;
        let busy_eus = hw_threads.min(eus);
        // EUs with at least two resident threads hide latency well;
        // a single resident thread stalls more.
        let resident_per_eu = hw_threads.div_ceil(eus.max(1));
        let smt_efficiency = if resident_per_eu >= 2 { 1.0 } else { 0.6 };
        (busy_eus as f64 * smt_efficiency).max(0.6)
    }

    /// Seconds for one launch, noise-free.
    pub fn launch_seconds_ideal(&self, stats: &ExecutionStats) -> f64 {
        let parallel = self.effective_parallelism(stats.hw_threads);
        let compute_s = stats.issue_cycles as f64 / parallel / self.config.frequency_hz;
        let line = 64.0;
        let l3_bytes = stats.cache_hits as f64 * line;
        let l3_s = l3_bytes / (self.topology.l3_bytes_per_cycle * self.config.frequency_hz);
        let dram_bytes = stats.cache_misses as f64 * line;
        let dram_s = dram_bytes / self.topology.dram_bytes_per_second;
        // Instrumentation traffic to the CPU/GPU-shared trace buffer
        // bypasses the cache entirely.
        let trace_s = stats.trace_bytes as f64 / self.topology.dram_bytes_per_second;
        self.config.launch_overhead_s + compute_s + l3_s + dram_s + trace_s
    }

    /// Seconds for one launch including per-trial noise, keyed by the
    /// launch's position in the run.
    pub fn launch_seconds(&self, stats: &ExecutionStats, launch_index: u32) -> f64 {
        let ideal = self.launch_seconds_ideal(stats);
        ideal * self.noise_factor(launch_index)
    }

    fn noise_factor(&self, launch_index: u32) -> f64 {
        if self.config.noise == 0.0 {
            return 1.0;
        }
        // Sum of four uniforms, centred: approximately Gaussian in
        // [-2, 2] with unit-ish variance.
        let mut z = 0.0;
        for i in 0..4u64 {
            let h = mix(self.config.trial_seed, (launch_index as u64) << 3 | i);
            z += (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        }
        let centred = (z - 2.0) * 1.0; // [-2, 2]
        1.0 + self.config.noise * centred
    }
}

fn mix(seed: u64, x: u64) -> u64 {
    let mut v = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    v ^= v >> 30;
    v = v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    v ^= v >> 27;
    v = v.wrapping_mul(0x94D0_49BB_1331_11EB);
    v ^= v >> 31;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::GpuGeneration;

    fn model(freq: f64, seed: u64, noise: f64) -> TimingModel {
        TimingModel::new(
            GpuGeneration::IvyBridgeHd4000.topology(),
            TimingConfig {
                frequency_hz: freq,
                trial_seed: seed,
                noise,
                launch_overhead_s: 2.0e-6,
            },
        )
    }

    fn stats(issue: u64, threads: u64, hits: u64, misses: u64) -> ExecutionStats {
        ExecutionStats {
            instructions: issue,
            issue_cycles: issue,
            hw_threads: threads,
            cache_hits: hits,
            cache_misses: misses,
            ..Default::default()
        }
    }

    #[test]
    fn compute_time_scales_inversely_with_frequency() {
        let s = stats(1_000_000, 128, 0, 0);
        let fast = model(1.15e9, 1, 0.0).launch_seconds_ideal(&s);
        let slow = model(0.35e9, 1, 0.0).launch_seconds_ideal(&s);
        let ratio = (slow - 2e-6) / (fast - 2e-6);
        assert!((ratio - 1.15e9 / 0.35e9).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn dram_time_does_not_scale_with_frequency() {
        // Memory-dominated launch: almost all time is misses.
        let s = stats(100, 128, 0, 1_000_000);
        let fast = model(1.15e9, 1, 0.0).launch_seconds_ideal(&s);
        let slow = model(0.35e9, 1, 0.0).launch_seconds_ideal(&s);
        assert!(
            slow / fast < 1.1,
            "memory-bound kernels barely slow down: {}",
            slow / fast
        );
    }

    #[test]
    fn low_occupancy_launches_are_less_efficient() {
        let full = stats(1_000_000, 128, 0, 0);
        let tiny = stats(1_000_000, 1, 0, 0);
        let m = model(1.15e9, 1, 0.0);
        assert!(
            m.launch_seconds_ideal(&tiny) > 10.0 * m.launch_seconds_ideal(&full),
            "single-thread launches can't use 16 EUs"
        );
    }

    #[test]
    fn noise_is_small_bounded_and_trial_dependent() {
        let s = stats(1_000_000, 128, 1000, 1000);
        let m1 = model(1.15e9, 1, 0.01);
        let m2 = model(1.15e9, 2, 0.01);
        let ideal = m1.launch_seconds_ideal(&s);
        let mut differs = false;
        for i in 0..100 {
            let a = m1.launch_seconds(&s, i);
            let b = m2.launch_seconds(&s, i);
            assert!(
                (a / ideal - 1.0).abs() <= 0.02 + 1e-9,
                "noise bounded at 2σ"
            );
            if (a - b).abs() > 1e-15 {
                differs = true;
            }
        }
        assert!(differs, "different trials see different noise");
        assert_eq!(
            m1.launch_seconds(&s, 5),
            m1.launch_seconds(&s, 5),
            "same trial replays identically"
        );
    }

    #[test]
    fn haswell_outruns_ivy_bridge_on_wide_work() {
        let s = stats(10_000_000, 160, 0, 0);
        let ivy = TimingModel::new(
            GpuGeneration::IvyBridgeHd4000.topology(),
            TimingConfig {
                noise: 0.0,
                ..Default::default()
            },
        );
        let hsw = TimingModel::new(
            GpuGeneration::HaswellHd4600.topology(),
            TimingConfig {
                noise: 0.0,
                frequency_hz: 1.25e9,
                ..Default::default()
            },
        );
        assert!(hsw.launch_seconds_ideal(&s) < ivy.launch_seconds_ideal(&s));
    }
}
