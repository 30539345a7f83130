//! Feature-vector kinds — Table III of the paper.
//!
//! Each interval is summarized as a sparse vector of `(key, value)`
//! pairs. Keys identify program events at kernel or basic-block
//! granularity, optionally refined with argument values, global work
//! sizes, or memory byte counts; values are dynamic occurrence
//! counts **weighted by instruction count** (Section V-B explains
//! why: a block executed 5 times at 20 instructions matters more
//! than one executed 10 times at 3).

use serde::{Deserialize, Serialize};
use simpoint::FeatureVector;

use crate::data::AppData;
use crate::interval::Interval;

/// The ten feature-vector constructions of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Kernel.
    Kn,
    /// Kernel + argument values.
    KnArgs,
    /// Kernel + global work size.
    KnGws,
    /// Kernel + argument values + global work size.
    KnArgsGws,
    /// Kernel, plus bytes-read and bytes-written mass.
    KnRw,
    /// Basic block.
    Bb,
    /// Basic block, plus bytes-read mass.
    BbR,
    /// Basic block, plus bytes-written mass.
    BbW,
    /// Basic block, plus separate read and write masses.
    BbRW,
    /// Basic block, plus combined read+write mass.
    BbRPlusW,
}

impl FeatureKind {
    /// All ten kinds, in Table III order.
    pub const ALL: [FeatureKind; 10] = [
        FeatureKind::Kn,
        FeatureKind::KnArgs,
        FeatureKind::KnGws,
        FeatureKind::KnArgsGws,
        FeatureKind::KnRw,
        FeatureKind::Bb,
        FeatureKind::BbR,
        FeatureKind::BbW,
        FeatureKind::BbRW,
        FeatureKind::BbRPlusW,
    ];

    /// The paper's identifier (Table III).
    pub fn label(self) -> &'static str {
        match self {
            FeatureKind::Kn => "KN",
            FeatureKind::KnArgs => "KN-ARGS",
            FeatureKind::KnGws => "KN-GWS",
            FeatureKind::KnArgsGws => "KN-ARGS-GWS",
            FeatureKind::KnRw => "KN-RW",
            FeatureKind::Bb => "BB",
            FeatureKind::BbR => "BB-R",
            FeatureKind::BbW => "BB-W",
            FeatureKind::BbRW => "BB-R-W",
            FeatureKind::BbRPlusW => "BB-(R+W)",
        }
    }

    /// Whether this kind is basic-block based (vs kernel based).
    pub fn is_block_based(self) -> bool {
        matches!(
            self,
            FeatureKind::Bb
                | FeatureKind::BbR
                | FeatureKind::BbW
                | FeatureKind::BbRW
                | FeatureKind::BbRPlusW
        )
    }

    /// Whether this kind incorporates memory access information.
    pub fn uses_memory(self) -> bool {
        matches!(
            self,
            FeatureKind::KnRw
                | FeatureKind::BbR
                | FeatureKind::BbW
                | FeatureKind::BbRW
                | FeatureKind::BbRPlusW
        )
    }
}

impl std::fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// Key-space tags keep different event families from colliding.
const TAG_KERNEL: u64 = 1 << 60;
const TAG_BLOCK: u64 = 2 << 60;
const TAG_READS: u64 = 3 << 60;
const TAG_WRITES: u64 = 4 << 60;
const TAG_RW: u64 = 5 << 60;

fn mix2(a: u64, b: u64) -> u64 {
    let mut v = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    v ^= v >> 29;
    v = v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    v ^= v >> 32;
    v & !(0xF << 60)
}

/// How feature-vector entries are valued.
///
/// The paper weights every entry by instruction count (Section V-B:
/// a block executed 5 times at 20 instructions should outweigh one
/// executed 10 times at 3). `RawCounts` is the ablation — plain
/// occurrence counting — kept to let the weighting's contribution be
/// measured (see the weighting ablation in `paper-report`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureWeighting {
    /// The paper's choice: entries weighted by dynamic instructions.
    InstructionWeighted,
    /// Ablation: raw occurrence counts.
    RawCounts,
}

/// Build the feature vector of one interval under `kind`.
pub fn feature_vector(data: &AppData, interval: Interval, kind: FeatureKind) -> FeatureVector {
    feature_vector_weighted(data, interval, kind, FeatureWeighting::InstructionWeighted)
}

/// Build the feature vector of one interval under `kind` with an
/// explicit weighting policy.
pub fn feature_vector_weighted(
    data: &AppData,
    interval: Interval,
    kind: FeatureKind,
    weighting: FeatureWeighting,
) -> FeatureVector {
    let mut v = FeatureVector::new();
    for inv in &data.invocations[interval.start..interval.end] {
        let weight = match weighting {
            FeatureWeighting::InstructionWeighted => inv.instructions as f64,
            FeatureWeighting::RawCounts => 1.0,
        };
        let k = inv.kernel_index as u64;
        match kind {
            FeatureKind::Kn => v.add(TAG_KERNEL | mix2(k, 0), weight),
            FeatureKind::KnArgs => v.add(TAG_KERNEL | mix2(k, inv.args_digest), weight),
            FeatureKind::KnGws => v.add(TAG_KERNEL | mix2(k, inv.global_work_size), weight),
            FeatureKind::KnArgsGws => v.add(
                TAG_KERNEL | mix2(mix2(k, inv.args_digest), inv.global_work_size),
                weight,
            ),
            FeatureKind::KnRw => {
                v.add(TAG_KERNEL | mix2(k, 0), weight);
                v.add(TAG_READS, inv.bytes_read as f64);
                v.add(TAG_WRITES, inv.bytes_written as f64);
            }
            FeatureKind::Bb
            | FeatureKind::BbR
            | FeatureKind::BbW
            | FeatureKind::BbRW
            | FeatureKind::BbRPlusW => {
                let sizes = &data.kernels[inv.kernel_index as usize].block_sizes;
                for (bb, &count) in inv.bb_counts.iter().enumerate() {
                    if count == 0 {
                        continue;
                    }
                    let size = match weighting {
                        FeatureWeighting::InstructionWeighted => {
                            sizes.get(bb).copied().unwrap_or(1)
                        }
                        FeatureWeighting::RawCounts => 1,
                    };
                    v.add(TAG_BLOCK | mix2(k, bb as u64), (count * size) as f64);
                }
                match kind {
                    FeatureKind::BbR => v.add(TAG_READS, inv.bytes_read as f64),
                    FeatureKind::BbW => v.add(TAG_WRITES, inv.bytes_written as f64),
                    FeatureKind::BbRW => {
                        v.add(TAG_READS, inv.bytes_read as f64);
                        v.add(TAG_WRITES, inv.bytes_written as f64);
                    }
                    FeatureKind::BbRPlusW => {
                        v.add(TAG_RW, (inv.bytes_read + inv.bytes_written) as f64)
                    }
                    _ => {}
                }
            }
        }
    }
    v
}

/// Build feature vectors for every interval.
pub fn feature_vectors(
    data: &AppData,
    intervals: &[Interval],
    kind: FeatureKind,
) -> Vec<FeatureVector> {
    intervals
        .iter()
        .map(|&iv| feature_vector(data, iv, kind))
        .collect()
}

/// Build feature vectors for every interval with an explicit
/// weighting policy (used by the weighting ablation).
pub fn feature_vectors_weighted(
    data: &AppData,
    intervals: &[Interval],
    kind: FeatureKind,
    weighting: FeatureWeighting,
) -> Vec<FeatureVector> {
    intervals
        .iter()
        .map(|&iv| feature_vector_weighted(data, iv, kind, weighting))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::test_support::synthetic_app;
    use crate::interval::{build_intervals, IntervalScheme};

    #[test]
    fn table_iii_has_ten_kinds_with_distinct_labels() {
        let mut labels: Vec<&str> = FeatureKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 10);
    }

    #[test]
    fn classification_flags() {
        assert!(FeatureKind::Bb.is_block_based());
        assert!(!FeatureKind::Kn.is_block_based());
        assert!(FeatureKind::KnRw.uses_memory());
        assert!(FeatureKind::BbRPlusW.uses_memory());
        assert!(!FeatureKind::Bb.uses_memory());
        assert_eq!(
            FeatureKind::ALL.iter().filter(|k| k.uses_memory()).count(),
            5
        );
        assert_eq!(
            FeatureKind::ALL
                .iter()
                .filter(|k| k.is_block_based())
                .count(),
            5
        );
    }

    #[test]
    fn kn_merges_all_launches_of_a_kernel() {
        let d = synthetic_app(1, 6);
        let iv = Interval { start: 0, end: 6 };
        let v = feature_vector(&d, iv, FeatureKind::Kn);
        assert_eq!(v.len(), 2, "two kernels → two keys");
        assert!((v.l1() - d.total_instructions() as f64).abs() < 1e-9);
    }

    #[test]
    fn kn_args_distinguishes_argument_values() {
        let d = synthetic_app(1, 6);
        let iv = Interval { start: 0, end: 6 };
        let v = feature_vector(&d, iv, FeatureKind::KnArgs);
        assert!(
            v.len() > 2,
            "distinct args per launch split the keys: {}",
            v.len()
        );
    }

    #[test]
    fn bb_features_are_instruction_weighted() {
        let d = synthetic_app(1, 2);
        let iv = Interval { start: 0, end: 1 }; // kernel 0: blocks [1,100,1] × sizes [5,95,3]
        let v = feature_vector(&d, iv, FeatureKind::Bb);
        assert_eq!(v.len(), 3);
        assert!((v.l1() - (5.0 + 100.0 * 95.0 + 3.0)).abs() < 1e-9);
    }

    #[test]
    fn memory_variants_add_mass_entries() {
        let d = synthetic_app(1, 2);
        let iv = Interval { start: 0, end: 2 };
        let bb = feature_vector(&d, iv, FeatureKind::Bb);
        let bbr = feature_vector(&d, iv, FeatureKind::BbR);
        let bbrw = feature_vector(&d, iv, FeatureKind::BbRW);
        let bbsum = feature_vector(&d, iv, FeatureKind::BbRPlusW);
        assert_eq!(bbr.len(), bb.len() + 1);
        assert_eq!(bbrw.len(), bb.len() + 2);
        assert_eq!(bbsum.len(), bb.len() + 1);
        let reads: u64 = d.invocations[..2].iter().map(|i| i.bytes_read).sum();
        assert!((bbr.get(TAG_READS) - reads as f64).abs() < 1e-9);
    }

    #[test]
    fn distinct_memory_behaviour_separates_bbr_but_not_bb() {
        // Two intervals with identical block profiles but different
        // byte traffic.
        let mut d = synthetic_app(2, 1); // 2 epochs × 1 invocation of kernel 0
        d.invocations[1].bytes_read = d.invocations[0].bytes_read * 100;
        d.invocations[1].args_digest = d.invocations[0].args_digest;
        let ivs = build_intervals(&d, IntervalScheme::SingleKernel);
        let bb0 = feature_vector(&d, ivs[0], FeatureKind::Bb);
        let bb1 = feature_vector(&d, ivs[1], FeatureKind::Bb);
        assert_eq!(bb0, bb1, "BB is blind to byte traffic");
        let r0 = feature_vector(&d, ivs[0], FeatureKind::BbR);
        let r1 = feature_vector(&d, ivs[1], FeatureKind::BbR);
        assert_ne!(r0, r1, "BB-R separates them");
    }
}
