//! Per-kernel structural-analysis reports.
//!
//! [`analyze_kernel`] runs the full structural pipeline — CFG,
//! dominators, natural loops, value ranges, trip counts, static cost
//! — over one [`KernelBinary`] and aggregates the result into a
//! [`KernelReport`]: renderable as deterministic text, serializable
//! to JSON, and digestible with FNV-1a. [`analyze_kernels`] fans the
//! same computation over a program's kernels with
//! `gtpin_par::parallel_map`; results are collected in index order,
//! so the output (and therefore the digest) is bitwise identical at
//! any thread count.
//!
//! The report's `content_hash` is the FNV-1a of the kernel's encoded
//! bytes — the key `gtpin-serve` memoizes analyses under, so two
//! apps sharing a kernel body share one analysis.

use crate::cfg::Cfg;
use crate::cost::{self, CostParams, StaticCost};
use crate::dominators::Dominators;
use crate::loops::LoopForest;
use crate::range::{Interval, ValueRanges};
use gen_isa::{DecodeError, KernelBinary, OpcodeCategory, NUM_GRF};
use serde::json::{Number, Value};
use std::fmt::Write as _;

/// FNV-1a offset basis (the workspace-wide digest convention).
const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte slice: `gtpin_obs::frame::fnv64`, repeated
/// because depending on `gtpin-obs` here would change the lock file
/// the `pipeline` benchmark builds from.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_BASIS;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One loop in the forest, report-shaped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopReport {
    /// Head block.
    pub head: u32,
    /// Nesting depth (1 = outermost).
    pub depth: u32,
    /// Number of member blocks.
    pub blocks: u32,
    /// Backedge tail blocks.
    pub tails: Vec<u32>,
    /// Rendered trip count (`8`, `≤40`, or `?16` for assumed).
    pub trips: String,
}

/// Non-trivial register intervals at one block's entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRanges {
    /// Block index.
    pub block: u32,
    /// `(register, interval)` rows for registers the analysis
    /// constrained below TOP, ascending register index.
    pub regs: Vec<(u8, Interval)>,
}

/// The full structural analysis of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel name.
    pub kernel: String,
    /// FNV-1a of the kernel's encoded bytes — the cross-request
    /// memoization key.
    pub content_hash: u64,
    /// Basic-block count.
    pub num_blocks: u32,
    /// Flat instruction count.
    pub num_instrs: u32,
    /// Loop forest, ascending head block.
    pub loops: Vec<LoopReport>,
    /// Value-range rows, ascending block; blocks with nothing proven
    /// are omitted.
    pub ranges: Vec<BlockRanges>,
    /// The static cost estimate.
    pub cost: StaticCost,
}

impl KernelReport {
    /// Deterministic text rendering — the bytes [`KernelReport::digest`]
    /// hashes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kernel {} hash={:016x} blocks={} instrs={} loops={}",
            self.kernel,
            self.content_hash,
            self.num_blocks,
            self.num_instrs,
            self.loops.len()
        );
        for l in &self.loops {
            let tails: Vec<String> = l.tails.iter().map(|t| format!("bb{t}")).collect();
            let _ = writeln!(
                out,
                "  loop head=bb{} depth={} blocks={} tails=[{}] trips={}",
                l.head,
                l.depth,
                l.blocks,
                tails.join(","),
                l.trips
            );
        }
        for r in &self.ranges {
            let _ = write!(out, "  ranges bb{}:", r.block);
            for (reg, iv) in &r.regs {
                let _ = write!(out, " r{reg}={iv}");
            }
            out.push('\n');
        }
        for b in &self.cost.blocks {
            let _ = writeln!(
                out,
                "  cost bb{} depth={} trips={}{} once={} total={}",
                b.block,
                b.depth,
                if b.proven { "" } else { "~" },
                b.trips,
                b.cycles_once,
                b.cycles_total
            );
        }
        let cats: Vec<String> = OpcodeCategory::ALL
            .iter()
            .map(|c| format!("{}={}", c.label(), self.cost.by_category[c.index()]))
            .collect();
        let _ = writeln!(
            out,
            "  cost total cycles={} static_instrs={} {}",
            self.cost.cycles_per_invocation,
            self.cost.static_instructions,
            cats.join(" ")
        );
        out
    }

    /// FNV-1a digest of the rendered report.
    pub fn digest(&self) -> u64 {
        fnv64(self.render().as_bytes())
    }

    /// JSON shape of the report.
    pub fn to_json(&self) -> Value {
        let loops = self
            .loops
            .iter()
            .map(|l| {
                Value::Obj(vec![
                    ("head".to_string(), Value::Num(Number::U(l.head as u64))),
                    ("depth".to_string(), Value::Num(Number::U(l.depth as u64))),
                    ("blocks".to_string(), Value::Num(Number::U(l.blocks as u64))),
                    (
                        "tails".to_string(),
                        Value::Arr(
                            l.tails
                                .iter()
                                .map(|&t| Value::Num(Number::U(t as u64)))
                                .collect(),
                        ),
                    ),
                    ("trips".to_string(), Value::Str(l.trips.clone())),
                ])
            })
            .collect();
        let ranges = self
            .ranges
            .iter()
            .map(|r| {
                Value::Obj(vec![
                    ("block".to_string(), Value::Num(Number::U(r.block as u64))),
                    (
                        "regs".to_string(),
                        Value::Obj(
                            r.regs
                                .iter()
                                .map(|(reg, iv)| {
                                    (
                                        format!("r{reg}"),
                                        Value::Arr(vec![
                                            Value::Num(Number::U(iv.lo as u64)),
                                            Value::Num(Number::U(iv.hi as u64)),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let blocks = self
            .cost
            .blocks
            .iter()
            .map(|b| {
                Value::Obj(vec![
                    ("block".to_string(), Value::Num(Number::U(b.block as u64))),
                    ("depth".to_string(), Value::Num(Number::U(b.depth as u64))),
                    ("trips".to_string(), Value::Num(Number::U(b.trips))),
                    ("proven".to_string(), Value::Bool(b.proven)),
                    (
                        "cycles_once".to_string(),
                        Value::Num(Number::U(b.cycles_once)),
                    ),
                    (
                        "cycles_total".to_string(),
                        Value::Num(Number::U(b.cycles_total)),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("kernel".to_string(), Value::Str(self.kernel.clone())),
            (
                "content_hash".to_string(),
                Value::Str(format!("{:016x}", self.content_hash)),
            ),
            (
                "blocks".to_string(),
                Value::Num(Number::U(self.num_blocks as u64)),
            ),
            (
                "instrs".to_string(),
                Value::Num(Number::U(self.num_instrs as u64)),
            ),
            ("loops".to_string(), Value::Arr(loops)),
            ("ranges".to_string(), Value::Arr(ranges)),
            (
                "cycles_per_invocation".to_string(),
                Value::Num(Number::U(self.cost.cycles_per_invocation)),
            ),
            (
                "static_instructions".to_string(),
                Value::Num(Number::U(self.cost.static_instructions)),
            ),
            ("cost_blocks".to_string(), Value::Arr(blocks)),
        ])
    }
}

/// Run the full structural pipeline over one kernel.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the instruction stream is
/// structurally invalid (a branch target off the stream).
pub fn analyze_kernel(
    bin: &KernelBinary,
    params: &CostParams,
) -> Result<KernelReport, DecodeError> {
    let content_hash = fnv64(&bin.encode());
    let flat = bin.flatten();
    let cfg = Cfg::from_instrs(&flat.instrs)?;
    let dom = Dominators::compute(&cfg);
    let mut forest = LoopForest::compute(&cfg, &dom);
    let ranges = ValueRanges::compute(&cfg, &dom, &forest);
    let cost = cost::cost_with_ranges(&cfg, &dom, &mut forest, &ranges, params);

    let loops = forest
        .loops
        .iter()
        .map(|l| LoopReport {
            head: l.head as u32,
            depth: l.depth,
            blocks: l.body.len() as u32,
            tails: l.tails.iter().map(|&t| t as u32).collect(),
            trips: cost::trips_label(l.trips, params.assumed_trips),
        })
        .collect();

    let mut range_rows = Vec::new();
    for b in 0..cfg.num_blocks() {
        if !cfg.reachable()[b] {
            continue;
        }
        let entry = ranges.block_entry(b);
        let regs: Vec<(u8, Interval)> = (0..NUM_GRF)
            .filter(|&r| !entry[r as usize].is_top())
            .map(|r| (r, entry[r as usize]))
            .collect();
        if !regs.is_empty() {
            range_rows.push(BlockRanges {
                block: b as u32,
                regs,
            });
        }
    }

    Ok(KernelReport {
        kernel: bin.name.clone(),
        content_hash,
        num_blocks: cfg.num_blocks() as u32,
        num_instrs: flat.instrs.len() as u32,
        loops,
        ranges: range_rows,
        cost,
    })
}

/// Analyze every kernel of a program in parallel. Results come back
/// in input order regardless of `threads`, so renders and digests
/// are thread-count invariant.
///
/// # Errors
///
/// The first structurally invalid kernel (by input order) fails the
/// whole batch.
pub fn analyze_kernels(
    bins: &[KernelBinary],
    params: &CostParams,
    threads: usize,
) -> Result<Vec<KernelReport>, DecodeError> {
    gtpin_par::parallel_map(bins, threads, |_, bin| analyze_kernel(bin, params))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen_isa::builder::KernelBuilder;
    use gen_isa::{CondMod, ExecSize, FlagReg, Reg, Src, Terminator};

    fn params() -> CostParams {
        CostParams {
            issue_cycles: [1, 1, 2, 2, 16],
            extended_math_cycles: 6,
            send_bytes_per_cycle: 16,
            native_simd_lanes: 4,
            assumed_trips: 16,
        }
    }

    fn looped() -> KernelBinary {
        let mut b = KernelBuilder::new("looped");
        let entry = b.entry_block();
        let head = b.new_block();
        let exit = b.new_block();
        b.block_mut(entry).mov(ExecSize::S1, Reg(2), Src::Imm(0));
        b.set_terminator(entry, Terminator::Jump(head));
        b.block_mut(head)
            .add(ExecSize::S1, Reg(2), Src::Reg(Reg(2)), Src::Imm(1))
            .cmp(
                ExecSize::S1,
                CondMod::Lt,
                FlagReg::F0,
                Src::Reg(Reg(2)),
                Src::Imm(8),
            );
        b.set_terminator(
            head,
            Terminator::CondJump {
                flag: FlagReg::F0,
                invert: false,
                taken: head,
                fallthrough: exit,
            },
        );
        b.block_mut(exit).eot();
        b.build().unwrap()
    }

    #[test]
    fn report_is_deterministic_and_digestible() {
        let bin = looped();
        let r1 = analyze_kernel(&bin, &params()).unwrap();
        let r2 = analyze_kernel(&bin, &params()).unwrap();
        assert_eq!(r1.render(), r2.render());
        assert_eq!(r1.digest(), r2.digest());
        assert_eq!(r1.loops.len(), 1);
        assert_eq!(r1.loops[0].trips, "8");
        let text = r1.render();
        assert!(text.contains("loop head=bb1"), "{text}");
        assert!(text.contains("trips=8"), "{text}");
        // JSON renders without panicking and mentions the kernel.
        let mut json = String::new();
        serde::json::render(&r1.to_json(), &mut json);
        assert!(json.contains("\"looped\""), "{json}");
    }

    #[test]
    fn batch_matches_serial_at_any_thread_count() {
        let bins: Vec<KernelBinary> = (0..6).map(|_| looped()).collect();
        let serial = analyze_kernels(&bins, &params(), 1).unwrap();
        for threads in 2..=8 {
            let par = analyze_kernels(&bins, &params(), threads).unwrap();
            assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.render(), b.render());
            }
        }
    }
}
