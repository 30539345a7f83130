//! Static cycle-cost model over a kernel's loop forest.
//!
//! Walks every reachable block, prices its instructions with
//! per-[`OpcodeCategory`] issue tables, and multiplies by the trip
//! product of the loops containing it (proven trip counts where the
//! matcher succeeded, an assumed default otherwise). All accounting
//! is integer (`u64`, saturating) so the estimate is bit-stable
//! across platforms and thread counts.
//!
//! The tables come from the `gpu-device` topology via
//! `GpuTopology::cost_params()` — EU count, threads per EU and
//! frequency shape the send latency and the bandwidth divisor — so
//! the same kernel prices differently on Ivy Bridge and Haswell, the
//! way the paper's design-space exploration expects.

use crate::cfg::Cfg;
use crate::dominators::Dominators;
use crate::loops::{LoopForest, TripCount};
use gen_isa::Instruction;

/// Device-derived pricing knobs. Constructed by
/// `gpu_device::GpuTopology::cost_params()` or directly in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Issue cycles per [`OpcodeCategory`], indexed by
    /// [`OpcodeCategory::index`]. The send entry is the *base* issue
    /// cost; payload cycles are added from the descriptor.
    pub issue_cycles: [u64; 5],
    /// Extra cycles for extended-math opcodes (`inv`, `sqrt`,
    /// transcendentals) on top of their category issue cost.
    pub extended_math_cycles: u64,
    /// Bytes one send moves per cycle (bandwidth divisor).
    pub send_bytes_per_cycle: u64,
    /// Native FPU width in lanes; wider instructions issue
    /// `lanes / native` times.
    pub native_simd_lanes: u64,
    /// Iterations assumed for loops whose trip count the matcher
    /// could not bound.
    pub assumed_trips: u64,
}

impl CostParams {
    /// Cycle price of one instruction.
    pub fn instruction_cycles(&self, instr: &Instruction) -> u64 {
        let cat = instr.opcode.category();
        let mut cycles = self.issue_cycles[cat.index()];
        if instr.opcode.is_extended_math() {
            cycles += self.extended_math_cycles;
        }
        if let Some(desc) = instr.send {
            cycles += (desc.bytes as u64).div_ceil(self.send_bytes_per_cycle.max(1));
        }
        // SIMD beyond the native width issues in multiple slots.
        let lanes = instr.exec_size.lanes() as u64;
        cycles.saturating_mul(lanes.div_ceil(self.native_simd_lanes.max(1)))
    }
}

/// Cost of one reachable basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCost {
    /// Block index.
    pub block: u32,
    /// Loop-nesting depth (0 = not in any loop).
    pub depth: u32,
    /// Trip multiplier applied to this block.
    pub trips: u64,
    /// Whether every loop level contributing to `trips` was proven
    /// (no assumed defaults).
    pub proven: bool,
    /// Cycles for one pass over the block.
    pub cycles_once: u64,
    /// `cycles_once × trips`, saturating.
    pub cycles_total: u64,
    /// `cycles_total` split per [`OpcodeCategory::index`].
    pub by_category: [u64; 5],
}

/// Static cost of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticCost {
    /// Estimated cycles for one invocation of the kernel.
    pub cycles_per_invocation: u64,
    /// Trip-expanded instruction count (instructions × trips summed
    /// over reachable blocks).
    pub static_instructions: u64,
    /// Per-block provenance, ascending block index. Unreachable
    /// blocks are dead code and are excluded.
    pub blocks: Vec<BlockCost>,
    /// `cycles_per_invocation` split per [`OpcodeCategory::index`].
    pub by_category: [u64; 5],
    /// The parameters used, echoed for provenance.
    pub params: CostParams,
}

impl StaticCost {
    /// Price `cfg` under `params`, using `forest` (with trips already
    /// resolved) for multiplicity.
    pub fn compute(
        cfg: &Cfg<'_>,
        _dom: &Dominators,
        forest: &LoopForest,
        params: &CostParams,
    ) -> StaticCost {
        let mut blocks = Vec::new();
        let mut total = 0u64;
        let mut static_instructions = 0u64;
        let mut by_category = [0u64; 5];
        for b in 0..cfg.num_blocks() {
            if !cfg.reachable()[b] {
                continue;
            }
            let trips = forest.block_trip_product(b, params.assumed_trips);
            let mut proven = true;
            let mut cur = forest.innermost[b];
            while let Some(i) = cur {
                proven &= forest.loops[i].trips.is_proven();
                cur = forest.loops[i].parent;
            }
            let depth = forest.innermost[b].map_or(0, |i| forest.loops[i].depth);

            let mut cycles_once = 0u64;
            let mut block_cat = [0u64; 5];
            let mut instr_count = 0u64;
            for i in cfg.block_range(b) {
                let instr = &cfg.instrs[i];
                let c = params.instruction_cycles(instr);
                cycles_once = cycles_once.saturating_add(c);
                let cat = instr.opcode.category().index();
                block_cat[cat] = block_cat[cat].saturating_add(c.saturating_mul(trips));
                instr_count += 1;
            }
            let cycles_total = cycles_once.saturating_mul(trips);
            total = total.saturating_add(cycles_total);
            static_instructions =
                static_instructions.saturating_add(instr_count.saturating_mul(trips));
            for (acc, c) in by_category.iter_mut().zip(&block_cat) {
                *acc = acc.saturating_add(*c);
            }
            blocks.push(BlockCost {
                block: b as u32,
                depth,
                trips,
                proven,
                cycles_once,
                cycles_total,
                by_category: block_cat,
            });
        }
        StaticCost {
            cycles_per_invocation: total,
            static_instructions,
            blocks,
            by_category,
            params: *params,
        }
    }
}

/// Convenience: resolve trips on `forest` from `ranges`, then price.
pub fn cost_with_ranges(
    cfg: &Cfg<'_>,
    dom: &Dominators,
    forest: &mut LoopForest,
    ranges: &crate::range::ValueRanges,
    params: &CostParams,
) -> StaticCost {
    forest.resolve_trips(cfg, &|block, src| ranges.entry_range(block, src));
    StaticCost::compute(cfg, dom, forest, params)
}

/// Label for one trip count in reports.
pub fn trips_label(t: TripCount, assumed: u64) -> String {
    match t {
        TripCount::Exact(n) => format!("{n}"),
        TripCount::AtMost(n) => format!("≤{n}"),
        TripCount::Unknown => format!("?{assumed}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen_isa::builder::KernelBuilder;
    use gen_isa::{CondMod, ExecSize, FlagReg, Reg, Src, Surface, Terminator};

    /// Flat tables so expectations stay arithmetic.
    pub(crate) fn test_params() -> CostParams {
        CostParams {
            issue_cycles: [1, 1, 2, 2, 16],
            extended_math_cycles: 6,
            send_bytes_per_cycle: 16,
            native_simd_lanes: 4,
            assumed_trips: 16,
        }
    }

    #[test]
    fn prices_instructions_by_category_width_and_payload() {
        let p = test_params();
        let mut mov = Instruction::new(gen_isa::Opcode::Mov, ExecSize::S1);
        mov.dst = Some(Reg(2));
        assert_eq!(p.instruction_cycles(&mov), 1);
        // SIMD16 mov: 16 lanes / 4 native = 4 issue slots.
        let mov16 = Instruction::new(gen_isa::Opcode::Mov, ExecSize::S16);
        assert_eq!(p.instruction_cycles(&mov16), 4);
        // Extended math pays the surcharge on the computation cost.
        let sqrt = Instruction::new(gen_isa::Opcode::Sqrt, ExecSize::S1);
        assert_eq!(p.instruction_cycles(&sqrt), 8);
        // A 64-byte send: 16 base + 64/16 payload.
        let mut send = Instruction::new(gen_isa::Opcode::Send, ExecSize::S8);
        send.send = Some(gen_isa::SendDescriptor {
            op: gen_isa::SendOp::Read,
            surface: Surface::Global,
            bytes: 64,
        });
        assert_eq!(p.instruction_cycles(&send), (16 + 4) * 2);
    }

    #[test]
    fn loop_blocks_multiply_by_trips() {
        // entry(mov) → head(add, cmp, brc ×8) → exit(eot).
        let mut b = KernelBuilder::new("k");
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
        let bin = b.build().unwrap();
        let flat = bin.flatten();
        let cfg = Cfg::from_instrs(&flat.instrs).unwrap();
        let dom = Dominators::compute(&cfg);
        let mut forest = LoopForest::compute(&cfg, &dom);
        let ranges = crate::range::ValueRanges::compute(&cfg, &dom, &forest);
        let cost = cost_with_ranges(&cfg, &dom, &mut forest, &ranges, &test_params());

        // entry: mov(1) + jmpi(2) = 3 cycles once, 1 trip.
        // head: add(2) + cmp(1) + brc(2) = 5 cycles once, 8 trips.
        // exit: eot(2), 1 trip.
        assert_eq!(cost.blocks.len(), 3);
        assert_eq!(cost.blocks[0].cycles_total, 3);
        assert_eq!(cost.blocks[1].trips, 8);
        assert!(cost.blocks[1].proven);
        assert_eq!(cost.blocks[1].cycles_total, 40);
        assert_eq!(cost.blocks[2].cycles_total, 2);
        assert_eq!(cost.cycles_per_invocation, 45);
        // 2 + 3×8 + 1 instructions expanded.
        assert_eq!(cost.static_instructions, 27);
    }
}
