//! The GPU driver's JIT: lowers kernel IR ("source") to GEN binaries.
//!
//! This is the compilation step that happens at `clBuildProgram` time
//! in Figure 1 of the paper — and the exact point where the GT-Pin
//! binary rewriter intercepts the machine-specific binary before it
//! reaches the GPU.
//!
//! # Register conventions
//!
//! | registers | use |
//! |---|---|
//! | `r0` | per-lane global work-item id (`thread_id * 16 + lane`) |
//! | `r1..r9` | kernel arguments (argument *i* in `r1+i`, broadcast) |
//! | `r16..r76` | data pool for generated arithmetic |
//! | `r80..r89` | address computation |
//! | `r90..r98` | computed trip counts |
//! | `r100..r108` | loop counters (by nesting depth) |
//! | `r120..r127` | **reserved for instrumentation** (never emitted) |
//!
//! Flag `f0` belongs to loop back-edges, `f1` to `if` branches and
//! generated `cmp`s.

use gen_isa::builder::KernelBuilder;
use gen_isa::{
    BlockId, CondMod, ExecSize, FlagReg, KernelBinary, Opcode, Reg, Src, Surface, Terminator,
};
use ocl_runtime::ir::{AccessPattern, IrOp, KernelIr, TripCount};

/// First argument register.
pub const ARG_REG_BASE: u8 = 1;
/// Register holding per-lane global work-item ids.
pub const GID_REG: Reg = Reg(0);

/// JIT lowering failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JitError {
    /// The IR failed its structural check.
    BadIr(String),
    /// Too many arguments to fit the register convention.
    TooManyArgs { num_args: u8 },
    /// Lowered code failed ISA validation (a JIT bug).
    Validation(String),
    /// An injected transient build failure (`GTPIN_FAULTS` site
    /// `jit.build_fail`). Retrying the same kernel may succeed —
    /// the driver's bounded retry loop recovers from these.
    Transient {
        /// The kernel whose build transiently failed.
        kernel: String,
    },
}

impl JitError {
    /// Is this failure worth retrying (as opposed to a structural
    /// error that will fail identically every time)?
    pub fn is_transient(&self) -> bool {
        matches!(self, JitError::Transient { .. })
    }
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::BadIr(s) => write!(f, "malformed kernel IR: {s}"),
            JitError::TooManyArgs { num_args } => {
                write!(
                    f,
                    "{num_args} arguments exceed the register convention (max 9)"
                )
            }
            JitError::Validation(s) => write!(f, "lowered binary failed validation: {s}"),
            JitError::Transient { kernel } => {
                write!(
                    f,
                    "transient build failure for kernel `{kernel}` (injected)"
                )
            }
        }
    }
}

impl std::error::Error for JitError {}

/// Register of argument `i`.
pub fn arg_reg(i: u8) -> Reg {
    Reg(ARG_REG_BASE + i)
}

struct LoopCtx {
    head: BlockId,
    counter: Reg,
    trip: Src,
}

struct IfCtx {
    end: BlockId,
}

struct Lowerer {
    b: KernelBuilder,
    cur: BlockId,
    data_cursor: usize,
    addr_cursor: usize,
    trip_cursor: u8,
    loops: Vec<LoopCtx>,
    ifs: Vec<IfCtx>,
}

const DATA_BASE: u8 = 16;
const DATA_POOL: usize = 60;
const ADDR_BASE: u8 = 80;
const ADDR_POOL: usize = 10;
const TRIP_BASE: u8 = 90;
const LOOP_COUNTER_BASE: u8 = 100;

impl Lowerer {
    fn data_reg(&mut self) -> Reg {
        let r = Reg(DATA_BASE + (self.data_cursor % DATA_POOL) as u8);
        self.data_cursor += 1;
        r
    }

    fn data_src(&self, back: usize) -> Src {
        let idx = (self.data_cursor + DATA_POOL - back) % DATA_POOL;
        Src::Reg(Reg(DATA_BASE + idx as u8))
    }

    fn addr_reg(&mut self) -> Reg {
        let r = Reg(ADDR_BASE + (self.addr_cursor % ADDR_POOL) as u8);
        self.addr_cursor += 1;
        r
    }

    fn innermost_counter(&self) -> Src {
        // Outside any loop, the per-lane work-item id plays the role
        // of the iteration variable (and keeps address operands in
        // registers so instructions never carry two immediates).
        self.loops
            .last()
            .map(|l| Src::Reg(l.counter))
            .unwrap_or(Src::Reg(GID_REG))
    }

    fn lower_op(&mut self, op: &IrOp) {
        match *op {
            IrOp::LoopBegin { trip } => {
                let depth = self.loops.len() as u8;
                let counter = Reg(LOOP_COUNTER_BASE + depth);
                let trip_src = match trip {
                    TripCount::Const(n) => Src::Imm(n.max(1)),
                    TripCount::Arg(a) => Src::Reg(arg_reg(a)),
                    TripCount::ArgShifted { arg, shift } => {
                        let t = Reg(TRIP_BASE + self.trip_cursor);
                        self.trip_cursor = (self.trip_cursor + 1) % 9;
                        self.b.block_mut(self.cur).alu2(
                            Opcode::Shr,
                            ExecSize::S1,
                            t,
                            Src::Reg(arg_reg(arg)),
                            Src::Imm(shift as u32),
                        );
                        Src::Reg(t)
                    }
                };
                // Counter bookkeeping runs at full width, as compiled
                // GEN code does — only the branch itself is scalar.
                self.b
                    .block_mut(self.cur)
                    .mov(ExecSize::S16, counter, Src::Imm(0));
                let head = self.b.new_block();
                self.b
                    .set_terminator(self.cur, Terminator::FallThrough(head));
                self.cur = head;
                self.loops.push(LoopCtx {
                    head,
                    counter,
                    trip: trip_src,
                });
            }
            IrOp::LoopEnd => {
                let ctx = self.loops.pop().expect("checked IR has matched loops");
                self.b
                    .block_mut(self.cur)
                    .add(
                        ExecSize::S16,
                        ctx.counter,
                        Src::Reg(ctx.counter),
                        Src::Imm(1),
                    )
                    .cmp(
                        ExecSize::S16,
                        CondMod::Lt,
                        FlagReg::F0,
                        Src::Reg(ctx.counter),
                        ctx.trip,
                    );
                let exit = self.b.new_block();
                self.b.set_terminator(
                    self.cur,
                    Terminator::CondJump {
                        flag: FlagReg::F0,
                        invert: false,
                        taken: ctx.head,
                        fallthrough: exit,
                    },
                );
                self.cur = exit;
            }
            IrOp::Compute { ops, width } => {
                const CYCLE: [Opcode; 7] = [
                    Opcode::Add,
                    Opcode::Mul,
                    Opcode::Mad,
                    Opcode::Min,
                    Opcode::Max,
                    Opcode::Sub,
                    Opcode::Avg,
                ];
                for i in 0..ops {
                    let opc = CYCLE[i as usize % CYCLE.len()];
                    let a = self.data_src(1);
                    let b = self.data_src(2);
                    let c = self.data_src(3);
                    let dst = self.data_reg();
                    let blk = self.b.block_mut(self.cur);
                    match opc.num_sources() {
                        3 => blk.alu3(opc, width, dst, a, b, c),
                        _ => blk.alu2(opc, width, dst, a, b),
                    };
                }
            }
            IrOp::MathCompute { ops, width } => {
                const CYCLE: [Opcode; 6] = [
                    Opcode::Inv,
                    Opcode::Sqrt,
                    Opcode::Exp,
                    Opcode::Log,
                    Opcode::Sin,
                    Opcode::Cos,
                ];
                for i in 0..ops {
                    let opc = CYCLE[i as usize % CYCLE.len()];
                    let a = self.data_src(1);
                    let dst = self.data_reg();
                    self.b.block_mut(self.cur).alu1(opc, width, dst, a);
                }
            }
            IrOp::Logic { ops, width } => {
                const CYCLE: [Opcode; 7] = [
                    Opcode::And,
                    Opcode::Or,
                    Opcode::Xor,
                    Opcode::Shl,
                    Opcode::Shr,
                    Opcode::Asr,
                    Opcode::Not,
                ];
                for i in 0..ops {
                    let opc = CYCLE[i as usize % CYCLE.len()];
                    let a = self.data_src(1);
                    let b = self.data_src(2);
                    let dst = self.data_reg();
                    let blk = self.b.block_mut(self.cur);
                    match opc.num_sources() {
                        1 => blk.alu1(opc, width, dst, a),
                        _ => blk.alu2(opc, width, dst, a, b),
                    };
                }
            }
            IrOp::Move { ops, width } => {
                for i in 0..ops {
                    let a = self.data_src(1);
                    let b = self.data_src(2);
                    let dst = self.data_reg();
                    let blk = self.b.block_mut(self.cur);
                    if i % 4 == 3 {
                        blk.alu2(Opcode::Sel, width, dst, a, b);
                    } else {
                        blk.mov(width, dst, a);
                    }
                }
            }
            IrOp::Load {
                arg,
                bytes,
                width,
                pattern,
            } => {
                let addr = self.lower_address(arg, bytes, pattern);
                let dst = self.data_reg();
                self.b
                    .block_mut(self.cur)
                    .send_read(width, dst, addr, Surface::Global, bytes);
            }
            IrOp::Store {
                arg,
                bytes,
                width,
                pattern,
            } => {
                let addr = self.lower_address(arg, bytes, pattern);
                let data = match self.data_src(1) {
                    Src::Reg(r) => r,
                    _ => Reg(DATA_BASE),
                };
                self.b
                    .block_mut(self.cur)
                    .send_write(width, addr, data, Surface::Global, bytes);
            }
            IrOp::IfArgLt { arg, value } => {
                self.b.block_mut(self.cur).cmp(
                    ExecSize::S16,
                    CondMod::Lt,
                    FlagReg::F1,
                    Src::Reg(arg_reg(arg)),
                    Src::Imm(value),
                );
                let then_block = self.b.new_block();
                let end_block = self.b.new_block();
                // Branch *around* the then-region when the condition
                // fails; then-region is next in layout.
                self.b.set_terminator(
                    self.cur,
                    Terminator::CondJump {
                        flag: FlagReg::F1,
                        invert: true,
                        taken: end_block,
                        fallthrough: then_block,
                    },
                );
                self.cur = then_block;
                self.ifs.push(IfCtx { end: end_block });
            }
            IrOp::EndIf => {
                let ctx = self.ifs.pop().expect("checked IR has matched ifs");
                self.b
                    .set_terminator(self.cur, Terminator::FallThrough(ctx.end));
                self.cur = ctx.end;
            }
        }
    }

    /// Emit address computation for a memory access; returns the
    /// address register.
    fn lower_address(&mut self, arg: u8, bytes: u32, pattern: AccessPattern) -> Reg {
        let addr = self.addr_reg();
        let counter = self.innermost_counter();
        let blk = self.b.block_mut(self.cur);
        // addr = arg_base + gid * 4
        blk.mad(
            ExecSize::S16,
            addr,
            Src::Reg(GID_REG),
            Src::Imm(4),
            Src::Reg(arg_reg(arg)),
        );
        match pattern {
            AccessPattern::Linear => {
                // addr += iter * bytes (consecutive chunks per iteration)
                blk.mad(
                    ExecSize::S16,
                    addr,
                    counter,
                    Src::Imm(bytes.max(1)),
                    Src::Reg(addr),
                );
            }
            AccessPattern::Strided(stride) => {
                blk.mad(
                    ExecSize::S16,
                    addr,
                    counter,
                    Src::Imm(stride),
                    Src::Reg(addr),
                );
            }
            AccessPattern::Gather => {
                let h = self.addr_reg();
                let blk = self.b.block_mut(self.cur);
                blk.alu2(
                    Opcode::Mul,
                    ExecSize::S16,
                    h,
                    counter,
                    Src::Imm(0x9E37_79B1),
                );
                blk.alu2(
                    Opcode::Xor,
                    ExecSize::S16,
                    h,
                    Src::Reg(h),
                    Src::Reg(GID_REG),
                );
                blk.alu2(
                    Opcode::And,
                    ExecSize::S16,
                    h,
                    Src::Reg(h),
                    Src::Imm(0x003F_FFC0),
                );
                blk.add(ExecSize::S16, addr, Src::Reg(addr), Src::Reg(h));
            }
        }
        addr
    }
}

/// Lower one kernel IR to a GEN binary.
///
/// # Errors
///
/// Returns [`JitError::BadIr`] when the IR is structurally invalid,
/// [`JitError::TooManyArgs`] past the register convention, and
/// [`JitError::Validation`] if the produced binary fails ISA
/// validation (which would be a JIT bug).
pub fn compile_kernel(ir: &KernelIr) -> Result<KernelBinary, JitError> {
    if gtpin_faults::enabled() {
        // Each build attempt of the same kernel draws an independent
        // (but replay-identical) decision: the occurrence counter
        // advances per attempt, so a bounded retry loop converges at
        // any rate below 1.
        let id = gtpin_faults::hash_str(&ir.name);
        let attempt = gtpin_faults::occurrence(gtpin_faults::site::JIT_FAIL, id);
        if gtpin_faults::should_inject(gtpin_faults::site::JIT_FAIL, id ^ (attempt + 1)) {
            return Err(JitError::Transient {
                kernel: ir.name.clone(),
            });
        }
    }
    ir.check().map_err(|e| JitError::BadIr(e.to_string()))?;
    if ir.num_args > 9 {
        return Err(JitError::TooManyArgs {
            num_args: ir.num_args,
        });
    }

    let mut b = KernelBuilder::new(ir.name.clone());
    b.set_num_args(ir.num_args);
    let entry = b.entry_block();
    let mut lo = Lowerer {
        b,
        cur: entry,
        data_cursor: 0,
        addr_cursor: 0,
        trip_cursor: 0,
        loops: Vec::new(),
        ifs: Vec::new(),
    };
    // Seed the data pool so generated arithmetic has varied inputs.
    lo.b.block_mut(entry)
        .mov(ExecSize::S16, Reg(DATA_BASE), Src::Reg(GID_REG))
        .add(
            ExecSize::S16,
            Reg(DATA_BASE + 1),
            Src::Reg(GID_REG),
            Src::Imm(0x55),
        );
    lo.data_cursor = 2;

    for op in &ir.body {
        lo.lower_op(op);
    }
    lo.b.block_mut(lo.cur).eot();
    lo.b.build()
        .map_err(|e| JitError::Validation(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen_isa::validate::validate;

    fn ir_with(body: Vec<IrOp>, num_args: u8) -> KernelIr {
        let mut k = KernelIr::new("k", num_args);
        k.body = body;
        k
    }

    #[test]
    fn straight_line_kernel_compiles_and_validates() {
        let k = compile_kernel(&ir_with(
            vec![IrOp::Compute {
                ops: 10,
                width: ExecSize::S16,
            }],
            0,
        ))
        .unwrap();
        assert!(validate(&k).is_ok());
        // 2 seeds + 10 compute + eot
        assert_eq!(k.static_instruction_count(), 13);
        assert_eq!(k.num_blocks(), 1);
    }

    #[test]
    fn loop_creates_head_and_exit_blocks() {
        let k = compile_kernel(&ir_with(
            vec![
                IrOp::LoopBegin {
                    trip: TripCount::Const(4),
                },
                IrOp::Compute {
                    ops: 2,
                    width: ExecSize::S8,
                },
                IrOp::LoopEnd,
            ],
            0,
        ))
        .unwrap();
        assert!(
            k.num_blocks() >= 3,
            "pre-loop, head, exit: {}",
            k.num_blocks()
        );
        let flat = k.flatten();
        assert!(
            flat.instrs
                .iter()
                .any(|i| i.opcode == Opcode::Brc && i.branch_offset < 0),
            "loop has a backward branch"
        );
    }

    #[test]
    fn if_region_lowered_with_inverted_branch() {
        let k = compile_kernel(&ir_with(
            vec![
                IrOp::IfArgLt { arg: 0, value: 5 },
                IrOp::Compute {
                    ops: 3,
                    width: ExecSize::S16,
                },
                IrOp::EndIf,
            ],
            1,
        ))
        .unwrap();
        let flat = k.flatten();
        let brc = flat
            .instrs
            .iter()
            .find(|i| i.opcode == Opcode::Brc)
            .expect("has a conditional branch");
        assert!(brc.pred.unwrap().invert, "branches around the then-region");
        assert!(brc.branch_offset > 0, "forward branch");
    }

    #[test]
    fn memory_ops_produce_global_sends() {
        let k = compile_kernel(&ir_with(
            vec![
                IrOp::Load {
                    arg: 0,
                    bytes: 64,
                    width: ExecSize::S16,
                    pattern: AccessPattern::Linear,
                },
                IrOp::Store {
                    arg: 1,
                    bytes: 32,
                    width: ExecSize::S8,
                    pattern: AccessPattern::Gather,
                },
            ],
            2,
        ))
        .unwrap();
        let flat = k.flatten();
        let reads: u64 = flat.instrs.iter().map(|i| i.app_bytes_read()).sum();
        let writes: u64 = flat.instrs.iter().map(|i| i.app_bytes_written()).sum();
        assert_eq!(reads, 64);
        assert_eq!(writes, 32);
    }

    #[test]
    fn app_code_never_touches_instrumentation_registers() {
        let k = compile_kernel(&ir_with(
            vec![
                IrOp::LoopBegin {
                    trip: TripCount::ArgShifted { arg: 0, shift: 3 },
                },
                IrOp::Compute {
                    ops: 50,
                    width: ExecSize::S16,
                },
                IrOp::Load {
                    arg: 1,
                    bytes: 64,
                    width: ExecSize::S16,
                    pattern: AccessPattern::Strided(256),
                },
                IrOp::LoopEnd,
            ],
            2,
        ))
        .unwrap();
        assert!(k.metadata.max_app_reg <= gen_isa::FIRST_INSTRUMENTATION_REG);
        assert!(!k.metadata.instrumented);
    }

    #[test]
    fn bad_ir_rejected() {
        let err = compile_kernel(&ir_with(vec![IrOp::LoopEnd], 0)).unwrap_err();
        assert!(matches!(err, JitError::BadIr(_)));
    }

    #[test]
    fn too_many_args_rejected() {
        let err = compile_kernel(&ir_with(vec![], 12)).unwrap_err();
        assert_eq!(err, JitError::TooManyArgs { num_args: 12 });
    }

    #[test]
    fn nested_loops_use_distinct_counters() {
        let k = compile_kernel(&ir_with(
            vec![
                IrOp::LoopBegin {
                    trip: TripCount::Const(3),
                },
                IrOp::LoopBegin {
                    trip: TripCount::Const(5),
                },
                IrOp::Compute {
                    ops: 1,
                    width: ExecSize::S4,
                },
                IrOp::LoopEnd,
                IrOp::LoopEnd,
            ],
            0,
        ))
        .unwrap();
        let flat = k.flatten();
        let counters: std::collections::HashSet<u8> = flat
            .instrs
            .iter()
            .filter(|i| i.opcode == Opcode::Mov && matches!(i.srcs[0], Src::Imm(0)))
            .filter_map(|i| i.dst.map(|r| r.0))
            .filter(|&r| r >= LOOP_COUNTER_BASE)
            .collect();
        assert_eq!(counters.len(), 2, "two distinct loop counter registers");
    }
}
