//! Shared per-thread architectural state and instruction semantics,
//! used by both the fast functional executor and the slow detailed
//! simulator so the two can never disagree on *what* an instruction
//! does — only on how long it takes.
//!
//! Lanes run as whole registers. Every ALU op, `cmp` and global-read
//! `send` resolves each source once to a 16-lane row (`Reg` gives the
//! register row, `Imm` a broadcast, `Null` zeros), builds its write
//! mask once from the predicate and the exec width, matches on the
//! opcode once into a straight-line 16-lane loop, and blends the
//! result into the destination under the mask. Lanes at or above the
//! exec width are computed and thrown away, never written. The oracle
//! test at the bottom of this file holds these loops to a per-lane
//! reference.

use gen_isa::{CondMod, Instruction, Opcode, Predicate, SendOp, Src, Surface, NUM_LANES};
use ocl_runtime::api::ArgValue;

use crate::cache::Cache;
use crate::executor::DISPATCH_WIDTH;
use crate::memory::{buffer_base, synthetic_read, TraceBuffer};
use crate::stats::ExecutionStats;

/// One register: a value per SIMD lane.
type Row = [u32; NUM_LANES];

/// Which lanes of a row an instruction writes (or a flag holds).
type Mask = [bool; NUM_LANES];

/// Register file, flags, and issue-cycle counter of one hardware
/// thread.
pub(crate) struct ThreadState {
    pub regs: Vec<Row>,
    pub flags: [Mask; 2],
    pub issue_cycles: u64,
}

impl ThreadState {
    /// Fresh state for `thread_id`; see [`ThreadState::reset`].
    pub fn new(thread_id: u64, args: &[ArgValue]) -> ThreadState {
        let mut st = ThreadState {
            regs: vec![[0; NUM_LANES]; gen_isa::NUM_GRF as usize],
            flags: [[false; NUM_LANES]; 2],
            issue_cycles: 0,
        };
        st.reset(thread_id, args);
        st
    }

    /// Re-initialize in place for `thread_id`, keeping the register
    /// file's allocation: `r0` holds per-lane global work-item ids,
    /// argument registers are broadcast, and every other register,
    /// both flags and the issue-cycle counter are zero.
    pub fn reset(&mut self, thread_id: u64, args: &[ArgValue]) {
        self.regs.fill([0; NUM_LANES]);
        for (lane, slot) in self.regs[0].iter_mut().enumerate() {
            *slot = (thread_id * DISPATCH_WIDTH) as u32 + lane as u32;
        }
        for (i, arg) in args.iter().enumerate() {
            let v = match arg {
                ArgValue::Scalar(s) => *s as u32,
                ArgValue::Buffer(b) => buffer_base(*b) as u32,
            };
            self.regs[crate::jit::ARG_REG_BASE as usize + i] = [v; NUM_LANES];
        }
        self.flags = [[false; NUM_LANES]; 2];
        self.issue_cycles = 0;
    }

    /// A source operand on every lane.
    #[inline]
    fn row(&self, src: Src) -> Row {
        match src {
            Src::Null => [0; NUM_LANES],
            Src::Reg(r) => self.regs[r.0 as usize],
            Src::Imm(v) => [v; NUM_LANES],
        }
    }

    /// Lanes where the (possibly inverted) predicate flag holds.
    #[inline]
    fn predicated(&self, p: Predicate) -> Mask {
        let mut mask = self.flags[p.flag.index()];
        for m in &mut mask {
            *m ^= p.invert;
        }
        mask
    }

    /// Lanes `instr` writes: those below its exec width where its
    /// predicate, if any, holds.
    #[inline]
    fn write_mask(&self, instr: &Instruction) -> Mask {
        let mut mask = width_mask(instr);
        if let Some(p) = instr.pred {
            for (m, f) in mask.iter_mut().zip(self.predicated(p)) {
                *m &= f;
            }
        }
        mask
    }
}

/// Lanes below `instr`'s exec width.
#[inline]
fn width_mask(instr: &Instruction) -> Mask {
    let lanes = instr.exec_size.lanes();
    let mut mask = [false; NUM_LANES];
    for (l, m) in mask.iter_mut().enumerate() {
        *m = l < lanes;
    }
    mask
}

/// Copy `value` into `dst` on the lanes `mask` selects. Every lane is
/// stored, as bitwise arithmetic on an all-ones or all-zeros lane
/// mask, so the loop vectorizes instead of branching per lane.
#[inline]
fn blend(dst: &mut Row, value: &Row, mask: &Mask) {
    for ((d, &v), &m) in dst.iter_mut().zip(value).zip(mask) {
        let m = 0u32.wrapping_sub(m as u32);
        *d = (*d & !m) | (v & m);
    }
}

/// What executing one instruction did to control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Fall through to the next instruction.
    Next,
    /// Jump by the given displacement (relative to the next
    /// instruction).
    Branch(i32),
    /// The thread finished (`eot`).
    Done,
    /// `ret`/`call` outside a subroutine context.
    Fault,
}

/// Execute one instruction's architectural effects.
///
/// Updates registers/flags, feeds the cache and trace buffer, and
/// accounts application memory traffic in `stats`. The caller counts
/// the instruction itself and manages the instruction pointer.
///
/// `access_log`, when present, records every global-memory cache
/// access as `(addr, bytes)`. Two consumers replay these logs against
/// a shared cache in a fixed order: the parallel executor (in
/// hardware-thread order, per launch) and the epoch-sharded detailed
/// simulator (in EU index order, per epoch barrier). The fixed replay
/// order is what makes a worker running against a scratch cache
/// still produce the serial schedule's hit/miss counts.
pub(crate) fn step(
    st: &mut ThreadState,
    instr: &Instruction,
    cache: &mut Cache,
    trace: &mut TraceBuffer,
    stats: &mut ExecutionStats,
    access_log: Option<&mut Vec<(u64, u32)>>,
) -> StepOutcome {
    match instr.opcode {
        Opcode::Eot => StepOutcome::Done,
        Opcode::Ret | Opcode::Call => StepOutcome::Fault,
        Opcode::Jmpi => StepOutcome::Branch(instr.branch_offset),
        Opcode::Brc => {
            if instr
                .pred
                .is_none_or(|p| st.flags[p.flag.index()][0] ^ p.invert)
            {
                StepOutcome::Branch(instr.branch_offset)
            } else {
                StepOutcome::Next
            }
        }
        Opcode::Nop => StepOutcome::Next,
        Opcode::Cmp => {
            exec_cmp(st, instr);
            StepOutcome::Next
        }
        Opcode::Send | Opcode::Sendc => {
            exec_send(st, instr, cache, trace, stats, access_log);
            StepOutcome::Next
        }
        _ => {
            exec_alu(st, instr);
            StepOutcome::Next
        }
    }
}

fn exec_alu(st: &mut ThreadState, instr: &Instruction) {
    let Some(dst) = instr.dst else { return };
    let (value, mask) = match (instr.opcode, instr.pred) {
        // GEN `sel` with a predicate is a per-lane select, not a gated
        // write: every lane writes, choosing src0 where the (possibly
        // inverted) flag holds and src1 elsewhere.
        (Opcode::Sel, Some(p)) => {
            let take_first = st.predicated(p);
            let (a, b) = (st.row(instr.srcs[0]), st.row(instr.srcs[1]));
            let mut value = b;
            blend(&mut value, &a, &take_first);
            (value, width_mask(instr))
        }
        _ => (alu_row(st, instr), st.write_mask(instr)),
    };
    blend(&mut st.regs[dst.0 as usize], &value, &mask);
}

/// An ALU instruction's result on all 16 lanes. The one match on the
/// opcode names it as a constant in every arm, so each arm inlines
/// `Opcode::eval_*` down to a single straight-line lane loop.
fn alu_row(st: &ThreadState, instr: &Instruction) -> Row {
    use Opcode::*;
    let src = |i: usize| st.row(instr.srcs[i]);
    match instr.opcode {
        Mov => unary(Mov, src(0)),
        Not => unary(Not, src(0)),
        Frc => unary(Frc, src(0)),
        Rndd => unary(Rndd, src(0)),
        Inv => unary(Inv, src(0)),
        Sqrt => unary(Sqrt, src(0)),
        Exp => unary(Exp, src(0)),
        Log => unary(Log, src(0)),
        Sin => unary(Sin, src(0)),
        Cos => unary(Cos, src(0)),
        Sel => binary(Sel, src(0), src(1)),
        And => binary(And, src(0), src(1)),
        Or => binary(Or, src(0), src(1)),
        Xor => binary(Xor, src(0), src(1)),
        Shl => binary(Shl, src(0), src(1)),
        Shr => binary(Shr, src(0), src(1)),
        Asr => binary(Asr, src(0), src(1)),
        Add => binary(Add, src(0), src(1)),
        Sub => binary(Sub, src(0), src(1)),
        Mul => binary(Mul, src(0), src(1)),
        Min => binary(Min, src(0), src(1)),
        Max => binary(Max, src(0), src(1)),
        Avg => binary(Avg, src(0), src(1)),
        Dp4 => binary(Dp4, src(0), src(1)),
        Mad => ternary(Mad, src(0), src(1), src(2)),
        Lrp => ternary(Lrp, src(0), src(1), src(2)),
        Cmp | Jmpi | Brc | Call | Ret | Eot | Nop | Send | Sendc => {
            unreachable!("`step` routes {} away from the ALU", instr.opcode)
        }
    }
}

// The lane loops below are plain `for` loops over fixed-size arrays:
// `array::from_fn` does not reliably inline, and without inlining the
// constant opcode does not fold away.

#[inline(always)]
fn unary(op: Opcode, a: Row) -> Row {
    let mut out = a;
    for o in &mut out {
        *o = op.eval_unary(*o);
    }
    out
}

#[inline(always)]
fn binary(op: Opcode, a: Row, b: Row) -> Row {
    let mut out = a;
    for (o, b) in out.iter_mut().zip(b) {
        *o = op.eval_binary(*o, b);
    }
    out
}

#[inline(always)]
fn ternary(op: Opcode, a: Row, b: Row, c: Row) -> Row {
    let mut out = a;
    for ((o, b), c) in out.iter_mut().zip(b).zip(c) {
        *o = op.eval_ternary(*o, b, c);
    }
    out
}

fn exec_cmp(st: &mut ThreadState, instr: &Instruction) {
    let (Some(cond), Some(flag)) = (instr.cond, instr.flag) else {
        return;
    };
    let (a, b) = (st.row(instr.srcs[0]), st.row(instr.srcs[1]));
    let value = match cond {
        CondMod::Eq => compare(CondMod::Eq, a, b),
        CondMod::Ne => compare(CondMod::Ne, a, b),
        CondMod::Lt => compare(CondMod::Lt, a, b),
        CondMod::Le => compare(CondMod::Le, a, b),
        CondMod::Gt => compare(CondMod::Gt, a, b),
        CondMod::Ge => compare(CondMod::Ge, a, b),
    };
    let mask = st.write_mask(instr);
    for ((f, v), m) in st.flags[flag.index()].iter_mut().zip(value).zip(mask) {
        *f = (*f & !m) | (v & m);
    }
}

#[inline(always)]
fn compare(cond: CondMod, a: Row, b: Row) -> Mask {
    let mut out = [false; NUM_LANES];
    for ((o, a), b) in out.iter_mut().zip(a).zip(b) {
        *o = cond.eval(a, b);
    }
    out
}

fn exec_send(
    st: &mut ThreadState,
    instr: &Instruction,
    cache: &mut Cache,
    trace: &mut TraceBuffer,
    stats: &mut ExecutionStats,
    access_log: Option<&mut Vec<(u64, u32)>>,
) {
    let Some(desc) = instr.send else { return };
    match desc.surface {
        Surface::Global => {
            let addr = st.row(instr.srcs[0])[0] as u64;
            if let Some(log) = access_log {
                if !matches!(desc.op, SendOp::ReadTimer) {
                    log.push((addr, desc.bytes));
                }
            }
            match desc.op {
                SendOp::Read => {
                    let (hits, misses) = cache.access(addr, desc.bytes);
                    stats.global_sends += 1;
                    stats.cache_hits += hits as u64;
                    stats.cache_misses += misses as u64;
                    stats.bytes_read += desc.bytes as u64;
                    if let Some(dst) = instr.dst {
                        let mut value = [0; NUM_LANES];
                        for (l, v) in value.iter_mut().enumerate() {
                            *v = synthetic_read(addr + l as u64 * 4);
                        }
                        let mask = st.write_mask(instr);
                        blend(&mut st.regs[dst.0 as usize], &value, &mask);
                    }
                }
                SendOp::Write | SendOp::AtomicAdd => {
                    let (hits, misses) = cache.access(addr, desc.bytes);
                    stats.global_sends += 1;
                    stats.cache_hits += hits as u64;
                    stats.cache_misses += misses as u64;
                    stats.bytes_written += desc.bytes as u64;
                }
                SendOp::ReadTimer => {
                    if let Some(dst) = instr.dst {
                        st.regs[dst.0 as usize][0] = st.issue_cycles as u32;
                    }
                }
            }
        }
        Surface::TraceBuffer => {
            let addr = st.row(instr.srcs[0])[0];
            let data = st.row(instr.srcs[1])[0];
            // Every trace-buffer message is an uncached round trip to
            // CPU-visible memory (one line's worth of traffic).
            stats.trace_bytes += 64;
            match desc.op {
                SendOp::AtomicAdd => trace.slot_add(addr as usize, data as u64),
                SendOp::Write => trace.append(addr, data as u64),
                SendOp::Read => {
                    if let Some(dst) = instr.dst {
                        st.regs[dst.0 as usize][0] = trace.slot(addr as usize) as u32;
                    }
                }
                SendOp::ReadTimer => {
                    if let Some(dst) = instr.dst {
                        st.regs[dst.0 as usize][0] = st.issue_cycles as u32;
                    }
                }
            }
        }
        Surface::Scratch => {
            if desc.op == SendOp::ReadTimer {
                if let Some(dst) = instr.dst {
                    st.regs[dst.0 as usize][0] = st.issue_cycles as u32;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Oracle for the whole-register loop: random straight-line
    //! programs run through `step` and through the per-lane loop it
    //! replaced, compared after every instruction.

    mod reference {
        //! The per-lane loop before whole-register execution, copied
        //! verbatim: it re-reads every source and the predicate once
        //! per lane and evaluates the opcode per lane.

        use gen_isa::{Instruction, Opcode, Predicate, SendOp, Src, Surface};

        use crate::cache::Cache;
        use crate::machine::{StepOutcome, ThreadState};
        use crate::memory::{synthetic_read, TraceBuffer};
        use crate::stats::ExecutionStats;

        impl ThreadState {
            pub fn read(&self, src: Src, lane: usize) -> u32 {
                match src {
                    Src::Null => 0,
                    Src::Reg(r) => self.regs[r.0 as usize][lane],
                    Src::Imm(v) => v,
                }
            }

            pub fn lane_active(&self, pred: Option<Predicate>, lane: usize) -> bool {
                match pred {
                    None => true,
                    Some(p) => self.flags[p.flag.index()][lane] ^ p.invert,
                }
            }
        }

        /// Execute one instruction's architectural effects.
        ///
        /// Updates registers/flags, feeds the cache and trace buffer, and
        /// accounts application memory traffic in `stats`. The caller counts
        /// the instruction itself and manages the instruction pointer.
        ///
        /// `access_log`, when present, records every global-memory cache
        /// access as `(addr, bytes)`. Two consumers replay these logs against
        /// a shared cache in a fixed order: the parallel executor (in
        /// hardware-thread order, per launch) and the epoch-sharded detailed
        /// simulator (in EU index order, per epoch barrier). The fixed replay
        /// order is what makes a worker running against a scratch cache
        /// still produce the serial schedule's hit/miss counts.
        pub(crate) fn step(
            st: &mut ThreadState,
            instr: &Instruction,
            cache: &mut Cache,
            trace: &mut TraceBuffer,
            stats: &mut ExecutionStats,
            access_log: Option<&mut Vec<(u64, u32)>>,
        ) -> StepOutcome {
            match instr.opcode {
                Opcode::Eot => StepOutcome::Done,
                Opcode::Ret | Opcode::Call => StepOutcome::Fault,
                Opcode::Jmpi => StepOutcome::Branch(instr.branch_offset),
                Opcode::Brc => {
                    if st.lane_active(instr.pred, 0) {
                        StepOutcome::Branch(instr.branch_offset)
                    } else {
                        StepOutcome::Next
                    }
                }
                Opcode::Nop => StepOutcome::Next,
                Opcode::Cmp => {
                    exec_cmp(st, instr);
                    StepOutcome::Next
                }
                Opcode::Send | Opcode::Sendc => {
                    exec_send(st, instr, cache, trace, stats, access_log);
                    StepOutcome::Next
                }
                _ => {
                    exec_alu(st, instr);
                    StepOutcome::Next
                }
            }
        }

        fn exec_alu(st: &mut ThreadState, instr: &Instruction) {
            let lanes = instr.exec_size.lanes();
            let Some(dst) = instr.dst else { return };
            // GEN `sel` with a predicate is a per-lane select, not a gated
            // write: every lane writes, choosing src0 where the (possibly
            // inverted) flag holds and src1 elsewhere.
            if instr.opcode == Opcode::Sel {
                if let Some(p) = instr.pred {
                    for lane in 0..lanes {
                        let take_first = st.flags[p.flag.index()][lane] ^ p.invert;
                        let v = if take_first {
                            st.read(instr.srcs[0], lane)
                        } else {
                            st.read(instr.srcs[1], lane)
                        };
                        st.regs[dst.0 as usize][lane] = v;
                    }
                    return;
                }
            }
            for lane in 0..lanes {
                if !st.lane_active(instr.pred, lane) {
                    continue;
                }
                let a = st.read(instr.srcs[0], lane);
                let v = match instr.opcode.num_sources() {
                    0 | 1 => instr.opcode.eval_unary(a),
                    2 => instr.opcode.eval_binary(a, st.read(instr.srcs[1], lane)),
                    _ => instr.opcode.eval_ternary(
                        a,
                        st.read(instr.srcs[1], lane),
                        st.read(instr.srcs[2], lane),
                    ),
                };
                st.regs[dst.0 as usize][lane] = v;
            }
        }

        fn exec_cmp(st: &mut ThreadState, instr: &Instruction) {
            let lanes = instr.exec_size.lanes();
            let (Some(cond), Some(flag)) = (instr.cond, instr.flag) else {
                return;
            };
            for lane in 0..lanes {
                if !st.lane_active(instr.pred, lane) {
                    continue;
                }
                let a = st.read(instr.srcs[0], lane);
                let b = st.read(instr.srcs[1], lane);
                st.flags[flag.index()][lane] = cond.eval(a, b);
            }
        }

        fn exec_send(
            st: &mut ThreadState,
            instr: &Instruction,
            cache: &mut Cache,
            trace: &mut TraceBuffer,
            stats: &mut ExecutionStats,
            access_log: Option<&mut Vec<(u64, u32)>>,
        ) {
            let Some(desc) = instr.send else { return };
            match desc.surface {
                Surface::Global => {
                    let addr = st.read(instr.srcs[0], 0) as u64;
                    if let Some(log) = access_log {
                        if !matches!(desc.op, SendOp::ReadTimer) {
                            log.push((addr, desc.bytes));
                        }
                    }
                    match desc.op {
                        SendOp::Read => {
                            let (hits, misses) = cache.access(addr, desc.bytes);
                            stats.global_sends += 1;
                            stats.cache_hits += hits as u64;
                            stats.cache_misses += misses as u64;
                            stats.bytes_read += desc.bytes as u64;
                            if let Some(dst) = instr.dst {
                                for lane in 0..instr.exec_size.lanes() {
                                    if st.lane_active(instr.pred, lane) {
                                        st.regs[dst.0 as usize][lane] =
                                            synthetic_read(addr + lane as u64 * 4);
                                    }
                                }
                            }
                        }
                        SendOp::Write | SendOp::AtomicAdd => {
                            let (hits, misses) = cache.access(addr, desc.bytes);
                            stats.global_sends += 1;
                            stats.cache_hits += hits as u64;
                            stats.cache_misses += misses as u64;
                            stats.bytes_written += desc.bytes as u64;
                        }
                        SendOp::ReadTimer => {
                            if let Some(dst) = instr.dst {
                                st.regs[dst.0 as usize][0] = st.issue_cycles as u32;
                            }
                        }
                    }
                }
                Surface::TraceBuffer => {
                    let addr = st.read(instr.srcs[0], 0);
                    let data = st.read(instr.srcs[1], 0);
                    // Every trace-buffer message is an uncached round trip to
                    // CPU-visible memory (one line's worth of traffic).
                    stats.trace_bytes += 64;
                    match desc.op {
                        SendOp::AtomicAdd => trace.slot_add(addr as usize, data as u64),
                        SendOp::Write => trace.append(addr, data as u64),
                        SendOp::Read => {
                            if let Some(dst) = instr.dst {
                                st.regs[dst.0 as usize][0] = trace.slot(addr as usize) as u32;
                            }
                        }
                        SendOp::ReadTimer => {
                            if let Some(dst) = instr.dst {
                                st.regs[dst.0 as usize][0] = st.issue_cycles as u32;
                            }
                        }
                    }
                }
                Surface::Scratch => {
                    if desc.op == SendOp::ReadTimer {
                        if let Some(dst) = instr.dst {
                            st.regs[dst.0 as usize][0] = st.issue_cycles as u32;
                        }
                    }
                }
            }
        }
    }

    use super::*;
    use crate::cache::CacheConfig;
    use crate::executor::instruction_cost;
    use gen_isa::{ExecSize, FlagReg, Reg, SendDescriptor};
    use proptest::prelude::*;

    /// One side of the oracle: a thread with everything `step` touches.
    struct Side {
        st: ThreadState,
        cache: Cache,
        trace: TraceBuffer,
        stats: ExecutionStats,
        log: Vec<(u64, u32)>,
    }

    impl Side {
        /// Registers from `r0` and both flags, lane by lane.
        fn new(regs: &[u32], flags: &[bool]) -> Side {
            let mut st = ThreadState::new(3, &[ArgValue::Scalar(7), ArgValue::Buffer(1)]);
            for (l, &v) in regs.iter().enumerate() {
                st.regs[l / NUM_LANES][l % NUM_LANES] = v;
            }
            for (l, &f) in flags.iter().enumerate() {
                st.flags[l / NUM_LANES][l % NUM_LANES] = f;
            }
            Side {
                st,
                cache: Cache::new(CacheConfig::default()),
                trace: TraceBuffer::new(),
                stats: ExecutionStats::default(),
                log: Vec::new(),
            }
        }
    }

    /// Everything observable after a step, as one comparable value.
    fn observe(s: &Side) -> impl PartialEq + std::fmt::Debug + '_ {
        let t = &s.trace;
        let slots: Vec<u64> = (0..t.num_slots()).map(|i| t.slot(i)).collect();
        (
            (&s.st.regs, s.st.flags, s.st.issue_cycles),
            (s.stats, s.cache.stats(), &s.log),
            (
                t.records(),
                slots,
                t.appended_records(),
                t.dropped_records(),
            ),
        )
    }

    /// The registers the sequences use: few enough that destinations
    /// alias sources often.
    const POOL: u8 = 6;

    fn arb_value() -> impl Strategy<Value = u32> {
        prop_oneof![any::<u32>(), 0u32..8, Just(u32::MAX)]
    }

    fn arb_src() -> impl Strategy<Value = Src> {
        prop_oneof![
            (0..POOL).prop_map(|r| Src::Reg(Reg(r))),
            (0..POOL).prop_map(|r| Src::Reg(Reg(r))),
            arb_value().prop_map(Src::Imm),
            Just(Src::Null),
        ]
    }

    fn arb_dst() -> impl Strategy<Value = Option<Reg>> {
        prop::option::of((0..POOL).prop_map(Reg))
    }

    fn arb_width() -> impl Strategy<Value = ExecSize> {
        prop::sample::select(ExecSize::ALL.to_vec())
    }

    fn arb_pred() -> impl Strategy<Value = Option<Predicate>> {
        let flag = prop::sample::select(vec![FlagReg::F0, FlagReg::F1]);
        prop_oneof![
            Just(None),
            (flag, prop::bool::ANY).prop_map(|(flag, invert)| Some(Predicate { flag, invert })),
        ]
    }

    fn arb_alu() -> impl Strategy<Value = Instruction> {
        let ops: Vec<Opcode> = Opcode::ALL
            .iter()
            .copied()
            .filter(|o| !o.is_send() && !o.is_control() && *o != Opcode::Cmp && *o != Opcode::Nop)
            .collect();
        let op = prop_oneof![prop::sample::select(ops), Just(Opcode::Sel)];
        let srcs = (arb_src(), arb_src(), arb_src());
        (op, arb_width(), arb_dst(), srcs, arb_pred()).prop_map(|(op, w, dst, srcs, pred)| {
            Instruction {
                dst,
                srcs: [srcs.0, srcs.1, srcs.2],
                pred,
                ..Instruction::new(op, w)
            }
        })
    }

    fn arb_cmp() -> impl Strategy<Value = Instruction> {
        use CondMod::*;
        let cond = prop::sample::select(vec![Eq, Ne, Lt, Le, Gt, Ge]);
        let flag = prop::sample::select(vec![FlagReg::F0, FlagReg::F1]);
        (cond, flag, arb_width(), arb_src(), arb_src(), arb_pred()).prop_map(
            |(cond, flag, w, a, b, pred)| Instruction {
                srcs: [a, b, Src::Null],
                pred,
                cond: Some(cond),
                flag: Some(flag),
                ..Instruction::new(Opcode::Cmp, w)
            },
        )
    }

    fn arb_send(surface: Surface, addr: BoxedStrategy<Src>) -> impl Strategy<Value = Instruction> {
        use SendOp::*;
        let op = prop::sample::select(vec![Read, Write, AtomicAdd, ReadTimer]);
        let opcode = prop::sample::select(vec![Opcode::Send, Opcode::Sendc]);
        let shape = (arb_width(), arb_dst(), arb_pred());
        (op, opcode, addr, arb_src(), 1u32..=256, shape).prop_map(
            move |(op, opcode, addr, data, bytes, (w, dst, pred))| Instruction {
                dst,
                srcs: [addr, data, Src::Null],
                pred,
                send: Some(SendDescriptor { op, surface, bytes }),
                ..Instruction::new(opcode, w)
            },
        )
    }

    fn arb_control() -> impl Strategy<Value = Instruction> {
        let op = prop::sample::select(vec![Opcode::Brc, Opcode::Jmpi, Opcode::Nop]);
        (op, arb_pred(), -4i32..4).prop_map(|(op, pred, branch_offset)| Instruction {
            pred,
            branch_offset,
            ..Instruction::new(op, ExecSize::S1)
        })
    }

    fn arb_instr() -> impl Strategy<Value = Instruction> {
        // Trace-buffer slots and record tags come from small
        // immediates: a register address would grow the slot table to
        // gigabytes.
        let slot = (0u32..24).prop_map(Src::Imm).boxed();
        prop_oneof![
            arb_alu(),
            arb_alu(),
            arb_alu(),
            arb_cmp(),
            arb_cmp(),
            arb_send(Surface::Global, arb_src().boxed()),
            arb_send(Surface::TraceBuffer, slot),
            arb_send(Surface::Scratch, arb_src().boxed()),
            arb_control(),
        ]
    }

    #[test]
    fn reset_leaves_what_new_builds() {
        let args = [ArgValue::Buffer(2), ArgValue::Scalar(9)];
        let mut used = Side::new(&[u32::MAX; 6 * NUM_LANES], &[true; 2 * NUM_LANES]).st;
        used.issue_cycles = 40;
        used.reset(5, &args);
        let fresh = ThreadState::new(5, &args);
        assert_eq!(used.regs, fresh.regs);
        assert_eq!(used.flags, fresh.flags);
        assert_eq!(used.issue_cycles, fresh.issue_cycles);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The whole-register loop leaves every register lane, both
        /// flags, the counters, the cache and the trace buffer exactly
        /// as the per-lane reference does, after every instruction.
        #[test]
        fn prop_lane_oracle(
            regs in prop::collection::vec(arb_value(), POOL as usize * NUM_LANES),
            flags in prop::collection::vec(prop::bool::ANY, 2 * NUM_LANES),
            program in prop::collection::vec(arb_instr(), 1..48),
        ) {
            let mut got = Side::new(&regs, &flags);
            let mut want = Side::new(&regs, &flags);
            for (i, instr) in program.iter().enumerate() {
                let cost = instruction_cost(instr);
                got.st.issue_cycles += cost;
                want.st.issue_cycles += cost;
                let g = step(
                    &mut got.st,
                    instr,
                    &mut got.cache,
                    &mut got.trace,
                    &mut got.stats,
                    Some(&mut got.log),
                );
                let w = reference::step(
                    &mut want.st,
                    instr,
                    &mut want.cache,
                    &mut want.trace,
                    &mut want.stats,
                    Some(&mut want.log),
                );
                prop_assert_eq!(g, w, "outcome of instruction {} {:?}", i, instr);
                prop_assert!(
                    observe(&got) == observe(&want),
                    "state after instruction {} {:?}:\n got {:?}\nwant {:?}",
                    i,
                    instr,
                    observe(&got),
                    observe(&want)
                );
            }
        }
    }
}
