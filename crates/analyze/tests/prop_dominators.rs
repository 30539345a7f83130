//! Property tests for the structural analyses.
//!
//! 1. The iterative dominator tree is cross-checked against the
//!    *definition* of dominance on random CFGs: `a` dominates `b`
//!    iff `a == b` or every entry→`b` path passes through `a` —
//!    equivalently, `b` becomes unreachable when the search refuses
//!    to step through `a`.
//! 2. `analyze_kernels` — the engine behind `gtpin analyze` — is
//!    digest-invariant across worker counts 1..=8 (the values
//!    `GTPIN_THREADS` routes to it), per the workspace determinism
//!    contract.

use gen_isa::builder::KernelBuilder;
use gen_isa::{
    CondMod, ExecSize, FlagReg, Instruction, Opcode, Predicate, Reg, Src, Surface, Terminator,
};
use gtpin_analyze::{analyze_kernels, Cfg, CostParams, Dominators};
use proptest::prelude::*;

/// One pre-Eot instruction of a random stream: `kind` picks the
/// shape, `traw` picks a branch target (mod stream length).
fn build_stream(spec: &[(u8, u16)]) -> Vec<Instruction> {
    let n = spec.len() + 1;
    let mut out = Vec::with_capacity(n);
    for (i, &(kind, traw)) in spec.iter().enumerate() {
        let target = (traw as usize) % n;
        let offset = target as i32 - (i as i32 + 1);
        let instr = match kind {
            // Unconditional jump: ends a block with a single edge.
            7 => {
                let mut j = Instruction::new(Opcode::Jmpi, ExecSize::S1);
                j.branch_offset = offset;
                j
            }
            // Predicated branch: taken edge + fallthrough edge.
            8 | 9 => {
                let mut b = Instruction::new(Opcode::Brc, ExecSize::S1);
                b.pred = Some(Predicate {
                    flag: FlagReg::F0,
                    invert: false,
                });
                b.branch_offset = offset;
                b
            }
            // Straight-line filler.
            _ => {
                let mut a = Instruction::new(Opcode::Add, ExecSize::S8);
                a.dst = Some(Reg(10));
                a.srcs[0] = Src::Reg(Reg(10));
                a.srcs[1] = Src::Imm(1);
                a
            }
        };
        out.push(instr);
    }
    out.push(Instruction::new(Opcode::Eot, ExecSize::S1));
    out
}

/// The definitional oracle: is `b` still reachable from the entry
/// block when the walk refuses to enter `a`?
fn reachable_avoiding(cfg: &Cfg<'_>, a: usize, b: usize) -> bool {
    if a == 0 {
        // Nothing is reachable without stepping through the entry.
        return false;
    }
    let mut seen = vec![false; cfg.num_blocks()];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(x) = stack.pop() {
        if x == b {
            return true;
        }
        for &s in cfg.succs(x) {
            if s != a && !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dominators_match_the_reachability_definition(
        spec in prop::collection::vec((0u8..10, 0u16..u16::MAX), 1..24),
    ) {
        let instrs = build_stream(&spec);
        let cfg = Cfg::from_instrs(&instrs).expect("targets are in range by construction");
        let dom = Dominators::compute(&cfg);
        let reachable = cfg.reachable();
        for b in 0..cfg.num_blocks() {
            if !reachable[b] {
                continue;
            }
            // The entry dominates every reachable block.
            prop_assert!(dom.dominates(0, b), "entry must dominate bb{b}");
            for (a, &a_reachable) in reachable.iter().enumerate() {
                if !a_reachable {
                    continue;
                }
                let want = a == b || !reachable_avoiding(&cfg, a, b);
                prop_assert_eq!(
                    dom.dominates(a, b),
                    want,
                    "dominates(bb{}, bb{}) disagrees with the definition",
                    a,
                    b
                );
            }
        }
    }
}

/// A structured kernel parameterized by proptest: a counted loop
/// whose body mixes ALU work and a send, so the analysis exercises
/// dominators, trip resolution, ranges, and every cost category.
fn counted_kernel(name: &str, bound: u32, body_adds: u8, send_bytes: u32) -> gen_isa::KernelBinary {
    let mut b = KernelBuilder::new(name);
    let entry = b.entry_block();
    let body = b.new_block();
    let exit = b.new_block();
    b.block_mut(entry).mov(ExecSize::S1, Reg(2), Src::Imm(0));
    b.set_terminator(entry, Terminator::Jump(body));
    {
        let blk = b.block_mut(body);
        for i in 0..body_adds {
            blk.add(
                ExecSize::S8,
                Reg(20 + i % 8),
                Src::Reg(Reg(20 + i % 8)),
                Src::Imm(3),
            );
        }
        blk.send_read(ExecSize::S8, Reg(40), Reg(2), Surface::Global, send_bytes);
        blk.add(ExecSize::S1, Reg(2), Src::Reg(Reg(2)), Src::Imm(1));
        blk.cmp(
            ExecSize::S1,
            CondMod::Lt,
            FlagReg::F0,
            Src::Reg(Reg(2)),
            Src::Imm(bound),
        );
    }
    b.set_terminator(
        body,
        Terminator::CondJump {
            flag: FlagReg::F0,
            invert: false,
            taken: body,
            fallthrough: exit,
        },
    );
    b.block_mut(exit).eot();
    b.build().expect("fixture kernels validate")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn analysis_digest_is_thread_count_invariant(
        params in prop::collection::vec((1u32..600, 0u8..12, 1u32..4096), 1..6),
    ) {
        let bins: Vec<gen_isa::KernelBinary> = params
            .iter()
            .enumerate()
            .map(|(i, &(bound, adds, bytes))| {
                counted_kernel(&format!("k{i}"), bound, adds, bytes)
            })
            .collect();
        let cost = CostParams {
            issue_cycles: [1, 1, 2, 2, 32],
            extended_math_cycles: 6,
            send_bytes_per_cycle: 10,
            native_simd_lanes: 4,
            assumed_trips: 16,
        };
        let baseline = analyze_kernels(&bins, &cost, 1).expect("serial analysis succeeds");
        let render: Vec<String> = baseline.iter().map(|r| r.render()).collect();
        let digests: Vec<u64> = baseline.iter().map(|r| r.digest()).collect();
        for threads in 2..=8 {
            let got = analyze_kernels(&bins, &cost, threads).expect("parallel analysis succeeds");
            let got_render: Vec<String> = got.iter().map(|r| r.render()).collect();
            let got_digests: Vec<u64> = got.iter().map(|r| r.digest()).collect();
            prop_assert_eq!(&got_render, &render, "renders diverge at {} threads", threads);
            prop_assert_eq!(&got_digests, &digests, "digests diverge at {} threads", threads);
        }
    }
}
