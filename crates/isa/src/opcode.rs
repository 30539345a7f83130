//! Opcodes and SIMD execution sizes.

use serde::{Deserialize, Serialize};

/// The five opcode categories the paper reports in Figure 4a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpcodeCategory {
    /// `mov`/`sel` — register movement, vector loads of immediates.
    Move,
    /// `and`, `or`, `xor`, shifts, `cmp`, ... (Figure 4a "Logic").
    Logic,
    /// Branches, calls, returns, thread termination.
    Control,
    /// Integer and floating-point arithmetic including extended math.
    Computation,
    /// `send` — all memory communication between threads and EUs
    /// in the GEN ISA goes through send messages.
    Send,
}

impl OpcodeCategory {
    /// All categories, in the paper's reporting order.
    pub const ALL: [OpcodeCategory; 5] = [
        OpcodeCategory::Move,
        OpcodeCategory::Logic,
        OpcodeCategory::Control,
        OpcodeCategory::Computation,
        OpcodeCategory::Send,
    ];

    /// Position of this category in [`OpcodeCategory::ALL`] — the
    /// index used by per-category count arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            OpcodeCategory::Move => 0,
            OpcodeCategory::Logic => 1,
            OpcodeCategory::Control => 2,
            OpcodeCategory::Computation => 3,
            OpcodeCategory::Send => 4,
        }
    }

    /// Short lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            OpcodeCategory::Move => "moves",
            OpcodeCategory::Logic => "logic",
            OpcodeCategory::Control => "control",
            OpcodeCategory::Computation => "computation",
            OpcodeCategory::Send => "sends",
        }
    }
}

impl std::fmt::Display for OpcodeCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

macro_rules! opcodes {
    ($( $variant:ident = $byte:expr, $mnemonic:expr, $category:ident, $srcs:expr ; )+) => {
        /// A GEN-flavoured opcode.
        ///
        /// Each opcode carries a stable byte encoding (used by
        /// [`crate::encode`]), a mnemonic, a reporting
        /// [`OpcodeCategory`], and its source-operand arity.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        #[repr(u8)]
        pub enum Opcode {
            $( $variant = $byte, )+
        }

        impl Opcode {
            /// Every opcode in the ISA.
            pub const ALL: &'static [Opcode] = &[ $( Opcode::$variant, )+ ];

            /// The stable one-byte encoding of this opcode.
            pub fn to_byte(self) -> u8 {
                self as u8
            }

            /// Decode an opcode from its byte encoding.
            pub fn from_byte(byte: u8) -> Option<Opcode> {
                match byte {
                    $( $byte => Some(Opcode::$variant), )+
                    _ => None,
                }
            }

            /// Assembly mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $( Opcode::$variant => $mnemonic, )+
                }
            }

            /// The category this opcode is reported under in
            /// instruction-mix profiles (Figure 4a).
            #[inline]
            pub fn category(self) -> OpcodeCategory {
                match self {
                    $( Opcode::$variant => OpcodeCategory::$category, )+
                }
            }

            /// Number of source operands this opcode consumes (0–3).
            #[inline]
            pub fn num_sources(self) -> usize {
                match self {
                    $( Opcode::$variant => $srcs, )+
                }
            }
        }
    };
}

opcodes! {
    // Moves.
    Mov   = 0x01, "mov",   Move, 1;
    Sel   = 0x02, "sel",   Move, 2;
    // Logic.
    And   = 0x10, "and",   Logic, 2;
    Or    = 0x11, "or",    Logic, 2;
    Xor   = 0x12, "xor",   Logic, 2;
    Not   = 0x13, "not",   Logic, 1;
    Shl   = 0x14, "shl",   Logic, 2;
    Shr   = 0x15, "shr",   Logic, 2;
    Asr   = 0x16, "asr",   Logic, 2;
    Cmp   = 0x17, "cmp",   Logic, 2;
    // Control.
    Jmpi  = 0x20, "jmpi",  Control, 0;
    Brc   = 0x21, "brc",   Control, 0;
    Call  = 0x22, "call",  Control, 0;
    Ret   = 0x23, "ret",   Control, 0;
    Eot   = 0x24, "eot",   Control, 0;
    Nop   = 0x25, "nop",   Control, 0;
    // Computation.
    Add   = 0x30, "add",   Computation, 2;
    Sub   = 0x31, "sub",   Computation, 2;
    Mul   = 0x32, "mul",   Computation, 2;
    Mad   = 0x33, "mad",   Computation, 3;
    Min   = 0x34, "min",   Computation, 2;
    Max   = 0x35, "max",   Computation, 2;
    Avg   = 0x36, "avg",   Computation, 2;
    Frc   = 0x37, "frc",   Computation, 1;
    Rndd  = 0x38, "rndd",  Computation, 1;
    Inv   = 0x39, "math.inv",  Computation, 1;
    Sqrt  = 0x3A, "math.sqrt", Computation, 1;
    Exp   = 0x3B, "math.exp",  Computation, 1;
    Log   = 0x3C, "math.log",  Computation, 1;
    Sin   = 0x3D, "math.sin",  Computation, 1;
    Cos   = 0x3E, "math.cos",  Computation, 1;
    Dp4   = 0x3F, "dp4",   Computation, 2;
    Lrp   = 0x40, "lrp",   Computation, 3;
    // Sends.
    Send  = 0x50, "send",  Send, 1;
    Sendc = 0x51, "sendc", Send, 1;
}

impl Opcode {
    /// Whether this opcode transfers control.
    pub fn is_control(self) -> bool {
        self.category() == OpcodeCategory::Control && self != Opcode::Nop
    }

    /// Whether this opcode is a send (memory) message.
    pub fn is_send(self) -> bool {
        self.category() == OpcodeCategory::Send
    }

    /// Whether this opcode dispatches to the extended-math pipeline
    /// (reciprocal, square root and the transcendentals), which on
    /// GEN hardware issues at a fraction of the plain FPU rate.
    pub fn is_extended_math(self) -> bool {
        matches!(
            self,
            Opcode::Inv | Opcode::Sqrt | Opcode::Exp | Opcode::Log | Opcode::Sin | Opcode::Cos
        )
    }

    /// Evaluate a unary ALU operation on one 32-bit lane.
    ///
    /// Control and send opcodes are not ALU operations and return `a`
    /// unchanged; callers route them through the execution engine
    /// instead. Transcendental opcodes operate on the value as a fixed
    /// point fraction so that execution stays in `u32` lanes.
    #[inline]
    pub fn eval_unary(self, a: u32) -> u32 {
        match self {
            Opcode::Mov => a,
            Opcode::Not => !a,
            Opcode::Frc => a & 0xFFFF,
            Opcode::Rndd => a & !0xFFFF,
            Opcode::Inv => u32::MAX.checked_div(a).unwrap_or(u32::MAX),
            Opcode::Sqrt => (a as f64).sqrt() as u32,
            Opcode::Exp => a.rotate_left(3) ^ 0x9E37_79B9,
            Opcode::Log => 31 - a.max(1).leading_zeros(),
            Opcode::Sin => a.rotate_left(7).wrapping_mul(0x85EB_CA6B),
            Opcode::Cos => a.rotate_right(5).wrapping_mul(0xC2B2_AE35),
            _ => a,
        }
    }

    /// Evaluate a binary ALU operation on one 32-bit lane.
    #[inline]
    pub fn eval_binary(self, a: u32, b: u32) -> u32 {
        match self {
            Opcode::And => a & b,
            Opcode::Or => a | b,
            Opcode::Xor => a ^ b,
            Opcode::Shl => a.wrapping_shl(b & 31),
            Opcode::Shr => a.wrapping_shr(b & 31),
            Opcode::Asr => ((a as i32).wrapping_shr(b & 31)) as u32,
            Opcode::Add => a.wrapping_add(b),
            Opcode::Sub => a.wrapping_sub(b),
            Opcode::Mul => a.wrapping_mul(b),
            Opcode::Min => a.min(b),
            Opcode::Max => a.max(b),
            Opcode::Avg => (a as u64 + b as u64).div_ceil(2) as u32,
            Opcode::Dp4 => a.wrapping_mul(b).rotate_left(4),
            Opcode::Sel => a,
            _ => a,
        }
    }

    /// Evaluate a ternary ALU operation on one 32-bit lane.
    #[inline]
    pub fn eval_ternary(self, a: u32, b: u32, c: u32) -> u32 {
        match self {
            Opcode::Mad => a.wrapping_mul(b).wrapping_add(c),
            Opcode::Lrp => a
                .wrapping_mul(b)
                .wrapping_add((!a).wrapping_mul(c))
                .rotate_right(8),
            _ => a,
        }
    }
}

impl std::fmt::Display for Opcode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// SIMD execution width of an instruction (Figure 4b of the paper:
/// widths 1, 2, 4, 8 and 16 are tracked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum ExecSize {
    /// Scalar.
    S1 = 0,
    /// 2-wide (never used by the paper's applications).
    S2 = 1,
    /// 4-wide.
    S4 = 2,
    /// 8-wide.
    S8 = 3,
    /// 16-wide.
    S16 = 4,
}

impl ExecSize {
    /// All widths in ascending order.
    pub const ALL: [ExecSize; 5] = [
        ExecSize::S1,
        ExecSize::S2,
        ExecSize::S4,
        ExecSize::S8,
        ExecSize::S16,
    ];

    /// Position of this width in [`ExecSize::ALL`] — the index used
    /// by per-width count arrays (the discriminant doubles as it).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Number of SIMD lanes this width covers.
    #[inline]
    pub fn lanes(self) -> usize {
        match self {
            ExecSize::S1 => 1,
            ExecSize::S2 => 2,
            ExecSize::S4 => 4,
            ExecSize::S8 => 8,
            ExecSize::S16 => 16,
        }
    }

    /// Encoding used in instruction bytes.
    pub fn to_code(self) -> u8 {
        self as u8
    }

    /// Decode from the instruction-byte code.
    pub fn from_code(code: u8) -> Option<ExecSize> {
        match code {
            0 => Some(ExecSize::S1),
            1 => Some(ExecSize::S2),
            2 => Some(ExecSize::S4),
            3 => Some(ExecSize::S8),
            4 => Some(ExecSize::S16),
            _ => None,
        }
    }

    /// The width that covers `lanes` lanes, if it is a legal width.
    pub fn from_lanes(lanes: usize) -> Option<ExecSize> {
        match lanes {
            1 => Some(ExecSize::S1),
            2 => Some(ExecSize::S2),
            4 => Some(ExecSize::S4),
            8 => Some(ExecSize::S8),
            16 => Some(ExecSize::S16),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({})", self.lanes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_bytes_round_trip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_byte(op.to_byte()), Some(op), "{op}");
        }
    }

    #[test]
    fn opcode_bytes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::ALL {
            assert!(seen.insert(op.to_byte()), "duplicate byte for {op}");
        }
    }

    #[test]
    fn unknown_opcode_byte_rejected() {
        assert_eq!(Opcode::from_byte(0xFF), None);
        assert_eq!(Opcode::from_byte(0x00), None);
    }

    #[test]
    fn every_category_is_populated() {
        for cat in OpcodeCategory::ALL {
            assert!(
                Opcode::ALL.iter().any(|o| o.category() == cat),
                "no opcode in category {cat}"
            );
        }
    }

    #[test]
    fn category_and_width_indices_match_all_order() {
        for (i, cat) in OpcodeCategory::ALL.into_iter().enumerate() {
            assert_eq!(cat.index(), i, "{cat}");
        }
        for (i, w) in ExecSize::ALL.into_iter().enumerate() {
            assert_eq!(w.index(), i, "{w}");
        }
    }

    #[test]
    fn send_and_control_classification() {
        assert!(Opcode::Send.is_send());
        assert!(Opcode::Sendc.is_send());
        assert!(!Opcode::Add.is_send());
        assert!(Opcode::Jmpi.is_control());
        assert!(Opcode::Eot.is_control());
        assert!(!Opcode::Nop.is_control(), "nop does not transfer control");
    }

    #[test]
    fn exec_size_codes_round_trip() {
        for w in ExecSize::ALL {
            assert_eq!(ExecSize::from_code(w.to_code()), Some(w));
            assert_eq!(ExecSize::from_lanes(w.lanes()), Some(w));
        }
        assert_eq!(ExecSize::from_code(9), None);
        assert_eq!(ExecSize::from_lanes(3), None);
    }

    #[test]
    fn alu_semantics_spot_checks() {
        assert_eq!(Opcode::Add.eval_binary(2, 3), 5);
        assert_eq!(Opcode::Sub.eval_binary(2, 3), u32::MAX);
        assert_eq!(Opcode::And.eval_binary(0b1100, 0b1010), 0b1000);
        assert_eq!(
            Opcode::Shl.eval_binary(1, 35),
            8,
            "shift counts are masked to 5 bits"
        );
        assert_eq!(Opcode::Not.eval_unary(0), u32::MAX);
        assert_eq!(Opcode::Mad.eval_ternary(2, 3, 4), 10);
        assert_eq!(
            Opcode::Inv.eval_unary(0),
            u32::MAX,
            "inverse of zero saturates"
        );
        assert_eq!(Opcode::Log.eval_unary(0), 0, "log clamps its argument to 1");
    }

    #[test]
    fn num_sources_matches_arity_usage() {
        assert_eq!(Opcode::Mov.num_sources(), 1);
        assert_eq!(Opcode::Add.num_sources(), 2);
        assert_eq!(Opcode::Mad.num_sources(), 3);
        assert_eq!(Opcode::Eot.num_sources(), 0);
    }
}
