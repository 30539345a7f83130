//! Instructions, operands, predication, and send descriptors.

use serde::{Deserialize, Serialize};

use crate::opcode::{ExecSize, Opcode};
use crate::register::Reg;

/// A flag register written by `cmp` and read by predication and
/// conditional branches. GEN has two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FlagReg {
    /// `f0`
    F0,
    /// `f1`
    F1,
}

impl FlagReg {
    /// Encoding index (0 or 1).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FlagReg::F0 => 0,
            FlagReg::F1 => 1,
        }
    }
}

impl std::fmt::Display for FlagReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlagReg::F0 => f.write_str("f0"),
            FlagReg::F1 => f.write_str("f1"),
        }
    }
}

/// Lane predication on an instruction: execute only lanes where the
/// flag (possibly inverted) is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Predicate {
    /// Which flag register gates the lanes.
    pub flag: FlagReg,
    /// If true, the predicate fires on *cleared* flag lanes (`-f0`).
    pub invert: bool,
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}{})", if self.invert { "-" } else { "+" }, self.flag)
    }
}

/// Condition modifier on `cmp`: the relation evaluated per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum CondMod {
    /// Equal.
    Eq = 1,
    /// Not equal.
    Ne = 2,
    /// Unsigned less than.
    Lt = 3,
    /// Unsigned less than or equal.
    Le = 4,
    /// Unsigned greater than.
    Gt = 5,
    /// Unsigned greater than or equal.
    Ge = 6,
}

impl CondMod {
    /// Evaluate the relation on one lane.
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            CondMod::Eq => a == b,
            CondMod::Ne => a != b,
            CondMod::Lt => a < b,
            CondMod::Le => a <= b,
            CondMod::Gt => a > b,
            CondMod::Ge => a >= b,
        }
    }

    /// Encoding byte (1–6).
    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// Decode from the encoding byte.
    pub fn from_byte(byte: u8) -> Option<CondMod> {
        match byte {
            1 => Some(CondMod::Eq),
            2 => Some(CondMod::Ne),
            3 => Some(CondMod::Lt),
            4 => Some(CondMod::Le),
            5 => Some(CondMod::Gt),
            6 => Some(CondMod::Ge),
            _ => None,
        }
    }

    /// Mnemonic suffix, e.g. `.lt`.
    pub fn suffix(self) -> &'static str {
        match self {
            CondMod::Eq => ".eq",
            CondMod::Ne => ".ne",
            CondMod::Lt => ".lt",
            CondMod::Le => ".le",
            CondMod::Gt => ".gt",
            CondMod::Ge => ".ge",
        }
    }
}

/// A source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Src {
    /// The null register (reads as zero).
    Null,
    /// A general register.
    Reg(Reg),
    /// A 32-bit immediate, broadcast to all lanes. At most one source
    /// of an instruction may be an immediate.
    Imm(u32),
}

impl std::fmt::Display for Src {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Src::Null => f.write_str("null"),
            Src::Reg(r) => write!(f, "{r}"),
            Src::Imm(v) => write!(f, "{v:#x}"),
        }
    }
}

/// The kind of message a `send` instruction carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum SendOp {
    /// Read `bytes` from memory into the destination register.
    Read = 0,
    /// Write `bytes` from the source register to memory.
    Write = 1,
    /// Atomically add the source register's lane 0 to a memory cell;
    /// used heavily by GT-Pin counters.
    AtomicAdd = 2,
    /// Read the event timer register; used by GT-Pin's kernel timer
    /// tool (overhead under 10 cycles, Section III-C).
    ReadTimer = 3,
}

impl SendOp {
    /// Decode from the descriptor nibble.
    pub fn from_nibble(n: u8) -> Option<SendOp> {
        match n {
            0 => Some(SendOp::Read),
            1 => Some(SendOp::Write),
            2 => Some(SendOp::AtomicAdd),
            3 => Some(SendOp::ReadTimer),
            _ => None,
        }
    }

    /// Whether the message reads from memory.
    pub fn is_read(self) -> bool {
        matches!(self, SendOp::Read)
    }

    /// Whether the message writes to memory.
    pub fn is_write(self) -> bool {
        matches!(self, SendOp::Write | SendOp::AtomicAdd)
    }
}

/// The surface (address space) a send message targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Surface {
    /// Application global memory (buffers and images).
    Global = 0,
    /// The GT-Pin trace buffer, shared between CPU and GPU
    /// (Section III-A). Only instrumentation targets this surface.
    TraceBuffer = 1,
    /// Per-thread scratch.
    Scratch = 2,
}

impl Surface {
    /// Decode from the descriptor nibble.
    pub fn from_nibble(n: u8) -> Option<Surface> {
        match n {
            0 => Some(Surface::Global),
            1 => Some(Surface::TraceBuffer),
            2 => Some(Surface::Scratch),
            _ => None,
        }
    }
}

/// Descriptor carried by `send`/`sendc`: what the message does, where,
/// and how many bytes move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SendDescriptor {
    /// Message kind.
    pub op: SendOp,
    /// Target surface.
    pub surface: Surface,
    /// Bytes transferred by one execution of the message, across the
    /// active lanes (capped at 2^24-1 by the encoding).
    pub bytes: u32,
}

impl SendDescriptor {
    /// Maximum encodable byte count (24 bits).
    pub const MAX_BYTES: u32 = (1 << 24) - 1;

    /// Pack into the 32-bit descriptor word.
    pub fn to_word(self) -> u32 {
        ((self.op as u32) << 28) | ((self.surface as u32) << 24) | (self.bytes & Self::MAX_BYTES)
    }

    /// Unpack from the 32-bit descriptor word.
    pub fn from_word(word: u32) -> Option<SendDescriptor> {
        let op = SendOp::from_nibble((word >> 28) as u8)?;
        let surface = Surface::from_nibble(((word >> 24) & 0xF) as u8)?;
        Some(SendDescriptor {
            op,
            surface,
            bytes: word & Self::MAX_BYTES,
        })
    }
}

/// One GEN-flavoured instruction.
///
/// Control-flow instructions reference their target as a *signed
/// instruction offset* relative to the next instruction, exactly as
/// the encoded form does — the binary rewriter has to repair these
/// offsets when it splices code, which is the essential difficulty of
/// binary (as opposed to compiler) instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instruction {
    /// The operation.
    pub opcode: Opcode,
    /// SIMD width.
    pub exec_size: ExecSize,
    /// Destination register, or `None` for the null register.
    pub dst: Option<Reg>,
    /// Source operands; unused slots are `Src::Null`.
    pub srcs: [Src; 3],
    /// Lane predication.
    pub pred: Option<Predicate>,
    /// Condition modifier (meaningful on `cmp`, which writes `flag`).
    pub cond: Option<CondMod>,
    /// Flag register written by `cmp` / read by `brc`.
    pub flag: Option<FlagReg>,
    /// Branch displacement in instructions, relative to the following
    /// instruction (control opcodes only).
    pub branch_offset: i32,
    /// Send message descriptor (send opcodes only).
    pub send: Option<SendDescriptor>,
}

impl Instruction {
    /// A new instruction with the given opcode and width; all other
    /// fields empty. Builders fill in the rest.
    pub fn new(opcode: Opcode, exec_size: ExecSize) -> Instruction {
        Instruction {
            opcode,
            exec_size,
            dst: None,
            srcs: [Src::Null; 3],
            pred: None,
            cond: None,
            flag: None,
            branch_offset: 0,
            send: None,
        }
    }

    /// A `nop`.
    pub fn nop() -> Instruction {
        Instruction::new(Opcode::Nop, ExecSize::S1)
    }

    /// Registers read by this instruction.
    pub fn reads(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().filter_map(|s| match s {
            Src::Reg(r) => Some(*r),
            _ => None,
        })
    }

    /// Register written by this instruction, if any.
    pub fn writes(&self) -> Option<Reg> {
        self.dst
    }

    /// Flat-stream index this instruction branches to when it sits at
    /// index `at`: branch offsets are relative to the *next*
    /// instruction, so the target is `at + 1 + branch_offset`.
    /// `None` for opcodes that do not carry a target (including `ret`
    /// and `eot`, which leave the kernel rather than jump within it).
    pub fn branch_target(&self, at: usize) -> Option<usize> {
        match self.opcode {
            Opcode::Jmpi | Opcode::Brc | Opcode::Call => {
                Some((at as i64 + 1 + self.branch_offset as i64) as usize)
            }
            _ => None,
        }
    }

    /// Number of immediate source operands.
    pub fn immediate_count(&self) -> usize {
        self.srcs
            .iter()
            .filter(|s| matches!(s, Src::Imm(_)))
            .count()
    }

    /// Bytes this instruction reads from application-visible memory
    /// (zero for non-send instructions and for trace-buffer traffic,
    /// which is instrumentation-private).
    pub fn app_bytes_read(&self) -> u64 {
        match self.send {
            Some(d) if d.surface == Surface::Global && d.op.is_read() => d.bytes as u64,
            _ => 0,
        }
    }

    /// Bytes this instruction writes to application-visible memory.
    pub fn app_bytes_written(&self) -> u64 {
        match self.send {
            Some(d) if d.surface == Surface::Global && d.op.is_write() => d.bytes as u64,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_descriptor_word_round_trip() {
        let d = SendDescriptor {
            op: SendOp::AtomicAdd,
            surface: Surface::TraceBuffer,
            bytes: 12345,
        };
        assert_eq!(SendDescriptor::from_word(d.to_word()), Some(d));
    }

    #[test]
    fn send_descriptor_caps_bytes_at_24_bits() {
        let d = SendDescriptor {
            op: SendOp::Read,
            surface: Surface::Global,
            bytes: SendDescriptor::MAX_BYTES,
        };
        assert_eq!(SendDescriptor::from_word(d.to_word()), Some(d));
    }

    #[test]
    fn cond_mod_round_trip_and_semantics() {
        for c in [
            CondMod::Eq,
            CondMod::Ne,
            CondMod::Lt,
            CondMod::Le,
            CondMod::Gt,
            CondMod::Ge,
        ] {
            assert_eq!(CondMod::from_byte(c.to_byte()), Some(c));
        }
        assert!(CondMod::Lt.eval(1, 2));
        assert!(!CondMod::Lt.eval(2, 2));
        assert!(CondMod::Ge.eval(2, 2));
        assert_eq!(CondMod::from_byte(0), None);
        assert_eq!(CondMod::from_byte(7), None);
    }

    #[test]
    fn app_byte_accounting_ignores_trace_buffer_traffic() {
        let mut i = Instruction::new(Opcode::Send, ExecSize::S8);
        i.send = Some(SendDescriptor {
            op: SendOp::AtomicAdd,
            surface: Surface::TraceBuffer,
            bytes: 64,
        });
        assert_eq!(i.app_bytes_read(), 0);
        assert_eq!(i.app_bytes_written(), 0);

        i.send = Some(SendDescriptor {
            op: SendOp::Write,
            surface: Surface::Global,
            bytes: 64,
        });
        assert_eq!(i.app_bytes_written(), 64);
        assert_eq!(i.app_bytes_read(), 0);
    }

    #[test]
    fn reads_and_writes_enumerate_register_operands() {
        let mut i = Instruction::new(Opcode::Mad, ExecSize::S16);
        i.dst = Some(Reg(9));
        i.srcs = [Src::Reg(Reg(1)), Src::Imm(3), Src::Reg(Reg(2))];
        let reads: Vec<Reg> = i.reads().collect();
        assert_eq!(reads, vec![Reg(1), Reg(2)]);
        assert_eq!(i.writes(), Some(Reg(9)));
        assert_eq!(i.immediate_count(), 1);
    }
}
