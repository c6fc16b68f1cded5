//! The decoded instruction type and its classification.

use crate::chk::ChkSpec;
use crate::Reg;
use std::fmt;

/// Functional classification of an instruction, used by the pipeline to
/// route instructions to functional units and by the RSE's input interface
/// (`IssueALU` / `IssueMDU` / `IssueLSU` select signals of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Simple integer ALU operation (1-cycle execute).
    IntAlu,
    /// Multiply/divide unit operation (multi-cycle execute).
    MulDiv,
    /// Memory load (address generation on the LSU, then D-cache access).
    Load,
    /// Memory store (address generation on the LSU, data written at commit).
    Store,
    /// Conditional branch (resolved on the branch unit).
    Branch,
    /// Unconditional jump, including calls and returns.
    Jump,
    /// System call (serializing; handled by the guest OS layer).
    Syscall,
    /// The paper's CHECK instruction — a NOP in every pipeline stage except
    /// commit, where the Instruction Output Queue gates retirement.
    Chk,
    /// No operation.
    Nop,
    /// Halts the simulated processor.
    Halt,
}

impl InstClass {
    /// Whether instructions of this class alter control flow.
    #[inline]
    pub fn is_control_flow(self) -> bool {
        matches!(self, InstClass::Branch | InstClass::Jump)
    }

    /// Whether instructions of this class access data memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, InstClass::Load | InstClass::Store)
    }
}

/// A decoded instruction of the RSE guest ISA.
///
/// Field naming follows MIPS conventions: `rs`/`rt` are sources, `rd` is an
/// R-type destination, `rt` doubles as the I-type destination, and branch
/// offsets are in *instruction words* relative to the delay-slot-free next
/// PC (`pc + 4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings are uniform and documented above
pub enum Inst {
    // --- R-type ALU -----------------------------------------------------
    Add {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Sub {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Mul {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Div {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Rem {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    And {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Or {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Xor {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Nor {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Slt {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Sltu {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Sllv {
        rd: Reg,
        rt: Reg,
        rs: Reg,
    },
    Srlv {
        rd: Reg,
        rt: Reg,
        rs: Reg,
    },
    Srav {
        rd: Reg,
        rt: Reg,
        rs: Reg,
    },
    Sll {
        rd: Reg,
        rt: Reg,
        shamt: u8,
    },
    Srl {
        rd: Reg,
        rt: Reg,
        shamt: u8,
    },
    Sra {
        rd: Reg,
        rt: Reg,
        shamt: u8,
    },
    // --- I-type ALU -----------------------------------------------------
    Addi {
        rt: Reg,
        rs: Reg,
        imm: i16,
    },
    Slti {
        rt: Reg,
        rs: Reg,
        imm: i16,
    },
    Andi {
        rt: Reg,
        rs: Reg,
        imm: u16,
    },
    Ori {
        rt: Reg,
        rs: Reg,
        imm: u16,
    },
    Xori {
        rt: Reg,
        rs: Reg,
        imm: u16,
    },
    Lui {
        rt: Reg,
        imm: u16,
    },
    // --- Memory ---------------------------------------------------------
    Lw {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Lh {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Lhu {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Lb {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Lbu {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Sw {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Sh {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Sb {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    // --- Control flow ---------------------------------------------------
    Beq {
        rs: Reg,
        rt: Reg,
        off: i16,
    },
    Bne {
        rs: Reg,
        rt: Reg,
        off: i16,
    },
    Blt {
        rs: Reg,
        rt: Reg,
        off: i16,
    },
    Bge {
        rs: Reg,
        rt: Reg,
        off: i16,
    },
    /// Jump to `(pc + 4).top4 | target << 2`; `target` is a 26-bit word index.
    J {
        target: u32,
    },
    Jal {
        target: u32,
    },
    Jr {
        rs: Reg,
    },
    Jalr {
        rd: Reg,
        rs: Reg,
    },
    // --- System ---------------------------------------------------------
    Syscall,
    Halt,
    Nop,
    /// The CHECK instruction of the RSE framework (§3.3 of the paper).
    Chk(ChkSpec),
}

impl Inst {
    /// The functional class of this instruction.
    #[inline]
    pub fn class(&self) -> InstClass {
        use Inst::*;
        match self {
            Add { .. }
            | Sub { .. }
            | And { .. }
            | Or { .. }
            | Xor { .. }
            | Nor { .. }
            | Slt { .. }
            | Sltu { .. }
            | Sllv { .. }
            | Srlv { .. }
            | Srav { .. }
            | Sll { .. }
            | Srl { .. }
            | Sra { .. }
            | Addi { .. }
            | Slti { .. }
            | Andi { .. }
            | Ori { .. }
            | Xori { .. }
            | Lui { .. } => InstClass::IntAlu,
            Mul { .. } | Div { .. } | Rem { .. } => InstClass::MulDiv,
            Lw { .. } | Lh { .. } | Lhu { .. } | Lb { .. } | Lbu { .. } => InstClass::Load,
            Sw { .. } | Sh { .. } | Sb { .. } => InstClass::Store,
            Beq { .. } | Bne { .. } | Blt { .. } | Bge { .. } => InstClass::Branch,
            J { .. } | Jal { .. } | Jr { .. } | Jalr { .. } => InstClass::Jump,
            Syscall => InstClass::Syscall,
            Halt => InstClass::Halt,
            Nop => InstClass::Nop,
            Chk(_) => InstClass::Chk,
        }
    }

    /// The destination register written by this instruction, if any.
    /// Writes to `r0` are reported as `None` (they are architecturally
    /// discarded).
    #[inline]
    pub fn dest(&self) -> Option<Reg> {
        use Inst::*;
        let d = match *self {
            Add { rd, .. }
            | Sub { rd, .. }
            | Mul { rd, .. }
            | Div { rd, .. }
            | Rem { rd, .. }
            | And { rd, .. }
            | Or { rd, .. }
            | Xor { rd, .. }
            | Nor { rd, .. }
            | Slt { rd, .. }
            | Sltu { rd, .. }
            | Sllv { rd, .. }
            | Srlv { rd, .. }
            | Srav { rd, .. }
            | Sll { rd, .. }
            | Srl { rd, .. }
            | Sra { rd, .. }
            | Jalr { rd, .. } => Some(rd),
            Addi { rt, .. }
            | Slti { rt, .. }
            | Andi { rt, .. }
            | Ori { rt, .. }
            | Xori { rt, .. }
            | Lui { rt, .. }
            | Lw { rt, .. }
            | Lh { rt, .. }
            | Lhu { rt, .. }
            | Lb { rt, .. }
            | Lbu { rt, .. } => Some(rt),
            Jal { .. } => Some(Reg::RA),
            _ => None,
        };
        d.filter(|r| !r.is_zero())
    }

    /// The source registers read by this instruction (up to two).
    #[inline]
    pub fn sources(&self) -> [Option<Reg>; 2] {
        use Inst::*;
        match *self {
            Add { rs, rt, .. }
            | Sub { rs, rt, .. }
            | Mul { rs, rt, .. }
            | Div { rs, rt, .. }
            | Rem { rs, rt, .. }
            | And { rs, rt, .. }
            | Or { rs, rt, .. }
            | Xor { rs, rt, .. }
            | Nor { rs, rt, .. }
            | Slt { rs, rt, .. }
            | Sltu { rs, rt, .. }
            | Sllv { rs, rt, .. }
            | Srlv { rs, rt, .. }
            | Srav { rs, rt, .. }
            | Beq { rs, rt, .. }
            | Bne { rs, rt, .. }
            | Blt { rs, rt, .. }
            | Bge { rs, rt, .. } => [Some(rs), Some(rt)],
            Sll { rt, .. } | Srl { rt, .. } | Sra { rt, .. } => [Some(rt), None],
            Addi { rs, .. }
            | Slti { rs, .. }
            | Andi { rs, .. }
            | Ori { rs, .. }
            | Xori { rs, .. }
            | Jr { rs }
            | Jalr { rs, .. } => [Some(rs), None],
            Lw { base, .. }
            | Lh { base, .. }
            | Lhu { base, .. }
            | Lb { base, .. }
            | Lbu { base, .. } => [Some(base), None],
            Sw { rt, base, .. } | Sh { rt, base, .. } | Sb { rt, base, .. } => {
                [Some(base), Some(rt)]
            }
            Syscall => [Some(Reg::V0), Some(Reg::A0)],
            Lui { .. } | J { .. } | Jal { .. } | Halt | Nop | Chk(_) => [None, None],
        }
    }

    /// Whether this instruction alters control flow (branch or jump).
    #[inline]
    pub fn is_control_flow(&self) -> bool {
        self.class().is_control_flow()
    }

    /// Absolute branch/jump target for direct control transfers at `pc`.
    ///
    /// Returns `None` for indirect jumps (`jr`/`jalr`) and for
    /// non-control-flow instructions.
    pub fn direct_target(&self, pc: u32) -> Option<u32> {
        use Inst::*;
        match *self {
            Beq { off, .. } | Bne { off, .. } | Blt { off, .. } | Bge { off, .. } => {
                Some(pc.wrapping_add(4).wrapping_add((off as i32 as u32) << 2))
            }
            J { target } | Jal { target } => {
                Some((pc.wrapping_add(4) & 0xF000_0000) | (target << 2))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::disasm::format_inst(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_route_correctly() {
        let add = Inst::Add {
            rd: Reg::T0,
            rs: Reg::T1,
            rt: Reg::T2,
        };
        assert_eq!(add.class(), InstClass::IntAlu);
        let mul = Inst::Mul {
            rd: Reg::T0,
            rs: Reg::T1,
            rt: Reg::T2,
        };
        assert_eq!(mul.class(), InstClass::MulDiv);
        let lw = Inst::Lw {
            rt: Reg::T0,
            base: Reg::SP,
            off: 4,
        };
        assert_eq!(lw.class(), InstClass::Load);
        assert!(lw.class().is_mem());
        let beq = Inst::Beq {
            rs: Reg::T0,
            rt: Reg::ZERO,
            off: -2,
        };
        assert!(beq.is_control_flow());
    }

    #[test]
    fn dest_of_zero_writes_is_none() {
        let i = Inst::Addi {
            rt: Reg::ZERO,
            rs: Reg::T0,
            imm: 1,
        };
        assert_eq!(i.dest(), None);
        let i = Inst::Addi {
            rt: Reg::T1,
            rs: Reg::T0,
            imm: 1,
        };
        assert_eq!(i.dest(), Some(Reg::T1));
    }

    #[test]
    fn jal_writes_ra() {
        assert_eq!(Inst::Jal { target: 0x100 }.dest(), Some(Reg::RA));
    }

    #[test]
    fn store_sources_include_data_register() {
        let sw = Inst::Sw {
            rt: Reg::T3,
            base: Reg::SP,
            off: 0,
        };
        assert_eq!(sw.sources(), [Some(Reg::SP), Some(Reg::T3)]);
        assert_eq!(sw.dest(), None);
    }

    #[test]
    fn branch_target_arithmetic() {
        // beq taken at pc=0x1000 with off=+3 lands at 0x1000 + 4 + 12.
        let b = Inst::Beq {
            rs: Reg::T0,
            rt: Reg::T1,
            off: 3,
        };
        assert_eq!(b.direct_target(0x1000), Some(0x1010));
        // Negative offsets jump backwards.
        let b = Inst::Bne {
            rs: Reg::T0,
            rt: Reg::T1,
            off: -1,
        };
        assert_eq!(b.direct_target(0x1000), Some(0x1000));
        // J targets replace the low 28 bits.
        let j = Inst::J { target: 0x40 };
        assert_eq!(j.direct_target(0x4000_0000), Some(0x4000_0100));
        // Indirect jumps have no static target.
        assert_eq!(Inst::Jr { rs: Reg::RA }.direct_target(0), None);
    }
}
