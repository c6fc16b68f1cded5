//! The co-processor tap interface between the pipeline and the RSE.
//!
//! The paper's Figure 1 shows dedicated fan-outs from each pipeline stage
//! into the RSE's input queues, plus a feedback path by which the
//! Instruction Output Queue gates instruction commit. This trait is the
//! software rendering of those wires:
//!
//! | Paper signal       | Trait method                          |
//! |--------------------|---------------------------------------|
//! | `Fetch_Out` + `Regfile_Data` | [`CoProcessor::on_dispatch`] |
//! | `Execute_Out` + `Memory_Out` | [`CoProcessor::on_execute`]  |
//! | `Commit_Out` (commit)        | [`CoProcessor::on_commit`]   |
//! | `Commit_Out` (squash)        | [`CoProcessor::on_squash`]   |
//! | IOQ check bits → commit unit | [`CoProcessor::commit_gate`] |
//! | module clocks                | [`CoProcessor::tick`]        |

use rse_isa::Inst;
use rse_mem::MemorySystem;
use std::fmt;

/// Identity of an in-flight instruction: its position in commit order
/// (the number of instructions committed before it). The paper addresses
/// an instruction by its reorder-buffer entry number ("a unique
/// identifier by which it is addressed throughout its lifetime in the
/// pipeline"); this is that number before it is reduced modulo the ROB
/// size, so the live ids are always consecutive and `rob % entries`
/// names a ROB slot no other live instruction holds.
///
/// When an instruction is squashed, its id goes to the next instruction
/// dispatched in its place, as hardware reuses the ROB slot. So no state
/// may use an id after its instruction commits or is squashed; a module
/// matches a MAU reply, which can outlive a squash, by the ticket
/// `Mau::submit` returned for the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RobId(pub u64);

impl fmt::Display for RobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rob#{}", self.0)
    }
}

/// Verdict of the Instruction Output Queue for a committing instruction
/// (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitGate {
    /// `checkValid=1, check=0`: commit proceeds.
    Pass,
    /// `checkValid=1, check=0` forced by the §3.4 output multiplexer:
    /// the CHECK's module is quarantined/disabled, so the instruction
    /// commits as a NOP (its check was never performed). Architecturally
    /// identical to [`CommitGate::Pass`]; the distinct variant lets the
    /// commit stage count coverage lost to containment.
    PassNop,
    /// `checkValid=0`: the check has not completed; the commit stage
    /// stalls this cycle.
    Stall,
    /// `checkValid=1, check=1`: a module detected an error; the pipeline
    /// is flushed and restarts at the same instruction.
    Flush,
}

/// An exception raised by a co-processor module toward the operating
/// system (e.g. the DDT's SavePage exception, §4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoprocException {
    /// Module slot that raised the exception.
    pub module: u8,
    /// Exception code (module-specific).
    pub code: u32,
    /// Exception argument (for SavePage: the faulting page's base address).
    pub arg: u32,
}

/// Everything the RSE sees when an instruction is dispatched: the raw
/// word and decoded form (the `Fetch_Out` queue) plus its operand values
/// (the `Regfile_Data` queue).
#[derive(Debug, Clone, Copy)]
pub struct DispatchInfo {
    /// Instruction identity.
    pub rob: RobId,
    /// Program counter of the instruction.
    pub pc: u32,
    /// Raw 32-bit encoding as fetched (post fault-injection, i.e. what
    /// the pipeline is actually executing).
    pub word: u32,
    /// Decoded instruction.
    pub inst: Inst,
    /// Operand values at dispatch. For a CHECK instruction these are the
    /// conventional wide-parameter registers `a0`/`a1`; otherwise the
    /// values of the instruction's `rs`/`rt` sources.
    pub operands: [u32; 2],
    /// Whether the pipeline believes this instruction is on a
    /// mispredicted (wrong) path. Wrong-path instructions still occupy
    /// RSE input-queue entries and are later squashed.
    pub wrong_path: bool,
    /// Whether this CHECK was injected at fetch by the runtime policy
    /// rather than present in the binary.
    pub injected: bool,
}

/// Execute-stage outputs delivered at writeback: the `Execute_Out` and
/// `Memory_Out` queues of Figure 1.
#[derive(Debug, Clone, Copy)]
pub struct ExecuteInfo {
    /// Instruction identity.
    pub rob: RobId,
    /// ALU result or address-generation output.
    pub result: u32,
    /// Effective address for loads and stores.
    pub eff_addr: Option<u32>,
    /// Value loaded from memory (the `Memory_Out` queue), for loads.
    pub loaded: Option<u32>,
}

/// The RSE side of the pipeline/engine interface. Implemented by
/// `rse_core::Engine`; [`NullCoProcessor`] is the detached baseline.
///
/// All methods receive the current cycle and mutable access to the shared
/// memory system (the MAU path into memory).
pub trait CoProcessor {
    /// An instruction entered the ROB (with its operand values).
    fn on_dispatch(&mut self, now: u64, info: &DispatchInfo, mem: &mut MemorySystem);

    /// An instruction finished executing (result / effective address /
    /// loaded value available).
    fn on_execute(&mut self, now: u64, info: &ExecuteInfo, mem: &mut MemorySystem);

    /// An instruction committed.
    fn on_commit(&mut self, now: u64, rob: RobId, mem: &mut MemorySystem);

    /// An instruction was squashed (mispredict recovery or flush).
    fn on_squash(&mut self, now: u64, rob: RobId, mem: &mut MemorySystem);

    /// Commit-stage query of the IOQ check bits for the oldest
    /// instruction. Called every cycle the instruction is ready to retire.
    fn commit_gate(&mut self, now: u64, rob: RobId) -> CommitGate;

    /// One clock of the engine: modules advance their internal pipelines,
    /// the MAU services queued memory requests.
    fn tick(&mut self, now: u64, mem: &mut MemorySystem);

    /// Drains a pending exception raised by a module toward the OS.
    fn take_exception(&mut self) -> Option<CoprocException> {
        None
    }
}

/// A co-processor that is not there: every instruction commits freely.
/// This is the paper's "baseline" configuration (no framework).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullCoProcessor;

impl CoProcessor for NullCoProcessor {
    fn on_dispatch(&mut self, _: u64, _: &DispatchInfo, _: &mut MemorySystem) {}
    fn on_execute(&mut self, _: u64, _: &ExecuteInfo, _: &mut MemorySystem) {}
    fn on_commit(&mut self, _: u64, _: RobId, _: &mut MemorySystem) {}
    fn on_squash(&mut self, _: u64, _: RobId, _: &mut MemorySystem) {}
    fn commit_gate(&mut self, _: u64, _: RobId) -> CommitGate {
        CommitGate::Pass
    }
    fn tick(&mut self, _: u64, _: &mut MemorySystem) {}
}
