//! The hardware-module interface: what a reliability/security module
//! embedded in the RSE looks like.
//!
//! "Irrespective of its functionality, each module has (i) a hardware
//! mechanism to scan the Fetch_Out queue to acquire any CHECK
//! instruction intended for this module, and (ii) a memory buffer to hold
//! data accessed from memory" (§3.2). Here the engine performs the scan
//! and delivers [`Module::on_chk`]; the memory buffer is whatever state
//! the module keeps, filled through the MAU.

use crate::config::IOQ_BROADCAST_DELAY;
use crate::ioq::Ioq;
use crate::mau::Mau;
use rse_isa::{ChkSpec, ModuleId};
use rse_mem::MemorySystem;
use rse_pipeline::{CoprocException, DispatchInfo, ExecuteInfo, RobId};
use std::any::Any;
use std::collections::VecDeque;

/// Result of a check executed by a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No error detected: the instruction may commit (`check = 0`).
    Pass,
    /// Error detected: the pipeline must flush (`check = 1`).
    Fail,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Pass => write!(f, "pass (check=0: commit proceeds)"),
            Verdict::Fail => write!(f, "fail (check=1: pipeline flush)"),
        }
    }
}

/// A CHECK instruction delivered to its module after the Fetch_Out scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChkDispatch {
    /// Identity of the CHECK instruction in the pipeline.
    pub rob: RobId,
    /// PC of the CHECK instruction.
    pub pc: u32,
    /// The decoded CHECK fields.
    pub spec: ChkSpec,
    /// Wide operands (`a0`, `a1` at dispatch).
    pub operands: [u32; 2],
    /// Whether the pipeline flagged the CHECK as wrong-path.
    pub wrong_path: bool,
}

/// The services the engine exposes to a module during a callback.
#[derive(Debug)]
pub struct ModuleCtx<'a> {
    /// Current cycle.
    pub now: u64,
    /// The shared memory system. Functional reads/writes are permitted
    /// (register-transfer semantics); *timed* traffic should go through
    /// [`ModuleCtx::mau`].
    pub mem: &'a mut MemorySystem,
    /// The Memory Access Unit, shared by all modules.
    pub mau: &'a mut Mau,
    /// Read access to the engine's IOQ, whose entries hold the
    /// `Fetch_Out` slots ([`Ioq::fetched`]).
    pub ioq: &'a Ioq,
    pub(crate) ioq_writes: &'a mut Vec<(u64, RobId, bool)>,
    pub(crate) exceptions: &'a mut VecDeque<CoprocException>,
}

impl ModuleCtx<'_> {
    /// Writes the check result for `rob` into the IOQ. The result becomes
    /// visible to the commit unit after the module→IOQ broadcast delay
    /// (1 cycle, Table 3).
    pub fn complete_check(&mut self, rob: RobId, verdict: Verdict) {
        let at = self.now + IOQ_BROADCAST_DELAY;
        self.ioq_writes.push((at, rob, verdict == Verdict::Fail));
    }

    /// Raises an exception toward the operating system (e.g. the DDT's
    /// SavePage).
    pub fn raise_exception(&mut self, exception: CoprocException) {
        self.exceptions.push_back(exception);
    }
}

/// A hardware module embedded in the RSE.
///
/// Callbacks mirror the input queues of Figure 1; all have empty default
/// implementations so a module only taps the signals it needs. State
/// must be either architectural-only or cleaned up on
/// [`Module::on_squash`] — "no speculative state is maintained in the
/// RSE modules" (§3.1).
pub trait Module: Any {
    /// The module slot this module occupies.
    fn id(&self) -> ModuleId;

    /// Human-readable module name.
    fn name(&self) -> &'static str;

    /// A CHECK instruction addressed to this module was acquired from
    /// the `Fetch_Out` queue.
    fn on_chk(&mut self, chk: &ChkDispatch, ctx: &mut ModuleCtx<'_>);

    /// Any instruction was dispatched (the module's Fetch_Out /
    /// Regfile_Data tap).
    fn on_dispatch(&mut self, info: &DispatchInfo, ctx: &mut ModuleCtx<'_>) {
        let _ = (info, ctx);
    }

    /// Any instruction finished execution (Execute_Out / Memory_Out tap).
    fn on_execute(&mut self, info: &ExecuteInfo, ctx: &mut ModuleCtx<'_>) {
        let _ = (info, ctx);
    }

    /// An instruction committed (Commit_Out tap).
    fn on_commit(&mut self, rob: RobId, ctx: &mut ModuleCtx<'_>) {
        let _ = (rob, ctx);
    }

    /// An instruction was squashed; the module must drop any state it
    /// holds for it.
    fn on_squash(&mut self, rob: RobId, ctx: &mut ModuleCtx<'_>) {
        let _ = (rob, ctx);
    }

    /// One clock edge: advance internal pipelines, poll MAU completions.
    fn tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        let _ = ctx;
    }

    /// The §3.4 self-test, exercised by the quarantine re-enable probe
    /// (a synthetic blocking CHECK with op [`rse_isa::chk::ops::SELFTEST`]).
    /// A module should verify whatever internal invariants it can check
    /// cheaply (e.g. a state digest) and report `Fail` when its state is
    /// corrupt. The default claims health unconditionally — appropriate
    /// for stateless modules, where a transient output-wire fault heals
    /// on its own.
    fn self_test(&mut self) -> Verdict {
        Verdict::Pass
    }

    /// Deterministically corrupts the module's internal state (the
    /// campaign's module-state fault model). Returns `true` if any state
    /// was actually flipped; the default has no state to corrupt.
    fn corrupt_state(&mut self, seed: u64) -> bool {
        let _ = seed;
        false
    }

    /// Upcast for state retrieval by system software (the paper's "size
    /// query and retrieval check instruction" is complemented here by
    /// direct inspection for the recovery code path).
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_display_is_human_readable() {
        assert_eq!(Verdict::Pass.to_string(), "pass (check=0: commit proceeds)");
        assert_eq!(Verdict::Fail.to_string(), "fail (check=1: pipeline flush)");
    }
}
