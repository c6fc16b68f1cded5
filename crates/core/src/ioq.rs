//! The Instruction Output Queue (IOQ).
//!
//! An IOQ entry is allocated for **every** instruction when it is
//! forwarded to the framework (simultaneously with dispatch, §3.2). The
//! entry carries two bits whose meaning is Table 1 of the paper:
//!
//! | `checkValid` | `check` | Meaning |
//! |---|---|---|
//! | 0 | 0 | entry allocated for a CHECK whose execution is incomplete — the pipeline may stall at commit |
//! | 1 | 0 | non-CHECK instruction, or CHECK that completed without error — commit proceeds |
//! | 1 | 1 | a module detected an error — the pipeline is flushed |
//!
//! The IOQ also records the bookkeeping the self-checking watchdog of
//! §3.4 monitors: allocation time, the time of the 0→1 `checkValid`
//! transition, and whether a module (as opposed to a stuck-at fault)
//! produced the bits.

use crate::rob_table::RobTable;
use rse_isa::ModuleId;
use rse_pipeline::{CommitGate, RobId};

/// What kind of instruction an IOQ entry was allocated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IoqEntryKind {
    /// A non-CHECK instruction: bits initialized to `10` (commit freely).
    Plain,
    /// A blocking CHECK handled by a module: bits initialized to `00`.
    BlockingChk(ModuleId),
    /// A non-blocking CHECK: the module sets `checkValid` immediately
    /// after acquiring the instruction, so commit never waits.
    NonBlockingChk(ModuleId),
}

/// Injectable stuck-at faults on the IOQ output bits (the §3.4 / Table 2
/// error scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IoqFault {
    /// `checkValid` stuck at 0: blocking CHECKs stall forever.
    ValidStuck0,
    /// `checkValid` stuck at 1: results pass before modules finish.
    ValidStuck1,
    /// `check` stuck at 0: errors are never reported (false negative).
    CheckStuck0,
    /// `check` stuck at 1: the pipeline is flushed repeatedly.
    CheckStuck1,
}

impl std::fmt::Display for IoqFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoqFault::ValidStuck0 => {
                write!(f, "checkValid stuck at 0 (blocking CHECKs stall forever)")
            }
            IoqFault::ValidStuck1 => {
                write!(
                    f,
                    "checkValid stuck at 1 (results pass before modules finish)"
                )
            }
            IoqFault::CheckStuck0 => {
                write!(
                    f,
                    "check stuck at 0 (errors never reported: false negative)"
                )
            }
            IoqFault::CheckStuck1 => {
                write!(f, "check stuck at 1 (pipeline flushed repeatedly)")
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct IoqEntry {
    kind: IoqEntryKind,
    check_valid: bool,
    check: bool,
    allocated_at: u64,
    valid_set_at: Option<u64>,
    /// Whether a module actually wrote the result (distinguishes a real
    /// completion from a stuck-at-1 `checkValid`).
    module_wrote: bool,
}

/// The Instruction Output Queue.
#[derive(Debug, Clone, Default)]
pub struct Ioq {
    entries: RobTable<IoqEntry>,
    capacity: usize,
    fault: Option<IoqFault>,
    /// A stuck-at fault confined to the output bits of one module's
    /// CHECK entries (the module-targeted campaign fault models); other
    /// modules' entries and plain entries are unaffected.
    module_fault: Option<(ModuleId, IoqFault)>,
    /// Total entries ever allocated.
    pub allocated_total: u64,
    /// Error verdicts recorded (check 0→1 transitions).
    pub error_verdicts: u64,
}

/// The module a CHECK entry belongs to, if the entry is a CHECK.
fn entry_module(kind: IoqEntryKind) -> Option<ModuleId> {
    match kind {
        IoqEntryKind::Plain => None,
        IoqEntryKind::BlockingChk(m) | IoqEntryKind::NonBlockingChk(m) => Some(m),
    }
}

impl Ioq {
    /// Creates an IOQ with `capacity` entries (the ROB size).
    pub fn new(capacity: usize) -> Ioq {
        Ioq {
            entries: RobTable::with_capacity(capacity),
            capacity,
            ..Ioq::default()
        }
    }

    /// Number of live entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Injects (or clears) a stuck-at fault on the output bits.
    pub fn inject_fault(&mut self, fault: Option<IoqFault>) {
        self.fault = fault;
    }

    /// The currently injected fault, if any.
    pub fn fault(&self) -> Option<IoqFault> {
        self.fault
    }

    /// Injects (or clears) a stuck-at fault confined to one module's
    /// CHECK entries.
    pub fn inject_module_fault(&mut self, fault: Option<(ModuleId, IoqFault)>) {
        self.module_fault = fault;
    }

    /// The currently injected module-targeted fault, if any.
    pub fn module_fault(&self) -> Option<(ModuleId, IoqFault)> {
        self.module_fault
    }

    /// The fault observable on the output wires of `module`'s CHECK
    /// entries — used by the engine's self-test probe evaluation, which
    /// reads the same wires as the commit unit.
    pub fn effective_fault_for(&self, module: ModuleId) -> Option<IoqFault> {
        self.effective_fault(IoqEntryKind::BlockingChk(module))
    }

    /// The fault observable on the output bits of an entry of `kind`:
    /// the global fault if present, else the module-targeted fault when
    /// the entry belongs to the targeted module.
    fn effective_fault(&self, kind: IoqEntryKind) -> Option<IoqFault> {
        self.fault.or_else(|| {
            self.module_fault
                .and_then(|(m, f)| (entry_module(kind) == Some(m)).then_some(f))
        })
    }

    /// Allocates an entry for a dispatched instruction.
    ///
    /// # Panics
    ///
    /// Panics if the IOQ would exceed its capacity — the pipeline cannot
    /// have more in-flight instructions than ROB entries, so this
    /// indicates a bookkeeping bug.
    pub fn allocate(&mut self, now: u64, rob: RobId, kind: IoqEntryKind) {
        assert!(
            self.entries.len() < self.capacity,
            "IOQ overflow: more entries than the ROB"
        );
        let (check_valid, check) = match kind {
            // Table 1: non-CHECK instructions start at `10`.
            IoqEntryKind::Plain => (true, false),
            // CHECK instructions start at `00`.
            IoqEntryKind::BlockingChk(_) | IoqEntryKind::NonBlockingChk(_) => (false, false),
        };
        self.allocated_total += 1;
        self.entries.insert(
            rob,
            IoqEntry {
                kind,
                check_valid,
                check,
                allocated_at: now,
                valid_set_at: check_valid.then_some(now),
                module_wrote: false,
            },
        );
    }

    /// A module (or the enable/disable unit, or the asynchronous-mode
    /// fast path) writes the result bits for `rob`: `error` selects the
    /// `check` bit, and `checkValid` is set.
    pub fn complete(&mut self, now: u64, rob: RobId, error: bool) {
        if let Some(e) = self.entries.get_mut(rob) {
            if !e.check_valid {
                e.valid_set_at = Some(now);
            }
            e.check_valid = true;
            if error && !e.check {
                self.error_verdicts += 1;
            }
            e.check = error;
            e.module_wrote = true;
        }
    }

    /// Frees the entry for a committed or squashed instruction.
    pub fn free(&mut self, rob: RobId) {
        self.entries.remove(rob);
    }

    /// Reads the commit gate for `rob`, applying any injected stuck-at
    /// fault to the observed bits (the fault sits on the output wires to
    /// the commit unit, exactly as in Table 2).
    pub fn gate(&self, rob: RobId) -> CommitGate {
        let Some(e) = self.entries.get(rob) else {
            // Untracked instruction (allocated before the engine attached):
            // behaves like `10`.
            return CommitGate::Pass;
        };
        let mut valid = e.check_valid;
        let mut check = e.check;
        match self.effective_fault(e.kind) {
            Some(IoqFault::ValidStuck0) => valid = false,
            Some(IoqFault::ValidStuck1) => valid = true,
            Some(IoqFault::CheckStuck0) => check = false,
            Some(IoqFault::CheckStuck1) => check = true,
            None => {}
        }
        match (valid, check) {
            (false, _) => CommitGate::Stall,
            (true, false) => CommitGate::Pass,
            (true, true) => CommitGate::Flush,
        }
    }

    /// Iterates over entries for the watchdog: `(rob, kind, allocated_at,
    /// check_valid, module_wrote)`.
    ///
    /// The watchdog monitors the same output wires the commit unit reads,
    /// so an injected stuck-at fault is visible here too — that is
    /// exactly how §3.4 detects a stuck-at-0 `checkValid` (it looks like
    /// a module that never makes progress).
    ///
    /// Entries come out in ascending ROB order, the order the table
    /// keeps them in: when several modules time out in the same cycle,
    /// the anomaly charge sequence (and hence the health state machine's
    /// event order) is fixed by program order.
    pub fn watchdog_view(
        &self,
    ) -> impl Iterator<Item = (RobId, IoqEntryKind, u64, bool, bool)> + '_ {
        self.entries.iter().map(|(rob, e)| {
            let valid = match self.effective_fault(e.kind) {
                Some(IoqFault::ValidStuck0) => false,
                Some(IoqFault::ValidStuck1) => true,
                _ => e.check_valid,
            };
            (rob, e.kind, e.allocated_at, valid, e.module_wrote)
        })
    }

    /// The kind of a live entry.
    pub fn entry_kind(&self, rob: RobId) -> Option<IoqEntryKind> {
        self.entries.get(rob).map(|e| e.kind)
    }

    /// Raw `(kind, module_wrote, check)` of a live entry — the
    /// *unfaulted* bits, for the engine's commit-time bookkeeping (clean
    /// commits, NOP-mux accounting).
    pub fn entry_state(&self, rob: RobId) -> Option<(IoqEntryKind, bool, bool)> {
        self.entries
            .get(rob)
            .map(|e| (e.kind, e.module_wrote, e.check))
    }

    /// Live CHECK entries of `module` whose result was never written by
    /// the module. When a module heals out of quarantine these stale
    /// entries would stall commit forever (their CHECKs were dropped
    /// while decoupled), so the engine force-NOPs them. Ascending ROB
    /// order.
    pub fn incomplete_for(&self, module: ModuleId) -> Vec<RobId> {
        self.entries
            .iter()
            .filter(|(_, e)| entry_module(e.kind) == Some(module) && !e.module_wrote)
            .map(|(rob, _)| rob)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: ModuleId = ModuleId::ICM;

    #[test]
    fn table1_plain_instruction_commits_freely() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(1), IoqEntryKind::Plain);
        assert_eq!(ioq.gate(RobId(1)), CommitGate::Pass);
    }

    #[test]
    fn table1_blocking_chk_stalls_until_complete() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(2), IoqEntryKind::BlockingChk(M));
        assert_eq!(ioq.gate(RobId(2)), CommitGate::Stall);
        ioq.complete(5, RobId(2), false);
        assert_eq!(ioq.gate(RobId(2)), CommitGate::Pass);
    }

    #[test]
    fn table1_error_flushes() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(3), IoqEntryKind::BlockingChk(M));
        ioq.complete(4, RobId(3), true);
        assert_eq!(ioq.gate(RobId(3)), CommitGate::Flush);
        assert_eq!(ioq.error_verdicts, 1);
    }

    #[test]
    fn untracked_instruction_passes() {
        let ioq = Ioq::new(16);
        assert_eq!(ioq.gate(RobId(99)), CommitGate::Pass);
    }

    #[test]
    fn free_releases_capacity() {
        let mut ioq = Ioq::new(2);
        ioq.allocate(0, RobId(1), IoqEntryKind::Plain);
        ioq.allocate(0, RobId(2), IoqEntryKind::Plain);
        assert_eq!(ioq.occupancy(), 2);
        ioq.free(RobId(1));
        ioq.allocate(1, RobId(3), IoqEntryKind::Plain);
        assert_eq!(ioq.occupancy(), 2);
    }

    #[test]
    #[should_panic(expected = "IOQ overflow")]
    fn overflow_panics() {
        let mut ioq = Ioq::new(1);
        ioq.allocate(0, RobId(1), IoqEntryKind::Plain);
        ioq.allocate(0, RobId(2), IoqEntryKind::Plain);
    }

    #[test]
    fn stuck_at_faults_bias_gate() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(1), IoqEntryKind::BlockingChk(M));
        ioq.complete(1, RobId(1), false);
        ioq.inject_fault(Some(IoqFault::CheckStuck1));
        assert_eq!(ioq.gate(RobId(1)), CommitGate::Flush);
        ioq.inject_fault(Some(IoqFault::ValidStuck0));
        assert_eq!(ioq.gate(RobId(1)), CommitGate::Stall);
        ioq.inject_fault(Some(IoqFault::ValidStuck1));
        assert_eq!(ioq.gate(RobId(1)), CommitGate::Pass);
        ioq.inject_fault(None);
        assert_eq!(ioq.gate(RobId(1)), CommitGate::Pass);
    }

    #[test]
    fn fault_display_is_human_readable() {
        assert_eq!(
            IoqFault::ValidStuck0.to_string(),
            "checkValid stuck at 0 (blocking CHECKs stall forever)"
        );
        assert!(IoqFault::CheckStuck1.to_string().contains("flushed"));
        assert!(IoqFault::CheckStuck0.to_string().contains("false negative"));
        assert!(IoqFault::ValidStuck1.to_string().contains("stuck at 1"));
    }

    #[test]
    fn module_fault_is_confined_to_that_module() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(1), IoqEntryKind::Plain);
        ioq.allocate(0, RobId(2), IoqEntryKind::BlockingChk(ModuleId::ICM));
        ioq.allocate(0, RobId(3), IoqEntryKind::BlockingChk(ModuleId::MLR));
        ioq.complete(1, RobId(2), false);
        ioq.complete(1, RobId(3), false);
        ioq.inject_module_fault(Some((ModuleId::ICM, IoqFault::ValidStuck0)));
        // Only the ICM entry observes the stuck bit.
        assert_eq!(ioq.gate(RobId(1)), CommitGate::Pass);
        assert_eq!(ioq.gate(RobId(2)), CommitGate::Stall);
        assert_eq!(ioq.gate(RobId(3)), CommitGate::Pass);
        let stuck: Vec<_> = ioq
            .watchdog_view()
            .filter(|(_, _, _, valid, _)| !*valid)
            .map(|(rob, ..)| rob)
            .collect();
        assert_eq!(stuck, vec![RobId(2)]);
        ioq.inject_module_fault(None);
        assert_eq!(ioq.gate(RobId(2)), CommitGate::Pass);
    }

    #[test]
    fn global_fault_takes_precedence_over_module_fault() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(2), IoqEntryKind::BlockingChk(M));
        ioq.complete(1, RobId(2), false);
        ioq.inject_module_fault(Some((M, IoqFault::ValidStuck0)));
        ioq.inject_fault(Some(IoqFault::CheckStuck1));
        assert_eq!(ioq.gate(RobId(2)), CommitGate::Flush);
    }

    #[test]
    fn entry_state_and_incomplete_for_report_raw_bits() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(1), IoqEntryKind::BlockingChk(M));
        ioq.allocate(0, RobId(2), IoqEntryKind::NonBlockingChk(M));
        ioq.allocate(0, RobId(3), IoqEntryKind::BlockingChk(ModuleId::MLR));
        ioq.allocate(0, RobId(4), IoqEntryKind::Plain);
        ioq.complete(1, RobId(2), true);
        assert_eq!(ioq.incomplete_for(M), vec![RobId(1)]);
        assert_eq!(ioq.incomplete_for(ModuleId::MLR), vec![RobId(3)]);
        assert_eq!(
            ioq.entry_state(RobId(2)),
            Some((IoqEntryKind::NonBlockingChk(M), true, true))
        );
        assert_eq!(ioq.entry_kind(RobId(4)), Some(IoqEntryKind::Plain));
        assert_eq!(ioq.entry_kind(RobId(99)), None);
    }

    #[test]
    fn check_stuck0_masks_errors() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(1), IoqEntryKind::BlockingChk(M));
        ioq.complete(1, RobId(1), true);
        ioq.inject_fault(Some(IoqFault::CheckStuck0));
        // The module said "error" but the stuck bit hides it.
        assert_eq!(ioq.gate(RobId(1)), CommitGate::Pass);
    }
}
