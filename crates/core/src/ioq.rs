//! The Instruction Output Queue (IOQ): the engine's one record per
//! in-flight instruction.
//!
//! An IOQ entry is allocated for **every** instruction when it is
//! forwarded to the framework (simultaneously with dispatch, §3.2) and
//! freed once, when the instruction commits or is squashed. The entry
//! carries two bits whose meaning is Table 1 of the paper:
//!
//! | `checkValid` | `check` | Meaning |
//! |---|---|---|
//! | 0 | 0 | entry allocated for a CHECK whose execution is incomplete — the pipeline may stall at commit |
//! | 1 | 0 | non-CHECK instruction, or CHECK that completed without error — commit proceeds |
//! | 1 | 1 | a module detected an error — the pipeline is flushed |
//!
//! The same entry holds the instruction's slot of the `Fetch_Out` input
//! queue (§3.1). The paper's interface has five input queues —
//! `Fetch_Out`, `Regfile_Data`, `Execute_Out`, `Memory_Out` and
//! `Commit_Out` — each with one entry per reorder-buffer slot. Modules
//! here receive operand values, execute results and loaded values
//! through the [`Module::on_dispatch`](crate::Module::on_dispatch) and
//! [`Module::on_execute`](crate::Module::on_execute) callbacks, and the
//! `Commit_Out` indications through `on_commit`/`on_squash`. Only
//! `Fetch_Out` is kept, because modules read it back by instruction
//! after dispatch ([`Ioq::fetched`]). The
//! [`hardware_cost`](crate::hardware_cost) model still prices all five
//! queues.
//!
//! The IOQ is an array with one slot per ROB entry, addressed as the
//! paper addresses it: by ROB entry number. Live [`RobId`]s are
//! consecutive and never more than the ROB holds, so instruction `rob`
//! sits in slot `rob % capacity` and no other live instruction maps
//! there. Each entry keeps its own `rob`, so a lookup by an id that is
//! not live (not yet dispatched, or already committed or squashed and
//! its slot taken by a later instruction) finds nothing. Besides the
//! bits, an entry records the bookkeeping of the §3.4 self-checking
//! watchdog and the per-module output multiplexer: allocation time, the
//! watchdog's last timeout charge, whether a module (as opposed to a
//! stuck-at fault) produced the bits, and whether the multiplexer forced
//! a CHECK to commit as a NOP.

use rse_isa::{Inst, ModuleId};
use rse_pipeline::{CommitGate, RobId};

/// One entry of the `Fetch_Out` queue: the fetched instruction as the
/// pipeline saw it.
#[derive(Debug, Clone, Copy)]
pub struct FetchOutEntry {
    /// Program counter.
    pub pc: u32,
    /// Raw instruction word (post any in-flight corruption — exactly what
    /// the pipeline is executing; the ICM compares this against the
    /// redundant copy).
    pub word: u32,
    /// Decoded instruction.
    pub inst: Inst,
    /// Whether the pipeline flagged it as wrong-path.
    pub wrong_path: bool,
}

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

impl IoqEntryKind {
    /// The module a CHECK entry belongs to; `None` for a plain entry.
    pub(crate) fn module(self) -> Option<ModuleId> {
        match self {
            IoqEntryKind::Plain => None,
            IoqEntryKind::BlockingChk(m) | IoqEntryKind::NonBlockingChk(m) => Some(m),
        }
    }
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

/// The engine's record of one in-flight instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IoqEntry {
    /// The instruction this entry belongs to.
    rob: RobId,
    /// The instruction's `Fetch_Out` slot.
    pub(crate) fetched: FetchOutEntry,
    pub(crate) kind: IoqEntryKind,
    check_valid: bool,
    pub(crate) check: bool,
    /// The cycle the watchdog's timeout timer was last armed: set at
    /// allocation and reset at each timeout charge, so the timer re-arms
    /// instead of firing every cycle.
    pub(crate) armed_at: u64,
    /// Whether a module actually wrote the result (distinguishes a real
    /// completion from a stuck-at-1 `checkValid`).
    pub(crate) module_wrote: bool,
    /// Whether the per-module output multiplexer forces this CHECK to
    /// commit as a NOP: its module was quarantined or disabled at
    /// dispatch or while the entry was in flight.
    pub(crate) muxed: bool,
}

impl IoqEntry {
    /// `(checkValid, check)` as the output wires show them under the
    /// stuck-at `fault`.
    fn observed_bits(&self, fault: Option<IoqFault>) -> (bool, bool) {
        let (mut valid, mut check) = (self.check_valid, self.check);
        match fault {
            Some(IoqFault::ValidStuck0) => valid = false,
            Some(IoqFault::ValidStuck1) => valid = true,
            Some(IoqFault::CheckStuck0) => check = false,
            Some(IoqFault::CheckStuck1) => check = true,
            None => {}
        }
        (valid, check)
    }
}

/// The Instruction Output Queue.
#[derive(Debug, Clone)]
pub struct Ioq {
    /// One slot per ROB entry; instruction `rob` lives in slot
    /// `rob % slots.len()`.
    slots: Box<[Option<IoqEntry>]>,
    occupancy: usize,
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

/// The fault observable on the output bits of an entry of `kind`: the
/// global fault if present, else the module-targeted fault when the
/// entry belongs to the targeted module.
fn observed_fault(
    fault: Option<IoqFault>,
    module_fault: Option<(ModuleId, IoqFault)>,
    kind: IoqEntryKind,
) -> Option<IoqFault> {
    fault.or_else(|| module_fault.and_then(|(m, f)| (kind.module() == Some(m)).then_some(f)))
}

impl Ioq {
    /// Creates an IOQ with `capacity` entries (at least the ROB size).
    pub fn new(capacity: usize) -> Ioq {
        Ioq {
            slots: vec![None; capacity].into_boxed_slice(),
            occupancy: 0,
            fault: None,
            module_fault: None,
            allocated_total: 0,
            error_verdicts: 0,
        }
    }

    /// Number of live entries.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    fn slot(&self, rob: RobId) -> usize {
        (rob.0 % self.slots.len() as u64) as usize
    }

    /// Injects (or clears) a stuck-at fault on the output bits.
    pub fn inject_fault(&mut self, fault: Option<IoqFault>) {
        self.fault = fault;
    }

    /// Injects (or clears) a stuck-at fault confined to one module's
    /// CHECK entries.
    pub fn inject_module_fault(&mut self, fault: Option<(ModuleId, IoqFault)>) {
        self.module_fault = fault;
    }

    /// The fault observable on the output wires of `module`'s CHECK
    /// entries — used by the engine's self-test probe evaluation, which
    /// reads the same wires as the commit unit.
    pub fn effective_fault_for(&self, module: ModuleId) -> Option<IoqFault> {
        observed_fault(
            self.fault,
            self.module_fault,
            IoqEntryKind::BlockingChk(module),
        )
    }

    /// Allocates the entry for a dispatched instruction, holding its
    /// `Fetch_Out` slot.
    ///
    /// # Panics
    ///
    /// Panics if `rob`'s slot is taken — the pipeline cannot have more
    /// in-flight instructions than ROB entries, so this indicates a
    /// bookkeeping bug.
    pub fn allocate(&mut self, now: u64, rob: RobId, kind: IoqEntryKind, fetched: FetchOutEntry) {
        let slot = self.slot(rob);
        assert!(
            self.slots[slot].is_none(),
            "IOQ overflow: more entries than the ROB"
        );
        let (check_valid, check) = match kind {
            // Table 1: non-CHECK instructions start at `10`.
            IoqEntryKind::Plain => (true, false),
            // CHECK instructions start at `00`.
            IoqEntryKind::BlockingChk(_) | IoqEntryKind::NonBlockingChk(_) => (false, false),
        };
        self.allocated_total += 1;
        self.occupancy += 1;
        self.slots[slot] = Some(IoqEntry {
            rob,
            fetched,
            kind,
            check_valid,
            check,
            armed_at: now,
            module_wrote: false,
            muxed: false,
        });
    }

    /// A module (or the enable/disable unit, or the asynchronous-mode
    /// fast path) writes the result bits for `rob`: `error` selects the
    /// `check` bit, and `checkValid` is set.
    pub fn complete(&mut self, rob: RobId, error: bool) {
        let slot = self.slot(rob);
        if let Some(e) = self.slots[slot].as_mut().filter(|e| e.rob == rob) {
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
        let slot = self.slot(rob);
        if self.slots[slot].as_ref().is_some_and(|e| e.rob == rob) {
            self.slots[slot] = None;
            self.occupancy -= 1;
        }
    }

    /// The `Fetch_Out` slot of a live instruction.
    pub fn fetched(&self, rob: RobId) -> Option<&FetchOutEntry> {
        self.entry(rob).map(|e| &e.fetched)
    }

    /// The record of a live instruction, with the *unfaulted* bits.
    pub(crate) fn entry(&self, rob: RobId) -> Option<&IoqEntry> {
        self.slots[self.slot(rob)].as_ref().filter(|e| e.rob == rob)
    }

    /// The record of a live instruction, mutably.
    pub(crate) fn entry_mut(&mut self, rob: RobId) -> Option<&mut IoqEntry> {
        let slot = self.slot(rob);
        self.slots[slot].as_mut().filter(|e| e.rob == rob)
    }

    /// Reads the commit gate for `rob`, applying any injected stuck-at
    /// fault to the observed bits (the fault sits on the output wires to
    /// the commit unit, exactly as in Table 2).
    pub fn gate(&self, rob: RobId) -> CommitGate {
        let Some(e) = self.entry(rob) else {
            // Untracked instruction (allocated before the engine attached):
            // behaves like `10`.
            return CommitGate::Pass;
        };
        let (valid, check) = e.observed_bits(observed_fault(self.fault, self.module_fault, e.kind));
        match (valid, check) {
            (false, _) => CommitGate::Stall,
            (true, false) => CommitGate::Pass,
            (true, true) => CommitGate::Flush,
        }
    }

    /// The watchdog's timer scan: each live blocking CHECK whose
    /// `checkValid` reads 0, with its owning module, in slot order.
    ///
    /// The watchdog monitors the same output wires the commit unit reads,
    /// so an injected stuck-at fault is visible here too — that is
    /// exactly how §3.4 detects a stuck-at-0 `checkValid` (it looks like
    /// a module that never makes progress).
    ///
    /// Slot order is program order only until the ids wrap the array;
    /// the watchdog orders same-cycle charges by `RobId` itself.
    pub(crate) fn timers(&mut self) -> impl Iterator<Item = (RobId, ModuleId, &mut IoqEntry)> {
        let (fault, module_fault) = (self.fault, self.module_fault);
        self.slots.iter_mut().flatten().filter_map(move |e| {
            let IoqEntryKind::BlockingChk(m) = e.kind else {
                return None;
            };
            let (valid, _) = e.observed_bits(observed_fault(fault, module_fault, e.kind));
            (!valid).then_some((e.rob, m, e))
        })
    }

    /// Forces every live CHECK of `module` that no module result was
    /// written for to commit as a NOP. When a module heals out of
    /// quarantine these stale entries would stall commit forever (their
    /// CHECKs were dropped while decoupled).
    pub(crate) fn force_nop_unwritten(&mut self, module: ModuleId) {
        for e in self.slots.iter_mut().flatten() {
            if e.kind.module() == Some(module) && !e.module_wrote {
                e.muxed = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: ModuleId = ModuleId::ICM;
    const NOP: FetchOutEntry = FetchOutEntry {
        pc: 0,
        word: 0,
        inst: Inst::Nop,
        wrong_path: false,
    };

    #[test]
    fn table1_plain_instruction_commits_freely() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(1), IoqEntryKind::Plain, NOP);
        assert_eq!(ioq.gate(RobId(1)), CommitGate::Pass);
    }

    #[test]
    fn table1_blocking_chk_stalls_until_complete() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(2), IoqEntryKind::BlockingChk(M), NOP);
        assert_eq!(ioq.gate(RobId(2)), CommitGate::Stall);
        ioq.complete(RobId(2), false);
        assert_eq!(ioq.gate(RobId(2)), CommitGate::Pass);
    }

    #[test]
    fn table1_error_flushes() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(3), IoqEntryKind::BlockingChk(M), NOP);
        ioq.complete(RobId(3), true);
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
        ioq.allocate(0, RobId(1), IoqEntryKind::Plain, NOP);
        ioq.allocate(0, RobId(2), IoqEntryKind::Plain, NOP);
        assert_eq!(ioq.occupancy(), 2);
        ioq.free(RobId(1));
        ioq.allocate(1, RobId(3), IoqEntryKind::Plain, NOP);
        assert_eq!(ioq.occupancy(), 2);
    }

    #[test]
    fn ids_sharing_a_slot_are_told_apart() {
        // Ids 4 apart share a slot of a 4-slot IOQ. Only the live one is
        // found; the other reads as untracked and writes to it are lost.
        let mut ioq = Ioq::new(4);
        ioq.allocate(0, RobId(3), IoqEntryKind::Plain, NOP);
        ioq.free(RobId(3));
        ioq.allocate(1, RobId(7), IoqEntryKind::BlockingChk(M), NOP);
        assert!(ioq.entry(RobId(3)).is_none());
        assert!(ioq.fetched(RobId(11)).is_none(), "not dispatched yet");
        ioq.complete(RobId(3), true);
        ioq.free(RobId(3));
        assert_eq!(ioq.occupancy(), 1);
        assert_eq!(ioq.gate(RobId(3)), CommitGate::Pass);
        assert_eq!(ioq.gate(RobId(7)), CommitGate::Stall);
        // A full window of consecutive ids wraps the array.
        for rob in 4..7 {
            ioq.allocate(2, RobId(rob), IoqEntryKind::Plain, NOP);
        }
        assert_eq!(ioq.occupancy(), 4);
        assert!((4..8).all(|rob| ioq.entry(RobId(rob)).is_some()));
    }

    #[test]
    #[should_panic(expected = "IOQ overflow")]
    fn overflow_panics() {
        let mut ioq = Ioq::new(1);
        ioq.allocate(0, RobId(1), IoqEntryKind::Plain, NOP);
        ioq.allocate(0, RobId(2), IoqEntryKind::Plain, NOP);
    }

    #[test]
    fn stuck_at_faults_bias_gate() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(1), IoqEntryKind::BlockingChk(M), NOP);
        ioq.complete(RobId(1), false);
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
        ioq.allocate(0, RobId(1), IoqEntryKind::Plain, NOP);
        ioq.allocate(0, RobId(2), IoqEntryKind::BlockingChk(ModuleId::ICM), NOP);
        ioq.allocate(0, RobId(3), IoqEntryKind::BlockingChk(ModuleId::MLR), NOP);
        ioq.complete(RobId(2), false);
        ioq.complete(RobId(3), false);
        ioq.inject_module_fault(Some((ModuleId::ICM, IoqFault::ValidStuck0)));
        // Only the ICM entry observes the stuck bit.
        assert_eq!(ioq.gate(RobId(1)), CommitGate::Pass);
        assert_eq!(ioq.gate(RobId(2)), CommitGate::Stall);
        assert_eq!(ioq.gate(RobId(3)), CommitGate::Pass);
        let stuck: Vec<_> = ioq.timers().map(|(rob, ..)| rob).collect();
        assert_eq!(stuck, vec![RobId(2)]);
        ioq.inject_module_fault(None);
        assert_eq!(ioq.gate(RobId(2)), CommitGate::Pass);
    }

    #[test]
    fn global_fault_takes_precedence_over_module_fault() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(2), IoqEntryKind::BlockingChk(M), NOP);
        ioq.complete(RobId(2), false);
        ioq.inject_module_fault(Some((M, IoqFault::ValidStuck0)));
        ioq.inject_fault(Some(IoqFault::CheckStuck1));
        assert_eq!(ioq.gate(RobId(2)), CommitGate::Flush);
    }

    #[test]
    fn records_keep_raw_bits_and_heal_muxes_only_unwritten_checks() {
        let mut ioq = Ioq::new(16);
        let fetched = FetchOutEntry { pc: 0x40, ..NOP };
        ioq.allocate(0, RobId(1), IoqEntryKind::BlockingChk(M), fetched);
        ioq.allocate(0, RobId(2), IoqEntryKind::NonBlockingChk(M), NOP);
        ioq.allocate(0, RobId(3), IoqEntryKind::BlockingChk(ModuleId::MLR), NOP);
        ioq.allocate(0, RobId(4), IoqEntryKind::Plain, NOP);
        ioq.complete(RobId(2), true);
        ioq.force_nop_unwritten(M);
        let muxed: Vec<bool> = (1..=4)
            .map(|r| ioq.entry(RobId(r)).unwrap().muxed)
            .collect();
        assert_eq!(muxed, [true, false, false, false]);
        let e = ioq.entry(RobId(2)).unwrap();
        assert_eq!(
            (e.kind, e.module_wrote, e.check),
            (IoqEntryKind::NonBlockingChk(M), true, true)
        );
        assert_eq!(ioq.fetched(RobId(1)).map(|f| f.pc), Some(0x40));
        assert!(ioq.entry(RobId(99)).is_none());
        assert!(ioq.fetched(RobId(99)).is_none());
    }

    #[test]
    fn check_stuck0_masks_errors() {
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(1), IoqEntryKind::BlockingChk(M), NOP);
        ioq.complete(RobId(1), true);
        ioq.inject_fault(Some(IoqFault::CheckStuck0));
        // The module said "error" but the stuck bit hides it.
        assert_eq!(ioq.gate(RobId(1)), CommitGate::Pass);
    }
}
