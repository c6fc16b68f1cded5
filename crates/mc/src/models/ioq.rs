//! Model of the Instruction Output Queue (theorem group 2): the real
//! [`Ioq`] driven through every interleaving of allocate / complete /
//! commit / squash and stuck-at fault injection, with the commit gate
//! checked on every state against an independent Table 1 truth table.
//!
//! The shadow specification re-derives the paper's Table 1 from first
//! principles (per-entry `(checkValid, check)` bits plus the stuck-at
//! overlay of Table 2), so a regression anywhere in the production
//! bit-keeping, fault precedence, or gate mapping diverges from the
//! spec on some reachable state and the checker reports it with a
//! shrunk allocate/complete/inject trace.

use crate::{Invariant, Model};
use rse_core::{FetchOutEntry, Ioq, IoqEntryKind, IoqFault};
use rse_isa::{Inst, ModuleId};
use rse_pipeline::{CommitGate, RobId};
use std::hash::{Hash, Hasher};

/// The `Fetch_Out` slot of every allocated entry: the commit gate never
/// reads it, so one fixed value serves every state.
const FETCHED: FetchOutEntry = FetchOutEntry {
    pc: 0,
    word: 0,
    inst: Inst::Nop,
    wrong_path: false,
};

/// The shadow specification of one live IOQ entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SlotSpec {
    /// What the entry was allocated for.
    pub kind: IoqEntryKind,
    /// Whether a module has written the result bits.
    pub wrote: bool,
    /// The error verdict of the latest write.
    pub err: bool,
}

impl SlotSpec {
    /// The module the entry belongs to, if it is a CHECK entry.
    fn module(&self) -> Option<ModuleId> {
        match self.kind {
            IoqEntryKind::Plain => None,
            IoqEntryKind::BlockingChk(m) | IoqEntryKind::NonBlockingChk(m) => Some(m),
        }
    }
}

/// Independent Table 1 + Table 2 truth table: the commit gate implied
/// by a shadow entry under an observable stuck-at fault.
pub fn spec_gate(spec: &SlotSpec, fault: Option<IoqFault>) -> CommitGate {
    // Table 1 initial/written bit values.
    let (mut valid, mut check) = match spec.kind {
        IoqEntryKind::Plain => (true, false),
        IoqEntryKind::BlockingChk(_) | IoqEntryKind::NonBlockingChk(_) => {
            if spec.wrote {
                (true, spec.err)
            } else {
                (false, false)
            }
        }
    };
    // Table 2 stuck-at overlay on the output wires.
    match fault {
        Some(IoqFault::ValidStuck0) => valid = false,
        Some(IoqFault::ValidStuck1) => valid = true,
        Some(IoqFault::CheckStuck0) => check = false,
        Some(IoqFault::CheckStuck1) => check = true,
        None => {}
    }
    // Table 1 gate mapping.
    match (valid, check) {
        (false, _) => CommitGate::Stall,
        (true, false) => CommitGate::Pass,
        (true, true) => CommitGate::Flush,
    }
}

/// The canonical projection: the shadow alone. The real [`Ioq`] is a
/// function of the shadow for everything the invariants and future
/// transitions can observe (timestamps never reach the gate).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ICanon {
    slots: Vec<Option<SlotSpec>>,
    fault: Option<IoqFault>,
    module_fault: Option<(ModuleId, IoqFault)>,
}

/// One state of the IOQ model: the real queue plus its shadow spec.
#[derive(Clone, Debug)]
pub struct IState {
    /// The real production queue under test.
    pub ioq: Ioq,
    canon: ICanon,
}

impl IState {
    /// The shadow entry of `slot`, if occupied.
    pub fn slot(&self, slot: usize) -> Option<SlotSpec> {
        self.canon.slots[slot]
    }

    /// The fault observable on entries of `kind` per the shadow
    /// (global fault takes precedence over the module-confined one).
    fn effective_fault(&self, spec: &SlotSpec) -> Option<IoqFault> {
        self.canon.fault.or_else(|| {
            self.canon
                .module_fault
                .and_then(|(m, f)| (spec.module() == Some(m)).then_some(f))
        })
    }
}

impl PartialEq for IState {
    fn eq(&self, other: &IState) -> bool {
        self.canon == other.canon
    }
}

impl Eq for IState {}

impl Hash for IState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canon.hash(state);
    }
}

/// An input to the IOQ model.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum IEvent {
    /// Dispatch allocates an entry of this kind in the lowest free slot.
    Alloc(IoqEntryKind),
    /// A module writes the result bits of a live CHECK entry.
    Complete {
        /// The slot written.
        slot: usize,
        /// The verdict written.
        error: bool,
    },
    /// Commit retires the entry (enabled only when the spec says Pass).
    Commit {
        /// The slot retired.
        slot: usize,
    },
    /// A flush squashes the entry (enabled only when the spec says
    /// Flush).
    Squash {
        /// The slot squashed.
        slot: usize,
    },
    /// Inject or clear the global stuck-at fault.
    Inject(Option<IoqFault>),
    /// Inject or clear the module-confined stuck-at fault.
    InjectModule(Option<(ModuleId, IoqFault)>),
}

/// The IOQ model configuration: slot count and the event alphabets.
pub struct IoqModel {
    /// IOQ capacity (= ROB slots tracked).
    pub slots: usize,
    /// Entry kinds dispatch may allocate.
    pub kinds: Vec<IoqEntryKind>,
    /// Global stuck-at settings injection may switch between.
    pub faults: Vec<Option<IoqFault>>,
    /// Module-confined stuck-at settings injection may switch between.
    pub module_faults: Vec<Option<(ModuleId, IoqFault)>>,
}

const ALL_FAULTS: [IoqFault; 4] = [
    IoqFault::ValidStuck0,
    IoqFault::ValidStuck1,
    IoqFault::CheckStuck0,
    IoqFault::CheckStuck1,
];

impl Default for IoqModel {
    fn default() -> IoqModel {
        IoqModel {
            slots: 3,
            kinds: vec![
                IoqEntryKind::Plain,
                IoqEntryKind::BlockingChk(ModuleId::ICM),
                IoqEntryKind::NonBlockingChk(ModuleId::ICM),
                IoqEntryKind::BlockingChk(ModuleId::MLR),
            ],
            faults: std::iter::once(None).chain(ALL_FAULTS.map(Some)).collect(),
            module_faults: std::iter::once(None)
                .chain(ALL_FAULTS.map(|f| Some((ModuleId::ICM, f))))
                .collect(),
        }
    }
}

impl IoqModel {
    fn mk(&self, ioq: Ioq, canon: ICanon) -> IState {
        IState { ioq, canon }
    }
}

impl Model for IoqModel {
    type State = IState;
    type Event = IEvent;

    fn initial_states(&self) -> Vec<IState> {
        vec![self.mk(
            Ioq::new(self.slots),
            ICanon {
                slots: vec![None; self.slots],
                fault: None,
                module_fault: None,
            },
        )]
    }

    fn step(&self, s: &IState) -> Vec<(IEvent, IState)> {
        let mut out = Vec::new();
        // Dispatch: allocate in the lowest free slot.
        if let Some(free) = s.canon.slots.iter().position(Option::is_none) {
            for &kind in &self.kinds {
                let mut next = s.clone();
                next.ioq.allocate(0, RobId(free as u64), kind, FETCHED);
                next.canon.slots[free] = Some(SlotSpec {
                    kind,
                    wrote: false,
                    err: false,
                });
                out.push((IEvent::Alloc(kind), next));
            }
        }
        for slot in 0..self.slots {
            let Some(spec) = s.canon.slots[slot] else {
                continue;
            };
            // Module result writes (CHECK entries only; repeated writes
            // model the asynchronous-mode overwrite path).
            if spec.kind != IoqEntryKind::Plain {
                for error in [false, true] {
                    let mut next = s.clone();
                    next.ioq.complete(RobId(slot as u64), error);
                    next.canon.slots[slot] = Some(SlotSpec {
                        wrote: true,
                        err: error,
                        ..spec
                    });
                    out.push((IEvent::Complete { slot, error }, next));
                }
            }
            // Retirement, enabled from the *spec* side so the model
            // stays independent of the implementation under test.
            match spec_gate(&spec, s.effective_fault(&spec)) {
                CommitGate::Pass => {
                    let mut next = s.clone();
                    next.ioq.free(RobId(slot as u64));
                    next.canon.slots[slot] = None;
                    out.push((IEvent::Commit { slot }, next));
                }
                CommitGate::Flush => {
                    let mut next = s.clone();
                    next.ioq.free(RobId(slot as u64));
                    next.canon.slots[slot] = None;
                    out.push((IEvent::Squash { slot }, next));
                }
                // Stall blocks retirement; PassNop is the quarantine
                // mux's verdict and never arises from the raw table.
                CommitGate::Stall | CommitGate::PassNop => {}
            }
        }
        for &fault in &self.faults {
            if fault != s.canon.fault {
                let mut next = s.clone();
                next.ioq.inject_fault(fault);
                next.canon.fault = fault;
                out.push((IEvent::Inject(fault), next));
            }
        }
        for &mf in &self.module_faults {
            if mf != s.canon.module_fault {
                let mut next = s.clone();
                next.ioq.inject_module_fault(mf);
                next.canon.module_fault = mf;
                out.push((IEvent::InjectModule(mf), next));
            }
        }
        out
    }

    fn invariants(&self) -> Vec<Invariant<IState>> {
        let slots = self.slots;
        vec![
            Invariant::new("table1-gate", move |s: &IState| {
                (0..slots).all(|slot| {
                    let real = s.ioq.gate(RobId(slot as u64));
                    let spec = match s.slot(slot) {
                        // Untracked instructions behave like `10`.
                        None => CommitGate::Pass,
                        Some(spec) => spec_gate(&spec, s.effective_fault(&spec)),
                    };
                    real == spec
                })
            }),
            Invariant::new("occupancy", move |s: &IState| {
                s.ioq.occupancy() == (0..slots).filter(|&i| s.slot(i).is_some()).count()
            }),
        ]
    }
}
