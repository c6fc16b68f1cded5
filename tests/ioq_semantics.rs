//! Table 1 of the paper — the diagnostic role of the `checkValid` and
//! `check` fields of the Instruction Output Queue — verified through the
//! public engine interface and with property-based sequences.

use rse::core::ioq::{FetchOutEntry, Ioq, IoqEntryKind};
use rse::core::testutil::{ScriptedBehavior, ScriptedModule};
use rse::core::{Engine, RseConfig, Verdict};
use rse::isa::asm::assemble;
use rse::isa::{Inst, ModuleId};
use rse::mem::{MemConfig, MemorySystem};
use rse::pipeline::{CommitGate, Pipeline, PipelineConfig, RobId, StepEvent};
use rse_support::prelude::*;

/// The `Fetch_Out` slot every entry here carries; the gate never reads it.
const NOP: FetchOutEntry = FetchOutEntry {
    pc: 0,
    word: 0,
    inst: Inst::Nop,
    wrong_path: false,
};

#[test]
fn table1_row1_free_then_allocated_chk_stalls() {
    let mut ioq = Ioq::new(16);
    // Row 1: a free entry imposes nothing.
    assert_eq!(ioq.gate(RobId(0)), CommitGate::Pass);
    // Row 2 (`00`): allocated CHECK, incomplete — the pipeline may stall.
    ioq.allocate(0, RobId(0), IoqEntryKind::BlockingChk(ModuleId::ICM), NOP);
    assert_eq!(ioq.gate(RobId(0)), CommitGate::Stall);
}

#[test]
fn table1_row3_non_check_is_10() {
    let mut ioq = Ioq::new(16);
    ioq.allocate(0, RobId(1), IoqEntryKind::Plain, NOP);
    assert_eq!(ioq.gate(RobId(1)), CommitGate::Pass);
}

#[test]
fn table1_row4_completed_check_without_error_commits() {
    let mut ioq = Ioq::new(16);
    ioq.allocate(0, RobId(2), IoqEntryKind::BlockingChk(ModuleId::ICM), NOP);
    ioq.complete(RobId(2), false);
    assert_eq!(ioq.gate(RobId(2)), CommitGate::Pass);
}

#[test]
fn table1_row5_error_flushes() {
    let mut ioq = Ioq::new(16);
    ioq.allocate(0, RobId(3), IoqEntryKind::BlockingChk(ModuleId::ICM), NOP);
    ioq.complete(RobId(3), true);
    assert_eq!(ioq.gate(RobId(3)), CommitGate::Flush);
}

/// The whole stack honors Table 1: under a passing module, a blocking
/// CHECK's stall window equals the module latency (within scan and
/// broadcast delays), never more.
#[test]
fn stall_window_bounded_by_module_latency() {
    for latency in [1u64, 10, 50] {
        let image = assemble("main: chk icm, blk, 2, 0\nhalt").unwrap();
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::with_framework()),
        );
        cpu.load_image(&image);
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(ScriptedModule::new(
            ModuleId::ICM,
            ScriptedBehavior::Respond {
                verdict: Verdict::Pass,
                latency,
            },
        )));
        engine.enable(ModuleId::ICM);
        assert_eq!(cpu.run(&mut engine, 100_000), StepEvent::Halted);
        let stalls = cpu.stats().commit_stall_cycles;
        assert!(stalls <= latency + 4, "latency {latency}: stalled {stalls}");
    }
}

/// The stuck-at fault vocabulary is load-bearing: the Display strings
/// appear in diagnostics, the model names are JSONL fields and CLI
/// arguments of recorded campaigns, and the plan descriptions are
/// pinned in golden files. None of them may drift.
#[test]
fn stuck_at_fault_strings_are_pinned() {
    use rse::core::ioq::IoqFault;
    use rse_inject::{FaultModel, FaultPlan, PlannedFault};

    // Table 2 diagnostic strings (IoqFault Display).
    assert_eq!(
        IoqFault::ValidStuck0.to_string(),
        "checkValid stuck at 0 (blocking CHECKs stall forever)"
    );
    assert_eq!(
        IoqFault::ValidStuck1.to_string(),
        "checkValid stuck at 1 (results pass before modules finish)"
    );
    assert_eq!(
        IoqFault::CheckStuck0.to_string(),
        "check stuck at 0 (errors never reported: false negative)"
    );
    assert_eq!(
        IoqFault::CheckStuck1.to_string(),
        "check stuck at 1 (pipeline flushed repeatedly)"
    );

    // Campaign model tokens (JSONL `model` field / CLI argument) and
    // their round-trip through the parser.
    for (model, name) in [
        (FaultModel::ModValidStuck0, "mod-valid-stuck0"),
        (FaultModel::ModValidStuck1, "mod-valid-stuck1"),
    ] {
        assert_eq!(model.name(), name);
        assert_eq!(FaultModel::from_name(name), Some(model));
    }

    // Plan descriptions (JSONL `fault` field of recorded campaigns).
    for (fault, line) in [
        (IoqFault::ValidStuck0, "ioq[icm]=valid-stuck0"),
        (IoqFault::ValidStuck1, "ioq[icm]=valid-stuck1"),
        (IoqFault::CheckStuck0, "ioq[icm]=check-stuck0"),
        (IoqFault::CheckStuck1, "ioq[icm]=check-stuck1"),
    ] {
        let plan = FaultPlan {
            faults: vec![PlannedFault::ModuleIoq {
                module: ModuleId::ICM,
                fault,
            }],
        };
        assert_eq!(plan.describe(), line);
    }
    assert_eq!(FaultPlan { faults: vec![] }.describe(), "none");
}

proptest! {
    /// Arbitrary allocate/complete/free sequences keep the IOQ's gate
    /// consistent with the Table 1 truth table at every step.
    #[test]
    fn ioq_gate_matches_truth_table(ops in rse_support::collection::vec((0u64..8, 0u8..3, any::<bool>()), 1..60)) {
        let mut ioq = Ioq::new(16);
        // Shadow model: rob -> (is_chk, valid, check)
        let mut shadow: std::collections::HashMap<u64, (bool, bool, bool)> = Default::default();
        for (rob, op, flag) in ops {
            match op {
                0 => {
                    if shadow.len() < 16 && !shadow.contains_key(&rob) {
                        let kind = if flag {
                            IoqEntryKind::BlockingChk(ModuleId::ICM)
                        } else {
                            IoqEntryKind::Plain
                        };
                        ioq.allocate(0, RobId(rob), kind, NOP);
                        shadow.insert(rob, (flag, !flag, false));
                    }
                }
                1 => {
                    ioq.complete(RobId(rob), flag);
                    if let Some(e) = shadow.get_mut(&rob) {
                        e.1 = true;
                        e.2 = flag;
                    }
                }
                _ => {
                    ioq.free(RobId(rob));
                    shadow.remove(&rob);
                }
            }
            for (&rob, &(_, valid, check)) in &shadow {
                let expected = match (valid, check) {
                    (false, _) => CommitGate::Stall,
                    (true, false) => CommitGate::Pass,
                    (true, true) => CommitGate::Flush,
                };
                prop_assert_eq!(ioq.gate(RobId(rob)), expected);
            }
        }
    }
}
