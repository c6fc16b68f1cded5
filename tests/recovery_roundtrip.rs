//! End-to-end recovery round trip: inject a *detectable* fault, assert
//! the module catches it, then assert the checkpoint machinery rolls
//! the machine back and re-execution reaches the golden final state.
//!
//! The seeds are pinned: the campaign is a pure function of
//! `(workload, model, seed)`, so these scenarios replay bit-identically
//! on every host (see `rse_inject::derive_seed` / `FaultPlan::sample`).

use rse_inject::{run_one_by_name, FaultModel, Outcome, RecoveryStatus};

/// Pinned seed: flips bit 5 of the `beq` word of `icm_loop`'s text
/// segment at cycle 201. The corrupted branch is ICM-checked on every
/// fetch, so the mismatch against the redundant CheckerMemory copy is
/// detected; the flip is *persistent* (text memory, not fetch latch),
/// so flush-and-refetch cannot heal it and the engine escalates to
/// safe mode. External recovery then rolls back to the pre-run image,
/// a re-execution on a freshly built machine, and reaches the golden
/// digest.
const ICM_TEXT_SEED: u64 = 10524026136655159238;

/// Pinned seed: flips a bit inside `ddt_recover`'s canary page while
/// the worker thread is live. The worker audits the canary and CRASHes;
/// the DDT's dependency tracking plus the OS SavePage checkpoints roll
/// the shared page back to its pre-image (§4.2.2), and the main thread
/// observes the rollback (prints `1`) and exits cleanly.
const DDT_CANARY_SEED: u64 = 9459463412922225902;

#[test]
fn icm_detects_text_flip_and_checkpoint_rollback_reaches_golden_state() {
    let rec =
        run_one_by_name("icm_loop", FaultModel::MemText, ICM_TEXT_SEED).expect("workload exists");
    assert!(
        matches!(rec.outcome, Outcome::DetectedByModule(_)),
        "fault must be detected, got {}",
        rec.outcome
    );
    assert_eq!(rec.outcome.tag(), "detected:ICM");
    match &rec.recovery {
        RecoveryStatus::Succeeded { mechanism } => {
            assert_eq!(
                *mechanism, "checkpoint-rollback",
                "persistent text corruption needs rollback, not refetch"
            );
        }
        other => panic!("recovery must succeed, got {other}"),
    }
}

#[test]
fn transient_fetch_fault_is_detected_and_healed_by_flush_refetch() {
    // A transient fetch-latch flip is also detected by the ICM, but the
    // flush + refetch path heals it inline: the re-executed golden
    // state is reached without external rollback.
    let rec = run_one_by_name("icm_loop", FaultModel::FetchWord, 10054044860165962238)
        .expect("workload exists");
    assert_eq!(rec.outcome.tag(), "detected:ICM");
    assert_eq!(rec.recovery.tag(), "recovered:flush-refetch");
}

#[test]
fn ddt_detects_canary_corruption_and_rolls_shared_page_back() {
    let rec = run_one_by_name("ddt_recover", FaultModel::MemData, DDT_CANARY_SEED)
        .expect("workload exists");
    assert_eq!(
        rec.outcome.tag(),
        "detected:DDT",
        "worker crash must route through DDT recovery, got {} ({})",
        rec.outcome,
        rec.faults
    );
    assert_eq!(
        rec.recovery.tag(),
        "recovered:ddt-checkpoint-rollback",
        "guest must observe the rolled-back shared page"
    );
}

#[test]
fn records_replay_bit_identically() {
    let a = run_one_by_name("icm_loop", FaultModel::MemText, ICM_TEXT_SEED).unwrap();
    let b = run_one_by_name("icm_loop", FaultModel::MemText, ICM_TEXT_SEED).unwrap();
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn control_runs_reach_golden_state_untouched() {
    for name in ["alu_loop", "mem_checksum", "icm_loop", "ddt_recover"] {
        let rec = run_one_by_name(name, FaultModel::Control, 1).unwrap();
        assert_eq!(rec.outcome.tag(), "masked", "{name} control run");
        assert_eq!(rec.recovery.tag(), "not-needed", "{name} control run");
        assert_eq!(rec.faults, "none");
    }
}
