//! The adversarial campaign runner: golden references, attacked runs,
//! outcome classification, and the recovery path.
//!
//! The runner is `rse_inject::campaign`'s — golden reference once per
//! victim, seed-derived plan per run, one armed trial through
//! [`run_trial`], classification against the golden result,
//! checkpoint-rollback through [`rerun`] when a detection left divergent
//! state, sharding through [`run_cells`] — so an attack run replays
//! exactly like an injection run. What this module owns is the mapping
//! from what a trial observed to the adversarial outcome names, and the
//! threat model: plans come from [`sample_attack`] instead of the
//! soft-error sampler, victims come in defended/exposed twin pairs, and
//! MLR-guarded victims re-randomize their layout **fresh every run** (a
//! per-run layout seed derived from the attack seed), because a fixed
//! layout would hand the diversity defense a constant the attacker
//! never gets in the modeled system.

use crate::chain::{is_chain_model, run_chain};
use crate::model::AttackModel;
use crate::outcome::{AttackOutcome, AttackRecord};
use crate::surface::{map_surface, sample_attack};
use crate::victim::{victim_by_name, victims, Harness, Victim};
use rse_inject::{
    reference, rerun, run_cells, run_seed, run_trial, RecoveryStatus, RefState, Trial,
};
use rse_isa::asm::assemble;
use rse_isa::ModuleId;
use rse_support::rng::splitmix64;

/// Re-exported so callers configure attack campaigns with the exact
/// options type the injection campaigns use (sharding changes
/// wall-clock only, never a byte of output).
pub use rse_inject::CampaignOptions;

/// Domain separator folded into the attack seed to derive the per-run
/// MLR layout seed, so layout entropy and attack-timing entropy are
/// independent draws from one recorded seed.
const MLR_LAYOUT_DOMAIN: u64 = 0x4D4C_525F_4C41_594F; // "MLR_LAYO"

/// Derives the per-run seed from the campaign base seed, the victim
/// name, the attack model, and the run index. Pure and stable: the
/// JSONL `seed` field plus [`sample_attack`] replays the exact attack.
pub fn derive_seed(base_seed: u64, victim: &str, model: AttackModel, run: u32) -> u64 {
    run_seed(base_seed, victim, model.index(), run)
}

/// The per-run MLR layout seed for MLR-guarded victims: independent of
/// the attack draws, derived from the same recorded seed.
pub(crate) fn mlr_layout_seed(v: &Victim, seed: u64) -> Option<u64> {
    (v.workload.harness == Harness::MlrOs).then(|| {
        let mut s = seed ^ MLR_LAYOUT_DOMAIN;
        splitmix64(&mut s)
    })
}

/// Maps a trial to its attack outcome and recovery in [`run_one_with`]'s
/// priority order. `loss` names a divergent result nothing detected, and
/// `rollback` repairs the runs that left divergent state.
pub(crate) fn classify(
    t: &Trial,
    loss: AttackOutcome,
    rollback: impl FnOnce() -> RecoveryStatus,
) -> (AttackOutcome, RecoveryStatus) {
    if let Some(m) = t.down {
        let recovery = if t.golden {
            RecoveryStatus::Succeeded {
                mechanism: "quarantine-nop-mux",
            }
        } else {
            rollback()
        };
        return (AttackOutcome::Degraded(m), recovery);
    }
    if let Some(m) = t.detected {
        let recovery = if !t.golden {
            rollback()
        } else if m == ModuleId::DSM {
            // The DSM is detect-only (no flush path): a clean result
            // under a DSM detection needed no mechanism at all.
            RecoveryStatus::NotNeeded
        } else {
            RecoveryStatus::Succeeded {
                mechanism: "flush-refetch",
            }
        };
        return (AttackOutcome::Detected(m), recovery);
    }
    if t.safe_mode || t.end.died() {
        return (AttackOutcome::CrashTrap, rollback());
    }
    if t.golden {
        (AttackOutcome::Prevented, RecoveryStatus::NotNeeded)
    } else {
        (loss, RecoveryStatus::NotNeeded)
    }
}

/// Executes one attack run and classifies it. Equivalent to
/// [`run_one_with`] with default (sequential) options.
pub fn run_one(v: &Victim, model: AttackModel, run: u32, seed: u64, r: &RefState) -> AttackRecord {
    run_one_with(v, model, run, seed, r, &CampaignOptions::default())
}

/// Executes one attack run and classifies it.
///
/// Classification priority (most attributable first): a downed
/// defending module (`degraded:*`), a module detection (`detected:*` —
/// ICM/DSM mismatches on checked harnesses, the DDT's NX trap or
/// crash-mediated recovery on OS harnesses), then the end state: a
/// safe-mode trip, timeout, crash, or kill is a `crash-trap`; a clean
/// exit is `prevented` if the result matches golden and `compromised` if
/// the attacker's tampering stuck. Detections and crashes with divergent
/// state then exercise the checkpoint-rollback recovery path exactly as
/// the injection engine does. Chain models run through [`run_chain`].
pub fn run_one_with(
    v: &Victim,
    model: AttackModel,
    run: u32,
    seed: u64,
    r: &RefState,
    opts: &CampaignOptions,
) -> AttackRecord {
    if is_chain_model(model) {
        return run_chain(v, model, run, seed, r, opts);
    }
    let w = &v.workload;
    let image = assemble(w.source).expect("victim workload assembles");
    let surface = map_surface(v, &image);
    let plan = sample_attack(model, seed, v, &surface, &r.profile);
    let mlr_seed = mlr_layout_seed(v, seed);
    let t = run_trial(w, &image, r, mlr_seed, &plan);
    let (outcome, recovery) = classify(&t, AttackOutcome::Compromised, || {
        rerun(w, &image, r, mlr_seed, None)
    });
    AttackRecord {
        victim: w.name,
        defended: v.defended,
        model: model.name(),
        run,
        seed,
        outcome,
        recovery,
        cycles: t.cycles,
        attack: plan.describe(),
    }
}

/// Convenience: reference + single run for a named victim. Returns
/// `None` for an unknown victim name.
pub fn run_one_by_name(name: &str, model: AttackModel, seed: u64) -> Option<AttackRecord> {
    let v = victim_by_name(name)?;
    let r = reference(&v.workload);
    Some(run_one(v, model, 0, seed, &r))
}

/// One campaign cell: `runs` attacks of `model` against `victim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackCell {
    /// Victim name (must resolve via [`victim_by_name`]).
    pub victim: &'static str,
    /// Attack model.
    pub model: AttackModel,
    /// Number of runs.
    pub runs: u32,
}

/// A full adversarial campaign specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackSpec {
    /// Base seed every per-run seed is derived from.
    pub base_seed: u64,
    /// The cells, executed in order.
    pub cells: Vec<AttackCell>,
}

impl AttackSpec {
    /// The pinned CI smoke campaign: every attack model against every
    /// twin of its victim pair (plus a one-run control per victim), so
    /// the coverage table shows each defense and each exposure class.
    pub fn smoke(base_seed: u64) -> AttackSpec {
        let cell = |victim, model, runs| AttackCell {
            victim,
            model,
            runs,
        };
        let mut cells = Vec::new();
        for v in victims() {
            cells.push(cell(v.workload.name, AttackModel::Control, 1));
        }
        for victim in ["stack_guard", "stack_exposed"] {
            cells.push(cell(victim, AttackModel::StackSmash, 6));
        }
        for victim in ["got_guard", "got_exposed"] {
            cells.push(cell(victim, AttackModel::GotTamper, 6));
        }
        for victim in ["branch_guard", "branch_exposed"] {
            cells.push(cell(victim, AttackModel::CodeInject, 5));
            cells.push(cell(victim, AttackModel::CfhRedirect, 5));
            cells.push(cell(victim, AttackModel::InstTamper, 6));
            cells.push(cell(victim, AttackModel::InstSkip, 4));
            cells.push(cell(victim, AttackModel::InstReplay, 4));
        }
        for victim in ["nx_guard", "nx_exposed"] {
            cells.push(cell(victim, AttackModel::NxProbe, 6));
        }
        cells.push(cell("branch_guard", AttackModel::IcmTamper, 6));
        AttackSpec { base_seed, cells }
    }

    /// The pinned adaptive campaign: the chain models plus the
    /// instruction-stream models against the DSM twins — the coverage
    /// the smoke campaign's single-shot cells cannot provide. The
    /// headline cells are `inst-skip` on `seq_guard` (the DSM closing
    /// the ICM's skip blind spot: zero compromises on the guard) and
    /// `recovery-strike` (bounded retry with escalation, never a silent
    /// wrong answer).
    pub fn adaptive(base_seed: u64) -> AttackSpec {
        let cell = |victim, model, runs| AttackCell {
            victim,
            model,
            runs,
        };
        let mut cells = Vec::new();
        for victim in ["seq_guard", "seq_exposed"] {
            cells.push(cell(victim, AttackModel::Control, 1));
            cells.push(cell(victim, AttackModel::InstSkip, 6));
            cells.push(cell(victim, AttackModel::InstTamper, 4));
            cells.push(cell(victim, AttackModel::InstReplay, 4));
        }
        for victim in ["stack_guard", "stack_exposed", "got_guard", "got_exposed"] {
            cells.push(cell(victim, AttackModel::AdaptiveChain, 4));
        }
        for victim in ["branch_guard", "branch_exposed", "seq_guard", "seq_exposed"] {
            cells.push(cell(victim, AttackModel::RecoveryStrike, 4));
        }
        cells.push(cell("branch_guard", AttackModel::QuarantineEvade, 4));
        AttackSpec { base_seed, cells }
    }

    /// The zero-attack control campaign: every victim under the
    /// `control` model. All runs must classify as `prevented`.
    pub fn control(base_seed: u64, runs: u32) -> AttackSpec {
        AttackSpec {
            base_seed,
            cells: victims()
                .iter()
                .map(|v| AttackCell {
                    victim: v.workload.name,
                    model: AttackModel::Control,
                    runs,
                })
                .collect(),
        }
    }

    /// The full cross product: every applicable (victim, model) pair,
    /// `runs` attacks each.
    pub fn full(base_seed: u64, runs: u32) -> AttackSpec {
        let mut cells = Vec::new();
        for v in victims() {
            for model in AttackModel::ALL {
                if model.applicable(v) {
                    cells.push(AttackCell {
                        victim: v.workload.name,
                        model,
                        runs,
                    });
                }
            }
        }
        AttackSpec { base_seed, cells }
    }

    /// Total runs in the spec.
    pub fn total_runs(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.runs)).sum()
    }
}

/// Executes an adversarial campaign. Equivalent to
/// [`run_campaign_with`] with default (sequential) options.
///
/// # Panics
///
/// Panics if a cell names an unknown victim or an inapplicable attack
/// model — specs are validated eagerly so a bad campaign never
/// half-runs.
pub fn run_campaign(spec: &AttackSpec) -> Vec<AttackRecord> {
    run_campaign_with(spec, &CampaignOptions::default())
}

/// Executes an adversarial campaign under [`CampaignOptions`] through
/// the injection engine's [`run_cells`]: the record vector — and
/// therefore [`crate::outcome::to_jsonl`] — is byte-for-byte identical
/// for every thread count.
///
/// # Panics
///
/// Panics as [`run_campaign`] does on an invalid spec, and propagates
/// any worker panic.
pub fn run_campaign_with(spec: &AttackSpec, opts: &CampaignOptions) -> Vec<AttackRecord> {
    let cells: Vec<_> = spec
        .cells
        .iter()
        .map(|cell| {
            let v = victim_by_name(cell.victim)
                .unwrap_or_else(|| panic!("unknown victim {:?}", cell.victim));
            assert!(
                cell.model.applicable(v),
                "model {} is not applicable to victim {}",
                cell.model,
                v.workload.name
            );
            (v, cell.model, cell.runs)
        })
        .collect();
    run_cells(
        &cells,
        |v| &v.workload,
        opts.threads,
        |v, model, run, r| {
            let seed = derive_seed(spec.base_seed, v.workload.name, model, run);
            run_one_with(v, model, run, seed, r, opts)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::to_jsonl;

    #[test]
    fn seeds_are_stable_and_well_spread() {
        let a = derive_seed(1, "stack_guard", AttackModel::StackSmash, 0);
        assert_eq!(a, derive_seed(1, "stack_guard", AttackModel::StackSmash, 0));
        assert_ne!(a, derive_seed(2, "stack_guard", AttackModel::StackSmash, 0));
        assert_ne!(
            a,
            derive_seed(1, "stack_exposed", AttackModel::StackSmash, 0)
        );
        assert_ne!(a, derive_seed(1, "stack_guard", AttackModel::GotTamper, 0));
        assert_ne!(a, derive_seed(1, "stack_guard", AttackModel::StackSmash, 1));
    }

    #[test]
    fn specs_are_valid_and_cover_every_model() {
        for spec in [
            AttackSpec::smoke(0),
            AttackSpec::adaptive(0),
            AttackSpec::full(0, 1),
        ] {
            for cell in &spec.cells {
                let v = victim_by_name(cell.victim).unwrap();
                assert!(cell.model.applicable(v), "{:?}", cell);
            }
        }
        // The full cross product covers the whole model space on its
        // own; the two pinned campaigns (smoke + adaptive) cover it
        // together.
        for model in AttackModel::ALL {
            assert!(
                AttackSpec::full(0, 1)
                    .cells
                    .iter()
                    .any(|c| c.model == model),
                "{model} missing from full spec"
            );
            assert!(
                AttackSpec::smoke(0).cells.iter().any(|c| c.model == model)
                    || AttackSpec::adaptive(0)
                        .cells
                        .iter()
                        .any(|c| c.model == model),
                "{model} missing from both pinned specs"
            );
        }
        assert!(AttackSpec::smoke(0).total_runs() >= 80);
        assert!(AttackSpec::adaptive(0).total_runs() >= 60);
    }

    #[test]
    fn control_runs_are_all_prevented() {
        let records = run_campaign(&AttackSpec::control(7, 1));
        assert_eq!(records.len(), 10);
        for r in &records {
            assert_eq!(r.outcome, AttackOutcome::Prevented, "{}", r.to_json());
            assert_eq!(r.recovery, RecoveryStatus::NotNeeded);
            assert_eq!(r.attack, "none");
        }
    }

    #[test]
    fn single_runs_replay_byte_identically() {
        let rec = run_one_by_name("stack_exposed", AttackModel::StackSmash, 0xFEED).unwrap();
        let again = run_one_by_name("stack_exposed", AttackModel::StackSmash, 0xFEED).unwrap();
        assert_eq!(rec.to_json(), again.to_json());
        assert!(!rec.defended);
    }

    /// A mixed mini-campaign across the harness flavors whose output the
    /// sharded path must reproduce byte-for-byte.
    fn mini_spec() -> AttackSpec {
        AttackSpec {
            base_seed: 0xD5B,
            cells: vec![
                AttackCell {
                    victim: "stack_guard",
                    model: AttackModel::StackSmash,
                    runs: 2,
                },
                AttackCell {
                    victim: "branch_guard",
                    model: AttackModel::CfhRedirect,
                    runs: 2,
                },
                AttackCell {
                    victim: "nx_guard",
                    model: AttackModel::NxProbe,
                    runs: 2,
                },
            ],
        }
    }

    #[test]
    fn sharded_campaigns_are_byte_identical() {
        let spec = mini_spec();
        let base = to_jsonl(&run_campaign(&spec));
        for threads in [3, 16] {
            let alt = to_jsonl(&run_campaign_with(
                &spec,
                &CampaignOptions {
                    threads,
                    ..CampaignOptions::default()
                },
            ));
            assert_eq!(base, alt, "threads={threads}");
        }
    }
}
