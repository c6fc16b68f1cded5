//! Adaptive multi-stage attack chains.
//!
//! The single-shot models of [`crate::model`] fire one planned attack
//! and observe the wreckage. The chain models here are *adaptive*: each
//! stage's plan depends on what the previous stage's module verdict
//! revealed, exactly like the leak-then-strike adversary of the paper's
//! §4.1 entropy argument — but run inside the campaign engine, so one
//! recorded `u64` seed still replays the whole chain byte-for-byte.
//!
//! Three chains are implemented:
//!
//! * [`AttackModel::AdaptiveChain`] — *probe → leak → strike*. Stage 1
//!   fires the nominal-layout attack; if the defense made it miss, the
//!   attacker re-runs the victim attack-free, reads the randomized base
//!   the MLR published in the special header (the information leak),
//!   and strikes again **through the leaked address**. A loss at that
//!   point is classified `evaded:MLR`: the module was beaten around its
//!   randomization, not through it.
//! * [`AttackModel::RecoveryStrike`] — corrupt a live control-flow
//!   word, then keep re-delivering the same corruption while the
//!   checkpoint-rollback recovery re-executes. The rollback is bounded
//!   by [`CampaignOptions::max_rerun`]: a clean re-execution records
//!   `recovered:retry<k>`, an attacker who outlasts the budget forces
//!   an escalation to a quarantined/degraded safe halt instead of a
//!   rollback livelock — never a silent wrong answer.
//! * [`AttackModel::QuarantineEvade`] — flip a bit in the ICM's own
//!   CheckerMemory copy so every pass over the guarded site mismatches;
//!   the watchdog's burst counter quarantines the checker, and the
//!   late-window hijack then sails past the NOP-muxed CHKs. A divergent
//!   result with the checker down is `evaded:ICM` — the containment
//!   question the health machine must answer honestly.

use crate::campaign::{classify, mlr_layout_seed, CampaignOptions};
use crate::model::AttackModel;
use crate::outcome::{AttackOutcome, AttackRecord};
use crate::surface::{map_surface, sample_attack, STACK_SLOT_OFFSET};
use crate::victim::Victim;
use rse_inject::{rerun, run_trial, FaultPlan, PlannedFault, RecoveryStatus, RefState, Strike};
use rse_isa::asm::assemble;
use rse_isa::layout::{HEAP_BASE, STACK_BASE};
use rse_isa::ModuleId;
use rse_pipeline::SoftFault;
use rse_support::rng::splitmix64;

/// Domain separator for the chain's *stage* draws (strike timing,
/// attacker persistence), so they are independent of the stage-1 plan
/// draws taken from the same recorded seed.
const CHAIN_STAGE_DOMAIN: u64 = 0x4348_4149_4E53_5447; // "CHAINSTG"

/// Address of the MLR's published-layout words in the special header:
/// `+4` holds the randomized stack base, `+8` the randomized heap base
/// (`0` when no MLR ran) — exactly what the victim guests read, and
/// exactly what the leak stage steals.
const MLR_HDR: u32 = 0x0EFF_0040;

/// Whether `model` is a multi-stage chain handled by [`run_chain`]
/// rather than the single-shot runner.
pub fn is_chain_model(model: AttackModel) -> bool {
    matches!(
        model,
        AttackModel::AdaptiveChain | AttackModel::RecoveryStrike | AttackModel::QuarantineEvade
    )
}

/// Executes one adaptive-chain attack run. Every chain opens with the
/// sampled plan as its first armed trial; what follows depends on the
/// chain model. Panics if called with a single-shot model (the campaign
/// runner routes only via [`is_chain_model`]).
pub fn run_chain(
    v: &Victim,
    model: AttackModel,
    run: u32,
    seed: u64,
    r: &RefState,
    opts: &CampaignOptions,
) -> AttackRecord {
    assert!(is_chain_model(model), "{model} is not a chain model");
    let w = &v.workload;
    let image = assemble(w.source).expect("victim workload assembles");
    let surface = map_surface(v, &image);
    let plan = sample_attack(model, seed, v, &surface, &r.profile);
    let mlr_seed = mlr_layout_seed(v, seed);
    let trial = |plan: &FaultPlan| run_trial(w, &image, r, mlr_seed, plan);
    let rollback = || rerun(w, &image, r, mlr_seed, None);
    let record = |(outcome, recovery), cycles, attack| AttackRecord {
        victim: w.name,
        defended: v.defended,
        model: model.name(),
        run,
        seed,
        outcome,
        recovery,
        cycles,
        attack,
    };
    let mut cs = seed ^ CHAIN_STAGE_DOMAIN;
    let first = trial(&plan);
    match model {
        // Probe → leak → strike against the MLR-guarded (`stack_*`,
        // `got_*`) victims.
        AttackModel::AdaptiveChain => {
            // Stage 1: the nominal-layout probe. Anything but a clean
            // miss — a nominal-layout hit (the undefended loss), a
            // detection, or a crash — resolves the run on its own: no
            // adaptation happened, so this is exactly the single-shot
            // classification.
            let probe = classify(&first, AttackOutcome::Compromised, rollback);
            if probe.0 != AttackOutcome::Prevented {
                let attack = format!("chain[probe:{};probe-hit]", plan.describe());
                return record(probe, first.cycles, attack);
            }
            // Stage 2: the probe missed — leak the published layout from
            // an attack-free run under the same layout seed.
            let leak = trial(&FaultPlan { faults: Vec::new() });
            let hdr = |offset| leak.harness.cpu.mem().memory.read_u32(MLR_HDR + offset);
            let slot = match (w.name.starts_with("stack_"), hdr(4), hdr(8)) {
                (true, 0, _) => STACK_BASE - STACK_SLOT_OFFSET,
                (true, stack, _) => stack - STACK_SLOT_OFFSET,
                (false, _, 0) => HEAP_BASE,
                (false, _, heap) => heap,
            };
            // Stage 3: strike through the leaked address.
            let evil = surface.evil.expect("chain victims declare evil");
            let at_cycle = 1 + splitmix64(&mut cs) % r.profile.cycles.max(1);
            let strike = trial(&FaultPlan {
                faults: vec![PlannedFault::Soft(SoftFault::Write {
                    at_cycle,
                    addr: slot,
                    value: evil,
                })],
            });
            // A strike loss on the defended twin is attributed to the
            // evaded randomizer: the MLR's diversity was beaten by the
            // leak, not by luck at the nominal base.
            let loss = if v.defended {
                AttackOutcome::Evaded(ModuleId::MLR)
            } else {
                AttackOutcome::Compromised
            };
            let attack = format!(
                "chain[probe:{};leak:base={slot:#x};\
                 strike:mem[{slot:#x}]:={evil:#x}@c{at_cycle}]",
                plan.describe()
            );
            record(
                classify(&strike, loss, rollback),
                first.cycles + leak.cycles + strike.cycles,
                attack,
            )
        }
        // The recovery-window strike against the checked (`branch_*`,
        // `seq_*`) victims: the primary corruption plus re-delivery into
        // every bounded rollback re-execution the attacker's persistence
        // covers.
        AttackModel::RecoveryStrike => {
            // Attacker persistence: how many rollback re-executions the
            // strike still lands in (0 = the window clears immediately).
            // Drawn past the retry budget often enough that the
            // escalation path is real.
            let persist = (splitmix64(&mut cs) % 5) as u32;
            let strike = Strike {
                plan: &plan,
                persist,
                max_rerun: opts.max_rerun,
            };
            // Recovery under fire: a clean attempt records
            // `recovered:retry<k>`; an exhausted budget quarantines the
            // attacked surface instead of livelocking in rollback —
            // never a silent wrong answer.
            let (outcome, recovery) = classify(&first, AttackOutcome::Compromised, || {
                rerun(w, &image, r, mlr_seed, Some(strike))
            });
            let outcome = match (outcome, &recovery) {
                (AttackOutcome::Detected(m), RecoveryStatus::FailedSafeHalt { .. }) => {
                    AttackOutcome::Degraded(m)
                }
                (outcome, _) => outcome,
            };
            let attack = format!("rw-strike[{};persist={persist}]", plan.describe());
            record((outcome, recovery), first.cycles, attack)
        }
        // The cross-module evasion against `branch_guard`: forge a
        // mismatch storm out of the ICM's own CheckerMemory until the
        // health machine quarantines it, then hijack through the
        // NOP-muxed blind spot.
        AttackModel::QuarantineEvade => {
            let (outcome, recovery) = classify(&first, AttackOutcome::Compromised, rollback);
            // Quarantined checker + divergent result: the forged burst
            // bought the attacker a blind spot and the hijack landed in
            // it. The loss is the evaded module's.
            let outcome = match outcome {
                AttackOutcome::Degraded(m) if !first.golden => AttackOutcome::Evaded(m),
                outcome => outcome,
            };
            let attack = format!("evade[{}]", plan.describe());
            record((outcome, recovery), first.cycles, attack)
        }
        _ => unreachable!("checked above"),
    }
}
