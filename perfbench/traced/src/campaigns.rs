//! Traced `campaigns`: each pass runs once through `run_campaign_with`
//! and once driven trial by trial (`reference`, then `run_one_with` per
//! job, in the order `run_campaign_with` runs them on one thread), each
//! call inside a span. The records must be identical.

use crate::trace::{Table, Tracer, NO_TRIAL};
use crate::{paired, per_layer, write_spans};
use rse_inject::{
    build_harness, capture_checkpoints, fault_budget, reference, CampaignOptions, FaultModel,
    Harness, RecoveryStatus, RefState,
};
use rse_isa::asm::assemble;
use rse_perfbench::campaigns::{campaign_base, check_pass, run_pass, specs, PassOutput};
use rse_perfbench::pins::Pins;
use rse_perfbench::{for_seconds, quantile, Ledger, Options, RunResult};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-trial facts the traced pass collects beside its spans.
#[derive(Default)]
struct TrialNotes {
    /// (span index, fault trial hit the watchdog budget)
    inject: Vec<(usize, bool)>,
    /// (span index, budget trial, chain model)
    attack: Vec<(usize, bool, bool)>,
    prefix_cycles: u64,
    recorded_cycles: u64,
    rerun_attempts: u64,
    rerun_useful: u64,
}

/// Re-executions a recovery tag implies, and how many restored the
/// golden state.
fn implied_reruns(r: &RecoveryStatus) -> (u64, u64) {
    match r {
        RecoveryStatus::Succeeded {
            mechanism: "checkpoint-rollback",
        } => (1, 1),
        RecoveryStatus::Succeeded { mechanism } => match mechanism.strip_prefix("retry") {
            Some(k) => (k.parse().unwrap_or(1), 1),
            None => (0, 0),
        },
        RecoveryStatus::FailedSafeHalt { cause } => {
            if let Some(rest) = cause.strip_prefix("retry budget exhausted after ") {
                let n = rest.split_whitespace().next().and_then(|n| n.parse().ok());
                (n.unwrap_or(1), 0)
            } else if cause.contains("rollback")
                || cause.starts_with("re-executed state")
                || cause.starts_with("missing checkpoint")
            {
                (1, 0)
            } else {
                (0, 0)
            }
        }
        RecoveryStatus::NotNeeded => (0, 0),
    }
}

/// Earliest `@c<cycle>` in a plan description (0 when the plan names no
/// cycle, i.e. the fault may land from the first cycle on).
fn first_fault_cycle(plan: &str) -> u64 {
    plan.split("@c")
        .skip(1)
        .filter_map(|s| {
            let digits: String = s.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .min()
        .unwrap_or(0)
}

/// One pass driven one level below `run_campaign_with`: references and
/// trials are called one by one, each inside a span. The records are
/// the ones `run_campaign_with` returns (it runs the same jobs in the
/// same order on one thread).
fn run_pass_traced(base: u64, t: &mut Tracer, notes: &mut TrialNotes, trial0: u64) -> PassOutput {
    let opts = CampaignOptions::default();
    let root = t.enter("campaigns.pass", NO_TRIAL);
    let (fault, attack) = specs(base);
    let mut refs: BTreeMap<&str, RefState> = BTreeMap::new();
    for cell in &fault.cells {
        let w = rse_inject::by_name(cell.workload).expect("corpus workload");
        if !refs.contains_key(w.name) {
            let s = t.enter("inject.reference", NO_TRIAL);
            refs.insert(w.name, reference(w));
            t.exit(s);
        }
    }
    let mut trial = trial0;
    let mut inject = Vec::new();
    for cell in &fault.cells {
        let w = rse_inject::by_name(cell.workload).expect("corpus workload");
        let r = &refs[w.name];
        for run in 0..cell.runs {
            let seed = rse_inject::derive_seed(base, w.name, cell.model, run);
            let s = t.enter("inject.trial", trial);
            let rec = rse_inject::run_one_with(w, cell.model, run, seed, r, &opts);
            t.exit(s);
            notes.inject.push((s, rec.cycles >= fault_budget(r)));
            if cell.model != FaultModel::Control {
                notes.prefix_cycles += first_fault_cycle(&rec.faults).min(rec.cycles);
                notes.recorded_cycles += rec.cycles;
            }
            let (a, u) = implied_reruns(&rec.recovery);
            notes.rerun_attempts += a;
            notes.rerun_useful += u;
            inject.push(rec);
            trial += 1;
        }
    }
    let mut vrefs: BTreeMap<&str, RefState> = BTreeMap::new();
    for cell in &attack.cells {
        let v = rse_attack::victim_by_name(cell.victim).expect("victim");
        if !vrefs.contains_key(v.workload.name) {
            let s = t.enter("attack.reference", NO_TRIAL);
            vrefs.insert(v.workload.name, reference(&v.workload));
            t.exit(s);
        }
    }
    let mut attacks = Vec::new();
    for cell in &attack.cells {
        let v = rse_attack::victim_by_name(cell.victim).expect("victim");
        let r = &vrefs[v.workload.name];
        for run in 0..cell.runs {
            let seed = rse_attack::derive_seed(base, v.workload.name, cell.model, run);
            let s = t.enter("attack.trial", trial);
            let rec = rse_attack::run_one_with(v, cell.model, run, seed, r, &opts);
            t.exit(s);
            let chain = rse_attack::is_chain_model(cell.model);
            notes.attack.push((s, rec.cycles >= fault_budget(r), chain));
            let (a, u) = implied_reruns(&rec.recovery);
            notes.rerun_attempts += a;
            notes.rerun_useful += u;
            attacks.push(rec);
            trial += 1;
        }
    }
    t.exit(root);
    PassOutput {
        inject,
        attack: attacks,
    }
}

/// Re-enacts the per-trial set-up of every bare-harness fault trial of
/// a pass (`assemble` + `build_harness` + `capture_checkpoints` on the
/// trial's own inputs), outside any span. Returns (trials, total ns).
fn trial_setup_ns(base: u64) -> (u64, u64) {
    let (fault, _) = specs(base);
    let mut n = 0;
    let mut ns = 0;
    let mut budgets: BTreeMap<&str, u64> = BTreeMap::new();
    for cell in &fault.cells {
        let w = rse_inject::by_name(cell.workload).expect("corpus workload");
        let budget = *budgets
            .entry(w.name)
            .or_insert_with(|| fault_budget(&reference(w)));
        for _ in 0..cell.runs {
            let t = Instant::now();
            let image = assemble(w.source).expect("corpus workload assembles");
            let b = build_harness(w, &image, budget);
            if matches!(w.harness, Harness::Bare | Harness::Icm | Harness::Dsm) {
                rse_support::bench::black_box(capture_checkpoints(&b.cpu.mem().memory));
            }
            rse_support::bench::black_box(b);
            ns += t.elapsed().as_nanos() as u64;
            n += 1;
        }
    }
    (n, ns)
}

/// The traced run: per-layer metrics.
pub fn traced(opts: &Options, pins: &Pins) -> RunResult {
    let mut t = Tracer::new();
    let mut notes = TrialNotes::default();
    let mut ledger = Ledger::default();
    let mut first = None;
    let (mut plain_ns, mut traced_ns, mut trials) = (0u64, 0u64, 0u64);
    let mut mismatched = 0;
    let base = campaign_base(opts.seed);
    let passes = for_seconds(opts.seconds, 1, |i| {
        let ((plain, p_ns), (out, t_ns)) = paired(
            i,
            || run_pass(base),
            || run_pass_traced(base, &mut t, &mut notes, trials),
        );
        plain_ns += p_ns;
        traced_ns += t_ns;
        trials += out.trials();
        let verdict = if out != plain {
            mismatched += 1;
            Err(format!("pass {i}: traced records differ from untraced"))
        } else {
            check_pass(base, &out, &mut first, pins)
        };
        ledger.op(out.trials(), verdict);
    });
    let (setup_trials, setup_ns) = trial_setup_ns(base);

    let spans = t.spans();
    let self_ns = t.self_times();
    let ms = |ns: u64| ns as f64 / 1e6;
    let share = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
    let inject_ns = t.total("inject.trial");
    let attack_ns = t.total("attack.trial");
    let inject_budget = notes.inject.iter().filter(|n| n.1).count();
    let inject_budget_ns: u64 = notes
        .inject
        .iter()
        .filter(|n| n.1)
        .map(|n| spans[n.0].duration())
        .sum();
    let attack_budget_ns: u64 = notes
        .attack
        .iter()
        .filter(|n| n.1)
        .map(|n| spans[n.0].duration())
        .sum();
    let attack_chain_ns: u64 = notes
        .attack
        .iter()
        .filter(|n| n.2 && !n.1)
        .map(|n| spans[n.0].duration())
        .sum();
    let inject_trials_ms: Vec<f64> = t.durations("inject.trial").into_iter().map(ms).collect();
    let attack_trials_ms: Vec<f64> = t.durations("attack.trial").into_iter().map(ms).collect();
    let refs_i = t.durations("inject.reference");
    let refs_a = t.durations("attack.reference");
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let pass_self: u64 = (0..spans.len())
        .filter(|&i| spans[i].name == "campaigns.pass")
        .map(|i| self_ns[i])
        .sum();
    let setup_est = setup_ns as f64 / setup_trials.max(1) as f64 * notes.inject.len() as f64;

    let table = Table {
        title: format!("campaigns ({passes} traced passes, {trials} trials)"),
        rows: vec![
            (
                "rse-inject: golden references".into(),
                t.total("inject.reference"),
            ),
            (
                "rse-inject: trials reaching fault_budget".into(),
                inject_budget_ns,
            ),
            (
                "rse-inject: other trials".into(),
                inject_ns - inject_budget_ns,
            ),
            (
                "rse-attack: golden references".into(),
                t.total("attack.reference"),
            ),
            (
                "rse-attack: trials reaching fault_budget".into(),
                attack_budget_ns,
            ),
            (
                "rse-attack: chain/recovery/evade trials".into(),
                attack_chain_ns,
            ),
            (
                "rse-attack: other trials".into(),
                attack_ns - attack_budget_ns - attack_chain_ns,
            ),
            (
                "benchmark: spec expansion, seeds, records".into(),
                pass_self,
            ),
        ],
        wall_ns: traced_ns,
    };
    let mut r = RunResult::default();
    ledger.report(&mut r);
    r.report.extend(table.lines());
    r.report.push(format!(
        "  where inject trial time goes: {:.1}% in {} of {} trials that reach fault_budget; \
         est. per-trial set-up (assemble + build_harness + capture_checkpoints) {:.1} us x {} = {:.1}% \
         of inject trial time; {} implied re-executions, {} restored the golden",
        share(inject_budget_ns, inject_ns),
        inject_budget,
        notes.inject.len(),
        setup_ns as f64 / 1e3 / setup_trials.max(1) as f64,
        notes.inject.len(),
        100.0 * setup_est / inject_ns.max(1) as f64,
        notes.rerun_attempts,
        notes.rerun_useful,
    ));
    r.report.push(format!(
        "  trial spans: {} fault, {} attack; traced/untraced record mismatches: {mismatched}",
        inject_trials_ms.len(),
        attack_trials_ms.len()
    ));
    let per_pass = |v: u64| v as f64 / passes as f64;
    let q = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { quantile(v, p) };
    per_layer(&mut r, |name| match name {
        "trials_per_s" => Some(trials as f64 / (plain_ns as f64 / 1e9)),
        "inject.reference_ms" => Some(mean(&refs_i) / 1e6),
        "attack.reference_ms" => Some(mean(&refs_a) / 1e6),
        "inject.trial_ms.p50" => Some(q(&inject_trials_ms, 0.5)),
        "inject.trial_ms.p90" => Some(q(&inject_trials_ms, 0.9)),
        "attack.trial_ms.p50" => Some(q(&attack_trials_ms, 0.5)),
        "attack.trial_ms.p90" => Some(q(&attack_trials_ms, 0.9)),
        "inject.budget_trials" => Some(per_pass(inject_budget as u64)),
        "inject.budget_share" => Some(share(inject_budget_ns, inject_ns)),
        "attack.budget_share" => Some(share(attack_budget_ns, attack_ns)),
        "attack.chain_share" => Some(share(attack_chain_ns, attack_ns)),
        "inject.trial_setup_us" => Some(setup_ns as f64 / 1e3 / setup_trials.max(1) as f64),
        "inject.prefix_share" => Some(share(notes.prefix_cycles, notes.recorded_cycles)),
        "inject.rerun_attempts" => Some(per_pass(notes.rerun_attempts)),
        "inject.rerun_useful_ratio" => {
            Some(notes.rerun_useful as f64 / notes.rerun_attempts.max(1) as f64)
        }
        "trace.overhead_pct" => Some(100.0 * (traced_ns as f64 / plain_ns.max(1) as f64 - 1.0)),
        _ => None,
    });
    r.bases = vec![
        ("traced_passes", passes.to_string()),
        ("trials", trials.to_string()),
        ("fault_trial_spans", inject_trials_ms.len().to_string()),
        ("attack_trial_spans", attack_trials_ms.len().to_string()),
        ("traced_wall_ms", format!("{:.3}", ms(traced_ns))),
        ("untraced_wall_ms", format!("{:.3}", ms(plain_ns))),
        (
            "table_within_tolerance",
            table.within_tolerance().to_string(),
        ),
    ];
    r.bases.push(("spans", write_spans(opts, &t)));
    r
}
