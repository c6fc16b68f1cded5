//! `campaigns`: `CampaignSpec::full(base, 8)` then
//! `AttackSpec::full(base, 8)` — exactly what `campaign --seed <base>`
//! and `attack_campaign --seed <base>` run at their default settings.
//!
//! Hundreds of short trials, so per-trial harness build, checkpoint
//! capture and classification show; the few trials that spin to the
//! watchdog budget or retry a rollback are where the pipeline's
//! per-cycle step and the engine's taps dominate.
//!
//! Trial cost spans three orders of magnitude (a `recovery-strike` trial
//! on `seq_guard` takes 1 ms to 2.3 s), so campaigns drawn from different
//! base seeds differ in cost on content alone: 30 s of trials from random
//! seeds spread by about 20% in trials per second. A run therefore
//! repeats one campaign, and seeds that differ only in their low 32 bits
//! measure the same one: the base seed is `DEFAULT_SEED` XOR the seed's
//! high 32 bits. Each repetition is checked; the rate uses the median
//! repetition.

use crate::pins::Pins;
use crate::{
    clock, digest, for_seconds, median, peak_rss_mb, quantile, Ledger, Options, RunResult,
    DEFAULT_SEED,
};
use rse_attack::{AttackModel, AttackRecord, AttackSpec};
use rse_inject::{CampaignOptions, CampaignSpec, FaultModel, RunRecord};

/// Runs per (workload, model) and (victim, model) cell: the campaign
/// binaries' default `--runs`.
pub const RUNS_PER_CELL: u32 = 8;

/// The campaign base seed a workload seed selects.
pub fn campaign_base(seed: u64) -> u64 {
    DEFAULT_SEED ^ (seed >> 32)
}

/// Everything one pass produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassOutput {
    /// Fault-injection records, spec order.
    pub inject: Vec<RunRecord>,
    /// Attack records, spec order.
    pub attack: Vec<AttackRecord>,
}

impl PassOutput {
    /// Trials in the pass.
    pub fn trials(&self) -> u64 {
        (self.inject.len() + self.attack.len()) as u64
    }

    /// Digest of both JSONL reports, as the campaign binaries write them.
    pub fn digest(&self) -> u64 {
        digest(&(rse_inject::to_jsonl(&self.inject) + &rse_attack::to_jsonl(&self.attack)))
    }
}

/// The two specs of one pass.
pub fn specs(base: u64) -> (CampaignSpec, AttackSpec) {
    (
        CampaignSpec::full(base, RUNS_PER_CELL),
        AttackSpec::full(base, RUNS_PER_CELL),
    )
}

/// One pass through the entry points the campaign binaries call.
pub fn run_pass(base: u64) -> PassOutput {
    let (fault, attack) = specs(base);
    let opts = CampaignOptions::default();
    PassOutput {
        inject: rse_inject::run_campaign_with(&fault, &opts),
        attack: rse_attack::run_campaign_with(&attack, &opts),
    }
}

/// `setup_s` for campaigns is a proxy the benchmark makes, because
/// `run_campaign_with` has no set-up phase of its own (it assembles and
/// runs the golden references inside, which count in `work_per_s`):
/// expand both specs and assemble every corpus workload and victim once.
pub fn setup(base: u64) -> usize {
    let (fault, attack) = specs(base);
    let images: Vec<_> = rse_inject::corpus()
        .iter()
        .map(|w| w.source)
        .chain(rse_attack::victims().iter().map(|v| v.workload.source))
        .map(|src| rse_isa::asm::assemble(src).expect("corpus source assembles"))
        .collect();
    images.len() + fault.cells.len() + attack.cells.len()
}

/// Checks a pass: one record per job of the specs, in order; control
/// trials `masked` / `prevented`; the same records as `first`, the
/// run's first pass (its digest, recorded on the first call); and, when
/// the seed is pinned, the pinned digest. The error names the first
/// mismatch and, for a digest, the computed value.
pub fn check_pass(
    base: u64,
    out: &PassOutput,
    first: &mut Option<u64>,
    pins: &Pins,
) -> Result<(), String> {
    let (fault, attack) = specs(base);
    let jobs: Vec<_> = fault
        .cells
        .iter()
        .flat_map(|c| (0..c.runs).map(move |run| (c.workload, c.model, run)))
        .collect();
    if jobs.len() != out.inject.len() {
        return Err(format!(
            "{} fault records for {} jobs",
            out.inject.len(),
            jobs.len()
        ));
    }
    for (rec, &(w, model, run)) in out.inject.iter().zip(&jobs) {
        if (rec.workload, rec.model, rec.run) != (w, model.name(), run) {
            return Err(format!("fault record {} is not its job", rec.to_json()));
        }
        if model == FaultModel::Control && rec.outcome.tag() != "masked" {
            return Err(format!("control trial not masked: {}", rec.to_json()));
        }
    }
    let jobs: Vec<_> = attack
        .cells
        .iter()
        .flat_map(|c| (0..c.runs).map(move |run| (c.victim, c.model, run)))
        .collect();
    if jobs.len() != out.attack.len() {
        return Err(format!(
            "{} attack records for {} jobs",
            out.attack.len(),
            jobs.len()
        ));
    }
    for (rec, &(v, model, run)) in out.attack.iter().zip(&jobs) {
        if (rec.victim, rec.model, rec.run) != (v, model.name(), run) {
            return Err(format!("attack record {} is not its job", rec.to_json()));
        }
        if model == AttackModel::Control && rec.outcome.tag() != "prevented" {
            return Err(format!("control attack not prevented: {}", rec.to_json()));
        }
    }
    let d = out.digest();
    if *first.get_or_insert(d) != d {
        return Err(format!(
            "a repeated pass produced different records (digest {d:#018x})"
        ));
    }
    match pins.campaign(base) {
        Some(want) if want != d => Err(format!("records digest {d:#018x} != pinned {want:#018x}")),
        _ => Ok(()),
    }
}

/// The timed run: `work_per_s` (trials per second of the median pass)
/// and `peak_rss_mb`.
pub fn timed(opts: &Options, pins: &Pins) -> RunResult {
    let base = campaign_base(opts.seed);
    let mut ledger = Ledger::default();
    let mut first = None;
    let mut pass_secs = Vec::new();
    let mut trials = 0;
    let mut rss = None;
    for_seconds(opts.seconds, 1, |_| {
        let (out, secs) = clock(|| run_pass(base));
        pass_secs.push(secs);
        trials = out.trials();
        ledger.op(trials, check_pass(base, &out, &mut first, pins));
        rss = rss.or_else(peak_rss_mb);
    });
    let rate = trials as f64 / median(&pass_secs);
    let mut r = RunResult::default();
    ledger.report(&mut r);
    r.metric("work_per_s", rate, "1/s");
    r.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB");
    r.bases = vec![
        ("work_unit", "\"fault + attack trial\"".into()),
        ("campaign_base_seed", base.to_string()),
        ("trials_per_pass", trials.to_string()),
        ("passes", pass_secs.len().to_string()),
        ("median_pass_s", format!("{:.6}", median(&pass_secs))),
        (
            "setup",
            "\"proxy: spec expansion + corpus assembly\"".into(),
        ),
        ("digest_pinned", pins.campaign(base).is_some().to_string()),
    ];
    r.report.push(format!(
        "campaigns: base seed {base:#x}, {} passes of {trials} trials; median pass {:.3} s \
         (quartiles {:.3}..{:.3} s): trials_per_s {rate:.3}",
        pass_secs.len(),
        median(&pass_secs),
        quantile(&pass_secs, 0.25),
        quantile(&pass_secs, 0.75),
    ));
    r
}
