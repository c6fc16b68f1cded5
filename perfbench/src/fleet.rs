//! `fleet-churn`: `run_churn` on `ChurnSpec::smoke(seed)` — 1,000 nodes
//! under the steady, rack-partition and full-weather plans.
//!
//! The chaos engine's event loop, network model and controller monitor
//! do all the work; the pipeline runs only at set-up, for the witness
//! quanta. A simulator-core change must show no change here.

use crate::pins::Pins;
use crate::{
    clock, digest, for_seconds, median, peak_rss_mb, quantile, Ledger, Options, RunResult,
};
use rse_fleet::chaos::{derive_churn_seed, ChurnSpec};
use rse_fleet::{run_churn, witness_quanta, ChurnPlan, ChurnRecord};
use rse_support::rng::splitmix64;

/// The set-up `run_churn` depends on: the process's `witness_quanta()`
/// (the witness guest's request quanta on the functional tier, computed
/// on the first call and cached), then one plan sample per churn run.
/// Returns the number of sampled plans.
pub fn setup(seed: u64) -> usize {
    let spec = ChurnSpec::smoke(seed);
    rse_support::bench::black_box(witness_quanta());
    let plans: Vec<ChurnPlan> = spec
        .cells
        .iter()
        .flat_map(|cell| (0..cell.runs).map(move |run| (cell.model, run)))
        .map(|(model, run)| {
            let mut s = derive_churn_seed(spec.base_seed, model, run);
            let plan_seed = splitmix64(&mut s);
            ChurnPlan::sample(model, plan_seed, spec.nodes, spec.racks, spec.duration)
        })
        .collect();
    rse_support::bench::black_box(plans).len()
}

/// Checks one pass's records, each churn run an operation: one record
/// per churn run of the spec, in order; zero split-brain completions;
/// the same record as in `first`, the run's first pass; and the pinned
/// digest when the seed is pinned (the error prints the computed one).
pub fn check_pass(
    spec: &ChurnSpec,
    records: &[ChurnRecord],
    first: &[ChurnRecord],
    pins: &Pins,
    ledger: &mut Ledger,
) {
    let want: Vec<_> = spec
        .cells
        .iter()
        .flat_map(|c| {
            (0..c.runs).map(move |run| {
                (
                    c.model.name(),
                    derive_churn_seed(spec.base_seed, c.model, run),
                )
            })
        })
        .collect();
    if want.len() != records.len() {
        let n = want.len().max(records.len()) as u64;
        let e = format!("{} records for {} churn runs", records.len(), want.len());
        ledger.op(n, Err(e));
        return;
    }
    let pinned = pins.fleet(spec.base_seed);
    for (i, (rec, (model, seed))) in records.iter().zip(&want).enumerate() {
        let got = digest(&rec.to_json());
        let verdict = if (rec.model, rec.seed) != (*model, *seed) {
            Err(format!("record {i} is not churn run {model}/{seed}"))
        } else if rec.split_brain != 0 {
            Err(format!(
                "{model}: split-brain audit found {}",
                rec.split_brain
            ))
        } else if first.get(i) != Some(rec) {
            Err(format!(
                "{model}: a repeated pass produced a different record (digest {got:#018x})"
            ))
        } else {
            match pinned.map(|p| p[i]) {
                Some(d) if d != got => Err(format!(
                    "{model}: record digest {got:#018x} != pinned {d:#018x}"
                )),
                _ => Ok(()),
            }
        };
        ledger.op(1, verdict);
    }
}

/// Served requests per million over all churn runs of a pass.
pub fn availability_ppm(records: &[ChurnRecord]) -> f64 {
    let served: u64 = records.iter().map(|rec| rec.served).sum();
    let requests: u64 = records.iter().map(|rec| rec.requests).sum();
    1e6 * served as f64 / requests.max(1) as f64
}

/// The timed run: `work_per_s` (chaos-engine events per second of the
/// median pass) and `peak_rss_mb`.
pub fn timed(opts: &Options, pins: &Pins) -> RunResult {
    let spec = ChurnSpec::smoke(opts.seed);
    setup(opts.seed);
    let mut ledger = Ledger::default();
    let mut first: Option<Vec<ChurnRecord>> = None;
    let mut pass_secs = Vec::new();
    let mut rss = None;
    for_seconds(opts.seconds, 1, |_| {
        let (records, secs) = clock(|| run_churn(&spec));
        pass_secs.push(secs);
        let first = first.get_or_insert_with(|| records.clone());
        check_pass(&spec, &records, first, pins, &mut ledger);
        rss = rss.or_else(peak_rss_mb);
    });
    let records = first.expect("one pass ran");
    let events: u64 = records.iter().map(|rec| rec.events).sum();
    let rate = events as f64 / median(&pass_secs);
    let mut r = RunResult::default();
    ledger.report(&mut r);
    r.metric("work_per_s", rate, "1/s");
    r.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB");
    r.report.push(format!(
        "fleet-churn: {} passes of {events} events; median pass {:.3} s (quartiles \
         {:.3}..{:.3} s): fleet_mevents_per_s {:.4}; availability_ppm {}",
        pass_secs.len(),
        median(&pass_secs),
        quantile(&pass_secs, 0.25),
        quantile(&pass_secs, 0.75),
        rate / 1e6,
        availability_ppm(&records),
    ));
    r.bases = vec![
        ("work_unit", "\"chaos-engine event\"".into()),
        ("events_per_pass", events.to_string()),
        ("passes", pass_secs.len().to_string()),
        ("median_pass_s", format!("{:.6}", median(&pass_secs))),
        (
            "digests_pinned",
            pins.fleet(opts.seed).is_some().to_string(),
        ),
    ];
    r
}
