//! # rse-perfbench-traced — the benchmark's per-layer split
//!
//! `run.py --trace 1` runs this package's `perfbench-traced`. Each
//! operation of a workload runs twice: untraced, through the same entry
//! point as the timed run, and traced, driven one level below it (trial
//! by trial, `Pipeline::run` by `Pipeline::run`, churn run by churn run)
//! with a span around every call into a layer and forwarding wrappers
//! around the engine and the ICM. The two must produce the same records.
//!
//! This is a package of its own because it reaches into internals
//! (`run_one_with`, `reference`, `build_harness`, the `Module` trait)
//! that later refactors reshape: a change that breaks it leaves the
//! timed run in `rse-perfbench` building.

#![forbid(unsafe_code)]

pub mod campaigns;
pub mod fleet;
pub mod kernel;
pub mod trace;

use rse_perfbench::{clock, Options, RunResult, Workload};

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not reach a layer reports 0 for it (the layer did no work).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trials_per_s", "trials/s"),
    ("inject.reference_ms", "ms"),
    ("attack.reference_ms", "ms"),
    ("inject.trial_ms.p50", "ms"),
    ("inject.trial_ms.p90", "ms"),
    ("attack.trial_ms.p50", "ms"),
    ("attack.trial_ms.p90", "ms"),
    ("inject.budget_trials", "count"),
    ("inject.budget_share", "%"),
    ("attack.budget_share", "%"),
    ("attack.chain_share", "%"),
    ("inject.trial_setup_us", "us"),
    ("inject.prefix_share", "%"),
    ("inject.rerun_attempts", "count"),
    ("inject.rerun_useful_ratio", "ratio"),
    ("sim_mips", "Minstr/s"),
    ("sim_ipc", "instr/cycle"),
    ("rse_overhead_pct", "%"),
    ("pipeline.self_ms", "ms"),
    ("pipeline.ns_per_cycle.baseline", "ns"),
    ("pipeline.ns_per_cycle.fw_icm", "ns"),
    ("core.tap_ms", "ms"),
    ("core.tap_calls", "count"),
    ("core.tick_ms", "ms"),
    ("core.self_ms", "ms"),
    ("modules.icm_ms", "ms"),
    ("sys.syscall_ms", "ms"),
    ("sys.syscalls", "count"),
    ("workloads.gen_ms", "ms"),
    ("isa.assemble_ms", "ms"),
    ("pipeline.commit_stall_cycles", "count"),
    ("pipeline.mispredicts", "count"),
    ("core.stalls", "count"),
    ("core.chk_routed", "count"),
    ("modules.icm_cache_hit_pct", "%"),
    ("mem.il1_miss_pct", "%"),
    ("mem.dl1_miss_pct", "%"),
    ("mem.dl2_miss_pct", "%"),
    ("mem.mau_wait_cycles", "count"),
    ("fleet_mevents_per_s", "Mevents/s"),
    ("availability_ppm", "ppm"),
    ("fleet.witness_ms", "ms"),
    ("fleet.run_ms.steady", "ms"),
    ("fleet.run_ms.rack-partition", "ms"),
    ("fleet.run_ms.full-weather", "ms"),
    ("fleet.events", "count"),
    ("fleet.ns_per_event", "ns"),
    ("fleet.suspicions", "count"),
    ("fleet.failovers", "count"),
    ("trace.overhead_pct", "%"),
];

/// The traced run of the selected workload.
pub fn run(opts: &Options) -> RunResult {
    match opts.workload {
        Workload::Campaigns => campaigns::traced(opts, &rse_perfbench::pins::PINS),
        Workload::KernelSim => kernel::traced(opts, &rse_perfbench::pins::PINS),
        Workload::FleetChurn => fleet::traced(opts, &rse_perfbench::pins::PINS),
    }
}

/// Fills every [`PER_LAYER`] metric from `value`, 0 where it has none.
pub fn per_layer(r: &mut RunResult, value: impl Fn(&str) -> Option<f64>) {
    for &(name, unit) in PER_LAYER {
        r.metric(name, value(name).unwrap_or(0.0), unit);
    }
}

/// Runs one operation untraced and traced, alternating with `i` which
/// goes first so warm-up favours neither side of the trace overhead.
/// Returns both results with their wall times in ns.
pub fn paired<P, T>(
    i: usize,
    plain: impl FnOnce() -> P,
    traced: impl FnOnce() -> T,
) -> ((P, u64), (T, u64)) {
    fn ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let (r, secs) = clock(f);
        (r, (secs * 1e9) as u64)
    }
    if i.is_multiple_of(2) {
        let p = ns(plain);
        (p, ns(traced))
    } else {
        let t = ns(traced);
        (ns(plain), t)
    }
}

/// Writes the run's spans beside the executable
/// (`trace/<workload>-<seed>.jsonl` in the build directory) and returns
/// the path as a JSON value for the context line (`null` if it failed).
pub fn write_spans(opts: &Options, t: &trace::Tracer) -> String {
    let written = std::env::current_exe().ok().and_then(|exe| {
        let dir = exe.parent()?.join("trace");
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("{}-{}.jsonl", opts.workload.name(), opts.seed));
        std::fs::write(&path, t.to_jsonl()).ok()?;
        Some(path)
    });
    written.map_or("null".into(), |p| format!("{:?}", p.display().to_string()))
}
