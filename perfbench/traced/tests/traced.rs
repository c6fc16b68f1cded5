//! The traced run's tests: it reproduces the untraced records, prints
//! exactly the per-layer metrics `BENCHMARK.json` names, and its tables
//! sum to wall time within their tolerance.
//!
//! Each test runs real workloads; run them optimised:
//! `cargo test --release --manifest-path perfbench/traced/Cargo.toml`.

#[path = "../../tests/common/mod.rs"]
mod common;

use rse_perfbench::{kernel, Options, Workload, DEFAULT_SEED};
use rse_perfbench_traced::trace::{Counters, Tracer};

/// Traced runs compare every record with an untraced run of the same
/// operation and count any difference as a failure, so a clean traced
/// run shows the records are byte-identical.
#[test]
fn traced_runs_reproduce_the_untraced_records() {
    let json = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let mut want = common::declared(json, "per_layer");
    want.sort();
    for w in Workload::ALL {
        let opts = Options {
            workload: w,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            rev: "test".into(),
        };
        let r = rse_perfbench_traced::run(&opts);
        assert!(r.attempted > 0, "{}: no operation ran", w.name());
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.report);
        let mut got: Vec<(String, String)> = r
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        got.sort();
        assert_eq!(got, want, "metrics differ from BENCHMARK.json's per_layer");
        assert!(r.metrics.iter().all(|m| m.value.is_finite()));
        let within = r.bases.iter().find(|b| b.0 == "table_within_tolerance");
        assert_eq!(within.map(|b| b.1.as_str()), Some("true"), "{}", w.name());
    }
}

#[test]
fn traced_kernel_run_matches_run_workload() {
    let image = kernel::setup(DEFAULT_SEED);
    let counters = std::rc::Rc::new(Counters::default());
    let mut t = Tracer::new();
    for cfg in kernel::CONFIGS {
        let plain = rse_bench::run_workload(&image, cfg, kernel::MAX_CYCLES);
        let traced = rse_perfbench_traced::kernel::drive(&image, cfg, &mut t, &counters, 0);
        assert_eq!(traced.run.pipeline, plain.pipeline, "{cfg:?}");
        assert_eq!(traced.run.mem, plain.mem, "{cfg:?}");
        let checked = kernel::verify_run(&image, cfg);
        assert_eq!(
            (traced.run.output, traced.run.exit),
            (checked.output, checked.exit)
        );
    }
    assert!(
        counters.module_calls.get() > 0,
        "the ICM wrapper was reached"
    );
    assert!(counters.tap_calls.get() > counters.module_calls.get());
}
