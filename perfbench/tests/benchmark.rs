//! The timed run's tests: a one-operation run of each workload passes
//! its checks and prints exactly the end-to-end metrics `BENCHMARK.json`
//! names, and a wrong pin is counted as failed operations.
//!
//! Each test runs real workloads; run them optimised:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

mod common;

use rse_perfbench::pins::{Pins, PINS};
use rse_perfbench::{campaigns, fleet, kernel, Options, Workload, DEFAULT_SEED};
use std::process::Command;

fn opts(workload: Workload) -> Options {
    Options {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        rev: "test".into(),
    }
}

/// The number after `"<name>": {"value": ` in a result line, if the
/// metric is there with `unit`.
fn value(result: &str, name: &str, unit: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result[result.find(&key)? + key.len()..];
    let (num, rest) = rest.split_once(',')?;
    rest.trim_start()
        .starts_with(&format!("\"unit\": \"{unit}\"}}"))
        .then(|| num.parse().ok())?
}

/// The binary itself (set-up timed in fresh processes included) prints,
/// as its last line, a clean result with every end-to-end metric and
/// only those, all above zero.
#[test]
fn one_operation_of_each_workload_passes_and_reports_every_metric() {
    let json = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let want = common::declared(json, "end_to_end");
    for w in Workload::ALL {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", w.name(), "--seconds", "0"])
            .output()
            .expect("perfbench runs");
        assert!(out.status.success(), "{}: {:?}", w.name(), out.status);
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0,"),
            "{}: {stdout}",
            w.name()
        );
        for (name, unit) in &want {
            let v = value(last, name, unit);
            assert!(v.is_some_and(|v| v > 0.0), "{}: {name}: {last}", w.name());
        }
        assert_eq!(last.matches("\"value\":").count(), want.len(), "{last}");
    }
}

/// A wrong pin fails every operation it covers.
#[test]
fn a_wrong_pin_counts_as_failed_operations() {
    let base = campaigns::campaign_base(DEFAULT_SEED);
    let campaigns_wrong = [(base, PINS.campaign(base).expect("default pinned") ^ 1)];
    let kernel_pin = PINS.kernel(DEFAULT_SEED).expect("default pinned");
    let kernel_wrong = [(DEFAULT_SEED, [kernel_pin[0] + 1, kernel_pin[1]])];
    let mut fleet_pin = *PINS.fleet(DEFAULT_SEED).expect("default pinned");
    fleet_pin[1] ^= 1;
    let fleet_wrong = [(DEFAULT_SEED, fleet_pin)];
    let wrong = Pins {
        campaigns: Box::leak(Box::new(campaigns_wrong)),
        kernel: Box::leak(Box::new(kernel_wrong)),
        fleet: Box::leak(Box::new(fleet_wrong)),
    };

    let r = campaigns::timed(&opts(Workload::Campaigns), &wrong);
    assert!(r.attempted > 0);
    assert_eq!(r.failed, r.attempted, "every trial of the pass fails");
    assert!(
        r.report.iter().any(|l| l.contains("!= pinned")),
        "{:?}",
        r.report
    );

    let r = kernel::timed(&opts(Workload::KernelSim), &wrong);
    assert_eq!((r.attempted, r.failed), (2, 2), "both kernel runs fail");

    let r = fleet::timed(&opts(Workload::FleetChurn), &wrong);
    assert_eq!(
        (r.attempted, r.failed),
        (3, 1),
        "only the mis-pinned churn run fails"
    );
    let computed = format!("{:#018x} != pinned", PINS.fleet(DEFAULT_SEED).unwrap()[1]);
    assert!(
        r.report.iter().any(|l| l.contains(&computed)),
        "the failure prints the computed digest: {:?}",
        r.report
    );
}

#[test]
fn every_workload_default_and_held_out_seed_is_pinned() {
    for w in Workload::ALL {
        for seed in [DEFAULT_SEED, w.held_out_seed()] {
            let pinned = match w {
                Workload::Campaigns => PINS.campaign(campaigns::campaign_base(seed)).is_some(),
                Workload::KernelSim => PINS.kernel(seed).is_some(),
                Workload::FleetChurn => PINS.fleet(seed).is_some(),
            };
            assert!(pinned, "{}: seed {seed:#x} pinned", w.name());
        }
    }
}
