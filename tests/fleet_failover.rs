//! Cross-crate integration tests of the fleet heartbeat fabric: the
//! acceptance criteria of the fleet-scale AHBM extension, end-to-end.
//!
//! Everything here is deterministic — fixed seeds, fixed configs — so a
//! failure is a behavior change, never flake.

use rse::fleet::{FleetConfig, FleetSim, FleetSpec, NodeFault, NodeFaultModel, NodeFaultPlan};
use rse_inject::{Histogram, Outcome, RecoveryStatus};

fn cfg() -> FleetConfig {
    FleetConfig::default()
}

/// A crashed node's workload is declared dead by the surviving
/// coordinator, adopted from the replicated checkpoint, and completes
/// on the successor with the golden digest — the run classifies
/// `failover:<victim>` with `recovered:fleet-checkpoint-failover`.
#[test]
fn crash_failover_completes_on_successor() {
    let c = cfg();
    let profile = FleetSim::profile(&c, 0xAB5E);
    for victim in [0u16, 2, 4] {
        let fault = NodeFault::Crash {
            node: victim,
            at: profile.first_snap_sent_at + 1_200,
        };
        let out = FleetSim::run(&c, 0xAB5E, fault, &profile);
        assert_eq!(
            out.outcome,
            Outcome::Failover(victim),
            "victim {victim}: {out:?}"
        );
        assert_eq!(
            out.recovery,
            RecoveryStatus::Succeeded {
                mechanism: "fleet-checkpoint-failover"
            }
        );
        assert_eq!(out.outcome.tag(), format!("failover:n{victim}"));
    }
}

/// A partition that heals never produces split-brain, whatever its
/// duration: either the victim rides it out / is reinstated (masked)
/// or its lease fences it before the successor's adopted guest starts
/// (failover). Sweeps durations across the lease/detection boundaries.
#[test]
fn healed_partitions_sweep_without_split_brain() {
    let c = cfg();
    let profile = FleetSim::profile(&c, 0x9A17);
    for dur in [500u64, 1_500, 2_500, 3_500, 5_000, 8_000, 14_000] {
        let fault = NodeFault::Partition {
            node: 3,
            from: profile.first_snap_sent_at + 1_000,
            dur,
        };
        let out = FleetSim::run(&c, 0x9A17, fault, &profile);
        assert_ne!(out.outcome, Outcome::SplitBrain, "dur {dur}: {out:?}");
        assert_ne!(out.outcome, Outcome::FalseSuspicion, "dur {dur}: {out:?}");
        assert!(
            matches!(out.outcome, Outcome::Masked | Outcome::Failover(3)),
            "dur {dur}: {out:?}"
        );
    }
}

/// The zero-fault control fleet is perfectly quiet: no suspicion, no
/// failover, every workload masked on its original owner.
#[test]
fn control_fleet_shows_zero_false_suspicions() {
    let recs = rse::fleet::run_soak(&FleetSpec::control(0x5EED, 4));
    let hist = Histogram::from_records(&recs);
    assert_eq!(hist.total(), 4);
    assert_eq!(hist.count("masked"), 4);
    assert_eq!(hist.failovers(), 0);
    assert_eq!(hist.count("false-suspicion"), 0);
    assert_eq!(hist.count("split-brain"), 0);
}

/// The smoke soak (the CI spec) replays bit-identically and covers the
/// outcome classes the protocol promises: failovers for late
/// crashes/hangs, unrecovered for pre-replication crashes, masked for
/// slow nodes, and zero split-brain / false suspicion anywhere.
#[test]
fn smoke_soak_covers_all_promised_outcome_classes() {
    let spec = FleetSpec::smoke(0xF1EE7);
    let recs = rse::fleet::run_soak(&spec);
    assert_eq!(
        recs,
        rse::fleet::run_soak(&spec),
        "soak must replay identically"
    );
    let hist = Histogram::from_records(&recs);
    assert_eq!(hist.total(), u64::from(spec.total_runs()));
    assert_eq!(hist.count("split-brain"), 0, "fencing invariant");
    assert_eq!(
        hist.count("false-suspicion"),
        0,
        "adaptive-timeout invariant"
    );
    assert_eq!(hist.count("sdc"), 0, "checkpoint restore must be exact");
    assert_eq!(hist.count("hang"), 0);
    assert!(hist.failovers() > 0, "crash/hang cells must fail over");
    assert!(
        hist.count("unrecovered") > 0,
        "crash-early cell must surface"
    );
    assert!(hist.count("masked") > 0, "control + slow cells must mask");
    // Every crash/hang run recovered via checkpoint failover.
    for r in recs.iter().filter(|r| {
        r.model == NodeFaultModel::Crash.name() || r.model == NodeFaultModel::Hang.name()
    }) {
        assert!(
            matches!(r.outcome, Outcome::Failover(_)),
            "{}: {:?}",
            r.model,
            r.outcome
        );
    }
    // Every slow-node run is absorbed, never declared.
    for r in recs
        .iter()
        .filter(|r| r.model == NodeFaultModel::SlowNode.name())
    {
        assert_eq!(r.outcome, Outcome::Masked, "{}", r.faults);
    }
}

/// The fault sampler and the simulator agree on replay: re-expanding
/// the JSONL seed of a smoke record reproduces its exact outcome.
#[test]
fn jsonl_seed_replays_one_record_exactly() {
    let spec = FleetSpec::smoke(0xF1EE7);
    let recs = rse::fleet::run_soak(&spec);
    let rec = recs
        .iter()
        .find(|r| r.model == NodeFaultModel::Partition.name())
        .expect("smoke has a partition cell");
    let cfg = FleetConfig {
        nodes: spec.nodes,
        ..FleetConfig::default()
    };
    let mut p = spec.base_seed ^ rse_support::rng::fnv1a64(b"fleet-profile");
    let profile_seed = rse_support::rng::splitmix64(&mut p);
    let profile = FleetSim::profile(&cfg, profile_seed);
    let mut s = rec.seed;
    let fault_seed = rse_support::rng::splitmix64(&mut s);
    let sim_seed = rse_support::rng::splitmix64(&mut s);
    let plan = NodeFaultPlan::sample(NodeFaultModel::Partition, fault_seed, &profile, spec.nodes);
    assert_eq!(plan.describe(), rec.faults);
    let out = FleetSim::run(&cfg, sim_seed, plan.fault, &profile);
    assert_eq!(out.outcome, rec.outcome);
    assert_eq!(out.cycles, rec.cycles);
}
