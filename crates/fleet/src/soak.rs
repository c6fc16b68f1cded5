//! Seeded fleet soak campaigns: cells of `(node fault model, runs)`
//! replayed deterministically from a single base seed.
//!
//! Mirrors `rse_inject::campaign` one level up. Each run derives a
//! stable per-run seed from `(base_seed, model name, run index)`; the
//! seed splits into a fault-sampling stream and a network stream, so
//! the JSONL `seed` field replays the exact fleet history forever.

use crate::fault::{FleetProfile, NodeFaultModel, NodeFaultPlan};
use crate::sim::{FleetConfig, FleetSim, Scheduler};
use rse_inject::{fleet_workload, result_digest_parts, RunRecord};
use rse_isa::asm::assemble;
use rse_pipeline::{Golden, GoldenEvent};
use rse_support::rng::{fnv1a64, splitmix64};

/// One soak cell: `runs` runs of one node-level fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetCell {
    /// The fault model injected in every run of the cell.
    pub model: NodeFaultModel,
    /// Number of runs.
    pub runs: u32,
}

/// A full fleet soak specification.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Base seed every per-run seed derives from.
    pub base_seed: u64,
    /// Fleet size (nodes = workloads).
    pub nodes: u16,
    /// The campaign cells, executed in order.
    pub cells: Vec<FleetCell>,
}

impl FleetSpec {
    /// The fixed CI smoke spec: 5 nodes, 52 runs covering every node
    /// fault model. Replayed twice by `scripts/ci.sh` and diffed
    /// against the pinned golden.
    pub fn smoke(base_seed: u64) -> FleetSpec {
        FleetSpec {
            base_seed,
            nodes: 5,
            cells: vec![
                FleetCell {
                    model: NodeFaultModel::Control,
                    runs: 8,
                },
                FleetCell {
                    model: NodeFaultModel::Crash,
                    runs: 10,
                },
                FleetCell {
                    model: NodeFaultModel::CrashEarly,
                    runs: 6,
                },
                FleetCell {
                    model: NodeFaultModel::Hang,
                    runs: 8,
                },
                FleetCell {
                    model: NodeFaultModel::SlowNode,
                    runs: 6,
                },
                FleetCell {
                    model: NodeFaultModel::HbLoss,
                    runs: 6,
                },
                FleetCell {
                    model: NodeFaultModel::Partition,
                    runs: 8,
                },
            ],
        }
    }

    /// A zero-fault control spec: `runs` control runs, nothing else.
    /// CI asserts 0 failovers and 0 false suspicions over it.
    pub fn control(base_seed: u64, runs: u32) -> FleetSpec {
        FleetSpec {
            base_seed,
            nodes: 5,
            cells: vec![FleetCell {
                model: NodeFaultModel::Control,
                runs,
            }],
        }
    }

    /// The full sweep: `runs` runs of every node fault model on an
    /// `nodes`-node fleet.
    pub fn full(base_seed: u64, nodes: u16, runs: u32) -> FleetSpec {
        FleetSpec {
            base_seed,
            nodes,
            cells: NodeFaultModel::ALL
                .into_iter()
                .map(|model| FleetCell { model, runs })
                .collect(),
        }
    }

    /// Total runs across all cells.
    pub fn total_runs(&self) -> u32 {
        self.cells.iter().map(|c| c.runs).sum()
    }
}

/// Derives the per-run seed from the base seed, the model name, and the
/// run index. Pure and stable (same discipline as
/// `rse_inject::derive_seed`).
pub fn derive_fleet_seed(base_seed: u64, model: NodeFaultModel, run: u32) -> u64 {
    let mut s = base_seed
        ^ fnv1a64(model.name().as_bytes())
        ^ (u64::from(run)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// Verifies the zero-fault profile digest against the reference
/// interpreter: the `beat_loop` guest re-executed on [`Golden`]
/// (syscalls resumed with no register writes, exactly as the fleet's
/// heartbeat trap does) must reach the digest every fleet node reached
/// cycle-accurately.
///
/// # Panics
///
/// Panics on divergence — that is a pipeline bug (the differential
/// invariant broken), never a soak outcome.
fn verify_profile_on_golden(profile: &FleetProfile) {
    let w = fleet_workload();
    let image = assemble(w.source).expect("fleet workload assembles");
    let mut g = Golden::new(&image);
    while g.run_until(u64::MAX) == GoldenEvent::Syscall {
        g.resume(None);
    }
    let digest = result_digest_parts(w, &g.regs, &g.mem, &image);
    assert_eq!(
        digest, profile.golden_digest,
        "golden interpreter diverged from the fleet profile digest"
    );
}

/// Runs a fleet soak campaign on the default [`Scheduler::Event`]
/// engine: measures the zero-fault profile once, checks it against the
/// reference interpreter, then executes every cell. Returns one
/// [`RunRecord`] per run, in spec order (serialize with
/// `rse_inject::to_jsonl`).
pub fn run_soak(spec: &FleetSpec) -> Vec<RunRecord> {
    run_soak_with(spec, Scheduler::Event)
}

/// Runs a fleet soak campaign on `scheduler`. [`Scheduler::Event`] and
/// [`Scheduler::Lockstep`] produce byte-identical records; CI replays
/// the smoke soak on both and diffs them against the same pinned
/// golden.
pub fn run_soak_with(spec: &FleetSpec, scheduler: Scheduler) -> Vec<RunRecord> {
    let cfg = FleetConfig {
        nodes: spec.nodes,
        scheduler,
    };
    let mut p = spec.base_seed ^ fnv1a64(b"fleet-profile");
    let profile_seed = splitmix64(&mut p);
    let profile = FleetSim::profile(&cfg, profile_seed);
    verify_profile_on_golden(&profile);
    let mut records = Vec::with_capacity(spec.total_runs() as usize);
    for cell in &spec.cells {
        for run in 0..cell.runs {
            let seed = derive_fleet_seed(spec.base_seed, cell.model, run);
            let mut s = seed;
            let fault_seed = splitmix64(&mut s);
            let sim_seed = splitmix64(&mut s);
            let plan = NodeFaultPlan::sample(cell.model, fault_seed, &profile, spec.nodes);
            let out = FleetSim::run(&cfg, sim_seed, plan.fault, &profile);
            records.push(RunRecord {
                workload: "beat_loop",
                model: cell.model.name(),
                run,
                seed,
                outcome: out.outcome,
                recovery: out.recovery,
                cycles: out.cycles,
                faults: plan.describe(),
            });
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_inject::{Histogram, Outcome};

    #[test]
    fn seed_derivation_is_stable_and_model_sensitive() {
        let a = derive_fleet_seed(42, NodeFaultModel::Crash, 0);
        assert_eq!(a, derive_fleet_seed(42, NodeFaultModel::Crash, 0));
        assert_ne!(a, derive_fleet_seed(42, NodeFaultModel::Hang, 0));
        assert_ne!(a, derive_fleet_seed(42, NodeFaultModel::Crash, 1));
        assert_ne!(a, derive_fleet_seed(43, NodeFaultModel::Crash, 0));
    }

    #[test]
    fn smoke_spec_meets_the_ci_floor() {
        let spec = FleetSpec::smoke(1);
        assert!(spec.nodes >= 5);
        assert!(spec.total_runs() >= 48);
        let models: Vec<_> = spec.cells.iter().map(|c| c.model).collect();
        for m in NodeFaultModel::ALL {
            assert!(models.contains(&m), "{m} missing from smoke spec");
        }
    }

    #[test]
    fn control_soak_is_all_masked() {
        let recs = run_soak(&FleetSpec::control(0xC0FFEE, 3));
        assert_eq!(recs.len(), 3);
        for r in &recs {
            assert_eq!(r.outcome, Outcome::Masked, "{}", r.faults);
        }
        let h = Histogram::from_records(&recs);
        assert_eq!(h.failovers(), 0);
        assert_eq!(h.count("false-suspicion"), 0);
    }

    #[test]
    fn lockstep_soak_is_byte_identical() {
        // The CLI-level face of the equivalence shim: the same spec on
        // both engines yields identical records.
        let spec = FleetSpec::control(0xE417, 1);
        let event = run_soak(&spec);
        let lockstep = run_soak_with(&spec, Scheduler::Lockstep);
        assert_eq!(event, lockstep);
    }

    #[test]
    fn crash_cell_replays_bit_identically() {
        let spec = FleetSpec {
            base_seed: 99,
            nodes: 5,
            cells: vec![FleetCell {
                model: NodeFaultModel::Crash,
                runs: 2,
            }],
        };
        let a = run_soak(&spec);
        let b = run_soak(&spec);
        assert_eq!(a, b);
        for r in &a {
            assert!(
                matches!(r.outcome, Outcome::Failover(_)),
                "late crash should fail over: {r:?}"
            );
        }
    }
}
