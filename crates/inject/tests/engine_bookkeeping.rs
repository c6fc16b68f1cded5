//! Pins the engine's bookkeeping on the heaviest module-bearing campaign
//! trials.
//!
//! The campaign goldens pin only record fields (outcome, recovery,
//! cycles). These trials run to the fault budget with modules enabled,
//! so they exercise the engine's input queues, IOQ and watchdog for
//! hundreds of thousands of cycles; every counter below must stay
//! exactly as recorded when that bookkeeping is reworked.

use rse_core::{Engine, RseStats};
use rse_inject::{
    build_harness, by_name, derive_seed, drive, fault_budget, reference, FaultModel, FaultPlan,
    Harness, RawEnd,
};
use rse_isa::asm::assemble;
use rse_isa::ModuleId;
use rse_modules::ddt::{Ddt, DdtStats};
use rse_modules::icm::{Icm, IcmStats};
use rse_pipeline::{Pipeline, PipelineStats};
use rse_sys::{Os, OsConfig};

/// Everything the test compares after one replayed trial.
#[derive(Debug, PartialEq, Eq)]
struct Bookkeeping {
    rse: RseStats,
    pipeline: PipelineStats,
    ioq_allocated: u64,
    ioq_error_verdicts: u64,
    icm: Option<IcmStats>,
    ddt: Option<DdtStats>,
}

/// Replays run `run` of the `workload × model` cell of the default
/// campaign (base seed 0xD5B) the way the campaign does: fresh harness,
/// armed plan, fault budget. Returns the run's seed and end state, and
/// checks that the trial ran to the budget.
fn replay(workload: &str, model: &str, run: u32) -> (u64, Pipeline, Engine) {
    let w = by_name(workload).expect("corpus workload");
    let model = FaultModel::from_name(model).expect("fault model");
    let seed = derive_seed(0xD5B, w.name, model, run);
    let r = reference(w);
    let image = assemble(w.source).expect("corpus workload assembles");
    let budget = fault_budget(&r);
    let plan = FaultPlan::sample(model, seed, &r.profile);
    let mut b = build_harness(w, &image, budget);
    plan.arm(&mut b.cpu, &mut b.engine);
    match w.harness {
        Harness::DdtOs => {
            Os::new(OsConfig::default()).run(&mut b.cpu, &mut b.engine, budget);
        }
        _ => {
            if drive(&mut b.cpu, &mut b.engine, budget) == RawEnd::TimedOut {
                b.engine.poll_hang(b.cpu.now());
            }
        }
    }
    assert_eq!(
        b.cpu.now(),
        budget,
        "{workload} run {run} spins to the budget"
    );
    (seed, b.cpu, b.engine)
}

fn bookkeeping(cpu: &Pipeline, engine: &Engine) -> Bookkeeping {
    Bookkeeping {
        rse: engine.stats(),
        pipeline: cpu.stats(),
        ioq_allocated: engine.ioq().allocated_total,
        ioq_error_verdicts: engine.ioq().error_verdicts,
        icm: engine.module_ref::<Icm>(ModuleId::ICM).map(Icm::stats),
        ddt: engine.module_ref::<Ddt>(ModuleId::DDT).map(Ddt::stats),
    }
}

#[test]
fn icm_loop_mem_text_run1_bookkeeping_is_pinned() {
    // ICM + MLR + AHBM enabled for all 201,488 cycles.
    let (seed, cpu, engine) = replay("icm_loop", "mem-text", 1);
    assert_eq!(seed, 6789457443830712320);
    assert_eq!(
        bookkeeping(&cpu, &engine),
        Bookkeeping {
            rse: RseStats {
                chk_dispatched: 201_372,
                // The 66 wrong-path CHECKs pass through unrouted.
                chk_blocking: 201_306,
                chk_passthrough: 66,
                stalls: 85,
                chk_routed: 201_306,
                ..RseStats::default()
            },
            pipeline: PipelineStats {
                cycles: 201_488,
                committed: 603_932,
                committed_injected_chk: 201_302,
                fetched: 604_219,
                dispatched: 604_147,
                squashed: 203,
                control_flow_committed: 201_302,
                mispredicts: 24,
                commit_stall_cycles: 85,
                chk_injected: 201_396,
                soft_faults_applied: 1,
                ..PipelineStats::default()
            },
            ioq_allocated: 604_147,
            ioq_error_verdicts: 0,
            icm: Some(IcmStats {
                checks_completed: 201_304,
                mismatches: 0,
                cache_hits: 201_304,
                cache_misses: 1,
            }),
            ddt: None,
        }
    );
}

#[test]
fn ddt_recover_reg_double_run3_bookkeeping_is_pinned() {
    // DDT + MLR + AHBM enabled under the guest OS for 265,740 cycles.
    let (seed, cpu, engine) = replay("ddt_recover", "reg-double", 3);
    assert_eq!(seed, 15846330539439348826);
    assert_eq!(
        bookkeeping(&cpu, &engine),
        Bookkeeping {
            rse: RseStats::default(),
            pipeline: PipelineStats {
                cycles: 265_740,
                committed: 143_381,
                fetched: 429_107,
                dispatched: 143_423,
                squashed: 42,
                control_flow_committed: 35_788,
                mispredicts: 5,
                loads_committed: 205,
                stores_committed: 3,
                syscalls: 35_709,
                soft_faults_applied: 1,
                ..PipelineStats::default()
            },
            ioq_allocated: 143_423,
            ioq_error_verdicts: 0,
            icm: None,
            ddt: Some(DdtStats {
                loads_tracked: 205,
                stores_tracked: 3,
                dependencies_logged: 1,
                pages_saved: 1,
                missed_logs: 0,
            }),
        }
    );
}
