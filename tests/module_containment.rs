//! End-to-end per-module fault containment (§3.4 refined): a faulted
//! module is quarantined by its own health state machine while the rest
//! of the framework keeps protecting the guest, and a transiently
//! faulted module is healed by the exponential-backoff self-test probe
//! and returns to `Healthy` without any global decoupling.

use rse::core::testutil::{ScriptedBehavior, ScriptedModule};
use rse::core::{AnomalyKind, Engine, HealthState, RseConfig, Verdict};
use rse::isa::asm::assemble;
use rse::isa::ModuleId;
use rse::pipeline::{Pipeline, StepEvent};
use rse::sys::{Machine, MachineSpec, ModuleSpec};

/// A loop that exercises two module slots per iteration with explicit
/// blocking CHECKs and accumulates a golden result in `r8`.
const TWO_MODULE_SRC: &str = r#"
    main:   li   r8, 0
            li   r9, 150
    loop:   chk  icm, blk, 2, 0
            chk  mlr, blk, 2, 0
            addi r8, r8, 1
            bne  r8, r9, loop
            halt
"#;

/// A longer single-module loop of `iterations` ICM CHECKs for the
/// re-enable and disable scenarios: the run must outlive quarantine
/// entry and the probes that follow it.
fn long_loop(iterations: u32) -> String {
    format!(
        r#"
    main:   li   r8, 0
            li   r9, {iterations}
    loop:   chk  icm, blk, 2, 0
            addi r8, r8, 1
            bne  r8, r9, loop
            halt
"#
    )
}

fn harness(src: &str, config: RseConfig, modules: Vec<ScriptedModule>) -> (Pipeline, Engine) {
    let image = assemble(src).unwrap();
    // Every blocking CHECK gates commit through its IOQ bits (Table 1
    // semantics), which the containment scenarios depend on. Only the
    // MLR's also drain dispatch (`ChkSpec::serializes`): the ICM's and
    // the AHBM's dispatch back to back.
    let spec = MachineSpec {
        rse: config,
        modules: modules
            .into_iter()
            .map(|m| ModuleSpec::Custom(Box::new(m)))
            .collect(),
        ..MachineSpec::default()
    };
    let m = Machine::build(&image, spec);
    (m.cpu, m.engine)
}

#[test]
fn faulted_module_is_contained_while_others_keep_detecting() {
    // ICM slot: wedged (never answers). MLR slot: healthy, and detects
    // exactly two planted errors. AHBM slot: healthy bystander, so one
    // disabled module can never reach the half-installed escalation
    // threshold.
    let mut config = RseConfig::default();
    config.watchdog.timeout = 500;
    config.watchdog.burst_threshold = 5;
    let (mut cpu, mut engine) = harness(
        TWO_MODULE_SRC,
        config,
        vec![
            ScriptedModule::new(ModuleId::ICM, ScriptedBehavior::Silent),
            ScriptedModule::new(
                ModuleId::MLR,
                ScriptedBehavior::FailFirstN { n: 2, latency: 2 },
            ),
            ScriptedModule::new(
                ModuleId::AHBM,
                ScriptedBehavior::Respond {
                    verdict: Verdict::Pass,
                    latency: 2,
                },
            ),
        ],
    );

    let ev = cpu.run(&mut engine, 5_000_000);
    assert_eq!(ev, StepEvent::Halted, "guest must complete");
    assert_eq!(cpu.regs()[8], 150, "golden architectural state");

    // Exactly the wedged module is down, attributed to its timeout.
    assert!(engine.module_health(ModuleId::ICM).is_down());
    assert_eq!(
        engine.watchdog().module_health(ModuleId::ICM).last_cause(),
        Some(AnomalyKind::Timeout)
    );
    // The rest of the framework never decoupled...
    assert_eq!(engine.safe_mode(), None);
    assert!(!engine.module_health(ModuleId::MLR).is_down());
    assert!(!engine.module_health(ModuleId::AHBM).is_down());
    // ...and the healthy module still raised its two planted errors.
    assert!(
        cpu.stats().check_flushes >= 2,
        "planted errors must flush: {}",
        cpu.stats().check_flushes
    );
    // The quarantined module's CHECKs committed as NOPs through the mux.
    assert!(engine.stats().chk_nop_committed >= 1);
    assert!(engine.stats().quarantines >= 1);
}

#[test]
fn transient_fault_is_healed_by_backoff_probe() {
    // The module ignores everything (guest CHECKs and self-test probes)
    // until cycle 2_000, then recovers: the health machine must walk
    // Healthy -> Suspect -> Quarantined -> (failed probes) -> probe
    // success -> Healthy, with the whole episode visible in RseStats.
    let mut config = RseConfig::default();
    config.watchdog.timeout = 200;
    config.watchdog.health.probe_base = 500;
    config.watchdog.health.probe_timeout = 300;
    config.watchdog.health.max_probe_attempts = 6;
    let (mut cpu, mut engine) = harness(
        &long_loop(2000),
        config,
        vec![ScriptedModule::new(
            ModuleId::ICM,
            ScriptedBehavior::SilentUntil {
                until: 2_000,
                latency: 2,
            },
        )],
    );

    let ev = cpu.run(&mut engine, 5_000_000);
    assert_eq!(ev, StepEvent::Halted, "guest must complete");
    assert_eq!(cpu.regs()[8], 2000, "golden architectural state");

    // The transient episode is over: the module served the tail of the
    // run and ended Healthy, with no global decoupling anywhere.
    assert_eq!(engine.module_health(ModuleId::ICM), HealthState::Healthy);
    assert_eq!(engine.safe_mode(), None);

    let stats = engine.stats();
    assert!(stats.quarantines >= 1, "module must have been quarantined");
    assert!(stats.reenables >= 1, "probe must have re-enabled it");
    assert!(stats.probes_launched >= 1);
    assert!(
        stats.probes_succeeded >= 1,
        "healing probe must be recorded"
    );
    assert!(
        engine
            .watchdog()
            .module_health(ModuleId::ICM)
            .probe_attempts()
            == 0,
        "attempt counter resets on re-enable"
    );
    // While quarantined, guest CHECKs were NOP-muxed instead of stalling.
    assert!(stats.chk_nop_committed >= 1);
}

#[test]
fn permanent_fault_exhausts_probes_and_disables() {
    // A permanently silent module fails `max_probe_attempts` consecutive
    // probes and lands in the absorbing `Disabled` state; with three
    // installed modules this still does not escalate to global safe
    // mode.
    let mut config = RseConfig::default();
    config.watchdog.timeout = 200;
    config.watchdog.health.probe_base = 300;
    config.watchdog.health.probe_timeout = 200;
    config.watchdog.health.max_probe_attempts = 3;
    // Three probe rounds with backoff take longer than 2,000 iterations
    // of back-to-back ICM CHECKs.
    let (mut cpu, mut engine) = harness(
        &long_loop(10_000),
        config,
        vec![
            ScriptedModule::new(ModuleId::ICM, ScriptedBehavior::Silent),
            ScriptedModule::new(
                ModuleId::MLR,
                ScriptedBehavior::Respond {
                    verdict: Verdict::Pass,
                    latency: 2,
                },
            ),
            ScriptedModule::new(
                ModuleId::AHBM,
                ScriptedBehavior::Respond {
                    verdict: Verdict::Pass,
                    latency: 2,
                },
            ),
        ],
    );

    let ev = cpu.run(&mut engine, 5_000_000);
    assert_eq!(ev, StepEvent::Halted, "guest must complete");
    assert_eq!(cpu.regs()[8], 10_000, "golden architectural state");

    assert_eq!(engine.module_health(ModuleId::ICM), HealthState::Disabled);
    assert_eq!(engine.safe_mode(), None, "1 of 3 down must not escalate");
    let stats = engine.stats();
    assert!(stats.probes_failed >= 3, "all probes must have failed");
    assert_eq!(stats.probes_succeeded, 0);
    assert!(stats.modules_disabled >= 1);
}
