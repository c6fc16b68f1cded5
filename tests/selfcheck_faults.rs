//! Table 2 of the paper as integration tests: every framework error
//! scenario, injected while a checked workload runs, must either be
//! harmless (the false negative) or be detected by the §3.4 self-checking
//! watchdog so the application completes with correct architectural
//! results.
//!
//! Detection is now two-tiered. Anomalies attributable to a module
//! (its CHECK timed out, flushed in a burst, or passed prematurely)
//! quarantine *that module* — its CHECKs commit as NOPs through the §3.4
//! output multiplexer and the rest of the framework keeps running.
//! Anomalies with no owning module (a global wire fault wedging plain
//! instructions) still trip the global safe-mode escape hatch.

use rse::core::testutil::{ScriptedBehavior, ScriptedModule};
use rse::core::{AnomalyKind, Engine, IoqFault, RseConfig, SafeModeCause, Verdict};
use rse::isa::asm::assemble;
use rse::isa::ModuleId;
use rse::pipeline::{CheckPolicy, Pipeline, StepEvent};
use rse::sys::{Machine, MachineSpec, ModuleSpec};

const SRC: &str = r#"
    main:   li   r8, 0
            li   r9, 150
    loop:   addi r8, r8, 1
            bne  r8, r9, loop
            halt
"#;

fn run(behavior: ScriptedBehavior, fault: Option<IoqFault>) -> (Pipeline, Engine) {
    let image = assemble(SRC).unwrap();
    let mut config = RseConfig::default();
    config.watchdog.timeout = 1_000;
    config.watchdog.burst_threshold = 5;
    config.watchdog.premature_pass_threshold = 5;
    let module = ScriptedModule::new(ModuleId::ICM, behavior);
    let spec = MachineSpec {
        check_policy: CheckPolicy::ControlFlow,
        rse: config,
        modules: vec![ModuleSpec::Custom(Box::new(module))],
        ..MachineSpec::default()
    };
    let Machine {
        mut cpu,
        mut engine,
        ..
    } = Machine::build(&image, spec);
    engine.inject_ioq_fault(fault);
    let ev = cpu.run(&mut engine, 5_000_000);
    assert_eq!(ev, StepEvent::Halted, "application must complete");
    assert_eq!(cpu.regs()[8], 150, "architectural result must be correct");
    (cpu, engine)
}

fn healthy() -> ScriptedBehavior {
    ScriptedBehavior::Respond {
        verdict: Verdict::Pass,
        latency: 2,
    }
}

#[test]
fn healthy_module_no_safe_mode() {
    let (_, engine) = run(healthy(), None);
    assert_eq!(engine.safe_mode(), None);
}

#[test]
fn module_without_progress_is_quarantined() {
    let (cpu, engine) = run(ScriptedBehavior::Silent, None);
    // The stuck module is contained, not the whole framework: its CHECKs
    // commit as NOPs and global safe mode is never needed.
    assert!(engine.module_health(ModuleId::ICM).is_down());
    assert_eq!(
        engine.watchdog().module_health(ModuleId::ICM).last_cause(),
        Some(AnomalyKind::Timeout)
    );
    assert_eq!(engine.safe_mode(), None);
    assert!(engine.stats().chk_nop_committed >= 1);
    assert!(cpu.stats().nop_commits >= 1);
}

#[test]
fn false_alarm_module_is_quarantined_by_burst_detector() {
    let (cpu, engine) = run(
        ScriptedBehavior::Respond {
            verdict: Verdict::Fail,
            latency: 2,
        },
        None,
    );
    assert!(engine.module_health(ModuleId::ICM).is_down());
    assert_eq!(
        engine.watchdog().module_health(ModuleId::ICM).last_cause(),
        Some(AnomalyKind::ErrorBurst)
    );
    assert_eq!(engine.safe_mode(), None);
    assert!(
        cpu.stats().check_flushes >= 4,
        "flush-loop before quarantine"
    );
}

#[test]
fn false_negative_is_undetectable_but_harmless() {
    // Table 2: "the application proceeds with execution and effectively
    // is not receiving any protection".
    let (_, engine) = run(healthy(), Some(IoqFault::CheckStuck0));
    assert_eq!(engine.safe_mode(), None);
}

#[test]
fn checkvalid_stuck_at_0_detected_as_no_progress() {
    let (_, engine) = run(healthy(), Some(IoqFault::ValidStuck0));
    assert!(matches!(
        engine.safe_mode(),
        Some(SafeModeCause::NoProgress { .. })
    ));
}

#[test]
fn checkvalid_stuck_at_1_detected_as_premature_pass() {
    // A stuck-at-1 `checkValid` only disturbs CHECK entries, so the
    // anomaly is attributable: the owning module is quarantined.
    let (_, engine) = run(healthy(), Some(IoqFault::ValidStuck1));
    assert!(engine.module_health(ModuleId::ICM).is_down());
    assert_eq!(
        engine.watchdog().module_health(ModuleId::ICM).last_cause(),
        Some(AnomalyKind::PrematurePass)
    );
    assert_eq!(engine.safe_mode(), None);
}

#[test]
fn check_stuck_at_1_detected_as_burst() {
    let (_, engine) = run(healthy(), Some(IoqFault::CheckStuck1));
    assert_eq!(engine.safe_mode(), Some(SafeModeCause::ErrorBurst));
}

#[test]
fn quarantine_costs_no_extra_cycles_once_muxed() {
    // After quarantine, the §3.4 multiplexer's constant `10` output lets
    // the pipeline run at full speed: a silent module's run must not be
    // dramatically slower than the healthy run past the detection point.
    let (healthy_cpu, _) = run(healthy(), None);
    let (silent_cpu, engine) = run(ScriptedBehavior::Silent, None);
    assert!(engine.module_health(ModuleId::ICM).is_down());
    // The silent run pays the re-arming watchdog timeout a bounded number
    // of times (until quarantine), not per CHECK.
    assert!(
        silent_cpu.stats().cycles < healthy_cpu.stats().cycles + 3_000,
        "silent: {} healthy: {}",
        silent_cpu.stats().cycles,
        healthy_cpu.stats().cycles
    );
}
