//! The two module operating modes of §3 / Figure 2, exercised through
//! the full stack:
//!
//! * **synchronous** (Figure 2(a)): a blocking CHECK gates commit — the
//!   pipeline may only commit when the module's check completes, and an
//!   error flushes the pipeline back to the CHECK;
//! * **asynchronous** (Figure 2(b)): a non-blocking CHECK never delays
//!   commit — the module lags the pipeline and logs permanent state on
//!   the commit signal, and squashed instructions never reach its
//!   permanent state.

use rse::core::testutil::{CountingModule, ScriptedBehavior, ScriptedModule};
use rse::core::{Engine, Module, Verdict};
use rse::isa::asm::assemble;
use rse::isa::{Image, ModuleId};
use rse::pipeline::{Pipeline, StepEvent};
use rse::sys::{Machine, MachineSpec, ModuleSpec};

/// The framework machine with `image` loaded and `module` installed and
/// enabled.
fn machine(image: &Image, module: impl Module) -> (Pipeline, Engine) {
    let spec = MachineSpec {
        modules: vec![ModuleSpec::Custom(Box::new(module))],
        ..MachineSpec::default()
    };
    let m = Machine::build(image, spec);
    (m.cpu, m.engine)
}

#[test]
fn synchronous_check_stalls_commit_for_the_module_latency() {
    // The same program with a fast and a slow module: the slow module's
    // latency must show up in total cycles via commit stalls.
    let image = assemble("main: chk icm, blk, 2, 0\nli r8, 1\nhalt").unwrap();
    let run = |latency: u64| {
        let module = ScriptedModule::new(
            ModuleId::ICM,
            ScriptedBehavior::Respond {
                verdict: Verdict::Pass,
                latency,
            },
        );
        let (mut cpu, mut engine) = machine(&image, module);
        assert_eq!(cpu.run(&mut engine, 1_000_000), StepEvent::Halted);
        (cpu.stats().cycles, cpu.stats().commit_stall_cycles)
    };
    let (fast_cycles, _) = run(1);
    let (slow_cycles, slow_stalls) = run(200);
    assert!(
        slow_cycles > fast_cycles + 150,
        "{slow_cycles} vs {fast_cycles}"
    );
    assert!(slow_stalls >= 150);
}

#[test]
fn synchronous_error_flushes_and_restarts_at_the_check() {
    // A module that fails once and then passes: the pipeline must flush,
    // refetch the CHECK, and complete with correct architectural state.
    struct FailOnce {
        failed: bool,
        pending: Vec<(u64, rse::pipeline::RobId)>,
    }
    impl rse::core::Module for FailOnce {
        fn id(&self) -> ModuleId {
            ModuleId::ICM
        }
        fn name(&self) -> &'static str {
            "fail-once"
        }
        fn on_chk(&mut self, chk: &rse::core::ChkDispatch, ctx: &mut rse::core::ModuleCtx<'_>) {
            self.pending.push((ctx.now + 3, chk.rob));
        }
        fn on_squash(&mut self, rob: rse::pipeline::RobId, _: &mut rse::core::ModuleCtx<'_>) {
            self.pending.retain(|(_, r)| *r != rob);
        }
        fn tick(&mut self, ctx: &mut rse::core::ModuleCtx<'_>) {
            let now = ctx.now;
            let due: Vec<_> = self
                .pending
                .iter()
                .filter(|(at, _)| *at <= now)
                .map(|(_, r)| *r)
                .collect();
            self.pending.retain(|(at, _)| *at > now);
            for rob in due {
                let verdict = if self.failed {
                    Verdict::Pass
                } else {
                    Verdict::Fail
                };
                self.failed = true;
                ctx.complete_check(rob, verdict);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    let image = assemble("main: li r8, 5\nchk icm, blk, 2, 0\naddi r8, r8, 1\nhalt").unwrap();
    let module = FailOnce {
        failed: false,
        pending: Vec::new(),
    };
    let (mut cpu, mut engine) = machine(&image, module);
    assert_eq!(cpu.run(&mut engine, 1_000_000), StepEvent::Halted);
    // The addi after the CHECK executed exactly once despite the flush.
    assert_eq!(cpu.regs()[8], 6);
    assert_eq!(cpu.stats().check_flushes, 1);
    assert!(engine.safe_mode().is_none());
}

#[test]
fn asynchronous_check_never_stalls_commit() {
    let image = assemble("main: chk icm, nblk, 2, 0\nli r8, 1\nhalt").unwrap();
    // Even a silent module cannot stall an asynchronous CHECK.
    let module = ScriptedModule::new(ModuleId::ICM, ScriptedBehavior::Silent);
    let (mut cpu, mut engine) = machine(&image, module);
    assert_eq!(cpu.run(&mut engine, 100_000), StepEvent::Halted);
    assert_eq!(cpu.regs()[8], 1);
    assert!(
        engine.safe_mode().is_none(),
        "async CHECKs never trip the progress watchdog"
    );
}

#[test]
fn asynchronous_module_logs_only_committed_state() {
    // CHECKs on the wrong path of a mispredicted branch are squashed;
    // only the committed CHECK may enter the module's permanent log.
    let image = assemble(
        r#"
        main:   li   r8, 0
                li   r9, 6
        loop:   addi r8, r8, 1
                bne  r8, r9, loop
                chk  icm, nblk, 2, 0
                halt
        "#,
    )
    .unwrap();
    let (mut cpu, mut engine) = machine(&image, CountingModule::new(ModuleId::ICM));
    assert_eq!(cpu.run(&mut engine, 1_000_000), StepEvent::Halted);
    let m: &CountingModule = engine.module_ref(ModuleId::ICM).unwrap();
    assert_eq!(m.chk_commits, 1, "exactly one CHECK commits");
    assert!(
        cpu.stats().squashed > 0,
        "the loop must have mispredicted at least once for this test to bite"
    );
}

#[test]
fn disabled_module_makes_checks_transparent() {
    // §3.2 enable/disable unit: with the module disabled, its CHECKs
    // behave like `10` entries and the module sees nothing.
    let image = assemble("main: chk icm, blk, 2, 0\nchk icm, nblk, 2, 0\nli r8, 3\nhalt").unwrap();
    let (mut cpu, mut engine) = machine(&image, CountingModule::new(ModuleId::ICM));
    // Not enabled.
    engine.disable(ModuleId::ICM);
    assert_eq!(cpu.run(&mut engine, 100_000), StepEvent::Halted);
    assert_eq!(cpu.regs()[8], 3);
    let m: &CountingModule = engine.module_ref(ModuleId::ICM).unwrap();
    assert_eq!(m.chks_seen, 0);
    assert_eq!(engine.stats().chk_passthrough, 2);
}

#[test]
fn enable_via_check_then_module_participates() {
    let image = assemble(
        r#"
        main:   chk icm, nblk, 0, 0    # ENABLE the module slot
                chk icm, nblk, 2, 7    # now delivered to the module
                halt
        "#,
    )
    .unwrap();
    let (mut cpu, mut engine) = machine(&image, CountingModule::new(ModuleId::ICM));
    // Disabled until the guest's ENABLE commits.
    engine.disable(ModuleId::ICM);
    assert_eq!(cpu.run(&mut engine, 100_000), StepEvent::Halted);
    assert!(engine.is_enabled(ModuleId::ICM));
    let m: &CountingModule = engine.module_ref(ModuleId::ICM).unwrap();
    assert_eq!(m.chks_seen, 1);
    assert_eq!(m.last_param, 7);
}
