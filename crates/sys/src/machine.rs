//! The one machine builder.
//!
//! The paper evaluates one processor in a handful of configurations:
//! Baseline, Framework and Framework+ICM (Table 4), with the MLR
//! (Table 5) and with the DDT (Figure 9). A [`MachineSpec`] names one
//! such configuration, [`Machine::build`] wires it, and [`Machine::run`]
//! runs its guest to an [`OsExit`]. Every decision about how a module,
//! the loader or the driver is wired is made here, once:
//!
//! * the memory configuration follows [`MachineSpec::framework`];
//! * the loader follows the driver: a process under the guest OS is
//!   loaded by [`loader::load_process`], which also writes the MLR's
//!   special header, and a bare run by [`Pipeline::load_image`];
//! * every listed module is installed in the slot its id names and
//!   enabled; the ICM gets its control-flow checker image, the DSM its
//!   basic-block signatures, and the DDT starts on thread 0;
//! * [`Machine::run`] under the guest OS is [`Os::run`]; a bare run
//!   maps the pipeline's event onto the same [`OsExit`] (see there).
//!
//! The engine fans every tap out to its modules in slot order and a
//! slot is its module's id, so the order of [`MachineSpec::modules`]
//! cannot move a result.

use crate::{loader, Os, OsConfig, OsExit};
use rse_core::{Engine, Module, RseConfig};
use rse_isa::Image;
use rse_mem::{MemConfig, MemorySystem};
use rse_modules::ahbm::{Ahbm, AhbmConfig};
use rse_modules::ddt::{Ddt, DdtConfig};
use rse_modules::dsm::Dsm;
use rse_modules::icm::{Icm, IcmConfig};
use rse_modules::mlr::{Mlr, MlrConfig};
use rse_pipeline::{CheckPolicy, Pipeline, PipelineConfig, StepEvent};

/// One machine configuration. The default is the framework attached,
/// no CHECK insertion, default engine, no modules, bare.
pub struct MachineSpec {
    /// The RSE is attached: [`MemConfig::with_framework`] (the arbiter
    /// in the memory path), else [`MemConfig::baseline`].
    pub framework: bool,
    /// Runtime CHECK insertion.
    pub check_policy: CheckPolicy,
    /// The engine's configuration (queue sizes, watchdog).
    pub rse: RseConfig,
    /// The modules, each installed in its slot and enabled.
    pub modules: Vec<ModuleSpec>,
    /// `Some`: a process under the guest OS; `None`: a bare run.
    pub os: Option<OsConfig>,
}

impl Default for MachineSpec {
    fn default() -> MachineSpec {
        MachineSpec {
            framework: true,
            check_policy: CheckPolicy::None,
            rse: RseConfig::default(),
            modules: Vec::new(),
            os: None,
        }
    }
}

/// A module to install, with its configuration.
pub enum ModuleSpec {
    /// The Instruction Checker Module, with its control-flow checker
    /// image written into guest memory.
    Icm(IcmConfig),
    /// The Dynamic Sequence Monitor, with the image's basic-block
    /// signatures.
    Dsm,
    /// The Data Dependency Tracker, running thread 0.
    Ddt(DdtConfig),
    /// The Memory Layout Randomization module.
    Mlr(MlrConfig),
    /// The Adaptive Heartbeat Monitor.
    Ahbm(AhbmConfig),
    /// Any other module, installed as given.
    Custom(Box<dyn Module>),
}

/// A built machine: the pipeline with its image loaded, the engine with
/// its modules enabled, and the guest OS when the spec asked for one.
pub struct Machine {
    /// The simulated processor.
    pub cpu: Pipeline,
    /// The RSE engine.
    pub engine: Engine,
    /// The guest OS driving the process (`None` on a bare machine).
    pub os: Option<Os>,
}

impl Machine {
    /// Builds the machine `spec` names with `image` loaded.
    pub fn build(image: &Image, spec: MachineSpec) -> Machine {
        let mem = if spec.framework {
            MemConfig::with_framework()
        } else {
            MemConfig::baseline()
        };
        let pipe = PipelineConfig {
            check_policy: spec.check_policy,
            ..PipelineConfig::default()
        };
        let mut cpu = Pipeline::new(pipe, MemorySystem::new(mem));
        if spec.os.is_some() {
            loader::load_process(&mut cpu, image);
        } else {
            cpu.load_image(image);
        }
        let mut engine = Engine::new(spec.rse);
        for module in spec.modules {
            let module: Box<dyn Module> = match module {
                ModuleSpec::Icm(config) => {
                    let mut icm = Icm::new(config);
                    icm.install_for_control_flow(image, &mut cpu.mem_mut().memory);
                    Box::new(icm)
                }
                ModuleSpec::Dsm => {
                    let mut dsm = Dsm::new();
                    dsm.install_signatures(image);
                    Box::new(dsm)
                }
                ModuleSpec::Ddt(config) => {
                    let mut ddt = Ddt::new(config);
                    ddt.set_current_thread(0);
                    Box::new(ddt)
                }
                ModuleSpec::Mlr(config) => Box::new(Mlr::new(config)),
                ModuleSpec::Ahbm(config) => Box::new(Ahbm::new(config)),
                ModuleSpec::Custom(module) => module,
            };
            let id = module.id();
            engine.install(module);
            engine.enable(id);
        }
        Machine {
            cpu,
            engine,
            os: spec.os.map(Os::new),
        }
    }

    /// Runs the guest for at most `max_cycles` more cycles and returns
    /// how it ended. Under the guest OS this is [`Os::run`]. A bare run
    /// has no kernel, so `halt` is `Exited { code: 0 }`, an exhausted
    /// budget is `Timeout`, and a syscall or a coprocessor exception
    /// kills the process.
    pub fn run(&mut self, max_cycles: u64) -> OsExit {
        if let Some(os) = &mut self.os {
            return os.run(&mut self.cpu, &mut self.engine, max_cycles);
        }
        let reason = match self.cpu.run(&mut self.engine, max_cycles) {
            StepEvent::Halted => return OsExit::Exited { code: 0 },
            StepEvent::Timeout => return OsExit::Timeout,
            StepEvent::Syscall => "unexpected syscall trap",
            StepEvent::Exception(_) => "unexpected coprocessor exception",
        };
        OsExit::ProcessKilled {
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_core::RseStats;
    use rse_isa::asm::assemble;
    use rse_isa::ModuleId;
    use rse_mem::MemStats;
    use rse_pipeline::PipelineStats;

    /// A guest that sends CHECKs to the ICM (one injected before every
    /// branch), the MLR (the special-header handshake), the DDT (a
    /// thread switch around a store) and the AHBM (a registration and a
    /// beat per lap), then prints a result under the guest OS.
    const FOUR_MODULES: &str = r#"
        main:   li   r4, 0x0EFF0000    # the loader's special header
                li   r5, 64
                chk  mlr, blk, 2, 0    # MLR_EXEC_HDR
                chk  mlr, blk, 3, 0    # MLR_PI_RAND
                chk  ahbm, nblk, 2, 1  # AHBM_REGISTER(1)
                chk  ddt, nblk, 2, 1   # DDT_SET_THREAD(1)
                la   r8, buf
                li   r9, 0
                li   r10, 12
        loop:   addi r9, r9, 3
                sw   r9, 0(r8)
                chk  ahbm, nblk, 3, 1  # AHBM_BEAT(1)
                addi r10, r10, -1
                bne  r10, r0, loop
                chk  ddt, nblk, 2, 0   # DDT_SET_THREAD(0)
                lw   r4, 0(r8)
                li   r2, 2             # PRINT_INT
                syscall
                halt
                .data
                .align 4
        buf:    .space 64
    "#;

    fn run_four(modules: Vec<ModuleSpec>) -> (PipelineStats, MemStats, RseStats, Vec<i32>) {
        let image = assemble(FOUR_MODULES).expect("assembles");
        let mut m = Machine::build(
            &image,
            MachineSpec {
                check_policy: CheckPolicy::ControlFlow,
                modules,
                os: Some(OsConfig::default()),
                ..MachineSpec::default()
            },
        );
        assert_eq!(m.run(1_000_000), OsExit::Exited { code: 0 });
        let output = m.os.expect("an OS run").output;
        (m.cpu.stats(), m.cpu.mem().stats(), m.engine.stats(), output)
    }

    fn four_specs() -> Vec<ModuleSpec> {
        vec![
            ModuleSpec::Icm(IcmConfig::default()),
            ModuleSpec::Mlr(MlrConfig {
                seed: Some(7),
                ..MlrConfig::default()
            }),
            ModuleSpec::Ddt(DdtConfig::default()),
            ModuleSpec::Ahbm(AhbmConfig::default()),
        ]
    }

    #[test]
    fn module_list_order_cannot_move_a_result() {
        let listed = run_four(four_specs());
        let reversed = run_four(four_specs().into_iter().rev().collect());
        assert_eq!(listed, reversed);
        // Every module heard of its CHECKs: the handshake's two, the
        // AHBM's 13, the DDT's two, and one ICM CHECK per branch.
        let (_, _, rse, output) = listed;
        assert!(rse.chk_routed >= 2 + 13 + 2 + 12, "{rse:?}");
        assert_eq!(output, vec![36]);
    }

    fn bare(src: &str) -> Machine {
        let image = assemble(src).expect("assembles");
        Machine::build(&image, MachineSpec::default())
    }

    #[test]
    fn bare_halt_exits_zero() {
        let mut m = bare("main: li r8, 1\nhalt");
        assert!(m.os.is_none());
        assert_eq!(m.run(10_000), OsExit::Exited { code: 0 });
        assert_eq!(m.cpu.regs()[8], 1);
    }

    #[test]
    fn bare_budget_runs_out_as_a_timeout() {
        let mut m = bare("main: b main");
        assert_eq!(m.run(5_000), OsExit::Timeout);
        assert_eq!(m.cpu.now(), 5_000);
    }

    #[test]
    fn bare_syscall_kills_the_process() {
        let mut m = bare("main: li r2, 2\nli r4, 7\nsyscall\nhalt");
        assert_eq!(
            m.run(10_000),
            OsExit::ProcessKilled {
                reason: "unexpected syscall trap".into()
            }
        );
    }

    #[test]
    fn the_loader_follows_the_driver() {
        let image = assemble("main: halt").expect("assembles");
        let header = |os: Option<OsConfig>| {
            let m = Machine::build(
                &image,
                MachineSpec {
                    os,
                    ..MachineSpec::default()
                },
            );
            m.cpu.mem().memory.read_u32(loader::HEADER_ADDR)
        };
        assert_eq!(
            header(Some(OsConfig::default())),
            rse_isa::image::HEADER_MAGIC
        );
        assert_eq!(header(None), 0);
    }

    #[test]
    fn listed_modules_are_installed_and_enabled() {
        let image = assemble("main: halt").expect("assembles");
        let m = Machine::build(
            &image,
            MachineSpec {
                modules: vec![ModuleSpec::Dsm, ModuleSpec::Ahbm(AhbmConfig::default())],
                ..MachineSpec::default()
            },
        );
        for id in [ModuleId::DSM, ModuleId::AHBM] {
            assert!(m.engine.module_installed(id) && m.engine.is_enabled(id));
        }
        assert!(!m.engine.module_installed(ModuleId::ICM));
    }
}
