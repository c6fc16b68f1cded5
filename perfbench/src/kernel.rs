//! `kernel-sim`: one kMeans guest run cycle-accurately to completion
//! under Table 4's Baseline and Framework+ICM configurations.
//!
//! This is the simulator core as one long steady-state run with little
//! per-run set-up. The pattern matrix is larger than the 128 KB L2
//! D-cache, so the data side misses to DRAM through the bus arbiter,
//! where the MAU competes; the ICM's CHECK on every control-flow
//! instruction exposes the engine's and the module's host cost.
//! Operations alternate Baseline and Framework+ICM runs of one image.

use crate::pins::Pins;
use crate::{clock, for_seconds, median, peak_rss_mb, Ledger, Options, RunResult};
use rse_bench::{run_workload, MachineConfig, SimResult};
use rse_core::module::Module;
use rse_core::{Engine, RseConfig};
use rse_isa::asm::assemble;
use rse_isa::{Image, ModuleId};
use rse_mem::{MemConfig, MemStats, MemorySystem};
use rse_modules::icm::{Icm, IcmConfig};
use rse_pipeline::{CheckPolicy, Pipeline, PipelineConfig, PipelineStats};
use rse_sys::{Os, OsConfig, OsExit};
use rse_workloads::kmeans::{self, KmeansParams};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Patterns in the matrix: 2,560 x 16 words = 160 KB, above the 128 KB
/// L2 D-cache.
pub const PATTERNS: usize = 2560;

/// Cycle limit of one run (the `table4_framework` binary's).
pub const MAX_CYCLES: u64 = 2_000_000_000;

/// The paper's Table 4 Framework+ICM overhead for kMeans, percent.
pub const PAPER_KMEANS_ICM_PCT: f64 = 5.44;

/// The full-size `table4_framework` kMeans Framework+ICM overhead this
/// repository reports (`results/table4.txt`), percent.
pub const REPO_TABLE4_KMEANS_ICM_PCT: f64 = 11.50;

/// The two configurations an operation alternates between.
pub const CONFIGS: [MachineConfig; 2] = [MachineConfig::Baseline, MachineConfig::FrameworkIcm];

/// The guest's parameters for a workload seed.
pub fn params(seed: u64) -> KmeansParams {
    KmeansParams {
        patterns: PATTERNS,
        dims: 16,
        clusters: 4,
        iters: 1,
        seed,
    }
}

/// The set-up: generates the guest's source from the seed and assembles it.
pub fn setup(seed: u64) -> Image {
    assemble(&kmeans::source(&params(seed))).expect("kMeans guest assembles")
}

/// What the output check needs from one run.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Pipeline counters.
    pub pipeline: PipelineStats,
    /// Memory-system counters.
    pub mem: MemStats,
    /// What the guest printed.
    pub output: Vec<i32>,
    /// How the run ended.
    pub exit: OsExit,
}

/// Builds the machine `run_workload` builds for `machine`, with `image`
/// loaded; `install` boxes the ICM for the engine (the traced run wraps
/// it in a timer).
pub fn build_machine(
    image: &Image,
    machine: MachineConfig,
    install: impl FnOnce(Icm) -> Box<dyn Module>,
) -> (Pipeline, Engine) {
    let (mem_config, pipe_config) = match machine {
        MachineConfig::Baseline => (MemConfig::baseline(), PipelineConfig::default()),
        MachineConfig::Framework => (MemConfig::with_framework(), PipelineConfig::default()),
        MachineConfig::FrameworkIcm => (
            MemConfig::with_framework(),
            PipelineConfig {
                check_policy: CheckPolicy::ControlFlow,
                ..PipelineConfig::default()
            },
        ),
    };
    let mut cpu = Pipeline::new(pipe_config, MemorySystem::new(mem_config));
    rse_sys::loader::load_process(&mut cpu, image);
    let mut engine = Engine::new(RseConfig::default());
    if machine == MachineConfig::FrameworkIcm {
        let mut icm = Icm::new(IcmConfig::default());
        icm.install_for_control_flow(image, &mut cpu.mem_mut().memory);
        engine.install(install(icm));
        engine.enable(ModuleId::ICM);
    }
    (cpu, engine)
}

/// Runs `image` to completion on [`build_machine`]'s machine under
/// `Os::run` (what `simrun` calls), so the guest's exit and output are
/// visible; `run_workload` keeps them to itself.
pub fn verify_run(image: &Image, machine: MachineConfig) -> KernelRun {
    let (mut cpu, mut engine) = build_machine(image, machine, |icm| Box::new(icm));
    let mut os = Os::new(OsConfig::default());
    let exit = os.run(&mut cpu, &mut engine, MAX_CYCLES);
    KernelRun {
        pipeline: cpu.stats(),
        mem: cpu.mem().stats(),
        output: os.output,
        exit,
    }
}

/// Checks one Baseline + Framework+ICM pair of runs: clean exits, the
/// host reference's output under both configurations, identical
/// committed guest instructions, and the pinned simulated cycles when
/// the seed is pinned. The error names the computed values.
pub fn check_pair(seed: u64, runs: [&KernelRun; 2], pins: &Pins) -> Result<(), String> {
    let want = kmeans::reference(&params(seed)).0 as i32;
    for (run, cfg) in runs.iter().zip(CONFIGS) {
        if run.exit != (OsExit::Exited { code: 0 }) {
            return Err(format!("{cfg:?} run ended with {:?}", run.exit));
        }
        if run.output != [want] {
            return Err(format!(
                "{cfg:?} printed {:?}, reference {want}",
                run.output
            ));
        }
    }
    let (base, icm) = (&runs[0].pipeline, &runs[1].pipeline);
    if base.committed_program() != icm.committed_program() {
        return Err(format!(
            "committed guest instructions differ: {} vs {}",
            base.committed_program(),
            icm.committed_program()
        ));
    }
    match pins.kernel(seed) {
        Some(cycles) if cycles != [base.cycles, icm.cycles] => Err(format!(
            "simulated cycles {:?} != pinned {cycles:?}",
            [base.cycles, icm.cycles]
        )),
        _ => Ok(()),
    }
}

/// The overhead, IPC and accuracy lines every kernel-sim run prints;
/// returns `(rse_overhead_pct, sim_ipc)`.
pub fn model_report(runs: [&KernelRun; 2], r: &mut RunResult) -> (f64, f64) {
    let [base, icm] = runs.map(|run| SimResult {
        pipeline: run.pipeline,
        mem: run.mem,
    });
    let overhead = icm.overhead_pct(&base);
    let ipc = icm.pipeline.committed_program() as f64 / icm.pipeline.cycles as f64;
    r.report.push(format!(
        "kernel-sim model: Baseline {} cycles, Framework+ICM {} cycles, {} guest instructions; \
         sim_ipc {ipc:.6}; rse_overhead_pct {overhead:.4}",
        base.pipeline.cycles,
        icm.pipeline.cycles,
        icm.pipeline.committed_program()
    ));
    r.report.push(format!(
        "accuracy: rse_overhead_pct {overhead:.2}% vs the paper's Table 4 kMeans Framework+ICM \
         {PAPER_KMEANS_ICM_PCT:.2}% ({:+.2} points) and the full-size table4_framework \
         {REPO_TABLE4_KMEANS_ICM_PCT:.2}% ({:+.2} points); the model is not validated \
         against the paper, this states its error",
        overhead - PAPER_KMEANS_ICM_PCT,
        overhead - REPO_TABLE4_KMEANS_ICM_PCT,
    ));
    (overhead, ipc)
}

/// The timed run: `work_per_s` (committed guest instructions of one
/// Baseline and one Framework+ICM run, over their median times) and
/// `peak_rss_mb`. Every timed run must reproduce the counters of the
/// checked run of its configuration, which ties it to the checked output.
pub fn timed(opts: &Options, pins: &Pins) -> RunResult {
    let image = setup(opts.seed);
    let mut ops: Vec<(usize, Option<SimResult>, f64)> = Vec::new();
    let mut rss = None;
    for_seconds(opts.seconds, CONFIGS.len(), |i| {
        let cfg = i % CONFIGS.len();
        let (res, secs) = clock(|| {
            catch_unwind(AssertUnwindSafe(|| {
                run_workload(&image, CONFIGS[cfg], MAX_CYCLES)
            }))
            .ok()
        });
        ops.push((cfg, res, secs));
        if i + 1 == CONFIGS.len() {
            rss = peak_rss_mb();
        }
    });
    let runs = CONFIGS.map(|cfg| verify_run(&image, cfg));
    let pair = check_pair(opts.seed, [&runs[0], &runs[1]], pins);
    let mut ledger = Ledger::default();
    let mut secs_by_cfg = [Vec::new(), Vec::new()];
    for (cfg, res, secs) in &ops {
        let verdict = pair.clone().and_then(|()| match res {
            Some(s) if s.pipeline == runs[*cfg].pipeline && s.mem == runs[*cfg].mem => Ok(()),
            Some(_) => Err("timed run's counters differ from the checked run".into()),
            None => Err("run_workload panicked".into()),
        });
        ledger.op(1, verdict);
        secs_by_cfg[*cfg].push(*secs);
    }
    let instructions = runs[0].pipeline.committed_program() + runs[1].pipeline.committed_program();
    let pair_secs = median(&secs_by_cfg[0]) + median(&secs_by_cfg[1]);
    let rate = instructions as f64 / pair_secs;
    let mut r = RunResult::default();
    ledger.report(&mut r);
    r.metric("work_per_s", rate, "1/s");
    r.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB");
    model_report([&runs[0], &runs[1]], &mut r);
    r.report.push(format!(
        "kernel-sim: {} runs; median run Baseline {:.3} s, Framework+ICM {:.3} s: \
         sim_mips {:.4}",
        ops.len(),
        median(&secs_by_cfg[0]),
        median(&secs_by_cfg[1]),
        rate / 1e6,
    ));
    r.bases = vec![
        ("work_unit", "\"committed guest instruction\"".into()),
        ("instructions_per_pair", instructions.to_string()),
        ("runs", ops.len().to_string()),
        ("median_pair_s", format!("{pair_secs:.6}")),
        (
            "kmeans",
            format!("\"{PATTERNS}x16 words, 4 clusters, 1 iteration\""),
        ),
        (
            "cycles_pinned",
            pins.kernel(opts.seed).is_some().to_string(),
        ),
    ];
    r
}
