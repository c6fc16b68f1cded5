//! Traced `kernel-sim`: each run goes once through `run_workload` and
//! once through [`drive`], which builds the same machine and drives
//! `Pipeline::run` and `Os::dispatch_pending_syscall` itself, with a
//! span around each call and the engine and ICM behind the timing
//! wrappers. The counters of the two must be identical.

use crate::trace::{Counters, Table, TimedEngine, TimedModule, Tracer, NO_TRIAL};
use crate::{paired, per_layer, write_spans};
use rse_bench::{run_workload, MachineConfig};
use rse_core::RseStats;
use rse_isa::asm::assemble;
use rse_isa::{Image, ModuleId};
use rse_modules::icm::{Icm, IcmStats};
use rse_perfbench::kernel::{
    build_machine, check_pair, model_report, params, KernelRun, CONFIGS, MAX_CYCLES,
};
use rse_perfbench::pins::Pins;
use rse_perfbench::{for_seconds, Ledger, Options, RunResult};
use rse_pipeline::StepEvent;
use rse_sys::{Os, OsConfig, OsExit};
use rse_workloads::kmeans;
use std::rc::Rc;
use std::time::Instant;

/// What a traced run produced: the checked fields, plus the engine and
/// ICM counters the exact per-layer metrics read.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The fields the output check reads.
    pub run: KernelRun,
    /// Engine counters.
    pub rse: RseStats,
    /// ICM counters (Framework+ICM only).
    pub icm: Option<IcmStats>,
}

/// Runs `image` on the machine `run_workload` builds, with the engine
/// behind [`TimedEngine`] and the ICM behind [`TimedModule`], and a span
/// around every `Pipeline::run` and syscall dispatch.
pub fn drive(
    image: &Image,
    machine: MachineConfig,
    t: &mut Tracer,
    c: &Rc<Counters>,
    trial: u64,
) -> TracedRun {
    let (mut cpu, mut engine) = build_machine(image, machine, |icm| {
        Box::new(TimedModule::new(icm, Rc::clone(c)))
    });
    let mut os = Os::new(OsConfig::default());
    let deadline = cpu.now() + MAX_CYCLES;
    let exit = loop {
        if cpu.now() >= deadline {
            break OsExit::Timeout;
        }
        let budget = deadline - cpu.now();
        let taps = c.tap_ns.get();
        let s = t.enter("pipeline.run", trial);
        let mut timed_engine = TimedEngine {
            engine: &mut engine,
            counters: c,
        };
        let event = cpu.run(&mut timed_engine, budget);
        t.exit_with_callbacks(s, c.tap_ns.get() - taps);
        match event {
            StepEvent::Halted => break OsExit::Exited { code: 0 },
            StepEvent::Timeout => break OsExit::Timeout,
            StepEvent::Exception(e) => {
                break OsExit::ProcessKilled {
                    reason: format!("unexpected co-processor exception {e:?}"),
                }
            }
            StepEvent::Syscall => {
                let s = t.enter("sys.syscall", trial);
                let done = os.dispatch_pending_syscall(&mut cpu, &mut engine);
                t.exit(s);
                if let Some(exit) = done {
                    break exit;
                }
            }
        }
    };
    TracedRun {
        run: KernelRun {
            pipeline: cpu.stats(),
            mem: cpu.mem().stats(),
            output: os.output,
            exit,
        },
        rse: engine.stats(),
        icm: engine.module_ref::<Icm>(ModuleId::ICM).map(Icm::stats),
    }
}

/// The traced run: per-layer metrics.
pub fn traced(opts: &Options, pins: &Pins) -> RunResult {
    let p = params(opts.seed);
    let mut t = Tracer::new();
    let counters = Rc::new(Counters::default());
    let start = Instant::now();
    let s = t.enter("workloads.gen", NO_TRIAL);
    let src = kmeans::source(&p);
    t.exit(s);
    let s = t.enter("isa.assemble", NO_TRIAL);
    let image = assemble(&src).expect("kMeans guest assembles");
    t.exit(s);
    let mut traced_ns = start.elapsed().as_nanos() as u64;

    let mut plain_ns = [0u64; 2];
    let mut cycles = [0u64; 2];
    let mut instructions = 0u64;
    let mut last: Vec<Option<TracedRun>> = vec![None, None];
    let mut mismatched = Vec::new();
    let ops = for_seconds(opts.seconds, CONFIGS.len(), |i| {
        let cfg = i % CONFIGS.len();
        let ((plain, p_ns), (run, t_ns)) = paired(
            i / CONFIGS.len(),
            || run_workload(&image, CONFIGS[cfg], MAX_CYCLES),
            || {
                let root = t.enter("kernel.run", i as u64);
                let run = drive(&image, CONFIGS[cfg], &mut t, &counters, i as u64);
                t.exit(root);
                run
            },
        );
        plain_ns[cfg] += p_ns;
        traced_ns += t_ns;
        cycles[cfg] += plain.pipeline.cycles;
        instructions += plain.pipeline.committed_program();
        if run.run.pipeline != plain.pipeline || run.run.mem != plain.mem {
            mismatched.push(i);
        }
        last[cfg] = Some(run);
    });
    let runs = [
        last[0].take().expect("a Baseline run"),
        last[1].take().expect("a Framework+ICM run"),
    ];
    let pair = check_pair(opts.seed, [&runs[0].run, &runs[1].run], pins);
    let mut ledger = Ledger::default();
    for i in 0..ops {
        let ok = if mismatched.contains(&i) {
            Err(format!(
                "op {i}: traced counters differ from run_workload's"
            ))
        } else {
            pair.clone()
        };
        ledger.op(1, ok);
    }
    let mut r = RunResult::default();
    ledger.report(&mut r);
    let (overhead, ipc) = model_report([&runs[0].run, &runs[1].run], &mut r);

    let spans = t.spans();
    let self_ns = t.self_times();
    let self_of = |name: &str| -> u64 {
        (0..spans.len())
            .filter(|&i| spans[i].name == name)
            .map(|i| self_ns[i])
            .sum()
    };
    let (tap, module) = (counters.tap_ns.get(), counters.module_ns.get());
    let table = Table {
        title: format!("kernel-sim ({ops} traced runs)"),
        rows: vec![
            (
                "rse-workloads: kMeans source generation".into(),
                self_of("workloads.gen"),
            ),
            ("rse-isa: assemble".into(), self_of("isa.assemble")),
            (
                "rse-pipeline (+ rse-mem): Pipeline::run self".into(),
                self_of("pipeline.run"),
            ),
            (
                "rse-core: engine taps minus module callbacks".into(),
                tap.saturating_sub(module),
            ),
            ("rse-modules: ICM callbacks".into(), module),
            (
                "rse-sys: dispatch_pending_syscall".into(),
                self_of("sys.syscall"),
            ),
            (
                "benchmark: constructors, loader, ICM install".into(),
                self_of("kernel.run"),
            ),
        ],
        wall_ns: traced_ns,
    };
    r.report.extend(table.lines());
    r.report.push(format!(
        "  where kernel-sim time goes: pipeline self {:.1}%, engine taps {:.1}% \
         (of which ICM {:.1}%) over {} tap calls; traced/untraced mismatches: {}",
        100.0 * self_of("pipeline.run") as f64 / traced_ns as f64,
        100.0 * tap as f64 / traced_ns as f64,
        100.0 * module as f64 / traced_ns as f64,
        counters.tap_calls.get(),
        mismatched.len()
    ));
    let pairs = (ops as f64 / 2.0).max(1.0);
    let ms = |ns: u64| ns as f64 / 1e6 / pairs;
    let fw = &runs[1];
    let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
    let icm = fw.icm.unwrap_or_default();
    per_layer(&mut r, |name| match name {
        "sim_mips" => Some(instructions as f64 / ((plain_ns[0] + plain_ns[1]) as f64 / 1e9) / 1e6),
        "sim_ipc" => Some(ipc),
        "rse_overhead_pct" => Some(overhead),
        "pipeline.self_ms" => Some(ms(self_of("pipeline.run"))),
        "pipeline.ns_per_cycle.baseline" => Some(plain_ns[0] as f64 / cycles[0].max(1) as f64),
        "pipeline.ns_per_cycle.fw_icm" => Some(plain_ns[1] as f64 / cycles[1].max(1) as f64),
        "core.tap_ms" => Some(ms(tap)),
        "core.tap_calls" => Some(counters.tap_calls.get() as f64 / pairs),
        "core.tick_ms" => Some(ms(counters.tick_ns.get())),
        "core.self_ms" => Some(ms(tap.saturating_sub(module))),
        "modules.icm_ms" => Some(ms(module)),
        "sys.syscall_ms" => Some(ms(self_of("sys.syscall"))),
        "sys.syscalls" => Some(t.durations("sys.syscall").len() as f64 / pairs),
        "workloads.gen_ms" => Some(self_of("workloads.gen") as f64 / 1e6),
        "isa.assemble_ms" => Some(self_of("isa.assemble") as f64 / 1e6),
        "pipeline.commit_stall_cycles" => Some(fw.run.pipeline.commit_stall_cycles as f64),
        "pipeline.mispredicts" => Some(fw.run.pipeline.mispredicts as f64),
        "core.stalls" => Some(fw.rse.stalls as f64),
        "core.chk_routed" => Some(fw.rse.chk_routed as f64),
        "modules.icm_cache_hit_pct" => Some(pct(icm.cache_hits, icm.cache_hits + icm.cache_misses)),
        "mem.il1_miss_pct" => Some(fw.run.mem.il1.miss_rate_pct()),
        "mem.dl1_miss_pct" => Some(fw.run.mem.dl1.miss_rate_pct()),
        "mem.dl2_miss_pct" => Some(fw.run.mem.dl2.miss_rate_pct()),
        "mem.mau_wait_cycles" => Some(fw.run.mem.mau_wait_cycles as f64),
        "trace.overhead_pct" => Some(
            100.0
                * ((traced_ns as f64
                    - (self_of("workloads.gen") + self_of("isa.assemble")) as f64)
                    / (plain_ns[0] + plain_ns[1]).max(1) as f64
                    - 1.0),
        ),
        _ => None,
    });
    r.bases = vec![
        ("traced_runs", ops.to_string()),
        ("instructions", instructions.to_string()),
        ("tap_calls", counters.tap_calls.get().to_string()),
        ("module_calls", counters.module_calls.get().to_string()),
        ("traced_wall_ms", format!("{:.3}", traced_ns as f64 / 1e6)),
        (
            "untraced_wall_ms",
            format!("{:.3}", (plain_ns[0] + plain_ns[1]) as f64 / 1e6),
        ),
        (
            "table_within_tolerance",
            table.within_tolerance().to_string(),
        ),
    ];
    r.bases.push(("spans", write_spans(opts, &t)));
    r
}
