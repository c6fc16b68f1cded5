//! Design-choice ablations called out in `DESIGN.md`:
//!
//! 1. **ICM cache size** — the §5.2 `Icm_Cache` (256 entries, 8-entry
//!    refill) swept from 16 to 1024 entries on a branch-rich workload;
//! 2. **MLR PLT-rewrite parallelism** — the "4 adders… 4 entries at a
//!    time" of Figure 3(B) swept from 1 to 16;
//! 3. **DDT page-save cost** — the SavePage handler's per-page freeze
//!    swept, showing how checkpointing cost scales the Figure 9 overhead;
//! 4. **DDT logging lag** — enabling the §4.2.1 1-cycle lag model and
//!    counting lost dependency logs.
//!
//! ```text
//! cargo run --release -p rse-bench --bin ablations
//! ```

use rse_bench::{assemble_or_die, header, row};
use rse_isa::{Image, ModuleId};
use rse_modules::ddt::{Ddt, DdtConfig};
use rse_modules::icm::{Icm, IcmConfig};
use rse_modules::mlr::MlrConfig;
use rse_pipeline::CheckPolicy;
use rse_sys::{Machine, MachineSpec, ModuleSpec, OsConfig, OsExit};
use rse_workloads::mlr_bench::{rse_source, MlrBenchParams};
use rse_workloads::server::{source as server_source, ServerParams};

/// Builds the machine `spec` names for `image` and runs it to a clean
/// exit within `max_cycles`.
fn run_clean(image: &Image, spec: MachineSpec, max_cycles: u64) -> Machine {
    let mut m = Machine::build(image, spec);
    assert_eq!(m.run(max_cycles), OsExit::Exited { code: 0 });
    m
}

/// A process under the default guest OS with `modules`.
fn process(modules: Vec<ModuleSpec>) -> MachineSpec {
    MachineSpec {
        modules,
        os: Some(OsConfig::default()),
        ..MachineSpec::default()
    }
}

/// A loop over a long chain of distinct branch sites: the checked-
/// instruction working set (~`sites` entries) straddles the Icm_Cache
/// capacity, exposing the §5.2 sizing choice.
fn branch_chain(sites: usize, laps: u32) -> String {
    let mut src = format!("main:   li   s0, {laps}\nlap:\n");
    for i in 0..sites {
        src.push_str(&format!("c{i}:   b    c{}\n", i + 1));
    }
    src.push_str(&format!(
        "c{sites}: addi s0, s0, -1\n        bne  s0, r0, lap\n        halt\n"
    ));
    src
}

fn icm_cache_sweep() {
    header("Ablation 1: ICM cache size (400 distinct checked branches)");
    let image = assemble_or_die(&branch_chain(400, 120));
    let w = [14, 12, 12, 12, 14];
    println!(
        "{}",
        row(&["Icm entries", "Cycles", "Hits", "Misses", "Hit rate"], &w)
    );
    for entries in [16usize, 64, 256, 1024] {
        let icm = ModuleSpec::Icm(IcmConfig {
            cache_entries: entries,
        });
        let spec = MachineSpec {
            check_policy: CheckPolicy::ControlFlow,
            ..process(vec![icm])
        };
        let Machine { cpu, engine, .. } = run_clean(&image, spec, 2_000_000_000);
        let icm: &Icm = engine.module_ref(ModuleId::ICM).unwrap();
        let s = icm.stats();
        let rate = 100.0 * s.cache_hits as f64 / (s.cache_hits + s.cache_misses).max(1) as f64;
        println!(
            "{}",
            row(
                &[
                    &entries.to_string(),
                    &cpu.stats().cycles.to_string(),
                    &s.cache_hits.to_string(),
                    &s.cache_misses.to_string(),
                    &format!("{rate:.1}%"),
                ],
                &w
            )
        );
    }
}

fn mlr_parallelism_sweep() {
    header("Ablation 2: MLR PLT-rewrite parallelism (1024 GOT entries)");
    let p = MlrBenchParams { got_entries: 1024 };
    let image = assemble_or_die(&rse_source(&p));
    let w = [10, 12];
    println!("{}", row(&["Adders", "Cycles"], &w));
    for adders in [1u32, 2, 4, 8, 16] {
        let mlr = ModuleSpec::Mlr(MlrConfig {
            plt_rewrite_parallelism: adders,
            ..MlrConfig::default()
        });
        let spec = MachineSpec {
            modules: vec![mlr],
            ..MachineSpec::default()
        };
        let cpu = run_clean(&image, spec, 100_000_000).cpu;
        println!(
            "{}",
            row(&[&adders.to_string(), &cpu.stats().cycles.to_string()], &w)
        );
    }
    println!("(diminishing returns: the MAU transfers dominate once rewrite is parallel)");
}

fn ddt_save_cost_sweep() {
    header("Ablation 3: DDT page-save cost (server, 6 threads, 60 requests)");
    let image = assemble_or_die(&server_source(&ServerParams {
        threads: 6,
        ..Default::default()
    }));
    let w = [18, 12, 12];
    println!("{}", row(&["Save cost (cyc)", "Cycles", "Pages"], &w));
    for cost in [500u64, 1500, 3000, 6000, 12000] {
        let spec = MachineSpec {
            modules: vec![ModuleSpec::Ddt(DdtConfig::default())],
            os: Some(OsConfig {
                num_requests: 60,
                page_save_cycles: cost,
            }),
            ..MachineSpec::default()
        };
        let Machine { cpu, os, .. } = run_clean(&image, spec, 2_000_000_000);
        let pages = os
            .expect("built with the guest OS")
            .stats()
            .pages_checkpointed;
        println!(
            "{}",
            row(
                &[
                    &cost.to_string(),
                    &cpu.stats().cycles.to_string(),
                    &pages.to_string()
                ],
                &w
            )
        );
    }
}

fn ddt_lag_model() {
    header("Ablation 4: DDT 1-cycle logging lag (§4.2.1)");
    // Producers t1 and t3 each write a page; consumer t2 then reads both
    // pages with back-to-back loads, which commit in the same cycle —
    // with the lag modeled, the second dependency log is lost.
    let src = r#"
        main:   la   r8, pa
                la   r9, pb
                chk  ddt, nblk, 2, 1   # thread 1
                li   t0, 11
                sw   t0, 0(r8)
                chk  ddt, nblk, 2, 3   # thread 3
                li   t0, 33
                sw   t0, 0(r9)
                chk  ddt, nblk, 2, 2   # thread 2 reads both pages
                lw   t1, 0(r8)
                lw   t2, 0(r9)
                halt
                .data
        pa:     .space 4096
        pb:     .space 4096
    "#;
    let image = assemble_or_die(src);
    let w = [16, 14, 14];
    println!(
        "{}",
        row(&["Lag modeled", "Deps logged", "Deps missed"], &w)
    );
    for lag in [false, true] {
        let ddt = ModuleSpec::Ddt(DdtConfig { model_log_lag: lag });
        let engine = run_clean(&image, process(vec![ddt]), 10_000_000).engine;
        let ddt: &Ddt = engine.module_ref(ModuleId::DDT).unwrap();
        println!(
            "{}",
            row(
                &[
                    if lag { "yes" } else { "no" },
                    &ddt.stats().dependencies_logged.to_string(),
                    &ddt.stats().missed_logs.to_string(),
                ],
                &w
            )
        );
    }
    println!("(with the lag modeled, one of the two same-cycle dependencies is lost)");
}

fn rerand_interval_sweep() {
    use rse_modules::mlr::Mlr;
    use rse_sys::rerand::{maybe_rerandomize, RerandPlan};
    header("Ablation 5: runtime re-randomization interval (§4.1 extension)");
    // A long-running worker that follows the §4.1 pointer contract:
    // reloads its segment pointer from a registered slot after each safe
    // point (syscall).
    let src = r#"
        main:   li   s0, 2000
        round:  la   t0, ptr
                lw   t1, 0(t0)
                lw   t2, 0(t1)
                addi t2, t2, 1
                sw   t2, 0(t1)
                li   t3, 200
        work:   addi t3, t3, -1
                bne  t3, r0, work
                li   r2, 18         # YIELD: safe point
                syscall
                addi s0, s0, -1
                bne  s0, r0, round
                la   t0, ptr
                lw   t1, 0(t0)
                lw   r4, 0(t1)
                li   r2, 2
                syscall
                halt
                .data
                .align 4
        ptr:    .word seg
        ptrtab: .word 1, ptr
                .space 4000
                .align 4096
        seg:    .word 0
                .space 8188
    "#;
    let image = assemble_or_die(src);
    let seg = image.symbol("seg").unwrap();
    let ptrtab = image.symbol("ptrtab").unwrap();
    let w = [18, 12, 10, 12];
    println!(
        "{}",
        row(&["Interval (cyc)", "Cycles", "Moves", "Overhead"], &w)
    );
    let mut baseline_cycles = 0u64;
    for interval in [0u64, 200_000, 50_000, 10_000] {
        let mut m = Machine::build(&image, process(Vec::new()));
        let Machine { cpu, engine, os } = &mut m;
        let os = os.as_mut().expect("built with the guest OS");
        let mut mlr = Mlr::new(MlrConfig {
            seed: Some(17),
            ..MlrConfig::default()
        });
        let mut plan = RerandPlan {
            interval,
            ptr_table: ptrtab,
            base: seg,
            len: 8192,
        };
        let mut next_due = interval;
        let mut moves = 0u64;
        let exit = loop {
            match cpu.run(engine, 500_000_000) {
                rse_pipeline::StepEvent::Syscall => {
                    if interval != 0
                        && maybe_rerandomize(cpu, &mut mlr, &mut plan, &mut next_due).is_some()
                    {
                        moves += 1;
                    }
                    if let Some(e) = os.dispatch_pending_syscall(cpu, engine) {
                        break e;
                    }
                }
                rse_pipeline::StepEvent::Halted => break OsExit::Exited { code: 0 },
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(exit, OsExit::Exited { code: 0 });
        assert_eq!(
            os.output,
            vec![2000],
            "semantics must survive every interval"
        );
        let cycles = cpu.stats().cycles;
        if interval == 0 {
            baseline_cycles = cycles;
        }
        let overhead = 100.0 * (cycles as f64 / baseline_cycles as f64 - 1.0);
        println!(
            "{}",
            row(
                &[
                    &(if interval == 0 {
                        "off".to_string()
                    } else {
                        interval.to_string()
                    }),
                    &cycles.to_string(),
                    &moves.to_string(),
                    &format!("{overhead:.1}%"),
                ],
                &w
            )
        );
    }
    println!("(security freshness trades linearly against the copy+rewrite cost)");
}

fn main() {
    icm_cache_sweep();
    mlr_parallelism_sweep();
    ddt_save_cost_sweep();
    ddt_lag_model();
    rerand_interval_sweep();
}
