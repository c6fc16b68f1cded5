//! Regenerates **Table 5** of the paper: "Performance of the MLR module"
//! — cycles and instruction counts of the pure-software TRR GOT/PLT
//! randomization versus the RSE MLR-module version, swept over the GOT
//! size, plus the fixed position-independent randomization penalty
//! reported in §5.3.
//!
//! ```text
//! cargo run --release -p rse-bench --bin table5_mlr
//! ```

use rse_bench::{assemble_or_die, header, row};
use rse_isa::Image;
use rse_modules::mlr::MlrConfig;
use rse_pipeline::Pipeline;
use rse_sys::{Machine, MachineSpec, ModuleSpec, OsExit};
use rse_workloads::mlr_bench::{rse_source, trr_source, verify_relocation, MlrBenchParams};

/// Runs `image` bare on the framework machine with `modules` to its
/// `halt`, within `max_cycles`.
fn run_to_halt(image: &Image, modules: Vec<ModuleSpec>, max_cycles: u64) -> Pipeline {
    let spec = MachineSpec {
        modules,
        ..MachineSpec::default()
    };
    let mut m = Machine::build(image, spec);
    assert_eq!(m.run(max_cycles), OsExit::Exited { code: 0 });
    m.cpu
}

fn run_trr(p: &MlrBenchParams) -> (u64, u64) {
    let image = assemble_or_die(&trr_source(p));
    let cpu = run_to_halt(&image, Vec::new(), 100_000_000);
    assert_eq!(
        verify_relocation(cpu.mem(), &image, p),
        (true, true),
        "TRR relocation wrong"
    );
    (cpu.stats().cycles, cpu.stats().committed_program())
}

fn run_rse(p: &MlrBenchParams) -> (u64, u64) {
    let image = assemble_or_die(&rse_source(p));
    let mlr = ModuleSpec::Mlr(MlrConfig::default());
    let cpu = run_to_halt(&image, vec![mlr], 100_000_000);
    assert_eq!(
        verify_relocation(cpu.mem(), &image, p),
        (true, true),
        "RSE relocation wrong"
    );
    (cpu.stats().cycles, cpu.stats().committed_program())
}

/// Measures the fixed penalty of position-independent randomization
/// (§5.3: "The penalty for position independent regions is fixed and was
/// found to be 56 cycles"). We measure the added cycles of the
/// `MLR_PI_RAND` CHECK relative to the same program without it.
fn pi_penalty() -> u64 {
    let with = r#"
        main:   la  r4, header
                li  r5, 64
                chk mlr, blk, 2, 0
                chk mlr, blk, 3, 0
                halt
                .data
                .align 4
        header: .word 0x52534530
                .word 0x00400000, 4096, 0x10000000, 512, 0
                .word 0x0F000000, 0x7FFFF000, 0x18000000
                .word 0, 0, 0, 0, 0x00400000, 0, 0
        results:.space 12
    "#;
    let without = r#"
        main:   la  r4, header
                li  r5, 64
                halt
                .data
                .align 4
        header: .word 0x52534530
                .word 0x00400000, 4096, 0x10000000, 512, 0
                .word 0x0F000000, 0x7FFFF000, 0x18000000
                .word 0, 0, 0, 0, 0x00400000, 0, 0
        results:.space 12
    "#;
    let run = |src: &str| -> u64 {
        let mlr = ModuleSpec::Mlr(MlrConfig {
            seed: Some(7),
            ..MlrConfig::default()
        });
        run_to_halt(&assemble_or_die(src), vec![mlr], 1_000_000)
            .stats()
            .cycles
    };
    run(with) - run(without)
}

fn main() {
    header("Table 5: Performance of the MLR module (measured)");
    let w = [12, 12, 12, 12, 14, 14, 12];
    println!(
        "{}",
        row(
            &[
                "GOT entries",
                "TRR #cyc",
                "RSE #cyc",
                "improv",
                "TRR #inst",
                "RSE #inst",
                "improv"
            ],
            &w
        )
    );
    for p in MlrBenchParams::paper_sweep() {
        let (trr_cyc, trr_inst) = run_trr(&p);
        let (rse_cyc, rse_inst) = run_rse(&p);
        let cyc_improv = 100.0 * (1.0 - rse_cyc as f64 / trr_cyc as f64);
        let inst_improv = 100.0 * (1.0 - rse_inst as f64 / trr_inst as f64);
        println!(
            "{}",
            row(
                &[
                    &p.got_entries.to_string(),
                    &trr_cyc.to_string(),
                    &rse_cyc.to_string(),
                    &format!("{cyc_improv:.0}%"),
                    &trr_inst.to_string(),
                    &rse_inst.to_string(),
                    &format!("{inst_improv:.0}%"),
                ],
                &w
            )
        );
    }
    println!(
        "\nPosition-independent randomization penalty: {} cycles (paper: 56, fixed)",
        pi_penalty()
    );
    println!("\nPaper reference (Table 5): cycle improvement 18-30% growing with GOT size;");
    println!("TRR instruction count grows ~9.6k -> 32k while RSE stays flat ~6.1-6.3k");
    println!("(instruction improvement 34% -> 81%).");
}
