//! Quickstart: assemble a guest program, attach the RSE with the
//! Instruction Checker Module, inject a transient fault, and watch the
//! framework detect and recover from it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rse::isa::asm::assemble;
use rse::isa::ModuleId;
use rse::modules::icm::{Icm, IcmConfig};
use rse::pipeline::{CheckPolicy, FetchFault};
use rse::sys::{Machine, MachineSpec, ModuleSpec, OsExit};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A guest program: sum the integers 1..=100.
    let image = assemble(
        r#"
        main:   li   r8, 0          # i
                li   r9, 0          # sum
        loop:   addi r8, r8, 1
                add  r9, r9, r8
                li   r10, 100
                bne  r8, r10, loop
                halt
        "#,
    )?;

    // 2. A superscalar pipeline with the paper's Figure 1 parameters,
    //    runtime CHECK insertion on every control-flow instruction, and
    //    the RSE-attached memory configuration (arbiter in the DRAM path).
    // 3. The Reliability and Security Engine hosting the Instruction
    //    Checker Module, with redundant copies of all control-flow
    //    instructions installed in CheckerMemory.
    let spec = MachineSpec {
        check_policy: CheckPolicy::ControlFlow,
        modules: vec![ModuleSpec::Icm(IcmConfig::default())],
        ..MachineSpec::default()
    };
    let mut m = Machine::build(&image, spec);

    // 4. Corrupt the branch in flight: flip a bit of the 6th fetched
    //    word (the bne) as it leaves the I-cache.
    m.cpu.set_fetch_fault(Some(FetchFault::xor(5, 0x0000_0020)));

    // 5. Run. The ICM compares the corrupted word against its redundant
    //    copy, reports a mismatch, and the pipeline flushes and refetches
    //    — the program still computes the right answer.
    assert_eq!(m.run(10_000_000), OsExit::Exited { code: 0 });

    let Machine { cpu, engine, .. } = &m;
    let icm: &Icm = engine.module_ref(ModuleId::ICM).expect("ICM installed");
    println!("sum(1..=100)        = {} (expected 5050)", cpu.regs()[9]);
    println!("cycles              = {}", cpu.stats().cycles);
    println!("instructions        = {}", cpu.stats().committed_program());
    println!("checks completed    = {}", icm.stats().checks_completed);
    println!("mismatches detected = {}", icm.stats().mismatches);
    println!("pipeline flushes    = {}", cpu.stats().check_flushes);
    assert_eq!(cpu.regs()[9], 5050);
    assert!(
        icm.stats().mismatches >= 1,
        "the injected fault must be detected"
    );
    Ok(())
}
