//! Memory Layout Randomization end to end (the Figure 3 handshake):
//! the loader assembles the special header, the guest program passes it
//! to the MLR module via CHECK instructions, and the module returns
//! randomized region bases and relocates the GOT/PLT in hardware.
//!
//! Two loads of the same binary produce two different memory layouts —
//! the property that defeats the fixed-layout assumption behind ~60% of
//! the attacks the paper cites.
//!
//! ```text
//! cargo run --example mlr_randomize
//! ```

use rse::isa::asm::assemble;
use rse::modules::mlr::MlrConfig;
use rse::sys::{Machine, MachineSpec, ModuleSpec, OsConfig, OsExit};

/// The loader stub a real system would link in front of the program:
/// it hands the special header to the MLR and reads back the randomized
/// bases (instructions I0–I3 of Figure 3(A)).
const LOADER_STUB: &str = r#"
    main:   li   r4, 0x0EFF0000    # a0 = header location (loader.HEADER_ADDR)
            li   r5, 64            # a1 = header size
            chk  mlr, blk, 2, 0    # MLR_EXEC_HDR
            chk  mlr, blk, 3, 0    # MLR_PI_RAND
            li   r8, 0x0EFF0040    # results follow the header
            lw   r9, 0(r8)         # randomized shared-library base
            lw   r10, 4(r8)        # randomized stack base
            lw   r11, 8(r8)        # randomized heap base
            halt
    "#;

fn load_once(run: u32) -> (u32, u32, u32) {
    let image = assemble(LOADER_STUB).expect("stub assembles");
    // Entropy comes from the clock-cycle counter; vary it per load the
    // way distinct load times would.
    let mlr = ModuleSpec::Mlr(MlrConfig {
        seed: Some(0xC10C_0000 + run as u64),
        ..MlrConfig::default()
    });
    // The loader writes the program and its special header into memory.
    let spec = MachineSpec {
        modules: vec![mlr],
        os: Some(OsConfig::default()),
        ..MachineSpec::default()
    };
    let mut m = Machine::build(&image, spec);
    assert_eq!(m.run(10_000_000), OsExit::Exited { code: 0 });
    let regs = m.cpu.regs();
    (regs[9], regs[10], regs[11])
}

fn main() {
    println!(
        "nominal layout: shlib={:#010x} stack={:#010x} heap={:#010x}",
        rse::isa::layout::SHLIB_BASE,
        rse::isa::layout::STACK_BASE,
        rse::isa::layout::HEAP_BASE
    );
    let first = load_once(1);
    let second = load_once(2);
    println!(
        "load #1:        shlib={:#010x} stack={:#010x} heap={:#010x}",
        first.0, first.1, first.2
    );
    println!(
        "load #2:        shlib={:#010x} stack={:#010x} heap={:#010x}",
        second.0, second.1, second.2
    );
    assert_ne!(first, second, "two loads must not share a layout");
    assert_ne!(first.1, rse::isa::layout::STACK_BASE);
    println!("\nAn attacker that hard-codes addresses from one run (e.g. a stack");
    println!("return address) finds them invalid on the next load — the attack");
    println!("becomes a crash, which the DDT can then recover from (see the");
    println!("ddt_server_recovery example).");
}
