//! The MLR's security argument, demonstrated: a control-flow hijack that
//! relies on the fixed memory layout (the class behind ~60% of the
//! CERT-reported attacks the paper cites) succeeds on a conventional
//! machine and *misses* under Memory Layout Randomization — the attack
//! degenerates into a wild write.
//!
//! The victim keeps a function pointer in a slot near the top of its
//! stack region; the attacker smashes the slot using the **hard-coded
//! nominal address**. Without MLR the nominal and actual layouts
//! coincide and the hijack lands; with MLR the victim's slot lives at a
//! randomized base the attacker cannot know.
//!
//! ```text
//! cargo run --example attack_demo
//! ```

use rse::isa::asm::assemble;
use rse::isa::layout;
use rse::modules::mlr::MlrConfig;
use rse::sys::{Machine, MachineSpec, ModuleSpec, OsConfig, OsExit};

/// `s1` ends up holding the stack base actually in use: the MLR's
/// randomized value when the module is live, else the nominal one
/// (the passthrough CHECKs leave the result words zero).
const SRC: &str = r#"
    main:   li   r4, 0x0EFF0000    # a0 = special header (loader.HEADER_ADDR)
            li   r5, 64
            chk  mlr, blk, 2, 0    # MLR_EXEC_HDR
            chk  mlr, blk, 3, 0    # MLR_PI_RAND
            li   t0, 0x0EFF0040
            lw   s1, 4(t0)         # randomized stack base (or 0)
            bne  s1, r0, haveb
            li   s1, 0x7FFFF000    # fall back to the nominal base
    haveb:  # victim: plant the function pointer at [stack_base - 64]
            la   t0, good
            addi t1, s1, -64
            sw   t0, 0(t1)
            # attacker: smash the slot at the HARD-CODED nominal address
            la   t0, evil
            li   t1, 0x7FFFF000
            addi t1, t1, -64
            sw   t0, 0(t1)
            # victim: call through its function pointer
            addi t1, s1, -64
            lw   t2, 0(t1)
            jalr r31, t2
            halt

    good:   li   r2, 2
            li   r4, 1             # 1 = legitimate path
            syscall
            jr   ra
    evil:   li   r2, 2
            li   r4, 666           # 666 = hijacked
            syscall
            jr   ra
"#;

fn run(with_mlr: bool) -> (i32, u32) {
    let image = assemble(SRC).expect("assembles");
    let modules = if with_mlr {
        vec![ModuleSpec::Mlr(MlrConfig {
            seed: Some(0xDEFE47), // "load time" entropy, pinned for the demo
            ..MlrConfig::default()
        })]
    } else {
        Vec::new()
    };
    let spec = MachineSpec {
        modules,
        os: Some(OsConfig::default()),
        ..MachineSpec::default()
    };
    let mut m = Machine::build(&image, spec);
    let exit = m.run(10_000_000);
    assert!(matches!(exit, OsExit::Exited { .. }), "{exit:?}");
    let os = m.os.expect("the victim runs under the guest OS");
    (os.output[0], m.cpu.regs()[17])
}

fn main() {
    let (outcome, base) = run(false);
    println!("without MLR: stack base {base:#010x} (the nominal layout)");
    println!("             victim's call dispatched to ... {outcome}  (666 = hijacked)");
    assert_eq!(outcome, 666, "the fixed layout makes the attack land");
    assert_eq!(base, layout::STACK_BASE);

    let (outcome, base) = run(true);
    println!("with MLR:    stack base {base:#010x} (randomized at load)");
    println!("             victim's call dispatched to ... {outcome}  (1 = legitimate)");
    assert_eq!(
        outcome, 1,
        "the randomized layout defeats the hard-coded address"
    );
    assert_ne!(base, layout::STACK_BASE);

    println!("\nThe attacker's write landed on unmapped scratch space instead of the");
    println!("function-pointer slot: the hijack became a harmless (or crashing) wild");
    println!("write — and a crash is exactly what the DDT then recovers from.");
}
