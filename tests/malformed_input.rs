//! Malformed guest input must produce a named error, never a panic.
//!
//! Random token streams go through the assembler; the ones that
//! assemble run under the guest OS for a small cycle budget, and so do
//! random text images that no assembler produced, and random CHECK
//! streams with every paper module installed and enabled. Any panic
//! fails the property, and the harness shrinks the source to a minimal
//! failing input and prints the `RSE_PT_SEED` that replays it.

use rse::core::{Engine, RseConfig};
use rse::isa::asm::assemble;
use rse::isa::{Image, ModuleId};
use rse::mem::{MemConfig, MemorySystem};
use rse::modules::ahbm::{Ahbm, AhbmConfig};
use rse::modules::ddt::{Ddt, DdtConfig};
use rse::modules::icm::{Icm, IcmConfig};
use rse::modules::mlr::{Mlr, MlrConfig};
use rse::pipeline::{Pipeline, PipelineConfig};
use rse::sys::{loader, Os, OsConfig};
use rse_support::prelude::*;

/// Cycle budget per run: enough for a generated program to reach its
/// syscalls, stores and branches, small enough for debug builds.
const BUDGET: u64 = 2_000;

const LABELS: &[&str] = &["", "l1: ", "main: ", "l2: "];
const REGS: &[&str] = &["r2", "r4", "r0", "r8", "sp", "ra", "a0", "t1"];
const INTS: &[&str] = &["1", "0", "-1", "4", "18", "2", "10", "0x7fff", "4096"];
const TARGETS: &[&str] = &["l1", "main", "l2"];
const HEADS: &[&str] = &[
    "nop", "halt", "syscall", "li", "la", "lw", "sw", "lb", "sh", "add", "addi", "sll", "lui",
    "beq", "bnez", "j", "jal", "jr", "mul", "div", "chk", ".data", ".text", ".word", ".byte",
    ".space", ".align", ".asciiz", "frob",
];
const ODD: &[&str] = &[
    "r32",
    "65536",
    "-32769",
    "0b101",
    "99999999999",
    "l1+4",
    "l2-8",
    "nowhere",
    "icm",
    "blk",
];
/// Fragments that glue into operands no well-formed source contains:
/// unbalanced or reversed parentheses, stray signs, quotes, non-ASCII.
const ATOMS: &[&str] = &[
    ")", "(", "r4", "8", "+", "-", "l1", "\"", "\u{e9}", "0x", " ",
];

fn pick(vocab: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..vocab.len()).prop_map(move |i| vocab[i])
}

/// No label on most lines, so that labels rarely repeat.
fn label() -> impl Strategy<Value = &'static str> {
    (0..3 * LABELS.len()).prop_map(|i| LABELS.get(i).copied().unwrap_or(""))
}

/// A `.text` line the assembler accepts, unless its label repeats or
/// its branch target is never defined.
fn good_line() -> impl Strategy<Value = String> {
    (
        label(),
        0..12u8,
        (pick(REGS), pick(REGS)),
        pick(INTS),
        pick(TARGETS),
    )
        .prop_map(|(label, template, (a, b), n, target)| {
            let body = match template {
                0 => "nop".to_string(),
                1 => format!("li {a}, {n}"),
                2 => format!("addi {a}, {b}, {n}"),
                3 => format!("add {a}, {b}, {a}"),
                4 => format!("lw {a}, {n}({b})"),
                5 => format!("sw {a}, {n}({b})"),
                6 => format!("bne {a}, {b}, {target}"),
                7 => format!("jal {target}"),
                8 => format!("la {a}, {target}"),
                9 => "syscall".to_string(),
                10 => format!("chk icm, nblk, {n}, 0"),
                _ => "halt".to_string(),
            };
            format!("{label}{body}")
        })
}

fn operand() -> impl Strategy<Value = String> {
    prop_oneof![
        pick(REGS).prop_map(String::from),
        pick(INTS).prop_map(String::from),
        pick(ODD).prop_map(String::from),
        (pick(INTS), pick(REGS), 0..5u8).prop_map(|(off, base, shape)| match shape {
            0 => format!("{off}({base})"),
            1 => format!("{off}){base}("),
            2 => format!("{off}({base}"),
            3 => format!("{off}{base})"),
            _ => format!("){off}({base}"),
        }),
        rse_support::collection::vec(pick(ATOMS), 1..5).prop_map(|atoms| atoms.concat()),
    ]
}

/// Any head with any operands: mostly a named error.
fn random_line() -> impl Strategy<Value = String> {
    (
        label(),
        pick(HEADS),
        rse_support::collection::vec(operand(), 0..4),
    )
        .prop_map(|(label, head, ops)| format!("{label}{head} {}", ops.join(", ")))
}

fn line() -> impl Strategy<Value = String> {
    prop_oneof![good_line(), good_line(), good_line(), random_line()]
}

/// Loads `image` and runs it under the guest OS for [`BUDGET`] cycles.
fn run_under_os(image: &Image) {
    let mut cpu = Pipeline::new(
        PipelineConfig::default(),
        MemorySystem::new(MemConfig::with_framework()),
    );
    loader::load_process(&mut cpu, image);
    let mut engine = Engine::new(RseConfig::default());
    Os::new(OsConfig::default()).run(&mut cpu, &mut engine, BUDGET);
}

/// One CHECK to a module slot 0–4 (the four paper modules and the DSM's
/// empty slot), blocking or not, with any op and param, after random
/// wide operands in `a0`/`a1`.
fn check_line() -> impl Strategy<Value = String> {
    (
        (0..5u8, any::<bool>(), 0..32u8, any::<u16>()),
        (any::<u32>(), any::<u32>()),
    )
        .prop_map(|((module, blocking, op, param), (a0, a1))| {
            let mode = if blocking { "blk" } else { "nblk" };
            format!("li a0, {a0:#x}\nli a1, {a1:#x}\nchk m{module}, {mode}, {op}, {param}")
        })
}

/// Runs `image` under the guest OS for [`BUDGET`] cycles on the machine
/// `simrun --framework --icm --mlr --ddt --ahbm` builds.
fn run_with_every_module(image: &Image) {
    let pipe = PipelineConfig {
        chk_serialize_mask: 1 << ModuleId::MLR.number(),
        ..PipelineConfig::default()
    };
    let mut cpu = Pipeline::new(pipe, MemorySystem::new(MemConfig::with_framework()));
    loader::load_process(&mut cpu, image);
    let mut engine = Engine::new(RseConfig::default());
    let mut icm = Icm::new(IcmConfig::default());
    icm.install_for_control_flow(image, &mut cpu.mem_mut().memory);
    engine.install(Box::new(icm));
    engine.install(Box::new(Mlr::new(MlrConfig::default())));
    let mut ddt = Ddt::new(DdtConfig::default());
    ddt.set_current_thread(0);
    engine.install(Box::new(ddt));
    engine.install(Box::new(Ahbm::new(AhbmConfig::default())));
    for id in [ModuleId::ICM, ModuleId::MLR, ModuleId::DDT, ModuleId::AHBM] {
        engine.enable(id);
    }
    Os::new(OsConfig::default()).run(&mut cpu, &mut engine, BUDGET);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]
    #[test]
    fn token_streams_assemble_or_fail_by_name(lines in rse_support::collection::vec(line(), 1..7)) {
        if let Ok(image) = assemble(&lines.join("\n")) {
            run_under_os(&image);
        }
    }

    #[test]
    fn random_text_images_run_without_panic(
        words in rse_support::collection::vec(any::<u32>(), 1..64)
    ) {
        let mut image = assemble("main: halt").expect("assembles");
        image.text = words;
        run_under_os(&image);
    }

    #[test]
    fn check_streams_run_without_panic_on_every_module(
        checks in rse_support::collection::vec(check_line(), 1..12)
    ) {
        let src = format!("main: {}\nhalt", checks.join("\n"));
        let image = assemble(&src).expect("a CHECK stream assembles");
        run_with_every_module(&image);
    }
}
