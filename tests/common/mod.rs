//! Shared infrastructure for the differential and golden-corpus test
//! crates: the random guest-program generator, pipeline/golden
//! execution helpers, and the architectural-state digest.
#![allow(dead_code)]

use rse::core::{Engine, RseConfig};
use rse::mem::{MemConfig, MemorySystem};
use rse::pipeline::{
    CheckPolicy, Golden, GoldenEvent, NullCoProcessor, Pipeline, PipelineConfig, StepEvent,
};
use rse_support::prelude::*;

/// Operations the program generator can emit. Loads/stores stay within a
/// 256-byte scratch buffer, except [`Op::Wrap`]'s; loops are bounded by
/// construction. [`Op::Wrap`] and [`Op::Seed`] are drawn only by the
/// differential harness, so the corpus generator stays unchanged.
#[derive(Debug, Clone)]
pub enum Op {
    Alu {
        kind: u8,
        rd: u8,
        rs: u8,
        rt: u8,
    },
    AluImm {
        kind: u8,
        rd: u8,
        rs: u8,
        imm: i16,
    },
    Shift {
        kind: u8,
        rd: u8,
        rs: u8,
        sh: u8,
    },
    Load {
        width: u8,
        rd: u8,
        off: u8,
    },
    Store {
        width: u8,
        rs: u8,
        off: u8,
    },
    /// A bounded countdown loop wrapping a body of simple ALU ops.
    Loop {
        count: u8,
        body: Vec<(u8, u8, u8)>,
    },
    /// A data-dependent branch skipping one instruction.
    SkipIfEven {
        rs: u8,
        rd: u8,
    },
    Call,
    /// A load (`store == false`) or store at `off(r27)` with `r27 = -8`:
    /// the top 8 bytes of the address space, where a word or halfword
    /// access wraps around to address 0.
    Wrap {
        store: bool,
        width: u8,
        reg: u8,
        off: u8,
    },
    /// `li` of a full 32-bit value. Generated registers otherwise start
    /// at 0 and stay small, so a store whose bytes equal memory's would
    /// hide a load that reads the wrong bytes.
    Seed {
        reg: u8,
        value: u32,
    },
}

/// Registers usable by generated code: t0–t7 and s0–s3 (r8..r15, r16..r19).
pub fn reg(n: u8) -> String {
    format!("r{}", 8 + (n % 12))
}

/// Renders an op sequence as a complete assembler program.
pub fn emit(ops: &[Op]) -> String {
    let mut src = String::from("main:   la   r28, scratch\n        li   r29, 0x7FFEF000\n");
    let mut label = 0usize;
    for op in ops {
        match op {
            Op::Alu { kind, rd, rs, rt } => {
                let m =
                    ["add", "sub", "and", "or", "xor", "nor", "slt", "mul"][(*kind % 8) as usize];
                src.push_str(&format!(
                    "        {m} {}, {}, {}\n",
                    reg(*rd),
                    reg(*rs),
                    reg(*rt)
                ));
            }
            Op::AluImm { kind, rd, rs, imm } => {
                let m = ["addi", "andi", "ori", "xori", "slti"][(*kind % 5) as usize];
                let imm = if m == "addi" || m == "slti" {
                    *imm as i32
                } else {
                    (*imm as u16) as i32
                };
                src.push_str(&format!("        {m} {}, {}, {imm}\n", reg(*rd), reg(*rs)));
            }
            Op::Shift { kind, rd, rs, sh } => {
                let m = ["sll", "srl", "sra"][(*kind % 3) as usize];
                src.push_str(&format!(
                    "        {m} {}, {}, {}\n",
                    reg(*rd),
                    reg(*rs),
                    sh % 32
                ));
            }
            Op::Load { width, rd, off } => {
                let m = ["lw", "lh", "lb", "lbu", "lhu"][(*width % 5) as usize];
                let off = (off % 63) * 4;
                src.push_str(&format!("        {m} {}, {off}(r28)\n", reg(*rd)));
            }
            Op::Store { width, rs, off } => {
                let m = ["sw", "sh", "sb"][(*width % 3) as usize];
                let off = (off % 63) * 4;
                src.push_str(&format!("        {m} {}, {off}(r28)\n", reg(*rs)));
            }
            Op::Loop { count, body } => {
                let count = 1 + count % 9;
                src.push_str(&format!("        li   r26, {count}\nL{label}:\n"));
                for (kind, rd, rs) in body {
                    let m = ["add", "xor", "sub"][(*kind % 3) as usize];
                    src.push_str(&format!("        {m} {}, {}, r26\n", reg(*rd), reg(*rs)));
                }
                src.push_str(&format!(
                    "        addi r26, r26, -1\n        bne  r26, r0, L{label}\n"
                ));
                label += 1;
            }
            Op::SkipIfEven { rs, rd } => {
                src.push_str(&format!(
                    "        andi r27, {}, 1\n        bne  r27, r0, L{label}\n        addi {}, {}, 77\nL{label}:\n",
                    reg(*rs),
                    reg(*rd),
                    reg(*rd),
                ));
                label += 1;
            }
            Op::Wrap {
                store,
                width,
                reg: r,
                off,
            } => {
                let m = if *store {
                    ["sw", "sh", "sb"][(*width % 3) as usize]
                } else {
                    ["lw", "lh", "lb", "lbu", "lhu"][(*width % 5) as usize]
                };
                src.push_str(&format!(
                    "        li   r27, -8\n        {m} {}, {}(r27)\n",
                    reg(*r),
                    off % 8
                ));
            }
            Op::Seed { reg: r, value } => {
                src.push_str(&format!("        li   {}, {value:#x}\n", reg(*r)));
            }
            Op::Call => {
                src.push_str(&format!(
                    "        jal  F{label}\n        b    L{label}\nF{label}: addi r20, r20, 3\n        jr   ra\nL{label}:\n"
                ));
                label += 1;
            }
        }
    }
    src.push_str("        halt\n        .data\n        .align 4\nscratch: .space 256\n");
    src
}

/// The strategy generating a single [`Op`] of the differential harness:
/// the corpus ops plus [`Op::Wrap`] and [`Op::Seed`].
pub fn op_strategy() -> impl Strategy<Value = Op> {
    let mut arms = corpus_arms();
    arms.push(
        (any::<bool>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(store, width, reg, off)| Op::Wrap {
                store,
                width,
                reg,
                off,
            })
            .boxed(),
    );
    arms.push(
        (any::<u8>(), any::<u32>())
            .prop_map(|(reg, value)| Op::Seed { reg, value })
            .boxed(),
    );
    Union::new(arms)
}

/// The strategy generating a single [`Op`] of the committed corpus.
/// [`generate_program`] draws from it alone, so it still reproduces
/// `tests/corpus/`.
pub fn corpus_op_strategy() -> impl Strategy<Value = Op> {
    Union::new(corpus_arms())
}

fn corpus_arms() -> Vec<BoxedStrategy<Op>> {
    vec![
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(kind, rd, rs, rt)| Op::Alu { kind, rd, rs, rt })
            .boxed(),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<i16>())
            .prop_map(|(kind, rd, rs, imm)| Op::AluImm { kind, rd, rs, imm })
            .boxed(),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(kind, rd, rs, sh)| Op::Shift { kind, rd, rs, sh })
            .boxed(),
        (any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(width, rd, off)| Op::Load { width, rd, off })
            .boxed(),
        (any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(width, rs, off)| Op::Store { width, rs, off })
            .boxed(),
        (
            any::<u8>(),
            rse_support::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4),
        )
            .prop_map(|(count, body)| Op::Loop { count, body })
            .boxed(),
        (any::<u8>(), any::<u8>())
            .prop_map(|(rs, rd)| Op::SkipIfEven { rs, rd })
            .boxed(),
        Just(Op::Call).boxed(),
    ]
}

/// Runs `image` to completion on the out-of-order pipeline (bare, or
/// with the RSE attached and runtime CHECKs enabled) and returns the
/// final architectural state: registers, the scratch buffer, and its
/// base address.
pub fn run_pipeline(image: &rse::isa::Image, with_engine: bool) -> ([u32; 32], Vec<u8>, u32) {
    let (mem, pipe) = if with_engine {
        (
            MemConfig::with_framework(),
            PipelineConfig {
                check_policy: CheckPolicy::ControlFlow,
                ..PipelineConfig::default()
            },
        )
    } else {
        (MemConfig::baseline(), PipelineConfig::default())
    };
    let mut cpu = Pipeline::new(pipe, MemorySystem::new(mem));
    cpu.load_image(image);
    let ev = if with_engine {
        let mut engine = Engine::new(RseConfig::default());
        cpu.run(&mut engine, 50_000_000)
    } else {
        cpu.run(&mut NullCoProcessor, 50_000_000)
    };
    assert_eq!(ev, StepEvent::Halted, "pipeline must halt");
    let scratch_base = image.symbol("scratch").unwrap();
    let mut scratch = vec![0u8; 256];
    cpu.mem().memory.read_bytes(scratch_base, &mut scratch);
    (*cpu.regs(), scratch, scratch_base)
}

/// Runs `image` on the golden in-order interpreter and returns
/// `(registers, scratch bytes, scratch base)`.
pub fn run_golden(image: &rse::isa::Image) -> ([u32; 32], Vec<u8>, u32) {
    let mut golden = Golden::new(image);
    assert_eq!(
        golden.run(5_000_000),
        GoldenEvent::Halted,
        "golden must halt"
    );
    let base = image.symbol("scratch").unwrap();
    let mut scratch = vec![0u8; 256];
    golden.mem.read_bytes(base, &mut scratch);
    (golden.regs, scratch, base)
}

/// FNV-1a digest of final architectural state (registers then scratch
/// memory) — the fingerprint pinned by `tests/corpus/MANIFEST.txt`.
pub fn state_digest(regs: &[u32; 32], scratch: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for r in regs {
        for b in r.to_le_bytes() {
            eat(b);
        }
    }
    for &b in scratch {
        eat(b);
    }
    h
}

/// Deterministically generates the corpus program for `seed`: a
/// sequence of 4–40 ops drawn from [`corpus_op_strategy`] through the
/// property-harness generator, rendered to assembler source.
pub fn generate_program(seed: u64) -> String {
    let strategy = rse_support::collection::vec(corpus_op_strategy(), 4..40);
    let ops = strategy.generate(&mut TestRng::fresh(seed));
    emit(&ops)
}
