//! Timing pin for the pipeline's dependency tracking: the guest below
//! exercises every way a register dependency can be resolved, and the
//! test asserts the full `PipelineStats` and the final registers. The
//! values were recorded on the ROB-scanning implementation this
//! pipeline's producer table replaced; any change to when an instruction
//! may issue moves a counter.

use rse_isa::asm::assemble;
use rse_isa::Reg;
use rse_mem::{MemConfig, MemorySystem};
use rse_pipeline::{
    Golden, GoldenEvent, NullCoProcessor, Pipeline, PipelineConfig, PipelineStats, StepEvent,
};

/// Three rounds of:
/// 1. a consumer (`add r12`) that waits on a cold load while its other
///    producer (`div r10`) commits;
/// 2. a branch that mispredicts every round (taken on even rounds, not
///    taken on odd ones), so a squash removes the youngest writer of
///    `r13` (`addi r13`, wrong path on even rounds) and the correct-path
///    reader at `skip` must wait on the older `div r13` instead;
/// 3. a syscall, whose commit flushes the pipeline, followed by
///    instructions that read its result and older registers;
/// 4. twelve memory operations back to back, more than the 8-entry LSQ
///    holds;
/// 5. `r0` sources in an ALU op and a store.
const GUEST: &str = r#"
main:   la   r28, buf
        li   r8, 7
        li   r9, 3
        li   r20, 0
        li   r21, 3
        li   r22, 0x00200000
outer:  div  r10, r8, r9
        lw   r11, 0(r22)
        add  r12, r11, r10
        div  r13, r8, r9
        andi r23, r20, 1
        beq  r23, r0, skip
        addi r13, r0, 99
skip:   add  r14, r13, r8
        li   r2, 1
        syscall
        add  r15, r2, r14
        addi r16, r15, 1
        sw   r14, 4(r28)
        sw   r15, 8(r28)
        sw   r16, 12(r28)
        sh   r12, 16(r28)
        sb   r13, 20(r28)
        sw   r20, 24(r28)
        lw   r17, 4(r28)
        lw   r18, 8(r28)
        lh   r19, 16(r28)
        lbu  r24, 20(r28)
        lw   r25, 24(r28)
        sw   r0, 28(r28)
        add  r26, r0, r17
        add  r27, r26, r25
        addi r20, r20, 1
        addi r22, r22, 4096
        bne  r20, r21, outer
        halt
        .data
buf:    .space 64
"#;

/// Runs the guest, answering each syscall with `1000 + n` in `v0` for
/// the n-th syscall.
fn run_guest() -> Pipeline {
    let image = assemble(GUEST).expect("assembles");
    let mut cpu = Pipeline::new(
        PipelineConfig::default(),
        MemorySystem::new(MemConfig::baseline()),
    );
    cpu.load_image(&image);
    let mut syscalls = 0;
    loop {
        match cpu.run(&mut NullCoProcessor, 1_000_000) {
            StepEvent::Halted => return cpu,
            StepEvent::Syscall => {
                cpu.set_reg(Reg::V0, 1000 + syscalls);
                syscalls += 1;
                cpu.resume(None);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}

#[test]
fn dependency_paths_keep_their_timing() {
    let cpu = run_guest();
    assert_eq!(
        cpu.stats(),
        PipelineStats {
            cycles: 312,
            committed: 94,
            committed_injected_chk: 0,
            fetched: 163,
            dispatched: 117,
            squashed: 23,
            control_flow_committed: 6,
            mispredicts: 5,
            commit_stall_cycles: 0,
            check_flushes: 0,
            chk_injected: 0,
            loads_committed: 18,
            stores_committed: 21,
            syscalls: 3,
            soft_faults_applied: 0,
            nop_commits: 0,
        }
    );
    let mut regs = [0u32; 32];
    for (r, v) in [
        (2, 1002),
        (8, 7),
        (9, 3),
        (10, 2),
        (12, 2),
        (13, 2),
        (14, 9),
        (15, 1011),
        (16, 1012),
        (17, 9),
        (18, 1011),
        (19, 2),
        (20, 3),
        (21, 3),
        (22, 0x0020_3000),
        (24, 2),
        (25, 2),
        (26, 9),
        (27, 11),
        (28, 0x1000_0000),
        (29, 0x7FFF_EFF0),
    ] {
        regs[r] = v;
    }
    assert_eq!(*cpu.regs(), regs);
}

#[test]
fn dependency_guest_matches_golden() {
    let image = assemble(GUEST).expect("assembles");
    let mut golden = Golden::new(&image);
    let mut syscalls = 0;
    loop {
        match golden.run(1_000_000) {
            GoldenEvent::Halted => break,
            GoldenEvent::Syscall => {
                golden.set_reg(Reg::V0, 1000 + syscalls);
                syscalls += 1;
                golden.resume(None);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(*run_guest().regs(), golden.regs);
}
