//! Thread-crash recovery with the Data Dependency Tracker — the paper's
//! headline DDT scenario (§4.2, Figure 8): a malicious thread corrupts a
//! shared page and crashes; with the DDT, only the threads that consumed
//! its data are terminated, the corrupted page is rolled back from the
//! SavePage checkpoint, and the healthy thread finishes its work. Without
//! the DDT, the kill-all policy destroys the whole process.
//!
//! ```text
//! cargo run --example ddt_server_recovery
//! ```

use rse::isa::asm::assemble;
use rse::modules::ddt::DdtConfig;
use rse::sys::{Machine, MachineSpec, ModuleSpec, Os, OsConfig, OsExit, ThreadState};

/// Threads (spawn order): 0 = main, 1 = worker (healthy, independent),
/// 2 = consumer (reads the attacker's data), 3 = attacker.
///
/// Event ordering is enforced with flag pages: `flag1` (consumer-owned)
/// and `flag2`/`flag3` handshakes. The dependency chain that matters:
/// the consumer reads `shared` after the attacker wrote it.
const SRC: &str = r#"
    main:   li   r2, 16            # spawn worker
            la   r4, worker
            li   r5, 0
            syscall
            li   r2, 16            # spawn consumer
            la   r4, consumer
            li   r5, 0
            syscall
            li   r2, 16            # spawn attacker
            la   r4, attacker
            li   r5, 0
            syscall
    wait:   la   t0, done
            lw   t1, 0(t0)
            li   t2, 1
            beq  t1, t2, fin
            li   r2, 18            # YIELD
            syscall
            b    wait
    fin:    la   t0, shared        # inspect the (rolled-back) shared page
            lw   r4, 0(t0)
            li   r2, 2             # print shared[0]
            syscall
            la   t0, unitsbuf
            lw   r4, 0(t0)
            li   r2, 2             # print healthy worker's result
            syscall
            halt

    # Healthy worker: 20 units of private work, then reports.
    worker: li   s0, 20
            li   s1, 0
    wkl:    addi s1, s1, 1
            li   r2, 18            # YIELD (interleave with the others)
            syscall
            addi s0, s0, -1
            bne  s0, r0, wkl
            la   t0, unitsbuf
            sw   s1, 0(t0)
            la   t0, done
            li   t1, 1
            sw   t1, 0(t0)
            li   r2, 17            # THREAD_EXIT
            syscall

    # Consumer: legitimately owns the shared page, then consumes the
    # attacker's update (becoming dependent on it).
    consumer:
            la   s0, shared
            li   t0, 42
            sw   t0, 0(s0)         # consumer owns the page (clean state)
            la   t0, flag1
            li   t1, 1
            sw   t1, 0(t0)         # signal the attacker
    cwait:  la   t0, flag2
            lw   t1, 0(t0)
            bne  t1, r0, cread
            li   r2, 18
            syscall
            b    cwait
    cread:  lw   s1, 0(s0)         # reads the attacker's 666 -> dependent
            la   t0, flag3
            li   t1, 1
            sw   t1, 0(t0)
    cspin:  li   r2, 18            # loop forever (until terminated)
            syscall
            b    cspin

    # Attacker: waits for the page to be owned, corrupts it, crashes.
    attacker:
    await:  la   t0, flag1
            lw   t1, 0(t0)
            bne  t1, r0, astrike
            li   r2, 18
            syscall
            b    await
    astrike:
            la   t0, shared
            li   t1, 666
            sw   t1, 0(t0)         # corrupting write -> SavePage
            la   t0, flag2
            li   t1, 1
            sw   t1, 0(t0)
    await3: la   t0, flag3
            lw   t1, 0(t0)
            bne  t1, r0, acrash
            li   r2, 18
            syscall
            b    await3
    acrash: li   r2, 50            # CRASH (the MLR turned the attack
            syscall                # into a crash)

            .data
            .align 4
    shared:   .space 4096
    flag1:    .space 4096
    flag2:    .space 4096
    flag3:    .space 4096
    done:     .space 4096
    unitsbuf: .space 4096
"#;

/// Exit status, per-thread results, and (when DDT is armed) the
/// `(terminated threads, recovered units)` pair, plus the final OS.
type RunResult = (OsExit, Vec<i32>, Option<(Vec<usize>, Vec<u32>)>, Os);

fn run(with_ddt: bool) -> RunResult {
    let image = assemble(SRC).expect("assembles");
    let modules = if with_ddt {
        vec![ModuleSpec::Ddt(DdtConfig::default())]
    } else {
        Vec::new()
    };
    let spec = MachineSpec {
        modules,
        os: Some(OsConfig::default()),
        ..MachineSpec::default()
    };
    let mut m = Machine::build(&image, spec);
    let exit = m.run(100_000_000);
    let os = m.os.expect("the server runs under the guest OS");
    let recovery = os
        .last_recovery
        .as_ref()
        .map(|r| (r.terminated.clone(), r.pages_restored.clone()));
    let output = os.output.clone();
    (exit, output, recovery, os)
}

fn main() {
    println!("--- without DDT: the kill-all policy ---");
    let (exit, _, _, _) = run(false);
    println!("outcome: {exit:?}\n");
    assert!(matches!(exit, OsExit::ProcessKilled { .. }));

    println!("--- with DDT: dependency-aware recovery ---");
    let (exit, output, recovery, os) = run(true);
    println!("outcome: {exit:?}");
    let (terminated, restored) = recovery.expect("a recovery happened");
    println!("threads terminated by recovery: {terminated:?} (attacker=3, consumer=2)");
    println!("pages rolled back: {}", restored.len());
    println!(
        "shared[0] after rollback: {} (42 = the pre-attack value)",
        output[0]
    );
    println!("healthy worker completed units: {}", output[1]);
    assert_eq!(exit, OsExit::Exited { code: 0 });
    assert_eq!(terminated, vec![2, 3]);
    assert_eq!(output, vec![42, 20]);
    assert_eq!(os.thread_state(1), Some(ThreadState::Done));
    assert_eq!(os.thread_state(2), Some(ThreadState::Crashed));
    println!("\nThe healthy thread survived the attack; the consumers of tainted");
    println!("data were terminated and the corrupted page was restored — no");
    println!("process restart required.");
}
