//! `simrun`'s exit status, flag errors and guest output, driven through
//! the built binary: a failing guest never exits 0, a malformed flag
//! value is named on stderr, and a module's memory writes are visible to
//! the guest instructions that follow its CHECK.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes `source` to a program file unique to this test process.
fn program(name: &str, source: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("simrun_cli_{}_{name}.asm", std::process::id()));
    std::fs::write(&path, source).expect("temp program written");
    path
}

fn simrun(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simrun"))
        .args(args)
        .output()
        .expect("simrun runs")
}

/// A guest that exits with `code` through the EXIT syscall.
fn exit_with(code: u32) -> Output {
    let path = program(
        &format!("exit{code}"),
        &format!("main: li r4, {code}\nli r2, 1\nsyscall\n"),
    );
    let out = simrun(&[path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    out
}

#[test]
fn guest_exit_codes_past_127_never_exit_zero() {
    let out = exit_with(128);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("guest exited with code 128"), "{stderr}");
    assert_eq!(out.status.code(), Some(1));
    // Codes 1-127 pass through unchanged.
    assert_eq!(exit_with(7).status.code(), Some(7));
}

#[test]
fn malformed_flag_values_name_the_flag() {
    let path = program("halt", "main: halt\n");
    let path = path.to_str().unwrap();
    for (flag, value) in [
        ("--requests", "x"),
        ("--max-cycles", "x"),
        ("--fault", "3:zz"),
    ] {
        let out = simrun(&[path, flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("simrun: {flag}: '{value}'")),
            "{flag} {value}: {stderr}"
        );
        assert!(stderr.contains("usage: simrun"), "{stderr}");
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
    }
    assert_eq!(simrun(&[path]).status.code(), Some(0));
    std::fs::remove_file(path).ok();
}

/// Runs `source` under `simrun` with `flag` and returns its stdout.
fn guest_stdout(name: &str, source: &str, flag: &str) -> String {
    let path = program(name, source);
    let out = simrun(&[path.to_str().unwrap(), flag]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn load_after_blocking_ddt_retrieval_reads_the_retrieved_word() {
    // A blocking DDT_RETRIEVE drains dispatch, so the load right after
    // it reads the buffer only once the module's store has landed: the
    // serialized DDM's first word, N = 64, both times.
    let stdout = guest_stdout(
        "ddt_retrieve",
        r#"
        main:   la   r4, outbuf
                chk  ddt, blk, 4, 0
                lw   r4, 0(r4)
                li   r2, 2
                syscall
                nop
                nop
                nop
                nop
                la   r4, outbuf
                lw   r4, 0(r4)
                li   r2, 2
                syscall
                halt
                .data
                .align 4
        outbuf: .space 1024
        "#,
        "--ddt",
    );
    assert_eq!(stdout, "64\n64\n");
}

#[test]
fn wrong_path_mlr_got_new_leaves_the_latched_address() {
    // The cold predictor says the always-taken `beq` is not taken, and
    // `.align 32` puts it and the CHECK after it in one I-cache line, so
    // that CHECK (MLR_GOT_NEW with a0 = 0) dispatches on the wrong path.
    // It never reaches the MLR: the copy lands at `newgot`, not at 0.
    let stdout = guest_stdout(
        "mlr_wrong_path",
        r#"
        main:   la   r4, oldgot
                li   r5, 8
                chk  mlr, blk, 4, 0
                la   r4, newgot
                chk  mlr, blk, 5, 0
                .align 32
                beq  r0, r0, skip
                chk  mlr, blk, 5, 0
        skip:   chk  mlr, blk, 6, 0
                la   r8, newgot
                lw   r4, 0(r8)
                li   r2, 2
                syscall
                li   r8, 0
                lw   r4, 0(r8)
                li   r2, 2
                syscall
                halt
                .data
                .align 4
        oldgot: .word 0x1111, 0x2222
        newgot: .word 0, 0
        "#,
        "--mlr",
    );
    assert_eq!(stdout, "4369\n0\n");
}

#[test]
fn wrong_path_ddt_retrieval_writes_nothing() {
    // The loop exit mispredicts, so the blocking DDT_RETRIEVE after it
    // dispatches on the wrong path too, with a0 = 0. It never reaches
    // the DDT: nothing is written at address 0.
    let stdout = guest_stdout(
        "ddt_wrong_path",
        r#"
        main:   li   r9, 6
                la   r4, outbuf
        loop:   addi r8, r8, 1
                bne  r8, r9, loop
                chk  ddt, blk, 4, 0
                li   r8, 0
                lw   r4, 0(r8)
                li   r2, 2
                syscall
                halt
                .data
                .align 4
        outbuf: .space 1024
        "#,
        "--ddt",
    );
    assert_eq!(stdout, "0\n");
}
