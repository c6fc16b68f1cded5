//! `simrun`'s exit status and flag errors, driven through the built
//! binary: a failing guest never exits 0, and a malformed flag value is
//! named on stderr.

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
