//! # rse-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5).
//! One binary per artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table4_framework` | Table 4 — framework / framework+ICM overhead and the CHECK I-cache study |
//! | `table5_mlr` | Table 5 — TRR (software) vs RSE (hardware) GOT/PLT randomization |
//! | `fig9_ddt` | Figure 9 — server runtime with/without DDT and saved pages vs thread count |
//! | `table2_selfcheck` | Table 2 — self-checking fault-injection campaign |
//! | `table6_ahbm` | AHBM adaptive-timeout evaluation (extension; the paper omits it for space) |
//! | `ablations` | design-choice ablations (ICM cache size, DDT page-save cost, arbiter priority) |
//!
//! Run with `cargo run --release -p rse-bench --bin <name>`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rse_core::{Engine, RseConfig};
use rse_isa::asm::assemble;
use rse_isa::{Image, ModuleId};
use rse_mem::{MemConfig, MemStats, MemorySystem};
use rse_modules::icm::{Icm, IcmConfig};
use rse_pipeline::{CheckPolicy, Pipeline, PipelineConfig, PipelineStats};
use rse_sys::{Os, OsConfig, OsExit};
use std::process::ExitCode;

/// Everything measured from one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimResult {
    /// Pipeline counters.
    pub pipeline: PipelineStats,
    /// Memory-system counters.
    pub mem: MemStats,
}

impl SimResult {
    /// Cycles in millions (the unit Table 4 reports).
    pub fn mcycles(&self) -> f64 {
        self.pipeline.cycles as f64 / 1e6
    }

    /// Percentage overhead of `self` relative to `baseline` in cycles.
    pub fn overhead_pct(&self, baseline: &SimResult) -> f64 {
        100.0 * (self.pipeline.cycles as f64 / baseline.pipeline.cycles as f64 - 1.0)
    }
}

/// The three Table 4 machine configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineConfig {
    /// No framework attached; baseline memory latencies.
    Baseline,
    /// Framework attached (arbiter in the memory path) but no modules.
    Framework,
    /// Framework plus the ICM checking all control-flow instructions.
    FrameworkIcm,
}

/// Runs `image` (a single-threaded workload using only OS-proxied
/// syscalls) under the given machine configuration.
///
/// # Panics
///
/// Panics if the program does not run to completion.
pub fn run_workload(image: &Image, machine: MachineConfig, max_cycles: u64) -> SimResult {
    let (mem_config, pipe_config) = match machine {
        MachineConfig::Baseline => (MemConfig::baseline(), PipelineConfig::default()),
        MachineConfig::Framework => (MemConfig::with_framework(), PipelineConfig::default()),
        MachineConfig::FrameworkIcm => (
            MemConfig::with_framework(),
            PipelineConfig {
                check_policy: CheckPolicy::ControlFlow,
                ..PipelineConfig::default()
            },
        ),
    };
    let mut cpu = Pipeline::new(pipe_config, MemorySystem::new(mem_config));
    rse_sys::loader::load_process(&mut cpu, image);
    let mut engine = Engine::new(RseConfig::default());
    if machine == MachineConfig::FrameworkIcm {
        let mut icm = Icm::new(IcmConfig::default());
        icm.install_for_control_flow(image, &mut cpu.mem_mut().memory);
        engine.install(Box::new(icm));
        engine.enable(ModuleId::ICM);
    }
    let mut os = Os::new(OsConfig::default());
    let exit = os.run(&mut cpu, &mut engine, max_cycles);
    assert_eq!(exit, OsExit::Exited { code: 0 }, "workload did not finish");
    SimResult {
        pipeline: cpu.stats(),
        mem: cpu.mem().stats(),
    }
}

/// Assembles source, panicking with a useful message on failure.
pub fn assemble_or_die(source: &str) -> Image {
    match assemble(source) {
        Ok(image) => image,
        Err(e) => panic!("workload failed to assemble: {e}"),
    }
}

/// Writes `contents` to `path` crash-safely: the bytes land in
/// `<path>.tmp` first and are atomically renamed over `path`, so an
/// interrupted or killed run never leaves a truncated artifact where a
/// complete one is expected (CI diffs JSONL artifacts byte-for-byte).
///
/// A `path` that exists but is not a regular file (a device such as
/// `/dev/null`, a symlink, a FIFO) is written in place instead: a
/// rename would replace the node itself with a plain file.
fn write_atomic(path: &str, contents: &[u8]) -> std::io::Result<()> {
    if std::fs::symlink_metadata(path).is_ok_and(|m| !m.file_type().is_file()) {
        return std::fs::write(path, contents);
    }
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Writes a campaign binary's report: crash-safely to `out` when given,
/// to stdout otherwise. `bin` prefixes the stderr notes and `what` names
/// the contents in the "wrote" note. A failed write is reported and
/// returned as the exit code to stop with.
pub fn write_out(bin: &str, out: Option<&str>, report: &str, what: &str) -> Result<(), ExitCode> {
    let Some(path) = out else {
        print!("{report}");
        return Ok(());
    };
    // Crash-safe: a killed run never leaves a truncated report.
    if let Err(e) = write_atomic(path, report.as_bytes()) {
        eprintln!("{bin}: cannot write {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    eprintln!("{bin}: wrote {what} to {path}");
    Ok(())
}

/// Parses the value following `flag`, naming the flag (and the bad
/// value) in the error instead of panicking or printing bare usage.
/// Shared by the campaign binaries so all report identical diagnostics.
pub fn numeric<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} expects a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: '{v}' is not a valid unsigned integer"))
}

/// Parses a count flag's value like [`numeric`], rejecting zero: a run
/// or trial count of zero would let a self-check pass after checking
/// nothing.
pub fn count(flag: &str, v: Option<String>) -> Result<u32, String> {
    match numeric(flag, v)? {
        0 => Err(format!("{flag}: must be at least 1, got 0")),
        n => Ok(n),
    }
}

/// Parses a `--seed` value: decimal, or hexadecimal with a `0x`/`0X`
/// prefix (the form the binaries print their base seed in). A malformed
/// value (`0x`, `0xZZ`, out of range) gets the same named error as
/// [`numeric`].
pub fn seed(flag: &str, v: Option<String>) -> Result<u64, String> {
    let v = v.ok_or_else(|| format!("{flag} expects a value"))?;
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) if !hex.starts_with('+') => u64::from_str_radix(hex, 16).ok(),
        Some(_) => None,
        None => v.parse().ok(),
    };
    parsed.ok_or_else(|| format!("{flag}: '{v}' is not a valid unsigned integer"))
}

/// Edit (Levenshtein) distance between two ASCII-ish strings; used to
/// suggest the nearest valid model name on a typo.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The candidate closest to `input` by edit distance, provided it is
/// close enough to plausibly be a typo (distance at most half the
/// input's length, and never more than 4). Ties go to the earliest
/// candidate, so the suggestion is stable across runs.
pub fn suggest<'a>(input: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let mut best: Option<(usize, &str)> = None;
    for c in candidates {
        let d = edit_distance(input, c);
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, c));
        }
    }
    let (d, name) = best?;
    let budget = (input.chars().count() / 2).clamp(1, 4);
    (d <= budget).then_some(name)
}

/// The error for a `--model` name outside this binary's catalog `names`.
/// When the name is in `other` — another binary's catalog, with a hint
/// saying what the name is there and which binary takes it — the error
/// points there; otherwise it suggests the nearest name.
pub fn unknown_model<'a>(
    name: &str,
    names: impl IntoIterator<Item = &'a str>,
    other: Option<(&[&str], &str)>,
) -> String {
    match other {
        Some((others, hint)) if others.contains(&name) => format!("'{name}' is {hint}"),
        _ => match suggest(name, names) {
            Some(s) => format!("unknown model '{name}' (did you mean '{s}'? see --list-models)"),
            None => format!("unknown model '{name}' (see --list-models)"),
        },
    }
}

/// Formats a row of a fixed-width table.
pub fn row(cells: &[&str], widths: &[usize]) -> String {
    let mut out = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{cell:>w$}  ", w = *w));
    }
    out.trim_end().to_string()
}

/// Prints a header with a rule underneath.
pub fn header(title: &str) {
    println!("\n{title}");
    println!("{}", "=".repeat(title.len()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_workloads::kmeans::{source, KmeansParams};

    #[test]
    #[cfg(unix)]
    fn write_atomic_writes_through_a_symlink_instead_of_replacing_it() {
        let dir = std::env::temp_dir().join(format!("rse-write-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("target.jsonl");
        let link = dir.join("link.jsonl");
        std::fs::write(&target, b"old").unwrap();
        let _ = std::fs::remove_file(&link);
        std::os::unix::fs::symlink(&target, &link).unwrap();
        write_atomic(link.to_str().unwrap(), b"new").unwrap();
        let still_link = std::fs::symlink_metadata(&link)
            .unwrap()
            .file_type()
            .is_symlink();
        let written = std::fs::read(&target).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(still_link, "the symlink was replaced by a regular file");
        assert_eq!(written, b"new");
    }

    #[test]
    fn framework_costs_more_than_baseline() {
        let p = KmeansParams {
            patterns: 24,
            dims: 4,
            clusters: 4,
            iters: 1,
            seed: 3,
        };
        let image = assemble_or_die(&source(&p));
        let base = run_workload(&image, MachineConfig::Baseline, 100_000_000);
        let fw = run_workload(&image, MachineConfig::Framework, 100_000_000);
        let icm = run_workload(&image, MachineConfig::FrameworkIcm, 100_000_000);
        assert!(fw.pipeline.cycles > base.pipeline.cycles);
        assert!(icm.pipeline.cycles > fw.pipeline.cycles);
        // Same program instructions commit in all three configurations.
        assert_eq!(
            base.pipeline.committed_program(),
            fw.pipeline.committed_program()
        );
        assert_eq!(
            fw.pipeline.committed_program(),
            icm.pipeline.committed_program()
        );
    }

    #[test]
    fn row_formatting() {
        assert_eq!(row(&["a", "bb"], &[3, 4]), "  a    bb");
    }

    #[test]
    fn suggest_finds_the_nearest_plausible_name() {
        let models = ["node-crash", "node-hang", "partition", "hb-loss-burst"];
        assert_eq!(suggest("node-crsh", models), Some("node-crash"));
        assert_eq!(suggest("partitoin", models), Some("partition"));
        assert_eq!(suggest("hb-loss", models), None); // 6 edits: too far
        assert_eq!(suggest("zzzzz", models), None);
        assert_eq!(suggest("x", []), None);
    }

    #[test]
    fn numeric_names_the_offending_flag() {
        assert_eq!(numeric::<u64>("--seed", Some("7".into())), Ok(7));
        assert_eq!(
            numeric::<u64>("--seed", None),
            Err("--seed expects a value".into())
        );
        assert_eq!(
            numeric::<u32>("--runs", Some("x".into())),
            Err("--runs: 'x' is not a valid unsigned integer".into())
        );
    }

    #[test]
    fn count_rejects_zero_by_flag_name() {
        assert_eq!(count("--runs", Some("3".into())), Ok(3));
        assert_eq!(
            count("--runs", Some("0".into())),
            Err("--runs: must be at least 1, got 0".into())
        );
        assert_eq!(
            count("--trials", Some("0".into())),
            Err("--trials: must be at least 1, got 0".into())
        );
        assert_eq!(
            count("--trials", Some("-1".into())),
            Err("--trials: '-1' is not a valid unsigned integer".into())
        );
        assert_eq!(count("--runs", None), Err("--runs expects a value".into()));
    }

    #[test]
    fn unknown_model_suggests_or_points_elsewhere() {
        let ours = ["reg-single", "mem-data"];
        let theirs: &[&str] = &["stack-smash"];
        let hint = "an attack model (run `attack_campaign`)";
        assert_eq!(
            unknown_model("reg-singel", ours, Some((theirs, hint))),
            "unknown model 'reg-singel' (did you mean 'reg-single'? see --list-models)"
        );
        assert_eq!(
            unknown_model("stack-smash", ours, Some((theirs, hint))),
            "'stack-smash' is an attack model (run `attack_campaign`)"
        );
        assert_eq!(
            unknown_model("zzzzzz", ours, None),
            "unknown model 'zzzzzz' (see --list-models)"
        );
    }

    #[test]
    fn seed_accepts_decimal_and_prefixed_hex() {
        assert_eq!(seed("--seed", Some("3419".into())), Ok(0xD5B));
        assert_eq!(seed("--seed", Some("0xD5B".into())), Ok(0xD5B));
        assert_eq!(seed("--seed", Some("0Xd5b".into())), Ok(0xD5B));
        assert_eq!(
            seed("--seed", Some("0x4E1D0C4700000000".into())),
            Ok(0x4E1D_0C47_0000_0000)
        );
        assert_eq!(
            seed("--seed", Some("0xFFFFFFFFFFFFFFFF".into())),
            Ok(u64::MAX)
        );
        assert_eq!(seed("--seed", None), Err("--seed expects a value".into()));
    }

    #[test]
    fn seed_names_the_flag_on_malformed_hex() {
        for bad in [
            "0x",
            "0xZZ",
            "0x10000000000000000",
            "0x+5",
            "0x-5",
            "x5",
            "18446744073709551616",
        ] {
            assert_eq!(
                seed("--seed", Some(bad.into())),
                Err(format!("--seed: '{bad}' is not a valid unsigned integer"))
            );
        }
    }
}
