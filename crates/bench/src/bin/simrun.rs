//! `simrun` — run a guest assembly program on the simulated processor,
//! optionally with the RSE framework and any subset of its modules.
//!
//! ```text
//! cargo run --release -p rse-bench --bin simrun -- program.asm \
//!     [--framework] [--icm] [--mlr] [--ddt] [--ahbm] \
//!     [--check-control-flow] [--requests N] [--max-cycles N] \
//!     [--fault INDEX:XORMASK] [--disasm] [--stats]
//! ```
//!
//! The program runs under the guest OS (`rse-sys`), so it may use every
//! syscall in `rse_isa::syscalls` (threads, locks, the network-request
//! source, printing). Exit status mirrors the guest outcome: a guest
//! exit code of 1–127 is passed through, any other nonzero code exits 1,
//! and a malformed flag value is named on stderr and exits 2.

use rse_bench::numeric;
use rse_isa::asm::assemble;
use rse_isa::{disasm, ModuleId};
use rse_modules::ahbm::AhbmConfig;
use rse_modules::ddt::DdtConfig;
use rse_modules::icm::IcmConfig;
use rse_modules::mlr::MlrConfig;
use rse_pipeline::{CheckPolicy, FetchFault};
use rse_sys::{Machine, MachineSpec, ModuleSpec, OsConfig, OsExit};
use std::process::ExitCode;

struct Options {
    path: String,
    spec: MachineSpec,
    max_cycles: u64,
    fault: Option<FetchFault>,
    show_disasm: bool,
    show_stats: bool,
}

const USAGE: &str = "usage: simrun <program.asm> [--framework] [--icm] [--mlr] [--ddt] [--ahbm]
              [--check-control-flow] [--requests N] [--max-cycles N]
              [--fault INDEX:XORMASK] [--disasm] [--stats]";

/// Parses `--fault INDEX:XORMASK` (decimal index, hex mask with an
/// optional `0x`).
fn fault(v: Option<String>) -> Result<FetchFault, String> {
    let v = v.ok_or("--fault expects INDEX:XORMASK")?;
    v.split_once(':')
        .and_then(|(idx, mask)| {
            let xor_mask = u32::from_str_radix(mask.trim_start_matches("0x"), 16).ok()?;
            Some(FetchFault::xor(idx.parse().ok()?, xor_mask))
        })
        .ok_or_else(|| format!("--fault: '{v}' is not INDEX:XORMASK (decimal index, hex mask)"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        path: String::new(),
        spec: MachineSpec {
            framework: false,
            os: Some(OsConfig::default()),
            ..MachineSpec::default()
        },
        max_cycles: 2_000_000_000,
        fault: None,
        show_disasm: false,
        show_stats: false,
    };
    let spec = &mut opts.spec;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--framework" => spec.framework = true,
            "--icm" => spec.modules.push(ModuleSpec::Icm(IcmConfig::default())),
            "--mlr" => spec.modules.push(ModuleSpec::Mlr(MlrConfig::default())),
            "--ddt" => spec.modules.push(ModuleSpec::Ddt(DdtConfig::default())),
            "--ahbm" => spec.modules.push(ModuleSpec::Ahbm(AhbmConfig::default())),
            "--check-control-flow" => spec.check_policy = CheckPolicy::ControlFlow,
            "--disasm" => opts.show_disasm = true,
            "--stats" => opts.show_stats = true,
            "--requests" => {
                spec.os = Some(OsConfig {
                    num_requests: numeric("--requests", args.next())?,
                    ..OsConfig::default()
                })
            }
            "--max-cycles" => opts.max_cycles = numeric("--max-cycles", args.next())?,
            "--fault" => opts.fault = Some(fault(args.next())?),
            "--help" | "-h" => return Err(String::new()),
            path if !path.starts_with('-') && opts.path.is_empty() => opts.path = path.into(),
            _ => return Err(format!("unexpected argument '{arg}'")),
        }
    }
    if opts.path.is_empty() {
        return Err(String::new());
    }
    // A module or CHECK insertion needs the framework attached.
    spec.framework |= !spec.modules.is_empty() || spec.check_policy == CheckPolicy::ControlFlow;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("simrun: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let source = match std::fs::read_to_string(&opts.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simrun: cannot read {}: {e}", opts.path);
            return ExitCode::from(2);
        }
    };
    let image = match assemble(&source) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("simrun: {}: {e}", opts.path);
            return ExitCode::from(2);
        }
    };
    if opts.show_disasm {
        print!("{}", disasm::disassemble(&image.text, image.text_base));
    }

    let mut machine = Machine::build(&image, opts.spec);
    machine.cpu.set_fetch_fault(opts.fault);
    let exit = machine.run(opts.max_cycles);
    let Machine { cpu, engine, os } = &machine;
    let os = os.as_ref().expect("simrun runs its guest under the OS");

    for line in &os.strings {
        println!("{line}");
    }
    for v in &os.output {
        println!("{v}");
    }
    if opts.show_stats {
        let s = cpu.stats();
        let m = cpu.mem().stats();
        eprintln!("--- stats ---");
        eprintln!("cycles               {}", s.cycles);
        eprintln!("instructions         {}", s.committed_program());
        eprintln!("ipc                  {:.3}", s.ipc());
        eprintln!("branches committed   {}", s.control_flow_committed);
        eprintln!("mispredict rate      {:.2}%", 100.0 * s.mispredict_rate());
        eprintln!("commit stall cycles  {}", s.commit_stall_cycles);
        eprintln!("check flushes        {}", s.check_flushes);
        eprintln!("il1 {}", m.il1);
        eprintln!("dl1 {}", m.dl1);
        eprintln!("il2 {}", m.il2);
        eprintln!("dl2 {}", m.dl2);
        eprintln!("syscalls             {}", os.stats().syscalls);
        eprintln!("context switches     {}", os.stats().context_switches);
        if engine.module_installed(ModuleId::DDT) {
            eprintln!("pages checkpointed   {}", os.stats().pages_checkpointed);
        }
        if let Some(cause) = engine.safe_mode() {
            eprintln!("SAFE MODE            {cause:?}");
        }
    }
    match exit {
        OsExit::Exited { code: 0 } | OsExit::AllThreadsDone => ExitCode::SUCCESS,
        OsExit::Exited { code } => {
            eprintln!("simrun: guest exited with code {code}");
            // A status byte cannot carry codes past 127 (shells read 128+
            // as signals, and 256 would wrap to success): those exit 1.
            ExitCode::from(u8::try_from(code).ok().filter(|&c| c < 128).unwrap_or(1))
        }
        OsExit::Timeout => {
            eprintln!("simrun: cycle budget exhausted");
            ExitCode::from(3)
        }
        OsExit::ProcessKilled { reason } => {
            eprintln!("simrun: process killed: {reason}");
            ExitCode::from(4)
        }
    }
}
