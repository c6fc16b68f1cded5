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
use rse_core::{Engine, RseConfig};
use rse_isa::asm::assemble;
use rse_isa::{disasm, ModuleId};
use rse_mem::{MemConfig, MemorySystem};
use rse_modules::ahbm::{Ahbm, AhbmConfig};
use rse_modules::ddt::{Ddt, DdtConfig};
use rse_modules::icm::{Icm, IcmConfig};
use rse_modules::mlr::{Mlr, MlrConfig};
use rse_pipeline::{CheckPolicy, FetchFault, Pipeline, PipelineConfig};
use rse_sys::{Os, OsConfig, OsExit};
use std::process::ExitCode;

struct Options {
    path: String,
    framework: bool,
    icm: bool,
    mlr: bool,
    ddt: bool,
    ahbm: bool,
    check_control_flow: bool,
    requests: u64,
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
        framework: false,
        icm: false,
        mlr: false,
        ddt: false,
        ahbm: false,
        check_control_flow: false,
        requests: 0,
        max_cycles: 2_000_000_000,
        fault: None,
        show_disasm: false,
        show_stats: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--framework" => opts.framework = true,
            "--icm" => opts.icm = true,
            "--mlr" => opts.mlr = true,
            "--ddt" => opts.ddt = true,
            "--ahbm" => opts.ahbm = true,
            "--check-control-flow" => opts.check_control_flow = true,
            "--disasm" => opts.show_disasm = true,
            "--stats" => opts.show_stats = true,
            "--requests" => opts.requests = numeric("--requests", args.next())?,
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

    let any_module = opts.icm || opts.mlr || opts.ddt || opts.ahbm;
    let with_framework = opts.framework || any_module || opts.check_control_flow;
    let mem = if with_framework {
        MemConfig::with_framework()
    } else {
        MemConfig::baseline()
    };
    let mut pipe = PipelineConfig::default();
    if opts.check_control_flow {
        pipe.check_policy = CheckPolicy::ControlFlow;
    }
    if opts.mlr {
        pipe.chk_serialize_mask |= 1 << ModuleId::MLR.number();
    }
    let mut cpu = Pipeline::new(pipe, MemorySystem::new(mem));
    rse_sys::loader::load_process(&mut cpu, &image);
    cpu.set_fetch_fault(opts.fault);

    let mut engine = Engine::new(RseConfig::default());
    if opts.icm {
        let mut icm = Icm::new(IcmConfig::default());
        icm.install_for_control_flow(&image, &mut cpu.mem_mut().memory);
        engine.install(Box::new(icm));
        engine.enable(ModuleId::ICM);
    }
    if opts.mlr {
        engine.install(Box::new(Mlr::new(MlrConfig::default())));
        engine.enable(ModuleId::MLR);
    }
    if opts.ddt {
        let mut ddt = Ddt::new(DdtConfig::default());
        ddt.set_current_thread(0);
        engine.install(Box::new(ddt));
        engine.enable(ModuleId::DDT);
    }
    if opts.ahbm {
        engine.install(Box::new(Ahbm::new(AhbmConfig::default())));
        engine.enable(ModuleId::AHBM);
    }

    let mut os = Os::new(OsConfig {
        num_requests: opts.requests,
        ..OsConfig::default()
    });
    let exit = os.run(&mut cpu, &mut engine, opts.max_cycles);

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
        if opts.ddt {
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
