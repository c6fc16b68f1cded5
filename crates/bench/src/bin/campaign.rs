//! Deterministic soft-error fault-injection campaign runner.
//!
//! Drives the `rse-inject` campaign engine over the workload corpus,
//! writes one JSON record per run (JSON lines), and prints the
//! detection-coverage table on stderr. The whole campaign is a pure
//! function of the base seed: running the same invocation twice yields
//! byte-identical JSONL output.
//!
//! ```text
//! cargo run --release -p rse-bench --bin campaign -- --smoke
//! cargo run --release -p rse-bench --bin campaign -- --control --runs 4
//! cargo run --release -p rse-bench --bin campaign -- --seed 7 --runs 16
//! cargo run --release -p rse-bench --bin campaign -- --smoke --out smoke.jsonl
//! ```
//!
//! Modes (mutually exclusive; default is the full campaign):
//!
//! * `--smoke` — the fixed 64-run CI spec (`CampaignSpec::smoke`),
//! * `--control` — zero-fault control runs of every workload; every
//!   outcome must be `masked` (and every recovery `not-needed`) or the
//!   binary exits non-zero,
//! * `--quarantine` — the module-targeted degraded-mode matrix
//!   (`CampaignSpec::quarantine`): stuck `checkValid` lines, module
//!   state corruption, and MAU response drops against the module-bearing
//!   workloads,
//! * *default* — every applicable (workload, fault-model) pair with
//!   `--runs` runs each.
//!
//! Flags: `--seed <u64>` base seed, decimal or `0x` hex (default
//! 0xD5B), `--runs <n>` runs per cell for `--control`/full (default 8), `--model <name>` restrict
//! the full campaign to one fault model, `--list-models` print the
//! model catalog and exit, `--out <path>` write the JSONL there instead
//! of stdout, `--no-table` suppress the coverage table, `--tiered` run
//! deterministic fault-free segments on the functional tier,
//! `--threads <n>` shard runs across worker threads. Neither execution
//! flag changes a single output byte — CI diffs the tiered and sharded
//! smoke output against the same pinned golden.

use std::process::ExitCode;

use rse_attack::AttackModel;
use rse_bench::{numeric, seed, suggest, write_atomic};
use rse_inject::{
    coverage_table, run_campaign_with, to_jsonl, CampaignOptions, CampaignSpec, FaultModel,
    Histogram,
};

/// Default base seed (arbitrary but fixed; also used by `scripts/ci.sh`).
const DEFAULT_SEED: u64 = 0xD5B;

const USAGE: &str = "usage: campaign [--smoke | --control | --quarantine] [--seed N] [--runs N] \
     [--model NAME] [--list-models] [--out FILE] [--no-table] [--tiered] [--threads N]";

enum Mode {
    Smoke,
    Control,
    Quarantine,
    Full,
}

struct Args {
    mode: Mode,
    seed: u64,
    runs: u32,
    model: Option<FaultModel>,
    list_models: bool,
    out: Option<String>,
    table: bool,
    opts: CampaignOptions,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Full,
        seed: DEFAULT_SEED,
        runs: 8,
        model: None,
        list_models: false,
        out: None,
        table: true,
        opts: CampaignOptions::default(),
    };
    let mut it = argv;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.mode = Mode::Smoke,
            "--control" => args.mode = Mode::Control,
            "--quarantine" => args.mode = Mode::Quarantine,
            "--seed" => args.seed = seed("--seed", it.next())?,
            "--runs" => args.runs = numeric("--runs", it.next())?,
            "--model" => {
                let name = it.next().ok_or("--model expects a model name")?;
                let Some(model) = FaultModel::from_name(&name) else {
                    // An attack-model name here is the most common slip:
                    // point straight at the adversarial binary.
                    if AttackModel::ALL.iter().any(|m| m.name() == name) {
                        return Err(format!(
                            "'{name}' is an attack model, not a fault-injection model \
                             (run the `attack_campaign` binary for adversarial campaigns)"
                        ));
                    }
                    let candidates = FaultModel::ALL.iter().map(|m| m.name());
                    return Err(match suggest(&name, candidates) {
                        Some(s) => format!(
                            "unknown model '{name}' (did you mean '{s}'? see --list-models)"
                        ),
                        None => format!("unknown model '{name}' (see --list-models)"),
                    });
                };
                args.model = Some(model);
            }
            "--list-models" => args.list_models = true,
            "--out" => {
                args.out = Some(it.next().ok_or("--out expects a file path")?);
            }
            "--no-table" => args.table = false,
            "--tiered" => args.opts.tiered = true,
            "--threads" => args.opts.threads = numeric("--threads", it.next())?,
            "--help" | "-h" => return Err(String::new()),
            _ => return Err(format!("unknown flag '{a}'")),
        }
    }
    if args.model.is_some() && !matches!(args.mode, Mode::Full) {
        return Err("--model applies to the full campaign only".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("campaign: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list_models {
        println!("fault models:");
        for m in FaultModel::ALL {
            println!("  {:<18} {}", m.name(), m.describe());
        }
        return ExitCode::SUCCESS;
    }
    let mut spec = match args.mode {
        Mode::Smoke => CampaignSpec::smoke(args.seed),
        Mode::Control => CampaignSpec::control(args.seed, args.runs),
        Mode::Quarantine => CampaignSpec::quarantine(args.seed, args.runs),
        Mode::Full => CampaignSpec::full(args.seed, args.runs),
    };
    if let Some(model) = args.model {
        spec.cells.retain(|c| c.model == model);
        if spec.cells.is_empty() {
            eprintln!(
                "campaign: no workload accepts model '{}' (it may be module-targeted; \
                 try --quarantine)",
                model.name()
            );
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "campaign: {} cells, {} runs, base seed {:#x}",
        spec.cells.len(),
        spec.total_runs(),
        spec.base_seed
    );

    let records = run_campaign_with(&spec, &args.opts);
    let jsonl = to_jsonl(&records);

    match &args.out {
        Some(path) => {
            // Crash-safe: a killed run never leaves a truncated JSONL.
            if let Err(e) = write_atomic(path, jsonl.as_bytes()) {
                eprintln!("campaign: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("campaign: wrote {} records to {path}", records.len());
        }
        None => {
            print!("{jsonl}");
        }
    }

    if args.table {
        eprintln!();
        eprint!("{}", coverage_table(&records));
        let hist = Histogram::from_records(&records);
        eprintln!();
        eprintln!(
            "outcomes: {} total, {} detected, {} confined",
            hist.total(),
            hist.detected(),
            hist.confined()
        );
        for (tag, n) in hist.iter() {
            eprintln!("  {tag:<24} {n}");
        }
    }

    // Control campaigns are a self-check: anything but 100% masked
    // (with no recovery machinery engaged and no fault armed) is a
    // harness bug, so fail loudly (CI runs this).
    if matches!(args.mode, Mode::Control) {
        let clean = records
            .iter()
            .filter(|r| {
                r.outcome.tag() == "masked"
                    && r.recovery.tag() == "not-needed"
                    && r.faults == "none"
            })
            .count();
        if clean != records.len() {
            eprintln!(
                "campaign: control FAILED: {}/{} masked",
                clean,
                records.len()
            );
            return ExitCode::FAILURE;
        }
        eprintln!("campaign: control OK: {clean}/{} masked", records.len());
    }
    ExitCode::SUCCESS
}
