//! Deterministic fleet-scale soak- and churn-campaign runner.
//!
//! Drives the `rse-fleet` simulator over the node-level fault models
//! (crash, early crash, hang, slow node, heartbeat-loss burst,
//! partition), writes one JSON record per run (JSON lines), and prints
//! the outcome-coverage table on stderr. With `--churn` it instead
//! drives the 1,000-node chaos engine over the churn models (rolling
//! restarts, rack partitions, crash storms, cascades) and reports
//! SLO-graded records: availability, failover-latency percentiles,
//! false-suspicion counts, and the split-brain audit. Every campaign is
//! a pure function of the base seed: the same invocation twice yields
//! byte-identical JSONL output (CI replays `--smoke` and `--churn`
//! twice and diffs).
//!
//! ```text
//! cargo run --release -p rse-bench --bin fleet_soak -- --smoke
//! cargo run --release -p rse-bench --bin fleet_soak -- --control --runs 4
//! cargo run --release -p rse-bench --bin fleet_soak -- --seed 7 --nodes 7 --runs 4
//! cargo run --release -p rse-bench --bin fleet_soak -- --churn --out churn.jsonl
//! cargo run --release -p rse-bench --bin fleet_soak -- --churn --model full-weather
//! cargo run --release -p rse-bench --bin fleet_soak -- --list-models
//! ```
//!
//! Modes (mutually exclusive; default is the full sweep):
//!
//! * `--smoke` — the fixed 52-run, 5-node CI spec (`FleetSpec::smoke`),
//! * `--control` — zero-fault fleets only; any failover or false
//!   suspicion exits non-zero (the fleet self-check CI runs),
//! * `--churn` — the chaos engine; default spec is the 1k-node CI smoke
//!   churn campaign, `--model` narrows it to one churn model,
//! * *default* — every node fault model with `--runs` runs each on a
//!   `--nodes`-node fleet (`--model` narrows it to one).
//!
//! Flags: `--seed <u64>` base seed, decimal or `0x` hex (default
//! 0xF1EE7), `--nodes <n>` fleet size (default 5; 1000 under `--churn`), `--runs <n>` runs per
//! cell (default 8; 1 under `--churn`; at least 1), `--model <name>` restrict to
//! one fault/churn model, `--list-models` print the model catalogs and
//! exit, `--out <path>` write the JSONL there (crash-safe tmp+rename)
//! instead of stdout, `--no-table` suppress the summary, `--lockstep`
//! run the soak on the legacy lockstep engine (the equivalence shim:
//! output bytes are identical to the event engine).

use std::process::ExitCode;

use rse_bench::{count, numeric, seed, unknown_model, write_out};
use rse_fleet::{
    churn_to_jsonl, run_churn, run_soak_with, ChurnCell, ChurnModel, ChurnSpec, FleetCell,
    FleetSpec, NodeFaultModel, Scheduler,
};
use rse_inject::{coverage_table, to_jsonl, Histogram};

/// Default base seed (arbitrary but fixed; also used by `scripts/ci.sh`).
const DEFAULT_SEED: u64 = 0xF1EE7;

const USAGE: &str = "usage: fleet_soak [--smoke | --control | --churn] [--seed N] [--nodes N] \
     [--runs N] [--model NAME] [--list-models] [--out FILE] [--no-table] [--lockstep]";

enum Mode {
    Smoke,
    Control,
    Churn,
    Full,
}

struct Args {
    mode: Mode,
    seed: u64,
    nodes: Option<u16>,
    runs: Option<u32>,
    model: Option<String>,
    list_models: bool,
    out: Option<String>,
    table: bool,
    scheduler: Scheduler,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Full,
        seed: DEFAULT_SEED,
        nodes: None,
        runs: None,
        model: None,
        list_models: false,
        out: None,
        table: true,
        scheduler: Scheduler::Event,
    };
    let mut it = argv;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.mode = Mode::Smoke,
            "--control" => args.mode = Mode::Control,
            "--churn" => args.mode = Mode::Churn,
            "--seed" => args.seed = seed("--seed", it.next())?,
            "--nodes" => args.nodes = Some(numeric("--nodes", it.next())?),
            "--runs" => args.runs = Some(count("--runs", it.next())?),
            "--model" => {
                args.model = Some(it.next().ok_or("--model expects a model name")?);
            }
            "--list-models" => args.list_models = true,
            "--out" => {
                args.out = Some(it.next().ok_or("--out expects a file path")?);
            }
            "--no-table" => args.table = false,
            "--lockstep" => args.scheduler = Scheduler::Lockstep,
            "--help" | "-h" => return Err(String::new()),
            _ => return Err(format!("unknown flag '{a}'")),
        }
    }
    if let Some(n) = args.nodes {
        if n < 3 {
            return Err(format!(
                "--nodes: a fleet needs at least 3 nodes for a coordinator election, got {n}"
            ));
        }
    }
    if args.model.is_some() && matches!(args.mode, Mode::Smoke | Mode::Control) {
        return Err("--model applies to the full sweep or --churn, not --smoke/--control".into());
    }
    Ok(args)
}

fn list_models() {
    println!("node fault models (soak):");
    for m in NodeFaultModel::ALL {
        println!("  {:<18} {}", m.name(), m.describe());
    }
    println!("churn models (--churn):");
    for m in ChurnModel::ALL {
        println!("  {:<18} {}", m.name(), m.describe());
    }
}

/// Every model name of *both* catalogs: the unknown-model suggestion
/// draws from both, so a churn name typed without `--churn` still
/// points somewhere useful.
fn model_names() -> impl Iterator<Item = &'static str> {
    NodeFaultModel::ALL
        .map(NodeFaultModel::name)
        .into_iter()
        .chain(ChurnModel::ALL.map(ChurnModel::name))
}

fn run_churn_mode(args: &Args) -> ExitCode {
    let smoke = ChurnSpec::smoke(args.seed);
    let spec = match &args.model {
        None => {
            let mut spec = smoke;
            spec.nodes = args.nodes.unwrap_or(spec.nodes);
            spec.racks = (spec.nodes / 50).clamp(2, spec.nodes);
            spec
        }
        Some(name) => {
            let Some(model) = ChurnModel::from_name(name) else {
                eprintln!("fleet_soak: {}", unknown_model(name, model_names(), None));
                return ExitCode::from(2);
            };
            let nodes = args.nodes.unwrap_or(smoke.nodes);
            ChurnSpec {
                base_seed: args.seed,
                nodes,
                racks: (nodes / 50).clamp(2, nodes),
                duration: smoke.duration,
                cells: vec![ChurnCell {
                    model,
                    runs: args.runs.unwrap_or(1),
                }],
            }
        }
    };
    eprintln!(
        "fleet_soak: churn campaign, {} nodes / {} racks, {} runs, base seed {:#x}",
        spec.nodes,
        spec.racks,
        spec.total_runs(),
        spec.base_seed
    );
    let records = run_churn(&spec);
    let jsonl = churn_to_jsonl(&records);
    let what = format!("{} churn records", records.len());
    if let Err(code) = write_out("fleet_soak", args.out.as_deref(), &jsonl, &what) {
        return code;
    }
    if args.table {
        eprintln!();
        for r in &records {
            eprintln!(
                "  {:<16} avail {:>7.3}% ({} served / {} degraded / {} lost of {}), \
                 {} failovers p50={} p99={}, {} suspicions ({} false), split-brain {}",
                r.model,
                r.availability_ppm as f64 / 10_000.0,
                r.served,
                r.degraded,
                r.lost,
                r.requests,
                r.failovers,
                r.failover_p50,
                r.failover_p99,
                r.suspicions,
                r.false_suspicions,
                r.split_brain,
            );
        }
    }
    if records.iter().any(|r| r.split_brain != 0) {
        eprintln!("fleet_soak: FENCING VIOLATED: split-brain completion observed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("fleet_soak: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list_models {
        list_models();
        return ExitCode::SUCCESS;
    }
    if matches!(args.mode, Mode::Churn) {
        return run_churn_mode(&args);
    }
    let nodes = args.nodes.unwrap_or(5);
    let runs = args.runs.unwrap_or(8);
    let spec = match args.mode {
        Mode::Smoke => FleetSpec::smoke(args.seed),
        Mode::Control => FleetSpec::control(args.seed, runs),
        Mode::Full => match &args.model {
            None => FleetSpec::full(args.seed, nodes, runs),
            Some(name) => {
                let Some(model) = NodeFaultModel::from_name(name) else {
                    eprintln!("fleet_soak: {}", unknown_model(name, model_names(), None));
                    return ExitCode::from(2);
                };
                FleetSpec {
                    base_seed: args.seed,
                    nodes,
                    cells: vec![FleetCell { model, runs }],
                }
            }
        },
        Mode::Churn => unreachable!("handled above"),
    };
    eprintln!(
        "fleet_soak: {} nodes, {} cells, {} runs, base seed {:#x}",
        spec.nodes,
        spec.cells.len(),
        spec.total_runs(),
        spec.base_seed
    );

    let records = run_soak_with(&spec, args.scheduler);
    let jsonl = to_jsonl(&records);
    let what = format!("{} soak records", records.len());
    if let Err(code) = write_out("fleet_soak", args.out.as_deref(), &jsonl, &what) {
        return code;
    }

    let hist = Histogram::from_records(&records);
    if args.table {
        eprintln!();
        eprint!("{}", coverage_table(&records));
        eprintln!();
        eprintln!(
            "outcomes: {} total, {} failovers, {} split-brain, {} false-suspicion, {} unrecovered",
            hist.total(),
            hist.failovers(),
            hist.count("split-brain"),
            hist.count("false-suspicion"),
            hist.count("unrecovered"),
        );
        for (tag, n) in hist.iter() {
            eprintln!("  {tag:<24} {n}");
        }
    }

    // The fencing protocol's invariant holds in *every* mode: no run
    // may ever classify split-brain.
    if hist.count("split-brain") != 0 {
        eprintln!("fleet_soak: FENCING VIOLATED: split-brain observed");
        return ExitCode::FAILURE;
    }

    // Control fleets are a self-check: any suspicion activity at all is
    // a monitor bug (CI runs this).
    if matches!(args.mode, Mode::Control) {
        let clean = records
            .iter()
            .filter(|r| {
                r.outcome.tag() == "masked"
                    && r.recovery.tag() == "not-needed"
                    && r.faults == "none"
            })
            .count();
        let false_susp = hist.count("false-suspicion");
        if clean != records.len() || hist.failovers() != 0 || false_susp != 0 {
            eprintln!(
                "fleet_soak: control FAILED: {}/{} masked, {} failovers, {} false suspicions",
                clean,
                records.len(),
                hist.failovers(),
                false_susp
            );
            return ExitCode::FAILURE;
        }
        eprintln!("fleet_soak: control OK: {clean}/{} masked", records.len());
    }
    ExitCode::SUCCESS
}
