//! Deterministic adversarial attack campaign runner.
//!
//! Drives the `rse-attack` campaign engine over the victim corpus,
//! writes one JSON record per attack run (JSON lines), and prints the
//! attack-coverage table on stderr. The whole campaign is a pure
//! function of the base seed: running the same invocation twice — at
//! any thread count, tiered or not — yields byte-identical JSONL.
//!
//! ```text
//! cargo run --release -p rse-bench --bin attack_campaign -- --smoke
//! cargo run --release -p rse-bench --bin attack_campaign -- --control --runs 4
//! cargo run --release -p rse-bench --bin attack_campaign -- --entropy --out BENCH_attack.json
//! cargo run --release -p rse-bench --bin attack_campaign -- --seed 7 --runs 16
//! ```
//!
//! Modes (mutually exclusive; default is the full campaign):
//!
//! * `--smoke` — the pinned CI spec (`AttackSpec::smoke`): every attack
//!   model against both twins of its victim pair,
//! * `--adaptive` — the pinned adaptive spec (`AttackSpec::adaptive`):
//!   the multi-stage chain models (probe→leak→strike, recovery-window
//!   strikes, quarantine evasion) plus the instruction-stream models
//!   against the DSM twins,
//! * `--control` — zero-attack control runs of every victim; every
//!   outcome must be `prevented` (and every recovery `not-needed`) or
//!   the binary exits non-zero,
//! * `--entropy` — the §4.1 re-randomization study: leak-then-strike
//!   attack success rate versus the MLR re-randomization period, one
//!   JSON line per victim kind; the binary exits non-zero unless the
//!   success count falls strictly at every period step for every victim,
//! * *default* — every applicable (victim, attack-model) pair with
//!   `--runs` runs each.
//!
//! Flags: `--seed <u64>` base seed, decimal or `0x` hex (default
//! 0xD5B), `--runs <n>` runs per cell for `--control`/full (default 8), `--model <name>` restrict
//! the full campaign to one attack model, `--list-models` print the
//! model catalog and exit, `--out <path>` write the JSONL (or entropy
//! JSON) there instead of stdout, `--no-table` suppress the coverage
//! table, `--tiered` run deterministic attack-free segments on the
//! functional tier, `--threads <n>` shard runs across worker threads,
//! `--max-rerun <n>` rollback retry budget against recovery-window
//! strikes (default 3, max 8), `--trials <n>` trials per entropy sweep
//! point (default 48), `--rerand-period <cycles>` replace the default
//! entropy sweep with a single nonzero period (plus the static
//! baseline).

use std::process::ExitCode;

use rse_attack::{
    attack_coverage_table, compromise_permille, corpus_study_json, entropy_study_corpus,
    run_campaign_with, run_trial_kind, strictly_decreasing, to_jsonl, AttackModel, AttackSpec,
    CampaignOptions, EntropyPoint, VictimStudy, DEFAULT_TRIALS,
};
use rse_bench::{numeric, seed, suggest, write_atomic};
use rse_inject::FaultModel;
use rse_sys::rerand::validate_period;
use rse_sys::validate_max_rerun;

/// Default base seed (arbitrary but fixed; also used by `scripts/ci.sh`).
const DEFAULT_SEED: u64 = 0xD5B;

const USAGE: &str = "usage: attack_campaign [--smoke | --adaptive | --control | --entropy] \
     [--seed N] [--runs N] [--model NAME] [--list-models] [--out FILE] [--no-table] [--tiered] \
     [--threads N] [--max-rerun N] [--trials N] [--rerand-period N]";

enum Mode {
    Smoke,
    Adaptive,
    Control,
    Entropy,
    Full,
}

struct Args {
    mode: Mode,
    seed: u64,
    runs: u32,
    model: Option<AttackModel>,
    list_models: bool,
    out: Option<String>,
    table: bool,
    opts: CampaignOptions,
    trials: u32,
    rerand_period: Option<u64>,
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
        trials: DEFAULT_TRIALS,
        rerand_period: None,
    };
    let mut it = argv;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.mode = Mode::Smoke,
            "--adaptive" => args.mode = Mode::Adaptive,
            "--control" => args.mode = Mode::Control,
            "--entropy" => args.mode = Mode::Entropy,
            "--seed" => args.seed = seed("--seed", it.next())?,
            "--runs" => args.runs = numeric("--runs", it.next())?,
            "--model" => {
                let name = it.next().ok_or("--model expects a model name")?;
                let Some(model) = AttackModel::from_name(&name) else {
                    // A fault-model name here is the most common slip:
                    // point straight at the injection-campaign binary.
                    if FaultModel::ALL.iter().any(|m| m.name() == name) {
                        return Err(format!(
                            "'{name}' is a fault-injection model, not an attack model \
                             (run the `campaign` binary for injection campaigns)"
                        ));
                    }
                    let candidates = AttackModel::ALL.iter().map(|m| m.name());
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
            "--max-rerun" => {
                let budget = numeric("--max-rerun", it.next())?;
                args.opts.max_rerun = validate_max_rerun("--max-rerun", budget)?;
            }
            "--trials" => args.trials = numeric("--trials", it.next())?,
            "--rerand-period" => {
                let period = numeric("--rerand-period", it.next())?;
                args.rerand_period = Some(validate_period("--rerand-period", period)?);
            }
            "--help" | "-h" => return Err(String::new()),
            _ => return Err(format!("unknown flag '{a}'")),
        }
    }
    if args.model.is_some() && !matches!(args.mode, Mode::Full) {
        return Err("--model applies to the full campaign only".into());
    }
    if args.rerand_period.is_some() && !matches!(args.mode, Mode::Entropy) {
        return Err("--rerand-period applies to the entropy study only".into());
    }
    Ok(args)
}

/// Runs the entropy study over the victim corpus and writes/validates
/// its JSON (one line per victim kind).
fn run_entropy(args: &Args) -> ExitCode {
    let studies: Vec<VictimStudy> = match args.rerand_period {
        // A single explicit period replaces every victim's tuned sweep:
        // baseline + that one point, per victim.
        Some(p) => rse_attack::entropy_victims()
            .iter()
            .map(|v| VictimStudy {
                kind: v.kind,
                points: [0, p]
                    .iter()
                    .map(|&period| {
                        let successes = (0..args.trials)
                            .filter(|&t| {
                                let seed =
                                    rse_attack::corpus_trial_seed(args.seed, v.kind, period, t);
                                run_trial_kind(v.kind, seed, (period != 0).then_some(period))
                            })
                            .count() as u32;
                        EntropyPoint {
                            period,
                            trials: args.trials,
                            successes,
                        }
                    })
                    .collect(),
            })
            .collect(),
        None => entropy_study_corpus(args.seed, args.trials, args.opts.threads),
    };
    eprintln!(
        "attack_campaign: entropy study, {} victims x {} trials/point, base seed {:#x}",
        studies.len(),
        args.trials,
        args.seed
    );
    let json = corpus_study_json(args.seed, &studies);
    match &args.out {
        Some(path) => {
            if let Err(e) = write_atomic(path, json.as_bytes()) {
                eprintln!("attack_campaign: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("attack_campaign: wrote entropy study to {path}");
        }
        None => print!("{json}"),
    }
    let mut ok = true;
    for s in &studies {
        for p in &s.points {
            eprintln!(
                "  {:<6} period {:>6} cycles: {:>3}/{} successes ({} permille)",
                s.kind,
                p.period,
                p.successes,
                p.trials,
                p.permille()
            );
        }
        // The study IS the claim: every shortening of the
        // re-randomization period must measurably cut attack success,
        // on every victim surface. Anything else means the defense (or
        // the study) regressed, so fail loudly (CI runs this against
        // the committed BENCH_attack.json).
        if !strictly_decreasing(&s.points) {
            eprintln!(
                "attack_campaign: entropy FAILED: success counts are not strictly \
                 decreasing for victim '{}'",
                s.kind
            );
            ok = false;
        }
    }
    if !ok {
        return ExitCode::FAILURE;
    }
    eprintln!("attack_campaign: entropy OK: success falls strictly across every victim's sweep");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("attack_campaign: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list_models {
        println!("attack models:");
        for m in AttackModel::ALL {
            println!("  {:<16} {}", m.name(), m.describe());
        }
        return ExitCode::SUCCESS;
    }
    if matches!(args.mode, Mode::Entropy) {
        return run_entropy(&args);
    }
    let mut spec = match args.mode {
        Mode::Smoke => AttackSpec::smoke(args.seed),
        Mode::Adaptive => AttackSpec::adaptive(args.seed),
        Mode::Control => AttackSpec::control(args.seed, args.runs),
        Mode::Full => AttackSpec::full(args.seed, args.runs),
        Mode::Entropy => unreachable!("handled above"),
    };
    if let Some(model) = args.model {
        spec.cells.retain(|c| c.model == model);
        if spec.cells.is_empty() {
            eprintln!(
                "attack_campaign: no victim accepts model '{}' (see --list-models)",
                model.name()
            );
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "attack_campaign: {} cells, {} runs, base seed {:#x}",
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
                eprintln!("attack_campaign: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("attack_campaign: wrote {} records to {path}", records.len());
        }
        None => {
            print!("{jsonl}");
        }
    }

    if args.table {
        eprintln!();
        eprint!("{}", attack_coverage_table(&records));
        eprintln!();
        eprintln!(
            "compromised: {} permille of {} runs",
            compromise_permille(&records),
            records.len()
        );
    }

    // Control campaigns are a self-check: anything but 100% prevented
    // (with no recovery machinery engaged and no attack armed) is a
    // harness bug, so fail loudly (CI runs this).
    if matches!(args.mode, Mode::Control) {
        let clean = records
            .iter()
            .filter(|r| {
                r.outcome.tag() == "prevented"
                    && r.recovery.tag() == "not-needed"
                    && r.attack == "none"
            })
            .count();
        if clean != records.len() {
            eprintln!(
                "attack_campaign: control FAILED: {}/{} prevented",
                clean,
                records.len()
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "attack_campaign: control OK: {clean}/{} prevented",
            records.len()
        );
    }
    ExitCode::SUCCESS
}
