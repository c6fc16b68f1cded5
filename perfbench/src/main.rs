//! `perfbench --workload <campaigns|kernel-sim|fleet-churn> [--seed <n>]
//! [--seconds <s>] [--rev <source revision>]`: the timed run.
//!
//! Prints a report, a `context` line and, as the last line, the result
//! object with the end-to-end metrics. Normally started through
//! `run.py`, which builds this crate first. `perfbench --setup-only
//! <flags>` times one set-up and prints its seconds; the timed run
//! starts itself that way to measure `setup_s`.

use rse_perfbench::{calibration_ms, print_run, run, setup_once, Options, SETUP_ONLY, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let setup_only = args.first().is_some_and(|a| a == SETUP_ONLY);
    if setup_only {
        args.remove(0);
    }
    let opts = match Options::parse(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench [{SETUP_ONLY}] {USAGE}");
            return ExitCode::from(2);
        }
    };
    if setup_only {
        println!("{:?}", setup_once(&opts));
        return ExitCode::SUCCESS;
    }
    let calib = calibration_ms();
    match run(&opts) {
        Ok(result) => {
            print_run(&opts, 0, calib, &result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
