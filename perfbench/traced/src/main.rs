//! `perfbench-traced --workload <campaigns|kernel-sim|fleet-churn>
//! [--seed <n>] [--seconds <s>] [--rev <source revision>]`: the traced
//! per-layer run (`run.py --trace 1`).
//!
//! Prints each per-layer self-time table, a `context` line and, as the
//! last line, the result object with the per-layer metrics.

use rse_perfbench::{calibration_ms, print_run, Options, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench-traced: {e}\nusage: perfbench-traced {USAGE}");
            return ExitCode::from(2);
        }
    };
    let calib = calibration_ms();
    let result = rse_perfbench_traced::run(&opts);
    print_run(&opts, 1, calib, &result);
    ExitCode::SUCCESS
}
