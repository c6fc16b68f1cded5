//! Regenerates **Figure 9** of the paper: "Performance Evaluation for
//! DDT" — the multithreaded server's execution time with and without the
//! DDT module, and the number of saved memory pages, as the worker-thread
//! pool grows from 1 to 10 threads while serving 100 requests.
//!
//! ```text
//! cargo run --release -p rse-bench --bin fig9_ddt
//! ```

use rse_bench::{assemble_or_die, header, row};
use rse_isa::ModuleId;
use rse_modules::ddt::{Ddt, DdtConfig};
use rse_sys::{Machine, MachineSpec, ModuleSpec, OsConfig, OsExit};
use rse_workloads::server::{source, ServerParams};

const REQUESTS: u64 = 100;

fn run(threads: u32, with_ddt: bool) -> (u64, u64) {
    let p = ServerParams {
        threads,
        ..ServerParams::default()
    };
    let image = assemble_or_die(&source(&p));
    let spec = MachineSpec {
        modules: if with_ddt {
            vec![ModuleSpec::Ddt(DdtConfig::default())]
        } else {
            Vec::new()
        },
        os: Some(OsConfig {
            num_requests: REQUESTS,
            ..OsConfig::default()
        }),
        ..MachineSpec::default()
    };
    let mut m = Machine::build(&image, spec);
    let exit = m.run(5_000_000_000);
    assert_eq!(exit, OsExit::Exited { code: 0 }, "server did not finish");
    let os = m.os.expect("the server runs under the guest OS");
    assert_eq!(os.stats().responses_sent, REQUESTS);
    let saved = m
        .engine
        .module_ref::<Ddt>(ModuleId::DDT)
        .map_or(0, |d| d.stats().pages_saved);
    (m.cpu.stats().cycles, saved)
}

fn main() {
    header(&format!(
        "Figure 9: DDT evaluation — server handling {REQUESTS} requests (measured)"
    ));
    let w = [8, 16, 16, 10, 12];
    println!(
        "{}",
        row(
            &[
                "Threads",
                "Runtime w/o DDT",
                "Runtime w/ DDT",
                "Overhead",
                "Saved pages"
            ],
            &w
        )
    );
    let mut series = Vec::new();
    for threads in 1..=10u32 {
        eprintln!("running {threads} thread(s) ...");
        let (without, _) = run(threads, false);
        let (with, saved) = run(threads, true);
        let overhead = 100.0 * (with as f64 / without as f64 - 1.0);
        println!(
            "{}",
            row(
                &[
                    &threads.to_string(),
                    &without.to_string(),
                    &with.to_string(),
                    &format!("{overhead:.1}%"),
                    &saved.to_string(),
                ],
                &w
            )
        );
        series.push((threads, without, with, saved));
    }
    // Shape checks matching the paper's description of Figure 9.
    let t1 = series[0];
    let t4 = series[3];
    let t10 = series[9];
    println!("\nShape versus the paper:");
    println!(
        "  runtime decreases as threads are added, stabilizing around 4+: {} -> {} -> {}",
        t1.1, t4.1, t10.1
    );
    println!(
        "  DDT overhead starts low and grows with sharing: {:.1}% (1 thr) -> {:.1}% (10 thr)",
        100.0 * (t1.2 as f64 / t1.1 as f64 - 1.0),
        100.0 * (t10.2 as f64 / t10.1 as f64 - 1.0)
    );
    println!(
        "  saved pages grow with thread count: {} -> {} -> {}",
        t1.3, t4.3, t10.3
    );
    println!("\nPaper reference (Figure 9): runtime 25.2M -> ~22.2M cycles flattening at");
    println!("4+ threads; DDT overhead climbing to 7-8%; saved pages rising toward ~700.");
}
