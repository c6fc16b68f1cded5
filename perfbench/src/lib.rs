//! # rse-perfbench — the repository benchmark
//!
//! One command runs one of three workloads from a seed, checks every
//! output, and prints the end-to-end metrics named in `BENCHMARK.json`:
//!
//! * [`campaigns`] — the full fault-injection cross product followed by
//!   the full attack cross product: hundreds of short simulator runs,
//! * [`kernel`] — one Table 4 kMeans guest, run cycle-accurately to
//!   completion under Baseline and Framework+ICM: one long run,
//! * [`fleet`] — the 1,000-node churn smoke campaign: the chaos engine's
//!   event loop, with the pipeline used only at set-up.
//!
//! The timed run calls only the entry points the repository's binaries
//! call (`run_campaign_with`, `run_churn`, `run_workload`); its output
//! checks add the public constructors `README.md` lists. The traced
//! per-layer run drives internals one level further down, so it is a
//! package of its own (`traced/`): reshaping those internals cannot
//! break this one's build.

#![forbid(unsafe_code)]

pub mod campaigns;
pub mod fleet;
pub mod kernel;
pub mod pins;

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The seed used when `--seed` is absent (the campaign binaries' own
/// default, so `campaigns` replays `campaign --seed 0xD5B`).
pub const DEFAULT_SEED: u64 = 0xD5B;

/// How many fresh processes time the set-up; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// First argument that makes the benchmark binary time one set-up of
/// the workload and print its seconds instead of running it.
pub const SETUP_ONLY: &str = "--setup-only";

/// The flags both benchmark binaries take.
pub const USAGE: &str = "--workload <campaigns|kernel-sim|fleet-churn> \
                         [--seed <u64>] [--seconds <s>] [--rev <text>]";

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fault + attack campaign cross products.
    Campaigns,
    /// One Table 4 kMeans guest under Baseline and Framework+ICM.
    KernelSim,
    /// The 1,000-node churn smoke campaign.
    FleetChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Campaigns,
        Workload::KernelSim,
        Workload::FleetChurn,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaigns => "campaigns",
            Workload::KernelSim => "kernel-sim",
            Workload::FleetChurn => "fleet-churn",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// A seed never used while the benchmark was tuned; later gains are
    /// confirmed on it.
    pub fn held_out_seed(self) -> u64 {
        match self {
            // Campaigns take their base seed from the high 32 bits.
            Workload::Campaigns => 0x4E1D_0C47_0000_0000,
            Workload::KernelSim => 0x4E1D_0C48,
            Workload::FleetChurn => 0x4E1D_0C49,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Measurement window in seconds (at least one operation runs).
    pub seconds: f64,
    /// Source revision reported beside the result.
    pub rev: String,
}

impl Options {
    /// Parses the flags in [`USAGE`]; the error names the flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut rev = String::from("unknown");
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} expects a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(
                        Workload::from_name(&v).ok_or_else(|| format!("unknown workload '{v}'"))?,
                    );
                }
                "--seed" => {
                    let v = value()?;
                    seed = parse_u64(&v)
                        .ok_or_else(|| format!("--seed: '{v}' is not an unsigned integer"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    seconds = v
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("--seconds: '{v}' is not a non-negative number"))?;
                }
                "--rev" => rev = value()?,
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            rev,
        })
    }
}

fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (trials, kernel runs, churn runs).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines printed before the result.
    pub report: Vec<String>,
    /// Context printed beside the metrics: the bases the rates were
    /// computed from, as `(key, JSON value)` pairs.
    pub bases: Vec<(&'static str, String)>,
}

impl RunResult {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line the benchmark prints last.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counts operations and those whose output check failed, keeping the
/// errors for the report.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ledger {
    /// Records `n` operations that one check judged together.
    pub fn op(&mut self, n: u64, verdict: Result<(), String>) {
        self.attempted += n;
        if let Err(e) = verdict {
            self.failed += n;
            self.errors.push(e);
        }
    }

    /// Writes the counts and the first three errors into `r`.
    pub fn report(&self, r: &mut RunResult) {
        r.attempted = self.attempted;
        r.failed = self.failed;
        let errors = self.errors.iter().take(3);
        r.report
            .extend(errors.map(|e| format!("check failed: {e}")));
    }
}

/// The timed run of the selected workload: `setup_s` from fresh
/// processes, then the workload's own metrics.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let setup = setup_s(opts)?;
    let mut r = match opts.workload {
        Workload::Campaigns => campaigns::timed(opts, &pins::PINS),
        Workload::KernelSim => kernel::timed(opts, &pins::PINS),
        Workload::FleetChurn => fleet::timed(opts, &pins::PINS),
    };
    r.metric("setup_s", setup, "s");
    r.bases.push(("setup_processes", SETUP_REPS.to_string()));
    Ok(r)
}

/// Runs the workload's set-up once in this process; returns seconds.
pub fn setup_once(opts: &Options) -> f64 {
    use rse_support::bench::black_box;
    let seed = opts.seed;
    match opts.workload {
        Workload::Campaigns => {
            clock(|| black_box(campaigns::setup(campaigns::campaign_base(seed)))).1
        }
        Workload::KernelSim => clock(|| black_box(kernel::setup(seed))).1,
        Workload::FleetChurn => clock(|| black_box(fleet::setup(seed))).1,
    }
}

/// `setup_s`: the median of [`SETUP_REPS`] set-ups, each timed inside a
/// fresh run of this executable ([`SETUP_ONLY`]). `witness_quanta()`
/// caches its result for the life of a process, so `fleet-churn`'s real
/// set-up repeats only in a new one; every workload is timed this way.
pub fn setup_s(opts: &Options) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let seed = opts.seed.to_string();
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let out = Command::new(&exe)
            .args([
                SETUP_ONLY,
                "--workload",
                opts.workload.name(),
                "--seed",
                &seed,
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let s = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("set-up process ({}) printed {:?}", out.status, text))?;
        secs.push(s);
    }
    Ok(median(&secs))
}

/// Prints a run: a heading, the report, a `context` line (source
/// revision, `nproc`, the calibration loop and the bases of every rate)
/// and, last, the result object.
pub fn print_run(opts: &Options, trace: u8, calibration_ms: f64, result: &RunResult) {
    println!(
        "perfbench: workload {} seed {} (default {DEFAULT_SEED}, held out {}) seconds {} trace {trace}",
        opts.workload.name(),
        opts.seed,
        opts.workload.held_out_seed(),
        opts.seconds,
    );
    for line in &result.report {
        println!("{line}");
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut context = vec![
        ("rev", format!("\"{}\"", opts.rev.replace(['"', '\\'], ""))),
        ("nproc", nproc.to_string()),
        ("calibration_ms", format!("{calibration_ms:.4}")),
        ("attempted", result.attempted.to_string()),
        ("failed", result.failed.to_string()),
    ];
    context.extend(result.bases.iter().cloned());
    let fields: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("context: {{{}}}", fields.join(", "));
    println!("{}", result.json());
}

/// Calls `op(i)` for `i = 0, 1, …` for about `seconds`, and at least
/// `min` times; returns the number of calls. Another call starts only
/// while the window would still be open halfway through it (judged by
/// the previous call), so a run of long operations ends near `seconds`
/// rather than up to a whole operation past it.
pub fn for_seconds(seconds: f64, min: usize, mut op: impl FnMut(usize)) -> usize {
    let window = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut last = Duration::ZERO;
    let mut i = 0;
    while i < min || start.elapsed() + last / 2 < window {
        let t = Instant::now();
        op(i);
        last = t.elapsed();
        i += 1;
    }
    i
}

/// Times `f` and returns its result with the elapsed seconds.
pub fn clock<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `0..=1` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable. Workloads read it after set-up and the
/// first operation: how many times a run repeats the operation depends
/// on speed, and the allocator's heap grows a little with repetitions.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A fixed integer loop timed in this process, so results from hosts of
/// different speed or load can be put side by side. Milliseconds.
pub fn calibration_ms() -> f64 {
    let ((), secs) = clock(|| {
        let mut s = 0x5EED_u64;
        let mut acc = 0u64;
        for _ in 0..4_000_000 {
            acc ^= rse_support::rng::splitmix64(&mut s);
        }
        rse_support::bench::black_box(acc);
    });
    secs * 1e3
}

/// FNV-1a digest of serialized records.
pub fn digest(text: &str) -> u64 {
    rse_support::rng::fnv1a64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.failed = 1;
        assert!(r.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn ledger_fails_every_operation_a_check_covers() {
        let mut ledger = Ledger::default();
        ledger.op(5, Ok(()));
        ledger.op(3, Err("wrong digest".into()));
        let mut r = RunResult::default();
        ledger.report(&mut r);
        assert_eq!((r.attempted, r.failed), (8, 3));
        assert_eq!(r.report, ["check failed: wrong digest"]);
    }

    #[test]
    fn options_parse_and_name_the_bad_flag() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = Options::parse(args("--workload kernel-sim --seed 0x10 --seconds 2.5")).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds),
            (Workload::KernelSim, 16, 2.5)
        );
        assert_eq!(
            Options::parse(args("--seed 1")).unwrap_err(),
            "--workload is required"
        );
        let e = Options::parse(args("--workload campaigns --seconds -1")).unwrap_err();
        assert!(e.starts_with("--seconds"), "{e}");
        let e = Options::parse(args("--workload campaigns --trace 1")).unwrap_err();
        assert_eq!(e, "unknown flag '--trace'");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("kernel"), None);
    }
}
