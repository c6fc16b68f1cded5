//! Traced `fleet-churn`: each pass runs once through `run_churn` on the
//! whole spec and once as one `run_churn` call per churn model, each
//! inside a span. The records must be identical.

use crate::trace::{Table, Tracer, NO_TRIAL};
use crate::{paired, per_layer, write_spans};
use rse_fleet::chaos::ChurnSpec;
use rse_fleet::{run_churn, witness_quanta, ChurnRecord};
use rse_perfbench::fleet::{availability_ppm, check_pass};
use rse_perfbench::pins::Pins;
use rse_perfbench::{for_seconds, Ledger, Options, RunResult};
use std::time::Instant;

/// The traced run: per-layer metrics.
pub fn traced(opts: &Options, pins: &Pins) -> RunResult {
    let spec = ChurnSpec::smoke(opts.seed);
    let mut t = Tracer::new();
    let start = Instant::now();
    let s = t.enter("fleet.witness", NO_TRIAL);
    witness_quanta();
    t.exit(s);
    let mut traced_ns = start.elapsed().as_nanos() as u64;
    let mut plain_ns = 0u64;
    let mut plain_events = 0u64;
    let mut ledger = Ledger::default();
    let mut first: Option<Vec<ChurnRecord>> = None;
    let passes = for_seconds(opts.seconds, 1, |i| {
        let ((plain, p_ns), (records, t_ns)) = paired(
            i,
            || run_churn(&spec),
            || {
                let root = t.enter("fleet.pass", NO_TRIAL);
                let mut records = Vec::new();
                for (k, cell) in spec.cells.iter().enumerate() {
                    let one = ChurnSpec {
                        cells: vec![*cell],
                        ..spec.clone()
                    };
                    let trial = (i * spec.cells.len() + k) as u64;
                    let s = t.enter(run_span(cell.model.name()), trial);
                    records.extend(run_churn(&one));
                    t.exit(s);
                }
                t.exit(root);
                records
            },
        );
        plain_ns += p_ns;
        traced_ns += t_ns;
        plain_events += plain.iter().map(|rec| rec.events).sum::<u64>();
        let first = first.get_or_insert_with(|| plain.clone());
        if records != plain {
            let e = format!("pass {i}: traced records differ from untraced");
            ledger.op(records.len() as u64, Err(e));
        } else {
            check_pass(&spec, &records, first, pins, &mut ledger);
        }
    });
    let mut r = RunResult::default();
    ledger.report(&mut r);
    let records = first.expect("one pass ran");
    let spans = t.spans();
    let self_ns = t.self_times();
    let self_of = |name: &str| -> u64 {
        (0..spans.len())
            .filter(|&i| spans[i].name == name)
            .map(|i| self_ns[i])
            .sum()
    };
    let mut rows = vec![(
        "rse-fleet: witness_quanta (functional tier)".to_string(),
        self_of("fleet.witness"),
    )];
    for cell in &spec.cells {
        let name = run_span(cell.model.name());
        rows.push((
            format!("rse-fleet: run_churn {}", cell.model.name()),
            self_of(name),
        ));
    }
    rows.push((
        "benchmark: spec clones, record checks".into(),
        self_of("fleet.pass"),
    ));
    let table = Table {
        title: format!("fleet-churn ({passes} traced passes)"),
        rows,
        wall_ns: traced_ns,
    };
    r.report.extend(table.lines());
    let events: u64 = records.iter().map(|rec| rec.events).sum();
    let run_ns: u64 = spec
        .cells
        .iter()
        .map(|c| t.total(run_span(c.model.name())))
        .sum();
    let per_pass = |ns: u64| ns as f64 / 1e6 / passes as f64;
    per_layer(&mut r, |name| match name {
        "fleet_mevents_per_s" => Some(plain_events as f64 / (plain_ns as f64 / 1e9) / 1e6),
        "availability_ppm" => Some(availability_ppm(&records)),
        "fleet.witness_ms" => Some(self_of("fleet.witness") as f64 / 1e6),
        "fleet.run_ms.steady" => Some(per_pass(t.total("fleet.run.steady"))),
        "fleet.run_ms.rack-partition" => Some(per_pass(t.total("fleet.run.rack-partition"))),
        "fleet.run_ms.full-weather" => Some(per_pass(t.total("fleet.run.full-weather"))),
        "fleet.events" => Some(events as f64),
        "fleet.ns_per_event" => Some(run_ns as f64 / (events * passes as u64).max(1) as f64),
        "fleet.suspicions" => Some(records.iter().map(|rec| rec.suspicions).sum::<u64>() as f64),
        "fleet.failovers" => Some(records.iter().map(|rec| rec.failovers).sum::<u64>() as f64),
        "trace.overhead_pct" => Some(
            100.0 * ((traced_ns - self_of("fleet.witness")) as f64 / plain_ns.max(1) as f64 - 1.0),
        ),
        _ => None,
    });
    r.bases = vec![
        ("traced_passes", passes.to_string()),
        ("events_per_pass", events.to_string()),
        ("traced_wall_ms", format!("{:.3}", traced_ns as f64 / 1e6)),
        ("untraced_wall_ms", format!("{:.3}", plain_ns as f64 / 1e6)),
        (
            "table_within_tolerance",
            table.within_tolerance().to_string(),
        ),
    ];
    r.bases.push(("spans", write_spans(opts, &t)));
    r
}

/// Span name of one churn model's `run_churn` call.
fn run_span(model: &str) -> &'static str {
    match model {
        "steady" => "fleet.run.steady",
        "rack-partition" => "fleet.run.rack-partition",
        "full-weather" => "fleet.run.full-weather",
        _ => "fleet.run.other",
    }
}
