//! Pins the size of the IOQ theorem's reachable space. `mc_ioq` gates on
//! a pass that closed the space; this test also fails when a change to
//! the IOQ or its model shrinks (or grows) what the checker explores.

use rse_mc::models::ioq::IoqModel;
use rse_mc::{explore, Options};

#[test]
fn ioq_model_closes_at_the_pinned_state_count() {
    let report = explore(
        &IoqModel::default(),
        &Options {
            max_depth: 64,
            max_states: 1 << 22,
        },
    );
    assert!(
        report.violation.is_none(),
        "{}",
        report.violation.map(|v| v.render()).unwrap_or_default()
    );
    assert!(!report.stats.truncated, "exploration did not close");
    assert_eq!(report.stats.states, 33_275);
    assert_eq!(report.stats.transitions, 518_189);
}
