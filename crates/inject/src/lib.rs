//! # rse-inject — deterministic soft-error fault-injection campaigns
//!
//! The evaluation methodology of *"An Architectural Framework for
//! Providing Reliability and Security Support"* (DSN 2004) rests on
//! fault-injection campaigns: transient soft errors are injected into a
//! running guest, and each run is classified by where the error surfaced
//! — masked, silent data corruption, detected by an RSE module, caught by
//! the self-checking watchdog, crashed, or hung. This crate is the
//! campaign engine.
//!
//! Pieces:
//!
//! * [`fault`] — the fault models (register single/double bit flips,
//!   memory bit flips in text and data, instruction-word corruption at
//!   fetch, dropped/garbled CHECK dispatches) and the deterministic
//!   injection-point sampler: one `u64` seed fully determines *when*,
//!   *where*, and *which bits*, replayable forever,
//! * [`workload`] — a small corpus of guest programs, one per harness
//!   flavor (bare pipeline, ICM-protected, DDT + guest OS),
//! * [`snapshot`] — whole-machine architectural snapshots with a stable
//!   digest, used for golden-run comparison and rollback verification,
//! * [`outcome`] — the outcome taxonomy ([`Outcome`]), the recovery
//!   verdict ([`RecoveryStatus`]), JSON-lines records and the
//!   detection-coverage histogram,
//! * [`campaign`] — the runner: golden reference execution, the one
//!   armed-trial driver ([`run_trial`]) both campaign engines share,
//!   classification against the golden state, and the one recovery path
//!   ([`rerun`]: rollback to the pre-run image, a re-execution on a
//!   freshly built machine, when a detection fired but the architectural
//!   state diverged).
//!
//! Everything is deterministic: same spec + same base seed → byte-for-byte
//! identical JSONL, on any host. The only randomness source is the
//! in-repo `rse_support::rng::splitmix64`.
//!
//! # Example
//!
//! ```
//! use rse_inject::{run_one_by_name, FaultModel};
//!
//! // Replay a single run of the campaign: seed → fault → outcome.
//! let record = run_one_by_name("alu_loop", FaultModel::Control, 42).unwrap();
//! assert_eq!(record.outcome.tag(), "masked"); // no fault injected
//! let again = run_one_by_name("alu_loop", FaultModel::Control, 42).unwrap();
//! assert_eq!(record.to_json(), again.to_json());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod fault;
pub mod outcome;
pub mod snapshot;
pub mod workload;

pub use campaign::{
    build_harness, capture_checkpoints, derive_seed, fault_budget, reference, rerun, result_digest,
    result_digest_parts, run_campaign, run_campaign_with, run_cells, run_one, run_one_by_name,
    run_one_with, run_seed, run_sharded, run_trial, CampaignCell, CampaignOptions, CampaignSpec,
    PreRunCheckpoints, RefState, Strike, Trial, TrialEnd,
};
pub use fault::{FaultModel, FaultPlan, PlannedFault, RunProfile};
pub use outcome::{
    coverage_table, module_tag, retry_mechanism, to_jsonl, Histogram, JsonLine, Outcome,
    RecoveryStatus, RunRecord,
};
pub use snapshot::ArchSnapshot;
pub use workload::{by_name, corpus, fleet_workload, Harness, Workload};
