//! # rse-sys — the guest operating-system layer
//!
//! The paper's evaluation runs real programs (vpr, kMeans, a
//! multithreaded network server) on an augmented SimpleScalar simulator;
//! the OS services those programs need are provided here, *outside* the
//! simulated pipeline, the same way SimpleScalar's syscall proxying
//! works:
//!
//! * [`loader`] — loads executable images and assembles the MLR special
//!   header in guest memory,
//! * [`os::Os`] — threads, a round-robin scheduler with cooperative
//!   switching at system calls, the syscall table of
//!   [`rse_isa::syscalls`], a simulated network-request source for the
//!   server workload, guest mutexes, and the SavePage exception handler
//!   (checkpointing pages into the [`checkpoint::CheckpointStore`]),
//! * [`recovery`] — the §4.2.2 recovery algorithm: on a thread crash,
//!   terminate the faulty thread and all its transitive dependents (from
//!   the DDT's dependency matrix), undo their page updates from the
//!   checkpoints, and resume the healthy survivors.
//!
//! Substitutions relative to the paper are documented in `DESIGN.md`:
//! kernel code is not simulated instruction-by-instruction; each kernel
//! intervention charges a configurable cycle cost to the pipeline
//! instead (context switch, page save), mirroring how the paper folds OS
//! cost into its cycle counts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod loader;
pub mod os;
pub mod recovery;
pub mod rerand;

pub use checkpoint::{CheckpointConfig, CheckpointStore};
pub use os::{Os, OsConfig, OsExit, ThreadState};
pub use recovery::{recover, validate_max_rerun, RecoveryOutcome, DEFAULT_MAX_RERUN};
