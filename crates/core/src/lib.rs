//! # rse-core — the Reliability and Security Engine framework
//!
//! The primary contribution of *"An Architectural Framework for Providing
//! Reliability and Security Support"* (DSN 2004): an on-chip engine,
//! attached to the processor pipeline, that hosts hardware modules
//! providing application-aware reliability and security services.
//!
//! The engine ([`Engine`]) implements the pipeline's
//! [`CoProcessor`](rse_pipeline::CoProcessor) tap interface and contains:
//!
//! * the **input interface** ([`queues`]) — five input queues
//!   (`Fetch_Out`, `Regfile_Data`, `Execute_Out`, `Memory_Out`,
//!   `Commit_Out`), each with as many entries as the reorder buffer
//!   (§3.1),
//! * the **Instruction Output Queue** ([`ioq`]) — per-instruction
//!   `check`/`checkValid` bits with exactly the Table 1 semantics, gating
//!   instruction commit,
//! * the **Memory Access Unit** ([`mau`]) — a shared port into memory for
//!   all modules, serviced cyclically, sharing the external bus with the
//!   pipeline through the arbiter (pipeline priority; §3.2),
//! * the **module host** ([`module`]) — up to 16 module slots addressed
//!   by the CHECK instruction's module number, with the enable/disable
//!   unit of §3.2,
//! * the **self-checking watchdog** ([`watchdog`]) — §3.4 / Table 2:
//!   transition monitoring on the IOQ bits plus an error-burst counter,
//!   with every anomaly attributed to the owning module,
//! * the **per-module containment machinery** ([`health`]) — each module
//!   slot owns a `Healthy → Suspect → Quarantined → Disabled` state
//!   machine; a quarantined module's CHECKs commit as NOPs through the
//!   §3.4 output multiplexer while the other modules keep running, and
//!   self-test probes with exponential backoff attempt re-enable. Global
//!   safe mode (every instruction commits freely) remains as the
//!   escalation of last resort,
//! * the **hardware cost model** ([`hardware_cost`]) — the paper's
//!   footnote-4 flip-flop and gate-count estimates, parameterized.
//!
//! Every per-instruction structure above (input queues, IOQ, watchdog
//! marks) and the modules' pending-operation maps are [`RobTable`]s:
//! small tables kept in ascending [`RobId`](rse_pipeline::RobId) order,
//! O(1) at the dispatch, commit and squash ends.
//!
//! Modules operate in one of two modes (§3, Figure 2): **synchronous**
//! (blocking CHECK — the pipeline may not commit the instruction until
//! the module completes) and **asynchronous** (non-blocking CHECK — the
//! module lags the pipeline and logs permanent state only when the
//! instruction commits).
//!
//! # Example
//!
//! ```
//! use rse_core::{Engine, RseConfig};
//! use rse_core::testutil::CountingModule;
//! use rse_isa::ModuleId;
//!
//! let mut engine = Engine::new(RseConfig::default());
//! engine.install(Box::new(CountingModule::new(ModuleId::new(9))));
//! assert!(engine.module_installed(ModuleId::new(9)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod engine;
pub mod hardware_cost;
pub mod health;
pub mod ioq;
pub mod mau;
pub mod module;
pub mod queues;
mod rob_table;
pub mod testutil;
pub mod watchdog;

pub use config::RseConfig;
pub use engine::{probe_rob, ChkFault, Engine, RseStats, PROBE_ROB_BASE};
pub use health::{AnomalyKind, HealthConfig, HealthEvent, HealthState, ModuleHealth};
pub use ioq::{Ioq, IoqEntryKind, IoqFault};
pub use mau::{Mau, MauOp, MauRequest};
pub use module::{ChkDispatch, Module, ModuleCtx, Verdict};
pub use rob_table::RobTable;
pub use watchdog::{SafeModeCause, Watchdog, WatchdogConfig};
