//! # rse — the Reliability and Security Engine
//!
//! A from-scratch Rust reproduction of *"An Architectural Framework for
//! Providing Reliability and Security Support"* (Nakka, Xu, Kalbarczyk,
//! Iyer — DSN 2004).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`isa`] — the guest instruction set, assembler, and the `CHK`
//!   (CHECK) instruction extension,
//! * [`mem`] — caches, DRAM model and the pipeline/RSE bus arbiter,
//! * [`pipeline`] — the superscalar out-of-order processor simulator,
//! * [`core`] — the RSE framework itself: input queues, the Instruction
//!   Output Queue, the Memory Access Unit, module hosting, and the
//!   self-checking watchdog,
//! * [`modules`] — the four paper modules (MLR, DDT, ICM, AHBM),
//! * [`fleet`] — the multi-node heartbeat fabric: remote-peer AHBM
//!   suspicion, checkpoint failover, fencing, and soak campaigns,
//! * [`sys`] — the guest OS layer: loader, threads, syscalls, recovery,
//! * [`workloads`] — the evaluation workload generators.
//!
//! See `examples/quickstart.rs` for an end-to-end tour, and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment inventory.

pub use rse_core as core;
pub use rse_fleet as fleet;
pub use rse_isa as isa;
pub use rse_mem as mem;
pub use rse_modules as modules;
pub use rse_pipeline as pipeline;
pub use rse_sys as sys;
pub use rse_workloads as workloads;

/// README's library example, compiled and run as a doctest.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
