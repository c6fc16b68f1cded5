//! # rse-pipeline — superscalar out-of-order processor simulator
//!
//! A cycle-level simulator of the DLX-like superscalar processor of
//! Figure 1 of *"An Architectural Framework for Providing Reliability and
//! Security Support"* (DSN 2004), built in the style of SimpleScalar's
//! `sim-outorder` (which the paper augmented): instructions execute
//! *functionally* in program order at dispatch, while a detailed timing
//! model tracks fetch, dispatch, out-of-order issue, execution and
//! in-order commit through a 16-entry reorder buffer.
//!
//! Architectural parameters (Figure 1): 4-wide fetch/dispatch, 4-wide
//! issue, 16-entry RUU (ROB), 8-entry LSQ, bimodal branch predictor with
//! BTB and return-address stack, and the split cache hierarchy of
//! [`rse_mem`].
//!
//! The **co-processor tap interface** ([`CoProcessor`]) exposes exactly
//! the fan-outs the RSE framework consumes: dispatch events (the
//! `Fetch_Out` and `Regfile_Data` queues), execute/writeback events
//! (`Execute_Out`, `Memory_Out`), commit and squash events (`Commit_Out`),
//! and a commit gate implementing the Instruction Output Queue handshake
//! (`check`/`checkValid`) by which a blocking CHECK stalls or flushes the
//! pipeline.
//!
//! [`Golden`] is the in-order reference interpreter: the differential
//! tests hold the pipeline to it, and fault-free runs that need only
//! architectural results ([`golden::syscall_quanta`], the fleet soak's
//! profile cross-check) run on it alone.
//!
//! # Example
//!
//! ```
//! use rse_isa::asm::assemble;
//! use rse_mem::{MemConfig, MemorySystem};
//! use rse_pipeline::{NullCoProcessor, Pipeline, PipelineConfig, StepEvent};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = assemble("main: li r4, 5\nloop: addi r4, r4, -1\nbne r4, r0, loop\nhalt")?;
//! let mut cpu = Pipeline::new(PipelineConfig::default(), MemorySystem::new(MemConfig::baseline()));
//! cpu.load_image(&image);
//! let mut cp = NullCoProcessor;
//! assert_eq!(cpu.run(&mut cp, 100_000), StepEvent::Halted);
//! assert!(cpu.stats().cycles > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod coproc;
mod exec;
pub mod golden;
mod machine;
mod predictor;
mod stats;

pub use config::{CheckPolicy, PipelineConfig};
pub use coproc::{
    CoProcessor, CommitGate, CoprocException, DispatchInfo, ExecuteInfo, NullCoProcessor, RobId,
};
pub use exec::exec_alu;
pub use golden::{Golden, GoldenEvent};
pub use machine::{CpuContext, FetchFault, FetchTamper, Pipeline, SoftFault, StepEvent};
pub use predictor::Predictor;
pub use stats::PipelineStats;
