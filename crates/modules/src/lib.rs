//! # rse-modules — the four hardware modules of the paper
//!
//! §4 of *"An Architectural Framework for Providing Reliability and
//! Security Support"* (DSN 2004) describes four modules embedded in the
//! RSE framework. Each is implemented here against the
//! [`rse_core::Module`] interface:
//!
//! * [`icm::Icm`] — the **Instruction Checker Module** (§4.3):
//!   preemptively checks an instruction's binary against a redundant copy
//!   kept in a contiguous CheckerMemory, through a 256-entry LRU
//!   `Icm_Cache` with 8-entry batch refill; a 3-stage internal pipeline
//!   (IDLE → MEMREQ → COMP) following the Figure 6 timeline,
//! * [`mlr::Mlr`] — the **Memory Layout Randomization** module (§4.1):
//!   parses the executable's special header, randomizes the
//!   position-independent region bases with the clock-cycle counter,
//!   copies the GOT to a random location and rewrites the PLT (4 entries
//!   at a time, as in Figure 3(B)),
//! * [`ddt::Ddt`] — the **Data Dependency Tracker** (§4.2): the page
//!   status table and the N×N data-dependency matrix, driving SavePage
//!   exceptions so the OS can checkpoint shared pages and recover healthy
//!   threads after a malicious-thread crash,
//! * [`ahbm::Ahbm`] — the **Adaptive Heartbeat Monitor** (§4.4): a CAM of
//!   monitored entities, per-entity counters, and a Jacobson-style
//!   adaptive-timeout estimator.
//!
//! A fifth module extends the paper's set for the adversarial
//! arms-race campaigns:
//!
//! * [`dsm::Dsm`] — the **Dynamic Sequence Monitor**: basic-block
//!   signatures (word count + XOR) checked along committed control
//!   flow, closing the in-flight instruction-skip blind spot the ICM's
//!   per-word comparison cannot see (R5Detect's signature-monitoring
//!   idea recast onto the Commit_Out tap).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ahbm;
pub mod ddt;
pub mod dsm;
pub mod icm;
pub mod mlr;

pub use ahbm::{
    q16, Ahbm, AhbmConfig, IntervalEstimator, PeerConfig, PeerEvent, PeerId, PeerMonitor,
    PeerState, Q16_ONE,
};
pub use ddt::{Ddt, DdtConfig, SavedPage, ThreadId, SAVE_PAGE_EXCEPTION};
pub use dsm::{BlockSig, Dsm, DsmStats};
pub use icm::{Icm, IcmConfig};
pub use mlr::{Mlr, MlrConfig, RandomizedBases};

use rse_pipeline::RobId;

/// Removes and returns `rob`'s entry from a module's list of
/// per-instruction state. The lists hold at most one entry per in-flight
/// instruction, so a scan is all a lookup needs.
fn take_pending<T>(list: &mut Vec<(RobId, T)>, rob: RobId) -> Option<T> {
    let i = list.iter().position(|&(r, _)| r == rob)?;
    Some(list.swap_remove(i).1)
}
