//! # rse-support — hermetic verification support
//!
//! The workspace builds and tests **fully offline**: no external
//! registry crates appear anywhere in the dependency graph (see
//! `DESIGN.md`, "Hermetic dependencies"). This crate supplies, from
//! in-repo code only, the two capabilities that previously pulled in
//! external dependencies:
//!
//! * [`rng`] — deterministic PRNGs (SplitMix64 seeder + xoshiro256\*\*
//!   core) behind a [`rng::Rng`] trait covering the
//!   `gen_range`/`fill_bytes`/`shuffle` surface the codebase uses
//!   (replaces `rand`),
//! * [`pt`] + [`strategy`] — a property-testing harness: composable
//!   generators, a case runner with configurable case counts, greedy
//!   choice-stream shrinking, and `RSE_PT_SEED` failure reproduction
//!   (replaces `proptest`; the macro and strategy surface is shaped so
//!   existing tests ported mechanically).
//!
//! [`bench`] re-exports `std::hint::black_box` for code that times work.
//!
//! Test files normally start with `use rse_support::prelude::*;`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod pt;
pub mod rng;
pub mod strategy;

pub use strategy::collection;

/// Everything a property-test file needs: the [`strategy::Strategy`]
/// trait and constructors, the runner [`pt::Config`] types, and the
/// `proptest!`/`prop_assert*!`/`prop_oneof!` macros.
pub mod prelude {
    pub use crate::pt::{Config, ProptestConfig, TestRng};
    pub use crate::rng::Rng;
    pub use crate::strategy::{any, collection, Any, BoxedStrategy, Just, Strategy, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}
