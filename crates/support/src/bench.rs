//! `black_box`, re-exported from `std::hint` for code that times work.

pub use std::hint::black_box;
