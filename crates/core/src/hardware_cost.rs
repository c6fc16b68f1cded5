//! The paper's analytical hardware-overhead model (footnote 4 of §3.1).
//!
//! For a 32-bit processor with a 16-entry reorder buffer the paper
//! estimates the input interface at ≈2560 flip-flops and ≈12 800 gates:
//!
//! * flip-flops = #input queues × #entries per queue × #bits per entry
//!   = 5 × 16 × 32 = 2560;
//! * MUX gates: a 2-to-1 MUX with feedback loop is 4 gates, 3-to-1 is 5,
//!   4-to-1 is 6; two inputs need 4-to-1 MUXes, two need 2-to-1, one
//!   needs 3-to-1, each replicated per bit per entry:
//!   (2×6 + 2×4 + 1×5) × 32 × 16 = 25 × 512 = 12 800.

use crate::RseConfig;

/// Number of input queues in the interface (Fetch_Out, Regfile_Data,
/// Execute_Out, Memory_Out, Commit_Out).
pub const INPUT_QUEUES: u32 = 5;

/// Width of one input-queue entry, in bits: the word of the 32-bit
/// processor the footnote-4 estimate assumes (§3.1).
const ENTRY_BITS: u32 = 32;

/// Gate cost of an n-to-1 multiplexer with feedback loop, per the
/// paper's footnote: 2→4 gates, 3→5 gates, 4→6 gates.
pub fn mux_gates(inputs: u32) -> u32 {
    match inputs {
        2 => 4,
        3 => 5,
        4 => 6,
        n => 2 + 2 * (n.max(1) - 1) + 2, // linear extrapolation of the same model
    }
}

/// Estimated hardware cost of the framework's input interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardwareCost {
    /// Flip-flops implementing the input-queue storage.
    pub flip_flops: u64,
    /// Gates implementing the input multiplexers.
    pub mux_gate_count: u64,
}

/// Computes the cost model for a configuration.
///
/// The multiplexer mix follows Figure 1: `Execute_Out` selects among
/// ALU/MDU/LSU (3-to-1); `Fetch_Out` and `Commit_Out` select among the
/// four fetch/commit slots (4-to-1); `Regfile_Data` and `Memory_Out` are
/// 2-to-1.
pub fn input_interface_cost(config: &RseConfig) -> HardwareCost {
    let entries = config.queue_entries as u64;
    let bits = ENTRY_BITS as u64;
    let flip_flops = INPUT_QUEUES as u64 * entries * bits;
    let per_bit_gates = (2 * mux_gates(4) + 2 * mux_gates(2) + mux_gates(3)) as u64;
    let mux_gate_count = per_bit_gates * bits * entries;
    HardwareCost {
        flip_flops,
        mux_gate_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_footnote4() {
        let cost = input_interface_cost(&RseConfig::default());
        assert_eq!(cost.flip_flops, 2560);
        assert_eq!(cost.mux_gate_count, 12_800);
    }

    #[test]
    fn mux_gate_model() {
        assert_eq!(mux_gates(2), 4);
        assert_eq!(mux_gates(3), 5);
        assert_eq!(mux_gates(4), 6);
        // Extrapolation is monotone.
        assert!(mux_gates(8) > mux_gates(4));
    }

    #[test]
    fn scales_with_rob_size() {
        let big = RseConfig {
            queue_entries: 32,
            ..RseConfig::default()
        };
        let cost = input_interface_cost(&big);
        assert_eq!(cost.flip_flops, 5120);
        assert_eq!(cost.mux_gate_count, 25_600);
    }
}
