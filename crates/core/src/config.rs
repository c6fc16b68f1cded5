//! Engine configuration.

use crate::watchdog::WatchdogConfig;

/// Delay, in cycles, between dispatch and a module observing the CHECK
/// in the `Fetch_Out` queue (the scan delay of Table 3).
pub(crate) const FETCH_SCAN_DELAY: u64 = 1;

/// Delay, in cycles, between a module writing its result and the commit
/// unit observing it (the module→IOQ broadcast of Table 3).
pub(crate) const IOQ_BROADCAST_DELAY: u64 = 1;

/// Configuration of the RSE framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RseConfig {
    /// Entries in each input queue and in the IOQ. "The number of entries
    /// in each input queue is equal to the number of entries in the
    /// re-order buffer in the pipeline" (§3.1) — 16 in the paper.
    pub queue_entries: usize,
    /// Width of one input-queue entry, in bits (32 for the simulated
    /// processor; enters the hardware cost model).
    pub entry_bits: u32,
    /// Self-checking watchdog parameters (§3.4).
    pub watchdog: WatchdogConfig,
}

impl Default for RseConfig {
    fn default() -> RseConfig {
        RseConfig {
            queue_entries: 16,
            entry_bits: 32,
            watchdog: WatchdogConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RseConfig::default();
        assert_eq!(c.queue_entries, 16);
        assert_eq!(c.entry_bits, 32);
    }
}
