//! The assembled memory system: split L1/L2 caches over one shared bus.

use crate::bus::{Bus, BusPriority, DramConfig};
use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::sparse::SparseMemory;

/// The kind of access being made by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (I-side hierarchy).
    InstFetch,
    /// Data load (D-side hierarchy).
    Load,
    /// Data store (D-side hierarchy, write-allocate).
    Store,
}

/// Configuration for the whole memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 instruction cache geometry.
    pub il1: CacheConfig,
    /// L1 data cache geometry.
    pub dl1: CacheConfig,
    /// L2 instruction cache geometry.
    pub il2: CacheConfig,
    /// L2 data cache geometry.
    pub dl2: CacheConfig,
    /// DRAM/bus timing.
    pub dram: DramConfig,
}

impl MemConfig {
    /// The paper's baseline configuration (Figure 1 parameters, no RSE).
    pub fn baseline() -> MemConfig {
        MemConfig {
            il1: CacheConfig::il1(),
            dl1: CacheConfig::dl1(),
            il2: CacheConfig::il2(),
            dl2: CacheConfig::dl2(),
            dram: DramConfig::baseline(),
        }
    }

    /// The configuration with the RSE framework attached: identical caches
    /// but the memory arbiter in the DRAM path (18/2 → 19/3 cycles, §5.2).
    pub fn with_framework() -> MemConfig {
        MemConfig {
            dram: DramConfig::with_arbiter(),
            ..MemConfig::baseline()
        }
    }
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig::baseline()
    }
}

/// A snapshot of all memory-system statistics (the Table 4 cache rows).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// L1 instruction cache counters.
    pub il1: CacheStats,
    /// L2 instruction cache counters.
    pub il2: CacheStats,
    /// L1 data cache counters.
    pub dl1: CacheStats,
    /// L2 data cache counters.
    pub dl2: CacheStats,
    /// Number of bus transfers initiated by the pipeline side.
    pub pipeline_transfers: u64,
    /// Number of bus transfers initiated by the RSE's MAU.
    pub mau_transfers: u64,
    /// Cycles MAU requests waited on arbitration.
    pub mau_wait_cycles: u64,
}

/// The memory hierarchy of the simulated processor: functional state in
/// [`SparseMemory`], timing state in the caches and the [`Bus`].
#[derive(Debug, Clone)]
pub struct MemorySystem {
    /// Functional memory contents. Public: the pipeline, the loader, and
    /// the RSE modules all read and write through this.
    pub memory: SparseMemory,
    il1: Cache,
    il2: Cache,
    dl1: Cache,
    dl2: Cache,
    bus: Bus,
}

impl MemorySystem {
    /// Creates a memory system with the given configuration and empty
    /// memory contents.
    pub fn new(config: MemConfig) -> MemorySystem {
        MemorySystem {
            memory: SparseMemory::new(),
            il1: Cache::new(config.il1),
            il2: Cache::new(config.il2),
            dl1: Cache::new(config.dl1),
            dl2: Cache::new(config.dl2),
            bus: Bus::new(config.dram),
        }
    }

    /// Performs a timed pipeline access at cycle `now`, returning the
    /// cycle at which the data is available.
    ///
    /// L1 hit: `hit_latency`. L1 miss, L2 hit: both hit latencies.
    /// L2 miss: both hit latencies plus a line transfer over the shared
    /// bus; a dirty eviction additionally occupies the bus afterwards
    /// (write-back buffered, so it delays only later requests).
    pub fn access(&mut self, now: u64, addr: u32, kind: AccessKind) -> u64 {
        let is_write = kind == AccessKind::Store;
        let (l1, l2) = match kind {
            AccessKind::InstFetch => (&mut self.il1, &mut self.il2),
            AccessKind::Load | AccessKind::Store => (&mut self.dl1, &mut self.dl2),
        };
        let l1_lat = l1.config().hit_latency;
        let p1 = l1.access(addr, is_write);
        if p1.hit {
            return now + l1_lat;
        }
        let l2_lat = l2.config().hit_latency;
        let line_bytes = l2.config().line_bytes;
        let p2 = l2.access(addr, is_write);
        if p2.hit {
            return now + l1_lat + l2_lat;
        }
        let done = self
            .bus
            .request(now + l1_lat + l2_lat, line_bytes, BusPriority::Pipeline);
        if p2.evicted_dirty {
            // Buffered write-back: occupies the bus after the demand fill.
            self.bus.request(done, line_bytes, BusPriority::Pipeline);
        }
        done
    }

    /// Performs a timed MAU (RSE framework) access of `bytes` bytes at
    /// cycle `now`, returning the completion cycle.
    ///
    /// MAU traffic bypasses both cache levels (§3.2: framework accesses
    /// must not pollute the application's caches) and loses same-cycle
    /// arbitration to the pipeline.
    pub fn mau_access(&mut self, now: u64, bytes: u32) -> u64 {
        self.bus.request(now, bytes, BusPriority::Mau)
    }

    /// Invalidates all caches (used after the loader or the MLR module
    /// writes code; see the paper's cache-coherency discussion in §4.1).
    pub fn invalidate_caches(&mut self) {
        self.il1.invalidate_all();
        self.il2.invalidate_all();
        self.dl1.invalidate_all();
        self.dl2.invalidate_all();
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            il1: self.il1.stats(),
            il2: self.il2.stats(),
            dl1: self.dl1.stats(),
            dl2: self.dl2.stats(),
            pipeline_transfers: self.bus.pipeline_transfers,
            mau_transfers: self.bus.mau_transfers,
            mau_wait_cycles: self.bus.mau_wait_cycles,
        }
    }

    /// Resets all cache statistics (not contents or memory).
    pub fn reset_stats(&mut self) {
        self.il1.reset_stats();
        self.il2.reset_stats();
        self.dl1.reset_stats();
        self.dl2.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_latencies_stack() {
        let mut m = MemorySystem::new(MemConfig::baseline());
        // Cold: L1 miss, L2 miss → 1 + 6 + (18 + 3*2) = 31.
        assert_eq!(m.access(0, 0x1000, AccessKind::InstFetch), 31);
        // Warm L1: 1 cycle.
        assert_eq!(m.access(100, 0x1000, AccessKind::InstFetch), 101);
        // Same line, other word: still L1.
        assert_eq!(m.access(200, 0x101C, AccessKind::InstFetch), 201);
    }

    #[test]
    fn l2_hit_path() {
        let mut m = MemorySystem::new(MemConfig::baseline());
        m.access(0, 0x1000, AccessKind::Load);
        // Evict the L1 line with a conflicting address (8 KB direct-mapped
        // L1: +8 KB conflicts), but 128 KB 2-way L2 keeps both.
        m.access(100, 0x1000 + 8 * 1024, AccessKind::Load);
        let t = m.access(200, 0x1000, AccessKind::Load);
        assert_eq!(t, 200 + 1 + 6);
    }

    #[test]
    fn framework_config_slows_dram() {
        let mut base = MemorySystem::new(MemConfig::baseline());
        let mut rse = MemorySystem::new(MemConfig::with_framework());
        let tb = base.access(0, 0x4000, AccessKind::Load);
        let tr = rse.access(0, 0x4000, AccessKind::Load);
        assert_eq!(tb, 1 + 6 + 24);
        assert_eq!(tr, 1 + 6 + 28);
        assert!(tr > tb);
    }

    #[test]
    fn i_and_d_sides_are_independent() {
        let mut m = MemorySystem::new(MemConfig::baseline());
        m.access(0, 0x1000, AccessKind::InstFetch);
        // Same address on the D side is still cold.
        let t = m.access(100, 0x1000, AccessKind::Load);
        assert!(t > 101);
        let s = m.stats();
        assert_eq!(s.il1.accesses, 1);
        assert_eq!(s.dl1.accesses, 1);
    }

    #[test]
    fn mau_bypasses_caches() {
        let mut m = MemorySystem::new(MemConfig::with_framework());
        let t1 = m.mau_access(0, 32);
        assert_eq!(t1, 28);
        // Repeating it costs the same: nothing was cached.
        let t2 = m.mau_access(100, 32);
        assert_eq!(t2, 128);
        let s = m.stats();
        assert_eq!(s.mau_transfers, 2);
        assert_eq!(s.il1.accesses + s.dl1.accesses, 0);
    }

    #[test]
    fn dirty_writeback_occupies_bus() {
        // 1-set caches to force evictions.
        let tiny = CacheConfig {
            sets: 1,
            ways: 1,
            line_bytes: 32,
            hit_latency: 1,
        };
        let cfg = MemConfig {
            il1: tiny,
            dl1: tiny,
            il2: tiny,
            dl2: tiny,
            dram: DramConfig::baseline(),
        };
        let mut m = MemorySystem::new(cfg);
        m.access(0, 0x0, AccessKind::Store); // dirty in dl1+dl2
        let t_fill = m.access(1000, 0x100, AccessKind::Load); // evicts dirty line
                                                              // A subsequent MAU request must wait behind the write-back.
        let t_mau = m.mau_access(t_fill, 8);
        assert!(t_mau > t_fill + 18);
    }

    #[test]
    fn invalidate_caches_forces_refetch() {
        let mut m = MemorySystem::new(MemConfig::baseline());
        m.access(0, 0x2000, AccessKind::InstFetch);
        m.invalidate_caches();
        let t = m.access(100, 0x2000, AccessKind::InstFetch);
        assert_eq!(t, 100 + 31);
    }
}
