//! The input interface of the framework: the five input queues of §3.1.
//!
//! Each queue has one entry per reorder-buffer slot, indexed by the
//! instruction's unique identifier (the paper uses the ROB entry number;
//! we use the dispatch sequence [`RobId`], stored in a [`RobTable`]).
//! `Commit_Out` carries the commit/squash indications used to free
//! entries in the other queues — modeled here as the `retire` operation
//! plus counters.

use crate::rob_table::RobTable;
use rse_isa::Inst;
use rse_pipeline::RobId;

/// One entry of the `Fetch_Out` queue: the fetched instruction as the
/// pipeline saw it.
#[derive(Debug, Clone, Copy)]
pub struct FetchOutEntry {
    /// Program counter.
    pub pc: u32,
    /// Raw instruction word (post any in-flight corruption — exactly what
    /// the pipeline is executing; the ICM compares this against the
    /// redundant copy).
    pub word: u32,
    /// Decoded instruction.
    pub inst: Inst,
    /// Whether the pipeline flagged it as wrong-path.
    pub wrong_path: bool,
}

/// One entry of the `Execute_Out` queue: execute-stage outputs.
#[derive(Debug, Clone, Copy)]
pub struct ExecuteOutEntry {
    /// ALU result or address-generation output.
    pub result: u32,
    /// Effective address for memory operations.
    pub eff_addr: Option<u32>,
}

/// A bounded, ROB-indexed input queue.
#[derive(Debug)]
pub struct InputQueue<T> {
    name: &'static str,
    entries: RobTable<T>,
    capacity: usize,
    /// Total entries ever written.
    pub writes: u64,
    /// Maximum simultaneous occupancy observed.
    pub high_water: usize,
}

impl<T> InputQueue<T> {
    /// Creates a queue with `capacity` entries.
    pub fn new(name: &'static str, capacity: usize) -> InputQueue<T> {
        InputQueue {
            name,
            entries: RobTable::with_capacity(capacity),
            capacity,
            writes: 0,
            high_water: 0,
        }
    }

    /// The queue's name (for diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Writes the entry for `rob`.
    ///
    /// # Panics
    ///
    /// Panics on overflow — the pipeline guarantees at most ROB-many
    /// in-flight instructions.
    pub fn insert(&mut self, rob: RobId, value: T) {
        assert!(
            self.entries.len() < self.capacity || self.entries.contains(rob),
            "{} queue overflow",
            self.name
        );
        self.entries.insert(rob, value);
        self.writes += 1;
        self.high_water = self.high_water.max(self.entries.len());
    }

    /// Reads the entry for `rob`.
    pub fn get(&self, rob: RobId) -> Option<&T> {
        self.entries.get(rob)
    }

    /// Frees the entry for `rob` (driven by `Commit_Out`).
    pub fn remove(&mut self, rob: RobId) -> Option<T> {
        self.entries.remove(rob)
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(rob, entry)` pairs (the modules' scan mechanism)
    /// in ascending ROB order, the order the table keeps them in, so
    /// module scans behave identically run to run.
    pub fn iter(&self) -> impl Iterator<Item = (RobId, &T)> {
        self.entries.iter()
    }
}

/// The complete input interface of the RSE.
#[derive(Debug)]
pub struct InputQueues {
    /// `Fetch_Out`: currently fetched (dispatched) instructions.
    pub fetch_out: InputQueue<FetchOutEntry>,
    /// `Regfile_Data`: operand values of each instruction.
    pub regfile_data: InputQueue<[u32; 2]>,
    /// `Execute_Out`: ALU results / generated addresses.
    pub execute_out: InputQueue<ExecuteOutEntry>,
    /// `Memory_Out`: values loaded from memory.
    pub memory_out: InputQueue<u32>,
    /// `Commit_Out` commit indications seen.
    pub commits_seen: u64,
    /// `Commit_Out` squash indications seen.
    pub squashes_seen: u64,
}

impl InputQueues {
    /// Creates the five queues, each with `entries` slots.
    pub fn new(entries: usize) -> InputQueues {
        InputQueues {
            fetch_out: InputQueue::new("Fetch_Out", entries),
            regfile_data: InputQueue::new("Regfile_Data", entries),
            execute_out: InputQueue::new("Execute_Out", entries),
            memory_out: InputQueue::new("Memory_Out", entries),
            commits_seen: 0,
            squashes_seen: 0,
        }
    }

    /// Frees every queue's entry for `rob` in response to a `Commit_Out`
    /// indication.
    pub fn retire(&mut self, rob: RobId, squashed: bool) {
        self.fetch_out.remove(rob);
        self.regfile_data.remove(rob);
        self.execute_out.remove(rob);
        self.memory_out.remove(rob);
        if squashed {
            self.squashes_seen += 1;
        } else {
            self.commits_seen += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_isa::Inst;

    fn fe(pc: u32) -> FetchOutEntry {
        FetchOutEntry {
            pc,
            word: 0,
            inst: Inst::Nop,
            wrong_path: false,
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut q = InputQueue::new("Fetch_Out", 4);
        q.insert(RobId(1), fe(0x100));
        assert_eq!(q.get(RobId(1)).unwrap().pc, 0x100);
        assert_eq!(q.len(), 1);
        assert!(q.remove(RobId(1)).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut q = InputQueue::new("Regfile_Data", 4);
        for i in 0..3 {
            q.insert(RobId(i), [0, 0]);
        }
        q.remove(RobId(0));
        q.remove(RobId(1));
        assert_eq!(q.high_water, 3);
        assert_eq!(q.writes, 3);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = InputQueue::new("Memory_Out", 2);
        q.insert(RobId(1), 0u32);
        q.insert(RobId(2), 0u32);
        q.insert(RobId(3), 0u32);
    }

    #[test]
    fn retire_clears_all_queues() {
        let mut qs = InputQueues::new(16);
        qs.fetch_out.insert(RobId(7), fe(0x40));
        qs.regfile_data.insert(RobId(7), [1, 2]);
        qs.execute_out.insert(
            RobId(7),
            ExecuteOutEntry {
                result: 9,
                eff_addr: None,
            },
        );
        qs.memory_out.insert(RobId(7), 42);
        qs.retire(RobId(7), false);
        assert!(qs.fetch_out.is_empty());
        assert!(qs.memory_out.is_empty());
        assert_eq!(qs.commits_seen, 1);
        qs.retire(RobId(8), true);
        assert_eq!(qs.squashes_seen, 1);
    }

    #[test]
    fn reinsert_same_rob_is_update_not_overflow() {
        let mut q = InputQueue::new("Execute_Out", 1);
        q.insert(
            RobId(1),
            ExecuteOutEntry {
                result: 1,
                eff_addr: None,
            },
        );
        q.insert(
            RobId(1),
            ExecuteOutEntry {
                result: 2,
                eff_addr: None,
            },
        );
        assert_eq!(q.get(RobId(1)).unwrap().result, 2);
    }
}
