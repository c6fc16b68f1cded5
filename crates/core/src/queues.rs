//! The input interface of the framework (§3.1).
//!
//! The paper's interface has five input queues — `Fetch_Out`,
//! `Regfile_Data`, `Execute_Out`, `Memory_Out` and `Commit_Out` — each
//! with one entry per reorder-buffer slot. Modules here receive operand
//! values, execute results and loaded values through the
//! [`Module::on_dispatch`](crate::Module::on_dispatch) and
//! [`Module::on_execute`](crate::Module::on_execute) callbacks, and the
//! `Commit_Out` indications through `on_commit`/`on_squash`. Only
//! `Fetch_Out` is kept as a table, because modules read it back by
//! instruction after dispatch. It is indexed by the instruction's unique
//! identifier (the paper uses the ROB entry number; we use the dispatch
//! sequence [`RobId`], stored in a [`RobTable`]). The
//! [`hardware_cost`](crate::hardware_cost) model still prices all five
//! queues.

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

/// The `Fetch_Out` queue: currently fetched (dispatched) instructions,
/// bounded and ROB-indexed.
#[derive(Debug)]
pub struct FetchOut {
    entries: RobTable<FetchOutEntry>,
    capacity: usize,
}

impl FetchOut {
    /// Creates a queue with `capacity` entries.
    pub fn new(capacity: usize) -> FetchOut {
        FetchOut {
            entries: RobTable::with_capacity(capacity),
            capacity,
        }
    }

    /// Writes the entry for `rob`.
    ///
    /// # Panics
    ///
    /// Panics on overflow — the pipeline guarantees at most ROB-many
    /// in-flight instructions.
    pub fn insert(&mut self, rob: RobId, value: FetchOutEntry) {
        assert!(
            self.entries.len() < self.capacity || self.entries.contains(rob),
            "Fetch_Out queue overflow"
        );
        self.entries.insert(rob, value);
    }

    /// Reads the entry for `rob`.
    pub fn get(&self, rob: RobId) -> Option<&FetchOutEntry> {
        self.entries.get(rob)
    }

    /// Frees the entry for `rob` (driven by `Commit_Out`).
    pub fn remove(&mut self, rob: RobId) -> Option<FetchOutEntry> {
        self.entries.remove(rob)
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut q = FetchOut::new(4);
        q.insert(RobId(1), fe(0x100));
        assert_eq!(q.get(RobId(1)).unwrap().pc, 0x100);
        assert!(q.remove(RobId(1)).is_some());
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "Fetch_Out queue overflow")]
    fn overflow_panics() {
        let mut q = FetchOut::new(2);
        q.insert(RobId(1), fe(0));
        q.insert(RobId(2), fe(4));
        q.insert(RobId(3), fe(8));
    }

    #[test]
    fn reinsert_same_rob_is_update_not_overflow() {
        let mut q = FetchOut::new(1);
        q.insert(RobId(1), fe(0x10));
        q.insert(RobId(1), fe(0x20));
        assert_eq!(q.get(RobId(1)).unwrap().pc, 0x20);
    }
}
