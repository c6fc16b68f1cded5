//! [`RobTable`]: the per-instruction table behind the IOQ and the
//! modules' pending-operation maps.
//!
//! The hardware indexes its input queues and the IOQ by ROB entry
//! number, so each access is a direct slot read. The simulator numbers
//! instructions by dispatch sequence ([`RobId`]) instead, and the live
//! ids form a short, mostly contiguous window: dispatch appends the
//! youngest id, commit frees the oldest, and a squash frees from the
//! young end backwards. `RobTable` stores that window as a `VecDeque`
//! sorted by `RobId`, so those three operations touch only an end of
//! the deque, and everything else (the DDT's pending accesses recorded
//! at execute, a lookup by id) is a binary search over at most a
//! ROB's worth of entries. Iteration is in ascending `RobId` order by
//! construction, which is the order every module scan and the watchdog
//! rely on.

use rse_pipeline::RobId;
use std::collections::VecDeque;

/// A map from [`RobId`] to `T`, kept sorted by `RobId`.
#[derive(Debug, Clone)]
pub struct RobTable<T> {
    entries: VecDeque<(RobId, T)>,
}

impl<T> Default for RobTable<T> {
    fn default() -> RobTable<T> {
        RobTable::new()
    }
}

impl<T> RobTable<T> {
    /// An empty table.
    pub fn new() -> RobTable<T> {
        RobTable {
            entries: VecDeque::new(),
        }
    }

    /// An empty table with room for `capacity` entries before it
    /// reallocates.
    pub fn with_capacity(capacity: usize) -> RobTable<T> {
        RobTable {
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Where `rob` is (`Ok`) or would be inserted (`Err`). The young end
    /// (dispatch, squash) and the old end (commit) are checked before
    /// falling back to a binary search.
    fn position(&self, rob: RobId) -> Result<usize, usize> {
        let len = self.entries.len();
        match self.entries.back() {
            None => return Err(0),
            Some(&(last, _)) if last < rob => return Err(len),
            Some(&(last, _)) if last == rob => return Ok(len - 1),
            Some(_) => {}
        }
        match self.entries.front() {
            Some(&(first, _)) if first == rob => Ok(0),
            Some(&(first, _)) if first > rob => Err(0),
            _ => self.entries.binary_search_by_key(&rob, |&(id, _)| id),
        }
    }

    /// Inserts `value` for `rob`, returning the entry it replaced.
    pub fn insert(&mut self, rob: RobId, value: T) -> Option<T> {
        match self.position(rob) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) if i == self.entries.len() => {
                self.entries.push_back((rob, value));
                None
            }
            Err(i) => {
                self.entries.insert(i, (rob, value));
                None
            }
        }
    }

    /// The entry for `rob`.
    pub fn get(&self, rob: RobId) -> Option<&T> {
        let i = self.position(rob).ok()?;
        Some(&self.entries[i].1)
    }

    /// The entry for `rob`, mutably.
    pub fn get_mut(&mut self, rob: RobId) -> Option<&mut T> {
        let i = self.position(rob).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Removes and returns the entry for `rob`.
    pub fn remove(&mut self, rob: RobId) -> Option<T> {
        let i = self.position(rob).ok()?;
        let entry = if i == 0 {
            self.entries.pop_front()
        } else if i + 1 == self.entries.len() {
            self.entries.pop_back()
        } else {
            self.entries.remove(i)
        };
        entry.map(|(_, value)| value)
    }

    /// Iterates over `(rob, entry)` pairs in ascending `RobId` order,
    /// with the entries mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (RobId, &mut T)> {
        self.entries.iter_mut().map(|(rob, value)| (*rob, value))
    }
}
