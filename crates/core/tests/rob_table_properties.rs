//! Property tests of `RobTable`, the ordered per-instruction table
//! behind the IOQ and the modules' pending-operation maps: under any
//! mix of dispatch-order inserts, out-of-order inserts (the DDT's
//! pending accesses), re-inserts, in-place updates and removes at
//! either end, in the middle or of absent keys, it behaves exactly like
//! a `BTreeMap`, and iteration is always in ascending `RobId` order.

use rse_core::RobTable;
use rse_pipeline::RobId;
use rse_support::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #[test]
    fn rob_table_matches_a_btreemap_model(
        ops in rse_support::collection::vec((0u8..10, 0u64..40, any::<u32>()), 1..300),
    ) {
        let mut table = RobTable::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        // The next dispatch id: above every key inserted so far.
        let mut next = 0u64;
        for (op, k, value) in ops {
            // A key around the live window: up to 31 ids below the next
            // dispatch id (live, retired or squashed) or 8 above it.
            let near = (next + 8).saturating_sub(k);
            match op {
                // Dispatch: the youngest id, appended at the young end.
                0 | 1 => {
                    prop_assert_eq!(table.insert(RobId(next), value), model.insert(next, value));
                    next += 1;
                }
                // Out-of-order insert, or a re-insert replacing the entry.
                2 => {
                    prop_assert_eq!(table.insert(RobId(near), value), model.insert(near, value));
                    next = next.max(near + 1);
                }
                // Commit: the oldest entry.
                3 => {
                    if let Some(&rob) = model.keys().next() {
                        prop_assert_eq!(table.remove(RobId(rob)), model.remove(&rob));
                    }
                }
                // Squash: the youngest entry.
                4 => {
                    if let Some(&rob) = model.keys().next_back() {
                        prop_assert_eq!(table.remove(RobId(rob)), model.remove(&rob));
                    }
                }
                // A live entry anywhere, usually in the middle.
                5 => {
                    if !model.is_empty() {
                        let rob = *model.keys().nth(k as usize % model.len()).expect("in range");
                        prop_assert_eq!(table.remove(RobId(rob)), model.remove(&rob));
                    }
                }
                // A key that may or may not be live.
                6 => {
                    prop_assert_eq!(table.remove(RobId(near)), model.remove(&near));
                }
                // A key that was never inserted.
                7 => {
                    let absent = next + k;
                    prop_assert_eq!(table.remove(RobId(absent)), None);
                    prop_assert!(!model.contains_key(&absent));
                }
                // In-place update through `get_mut`.
                8 => {
                    if let Some(v) = table.get_mut(RobId(near)) {
                        *v ^= value;
                    }
                    if let Some(v) = model.get_mut(&near) {
                        *v ^= value;
                    }
                }
                // Lookups, and an in-place sweep through `iter_mut`.
                _ => {
                    prop_assert_eq!(table.get(RobId(near)), model.get(&near));
                    if value % 4 == 0 {
                        for (rob, v) in table.iter_mut() {
                            *v ^= rob.0 as u32;
                        }
                        for (rob, v) in model.iter_mut() {
                            *v ^= *rob as u32;
                        }
                    }
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            let seen: Vec<(u64, u32)> = table.iter_mut().map(|(rob, v)| (rob.0, *v)).collect();
            prop_assert!(
                seen.windows(2).all(|w| w[0].0 < w[1].0),
                "iteration not ascending: {:?}", seen
            );
            let want: Vec<(u64, u32)> = model.iter().map(|(rob, v)| (*rob, *v)).collect();
            prop_assert_eq!(seen, want);
        }
    }
}
