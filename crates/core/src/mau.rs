//! The Memory Access Unit (MAU) of §3.2.
//!
//! "Some checks necessitate that the module make an independent memory
//! request. This hardware unit provides memory access for RSE modules and
//! thus eliminates the need for a bus interface unit in each module."
//!
//! A module places a request consisting of an address, the access type
//! (load/store) and a byte count. The MAU numbers the requests in the
//! order it accepts them and hands the number back as the request's
//! ticket, which the completion carries (the paper's tag). A module
//! keeps the ticket and matches a reply to its request by it, never by
//! the CHECK's `RobId`: a squashed CHECK's transfer still completes, by
//! which time its id may belong to another CHECK. Requests sit in a
//! queue serviced cyclically, one at a time; each transfer goes over the
//! shared external bus with *lower* priority than the pipeline (the
//! arbiter of Figure 1), and deliberately bypasses the caches so
//! framework traffic never pollutes application cache state.

use rse_isa::ModuleId;
use rse_mem::MemorySystem;
use std::collections::VecDeque;

/// The access type of a MAU request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MauOp {
    /// Load `bytes` bytes from memory; delivered with the completion.
    Load {
        /// Number of bytes to read.
        bytes: u32,
    },
    /// Store the given bytes to memory at completion time.
    Store {
        /// The data to write.
        data: Vec<u8>,
    },
}

/// A memory request from a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MauRequest {
    /// The requesting module.
    pub module: ModuleId,
    /// Target memory address.
    pub addr: u32,
    /// Load or store, with payload.
    pub op: MauOp,
}

/// A completed MAU request, delivered back to the owning module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MauCompletion {
    /// The requesting module.
    pub module: ModuleId,
    /// The request's ticket, as [`Mau::submit`] returned it.
    pub tag: u64,
    /// Address of the transfer.
    pub addr: u32,
    /// Data read from memory (empty for stores).
    pub data: Vec<u8>,
    /// Cycle at which the transfer finished.
    pub finished_at: u64,
}

#[derive(Debug)]
struct InFlight {
    ticket: u64,
    request: MauRequest,
    done_at: u64,
}

/// The Memory Access Unit: one outstanding transfer, a cyclically
/// serviced request queue.
#[derive(Debug, Default)]
pub struct Mau {
    /// Accepted requests, with their tickets.
    queue: VecDeque<(u64, MauRequest)>,
    in_flight: Option<InFlight>,
    completions: VecDeque<MauCompletion>,
    /// One-shot injected fault: drop (never deliver) the `index`-th
    /// completion destined for the targeted module — the campaign's
    /// "MAU response drop" model. The transfer itself still happens on
    /// the bus; only the response back to the module is lost.
    drop_fault: Option<(ModuleId, u64)>,
    /// Completions finished per module slot (the index space the drop
    /// fault addresses).
    finished_per_module: [u64; ModuleId::SLOTS],
    /// Requests accepted; the next request's ticket.
    pub requests: u64,
    /// Transfers finished.
    pub completed: u64,
    /// Total bytes moved.
    pub bytes_moved: u64,
    /// Injected completion drops that fired.
    pub drops: u64,
}

impl Mau {
    /// Creates an idle MAU.
    pub fn new() -> Mau {
        Mau::default()
    }

    /// Queues a request from a module and returns its ticket: the
    /// request's index among all requests accepted. The completion
    /// carries it back as [`MauCompletion::tag`].
    pub fn submit(&mut self, request: MauRequest) -> u64 {
        let ticket = self.requests;
        self.requests += 1;
        self.queue.push_back((ticket, request));
        ticket
    }

    /// Number of queued (not yet started) requests.
    pub fn pending(&self) -> usize {
        self.queue.len() + usize::from(self.in_flight.is_some())
    }

    /// Arms (or clears) a one-shot completion drop: the `index`-th
    /// completion finished for `module` is silently discarded.
    pub fn inject_drop(&mut self, fault: Option<(ModuleId, u64)>) {
        self.drop_fault = fault;
    }

    /// Completions finished for `module` so far (including dropped
    /// ones) — the index space [`Mau::inject_drop`] addresses.
    pub fn finished_for(&self, module: ModuleId) -> u64 {
        self.finished_per_module[module.index()]
    }

    /// Advances the MAU by one cycle: starts the next transfer if the
    /// unit is idle and finishes the current one when the bus delivers.
    pub fn tick(&mut self, now: u64, mem: &mut MemorySystem) {
        if let Some(fl) = &self.in_flight {
            if now >= fl.done_at {
                let fl = self.in_flight.take().expect("checked above");
                let MauRequest { module, addr, op } = fl.request;
                let data = match op {
                    MauOp::Load { bytes } => {
                        let mut buf = vec![0u8; bytes as usize];
                        mem.memory.read_bytes(addr, &mut buf);
                        buf
                    }
                    MauOp::Store { data } => {
                        mem.memory.write_bytes(addr, &data);
                        self.bytes_moved += data.len() as u64;
                        Vec::new()
                    }
                };
                self.bytes_moved += data.len() as u64;
                self.completed += 1;
                let nth = self.finished_per_module[module.index()];
                self.finished_per_module[module.index()] += 1;
                if self.drop_fault == Some((module, nth)) {
                    // The response back to the module is lost in transit:
                    // the module's buffer fill never arrives.
                    self.drop_fault = None;
                    self.drops += 1;
                } else {
                    self.completions.push_back(MauCompletion {
                        module,
                        tag: fl.ticket,
                        addr,
                        data,
                        finished_at: now,
                    });
                }
            }
        }
        if self.in_flight.is_none() {
            if let Some((ticket, request)) = self.queue.pop_front() {
                let bytes = match &request.op {
                    MauOp::Load { bytes } => *bytes,
                    MauOp::Store { data } => data.len() as u32,
                };
                let done_at = mem.mau_access(now, bytes);
                self.in_flight = Some(InFlight {
                    ticket,
                    request,
                    done_at,
                });
            }
        }
    }

    /// Drains the completion destined for `module`, if any is ready.
    pub fn take_completion(&mut self, module: ModuleId) -> Option<MauCompletion> {
        let idx = self.completions.iter().position(|c| c.module == module)?;
        self.completions.remove(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_mem::MemConfig;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemConfig::with_framework())
    }

    #[test]
    fn load_round_trips_through_memory() {
        let mut mem = mem();
        mem.memory.write_u32(0x1000, 0xDEAD_BEEF);
        let mut mau = Mau::new();
        let ticket = mau.submit(MauRequest {
            module: ModuleId::ICM,
            addr: 0x1000,
            op: MauOp::Load { bytes: 4 },
        });
        let mut now = 0;
        let comp = loop {
            mau.tick(now, &mut mem);
            if let Some(c) = mau.take_completion(ModuleId::ICM) {
                break c;
            }
            now += 1;
            assert!(now < 1000, "MAU never completed");
        };
        assert_eq!(comp.tag, ticket);
        assert_eq!(
            u32::from_le_bytes(comp.data.try_into().unwrap()),
            0xDEAD_BEEF
        );
        // 4 bytes = one chunk at 19 cycles with the arbiter config.
        assert!(comp.finished_at >= 19);
    }

    #[test]
    fn store_writes_memory_at_completion() {
        let mut mem = mem();
        let mut mau = Mau::new();
        mau.submit(MauRequest {
            module: ModuleId::MLR,
            addr: 0x2000,
            op: MauOp::Store {
                data: vec![1, 2, 3, 4],
            },
        });
        mau.tick(0, &mut mem);
        // Not yet written mid-flight.
        assert_eq!(mem.memory.read_u32(0x2000), 0);
        for now in 1..100 {
            mau.tick(now, &mut mem);
        }
        assert_eq!(mem.memory.read_u32(0x2000), 0x0403_0201);
        assert!(mau.take_completion(ModuleId::MLR).is_some());
    }

    #[test]
    fn requests_service_in_order_one_at_a_time() {
        let mut mem = mem();
        let mut mau = Mau::new();
        let tickets: Vec<u64> = (0..3u32)
            .map(|i| {
                mau.submit(MauRequest {
                    module: ModuleId::DDT,
                    addr: 0x3000 + 8 * i,
                    op: MauOp::Load { bytes: 8 },
                })
            })
            .collect();
        // Tickets number the requests in the order they were accepted.
        assert_eq!(tickets, vec![0, 1, 2]);
        assert_eq!(mau.pending(), 3);
        let mut tags = Vec::new();
        for now in 0..200 {
            mau.tick(now, &mut mem);
            while let Some(c) = mau.take_completion(ModuleId::DDT) {
                tags.push(c.tag);
            }
        }
        assert_eq!(tags, tickets);
        assert_eq!(mau.pending(), 0);
        assert_eq!(mau.completed, 3);
    }

    #[test]
    fn injected_drop_discards_exactly_one_completion() {
        let mut mem = mem();
        let mut mau = Mau::new();
        let tickets: Vec<u64> = (0..3u32)
            .map(|i| {
                mau.submit(MauRequest {
                    module: ModuleId::ICM,
                    addr: 0x3000 + 8 * i,
                    op: MauOp::Load { bytes: 8 },
                })
            })
            .collect();
        mau.inject_drop(Some((ModuleId::ICM, 1)));
        let mut tags = Vec::new();
        for now in 0..300 {
            mau.tick(now, &mut mem);
            while let Some(c) = mau.take_completion(ModuleId::ICM) {
                tags.push(c.tag);
            }
        }
        // The middle completion vanished; the transfer still counted.
        assert_eq!(tags, vec![tickets[0], tickets[2]]);
        assert_eq!(mau.completed, 3);
        assert_eq!(mau.drops, 1);
        assert_eq!(mau.finished_for(ModuleId::ICM), 3);
    }

    #[test]
    fn drop_targeting_other_module_never_fires() {
        let mut mem = mem();
        let mut mau = Mau::new();
        mau.inject_drop(Some((ModuleId::DDT, 0)));
        let ticket = mau.submit(MauRequest {
            module: ModuleId::ICM,
            addr: 0,
            op: MauOp::Load { bytes: 4 },
        });
        for now in 0..200 {
            mau.tick(now, &mut mem);
        }
        assert_eq!(mau.take_completion(ModuleId::ICM).unwrap().tag, ticket);
        assert_eq!(mau.drops, 0);
    }

    #[test]
    fn completions_routed_per_module() {
        let mut mem = mem();
        let mut mau = Mau::new();
        let icm = mau.submit(MauRequest {
            module: ModuleId::ICM,
            addr: 0,
            op: MauOp::Load { bytes: 4 },
        });
        let ddt = mau.submit(MauRequest {
            module: ModuleId::DDT,
            addr: 4,
            op: MauOp::Load { bytes: 4 },
        });
        for now in 0..200 {
            mau.tick(now, &mut mem);
        }
        assert!(mau.take_completion(ModuleId::MLR).is_none());
        assert_eq!(mau.take_completion(ModuleId::DDT).unwrap().tag, ddt);
        assert_eq!(mau.take_completion(ModuleId::ICM).unwrap().tag, icm);
    }
}
