//! One fleet node: a full pipeline+RSE instance hosting guest workloads,
//! a remote-peer AHBM monitor, replicated peer checkpoints, and the
//! fencing state of the failover protocol.

use crate::protocol::NodeProtocol;
use crate::sim::{LEASE_TIMEOUT, PEER, TICK};
use crate::NodeId;
use rse_inject::{build_harness, ArchSnapshot, Workload};
use rse_isa::asm::assemble;
use rse_isa::Image;
use rse_modules::PeerMonitor;
use rse_pipeline::{CpuContext, Pipeline};
use std::collections::BTreeMap;

pub use crate::protocol::FenceKind;

/// Whether the node process is alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Executing normally.
    Running,
    /// Fail-stopped: no execution, no messages in or out.
    Crashed,
    /// Frozen whole-node hang: guest, heartbeat daemon, and monitor all
    /// stopped; inbound messages are lost.
    Hung,
}

/// One guest workload instance hosted on a node: a private pipeline+RSE
/// engine pair, exactly the single-node campaign harness.
pub struct Guest {
    /// The node whose workload this is (workload ids coincide with their
    /// original owner's node id).
    pub owner: NodeId,
    /// The simulated processor.
    pub cpu: Pipeline,
    /// The RSE engine driving the processor's co-processor interface.
    pub engine: rse_core::Engine,
    /// The assembled program image (symbol lookups for result digests).
    pub image: Image,
    /// Whether the guest has halted (or died).
    pub done: bool,
    /// Result digest at halt ([`rse_inject::result_digest`]).
    pub digest: Option<u64>,
    /// Safe-point syscalls taken so far (doubles as the checkpoint
    /// sequence number).
    pub safe_points: u32,
    /// Global cycle before which the guest must not execute (failover
    /// fence grace for adopted guests).
    pub start_at: u64,
}

impl Guest {
    /// A fresh guest starting the workload from its entry point.
    pub fn fresh(owner: NodeId, w: &Workload) -> Guest {
        let image = assemble(w.source).expect("fleet workload assembles");
        let b = build_harness(w, &image, u64::MAX);
        Guest {
            owner,
            cpu: b.cpu,
            engine: b.engine,
            image,
            done: false,
            digest: None,
            safe_points: 0,
            start_at: 0,
        }
    }

    /// A guest resumed from a replicated [`ArchSnapshot`] (checkpoint
    /// failover): memory restored, caches invalidated, context installed
    /// at the snapshot's safe-point resume PC.
    pub fn from_snapshot(
        owner: NodeId,
        w: &Workload,
        snap: &ArchSnapshot,
        seq: u32,
        start_at: u64,
    ) -> Guest {
        let image = assemble(w.source).expect("fleet workload assembles");
        let mut b = build_harness(w, &image, u64::MAX);
        snap.restore_memory(&mut b.cpu.mem_mut().memory);
        b.cpu.mem_mut().invalidate_caches();
        b.cpu.set_context(&CpuContext {
            regs: snap.regs,
            pc: snap.pc,
        });
        Guest {
            owner,
            cpu: b.cpu,
            engine: b.engine,
            image,
            done: false,
            digest: None,
            safe_points: seq,
            start_at,
        }
    }
}

/// One node of the fleet.
pub struct Node {
    /// Node id (0-based; doubles as its workload id).
    pub id: NodeId,
    /// Liveness ground truth (set by the fault injector).
    pub status: NodeStatus,
    /// The pure fencing/ownership protocol core (see
    /// [`crate::protocol`]); the simulator materializes its decisions.
    pub proto: NodeProtocol,
    /// The remote-peer AHBM: adaptive-timeout suspicion over incoming
    /// heartbeats, keyed by peer id.
    pub monitor: PeerMonitor,
    /// Hosted guests: the node's own workload first, adopted workloads
    /// appended at failover.
    pub guests: Vec<Guest>,
    /// Replicated peer checkpoints: newest `(seq, snapshot)` per peer.
    pub snapshots: BTreeMap<NodeId, (u32, ArchSnapshot)>,
    /// Next idle-daemon heartbeat cycle.
    pub next_idle_beat: u64,
    /// Guest slowdown factor currently in force (1 = nominal).
    pub slow_factor: u64,
    /// Probes to answer with a beat on the next action phase.
    pub pending_probe_replies: Vec<NodeId>,
    /// Rejoin petitions to adjudicate on the next action phase.
    pub pending_rejoins: Vec<NodeId>,
}

impl Node {
    /// Creates node `id` of an `n`-node fleet running workload `w`.
    pub fn new(id: NodeId, n: u16, w: &Workload) -> Node {
        let mut monitor = PeerMonitor::new(PEER);
        for p in 0..n {
            if p != id {
                monitor.register(p, 0);
            }
        }
        Node {
            id,
            status: NodeStatus::Running,
            proto: NodeProtocol::new(id, n),
            monitor,
            guests: vec![Guest::fresh(id, w)],
            snapshots: BTreeMap::new(),
            next_idle_beat: 0,
            slow_factor: 1,
            pending_probe_replies: Vec::new(),
            pending_rejoins: Vec::new(),
        }
    }

    /// Whether the node is fenced (either kind).
    pub fn fenced(&self) -> bool {
        self.proto.fenced()
    }

    /// Whether this node believes it is the recovery coordinator: it is
    /// unfenced and every lower-id node is Dead in its own monitor.
    pub fn believes_coordinator(&self) -> bool {
        self.proto
            .believes_coordinator(|p| self.monitor.state(p) == rse_modules::PeerState::Dead)
    }

    /// The hosted guest for workload `w`, if any.
    pub fn guest_for(&self, w: NodeId) -> Option<&Guest> {
        self.guests.iter().find(|g| g.owner == w)
    }

    /// The earliest cycle at which this node can next change state or
    /// send a message — the event-driven scheduler's wake deadline.
    /// `None` for dead nodes (every further turn is a no-op) and for
    /// nodes with no pending deadline at all.
    ///
    /// The deadline sources mirror the turn phases of
    /// [`crate::FleetSim`]: lease expiry, the suspicion ladder, guest
    /// quanta (a runnable guest advances every tick), the armed
    /// rejoin-petition backoff, and the idle-beat timer. Deliveries are
    /// not represented here — the scheduler grants a same-tick turn for
    /// those separately.
    pub fn wake_deadline(&self, now: u64) -> Option<u64> {
        if self.status != NodeStatus::Running {
            return None;
        }
        let mut next: Option<u64> = None;
        let mut consider = |d: u64| next = Some(next.map_or(d, |n| d.min(n)));
        if !self.proto.fenced() {
            // (a) Lease expiry: the first tick check_lease can fence.
            consider(self.proto.lease_deadline(LEASE_TIMEOUT));
            // (g) Earliest suspicion-ladder transition or probe.
            if let Some(d) = self.monitor.next_deadline() {
                consider(d);
            }
            // (e) A runnable guest advances every tick; a pending
            // adoption starts at its fence-grace boundary.
            for g in &self.guests {
                if g.done {
                    continue;
                }
                consider(if now >= g.start_at {
                    now + TICK
                } else {
                    g.start_at
                });
            }
        }
        // (b) Armed rejoin-petition backoff (self-fenced nodes only).
        if let Some(d) = self.proto.petition_deadline() {
            consider(d);
        }
        // (f) Idle-daemon heartbeat (beats even while fenced).
        consider(self.next_idle_beat);
        next
    }
}
