//! Model of the fleet failover protocol (theorem group 3): the real
//! [`NodeProtocol`] of every node driven through all partition
//! schedules of a class, with split-brain checked on every state and
//! reinstatement checked as a bounded liveness property.
//!
//! Environment abstraction (everything the protocol core does *not*
//! own — network, heartbeats, failure suspicion — is abstracted; every
//! protocol decision runs the real `rse-fleet` code):
//!
//! * One model step = one tick. The adversary picks the partition for
//!   the tick; everything else is deterministic.
//! * Heartbeats are implicit: every node beats every tick (the idle
//!   daemon, which runs even while fenced), so a node's contact lease
//!   refreshes whenever it is connected to anyone.
//! * The per-peer suspicion monitor becomes a silence counter: a peer
//!   unheard for [`FleetModel::detect_after`] consecutive ticks is
//!   declared Dead, and — like the real `PeerMonitor` — the verdict is
//!   sticky until the node itself is reinstated.
//! * Protocol messages are explicit, sent under the current tick's
//!   connectivity (dropped across the cut) and delivered next tick in
//!   deterministic order.
//!
//! The default partition class is single-node isolation *windows*
//! with a per-run budget ([`FleetModel::max_windows`], default 2) —
//! one more than the fleet fault model ([`rse_fleet::fault`]) induces
//! with its one-shot partitions. The budget makes the reachable space
//! finite, so the safety theorem closes **exhaustively**: no
//! split-brain on any schedule of any length with at most two
//! windows. That scope is the honest boundary of the theorem: the
//! checker itself demonstrates that the lease protocol is **not**
//! safe under per-tick target switching
//! ([`PartitionClass::SwitchingIsolation`]: per-pair silence accrues
//! while every lease stays refreshed) nor under arbitrary even splits
//! ([`PartitionClass::AllBipartitions`]: both halves keep their
//! leases) — both counterexamples are pinned in `tests/mutation.rs`
//! and discussed in DESIGN.md.
//!
//! The checker also *found and fixed* a protocol bug here: sticky
//! Dead verdicts survive a third party's reinstatement, so sequential
//! windows on different targets left one node believing a
//! long-reinstated peer dead — a second, stale coordinator that
//! fails over the same victim as the real one (dual adoption,
//! split-brain at depth 16 on 4 nodes). The fix — every node
//! refreshes a Dead verdict when the supposedly dead peer petitions
//! to rejoin — lives in the production simulator
//! (`rse-fleet/src/sim.rs`) and is mirrored in [`FleetModel::tick`];
//! [`FleetModel::no_rejoin_refresh`] reverts it so `tests/mutation.rs`
//! can pin the counterexample's return.

use crate::{Invariant, Model};
use rse_fleet::{FenceKind, NodeId, NodeProtocol, ProtoMsg};
use std::hash::{Hash, Hasher};

/// Which per-tick partitions the adversary may choose from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PartitionClass {
    /// Isolation *windows*: at most one node cut off at a time, and
    /// the target may only change after a fully-connected tick (the
    /// class the fleet fault model's one-shot partitions induce).
    IsolateOne,
    /// Per-tick retargetable isolation. Strictly stronger: alternating
    /// targets accrues per-pair silence while every node's lease stays
    /// refreshed, so the checker finds a split-brain — the
    /// asymmetric-connectivity attack documented in DESIGN.md.
    SwitchingIsolation,
    /// Any bipartition of the nodes. Also knowingly unsafe (two groups
    /// of ≥ 2 both keep their leases); used to demonstrate
    /// counterexample extraction.
    AllBipartitions,
}

/// The per-tick adversary choice.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FEvent {
    /// Fully connected tick.
    Heal,
    /// This node exchanges no messages with anyone this tick.
    Isolate(NodeId),
    /// Bipartition by bitmask: nodes with the same mask bit are
    /// connected (bit 0 of the mask is always set, canonically).
    Split(u16),
}

fn connected(ev: FEvent, i: NodeId, j: NodeId) -> bool {
    match ev {
        FEvent::Heal => true,
        FEvent::Isolate(v) => i != v && j != v,
        FEvent::Split(mask) => (mask >> i) & 1 == (mask >> j) & 1,
    }
}

/// The canonical projection of one node's [`NodeProtocol`]: absolute
/// cycles become saturated deltas and one ordering bit, exactly the
/// quantities the protocol's own comparisons can distinguish.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct NodeCanon {
    fence: FenceKind,
    owners_view: Vec<NodeId>,
    epochs_view: Vec<u32>,
    /// `now - last_inbound`, saturated just past the lease timeout.
    since_inbound: u64,
    /// `next_rejoin_at - now`, clamped at the rejoin backoff.
    rejoin_wait: u64,
    /// `last_inbound > fenced_at` (the petition precondition).
    contact_after_fence: bool,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct FCanon {
    nodes: Vec<NodeCanon>,
    silence: Vec<u64>,
    dead: Vec<bool>,
    hosted: Vec<bool>,
    inbox: Vec<Vec<(NodeId, ProtoMsg)>>,
    last_part: Option<NodeId>,
    windows_used: u32,
}

/// One state of the fleet model.
#[derive(Clone, Debug)]
pub struct FState {
    /// The real protocol core of every node.
    pub protos: Vec<NodeProtocol>,
    /// `silence[j*n + i]`: ticks since node `j` heard node `i`,
    /// saturated just past the detection threshold.
    pub silence: Vec<u64>,
    /// `dead[j*n + i]`: node `j`'s sticky Dead verdict for node `i`.
    pub dead: Vec<bool>,
    /// `hosted[i*n + w]`: node `i` hosts workload `w` (its own from the
    /// start, adopted ones after a failover). Fencing stops execution
    /// but does not un-host.
    pub hosted: Vec<bool>,
    /// Messages in flight to each node, delivered next tick (sorted
    /// for determinism).
    pub inbox: Vec<Vec<(NodeId, ProtoMsg)>>,
    /// The node isolated last tick, if any — constrains the next
    /// choice under [`PartitionClass::IsolateOne`] (a window's target
    /// cannot change without an intervening heal).
    pub last_part: Option<NodeId>,
    /// Partition windows started so far, saturated at the model's
    /// budget (only the `< max_windows` comparison matters).
    pub windows_used: u32,
    /// Absolute model time (canonicalized into deltas).
    pub now: u64,
    canon: FCanon,
}

impl PartialEq for FState {
    fn eq(&self, other: &FState) -> bool {
        self.canon == other.canon
    }
}

impl Eq for FState {}

impl Hash for FState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canon.hash(state);
    }
}

impl FState {
    /// Whether node `j` believes it is the recovery coordinator, using
    /// its sticky Dead verdicts as the suspicion oracle.
    pub fn believes_coordinator(&self, j: NodeId) -> bool {
        let n = self.protos.len();
        self.protos[usize::from(j)]
            .believes_coordinator(|p| self.dead[usize::from(j) * n + usize::from(p)])
    }
}

/// The fleet model configuration.
pub struct FleetModel {
    /// Fleet size.
    pub n: u16,
    /// Contact-lease timeout in ticks (must sit below `detect_after`
    /// so an isolated node self-fences before anyone declares it dead
    /// — the invariant the real fleet's `LEASE_TIMEOUT` `const`
    /// assertion checks).
    pub lease_timeout: u64,
    /// Consecutive silent ticks after which a peer is declared Dead.
    pub detect_after: u64,
    /// Rejoin petition backoff in ticks.
    pub rejoin_backoff: u64,
    /// The adversary's partition class.
    pub partitions: PartitionClass,
    /// Partition-window budget for [`PartitionClass::IsolateOne`]: how
    /// many isolation windows one run may contain. The fleet fault
    /// model injects exactly one window per run; the theorem proves
    /// two for margin. Unbounded window schedules defeat *any*
    /// asynchronous reconciliation (the adversary can time 1-tick
    /// isolations to drop every rejoin broadcast a particular observer
    /// would have seen, leaving it a stale Dead verdict) — that
    /// boundary is pinned in `tests/mutation.rs`.
    pub max_windows: u32,
    /// Mutation knob: skip the contact-lease self-fence entirely
    /// (deliberately breaks the protocol; the checker must produce a
    /// split-brain counterexample).
    pub no_self_fence: bool,
    /// Mutation knob: skip the rejoin-petition Dead-verdict refresh —
    /// reverts the fix for the checker-found stale-verdict
    /// dual-coordinator split-brain, which must then reappear.
    pub no_rejoin_refresh: bool,
}

impl FleetModel {
    /// The standard model of an `n`-node fleet: lease 1 tick,
    /// detection after 3, rejoin backoff 2, single-node partitions.
    pub fn standard(n: u16) -> FleetModel {
        FleetModel {
            n,
            lease_timeout: 1,
            detect_after: 3,
            rejoin_backoff: 2,
            partitions: PartitionClass::IsolateOne,
            max_windows: 2,
            no_self_fence: false,
            no_rejoin_refresh: false,
        }
    }

    /// The adversary's choices for one tick from state `s`.
    pub fn events(&self, s: &FState) -> Vec<FEvent> {
        let mut out = vec![FEvent::Heal];
        match self.partitions {
            PartitionClass::IsolateOne => match s.last_part {
                // Mid-window: continue it or heal.
                Some(v) => out.push(FEvent::Isolate(v)),
                // Healed: a new window may target anyone, budget
                // permitting.
                None if s.windows_used < self.max_windows => {
                    out.extend((0..self.n).map(FEvent::Isolate));
                }
                None => {}
            },
            PartitionClass::SwitchingIsolation => {
                out.extend((0..self.n).map(FEvent::Isolate));
            }
            PartitionClass::AllBipartitions => {
                let full = (1u16 << self.n) - 1;
                out.extend((1..full).filter(|mask| mask & 1 == 1).map(FEvent::Split));
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn mk(
        &self,
        protos: Vec<NodeProtocol>,
        silence: Vec<u64>,
        dead: Vec<bool>,
        hosted: Vec<bool>,
        inbox: Vec<Vec<(NodeId, ProtoMsg)>>,
        last_part: Option<NodeId>,
        windows_used: u32,
        now: u64,
    ) -> FState {
        let nodes = protos
            .iter()
            .map(|p| NodeCanon {
                fence: p.fence,
                owners_view: p.owners_view.clone(),
                epochs_view: p.epochs_view.clone(),
                since_inbound: now
                    .saturating_sub(p.last_inbound)
                    .min(self.lease_timeout + 1),
                rejoin_wait: p
                    .next_rejoin_at
                    .saturating_sub(now)
                    .min(self.rejoin_backoff),
                contact_after_fence: p.last_inbound > p.fenced_at,
            })
            .collect();
        let canon = FCanon {
            nodes,
            silence: silence.clone(),
            dead: dead.clone(),
            hosted: hosted.clone(),
            inbox: inbox.clone(),
            last_part,
            windows_used,
        };
        FState {
            protos,
            silence,
            dead,
            hosted,
            inbox,
            last_part,
            windows_used,
            now,
            canon,
        }
    }

    /// The single initial state: everyone healthy, connected, hosting
    /// its own workload.
    pub fn initial(&self) -> FState {
        let n = usize::from(self.n);
        let protos = (0..self.n).map(|i| NodeProtocol::new(i, self.n)).collect();
        let mut hosted = vec![false; n * n];
        for i in 0..n {
            hosted[i * n + i] = true;
        }
        self.mk(
            protos,
            vec![0; n * n],
            vec![false; n * n],
            hosted,
            vec![Vec::new(); n],
            None,
            0,
            0,
        )
    }

    /// One deterministic tick under the chosen partition.
    pub fn tick(&self, s: &FState, ev: FEvent) -> FState {
        let n = usize::from(self.n);
        let now = s.now + 1;
        let mut protos = s.protos.clone();
        let mut silence = s.silence.clone();
        let mut dead = s.dead.clone();
        let mut hosted = s.hosted.clone();
        let mut sends: Vec<(NodeId, NodeId, ProtoMsg)> = Vec::new();

        // Phase 1 — implicit heartbeats: silence counters and leases.
        for j in 0..n {
            let mut heard = false;
            for i in 0..n {
                if i == j {
                    continue;
                }
                let cell = &mut silence[j * n + i];
                if connected(ev, i as NodeId, j as NodeId) {
                    *cell = 0;
                    heard = true;
                } else {
                    *cell = (*cell + 1).min(self.detect_after + 1);
                }
            }
            if heard {
                protos[j].note_inbound(now);
            }
        }

        // Phase 2 — deliver last tick's messages (already past the
        // cut, so delivery is unconditional and in sorted order).
        let mut rejoins: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for j in 0..n {
            for &(src, msg) in &s.inbox[j] {
                protos[j].note_inbound(now);
                match msg {
                    ProtoMsg::Announce {
                        dead: d,
                        epoch,
                        successor,
                    } => protos[j].on_announce(now, d, epoch, successor),
                    ProtoMsg::Fence => protos[j].on_fence(now),
                    ProtoMsg::Rejoin => rejoins[j].push(src),
                    ProtoMsg::Reinstate => {
                        if protos[j].on_reinstate() {
                            // Fresh suspicion grace, as the simulator
                            // grants via PeerMonitor::reinstate.
                            for i in 0..n {
                                dead[j * n + i] = false;
                                silence[j * n + i] = 0;
                            }
                        }
                    }
                }
            }
        }

        // Phases 3+4 — node turns in id order, mirroring the
        // simulator's per-node sequence: lease, petition, adjudicate,
        // sample/declare, failover.
        for j in 0..n {
            let id = j as NodeId;
            if !self.no_self_fence {
                protos[j].check_lease(now, self.lease_timeout);
            }
            if protos[j].should_petition(now, self.rejoin_backoff) {
                for q in 0..self.n {
                    if q != id {
                        sends.push((id, q, ProtoMsg::Rejoin));
                    }
                }
            }
            // Adjudication sees the pre-sample suspicion view, like
            // the simulator's step (c) before step (g).
            if protos[j].believes_coordinator(|p| dead[j * n + usize::from(p)]) {
                for &req in &rejoins[j] {
                    let reply = protos[j].adjudicate_rejoin(req);
                    sends.push((id, req, reply));
                }
            }
            // A rejoin petition is direct evidence the petitioner is
            // alive: refresh a sticky Dead verdict (mirrors the
            // simulator's post-adjudication PeerMonitor::reinstate of
            // Dead petitioners — the fix for the checker-found
            // stale-verdict dual-coordinator split-brain).
            if !self.no_rejoin_refresh {
                for &req in &rejoins[j] {
                    let cell = j * n + usize::from(req);
                    if dead[cell] {
                        dead[cell] = false;
                        silence[cell] = 0;
                    }
                }
            }
            // Suspicion sampling: fenced nodes must not declare.
            let mut newly: Vec<NodeId> = Vec::new();
            if !protos[j].fenced() {
                for i in 0..n {
                    if i != j && silence[j * n + i] >= self.detect_after && !dead[j * n + i] {
                        dead[j * n + i] = true;
                        newly.push(i as NodeId);
                    }
                }
            }
            if protos[j].believes_coordinator(|p| dead[j * n + usize::from(p)]) {
                for v in newly {
                    if let Some(order) = protos[j].failover(v) {
                        hosted[j * n + usize::from(v)] = true;
                        sends.push((id, v, ProtoMsg::Fence));
                        for q in 0..self.n {
                            if q != id && q != v {
                                sends.push((
                                    id,
                                    q,
                                    ProtoMsg::Announce {
                                        dead: v,
                                        epoch: order.epoch,
                                        successor: id,
                                    },
                                ));
                            }
                        }
                    }
                }
            }
        }

        // Sends cross the current tick's cut (or are lost on it) and
        // land in next tick's inboxes.
        let mut inbox: Vec<Vec<(NodeId, ProtoMsg)>> = vec![Vec::new(); n];
        for (src, dst, msg) in sends {
            if connected(ev, src, dst) {
                inbox[usize::from(dst)].push((src, msg));
            }
        }
        for b in &mut inbox {
            b.sort_unstable();
        }

        let last_part = match ev {
            FEvent::Isolate(v) => Some(v),
            FEvent::Heal | FEvent::Split(_) => None,
        };
        // A window opens when isolation targets a node that was not
        // already the open window's target. Saturate at the budget:
        // only the `< max_windows` comparison is ever made.
        let windows_used = match ev {
            FEvent::Isolate(v) if s.last_part != Some(v) => {
                (s.windows_used + 1).min(self.max_windows.max(1))
            }
            _ => s.windows_used,
        };
        self.mk(
            protos,
            silence,
            dead,
            hosted,
            inbox,
            last_part,
            windows_used,
            now,
        )
    }
}

impl Model for FleetModel {
    type State = FState;
    type Event = FEvent;

    fn initial_states(&self) -> Vec<FState> {
        vec![self.initial()]
    }

    fn step(&self, s: &FState) -> Vec<(FEvent, FState)> {
        self.events(s)
            .into_iter()
            .map(|ev| (ev, self.tick(s, ev)))
            .collect()
    }

    fn invariants(&self) -> Vec<Invariant<FState>> {
        let n = usize::from(self.n);
        vec![Invariant::new("split-brain", move |s: &FState| {
            (0..n).all(|w| {
                (0..n)
                    .filter(|&i| s.hosted[i * n + w] && !s.protos[i].fenced())
                    .count()
                    <= 1
            })
        })]
    }
}

/// The heal-only restriction of a fleet model: the unique successor of
/// every state is the fully-connected tick. Used as the path model of
/// the reinstatement liveness theorem (sources come from the *full*
/// model's reachable set).
pub struct HealedFleet<'a>(pub &'a FleetModel);

impl Model for HealedFleet<'_> {
    type State = FState;
    type Event = FEvent;

    fn initial_states(&self) -> Vec<FState> {
        self.0.initial_states()
    }

    fn step(&self, s: &FState) -> Vec<(FEvent, FState)> {
        vec![(FEvent::Heal, self.0.tick(s, FEvent::Heal))]
    }

    fn invariants(&self) -> Vec<Invariant<FState>> {
        Vec::new()
    }
}
