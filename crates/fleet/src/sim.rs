//! The deterministic fleet simulator: tick loop, protocol logic, and
//! omniscient outcome classification.
//!
//! One [`FleetSim`] instance runs one fleet to completion. Every node
//! advances its guests by one quantum per tick, exchanges messages over
//! the lossy [`crate::Network`], and drives its remote-peer
//! [`PeerMonitor`](rse_modules::PeerMonitor). The simulator itself is
//! the omniscient observer: it tracks ground-truth workload ownership
//! and fault state, so it can classify split-brain (two nodes executing
//! the same workload outside the fencing grace window) and false
//! suspicion (a Dead declaration not justified by any injected fault)
//! exactly.
//!
//! # The failover + fencing protocol
//!
//! * Every node heartbeats all peers at its guest's safe-point syscalls
//!   (plus an idle daemon beat when the guest is quiet), and replicates
//!   an [`ArchSnapshot`] of its own workload every `snapshot_every`
//!   safe points.
//! * The per-node [`PeerMonitor`](rse_modules::PeerMonitor) escalates
//!   a quiet peer Alive → Suspect → (probes with exponential backoff) →
//!   Dead.
//! * The *recovery coordinator* — the lowest-id unfenced node that
//!   believes every lower id Dead — reacts to a Dead declaration by
//!   bumping the workload's fencing epoch, adopting the newest
//!   replicated snapshot, sending the victim a [`Payload::Fence`]
//!   order, and broadcasting [`Payload::Announce`] to the rest.
//! * The adopted guest only starts `fence_grace` cycles later, covering
//!   the fence order's network delay so victim and successor never
//!   execute the same workload concurrently.
//! * A node that loses *all* inbound traffic for `lease_timeout` cycles
//!   self-fences (probable partition): it stops executing guests and
//!   stops declaring peers. `lease_timeout` is strictly below the
//!   suspicion ladder's detection latency, so a partitioned node fences
//!   itself before any survivor can have adopted its workload.
//! * A self-fenced node that regains contact petitions
//!   [`Payload::Rejoin`]; the coordinator replies
//!   [`Payload::Reinstate`] only if the petitioner's workload was never
//!   reassigned, and a permanent [`Payload::Fence`] otherwise.
//!
//! # Determinism
//!
//! Nodes act in sorted id order, guests in adoption order, network
//! deliveries in `(deliver_at, send seq)` order, and monitor events in
//! sorted peer order; every random draw happens inside
//! [`crate::Network::send`] in that deterministic send order. Hence the
//! whole fleet history is a pure function of `(config, seed, fault)`.
//!
//! # Event-driven scheduling
//!
//! The default [`Scheduler::Event`] engine replaces the per-cycle
//! lockstep loop with a discrete-event queue while producing the exact
//! same history (the `--smoke` golden is byte-identical across both
//! engines, and CI diffs them). Every lockstep observable lives on the
//! tick grid (`now = 0, tick, 2·tick, …`), so the event engine only
//! processes *grid ticks that can change state*:
//!
//! * a **delivery** event at the grid tick covering each queued
//!   message's arrival (receivers get a same-tick turn, exactly as the
//!   lockstep turn after a delivery reacted the same tick),
//! * a **fault** event at the injected fault's activation tick,
//! * per-node **wake** events at the earliest of the node's deadlines —
//!   lease expiry ([`crate::NodeProtocol::lease_deadline`]), rejoin
//!   backoff ([`crate::NodeProtocol::petition_deadline`]), suspicion
//!   ladder ([`rse_modules::PeerMonitor::next_deadline`]), idle-beat
//!   timer, and next guest quantum while a guest is runnable.
//!
//! Every tick the event engine skips is a tick on which the lockstep
//! loop's turn provably does nothing: no due message, no expired
//! deadline, no runnable guest ⇒ no state change and no send. Stale or
//! extra wakes are harmless for the same reason. The lockstep loop is
//! kept as [`Scheduler::Lockstep`], the equivalence shim CI replays.

use crate::event::{align_up, EventQueue};
use crate::fault::{FleetProfile, NodeFault};
use crate::net::{Message, NetConfig, NetStats, Network, Payload};
use crate::node::{Guest, Node, NodeStatus};
use crate::protocol::ProtoMsg;
use crate::NodeId;
use rse_inject::{fleet_workload, result_digest, ArchSnapshot, Outcome, RecoveryStatus, Workload};
use rse_modules::{AhbmConfig, PeerConfig, PeerEvent};
use rse_support::rng::splitmix64;

/// Which execution engine drives the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Discrete-event engine: nodes wake only for deliveries, deadlines,
    /// and guest quanta. The default; byte-identical to lockstep.
    #[default]
    Event,
    /// The original per-cycle loop: every node gets a turn every tick.
    /// Kept as the equivalence shim CI diffs the event engine against.
    Lockstep,
}

/// One simulation event on the tick grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SimEvent {
    /// The injected fault activates this tick.
    Fault,
    /// At least one queued message is due this tick.
    Deliver,
    /// A node deadline (lease, backoff, suspicion, idle beat, guest
    /// quantum) falls on this tick.
    Wake(NodeId),
}

/// Fleet topology, timing, and protocol parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of nodes (each hosts one workload; ≥ 3 for a meaningful
    /// coordinator election).
    pub nodes: u16,
    /// Tick length: guest cycles advanced per simulation step.
    pub tick: u64,
    /// Extra cycles simulated after every workload resolved (lets
    /// late suspicion events surface before classification).
    pub settle: u64,
    /// Hard cycle budget; exhausted ⇒ the fleet is declared hung.
    pub budget: u64,
    /// Replicate a snapshot every this many safe points.
    pub snapshot_every: u32,
    /// Idle-daemon heartbeat period (fallback when the guest is quiet).
    pub idle_beat_interval: u64,
    /// Contact-lease timeout: a node with no inbound traffic for this
    /// long self-fences. Must be below the suspicion ladder's
    /// detection latency (timeout + probe backoff sum).
    pub lease_timeout: u64,
    /// Delay before an adopted guest starts executing (covers the
    /// fence order's network delay).
    pub fence_grace: u64,
    /// Slack added to a fault's active window when judging whether a
    /// Dead declaration was justified by that fault.
    pub justify_margin: u64,
    /// Remote-peer monitor parameters.
    pub peer: PeerConfig,
    /// Network timing/loss parameters.
    pub net: NetConfig,
    /// Execution engine (event-driven by default).
    pub scheduler: Scheduler,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            nodes: 5,
            tick: 64,
            settle: 6_000,
            budget: 600_000,
            snapshot_every: 4,
            idle_beat_interval: 288,
            lease_timeout: 1_800,
            fence_grace: 256,
            justify_margin: 8_000,
            peer: PeerConfig {
                ahbm: AhbmConfig {
                    sample_interval: 64,
                    min_timeout: 1_500,
                    initial_timeout: 4_000,
                    ..AhbmConfig::default()
                },
                probe_base: 256,
                max_probes: 3,
            },
            net: NetConfig::default(),
            scheduler: Scheduler::Event,
        }
    }
}

/// The classified result of one fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetOutcome {
    /// Outcome class (`Masked`, `Failover(n)`, `FalseSuspicion`,
    /// `SplitBrain`, `Unrecovered`, `Sdc`, `Hang`).
    pub outcome: Outcome,
    /// Recovery verdict.
    pub recovery: RecoveryStatus,
    /// Global cycles the run consumed.
    pub cycles: u64,
    /// Network counters at the end of the run.
    pub net: NetStats,
    /// Total Dead declarations made by any monitor.
    pub declarations: u32,
}

/// One fleet instance mid-flight.
pub struct FleetSim {
    cfg: FleetConfig,
    workload: &'static Workload,
    net: Network,
    nodes: Vec<Node>,
    fault: NodeFault,
    fault_applied: bool,
    now: u64,
    /// Ground-truth workload ownership (omniscient).
    owners: Vec<NodeId>,
    /// Cycle each workload's ownership last moved.
    moved_at: Vec<u64>,
    /// Ground-truth process-death cycle per node (crash or hang).
    died_at: Vec<Option<u64>>,
    /// `(declarer, target, cycle)` of every Dead declaration.
    declarations: Vec<(NodeId, NodeId, u64)>,
    first_snap_sent_at: Option<u64>,
    failover_victim: Option<NodeId>,
    unrecoverable: bool,
    split_brain: bool,
    resolved_at: Option<u64>,
}

impl FleetSim {
    /// Creates a fleet running the shared beat-loop workload, with the
    /// given injected fault. `seed` drives the network's PRNG stream.
    pub fn new(cfg: &FleetConfig, seed: u64, fault: NodeFault) -> FleetSim {
        assert!(cfg.nodes >= 2, "a fleet needs at least two nodes");
        let mut s = seed;
        let net_seed = splitmix64(&mut s);
        let mut net = Network::new(cfg.net, net_seed);
        match fault {
            NodeFault::Partition { node, from, dur } => net.add_partition(node, from, from + dur),
            NodeFault::BeatLoss { node, from, dur } => net.add_beat_loss(node, from, from + dur),
            _ => {}
        }
        let w = fleet_workload();
        let nodes = (0..cfg.nodes)
            .map(|id| Node::new(id, cfg.nodes, w, cfg.peer))
            .collect();
        FleetSim {
            cfg: *cfg,
            workload: w,
            net,
            nodes,
            fault,
            fault_applied: false,
            now: 0,
            owners: (0..cfg.nodes).collect(),
            moved_at: vec![0; usize::from(cfg.nodes)],
            died_at: vec![None; usize::from(cfg.nodes)],
            declarations: Vec::new(),
            first_snap_sent_at: None,
            failover_victim: None,
            unrecoverable: false,
            split_brain: false,
            resolved_at: None,
        }
    }

    /// Global cycle counter.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Immutable node access (tests, classification).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[usize::from(id)]
    }

    /// Applies the injected fault once its cycle is reached.
    fn apply_fault(&mut self) {
        if self.fault_applied {
            return;
        }
        match self.fault {
            NodeFault::Crash { node, at } if self.now >= at => {
                self.nodes[usize::from(node)].status = NodeStatus::Crashed;
                self.died_at[usize::from(node)] = Some(self.now);
                self.fault_applied = true;
            }
            NodeFault::Hang { node, at } if self.now >= at => {
                self.nodes[usize::from(node)].status = NodeStatus::Hung;
                self.died_at[usize::from(node)] = Some(self.now);
                self.fault_applied = true;
            }
            NodeFault::Slow { node, from, factor } if self.now >= from => {
                self.nodes[usize::from(node)].slow_factor = factor;
                self.fault_applied = true;
            }
            // Network faults were installed at construction.
            NodeFault::Partition { .. } | NodeFault::BeatLoss { .. } | NodeFault::None => {
                self.fault_applied = true;
            }
            _ => {}
        }
    }

    /// Delivers every due message to its destination node's protocol
    /// handlers. Messages to non-Running nodes are lost. Returns the
    /// destination of every delivered message — the event engine owes
    /// each a same-tick turn, because the lockstep loop's receiver
    /// reacted (probe replies, rejoin adjudication, refreshed deadlines)
    /// on the delivery tick itself.
    fn deliver(&mut self) -> Vec<NodeId> {
        let now = self.now;
        let mut touched = Vec::new();
        for msg in self.net.deliver_due(now) {
            touched.push(msg.dst);
            let node = &mut self.nodes[usize::from(msg.dst)];
            if node.status != NodeStatus::Running {
                continue; // crashed / hung: inbound is lost
            }
            node.proto.note_inbound(now);
            match msg.payload {
                Payload::Beat => node.monitor.beat(msg.src, now),
                Payload::Probe => node.pending_probe_replies.push(msg.src),
                Payload::Snap { seq, snap } => {
                    let newer = node
                        .snapshots
                        .get(&msg.src)
                        .is_none_or(|&(have, _)| seq > have);
                    if newer {
                        node.snapshots.insert(msg.src, (seq, snap));
                    }
                }
                Payload::Announce {
                    dead,
                    epoch,
                    successor,
                } => node.proto.on_announce(now, dead, epoch, successor),
                Payload::Fence => node.proto.on_fence(now),
                Payload::Rejoin => node.pending_rejoins.push(msg.src),
                Payload::Reinstate => {
                    if node.proto.on_reinstate() {
                        // Fresh suspicion grace for every peer: last-beat
                        // state from before the fence is stale.
                        for p in node.monitor.peer_ids() {
                            node.monitor.reinstate(p, now);
                        }
                    }
                }
            }
        }
        touched
    }

    /// One node's protocol + guest-execution turn. Returns the delivery
    /// cycle of every message the turn put on the wire (the event engine
    /// schedules a delivery event for each).
    fn node_turn(&mut self, i: usize) -> Vec<u64> {
        let now = self.now;
        let cfg = self.cfg;
        let n = cfg.nodes;
        let mut outbox: Vec<Message> = Vec::new();
        let mut adoptions: Vec<NodeId> = Vec::new();
        {
            let node = &mut self.nodes[i];
            if node.status != NodeStatus::Running {
                return Vec::new();
            }
            let id = node.id;

            // (a) Contact lease: no inbound for too long ⇒ self-fence.
            node.proto.check_lease(now, cfg.lease_timeout);

            // (b) Regained contact while self-fenced ⇒ petition to rejoin
            // (the petition backoff reuses the lease timeout).
            if node.proto.should_petition(now, cfg.lease_timeout) {
                for p in 0..n {
                    if p != id {
                        outbox.push(Message {
                            src: id,
                            dst: p,
                            payload: Payload::Rejoin,
                        });
                    }
                }
            }

            // (c) Adjudicate rejoin petitions (coordinator only).
            let petitions = std::mem::take(&mut node.pending_rejoins);
            if node.believes_coordinator() {
                for &req in &petitions {
                    let payload = match node.proto.adjudicate_rejoin(req) {
                        ProtoMsg::Reinstate => Payload::Reinstate,
                        _ => Payload::Fence,
                    };
                    outbox.push(Message {
                        src: id,
                        dst: req,
                        payload,
                    });
                }
            }
            // A rejoin petition is direct evidence the petitioner's
            // process is alive, so refresh a sticky Dead verdict for
            // it. Without this, a node that missed a reinstatement
            // keeps a stale Dead verdict, later promotes itself to a
            // second coordinator, and a concurrent failover
            // split-brains the fleet (found by the rse-mc checker).
            for req in petitions {
                if node.monitor.state(req) == rse_modules::PeerState::Dead {
                    node.monitor.reinstate(req, now);
                }
            }

            // (d) Answer liveness probes with a beat.
            for p in std::mem::take(&mut node.pending_probe_replies) {
                outbox.push(Message {
                    src: id,
                    dst: p,
                    payload: Payload::Beat,
                });
            }

            // (e) Advance hosted guests (fenced nodes execute nothing).
            if !node.proto.fenced() {
                let quantum = (cfg.tick / node.slow_factor.max(1)).max(1);
                for g in node.guests.iter_mut() {
                    if g.done || now < g.start_at {
                        continue;
                    }
                    // Omniscient split-brain check: executing a workload
                    // someone else owns, outside the fencing grace window.
                    let w = usize::from(g.owner);
                    if self.owners[w] != id && now > self.moved_at[w] + cfg.fence_grace {
                        self.split_brain = true;
                    }
                    match g.cpu.run(&mut g.engine, quantum) {
                        rse_pipeline::StepEvent::Syscall => {
                            g.safe_points += 1;
                            let primary = g.owner == id;
                            if primary {
                                // Safe point doubles as a heartbeat.
                                for p in 0..n {
                                    if p != id {
                                        outbox.push(Message {
                                            src: id,
                                            dst: p,
                                            payload: Payload::Beat,
                                        });
                                    }
                                }
                                node.next_idle_beat =
                                    now + cfg.idle_beat_interval * node.slow_factor.max(1);
                                if g.safe_points % cfg.snapshot_every == 0 {
                                    let ctx = g.cpu.context();
                                    let snap = ArchSnapshot::capture(
                                        &ctx.regs,
                                        ctx.pc,
                                        &g.cpu.mem().memory,
                                    );
                                    if self.first_snap_sent_at.is_none() {
                                        self.first_snap_sent_at = Some(now);
                                    }
                                    for p in 0..n {
                                        if p != id {
                                            outbox.push(Message {
                                                src: id,
                                                dst: p,
                                                payload: Payload::Snap {
                                                    seq: g.safe_points,
                                                    snap: snap.clone(),
                                                },
                                            });
                                        }
                                    }
                                }
                            }
                            g.cpu.resume(None);
                        }
                        rse_pipeline::StepEvent::Halted => {
                            g.done = true;
                            g.digest = Some(result_digest(self.workload, &g.cpu, &g.image));
                        }
                        rse_pipeline::StepEvent::Exception(_) => {
                            g.done = true;
                            g.digest = None;
                        }
                        rse_pipeline::StepEvent::Timeout => {}
                    }
                }
            }

            // (f) Idle-daemon heartbeat (runs even while fenced: the node
            // process is alive, only its workloads are quarantined). A
            // slow node's daemon is slowed too — its beats stretch, and
            // the peers' adaptive timeouts must absorb that.
            if now >= node.next_idle_beat {
                for p in 0..n {
                    if p != id {
                        outbox.push(Message {
                            src: id,
                            dst: p,
                            payload: Payload::Beat,
                        });
                    }
                }
                node.next_idle_beat = now + cfg.idle_beat_interval * node.slow_factor.max(1);
            }

            // (g) Failure suspicion (fenced nodes must not declare).
            if !node.proto.fenced() {
                node.monitor.sample(now);
                for ev in node.monitor.take_events() {
                    match ev {
                        PeerEvent::Suspected(_) | PeerEvent::Refuted(_) => {}
                        PeerEvent::ProbeRequest(p) => outbox.push(Message {
                            src: id,
                            dst: p,
                            payload: Payload::Probe,
                        }),
                        PeerEvent::DeclaredDead(p) => {
                            self.declarations.push((id, p, now));
                            let order = if node.believes_coordinator() {
                                // Coordinator failover: fence the victim,
                                // bump the epoch, adopt the workload.
                                node.proto.failover(p)
                            } else {
                                None
                            };
                            if let Some(order) = order {
                                let pw = usize::from(p);
                                self.owners[pw] = id;
                                self.moved_at[pw] = now;
                                if self.failover_victim.is_none() {
                                    self.failover_victim = Some(p);
                                }
                                outbox.push(Message {
                                    src: id,
                                    dst: p,
                                    payload: Payload::Fence,
                                });
                                for q in 0..n {
                                    if q != id && q != p {
                                        outbox.push(Message {
                                            src: id,
                                            dst: q,
                                            payload: Payload::Announce {
                                                dead: p,
                                                epoch: order.epoch,
                                                successor: id,
                                            },
                                        });
                                    }
                                }
                                adoptions.push(p);
                            }
                        }
                    }
                }
            }

            // Adopt failed-over workloads from their newest replicated
            // snapshot; no snapshot ⇒ the workload is unrecoverable.
            for p in adoptions {
                match node.snapshots.get(&p) {
                    Some(&(seq, ref snap)) => {
                        let g = Guest::from_snapshot(
                            p,
                            self.workload,
                            snap,
                            seq,
                            now + cfg.fence_grace,
                        );
                        node.guests.push(g);
                    }
                    None => self.unrecoverable = true,
                }
            }
        }
        let mut deliveries = Vec::new();
        for m in outbox {
            if let Some(at) = self.net.send(now, m) {
                deliveries.push(at);
            }
        }
        deliveries
    }

    /// Whether workload `w` has reached its terminal state.
    fn workload_resolved(&self, w: NodeId) -> bool {
        if self.unrecoverable && self.failover_victim == Some(w) {
            return true; // orphaned: terminally unrecoverable
        }
        let owner = self.owners[usize::from(w)];
        self.nodes[usize::from(owner)]
            .guest_for(w)
            .is_some_and(|g| g.done)
    }

    /// Runs the fleet until every workload resolved (plus the settle
    /// window) or the budget is exhausted, on the configured engine.
    fn run_raw(&mut self) {
        match self.cfg.scheduler {
            Scheduler::Event => self.run_event(),
            Scheduler::Lockstep => self.run_lockstep(),
        }
    }

    /// The original per-cycle loop: every node gets a turn every tick.
    fn run_lockstep(&mut self) {
        loop {
            self.apply_fault();
            self.deliver();
            for i in 0..usize::from(self.cfg.nodes) {
                self.node_turn(i);
            }
            if self.resolved_at.is_none() && (0..self.cfg.nodes).all(|w| self.workload_resolved(w))
            {
                self.resolved_at = Some(self.now);
            }
            self.now += self.cfg.tick;
            if let Some(r) = self.resolved_at {
                if self.now >= r + self.cfg.settle {
                    break;
                }
            }
            if self.now >= self.cfg.budget {
                break;
            }
        }
    }

    /// The discrete-event engine. Processes exactly the grid ticks on
    /// which the lockstep loop could change state (see the module docs
    /// for the equivalence argument); produces a byte-identical history.
    fn run_event(&mut self) {
        let tick = self.cfg.tick;
        assert!(tick > 0, "tick must be positive");
        // The monitor's internal sample gate passes on every grid tick
        // only when its interval fits in a tick; a coarser interval
        // would make skipped samples observable.
        assert!(
            self.cfg.peer.ahbm.sample_interval <= tick,
            "event engine requires sample_interval <= tick"
        );
        let mut q: EventQueue<SimEvent> = EventQueue::new();
        // Lockstep's first iteration gives every node a turn at tick 0.
        for id in 0..self.cfg.nodes {
            q.push(0, SimEvent::Wake(id));
        }
        match self.fault {
            NodeFault::Crash { at, .. } | NodeFault::Hang { at, .. } => {
                q.push(align_up(at, tick), SimEvent::Fault);
            }
            NodeFault::Slow { from, .. } => q.push(align_up(from, tick), SimEvent::Fault),
            // Network faults were installed at construction.
            NodeFault::Partition { .. } | NodeFault::BeatLoss { .. } | NodeFault::None => {}
        }
        while let Some(t) = q.peek_at() {
            // Lockstep processes tick t iff its break check at now = t
            // failed: t under budget and (still unresolved or) inside
            // the settle window.
            if t >= self.cfg.budget {
                break;
            }
            if self.resolved_at.is_some_and(|r| t >= r + self.cfg.settle) {
                break;
            }
            self.now = t;
            let mut turns: Vec<NodeId> = q
                .pop_due(t)
                .into_iter()
                .filter_map(|ev| match ev {
                    SimEvent::Wake(id) => Some(id),
                    SimEvent::Fault | SimEvent::Deliver => None,
                })
                .collect();
            self.apply_fault();
            turns.extend(self.deliver());
            turns.sort_unstable();
            turns.dedup();
            let ran_turns = !turns.is_empty();
            for id in turns {
                let i = usize::from(id);
                for at in self.node_turn(i) {
                    q.push(align_up(at, tick), SimEvent::Deliver);
                }
                self.schedule_wake(i, &mut q);
            }
            // The resolution predicate only changes inside a turn, so
            // checking on turn ticks finds the same first-true tick the
            // per-tick lockstep check finds.
            if ran_turns
                && self.resolved_at.is_none()
                && (0..self.cfg.nodes).all(|w| self.workload_resolved(w))
            {
                self.resolved_at = Some(t);
            }
        }
        // Land the clock where the lockstep loop's break left it (it
        // idles through event-free ticks; only hung-run classification
        // reads this).
        let limit = match self.resolved_at {
            Some(r) => (r + self.cfg.settle).min(self.cfg.budget),
            None => self.cfg.budget,
        };
        self.now = align_up(limit, tick);
    }

    /// Schedules node `i`'s next wake: the earliest of its deadlines
    /// ([`Node::wake_deadline`]), snapped to the tick grid. One wake per
    /// turn suffices — deadlines only move during the node's own turns
    /// (each reschedules) or on a delivery (which earns a same-tick
    /// turn), so the minimum scheduled here stays a lower bound on the
    /// node's next state change.
    fn schedule_wake(&mut self, i: usize, q: &mut EventQueue<SimEvent>) {
        let now = self.now;
        let tick = self.cfg.tick;
        let node = &self.nodes[i];
        if let Some(d) = node.wake_deadline(now, tick, self.cfg.lease_timeout) {
            // Post-turn deadlines are strictly future; the clamp only
            // guards against a same-tick self-wake loop.
            q.push(align_up(d, tick).max(now + tick), SimEvent::Wake(node.id));
        }
    }

    /// Whether a Dead declaration `(declarer, target, at)` is justified
    /// by the injected ground-truth fault.
    fn declaration_justified(&self, declarer: NodeId, target: NodeId, at: u64) -> bool {
        let margin = self.cfg.justify_margin;
        match self.fault {
            NodeFault::Crash { node, .. } | NodeFault::Hang { node, .. } => node == target,
            NodeFault::Partition { node, from, dur } => {
                // Either side of a partition may legitimately suspect the
                // other while the partition is (or recently was) active.
                (node == target || node == declarer) && at >= from && at < from + dur + margin
            }
            NodeFault::BeatLoss { node, from, dur } => {
                node == target && at >= from && at < from + dur + margin
            }
            // A slow node still beats: the adaptive timeout must absorb
            // it. Declaring it dead is by definition a false suspicion.
            NodeFault::Slow { .. } | NodeFault::None => false,
        }
    }

    /// Classifies the finished run against the control-run profile.
    fn classify(&self, golden: u64) -> FleetOutcome {
        let false_suspicion = self
            .declarations
            .iter()
            .any(|&(d, t, at)| !self.declaration_justified(d, t, at));
        let hung = self.resolved_at.is_none();
        let mut sdc = false;
        for w in 0..self.cfg.nodes {
            if self.unrecoverable && self.failover_victim == Some(w) {
                continue;
            }
            let owner = self.owners[usize::from(w)];
            if let Some(g) = self.nodes[usize::from(owner)].guest_for(w) {
                if g.done && g.digest != Some(golden) {
                    sdc = true;
                }
            }
        }
        let outcome = if self.split_brain {
            Outcome::SplitBrain
        } else if false_suspicion {
            Outcome::FalseSuspicion
        } else if self.unrecoverable {
            Outcome::Unrecovered
        } else if hung {
            Outcome::Hang
        } else if sdc {
            Outcome::Sdc
        } else if let Some(v) = self.failover_victim {
            Outcome::Failover(v)
        } else {
            Outcome::Masked
        };
        let recovery = match outcome {
            Outcome::Masked | Outcome::Sdc => RecoveryStatus::NotNeeded,
            Outcome::Failover(_) => RecoveryStatus::Succeeded {
                mechanism: "fleet-checkpoint-failover",
            },
            Outcome::SplitBrain => RecoveryStatus::FailedSafeHalt {
                cause: "fencing violated: two live owners".into(),
            },
            Outcome::FalseSuspicion => RecoveryStatus::FailedSafeHalt {
                cause: "live reachable peer declared dead".into(),
            },
            Outcome::Unrecovered => RecoveryStatus::FailedSafeHalt {
                cause: "no replicated checkpoint to fail over".into(),
            },
            _ => RecoveryStatus::FailedSafeHalt {
                cause: "fleet stalled before resolution".into(),
            },
        };
        FleetOutcome {
            outcome,
            recovery,
            cycles: self.resolved_at.unwrap_or(self.now),
            net: self.net.stats(),
            declarations: self.declarations.len() as u32,
        }
    }

    /// Runs a zero-fault control fleet and measures the [`FleetProfile`]
    /// the fault sampler scales to. Panics if the control run itself
    /// misbehaves (suspicion, missing snapshot, digest divergence).
    pub fn profile(cfg: &FleetConfig, seed: u64) -> FleetProfile {
        let mut sim = FleetSim::new(cfg, seed, NodeFault::None);
        sim.run_raw();
        assert!(
            sim.declarations.is_empty(),
            "control fleet produced Dead declarations: {:?}",
            sim.declarations
        );
        let resolved = sim.resolved_at.expect("control fleet resolves in budget");
        let first_snap = sim
            .first_snap_sent_at
            .expect("control fleet replicates at least one snapshot");
        let mut digests = (0..cfg.nodes).map(|w| {
            sim.nodes[usize::from(w)]
                .guest_for(w)
                .and_then(|g| g.digest)
                .expect("control guest completes with a digest")
        });
        let golden = digests.next().expect("fleet has nodes");
        assert!(
            digests.all(|d| d == golden),
            "control-run digests diverge across nodes"
        );
        FleetProfile {
            run_cycles: resolved,
            first_snap_sent_at: first_snap,
            golden_digest: golden,
        }
    }

    /// Runs one faulty fleet to completion and classifies it against
    /// the control profile.
    pub fn run(
        cfg: &FleetConfig,
        seed: u64,
        fault: NodeFault,
        profile: &FleetProfile,
    ) -> FleetOutcome {
        let mut sim = FleetSim::new(cfg, seed, fault);
        sim.run_raw();
        sim.classify(profile.golden_digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FleetConfig {
        FleetConfig::default()
    }

    #[test]
    fn control_fleet_resolves_cleanly() {
        let c = cfg();
        let p = FleetSim::profile(&c, 0xF1EE7);
        assert!(p.run_cycles > 0);
        assert!(p.first_snap_sent_at < p.run_cycles);
        let out = FleetSim::run(&c, 0xF1EE7, NodeFault::None, &p);
        assert_eq!(out.outcome, Outcome::Masked);
        assert_eq!(out.recovery, RecoveryStatus::NotNeeded);
        assert_eq!(out.declarations, 0);
    }

    #[test]
    fn profile_is_deterministic() {
        let c = cfg();
        assert_eq!(FleetSim::profile(&c, 7), FleetSim::profile(&c, 7));
    }

    #[test]
    fn late_crash_fails_over_to_a_successor() {
        let c = cfg();
        let p = FleetSim::profile(&c, 11);
        let fault = NodeFault::Crash {
            node: 2,
            at: p.first_snap_sent_at + 2_000,
        };
        let out = FleetSim::run(&c, 11, fault, &p);
        assert_eq!(out.outcome, Outcome::Failover(2), "{out:?}");
        assert_eq!(
            out.recovery,
            RecoveryStatus::Succeeded {
                mechanism: "fleet-checkpoint-failover"
            }
        );
    }

    #[test]
    fn early_crash_is_unrecoverable() {
        let c = cfg();
        let p = FleetSim::profile(&c, 13);
        let fault = NodeFault::Crash { node: 1, at: 0 };
        let out = FleetSim::run(&c, 13, fault, &p);
        assert_eq!(out.outcome, Outcome::Unrecovered, "{out:?}");
    }

    #[test]
    fn hang_is_detected_like_a_crash() {
        let c = cfg();
        let p = FleetSim::profile(&c, 17);
        let fault = NodeFault::Hang {
            node: 4,
            at: p.first_snap_sent_at + 3_000,
        };
        let out = FleetSim::run(&c, 17, fault, &p);
        assert_eq!(out.outcome, Outcome::Failover(4), "{out:?}");
    }

    #[test]
    fn slow_node_is_absorbed_by_the_adaptive_timeout() {
        let c = cfg();
        let p = FleetSim::profile(&c, 19);
        let fault = NodeFault::Slow {
            node: 3,
            from: p.first_snap_sent_at + 1_000,
            factor: 3,
        };
        let out = FleetSim::run(&c, 19, fault, &p);
        assert_eq!(out.outcome, Outcome::Masked, "{out:?}");
        assert_eq!(out.declarations, 0);
    }

    #[test]
    fn healed_partition_never_splits_brain() {
        let c = cfg();
        let p = FleetSim::profile(&c, 23);
        for dur in [1_000u64, 4_000, 12_000] {
            let fault = NodeFault::Partition {
                node: 1,
                from: p.first_snap_sent_at + 2_000,
                dur,
            };
            let out = FleetSim::run(&c, 23, fault, &p);
            assert_ne!(out.outcome, Outcome::SplitBrain, "dur={dur}: {out:?}");
            assert_ne!(out.outcome, Outcome::FalseSuspicion, "dur={dur}: {out:?}");
            assert!(
                matches!(out.outcome, Outcome::Masked | Outcome::Failover(1)),
                "dur={dur}: {out:?}"
            );
        }
    }

    #[test]
    fn event_engine_matches_lockstep_bit_for_bit() {
        // The equivalence shim: same seed, same fault, both engines —
        // FleetOutcome equality covers classification, resolution
        // cycle, every network counter, and the declaration count.
        let ec = cfg();
        assert_eq!(ec.scheduler, Scheduler::Event);
        let lc = FleetConfig {
            scheduler: Scheduler::Lockstep,
            ..cfg()
        };
        let pe = FleetSim::profile(&ec, 37);
        assert_eq!(pe, FleetSim::profile(&lc, 37));
        let faults = [
            NodeFault::None,
            NodeFault::Crash {
                node: 2,
                at: pe.first_snap_sent_at + 2_000,
            },
            // Long enough to drive the self-fence → petition →
            // reinstate path both engines must time identically.
            NodeFault::Partition {
                node: 1,
                from: pe.first_snap_sent_at + 2_000,
                dur: 9_000,
            },
            NodeFault::BeatLoss {
                node: 0,
                from: pe.first_snap_sent_at + 2_000,
                dur: 6_000,
            },
            NodeFault::Slow {
                node: 3,
                from: pe.first_snap_sent_at + 1_000,
                factor: 3,
            },
        ];
        for fault in faults {
            let a = FleetSim::run(&ec, 37, fault, &pe);
            let b = FleetSim::run(&lc, 37, fault, &pe);
            assert_eq!(a, b, "engines diverged on {fault:?}");
        }
    }

    #[test]
    fn runs_replay_bit_identically() {
        let c = cfg();
        let p = FleetSim::profile(&c, 29);
        let fault = NodeFault::Partition {
            node: 2,
            from: p.first_snap_sent_at + 1_500,
            dur: 6_000,
        };
        let a = FleetSim::run(&c, 29, fault, &p);
        let b = FleetSim::run(&c, 29, fault, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn heartbeat_loss_burst_is_fenced_not_split() {
        let c = cfg();
        let p = FleetSim::profile(&c, 31);
        let fault = NodeFault::BeatLoss {
            node: 0,
            from: p.first_snap_sent_at + 2_000,
            dur: 8_000,
        };
        let out = FleetSim::run(&c, 31, fault, &p);
        assert_ne!(out.outcome, Outcome::SplitBrain, "{out:?}");
        assert_ne!(out.outcome, Outcome::FalseSuspicion, "{out:?}");
    }
}
