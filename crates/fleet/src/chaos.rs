//! The 1k-node chaos engine: event-driven fleet weather with SLO-graded
//! graceful degradation.
//!
//! Where [`crate::sim`] runs five cycle-accurate guests in a tick-grid
//! simulation, this engine scales the *coordination* layer to a
//! thousand nodes by going fully event-driven: nodes exist only as
//! heartbeat chains, lease state, and a service queue, and the engine
//! wakes exactly when something happens — a heartbeat fires, a message
//! lands, the monitor's next deadline passes, a request arrives, a
//! churn action triggers. Guest realism enters through measured
//! *progress quanta*: a witness request-loop guest (the
//! `workloads/server.rs` kernel) is executed once on the
//! [`Golden`](rse_pipeline::Golden) reference interpreter, and the
//! measured per-request cost prices request service across the fleet.
//!
//! # The protocol, compressed
//!
//! One controller (node id `n`, outside every rack) runs a
//! [`PeerMonitor`] over all service nodes. Nodes heartbeat every
//! `HEARTBEAT_EVERY` cycles — *unless busy serving past their backlog*,
//! which is how load couples into false suspicion. Each accepted beat
//! is acked with a lease extension. Suspicion follows the AHBM
//! adaptive-timeout path: Suspect → probes with exponential backoff →
//! DeclaredDead. A declared node is *fenced* (acks stop) and its shards
//! are adopted by ring successors only after `LEASE_TIMEOUT +
//! REASSIGN_MARGIN`, strictly after every lease it could still hold has
//! expired — so a node can never serve a shard it no longer owns. The
//! run ends with a split-brain audit that replays every completion
//! against the shard move logs; the count must be zero.
//!
//! Determinism: one seed expands the plan (via [`ChurnPlan::sample`])
//! and the run (network jitter, arrival gaps, cascade picks). Events
//! are ordered by `(time, insertion)`; the monitor visits peers in
//! sorted order. Same seed, same record bytes, forever.
//!
//! # Timing
//!
//! Every timing parameter is a constant of this module; a run takes
//! only its plan, its seed and the measured witness quanta. Three rules
//! are `const` assertions next to the constants:
//!
//! * `REASSIGN_MARGIN` (200) exceeds the network's `MAX_DELAY` (63);
//! * the monitor's `min_timeout` (1,200) is above two beat periods plus
//!   the jitter, `2 × 512 + 24`;
//! * a non-witness request fits inside a lease, `SVC_BASE + SVC_JITTER`
//!   = 728 < `LEASE_TIMEOUT` = 3,000.

use crate::churn::{ChurnModel, ChurnPlan, ChurnRecord};
use crate::event::EventQueue;
use crate::net::{Message, NetPayload, Network, JITTER, MAX_DELAY};
use crate::NodeId;
use rse_modules::ahbm::{AhbmConfig, PeerConfig, PeerEvent, PeerMonitor, PeerState};
use rse_support::rng::{fnv1a64, splitmix64};

/// Wire payloads of the chaos fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPayload {
    /// Node → controller liveness beat.
    Beat,
    /// Controller → node lease extension (serve until `until`).
    Ack {
        /// Lease expiry granted by this ack.
        until: u64,
    },
    /// Controller → suspect probe.
    Probe,
    /// Node → controller probe reply.
    ProbeAck,
}

impl NetPayload for ChaosPayload {
    fn is_beat(&self) -> bool {
        matches!(self, ChaosPayload::Beat)
    }
}

/// Node heartbeat period.
const HEARTBEAT_EVERY: u64 = 512;
/// Controller monitor sampling cadence (= AHBM sample interval).
const MONITOR_CADENCE: u64 = 256;
/// Lease granted per ack, cycles.
const LEASE_TIMEOUT: u64 = 3_000;
/// Extra wait between fencing and shard adoption, beyond the lease.
const REASSIGN_MARGIN: u64 = 200;
/// Client retry backoff.
const RETRY_AFTER: u64 = 400;
/// Client gives up this long after arrival.
const REQUEST_DEADLINE: u64 = 8_000;
/// Maximum backlog (cycles of queued work) before a node sheds load.
const QUEUE_CAP: u64 = 8_000;
/// Per-request service cost for non-witness nodes.
const SVC_BASE: u64 = 600;
/// Deterministic per-(node, request) service jitter bound.
const SVC_JITTER: u64 = 128;
/// Nodes priced by the measured witness quanta instead of `SVC_BASE`
/// (ids `0..WITNESSES`). A measured quantum (3,609 or 3,612 cycles)
/// exceeds `LEASE_TIMEOUT`, so these nodes refuse every request they
/// own; a fix moves the churn golden.
const WITNESSES: u16 = 4;
/// The controller's monitor.
const PEER: PeerConfig = PeerConfig {
    ahbm: AhbmConfig {
        sample_interval: MONITOR_CADENCE,
        min_timeout: 1_200,
        initial_timeout: 2_048,
        ..AhbmConfig::DEFAULT
    },
    probe_base: 512,
    max_probes: 3,
};

// The reassign margin outlasts any message still in flight when the
// fenced node's lease expires.
const _: () = assert!(REASSIGN_MARGIN > MAX_DELAY);
// One missed beat never suspects; two in a row (sustained saturation,
// partition, or death) do.
const _: () = assert!(PEER.ahbm.min_timeout > 2 * HEARTBEAT_EVERY + JITTER);
// `dispatch` refuses work that would outlive the owner's lease, so a
// node whose requests cost more than a lease never serves one.
const _: () = assert!(SVC_BASE + SVC_JITTER < LEASE_TIMEOUT);

/// The discrete events of the chaos engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ChaosEvent {
    /// Network messages are due (the queue knows which).
    Deliver,
    /// A node's heartbeat chain fires.
    NodeBeat(NodeId),
    /// The controller's monitor cadence fires.
    MonitorWake,
    /// The next client request arrives.
    Arrival,
    /// A failed request retries.
    Retry(u32),
    /// Churn: a node goes down (restart leg or permanent crash).
    NodeDown(NodeId),
    /// Churn: a restarted node returns.
    NodeUp(NodeId),
    /// Fencing matured: adopt the node's shards (stale if the epoch
    /// moved on).
    Reassign(NodeId, u32),
}

/// Everything measured from one chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// Requests generated.
    pub requests: u64,
    /// Requests served within deadline.
    pub served: u64,
    /// Served requests that needed ≥ 1 retry.
    pub degraded: u64,
    /// Requests lost.
    pub lost: u64,
    /// Node failovers executed.
    pub failovers: u64,
    /// Total suspicions raised.
    pub suspicions: u64,
    /// Suspicions of nodes that were up and reachable.
    pub false_suspicions: u64,
    /// Completions served by a non-owner (must be 0).
    pub split_brain: u64,
    /// Discrete events processed.
    pub events: u64,
    /// Simulated horizon, cycles.
    pub cycles: u64,
    /// Failure→failover latencies, sorted ascending.
    pub latencies: Vec<u64>,
}

impl ChaosOutcome {
    /// Availability in parts-per-million (1M when no requests ran).
    pub fn availability_ppm(&self) -> u64 {
        (self.served * 1_000_000)
            .checked_div(self.requests)
            .unwrap_or(1_000_000)
    }

    /// Failover-latency percentile (0 when no failovers happened).
    pub fn latency_percentile(&self, pct: u64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let idx = (self.latencies.len() - 1) * pct as usize / 100;
        self.latencies[idx]
    }
}

struct Request {
    arrival: u64,
    attempts: u32,
    done: bool,
}

/// The chaos engine. Build implicitly through [`ChaosSim::run`].
pub struct ChaosSim<'q> {
    /// Measured per-request progress quanta pricing the witness nodes;
    /// empty disables witness pricing.
    witness_quanta: &'q [u64],
    plan: ChurnPlan,
    n: u16,
    ctrl: NodeId,
    racks: Vec<u16>,
    net: Network<ChaosPayload>,
    q: EventQueue<ChaosEvent>,
    monitor: PeerMonitor,
    up: Vec<bool>,
    busy_until: Vec<u64>,
    lease_until: Vec<u64>,
    fencing: Vec<bool>,
    epoch: Vec<u32>,
    down_at: Vec<u64>,
    declared_at: Vec<u64>,
    routing: Vec<NodeId>,
    move_logs: Vec<Vec<(u64, NodeId)>>,
    requests: Vec<Request>,
    completions: Vec<(u64, u16, NodeId)>,
    rng: u64,
    horizon: u64,
    cascade_fired: bool,
    out: ChaosOutcome,
}

impl ChaosSim<'_> {
    /// Runs `plan` from `seed`, pricing requests served by the witness
    /// nodes with `witness_quanta` (the measured [`witness_quanta`], or
    /// none). Pure: same inputs, same outcome — the campaign seed
    /// replays the whole fleet history.
    pub fn run(plan: &ChurnPlan, seed: u64, witness_quanta: &[u64]) -> ChaosOutcome {
        let n = plan.nodes;
        let mut s = seed;
        let net_seed = splitmix64(&mut s);
        let sim_rng = splitmix64(&mut s);
        let mut net = Network::new(net_seed);
        let racks = plan.rack_vector();
        net.set_racks(racks.clone());
        for cut in &plan.cuts {
            net.add_rack_cut(cut.rack, cut.from, cut.from + cut.dur);
        }
        let tail = REQUEST_DEADLINE + LEASE_TIMEOUT + REASSIGN_MARGIN + 2 * HEARTBEAT_EVERY;
        let horizon = plan.duration + tail;
        let mut monitor = PeerMonitor::new(PEER);
        for p in 0..n {
            monitor.register(p, 0);
        }
        let mut sim = ChaosSim {
            witness_quanta,
            plan: plan.clone(),
            n,
            ctrl: n,
            racks,
            net,
            q: EventQueue::new(),
            monitor,
            up: vec![true; n.into()],
            busy_until: vec![0; n.into()],
            // Bootstrap lease so startup is not a retry storm; every
            // extension thereafter is earned through acked beats.
            lease_until: vec![LEASE_TIMEOUT; n.into()],
            fencing: vec![false; n.into()],
            epoch: vec![0; n.into()],
            down_at: vec![0; n.into()],
            declared_at: vec![0; n.into()],
            routing: (0..n).collect(),
            move_logs: vec![Vec::new(); n.into()],
            requests: Vec::new(),
            completions: Vec::new(),
            rng: sim_rng,
            horizon,
            cascade_fired: false,
            out: ChaosOutcome {
                requests: 0,
                served: 0,
                degraded: 0,
                lost: 0,
                failovers: 0,
                suspicions: 0,
                false_suspicions: 0,
                split_brain: 0,
                events: 0,
                cycles: horizon,
                latencies: Vec::new(),
            },
        };
        sim.seed_events();
        while let Some((t, ev)) = sim.q.pop() {
            sim.out.events += 1;
            match ev {
                ChaosEvent::Deliver => sim.deliver(t),
                ChaosEvent::NodeBeat(p) => sim.node_beat(t, p),
                ChaosEvent::MonitorWake => sim.monitor_wake(t),
                ChaosEvent::Arrival => sim.arrival(t),
                ChaosEvent::Retry(id) => sim.dispatch(t, id),
                ChaosEvent::NodeDown(p) => sim.node_down(t, p),
                ChaosEvent::NodeUp(p) => sim.node_up(t, p),
                ChaosEvent::Reassign(p, e) => sim.reassign(t, p, e),
            }
        }
        sim.audit();
        sim.out.latencies.sort_unstable();
        sim.out
    }

    fn seed_events(&mut self) {
        for p in 0..self.n {
            // Stagger first beats so a thousand nodes don't synchronize.
            let offset = 1 + (u64::from(p) * 31) % HEARTBEAT_EVERY;
            self.q.push(offset, ChaosEvent::NodeBeat(p));
        }
        self.q.push(MONITOR_CADENCE, ChaosEvent::MonitorWake);
        self.q.push(1, ChaosEvent::Arrival);
        let waves = self.plan.waves.clone();
        for w in &waves {
            for j in 0..w.count {
                let node = (w.first + j) % self.n;
                let down = w.start + u64::from(j) * w.stagger;
                self.q.push(down, ChaosEvent::NodeDown(node));
                self.q.push(down + w.down_for, ChaosEvent::NodeUp(node));
            }
        }
        let crashes = self.plan.crashes.clone();
        for c in &crashes {
            self.q.push(c.at, ChaosEvent::NodeDown(c.node));
        }
    }

    fn next_rng(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    fn send(&mut self, now: u64, src: NodeId, dst: NodeId, payload: ChaosPayload) {
        if let Some(at) = self.net.send(now, Message { src, dst, payload }) {
            self.q.push(at, ChaosEvent::Deliver);
        }
    }

    fn deliver(&mut self, now: u64) {
        for msg in self.net.deliver_due(now) {
            match msg.payload {
                ChaosPayload::Beat | ChaosPayload::ProbeAck if msg.dst == self.ctrl => {
                    self.ctrl_on_beat(now, msg.src);
                }
                ChaosPayload::Ack { until } => {
                    let p = usize::from(msg.dst);
                    if self.up[p] {
                        self.lease_until[p] = self.lease_until[p].max(until);
                    }
                }
                ChaosPayload::Probe => {
                    // Probes are answered from the node's monitor plane,
                    // even when the service plane is saturated: probing
                    // distinguishes "slow" from "gone".
                    if self.up[usize::from(msg.dst)] {
                        self.send(now, msg.dst, self.ctrl, ChaosPayload::ProbeAck);
                    }
                }
                ChaosPayload::Beat | ChaosPayload::ProbeAck => {}
            }
        }
    }

    fn ctrl_on_beat(&mut self, now: u64, p: NodeId) {
        let pi = usize::from(p);
        if self.fencing[pi] {
            // The declared node spoke before its shards moved: cancel
            // the failover (the pending Reassign goes stale) and
            // reinstate.
            self.fencing[pi] = false;
            self.epoch[pi] = self.epoch[pi].wrapping_add(1);
            self.monitor.reinstate(p, now);
        } else if self.monitor.state(p) == PeerState::Dead {
            // A spare came back (restart or partition heal): adopt it
            // into the pool again. Its shards stay where they moved.
            self.monitor.reinstate(p, now);
        } else {
            self.monitor.beat(p, now);
        }
        let until = now + LEASE_TIMEOUT;
        self.send(now, self.ctrl, p, ChaosPayload::Ack { until });
    }

    fn node_beat(&mut self, now: u64, p: NodeId) {
        let pi = usize::from(p);
        // A node more than one beat period behind on its service queue
        // is saturated and skips the beat: sustained load shows up as
        // suspicion (the false-suspicion-vs-load SLO), while a single
        // in-flight request does not perturb the monitor.
        if self.up[pi] && self.busy_until[pi].saturating_sub(now) <= HEARTBEAT_EVERY {
            self.send(now, p, self.ctrl, ChaosPayload::Beat);
        }
        let next = now + HEARTBEAT_EVERY;
        if next < self.horizon {
            self.q.push(next, ChaosEvent::NodeBeat(p));
        }
    }

    fn monitor_wake(&mut self, now: u64) {
        self.monitor.sample(now);
        for ev in self.monitor.take_events() {
            match ev {
                PeerEvent::Suspected(p) => {
                    self.out.suspicions += 1;
                    let pi = usize::from(p);
                    if self.up[pi] && !self.net.rack_cut(p, self.ctrl, now) {
                        self.out.false_suspicions += 1;
                    }
                }
                PeerEvent::ProbeRequest(p) => {
                    self.send(now, self.ctrl, p, ChaosPayload::Probe);
                }
                PeerEvent::DeclaredDead(p) => {
                    let pi = usize::from(p);
                    if !self.fencing[pi] {
                        self.fencing[pi] = true;
                        self.epoch[pi] = self.epoch[pi].wrapping_add(1);
                        self.declared_at[pi] = now;
                        let at = now + LEASE_TIMEOUT + REASSIGN_MARGIN;
                        self.q.push(at, ChaosEvent::Reassign(p, self.epoch[pi]));
                    }
                }
                PeerEvent::Refuted(_) => {}
            }
        }
        let next = now + MONITOR_CADENCE;
        if next < self.horizon {
            self.q.push(next, ChaosEvent::MonitorWake);
        }
    }

    fn arrival(&mut self, now: u64) {
        let id = u32::try_from(self.requests.len()).expect("request ids fit u32");
        self.requests.push(Request {
            arrival: now,
            attempts: 0,
            done: false,
        });
        self.out.requests += 1;
        self.dispatch(now, id);
        if let Some(mean) = self.plan.gap_at(now) {
            let gap = mean / 2 + self.next_rng() % mean;
            let next = now + gap.max(1);
            if next < self.plan.duration {
                self.q.push(next, ChaosEvent::Arrival);
            }
        }
    }

    fn svc_cost(&self, owner: NodeId, id: u32) -> u64 {
        let base = if owner < WITNESSES && !self.witness_quanta.is_empty() {
            self.witness_quanta[id as usize % self.witness_quanta.len()]
        } else {
            SVC_BASE
        };
        let mut key = [0u8; 6];
        key[..2].copy_from_slice(&owner.to_le_bytes());
        key[2..].copy_from_slice(&id.to_le_bytes());
        base + fnv1a64(&key) % (SVC_JITTER + 1)
    }

    fn dispatch(&mut self, now: u64, id: u32) {
        let (arrival, attempts) = {
            let r = &self.requests[id as usize];
            if r.done {
                return;
            }
            (r.arrival, r.attempts)
        };
        let shard = (fnv1a64(&id.to_le_bytes()) % u64::from(self.n)) as u16;
        let owner = self.routing[usize::from(shard)];
        let oi = usize::from(owner);
        let deadline_at = arrival + REQUEST_DEADLINE;
        let mut completion = 0;
        let reachable = self.up[oi] && !self.net.rack_cut(owner, self.ctrl, now);
        let accepted = reachable && self.busy_until[oi].saturating_sub(now) <= QUEUE_CAP && {
            completion = now.max(self.busy_until[oi]) + self.svc_cost(owner, id);
            // The owner refuses work it cannot finish inside its
            // lease: this is the fencing half of zero split-brain.
            completion <= self.lease_until[oi] && completion <= deadline_at
        };
        if accepted {
            self.busy_until[oi] = completion;
            self.out.served += 1;
            if attempts > 0 {
                self.out.degraded += 1;
            }
            self.completions.push((completion, shard, owner));
            self.requests[id as usize].done = true;
        } else {
            self.requests[id as usize].attempts += 1;
            let retry_at = now + RETRY_AFTER;
            if retry_at >= deadline_at {
                self.out.lost += 1;
                self.requests[id as usize].done = true;
            } else {
                self.q.push(retry_at, ChaosEvent::Retry(id));
            }
        }
    }

    fn node_down(&mut self, now: u64, p: NodeId) {
        let pi = usize::from(p);
        if self.up[pi] {
            self.up[pi] = false;
            self.down_at[pi] = now;
        }
    }

    fn node_up(&mut self, now: u64, p: NodeId) {
        let pi = usize::from(p);
        self.up[pi] = true;
        self.busy_until[pi] = now;
        // The lease must be re-earned through an acked beat.
        self.lease_until[pi] = 0;
    }

    fn reassign(&mut self, now: u64, p: NodeId, epoch: u32) {
        let pi = usize::from(p);
        if !self.fencing[pi] || self.epoch[pi] != epoch {
            return; // canceled or superseded
        }
        self.fencing[pi] = false;
        self.out.failovers += 1;
        self.out.latencies.push(self.failure_latency(now, p));
        for shard in 0..usize::from(self.n) {
            if self.routing[shard] != p {
                continue;
            }
            if let Some(next_owner) = self.pick_successor(p) {
                self.routing[shard] = next_owner;
                self.move_logs[shard].push((now, next_owner));
            }
            // No candidate: the shard stays put and its requests keep
            // retrying — degradation, not corruption.
        }
        if let Some(c) = self.plan.cascade {
            if !self.cascade_fired && self.out.failovers >= c.after_failovers {
                self.cascade_fired = true;
                let mut candidates: Vec<NodeId> = (0..self.n)
                    .filter(|&q| self.up[usize::from(q)] && !self.fencing[usize::from(q)])
                    .collect();
                for _ in 0..c.kills.min(candidates.len() as u16) {
                    let idx = (self.next_rng() % candidates.len() as u64) as usize;
                    let victim = candidates.swap_remove(idx);
                    self.q.push(now + c.lag, ChaosEvent::NodeDown(victim));
                }
            }
        }
    }

    /// Ground-truth failure time → failover latency. A rack-cut victim
    /// is charged from the cut start, a down node from when it went
    /// down; a live-node failover (possible only if every probe reply
    /// was lost) is charged from declaration.
    fn failure_latency(&self, now: u64, p: NodeId) -> u64 {
        let pi = usize::from(p);
        if !self.up[pi] {
            return now - self.down_at[pi];
        }
        let declared = self.declared_at[pi];
        let rack = self.racks[pi];
        if let Some(cut) = self
            .plan
            .cuts
            .iter()
            .find(|c| c.rack == rack && c.from <= declared && declared < c.from + c.dur)
        {
            return now - cut.from;
        }
        now - declared
    }

    fn pick_successor(&self, p: NodeId) -> Option<NodeId> {
        (1..self.n)
            .map(|step| (p + step) % self.n)
            .find(|&q| !self.fencing[usize::from(q)] && self.monitor.state(q) != PeerState::Dead)
    }

    /// The split-brain audit: every completion must have been served by
    /// the node that owned the shard *at completion time* according to
    /// the move logs.
    fn audit(&mut self) {
        for &(at, shard, server) in &self.completions {
            let owner = self.move_logs[usize::from(shard)]
                .iter()
                .rev()
                .find(|&&(moved_at, _)| moved_at <= at)
                .map_or(shard, |&(_, o)| o);
            if server != owner {
                self.out.split_brain += 1;
            }
        }
    }
}

/// One churn campaign cell: `runs` runs of one churn model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnCell {
    /// The churn model of every run in the cell.
    pub model: ChurnModel,
    /// Number of runs.
    pub runs: u32,
}

/// A full churn campaign specification.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// Base seed every per-run seed derives from.
    pub base_seed: u64,
    /// Service nodes.
    pub nodes: u16,
    /// Racks.
    pub racks: u16,
    /// Request-arrival window per run, cycles.
    pub duration: u64,
    /// The cells, executed in order.
    pub cells: Vec<ChurnCell>,
}

impl ChurnSpec {
    /// The CI smoke churn campaign: three 1,000-node runs — the
    /// availability control, a correlated rack partition, and the
    /// full-weather run (rolling restarts + rack cut + cascade).
    /// Replayed twice by `scripts/ci.sh` and diffed against the pinned
    /// golden.
    pub fn smoke(base_seed: u64) -> ChurnSpec {
        ChurnSpec {
            base_seed,
            nodes: 1_000,
            racks: 20,
            duration: 200_000,
            cells: vec![
                ChurnCell {
                    model: ChurnModel::Steady,
                    runs: 1,
                },
                ChurnCell {
                    model: ChurnModel::RackPartition,
                    runs: 1,
                },
                ChurnCell {
                    model: ChurnModel::FullWeather,
                    runs: 1,
                },
            ],
        }
    }

    /// The full sweep: `runs` runs of every churn model.
    pub fn full(base_seed: u64, nodes: u16, racks: u16, duration: u64, runs: u32) -> ChurnSpec {
        ChurnSpec {
            base_seed,
            nodes,
            racks,
            duration,
            cells: ChurnModel::ALL
                .into_iter()
                .map(|model| ChurnCell { model, runs })
                .collect(),
        }
    }

    /// Total runs across all cells.
    pub fn total_runs(&self) -> u32 {
        self.cells.iter().map(|c| c.runs).sum()
    }
}

/// Derives the per-run seed from the base seed, the model name, and the
/// run index (same discipline as `derive_fleet_seed`).
pub fn derive_churn_seed(base_seed: u64, model: ChurnModel, run: u32) -> u64 {
    let mut s = base_seed
        ^ fnv1a64(model.name().as_bytes())
        ^ fnv1a64(b"churn")
        ^ (u64::from(run)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// Measures the witness request quanta once per process: the
/// request-loop guest from `workloads/server.rs` executed on the
/// [`Golden`](rse_pipeline::Golden) interpreter, one quantum (the
/// instructions executed) per marker syscall.
/// Deterministic, so campaign records replay byte-identically.
pub fn witness_quanta() -> &'static [u64] {
    use std::sync::OnceLock;
    static QUANTA: OnceLock<Vec<u64>> = OnceLock::new();
    QUANTA.get_or_init(|| {
        let p = rse_workloads::server::ServerParams {
            work: 300,
            ..rse_workloads::server::ServerParams::default()
        };
        let src = rse_workloads::server::request_loop_source(&p, 16);
        let image = rse_isa::asm::assemble(&src).expect("witness guest assembles");
        let q = rse_pipeline::golden::syscall_quanta(&image, 16);
        assert_eq!(q.len(), 16, "one quantum per witness request");
        q
    })
}

/// Runs a churn campaign: witness quanta are measured once, then price
/// the witness nodes of every cell's runs. Returns one [`ChurnRecord`]
/// per run, in spec order.
pub fn run_churn(spec: &ChurnSpec) -> Vec<ChurnRecord> {
    let quanta = witness_quanta();
    let mut records = Vec::with_capacity(spec.total_runs() as usize);
    for cell in &spec.cells {
        for run in 0..cell.runs {
            let seed = derive_churn_seed(spec.base_seed, cell.model, run);
            let mut s = seed;
            let plan_seed = splitmix64(&mut s);
            let sim_seed = splitmix64(&mut s);
            let plan =
                ChurnPlan::sample(cell.model, plan_seed, spec.nodes, spec.racks, spec.duration);
            let out = ChaosSim::run(&plan, sim_seed, quanta);
            records.push(ChurnRecord {
                model: cell.model.name(),
                nodes: spec.nodes,
                racks: spec.racks,
                seed,
                requests: out.requests,
                served: out.served,
                degraded: out.degraded,
                lost: out.lost,
                availability_ppm: out.availability_ppm(),
                failovers: out.failovers,
                false_suspicions: out.false_suspicions,
                suspicions: out.suspicions,
                failover_p50: out.latency_percentile(50),
                failover_p99: out.latency_percentile(99),
                split_brain: out.split_brain,
                events: out.events,
                cycles: out.cycles,
            });
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{Crash, RackCut};

    fn steady_plan(nodes: u16, racks: u16, duration: u64) -> ChurnPlan {
        ChurnPlan::sample(ChurnModel::Steady, 1, nodes, racks, duration)
    }

    #[test]
    fn steady_fleet_serves_everything() {
        let plan = steady_plan(16, 2, 40_000);
        let out = ChaosSim::run(&plan, 11, &[]);
        assert!(out.requests > 50, "load ran: {} requests", out.requests);
        assert_eq!(out.lost, 0, "steady fleet drops nothing");
        assert_eq!(out.failovers, 0);
        assert_eq!(out.split_brain, 0);
        assert_eq!(out.availability_ppm(), 1_000_000);
        assert_eq!(out, ChaosSim::run(&plan, 11, &[]), "replayable");
    }

    #[test]
    fn crash_fails_over_without_split_brain() {
        let mut plan = steady_plan(8, 2, 60_000);
        plan.crashes.push(Crash {
            node: 3,
            at: 15_000,
        });
        let out = ChaosSim::run(&plan, 5, &[]);
        assert!(out.failovers >= 1, "crash must fail over: {out:?}");
        assert_eq!(out.split_brain, 0);
        assert!(out.suspicions >= 1);
        assert!(out.served > 0);
        assert!(!out.latencies.is_empty());
        let p50 = out.latency_percentile(50);
        let p99 = out.latency_percentile(99);
        assert!(p50 > 0 && p50 <= p99, "p50 {p50} p99 {p99}");
        // Detection + probes + lease wait is bounded well below the run.
        assert!(p99 < 30_000, "p99 {p99}");
    }

    #[test]
    fn rack_cut_fails_over_the_rack_and_heals() {
        let mut plan = steady_plan(12, 3, 80_000);
        plan.cuts.push(RackCut {
            rack: 1,
            from: 20_000,
            dur: 20_000,
        });
        let out = ChaosSim::run(&plan, 9, &[]);
        // All four rack-1 nodes become unreachable and fail over.
        assert!(out.failovers >= 4, "{out:?}");
        assert_eq!(out.split_brain, 0);
        assert!(out.served > 0);
        // Cut victims are charged from the cut start, so latency
        // includes the full detection chain.
        assert!(out.latency_percentile(50) > 3_000);
    }

    #[test]
    fn restart_wave_cancels_or_fails_over_but_never_forks() {
        let plan = ChurnPlan::sample(ChurnModel::RollingRestart, 21, 16, 4, 80_000);
        assert!(!plan.waves.is_empty());
        let out = ChaosSim::run(&plan, 3, &[]);
        assert_eq!(out.split_brain, 0);
        assert!(out.suspicions > 0, "restarts must be noticed: {out:?}");
        assert!(out.served > 0);
    }

    #[test]
    fn full_weather_replays_bit_identically() {
        let plan = ChurnPlan::sample(ChurnModel::FullWeather, 77, 24, 4, 60_000);
        let a = ChaosSim::run(&plan, 13, &[]);
        let b = ChaosSim::run(&plan, 13, &[]);
        assert_eq!(a, b);
        assert_eq!(a.split_brain, 0);
        let c = ChaosSim::run(&plan, 14, &[]);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn witness_quanta_price_witness_nodes() {
        let q = witness_quanta();
        // Request 0 carries the prologue; requests 1.. are uniform. The
        // churn golden and every churn record digest depend on these.
        let mut pinned = [3609u64; 16];
        pinned[0] = 3612;
        assert_eq!(q, pinned);
        let plan = steady_plan(8, 2, 30_000);
        let out = ChaosSim::run(&plan, 2, q);
        assert_eq!(out.split_brain, 0);
        assert_eq!(out, ChaosSim::run(&plan, 2, q));
    }

    #[test]
    fn churn_seed_derivation_is_stable_and_distinct_from_soak() {
        let a = derive_churn_seed(42, ChurnModel::Steady, 0);
        assert_eq!(a, derive_churn_seed(42, ChurnModel::Steady, 0));
        assert_ne!(a, derive_churn_seed(42, ChurnModel::Steady, 1));
        assert_ne!(a, derive_churn_seed(42, ChurnModel::FullWeather, 0));
        assert_ne!(a, derive_churn_seed(43, ChurnModel::Steady, 0));
    }

    #[test]
    fn small_campaign_records_are_replayable() {
        let spec = ChurnSpec {
            base_seed: 0xBEEF,
            nodes: 12,
            racks: 3,
            duration: 30_000,
            cells: vec![
                ChurnCell {
                    model: ChurnModel::Steady,
                    runs: 1,
                },
                ChurnCell {
                    model: ChurnModel::CrashStorm,
                    runs: 1,
                },
            ],
        };
        let a = run_churn(&spec);
        let b = run_churn(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].model, "steady");
        assert_eq!(a[0].split_brain, 0);
        assert_eq!(a[1].split_brain, 0);
        assert!(a[1].failovers > 0, "crash storm fails over: {:?}", a[1]);
    }

    #[test]
    fn smoke_spec_meets_the_acceptance_floor() {
        let spec = ChurnSpec::smoke(1);
        assert_eq!(spec.nodes, 1_000);
        assert!(spec.racks >= 2);
        let models: Vec<_> = spec.cells.iter().map(|c| c.model).collect();
        assert!(models.contains(&ChurnModel::FullWeather));
        assert!(models.contains(&ChurnModel::RackPartition));
    }
}
