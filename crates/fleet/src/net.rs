//! The simulated lossy network connecting fleet nodes.
//!
//! Messages are delayed by a per-link distribution (`BASE_DELAY` plus
//! uniform jitter below `JITTER`) and blocked by one-shot node
//! partitions, rack-correlated cuts, and heartbeat-loss bursts. The
//! jitter is drawn from the in-repo splitmix64 PRNG, so a seed replays
//! the exact same message history on any host.
//!
//! The network is generic over its payload type ([`NetPayload`]): the
//! 5-node protocol fabric ships [`Payload`] (heartbeats, snapshots,
//! fencing orders), while the 1k-node chaos layer ships its own
//! control-plane payloads over the identical delay/loss machinery.
//!
//! Determinism: the in-flight queue is a `BTreeMap` keyed by
//! `(deliver_at, seq)` where `seq` is a global send counter, so
//! same-cycle deliveries come out in send order; the one random draw
//! per message (its delay jitter) happens at `send` time in the
//! caller's deterministic send order.
//!
//! # Partition-crossing semantics
//!
//! A partition (or rack cut) kills a message if its flight **touches**
//! the blocked window at any point: blocked at send time ⇒ dropped at
//! send; entering, inside, or *spanning* the window in flight ⇒ dropped
//! at delivery. The spanning case matters once windows can be shorter
//! than a flight: a message queued across the partition boundary must
//! not be delivered stale after the heal, as if the partition never
//! happened (a healed TCP connection does not resurrect segments the
//! partition timed out).

use crate::NodeId;
use rse_inject::ArchSnapshot;
use rse_support::rng::splitmix64;
use std::collections::BTreeMap;

/// Rack id meaning "not in any rack" (never hit by a rack cut); used by
/// control-plane endpoints that model an out-of-band supervisory link.
pub const NO_RACK: u16 = u16::MAX;

/// A payload type the network can carry.
///
/// `is_beat` marks heartbeat-class messages, the only class a
/// heartbeat-loss burst filters.
pub trait NetPayload {
    /// Whether a heartbeat-loss burst applies to this message.
    fn is_beat(&self) -> bool {
        false
    }
}

/// What a fleet protocol message carries.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A heartbeat (also serves as the reply to a [`Payload::Probe`]).
    Beat,
    /// A probe-before-declare liveness query.
    Probe,
    /// Checkpoint replication: the sender's primary-guest architectural
    /// snapshot, tagged with its safe-point sequence number.
    Snap {
        /// Safe-point sequence number of the capture (monotonic).
        seq: u32,
        /// The replicated snapshot.
        snap: ArchSnapshot,
    },
    /// Ownership broadcast: `dead`'s workload moved to `successor` under
    /// a new fencing epoch.
    Announce {
        /// The node declared dead.
        dead: NodeId,
        /// The new ownership epoch of the dead node's workload.
        epoch: u32,
        /// The node that adopted the workload.
        successor: NodeId,
    },
    /// Fencing order: the receiver must stop executing workloads and
    /// stop declaring peer failures.
    Fence,
    /// A self-fenced node regained contact and petitions the coordinator
    /// to rejoin the fleet.
    Rejoin,
    /// Coordinator-approved rejoin: the receiver may lift a self-imposed
    /// lease fence (its workload ownership was never reassigned).
    Reinstate,
}

impl NetPayload for Payload {
    fn is_beat(&self) -> bool {
        matches!(self, Payload::Beat)
    }
}

impl Payload {
    /// Short tag for traces.
    pub fn tag(&self) -> &'static str {
        match self {
            Payload::Beat => "beat",
            Payload::Probe => "probe",
            Payload::Snap { .. } => "snap",
            Payload::Announce { .. } => "announce",
            Payload::Fence => "fence",
            Payload::Rejoin => "rejoin",
            Payload::Reinstate => "reinstate",
        }
    }
}

/// One message in flight.
#[derive(Debug, Clone)]
pub struct Message<P = Payload> {
    /// Sender node.
    pub src: NodeId,
    /// Receiver node.
    pub dst: NodeId,
    /// Content.
    pub payload: P,
}

/// Fixed per-link delay, cycles.
pub(crate) const BASE_DELAY: u64 = 40;
/// Uniform jitter added to the delay: `[0, JITTER)` cycles.
pub(crate) const JITTER: u64 = 24;
/// The largest delay a send can sample.
pub(crate) const MAX_DELAY: u64 = BASE_DELAY + JITTER - 1;

/// Network loss/delivery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted into the in-flight queue.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages whose flight touched an active node partition.
    pub dropped_partition: u64,
    /// Messages whose flight crossed a rack-correlated cut.
    pub dropped_rack: u64,
    /// Heartbeats blocked by a heartbeat-loss burst.
    pub dropped_burst: u64,
}

/// A blocked window `[from, to)` — shared shape for node partitions,
/// rack cuts, and heartbeat-loss bursts.
#[derive(Debug, Clone, Copy)]
struct WindowOn {
    key: u16,
    from: u64,
    to: u64,
}

impl WindowOn {
    /// Whether the window is active at a single instant.
    fn active_at(&self, t: u64) -> bool {
        t >= self.from && t < self.to
    }

    /// Whether the window overlaps the closed flight interval
    /// `[sent, now]`.
    fn touches(&self, sent: u64, now: u64) -> bool {
        self.from <= now && sent < self.to
    }
}

/// The simulated lossy network.
#[derive(Debug, Clone)]
pub struct Network<P = Payload> {
    rng: u64,
    seq: u64,
    /// In flight: `(deliver_at, seq) -> (sent_at, message)`.
    queue: BTreeMap<(u64, u64), (u64, Message<P>)>,
    /// One-shot partitions: the node is bidirectionally isolated.
    partitions: Vec<WindowOn>,
    /// Rack cuts: every link with exactly one endpoint inside the rack
    /// is blocked (intra-rack connectivity survives).
    rack_cuts: Vec<WindowOn>,
    /// Node → rack map (`NO_RACK` = outside every rack).
    racks: Vec<u16>,
    /// Heartbeat-loss bursts: `is_beat` payloads *from* the node are
    /// dropped.
    beat_loss: Vec<WindowOn>,
    stats: NetStats,
}

impl<P: NetPayload> Network<P> {
    /// Creates a network with its own PRNG stream.
    pub fn new(seed: u64) -> Network<P> {
        Network {
            rng: seed,
            seq: 0,
            queue: BTreeMap::new(),
            partitions: Vec::new(),
            rack_cuts: Vec::new(),
            racks: Vec::new(),
            beat_loss: Vec::new(),
            stats: NetStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Installs a one-shot partition isolating `node` during `[from, to)`.
    pub fn add_partition(&mut self, node: NodeId, from: u64, to: u64) {
        self.partitions.push(WindowOn {
            key: node,
            from,
            to,
        });
    }

    /// Assigns every node its rack (`racks[node]`; nodes beyond the map
    /// and `NO_RACK` entries are outside every rack).
    pub fn set_racks(&mut self, racks: Vec<u16>) {
        self.racks = racks;
    }

    /// Installs a rack cut: during `[from, to)` every link **crossing**
    /// the boundary of `rack` is blocked, while intra-rack links keep
    /// working — the correlated failure a top-of-rack switch loss
    /// causes.
    pub fn add_rack_cut(&mut self, rack: u16, from: u64, to: u64) {
        self.rack_cuts.push(WindowOn {
            key: rack,
            from,
            to,
        });
    }

    /// Installs a heartbeat-loss burst dropping `node`'s outgoing beats
    /// during `[from, to)`.
    pub fn add_beat_loss(&mut self, node: NodeId, from: u64, to: u64) {
        self.beat_loss.push(WindowOn {
            key: node,
            from,
            to,
        });
    }

    /// The rack `node` belongs to (`NO_RACK` if unassigned).
    pub fn rack_of(&self, node: NodeId) -> u16 {
        self.racks
            .get(usize::from(node))
            .copied()
            .unwrap_or(NO_RACK)
    }

    /// Whether `node` is inside an active partition window at `now`.
    pub fn partitioned(&self, node: NodeId, now: u64) -> bool {
        self.partitions
            .iter()
            .any(|w| w.key == node && w.active_at(now))
    }

    /// Whether the `src → dst` link is blocked by a rack cut at `now`.
    pub fn rack_cut(&self, src: NodeId, dst: NodeId, now: u64) -> bool {
        self.rack_cuts
            .iter()
            .any(|w| w.active_at(now) && self.link_crosses_rack(src, dst, w.key))
    }

    /// Whether `node`'s outgoing beats are inside a loss burst at `now`.
    pub fn in_beat_loss(&self, node: NodeId, now: u64) -> bool {
        self.beat_loss
            .iter()
            .any(|w| w.key == node && w.active_at(now))
    }

    /// A link crosses a rack boundary iff exactly one endpoint is inside.
    fn link_crosses_rack(&self, src: NodeId, dst: NodeId, rack: u16) -> bool {
        (self.rack_of(src) == rack) != (self.rack_of(dst) == rack)
    }

    /// Whether any node partition on either endpoint touched the flight
    /// interval `[sent, now]`.
    fn partition_touched(&self, src: NodeId, dst: NodeId, sent: u64, now: u64) -> bool {
        self.partitions
            .iter()
            .any(|w| (w.key == src || w.key == dst) && w.touches(sent, now))
    }

    /// Whether any rack cut on the link touched the flight interval.
    fn rack_touched(&self, src: NodeId, dst: NodeId, sent: u64, now: u64) -> bool {
        self.rack_cuts
            .iter()
            .any(|w| w.touches(sent, now) && self.link_crosses_rack(src, dst, w.key))
    }

    /// Sends a message at cycle `now`: samples its delay, then queues
    /// it. Returns the delivery cycle if the message was queued
    /// (event-driven callers schedule their delivery wake from it), or
    /// `None` if it was dropped at send time. Partition checks re-run at
    /// delivery time against the whole flight interval, so a message in
    /// flight when a partition starts — or whose flight spans a short
    /// partition entirely — is also lost.
    pub fn send(&mut self, now: u64, msg: Message<P>) -> Option<u64> {
        if self.partitioned(msg.src, now) || self.partitioned(msg.dst, now) {
            self.stats.dropped_partition += 1;
            return None;
        }
        if self.rack_cut(msg.src, msg.dst, now) {
            self.stats.dropped_rack += 1;
            return None;
        }
        if msg.payload.is_beat() && self.in_beat_loss(msg.src, now) {
            self.stats.dropped_burst += 1;
            return None;
        }
        let at = now + BASE_DELAY + splitmix64(&mut self.rng) % JITTER;
        self.queue.insert((at, self.seq), (now, msg));
        self.seq += 1;
        self.stats.sent += 1;
        Some(at)
    }

    /// Pops every message due at or before `now`, re-checking partitions
    /// and rack cuts against each message's full flight interval
    /// `[sent_at, now]`. Delivery order: `(deliver_at, send seq)`.
    pub fn deliver_due(&mut self, now: u64) -> Vec<Message<P>> {
        let mut out = Vec::new();
        while let Some((&key, _)) = self.queue.iter().next() {
            if key.0 > now {
                break;
            }
            let (sent_at, msg) = self.queue.remove(&key).expect("key just observed");
            if self.partition_touched(msg.src, msg.dst, sent_at, now) {
                self.stats.dropped_partition += 1;
                continue;
            }
            if self.rack_touched(msg.src, msg.dst, sent_at, now) {
                self.stats.dropped_rack += 1;
                continue;
            }
            self.stats.delivered += 1;
            out.push(msg);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat(src: NodeId, dst: NodeId) -> Message {
        Message {
            src,
            dst,
            payload: Payload::Beat,
        }
    }

    /// Sends `msg` at `now`, checks that it was queued for delivery
    /// inside `[now + BASE_DELAY, now + MAX_DELAY]`, and returns that
    /// cycle.
    fn send_in_window(net: &mut Network, now: u64, msg: Message) -> u64 {
        let at = net.send(now, msg).expect("queued");
        assert!(
            (now + BASE_DELAY..=now + MAX_DELAY).contains(&at),
            "sent at {now}, due at {at}"
        );
        at
    }

    #[test]
    fn delivery_respects_delay_and_order() {
        let mut net = Network::new(7);
        // More messages than jitter values, so some share a delivery
        // cycle and send order must break the tie.
        let due: Vec<u64> = (0..64)
            .map(|dst| send_in_window(&mut net, 0, beat(0, dst)))
            .collect();
        assert!(net.deliver_due(BASE_DELAY - 1).is_empty());
        let got: Vec<NodeId> = net.deliver_due(MAX_DELAY).iter().map(|m| m.dst).collect();
        let mut order: Vec<NodeId> = (0..64).collect();
        order.sort_by_key(|&dst| (due[usize::from(dst)], dst));
        assert_eq!(got, order);
    }

    #[test]
    fn partitions_block_both_directions_and_in_flight() {
        let mut net = Network::new(7);
        net.add_partition(1, 5, 100);
        assert_eq!(net.send(6, beat(1, 0)), None); // from: dropped at send
        assert_eq!(net.send(6, beat(0, 1)), None); // to: dropped at send
        assert!(net.deliver_due(50).is_empty());
        // In flight when the partition begins: dropped at delivery.
        let mut net = Network::new(7);
        net.add_partition(1, 5, 100);
        let at = send_in_window(&mut net, 0, beat(0, 1)); // partition starts at 5
        assert!(net.deliver_due(at).is_empty());
        assert_eq!(net.stats().dropped_partition, 1);
    }

    #[test]
    fn partition_healing_drops_in_flight_messages_not_delivers_them_stale() {
        // A message queued across a partition boundary whose delivery is
        // polled only AFTER the heal must be dropped, not delivered as
        // if the partition never happened. (The flight interval
        // [2, 150] spans the whole [5, 100) window.)
        let mut net = Network::new(7);
        net.add_partition(1, 5, 100);
        send_in_window(&mut net, 2, beat(0, 1)); // queued pre-partition
        let got = net.deliver_due(150); // first poll is post-heal
        assert!(got.is_empty(), "stale pre-partition message delivered");
        assert_eq!(net.stats().dropped_partition, 1);
        assert_eq!(net.stats().delivered, 0);
        // Traffic sent after the heal flows again.
        let at = send_in_window(&mut net, 150, beat(0, 1));
        assert_eq!(net.deliver_due(at).len(), 1);
    }

    #[test]
    fn flights_entirely_outside_the_window_are_unaffected() {
        let mut net = Network::new(7);
        let (from, to) = (MAX_DELAY + 1, MAX_DELAY + 11);
        net.add_partition(1, from, to);
        // Flight [0, at ≤ MAX_DELAY]: completes before the window opens.
        let at = send_in_window(&mut net, 0, beat(0, 1));
        assert_eq!(net.deliver_due(at).len(), 1);
        // Flight [to, …]: starts at the instant the window closes.
        let at = send_in_window(&mut net, to, beat(0, 1));
        assert_eq!(net.deliver_due(at).len(), 1);
        assert_eq!(net.stats().dropped_partition, 0);
    }

    #[test]
    fn rack_cut_blocks_only_boundary_crossing_links() {
        // Nodes 0,1 in rack 0; nodes 2,3 in rack 1; node 4 rackless.
        let mut net = Network::new(7);
        net.set_racks(vec![0, 0, 1, 1]);
        net.add_rack_cut(0, 5, 100);
        assert_eq!(net.send(10, beat(0, 2)), None); // crosses out of rack 0
        assert_eq!(net.send(10, beat(3, 1)), None); // crosses into rack 0
        assert_eq!(net.send(10, beat(4, 0)), None); // rackless → rack 0
        send_in_window(&mut net, 10, beat(0, 1)); // intra-rack survives
        send_in_window(&mut net, 10, beat(2, 3)); // other rack untouched
        send_in_window(&mut net, 10, beat(2, 4)); // fully outside
        assert_eq!(net.deliver_due(10 + MAX_DELAY).len(), 3);
        assert_eq!(net.stats().dropped_rack, 3);
        // After the cut heals, cross-boundary links work again.
        let at = send_in_window(&mut net, 100, beat(0, 2));
        assert_eq!(net.deliver_due(at).len(), 1);
    }

    #[test]
    fn rack_cut_drops_in_flight_crossing_messages() {
        let mut net = Network::new(7);
        net.set_racks(vec![0, 0, 1]);
        net.add_rack_cut(1, 5, 100);
        net.send(0, beat(0, 2)); // in flight when the cut starts
        net.send(0, beat(0, 1)); // intra-rack flight unaffected
        let got = net.deliver_due(150);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].dst, 1);
        assert_eq!(net.stats().dropped_rack, 1);
    }

    #[test]
    fn beat_loss_drops_only_beats() {
        let mut net = Network::new(7);
        net.add_beat_loss(2, 0, 100);
        net.send(10, beat(2, 0));
        net.send(10, beat(0, 2)); // inbound beats unaffected
        net.send(
            10,
            Message {
                src: 2,
                dst: 0,
                payload: Payload::Probe,
            },
        );
        let got = net.deliver_due(10 + MAX_DELAY);
        assert_eq!(got.len(), 2);
        assert_eq!(net.stats().dropped_burst, 1);
    }

    #[test]
    fn max_delay_bounds_every_sampled_delivery() {
        let mut net: Network = Network::new(99);
        let delays: Vec<u64> = (0..200u64)
            .map(|t| send_in_window(&mut net, t, beat(0, 1)) - t)
            .collect();
        // Both bounds are tight: each extreme is sampled.
        assert_eq!(delays.iter().min(), Some(&BASE_DELAY));
        assert_eq!(delays.iter().max(), Some(&MAX_DELAY));
    }

    #[test]
    fn same_seed_replays_identically() {
        let run = |seed: u64| {
            let mut net = Network::new(seed);
            for t in 0..200u64 {
                net.send(t, beat((t % 3) as NodeId, ((t + 1) % 3) as NodeId));
            }
            let got = net.deliver_due(1000);
            (
                got.iter().map(|m| (m.src, m.dst)).collect::<Vec<_>>(),
                net.stats(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1.delivered, 0);
        assert_ne!(run(42), run(43), "the seed drives the jitter");
    }
}
