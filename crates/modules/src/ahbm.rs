//! The Adaptive Heartbeat Monitor (AHBM) — §4.4 of the paper.
//!
//! Hardware support for heartbeating of operating-system and application
//! processes/threads. The block diagram of Figure 7:
//!
//! * `ENTITY_IDX` — a content-addressable memory holding the ids of
//!   monitored entities,
//! * `COUNTER_RAM` — per-entity heartbeat counters, incremented by the
//!   *Increment Counter Value* CHECK instruction,
//! * `TIMEOUT_MEM` — per-entity dynamic timeout values,
//! * the *Adaptive Timeout Monitor* — samples the counters at a fixed
//!   interval and recalculates per-entity timeouts with an adaptive
//!   algorithm.
//!
//! The paper omits the timeout algorithm "due to space limitations"; we
//! use the classic Jacobson/Karn mean-plus-deviation estimator (the same
//! family used for TCP RTO): the mean inter-beat interval and its mean
//! absolute deviation are tracked with exponentially weighted moving
//! averages, and `timeout = mean + k·dev` (with a floor). An entity whose
//! counter does not advance for longer than its timeout is declared dead.
//!
//! ## Fixed-point arithmetic
//!
//! The estimator state is kept in **Q16.16 fixed point** (integer cycles
//! scaled by 2^16) rather than `f64`. The EWMA gains are Q16.16 constants
//! and every update is pure integer arithmetic (shifts, adds, widening
//! multiplies), so the adaptive timeouts are bit-identical across
//! platforms, compilers, and optimization levels — a requirement for the
//! replayable fleet goldens (`fleet_soak`), and an accurate model of what
//! the hardware Adaptive Timeout Monitor would actually implement.
//!
//! ## Remote-peer monitoring
//!
//! [`PeerMonitor`] extends the block from *local-entity* monitoring to
//! *remote-peer* monitoring for the fleet heartbeat fabric: incoming
//! heartbeat messages from peer nodes increment `COUNTER_RAM` entries
//! keyed by peer id, the same adaptive estimator drives a three-level
//! suspicion state (Alive → Suspect → Dead) with probe-before-declare
//! retry and exponential backoff mirroring the per-module health machine
//! in `rse_core::health`.

use rse_core::{ChkDispatch, Module, ModuleCtx, RobTable, Verdict};
use rse_isa::chk::ops;
use rse_isa::ModuleId;
use rse_pipeline::RobId;
use std::any::Any;
use std::collections::BTreeMap;

/// An identifier of a monitored entity (process/thread/OS), as carried in
/// the CHECK instruction's 16-bit parameter.
pub type EntityId = u16;

/// One in Q16.16 fixed point.
pub const Q16_ONE: u32 = 1 << 16;

/// AHBM configuration.
///
/// The EWMA gains are expressed in Q16.16 fixed point (see [`q16`]); the
/// defaults correspond to the classic Jacobson/Karn constants
/// `alpha = 1/8`, `beta = 1/4`, `k = 4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AhbmConfig {
    /// Sampling interval of the Adaptive Timeout Monitor, in cycles.
    pub sample_interval: u64,
    /// EWMA gain for the mean inter-beat interval, Q16.16 (0 < alpha ≤ 1).
    pub alpha_q16: u32,
    /// EWMA gain for the mean absolute deviation, Q16.16.
    pub beta_q16: u32,
    /// Deviation multiplier `k` in `timeout = mean + k·dev`, Q16.16.
    pub k_q16: u32,
    /// Lower bound on the timeout, in cycles (guards against a timeout
    /// collapsing to ~0 for perfectly regular heartbeats).
    pub min_timeout: u64,
    /// Initial timeout before any interval estimate exists.
    pub initial_timeout: u64,
}

/// Converts the rational `num/den` to Q16.16 fixed point (truncating).
///
/// `q16(1, 8)` is the Jacobson `alpha`, `q16(4, 1)` the classic `k`.
pub const fn q16(num: u32, den: u32) -> u32 {
    (((num as u64) << 16) / den as u64) as u32
}

impl AhbmConfig {
    /// Converts the rational `num/den` to Q16.16 fixed point.
    pub const fn q16(num: u32, den: u32) -> u32 {
        q16(num, den)
    }
}

impl Default for AhbmConfig {
    fn default() -> AhbmConfig {
        AhbmConfig {
            sample_interval: 256,
            alpha_q16: q16(1, 8),
            beta_q16: q16(1, 4),
            k_q16: q16(4, 1),
            min_timeout: 512,
            initial_timeout: 100_000,
        }
    }
}

/// The Jacobson/Karn mean-plus-deviation interval estimator in Q16.16
/// fixed point.
///
/// All state and arithmetic are integer-only, so a sequence of
/// `observe()` calls produces bit-identical `timeout()` values on every
/// platform and optimization level. Intermediate products are widened to
/// 128 bits so even pathological intervals (up to 2^47 cycles) cannot
/// overflow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalEstimator {
    /// Estimated mean inter-beat interval, Q16.16 cycles.
    mean_q16: u64,
    /// Estimated mean absolute deviation of the interval, Q16.16 cycles.
    dev_q16: u64,
    /// Whether at least one interval has been observed.
    primed: bool,
}

impl IntervalEstimator {
    /// A fresh estimator with no observations.
    pub fn new() -> IntervalEstimator {
        IntervalEstimator::default()
    }

    /// Whether at least one interval has been observed.
    pub fn primed(&self) -> bool {
        self.primed
    }

    /// Feeds one measured inter-beat interval (in cycles).
    pub fn observe(&mut self, measured: u64, alpha_q16: u32, beta_q16: u32) {
        // Clamp into the range representable without overflow (2^47
        // cycles is ~4 days at 1 GHz — far beyond any simulated run).
        let m_q16 = measured.min(1 << 47) << 16;
        if !self.primed {
            self.mean_q16 = m_q16;
            self.dev_q16 = m_q16 / 2;
            self.primed = true;
            return;
        }
        // err = measured - mean (signed, Q16.16)
        let err: i128 = m_q16 as i128 - self.mean_q16 as i128;
        // mean += alpha * err
        let mean = self.mean_q16 as i128 + ((alpha_q16 as i128 * err) >> 16);
        self.mean_q16 = mean.clamp(0, u64::MAX as i128) as u64;
        // dev += beta * (|err| - dev)
        let derr: i128 = err.abs() - self.dev_q16 as i128;
        let dev = self.dev_q16 as i128 + ((beta_q16 as i128 * derr) >> 16);
        self.dev_q16 = dev.clamp(0, u64::MAX as i128) as u64;
    }

    /// The adaptive timeout `mean + k·dev` in whole cycles, floored at
    /// `min_timeout`; before any observation, `initial_timeout`.
    pub fn timeout(&self, k_q16: u32, min_timeout: u64, initial_timeout: u64) -> u64 {
        if !self.primed {
            return initial_timeout;
        }
        let kdev = ((k_q16 as u128 * self.dev_q16 as u128) >> 16) as u64;
        (self.mean_q16.saturating_add(kdev) >> 16).max(min_timeout)
    }

    /// The mean interval estimate, truncated to whole cycles.
    pub fn mean_cycles(&self) -> u64 {
        self.mean_q16 >> 16
    }

    /// The deviation estimate, truncated to whole cycles.
    pub fn deviation_cycles(&self) -> u64 {
        self.dev_q16 >> 16
    }

    /// The raw Q16.16 mean (for tests asserting bit-exactness).
    pub fn mean_q16(&self) -> u64 {
        self.mean_q16
    }

    /// The raw Q16.16 deviation (for tests asserting bit-exactness).
    pub fn dev_q16(&self) -> u64 {
        self.dev_q16
    }
}

/// Liveness state of one monitored entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntityState {
    /// Heartbeat counter (`COUNTER_RAM` value).
    pub counter: u64,
    /// The fixed-point Jacobson/Karn interval estimator.
    pub est: IntervalEstimator,
    /// Current dynamic timeout (`TIMEOUT_MEM` value), cycles.
    pub timeout: u64,
    /// Cycle of the last observed counter change.
    pub last_beat: u64,
    /// Whether the monitor currently believes the entity is alive.
    pub alive: bool,
}

/// AHBM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AhbmStats {
    /// Heartbeats applied (committed `AHBM_BEAT` CHECKs).
    pub beats: u64,
    /// Entities registered.
    pub registrations: u64,
    /// Liveness failures declared.
    pub failures_declared: u64,
    /// Sampling passes performed.
    pub samples: u64,
}

#[derive(Debug, Clone, Copy)]
enum PendingOp {
    Register(EntityId),
    Beat(EntityId),
    Deregister(EntityId),
}

/// The Adaptive Heartbeat Monitor module.
///
/// Entities are kept in a `BTreeMap` so sampling visits them in sorted id
/// order: the order in which same-cycle failures are declared (and thus
/// the order of [`Ahbm::take_failed`]) is deterministic across processes
/// and platforms.
#[derive(Debug)]
pub struct Ahbm {
    config: AhbmConfig,
    entities: BTreeMap<EntityId, EntityState>,
    pending: RobTable<PendingOp>,
    failed: Vec<EntityId>,
    next_sample: u64,
    stats: AhbmStats,
    /// Duplicated running sum of all `COUNTER_RAM` values, maintained at
    /// every legitimate counter update, so the §3.4 self-test can detect
    /// a soft error upsetting a heartbeat counter.
    counter_shadow: u64,
}

impl Ahbm {
    /// Creates an AHBM module.
    pub fn new(config: AhbmConfig) -> Ahbm {
        Ahbm {
            config,
            entities: BTreeMap::new(),
            pending: RobTable::new(),
            failed: Vec::new(),
            next_sample: 0,
            stats: AhbmStats::default(),
            counter_shadow: 0,
        }
    }

    /// Module counters.
    pub fn stats(&self) -> AhbmStats {
        self.stats
    }

    /// The state of a monitored entity.
    pub fn entity(&self, id: EntityId) -> Option<&EntityState> {
        self.entities.get(&id)
    }

    /// Whether the monitor believes `id` is alive (unknown entities are
    /// not alive).
    pub fn is_alive(&self, id: EntityId) -> bool {
        self.entities.get(&id).is_some_and(|e| e.alive)
    }

    /// Entities declared dead since the last call (in declaration order,
    /// which is deterministic: sorted by id within one sampling pass).
    pub fn take_failed(&mut self) -> Vec<EntityId> {
        std::mem::take(&mut self.failed)
    }

    /// Registers an entity directly (OS-side path; equivalent to a
    /// committed `AHBM_REGISTER` CHECK).
    pub fn register(&mut self, id: EntityId, now: u64) {
        self.stats.registrations += 1;
        if let Some(old) = self.entities.get(&id) {
            // Re-registration resets the counter: keep the shadow sum
            // consistent.
            self.counter_shadow -= old.counter;
        }
        self.entities.insert(
            id,
            EntityState {
                counter: 0,
                est: IntervalEstimator::new(),
                timeout: self.config.initial_timeout,
                last_beat: now,
                alive: true,
            },
        );
    }

    /// Stops monitoring `id` (OS-side path; equivalent to a committed
    /// `AHBM_DEREGISTER` CHECK).
    pub fn deregister(&mut self, id: EntityId) {
        if let Some(old) = self.entities.remove(&id) {
            self.counter_shadow -= old.counter;
        }
    }

    /// Applies one heartbeat for `id` at cycle `now`.
    pub fn beat(&mut self, id: EntityId, now: u64) {
        let cfg = self.config;
        let Some(e) = self.entities.get_mut(&id) else {
            return;
        };
        self.stats.beats += 1;
        e.counter += 1;
        self.counter_shadow += 1;
        let measured = now.saturating_sub(e.last_beat);
        e.est.observe(measured, cfg.alpha_q16, cfg.beta_q16);
        e.timeout = e
            .est
            .timeout(cfg.k_q16, cfg.min_timeout, cfg.initial_timeout);
        e.last_beat = now;
        // A heartbeat resurrects a previously-declared-dead entity (e.g.
        // a stalled thread that resumed).
        e.alive = true;
    }

    /// Host-side sampling hook: runs one Adaptive Timeout Monitor pass if
    /// the sampling interval has elapsed (the same behavior `Module::tick`
    /// performs inside the engine) — used by host-level evaluations that
    /// drive the module without a pipeline.
    pub fn host_sample(&mut self, now: u64) {
        if now >= self.next_sample {
            self.sample(now);
            self.next_sample = now + self.config.sample_interval;
        }
    }

    fn sample(&mut self, now: u64) {
        self.stats.samples += 1;
        // BTreeMap iteration: sorted by entity id, so same-cycle failures
        // are declared in a platform-independent order.
        for (id, e) in self.entities.iter_mut() {
            if e.alive && now.saturating_sub(e.last_beat) > e.timeout {
                e.alive = false;
                self.failed.push(*id);
                self.stats.failures_declared += 1;
            }
        }
    }
}

impl Module for Ahbm {
    fn id(&self) -> ModuleId {
        ModuleId::AHBM
    }

    fn name(&self) -> &'static str {
        "adaptive-heartbeat-monitor"
    }

    fn on_chk(&mut self, chk: &ChkDispatch, ctx: &mut ModuleCtx<'_>) {
        if chk.spec.op == ops::SELFTEST {
            let verdict = self.self_test();
            ctx.complete_check(chk.rob, verdict);
            return;
        }
        let id = chk.spec.param;
        let op = match chk.spec.op {
            ops::AHBM_REGISTER => PendingOp::Register(id),
            ops::AHBM_BEAT => PendingOp::Beat(id),
            ops::AHBM_DEREGISTER => PendingOp::Deregister(id),
            _ => return,
        };
        // Asynchronous module: the effect is logged at commit.
        self.pending.insert(chk.rob, op);
    }

    fn on_commit(&mut self, rob: RobId, ctx: &mut ModuleCtx<'_>) {
        let Some(op) = self.pending.remove(rob) else {
            return;
        };
        match op {
            PendingOp::Register(id) => self.register(id, ctx.now),
            PendingOp::Beat(id) => self.beat(id, ctx.now),
            PendingOp::Deregister(id) => self.deregister(id),
        }
    }

    fn on_squash(&mut self, rob: RobId, _ctx: &mut ModuleCtx<'_>) {
        self.pending.remove(rob);
    }

    fn tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        if ctx.now >= self.next_sample {
            self.sample(ctx.now);
            self.next_sample = ctx.now + self.config.sample_interval;
        }
    }

    fn self_test(&mut self) -> Verdict {
        // Recompute the COUNTER_RAM sum and compare it to the duplicated
        // running total.
        let sum: u64 = self.entities.values().map(|e| e.counter).sum();
        if sum == self.counter_shadow {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    }

    fn corrupt_state(&mut self, seed: u64) -> bool {
        // Upset one heartbeat counter (deterministically picked by the
        // seed over the sorted entity ids) without touching the shadow.
        let ids: Vec<EntityId> = self.entities.keys().copied().collect();
        if let Some(&id) = ids.get(seed as usize % ids.len().max(1)) {
            let delta = 1 + (seed >> 8) % 7;
            self.entities
                .get_mut(&id)
                .expect("picked from live keys")
                .counter += delta;
        } else {
            // No monitored entities: upset the shadow register instead.
            self.counter_shadow ^= 1 << (seed % 64);
        }
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Remote-peer monitoring (fleet heartbeat fabric)
// ---------------------------------------------------------------------------

/// An identifier of a remote peer node.
pub type PeerId = u16;

/// Suspicion level of one remote peer.
///
/// Mirrors the per-module health machine (`rse_core::health`): a missed
/// timeout does not immediately declare the peer dead; the monitor first
/// *suspects* it and sends probes with exponential backoff
/// (`probe_base << probes_sent`). Only after `max_probes` unanswered
/// probes is the peer declared dead — a terminal state until the recovery
/// coordinator explicitly [`PeerMonitor::reinstate`]s it (fencing: a
/// partitioned-but-alive node that rejoins must be quarantined, not
/// silently resurrected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PeerState {
    /// Heartbeats arriving within the adaptive timeout.
    Alive,
    /// Timeout exceeded; probing before declaring death.
    Suspect,
    /// Declared dead after probe exhaustion (absorbing until reinstated).
    Dead,
}

impl std::fmt::Display for PeerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PeerState::Alive => "alive",
            PeerState::Suspect => "suspect",
            PeerState::Dead => "dead",
        };
        f.write_str(s)
    }
}

/// Configuration of a [`PeerMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerConfig {
    /// The adaptive-timeout estimator parameters (shared with the local
    /// AHBM block).
    pub ahbm: AhbmConfig,
    /// Base probe backoff: probe `n` is scheduled `probe_base << n` cycles
    /// after suspicion (mirrors `HealthConfig::probe_base`).
    pub probe_base: u64,
    /// Unanswered probes before a Suspect peer is declared Dead.
    pub max_probes: u32,
}

impl Default for PeerConfig {
    fn default() -> PeerConfig {
        PeerConfig {
            ahbm: AhbmConfig::default(),
            probe_base: 512,
            max_probes: 3,
        }
    }
}

/// Monitoring state for one remote peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerEntry {
    /// Heartbeat counter for this peer (`COUNTER_RAM` keyed by peer id).
    pub counter: u64,
    /// The fixed-point interval estimator.
    pub est: IntervalEstimator,
    /// Current adaptive timeout, cycles.
    pub timeout: u64,
    /// Cycle of the last accepted heartbeat (or probe reply).
    pub last_beat: u64,
    /// Suspicion state.
    pub state: PeerState,
    /// Probes sent since entering Suspect.
    pub probes_sent: u32,
    /// Cycle at which the next probe fires (valid while Suspect).
    pub next_probe_at: u64,
}

/// An event produced by the peer monitor, in deterministic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerEvent {
    /// The peer's adaptive timeout elapsed; it is now Suspect.
    Suspected(PeerId),
    /// A probe should be sent to the peer (probe-before-declare retry).
    ProbeRequest(PeerId),
    /// Probe budget exhausted; the peer is declared Dead.
    DeclaredDead(PeerId),
    /// A heartbeat arrived from a Suspect peer: suspicion refuted.
    Refuted(PeerId),
}

/// The remote-peer extension of the AHBM: adaptive-timeout failure
/// *suspicion* over heartbeat messages from other nodes.
#[derive(Debug, Clone)]
pub struct PeerMonitor {
    config: PeerConfig,
    peers: BTreeMap<PeerId, PeerEntry>,
    events: Vec<PeerEvent>,
    next_sample: u64,
}

impl PeerMonitor {
    /// Creates a peer monitor.
    pub fn new(config: PeerConfig) -> PeerMonitor {
        PeerMonitor {
            config,
            peers: BTreeMap::new(),
            events: Vec::new(),
            next_sample: 0,
        }
    }

    /// Begins monitoring `peer` (its first timeout is
    /// `initial_timeout`, so slow-starting peers are not suspected).
    pub fn register(&mut self, peer: PeerId, now: u64) {
        self.peers.insert(
            peer,
            PeerEntry {
                counter: 0,
                est: IntervalEstimator::new(),
                timeout: self.config.ahbm.initial_timeout,
                last_beat: now,
                state: PeerState::Alive,
                probes_sent: 0,
                next_probe_at: 0,
            },
        );
    }

    /// The monitoring entry for `peer`.
    pub fn peer(&self, peer: PeerId) -> Option<&PeerEntry> {
        self.peers.get(&peer)
    }

    /// The suspicion state of `peer` (unknown peers are Dead).
    pub fn state(&self, peer: PeerId) -> PeerState {
        self.peers.get(&peer).map_or(PeerState::Dead, |p| p.state)
    }

    /// All monitored peer ids, sorted.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.peers.keys().copied().collect()
    }

    /// Applies a heartbeat (or probe reply) from `peer` at cycle `now`.
    ///
    /// A Dead peer's beats are **ignored** (fencing: resurrection is the
    /// recovery coordinator's decision via [`PeerMonitor::reinstate`]).
    pub fn beat(&mut self, peer: PeerId, now: u64) {
        let cfg = self.config.ahbm;
        let Some(e) = self.peers.get_mut(&peer) else {
            return;
        };
        if e.state == PeerState::Dead {
            return;
        }
        e.counter += 1;
        let measured = now.saturating_sub(e.last_beat);
        e.est.observe(measured, cfg.alpha_q16, cfg.beta_q16);
        e.timeout = e
            .est
            .timeout(cfg.k_q16, cfg.min_timeout, cfg.initial_timeout);
        e.last_beat = now;
        if e.state == PeerState::Suspect {
            e.state = PeerState::Alive;
            e.probes_sent = 0;
            self.events.push(PeerEvent::Refuted(peer));
        }
    }

    /// Runs one suspicion pass if the sampling interval elapsed.
    ///
    /// Peers are visited in sorted id order, so same-cycle transitions
    /// produce a deterministic event sequence.
    pub fn sample(&mut self, now: u64) {
        if now < self.next_sample {
            return;
        }
        self.next_sample = now + self.config.ahbm.sample_interval;
        let probe_base = self.config.probe_base;
        let max_probes = self.config.max_probes;
        for (id, e) in self.peers.iter_mut() {
            match e.state {
                PeerState::Alive => {
                    if now.saturating_sub(e.last_beat) > e.timeout {
                        e.state = PeerState::Suspect;
                        e.probes_sent = 0;
                        e.next_probe_at = now;
                        self.events.push(PeerEvent::Suspected(*id));
                    }
                }
                PeerState::Suspect => {
                    if now >= e.next_probe_at {
                        if e.probes_sent >= max_probes {
                            e.state = PeerState::Dead;
                            self.events.push(PeerEvent::DeclaredDead(*id));
                        } else {
                            // Exponential backoff, mirroring
                            // `HealthConfig::probe_base << attempts`.
                            e.next_probe_at = now + (probe_base << e.probes_sent);
                            e.probes_sent += 1;
                            self.events.push(PeerEvent::ProbeRequest(*id));
                        }
                    }
                }
                PeerState::Dead => {}
            }
        }
    }

    /// Drains the pending events (in generation order).
    pub fn take_events(&mut self) -> Vec<PeerEvent> {
        std::mem::take(&mut self.events)
    }

    /// Whether any events are pending (without draining them).
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// The configured sampling interval (event schedulers assert it
    /// against their grid).
    pub fn sample_interval(&self) -> u64 {
        self.config.ahbm.sample_interval
    }

    /// The earliest future cycle at which a [`PeerMonitor::sample`] call
    /// can change any peer's state — the monitor's *wake deadline* for
    /// event-driven hosts. `None` means no sample will ever transition
    /// anything (every peer Dead): the host need not schedule a wake.
    ///
    /// Per peer: an Alive peer becomes Suspect at `last_beat + timeout +
    /// 1` (the suspicion test is strict), a Suspect peer acts at
    /// `next_probe_at`, a Dead peer never acts. A sample at the returned
    /// cycle (or any later cycle) observes the transition; samples
    /// strictly before every returned deadline are guaranteed no-ops, so
    /// an event-driven host that only samples at these deadlines (plus
    /// on beat arrivals) is equivalent to one sampling every cycle.
    pub fn next_deadline(&self) -> Option<u64> {
        self.peers
            .values()
            .filter_map(|e| match e.state {
                PeerState::Alive => Some(e.last_beat + e.timeout + 1),
                PeerState::Suspect => Some(e.next_probe_at),
                PeerState::Dead => None,
            })
            .min()
    }

    /// Coordinator-approved resurrection of a Dead (or Suspect) peer:
    /// resets the estimator and returns the peer to Alive with a fresh
    /// `initial_timeout` grace period.
    pub fn reinstate(&mut self, peer: PeerId, now: u64) {
        if let Some(e) = self.peers.get_mut(&peer) {
            e.est = IntervalEstimator::new();
            e.timeout = self.config.ahbm.initial_timeout;
            e.last_beat = now;
            e.state = PeerState::Alive;
            e.probes_sent = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_core::Verdict;

    #[test]
    fn q16_constants() {
        assert_eq!(q16(1, 8), 8192);
        assert_eq!(q16(1, 4), 16384);
        assert_eq!(q16(4, 1), 4 << 16);
        assert_eq!(q16(1, 1), Q16_ONE);
    }

    #[test]
    fn estimator_is_integer_exact() {
        // First observation primes mean = m, dev = m/2.
        let mut est = IntervalEstimator::new();
        est.observe(20, q16(1, 8), q16(1, 4));
        assert_eq!(est.mean_q16(), 20 << 16);
        assert_eq!(est.dev_q16(), 10 << 16);
        // timeout = mean + 4*dev = 20 + 40 = 60 (exact).
        assert_eq!(est.timeout(q16(4, 1), 0, 999), 60);
        // A second identical observation: err = 0, dev decays by beta.
        est.observe(20, q16(1, 8), q16(1, 4));
        assert_eq!(est.mean_q16(), 20 << 16);
        // dev += 1/4 * (0 - dev) => dev = 3/4 * 10 = 7.5 cycles.
        assert_eq!(est.dev_q16(), (10 << 16) * 3 / 4);
        assert_eq!(est.timeout(q16(4, 1), 0, 999), 50);
    }

    #[test]
    fn estimator_replays_bit_identically() {
        // Two estimators fed the same jittered sequence must agree in
        // every bit — the property the fleet goldens rely on.
        let seq: Vec<u64> = (0..200).map(|i| 20 + (i * 7) % 13).collect();
        let mut a = IntervalEstimator::new();
        let mut b = IntervalEstimator::new();
        for &m in &seq {
            a.observe(m, q16(1, 8), q16(1, 4));
        }
        for &m in &seq {
            b.observe(m, q16(1, 8), q16(1, 4));
        }
        assert_eq!(a, b);
        assert_eq!(a.mean_q16(), b.mean_q16());
        assert_eq!(a.timeout(q16(4, 1), 50, 999), b.timeout(q16(4, 1), 50, 999));
    }

    #[test]
    fn estimator_huge_intervals_do_not_overflow() {
        let mut est = IntervalEstimator::new();
        est.observe(u64::MAX, q16(1, 1), q16(1, 1));
        est.observe(u64::MAX, q16(1, 1), q16(1, 1));
        // Clamped at 2^47 cycles; timeout saturates without panicking.
        let t = est.timeout(q16(4, 1), 0, 0);
        assert!(t >= 1 << 47);
    }

    #[test]
    fn selftest_passes_until_counter_is_corrupted() {
        let mut ahbm = Ahbm::new(AhbmConfig::default());
        ahbm.register(7, 0);
        ahbm.beat(7, 100);
        ahbm.beat(7, 200);
        assert_eq!(Module::self_test(&mut ahbm), Verdict::Pass);
        assert!(Module::corrupt_state(&mut ahbm, 99));
        assert_eq!(Module::self_test(&mut ahbm), Verdict::Fail);
    }

    #[test]
    fn deregister_keeps_shadow_sum_consistent() {
        let mut ahbm = Ahbm::new(AhbmConfig::default());
        ahbm.register(1, 0);
        ahbm.register(2, 0);
        ahbm.beat(1, 10);
        ahbm.beat(2, 10);
        ahbm.beat(2, 20);
        // Deregistration of entity 2 must subtract its beats.
        ahbm.deregister(2);
        assert_eq!(Module::self_test(&mut ahbm), Verdict::Pass);
        // Re-registration resets the counter without breaking the sum.
        ahbm.register(1, 30);
        assert_eq!(Module::self_test(&mut ahbm), Verdict::Pass);
    }

    fn cfg() -> AhbmConfig {
        AhbmConfig {
            sample_interval: 10,
            min_timeout: 50,
            initial_timeout: 1000,
            ..AhbmConfig::default()
        }
    }

    fn drive(ahbm: &mut Ahbm, beats: &[(EntityId, u64)], until: u64) {
        // Apply beats at their cycles, sampling as the module would.
        let mut next_sample = 0;
        let mut bi = 0;
        for now in 0..until {
            while bi < beats.len() && beats[bi].1 == now {
                ahbm.beat(beats[bi].0, now);
                bi += 1;
            }
            if now >= next_sample {
                ahbm.sample(now);
                next_sample = now + ahbm.config.sample_interval;
            }
        }
    }

    #[test]
    fn regular_heartbeats_stay_alive() {
        let mut a = Ahbm::new(cfg());
        a.register(1, 0);
        let beats: Vec<(EntityId, u64)> = (1..50).map(|i| (1, i * 20)).collect();
        drive(&mut a, &beats, 1000);
        assert!(a.is_alive(1));
        assert!(a.take_failed().is_empty());
        // The adaptive timeout converged to the exact beat interval (the
        // fixed-point estimator is exact for a constant input).
        let e = a.entity(1).unwrap();
        assert_eq!(e.est.mean_cycles(), 20, "mean={}", e.est.mean_cycles());
        assert_eq!(e.timeout, 50, "floored at min_timeout");
    }

    #[test]
    fn silence_is_detected() {
        let mut a = Ahbm::new(cfg());
        a.register(1, 0);
        // Beats every 20 cycles until cycle 400, then silence.
        let beats: Vec<(EntityId, u64)> = (1..21).map(|i| (1, i * 20)).collect();
        drive(&mut a, &beats, 2000);
        assert!(!a.is_alive(1));
        assert_eq!(a.take_failed(), vec![1]);
        assert_eq!(a.stats().failures_declared, 1);
    }

    #[test]
    fn adaptive_timeout_tolerates_slow_but_regular_entities() {
        let mut a = Ahbm::new(AhbmConfig {
            min_timeout: 10,
            ..cfg()
        });
        a.register(1, 0); // fast: every 20 cycles
        a.register(2, 0); // slow: every 300 cycles
        let mut beats: Vec<(EntityId, u64)> = Vec::new();
        for i in 1..100 {
            beats.push((1, i * 20));
        }
        for i in 1..7 {
            beats.push((2, i * 300));
        }
        beats.sort_by_key(|b| b.1);
        drive(&mut a, &beats, 2000);
        // The slow entity's timeout adapted upward, so it is still alive
        // despite an interval that would kill the fast entity.
        assert!(a.is_alive(2));
        assert!(a.entity(2).unwrap().timeout >= 300);
        assert!(a.entity(1).unwrap().timeout < a.entity(2).unwrap().timeout);
    }

    #[test]
    fn faster_detection_for_faster_entities() {
        let mut a = Ahbm::new(AhbmConfig {
            min_timeout: 10,
            ..cfg()
        });
        a.register(1, 0);
        a.register(2, 0);
        let mut beats: Vec<(EntityId, u64)> = Vec::new();
        for i in 1..50 {
            beats.push((1, i * 20)); // dies at 1000
        }
        for i in 1..4 {
            beats.push((2, i * 300)); // dies at 900
        }
        beats.sort_by_key(|b| b.1);
        drive(&mut a, &beats, 5000);
        assert!(!a.is_alive(1));
        assert!(!a.is_alive(2));
        // Detection latency relative to last beat is shorter for the
        // fast-beating entity (its adaptive timeout is tighter).
        assert!(a.entity(1).unwrap().timeout < a.entity(2).unwrap().timeout);
    }

    #[test]
    fn resurrection_on_new_beat() {
        let mut a = Ahbm::new(cfg());
        a.register(1, 0);
        let beats: Vec<(EntityId, u64)> = (1..11).map(|i| (1, i * 20)).collect();
        drive(&mut a, &beats, 1500);
        assert!(!a.is_alive(1));
        a.beat(1, 1500);
        assert!(a.is_alive(1));
    }

    #[test]
    fn deregistered_entities_are_forgotten() {
        let mut a = Ahbm::new(cfg());
        a.register(3, 0);
        assert!(a.is_alive(3));
        a.entities.remove(&3);
        assert!(!a.is_alive(3));
        assert!(a.entity(3).is_none());
    }

    #[test]
    fn beats_for_unregistered_entities_ignored() {
        let mut a = Ahbm::new(cfg());
        a.beat(9, 100);
        assert_eq!(a.stats().beats, 0);
        assert!(!a.is_alive(9));
    }

    #[test]
    fn same_cycle_failures_are_declared_in_sorted_order() {
        // Register ids in scrambled order; all time out at the same
        // sampling pass. take_failed() must come back sorted regardless.
        let mut a = Ahbm::new(cfg());
        for id in [9, 2, 7, 1, 5] {
            a.register(id, 0);
            // Two beats at identical intervals so every entity shares the
            // same tight timeout.
            a.beat(id, 20);
            a.beat(id, 40);
        }
        a.sample(5000);
        assert_eq!(a.take_failed(), vec![1, 2, 5, 7, 9]);
    }

    // ---- PeerMonitor -----------------------------------------------------

    fn peer_cfg() -> PeerConfig {
        PeerConfig {
            ahbm: AhbmConfig {
                sample_interval: 10,
                min_timeout: 50,
                initial_timeout: 1000,
                ..AhbmConfig::default()
            },
            probe_base: 20,
            max_probes: 2,
        }
    }

    #[test]
    fn peer_suspicion_escalates_through_probes_to_dead() {
        let mut pm = PeerMonitor::new(peer_cfg());
        pm.register(3, 0);
        for t in (20..=200).step_by(20) {
            pm.beat(3, t);
        }
        assert_eq!(pm.state(3), PeerState::Alive);
        // Silence. First sample past the timeout suspects the peer.
        pm.sample(300);
        assert_eq!(pm.state(3), PeerState::Suspect);
        let ev = pm.take_events();
        assert_eq!(ev, vec![PeerEvent::Suspected(3)]);
        // Probes with exponential backoff, then death.
        let mut probes = 0;
        let mut dead_at = None;
        for now in (310..2000).step_by(10) {
            pm.sample(now);
            for e in pm.take_events() {
                match e {
                    PeerEvent::ProbeRequest(3) => probes += 1,
                    PeerEvent::DeclaredDead(3) => dead_at = Some(now),
                    other => panic!("unexpected event {other:?}"),
                }
            }
            if dead_at.is_some() {
                break;
            }
        }
        assert_eq!(probes, 2, "max_probes probes before declaring");
        assert!(dead_at.is_some());
        assert_eq!(pm.state(3), PeerState::Dead);
    }

    #[test]
    fn probe_reply_refutes_suspicion() {
        let mut pm = PeerMonitor::new(peer_cfg());
        pm.register(1, 0);
        for t in (20..=200).step_by(20) {
            pm.beat(1, t);
        }
        pm.sample(300);
        assert_eq!(pm.state(1), PeerState::Suspect);
        pm.take_events();
        // The probe reply arrives: suspicion refuted, peer Alive again.
        pm.beat(1, 310);
        assert_eq!(pm.state(1), PeerState::Alive);
        assert_eq!(pm.take_events(), vec![PeerEvent::Refuted(1)]);
        // And the counter kept counting.
        assert_eq!(pm.peer(1).unwrap().counter, 11);
    }

    #[test]
    fn dead_peer_beats_are_fenced_until_reinstated() {
        let mut pm = PeerMonitor::new(peer_cfg());
        pm.register(2, 0);
        for t in (20..=100).step_by(20) {
            pm.beat(2, t);
        }
        // Drive to Dead.
        for now in (200..3000).step_by(10) {
            pm.sample(now);
            if pm.state(2) == PeerState::Dead {
                break;
            }
        }
        assert_eq!(pm.state(2), PeerState::Dead);
        let counter = pm.peer(2).unwrap().counter;
        // A zombie beat from the partitioned node is ignored.
        pm.beat(2, 3100);
        assert_eq!(pm.state(2), PeerState::Dead);
        assert_eq!(pm.peer(2).unwrap().counter, counter);
        // Coordinator-approved reinstatement restores monitoring.
        pm.reinstate(2, 3200);
        assert_eq!(pm.state(2), PeerState::Alive);
        assert_eq!(pm.peer(2).unwrap().timeout, 1000, "fresh grace period");
        pm.beat(2, 3300);
        assert_eq!(pm.peer(2).unwrap().counter, counter + 1);
    }

    #[test]
    fn next_deadline_tracks_the_earliest_state_change() {
        let mut pm = PeerMonitor::new(peer_cfg());
        pm.register(1, 0);
        pm.register(2, 0);
        // Both fresh: deadline = last_beat + initial_timeout + 1.
        assert_eq!(pm.next_deadline(), Some(1001));
        // Beats tighten peer 1's adaptive timeout; peer 2 stays on the
        // initial grace, so peer 1 now bounds the deadline.
        for t in (20..=200).step_by(20) {
            pm.beat(1, t);
        }
        let e1 = *pm.peer(1).unwrap();
        let d = pm.next_deadline().unwrap();
        assert_eq!(d, e1.last_beat + e1.timeout + 1);
        // A sample strictly before the deadline is a no-op...
        let mut early = pm.clone();
        early.sample(d - 1);
        assert_eq!(early.state(1), PeerState::Alive);
        assert!(early.take_events().is_empty());
        assert_eq!(early.peer(1), pm.peer(1));
        // ...and a sample exactly at it transitions to Suspect, whose
        // deadline is the probe schedule.
        pm.sample(d);
        assert_eq!(pm.state(1), PeerState::Suspect);
        assert_eq!(pm.next_deadline(), Some(pm.peer(1).unwrap().next_probe_at));
    }

    #[test]
    fn next_deadline_is_none_once_every_peer_is_dead() {
        let mut pm = PeerMonitor::new(peer_cfg());
        pm.register(4, 0);
        for t in (20..=100).step_by(20) {
            pm.beat(4, t);
        }
        for now in (200..3000).step_by(10) {
            pm.sample(now);
            if pm.state(4) == PeerState::Dead {
                break;
            }
        }
        assert_eq!(pm.state(4), PeerState::Dead);
        assert_eq!(pm.next_deadline(), None);
        // Reinstatement restores a deadline (fresh grace period).
        pm.reinstate(4, 5000);
        assert_eq!(pm.next_deadline(), Some(5000 + 1000 + 1));
    }

    #[test]
    fn peer_events_are_sorted_within_a_pass() {
        let mut pm = PeerMonitor::new(peer_cfg());
        for id in [8, 1, 5] {
            pm.register(id, 0);
            for t in (20..=100).step_by(20) {
                pm.beat(id, t);
            }
        }
        pm.sample(500);
        assert_eq!(
            pm.take_events(),
            vec![
                PeerEvent::Suspected(1),
                PeerEvent::Suspected(5),
                PeerEvent::Suspected(8)
            ]
        );
    }
}
