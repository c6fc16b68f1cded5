//! The engine: module host, input interface, IOQ, MAU and watchdog,
//! assembled behind the pipeline's [`CoProcessor`] taps.

use crate::config::{RseConfig, FETCH_SCAN_DELAY};
use crate::health::HealthState;
use crate::ioq::{FetchOutEntry, Ioq, IoqEntry, IoqEntryKind, IoqFault};
use crate::mau::Mau;
use crate::module::{ChkDispatch, Module, ModuleCtx, Verdict};
use crate::watchdog::{SafeModeCause, Watchdog};
use rse_isa::chk::{ops, ChkSpec};
use rse_isa::{Inst, ModuleId};
use rse_mem::MemorySystem;
use rse_pipeline::{CoProcessor, CommitGate, CoprocException, DispatchInfo, ExecuteInfo, RobId};
use std::collections::VecDeque;

/// Base of the synthetic ROB-id range used for quarantine self-test
/// probes (one sentinel id per module slot). Guest instructions are
/// numbered from 0 and a run never reaches this range, so probe results
/// flowing through the module→IOQ broadcast path can be told apart from
/// real check results.
pub const PROBE_ROB_BASE: u64 = u64::MAX - ModuleId::SLOTS as u64;

/// The sentinel ROB id of a module's self-test probe.
pub fn probe_rob(id: ModuleId) -> RobId {
    RobId(PROBE_ROB_BASE + id.index() as u64)
}

fn probe_slot(rob: RobId) -> Option<usize> {
    (rob.0 >= PROBE_ROB_BASE).then(|| (rob.0 - PROBE_ROB_BASE) as usize)
}

/// An in-flight quarantine self-test probe.
#[derive(Debug, Clone, Copy)]
struct ProbeFlight {
    issued_at: u64,
    response: Option<Verdict>,
}

/// Counters for the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RseStats {
    /// CHECK instructions observed at dispatch.
    pub chk_dispatched: u64,
    /// Blocking CHECKs routed to modules.
    pub chk_blocking: u64,
    /// Non-blocking CHECKs routed to modules.
    pub chk_non_blocking: u64,
    /// CHECKs addressed to disabled or absent modules (passed through by
    /// the enable/disable unit).
    pub chk_passthrough: u64,
    /// Module-enable operations committed.
    pub enables: u64,
    /// Module-disable operations committed.
    pub disables: u64,
    /// Flush verdicts delivered to the pipeline.
    pub flushes: u64,
    /// Stall verdicts delivered to the pipeline.
    pub stalls: u64,
    /// Gate queries answered in safe (decoupled) mode.
    pub safe_mode_passes: u64,
    /// Correct-path CHECKs actually routed to a live module (the index
    /// space [`ChkFault`] addresses).
    pub chk_routed: u64,
    /// Injected [`ChkFault`]s that fired.
    pub chk_faults_applied: u64,
    /// CHECKs committed as NOPs by the per-module output multiplexer
    /// (their module was quarantined or disabled) — the coverage cost of
    /// containment.
    pub chk_nop_committed: u64,
    /// Quarantine entries across all modules.
    pub quarantines: u64,
    /// Successful probed re-enables across all modules.
    pub reenables: u64,
    /// Self-test probes launched.
    pub probes_launched: u64,
    /// Self-test probes that succeeded.
    pub probes_succeeded: u64,
    /// Self-test probes that failed (wrong verdict or probe timeout).
    pub probes_failed: u64,
    /// Installed modules whose health machine reached `Disabled`.
    pub modules_disabled: u64,
    /// Injected module-state corruptions that actually flipped state.
    pub module_corruptions_applied: u64,
}

/// A transient fault on the CHECK-dispatch path between the pipeline and
/// a module — the framework-side soft errors of the §3.4 evaluation
/// beyond stuck-at IOQ bits. The `index` counts correct-path CHECKs
/// routed to live modules (see [`RseStats::chk_routed`]); the fault is
/// one-shot and consumed when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChkFault {
    /// The `index`-th routed CHECK is lost in transit: the module never
    /// sees it. For a blocking CHECK the IOQ entry stays at `00`, so the
    /// watchdog's no-progress timeout eventually decouples the
    /// framework; for a non-blocking CHECK the check is silently skipped
    /// (protection lost, application unaffected).
    Drop {
        /// Which routed CHECK to drop.
        index: u64,
    },
    /// The `index`-th routed CHECK arrives with its first wide operand
    /// (`a0`) XORed by `xor_mask` — the module checks the wrong datum.
    Garble {
        /// Which routed CHECK to garble.
        index: u64,
        /// Bits to flip in operand 0.
        xor_mask: u32,
    },
}

impl ChkFault {
    fn index(&self) -> u64 {
        match *self {
            ChkFault::Drop { index } | ChkFault::Garble { index, .. } => index,
        }
    }
}

struct PendingChk {
    deliver_at: u64,
    chk: ChkDispatch,
}

/// The Reliability and Security Engine.
///
/// Implements [`CoProcessor`] so it can be attached to
/// [`rse_pipeline::Pipeline::run`] directly.
pub struct Engine {
    config: RseConfig,
    ioq: Ioq,
    mau: Mau,
    watchdog: Watchdog,
    slots: Vec<Option<Box<dyn Module>>>,
    /// Bit `i` set: slot `i` holds a module.
    installed: u16,
    /// Bit `i` set: slot `i` is enabled. An ENABLE/DISABLE CHECK sets or
    /// clears its bit when it commits; it serializes dispatch, so every
    /// CHECK in flight was dispatched under the bits it commits under.
    /// When no bit is set no module receives a tap, `tick` does nothing
    /// and the commit gate holds at constant `10` (only a host-side
    /// [`Engine::disable`] can switch a module off under one of its
    /// CHECKs, and then nothing is left to complete it).
    enabled: u16,
    pending_chk: VecDeque<PendingChk>,
    /// Scheduled IOQ writes: (visible_at, rob, error).
    pending_ioq: Vec<(u64, RobId, bool)>,
    exceptions: VecDeque<CoprocException>,
    chk_fault: Option<ChkFault>,
    /// In-flight quarantine self-test probes, one slot per module.
    probes: [Option<ProbeFlight>; ModuleId::SLOTS],
    /// Bit `i` set: `probes[i]` is `Some`.
    probing: u16,
    /// Scheduled module-state corruptions: (module, at_cycle, seed).
    module_corruptions: Vec<(ModuleId, u64, u64)>,
    stats: RseStats,
}

// One bit of `enabled` and `probing` per module slot.
const _: () = assert!(ModuleId::SLOTS == u16::BITS as usize);

/// The slot indices of the set bits of `mask`, in ascending order.
fn set_bits(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let idx = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            idx
        })
    })
}

fn bit(id: ModuleId) -> u16 {
    1 << id.index()
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("enabled", &format_args!("{:#06x}", self.enabled))
            .field("stats", &self.stats)
            .field("safe_mode", &self.watchdog.safe_mode())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Creates an engine with no modules installed. All module slots are
    /// initially **disabled** ("Initially, all modules are disabled",
    /// §3.2); enable them with a CHECK instruction or [`Engine::enable`].
    pub fn new(config: RseConfig) -> Engine {
        Engine {
            config,
            ioq: Ioq::new(config.queue_entries),
            mau: Mau::new(),
            watchdog: Watchdog::new(config.watchdog),
            slots: (0..ModuleId::SLOTS).map(|_| None).collect(),
            installed: 0,
            enabled: 0,
            pending_chk: VecDeque::new(),
            pending_ioq: Vec::new(),
            exceptions: VecDeque::new(),
            chk_fault: None,
            probes: [None; ModuleId::SLOTS],
            probing: 0,
            module_corruptions: Vec::new(),
            stats: RseStats::default(),
        }
    }

    /// Installs a module into its slot, replacing any previous occupant.
    /// The slot remains disabled until enabled. Installation registers
    /// the slot with the watchdog's containment accounting (the
    /// denominator of the ≥-half-disabled escalation rule).
    pub fn install(&mut self, module: Box<dyn Module>) {
        let idx = module.id().index();
        self.watchdog.note_installed(module.id());
        self.installed |= bit(module.id());
        self.slots[idx] = Some(module);
    }

    /// Whether a module occupies the slot.
    pub fn module_installed(&self, id: ModuleId) -> bool {
        self.slots[id.index()].is_some()
    }

    /// Enables a module slot directly (equivalent to committing an
    /// `ENABLE` CHECK).
    pub fn enable(&mut self, id: ModuleId) {
        self.enabled |= bit(id);
    }

    /// Disables a module slot directly.
    pub fn disable(&mut self, id: ModuleId) {
        self.enabled &= !bit(id);
    }

    /// Whether the slot is enabled.
    pub fn is_enabled(&self, id: ModuleId) -> bool {
        self.enabled & bit(id) != 0
    }

    fn any_enabled(&self) -> bool {
        self.enabled != 0
    }

    /// Typed access to an installed module (for system software reading
    /// module state, e.g. the DDT retrieval path).
    pub fn module_ref<T: 'static>(&self, id: ModuleId) -> Option<&T> {
        self.slots[id.index()]
            .as_deref()
            .and_then(|m| m.as_any().downcast_ref())
    }

    /// Typed mutable access to an installed module.
    pub fn module_mut<T: 'static>(&mut self, id: ModuleId) -> Option<&mut T> {
        self.slots[id.index()]
            .as_deref_mut()
            .and_then(|m| m.as_any_mut().downcast_mut())
    }

    /// Engine counters, with the watchdog's per-module containment
    /// bookkeeping folded in.
    pub fn stats(&self) -> RseStats {
        let mut s = self.stats;
        for i in 0..ModuleId::SLOTS {
            let h = self.watchdog.module_health(ModuleId::new(i as u8));
            s.quarantines += h.quarantines;
            s.reenables += h.reenables;
            s.probes_launched += h.probes_launched;
            if h.state() == HealthState::Disabled {
                s.modules_disabled += 1;
            }
        }
        s
    }

    /// The self-checking watchdog.
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// The active safe-mode cause, if the engine has decoupled itself.
    pub fn safe_mode(&self) -> Option<SafeModeCause> {
        self.watchdog.safe_mode()
    }

    /// The containment state of a module slot.
    pub fn module_health(&self, id: ModuleId) -> HealthState {
        self.watchdog.module_state(id)
    }

    /// Injects a stuck-at fault on the IOQ output bits (§3.4 evaluation).
    pub fn inject_ioq_fault(&mut self, fault: Option<IoqFault>) {
        self.ioq.inject_fault(fault);
    }

    /// Injects a stuck-at fault confined to one module's IOQ output bits
    /// (the module-targeted Table 2 scenarios).
    pub fn inject_module_ioq_fault(&mut self, fault: Option<(ModuleId, IoqFault)>) {
        self.ioq.inject_module_fault(fault);
    }

    /// Arms a one-shot fault on the CHECK-dispatch path (dropped or
    /// garbled delivery to a module).
    pub fn inject_chk_fault(&mut self, fault: Option<ChkFault>) {
        self.chk_fault = fault;
    }

    /// Schedules a deterministic corruption of a module's internal state
    /// at (or after) the given cycle (see [`Module::corrupt_state`]).
    pub fn schedule_module_corruption(&mut self, module: ModuleId, at_cycle: u64, seed: u64) {
        self.module_corruptions.push((module, at_cycle, seed));
    }

    /// Arms a one-shot MAU completion drop targeting a module (see
    /// [`Mau::inject_drop`]).
    pub fn inject_mau_drop(&mut self, fault: Option<(ModuleId, u64)>) {
        self.mau.inject_drop(fault);
    }

    /// Polls the watchdog's cycle-budget hang detector (one-shot; see
    /// [`Watchdog::poll_hang`]).
    pub fn poll_hang(&mut self, now: u64) -> bool {
        self.watchdog.poll_hang(now)
    }

    /// The IOQ (inspection).
    pub fn ioq(&self) -> &Ioq {
        &self.ioq
    }

    /// The MAU (inspection).
    pub fn mau(&self) -> &Mau {
        &self.mau
    }

    /// Runs `f` for each installed module of the slots in `mask` with a
    /// [`ModuleCtx`]. With `skip_down`, modules decoupled by the
    /// per-module multiplexer (quarantined/disabled) are left out — used
    /// for the `Fetch_Out` scan's CHECK delivery and the dispatch and
    /// execute input taps, which the mux disconnects; commit/squash
    /// bookkeeping, clock ticks and self-test probes still reach a
    /// quarantined module so it can drop stale state and answer them.
    fn for_each_module(
        &mut self,
        mask: u16,
        now: u64,
        mem: &mut MemorySystem,
        skip_down: bool,
        mut f: impl FnMut(&mut dyn Module, &mut ModuleCtx<'_>),
    ) {
        for idx in set_bits(mask) {
            if skip_down
                && self
                    .watchdog
                    .module_state(ModuleId::new(idx as u8))
                    .is_down()
            {
                continue;
            }
            let Some(module) = self.slots[idx].as_deref_mut() else {
                continue;
            };
            let mut ctx = ModuleCtx {
                now,
                mem,
                mau: &mut self.mau,
                ioq: &self.ioq,
                ioq_writes: &mut self.pending_ioq,
                exceptions: &mut self.exceptions,
            };
            f(module, &mut ctx);
        }
    }

    /// Whether a CHECK is actively routed to a module (installed, enabled,
    /// and not an enable/disable request handled by the engine itself).
    fn routed_to_module(&self, spec: &ChkSpec) -> bool {
        spec.op != ops::ENABLE
            && spec.op != ops::DISABLE
            && self.is_enabled(spec.module)
            && self.slots[spec.module.index()].is_some()
    }

    /// Forces `rob`'s CHECK through the per-module output multiplexer:
    /// it commits as a NOP (constant `10`).
    fn mux(&mut self, rob: RobId) -> CommitGate {
        if let Some(e) = self.ioq.entry_mut(rob) {
            e.muxed = true;
        }
        CommitGate::PassNop
    }

    /// Resolves in-flight self-test probes. The watchdog reads the probe
    /// result off the same IOQ output wires as everything else, so a
    /// stuck-at fault (global or module-targeted) biases the observation:
    /// a stuck `checkValid=0` makes the probe look unanswered (timeout
    /// failure), a stuck `checkValid=1` makes it look answered with no
    /// module write (premature — failure), a stuck `check=1` reads as an
    /// error verdict, and a stuck `check=0` masks even a failing
    /// self-test (the probe cannot see past it).
    fn resolve_probes(&mut self, now: u64) {
        let probe_timeout = self.config.watchdog.health.probe_timeout;
        for slot in set_bits(self.probing) {
            let Some(flight) = self.probes[slot] else {
                continue;
            };
            let id = ModuleId::new(slot as u8);
            let timed_out = now.saturating_sub(flight.issued_at) > probe_timeout;
            let verdict: Option<bool> = match self.ioq.effective_fault_for(id) {
                Some(IoqFault::ValidStuck0) => timed_out.then_some(false),
                Some(IoqFault::ValidStuck1) => Some(false),
                Some(IoqFault::CheckStuck1) => match flight.response {
                    Some(_) => Some(false),
                    None => timed_out.then_some(false),
                },
                Some(IoqFault::CheckStuck0) => match flight.response {
                    Some(_) => Some(true),
                    None => timed_out.then_some(false),
                },
                None => match flight.response {
                    Some(v) => Some(v == Verdict::Pass),
                    None => timed_out.then_some(false),
                },
            };
            match verdict {
                Some(true) => {
                    self.probes[slot] = None;
                    self.probing &= !(1 << slot);
                    self.stats.probes_succeeded += 1;
                    self.watchdog.probe_succeeded(id, now);
                    // Stale CHECKs allocated before/while the module was
                    // down were never delivered; force-NOP them so the
                    // healed module is not immediately re-charged with
                    // their (inevitable) timeouts.
                    self.ioq.force_nop_unwritten(id);
                }
                Some(false) => {
                    self.probes[slot] = None;
                    self.probing &= !(1 << slot);
                    self.stats.probes_failed += 1;
                    self.watchdog.probe_failed(id, now);
                }
                None => {}
            }
        }
    }

    /// Launches due self-test probes into quarantined modules: a
    /// synthetic blocking CHECK with the common `SELFTEST` op, delivered
    /// through the ordinary module interface.
    fn launch_probes(&mut self, now: u64, mem: &mut MemorySystem) {
        for slot in set_bits(self.enabled & !self.probing) {
            let id = ModuleId::new(slot as u8);
            if self.slots[slot].is_none() || !self.watchdog.probe_due(id, now) {
                continue;
            }
            self.watchdog.probe_launched(id);
            self.probes[slot] = Some(ProbeFlight {
                issued_at: now,
                response: None,
            });
            self.probing |= 1 << slot;
            let chk = ChkDispatch {
                rob: probe_rob(id),
                pc: 0,
                spec: ChkSpec::new(id, true, ops::SELFTEST, 0),
                operands: [0, 0],
                wrong_path: false,
            };
            self.for_each_module(bit(id), now, mem, false, |m, ctx| m.on_chk(&chk, ctx));
        }
    }
}

impl CoProcessor for Engine {
    fn on_dispatch(&mut self, now: u64, info: &DispatchInfo, mem: &mut MemorySystem) {
        // The kind of the IOQ entry fixes its Table 1 initial bits.
        let mut kind = IoqEntryKind::Plain;
        let mut muxed = false;
        if let Inst::Chk(spec) = info.inst {
            self.stats.chk_dispatched += 1;
            let routed = self.routed_to_module(&spec);
            muxed = routed && self.watchdog.module_down(spec.module);
            if routed && !muxed {
                kind = if spec.blocking {
                    self.stats.chk_blocking += 1;
                    IoqEntryKind::BlockingChk(spec.module)
                } else {
                    self.stats.chk_non_blocking += 1;
                    IoqEntryKind::NonBlockingChk(spec.module)
                };
                // Apply any armed CHECK-dispatch fault (correct-path
                // routed CHECKs only; the fault is one-shot).
                let mut operands = info.operands;
                let mut dropped = false;
                if !info.wrong_path {
                    if let Some(fault) = self.chk_fault {
                        if fault.index() == self.stats.chk_routed {
                            match fault {
                                ChkFault::Drop { .. } => dropped = true,
                                ChkFault::Garble { xor_mask, .. } => operands[0] ^= xor_mask,
                            }
                            self.chk_fault = None;
                            self.stats.chk_faults_applied += 1;
                        }
                    }
                    self.stats.chk_routed += 1;
                }
                if !spec.blocking {
                    // Asynchronous mode: checkValid is set right after the
                    // module scans the Fetch_Out queue (§3.2). A dropped
                    // non-blocking CHECK still completes the handshake —
                    // the loss is between the scan and the module, so the
                    // check is silently skipped without stalling commit.
                    self.pending_ioq
                        .push((now + FETCH_SCAN_DELAY, info.rob, false));
                }
                if !dropped {
                    self.pending_chk.push_back(PendingChk {
                        deliver_at: now + FETCH_SCAN_DELAY,
                        chk: ChkDispatch {
                            rob: info.rob,
                            pc: info.pc,
                            spec,
                            operands,
                            wrong_path: info.wrong_path,
                        },
                    });
                }
            } else if !muxed {
                // Enable/disable requests and CHECKs to disabled/absent
                // modules: the enable/disable unit writes constant `10`.
                self.stats.chk_passthrough += 1;
            }
        }
        // Every dispatched instruction gets its IOQ entry, which holds its
        // Fetch_Out slot.
        self.ioq.allocate(
            now,
            info.rob,
            kind,
            FetchOutEntry {
                pc: info.pc,
                word: info.word,
                inst: info.inst,
                wrong_path: info.wrong_path,
            },
        );
        if muxed {
            // The module is quarantined/disabled by the containment
            // multiplexer: the CHECK commits as a NOP (constant `10`)
            // and the module never sees it.
            self.mux(info.rob);
        }
        if self.any_enabled() {
            // Fan the dispatch out to every enabled module's tap (the mux
            // disconnects quarantined modules from the input queues).
            self.for_each_module(self.enabled, now, mem, true, |m, ctx| {
                m.on_dispatch(info, ctx)
            });
        }
    }

    fn on_execute(&mut self, now: u64, info: &ExecuteInfo, mem: &mut MemorySystem) {
        if !self.any_enabled() {
            return;
        }
        self.for_each_module(self.enabled, now, mem, true, |m, ctx| {
            m.on_execute(info, ctx)
        });
    }

    fn on_commit(&mut self, now: u64, rob: RobId, mem: &mut MemorySystem) {
        // If the CHECK is committing before its scan-delayed delivery
        // fired (a fast commit), deliver it to its module now: the scan
        // completes no later than retirement. Quarantined modules are
        // disconnected from the scan — the CHECK is simply lost.
        if let Some(pos) = self.pending_chk.iter().position(|p| p.chk.rob == rob) {
            let p = self.pending_chk.remove(pos).expect("position valid");
            let mask = self.enabled & bit(p.chk.spec.module);
            self.for_each_module(mask, now, mem, true, |m, ctx| m.on_chk(&p.chk, ctx));
        }
        if let Some(e) = self.ioq.entry(rob).copied() {
            // The enable/disable unit switches a module when the request
            // commits: the request serializes dispatch, so everything
            // older has committed and nothing younger has dispatched.
            if let Inst::Chk(spec) = e.fetched.inst {
                match spec.op {
                    ops::ENABLE => {
                        self.enable(spec.module);
                        self.stats.enables += 1;
                    }
                    ops::DISABLE => {
                        self.disable(spec.module);
                        self.stats.disables += 1;
                    }
                    _ => {}
                }
            }
            // Containment bookkeeping: count mux-forced NOP commits, and
            // let the watchdog reset a module's symptom windows on a
            // clean, module-written passing commit.
            if e.muxed {
                self.stats.chk_nop_committed += 1;
            } else if let Some(m) = e.kind.module() {
                if self.watchdog.module_down(m) {
                    // The module went down while this CHECK was in
                    // flight; the gate converted it to a NOP.
                    self.stats.chk_nop_committed += 1;
                } else if e.module_wrote && !e.check {
                    self.watchdog.record_clean_commit(now, m);
                }
            }
        }
        // Modules read the committing instruction's Fetch_Out slot, so
        // the entry is freed after the fan-out.
        if self.any_enabled() {
            self.for_each_module(self.enabled, now, mem, false, |m, ctx| {
                m.on_commit(rob, ctx)
            });
        }
        self.ioq.free(rob);
    }

    fn on_squash(&mut self, now: u64, rob: RobId, mem: &mut MemorySystem) {
        self.pending_chk.retain(|p| p.chk.rob != rob);
        self.pending_ioq.retain(|(_, r, _)| *r != rob);
        // The id goes to the next instruction dispatched in this one's
        // place, so every installed module drops its state for it, also
        // one a host-side `Engine::disable` switched off while the
        // instruction was in flight.
        if self.installed != 0 {
            self.for_each_module(self.installed, now, mem, false, |m, ctx| {
                m.on_squash(rob, ctx)
            });
        }
        self.ioq.free(rob);
    }

    fn commit_gate(&mut self, now: u64, rob: RobId) -> CommitGate {
        if !self.any_enabled() {
            // No module is left to complete a CHECK: constant `10`.
            return CommitGate::Pass;
        }
        if self.watchdog.is_decoupled() {
            // Global safe mode: constant `10` — everything commits.
            self.stats.safe_mode_passes += 1;
            return CommitGate::Pass;
        }
        // Per-module output multiplexer (§3.4): a CHECK owned by a
        // quarantined/disabled module is forced to `10` and commits as a
        // NOP, whatever its real bits say.
        let entry = self.ioq.entry(rob).copied();
        let src = entry.and_then(|e| e.kind.module());
        if entry.is_some_and(|e| e.muxed) {
            return CommitGate::PassNop;
        }
        if let Some(m) = src {
            if self.watchdog.module_down(m) {
                return self.mux(rob);
            }
        }
        let gate = self.ioq.gate(rob);
        match gate {
            CommitGate::Flush => {
                self.stats.flushes += 1;
                self.watchdog.record_flush(now, src);
                if self.watchdog.is_decoupled() {
                    // An unattributed burst just tripped global safe
                    // mode: decouple immediately rather than honoring
                    // the faulty flush.
                    self.stats.safe_mode_passes += 1;
                    return CommitGate::Pass;
                }
                if let Some(m) = src {
                    if self.watchdog.module_down(m) {
                        // The burst quarantined the module: the mux now
                        // forces its output to `10`.
                        return self.mux(rob);
                    }
                }
            }
            CommitGate::Stall => self.stats.stalls += 1,
            CommitGate::Pass => {
                // A blocking CHECK passing without a module result is a
                // stuck-at-1 `checkValid` symptom.
                if let Some(IoqEntry {
                    kind: IoqEntryKind::BlockingChk(_),
                    module_wrote: false,
                    ..
                }) = entry
                {
                    self.watchdog.record_premature_pass(now, src);
                    if let Some(m) = src {
                        if self.watchdog.module_down(m) {
                            return self.mux(rob);
                        }
                    }
                }
            }
            CommitGate::PassNop => unreachable!("IOQ never emits PassNop"),
        }
        gate
    }

    fn tick(&mut self, now: u64, mem: &mut MemorySystem) {
        if !self.any_enabled() {
            return;
        }
        // Apply scheduled module-state corruptions (fault injection), in
        // schedule order.
        let (slots, stats) = (&mut self.slots, &mut self.stats);
        self.module_corruptions.retain(|&(id, at, seed)| {
            if at > now {
                return true;
            }
            if let Some(module) = slots[id.index()].as_deref_mut() {
                if module.corrupt_state(seed) {
                    stats.module_corruptions_applied += 1;
                }
            }
            false
        });
        // Deliver CHECKs whose Fetch_Out scan delay has elapsed. A
        // quarantined module is disconnected from the scan: its CHECKs
        // are dropped here and their IOQ entries NOP at commit.
        while self
            .pending_chk
            .front()
            .is_some_and(|p| p.deliver_at <= now)
        {
            let p = self.pending_chk.pop_front().expect("front checked");
            let mask = self.enabled & bit(p.chk.spec.module);
            self.for_each_module(mask, now, mem, true, |m, ctx| m.on_chk(&p.chk, ctx));
        }
        // The MAU moves data.
        self.mau.tick(now, mem);
        // Modules advance their internal pipelines (including
        // quarantined ones, so self-test probes get answered).
        self.for_each_module(self.enabled, now, mem, false, |m, ctx| m.tick(ctx));
        // Apply module results whose broadcast delay has elapsed, in the
        // order they were written. Writes to the probe sentinel ROB range
        // are self-test responses and are routed to the probe bookkeeping
        // instead of the IOQ.
        let (probes, ioq) = (&mut self.probes, &mut self.ioq);
        self.pending_ioq.retain(|&(at, rob, error)| {
            if at > now {
                return true;
            }
            if let Some(slot) = probe_slot(rob) {
                if let Some(flight) = probes.get_mut(slot).and_then(|f| f.as_mut()) {
                    flight.response = Some(if error { Verdict::Fail } else { Verdict::Pass });
                }
            } else {
                ioq.complete(rob, error);
            }
            false
        });
        // Self-checking: per-module timeout attribution and quiet decay.
        self.watchdog.tick(now, &mut self.ioq);
        // Probe lifecycle (suppressed entirely in global safe mode).
        if !self.watchdog.is_decoupled() {
            self.resolve_probes(now);
            self.launch_probes(now, mem);
        }
    }

    fn take_exception(&mut self) -> Option<CoprocException> {
        self.exceptions.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::AnomalyKind;
    use crate::testutil::{CountingModule, ScriptedBehavior, ScriptedModule};
    use crate::Verdict;
    use rse_isa::asm::assemble;
    use rse_mem::{MemConfig, MemorySystem};
    use rse_pipeline::{Pipeline, PipelineConfig, StepEvent};

    const SLOT9: ModuleId = ModuleId::ICM; // reuse slot 0 for the scripted module

    fn run(engine: &mut Engine, src: &str) -> Pipeline {
        let image = assemble(src).expect("assembles");
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::with_framework()),
        );
        cpu.load_image(&image);
        let ev = cpu.run(engine, 2_000_000);
        assert_eq!(ev, StepEvent::Halted, "program did not halt");
        cpu
    }

    #[test]
    fn plain_program_commits_through_engine() {
        let mut engine = Engine::new(RseConfig::default());
        let cpu = run(
            &mut engine,
            "main: li r8, 7\nli r9, 8\nadd r10, r8, r9\nhalt",
        );
        assert_eq!(cpu.regs()[10], 15);
        assert_eq!(engine.stats().flushes, 0);
    }

    #[test]
    fn every_dispatch_gets_one_record_without_modules() {
        // No module is installed, so no tap reaches a module; the IOQ
        // still allocates one record per dispatched instruction, wrong
        // path included, and frees each at commit or squash.
        let mut engine = Engine::new(RseConfig::default());
        let cpu = run(
            &mut engine,
            r#"
            main:   li r8, 0
                    li r9, 5
            loop:   addi r8, r8, 1
                    bne r8, r9, loop
                    chk icm, blk, 2, 0
                    halt
            "#,
        );
        assert_eq!(cpu.regs()[8], 5);
        assert!(cpu.stats().squashed > 0, "the loop exit mispredicts");
        assert_eq!(engine.ioq().occupancy(), 0);
        assert_eq!(engine.ioq().allocated_total, cpu.stats().dispatched);
        let stats = engine.stats();
        assert_eq!(stats.chk_passthrough, stats.chk_dispatched);
    }

    #[test]
    fn enable_disable_via_check_instruction() {
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(CountingModule::new(SLOT9)));
        assert!(!engine.is_enabled(SLOT9));
        run(&mut engine, "main: chk icm, nblk, 0, 0\nhalt"); // op 0 = ENABLE
        assert!(engine.is_enabled(SLOT9));
        assert_eq!(engine.stats().enables, 1);
        run(&mut engine, "main: chk icm, nblk, 1, 0\nhalt"); // op 1 = DISABLE
        assert!(!engine.is_enabled(SLOT9));
    }

    #[test]
    fn chk_to_disabled_module_passes_through() {
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(CountingModule::new(SLOT9)));
        // Module never enabled: the blocking CHECK must not stall forever.
        let cpu = run(&mut engine, "main: chk icm, blk, 2, 0\nli r8, 1\nhalt");
        assert_eq!(cpu.regs()[8], 1);
        assert_eq!(engine.stats().chk_passthrough, 1);
        let m: &CountingModule = engine.module_ref(SLOT9).unwrap();
        assert_eq!(m.chks_seen, 0);
    }

    #[test]
    fn blocking_check_stalls_then_passes() {
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(ScriptedModule::new(
            SLOT9,
            ScriptedBehavior::Respond {
                verdict: Verdict::Pass,
                latency: 25,
            },
        )));
        engine.enable(SLOT9);
        let cpu = run(&mut engine, "main: chk icm, blk, 2, 0\nli r8, 1\nhalt");
        assert_eq!(cpu.regs()[8], 1);
        assert!(
            cpu.stats().commit_stall_cycles > 0,
            "blocking CHECK should stall commit"
        );
        assert_eq!(engine.stats().chk_blocking, 1);
    }

    #[test]
    fn failing_check_flushes_and_burst_quarantines_module() {
        // A module that always reports an error: the CHECK flushes and
        // restarts until the watchdog's per-module burst accounting
        // quarantines the module (Table 2 "false alarm" scenario). The
        // framework as a whole stays coupled.
        let mut cfg = RseConfig::default();
        cfg.watchdog.burst_threshold = 4;
        let mut engine = Engine::new(cfg);
        engine.install(Box::new(ScriptedModule::new(
            SLOT9,
            ScriptedBehavior::Respond {
                verdict: Verdict::Fail,
                latency: 3,
            },
        )));
        engine.enable(SLOT9);
        let cpu = run(&mut engine, "main: chk icm, blk, 2, 0\nli r8, 1\nhalt");
        // The program completes because the mux NOPs the faulty module's
        // CHECK; global safe mode is never entered.
        assert_eq!(cpu.regs()[8], 1);
        assert_eq!(engine.safe_mode(), None);
        assert!(engine.module_health(SLOT9).is_down());
        assert_eq!(
            engine.watchdog().module_health(SLOT9).last_cause(),
            Some(crate::health::AnomalyKind::ErrorBurst)
        );
        assert!(engine.stats().flushes >= 4);
        assert!(engine.stats().quarantines >= 1);
        assert!(engine.stats().chk_nop_committed >= 1);
        assert!(cpu.stats().nop_commits >= 1);
        assert!(cpu.stats().check_flushes >= 3);
    }

    #[test]
    fn silent_module_times_out_to_quarantine() {
        // Table 2 "module does not make progress": the timeout anomalies
        // are attributed to the silent module, which is quarantined; the
        // framework stays coupled.
        let mut cfg = RseConfig::default();
        cfg.watchdog.timeout = 200;
        let mut engine = Engine::new(cfg);
        engine.install(Box::new(ScriptedModule::new(
            SLOT9,
            ScriptedBehavior::Silent,
        )));
        engine.enable(SLOT9);
        let cpu = run(&mut engine, "main: chk icm, blk, 2, 0\nli r8, 1\nhalt");
        assert_eq!(cpu.regs()[8], 1);
        assert_eq!(engine.safe_mode(), None);
        assert!(engine.module_health(SLOT9).is_down());
        assert_eq!(
            engine.watchdog().module_health(SLOT9).last_cause(),
            Some(crate::health::AnomalyKind::Timeout)
        );
        assert!(engine.stats().chk_nop_committed >= 1);
    }

    #[test]
    fn async_check_does_not_stall() {
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(CountingModule::new(SLOT9)));
        engine.enable(SLOT9);
        let cpu = run(&mut engine, "main: chk icm, nblk, 2, 0\nli r8, 1\nhalt");
        assert_eq!(cpu.regs()[8], 1);
        assert_eq!(engine.stats().chk_non_blocking, 1);
        let m: &CountingModule = engine.module_ref(SLOT9).unwrap();
        assert_eq!(m.chks_seen, 1);
    }

    #[test]
    fn wrong_path_chks_are_squashed_cleanly() {
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(CountingModule::new(SLOT9)));
        engine.enable(SLOT9);
        // The loop branch mispredicts at least once; instructions beyond
        // it (including the CHK at `after`) are fetched wrong-path and
        // squashed.
        let cpu = run(
            &mut engine,
            r#"
            main:   li r8, 0
                    li r9, 3
            loop:   addi r8, r8, 1
                    bne r8, r9, loop
            after:  chk icm, nblk, 2, 0
                    halt
            "#,
        );
        assert_eq!(cpu.regs()[8], 3);
        let m: &CountingModule = engine.module_ref(SLOT9).unwrap();
        // Exactly one CHK commits even if several were dispatched.
        assert_eq!(m.chk_commits, 1);
    }

    #[test]
    fn dropped_nonblocking_chk_never_reaches_module() {
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(CountingModule::new(SLOT9)));
        engine.enable(SLOT9);
        engine.inject_chk_fault(Some(ChkFault::Drop { index: 0 }));
        let cpu = run(&mut engine, "main: chk icm, nblk, 2, 0\nli r8, 1\nhalt");
        // The application is unaffected; the module simply never saw it.
        assert_eq!(cpu.regs()[8], 1);
        assert_eq!(engine.stats().chk_faults_applied, 1);
        let m: &CountingModule = engine.module_ref(SLOT9).unwrap();
        assert_eq!(m.chks_seen, 0);
        assert_eq!(engine.safe_mode(), None);
    }

    #[test]
    fn dropped_blocking_chk_quarantines_module() {
        let mut cfg = RseConfig::default();
        cfg.watchdog.timeout = 200;
        let mut engine = Engine::new(cfg);
        engine.install(Box::new(ScriptedModule::new(
            SLOT9,
            ScriptedBehavior::Respond {
                verdict: Verdict::Pass,
                latency: 2,
            },
        )));
        engine.enable(SLOT9);
        engine.inject_chk_fault(Some(ChkFault::Drop { index: 0 }));
        let cpu = run(&mut engine, "main: chk icm, blk, 2, 0\nli r8, 1\nhalt");
        // The lost blocking CHECK looks exactly like a module that makes
        // no progress. The re-arming timeout charges the owning module
        // until it is quarantined; the stuck CHECK then commits as a NOP
        // through the §3.4 multiplexer and the app finishes — without a
        // global decoupling.
        assert_eq!(cpu.regs()[8], 1);
        assert_eq!(engine.safe_mode(), None);
        assert!(engine.module_health(SLOT9).is_down());
        assert_eq!(
            engine.watchdog().module_health(SLOT9).last_cause(),
            Some(AnomalyKind::Timeout)
        );
        assert!(engine.stats().chk_nop_committed >= 1);
    }

    #[test]
    fn garbled_chk_delivers_flipped_operand() {
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(CountingModule::new(SLOT9)));
        engine.enable(SLOT9);
        engine.inject_chk_fault(Some(ChkFault::Garble {
            index: 0,
            xor_mask: 0xFFFF_0000,
        }));
        run(
            &mut engine,
            "main: li r4, 0x1234\nli r5, 0x5678\nchk icm, nblk, 2, 9\nhalt",
        );
        let m: &CountingModule = engine.module_ref(SLOT9).unwrap();
        assert_eq!(m.last_operands, [0xFFFF_1234, 0x5678]);
        assert_eq!(engine.stats().chk_faults_applied, 1);
    }

    #[test]
    fn chk_fault_index_past_end_never_fires() {
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(CountingModule::new(SLOT9)));
        engine.enable(SLOT9);
        engine.inject_chk_fault(Some(ChkFault::Drop { index: 99 }));
        run(&mut engine, "main: chk icm, nblk, 2, 0\nhalt");
        assert_eq!(engine.stats().chk_faults_applied, 0);
        let m: &CountingModule = engine.module_ref(SLOT9).unwrap();
        assert_eq!(m.chks_seen, 1);
    }

    #[test]
    fn operands_reach_module_via_regfile_queue() {
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(CountingModule::new(SLOT9)));
        engine.enable(SLOT9);
        run(
            &mut engine,
            "main: li r4, 0x1234\nli r5, 0x5678\nchk icm, nblk, 2, 9\nhalt",
        );
        let m: &CountingModule = engine.module_ref(SLOT9).unwrap();
        assert_eq!(m.last_operands, [0x1234, 0x5678]);
        assert_eq!(m.last_param, 9);
    }

    /// A module that overrides nothing: only the engine's own
    /// bookkeeping runs.
    struct IdleModule;

    impl Module for IdleModule {
        fn id(&self) -> ModuleId {
            SLOT9
        }
        fn name(&self) -> &'static str {
            "idle"
        }
        fn on_chk(&mut self, _chk: &ChkDispatch, _ctx: &mut ModuleCtx<'_>) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn disable_then_reenable_leaves_no_stale_entries() {
        // The DISABLE drains dispatch and turns the last module off when
        // it commits; the instructions after it then dispatch and commit
        // with no module enabled, which must still free their IOQ
        // entries. Otherwise they accumulate across disable/enable rounds
        // until the IOQ overflows.
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(IdleModule));
        let cpu = run(
            &mut engine,
            r#"
            main:   li r9, 12
                    li r10, 0
            round:  chk icm, nblk, 0, 0
                    li r8, 0
            loop:   addi r8, r8, 1
                    bne r8, r9, loop
                    addi r11, r8, 1
                    addi r12, r11, 1
                    chk icm, nblk, 1, 0
                    addi r10, r10, 1
                    bne r10, r9, round
                    chk icm, nblk, 0, 0
                    halt
            "#,
        );
        assert_eq!(cpu.regs()[8], 12);
        assert_eq!(cpu.regs()[10], 12);
        assert_eq!(cpu.regs()[12], 14);
        assert!(engine.is_enabled(SLOT9));
        assert_eq!(engine.stats().enables, 13);
        assert_eq!(engine.stats().disables, 12);
        assert_eq!(engine.ioq().occupancy(), 0);
    }

    #[test]
    fn squash_after_disable_frees_latched_entries() {
        // The squash side of the same case, driven through the tap
        // interface: entries allocated while the module was enabled are
        // freed when their instructions are squashed after a host-side
        // disable.
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(IdleModule));
        engine.enable(SLOT9);
        let mut mem = MemorySystem::new(MemConfig::with_framework());
        for i in 0..4 {
            let info = DispatchInfo {
                rob: RobId(i),
                pc: 4 * i as u32,
                word: 0,
                inst: Inst::Nop,
                operands: [0, 0],
                wrong_path: false,
                injected: false,
            };
            engine.on_dispatch(0, &info, &mut mem);
            let done = ExecuteInfo {
                rob: RobId(i),
                result: 0,
                eff_addr: None,
                loaded: Some(7),
            };
            engine.on_execute(1, &done, &mut mem);
        }
        assert_eq!(engine.ioq().occupancy(), 4);
        engine.disable(SLOT9);
        for i in (0..4).rev() {
            engine.on_squash(2, RobId(i), &mut mem);
        }
        assert_eq!(engine.ioq().occupancy(), 0);
    }

    #[test]
    fn squash_reaches_a_module_disabled_while_the_instruction_was_in_flight() {
        // A CHECK the module took is squashed after a host-side disable.
        // Its id goes to the next instruction dispatched, so the module
        // must drop its state for the CHECK although it is disabled:
        // re-enabled, it must not take the plain instruction now holding
        // the id for its CHECK committing.
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(CountingModule::new(SLOT9)));
        engine.enable(SLOT9);
        let mut mem = MemorySystem::new(MemConfig::with_framework());
        let dispatch = |engine: &mut Engine, mem: &mut MemorySystem, now, inst| {
            let info = DispatchInfo {
                rob: RobId(0),
                pc: 0,
                word: 0,
                inst,
                operands: [0, 0],
                wrong_path: false,
                injected: false,
            };
            engine.on_dispatch(now, &info, mem);
        };
        let chk = Inst::Chk(ChkSpec::new(SLOT9, false, 2, 0));
        dispatch(&mut engine, &mut mem, 0, chk);
        engine.tick(1, &mut mem);
        engine.disable(SLOT9);
        engine.on_squash(1, RobId(0), &mut mem);
        engine.enable(SLOT9);
        dispatch(&mut engine, &mut mem, 2, Inst::Nop);
        engine.on_commit(2, RobId(0), &mut mem);
        let m: &CountingModule = engine.module_ref(SLOT9).unwrap();
        assert_eq!((m.chks_seen, m.squashes, m.chk_commits), (1, 1, 0));
    }
}
