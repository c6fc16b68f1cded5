//! The self-checking mechanism of the framework (§3.4, Table 2).
//!
//! A watchdog monitors transitions on the `check`/`checkValid` bits of
//! every IOQ entry:
//!
//! * a missing 0→1 `checkValid` transition within the timeout means a
//!   module is not making progress (or the bit is stuck at 0);
//! * repeated error indications (`check` 0→1, observed as commit-stage
//!   flushes) within the timeout window mean a module is raising false
//!   alarms (or the bit is stuck at 1);
//! * a blocking-CHECK entry whose `checkValid` reads 1 although no module
//!   wrote a result indicates `checkValid` stuck at 1.
//!
//! Each anomaly is **attributed to the owning module** (the IOQ entry
//! records which module a CHECK addresses) and drives that module's
//! [`ModuleHealth`] state machine: `Healthy → Suspect → Quarantined →
//! Disabled`. A quarantined module is decoupled by the §3.4 output
//! multiplexer — its CHECKs commit as NOPs (`checkValid=1, check=0`)
//! while the pipeline and the *other* modules keep running — and is
//! probed for re-enable with exponential backoff (see [`crate::health`]).
//!
//! Global safe mode (the whole framework forced to constant `10`)
//! remains only as the escalation of last resort: it is taken when an
//! anomaly cannot be attributed to any module (the fault sits on the
//! shared output wires), or when at least half of the installed modules
//! have been permanently `Disabled`.

use crate::health::{AnomalyKind, HealthConfig, HealthEvent, HealthState, ModuleHealth};
use crate::ioq::Ioq;
use rse_isa::ModuleId;
use rse_pipeline::RobId;
use std::collections::VecDeque;

/// Watchdog parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Cycles a blocking CHECK may sit without a `checkValid` 0→1
    /// transition before the owning module is charged a timeout anomaly.
    /// The timer re-arms: a still-stuck entry is charged again every
    /// `timeout` cycles, so a persistent fault escalates `Suspect` to
    /// `Quarantined` even with a single CHECK in flight.
    pub timeout: u64,
    /// Number of flushes (error indications) within one timeout window
    /// that charge the owning module an error-burst anomaly.
    pub burst_threshold: usize,
    /// Number of blocking-CHECK commits that passed without any module
    /// having written a result before `checkValid` is declared stuck at 1
    /// for the owning module.
    pub premature_pass_threshold: usize,
    /// Cycle budget for the guest run: once the cycle counter reaches
    /// this value the watchdog's hang detector fires (exactly once; see
    /// [`Watchdog::poll_hang`]). `u64::MAX` disables the detector —
    /// the default, since only fault-injection campaigns budget runs.
    pub cycle_budget: u64,
    /// Per-module containment parameters (quarantine threshold, probe
    /// backoff, disable limit).
    pub health: HealthConfig,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            timeout: 10_000,
            burst_threshold: 8,
            premature_pass_threshold: 8,
            cycle_budget: u64::MAX,
            health: HealthConfig::default(),
        }
    }
}

/// Why the framework decoupled itself from the pipeline (global safe
/// mode — the escalation of last resort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafeModeCause {
    /// A module never completed a blocking CHECK (Table 2: "module does
    /// not make progress", or `checkValid` stuck at 0).
    NoProgress {
        /// The CHECK instruction that timed out.
        rob: RobId,
    },
    /// Error indications arrived in a burst (Table 2: false alarm, or
    /// `check` stuck at 1).
    ErrorBurst,
    /// Blocking CHECKs passed commit without module results (Table 2:
    /// `checkValid` stuck at 1).
    PrematurePass,
}

impl std::fmt::Display for SafeModeCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SafeModeCause::NoProgress { rob } => write!(
                f,
                "no progress on blocking CHECK (ROB #{}): module stuck or checkValid stuck at 0",
                rob.0
            ),
            SafeModeCause::ErrorBurst => {
                write!(
                    f,
                    "error-indication burst: false alarms or check stuck at 1"
                )
            }
            SafeModeCause::PrematurePass => write!(
                f,
                "blocking CHECKs passed without module results: checkValid stuck at 1"
            ),
        }
    }
}

/// The symptom counters of one source of IOQ output: a module slot, or
/// the shared wires.
#[derive(Debug, Default)]
struct Symptoms {
    /// Flush timestamps within the burst window.
    flushes: VecDeque<u64>,
    /// Premature passes since the last reset.
    prematures: usize,
}

impl Symptoms {
    /// Records a flush at `now`. Returns whether `burst_threshold`
    /// flushes now fall within one timeout window; the window then
    /// starts over.
    fn flush_burst(&mut self, now: u64, config: &WatchdogConfig) -> bool {
        let window_start = now.saturating_sub(config.timeout);
        self.flushes.push_back(now);
        while self.flushes.front().is_some_and(|t| *t < window_start) {
            self.flushes.pop_front();
        }
        let burst = self.flushes.len() >= config.burst_threshold;
        if burst {
            self.flushes.clear();
        }
        burst
    }

    /// Records a premature pass. Returns whether the count reached
    /// `premature_pass_threshold`; the count then starts over.
    fn premature_stuck(&mut self, config: &WatchdogConfig) -> bool {
        self.prematures += 1;
        let stuck = self.prematures >= config.premature_pass_threshold;
        if stuck {
            self.prematures = 0;
        }
        stuck
    }

    fn clear(&mut self) {
        self.flushes.clear();
        self.prematures = 0;
    }
}

/// The self-checking watchdog: per-module anomaly accounting feeding the
/// containment state machines, plus the legacy global decoupling switch.
#[derive(Debug)]
pub struct Watchdog {
    config: WatchdogConfig,
    safe_mode: Option<SafeModeCause>,
    /// Unattributed symptoms (on shared wires, e.g. a `check` stuck at 1
    /// observed on non-CHECK entries). These trip global safe mode
    /// directly.
    shared: Symptoms,
    /// Per-slot containment state machines.
    health: [ModuleHealth; ModuleId::SLOTS],
    /// Which slots have a module installed (the escalation denominator).
    installed: [bool; ModuleId::SLOTS],
    /// Per-slot symptoms, charged to the slot's state machine.
    symptoms: [Symptoms; ModuleId::SLOTS],
    /// The most recent timed-out CHECK per module (carried into the
    /// `NoProgress` cause on escalation).
    last_timeout_rob: [Option<RobId>; ModuleId::SLOTS],
    hang_fired: bool,
    /// Total global safe-mode entries (0 or 1 per run; kept as a counter
    /// for the fault-injection campaign's bookkeeping).
    pub trips: u64,
    /// Total hang-detector firings (0 or 1 per run — see
    /// [`Watchdog::poll_hang`]'s one-shot guarantee).
    pub hangs: u64,
}

impl Watchdog {
    /// Creates a watchdog in coupled (normal) mode with every slot
    /// healthy.
    pub fn new(config: WatchdogConfig) -> Watchdog {
        Watchdog {
            config,
            safe_mode: None,
            shared: Symptoms::default(),
            health: [ModuleHealth::new(); ModuleId::SLOTS],
            installed: [false; ModuleId::SLOTS],
            symptoms: std::array::from_fn(|_| Symptoms::default()),
            last_timeout_rob: [None; ModuleId::SLOTS],
            hang_fired: false,
            trips: 0,
            hangs: 0,
        }
    }

    /// The active global safe-mode cause, if the framework has decoupled.
    pub fn safe_mode(&self) -> Option<SafeModeCause> {
        self.safe_mode
    }

    /// Whether the whole framework is decoupled (global safe mode).
    pub fn is_decoupled(&self) -> bool {
        self.safe_mode.is_some()
    }

    /// Marks a slot as occupied; installed slots form the denominator of
    /// the ≥-half-disabled escalation rule.
    pub fn note_installed(&mut self, id: ModuleId) {
        self.installed[id.index()] = true;
    }

    /// The containment state machine of a slot.
    pub fn module_health(&self, id: ModuleId) -> &ModuleHealth {
        &self.health[id.index()]
    }

    /// The containment state of a slot.
    pub fn module_state(&self, id: ModuleId) -> HealthState {
        self.health[id.index()].state()
    }

    /// Whether a slot is decoupled by the per-module multiplexer
    /// (`Quarantined` or `Disabled`).
    pub fn module_down(&self, id: ModuleId) -> bool {
        self.health[id.index()].state().is_down()
    }

    /// Installed slots whose state machine has reached `Disabled`.
    pub fn disabled_count(&self) -> usize {
        (0..ModuleId::SLOTS)
            .filter(|&i| self.installed[i] && self.health[i].state() == HealthState::Disabled)
            .count()
    }

    /// Number of installed slots.
    pub fn installed_count(&self) -> usize {
        self.installed.iter().filter(|i| **i).count()
    }

    fn trip(&mut self, cause: SafeModeCause) {
        if self.safe_mode.is_none() {
            self.safe_mode = Some(cause);
            self.trips += 1;
        }
    }

    /// Charges an anomaly to a module's state machine.
    fn anomaly(&mut self, id: ModuleId, now: u64, kind: AnomalyKind) {
        let (from, to) =
            self.health[id.index()].apply(&self.config.health, now, HealthEvent::Anomaly(kind));
        debug_assert!(
            crate::health::legal_edge(from, to),
            "illegal health edge {from} -> {to}"
        );
    }

    /// Records a commit-stage flush (an error indication reaching the
    /// pipeline). `src` is the module whose CHECK flushed, if the entry
    /// was a CHECK; unattributed flushes (shared-wire symptoms) count
    /// toward the global burst detector instead.
    pub fn record_flush(&mut self, now: u64, src: Option<ModuleId>) {
        match src {
            Some(id) if !self.module_down(id) => {
                if self.symptoms[id.index()].flush_burst(now, &self.config) {
                    self.anomaly(id, now, AnomalyKind::ErrorBurst);
                }
            }
            Some(_) => {} // already muxed out; racing report ignored
            None => {
                if self.shared.flush_burst(now, &self.config) {
                    self.trip(SafeModeCause::ErrorBurst);
                }
            }
        }
    }

    /// Records a blocking CHECK that passed the commit gate although no
    /// module ever wrote its result (a stuck-at-1 `checkValid` symptom),
    /// attributed to the owning module when known.
    pub fn record_premature_pass(&mut self, now: u64, src: Option<ModuleId>) {
        match src {
            Some(id) if !self.module_down(id) => {
                if self.symptoms[id.index()].premature_stuck(&self.config) {
                    self.anomaly(id, now, AnomalyKind::PrematurePass);
                }
            }
            Some(_) => {}
            None => {
                if self.shared.premature_stuck(&self.config) {
                    self.trip(SafeModeCause::PrematurePass);
                }
            }
        }
    }

    /// Records a CHECK of `id` that committed cleanly (module wrote a
    /// passing result): resets the module's burst window and
    /// premature-pass counter, so sporadic symptoms interleaved with
    /// healthy behavior do not accumulate across the whole run.
    pub fn record_clean_commit(&mut self, _now: u64, id: ModuleId) {
        self.symptoms[id.index()].clear();
    }

    /// Whether a quarantined module's next self-test probe may launch.
    pub fn probe_due(&self, id: ModuleId, now: u64) -> bool {
        self.health[id.index()].probe_due(now)
    }

    /// Marks a probe as launched for `id`.
    pub fn probe_launched(&mut self, id: ModuleId) {
        self.health[id.index()].note_probe_launched();
    }

    /// A self-test probe for `id` succeeded: the module leaves
    /// quarantine and is re-coupled.
    pub fn probe_succeeded(&mut self, id: ModuleId, now: u64) {
        let (from, to) =
            self.health[id.index()].apply(&self.config.health, now, HealthEvent::ProbeSuccess);
        debug_assert!(crate::health::legal_edge(from, to));
        // A fresh start: past symptoms do not count against the healed
        // module.
        self.symptoms[id.index()].clear();
    }

    /// A self-test probe for `id` failed (wrong verdict or probe
    /// timeout). After `k` consecutive failures the slot is permanently
    /// `Disabled`; if that leaves at least half of the installed modules
    /// disabled, the framework escalates to global safe mode.
    pub fn probe_failed(&mut self, id: ModuleId, now: u64) {
        let (from, to) =
            self.health[id.index()].apply(&self.config.health, now, HealthEvent::ProbeFailure);
        debug_assert!(crate::health::legal_edge(from, to));
        if to == HealthState::Disabled && from != HealthState::Disabled {
            let installed = self.installed_count();
            if installed > 0 && 2 * self.disabled_count() >= installed {
                let cause = match self.health[id.index()].last_cause() {
                    Some(AnomalyKind::Timeout) | None => SafeModeCause::NoProgress {
                        rob: self.last_timeout_rob[id.index()].unwrap_or(RobId(0)),
                    },
                    Some(AnomalyKind::ErrorBurst) => SafeModeCause::ErrorBurst,
                    Some(AnomalyKind::PrematurePass) => SafeModeCause::PrematurePass,
                };
                self.trip(cause);
            }
        }
    }

    /// Polls the cycle-budget hang detector. Returns `true` **exactly
    /// once** — on the first poll at or past the configured
    /// `cycle_budget` — and `false` forever after. The one-shot latch
    /// means a hung guest (e.g. an infinite loop created by an injected
    /// fault) is classified as `Hang` once per run, not re-reported on
    /// every subsequent step; campaigns can therefore never wedge and
    /// never double-count a hang.
    pub fn poll_hang(&mut self, now: u64) -> bool {
        if self.hang_fired || now < self.config.cycle_budget {
            return false;
        }
        self.hang_fired = true;
        self.hangs += 1;
        true
    }

    /// Whether the hang detector has already fired for this run.
    pub fn hang_fired(&self) -> bool {
        self.hang_fired
    }

    /// One cycle of transition monitoring over the IOQ: charge timeout
    /// anomalies to the owning modules (each charge is recorded in the
    /// IOQ entry, from which its timer re-arms) and decay quiet `Suspect`
    /// slots back to `Healthy`.
    pub fn tick(&mut self, now: u64, ioq: &mut Ioq) {
        if self.safe_mode.is_some() {
            return;
        }
        // Charges are applied after the scan, so every entry is judged
        // against the health states the cycle started with, and in
        // program order (ascending `RobId`, which the scan's slot order
        // is not once ids wrap the IOQ), which fixes each module's
        // `last_timeout_rob`. The list allocates only when a timeout
        // actually fires.
        let mut fired: Vec<(RobId, ModuleId)> = Vec::new();
        for (rob, id, entry) in ioq.timers() {
            if self.module_down(id) {
                continue;
            }
            // Re-arming timer: armed at allocation, charged at
            // `armed_at + timeout + 1` and re-armed, while still stuck.
            if now.saturating_sub(entry.armed_at) > self.config.timeout {
                entry.armed_at = now;
                fired.push((rob, id));
            }
        }
        fired.sort_unstable();
        for (rob, id) in fired {
            self.last_timeout_rob[id.index()] = Some(rob);
            self.anomaly(id, now, AnomalyKind::Timeout);
        }
        // Quiet decay: a Suspect slot with no anomalies for a full decay
        // window returns to Healthy.
        for i in 0..ModuleId::SLOTS {
            if self.health[i].state() == HealthState::Suspect {
                let (from, to) = self.health[i].apply(&self.config.health, now, HealthEvent::Quiet);
                debug_assert!(crate::health::legal_edge(from, to));
            }
        }
    }
}

impl Default for Watchdog {
    fn default() -> Watchdog {
        Watchdog::new(WatchdogConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ioq::{FetchOutEntry, IoqEntryKind};
    use rse_isa::Inst;

    const ICM: ModuleId = ModuleId::ICM;
    const MLR: ModuleId = ModuleId::MLR;

    const NOP: FetchOutEntry = FetchOutEntry {
        pc: 0,
        word: 0,
        inst: Inst::Nop,
        wrong_path: false,
    };

    fn cfg() -> WatchdogConfig {
        WatchdogConfig {
            timeout: 100,
            burst_threshold: 3,
            premature_pass_threshold: 3,
            health: HealthConfig {
                quarantine_threshold: 2,
                probe_base: 50,
                probe_timeout: 25,
                max_probe_attempts: 2,
                suspect_decay: 1_000,
            },
            ..WatchdogConfig::default()
        }
    }

    fn wd() -> Watchdog {
        let mut wd = Watchdog::new(cfg());
        wd.note_installed(ICM);
        wd
    }

    #[test]
    fn timeout_fires_first_at_boundary_plus_one() {
        // Satellite: the timeout boundary is exclusive — an entry
        // allocated at cycle 0 with timeout T is charged at T+1, not T.
        let mut wd = wd();
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(5), IoqEntryKind::BlockingChk(ICM), NOP);
        wd.tick(100, &mut ioq);
        assert_eq!(wd.module_state(ICM), HealthState::Healthy);
        wd.tick(101, &mut ioq);
        assert_eq!(wd.module_state(ICM), HealthState::Suspect);
        assert_eq!(
            wd.module_health(ICM).last_cause(),
            Some(AnomalyKind::Timeout)
        );
        assert!(!wd.is_decoupled(), "one suspect module must not decouple");
    }

    #[test]
    fn rearmed_timeout_escalates_to_quarantine() {
        // The same stuck entry is charged again every `timeout` cycles,
        // so a single in-flight CHECK still reaches Quarantined.
        let mut wd = wd();
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(5), IoqEntryKind::BlockingChk(ICM), NOP);
        wd.tick(101, &mut ioq);
        assert_eq!(wd.module_state(ICM), HealthState::Suspect);
        wd.tick(201, &mut ioq);
        assert_eq!(wd.module_state(ICM), HealthState::Suspect, "timer re-armed");
        wd.tick(202, &mut ioq);
        assert_eq!(wd.module_state(ICM), HealthState::Quarantined);
        assert!(!wd.is_decoupled());
    }

    #[test]
    fn completed_checks_do_not_time_out() {
        let mut wd = wd();
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(5), IoqEntryKind::BlockingChk(ICM), NOP);
        ioq.complete(RobId(5), false);
        wd.tick(500, &mut ioq);
        assert_eq!(wd.module_state(ICM), HealthState::Healthy);
    }

    #[test]
    fn plain_entries_never_time_out() {
        let mut wd = wd();
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(1), IoqEntryKind::Plain, NOP);
        wd.tick(10_000, &mut ioq);
        assert_eq!(wd.module_state(ICM), HealthState::Healthy);
        assert!(!wd.is_decoupled());
    }

    #[test]
    fn attributed_error_burst_quarantines_only_that_module() {
        let mut wd = wd();
        wd.note_installed(MLR);
        for t in [10, 20, 30, 40, 50, 60] {
            wd.record_flush(t, Some(ICM));
        }
        assert_eq!(wd.module_state(ICM), HealthState::Quarantined);
        assert_eq!(wd.module_state(MLR), HealthState::Healthy);
        assert!(!wd.is_decoupled());
        assert_eq!(
            wd.module_health(ICM).last_cause(),
            Some(AnomalyKind::ErrorBurst)
        );
    }

    #[test]
    fn spread_out_flushes_do_not_charge_anomalies() {
        let mut wd = wd();
        for i in 0..10 {
            wd.record_flush(i * 1000, Some(ICM));
        }
        assert_eq!(wd.module_state(ICM), HealthState::Healthy);
    }

    #[test]
    fn clean_commit_resets_burst_window() {
        // Satellite: two flushes, a clean commit, then two more flushes
        // must not add up to one four-flush burst.
        let mut wd = wd();
        wd.record_flush(10, Some(ICM));
        wd.record_flush(20, Some(ICM));
        wd.record_clean_commit(30, ICM);
        wd.record_flush(40, Some(ICM));
        wd.record_flush(50, Some(ICM));
        assert_eq!(wd.module_state(ICM), HealthState::Healthy);
        // Without the reset the third flush in-window would have charged
        // an anomaly at t=40 already.
        wd.record_flush(60, Some(ICM));
        assert_eq!(wd.module_state(ICM), HealthState::Suspect);
    }

    #[test]
    fn clean_commit_resets_premature_counter() {
        let mut wd = wd();
        wd.record_premature_pass(1, Some(ICM));
        wd.record_premature_pass(2, Some(ICM));
        wd.record_clean_commit(3, ICM);
        wd.record_premature_pass(4, Some(ICM));
        wd.record_premature_pass(5, Some(ICM));
        assert_eq!(wd.module_state(ICM), HealthState::Healthy);
        wd.record_premature_pass(6, Some(ICM));
        assert_eq!(wd.module_state(ICM), HealthState::Suspect);
        assert_eq!(
            wd.module_health(ICM).last_cause(),
            Some(AnomalyKind::PrematurePass)
        );
    }

    #[test]
    fn unattributed_flush_burst_trips_global_safe_mode() {
        // Symptoms on shared wires (no owning module) still decouple the
        // whole framework, as in the original §3.4 design.
        let mut wd = wd();
        wd.record_flush(10, None);
        wd.record_flush(20, None);
        assert!(!wd.is_decoupled());
        wd.record_flush(30, None);
        assert_eq!(wd.safe_mode(), Some(SafeModeCause::ErrorBurst));
        assert_eq!(wd.trips, 1);
    }

    #[test]
    fn unattributed_premature_passes_trip_global_safe_mode() {
        let mut wd = wd();
        wd.record_premature_pass(1, None);
        wd.record_premature_pass(2, None);
        wd.record_premature_pass(3, None);
        assert_eq!(wd.safe_mode(), Some(SafeModeCause::PrematurePass));
    }

    #[test]
    fn probe_lifecycle_heals_a_transient_fault() {
        let mut wd = wd();
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(5), IoqEntryKind::BlockingChk(ICM), NOP);
        wd.tick(101, &mut ioq);
        wd.tick(202, &mut ioq);
        assert_eq!(wd.module_state(ICM), HealthState::Quarantined);
        // First probe due after the base backoff.
        assert!(!wd.probe_due(ICM, 251));
        assert!(wd.probe_due(ICM, 252));
        wd.probe_launched(ICM);
        assert!(
            !wd.probe_due(ICM, 300),
            "in-flight probe is not re-launched"
        );
        wd.probe_succeeded(ICM, 300);
        assert_eq!(wd.module_state(ICM), HealthState::Healthy);
        assert_eq!(wd.module_health(ICM).reenables, 1);
        assert_eq!(wd.module_health(ICM).probes_launched, 1);
    }

    #[test]
    fn k_failed_probes_disable_and_single_module_escalates() {
        // With one installed module, disabling it leaves ≥ half of the
        // installed modules down: global safe mode is the last resort.
        let mut wd = wd();
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(7), IoqEntryKind::BlockingChk(ICM), NOP);
        wd.tick(101, &mut ioq);
        wd.tick(202, &mut ioq);
        wd.probe_launched(ICM);
        wd.probe_failed(ICM, 300); // attempt 1 of k=2
        assert_eq!(wd.module_state(ICM), HealthState::Quarantined);
        assert!(!wd.is_decoupled());
        wd.probe_launched(ICM);
        wd.probe_failed(ICM, 500); // attempt 2: Disabled + escalation
        assert_eq!(wd.module_state(ICM), HealthState::Disabled);
        assert_eq!(
            wd.safe_mode(),
            Some(SafeModeCause::NoProgress { rob: RobId(7) })
        );
    }

    #[test]
    fn minority_disabled_does_not_escalate() {
        let mut wd = Watchdog::new(cfg());
        for id in [ModuleId::ICM, ModuleId::MLR, ModuleId::AHBM] {
            wd.note_installed(id);
        }
        for t in [10, 20, 30, 40, 50, 60] {
            wd.record_flush(t, Some(ICM));
        }
        wd.probe_launched(ICM);
        wd.probe_failed(ICM, 100);
        wd.probe_launched(ICM);
        wd.probe_failed(ICM, 200);
        assert_eq!(wd.module_state(ICM), HealthState::Disabled);
        assert_eq!(wd.disabled_count(), 1);
        assert_eq!(wd.installed_count(), 3);
        assert!(
            !wd.is_decoupled(),
            "1 of 3 disabled is below the ≥-half escalation threshold"
        );
    }

    #[test]
    fn half_disabled_escalates_with_module_cause() {
        let mut wd = Watchdog::new(cfg());
        wd.note_installed(ICM);
        wd.note_installed(MLR);
        for t in [10, 20, 30, 40, 50, 60] {
            wd.record_flush(t, Some(MLR));
        }
        wd.probe_launched(MLR);
        wd.probe_failed(MLR, 100);
        wd.probe_launched(MLR);
        wd.probe_failed(MLR, 200);
        // 1 of 2 disabled: 2*1 >= 2 → escalate, carrying the module's
        // last anomaly cause.
        assert_eq!(wd.safe_mode(), Some(SafeModeCause::ErrorBurst));
    }

    #[test]
    fn suspect_decays_quiet_via_tick() {
        let mut wd = wd();
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(5), IoqEntryKind::BlockingChk(ICM), NOP);
        wd.tick(101, &mut ioq);
        assert_eq!(wd.module_state(ICM), HealthState::Suspect);
        ioq.complete(RobId(5), false);
        wd.tick(500, &mut ioq);
        assert_eq!(wd.module_state(ICM), HealthState::Suspect);
        wd.tick(101 + 1_000, &mut ioq);
        assert_eq!(wd.module_state(ICM), HealthState::Healthy);
    }

    #[test]
    fn down_module_is_not_recharged() {
        let mut wd = wd();
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(5), IoqEntryKind::BlockingChk(ICM), NOP);
        wd.tick(101, &mut ioq);
        wd.tick(202, &mut ioq);
        assert_eq!(wd.module_state(ICM), HealthState::Quarantined);
        let q = wd.module_health(ICM).quarantines;
        // Stuck entry still live; further ticks and flushes must not
        // re-enter quarantine or pile up anomalies.
        wd.tick(400, &mut ioq);
        wd.record_flush(401, Some(ICM));
        assert_eq!(wd.module_health(ICM).quarantines, q);
    }

    #[test]
    fn poll_hang_is_one_shot_under_repeated_polls() {
        // Satellite: repeated polls past the budget stay silent after the
        // first firing, including polls at the exact budget boundary.
        let mut wd = Watchdog::new(WatchdogConfig {
            cycle_budget: 1_000,
            ..cfg()
        });
        assert!(!wd.poll_hang(0));
        assert!(!wd.poll_hang(999));
        assert!(!wd.hang_fired());
        // First poll at/past the budget fires...
        assert!(wd.poll_hang(1_000));
        assert!(wd.hang_fired());
        // ...and every subsequent poll is silent (one-shot), even at the
        // boundary value itself and far beyond.
        assert!(!wd.poll_hang(1_000));
        for t in 1_001..1_100 {
            assert!(!wd.poll_hang(t));
        }
        assert!(!wd.poll_hang(u64::MAX));
        assert_eq!(wd.hangs, 1);
    }

    #[test]
    fn hang_detector_disabled_by_default() {
        let mut wd = Watchdog::default();
        assert!(!wd.poll_hang(u64::MAX - 1));
        assert_eq!(wd.hangs, 0);
    }

    #[test]
    fn safe_mode_causes_render_human_readably() {
        assert_eq!(
            SafeModeCause::NoProgress { rob: RobId(7) }.to_string(),
            "no progress on blocking CHECK (ROB #7): module stuck or checkValid stuck at 0"
        );
        assert!(SafeModeCause::ErrorBurst.to_string().contains("burst"));
        assert!(SafeModeCause::PrematurePass
            .to_string()
            .contains("checkValid stuck at 1"));
    }

    #[test]
    fn same_cycle_multi_module_timeouts_charge_in_rob_order() {
        // When several modules' blocking CHECKs time out in the same
        // cycle, each module is charged for its own CHECK, whatever order
        // the entries were allocated in and although the ids straddle the
        // wrap of the 16-slot IOQ (15 in the last slot, 16 and 17 in the
        // first two). Allocate youngest first to stress it.
        let run = || {
            let mut wd = wd();
            wd.note_installed(MLR);
            wd.note_installed(ModuleId::AHBM);
            let mut ioq = Ioq::new(16);
            ioq.allocate(0, RobId(17), IoqEntryKind::BlockingChk(ModuleId::AHBM), NOP);
            ioq.allocate(0, RobId(16), IoqEntryKind::BlockingChk(MLR), NOP);
            ioq.allocate(0, RobId(15), IoqEntryKind::BlockingChk(ICM), NOP);
            wd.tick(101, &mut ioq);
            (
                wd.module_state(ICM),
                wd.module_state(MLR),
                wd.module_state(ModuleId::AHBM),
                wd.last_timeout_rob,
            )
        };
        let (icm, mlr, ahbm, last) = run();
        // All three faulted the same cycle: every transition is the
        // legal Healthy -> Suspect edge, charged to the right module.
        assert_eq!(icm, HealthState::Suspect);
        assert_eq!(mlr, HealthState::Suspect);
        assert_eq!(ahbm, HealthState::Suspect);
        assert!(crate::health::legal_edge(HealthState::Healthy, icm));
        assert_eq!(last[ICM.index()], Some(RobId(15)));
        assert_eq!(last[MLR.index()], Some(RobId(16)));
        assert_eq!(last[ModuleId::AHBM.index()], Some(RobId(17)));
        // And the whole thing replays identically.
        assert_eq!((icm, mlr, ahbm, last), run());
    }

    #[test]
    fn same_module_timeouts_across_the_wrap_charge_in_rob_order() {
        // One module's CHECKs at ids 15 and 16 sit in the last and the
        // first slot of the 16-slot IOQ, so the timer scan meets 16
        // first. Charged in program order, the module's last timeout is
        // the younger CHECK, 16.
        let mut wd = wd();
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(15), IoqEntryKind::BlockingChk(ICM), NOP);
        ioq.allocate(0, RobId(16), IoqEntryKind::BlockingChk(ICM), NOP);
        let scan: Vec<RobId> = ioq.timers().map(|(rob, ..)| rob).collect();
        assert_eq!(scan, [RobId(16), RobId(15)], "slot order");
        wd.tick(101, &mut ioq);
        assert_eq!(wd.last_timeout_rob[ICM.index()], Some(RobId(16)));
        // Two charges in one tick: Healthy -> Suspect -> Quarantined.
        assert_eq!(wd.module_state(ICM), HealthState::Quarantined);
    }

    #[test]
    fn same_cycle_escalations_stay_on_legal_edges() {
        // Two modules escalate Suspect -> Quarantined in the same tick;
        // the health machine's debug assertions verify each edge, and
        // both land down without tripping global safe mode.
        let mut wd = wd();
        wd.note_installed(MLR);
        let mut ioq = Ioq::new(16);
        ioq.allocate(0, RobId(2), IoqEntryKind::BlockingChk(MLR), NOP);
        ioq.allocate(0, RobId(1), IoqEntryKind::BlockingChk(ICM), NOP);
        wd.tick(101, &mut ioq); // both Suspect
        wd.tick(201, &mut ioq); // timers re-arm
        wd.tick(202, &mut ioq); // both Quarantined, same cycle
        assert_eq!(wd.module_state(ICM), HealthState::Quarantined);
        assert_eq!(wd.module_state(MLR), HealthState::Quarantined);
        assert!(crate::health::legal_edge(
            HealthState::Suspect,
            HealthState::Quarantined
        ));
        assert!(!wd.is_decoupled(), "per-module containment, not safe mode");
    }

    #[test]
    fn poll_hang_budget_is_exactly_one_shot_at_boundary() {
        // Satellite regression: the budget boundary is inclusive, the
        // firing is one-shot, and a disabled budget (u64::MAX) never
        // fires no matter how far the clock runs.
        let mut wd = Watchdog::new(WatchdogConfig {
            cycle_budget: 500,
            ..cfg()
        });
        assert!(!wd.poll_hang(499));
        assert!(wd.poll_hang(500), "fires exactly at the budget");
        assert!(!wd.poll_hang(500), "same-cycle re-poll stays silent");
        assert!(!wd.poll_hang(501));
        assert_eq!(wd.hangs, 1);
        let mut off = Watchdog::new(WatchdogConfig {
            cycle_budget: u64::MAX,
            ..cfg()
        });
        assert!(!off.poll_hang(u64::MAX - 1));
        assert_eq!(off.hangs, 0);
    }

    #[test]
    fn first_global_cause_wins() {
        let mut wd = wd();
        for i in 0..5 {
            wd.record_flush(i, None);
        }
        for i in 0..5 {
            wd.record_premature_pass(i, None);
        }
        assert_eq!(wd.safe_mode(), Some(SafeModeCause::ErrorBurst));
        assert_eq!(wd.trips, 1);
    }
}
