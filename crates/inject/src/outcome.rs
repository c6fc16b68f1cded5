//! Outcome taxonomy, recovery verdicts, JSON-lines records, and the
//! detection-coverage histogram.
//!
//! The taxonomy is the standard DSN-campaign classification, refined with
//! the framework's own detectors: a run is *detected* when an RSE module
//! flagged the error (and the record then also says whether the recovery
//! path restored a correct final state), *watchdog-timeout* when the
//! §3.4 self-checking mechanism decoupled the framework, *crash-trap*
//! when the guest died through a generic trap, *hang* when the
//! cycle-budget detector fired, *SDC* when the run completed with a wrong
//! result, and *masked* when the fault had no architectural effect.

use rse_isa::ModuleId;
use std::collections::BTreeMap;

/// Short stable tag for a module (used inside outcome tags and fault
/// descriptions, here and in the adversarial campaign engine).
pub fn module_tag(id: ModuleId) -> String {
    if id == ModuleId::ICM {
        "ICM".into()
    } else if id == ModuleId::MLR {
        "MLR".into()
    } else if id == ModuleId::DDT {
        "DDT".into()
    } else if id == ModuleId::AHBM {
        "AHBM".into()
    } else if id == ModuleId::DSM {
        "DSM".into()
    } else {
        format!("M{}", id.number())
    }
}

/// Static mechanism name for a bounded rollback retry that succeeded on
/// the `k`-th re-execution attempt (1-based): `recovered:retry<k>`.
/// [`RecoveryStatus::Succeeded`] carries a `&'static str`, so the names
/// come from a fixed table; budgets beyond the table saturate at the
/// last entry (budgets that large are rejected by the CLI validator
/// anyway).
pub fn retry_mechanism(k: u32) -> &'static str {
    const RETRIES: [&str; 8] = [
        "retry1", "retry2", "retry3", "retry4", "retry5", "retry6", "retry7", "retry8",
    ];
    RETRIES[(k as usize).clamp(1, RETRIES.len()) - 1]
}

/// How one fault-injection run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The run completed with the golden architectural result.
    Masked,
    /// Silent data corruption: completed, but the result differs from
    /// the golden run and nothing detected it.
    Sdc,
    /// An RSE module detected the error (ICM mismatch, DDT-mediated
    /// crash recovery, ...).
    DetectedByModule(ModuleId),
    /// The §3.4 self-checking watchdog decoupled the framework.
    WatchdogTimeout,
    /// The per-module health machine took the named module down
    /// (Quarantined or Disabled) and it stayed down through the end of
    /// the run: the guest ran to completion in degraded mode with that
    /// module's CHECKs muxed to committed NOPs.
    Degraded(ModuleId),
    /// A module was quarantined mid-run but a backoff probe re-enabled
    /// it before the end: the fault was contained and healed without
    /// ever decoupling the framework.
    Contained,
    /// The guest died through a generic trap (unexpected syscall /
    /// exception / process kill), not through an RSE detector.
    CrashTrap,
    /// The cycle-budget hang detector fired.
    Hang,
    /// Fleet outcome: the named node was declared dead and its workload
    /// completed correctly on a successor node restored from the dead
    /// node's last replicated checkpoint.
    Failover(u16),
    /// Fleet outcome: a peer monitor declared a node dead while it was in
    /// fact running and reachable (no crash, hang, partition, or
    /// heartbeat-loss burst explains the declaration).
    FalseSuspicion,
    /// Fleet outcome: two unfenced nodes both executed the same workload
    /// past its failover point — the fencing protocol failed.
    SplitBrain,
    /// Fleet outcome: a node died but its workload could not be completed
    /// anywhere (e.g. it crashed before replicating any checkpoint).
    Unrecovered,
}

impl Outcome {
    /// Stable machine-readable tag (JSONL field, histogram key).
    pub fn tag(&self) -> String {
        match self {
            Outcome::Masked => "masked".into(),
            Outcome::Sdc => "sdc".into(),
            Outcome::DetectedByModule(id) => format!("detected:{}", module_tag(*id)),
            Outcome::WatchdogTimeout => "watchdog-timeout".into(),
            Outcome::Degraded(id) => format!("degraded:{}", module_tag(*id)),
            Outcome::Contained => "contained".into(),
            Outcome::CrashTrap => "crash-trap".into(),
            Outcome::Hang => "hang".into(),
            Outcome::Failover(node) => format!("failover:n{node}"),
            Outcome::FalseSuspicion => "false-suspicion".into(),
            Outcome::SplitBrain => "split-brain".into(),
            Outcome::Unrecovered => "unrecovered".into(),
        }
    }

    /// Whether the per-module health machine confined the fault
    /// (degraded-mode completion or probe-healed containment).
    pub fn is_confined(&self) -> bool {
        matches!(self, Outcome::Degraded(_) | Outcome::Contained)
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.tag())
    }
}

/// Whether (and how) the run's error was repaired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryStatus {
    /// Nothing to recover: the fault was masked, or it produced SDC
    /// (undetected — by definition unrecoverable).
    NotNeeded,
    /// Recovery completed and re-execution reached the golden state.
    Succeeded {
        /// Which mechanism repaired the run: `flush-refetch` (the ICM's
        /// inline pipeline flush), `safe-mode-decouple` (the watchdog's
        /// fail-safe), `checkpoint-rollback` (system software restoring
        /// the checkpoint store and re-executing), or
        /// `ddt-checkpoint-rollback` (the OS recovery algorithm of
        /// §4.2.2).
        mechanism: &'static str,
    },
    /// Recovery was attempted but could not restore a correct state;
    /// the framework halts in safe mode with the recorded cause.
    FailedSafeHalt {
        /// Why recovery failed.
        cause: String,
    },
}

impl RecoveryStatus {
    /// Stable machine-readable tag.
    pub fn tag(&self) -> String {
        match self {
            RecoveryStatus::NotNeeded => "not-needed".into(),
            RecoveryStatus::Succeeded { mechanism } => format!("recovered:{mechanism}"),
            RecoveryStatus::FailedSafeHalt { .. } => "failed-safe-halt".into(),
        }
    }
}

impl std::fmt::Display for RecoveryStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.tag())
    }
}

/// One campaign run, fully described — a line of the JSONL report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: &'static str,
    /// Fault-model name.
    pub model: &'static str,
    /// Run index within its campaign cell.
    pub run: u32,
    /// The replay seed (expands to the exact fault via
    /// [`crate::FaultPlan::sample`]).
    pub seed: u64,
    /// Outcome classification.
    pub outcome: Outcome,
    /// Recovery verdict.
    pub recovery: RecoveryStatus,
    /// Cycles the faulty run consumed.
    pub cycles: u64,
    /// Compact description of the injected fault(s).
    pub faults: String,
}

/// Minimal JSON string escaper, shared by every campaign record (the
/// only non-trivial characters our fields can contain are quotes and
/// backslashes, but control characters are handled for safety).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl RunRecord {
    /// Serializes the record as one minified JSON object (integers and
    /// strings only — bit-stable across hosts, suitable for golden
    /// diffing).
    pub fn to_json(&self) -> String {
        let recovery_detail = match &self.recovery {
            RecoveryStatus::FailedSafeHalt { cause } => {
                format!(",\"recovery_cause\":\"{}\"", json_escape(cause))
            }
            _ => String::new(),
        };
        format!(
            "{{\"workload\":\"{}\",\"model\":\"{}\",\"run\":{},\"seed\":{},\
             \"outcome\":\"{}\",\"recovery\":\"{}\"{},\"cycles\":{},\"faults\":\"{}\"}}",
            json_escape(self.workload),
            json_escape(self.model),
            self.run,
            self.seed,
            self.outcome.tag(),
            self.recovery.tag(),
            recovery_detail,
            self.cycles,
            json_escape(&self.faults),
        )
    }
}

/// A campaign record that serializes to one line of a JSONL report.
pub trait JsonLine {
    /// The record as one minified JSON object.
    fn json_line(&self) -> String;
}

impl JsonLine for RunRecord {
    fn json_line(&self) -> String {
        self.to_json()
    }
}

/// Serializes records as JSON lines (one record per line, trailing
/// newline).
pub fn to_jsonl<R: JsonLine>(records: &[R]) -> String {
    records.iter().map(|r| r.json_line() + "\n").collect()
}

/// Outcome histogram keyed by stable tags (BTreeMap ⇒ deterministic
/// iteration order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<String, u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram over a record slice.
    pub fn from_records(records: &[RunRecord]) -> Histogram {
        let mut h = Histogram::default();
        for r in records {
            h.add(&r.outcome);
        }
        h
    }

    /// Adds one outcome.
    pub fn add(&mut self, outcome: &Outcome) {
        *self.counts.entry(outcome.tag()).or_insert(0) += 1;
        self.total += 1;
    }

    /// Count for a tag.
    pub fn count(&self, tag: &str) -> u64 {
        self.counts.get(tag).copied().unwrap_or(0)
    }

    /// Total runs.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Runs detected by any RSE module.
    pub fn detected(&self) -> u64 {
        self.counts
            .iter()
            .filter(|(k, _)| k.starts_with("detected:"))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Fleet runs that ended in checkpoint failover (every `failover:*`).
    pub fn failovers(&self) -> u64 {
        self.counts
            .iter()
            .filter(|(k, _)| k.starts_with("failover:"))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Runs confined by the per-module health machine (every
    /// `degraded:*` plus `contained`).
    pub fn confined(&self) -> u64 {
        self.counts
            .iter()
            .filter(|(k, _)| k.starts_with("degraded:") || *k == "contained")
            .map(|(_, v)| *v)
            .sum()
    }

    /// `(tag, count)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Renders the detection-coverage table: one row per (workload, model)
/// cell with its outcome mix and the count of successful recoveries.
pub fn coverage_table(records: &[RunRecord]) -> String {
    let mut cells: BTreeMap<(&str, &str), (Histogram, u64)> = BTreeMap::new();
    for r in records {
        let entry = cells.entry((r.workload, r.model)).or_default();
        entry.0.add(&r.outcome);
        if matches!(r.recovery, RecoveryStatus::Succeeded { .. }) {
            entry.1 += 1;
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<16} {:>5} {:>7} {:>5} {:>9} {:>5} {:>9} {:>5} {:>5} {:>10}\n",
        "workload",
        "model",
        "runs",
        "masked",
        "sdc",
        "detected",
        "wdog",
        "confined",
        "crash",
        "hang",
        "recovered"
    ));
    for ((workload, model), (h, recovered)) in &cells {
        out.push_str(&format!(
            "{:<14} {:<16} {:>5} {:>7} {:>5} {:>9} {:>5} {:>9} {:>5} {:>5} {:>10}\n",
            workload,
            model,
            h.total(),
            h.count("masked"),
            h.count("sdc"),
            h.detected(),
            h.count("watchdog-timeout"),
            h.confined(),
            h.count("crash-trap"),
            h.count("hang"),
            recovered,
        ));
    }
    let all = Histogram::from_records(records);
    let recovered_total: u64 = cells.values().map(|(_, r)| *r).sum();
    out.push_str(&format!(
        "{:<14} {:<16} {:>5} {:>7} {:>5} {:>9} {:>5} {:>9} {:>5} {:>5} {:>10}\n",
        "TOTAL",
        "",
        all.total(),
        all.count("masked"),
        all.count("sdc"),
        all.detected(),
        all.count("watchdog-timeout"),
        all.confined(),
        all.count("crash-trap"),
        all.count("hang"),
        recovered_total,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(outcome: Outcome, recovery: RecoveryStatus) -> RunRecord {
        RunRecord {
            workload: "alu_loop",
            model: "reg-single",
            run: 0,
            seed: 99,
            outcome,
            recovery,
            cycles: 1234,
            faults: "reg[9]^=0x00000400@c12".into(),
        }
    }

    #[test]
    fn tags_are_stable() {
        assert_eq!(Outcome::Masked.tag(), "masked");
        assert_eq!(Outcome::Sdc.tag(), "sdc");
        assert_eq!(
            Outcome::DetectedByModule(ModuleId::ICM).tag(),
            "detected:ICM"
        );
        assert_eq!(
            Outcome::DetectedByModule(ModuleId::DDT).tag(),
            "detected:DDT"
        );
        assert_eq!(
            Outcome::DetectedByModule(ModuleId::new(9)).tag(),
            "detected:M9"
        );
        assert_eq!(Outcome::WatchdogTimeout.tag(), "watchdog-timeout");
        assert_eq!(Outcome::Degraded(ModuleId::ICM).tag(), "degraded:ICM");
        assert_eq!(Outcome::Degraded(ModuleId::AHBM).tag(), "degraded:AHBM");
        assert_eq!(Outcome::Contained.tag(), "contained");
        assert!(Outcome::Degraded(ModuleId::MLR).is_confined());
        assert!(Outcome::Contained.is_confined());
        assert!(!Outcome::WatchdogTimeout.is_confined());
        assert_eq!(Outcome::CrashTrap.tag(), "crash-trap");
        assert_eq!(Outcome::Hang.tag(), "hang");
        assert_eq!(Outcome::Failover(3).tag(), "failover:n3");
        assert_eq!(Outcome::FalseSuspicion.tag(), "false-suspicion");
        assert_eq!(Outcome::SplitBrain.tag(), "split-brain");
        assert_eq!(Outcome::Unrecovered.tag(), "unrecovered");
        assert_eq!(RecoveryStatus::NotNeeded.tag(), "not-needed");
        assert_eq!(
            RecoveryStatus::Succeeded {
                mechanism: "checkpoint-rollback"
            }
            .tag(),
            "recovered:checkpoint-rollback"
        );
        assert_eq!(
            RecoveryStatus::FailedSafeHalt { cause: "x".into() }.tag(),
            "failed-safe-halt"
        );
    }

    #[test]
    fn json_is_minified_and_escaped() {
        let mut r = record(Outcome::Masked, RecoveryStatus::NotNeeded);
        r.faults = "a\"b\\c".into();
        let j = r.to_json();
        assert!(j.starts_with("{\"workload\":\"alu_loop\""), "{j}");
        assert!(j.contains("\"faults\":\"a\\\"b\\\\c\""), "{j}");
        assert!(!j.contains('\n'));
    }

    #[test]
    fn failed_recovery_records_its_cause() {
        let r = record(
            Outcome::DetectedByModule(ModuleId::ICM),
            RecoveryStatus::FailedSafeHalt {
                cause: "missing checkpoint".into(),
            },
        );
        assert!(r
            .to_json()
            .contains("\"recovery_cause\":\"missing checkpoint\""));
    }

    #[test]
    fn histogram_counts_and_detects() {
        let records = vec![
            record(Outcome::Masked, RecoveryStatus::NotNeeded),
            record(Outcome::Masked, RecoveryStatus::NotNeeded),
            record(
                Outcome::DetectedByModule(ModuleId::ICM),
                RecoveryStatus::Succeeded {
                    mechanism: "flush-refetch",
                },
            ),
            record(Outcome::Sdc, RecoveryStatus::NotNeeded),
            record(
                Outcome::Degraded(ModuleId::ICM),
                RecoveryStatus::Succeeded {
                    mechanism: "quarantine-nop-mux",
                },
            ),
            record(
                Outcome::Contained,
                RecoveryStatus::Succeeded {
                    mechanism: "probe-re-enable",
                },
            ),
            record(
                Outcome::Failover(2),
                RecoveryStatus::Succeeded {
                    mechanism: "fleet-checkpoint-failover",
                },
            ),
        ];
        let h = Histogram::from_records(&records);
        assert_eq!(h.total(), 7);
        assert_eq!(h.count("masked"), 2);
        assert_eq!(h.count("sdc"), 1);
        assert_eq!(h.detected(), 1);
        assert_eq!(h.confined(), 2);
        assert_eq!(h.failovers(), 1);
        assert_eq!(h.count("failover:n2"), 1);
        let table = coverage_table(&records);
        assert!(table.contains("alu_loop"), "{table}");
        assert!(table.contains("TOTAL"), "{table}");
        assert!(table.contains("confined"), "{table}");
    }

    #[test]
    fn display_matches_tag() {
        assert_eq!(Outcome::Hang.to_string(), "hang");
        assert_eq!(RecoveryStatus::NotNeeded.to_string(), "not-needed");
    }
}
