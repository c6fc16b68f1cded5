//! Pipeline configuration (the Figure 1 parameter table).

use rse_isa::chk::{ops, ChkSpec, ModuleId};
use rse_isa::Inst;

/// When the simulator embeds CHECK instructions into the fetched
/// instruction stream at run time (§5.1 of the paper: "When an
/// instruction is fetched, the simulator determines whether the
/// instruction has to be checked and, if so, inserts a CHECK instruction
/// before it into the instruction stream").
///
/// Runtime embedding deliberately does **not** perturb the I-cache — the
/// paper measures the cache effect separately by statically rewriting the
/// binary (reproduced by the workload generators' static instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckPolicy {
    /// No CHECK instructions are inserted (baseline).
    #[default]
    None,
    /// Insert an ICM blocking CHECK before every control-flow instruction
    /// (the Table 4 "Framework + ICM" configuration).
    ControlFlow,
}

impl CheckPolicy {
    /// Whether `inst` should be preceded by an injected CHECK.
    pub fn wants_check(&self, inst: &Inst) -> bool {
        match self {
            CheckPolicy::None => false,
            CheckPolicy::ControlFlow => inst.is_control_flow(),
        }
    }

    /// The CHECK instruction to inject (an ICM `INST_CHECK`, blocking).
    pub fn injected_chk(&self) -> ChkSpec {
        ChkSpec::blocking(ModuleId::ICM, ops::ICM_CHECK_NEXT, 0)
    }
}

/// Architectural parameters of the simulated processor.
///
/// Defaults are the paper's Figure 1 table: 4-instruction fetch and
/// dispatch width, 4-instruction issue width, 16-entry RUU (reorder
/// buffer) and 8-entry LSQ.
///
/// Which CHECKs serialize dispatch is not a parameter: it is a property
/// of the CHECK itself ([`ChkSpec::serializes`]), like the serialization
/// of a syscall or a `halt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions dispatched (renamed into the ROB) per cycle.
    pub dispatch_width: usize,
    /// Instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer (RUU) entries.
    pub rob_size: usize,
    /// Load/store-queue entries (memory instructions resident in the ROB).
    pub lsq_size: usize,
    /// Fetch-buffer capacity (decoded-but-undispatched instructions).
    pub fetch_buffer: usize,
    /// Number of (pipelined) integer ALUs.
    pub int_alus: usize,
    /// Number of D-cache ports (load/store issues per cycle).
    pub mem_ports: usize,
    /// Multiply latency, cycles.
    pub mul_latency: u64,
    /// Divide/remainder latency, cycles (non-pipelined unit).
    pub div_latency: u64,
    /// Runtime CHECK-insertion policy.
    pub check_policy: CheckPolicy,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_size: 16,
            lsq_size: 8,
            fetch_buffer: 8,
            int_alus: 4,
            mem_ports: 2,
            mul_latency: 3,
            div_latency: 20,
            check_policy: CheckPolicy::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_isa::Reg;

    #[test]
    fn default_matches_figure1() {
        let c = PipelineConfig::default();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.dispatch_width, 4);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.rob_size, 16);
        assert_eq!(c.lsq_size, 8);
    }

    #[test]
    fn control_flow_policy_selects_branches() {
        let p = CheckPolicy::ControlFlow;
        assert!(p.wants_check(&Inst::Beq {
            rs: Reg::T0,
            rt: Reg::T1,
            off: 1
        }));
        assert!(p.wants_check(&Inst::Jal { target: 4 }));
        assert!(p.wants_check(&Inst::Jr { rs: Reg::RA }));
        assert!(!p.wants_check(&Inst::Add {
            rd: Reg::T0,
            rs: Reg::T1,
            rt: Reg::T2
        }));
        assert!(!p.wants_check(&Inst::Lw {
            rt: Reg::T0,
            base: Reg::SP,
            off: 0
        }));
    }

    #[test]
    fn injected_chk_targets_icm_blocking() {
        let chk = CheckPolicy::ControlFlow.injected_chk();
        assert!(chk.blocking);
        assert_eq!(chk.module, ModuleId::ICM);
    }
}
