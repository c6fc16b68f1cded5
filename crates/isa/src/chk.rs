//! The CHECK instruction — the application's interface to the RSE.
//!
//! §3.3 of the paper defines the CHECK instruction format: an opcode
//! (`CHK`), the module number that performs the check, a BLK/NBLK bit
//! selecting blocking (synchronous) or non-blocking (asynchronous)
//! operation, module-specific operation/config bits, and a parameter.
//!
//! Our binary encoding packs these as
//! `opcode(6) | module(4) | blk(1) | op(5) | param(16)`.
//!
//! Wide (32-bit) operands — addresses and sizes, e.g. the header location
//! passed to the MLR — do not fit in the 16-bit parameter field. Following
//! the paper's input-interface design, modules obtain such operands from
//! the `Regfile_Data` input queue: by convention a CHECK instruction's
//! wide operands are the values of registers `a0` (`r4`) and `a1` (`r5`)
//! at dispatch, which the pipeline fans out to the RSE.

use std::fmt;

/// Identifies a hardware module slot in the RSE (4-bit module number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(u8);

impl ModuleId {
    /// The Instruction Checker Module.
    pub const ICM: ModuleId = ModuleId(0);
    /// The Memory Layout Randomization module.
    pub const MLR: ModuleId = ModuleId(1);
    /// The Data Dependency Tracker module.
    pub const DDT: ModuleId = ModuleId(2);
    /// The Adaptive Heartbeat Monitor module.
    pub const AHBM: ModuleId = ModuleId(3);
    /// The Dynamic Sequence Monitor module.
    pub const DSM: ModuleId = ModuleId(4);

    /// Number of module slots in the RSE (the module field is 4 bits).
    pub const SLOTS: usize = 16;

    /// Creates a module id from a raw slot number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16`.
    pub fn new(n: u8) -> ModuleId {
        assert!(n < 16, "module number {n} out of range");
        ModuleId(n)
    }

    /// Creates a module id, returning `None` if the slot is out of range.
    pub fn try_new(n: u8) -> Option<ModuleId> {
        (n < 16).then_some(ModuleId(n))
    }

    /// The raw slot number, `0..16`.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw slot number as `u8`.
    pub fn number(self) -> u8 {
        self.0
    }

    /// A short mnemonic for the well-known modules, or `mN` otherwise.
    pub fn mnemonic(self) -> String {
        match self {
            ModuleId::ICM => "icm".into(),
            ModuleId::MLR => "mlr".into(),
            ModuleId::DDT => "ddt".into(),
            ModuleId::AHBM => "ahbm".into(),
            ModuleId::DSM => "dsm".into(),
            ModuleId(n) => format!("m{n}"),
        }
    }

    /// Parses a module mnemonic (`icm`, `mlr`, `ddt`, `ahbm`, `mN`, or a
    /// bare slot number).
    pub fn parse(s: &str) -> Option<ModuleId> {
        match s.to_ascii_lowercase().as_str() {
            "icm" => Some(ModuleId::ICM),
            "mlr" => Some(ModuleId::MLR),
            "ddt" => Some(ModuleId::DDT),
            "ahbm" => Some(ModuleId::AHBM),
            "dsm" => Some(ModuleId::DSM),
            other => {
                let body = other.strip_prefix('m').unwrap_or(other);
                body.parse::<u8>().ok().and_then(ModuleId::try_new)
            }
        }
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

/// Module operation numbers (the 5-bit `op` field of a CHECK instruction).
///
/// Operations `0` and `1` are common to every module (enable/disable, via
/// the Module Enable/Disable unit of Figure 1); the rest are
/// module-specific, mirroring the instruction sequences in the paper
/// (Figure 3 for the MLR; §4.2–4.4 for DDT/ICM/AHBM).
pub mod ops {
    /// Enable the addressed module (common to all modules).
    pub const ENABLE: u8 = 0;
    /// Disable the addressed module (common to all modules).
    pub const DISABLE: u8 = 1;
    /// Self-test the addressed module (common to all modules): the
    /// module verifies its internal invariants and reports the result
    /// like any blocking check. Issued by the §3.4 watchdog as the
    /// quarantine re-enable probe.
    pub const SELFTEST: u8 = 31;

    /// ICM: check the next instruction in program order (`CHK INST_CHECK`).
    pub const ICM_CHECK_NEXT: u8 = 2;

    /// MLR: latch the executable-header location/size (Figure 3, `I1`);
    /// `a0` = header location, `a1` = header size.
    pub const MLR_EXEC_HDR: u8 = 2;
    /// MLR: randomize position-independent regions (Figure 3, `I2`).
    pub const MLR_PI_RAND: u8 = 3;
    /// MLR: latch the old GOT location/size (Figure 3, `I5`);
    /// `a0` = location, `a1` = size in bytes.
    pub const MLR_GOT_OLD: u8 = 4;
    /// MLR: latch the new GOT location (Figure 3, `I6`); `a0` = location.
    pub const MLR_GOT_NEW: u8 = 5;
    /// MLR: copy the GOT old → new through the module buffer (`I7`).
    pub const MLR_COPY_GOT: u8 = 6;
    /// MLR: latch the PLT location/size (`I8`); `a0` = location, `a1` = size.
    pub const MLR_PLT_INFO: u8 = 7;
    /// MLR: rewrite the PLT to point at the new GOT (`I10`).
    pub const MLR_WRITE_PLT: u8 = 8;

    /// DDT: inform the module of the current thread id (`param`); issued by
    /// the guest OS on every context switch.
    pub const DDT_SET_THREAD: u8 = 2;
    /// DDT: size query for the recovery retrieval interface (§4.2.2).
    pub const DDT_QUERY_SIZE: u8 = 3;
    /// DDT: retrieve PST/DDM state into the buffer addressed by `a0`.
    pub const DDT_RETRIEVE: u8 = 4;

    /// AHBM: register entity `param` for heartbeat monitoring.
    pub const AHBM_REGISTER: u8 = 2;
    /// AHBM: increment the heartbeat counter of entity `param`.
    pub const AHBM_BEAT: u8 = 3;
    /// AHBM: stop monitoring entity `param`.
    pub const AHBM_DEREGISTER: u8 = 4;
}

/// A fully specified CHECK instruction (§3.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChkSpec {
    /// The module slot this CHECK addresses.
    pub module: ModuleId,
    /// `true` for BLK (blocking / synchronous): the pipeline's commit stage
    /// stalls until the module writes a valid result into the IOQ.
    /// `false` for NBLK (non-blocking / asynchronous).
    pub blocking: bool,
    /// Module-specific operation (5 bits; see [`ops`]).
    pub op: u8,
    /// Immediate parameter (16 bits). Wide operands travel via `a0`/`a1`
    /// through the `Regfile_Data` queue.
    pub param: u16,
}

impl ChkSpec {
    /// Creates a CHECK spec.
    ///
    /// # Panics
    ///
    /// Panics if `op` does not fit in 5 bits.
    pub fn new(module: ModuleId, blocking: bool, op: u8, param: u16) -> ChkSpec {
        assert!(op < 32, "CHECK op {op} does not fit the 5-bit field");
        ChkSpec {
            module,
            blocking,
            op,
            param,
        }
    }

    /// Convenience constructor for a blocking (synchronous) CHECK.
    pub fn blocking(module: ModuleId, op: u8, param: u16) -> ChkSpec {
        ChkSpec::new(module, true, op, param)
    }

    /// Convenience constructor for a non-blocking (asynchronous) CHECK.
    pub fn non_blocking(module: ModuleId, op: u8, param: u16) -> ChkSpec {
        ChkSpec::new(module, false, op, param)
    }

    /// Whether this CHECK serializes dispatch: no younger instruction
    /// dispatches until it retires.
    ///
    /// True for ENABLE/DISABLE of any module, so the enable/disable unit
    /// switches a module at commit with nothing younger in flight, and
    /// for a blocking CHECK of the MLR or the DDT, whose operations write
    /// memory the next instructions read (the Figure 3 handshake, the
    /// DDT retrieval ops).
    pub fn serializes(&self) -> bool {
        matches!(self.op, ops::ENABLE | ops::DISABLE)
            || (self.blocking && matches!(self.module, ModuleId::MLR | ModuleId::DDT))
    }
}

impl fmt::Display for ChkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chk {}, {}, {}, {}",
            self.module,
            if self.blocking { "blk" } else { "nblk" },
            self.op,
            self.param
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_mnemonics_roundtrip() {
        for m in [
            ModuleId::ICM,
            ModuleId::MLR,
            ModuleId::DDT,
            ModuleId::AHBM,
            ModuleId::DSM,
            ModuleId::new(9),
        ] {
            assert_eq!(ModuleId::parse(&m.mnemonic()), Some(m));
        }
        assert_eq!(ModuleId::parse("7"), Some(ModuleId::new(7)));
        assert_eq!(ModuleId::parse("m16"), None);
        assert_eq!(ModuleId::parse("bogus"), None);
    }

    #[test]
    fn chk_display_is_assembly_syntax() {
        let c = ChkSpec::blocking(ModuleId::ICM, ops::ICM_CHECK_NEXT, 0);
        assert_eq!(c.to_string(), "chk icm, blk, 2, 0");
    }

    #[test]
    #[should_panic(expected = "5-bit")]
    fn oversized_op_rejected() {
        let _ = ChkSpec::new(ModuleId::ICM, true, 32, 0);
    }

    #[test]
    fn enable_disable_and_blocking_mlr_ddt_checks_serialize() {
        for m in [ModuleId::ICM, ModuleId::DDT, ModuleId::new(9)] {
            assert!(ChkSpec::non_blocking(m, ops::ENABLE, 0).serializes());
            assert!(ChkSpec::non_blocking(m, ops::DISABLE, 0).serializes());
        }
        assert!(ChkSpec::blocking(ModuleId::MLR, ops::MLR_PI_RAND, 0).serializes());
        assert!(ChkSpec::blocking(ModuleId::DDT, ops::DDT_RETRIEVE, 0).serializes());
        assert!(!ChkSpec::non_blocking(ModuleId::DDT, ops::DDT_SET_THREAD, 1).serializes());
        assert!(!ChkSpec::blocking(ModuleId::ICM, ops::ICM_CHECK_NEXT, 0).serializes());
        assert!(!ChkSpec::blocking(ModuleId::AHBM, ops::AHBM_BEAT, 0).serializes());
    }
}
