//! The campaign workload corpus.
//!
//! One workload per harness flavor, kept deliberately small so a
//! multi-hundred-run campaign finishes in seconds while still exercising
//! every detection and recovery path of the framework:
//!
//! * **bare** workloads run on the pipeline with an empty engine — they
//!   measure the *undetected* outcome mix (masked vs. SDC vs. crash vs.
//!   hang), the campaign's control group,
//! * the **ICM** workload runs under `CheckPolicy::ControlFlow` with the
//!   Instruction Checker Module installed — fetch-path and text-memory
//!   corruption become detectable,
//! * the **DDT + OS** workload is a two-thread guest whose worker thread
//!   audits a canary region and crashes on corruption — the DDT's
//!   dependency tracking plus the OS SavePage checkpoints then roll the
//!   shared state back (§4.2.2).

/// Which simulation harness a workload runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Harness {
    /// Pipeline + empty engine: no detection support at all.
    Bare,
    /// `CheckPolicy::ControlFlow` + ICM module installed and enabled.
    Icm,
    /// Guest OS + DDT module: multithreaded, checkpointed, recoverable.
    DdtOs,
    /// Guest OS + MLR module: the guest's explicit `chk mlr` handshake
    /// randomizes its memory layout at load (seeded per run by the
    /// adversarial campaigns). Judged by guest output like `DdtOs`.
    MlrOs,
    /// Guest OS + empty engine: the *undefended* twin of `MlrOs` and
    /// `NxOs`. The guest's `chk mlr` ops pass through untouched, so it
    /// falls back to the nominal (attacker-known) layout.
    OsBare,
    /// Guest OS + DDT with non-executable-page enforcement armed: the
    /// pipeline's executable range is pinned to the text segment, so an
    /// instruction committing from a data page trips the NX trap.
    NxOs,
    /// Pipeline + DSM module installed and enabled: basic-block
    /// signatures checked along committed control flow, closing the
    /// in-flight instruction-skip blind spot of the per-word ICM check.
    Dsm,
}

impl Harness {
    /// The harness's primary module — the target of the module-directed
    /// fault models (`None` for undefended harnesses). The module-bearing
    /// harnesses also install two bystander modules so per-module
    /// containment is observable: one quarantined module stays below the
    /// half-installed escalation threshold.
    pub fn target_module(self) -> Option<rse_isa::ModuleId> {
        match self {
            Harness::Bare | Harness::OsBare => None,
            Harness::Icm => Some(rse_isa::ModuleId::ICM),
            Harness::DdtOs | Harness::NxOs => Some(rse_isa::ModuleId::DDT),
            Harness::MlrOs => Some(rse_isa::ModuleId::MLR),
            Harness::Dsm => Some(rse_isa::ModuleId::DSM),
        }
    }
}

/// One guest program in the campaign corpus.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable workload name (used in records and seed derivation).
    pub name: &'static str,
    /// Assembly source.
    pub source: &'static str,
    /// Harness flavor.
    pub harness: Harness,
    /// Architectural registers that carry the program's result (golden
    /// comparison set).
    pub result_regs: &'static [usize],
    /// `(symbol, bytes)` of the in-memory result buffer, if any.
    pub result_buf: Option<(&'static str, u32)>,
    /// `(symbol, bytes)` of the buffer targeted by the `MemData` fault
    /// model, if the workload has one.
    pub data_fault_buf: Option<(&'static str, u32)>,
}

/// An arithmetic loop with a register-dense live set: the classic
/// register-file upset target. Results land in `r8`/`r9`/`r11` and the
/// `out` buffer.
const ALU_LOOP_SRC: &str = r#"
    main:   li   r8, 0
            li   r9, 1
            li   r10, 200
    loop:   add  r8, r8, r9
            addi r9, r9, 3
            xor  r11, r11, r8
            addi r10, r10, -1
            bne  r10, r0, loop
            la   r12, out
            sw   r8, 0(r12)
            sw   r9, 4(r12)
            sw   r11, 8(r12)
            halt

            .data
            .align 4
    out:    .space 16
"#;

/// Fill a 32-word buffer, burn a delay window (so mid-run memory flips
/// land between the fill and the readback), then checksum it — the
/// memory-data upset target.
const MEM_CHECKSUM_SRC: &str = r#"
    main:   la   r8, buf
            li   r9, 32
            li   r10, 4660
            move r11, r8
    fill:   sw   r10, 0(r11)
            addi r10, r10, 47
            addi r11, r11, 4
            addi r9, r9, -1
            bne  r9, r0, fill
            li   r12, 400
    dly:    addi r12, r12, -1
            bne  r12, r0, dly
            li   r9, 32
            move r11, r8
            li   r13, 0
    sum:    lw   r10, 0(r11)
            add  r13, r13, r10
            addi r11, r11, 4
            addi r9, r9, -1
            bne  r9, r0, sum
            la   r12, out
            sw   r13, 0(r12)
            halt

            .data
            .align 4
    buf:    .space 128
    out:    .space 8
"#;

/// A branch-dense loop: every iteration commits three control-flow
/// instructions, all of them ICM-checked under `CheckPolicy::ControlFlow`.
/// Fetch-path and text-segment corruption of a branch word is caught by
/// the redundant CheckerMemory copy.
const ICM_LOOP_SRC: &str = r#"
    main:   li   r8, 0
            li   r9, 0
            li   r10, 60
    loop:   addi r8, r8, 1
            andi r11, r8, 1
            beq  r11, r0, even
            addi r9, r9, 5
            b    next
    even:   addi r9, r9, 2
    next:   bne  r8, r10, loop
            la   r12, out
            sw   r9, 0(r12)
            halt

            .data
            .align 4
    out:    .space 8
"#;

/// The DDT recovery scenario. The main thread seeds a shared page with 7
/// and spawns a worker; the worker overwrites it with 13 (a cross-thread
/// write, so the SavePage handler checkpoints the pre-image) and then
/// audits a zero-initialized canary region every scheduling round. A
/// memory upset in the canary makes the worker CRASH; the DDT-driven
/// recovery terminates the worker and restores the shared page from the
/// earliest checkpoint. The main thread finally reports what it sees:
///
/// * `2` — fault-free: the worker's 13 survived,
/// * `1` — the worker crashed and recovery rolled the page back to 7,
/// * `0` — anything else (silent corruption of the protocol).
const DDT_RECOVER_SRC: &str = r#"
    main:   la   r8, shared
            li   r9, 7
            sw   r9, 0(r8)
            li   r2, 16
            la   r4, worker
            li   r5, 0
            syscall
            li   r10, 40
    mwait:  li   r2, 18
            syscall
            addi r10, r10, -1
            bne  r10, r0, mwait
            la   r8, stop
            li   r9, 1
            sw   r9, 0(r8)
            li   r10, 8
    mwait2: li   r2, 18
            syscall
            addi r10, r10, -1
            bne  r10, r0, mwait2
            la   r8, shared
            lw   r9, 0(r8)
            li   r11, 7
            beq  r9, r11, rolled
            li   r11, 13
            beq  r9, r11, normal
            li   r4, 0
            b    report
    rolled: li   r4, 1
            b    report
    normal: li   r4, 2
    report: li   r2, 2
            syscall
            li   r2, 1
            li   r4, 0
            syscall

    worker: la   r8, shared
            li   r9, 13
            sw   r9, 0(r8)
    wloop:  la   r8, canary
            lw   r9, 0(r8)
            lw   r10, 4(r8)
            or   r9, r9, r10
            lw   r10, 8(r8)
            or   r9, r9, r10
            lw   r10, 12(r8)
            or   r9, r9, r10
            bne  r9, r0, die
            la   r8, stop
            lw   r10, 0(r8)
            bne  r10, r0, wdone
            li   r2, 18
            syscall
            b    wloop
    wdone:  li   r2, 17
            syscall
    die:    li   r2, 50
            syscall

            .data
            .align 4
    shared: .space 4096
    stop:   .space 4096
    canary: .space 4096
"#;

/// The fleet heartbeat guest: compute units interleaved with safe-point
/// syscalls. Every unit ends in `syscall` with `r2 = 99` — the fleet node
/// driver interprets the pause as a heartbeat-plus-checkpoint safe point
/// (the pipeline's architectural context is exact only while paused at a
/// syscall, so this is where `ArchSnapshot`s are captured and heartbeats
/// are emitted), then resumes the guest. Results land in `r8`/`r9`/`r11`
/// and the `out` buffer, exactly like `alu_loop`.
const BEAT_LOOP_SRC: &str = r#"
    main:   li   r8, 0
            li   r9, 1
            li   r11, 0
            li   r14, 96
    unit:   li   r10, 24
    inner:  add  r8, r8, r9
            addi r9, r9, 3
            xor  r11, r11, r8
            addi r10, r10, -1
            bne  r10, r0, inner
            li   r2, 99
            syscall
            addi r14, r14, -1
            bne  r14, r0, unit
            la   r12, out
            sw   r8, 0(r12)
            sw   r9, 4(r12)
            sw   r11, 8(r12)
            halt

            .data
            .align 4
    out:    .space 16
"#;

/// The heartbeat-emitting guest every fleet node runs. Deliberately *not*
/// part of [`corpus`]: its safe-point syscalls require the fleet node
/// driver (the bare campaign harness treats an unexpected syscall as a
/// crash), and adding it to the corpus would change the pinned
/// single-node campaign goldens.
pub fn fleet_workload() -> &'static Workload {
    &FLEET_WORKLOAD
}

static FLEET_WORKLOAD: Workload = Workload {
    name: "beat_loop",
    source: BEAT_LOOP_SRC,
    harness: Harness::Bare,
    result_regs: &[8, 9, 11],
    result_buf: Some(("out", 16)),
    data_fault_buf: None,
};

const CORPUS: [Workload; 4] = [
    Workload {
        name: "alu_loop",
        source: ALU_LOOP_SRC,
        harness: Harness::Bare,
        result_regs: &[8, 9, 11],
        result_buf: Some(("out", 16)),
        data_fault_buf: Some(("out", 16)),
    },
    Workload {
        name: "mem_checksum",
        source: MEM_CHECKSUM_SRC,
        harness: Harness::Bare,
        result_regs: &[13],
        result_buf: Some(("out", 4)),
        data_fault_buf: Some(("buf", 128)),
    },
    Workload {
        name: "icm_loop",
        source: ICM_LOOP_SRC,
        harness: Harness::Icm,
        result_regs: &[8, 9],
        result_buf: Some(("out", 4)),
        data_fault_buf: None,
    },
    Workload {
        name: "ddt_recover",
        source: DDT_RECOVER_SRC,
        harness: Harness::DdtOs,
        result_regs: &[],
        result_buf: None,
        data_fault_buf: Some(("canary", 16)),
    },
];

/// The campaign corpus.
pub fn corpus() -> &'static [Workload] {
    &CORPUS
}

/// Looks a workload up by its stable name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    CORPUS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_assembles() {
        for w in corpus() {
            let image = rse_isa::asm::assemble(w.source)
                .unwrap_or_else(|e| panic!("workload {} fails to assemble: {e:?}", w.name));
            if let Some((sym, _)) = w.result_buf {
                assert!(image.symbol(sym).is_some(), "{}: missing {sym}", w.name);
            }
            if let Some((sym, _)) = w.data_fault_buf {
                assert!(image.symbol(sym).is_some(), "{}: missing {sym}", w.name);
            }
        }
    }

    #[test]
    fn fleet_workload_assembles_and_stays_out_of_the_corpus() {
        let w = fleet_workload();
        let image = rse_isa::asm::assemble(w.source).expect("beat_loop assembles");
        assert!(image.symbol("out").is_some());
        assert!(by_name(w.name).is_none(), "beat_loop must not join CORPUS");
        assert_eq!(w.harness, Harness::Bare);
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in corpus() {
            assert_eq!(by_name(w.name).unwrap().name, w.name);
        }
        assert!(by_name("nope").is_none());
        assert_eq!(corpus().len(), 4);
    }
}
