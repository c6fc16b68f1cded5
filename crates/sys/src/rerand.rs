//! Runtime re-randomization — the §4.1 extension of the paper.
//!
//! "For long-running programs, such as server applications, once the
//! process is started, the random memory layout will remain fixed until
//! the program terminates… A better approach is to re-randomize the
//! process as it is running. The major challenge… is to determine what
//! data in a process needs to be re-randomized. Toward this end, we
//! propose to modify the compiler to identify such data elements…
//! Periodically, the process is stopped for re-randomization. The
//! re-randomization routine first locates the special data section, then
//! applies a new random offset to data pointed to by this section. The
//! routine then re-maps each memory segment to its new address… Finally,
//! the routine resumes execution of the process."
//!
//! The compiler's "special data section" is, by convention, a guest
//! pointer table: a count followed by the *addresses of pointer
//! variables* (`__ptrtab: .word N, &p1, &p2, …`). At a safe point (a
//! system-call boundary — the pipeline is drained there, the paper's
//! context-switch argument), the kernel:
//!
//! 1. asks the MLR module for a fresh base
//!    ([`rse_modules::mlr::Mlr::pick_rerandomized_base`]),
//! 2. moves the segment's bytes to the new base,
//! 3. walks the pointer table and redirects every registered pointer
//!    that pointed into the old segment,
//! 4. charges the pipeline the copy + rewrite cycles and resumes.
//!
//! Contract for guest programs (the "compiler support" of §4.1): across
//! safe points, segment pointers must live in table-registered memory
//! slots, not in registers.

use rse_isa::layout::PAGE_SIZE;
use rse_mem::DramConfig;
use rse_modules::mlr::Mlr;
use rse_pipeline::Pipeline;

/// A periodic re-randomization plan for one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RerandPlan {
    /// Re-randomize every this many cycles.
    pub interval: u64,
    /// Guest address of the pointer table (`count, &p1, &p2, …`).
    pub ptr_table: u32,
    /// Current base of the managed segment (updated after each move).
    pub base: u32,
    /// Segment length in bytes.
    pub len: u32,
}

/// Result of one re-randomization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RerandOutcome {
    /// The segment's previous base.
    pub old_base: u32,
    /// The segment's new base.
    pub new_base: u32,
    /// Registered pointers that were redirected.
    pub pointers_rewritten: u32,
    /// Cycles charged to the stopped process.
    pub cycles_charged: u64,
}

/// Performs one §4.1 re-randomization pass on a stopped process (the
/// pipeline must be at a syscall boundary). Returns the outcome; the
/// caller updates its [`RerandPlan::base`].
pub fn rerandomize_segment(
    cpu: &mut Pipeline,
    mlr: &mut Mlr,
    ptr_table: u32,
    old_base: u32,
    len: u32,
) -> RerandOutcome {
    assert_eq!(old_base % PAGE_SIZE, 0, "segments are page-aligned");
    let now = cpu.now();
    let new_base = mlr.pick_rerandomized_base(old_base, len, now);
    let delta = new_base.wrapping_sub(old_base);
    // Move the segment.
    let mut bytes = vec![0u8; len as usize];
    cpu.mem().memory.read_bytes(old_base, &mut bytes);
    cpu.mem_mut().memory.write_bytes(new_base, &bytes);
    // Scrub the old location so stale copies are not a leak.
    cpu.mem_mut()
        .memory
        .write_bytes(old_base, &vec![0u8; len as usize]);
    // Redirect the registered pointers.
    let count = cpu.mem().memory.read_u32(ptr_table);
    let mut rewritten = 0;
    for i in 0..count {
        let slot = cpu.mem().memory.read_u32(ptr_table + 4 + 4 * i);
        // A registered slot inside the moving segment moves with it.
        let slot = if slot >= old_base && slot < old_base.wrapping_add(len) {
            slot.wrapping_add(delta)
        } else {
            slot
        };
        let value = cpu.mem().memory.read_u32(slot);
        if value >= old_base && value < old_base.wrapping_add(len) {
            cpu.mem_mut()
                .memory
                .write_u32(slot, value.wrapping_add(delta));
            rewritten += 1;
        }
    }
    // Cost model: the copy streams the segment out and back through the
    // arbitrated memory path, plus one read-modify-write per pointer.
    let dram = DramConfig::with_arbiter();
    let cycles_charged = 2 * dram.transfer_cycles(len) + 4 * count as u64;
    cpu.freeze_for(cycles_charged);
    RerandOutcome {
        old_base,
        new_base,
        pointers_rewritten: rewritten,
        cycles_charged,
    }
}

/// Validates a re-randomization period parsed from a CLI flag, naming
/// the offending flag in the error (the campaign/fleet_soak arg-parsing
/// convention, see `rse_bench::numeric`). A period of `0` would
/// otherwise schedule the *next* pass at the current cycle forever — or,
/// worse, be taken as "never re-randomize" and silently hand the
/// attacker a static layout — so it is rejected outright.
pub fn validate_period(flag: &str, period: u64) -> Result<u64, String> {
    if period == 0 {
        return Err(format!(
            "{flag}: re-randomization period must be nonzero \
             (0 would silently never re-randomize; omit the flag for a static layout)"
        ));
    }
    Ok(period)
}

/// Convenience for plans: fires if due, updating the plan's base.
///
/// # Panics
///
/// Panics if the plan's `interval` is zero — a zero period would re-fire
/// at every safe point while claiming to be periodic; callers must
/// reject it up front (see [`validate_period`]).
pub fn maybe_rerandomize(
    cpu: &mut Pipeline,
    mlr: &mut Mlr,
    plan: &mut RerandPlan,
    next_due: &mut u64,
) -> Option<RerandOutcome> {
    assert_ne!(
        plan.interval, 0,
        "re-randomization period must be nonzero (see validate_period)"
    );
    if cpu.now() < *next_due {
        return None;
    }
    let outcome = rerandomize_segment(cpu, mlr, plan.ptr_table, plan.base, plan.len);
    plan.base = outcome.new_base;
    *next_due = cpu.now() + plan.interval;
    Some(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, MachineSpec, OsConfig, OsExit};
    use rse_modules::mlr::MlrConfig;

    use rse_isa::asm::assemble;
    use rse_pipeline::StepEvent;

    /// The process `image` under the guest OS, on a machine with the
    /// framework attached or not.
    fn process(image: &rse_isa::Image, framework: bool) -> Machine {
        let spec = MachineSpec {
            framework,
            os: Some(OsConfig::default()),
            ..MachineSpec::default()
        };
        Machine::build(image, spec)
    }

    /// A guest that keeps a pointer to segment data in a registered slot
    /// and reloads it after every syscall (the §4.1 compiler contract).
    const SRC: &str = r#"
        main:   li   s0, 6          # six work rounds
        round:  la   t0, ptr
                lw   t1, 0(t0)      # reload the (possibly moved) pointer
                lw   t2, 0(t1)      # read the segment datum
                addi t2, t2, 1
                sw   t2, 0(t1)      # bump it
                li   r2, 18         # YIELD: the safe point
                syscall
                addi s0, s0, -1
                bne  s0, r0, round
                la   t0, ptr
                lw   t1, 0(t0)
                lw   r4, 0(t1)
                li   r2, 2          # print the datum (expect 106)
                syscall
                halt

                .data
                .align 4
        ptr:    .word seg           # a registered pointer variable
        ptrtab: .word 1, ptr        # the special data section
                .space 4000
                .align 4096
        seg:    .word 100           # segment under re-randomization
                .space 8188
    "#;

    #[test]
    fn rerandomization_moves_segment_and_preserves_semantics() {
        let image = assemble(SRC).unwrap();
        let seg = image.symbol("seg").unwrap();
        let ptrtab = image.symbol("ptrtab").unwrap();
        assert_eq!(seg % PAGE_SIZE, 0);
        let mut m = process(&image, true);
        let Machine { cpu, engine, os } = &mut m;
        let os = os.as_mut().expect("built with the guest OS");
        let mut mlr = Mlr::new(MlrConfig {
            seed: Some(99),
            ..MlrConfig::default()
        });
        // Drive manually: re-randomize at every other syscall pause.
        let mut bases = vec![seg];
        let mut plan = RerandPlan {
            interval: 2_000,
            ptr_table: ptrtab,
            base: seg,
            len: 8192,
        };
        let mut rounds = 0;
        let exit = loop {
            match cpu.run(engine, 10_000_000) {
                StepEvent::Syscall => {
                    rounds += 1;
                    if rounds % 2 == 0 {
                        let out = rerandomize_segment(cpu, &mut mlr, ptrtab, plan.base, plan.len);
                        assert_ne!(out.new_base, plan.base);
                        assert_eq!(out.pointers_rewritten, 1);
                        assert!(out.cycles_charged > 0);
                        plan.base = out.new_base;
                        bases.push(out.new_base);
                    }
                    // Let the normal OS syscall handling proceed.
                    if let Some(e) = os.dispatch_pending_syscall(cpu, engine) {
                        break e;
                    }
                }
                StepEvent::Halted => break OsExit::Exited { code: 0 },
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(exit, OsExit::Exited { code: 0 });
        assert_eq!(
            os.output,
            vec![106],
            "datum survived {} moves",
            bases.len() - 1
        );
        assert!(bases.len() >= 3, "the segment moved repeatedly");
        // The datum lives at the final base; the original page is scrubbed.
        assert_eq!(cpu.mem().memory.read_u32(plan.base), 106);
        assert_eq!(cpu.mem().memory.read_u32(seg), 0);
    }

    #[test]
    fn zero_period_is_rejected_with_the_flag_name() {
        let err = validate_period("--rerand-period", 0).unwrap_err();
        assert!(err.starts_with("--rerand-period:"), "{err}");
        assert!(err.contains("nonzero"), "{err}");
        assert_eq!(validate_period("--rerand-period", 4096), Ok(4096));
    }

    #[test]
    #[should_panic(expected = "re-randomization period must be nonzero")]
    fn maybe_rerandomize_panics_on_zero_interval() {
        let image = assemble(SRC).unwrap();
        let seg = image.symbol("seg").unwrap();
        let ptrtab = image.symbol("ptrtab").unwrap();
        let mut cpu = process(&image, false).cpu;
        let mut mlr = Mlr::new(MlrConfig {
            seed: Some(5),
            ..MlrConfig::default()
        });
        let mut plan = RerandPlan {
            interval: 0,
            ptr_table: ptrtab,
            base: seg,
            len: 8192,
        };
        let mut due = 0;
        let _ = maybe_rerandomize(&mut cpu, &mut mlr, &mut plan, &mut due);
    }

    #[test]
    fn pointers_outside_the_segment_are_left_alone() {
        let image = assemble(SRC).unwrap();
        let seg = image.symbol("seg").unwrap();
        let ptrtab = image.symbol("ptrtab").unwrap();
        let mut cpu = process(&image, false).cpu;
        // Point the registered slot somewhere outside the segment.
        let ptr_slot = image.symbol("ptr").unwrap();
        cpu.mem_mut().memory.write_u32(ptr_slot, 0x4444_0000);
        let mut mlr = Mlr::new(MlrConfig {
            seed: Some(5),
            ..MlrConfig::default()
        });
        let out = rerandomize_segment(&mut cpu, &mut mlr, ptrtab, seg, 8192);
        assert_eq!(out.pointers_rewritten, 0);
        assert_eq!(cpu.mem().memory.read_u32(ptr_slot), 0x4444_0000);
    }
}
