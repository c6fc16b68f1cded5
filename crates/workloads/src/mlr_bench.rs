//! The Table 5 microbenchmarks: GOT relocation + PLT rewriting, in a
//! pure-software (TRR) version and an RSE (MLR module) version.
//!
//! §5.3 of the paper: "The proposed approach embeds the dynamic linking
//! mechanism and the randomization algorithm inside a target application,
//! creating an application private dynamic loader… The program has two
//! versions, one for the pure software implementation and one for the RSE
//! module implementation."
//!
//! * The software version copies the old GOT to the new location and
//!   rewrites every PLT entry in loops — "the GOT-copying and
//!   PLT-rewriting involves a loop for each entry of the table".
//! * The RSE version allocates the new GOT in software and then issues
//!   the Figure 3 CHECK sequence; the MLR module does the copying and
//!   rewriting in hardware through the MAU.

/// Table 5 microbenchmark parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlrBenchParams {
    /// Number of GOT entries (the paper sweeps 128…1024).
    pub got_entries: u32,
}

impl MlrBenchParams {
    /// The paper's sweep points (Table 5 rows).
    pub fn paper_sweep() -> Vec<MlrBenchParams> {
        [128u32, 256, 384, 512, 640, 768, 896, 1024]
            .into_iter()
            .map(|got_entries| MlrBenchParams { got_entries })
            .collect()
    }
}

fn table_data(n: u32) -> String {
    // GOT entries point into a pretend shared-library region; each PLT
    // entry is (code word, pointer to its GOT slot).
    let mut data = String::new();
    data.push_str("got_old:");
    for i in 0..n {
        if i % 8 == 0 {
            data.push_str("\n        .word ");
        } else {
            data.push_str(", ");
        }
        data.push_str(&format!("{:#x}", 0x0F00_0000u32 + 16 * i));
    }
    data.push_str(&format!("\ngot_new: .space {}\n", n * 4));
    data.push_str("plt:\n");
    for i in 0..n {
        data.push_str(&format!("        .word 0x08000000, got_old+{}\n", 4 * i));
    }
    data
}

/// The pure-software TRR version: copy the GOT and rewrite the PLT with
/// explicit loops.
pub fn trr_source(p: &MlrBenchParams) -> String {
    let n = p.got_entries;
    format!(
        r#"
# TRR (software) GOT copy + PLT rewrite, {n} entries
main:   # copy GOT old -> new
        la   t0, got_old
        la   t1, got_new
        li   t2, {n}
cg:     lw   t3, 0(t0)
        sw   t3, 0(t1)
        addi t0, t0, 4
        addi t1, t1, 4
        addi t2, t2, -1
        bne  t2, r0, cg
        # rewrite PLT pointers: old GOT -> new GOT
        la   t0, plt
        li   t2, {n}
        la   t3, got_old
        la   t4, got_new
rp:     lw   t5, 4(t0)
        sub  t6, t5, t3
        add  t6, t4, t6
        sw   t6, 4(t0)
        addi t0, t0, 8
        addi t2, t2, -1
        bne  t2, r0, rp
        halt

        .data
        .align 4
{data}
"#,
        data = table_data(n),
    )
}

/// The RSE version: the Figure 3 CHECK-instruction sequence driving the
/// MLR module.
pub fn rse_source(p: &MlrBenchParams) -> String {
    let n = p.got_entries;
    format!(
        r#"
# RSE (MLR module) GOT copy + PLT rewrite, {n} entries
main:   la   r4, got_old        # a0 = old GOT
        li   r5, {got_bytes}    # a1 = size
        chk  mlr, blk, 4, 0     # MLR_GOT_OLD
        la   r4, got_new
        chk  mlr, blk, 5, 0     # MLR_GOT_NEW
        chk  mlr, blk, 6, 0     # MLR_COPY_GOT
        la   r4, plt
        li   r5, {plt_bytes}
        chk  mlr, blk, 7, 0     # MLR_PLT_INFO
        chk  mlr, blk, 8, 0     # MLR_WRITE_PLT
        halt

        .data
        .align 4
{data}
"#,
        got_bytes = n * 4,
        plt_bytes = n * 8,
        data = table_data(n),
    )
}

/// Host-side postcondition check: was the GOT copied and the PLT
/// redirected? Returns `(got_ok, plt_ok)` against the guest memory.
pub fn verify_relocation(
    mem: &rse_mem::MemorySystem,
    image: &rse_isa::Image,
    p: &MlrBenchParams,
) -> (bool, bool) {
    let got_old = image.symbol("got_old").expect("got_old symbol");
    let got_new = image.symbol("got_new").expect("got_new symbol");
    let plt = image.symbol("plt").expect("plt symbol");
    let n = p.got_entries;
    let got_ok = (0..n)
        .all(|i| mem.memory.read_u32(got_new + 4 * i) == mem.memory.read_u32(got_old + 4 * i));
    let plt_ok = (0..n).all(|i| mem.memory.read_u32(plt + 8 * i + 4) == got_new + 4 * i);
    (got_ok, plt_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_isa::asm::assemble;
    use rse_modules::mlr::MlrConfig;
    use rse_pipeline::Pipeline;
    use rse_sys::{Machine, MachineSpec, ModuleSpec, OsExit};

    /// Runs `image` bare on the framework machine with `modules` to its
    /// `halt`.
    fn run_to_halt(image: &rse_isa::Image, modules: Vec<ModuleSpec>) -> Pipeline {
        let spec = MachineSpec {
            modules,
            ..MachineSpec::default()
        };
        let mut m = Machine::build(image, spec);
        assert_eq!(m.run(50_000_000), OsExit::Exited { code: 0 });
        m.cpu
    }

    fn run_trr(p: &MlrBenchParams) -> (Pipeline, rse_isa::Image) {
        let image = assemble(&trr_source(p)).expect("trr assembles");
        (run_to_halt(&image, Vec::new()), image)
    }

    fn run_rse(p: &MlrBenchParams) -> (Pipeline, rse_isa::Image) {
        let image = assemble(&rse_source(p)).expect("rse assembles");
        let mlr = ModuleSpec::Mlr(MlrConfig::default());
        (run_to_halt(&image, vec![mlr]), image)
    }

    #[test]
    fn both_versions_produce_identical_relocation() {
        let p = MlrBenchParams { got_entries: 128 };
        let (trr, trr_img) = run_trr(&p);
        let (rse, rse_img) = run_rse(&p);
        assert_eq!(verify_relocation(trr.mem(), &trr_img, &p), (true, true));
        assert_eq!(verify_relocation(rse.mem(), &rse_img, &p), (true, true));
    }

    #[test]
    fn rse_version_is_faster_and_flat_in_instructions() {
        // The Table 5 shape: the hardware version wins in cycles, and its
        // instruction count does not grow with the table size while the
        // software version's does.
        let small = MlrBenchParams { got_entries: 128 };
        let large = MlrBenchParams { got_entries: 1024 };
        let (trr_s, _) = run_trr(&small);
        let (trr_l, _) = run_trr(&large);
        let (rse_s, _) = run_rse(&small);
        let (rse_l, _) = run_rse(&large);
        // Software instruction count grows roughly linearly.
        assert!(
            trr_l.stats().committed_program() > 6 * trr_s.stats().committed_program(),
            "TRR instructions must grow with the table"
        );
        // Hardware version executes the same handful of instructions.
        assert_eq!(
            rse_s.stats().committed_program(),
            rse_l.stats().committed_program()
        );
        // And is faster at every size.
        assert!(rse_s.stats().cycles < trr_s.stats().cycles);
        assert!(rse_l.stats().cycles < trr_l.stats().cycles);
    }
}
