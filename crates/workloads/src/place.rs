//! The simulated-annealing placement kernel (the *vpr Placement* phase
//! of the paper's Table 4 benchmark).
//!
//! `cells` cells live at positions on a `grid × grid` board; two-point
//! nets connect random cell pairs. Each iteration picks two cells with
//! the guest LCG, evaluates the wirelength of one **net sample block**
//! before and after swapping the cells, and accepts the move if it
//! improves the sampled cost or passes a temperature-scheduled uphill
//! test — the incremental-cost structure of VPR's placer.
//!
//! The sample blocks are generated as *fully unrolled straight-line
//! code* (net endpoints baked in as immediates), dispatched through a
//! jump table. This mirrors the large, low-reuse instruction footprint
//! of the real `vpr` binary: cycling through `blocks` blocks of ~6 KB
//! each defeats the 8 KB L1 I-cache and (for enough blocks) the 64 KB
//! L2, producing the instruction-fetch memory traffic that makes the
//! framework's memory arbiter visible (Table 4's vpr-place row).

use crate::{lcg_step, DataRng};

/// Placement workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaceParams {
    /// Number of cells.
    pub cells: usize,
    /// Nets per sample block (each block is unrolled code).
    pub nets_per_block: usize,
    /// Number of sample blocks; total nets = `blocks × nets_per_block`.
    pub blocks: usize,
    /// Grid side length (positions are in `0..grid`).
    pub grid: u32,
    /// Annealing iterations (moves attempted).
    pub iters: u32,
    /// Data-generation seed.
    pub seed: u64,
    /// Guest LCG seed.
    pub lcg_seed: u32,
}

impl Default for PlaceParams {
    fn default() -> PlaceParams {
        PlaceParams {
            cells: 128,
            nets_per_block: 32,
            blocks: 4,
            grid: 32,
            iters: 150,
            seed: 0x9A7CE,
            lcg_seed: 12345,
        }
    }
}

impl PlaceParams {
    /// The Table 4 configuration: an instruction footprint of
    /// `blocks × ~6 KB` ≈ 72 KB (past both I-cache levels) and a few
    /// thousand moves.
    pub fn table4() -> PlaceParams {
        PlaceParams {
            cells: 512,
            nets_per_block: 128,
            blocks: 12,
            grid: 64,
            iters: 2000,
            seed: 0x9A7CE,
            lcg_seed: 12345,
        }
    }

    /// Total number of nets.
    pub fn nets(&self) -> usize {
        self.blocks * self.nets_per_block
    }
}

/// Generated initial data: positions and net endpoints.
#[derive(Debug, Clone)]
pub struct PlaceData {
    /// X coordinate per cell.
    pub pos_x: Vec<u32>,
    /// Y coordinate per cell.
    pub pos_y: Vec<u32>,
    /// First endpoint (cell index) per net.
    pub net_a: Vec<u32>,
    /// Second endpoint per net.
    pub net_b: Vec<u32>,
}

/// Generates the initial placement and netlist.
pub fn generate(p: &PlaceParams) -> PlaceData {
    let mut rng = DataRng(p.seed);
    PlaceData {
        pos_x: (0..p.cells).map(|_| rng.below(p.grid)).collect(),
        pos_y: (0..p.cells).map(|_| rng.below(p.grid)).collect(),
        net_a: (0..p.nets()).map(|_| rng.below(p.cells as u32)).collect(),
        net_b: (0..p.nets()).map(|_| rng.below(p.cells as u32)).collect(),
    }
}

fn net_len(d: &PlaceData, n: usize) -> u32 {
    let (a, b) = (d.net_a[n] as usize, d.net_b[n] as usize);
    (d.pos_x[a] as i32 - d.pos_x[b] as i32).unsigned_abs()
        + (d.pos_y[a] as i32 - d.pos_y[b] as i32).unsigned_abs()
}

fn full_cost(d: &PlaceData) -> u32 {
    (0..d.net_a.len()).map(|n| net_len(d, n)).sum()
}

fn block_cost(d: &PlaceData, p: &PlaceParams, block: usize) -> u32 {
    let start = block * p.nets_per_block;
    (start..start + p.nets_per_block)
        .map(|n| net_len(d, n))
        .sum()
}

/// Host-side reference of the exact guest algorithm; returns the final
/// full wirelength the guest prints.
pub fn reference(p: &PlaceParams) -> u32 {
    let mut d = generate(p);
    let mut s = p.lcg_seed;
    let mut remaining = p.iters;
    while remaining != 0 {
        let block = (remaining % p.blocks as u32) as usize;
        s = lcg_step(s);
        let i = ((s >> 16) % p.cells as u32) as usize;
        s = lcg_step(s);
        let j = ((s >> 16) % p.cells as u32) as usize;
        let before = block_cost(&d, p, block);
        d.pos_x.swap(i, j);
        d.pos_y.swap(i, j);
        let after = block_cost(&d, p, block);
        let accept = if after < before {
            true
        } else {
            s = lcg_step(s);
            let r = (s >> 8) & 0xFF;
            let thresh = remaining.wrapping_mul(256) / p.iters;
            r < thresh
        };
        if !accept {
            d.pos_x.swap(i, j);
            d.pos_y.swap(i, j);
        }
        remaining -= 1;
    }
    full_cost(&d)
}

fn words(name: &str, values: &[u32]) -> String {
    let mut out = format!("{name}:");
    for (i, v) in values.iter().enumerate() {
        if i % 8 == 0 {
            out.push_str("\n        .word ");
        } else {
            out.push_str(", ");
        }
        out.push_str(&v.to_string());
    }
    out.push('\n');
    out
}

/// Emits one unrolled sample block: straight-line wirelength of its nets,
/// accumulated in `r2`. Positions are addressed as immediate offsets off
/// the `s6` (pos_x) and `s7` (pos_y) base registers.
fn emit_block(out: &mut String, d: &PlaceData, p: &PlaceParams, block: usize) {
    out.push_str(&format!("blk{block}: li   r2, 0\n"));
    let start = block * p.nets_per_block;
    for n in start..start + p.nets_per_block {
        let a_off = 4 * d.net_a[n];
        let b_off = 4 * d.net_b[n];
        // Branchless |a-b| (sra/xor/sub), as a compiler would emit it:
        // keeps the unrolled blocks free of data-dependent branches.
        out.push_str(&format!(
            "        lw   t0, {a_off}(s6)
        lw   t1, {b_off}(s6)
        sub  t0, t0, t1
        sra  t2, t0, 31
        xor  t0, t0, t2
        sub  t0, t0, t2
        add  r2, r2, t0
        lw   t0, {a_off}(s7)
        lw   t1, {b_off}(s7)
        sub  t0, t0, t1
        sra  t2, t0, 31
        xor  t0, t0, t2
        sub  t0, t0, t2
        add  r2, r2, t0\n"
        ));
    }
    out.push_str("        jr   ra\n");
}

/// Generates the guest assembly. The program prints the final full
/// wirelength.
pub fn source(p: &PlaceParams) -> String {
    assert!(
        p.cells * 4 <= 0x7FFF,
        "cell offsets must fit 16-bit immediates"
    );
    let d = generate(p);
    let data = [
        words("posx", &d.pos_x),
        words("posy", &d.pos_y),
        words("neta", &d.net_a),
        words("netb", &d.net_b),
    ]
    .concat();
    let mut jtab = String::from("jtab:");
    for b in 0..p.blocks {
        jtab.push_str(&format!("\n        .word blk{b}"));
    }
    jtab.push('\n');
    let mut blocks_code = String::new();
    for b in 0..p.blocks {
        emit_block(&mut blocks_code, &d, p, b);
    }
    format!(
        r#"
# simulated-annealing placement: {cells} cells, {nets} nets in {blocks} sample blocks
main:   li   s0, {iters}        # remaining moves
        li   s1, {lcg_seed}     # LCG state
        la   s6, posx
        la   s7, posy
iter:   # block index = remaining % blocks
        li   t0, {blocks}
        rem  t0, s0, t0
        sll  t0, t0, 2
        la   t1, jtab
        add  t1, t1, t0
        lw   t2, 0(t1)
        # pick i (s3) and j (s4)
        jal  lcg
        srl  t0, s1, 16
        li   t1, {cells}
        rem  s3, t0, t1
        jal  lcg
        srl  t0, s1, 16
        li   t1, {cells}
        rem  s4, t0, t1
        jalr r31, t2            # before = block cost
        move s5, r2
        jal  swap
        # recompute the block entry for the second call
        li   t0, {blocks}
        rem  t0, s0, t0
        sll  t0, t0, 2
        la   t1, jtab
        add  t1, t1, t0
        lw   t2, 0(t1)
        jalr r31, t2            # after = block cost
        blt  r2, s5, next       # improved: accept
        # uphill: accept if ((lcg>>8)&0xFF) < remaining*256/iters
        jal  lcg
        srl  t0, s1, 8
        andi t0, t0, 0xFF
        li   t1, 256
        mul  t2, s0, t1
        li   t1, {iters}
        div  t2, t2, t1
        blt  t0, t2, next
        jal  swap               # revert
next:   addi s0, s0, -1
        bne  s0, r0, iter
        # final: full wirelength over all nets (rolled loop)
        li   s5, 0
        li   t0, 0
        la   t1, neta
        la   t2, netb
floop:  sll  t3, t0, 2
        add  t4, t1, t3
        lw   t4, 0(t4)
        add  t5, t2, t3
        lw   t5, 0(t5)
        sll  t4, t4, 2
        sll  t5, t5, 2
        add  t6, s6, t4
        lw   t6, 0(t6)
        add  t7, s6, t5
        lw   t7, 0(t7)
        sub  t6, t6, t7
        bge  t6, r0, fx
        sub  t6, r0, t6
fx:     add  s5, s5, t6
        add  t6, s7, t4
        lw   t6, 0(t6)
        add  t7, s7, t5
        lw   t7, 0(t7)
        sub  t6, t6, t7
        bge  t6, r0, fy
        sub  t6, r0, t6
fy:     add  s5, s5, t6
        addi t0, t0, 1
        li   t3, {nets}
        bne  t0, t3, floop
        move r4, s5
        li   r2, 2              # PRINT_INT final cost
        syscall
        halt

lcg:    # s1 = s1*1664525 + 1013904223
        li   t9, 1664525
        mul  s1, s1, t9
        li   t9, 1013904223
        add  s1, s1, t9
        jr   ra

swap:   # swap cell s3 and s4 positions (x and y)
        sll  t0, s3, 2
        sll  t1, s4, 2
        add  t3, s6, t0
        add  t4, s6, t1
        lw   t5, 0(t3)
        lw   t6, 0(t4)
        sw   t6, 0(t3)
        sw   t5, 0(t4)
        add  t3, s7, t0
        add  t4, s7, t1
        lw   t5, 0(t3)
        lw   t6, 0(t4)
        sw   t6, 0(t3)
        sw   t5, 0(t4)
        jr   ra

{blocks_code}
        .data
        .align 4
{jtab}
{data}
"#,
        cells = p.cells,
        nets = p.nets(),
        blocks = p.blocks,
        iters = p.iters,
        lcg_seed = p.lcg_seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_isa::asm::assemble;
    use rse_sys::{Machine, MachineSpec, OsConfig, OsExit};

    fn run(p: &PlaceParams) -> Vec<i32> {
        let image = assemble(&source(p)).expect("place assembles");
        let spec = MachineSpec {
            framework: false,
            os: Some(OsConfig::default()),
            ..MachineSpec::default()
        };
        let mut m = Machine::build(&image, spec);
        assert_eq!(m.run(500_000_000), OsExit::Exited { code: 0 });
        m.os.expect("built with the guest OS").output
    }

    #[test]
    fn small_place_matches_host_reference() {
        let p = PlaceParams {
            cells: 16,
            nets_per_block: 8,
            blocks: 2,
            grid: 8,
            iters: 25,
            ..PlaceParams::default()
        };
        assert_eq!(run(&p), vec![reference(&p) as i32]);
    }

    #[test]
    fn default_place_matches_host_reference() {
        let p = PlaceParams::default();
        assert_eq!(run(&p), vec![reference(&p) as i32]);
    }

    #[test]
    fn annealing_improves_cost() {
        let p = PlaceParams {
            iters: 600,
            ..PlaceParams::default()
        };
        let initial = full_cost(&generate(&p));
        let final_cost = reference(&p);
        assert!(
            final_cost < initial,
            "annealing should reduce wirelength ({final_cost} vs {initial})"
        );
    }

    #[test]
    fn table4_configuration_has_large_code_footprint() {
        let p = PlaceParams::table4();
        let image = assemble(&source(&p)).expect("table4 place assembles");
        // Instruction footprint must exceed the 64 KB L2 I-cache to
        // produce the instruction-side memory traffic of vpr.
        assert!(
            image.text.len() * 4 > 64 * 1024,
            "{} bytes",
            image.text.len() * 4
        );
    }
}
