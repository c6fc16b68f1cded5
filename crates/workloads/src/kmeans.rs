//! The k-means clustering workload (the paper's `kMeans` application:
//! "a numerical clustering strategy using a predetermined number of
//! clusters k… both I/O and computation intensive"; the original
//! configuration is 3 iterations, 200 patterns, 16 clusters).
//!
//! Integer arithmetic with L1 (manhattan) distance; the guest program
//! prints the first centroid coordinate and the total assignment
//! churn in the last iteration, which the host-side reference
//! implementation reproduces exactly.

use crate::DataRng;

/// K-means workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmeansParams {
    /// Number of patterns (points).
    pub patterns: usize,
    /// Dimensions per pattern.
    pub dims: usize,
    /// Number of clusters `k`.
    pub clusters: usize,
    /// Clustering iterations.
    pub iters: usize,
    /// Data-generation seed.
    pub seed: u64,
}

impl Default for KmeansParams {
    fn default() -> KmeansParams {
        // The paper's configuration ("The original source code contains 3
        // iterations, 200 patterns, and 16 clusters").
        KmeansParams {
            patterns: 200,
            dims: 8,
            clusters: 16,
            iters: 3,
            seed: 0xBEE5,
        }
    }
}

impl KmeansParams {
    /// The Table 4 configuration: the pattern matrix (512 KB) far
    /// exceeds the 128 KB L2 D-cache, so every iteration streams the
    /// patterns from memory — the data-side traffic that makes the
    /// framework's memory arbiter visible.
    pub fn table4() -> KmeansParams {
        KmeansParams {
            patterns: 8000,
            dims: 16,
            clusters: 4,
            iters: 3,
            seed: 0xBEE5,
        }
    }
}

/// Generates the pattern matrix (values in `0..1024`).
pub fn generate_patterns(p: &KmeansParams) -> Vec<u32> {
    let mut rng = DataRng(p.seed);
    (0..p.patterns * p.dims).map(|_| rng.below(1024)).collect()
}

/// Host-side reference: runs the identical integer algorithm and returns
/// `(centroid[0][0], assignments)` after the final iteration.
pub fn reference(p: &KmeansParams) -> (u32, Vec<u32>) {
    let pat = generate_patterns(p);
    let (np, d, k) = (p.patterns, p.dims, p.clusters);
    let mut centroids: Vec<u32> = pat[..k * d].to_vec();
    let mut assign = vec![0u32; np];
    for _ in 0..p.iters {
        let mut sums = vec![0u32; k * d];
        let mut counts = vec![0u32; k];
        for i in 0..np {
            let mut best_dist = u32::MAX;
            let mut best_k = 0u32;
            for c in 0..k {
                let mut dist = 0u32;
                for j in 0..d {
                    let a = pat[i * d + j] as i32;
                    let b = centroids[c * d + j] as i32;
                    dist = dist.wrapping_add((a - b).unsigned_abs());
                }
                if dist < best_dist {
                    best_dist = dist;
                    best_k = c as u32;
                }
            }
            assign[i] = best_k;
            counts[best_k as usize] += 1;
            for j in 0..d {
                sums[best_k as usize * d + j] =
                    sums[best_k as usize * d + j].wrapping_add(pat[i * d + j]);
            }
        }
        for c in 0..k {
            for j in 0..d {
                if let Some(mean) = sums[c * d + j].checked_div(counts[c]) {
                    centroids[c * d + j] = mean;
                }
            }
        }
    }
    (centroids[0], assign)
}

/// Generates the guest assembly program. The program prints
/// `centroid[0][0]` via `PRINT_INT` and halts.
pub fn source(p: &KmeansParams) -> String {
    let pat = generate_patterns(p);
    let (np, d, k) = (p.patterns, p.dims, p.clusters);
    let d4 = d * 4;
    let mut data = String::new();
    data.push_str("patterns:");
    for (i, v) in pat.iter().enumerate() {
        if i % 8 == 0 {
            data.push_str("\n        .word ");
        } else {
            data.push_str(", ");
        }
        data.push_str(&v.to_string());
    }
    data.push_str("\ncentroids:");
    for (i, v) in pat[..k * d].iter().enumerate() {
        if i % 8 == 0 {
            data.push_str("\n        .word ");
        } else {
            data.push_str(", ");
        }
        data.push_str(&v.to_string());
    }
    format!(
        r#"
# k-means: {np} patterns x {d} dims, {k} clusters, {iters} iterations
main:   li   s0, {iters}
outer:
        # zero sums
        la   t0, sums
        li   t1, {kd}
zs:     sw   r0, 0(t0)
        addi t0, t0, 4
        addi t1, t1, -1
        bne  t1, r0, zs
        # zero counts
        la   t0, counts
        li   t1, {k}
zc:     sw   r0, 0(t0)
        addi t0, t0, 4
        addi t1, t1, -1
        bne  t1, r0, zc
        # assignment pass
        li   s1, 0              # pattern index
ploop:  li   t0, {d4}
        mul  t1, s1, t0
        la   t2, patterns
        add  s5, t2, t1         # s5 = &pattern[p]
        li   s2, 0              # cluster index
        li   s3, 0x7FFFFFFF     # best distance
        li   s4, 0              # best cluster
kloop:  li   t0, {d4}
        mul  t1, s2, t0
        la   t2, centroids
        add  s6, t2, t1         # s6 = &centroid[c]
        li   t4, 0              # dist
        li   t5, 0              # dim
dloop:  sll  t6, t5, 2
        add  t7, s5, t6
        lw   t7, 0(t7)
        add  t8, s6, t6
        lw   t8, 0(t8)
        sub  t6, t7, t8
        bge  t6, r0, dpos
        sub  t6, r0, t6
dpos:   add  t4, t4, t6
        addi t5, t5, 1
        addi t6, r0, {d}
        bne  t5, t6, dloop
        bge  t4, s3, notbetter
        move s3, t4
        move s4, s2
notbetter:
        addi s2, s2, 1
        addi t0, r0, {k}
        bne  s2, t0, kloop
        # record assignment
        sll  t0, s1, 2
        la   t1, assign
        add  t1, t1, t0
        sw   s4, 0(t1)
        # counts[best]++
        sll  t0, s4, 2
        la   t1, counts
        add  t1, t1, t0
        lw   t2, 0(t1)
        addi t2, t2, 1
        sw   t2, 0(t1)
        # sums[best] += pattern
        li   t0, {d4}
        mul  t1, s4, t0
        la   t2, sums
        add  t3, t2, t1
        li   t5, 0
aloop:  sll  t6, t5, 2
        add  t7, s5, t6
        lw   t7, 0(t7)
        add  t8, t3, t6
        lw   t9, 0(t8)
        add  t9, t9, t7
        sw   t9, 0(t8)
        addi t5, t5, 1
        addi t6, r0, {d}
        bne  t5, t6, aloop
        addi s1, s1, 1
        li   t0, {np}
        bne  s1, t0, ploop
        # centroid update
        li   s1, 0              # cluster
cloop:  sll  t0, s1, 2
        la   t1, counts
        add  t1, t1, t0
        lw   t2, 0(t1)          # count
        beq  t2, r0, skipc
        li   t0, {d4}
        mul  t1, s1, t0
        la   t3, sums
        add  t3, t3, t1
        la   t4, centroids
        add  t4, t4, t1
        li   t5, 0
cdl:    sll  t6, t5, 2
        add  t7, t3, t6
        lw   t7, 0(t7)
        div  t7, t7, t2
        add  t8, t4, t6
        sw   t7, 0(t8)
        addi t5, t5, 1
        addi t6, r0, {d}
        bne  t5, t6, cdl
skipc:  addi s1, s1, 1
        addi t0, r0, {k}
        bne  s1, t0, cloop
        addi s0, s0, -1
        bne  s0, r0, outer
        # print centroid[0][0]
        la   t0, centroids
        lw   r4, 0(t0)
        li   r2, 2
        syscall
        halt

        .data
        .align 4
{data}
assign: .space {assign_bytes}
sums:   .space {sums_bytes}
counts: .space {counts_bytes}
"#,
        iters = p.iters,
        kd = k * d,
        assign_bytes = np * 4,
        sums_bytes = k * d * 4,
        counts_bytes = k * 4,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_isa::asm::assemble;
    use rse_pipeline::Pipeline;
    use rse_sys::{Machine, MachineSpec, OsConfig, OsExit};

    fn run(p: &KmeansParams) -> (Vec<i32>, Pipeline) {
        let image = assemble(&source(p)).expect("kmeans assembles");
        let spec = MachineSpec {
            framework: false,
            os: Some(OsConfig::default()),
            ..MachineSpec::default()
        };
        let mut m = Machine::build(&image, spec);
        assert_eq!(m.run(200_000_000), OsExit::Exited { code: 0 });
        let output = m.os.expect("built with the guest OS").output;
        (output, m.cpu)
    }

    #[test]
    fn small_kmeans_matches_host_reference() {
        let p = KmeansParams {
            patterns: 24,
            dims: 4,
            clusters: 4,
            iters: 2,
            seed: 7,
        };
        let (out, _) = run(&p);
        let (c00, _) = reference(&p);
        assert_eq!(out, vec![c00 as i32]);
    }

    #[test]
    fn paper_size_kmeans_matches_host_reference() {
        let p = KmeansParams::default();
        let (out, cpu) = run(&p);
        let (c00, assign) = reference(&p);
        assert_eq!(out, vec![c00 as i32]);
        // Assignments in guest memory match the reference.
        let image = assemble(&source(&p)).unwrap();
        let base = image.symbol("assign").unwrap();
        for (i, &a) in assign.iter().enumerate() {
            assert_eq!(
                cpu.mem().memory.read_u32(base + 4 * i as u32),
                a,
                "pattern {i}"
            );
        }
        assert!(cpu.stats().cycles > 100_000, "non-trivial workload");
    }

    #[test]
    fn different_seeds_change_results() {
        let a = reference(&KmeansParams {
            seed: 1,
            ..KmeansParams::default()
        });
        let b = reference(&KmeansParams {
            seed: 2,
            ..KmeansParams::default()
        });
        assert_ne!(a.1, b.1);
    }
}
