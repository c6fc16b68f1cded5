//! The maze-routing kernel (the *vpr Route* phase of Table 4).
//!
//! A breadth-first wavefront router on a `width × width` grid with
//! obstacles: for each two-terminal net, BFS computes shortest-path
//! distances from the source until the sink is reached, then the path is
//! backtraced and its cells marked used, constraining later nets — the
//! classic maze-router structure of VPR's routing phase.

use crate::DataRng;

/// Routing workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteParams {
    /// Grid side length.
    pub width: u32,
    /// Number of nets to route, in order.
    pub nets: usize,
    /// Percentage of obstacle cells.
    pub block_pct: u32,
    /// Data-generation seed.
    pub seed: u64,
}

impl Default for RouteParams {
    fn default() -> RouteParams {
        RouteParams {
            width: 24,
            nets: 12,
            block_pct: 15,
            seed: 0x707E,
        }
    }
}

impl RouteParams {
    /// The Table 4 configuration: grid+distance+queue arrays ≈ 300 KB,
    /// streamed per net, exceeding the L2 D-cache.
    pub fn table4() -> RouteParams {
        RouteParams {
            width: 160,
            nets: 20,
            block_pct: 12,
            seed: 0x707E,
        }
    }
}

/// Generated routing problem.
#[derive(Debug, Clone)]
pub struct RouteData {
    /// Grid cells: 0 free, 1 blocked.
    pub grid: Vec<u32>,
    /// Source cell per net.
    pub srcs: Vec<u32>,
    /// Sink cell per net.
    pub snks: Vec<u32>,
}

/// Generates the grid and net terminals (terminals are free cells,
/// source ≠ sink).
pub fn generate(p: &RouteParams) -> RouteData {
    let mut rng = DataRng(p.seed);
    let cells = (p.width * p.width) as usize;
    let mut grid: Vec<u32> = (0..cells)
        .map(|_| u32::from(rng.below(100) < p.block_pct))
        .collect();
    let mut srcs = Vec::with_capacity(p.nets);
    let mut snks = Vec::with_capacity(p.nets);
    for _ in 0..p.nets {
        let s = rng.below(cells as u32);
        let mut t = rng.below(cells as u32);
        while t == s {
            t = rng.below(cells as u32);
        }
        grid[s as usize] = 0;
        grid[t as usize] = 0;
        srcs.push(s);
        snks.push(t);
    }
    RouteData { grid, srcs, snks }
}

/// Host-side reference; returns `(nets_routed, total_wirelength)` —
/// exactly what the guest prints.
pub fn reference(p: &RouteParams) -> (u32, u32) {
    let mut d = generate(p);
    let w = p.width as usize;
    let cells = w * w;
    let mut routed = 0u32;
    let mut total_wl = 0u32;
    for n in 0..p.nets {
        let (src, sink) = (d.srcs[n] as usize, d.snks[n] as usize);
        if d.grid[src] != 0 || d.grid[sink] != 0 {
            continue;
        }
        let mut dist = vec![-1i32; cells];
        let mut queue = Vec::with_capacity(cells);
        dist[src] = 0;
        queue.push(src);
        let mut head = 0;
        while head < queue.len() {
            let c = queue[head];
            head += 1;
            if c == sink {
                break;
            }
            let dd = dist[c];
            let x = c % w;
            // Neighbor order: left, right, up, down (matches the guest).
            let mut cand = [None; 4];
            if x != 0 {
                cand[0] = Some(c - 1);
            }
            if x != w - 1 {
                cand[1] = Some(c + 1);
            }
            if c >= w {
                cand[2] = Some(c - w);
            }
            if c < w * (w - 1) {
                cand[3] = Some(c + w);
            }
            for nb in cand.into_iter().flatten() {
                if d.grid[nb] == 0 && dist[nb] == -1 {
                    dist[nb] = dd + 1;
                    queue.push(nb);
                }
            }
        }
        if dist[sink] == -1 {
            continue;
        }
        routed += 1;
        total_wl += dist[sink] as u32;
        // Backtrace, marking the path used (sink inclusive, source not).
        let mut c = sink;
        while c != src {
            d.grid[c] = 2;
            let want = dist[c] - 1;
            let x = c % w;
            let mut cand = [None; 4];
            if x != 0 {
                cand[0] = Some(c - 1);
            }
            if x != w - 1 {
                cand[1] = Some(c + 1);
            }
            if c >= w {
                cand[2] = Some(c - w);
            }
            if c < w * (w - 1) {
                cand[3] = Some(c + w);
            }
            let Some(next) = cand.into_iter().flatten().find(|&nb| dist[nb] == want) else {
                break;
            };
            c = next;
        }
    }
    (routed, total_wl)
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

/// Generates the guest assembly. The program prints the number of routed
/// nets and the total wirelength (two `PRINT_INT`s).
pub fn source(p: &RouteParams) -> String {
    let d = generate(p);
    let w = p.width;
    let cells = w * w;
    let data = [
        words("grid", &d.grid),
        words("srcs", &d.srcs),
        words("snks", &d.snks),
    ]
    .concat();
    format!(
        r#"
# BFS maze router: {w}x{w} grid, {nets} nets
main:   li   s5, 0              # routed nets
        li   s6, 0              # total wirelength
        li   s0, 0              # net index
netloop:
        sll  t0, s0, 2
        la   t1, srcs
        add  t1, t1, t0
        lw   s3, 0(t1)          # src
        la   t1, snks
        add  t1, t1, t0
        lw   s4, 0(t1)          # sink
        # terminals must be free
        la   t1, grid
        sll  t0, s3, 2
        add  t0, t1, t0
        lw   t0, 0(t0)
        bne  t0, r0, netnext
        sll  t0, s4, 2
        add  t0, t1, t0
        lw   t0, 0(t0)
        bne  t0, r0, netnext
        # dist[*] = -1
        la   t0, dist
        li   t1, {cells}
        li   t2, -1
di:     sw   t2, 0(t0)
        addi t0, t0, 4
        addi t1, t1, -1
        bne  t1, r0, di
        # dist[src] = 0; queue = [src]
        la   t0, dist
        sll  t1, s3, 2
        add  t1, t0, t1
        sw   r0, 0(t1)
        la   t0, queue
        sw   s3, 0(t0)
        li   s1, 0              # qhead
        li   s2, 1              # qtail
bfs:    beq  s1, s2, bfsdone
        la   t0, queue
        sll  t1, s1, 2
        add  t1, t0, t1
        lw   t8, 0(t1)          # c
        addi s1, s1, 1
        beq  t8, s4, bfsdone
        la   t0, dist
        sll  t1, t8, 2
        add  t1, t0, t1
        lw   t9, 0(t1)          # d
        li   t0, {w}
        rem  t2, t8, t0         # x
        beq  t2, r0, noleft
        addi r4, t8, -1
        jal  try
noleft: li   t0, {w_1}
        beq  t2, t0, noright
        addi r4, t8, 1
        jal  try
noright:li   t0, {w}
        blt  t8, t0, noup
        li   t0, {w}
        sub  r4, t8, t0
        jal  try
noup:   li   t0, {wm}
        bge  t8, t0, nodown
        li   t0, {w}
        add  r4, t8, t0
        jal  try
nodown: b    bfs

try:    # expand neighbor a0 if free and unvisited
        la   t3, grid
        sll  t4, r4, 2
        add  t5, t3, t4
        lw   t5, 0(t5)
        bne  t5, r0, tryout
        la   t3, dist
        add  t5, t3, t4
        lw   t6, 0(t5)
        li   t7, -1
        bne  t6, t7, tryout
        addi t6, t9, 1
        sw   t6, 0(t5)
        la   t3, queue
        sll  t4, s2, 2
        add  t4, t3, t4
        sw   r4, 0(t4)
        addi s2, s2, 1
tryout: jr   ra

bfsdone:
        la   t0, dist
        sll  t1, s4, 2
        add  t1, t0, t1
        lw   t2, 0(t1)
        li   t3, -1
        beq  t2, t3, netnext
        add  s6, s6, t2         # wirelength
        addi s5, s5, 1          # routed
        # backtrace from sink, marking cells used
        move t8, s4
bt:     beq  t8, s3, netnext
        la   t0, grid
        sll  t1, t8, 2
        add  t1, t0, t1
        li   t2, 2
        sw   t2, 0(t1)
        la   t0, dist
        sll  t1, t8, 2
        add  t1, t0, t1
        lw   t9, 0(t1)
        addi t9, t9, -1         # want dist == d-1
        li   r3, 0              # found flag
        li   t0, {w}
        rem  t2, t8, t0
        beq  t2, r0, b1
        addi r4, t8, -1
        jal  btry
        bne  r3, r0, bt
b1:     li   t0, {w_1}
        beq  t2, t0, b2
        addi r4, t8, 1
        jal  btry
        bne  r3, r0, bt
b2:     li   t0, {w}
        blt  t8, t0, b3
        li   t0, {w}
        sub  r4, t8, t0
        jal  btry
        bne  r3, r0, bt
b3:     li   t0, {wm}
        bge  t8, t0, b4
        li   t0, {w}
        add  r4, t8, t0
        jal  btry
        bne  r3, r0, bt
b4:     b    netnext            # no predecessor found: give up

btry:   # if dist[a0] == t9 then step there (t8 = a0, flag = 1)
        la   t4, dist
        sll  t5, r4, 2
        add  t5, t4, t5
        lw   t5, 0(t5)
        bne  t5, t9, btryout
        move t8, r4
        addi r3, r0, 1
btryout:jr   ra

netnext:addi s0, s0, 1
        li   t0, {nets}
        bne  s0, t0, netloop
        move r4, s5
        li   r2, 2              # print routed nets
        syscall
        move r4, s6
        li   r2, 2              # print total wirelength
        syscall
        halt

        .data
        .align 4
{data}
dist:   .space {dist_bytes}
queue:  .space {dist_bytes}
"#,
        nets = p.nets,
        w_1 = w - 1,
        wm = w * (w - 1),
        dist_bytes = cells * 4,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_isa::asm::assemble;
    use rse_sys::{Machine, MachineSpec, OsConfig, OsExit};

    fn run(p: &RouteParams) -> Vec<i32> {
        let image = assemble(&source(p)).expect("route assembles");
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
    fn small_route_matches_host_reference() {
        let p = RouteParams {
            width: 8,
            nets: 4,
            block_pct: 10,
            seed: 3,
        };
        let (routed, wl) = reference(&p);
        assert_eq!(run(&p), vec![routed as i32, wl as i32]);
        assert!(routed > 0);
    }

    #[test]
    fn default_route_matches_host_reference() {
        let p = RouteParams::default();
        let (routed, wl) = reference(&p);
        assert_eq!(run(&p), vec![routed as i32, wl as i32]);
        assert!(routed >= p.nets as u32 / 2, "most nets should route");
        assert!(wl > 0);
    }

    #[test]
    fn congestion_blocks_later_nets() {
        // With many nets on a small grid, earlier paths block later nets.
        let p = RouteParams {
            width: 8,
            nets: 24,
            block_pct: 10,
            seed: 11,
        };
        let (routed, _) = reference(&p);
        assert!(routed < 24, "contention should defeat some nets");
    }
}
