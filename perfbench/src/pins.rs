//! Outputs pinned at the commit that defined the benchmark.
//!
//! A perf change must leave every record byte-identical, so a record
//! digest (or, for `kernel-sim`, the simulated cycle counts) that moves
//! fails the operation. Seeds without an entry are still checked for
//! structure, control outcomes, split-brain and determinism; the result
//! context says how much of a run was checked against a pin. A failed
//! check prints the computed digest or cycles, which is the new entry;
//! change an entry only in a change that explains why the records moved.

/// Pinned outputs, per workload and seed.
#[derive(Debug, Clone, Copy)]
pub struct Pins {
    /// `(campaign base seed, digest of the fault + attack JSONL)`.
    pub campaigns: &'static [(u64, u64)],
    /// `(seed, [Baseline cycles, Framework+ICM cycles])`.
    pub kernel: &'static [(u64, [u64; 2])],
    /// `(seed, digest of each churn record's JSON, spec order)`.
    pub fleet: &'static [(u64, [u64; 3])],
}

impl Pins {
    /// The pinned records digest of the campaign with base seed `base`.
    pub fn campaign(&self, base: u64) -> Option<u64> {
        self.campaigns.iter().find(|e| e.0 == base).map(|e| e.1)
    }

    /// The pinned simulated cycles of the kMeans guest at `seed`.
    pub fn kernel(&self, seed: u64) -> Option<[u64; 2]> {
        self.kernel.iter().find(|e| e.0 == seed).map(|e| e.1)
    }

    /// The pinned churn-record digests at `seed`.
    pub fn fleet(&self, seed: u64) -> Option<&'static [u64; 3]> {
        self.fleet.iter().find(|e| e.0 == seed).map(|e| &e.1)
    }
}

/// The pins every run checks against: the default and held-out
/// campaigns, and seeds 0..=31 plus the default and held-out seeds of
/// `kernel-sim` and `fleet-churn`.
pub static PINS: Pins = Pins {
    campaigns: &[
        (0xd5b, 0x0eef9fa66ee8f075),
        (0x4e1d011c, 0x0b266d2c4b7636a6),
    ],
    kernel: &[
        (0x0, [1543095, 1726348]),
        (0x1, [1529531, 1706457]),
        (0x2, [1548070, 1725956]),
        (0x3, [1545800, 1721839]),
        (0x4, [1558008, 1738994]),
        (0x5, [1541941, 1722501]),
        (0x6, [1531782, 1717810]),
        (0x7, [1543360, 1719949]),
        (0x8, [1527681, 1704152]),
        (0x9, [1549196, 1727154]),
        (0xa, [1546707, 1725868]),
        (0xb, [1561638, 1744700]),
        (0xc, [1541336, 1725670]),
        (0xd, [1559934, 1736153]),
        (0xe, [1559389, 1740452]),
        (0xf, [1540898, 1719785]),
        (0x10, [1561409, 1741350]),
        (0x11, [1570419, 1750203]),
        (0x12, [1556403, 1737065]),
        (0x13, [1571429, 1751930]),
        (0x14, [1534262, 1705376]),
        (0x15, [1561001, 1739456]),
        (0x16, [1535356, 1720366]),
        (0x17, [1523791, 1697376]),
        (0x18, [1550022, 1729823]),
        (0x19, [1531869, 1714304]),
        (0x1a, [1546036, 1725638]),
        (0x1b, [1564559, 1749444]),
        (0x1c, [1547020, 1731303]),
        (0x1d, [1560762, 1747596]),
        (0x1e, [1534319, 1712688]),
        (0x1f, [1529809, 1705437]),
        (0xd5b, [1550668, 1736912]),
        (0x4e1d0c48, [1530977, 1711660]),
    ],
    fleet: &[
        (
            0x0,
            [0x25afb084e445db01, 0x8379b943f289a31a, 0xbe80a7c08f711dc2],
        ),
        (
            0x1,
            [0x23d329244f6bac43, 0x3216b57072660b56, 0xf17f9c3f49290d4c],
        ),
        (
            0x2,
            [0x5599ba37f156ae2e, 0x96186b6383619744, 0x0978df92c04358e5],
        ),
        (
            0x3,
            [0xf960529845ab5287, 0x0dfc684d820ef25d, 0x7b689739eb4d6896],
        ),
        (
            0x4,
            [0x8b44f79f579e942e, 0xc26e1c5ad29bff89, 0xddeaa5c43a48969f],
        ),
        (
            0x5,
            [0xafc8d10e287ba82e, 0x67879afbfdf7e6f7, 0x365bc1f6ea803766],
        ),
        (
            0x6,
            [0xceb2080989226046, 0x3e441b5707db05f3, 0x05eaa2d9f0ab5a68],
        ),
        (
            0x7,
            [0xa153409af5a54f50, 0xfc6ca3388531d9db, 0x4886718f05192a3d],
        ),
        (
            0x8,
            [0x9b303051cdff54c1, 0xa38bab7196e6518b, 0x475040be8842c432],
        ),
        (
            0x9,
            [0x592a30372f269853, 0xb30865d5142534f2, 0x2f520f7a86fc796f],
        ),
        (
            0xa,
            [0xfa5256511b746332, 0xac474c7f6e141375, 0xf56a82002e28a335],
        ),
        (
            0xb,
            [0x2e7be2248a7cd0c2, 0x319a2215a793c6fb, 0xaf88f8059cac9f6e],
        ),
        (
            0xc,
            [0x693dff492dd2cbab, 0x7006116286dc6d59, 0x77ff67bc635b1803],
        ),
        (
            0xd,
            [0x792c09010000bc27, 0xb636eb4d2f1f5754, 0xd4cf25350e1c4979],
        ),
        (
            0xe,
            [0xe3a71d833fe83144, 0xc3349246879c97ef, 0x9b0cf8611275a2ce],
        ),
        (
            0xf,
            [0x321e5993eceb08ae, 0xe258408ef67e846e, 0xd38b191b4dbd3b5c],
        ),
        (
            0x10,
            [0x2bf05481f887a9e1, 0x303ace84319282c5, 0xf93b4f53d9da05c5],
        ),
        (
            0x11,
            [0x7165e7c5174a0f0d, 0x38ada04fbfd3db3c, 0xc37192ada1b2f7a6],
        ),
        (
            0x12,
            [0xd98c3d8ee2a8a34c, 0x8fb6623c0a07c5de, 0xdf322fd445427403],
        ),
        (
            0x13,
            [0x6b842cf0bae330b5, 0xc705f544d65fcce0, 0xcde7dda13fcaf23d],
        ),
        (
            0x14,
            [0xf16660589da14981, 0xb5dc5b1ad3743ff3, 0x9ec5c7b7f98f787d],
        ),
        (
            0x15,
            [0x52ce7e6888677af8, 0x74ee62d2db44382c, 0xf4273e68a67a3db8],
        ),
        (
            0x16,
            [0x9ca260003f358569, 0x7495819c8534699b, 0x4b9dcde706c98999],
        ),
        (
            0x17,
            [0xe4db5cf543a9a7ac, 0x8d01227b2bb947c6, 0x2b44325ac903d602],
        ),
        (
            0x18,
            [0x0ec778131ef0cb12, 0xf80506ddc85418a1, 0x681284c6a76fd9f6],
        ),
        (
            0x19,
            [0x6659b8efb9277170, 0x5788c4833913b8cd, 0x5334f4fb3a4a86e6],
        ),
        (
            0x1a,
            [0x41cac6e6dd443a5a, 0xcb053ac8d4aca06d, 0xbff6d49b14633140],
        ),
        (
            0x1b,
            [0xb8b804fdf2a2d697, 0xa0041779043f63cc, 0x665ccfd288f04473],
        ),
        (
            0x1c,
            [0x61697d3b9cb03f2c, 0xa9e5a20d67d4eb1b, 0xd179121dbe8d2c9f],
        ),
        (
            0x1d,
            [0x148eea9561daa676, 0xe7298589e68d8d16, 0x8029dcd43960cc6d],
        ),
        (
            0x1e,
            [0xa9e3ce9ba52b4d69, 0x42a0878c212a010e, 0x8d820396ce688095],
        ),
        (
            0x1f,
            [0xdde0b14530724d22, 0xde3ab2d7c595758a, 0x0b52f3f1a619b7ee],
        ),
        (
            0xd5b,
            [0xe7ced5c50d36c20f, 0x5e23892c6907189b, 0xe12a26f39a11714f],
        ),
        (
            0x4e1d0c49,
            [0xa225eb95af392909, 0x6199b62b11d16850, 0x5a03abae6bd552b1],
        ),
    ],
};
