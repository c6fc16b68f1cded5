//! Sparse byte-addressable physical memory.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Size of a backing page of the sparse memory, in bytes. Matches the
/// guest page size so the DDT's SavePage operation maps 1:1 onto a
/// backing page.
pub const PAGE_BYTES: usize = 4096;

/// A fast, fixed (non-randomized) hasher for page ids. Page lookups sit
/// on the hottest path of both simulators — every instruction
/// fetch, load, and store resolves one — and SipHash with a random key
/// is both slow and needlessly nondeterministic here: page ids are
/// guest-controlled `u32`s, not attacker-controlled map keys. One
/// multiply by an odd 64-bit constant plus a fold of the high bits
/// (Fibonacci hashing) spreads sequential ids well.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-1a); page-id hashing uses `write_u32`.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u32(&mut self, id: u32) {
        let h = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type PageMap = HashMap<u32, Box<[u8; PAGE_BYTES]>, BuildHasherDefault<PageIdHasher>>;

/// Byte-addressable memory with page-granular lazy allocation.
///
/// Reads of unmapped memory return zero (the guest OS zero-fills pages on
/// demand); writes allocate. Whole-page snapshot and restore support the
/// DDT module's checkpointing, and word-granular accessors serve the
/// pipeline and the RSE's Memory Access Unit.
///
/// The halfword/word accessors take a single page lookup when the access
/// lies inside one page (the overwhelmingly common case; the guest ABI
/// aligns words) and fall back to per-byte access when it straddles a
/// page boundary, preserving the no-alignment-requirement contract.
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    pages: PageMap,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    fn page_of(addr: u32) -> (u32, usize) {
        (
            addr / PAGE_BYTES as u32,
            (addr % PAGE_BYTES as u32) as usize,
        )
    }

    fn page_mut(&mut self, id: u32) -> &mut [u8; PAGE_BYTES] {
        self.pages
            .entry(id)
            .or_insert_with(|| Box::new([0; PAGE_BYTES]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        let (id, off) = Self::page_of(addr);
        self.pages.get(&id).map_or(0, |p| p[off])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        let (id, off) = Self::page_of(addr);
        self.page_mut(id)[off] = value;
    }

    /// Reads a little-endian 16-bit value (no alignment requirement).
    pub fn read_u16(&self, addr: u32) -> u16 {
        let (id, off) = Self::page_of(addr);
        if off + 2 <= PAGE_BYTES {
            self.pages.get(&id).map_or(0, |p| {
                u16::from_le_bytes(p[off..off + 2].try_into().expect("2 bytes"))
            })
        } else {
            u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
        }
    }

    /// Writes a little-endian 16-bit value.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        let (id, off) = Self::page_of(addr);
        if off + 2 <= PAGE_BYTES {
            self.page_mut(id)[off..off + 2].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
        }
    }

    /// Reads a little-endian 32-bit value (no alignment requirement).
    pub fn read_u32(&self, addr: u32) -> u32 {
        let (id, off) = Self::page_of(addr);
        if off + 4 <= PAGE_BYTES {
            self.pages.get(&id).map_or(0, |p| {
                u32::from_le_bytes(p[off..off + 4].try_into().expect("4 bytes"))
            })
        } else {
            let mut bytes = [0u8; 4];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32));
            }
            u32::from_le_bytes(bytes)
        }
    }

    /// Writes a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let (id, off) = Self::page_of(addr);
        if off + 4 <= PAGE_BYTES {
            self.page_mut(id)[off..off + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
        }
    }

    /// Copies `buf.len()` bytes starting at `addr` into `buf`.
    pub fn read_bytes(&self, addr: u32, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u32));
        }
    }

    /// Writes `buf` starting at `addr`.
    pub fn write_bytes(&mut self, addr: u32, buf: &[u8]) {
        for (i, b) in buf.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Snapshots the 4 KB page containing `addr` (the DDT SavePage path).
    /// Unmapped pages snapshot as all-zero.
    pub fn snapshot_page(&self, addr: u32) -> Box<[u8; PAGE_BYTES]> {
        let (id, _) = Self::page_of(addr);
        match self.pages.get(&id) {
            Some(p) => p.clone(),
            None => Box::new([0; PAGE_BYTES]),
        }
    }

    /// Restores a page snapshot over the page containing `addr`
    /// (the recovery algorithm's undo step).
    pub fn restore_page(&mut self, addr: u32, snapshot: &[u8; PAGE_BYTES]) {
        let (id, _) = Self::page_of(addr);
        *self.page_mut(id) = *snapshot;
    }

    /// Number of pages currently mapped (diagnostic).
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// Flips bit `bit` (0–7) of the byte at `addr` — the fault-injection
    /// primitive used by the ICM evaluation.
    pub fn flip_bit(&mut self, addr: u32, bit: u8) {
        let v = self.read_u8(addr);
        self.write_u8(addr, v ^ (1 << (bit & 7)));
    }

    /// XORs the little-endian 32-bit word at `addr` with `xor_mask` — the
    /// word-granular soft-error primitive used by the fault-injection
    /// campaign engine (multi-bit upsets in a memory word).
    pub fn flip_word(&mut self, addr: u32, xor_mask: u32) {
        let v = self.read_u32(addr);
        self.write_u32(addr, v ^ xor_mask);
    }

    /// Page ids of all currently mapped pages, sorted ascending. The
    /// backing store is a hash map whose iteration order is
    /// nondeterministic; campaign tooling and snapshot digests must only
    /// ever walk pages through this accessor so that replaying a seed
    /// yields byte-identical output.
    pub fn mapped_page_ids_sorted(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.pages.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Raw bytes of the mapped page `id` (as returned by
    /// [`SparseMemory::mapped_page_ids_sorted`]), or `None` if unmapped.
    pub fn page_bytes(&self, id: u32) -> Option<&[u8; PAGE_BYTES]> {
        self.pages.get(&id).map(|p| p.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_support::prelude::*;

    #[test]
    fn unmapped_reads_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u32(0xDEAD_BEE0), 0);
        assert_eq!(m.mapped_pages(), 0);
    }

    #[test]
    fn word_roundtrip_crosses_pages() {
        let mut m = SparseMemory::new();
        let addr = PAGE_BYTES as u32 - 2; // straddles a page boundary
        m.write_u32(addr, 0xA1B2_C3D4);
        assert_eq!(m.read_u32(addr), 0xA1B2_C3D4);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn snapshot_restore_undoes_writes() {
        let mut m = SparseMemory::new();
        m.write_u32(0x1000, 111);
        let snap = m.snapshot_page(0x1000);
        m.write_u32(0x1000, 222);
        m.write_u32(0x1ffc, 333);
        m.restore_page(0x1000, &snap);
        assert_eq!(m.read_u32(0x1000), 111);
        assert_eq!(m.read_u32(0x1ffc), 0);
    }

    #[test]
    fn flip_bit_is_involutive() {
        let mut m = SparseMemory::new();
        m.write_u8(0x42, 0b1010_1010);
        m.flip_bit(0x42, 0);
        assert_eq!(m.read_u8(0x42), 0b1010_1011);
        m.flip_bit(0x42, 0);
        assert_eq!(m.read_u8(0x42), 0b1010_1010);
    }

    #[test]
    fn flip_word_is_involutive_and_multi_bit() {
        let mut m = SparseMemory::new();
        m.write_u32(0x2000, 0x1234_5678);
        m.flip_word(0x2000, 0x8000_0001);
        assert_eq!(m.read_u32(0x2000), 0x9234_5679);
        m.flip_word(0x2000, 0x8000_0001);
        assert_eq!(m.read_u32(0x2000), 0x1234_5678);
    }

    #[test]
    fn mapped_page_ids_are_sorted() {
        let mut m = SparseMemory::new();
        for &addr in &[0x9000u32, 0x1000, 0x5000, 0x3000] {
            m.write_u8(addr, 1);
        }
        let ids = m.mapped_page_ids_sorted();
        assert_eq!(ids, vec![1, 3, 5, 9]);
        assert!(m.page_bytes(1).is_some());
        assert!(m.page_bytes(2).is_none());
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut m = SparseMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x8000 - 100, &data);
        let mut out = vec![0u8; 256];
        m.read_bytes(0x8000 - 100, &mut out);
        assert_eq!(out, data);
    }

    proptest! {
        #[test]
        fn u16_u32_roundtrip(addr in 0u32..0x100_0000, v16 in any::<u16>(), v32 in any::<u32>()) {
            let mut m = SparseMemory::new();
            m.write_u16(addr, v16);
            prop_assert_eq!(m.read_u16(addr), v16);
            m.write_u32(addr, v32);
            prop_assert_eq!(m.read_u32(addr), v32);
        }
    }
}
