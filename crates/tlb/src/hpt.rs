//! The HP PA-RISC-style hashed page table (HPT).
//!
//! The software TLB miss handler's data structure (paper §3.2): a hashed
//! table of 16-byte PTEs living in **guest physical memory**, with chained
//! overflow. There is one PTE per mapped 4 KB *base* page — a page inside
//! a superpage mapping carries the superpage's size so the miss handler
//! can insert a single superpage TLB entry covering the whole range (the
//! hashed-page-table organisation of Huck & Hays that the paper cites).
//!
//! Every probe the walker performs is issued through the [`PteMemory`]
//! trait, so the machine model can route PTE reads through the simulated
//! cache: the paper's §3.5 point that "page tables needed to service TLB
//! fills can be cached just like other data" falls out naturally.

use core::fmt;

use mtlb_types::{PageSize, PhysAddr, Ppn, Prot, Vpn};

/// Bytes per PTE (paper: "Each entry is 16 bytes in length").
pub const PTE_BYTES: u64 = 16;

/// Abstract access to the physical memory holding the page table.
///
/// Implementations decide what a probe costs: the machine model charges
/// cache/bus/DRAM cycles, plain tests back it with a flat array.
pub trait PteMemory {
    /// Reads a little-endian 64-bit word at a physical address.
    fn read_u64(&mut self, pa: PhysAddr) -> u64;
    /// Writes a little-endian 64-bit word at a physical address.
    fn write_u64(&mut self, pa: PhysAddr, value: u64);
}

/// A decoded page table entry for one 4 KB base page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// The virtual base page this entry translates.
    pub vpn: Vpn,
    /// The bus-physical frame backing it (real or shadow).
    pub pfn: Ppn,
    /// The size of the *mapping* this page belongs to. `Base4K` for an
    /// ordinary page; a superpage size when the page lies inside a
    /// (shadow-backed) superpage, letting the miss handler build one TLB
    /// entry for the whole range.
    pub size: PageSize,
    /// Protection bits for the mapping.
    pub prot: Prot,
}

impl Pte {
    /// The superpage-aligned virtual base of the enclosing mapping.
    #[must_use]
    pub fn mapping_vpn_base(&self) -> Vpn {
        self.vpn.align_down_to(self.size)
    }

    /// The frame corresponding to [`mapping_vpn_base`](Self::mapping_vpn_base),
    /// assuming (as the shadow allocator guarantees) that frames are
    /// contiguous across the mapping.
    #[must_use]
    pub fn mapping_pfn_base(&self) -> Ppn {
        let delta = self.vpn.offset_from(self.mapping_vpn_base());
        self.pfn.offset_back(delta)
    }

    fn encode(&self, chain: u32) -> (u64, u64) {
        #[expect(
            clippy::expect_used,
            reason = "Structure invariant: every Pte size is produced from PageSize::ALL."
        )]
        let size_code = PageSize::ALL
            .iter()
            .position(|s| *s == self.size)
            .expect("size is a member of PageSize::ALL") as u64;
        debug_assert!(self.vpn.index() < (1 << 48), "vpn exceeds PTE field");
        debug_assert!(self.pfn.index() < (1 << 40), "pfn exceeds PTE field");
        debug_assert!(chain < (1 << 24), "chain index exceeds PTE field");
        let w0 =
            (1u64 << 63) | (size_code << 56) | ((self.prot.bits() as u64) << 48) | self.vpn.index();
        let w1 = ((chain as u64) << 40) | self.pfn.index();
        (w0, w1)
    }

    fn decode(w0: u64, w1: u64) -> Option<(Pte, u32)> {
        if w0 >> 63 == 0 {
            return None;
        }
        // Field masks of the packed words; widths match `encode`'s
        // debug assertions.
        const VPN_MASK: u64 = (1 << 48) - 1;
        const PFN_MASK: u64 = (1 << 40) - 1;
        let size = PageSize::ALL[((w0 >> 56) & 0x7) as usize];
        let prot = Prot::from_bits_truncate(((w0 >> 48) & 0xff) as u8);
        let vpn = Vpn::new(w0 & VPN_MASK);
        let chain = (w1 >> 40) as u32;
        let pfn = Ppn::new(w1 & PFN_MASK);
        Some((
            Pte {
                vpn,
                pfn,
                size,
                prot,
            },
            chain,
        ))
    }
}

/// Geometry and placement of the hashed page table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HptConfig {
    /// Physical base address of the table.
    pub base: PhysAddr,
    /// Number of hash buckets (must be a power of two). The paper uses
    /// 16 K buckets of 16-byte entries.
    pub buckets: u64,
    /// Number of overflow slots for chained collisions, placed directly
    /// after the buckets.
    pub overflow_slots: u64,
}

impl HptConfig {
    /// The paper's configuration: a 16 K-entry table (256 KB) plus an
    /// equal-sized overflow area, at the given base.
    #[must_use]
    pub fn paper_default(base: PhysAddr) -> Self {
        HptConfig {
            base,
            buckets: 16 * 1024,
            overflow_slots: 16 * 1024,
        }
    }

    /// Total bytes of physical memory the table occupies.
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        (self.buckets + self.overflow_slots) * PTE_BYTES
    }
}

/// Walk/maintenance statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HptStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Total PTE probes across all lookups (≥ lookups; >1 per lookup
    /// means chains were walked).
    pub probes: u64,
    /// Lookups that found no mapping.
    pub not_found: u64,
    /// Entries currently live.
    pub live_entries: u64,
}

/// Outcome of a hashed-page-table lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HptLookup {
    /// The PTE, when a mapping exists.
    pub pte: Option<Pte>,
    /// Number of 16-byte entries the walk examined.
    pub probes: u32,
}

/// Software state of the hashed page table.
///
/// The *contents* live in guest memory (via [`PteMemory`]); this struct
/// holds only the geometry and the overflow-slot cursor, mirroring the
/// bookkeeping a kernel would keep in its own data segment. The kernel
/// re-points mappings but never unmaps, so there is no removal.
#[derive(Debug, Clone)]
pub struct HashedPageTable {
    config: HptConfig,
    next_unused_overflow: u32,
    stats: HptStats,
}

/// Error returned when the overflow area is exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HptFull;

impl fmt::Display for HptFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("hashed page table overflow area exhausted")
    }
}

impl std::error::Error for HptFull {}

impl HashedPageTable {
    /// Creates the software state for a table with the given geometry.
    /// The guest memory backing it is assumed zeroed (all invalid).
    ///
    /// # Panics
    ///
    /// Panics unless `buckets` is a power of two.
    #[must_use]
    pub fn new(config: HptConfig) -> Self {
        assert!(
            config.buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        HashedPageTable {
            config,
            next_unused_overflow: 0,
            stats: HptStats::default(),
        }
    }

    /// The table geometry.
    #[must_use]
    pub fn config(&self) -> HptConfig {
        self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> HptStats {
        self.stats
    }

    fn hash(&self, vpn: Vpn) -> u64 {
        // XOR-folded VPN, as in PA-RISC hashed page tables.
        let v = vpn.index();
        (v ^ (v >> 10) ^ (v >> 20)) & (self.config.buckets - 1)
    }

    fn bucket_addr(&self, bucket: u64) -> PhysAddr {
        self.config.base + bucket * PTE_BYTES
    }

    fn overflow_addr(&self, slot: u32) -> PhysAddr {
        self.config.base + (self.config.buckets + slot as u64) * PTE_BYTES
    }

    /// Address of the entry a chain field points at (`chain` is 1-based;
    /// 0 terminates the chain).
    fn chain_addr(&self, chain: u32) -> PhysAddr {
        debug_assert!(chain != 0);
        self.overflow_addr(chain - 1)
    }

    fn read_entry(&self, mem: &mut impl PteMemory, at: PhysAddr) -> Option<(Pte, u32)> {
        let w0 = mem.read_u64(at);
        let w1 = mem.read_u64(at + 8);
        Pte::decode(w0, w1)
    }

    fn write_entry(&self, mem: &mut impl PteMemory, at: PhysAddr, pte: &Pte, chain: u32) {
        let (w0, w1) = pte.encode(chain);
        mem.write_u64(at, w0);
        mem.write_u64(at + 8, w1);
    }

    /// Looks up the mapping for `vpn`, walking the collision chain.
    ///
    /// Each probe reads one 16-byte PTE through `mem`; the caller can
    /// charge per-probe instruction costs from the returned count.
    pub fn lookup(&mut self, vpn: Vpn, mem: &mut impl PteMemory) -> HptLookup {
        self.stats.lookups = self.stats.lookups.saturating_add(1);
        let mut probes = 0u32;
        let mut at = self.bucket_addr(self.hash(vpn));
        loop {
            probes += 1;
            self.stats.probes = self.stats.probes.saturating_add(1);
            match self.read_entry(mem, at) {
                None => break,
                Some((pte, chain)) => {
                    if pte.vpn == vpn {
                        return HptLookup {
                            pte: Some(pte),
                            probes,
                        };
                    }
                    if chain == 0 {
                        break;
                    }
                    at = self.chain_addr(chain);
                }
            }
        }
        self.stats.not_found = self.stats.not_found.saturating_add(1);
        HptLookup { pte: None, probes }
    }

    /// Inserts or updates the mapping for `pte.vpn`.
    ///
    /// # Errors
    ///
    /// Returns [`HptFull`] when a new chained entry is needed but the
    /// overflow area is exhausted.
    pub fn insert(&mut self, pte: Pte, mem: &mut impl PteMemory) -> Result<(), HptFull> {
        let mut at = self.bucket_addr(self.hash(pte.vpn));
        match self.read_entry(mem, at) {
            None => {
                self.write_entry(mem, at, &pte, 0);
                self.stats.live_entries = self.stats.live_entries.saturating_add(1);
                return Ok(());
            }
            Some((existing, chain)) => {
                if existing.vpn == pte.vpn {
                    self.write_entry(mem, at, &pte, chain);
                    return Ok(());
                }
                let mut chain = chain;
                // Walk to the end of the chain, updating in place if found.
                while chain != 0 {
                    at = self.chain_addr(chain);
                    #[expect(
                        clippy::expect_used,
                        reason = "Structure invariant: chain links are only ever written pointing at valid entries; a dangling link means the table is corrupt."
                    )]
                    let (existing, next) = self
                        .read_entry(mem, at)
                        .expect("chained entries are always valid");
                    if existing.vpn == pte.vpn {
                        self.write_entry(mem, at, &pte, next);
                        return Ok(());
                    }
                    chain = next;
                }
            }
        }
        // Append a new overflow entry and link it from the chain tail
        // (which is `at`). Entries are never removed, so overflow slots
        // are handed out in order.
        if u64::from(self.next_unused_overflow) >= self.config.overflow_slots {
            return Err(HptFull);
        }
        let slot = self.next_unused_overflow;
        self.next_unused_overflow += 1;
        self.write_entry(mem, self.overflow_addr(slot), &pte, 0);
        // Re-link the tail to the new slot, preserving its payload.
        #[expect(
            clippy::expect_used,
            reason = "Structure invariant: the chain walk that found a tail guarantees the tail decodes."
        )]
        let (tail_pte, _) = self
            .read_entry(mem, at)
            .expect("tail entry exists by construction");
        self.write_entry(mem, at, &tail_pte, slot + 1);
        self.stats.live_entries = self.stats.live_entries.saturating_add(1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A flat test backing store; counts accesses so probe accounting can
    /// be validated.
    #[derive(Default)]
    struct TestMem {
        words: BTreeMap<u64, u64>,
        reads: u64,
    }

    impl PteMemory for TestMem {
        fn read_u64(&mut self, pa: PhysAddr) -> u64 {
            self.reads += 1;
            *self.words.get(&pa.get()).unwrap_or(&0)
        }

        fn write_u64(&mut self, pa: PhysAddr, value: u64) {
            self.words.insert(pa.get(), value);
        }
    }

    fn table() -> HashedPageTable {
        HashedPageTable::new(HptConfig {
            base: PhysAddr::new(0x10_0000),
            buckets: 64,
            overflow_slots: 32,
        })
    }

    fn pte(vpn: u64, pfn: u64) -> Pte {
        Pte {
            vpn: Vpn::new(vpn),
            pfn: Ppn::new(pfn),
            size: PageSize::Base4K,
            prot: Prot::RW,
        }
    }

    #[test]
    fn insert_then_lookup() {
        let mut hpt = table();
        let mut mem = TestMem::default();
        hpt.insert(pte(0x123, 0x456), &mut mem).unwrap();
        let out = hpt.lookup(Vpn::new(0x123), &mut mem);
        assert_eq!(out.pte, Some(pte(0x123, 0x456)));
        assert_eq!(out.probes, 1);
    }

    #[test]
    fn missing_mapping_reports_not_found() {
        let mut hpt = table();
        let mut mem = TestMem::default();
        let out = hpt.lookup(Vpn::new(7), &mut mem);
        assert_eq!(out.pte, None);
        assert_eq!(hpt.stats().not_found, 1);
    }

    #[test]
    fn colliding_vpns_chain_and_resolve() {
        let mut hpt = table();
        let mut mem = TestMem::default();
        // With 64 buckets and hash = v ^ (v>>10) ^ (v>>20) masked to 6
        // bits, vpns 0x1 and 0x401 collide (0x401 ^ 0x1 = 0x400, which is
        // above the mask and folds to 0x401>>10=1 ... compute directly):
        let a = Vpn::new(0x41);
        let b = Vpn::new(0x41 + 64); // differs only above the 6 mask bits? hash folds >>10 so still collides
        let c = Vpn::new(0x41 + 128);
        hpt.insert(pte(a.index(), 1), &mut mem).unwrap();
        hpt.insert(pte(b.index(), 2), &mut mem).unwrap();
        hpt.insert(pte(c.index(), 3), &mut mem).unwrap();
        assert_eq!(hpt.lookup(a, &mut mem).pte.unwrap().pfn.index(), 1);
        assert_eq!(hpt.lookup(b, &mut mem).pte.unwrap().pfn.index(), 2);
        assert_eq!(hpt.lookup(c, &mut mem).pte.unwrap().pfn.index(), 3);
        // At least one lookup needed more than one probe.
        assert!(hpt.stats().probes > hpt.stats().lookups);
    }

    #[test]
    fn update_in_place_does_not_grow() {
        let mut hpt = table();
        let mut mem = TestMem::default();
        hpt.insert(pte(5, 1), &mut mem).unwrap();
        hpt.insert(pte(5, 9), &mut mem).unwrap();
        assert_eq!(hpt.stats().live_entries, 1);
        assert_eq!(
            hpt.lookup(Vpn::new(5), &mut mem).pte.unwrap().pfn.index(),
            9
        );
    }

    #[test]
    fn overflow_exhaustion_errors() {
        let mut hpt = HashedPageTable::new(HptConfig {
            base: PhysAddr::new(0),
            buckets: 1,
            overflow_slots: 2,
        });
        let mut mem = TestMem::default();
        hpt.insert(pte(1, 1), &mut mem).unwrap(); // bucket
        hpt.insert(pte(2, 2), &mut mem).unwrap(); // overflow 0
        hpt.insert(pte(3, 3), &mut mem).unwrap(); // overflow 1
        assert_eq!(hpt.insert(pte(4, 4), &mut mem), Err(HptFull));
    }

    #[test]
    fn superpage_pte_reconstructs_mapping_base() {
        let p = Pte {
            vpn: Vpn::new(0x7),
            pfn: Ppn::new(0x80243),
            size: PageSize::Size16K,
            prot: Prot::RW,
        };
        assert_eq!(p.mapping_vpn_base().index(), 0x4);
        assert_eq!(p.mapping_pfn_base().index(), 0x80240);
    }

    #[test]
    fn encode_decode_round_trip() {
        for size in PageSize::ALL {
            let p = Pte {
                vpn: Vpn::new(0xdead_beef),
                pfn: Ppn::new(0x12_3456),
                size,
                prot: Prot::RX | Prot::SUPERVISOR_ONLY,
            };
            let (w0, w1) = p.encode(77);
            let (q, chain) = Pte::decode(w0, w1).unwrap();
            assert_eq!(p, q);
            assert_eq!(chain, 77);
        }
        assert_eq!(Pte::decode(0, 0), None);
    }

    #[test]
    fn paper_default_geometry() {
        let cfg = HptConfig::paper_default(PhysAddr::new(0x40000));
        assert_eq!(cfg.buckets, 16 * 1024);
        // 16 K buckets * 16 B = 256 KB + equal overflow = 512 KB total.
        assert_eq!(cfg.table_bytes(), 512 * 1024);
    }
}
