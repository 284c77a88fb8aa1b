//! The memory controller: bus-op classification, MTLB management, and the
//! OS-facing control-register interface.

use mtlb_mem::GuestMemory;
use mtlb_types::{Fault, PhysAddr, RealAddr, PAGE_SIZE};

use crate::mtlb::Evicted;
use crate::stream::StreamBuffers;
use crate::{
    MmcStats, MmcTiming, Mtlb, MtlbConfig, ShadowPte, ShadowRange, StreamConfig, StreamStats,
};

/// A bus operation presented to the MMC.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BusOp {
    /// Cache fill for reading (shared).
    FillShared,
    /// Cache fill for writing (exclusive) — marks the base page dirty.
    FillExclusive,
    /// Writeback of a dirty line — also marks the base page dirty.
    Writeback,
}

/// The MMC's answer to a bus operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusResponse {
    /// The real DRAM address the operation was steered to (equal to the
    /// bus address for non-shadow operations).
    pub real_pa: RealAddr,
    /// MMC cycles consumed (convert with the machine's clock ratio).
    pub mmc_cycles: u64,
}

/// Static configuration of the memory controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmcConfig {
    /// Installed DRAM in bytes; bus addresses below this are real memory.
    pub installed_dram: u64,
    /// The shadow physical address range.
    pub shadow: ShadowRange,
    /// Real base address of the flat shadow-to-real mapping table
    /// (the paper's example places it at physical 0, §2.2).
    pub table_base: PhysAddr,
    /// MTLB geometry; `None` models the conventional (baseline) MMC.
    pub mtlb: Option<MtlbConfig>,
    /// Stream-buffer geometry (§6 extension); `None` (the paper's
    /// evaluation) fits no prefetcher.
    pub stream: Option<StreamConfig>,
    /// Latency parameters.
    pub timing: MmcTiming,
}

impl MmcConfig {
    /// The paper's MTLB-equipped configuration: 512 MB shadow at
    /// `0x8000_0000`, mapping table at physical 0, 128-entry 2-way MTLB.
    ///
    /// # Panics
    ///
    /// Panics when `installed_dram` collides with the shadow range or
    /// cannot hold the mapping table.
    #[must_use]
    pub fn paper_default(installed_dram: u64) -> Self {
        let cfg = MmcConfig {
            installed_dram,
            shadow: ShadowRange::paper_default(),
            table_base: PhysAddr::new(0),
            mtlb: Some(MtlbConfig::paper_default()),
            stream: None,
            timing: MmcTiming::paper_default(),
        };
        cfg.validate();
        cfg
    }

    /// The baseline system: same DRAM, no MTLB, no shadow translation.
    #[must_use]
    pub fn no_mtlb(installed_dram: u64) -> Self {
        let cfg = MmcConfig {
            installed_dram,
            shadow: ShadowRange::paper_default(),
            table_base: PhysAddr::new(0),
            mtlb: None,
            stream: None,
            timing: MmcTiming::paper_default(),
        };
        cfg.validate();
        cfg
    }

    /// Bytes of real memory the mapping table occupies (4 bytes per
    /// shadow page — 512 KB for the paper's 512 MB shadow space).
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        self.shadow.pages() * 4
    }

    fn validate(&self) {
        assert!(
            self.installed_dram > 0 && self.installed_dram.is_multiple_of(PAGE_SIZE),
            "installed DRAM must be a non-zero multiple of the page size"
        );
        assert!(
            self.shadow.base().get() >= self.installed_dram,
            "shadow range must lie above installed DRAM"
        );
        assert!(
            (self.table_base + self.table_bytes()).get() <= self.installed_dram,
            "mapping table must fit in installed DRAM"
        );
    }
}

/// The main memory controller model. See the [crate docs](crate) for the
/// architecture.
#[derive(Debug, Clone)]
pub struct Mmc {
    config: MmcConfig,
    mtlb: Option<Mtlb>,
    streams: Option<StreamBuffers>,
    stats: MmcStats,
}

impl Mmc {
    /// Creates a controller. The mapping table region of guest memory is
    /// assumed zeroed (all entries invalid).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (see [`MmcConfig`]).
    #[must_use]
    pub fn new(config: MmcConfig) -> Self {
        config.validate();
        Mmc {
            config,
            mtlb: config.mtlb.map(Mtlb::new),
            streams: config.stream.map(StreamBuffers::new),
            stats: MmcStats::default(),
        }
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> MmcConfig {
        self.config
    }

    /// Whether `pa` falls in the shadow physical range. Real addresses
    /// translate to themselves, so callers holding a non-shadow `pa` can
    /// skip [`translate_functional`](Self::translate_functional) entirely.
    #[inline]
    #[must_use]
    pub fn is_shadow(&self, pa: PhysAddr) -> bool {
        self.config.shadow.contains(pa)
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> MmcStats {
        self.stats
    }

    /// Stream-buffer counters (zeroes when no buffers are fitted).
    #[must_use]
    pub fn stream_stats(&self) -> StreamStats {
        self.streams.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// Resets counters (not MTLB contents).
    pub fn reset_stats(&mut self) {
        self.stats = MmcStats::default();
    }

    fn table_entry_addr(&self, index: u64) -> PhysAddr {
        self.config.table_base + index * 4
    }

    /// Reads a mapping entry straight from the in-memory table (no MTLB,
    /// no timing) — the hardware fill path and functional translation use
    /// this.
    fn table_read(&self, index: u64, mem: &GuestMemory) -> ShadowPte {
        ShadowPte::decode(mem.read_u32(self.table_entry_addr(index)))
    }

    fn table_write(&self, index: u64, pte: ShadowPte, mem: &mut GuestMemory) {
        mem.write_u32(self.table_entry_addr(index), pte.encode());
    }

    /// Merges referenced/dirty bits carried by an evicted MTLB entry back
    /// into the table. Functionally always performed; charged only when
    /// configured (§3.4 leaves it uncharged).
    fn merge_evicted(&mut self, ev: Evicted, mem: &mut GuestMemory) -> u64 {
        let mut table = self.table_read(ev.index, mem);
        let new_bits = (ev.pte.referenced && !table.referenced) || (ev.pte.dirty && !table.dirty);
        table.referenced |= ev.pte.referenced;
        table.dirty |= ev.pte.dirty;
        self.table_write(ev.index, table, mem);
        let charge = self
            .mtlb
            .as_ref()
            .map(|m| m.config().charge_bit_writeback)
            .unwrap_or(false);
        if charge && new_bits {
            self.config.timing.dram_access
        } else {
            0
        }
    }

    /// Services a cache fill or writeback arriving on the bus.
    ///
    /// Returns the real address the operation resolves to plus the MMC
    /// cycles it consumed.
    ///
    /// # Errors
    ///
    /// * [`Fault::ShadowPageFault`] when a shadow page's backing frame is
    ///   absent (valid bit clear) — the precise fault of §4.
    /// * [`Fault::BusError`] for addresses in neither DRAM nor the shadow
    ///   range, or for shadow addresses on a machine without an MTLB.
    pub fn bus_access(
        &mut self,
        pa: PhysAddr,
        op: BusOp,
        mem: &mut GuestMemory,
    ) -> Result<BusResponse, Fault> {
        let t = self.config.timing;
        let mut cycles = t.bus_request;
        if self.mtlb.is_some() {
            // The paper's conservative assumption: +1 MMC cycle on every
            // operation for shadow/real classification.
            cycles += t.shadow_detect;
        }

        let real_pa = if let Some(sa) = self.config.shadow.classify(pa) {
            let index = self.config.shadow.page_index(sa);
            let table = self.table_entry_addr(index);
            let Some(mtlb) = self.mtlb.as_mut() else {
                self.stats.bus_errors = self.stats.bus_errors.saturating_add(1);
                return Err(Fault::BusError { pa });
            };
            self.stats.shadow_ops = self.stats.shadow_ops.saturating_add(1);
            // A miss is a hardware fill: one DRAM read of the flat table.
            let (entry, fill) =
                mtlb.lookup_or_fill(index, || ShadowPte::decode(mem.read_u32(table)));
            let valid = entry.valid;
            if valid {
                entry.referenced = true;
                if matches!(op, BusOp::FillExclusive | BusOp::Writeback) {
                    entry.dirty = true;
                }
            }
            let rpfn = entry.rpfn;
            match fill {
                None => self.stats.mtlb_hits = self.stats.mtlb_hits.saturating_add(1),
                Some(evicted) => {
                    self.stats.mtlb_misses = self.stats.mtlb_misses.saturating_add(1);
                    cycles += t.mtlb_fill;
                    if let Some(ev) = evicted {
                        cycles += self.merge_evicted(ev, mem);
                    }
                }
            }
            if !valid {
                self.stats.shadow_faults = self.stats.shadow_faults.saturating_add(1);
                return Err(Fault::ShadowPageFault { shadow: sa });
            }
            rpfn.base_addr() + pa.page_offset()
        } else if pa.get() < self.config.installed_dram {
            self.stats.real_ops = self.stats.real_ops.saturating_add(1);
            pa
        } else {
            self.stats.bus_errors = self.stats.bus_errors.saturating_add(1);
            return Err(Fault::BusError { pa });
        };

        match op {
            BusOp::FillShared | BusOp::FillExclusive => {
                // §6 extension: a fill whose real line sits at a stream
                // buffer head skips the DRAM access.
                let stream_hit = self
                    .streams
                    .as_mut()
                    .is_some_and(|sb| sb.demand_fill(real_pa));
                cycles += if stream_hit {
                    t.stream_hit + t.line_transfer
                } else {
                    t.dram_access + t.line_transfer
                };
                if matches!(op, BusOp::FillShared) {
                    self.stats.fills_shared = self.stats.fills_shared.saturating_add(1);
                } else {
                    self.stats.fills_exclusive = self.stats.fills_exclusive.saturating_add(1);
                }
                self.stats.fill_mmc_cycles = self.stats.fill_mmc_cycles.saturating_add(cycles);
                self.stats.fill_hist.record(cycles);
            }
            BusOp::Writeback => {
                // Posted: the CPU sees only the bus occupancy.
                cycles += t.writeback_issue;
                self.stats.writebacks = self.stats.writebacks.saturating_add(1);
            }
        }

        Ok(BusResponse {
            real_pa,
            mmc_cycles: cycles,
        })
    }

    /// Translates a bus address to a real address with **no timing or
    /// statistics side effects** — the functional path the simulator uses
    /// to move actual data on cache *hits* (where real hardware would
    /// find the data in the cache and never consult the MMC).
    ///
    /// # Errors
    ///
    /// Same faults as [`bus_access`](Self::bus_access).
    pub fn translate_functional(&self, pa: PhysAddr, mem: &GuestMemory) -> Result<RealAddr, Fault> {
        if let Some(sa) = self.config.shadow.classify(pa) {
            if self.mtlb.is_none() {
                return Err(Fault::BusError { pa });
            }
            let index = self.config.shadow.page_index(sa);
            // Cached MTLB bits never change the *translation*, so reading
            // the table is sufficient here.
            let pte = self.table_read(index, mem);
            if !pte.valid {
                return Err(Fault::ShadowPageFault { shadow: sa });
            }
            Ok(pte.rpfn.base_addr() + pa.page_offset())
        } else if pa.get() < self.config.installed_dram {
            Ok(pa)
        } else {
            Err(Fault::BusError { pa })
        }
    }

    /// OS control-register write establishing (or replacing) the mapping
    /// for shadow page `index` (§2.4: "initialized via uncached writes by
    /// the kernel to a special MMC control register").
    ///
    /// Any cached MTLB entry is invalidated first, its accumulated bits
    /// merged into the table *before* the overwrite (so the OS can read
    /// them back until the moment it replaces the mapping).
    ///
    /// Returns MMC cycles consumed.
    pub fn set_mapping(&mut self, index: u64, pte: ShadowPte, mem: &mut GuestMemory) -> u64 {
        assert!(
            index < self.config.shadow.pages(),
            "shadow page index out of range"
        );
        self.stats.control_ops = self.stats.control_ops.saturating_add(1);
        let mut cycles = self.config.timing.control_op;
        if let Some(mtlb) = self.mtlb.as_mut() {
            if let Some(ev) = mtlb.invalidate(index) {
                cycles += self.merge_evicted(ev, mem);
            }
        }
        // Prefetched lines of the frame being unmapped are stale.
        if self.streams.is_some() {
            let old = self.table_read(index, mem);
            if let (true, Some(sb)) = (old.valid, self.streams.as_mut()) {
                sb.invalidate_page(old.rpfn.base_addr());
            }
        }
        self.table_write(index, pte, mem);
        cycles
    }

    /// OS read of the current mapping entry, *coherent* with any bits
    /// accumulated in the MTLB (models a control-register read that
    /// snoops the MTLB). Returns the entry and the MMC cycles consumed.
    pub fn read_mapping(&mut self, index: u64, mem: &mut GuestMemory) -> (ShadowPte, u64) {
        assert!(
            index < self.config.shadow.pages(),
            "shadow page index out of range"
        );
        self.stats.control_ops = self.stats.control_ops.saturating_add(1);
        let mut pte = self.table_read(index, mem);
        if let Some(mtlb) = self.mtlb.as_mut() {
            if let Some(cached) = mtlb.probe(index) {
                pte.referenced |= cached.referenced;
                pte.dirty |= cached.dirty;
            }
        }
        (pte, self.config.timing.control_op)
    }

    /// OS control operation clearing the referenced and/or dirty bits of
    /// one shadow page (CLOCK hand sweep, post-clean bookkeeping).
    /// Returns MMC cycles consumed.
    pub fn clear_bits(
        &mut self,
        index: u64,
        clear_referenced: bool,
        clear_dirty: bool,
        mem: &mut GuestMemory,
    ) -> u64 {
        self.stats.control_ops = self.stats.control_ops.saturating_add(1);
        let mut pte = self.table_read(index, mem);
        if clear_referenced {
            pte.referenced = false;
        }
        if clear_dirty {
            pte.dirty = false;
        }
        self.table_write(index, pte, mem);
        if let Some(mtlb) = self.mtlb.as_mut() {
            if let Some(cached) = mtlb.lookup(index) {
                if clear_referenced {
                    cached.referenced = false;
                }
                if clear_dirty {
                    cached.dirty = false;
                }
            }
        }
        self.config.timing.control_op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_types::Ppn;

    const DRAM: u64 = 64 << 20;

    fn setup() -> (Mmc, GuestMemory) {
        (
            Mmc::new(MmcConfig::paper_default(DRAM)),
            GuestMemory::new(DRAM),
        )
    }

    fn shadow_pa(offset: u64) -> PhysAddr {
        PhysAddr::new(0x8000_0000 + offset)
    }

    #[test]
    fn real_address_passes_through() {
        let (mut mmc, mut mem) = setup();
        let resp = mmc
            .bus_access(PhysAddr::new(0x12340), BusOp::FillShared, &mut mem)
            .unwrap();
        assert_eq!(resp.real_pa, PhysAddr::new(0x12340));
        // bus_request(4) + shadow_detect(1) + dram(20) + transfer(4) = 29.
        assert_eq!(resp.mmc_cycles, 29);
        assert_eq!(mmc.stats().real_ops, 1);
    }

    #[test]
    fn no_mtlb_system_skips_detect_penalty() {
        let mut mmc = Mmc::new(MmcConfig::no_mtlb(DRAM));
        let mut mem = GuestMemory::new(DRAM);
        let resp = mmc
            .bus_access(PhysAddr::new(0x12340), BusOp::FillShared, &mut mem)
            .unwrap();
        assert_eq!(resp.mmc_cycles, 28, "28 = base fill with no detect cycle");
    }

    #[test]
    fn shadow_fill_translates_and_costs_mtlb_fill_on_miss() {
        let (mut mmc, mut mem) = setup();
        mmc.set_mapping(0x240, ShadowPte::present(Ppn::new(0x4013)), &mut mem);
        // Figure 1's second example: shadow 0x80240040-ish.
        let resp = mmc
            .bus_access(shadow_pa(0x24_0040), BusOp::FillShared, &mut mem)
            .unwrap();
        assert_eq!(resp.real_pa, PhysAddr::new(0x0401_3040));
        // 29 + mtlb_fill(12) = 41 on the miss...
        assert_eq!(resp.mmc_cycles, 41);
        // ...and 29 on the subsequent hit.
        let resp2 = mmc
            .bus_access(shadow_pa(0x24_0080), BusOp::FillShared, &mut mem)
            .unwrap();
        assert_eq!(resp2.mmc_cycles, 29);
        assert_eq!(mmc.stats().mtlb_misses, 1);
        assert_eq!(mmc.stats().mtlb_hits, 1);
        assert_eq!(mmc.stats().shadow_ops, 2);
    }

    #[test]
    fn unmapped_shadow_page_faults() {
        let (mut mmc, mut mem) = setup();
        let err = mmc
            .bus_access(shadow_pa(0x5000), BusOp::FillShared, &mut mem)
            .unwrap_err();
        assert!(matches!(err, Fault::ShadowPageFault { .. }));
        assert_eq!(mmc.stats().shadow_faults, 1);
    }

    #[test]
    fn swapped_out_page_faults_with_fault_bit_visible() {
        let (mut mmc, mut mem) = setup();
        mmc.set_mapping(7, ShadowPte::swapped_out(), &mut mem);
        let err = mmc
            .bus_access(shadow_pa(7 * 4096), BusOp::FillShared, &mut mem)
            .unwrap_err();
        assert!(matches!(err, Fault::ShadowPageFault { .. }));
        let (pte, _) = mmc.read_mapping(7, &mut mem);
        assert!(
            pte.fault,
            "OS can distinguish a swapped page from a wild access"
        );
    }

    #[test]
    fn shadow_access_without_mtlb_is_a_bus_error() {
        let mut mmc = Mmc::new(MmcConfig::no_mtlb(DRAM));
        let mut mem = GuestMemory::new(DRAM);
        let err = mmc
            .bus_access(shadow_pa(0), BusOp::FillShared, &mut mem)
            .unwrap_err();
        assert!(matches!(err, Fault::BusError { .. }));
    }

    #[test]
    fn wild_address_is_a_bus_error() {
        let (mut mmc, mut mem) = setup();
        let err = mmc
            .bus_access(PhysAddr::new(0xF000_0000), BusOp::FillShared, &mut mem)
            .unwrap_err();
        assert!(matches!(err, Fault::BusError { .. }));
        assert_eq!(mmc.stats().bus_errors, 1);
    }

    #[test]
    fn exclusive_fill_and_writeback_set_dirty_bit() {
        let (mut mmc, mut mem) = setup();
        mmc.set_mapping(1, ShadowPte::present(Ppn::new(0x100)), &mut mem);
        mmc.set_mapping(2, ShadowPte::present(Ppn::new(0x101)), &mut mem);

        mmc.bus_access(shadow_pa(4096), BusOp::FillExclusive, &mut mem)
            .unwrap();
        let (pte1, _) = mmc.read_mapping(1, &mut mem);
        assert!(pte1.referenced && pte1.dirty);

        mmc.bus_access(shadow_pa(2 * 4096), BusOp::FillShared, &mut mem)
            .unwrap();
        let (pte2, _) = mmc.read_mapping(2, &mut mem);
        assert!(pte2.referenced && !pte2.dirty);

        mmc.bus_access(shadow_pa(2 * 4096), BusOp::Writeback, &mut mem)
            .unwrap();
        let (pte2, _) = mmc.read_mapping(2, &mut mem);
        assert!(pte2.dirty, "writebacks mark the base page dirty (§2.5)");
    }

    #[test]
    fn per_base_page_bits_within_one_superpage_are_independent() {
        // The paper's headline §2.5 property: a superpage's pages keep
        // individual dirty bits.
        let (mut mmc, mut mem) = setup();
        for i in 0..4 {
            mmc.set_mapping(i, ShadowPte::present(Ppn::new(0x200 + i)), &mut mem);
        }
        // Dirty only page 2 of the "superpage".
        mmc.bus_access(shadow_pa(2 * 4096 + 64), BusOp::FillExclusive, &mut mem)
            .unwrap();
        for i in 0..4 {
            let (pte, _) = mmc.read_mapping(i, &mut mem);
            assert_eq!(pte.dirty, i == 2, "only page 2 is dirty");
        }
    }

    #[test]
    fn bits_survive_mtlb_eviction() {
        // Tiny direct-mapped MTLB so evictions are easy to force.
        let mut cfg = MmcConfig::paper_default(DRAM);
        cfg.mtlb = Some(MtlbConfig {
            entries: 2,
            assoc: 1,
            charge_bit_writeback: false,
        });
        let mut mmc = Mmc::new(cfg);
        let mut mem = GuestMemory::new(DRAM);
        mmc.set_mapping(0, ShadowPte::present(Ppn::new(0x300)), &mut mem);
        mmc.set_mapping(2, ShadowPte::present(Ppn::new(0x301)), &mut mem);
        mmc.bus_access(shadow_pa(0), BusOp::FillExclusive, &mut mem)
            .unwrap();
        // Index 2 maps to the same set (2 sets, index % 2 == 0): evicts 0.
        mmc.bus_access(shadow_pa(2 * 4096), BusOp::FillShared, &mut mem)
            .unwrap();
        // The dirty bit must have been merged into the in-memory table.
        let raw = ShadowPte::decode(mem.read_u32(PhysAddr::new(0)));
        assert!(raw.dirty && raw.referenced);
    }

    #[test]
    fn clear_bits_resets_table_and_cached_entry() {
        let (mut mmc, mut mem) = setup();
        mmc.set_mapping(3, ShadowPte::present(Ppn::new(0x500)), &mut mem);
        mmc.bus_access(shadow_pa(3 * 4096), BusOp::FillExclusive, &mut mem)
            .unwrap();
        mmc.clear_bits(3, true, true, &mut mem);
        let (pte, _) = mmc.read_mapping(3, &mut mem);
        assert!(!pte.referenced && !pte.dirty);
    }

    #[test]
    fn functional_translation_matches_timed_path() {
        let (mut mmc, mut mem) = setup();
        mmc.set_mapping(0x240, ShadowPte::present(Ppn::new(0x4013)), &mut mem);
        let f = mmc
            .translate_functional(shadow_pa(0x24_0080), &mem)
            .unwrap();
        let t = mmc
            .bus_access(shadow_pa(0x24_0080), BusOp::FillShared, &mut mem)
            .unwrap();
        assert_eq!(f, t.real_pa);
        assert_eq!(
            mmc.translate_functional(PhysAddr::new(0x40), &mem).unwrap(),
            PhysAddr::new(0x40)
        );
        assert!(mmc
            .translate_functional(shadow_pa(0x100_0000), &mem)
            .is_err());
    }

    #[test]
    fn set_mapping_invalidates_stale_mtlb_entry() {
        let (mut mmc, mut mem) = setup();
        mmc.set_mapping(5, ShadowPte::present(Ppn::new(0x111)), &mut mem);
        mmc.bus_access(shadow_pa(5 * 4096), BusOp::FillShared, &mut mem)
            .unwrap();
        // Remap to a different frame; the cached entry must not be used.
        mmc.set_mapping(5, ShadowPte::present(Ppn::new(0x222)), &mut mem);
        let resp = mmc
            .bus_access(shadow_pa(5 * 4096 + 8), BusOp::FillShared, &mut mem)
            .unwrap();
        assert_eq!(resp.real_pa, PhysAddr::new(0x222 << 12 | 8));
        assert_eq!(mmc.stats().mtlb_misses, 2, "remap forces a refill");
    }

    #[test]
    fn writeback_timing_is_cheap_and_uncounted_as_fill() {
        let (mut mmc, mut mem) = setup();
        mmc.set_mapping(1, ShadowPte::present(Ppn::new(0x100)), &mut mem);
        mmc.bus_access(shadow_pa(4096), BusOp::FillShared, &mut mem)
            .unwrap();
        let fills_before = mmc.stats().fills();
        let cycles_before = mmc.stats().fill_mmc_cycles;
        let resp = mmc
            .bus_access(shadow_pa(4096 + 32), BusOp::Writeback, &mut mem)
            .unwrap();
        // bus_request(4) + detect(1) + writeback_issue(4) = 9 (MTLB hit).
        assert_eq!(resp.mmc_cycles, 9);
        assert_eq!(mmc.stats().fills(), fills_before);
        assert_eq!(mmc.stats().fill_mmc_cycles, cycles_before);
        assert_eq!(mmc.stats().writebacks, 1);
    }

    #[test]
    #[should_panic(expected = "above installed DRAM")]
    fn shadow_overlapping_dram_rejected() {
        let _ = MmcConfig::paper_default(4 << 30);
    }

    #[test]
    fn avg_fill_cycles_reflects_mtlb_misses() {
        let (mut mmc, mut mem) = setup();
        for i in 0..8u64 {
            mmc.set_mapping(i, ShadowPte::present(Ppn::new(0x600 + i)), &mut mem);
        }
        // 8 distinct pages: all MTLB misses -> avg = 41.
        for i in 0..8u64 {
            mmc.bus_access(shadow_pa(i * 4096), BusOp::FillShared, &mut mem)
                .unwrap();
        }
        assert!((mmc.stats().avg_fill_mmc_cycles() - 41.0).abs() < 1e-9);
        // 8 more fills to the same pages at different lines: all hits.
        for i in 0..8u64 {
            mmc.bus_access(shadow_pa(i * 4096 + 64), BusOp::FillShared, &mut mem)
                .unwrap();
        }
        assert!((mmc.stats().avg_fill_mmc_cycles() - 35.0).abs() < 1e-9);
    }
}
