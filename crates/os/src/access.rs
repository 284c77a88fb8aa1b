//! Timed kernel memory access.
//!
//! Kernel code runs under the locked identity block mapping (VA = PA), so
//! its data accesses skip the CPU TLB but still travel the normal
//! cache → bus → MMC path, paying real cycles. [`TimedMem`] bundles the
//! memory-system components and accumulates the CPU cycles consumed; it
//! implements [`PteMemory`] so hashed-page-table walks (software TLB miss
//! handling) and updates are charged faithfully — including the §3.5
//! effect that hot PTEs hit in the data cache.

use mtlb_cache::{AccessResult, DataCache, FillKind};
use mtlb_mem::GuestMemory;
use mtlb_mmc::{BusOp, Mmc};
use mtlb_tlb::PteMemory;
use mtlb_types::{Cycles, PhysAddr, VirtAddr};

/// A borrowed view of the memory system performing kernel-privilege,
/// identity-mapped, *timed* accesses.
#[derive(Debug)]
pub struct TimedMem<'a> {
    /// The data cache (kernel PTE traffic is cached like anything else).
    pub cache: &'a mut DataCache,
    /// The memory controller.
    pub mmc: &'a mut Mmc,
    /// Backing DRAM.
    pub mem: &'a mut GuestMemory,
    /// CPU cycles accumulated by accesses made through this view.
    pub cycles: Cycles,
}

impl<'a> TimedMem<'a> {
    /// Creates a view with a zeroed cycle accumulator.
    pub fn new(cache: &'a mut DataCache, mmc: &'a mut Mmc, mem: &'a mut GuestMemory) -> Self {
        TimedMem {
            cache,
            mmc,
            mem,
            cycles: Cycles::ZERO,
        }
    }

    /// Charges the cache/bus/MMC cost of one kernel access to `pa`
    /// (identity-mapped, physically addressed).
    ///
    /// # Panics
    ///
    /// Panics if kernel memory faults — kernel structures always live in
    /// real DRAM, so a fault is a simulator bug.
    pub fn charge_access(&mut self, pa: PhysAddr, write: bool) {
        // Every access costs at least the single-cycle cache pipeline.
        self.cycles += Cycles::new(1);
        let va = VirtAddr::new(pa.get()); // identity block mapping
        let result = if write {
            self.cache.access_write(va, pa)
        } else {
            self.cache.access_read(va, pa)
        };
        if let AccessResult::Miss { fill, writeback } = result {
            if let Some(victim) = writeback {
                #[expect(
                    clippy::expect_used,
                    reason = "Structure invariant: writebacks target frames the kernel just validated; a shadow fault here would mean the resident set lied."
                )]
                let resp = self
                    .mmc
                    .bus_access(victim, BusOp::Writeback, self.mem)
                    .expect("victim writeback cannot fault");
                self.cycles += Cycles::from_bus_cycles(resp.mmc_cycles);
            }
            let op = match fill {
                FillKind::Shared => BusOp::FillShared,
                FillKind::Exclusive => BusOp::FillExclusive,
            };
            #[expect(
                clippy::expect_used,
                reason = "Structure invariant: kernel structures live in identity-mapped real memory below the shadow window."
            )]
            let resp = self
                .mmc
                .bus_access(pa, op, self.mem)
                .expect("kernel memory never faults");
            self.cycles += Cycles::from_bus_cycles(resp.mmc_cycles);
        }
    }

    /// Takes the accumulated cycles, resetting the accumulator.
    pub fn take_cycles(&mut self) -> Cycles {
        std::mem::replace(&mut self.cycles, Cycles::ZERO)
    }
}

impl PteMemory for TimedMem<'_> {
    fn read_u64(&mut self, pa: PhysAddr) -> u64 {
        self.charge_access(pa, false);
        self.mem.read_u64(pa)
    }

    fn write_u64(&mut self, pa: PhysAddr, value: u64) {
        self.charge_access(pa, true);
        self.mem.write_u64(pa, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_cache::CacheConfig;
    use mtlb_mmc::MmcConfig;

    const DRAM: u64 = 64 << 20;

    struct Rig {
        cache: DataCache,
        mmc: Mmc,
        mem: GuestMemory,
    }

    fn rig() -> Rig {
        Rig {
            cache: DataCache::new(CacheConfig::paper_default()),
            mmc: Mmc::new(MmcConfig::paper_default(DRAM)),
            mem: GuestMemory::new(DRAM),
        }
    }

    #[test]
    fn cold_read_pays_fill_then_hits_are_single_cycle() {
        let mut r = rig();
        let mut tm = TimedMem::new(&mut r.cache, &mut r.mmc, &mut r.mem);
        let pa = PhysAddr::new(0x8_0000);
        let _ = tm.read_u64(pa);
        // 1 (cache) + 29 MMC cycles * 2 = 59 CPU cycles.
        assert_eq!(tm.take_cycles(), Cycles::new(59));
        let _ = tm.read_u64(pa);
        assert_eq!(tm.take_cycles(), Cycles::new(1));
    }

    #[test]
    fn writes_functionally_update_memory() {
        let mut r = rig();
        let mut tm = TimedMem::new(&mut r.cache, &mut r.mmc, &mut r.mem);
        tm.write_u64(PhysAddr::new(0x9_0000), 0xfeed);
        assert_eq!(tm.read_u64(PhysAddr::new(0x9_0000)), 0xfeed);
        assert_eq!(r.mem.read_u64(PhysAddr::new(0x9_0000)), 0xfeed);
    }

    #[test]
    fn conflicting_kernel_lines_produce_writebacks() {
        let mut r = rig();
        let mut tm = TimedMem::new(&mut r.cache, &mut r.mmc, &mut r.mem);
        let a = PhysAddr::new(0x10_0000);
        let b = PhysAddr::new(0x10_0000 + 512 * 1024); // same index, different tag
        tm.write_u64(a, 1);
        let _ = tm.take_cycles();
        let _ = tm.read_u64(b); // evicts dirty a -> writeback + fill
                                // 1 + writeback(4+1+4=9 MMC -> 18) + fill(29 MMC -> 58) = 77.
        assert_eq!(tm.take_cycles(), Cycles::new(77));
    }
}
