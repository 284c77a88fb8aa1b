//! Property-based tests over the core invariants.
//!
//! The headline property: a machine with shadow superpages and one
//! without are *functionally indistinguishable* — any program observes
//! identical memory contents; only the cycle counts differ.

use proptest::prelude::*;

use mtlb_mem::GuestMemory;
use mtlb_mmc::ShadowRange;
use mtlb_os::{BuddyAllocator, ShadowAllocator};
use mtlb_sim::{Machine, MachineConfig};
use mtlb_tlb::{HashedPageTable, HptConfig, Pte, PteMemory};
use mtlb_types::{PageSize, PhysAddr, Ppn, Prot, ShadowAddr, VirtAddr, Vpn, PAGE_SIZE};
use mtlb_workloads::AccessExt;

/// Flat backing store for model-testing the hashed page table.
struct FlatMem(GuestMemory);

impl PteMemory for FlatMem {
    fn read_u64(&mut self, pa: PhysAddr) -> u64 {
        self.0.read_u64(pa)
    }
    fn write_u64(&mut self, pa: PhysAddr, value: u64) {
        self.0.write_u64(pa, value);
    }
}

const BASE: u64 = 0x1000_0000;
const REGION_PAGES: u64 = 40;

/// One step of a random memory program.
#[derive(Clone, Debug)]
enum Op {
    Write { page: u64, offset: u64, value: u64 },
    Read { page: u64, offset: u64 },
    Remap,
    Demote,
    SwapOut,
    Execute(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..REGION_PAGES, 0..(PAGE_SIZE / 8), any::<u64>())
            .prop_map(|(page, slot, value)| Op::Write { page, offset: slot * 8, value }),
        4 => (0..REGION_PAGES, 0..(PAGE_SIZE / 8))
            .prop_map(|(page, slot)| Op::Read { page, offset: slot * 8 }),
        1 => Just(Op::Remap),
        1 => Just(Op::Demote),
        1 => Just(Op::SwapOut),
        1 => any::<u16>().prop_map(Op::Execute),
    ]
}

/// Runs the program and returns the log of every read's value plus a
/// final full-region snapshot.
fn run_program(ops: &[Op], cfg: MachineConfig) -> (Vec<u64>, Vec<u64>) {
    let mut m = Machine::new(cfg);
    let base = VirtAddr::new(BASE);
    m.map_region(base, REGION_PAGES * PAGE_SIZE, Prot::RW);
    let mut observed = Vec::new();
    let mut remapped = false;
    for op in ops {
        match op {
            Op::Write {
                page,
                offset,
                value,
            } => {
                m.write_u64(base + page * PAGE_SIZE + *offset, *value);
            }
            Op::Read { page, offset } => {
                observed.push(m.read_u64(base + page * PAGE_SIZE + *offset));
            }
            Op::Remap => {
                if !remapped {
                    m.remap(base, REGION_PAGES * PAGE_SIZE);
                    remapped = true;
                }
            }
            Op::Demote => {
                if m.config().kernel.use_superpages
                    && m.kernel().aspace().superpage_of(base.vpn()).is_some()
                {
                    m.demote_superpage(base.vpn());
                    remapped = false;
                }
            }
            Op::SwapOut => {
                if remapped
                    && m.config().kernel.use_superpages
                    && m.kernel().aspace().superpage_of(base.vpn()).is_some()
                {
                    m.swap_out_superpage(base.vpn());
                }
            }
            Op::Execute(n) => m.execute(u64::from(*n)),
        }
    }
    let snapshot = (0..REGION_PAGES)
        .map(|p| m.read_u64(base + p * PAGE_SIZE))
        .collect();
    (observed, snapshot)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Functional equivalence: shadow machinery never changes what a
    /// program reads, under any interleaving of writes, reads, remaps,
    /// demotions and swap-outs.
    #[test]
    fn shadow_machinery_is_functionally_transparent(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let (reads_mtlb, snap_mtlb) = run_program(&ops, MachineConfig::paper_mtlb(16));
        let (reads_base, snap_base) = run_program(&ops, MachineConfig::paper_base(16));
        prop_assert_eq!(reads_mtlb, reads_base);
        prop_assert_eq!(snap_mtlb, snap_base);
    }

    /// Determinism: the same program on the same machine gives identical
    /// cycle counts.
    #[test]
    fn cycle_counts_are_deterministic(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let run = || {
            let mut m = Machine::new(MachineConfig::paper_mtlb(16));
            let base = VirtAddr::new(BASE);
            m.map_region(base, REGION_PAGES * PAGE_SIZE, Prot::RW);
            for op in &ops {
                match op {
                    Op::Write { page, offset, value } => {
                        m.write_u64(base + page * PAGE_SIZE + *offset, *value)
                    }
                    Op::Read { page, offset } => {
                        let _ = m.read_u64(base + page * PAGE_SIZE + *offset);
                    }
                    Op::Execute(n) => m.execute(u64::from(*n)),
                    _ => {}
                }
            }
            m.cycles()
        };
        prop_assert_eq!(run(), run());
    }

    /// Buddy allocator: allocations never overlap, stay aligned, and
    /// freeing everything restores the single maximal block.
    #[test]
    fn buddy_never_overlaps_and_recombines(
        reqs in proptest::collection::vec(0usize..6, 1..60)
    ) {
        let range = ShadowRange::new(PhysAddr::new(0x8000_0000), 64 << 20);
        let mut buddy = BuddyAllocator::new(range);
        let mut live: Vec<(ShadowAddr, PageSize)> = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            let size = PageSize::SUPERPAGES[*r];
            if i % 3 == 2 && !live.is_empty() {
                let (addr, size) = live.swap_remove(i % live.len());
                buddy.free(addr, size);
                continue;
            }
            if let Some(addr) = buddy.alloc(size) {
                prop_assert!(addr.is_aligned(size.bytes()), "unaligned {addr} for {size}");
                for (other, osize) in &live {
                    let a0 = addr.get();
                    let a1 = a0 + size.bytes();
                    let b0 = other.get();
                    let b1 = b0 + osize.bytes();
                    prop_assert!(a1 <= b0 || b1 <= a0, "overlap {addr}/{size} vs {other}/{osize}");
                }
                live.push((addr, size));
            }
        }
        for (addr, size) in live.drain(..) {
            buddy.free(addr, size);
        }
        prop_assert_eq!(buddy.available(PageSize::Size16M), 4, "full recombination of 64 MB");
    }

    /// Hashed page table vs a HashMap model: any interleaving of inserts
    /// (new entries and in-place updates) and lookups agrees with the
    /// model (collision chains included).
    #[test]
    fn hashed_page_table_matches_model(
        ops in proptest::collection::vec((0u8..2, 0u64..200), 1..300)
    ) {
        let mut hpt = HashedPageTable::new(HptConfig {
            base: PhysAddr::new(0x10_0000),
            // Tiny bucket count so chains are exercised hard.
            buckets: 16,
            overflow_slots: 256,
        });
        let mut mem = FlatMem(GuestMemory::new(4 << 20));
        let mut model: std::collections::HashMap<u64, u64> =
            std::collections::HashMap::new();
        for (op, key) in ops {
            let vpn = Vpn::new(0x4_0000 + key);
            match op {
                0 => {
                    let pfn = Ppn::new(0x100 + key * 3);
                    if hpt.insert(
                        Pte { vpn, pfn, size: PageSize::Base4K, prot: Prot::RW },
                        &mut mem,
                    ).is_ok() {
                        model.insert(vpn.index(), pfn.index());
                    }
                }
                _ => {
                    let got = hpt.lookup(vpn, &mut mem).pte.map(|p| p.pfn.index());
                    prop_assert_eq!(got, model.get(&vpn.index()).copied());
                }
            }
        }
        // Final sweep: every model entry resolves, nothing extra does.
        for (k, v) in &model {
            let got = hpt.lookup(Vpn::new(*k), &mut mem).pte.map(|p| p.pfn.index());
            prop_assert_eq!(got, Some(*v));
        }
    }

    /// Address arithmetic: align_down ≤ addr ≤ align_up, both aligned,
    /// and offsets within any page size reconstruct the address.
    #[test]
    fn address_alignment_laws(raw in 0u64..(1 << 40), size_idx in 0usize..7) {
        let size = PageSize::ALL[size_idx];
        let addr = VirtAddr::new(raw);
        let down = addr.align_down(size.bytes());
        prop_assert!(down <= addr);
        prop_assert!(down.is_aligned(size.bytes()));
        prop_assert_eq!(down + addr.offset_in(size), addr);
        let up = addr.align_up(size.bytes());
        prop_assert!(up >= addr);
        prop_assert!(up.is_aligned(size.bytes()));
        prop_assert!(up.offset_from(down) <= size.bytes());
    }
}
