//! Cross-crate semantic tests of the shadow-superpage mechanism itself:
//! remap/demote round trips, per-base-page bits, fault transparency and
//! swap integrity, exercised through the full machine.

use mtlb_os::PagingPolicy;
use mtlb_sim::{Machine, MachineConfig};
use mtlb_types::{PageSize, Prot, VirtAddr, PAGE_SIZE};
use mtlb_workloads::AccessExt;

const BASE: VirtAddr = VirtAddr::new(0x1000_0000);

fn filled_machine(len: u64) -> Machine {
    let mut m = Machine::new(MachineConfig::paper_mtlb(64));
    m.map_region(BASE, len, Prot::RW);
    for off in (0..len).step_by(512) {
        m.write::<u64>(BASE + off, off ^ 0xfeed);
    }
    m
}

fn assert_contents(m: &mut Machine, len: u64) {
    for off in (0..len).step_by(512) {
        assert_eq!(
            m.read::<u64>(BASE + off),
            off ^ 0xfeed,
            "at offset {off:#x}"
        );
    }
}

#[test]
fn remap_demote_remap_preserves_data() {
    let len = 256 * 1024;
    let mut m = filled_machine(len);
    for _ in 0..3 {
        let rep = m.remap(BASE, len);
        assert_eq!(rep.superpages.len(), 1);
        assert_contents(&mut m, len);
        m.demote_superpage(BASE.vpn());
        assert_contents(&mut m, len);
    }
}

#[test]
fn swap_cycle_preserves_data_per_base_page() {
    let len = 64 * 1024;
    let mut m = filled_machine(len);
    m.remap(BASE, len);
    // Host-side model of the first word of every page.
    let mut model: Vec<u64> = (0..16u64).map(|p| (p * PAGE_SIZE) ^ 0xfeed).collect();
    for round in 0..3u64 {
        // Dirty a rotating subset.
        for p in 0..16u64 {
            if p % 3 == round % 3 {
                m.write::<u64>(BASE + p * PAGE_SIZE, p * 1000 + round);
                model[p as usize] = p * 1000 + round;
            }
        }
        m.swap_out_superpage(BASE.vpn());
        // Everything faults back correctly on demand.
        for p in 0..16u64 {
            assert_eq!(
                m.read::<u64>(BASE + p * PAGE_SIZE),
                model[p as usize],
                "page {p} after round {round}"
            );
        }
    }
}

#[test]
fn swap_cycle_preserves_data_whole_superpage() {
    let len = 64 * 1024;
    let mut cfg = MachineConfig::paper_mtlb(64);
    cfg.kernel.paging = PagingPolicy::WholeSuperpage;
    let mut m = Machine::new(cfg);
    m.map_region(BASE, len, Prot::RW);
    for p in 0..16u64 {
        m.write::<u64>(BASE + p * PAGE_SIZE, p + 7);
    }
    m.remap(BASE, len);
    m.swap_out_superpage(BASE.vpn());
    for p in 0..16u64 {
        assert_eq!(m.read::<u64>(BASE + p * PAGE_SIZE), p + 7);
    }
    // One fault brought the whole superpage back.
    assert_eq!(m.kernel().stats().shadow_faults_serviced, 1);
}

/// A conventional-paging machine with 96 user frames, holding 64 KB
/// superpages at `BASE + i * 64 KB` for `i < superpages`, each with
/// `i + 1` in its first word; then every free frame plus one is mapped,
/// so CLOCK evicts one of them whole.
fn conventional_machine_under_pressure(superpages: u64) -> Machine {
    let len = 64 * 1024;
    let mut cfg = MachineConfig::paper_mtlb(64).with_dram((16 << 20) + 96 * PAGE_SIZE);
    cfg.kernel.paging = PagingPolicy::WholeSuperpage;
    let mut m = Machine::new(cfg);
    for i in 0..superpages {
        let at = BASE + i * len;
        m.map_region(at, len, Prot::RW);
        m.remap(at, len);
        m.write::<u64>(at, i + 1);
    }
    let free = m.kernel().free_frames();
    m.map_region(BASE + (1 << 20), (free + 1) * PAGE_SIZE, Prot::RW);
    assert!(m.kernel().stats().pages_swapped_out >= 16);
    m
}

#[test]
fn clock_eviction_of_a_conventional_superpage_drops_its_tlb_entry() {
    // Paging a conventional superpage out removes its translation, so
    // the next access misses in the TLB before it faults the page in —
    // whether the eviction was asked for or made by CLOCK.
    let mut m = conventional_machine_under_pressure(2);
    let mut faulted = 0;
    for i in 0..2u64 {
        let before = m.kernel().stats();
        assert_eq!(m.read::<u64>(BASE + i * 64 * 1024), i + 1);
        let after = m.kernel().stats();
        if after.shadow_faults_serviced > before.shadow_faults_serviced {
            faulted += 1;
            assert_eq!(
                after.tlb_miss_handler_calls - before.tlb_miss_handler_calls,
                1,
                "superpage {i} was paged out under a live TLB entry"
            );
        }
    }
    assert!(faulted > 0);
}

#[test]
#[should_panic(expected = "out of physical memory with nothing evictable")]
fn conventional_superpage_too_big_for_free_memory_cannot_fault_in() {
    // Bringing the evicted superpage back needs 16 frames and 15 are
    // free; its own pages are all CLOCK could evict, and evicting them
    // would re-fault the access forever.
    let mut m = conventional_machine_under_pressure(1);
    m.read::<u64>(BASE);
}

#[test]
fn referenced_and_dirty_bits_reflect_traffic_exactly() {
    let len = 64 * 1024;
    let mut m = Machine::new(MachineConfig::paper_mtlb(64));
    m.map_region(BASE, len, Prot::RW);
    m.remap(BASE, len);
    // Loads on pages 0..4, stores on 8..10, page 15 untouched.
    for p in 0..4u64 {
        m.read::<u32>(BASE + p * PAGE_SIZE);
    }
    for p in 8..10u64 {
        m.write::<u32>(BASE + p * PAGE_SIZE, 1);
    }
    let bits = m.page_bits(BASE.vpn());
    for (i, (_, referenced, dirty)) in bits.iter().enumerate() {
        let i = i as u64;
        assert_eq!(
            *referenced,
            i < 4 || (8..10).contains(&i),
            "ref bit page {i}"
        );
        assert_eq!(*dirty, (8..10).contains(&i), "dirty bit page {i}");
    }
}

#[test]
fn writeback_of_dirty_line_marks_page_dirty() {
    // A write that *hits* a cached line never reaches the MMC; the dirty
    // bit must still appear when the line is eventually written back.
    let len = 16 * 1024;
    let mut m = Machine::new(MachineConfig::paper_mtlb(64));
    m.map_region(BASE, len, Prot::RW);
    m.remap(BASE, len);
    // Read first (shared fill), then write (cache hit; no bus traffic).
    m.read::<u32>(BASE);
    m.write::<u32>(BASE + 4, 9);
    // Force the line out by touching the conflicting line 512 KB away
    // (another page of the same region won't conflict, so use a second
    // region).
    let other = VirtAddr::new(0x3000_0000);
    m.map_region(other, PAGE_SIZE, Prot::RW);
    m.read::<u32>(other); // same cache index as BASE if 512 KB-aligned apart
                          // Rather than relying on index math, flush via swap-out, which
                          // cleans the page and must observe the dirty line.
    let rep = m.swap_out_superpage(BASE.vpn());
    assert!(rep.pages_written >= 1, "dirtied page must be written");
    assert_eq!(m.read::<u32>(BASE + 4), 9, "data survives the round trip");
}

#[test]
fn superpage_sizes_compose_over_odd_regions() {
    // 1 MB + 256 KB + 16 KB + 1 loose page.
    let len = (1 << 20) + 256 * 1024 + 16 * 1024 + PAGE_SIZE;
    let mut m = filled_machine(len);
    let rep = m.remap(BASE, len);
    let sizes: Vec<PageSize> = rep.superpages.iter().map(|(_, s)| *s).collect();
    assert_eq!(
        sizes,
        vec![PageSize::Size1M, PageSize::Size256K, PageSize::Size16K]
    );
    assert_eq!(rep.pages_skipped, 1);
    assert_contents(&mut m, len);
}

#[test]
fn demote_pulls_swapped_pages_back_in() {
    // Demoting a superpage whose base pages are partly on disk must
    // bring them back so the 4 KB mappings are real.
    let len = 64 * 1024;
    let mut m = filled_machine(len);
    m.remap(BASE, len);
    m.swap_out_superpage(BASE.vpn());
    m.demote_superpage(BASE.vpn());
    assert!(m.kernel().aspace().superpages().next().is_none());
    assert!(m.kernel().stats().pages_swapped_in >= 16);
    assert_contents(&mut m, len);
}

#[test]
fn reused_shadow_region_does_not_inherit_swap_copies() {
    // Swap-out leaves a copy per shadow page index; demotion releases
    // the region, and the next remap of the same size gets it back.
    // The new tenant's clean pages have no copy of their own yet, so
    // evicting them must write — not trust the old tenant's slots.
    let len = 64 * 1024;
    let mut m = filled_machine(len);
    m.remap(BASE, len);
    m.swap_out_superpage(BASE.vpn());
    m.demote_superpage(BASE.vpn());
    for p in 0..16u64 {
        m.write::<u64>(BASE + p * PAGE_SIZE, 0xbeef + p);
    }
    m.remap(BASE, len);
    m.swap_out_superpage(BASE.vpn());
    for p in 0..16u64 {
        assert_eq!(m.read::<u64>(BASE + p * PAGE_SIZE), 0xbeef + p, "page {p}");
    }
}

#[test]
fn all_shadow_machine_runs_transparently() {
    let mut cfg = MachineConfig::paper_mtlb(64);
    cfg.kernel.all_shadow = true;
    cfg.kernel.use_superpages = false;
    let mut m = Machine::new(cfg);
    m.map_region(BASE, 64 * 1024, Prot::RW);
    for p in 0..16u64 {
        m.write::<u64>(BASE + p * PAGE_SIZE, p * 3);
    }
    for p in 0..16u64 {
        assert_eq!(m.read::<u64>(BASE + p * PAGE_SIZE), p * 3);
    }
    let r = m.report();
    // Every user fill went through the MTLB even though nothing was
    // remapped; the few real-address operations are the kernel's own
    // page-table traffic.
    assert!(r.mmc.shadow_ops > 0);
    assert!(
        r.mmc.real_ops < r.mmc.shadow_ops,
        "user traffic is all-shadow (real: {}, shadow: {})",
        r.mmc.real_ops,
        r.mmc.shadow_ops
    );
}

#[test]
fn recoloring_machine_preserves_data() {
    use mtlb_cache::{CacheConfig, CacheIndexing};
    let mut cfg = MachineConfig::paper_mtlb(64);
    cfg.cache = CacheConfig::paper_default().with_indexing(CacheIndexing::Physical);
    let mut m = Machine::new(cfg);
    m.map_region(BASE, 4 * PAGE_SIZE, Prot::RW);
    for p in 0..4u64 {
        m.write::<u64>(BASE + p * PAGE_SIZE, 0xc0de + p);
    }
    let old_color = m.page_color(BASE.vpn());
    let colors = m.config().cache.page_colors();
    m.recolor_page(BASE.vpn(), (old_color + 7) % colors);
    assert_ne!(m.page_color(BASE.vpn()), old_color);
    for p in 0..4u64 {
        assert_eq!(m.read::<u64>(BASE + p * PAGE_SIZE), 0xc0de + p);
    }
}

#[test]
fn demoting_a_recolored_page_returns_it_to_a_real_mapping() {
    // A recolored page is a one-page shadow region carved out of a
    // 16 KB pool allocation; demoting it must not hand 4 KB back to an
    // allocator that has no such class.
    use mtlb_cache::{CacheConfig, CacheIndexing};
    let mut cfg = MachineConfig::paper_mtlb(64);
    cfg.cache = CacheConfig::paper_default().with_indexing(CacheIndexing::Physical);
    let mut m = Machine::new(cfg);
    m.map_region(BASE, PAGE_SIZE, Prot::RW);
    m.write::<u64>(BASE, 0xc0de);
    let old_color = m.page_color(BASE.vpn());
    let new_color = (old_color + 7) % m.config().cache.page_colors();
    m.recolor_page(BASE.vpn(), new_color);
    m.demote_superpage(BASE.vpn());
    assert!(m.kernel().aspace().superpages().next().is_none());
    assert_eq!(m.page_color(BASE.vpn()), old_color);
    assert_eq!(m.read::<u64>(BASE), 0xc0de);
    // The shadow page went back to the pool and serves the next recolor.
    m.recolor_page(BASE.vpn(), new_color);
    assert_eq!(m.page_color(BASE.vpn()), new_color);
    assert_eq!(m.read::<u64>(BASE), 0xc0de);
}

#[test]
fn shadow_space_exhaustion_falls_back_gracefully() {
    // A machine whose 16 MB class is exhausted must still build the
    // region from smaller superpages. Use a partition with only two
    // 16 MB buckets so exhaustion is cheap to reach.
    let mut cfg = MachineConfig::paper_mtlb(64);
    cfg.kernel.shadow_alloc =
        mtlb_os::BucketPartition::new(vec![(PageSize::Size4M, 32), (PageSize::Size16M, 2)]);
    let mut m = Machine::new(cfg);
    let big = VirtAddr::new(0x4000_0000);
    for i in 0..2u64 {
        let at = big + i * (16 << 20);
        m.map_region(at, 16 << 20, Prot::RW);
        let rep = m.remap(at, 16 << 20);
        assert_eq!(rep.superpages[0].1, PageSize::Size16M);
    }
    assert_eq!(m.kernel().shadow_available(PageSize::Size16M), 0);
    // The third 16 MB region decomposes into 4 MB pieces.
    let at = big + 2 * (16 << 20);
    m.map_region(at, 16 << 20, Prot::RW);
    let rep = m.remap(at, 16 << 20);
    assert!(rep.superpages.iter().all(|(_, s)| *s == PageSize::Size4M));
    assert_eq!(rep.superpages.len(), 4);
}

/// The page numbers (relative to `BASE`) of `pages` whose shadow page
/// has a swap copy.
fn pages_on_swap(m: &Machine, pages: u64) -> Vec<u64> {
    (0..pages)
        .filter(|&p| {
            let Some(sp) = m.kernel().aspace().superpage_of(BASE.vpn().offset(p)) else {
                return false;
            };
            let spn = sp
                .shadow_base
                .offset(BASE.vpn().offset(p).index() - sp.vpn_base.index());
            let index = m.config().mmc.shadow.page_index(spn.base_addr());
            m.kernel().swap().has_copy(index)
        })
        .collect()
}

/// `report().to_json()` of the run in
/// `clock_evicts_in_pinned_order_after_mid_ring_removals`.
const CLOCK_RUN_REPORT: &str = "{\"total_cycles\":2269639,\"buckets\":{\"user\":7,\"tlb_miss\":144,\"mem_stall\":574,\"kernel\":2268914,\"fault\":0},\"instructions\":0,\"loads\":7,\"stores\":0,\"tlb\":{\"hits\":7,\"misses\":3,\"fills\":3,\"replacements\":0,\"purges\":0,\"nru_resets\":0},\"itlb\":{\"hits\":0,\"misses\":0},\"cache\":{\"hits\":348,\"misses\":45,\"replacement_writebacks\":0,\"flush_writebacks\":0,\"lines_flushed\":3968,\"flush_walks\":31},\"mmc\":{\"fills_shared\":45,\"fills_exclusive\":0,\"writebacks\":0,\"shadow_ops\":7,\"real_ops\":38,\"mtlb_hits\":0,\"mtlb_misses\":7,\"shadow_faults\":0,\"bus_errors\":0,\"fill_mmc_cycles\":1389,\"control_ops\":71,\"fill_hist\":[{\"lo\":16,\"hi\":31,\"count\":38},{\"lo\":32,\"hi\":63,\"count\":7}]},\"kernel\":{\"tlb_miss_handler_calls\":3,\"remaps\":4,\"superpages_created\":4,\"pages_remapped\":16,\"sbrk_calls\":0,\"shadow_faults_serviced\":0,\"pages_swapped_out\":11,\"pages_swapped_in\":0,\"clock_sweeps\":14,\"pages_recolored\":0,\"auto_promotions\":0,\"processes_spawned\":0,\"context_switches\":0,\"tlb_miss_cycles\":144,\"fault_cycles\":0,\"service_cycles\":2268914,\"shootdowns\":0,\"shootdown_cycles\":0},\"mtlb_contention\":{\"events\":0,\"cycles\":0},\"tlb_reach_bytes\":16826368,\"tlb_miss_intervals\":[{\"lo\":128,\"hi\":255,\"count\":1},{\"lo\":256,\"hi\":511,\"count\":1}]}";

#[test]
fn clock_evicts_in_pinned_order_after_mid_ring_removals() {
    // Four 16 KB superpages over pages 0..16 enter the CLOCK ring page
    // by page; a few are referenced. Demoting the second drops ring
    // slots 4..8 before any eviction, and a swap-out of the first once
    // the hand has moved past it drops slots behind the hand; a fault
    // brings one of its pages back at the ring's end. Every other frame
    // is then taken one fresh page at a time, each costing exactly one
    // eviction, and the pages CLOCK picks are pinned in order.
    let mut m = Machine::new(MachineConfig::paper_mtlb(64).with_dram((16 << 20) + 64 * PAGE_SIZE));
    m.map_region(BASE, 16 * PAGE_SIZE, Prot::RW);
    for sp in 0..4u64 {
        m.remap(BASE + sp * 16 * 1024, 16 * 1024);
    }
    for p in [0u64, 1, 2, 3, 9, 14, 15] {
        m.read::<u32>(BASE + p * PAGE_SIZE);
    }
    m.demote_superpage(BASE.vpn().offset(4));
    let fresh = VirtAddr::new(0x3000_0000);
    let mut mapped = 0u64;
    let mut victims = Vec::new();
    let mut map_one = |m: &mut Machine, victims: &mut Vec<u64>| {
        let before = pages_on_swap(m, 16);
        m.map_region(fresh + mapped * PAGE_SIZE, PAGE_SIZE, Prot::RW);
        mapped += 1;
        victims.extend(
            pages_on_swap(m, 16)
                .into_iter()
                .filter(|p| !before.contains(p)),
        );
    };
    while m.kernel().free_frames() > 0 {
        map_one(&mut m, &mut victims);
    }
    assert!(victims.is_empty(), "free frames go first");
    for _ in 0..3 {
        map_one(&mut m, &mut victims);
    }
    m.swap_out_superpage(BASE.vpn());
    while m.kernel().free_frames() > 0 {
        map_one(&mut m, &mut victims);
    }
    for _ in 0..4 {
        map_one(&mut m, &mut victims);
    }
    assert_eq!(victims, [13, 11, 10, 14, 15, 8, 12]);
    assert_eq!(m.report().to_json(), CLOCK_RUN_REPORT);
}
