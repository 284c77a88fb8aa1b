//! Multi-process integration: isolation, switching costs, and superpage
//! behaviour across address spaces.

use mtlb_sim::{Machine, MachineConfig};
use mtlb_types::{Prot, PAGE_SIZE};
use mtlb_workloads::AccessExt;

#[test]
fn processes_data_is_isolated_and_persistent() {
    let mut m = Machine::new(MachineConfig::paper_mtlb(64));
    let p1 = m.spawn_process();
    let b0 = Machine::process_heap_base(0);
    let b1 = Machine::process_heap_base(p1);

    m.try_switch_process(0).expect("pid was spawned");
    m.map_region(b0, 16 * PAGE_SIZE, Prot::RW);
    m.remap(b0, 16 * PAGE_SIZE);
    for i in 0..16u64 {
        m.write::<u64>(b0 + i * PAGE_SIZE, 1000 + i);
    }

    m.try_switch_process(p1).expect("pid was spawned");
    m.map_region(b1, 16 * PAGE_SIZE, Prot::RW);
    m.remap(b1, 16 * PAGE_SIZE);
    for i in 0..16u64 {
        m.write::<u64>(b1 + i * PAGE_SIZE, 2000 + i);
    }

    // Ping-pong verification across switches.
    for round in 0..3 {
        m.try_switch_process(0).expect("pid was spawned");
        for i in 0..16u64 {
            assert_eq!(m.read::<u64>(b0 + i * PAGE_SIZE), 1000 + i, "round {round}");
        }
        m.try_switch_process(p1).expect("pid was spawned");
        for i in 0..16u64 {
            assert_eq!(m.read::<u64>(b1 + i * PAGE_SIZE), 2000 + i, "round {round}");
        }
    }
    assert_eq!(m.kernel().stats().context_switches, 8);
}

#[test]
fn each_process_gets_its_own_sbrk_heap() {
    let mut m = Machine::new(MachineConfig::paper_mtlb(64));
    let p1 = m.spawn_process();
    m.try_switch_process(0).expect("pid was spawned");
    let a = m.sbrk(1000);
    m.write::<u64>(a, 7);
    m.try_switch_process(p1).expect("pid was spawned");
    let b = m.sbrk(1000);
    assert_ne!(a, b);
    assert!(b.offset_from(a) >= (1 << 32), "windows are disjoint");
    m.write::<u64>(b, 9);
    m.try_switch_process(0).expect("pid was spawned");
    assert_eq!(m.read::<u64>(a), 7);
}

#[test]
fn switch_purges_user_translations_not_kernel_block() {
    let mut m = Machine::new(MachineConfig::paper_base(64));
    let p1 = m.spawn_process();
    let b0 = Machine::process_heap_base(0);
    m.try_switch_process(0).expect("pid was spawned");
    m.map_region(b0, 4 * PAGE_SIZE, Prot::RW);
    m.reset_stats();
    m.read::<u32>(b0); // 1 miss
    m.read::<u32>(b0); // hit
    m.try_switch_process(p1).expect("pid was spawned");
    m.try_switch_process(0).expect("pid was spawned");
    m.read::<u32>(b0); // must miss again after the round trip
    let r = m.report();
    assert_eq!(r.tlb.misses, 2, "switches purge user entries");
}

#[test]
fn superpages_shrink_post_switch_refill() {
    let run = |cfg: MachineConfig| {
        let mut m = Machine::new(cfg);
        let p1 = m.spawn_process();
        let bases = [
            Machine::process_heap_base(0),
            Machine::process_heap_base(p1),
        ];
        for (pid, b) in bases.iter().enumerate() {
            m.try_switch_process(pid).expect("pid was spawned");
            m.map_region(*b, 32 * PAGE_SIZE, Prot::RW);
            m.remap(*b, 32 * PAGE_SIZE);
            // Warm.
            for i in 0..32u64 {
                m.read::<u32>(*b + i * PAGE_SIZE);
            }
        }
        m.reset_stats();
        for _ in 0..10 {
            for (pid, b) in bases.iter().enumerate() {
                m.try_switch_process(pid).expect("pid was spawned");
                for i in 0..32u64 {
                    m.read::<u32>(*b + i * PAGE_SIZE);
                }
            }
        }
        m.report().tlb.misses
    };
    let base_misses = run(MachineConfig::paper_base(64));
    let mtlb_misses = run(MachineConfig::paper_mtlb(64));
    // Baseline: ~32 misses per process per switch. Superpages: ~2-3.
    assert!(base_misses >= 600, "got {base_misses}");
    assert!(mtlb_misses <= 80, "got {mtlb_misses}");
}
