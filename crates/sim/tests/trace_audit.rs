//! Misaligned fault semantics, end to end: a misaligned scalar
//! straddling a page boundary commits each aligned half immediately
//! after its own access, so a shadow fault on the second half that
//! evicts the first half's frame (CLOCK under memory pressure) neither
//! re-runs nor half-commits the first access. Each `report()` call also
//! runs the debug-build attribution auditor.

use mtlb_sim::{Machine, MachineConfig};
use mtlb_types::{Cycles, Prot, VirtAddr};

const BASE: VirtAddr = VirtAddr::new(0x1000_0000);

/// Drives a 16-user-frame machine into the exact corner the misaligned
/// path must survive: a misaligned `u32` whose low half hits a resident
/// base page and whose high half shadow-faults, where servicing the
/// fault CLOCK-evicts the *low half's* frame. Per-half commit means the
/// low bytes were already moved; a stale-translation implementation
/// would read the recycled frame (the high page's contents) instead.
#[test]
fn misaligned_access_survives_eviction_of_first_half() {
    // 16 MB kernel reservation + exactly 16 user frames.
    let cfg = MachineConfig::paper_mtlb(64).with_dram((16 << 20) + 16 * 4096);
    let mut m = Machine::new(cfg); // boot text stub: 1 frame, 15 free
    let data = BASE;
    m.map_region(data, 16 * 1024, Prot::RW); // 4 frames, 11 free
    let rep = m.remap(data, 16 * 1024); // one 16 KB shadow superpage
    assert_eq!(rep.superpages.len(), 1, "promotion happened");
    // Real-backed filler pages are not in the CLOCK ring, so they pin
    // their frames: 0 free.
    m.map_region(data + 0x0010_0000, 11 * 4096, Prot::RW);

    // Populate the straddling bytes, then push both pages to swap.
    m.swap_out_superpage(data.vpn()); // 4 free, resident ring empty
    m.try_write::<u32>(data + 4092, 0xAABB_CCDD).unwrap(); // faults page 0 in: 3 free
    m.try_write::<u32>(data + 4096, 0x1122_3344).unwrap(); // faults page 1 in: 2 free
    m.swap_out_superpage(data.vpn()); // 4 free again, ring empty

    // Bring page 0 (only) back, then exhaust the remaining frames.
    assert_eq!(m.try_read::<u32>(data + 4092).unwrap(), 0xAABB_CCDD); // 3 free
    m.map_region(data + 0x0020_0000, 3 * 4096, Prot::RW); // 0 free

    // Auditor checkpoint. The superpage's 4 pages started resident
    // (mapped, never swapped in); 4 + swapped_in - swapped_out = 1
    // means only page 0 is resident going into the misaligned access.
    let before = m.report();
    assert_eq!(
        4 + before.kernel.pages_swapped_in - before.kernel.pages_swapped_out,
        1,
    );

    // The misaligned read: low half [4092,4096) is resident page 0, high
    // half [4096,4100) shadow-faults, and the only evictable frame is
    // page 0's.
    let got = m.try_read::<u32>(data + 4094).unwrap();
    assert_eq!(
        got, 0x3344_AABB,
        "low-half bytes must come from page 0's contents, not a recycled frame"
    );

    let after = m.report();
    assert_eq!(
        after.loads - before.loads,
        2,
        "a misaligned scalar is exactly two aligned loads — the first \
         half must not be re-run after the second half's fault"
    );
    assert!(
        after.kernel.pages_swapped_out > before.kernel.pages_swapped_out,
        "the scenario really evicted the low half's frame mid-access"
    );
    assert_eq!(
        after.kernel.shadow_faults_serviced - before.kernel.shadow_faults_serviced,
        1,
        "only the high half faulted"
    );
    // The attribution auditor ran in both report() calls above; as a
    // belt-and-braces check the fault service cost landed in the fault
    // bucket.
    assert!(after.buckets.fault - before.buckets.fault > Cycles::ZERO);
}
