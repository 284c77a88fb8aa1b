//! Trace/attribution integration tests.
//!
//! Two claims the observability layer makes are checked here end to end:
//!
//! 1. **Trace completeness** (property test): for arbitrary op streams,
//!    the per-bucket cycle sums reconstructed from the event trace alone
//!    equal the machine's `TimeBuckets` — every charged cycle is traced
//!    exactly once. Each `report()` call along the way also runs the
//!    debug-build attribution auditor.
//! 2. **Misaligned fault semantics**: a misaligned scalar straddling a
//!    page boundary commits each aligned half immediately after its own
//!    access, so a shadow fault on the second half that evicts the first
//!    half's frame (CLOCK under memory pressure) neither re-runs nor
//!    half-commits the first access.

use mtlb_sim::{Bucket, Machine, MachineConfig, RingTrace};
use mtlb_types::{Cycles, Prot, VirtAddr};
use proptest::prelude::*;

const REGION: u64 = 64 * 1024;
const BASE: VirtAddr = VirtAddr::new(0x1000_0000);

#[derive(Clone, Debug)]
enum Op {
    Execute(u64),
    Read8(u64),
    Write8(u64, u8),
    Read16(u64),
    Read32(u64),
    Write32(u64, u32),
    Read64(u64),
    Sbrk(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let off = 0u64..(REGION - 8);
    prop_oneof![
        2 => (1u64..200).prop_map(Op::Execute),
        2 => off.clone().prop_map(Op::Read8),
        2 => (off.clone(), any::<u8>()).prop_map(|(o, v)| Op::Write8(o, v)),
        // Arbitrary offsets: roughly half of these are misaligned and
        // take the two-access path.
        1 => off.clone().prop_map(Op::Read16),
        2 => off.clone().prop_map(Op::Read32),
        2 => (off.clone(), any::<u32>()).prop_map(|(o, v)| Op::Write32(o, v)),
        1 => off.prop_map(Op::Read64),
        1 => (1u64..3).prop_map(|n| Op::Sbrk(n * 4096)),
    ]
}

fn apply(m: &mut Machine, op: &Op) {
    match *op {
        Op::Execute(n) => m.try_execute(n).unwrap(),
        Op::Read8(o) => {
            let _ = m.try_read::<u8>(BASE + o).unwrap();
        }
        Op::Write8(o, v) => m.try_write::<u8>(BASE + o, v).unwrap(),
        Op::Read16(o) => {
            let _ = m.try_read::<u16>(BASE + o).unwrap();
        }
        Op::Read32(o) => {
            let _ = m.try_read::<u32>(BASE + o).unwrap();
        }
        Op::Write32(o, v) => m.try_write::<u32>(BASE + o, v).unwrap(),
        Op::Read64(o) => {
            let _ = m.try_read::<u64>(BASE + o).unwrap();
        }
        Op::Sbrk(n) => {
            let _ = m.sbrk(n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `TimeBuckets` reconstructed from the trace equals the machine's
    /// own accounting, bucket by bucket, for random op streams on both
    /// the MTLB and the baseline machine.
    #[test]
    fn trace_reconstructs_time_buckets(
        mtlb in (0u8..2).prop_map(|b| b == 1),
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let cfg = if mtlb {
            MachineConfig::paper_mtlb(16)
        } else {
            MachineConfig::paper_base(16)
        };
        let mut m = Machine::new(cfg);
        m.map_region(BASE, REGION, Prot::RW);
        m.remap(BASE, REGION);
        // Attach after setup: the trace must account for exactly the
        // cycles charged while it was attached.
        m.set_trace_sink(Box::new(RingTrace::new(64)));
        let before = m.report(); // debug auditor runs here
        for op in &ops {
            apply(&mut m, op);
        }
        let after = m.report(); // and here
        let sink = m.take_trace_sink().expect("sink attached");
        let ring = sink
            .as_any()
            .downcast_ref::<RingTrace>()
            .expect("RingTrace sink");
        prop_assert_eq!(
            ring.total_cycles(),
            after.total_cycles - before.total_cycles
        );
        prop_assert_eq!(
            ring.bucket_cycles(Bucket::User),
            after.buckets.user - before.buckets.user
        );
        prop_assert_eq!(
            ring.bucket_cycles(Bucket::TlbMiss),
            after.buckets.tlb_miss - before.buckets.tlb_miss
        );
        prop_assert_eq!(
            ring.bucket_cycles(Bucket::MemStall),
            after.buckets.mem_stall - before.buckets.mem_stall
        );
        prop_assert_eq!(
            ring.bucket_cycles(Bucket::Kernel),
            after.buckets.kernel - before.buckets.kernel
        );
        prop_assert_eq!(
            ring.bucket_cycles(Bucket::Fault),
            after.buckets.fault - before.buckets.fault
        );
        // The ring is tiny on purpose: long streams must overflow it
        // without losing the totals.
        prop_assert_eq!(ring.events(), ring.records().count() as u64 + ring.dropped());
    }
}

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
