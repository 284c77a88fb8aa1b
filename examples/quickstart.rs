//! Quickstart: build the paper's machine, create a shadow-backed
//! superpage from discontiguous frames, and watch the TLB reach grow.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mtlb_sim::{Machine, MachineConfig};
use mtlb_types::{Prot, VirtAddr, PAGE_SIZE};
use mtlb_workloads::AccessExt;

fn main() {
    // A machine with a deliberately tiny (16-entry) CPU TLB, the paper's
    // 128-entry 2-way MTLB, and a kernel that promotes remapped regions
    // to shadow superpages.
    let mut machine = Machine::new(MachineConfig::paper_mtlb(16));

    // Map 1 MB of ordinary 4 KB pages...
    let base = VirtAddr::new(0x1000_0000);
    let len = 1 << 20;
    machine.map_region(base, len, Prot::RW);

    // ...write something into them...
    for page in 0..(len / PAGE_SIZE) {
        machine.write::<u64>(base + page * PAGE_SIZE, page);
    }

    // ...and promote the region to shadow-backed superpages. The 256
    // frames stay exactly where they are (scattered all over DRAM); only
    // the MMC's mapping table learns about them.
    let report = machine.remap(base, len);
    println!("remap created {} superpage(s):", report.superpages.len());
    for (va, size) in &report.superpages {
        println!("  {size} at {va}");
    }
    println!(
        "remap cost {} cycles ({} flushing {} cache lines)",
        report.total_cycles().get(),
        report.flush_cycles.get(),
        report.lines_flushed,
    );

    // The data survived, and the whole megabyte now needs ONE TLB entry.
    machine.reset_stats();
    for page in 0..(len / PAGE_SIZE) {
        assert_eq!(machine.read::<u64>(base + page * PAGE_SIZE), page);
    }
    let r = machine.report();
    println!(
        "touched {} pages: {} TLB miss(es), {:.1}% of runtime in miss handling",
        len / PAGE_SIZE,
        r.tlb.misses,
        r.tlb_miss_fraction() * 100.0,
    );

    // The same walk on a conventional machine (no MTLB, 4 KB pages only):
    let mut baseline = Machine::new(MachineConfig::paper_base(16));
    baseline.map_region(base, len, Prot::RW);
    for page in 0..(len / PAGE_SIZE) {
        baseline.write::<u64>(base + page * PAGE_SIZE, page);
    }
    baseline.remap(base, len); // no-op on the baseline kernel
    baseline.reset_stats();
    for page in 0..(len / PAGE_SIZE) {
        assert_eq!(baseline.read::<u64>(base + page * PAGE_SIZE), page);
    }
    let b = baseline.report();
    println!(
        "baseline machine: {} TLB misses, {:.1}% of runtime in miss handling",
        b.tlb.misses,
        b.tlb_miss_fraction() * 100.0,
    );
    println!(
        "speedup from shadow superpages on this walk: {:.2}x",
        b.total_cycles.get() as f64 / r.total_cycles.get() as f64,
    );
}
