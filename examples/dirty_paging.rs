//! Per-base-page dirty tracking (§2.5): page a shadow-backed superpage
//! out one base page at a time, writing only what changed.
//!
//! ```text
//! cargo run --release --example dirty_paging
//! ```

use mtlb_os::PagingPolicy;
use mtlb_sim::{Machine, MachineConfig};
use mtlb_types::{Prot, VirtAddr, PAGE_SIZE};
use mtlb_workloads::AccessExt;

fn run(policy: PagingPolicy) -> (u64, u64, u64) {
    let mut cfg = MachineConfig::paper_mtlb(64);
    cfg.kernel.paging = policy;
    let mut m = Machine::new(cfg);

    let base = VirtAddr::new(0x1000_0000);
    let len = 256 * 1024; // one 256 KB superpage = 64 base pages
    m.map_region(base, len, Prot::RW);
    m.remap(base, len);

    // Populate and reach swap steady state (first eviction writes all —
    // no swap copies exist yet).
    for p in 0..64u64 {
        m.write::<u64>(base + p * PAGE_SIZE, 0xAAAA + p);
    }
    m.swap_out_superpage(base.vpn());
    for p in 0..64u64 {
        assert_eq!(m.read::<u64>(base + p * PAGE_SIZE), 0xAAAA + p);
    }

    // Dirty exactly five pages.
    for p in [3u64, 17, 31, 45, 59] {
        m.write::<u64>(base + p * PAGE_SIZE + 16, p);
    }

    // Evict again and count the disk traffic.
    let before = m.kernel().swap().writes();
    let report = m.swap_out_superpage(base.vpn());
    let writes = m.kernel().swap().writes() - before;

    // Touch two pages back in; count faults and reads.
    let reads_before = m.kernel().swap().reads();
    assert_eq!(m.read::<u64>(base + 17 * PAGE_SIZE + 16), 17);
    assert_eq!(m.read::<u64>(base + 40 * PAGE_SIZE), 0xAAAA + 40);
    let reads = m.kernel().swap().reads() - reads_before;

    (report.pages_total, writes, reads)
}

fn main() {
    println!("One 256 KB superpage (64 base pages); 5 pages dirtied, 2 touched back.\n");
    for (name, policy) in [
        (
            "shadow superpage (per-base-page dirty bits)",
            PagingPolicy::PerBasePage,
        ),
        (
            "conventional superpage (no per-page info)",
            PagingPolicy::WholeSuperpage,
        ),
    ] {
        let (total, writes, reads) = run(policy);
        println!("{name}:");
        println!("  eviction wrote {writes} of {total} pages to disk");
        println!("  re-touching 2 pages read {reads} pages back\n");
    }
    println!(
        "The MTLB's per-base-page dirty bits (paper §2.5) turn an eviction of a \
         lightly-dirtied superpage from a whole-superpage write into a few page writes, \
         and demand-paging back in becomes page-granular (§4)."
    );
}
