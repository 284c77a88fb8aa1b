//! TLB-reach demonstration: sweep working-set sizes on a fixed CPU TLB
//! and find where each machine falls off its TLB cliff.
//!
//! Reproduces, as a runnable demo, the abstract's claim that the MTLB
//! "can more than double the effective reach of a processor TLB with no
//! modification to the processor MMU".
//!
//! ```text
//! cargo run --release --example tlb_reach
//! ```

use mtlb_sim::{Machine, MachineConfig};
use mtlb_types::{Prot, VirtAddr, PAGE_SIZE};
use mtlb_workloads::AccessExt;

/// Random-walk over `pages` pages, one read per page per round.
fn walk(machine: &mut Machine, base: VirtAddr, pages: u64, rounds: u64) -> f64 {
    machine.reset_stats();
    let mut x = 1u64;
    for _ in 0..rounds {
        for _ in 0..pages {
            // Deterministic LCG page sequence — no locality to exploit.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (x >> 33) % pages;
            machine.read::<u32>(base + page * PAGE_SIZE);
            machine.execute(20);
        }
    }
    machine.report().tlb_miss_fraction()
}

fn main() {
    const TLB_ENTRIES: usize = 64;
    let base = VirtAddr::new(0x1000_0000);

    println!(
        "CPU TLB: {TLB_ENTRIES} entries (reach without superpages: {} KB)",
        TLB_ENTRIES * 4
    );
    println!();
    println!(
        "{:>12}  {:>16}  {:>16}",
        "working set", "base TLB-miss %", "MTLB TLB-miss %"
    );

    for pages in [32u64, 64, 128, 256, 512, 1024, 2048] {
        let len = pages * PAGE_SIZE;

        let mut baseline = Machine::new(MachineConfig::paper_base(TLB_ENTRIES));
        baseline.map_region(base, len, Prot::RW);
        let f_base = walk(&mut baseline, base, pages, 4);

        let mut mtlb = Machine::new(MachineConfig::paper_mtlb(TLB_ENTRIES));
        mtlb.map_region(base, len, Prot::RW);
        mtlb.remap(base, len);
        let f_mtlb = walk(&mut mtlb, base, pages, 4);

        println!(
            "{:>9} KB  {:>15.1}%  {:>15.1}%{}",
            len >> 10,
            f_base * 100.0,
            f_mtlb * 100.0,
            if f_base > 0.10 && f_mtlb < 0.02 {
                "   <- beyond base reach, within MTLB reach"
            } else {
                ""
            },
        );
    }

    println!();
    println!(
        "The baseline falls off its cliff at {} KB ({} pages > {} entries); the MTLB \
         machine maps the same memory with a handful of superpage entries.",
        TLB_ENTRIES * 4,
        TLB_ENTRIES,
        TLB_ENTRIES,
    );
}
