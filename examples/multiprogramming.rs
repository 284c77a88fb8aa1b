//! Two time-sliced processes: superpages refill the TLB after every
//! context switch with a single miss, where the 4 KB baseline re-takes
//! one miss per page of its working set.
//!
//! ```text
//! cargo run --release --example multiprogramming
//! ```

use mtlb_sim::{Machine, MachineConfig};
use mtlb_types::{Prot, PAGE_SIZE};
use mtlb_workloads::AccessExt;

fn run(cfg: MachineConfig, quantum: u64) -> (u64, f64) {
    let mut m = Machine::new(cfg);
    let pages = 48u64; // 192 KB per process: fits a 64-entry TLB
    let p1 = m.spawn_process();
    let bases = [
        Machine::process_heap_base(0),
        Machine::process_heap_base(p1),
    ];
    for (pid, base) in bases.iter().enumerate() {
        m.try_switch_process(pid).expect("pid was spawned");
        m.map_region(*base, pages * PAGE_SIZE, Prot::RW);
        m.remap(*base, pages * PAGE_SIZE); // no-op on the baseline kernel
    }
    m.reset_stats();
    let mut seeds = [1u64, 99];
    let total = 200_000u64;
    let mut done = 0u64;
    let mut pid = 0usize;
    while done < total {
        m.try_switch_process(pid).expect("pid was spawned");
        let n = quantum.min(total - done);
        for _ in 0..n {
            let x = &mut seeds[pid];
            *x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m.read::<u32>(bases[pid] + ((*x >> 33) % pages) * PAGE_SIZE);
            m.execute(8);
        }
        done += n;
        pid = 1 - pid;
    }
    let r = m.report();
    (r.total_cycles.get(), r.tlb_miss_fraction())
}

fn main() {
    println!("two processes, 192 KB working sets, 200k accesses total\n");
    println!(
        "{:>10}  {:>22}  {:>22}",
        "quantum", "base 64 (cycles, tlb%)", "64+MTLB (cycles, tlb%)"
    );
    for quantum in [250u64, 1_000, 4_000, 20_000, 100_000] {
        let (bc, bf) = run(MachineConfig::paper_base(64), quantum);
        let (mc, mf) = run(MachineConfig::paper_mtlb(64), quantum);
        println!(
            "{quantum:>10}  {bc:>12} {:>8.1}%  {mc:>12} {:>8.1}%",
            bf * 100.0,
            mf * 100.0
        );
    }
    println!(
        "\nAt short quanta the baseline re-faults ~48 TLB entries per switch; the \
         superpage machine refills its whole working set with a handful of entries."
    );
}
