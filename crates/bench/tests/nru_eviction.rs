//! NRU victim choice, end to end at test scale.
//!
//! The test-scale fig3 goldens never evict on em3d, radix or cc1 at 96
//! entries or more (those runs need 25, 26 and 76 CPU-TLB entries), so
//! they pin no victim choice there. Sixteen entries make every paper
//! workload evict: this pins each one's cycles, misses and
//! replacements on `paper_base(16)`, so a change in which entry the TLB
//! evicts fails here, not only at paper scale.

use mtlb_bench::experiments::{workload_by_name, WORKLOADS};
use mtlb_sim::{Machine, MachineConfig};
use mtlb_workloads::Scale;

/// `workload total_cycles tlb.misses tlb.replacements`, one line per
/// paper workload, after the fixture's header line.
fn rendered() -> String {
    let mut out =
        String::from("# paper_base(16), test scale: workload cycles misses replacements\n");
    for name in WORKLOADS {
        let mut m = Machine::new(MachineConfig::paper_base(16));
        let outcome = workload_by_name(name, Scale::Test).run(&mut m);
        assert!(outcome.verified, "{name} failed its self-check");
        let r = m.report();
        assert!(r.tlb.replacements > 0, "{name} never evicted on 16 entries");
        let (cycles, tlb) = (r.total_cycles.get(), r.tlb);
        out += &format!("{name} {cycles} {} {}\n", tlb.misses, tlb.replacements);
    }
    out
}

#[test]
fn every_workload_evicts_on_sixteen_entries_as_pinned() {
    let got = rendered();
    assert!(
        got == include_str!("fixtures/base16_test_scale.txt"),
        "paper_base(16) drifted from the fixture; simulated cycles and \
         victim choice must not change.\n--- got ---\n{got}"
    );
}
