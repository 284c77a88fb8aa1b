//! A data access that faults is neither counted nor charged. Every case
//! ends in `report()`, whose debug-build attribution audit reconciles
//! the user bucket with the retired loads, stores and instructions, and
//! the TLB refills with the miss handler's runs (a walk that finds no
//! PTE runs the handler and fills nothing).

use mtlb_sim::{Machine, MachineConfig, RunReport};
use mtlb_types::{AccessKind, Fault, Prot, VirtAddr, PAGE_SIZE};

const DATA: VirtAddr = VirtAddr::new(0x1000_0000);
/// A page nothing maps.
const HOLE: VirtAddr = VirtAddr::new(0x6666_0000);

/// Runs `case` on a fresh MTLB machine with the fast paths on and off,
/// after mapping one read-write page at `DATA` and one read-only page
/// right after it; returns the reports, which must agree.
fn each_machine(case: impl Fn(&mut Machine)) -> RunReport {
    let reports: Vec<RunReport> = [true, false]
        .map(|fast| {
            let mut m = Machine::new(MachineConfig::paper_mtlb(64));
            m.set_fast_paths(fast);
            m.map_region(DATA, PAGE_SIZE, Prot::RW);
            m.map_region(DATA + PAGE_SIZE, PAGE_SIZE, Prot::READ);
            m.reset_stats();
            case(&mut m);
            m.report()
        })
        .into();
    assert_eq!(reports[0].to_json(), reports[1].to_json());
    reports[0].clone()
}

fn is_protection_write(r: Result<(), Fault>) -> bool {
    matches!(
        r,
        Err(Fault::Protection {
            kind: AccessKind::Write,
            ..
        })
    )
}

#[test]
fn unmapped_read_is_not_counted() {
    let r = each_machine(|m| {
        assert_eq!(
            m.try_read::<u32>(HOLE),
            Err(Fault::PageNotMapped { va: HOLE })
        );
    });
    assert_eq!((r.loads, r.buckets.user.get()), (0, 0));
    // The handler ran and filled nothing.
    assert_eq!((r.tlb.misses, r.tlb.fills), (1, 0));
}

#[test]
fn protection_faulting_write_is_not_counted() {
    let r = each_machine(|m| {
        assert!(is_protection_write(m.try_write(DATA + PAGE_SIZE, 1u32)));
    });
    assert_eq!((r.stores, r.buckets.user.get()), (0, 0));
    // The miss filled the read-only entry that then refused the store.
    assert_eq!(r.tlb.fills, 1);
}

#[test]
fn protection_faulting_write_after_a_read_is_not_counted() {
    let r = each_machine(|m| {
        assert_eq!(m.try_read::<u32>(DATA + PAGE_SIZE), Ok(0));
        assert!(is_protection_write(m.try_write(DATA + PAGE_SIZE, 1u32)));
    });
    assert_eq!((r.loads, r.stores, r.buckets.user.get()), (1, 0, 1));
}

#[test]
fn misaligned_access_faulting_in_its_second_half_counts_the_first() {
    let r = each_machine(|m| {
        // The low window is the last word of the read-only page; the
        // high window is on the unmapped page after it.
        let va = DATA + 2 * PAGE_SIZE - 2;
        assert_eq!(
            m.try_read::<u32>(va),
            Err(Fault::PageNotMapped {
                va: DATA + 2 * PAGE_SIZE
            })
        );
        // A store whose high window is read-only: the low half lands.
        let va = DATA + PAGE_SIZE - 2;
        assert!(is_protection_write(m.try_write(va, 0xaabb_ccddu32)));
        assert_eq!(m.try_read::<u16>(va), Ok(0xccdd));
    });
    assert_eq!((r.loads, r.stores, r.buckets.user.get()), (2, 1, 3));
}

#[test]
fn stream_running_into_an_unmapped_page_counts_the_items_before_it() {
    let r = each_machine(|m| {
        let mut seen = 0;
        let start = DATA + 2 * PAGE_SIZE - 16;
        assert_eq!(
            m.try_stream_read_u32(start, 8, 1, |_, _| seen += 1),
            Err(Fault::PageNotMapped {
                va: DATA + 2 * PAGE_SIZE
            })
        );
        assert_eq!(seen, 4);
        assert!(is_protection_write(m.try_stream_write_u32(
            DATA + PAGE_SIZE - 8,
            4,
            0,
            |i| i as u32
        )));
    });
    assert_eq!((r.loads, r.stores, r.instructions), (4, 2, 4));
    assert_eq!(r.buckets.user.get(), 10);
}
