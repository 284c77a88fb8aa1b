//! A coalesced TLB: contiguous VPN→PFN runs detected at fill time and
//! stored as ranged entries (Ban et al., arXiv:1908.08774).
//!
//! Where the paper's MTLB buys reach by *manufacturing* contiguity in
//! shadow space, a coalescing TLB *harvests* whatever contiguity the
//! frame allocator produced by accident: at fill time the kernel hands
//! over the run of physically contiguous, uniformly protected base
//! pages around the faulting page (see
//! [`TranslationScheme::wants_contiguity`]), and the TLB stores the
//! whole run in one entry of up to [`MAX_COALESCE`] pages. Reach per
//! entry grows only as far as the allocator happens to cooperate —
//! which is exactly the design point fig5 compares against shadow
//! superpages.

use mtlb_tlb::{ContigInfo, SlotEntry, SlotTlb, TlbEntry};
use mtlb_types::{PageSize, Ppn, Prot, Vpn, PAGE_SIZE};

/// Maximum base pages one coalesced entry may span — the PTE-cache-line
/// neighbourhood a hardware coalescing TLB can inspect during one walk
/// (matches the kernel's contiguity scan window).
pub const MAX_COALESCE: u64 = 8;

/// One ranged entry: `pages` base pages starting at `base_vpn`, backed
/// by the contiguous frames starting at `base_pfn`.
#[derive(Clone, Copy, Debug)]
pub struct Range {
    base_vpn: u64,
    base_pfn: u64,
    pages: u64,
    prot: Prot,
}

impl Range {
    /// The one range `self` and `other` make when they are adjacent in
    /// both virtual and physical pages, share a protection and stay
    /// within the coalescing limit.
    fn merge(&self, other: &Range) -> Option<Range> {
        if self.prot != other.prot || self.pages + other.pages > MAX_COALESCE {
            return None;
        }
        let (lo, hi) = if self.base_vpn < other.base_vpn {
            (self, other)
        } else {
            (other, self)
        };
        let adjacent =
            lo.base_vpn + lo.pages == hi.base_vpn && lo.base_pfn + lo.pages == hi.base_pfn;
        adjacent.then_some(Range {
            pages: lo.pages + hi.pages,
            ..*lo
        })
    }
}

/// The coalesced TLB: a fixed number of ranged entries on the shared
/// NRU slot store (use bit per entry, rotating hand, generation reset —
/// mirroring the paper TLB's policy so the comparison isolates *reach*,
/// not replacement).
pub type CoalescedTlb = SlotTlb<Range>;

impl SlotEntry for Range {
    const NAME: &'static str = "coalesced";
    const WANTS_CONTIGUITY: bool = true;

    fn span(&self) -> (Vpn, u64) {
        (Vpn::new(self.base_vpn), self.pages)
    }

    /// The plain 4 KB entry for `vpn`'s page of the range.
    fn at(&self, vpn: Vpn) -> Option<TlbEntry> {
        let delta = vpn.index().wrapping_sub(self.base_vpn);
        if delta >= self.pages {
            return None;
        }
        TlbEntry::new(
            vpn,
            Ppn::new(self.base_pfn + delta),
            PageSize::Base4K,
            self.prot,
        )
    }

    fn reach_bytes(&self) -> u64 {
        self.pages * PAGE_SIZE
    }

    fn fill(tlb: &mut CoalescedTlb, entry: TlbEntry, contig: &ContigInfo) {
        let anchor = entry.vpn_base().index();
        let (base_vpn, base_pfn, pages) = if entry.size() == PageSize::Base4K {
            let run_base = contig.base.index();
            let run_pfn = contig.pfn.index();
            let run_pages = contig.pages.min(MAX_COALESCE);
            // The run must still contain the filled page after the cap;
            // if not (malformed metadata), coalesce nothing.
            if anchor.wrapping_sub(run_base) < run_pages {
                debug_assert_eq!(
                    run_pfn + (anchor - run_base),
                    entry.pfn_base().index(),
                    "contiguity run disagrees with the filled PTE"
                );
                (run_base, run_pfn, run_pages)
            } else {
                (anchor, entry.pfn_base().index(), 1)
            }
        } else {
            // A (shadow) superpage is one contiguous run by construction.
            (anchor, entry.pfn_base().index(), entry.size().base_pages())
        };
        let range = Range {
            base_vpn,
            base_pfn,
            pages,
            prot: entry.prot(),
        };
        tlb.discard(Vpn::new(base_vpn), pages);
        // Extend an adjacent resident range instead of spending a slot,
        // when the combined run stays within the coalescing limit. After
        // the discard only the range ending just below and the range
        // starting just above can be adjacent; the lower slot wins.
        let below = base_vpn
            .checked_sub(1)
            .and_then(|v| tlb.slot_at(Vpn::new(v)));
        let above = tlb.slot_at(Vpn::new(base_vpn + pages));
        let merged = [below, above]
            .into_iter()
            .flatten()
            .filter_map(|s| Some((s, tlb.entry(s)?.merge(&range)?)))
            .min_by_key(|&(s, _)| s);
        match merged {
            Some((s, r)) => tlb.replace(s, r),
            None => {
                tlb.install(range);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_tlb::{LookupOutcome, TranslationScheme};
    use mtlb_types::{AccessKind, PhysAddr, PrivilegeLevel, VirtAddr};

    fn fill4k(tlb: &mut CoalescedTlb, vpn: u64, pfn: u64, run_base: u64, run_pfn: u64, run: u64) {
        let e = TlbEntry::new(Vpn::new(vpn), Ppn::new(pfn), PageSize::Base4K, Prot::RW)
            .expect("base pages are always aligned");
        let contig = ContigInfo {
            base: Vpn::new(run_base),
            pfn: Ppn::new(run_pfn),
            pages: run,
        };
        tlb.fill(e, &contig);
    }

    fn read(tlb: &mut CoalescedTlb, va: u64) -> LookupOutcome {
        tlb.translate(VirtAddr::new(va), AccessKind::Read, PrivilegeLevel::User)
    }

    #[test]
    fn a_contiguous_run_occupies_one_entry_and_covers_all_pages() {
        let mut tlb = CoalescedTlb::new(4);
        // Pages 0x10..0x18 backed by frames 0x80..0x88.
        fill4k(&mut tlb, 0x12, 0x82, 0x10, 0x80, 8);
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(
            read(&mut tlb, 0x10_000),
            LookupOutcome::Hit(PhysAddr::new(0x80_000))
        );
        assert_eq!(
            read(&mut tlb, 0x17_abc),
            LookupOutcome::Hit(PhysAddr::new(0x87_abc))
        );
        assert_eq!(read(&mut tlb, 0x18_000), LookupOutcome::Miss);
        assert_eq!(tlb.reach_bytes(), 8 * 4096);
    }

    #[test]
    fn no_contiguity_falls_back_to_single_pages() {
        let mut tlb = CoalescedTlb::new(4);
        fill4k(&mut tlb, 1, 0x10, 1, 0x10, 1);
        fill4k(&mut tlb, 2, 0x30, 2, 0x30, 1);
        assert_eq!(tlb.occupancy(), 2);
        assert_eq!(tlb.reach_bytes(), 2 * 4096, "one page per entry");
    }

    #[test]
    fn adjacent_fill_merges_into_the_resident_range() {
        let mut tlb = CoalescedTlb::new(4);
        fill4k(&mut tlb, 4, 0x40, 4, 0x40, 2); // pages 4..6 -> frames 0x40..0x42
        fill4k(&mut tlb, 6, 0x42, 6, 0x42, 1); // exactly adjacent
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.reach_bytes(), 3 * 4096, "one range of 4..7");
        assert_eq!(
            read(&mut tlb, 0x6010),
            LookupOutcome::Hit(PhysAddr::new(0x42_010))
        );
        // Fills still count one per fill() call.
        assert_eq!(tlb.stats().fills, 2);
    }

    #[test]
    fn purge_drops_whole_overlapping_ranges() {
        let mut tlb = CoalescedTlb::new(4);
        fill4k(&mut tlb, 0x10, 0x80, 0x10, 0x80, 8);
        assert_eq!(tlb.purge_range(Vpn::new(0x14), 1), 1);
        assert_eq!(read(&mut tlb, 0x10_000), LookupOutcome::Miss);
        assert_eq!(tlb.stats().purges, 1);
    }

    #[test]
    fn locked_entries_survive_purge_all_and_hit_first() {
        let mut tlb = CoalescedTlb::new(2);
        let block = TlbEntry::new(
            Vpn::new(0),
            Ppn::new(0),
            PageSize::Size16M,
            Prot::RW | Prot::SUPERVISOR_ONLY,
        )
        .expect("aligned");
        tlb.insert_locked(block);
        fill4k(&mut tlb, 0x9000, 0x100, 0x9000, 0x100, 1);
        assert_eq!(tlb.purge_all(), 1);
        assert_eq!(tlb.occupancy(), 1);
        let out = tlb.translate(
            VirtAddr::new(0x1000),
            AccessKind::Read,
            PrivilegeLevel::Supervisor,
        );
        assert_eq!(out, LookupOutcome::Hit(PhysAddr::new(0x1000)));
        assert_eq!(
            tlb.last_hit_slot(),
            0,
            "locked entries take the lowest tokens"
        );
    }

    #[test]
    fn overfill_replaces_via_nru() {
        let mut tlb = CoalescedTlb::new(2);
        fill4k(&mut tlb, 1, 0x10, 1, 0x10, 1);
        fill4k(&mut tlb, 2, 0x20, 2, 0x20, 1);
        fill4k(&mut tlb, 9, 0x90, 9, 0x90, 1);
        assert_eq!(tlb.occupancy(), 2);
        assert_eq!(tlb.stats().replacements, 1);
        assert!(tlb.entry_for(Vpn::new(9)).is_some());
    }

    #[test]
    fn synthesized_entries_translate_per_page() {
        let mut tlb = CoalescedTlb::new(4);
        fill4k(&mut tlb, 0x10, 0x80, 0x10, 0x80, 4);
        let e = tlb.entry_for(Vpn::new(0x12)).expect("covered");
        assert_eq!(e.size(), PageSize::Base4K);
        assert_eq!(
            e.translate(VirtAddr::new(0x12_345)),
            Some(PhysAddr::new(0x82_345))
        );
        let (slot, e2) = tlb.slot_for(Vpn::new(0x12)).expect("covered");
        assert_eq!(e2, e);
        assert!(slot < tlb.capacity());
    }

    #[test]
    fn a_fill_between_two_ranges_merges_into_the_lower_slot() {
        let mut tlb = CoalescedTlb::new(4);
        fill4k(&mut tlb, 0x13, 0x83, 0x13, 0x83, 1);
        fill4k(&mut tlb, 0x11, 0x81, 0x11, 0x81, 1);
        // Both neighbours qualify; slot 0 (the range above) takes it.
        fill4k(&mut tlb, 0x12, 0x82, 0x12, 0x82, 1);
        let slot = |vpn| tlb.slot_for(Vpn::new(vpn)).map(|(s, _)| s);
        assert_eq!(
            [slot(0x11), slot(0x12), slot(0x13)],
            [Some(1), Some(0), Some(0)]
        );
        assert_eq!(tlb.occupancy(), 2);
    }

    #[test]
    fn a_merge_across_a_16mb_boundary_translates_on_both_sides() {
        let region = PageSize::Size16M.base_pages();
        let mut tlb = CoalescedTlb::new(4);
        fill4k(&mut tlb, region - 1, 0x7ff, region - 4, 0x7fc, 4);
        fill4k(&mut tlb, region, 0x800, region, 0x800, 4);
        assert_eq!(tlb.occupancy(), 1, "one range of 8 pages");
        for (vpn, pfn) in [
            (region - 4, 0x7fc),
            (region - 1, 0x7ff),
            (region + 3, 0x803),
        ] {
            assert_eq!(
                read(&mut tlb, vpn * PAGE_SIZE),
                LookupOutcome::Hit(PhysAddr::new(pfn * PAGE_SIZE))
            );
        }
        assert_eq!(tlb.purge_range(Vpn::new(region + 3), 1), 1);
        assert_eq!(
            read(&mut tlb, (region - 4) * PAGE_SIZE),
            LookupOutcome::Miss
        );
    }
}
