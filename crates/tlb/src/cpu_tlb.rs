//! The paper's CPU TLB: the slot store over plain [`TlbEntry`]s.

use crate::{ContigInfo, SlotEntry, SlotTlb, TlbEntry, TranslationScheme};
use mtlb_types::Vpn;

/// The unified instruction/data CPU TLB.
///
/// Fully associative with a **not-recently-used** policy, as in the
/// paper: the [`SlotTlb`] over entries that each map one 4 KB page or
/// one superpage. Its locked kernel block entry takes one of its
/// entries (§3.2).
pub type CpuTlb = SlotTlb<TlbEntry>;

impl SlotEntry for TlbEntry {
    const NAME: &'static str = "cpu";
    const LOCKED_IN_SLOTS: bool = true;

    #[inline]
    fn span(&self) -> (Vpn, u64) {
        (self.vpn_base(), self.size().base_pages())
    }

    #[inline]
    fn at(&self, vpn: Vpn) -> Option<TlbEntry> {
        self.covers(vpn).then_some(*self)
    }

    #[inline]
    fn reach_bytes(&self) -> u64 {
        self.size().bytes()
    }

    /// Discards the entries the new one overlaps, then installs it.
    #[inline]
    fn fill(tlb: &mut CpuTlb, entry: TlbEntry, _contig: &ContigInfo) {
        let (base, pages) = entry.span();
        tlb.discard(base, pages);
        tlb.install(entry);
    }
}

impl CpuTlb {
    /// Inserts a replaceable entry, evicting an NRU victim if full: a
    /// [`fill`](TranslationScheme::fill) with no contiguity metadata.
    pub fn insert(&mut self, entry: TlbEntry) {
        self.fill(entry, &ContigInfo::for_entry(&entry));
    }

    /// The resident entries: the locked ones, then the replaceable
    /// slots in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
        self.locked()
            .iter()
            .chain((0..self.capacity()).filter_map(|s| self.entry(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LookupOutcome;
    use mtlb_types::{AccessKind, Fault, PageSize, PhysAddr, Ppn, PrivilegeLevel, Prot, VirtAddr};

    fn entry(vpn: u64, ppn: u64) -> TlbEntry {
        TlbEntry::new(Vpn::new(vpn), Ppn::new(ppn), PageSize::Base4K, Prot::RW).unwrap()
    }

    fn sp_entry(vpn: u64, ppn: u64, size: PageSize) -> TlbEntry {
        TlbEntry::new(Vpn::new(vpn), Ppn::new(ppn), size, Prot::RW).unwrap()
    }

    fn read(tlb: &mut CpuTlb, va: u64) -> LookupOutcome {
        tlb.translate(VirtAddr::new(va), AccessKind::Read, PrivilegeLevel::User)
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut tlb = CpuTlb::new(4);
        assert_eq!(read(&mut tlb, 0x1234), LookupOutcome::Miss);
        tlb.insert(entry(1, 0x100));
        assert_eq!(
            read(&mut tlb, 0x1234),
            LookupOutcome::Hit(PhysAddr::new(0x100234))
        );
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn superpage_entry_covers_whole_range() {
        let mut tlb = CpuTlb::new(4);
        tlb.insert(sp_entry(4, 0x80240, PageSize::Size16K));
        assert_eq!(
            read(&mut tlb, 0x4080),
            LookupOutcome::Hit(PhysAddr::new(0x8024_0080))
        );
        assert_eq!(
            read(&mut tlb, 0x7ffc),
            LookupOutcome::Hit(PhysAddr::new(0x8024_3ffc))
        );
        assert_eq!(read(&mut tlb, 0x8000), LookupOutcome::Miss);
    }

    #[test]
    fn protection_fault_reported() {
        let mut tlb = CpuTlb::new(4);
        tlb.insert(TlbEntry::new(Vpn::new(1), Ppn::new(1), PageSize::Base4K, Prot::READ).unwrap());
        let out = tlb.translate(
            VirtAddr::new(0x1000),
            AccessKind::Write,
            PrivilegeLevel::User,
        );
        assert!(matches!(
            out,
            LookupOutcome::Fault(Fault::Protection { .. })
        ));
    }

    #[test]
    fn supervisor_only_entries_hide_from_user() {
        let mut tlb = CpuTlb::new(4);
        tlb.insert(
            TlbEntry::new(
                Vpn::new(1),
                Ppn::new(1),
                PageSize::Base4K,
                Prot::RW | Prot::SUPERVISOR_ONLY,
            )
            .unwrap(),
        );
        assert!(matches!(read(&mut tlb, 0x1000), LookupOutcome::Fault(_)));
        let out = tlb.translate(
            VirtAddr::new(0x1000),
            AccessKind::Read,
            PrivilegeLevel::Supervisor,
        );
        assert!(matches!(out, LookupOutcome::Hit(_)));
    }

    #[test]
    fn nru_evicts_not_recently_used_first() {
        let mut tlb = CpuTlb::new(2);
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2));
        // Touch page 1 only; then clear generation by forcing a reset via
        // a third insert: both are used -> reset -> hand picks slot 0...
        // Instead, engineer: hit entry 1 so both used bits set from insert;
        // we need a deterministic check, so re-read entry 2 then entry 1,
        // insert -> victim must be a !used entry after reset.
        read(&mut tlb, 0x1000);
        tlb.insert(entry(3, 3));
        // Capacity 2: one of vpn1/vpn2 was evicted; after the reset the
        // scan starts at the hand (slot 0). What must hold: vpn3 present,
        // exactly one of vpn1/vpn2 present.
        assert!(tlb.entry_for(Vpn::new(3)).is_some());
        let survivors = [1u64, 2]
            .iter()
            .filter(|v| tlb.entry_for(Vpn::new(**v)).is_some())
            .count();
        assert_eq!(survivors, 1);
        assert_eq!(tlb.stats().replacements, 1);
        assert_eq!(tlb.stats().nru_resets, 1);
    }

    #[test]
    fn nru_prefers_unused_victims() {
        let mut tlb = CpuTlb::new(3);
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2));
        tlb.insert(entry(3, 3));
        // All used bits set by insertion; a 4th insert resets, then picks
        // the first unlocked slot. Touch 1 and 3 afterwards... simpler:
        // force reset now via insert.
        tlb.insert(entry(4, 4));
        // Now exactly one of {1,2,3} is gone and the others have used=false.
        // Touch the survivors so only the new entry's bit is... verify a
        // targeted scenario instead:
        let mut tlb = CpuTlb::new(3);
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2));
        tlb.insert(entry(3, 3));
        // Reset generation manually by filling: insert triggers reset and
        // evicts slot at hand=0 (vpn 1).
        tlb.insert(entry(4, 4));
        assert!(tlb.entry_for(Vpn::new(1)).is_none());
        // Touch 2 (used=true). 3 and 4: 3 has used=false (reset), 4 used=true.
        read(&mut tlb, 0x2000);
        tlb.insert(entry(5, 5));
        // Victim must be vpn 3: the only not-recently-used entry.
        assert!(tlb.entry_for(Vpn::new(3)).is_none());
        assert!(tlb.entry_for(Vpn::new(2)).is_some());
        assert!(tlb.entry_for(Vpn::new(4)).is_some());
        assert!(tlb.entry_for(Vpn::new(5)).is_some());
    }

    #[test]
    fn locked_entries_survive_replacement_and_purge() {
        let mut tlb = CpuTlb::new(2);
        tlb.insert_locked(sp_entry(0x80000 >> 2, 0, PageSize::Size16K));
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2)); // must evict vpn1, not the locked entry
        assert!(tlb.entry_for(Vpn::new(0x80000 >> 2)).is_some());
        assert!(tlb.entry_for(Vpn::new(2)).is_some());
        assert_eq!(tlb.purge_all(), 1);
        assert!(tlb.entry_for(Vpn::new(0x80000 >> 2)).is_some());
    }

    #[test]
    #[should_panic(expected = "no unlocked entry")]
    fn all_locked_tlb_cannot_replace() {
        let mut tlb = CpuTlb::new(1);
        tlb.insert_locked(entry(1, 1));
        tlb.insert(entry(2, 2));
    }

    #[test]
    fn insert_discards_overlapping_mapping() {
        let mut tlb = CpuTlb::new(8);
        tlb.insert(entry(4, 0x10));
        tlb.insert(entry(5, 0x11));
        tlb.insert(entry(9, 0x12));
        // A 16 KB superpage over vpns 4..8 must displace the two base
        // mappings inside it but not vpn 9.
        tlb.insert(sp_entry(4, 0x80240, PageSize::Size16K));
        assert_eq!(tlb.occupancy(), 2);
        assert_eq!(
            read(&mut tlb, 0x5040),
            LookupOutcome::Hit(PhysAddr::new(0x8024_1040))
        );
        assert!(tlb.entry_for(Vpn::new(9)).is_some());
    }

    #[test]
    fn purge_range_removes_cover() {
        let mut tlb = CpuTlb::new(8);
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2));
        tlb.insert(sp_entry(4, 4, PageSize::Size16K));
        assert_eq!(tlb.purge_range(Vpn::new(2), 3), 2); // vpn2 + superpage
        assert!(tlb.entry_for(Vpn::new(1)).is_some());
        assert!(tlb.entry_for(Vpn::new(2)).is_none());
        assert!(tlb.entry_for(Vpn::new(5)).is_none());
        assert_eq!(tlb.stats().purges, 2);
    }

    #[test]
    fn stats_miss_rate() {
        let mut tlb = CpuTlb::new(2);
        read(&mut tlb, 0x1000);
        tlb.insert(entry(1, 1));
        read(&mut tlb, 0x1000);
        read(&mut tlb, 0x1000);
        assert_eq!(tlb.stats().lookups(), 3);
        assert!((tlb.stats().miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_summarises() {
        let tlb = CpuTlb::new(4);
        assert!(tlb.to_string().contains("0/4"));
    }
}
