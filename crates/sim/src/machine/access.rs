//! The access engine: the translation memos, the aligned data path
//! (translation, L1 probe, bus and MMC timing, shadow-fault service),
//! misaligned and scalar accesses, and instruction execution with its
//! fetch translation. The batch planner behind the block and stream
//! entry points is the child module [`stream`].
//!
//! The memos are this module's alone: nothing else reads or writes one,
//! and [`kernel_exit`](Machine::kernel_exit) is the only caller of
//! [`invalidate_memos`](Machine::invalidate_memos).

use mtlb_cache::{AccessResult, FillKind};
use mtlb_mmc::BusOp;
use mtlb_tlb::{LookupOutcome, TlbEntry};
use mtlb_types::{AccessKind, Cycles, Fault, PhysAddr, PrivilegeLevel, VirtAddr, PAGE_SIZE};

use super::Machine;
use crate::ops::MachineOp;
use crate::report::Bucket;
use crate::Scalar;

mod stream;

/// Direct-mapped translation-memo table size per access kind (a power
/// of two; indexed by the low bits of the VPN).
const MEMO_WAYS: usize = 64;

/// One core's translation memos: recently translated data pages, one
/// table per access kind, direct-mapped by the low VPN bits so
/// page-alternating loops (key + table, source + histogram) keep all
/// their hot pages memoized at once. The tables are boxed to keep the
/// core's hot scalars within a few cache lines of each other (inline
/// tables measured 6 % slower on the live workloads).
#[derive(Debug)]
pub(super) struct Memos {
    /// Generation counter guarding the tables: bumped on every core by
    /// [`invalidate_memos`](Machine::invalidate_memos) on every event
    /// that can change a translation, TLB slot contents or page
    /// residency. A memo is valid only while its recorded generation
    /// matches.
    memo_gen: u64,
    /// The loads' table, then the stores' (indexed by `write as usize`).
    tables: [Box<[Option<AccessMemo>; MEMO_WAYS]>; 2],
}

impl Memos {
    /// Empty tables.
    pub(super) fn new() -> Self {
        let empty = || Box::new([None; MEMO_WAYS]);
        Memos {
            memo_gen: 0,
            tables: [empty(), empty()],
        }
    }
}

/// One-line translation memo: the last successfully translated data
/// page for one access kind. Valid while `gen` matches its core's
/// `memo_gen` — any TLB fill/purge/remap/paging/context-switch bumps
/// the generation, so a valid memo proves the TLB slot, the bus
/// translation and the real (DRAM) backing are all unchanged since the
/// recorded access.
#[derive(Clone, Copy, Debug)]
struct AccessMemo {
    /// `Memos::memo_gen` at establishment.
    gen: u64,
    /// [`TranslationScheme::generation`](mtlb_tlb::TranslationScheme::generation)
    /// at establishment: the memo's validity (`gen` unchanged) implies
    /// no fill/purge/shootdown has touched the front end since, so its
    /// content generation must still match — debug-asserted on every
    /// replay.
    tlb_gen: u64,
    /// 4 KB virtual page index this memo covers.
    vpn: u64,
    /// Unified-TLB slot that served the translation (for crediting
    /// replayed hits to the right entry).
    slot: usize,
    /// Bus (possibly shadow) address of the page's first byte.
    bus_page: PhysAddr,
    /// Real DRAM address of the page's first byte.
    real_page: PhysAddr,
}

impl Machine {
    /// Invalidates every outstanding translation memo by bumping every
    /// core's generation counter. Its one caller is
    /// [`kernel_exit`](Machine::kernel_exit): every kernel entry that
    /// may change TLB contents, mappings or page residency leaves
    /// through it.
    #[inline]
    pub(super) fn invalidate_memos(&mut self) {
        for core in &mut self.cores {
            core.memos.memo_gen = core.memos.memo_gen.wrapping_add(1);
        }
    }

    /// Enables or disables the host-side fast paths (translation memos
    /// and batched fast-forwarding). On by default. Simulated cycles and
    /// every statistic are identical either way — that is the property
    /// the differential tests pin; disabling recovers the pure slow-path
    /// reference machine they compare against.
    pub fn set_fast_paths(&mut self, on: bool) {
        self.fast_paths = on;
    }

    /// Runs the software miss handler for `va` after a CPU TLB miss,
    /// charging its cycles to the tlb-miss bucket. A successful walk
    /// refills the TLB (and may auto-promote a region, shooting down the
    /// remapped range on the other cores). A walk that finds no PTE
    /// fills nothing and changes no TLB or mapping state, so the memos
    /// outlive it; it is counted for the audit.
    fn refill(&mut self, va: VirtAddr) -> Result<TlbEntry, Fault> {
        // The miss-interval histogram.
        let now = self.ledger.total();
        if let Some(prev) = self.last_miss_at.replace(now) {
            self.miss_intervals.record((now - prev).get());
        }
        let (filled, c) = self.kernel.handle_tlb_miss(&mut kctx!(self), va);
        if filled.is_ok() {
            self.kernel_exit(Bucket::TlbMiss, c);
        } else {
            self.walk_faults += 1;
            self.kernel_return(Bucket::TlbMiss, c);
        }
        filled
    }

    /// Executes `n` single-cycle instructions, advancing the simulated PC
    /// cyclically through the text segment and translating instruction
    /// fetches through the micro-ITLB (then the unified TLB, then the
    /// software miss handler).
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] when an instruction fetch hits unmapped or
    /// non-executable memory; the batch's user-cycle charge has already
    /// been made at that point.
    pub fn try_execute(&mut self, n: u64) -> Result<(), Fault> {
        self.record_op(|| MachineOp::Execute { n });
        self.execute_inner(n)
    }

    /// [`try_execute`](Machine::try_execute) without the op recording,
    /// for internal callers (the batch engine), so a recorded stream
    /// operation replays as one op rather than one op per item.
    fn execute_inner(&mut self, n: u64) -> Result<(), Fault> {
        self.ledger.charge(Bucket::User, Cycles::new(n));
        // One lookup of the active core serves the whole call unless a
        // fetch misses the micro-ITLB.
        let mut core = self.core_mut();
        core.instructions = core.instructions.saturating_add(n);
        let mut remaining = n.saturating_mul(4); // 4-byte instructions
        while remaining > 0 {
            let va = core.code_base + core.pc_offset;
            if core.itlb.translate(va).is_none() {
                self.ifetch_miss(va)?;
                core = self.core_mut();
            }
            let to_page_end = PAGE_SIZE - va.page_offset();
            let to_wrap = core.code_len - core.pc_offset;
            let step = remaining.min(to_page_end).min(to_wrap);
            // `step <= to_wrap`, so this is `% code_len` without a divide.
            core.pc_offset += step;
            if core.pc_offset == core.code_len {
                core.pc_offset = 0;
            }
            remaining -= step;
        }
        Ok(())
    }

    /// Instruction-fetch translation after a micro-ITLB miss: the
    /// unified TLB, then the software miss handler, refilling the
    /// micro-ITLB either way.
    fn ifetch_miss(&mut self, va: VirtAddr) -> Result<(), Fault> {
        let core = self.core_mut();
        let entry = match core
            .tlb
            .translate(va, AccessKind::IFetch, PrivilegeLevel::User)
        {
            #[expect(
                clippy::expect_used,
                reason = "Structure invariant: `probe` follows a hit outcome for the same vpn within one access."
            )]
            LookupOutcome::Hit(_) => core
                .tlb
                .entry_for(va.vpn())
                .expect("entry present after a hit"),
            LookupOutcome::Miss => self.refill(va)?,
            LookupOutcome::Fault(f) => return Err(f),
        };
        self.core_mut().itlb.refill(entry);
        Ok(())
    }

    fn translate_data(&mut self, va: VirtAddr, kind: AccessKind) -> Result<PhysAddr, Fault> {
        loop {
            match self
                .core_mut()
                .tlb
                .translate(va, kind, PrivilegeLevel::User)
            {
                LookupOutcome::Hit(pa) => return Ok(pa),
                LookupOutcome::Miss => {
                    self.refill(va)?;
                }
                LookupOutcome::Fault(f) => return Err(f),
            }
        }
    }

    /// Runs the cache + bus + MMC timing for one access, servicing shadow
    /// page faults transparently (swap-in and retry, §4). `probe` is the
    /// outcome of the active core's
    /// [`cache_probe`](super::cores::CoreState::cache_probe) for this
    /// access — taken by the caller, which already holds the core, so the
    /// hit path looks the active core up once. Returns whether a shadow
    /// fault was serviced, which killed every memo.
    fn cached_access(&mut self, va: VirtAddr, pa: PhysAddr, probe: AccessResult) -> bool {
        // Single-cycle cache pipeline, hit or miss.
        self.ledger.charge(Bucket::User, Cycles::new(1));
        let AccessResult::Miss { fill, writeback } = probe else {
            return false;
        };
        // The miss goes to the shared bus: pay arbitration if another
        // core owned it (free at one core).
        self.arbitrate_bus();
        if let Some(victim) = writeback {
            #[expect(
                clippy::expect_used,
                reason = "Structure invariant: the OS flushes a page's cache lines before swapping it out, so a victim writeback never targets a swapped page."
            )]
            let resp = self
                .mmc
                .bus_access(victim, BusOp::Writeback, &mut self.mem)
                .expect(
                    "a dirty victim's page cannot be swapped out: the OS flushes before swapping",
                );
            self.ledger
                .charge(Bucket::MemStall, Cycles::from_bus_cycles(resp.mmc_cycles));
        }
        let op = match fill {
            FillKind::Shared => BusOp::FillShared,
            FillKind::Exclusive => BusOp::FillExclusive,
        };
        let mut faulted = false;
        loop {
            match self.mmc.bus_access(pa, op, &mut self.mem) {
                Ok(resp) => {
                    self.ledger
                        .charge(Bucket::MemStall, Cycles::from_bus_cycles(resp.mmc_cycles));
                    return faulted;
                }
                Err(Fault::ShadowPageFault { shadow }) => {
                    // Precise fault: the OS pages the base page back in
                    // and the access retries. Servicing may page other
                    // frames out and purge TLB state, so memos die here.
                    match self.kernel.handle_shadow_fault(&mut kctx!(self), shadow) {
                        // Per-base-page swap-in needs no shootdown
                        // (residency is checked at the shared MMC), but
                        // the exit drains anything the service queued.
                        Ok(c) => {
                            self.kernel_exit(Bucket::Fault, c);
                            faulted = true;
                        }
                        #[expect(
                            clippy::panic,
                            reason = "Harness boundary: the kernel services every shadow fault it raised; failure means the swap state is corrupt."
                        )]
                        Err(f) => panic!("unserviceable shadow fault: {f}"),
                    }
                }
                #[expect(
                    clippy::panic,
                    reason = "Harness boundary: translations the kernel installed never point outside DRAM or the shadow window."
                )]
                Err(f) => panic!("bus error during access to {va}: {f}"),
            }
        }
    }

    /// Bus → real resolution after a completed access. A real bus
    /// address is its own translation; shadow addresses take the
    /// functional table walk.
    #[expect(
        clippy::expect_used,
        reason = "Structure invariant: the access just completed (faulting in if needed), so the page's residency entry exists."
    )]
    fn functional_addr(&self, pa: PhysAddr) -> PhysAddr {
        if !self.mmc.is_shadow(pa) {
            debug_assert_eq!(self.mmc.translate_functional(pa, &self.mem).ok(), Some(pa));
            return pa;
        }
        self.mmc
            .translate_functional(pa, &self.mem)
            .expect("page is resident after the access completed")
    }

    /// The aligned data-access path: translates, counts the access, runs
    /// the cache/bus timing, and returns `(bus, real)` addresses. A
    /// valid access memo replays the translation without consulting the
    /// TLB lookup machinery at all. A faulting access is neither counted
    /// nor charged.
    fn data_access(
        &mut self,
        va: VirtAddr,
        size: u64,
        write: bool,
    ) -> Result<(PhysAddr, PhysAddr), Fault> {
        debug_assert!(
            va.is_aligned(size),
            "data_access is the aligned path; misaligned scalars go through misaligned_rw"
        );
        let vpn = va.vpn().index();
        let way = (vpn as usize) & (MEMO_WAYS - 1);
        if self.fast_paths {
            if let Some(hit) = self.memo_access(va, way, write) {
                return Ok(hit);
            }
        }
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let pa = self.translate_data(va, kind)?;
        // Both translate hit paths leave the hit slot as the TLB's MRU,
        // so this names the entry that served (and will keep serving)
        // this page.
        let core = self.core_mut();
        if write {
            core.stores = core.stores.saturating_add(1);
        } else {
            core.loads = core.loads.saturating_add(1);
        }
        let slot = core.tlb.last_hit_slot();
        let tlb_gen = core.tlb.generation();
        let probe = core.cache_probe(va, pa, write);
        let gen = core.memos.memo_gen;
        let faulted = self.cached_access(va, pa, probe);
        let real = self.functional_addr(pa);
        if self.fast_paths && !faulted {
            // Nothing invalidated during the access, so the slot, the
            // bus mapping and the real backing are all current: memoize.
            let off = va.page_offset();
            self.core_mut().memos.tables[write as usize][way] = Some(AccessMemo {
                gen,
                tlb_gen,
                vpn,
                slot,
                bus_page: pa - off,
                real_page: real - off,
            });
        }
        Ok((pa, real))
    }

    /// Replays an access whose page has a valid memo in `way` (`None`
    /// without one): identical counters, TLB side effects, cache/bus
    /// timing and returned addresses, with the translation lookup
    /// skipped. One lookup of the active core serves the whole hit.
    fn memo_access(
        &mut self,
        va: VirtAddr,
        way: usize,
        write: bool,
    ) -> Option<(PhysAddr, PhysAddr)> {
        let core = &mut self.cores[self.active];
        let mo = core.memos.tables[write as usize][way]?;
        if mo.gen != core.memos.memo_gen || mo.vpn != va.vpn().index() {
            return None;
        }
        // A valid memo proves nothing invalidated translations since it
        // was recorded, which in turn means the TLB content generation
        // cannot have moved (fills, purges and shootdowns all bump
        // `memo_gen` too). The trait's generation hook makes the
        // implication checkable.
        debug_assert_eq!(
            core.tlb.generation(),
            mo.tlb_gen,
            "access memo outlived its TLB generation"
        );
        let off = va.page_offset();
        if write {
            core.stores = core.stores.saturating_add(1);
        } else {
            core.loads = core.loads.saturating_add(1);
        }
        // Exactly the side effects of the translate hit the slow path
        // would have made (hit counter, NRU used bit, MRU pointer).
        core.tlb.note_fast_hits(mo.slot, 1);
        let pa = mo.bus_page + off;
        debug_assert!(
            core.tlb
                .entry_for(va.vpn())
                .is_some_and(|e| e.translate(va) == Some(pa)),
            "access memo diverged from the TLB"
        );
        let probe = core.cache_probe(va, pa, write);
        if !self.cached_access(va, pa, probe) {
            return Some((pa, mo.real_page + off));
        }
        // A shadow fault was serviced inside the access: the page was
        // just paged back in, possibly into a different real frame.
        // The memo is already dead (generation moved); re-derive.
        Some((pa, self.functional_addr(pa)))
    }

    /// Scalar access at an address that is *not* naturally aligned for
    /// `bytes.len()`: modelled as the classic pair of aligned accesses
    /// covering the two straddled windows (MIPS `lwl`/`lwr` style), so a
    /// misaligned scalar counts as two loads (or stores) and makes two
    /// cache accesses. Data still moves byte-exact.
    ///
    /// Each half's bytes move immediately after its own aligned access,
    /// before the other half's access runs. Ordering is what defines the
    /// fault semantics when the windows straddle a page boundary: the
    /// second access may shadow-fault, and servicing it can page the
    /// *first* window's frame out (CLOCK eviction under memory
    /// pressure), so a translation obtained for the first window is
    /// stale by the time the second access completes. Committing
    /// per-half keeps the first half exactly-once — never re-run
    /// (double-charged) and never applied to a recycled frame
    /// (half-committed).
    fn misaligned_rw(&mut self, va: VirtAddr, bytes: &mut [u8], write: bool) -> Result<(), Fault> {
        let n = bytes.len() as u64;
        debug_assert!(!va.is_aligned(n), "aligned scalars take the fast path");
        let lo = va.align_down(n);
        let hi = lo + n;
        // Bytes of the scalar that live in the low window.
        let (low, high) = bytes.split_at_mut(hi.offset_from(va) as usize);
        for (window, part, skip) in [(lo, low, va.offset_from(lo)), (hi, high, 0)] {
            let (_, real) = self.data_access(window, n, write)?;
            if write {
                self.mem.write(real + skip, part);
            } else {
                self.mem.read(real + skip, part);
            }
        }
        Ok(())
    }

    /// Loads a little-endian [`Scalar`]. A misaligned address works but
    /// costs a second access (see the [`Machine`] docs).
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses (so do all the `try_*` accessors).
    pub fn try_read<T: Scalar>(&mut self, va: VirtAddr) -> Result<T, Fault> {
        self.record_op(|| MachineOp::Read { va, size: T::SIZE });
        let n = u64::from(T::SIZE);
        let mut bytes = [0u8; 8];
        let buf = &mut bytes[..n as usize];
        if va.is_aligned(n) {
            let (_, real) = self.data_access(va, n, false)?;
            self.mem.read_scalar(real, buf);
        } else {
            self.misaligned_rw(va, buf, false)?;
        }
        Ok(T::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Stores a little-endian [`Scalar`] (misaligned addresses
    /// supported).
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_write<T: Scalar>(&mut self, va: VirtAddr, v: T) -> Result<(), Fault> {
        self.record_op(|| MachineOp::Write { va, size: T::SIZE });
        let n = u64::from(T::SIZE);
        let mut bytes = v.to_bits().to_le_bytes();
        let buf = &mut bytes[..n as usize];
        if va.is_aligned(n) {
            let (_, real) = self.data_access(va, n, true)?;
            self.mem.write_scalar(real, buf);
            Ok(())
        } else {
            self.misaligned_rw(va, buf, true)
        }
    }

    /// [`try_read::<u32>`](Machine::try_read), kept by this name because
    /// the `benchmark/` crate calls it.
    #[inline]
    pub fn try_read_u32(&mut self, va: VirtAddr) -> Result<u32, Fault> {
        self.try_read(va)
    }

    /// [`try_write::<u32>`](Machine::try_write), kept by this name
    /// because the `benchmark/` crate calls it.
    #[inline]
    pub fn try_write_u32(&mut self, va: VirtAddr, v: u32) -> Result<(), Fault> {
        self.try_write(va, v)
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::testing::*;
    use crate::{Machine, MachineConfig};
    use mtlb_types::{AccessKind, Cycles, Fault, Prot, VirtAddr, PAGE_SIZE};

    #[test]
    fn scalar_round_trips_through_full_hierarchy() {
        for mut m in [mtlb_machine(), base_machine()] {
            m.map_region(DATA, 64 * 1024, Prot::RW);
            m.remap(DATA, 64 * 1024);
            m.try_write::<u8>(DATA + 1, 0xaa).unwrap();
            m.try_write::<u16>(DATA + 2, 0xbbcc).unwrap();
            m.try_write::<u32>(DATA + 4, 0xdead_beef).unwrap();
            m.try_write::<u64>(DATA + 8, 0x0123_4567_89ab_cdef).unwrap();
            m.try_write::<f64>(DATA + 16, 2.5).unwrap();
            assert_eq!(m.try_read::<u8>(DATA + 1).unwrap(), 0xaa);
            assert_eq!(m.try_read::<u16>(DATA + 2).unwrap(), 0xbbcc);
            assert_eq!(m.try_read::<u32>(DATA + 4).unwrap(), 0xdead_beef);
            assert_eq!(m.try_read::<u64>(DATA + 8).unwrap(), 0x0123_4567_89ab_cdef);
            assert_eq!(m.try_read::<f64>(DATA + 16).unwrap(), 2.5);
        }
    }

    #[test]
    fn data_survives_remap() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 64 * 1024, Prot::RW);
        for i in 0..16u64 {
            m.try_write::<u64>(DATA + i * PAGE_SIZE + 8, i + 100)
                .unwrap();
        }
        let rep = m.remap(DATA, 64 * 1024);
        assert_eq!(rep.superpages.len(), 1);
        for i in 0..16u64 {
            assert_eq!(
                m.try_read::<u64>(DATA + i * PAGE_SIZE + 8).unwrap(),
                i + 100
            );
        }
    }

    #[test]
    fn remapped_region_uses_one_tlb_entry() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 256 * 1024, Prot::RW);
        m.remap(DATA, 256 * 1024);
        m.reset_stats();
        // Touch all 64 pages: one miss fills a 256 KB superpage entry,
        // everything else hits.
        for i in 0..64u64 {
            m.try_read::<u32>(DATA + i * PAGE_SIZE).unwrap();
        }
        let r = m.report();
        assert_eq!(r.tlb.misses, 1, "one superpage entry covers the region");
        // Baseline machine: one miss per page.
        let mut b = base_machine();
        b.map_region(DATA, 256 * 1024, Prot::RW);
        b.remap(DATA, 256 * 1024);
        b.reset_stats();
        for i in 0..64u64 {
            b.try_read::<u32>(DATA + i * PAGE_SIZE).unwrap();
        }
        assert_eq!(b.report().tlb.misses, 64);
    }

    #[test]
    fn mtlb_reach_extension_headline() {
        // The abstract's claim in miniature: a small CPU TLB plus the
        // MTLB reaches a working set that thrashes the same TLB without
        // superpages. 8 TLB entries, 32 pages of data.
        let len = 32 * PAGE_SIZE;
        let run = |mut m: Machine| {
            m.map_region(DATA, len, Prot::RW);
            m.remap(DATA, len);
            m.reset_stats();
            for round in 0..8u64 {
                for i in 0..32u64 {
                    m.try_read::<u32>(DATA + i * PAGE_SIZE + round * 64)
                        .unwrap();
                }
            }
            m.report()
        };
        let with = run(Machine::new(MachineConfig::paper_mtlb(8)));
        let without = run(Machine::new(MachineConfig::paper_base(8)));
        assert!(with.tlb.misses < 4, "superpages fit easily: {:?}", with.tlb);
        assert_eq!(without.tlb.misses, 8 * 32, "every touch misses");
        assert!(with.total_cycles < without.total_cycles);
    }

    #[test]
    fn execute_accounts_instructions_and_ifetches() {
        let mut m = mtlb_machine();
        m.load_program(8 * PAGE_SIZE, false);
        m.reset_stats();
        m.try_execute(10_000).unwrap();
        let r = m.report();
        assert_eq!(r.instructions, 10_000);
        assert!(r.buckets.user >= Cycles::new(10_000));
        // 10k instructions * 4 B = 40 KB of fetches over an 8-page loop:
        // ~10 page crossings; the first 8 miss the ITLB.
        assert!(r.itlb_misses >= 8);
        assert!(r.itlb_hits > 0 || r.itlb_misses < 11);
    }

    #[test]
    fn text_superpage_eliminates_itlb_pressure_on_main_tlb() {
        let mut m = mtlb_machine();
        m.load_program(64 * 1024, true); // 16 pages, remapped
        m.reset_stats();
        m.try_execute(100_000).unwrap();
        let r = m.report();
        assert!(
            r.tlb.misses <= 1,
            "one 64 KB text superpage serves all fetch translations: {:?}",
            r.tlb
        );
    }

    #[test]
    fn swapped_page_faults_and_recovers_transparently() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 16 * 1024, Prot::RW);
        m.remap(DATA, 16 * 1024);
        m.try_write::<u64>(DATA + 2 * PAGE_SIZE, 777).unwrap();
        m.swap_out_superpage(DATA.vpn());
        // The access below faults in the MMC, the OS swaps the page in,
        // and the load completes with the right value.
        assert_eq!(m.try_read::<u64>(DATA + 2 * PAGE_SIZE).unwrap(), 777);
        let r = m.report();
        assert_eq!(r.kernel.shadow_faults_serviced, 1);
        assert!(r.buckets.fault > Cycles::ZERO);
    }

    #[test]
    fn mtlb_machine_charges_detect_cycle_on_fills() {
        let mut with = mtlb_machine();
        let mut without = base_machine();
        for m in [&mut with, &mut without] {
            m.map_region(DATA, 4096, Prot::RW);
            m.reset_stats();
            m.try_read::<u32>(DATA).unwrap(); // one cold miss
        }
        // A *real*-address fill never touches the MTLB table, so the only
        // difference is the paper's 1-cycle shadow-detect classification:
        // 29 vs 28 MMC cycles.
        assert_eq!(with.report().mmc.fill_mmc_cycles, 29);
        assert_eq!(without.report().mmc.fill_mmc_cycles, 28);
    }

    #[test]
    fn misaligned_scalars_round_trip() {
        for mut m in [mtlb_machine(), base_machine()] {
            m.map_region(DATA, 16 * 1024, Prot::RW);
            // Offsets straddling every alignment boundary, including a
            // base-page boundary (offset 4094 with a u32).
            m.try_write::<u16>(DATA + 1, 0xa55a).unwrap();
            m.try_write::<u32>(DATA + 6, 0xdead_beef).unwrap();
            m.try_write::<u32>(DATA + 4094, 0x0102_0304).unwrap();
            m.try_write::<u64>(DATA + 13, 0x1122_3344_5566_7788)
                .unwrap();
            assert_eq!(m.try_read::<u16>(DATA + 1).unwrap(), 0xa55a);
            assert_eq!(m.try_read::<u32>(DATA + 6).unwrap(), 0xdead_beef);
            assert_eq!(m.try_read::<u32>(DATA + 4094).unwrap(), 0x0102_0304);
            assert_eq!(m.try_read::<u64>(DATA + 13).unwrap(), 0x1122_3344_5566_7788);
        }
    }

    #[test]
    fn misaligned_scalar_bytes_agree_with_aligned_view() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 4096, Prot::RW);
        m.try_write::<u64>(DATA, 0x8877_6655_4433_2211).unwrap();
        // A misaligned u32 at offset 2 must see bytes 2..6 of the u64.
        assert_eq!(m.try_read::<u32>(DATA + 2).unwrap(), 0x6655_4433);
        // And a misaligned store must leave its neighbours intact:
        // bytes 3..5 become ef, be in a little-endian u64.
        m.try_write::<u16>(DATA + 3, 0xbeef).unwrap();
        assert_eq!(m.try_read::<u64>(DATA).unwrap(), 0x8877_66be_ef33_2211);
    }

    #[test]
    fn misaligned_scalar_costs_two_accesses() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 4096, Prot::RW);
        m.reset_stats();
        m.try_read::<u32>(DATA + 2).unwrap(); // straddles: lwl/lwr-style pair
        assert_eq!(m.report().loads, 2);
        m.reset_stats();
        m.try_read::<u32>(DATA + 4).unwrap();
        assert_eq!(m.report().loads, 1, "aligned stays a single access");
        m.reset_stats();
        m.try_write::<u64>(DATA + 3, 7).unwrap();
        assert_eq!(m.report().stores, 2);
    }

    #[test]
    fn unmapped_access_is_a_typed_fault() {
        let mut m = mtlb_machine();
        let va = VirtAddr::new(0x6666_0000);
        assert!(matches!(
            m.try_read::<u32>(va),
            Err(Fault::PageNotMapped { va: f }) if f == va
        ));
        // The fault is precise: the machine remains usable.
        m.try_execute(1).unwrap();
    }

    #[test]
    fn write_to_readonly_is_a_protection_fault() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 4096, Prot::READ);
        assert!(matches!(
            m.try_write::<u32>(DATA, 1),
            Err(Fault::Protection {
                kind: AccessKind::Write,
                ..
            })
        ));
        // The read side of the same page is fine.
        assert_eq!(m.try_read::<u32>(DATA).unwrap(), 0);
    }

    #[test]
    fn determinism_same_config_same_cycles() {
        let run = || {
            let mut m = mtlb_machine();
            m.map_region(DATA, 128 * 1024, Prot::RW);
            m.remap(DATA, 128 * 1024);
            for i in 0..1000u64 {
                m.try_write::<u32>(DATA + (i * 4093 % (128 * 1024)) / 4 * 4, i as u32)
                    .unwrap();
            }
            m.try_execute(5000).unwrap();
            m.cycles()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn memo_invalidation_on_remap_purge_and_context_switch() {
        let program = |m: &mut Machine| {
            m.map_region(DATA, 64 * 1024, Prot::RW);
            let mut acc = 0u64;
            // Establish hot read+write memos.
            for i in 0..64u64 {
                m.try_write::<u32>(DATA + i * 4, i as u32).unwrap();
                acc += u64::from(m.try_read::<u32>(DATA + i * 4).unwrap());
            }
            // Remap to shadow superpages: bus addresses move.
            m.remap(DATA, 64 * 1024);
            acc += u64::from(m.try_read::<u32>(DATA + 4).unwrap());
            m.try_write::<u32>(DATA + 8, 1234).unwrap();
            // Swap the superpage out: residency changes, TLB purged;
            // the next same-page access must shadow-fault and recover.
            m.swap_out_superpage(DATA.vpn());
            acc += u64::from(m.try_read::<u32>(DATA + 8).unwrap());
            // Context switch away and back purges replaceable TLB state.
            let pid = m.spawn_process();
            m.try_switch_process(pid).unwrap();
            m.try_switch_process(0).unwrap();
            acc += u64::from(m.try_read::<u32>(DATA + 12).unwrap());
            // Demotion rewrites the mapping granularity.
            m.demote_superpage(DATA.vpn());
            m.try_write::<u32>(DATA + 12, 77).unwrap();
            acc += u64::from(m.try_read::<u32>(DATA + 12).unwrap());
            acc
        };
        let mut fast = mtlb_machine();
        let mut slow = mtlb_machine();
        slow.set_fast_paths(false);
        assert_eq!(program(&mut fast), program(&mut slow));
        assert_eq!(fast.report().to_json(), slow.report().to_json());
        assert_eq!(
            fast.guest_memory().content_digest(),
            slow.guest_memory().content_digest()
        );
        // And the fast machine really did take the fast path: the test
        // is vacuous unless memos were live between the events.
        assert!(fast.report().tlb.hits > 0);
    }
}
