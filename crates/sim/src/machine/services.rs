//! Kernel entry and exit, and the syscall shims: each service leaves
//! the kernel through [`kernel_exit`](Machine::kernel_exit), or through
//! [`kernel_return`](Machine::kernel_return) when it changed no
//! translation (an `sbrk` inside the mapped heap).

use mtlb_os::{Kernel, RemapReport, SwapOutReport, UserLayout};
use mtlb_types::{Cycles, Fault, Prot, VirtAddr, Vpn, PAGE_SIZE};

use super::Machine;
use crate::ops::MachineOp;
use crate::report::Bucket;

impl Machine {
    /// The epilogue of every kernel entry: translation memos die, the
    /// entry's cycles land in `bucket`, and the page flushes and
    /// shootdowns it queued reach the other cores before the machine
    /// runs user code again.
    pub(super) fn kernel_exit(&mut self, bucket: Bucket, cycles: Cycles) {
        self.invalidate_memos();
        self.kernel_return(bucket, cycles);
    }

    /// [`kernel_exit`](Machine::kernel_exit) for a kernel entry that
    /// changed no translation, protection, residency or TLB entry: the
    /// translation memos stay valid.
    fn kernel_return(&mut self, bucket: Bucket, cycles: Cycles) {
        self.ledger.charge(bucket, cycles);
        self.deliver_remote();
    }

    /// Maps a text segment of `len` bytes at the conventional text base
    /// and points the simulated PC at it. `remap_text` additionally
    /// promotes it to shadow superpages (the paper simulates loader
    /// support via explicit remaps, §2.3).
    pub fn load_program(&mut self, len: u64, remap_text: bool) {
        self.record_op(|| MachineOp::LoadProgram { len, remap_text });
        assert!(len > 0, "program text cannot be empty");
        let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let base = self.program_base();
        let c = self
            .kernel
            .map_region(&mut kctx!(self), base, len, Prot::RX);
        self.kernel_exit(Bucket::Kernel, c);
        if remap_text {
            let rep = self.kernel.remap(&mut kctx!(self), base, len);
            self.kernel_exit(Bucket::Kernel, rep.total_cycles());
        }
        let core = self.core_mut();
        core.code_base = base;
        core.code_len = len;
        core.pc_offset = 0;
    }

    /// Where [`load_program`](Machine::load_program) maps the running
    /// process's text: clear of the boot stub page and 64 KB-aligned so
    /// modest text segments promote to a single superpage, inside the
    /// process's private virtual window (process 0 — the boot process —
    /// keeps the historical base), so co-scheduled processes each load
    /// their own text without colliding in the shared hashed page table.
    #[must_use]
    pub fn program_base(&self) -> VirtAddr {
        let window = Self::process_heap_base(self.kernel.current_process())
            .offset_from(UserLayout::HEAP_BASE);
        UserLayout::TEXT_BASE + 64 * 1024 + window
    }

    /// Maps fresh zeroed pages over `[start, start+len)`.
    pub fn map_region(&mut self, start: VirtAddr, len: u64, prot: Prot) {
        self.record_op(|| MachineOp::MapRegion { start, len, prot });
        let c = self.kernel.map_region(&mut kctx!(self), start, len, prot);
        self.kernel_exit(Bucket::Kernel, c);
    }

    /// The `remap()` syscall: promotes the region to shadow-backed
    /// superpages (no-op on baseline machines).
    pub fn remap(&mut self, start: VirtAddr, len: u64) -> RemapReport {
        self.record_op(|| MachineOp::Remap { start, len });
        let rep = self.kernel.remap(&mut kctx!(self), start, len);
        self.kernel_exit(Bucket::Kernel, rep.total_cycles());
        rep
    }

    /// The (modified) `sbrk()` syscall. Returns the previous break.
    pub fn sbrk(&mut self, increment: u64) -> VirtAddr {
        self.record_op(|| MachineOp::Sbrk { increment });
        let grows = !self.kernel.sbrk_fits(increment);
        let (old, c) = self.kernel.sbrk(&mut kctx!(self), increment);
        if grows {
            self.kernel_exit(Bucket::Kernel, c);
        } else {
            // Only the break moved: the memos outlive the call.
            self.kernel_return(Bucket::Kernel, c);
        }
        old
    }

    /// Explicitly swaps out the superpage containing `vpn` under the
    /// configured paging policy (§2.5 experiments).
    pub fn swap_out_superpage(&mut self, vpn: Vpn) -> SwapOutReport {
        self.record_op(|| MachineOp::SwapOutSuperpage { vpn });
        let rep = self.kernel.swap_out_superpage(&mut kctx!(self), vpn);
        self.kernel_exit(Bucket::Kernel, rep.cycles);
        rep
    }

    /// Demotes the superpage containing `vpn` back to 4 KB pages.
    pub fn demote_superpage(&mut self, vpn: Vpn) {
        self.record_op(|| MachineOp::DemoteSuperpage { vpn });
        let c = self.kernel.demote_superpage(&mut kctx!(self), vpn);
        self.kernel_exit(Bucket::Kernel, c);
    }

    /// Reads the per-base-page referenced/dirty bits of the superpage
    /// containing `vpn`. The read costs no simulated cycles.
    pub fn page_bits(&mut self, vpn: Vpn) -> Vec<(Vpn, bool, bool)> {
        self.record_op(|| MachineOp::PageBits { vpn });
        let bits = self.kernel.page_bits(&mut kctx!(self), vpn);
        // Harvesting referenced bits may consult/adjust TLB state.
        self.kernel_exit(Bucket::Kernel, Cycles::ZERO);
        bits
    }

    /// Creates a new process (fresh address space in its own virtual
    /// window); switch to it with
    /// [`try_switch_process`](Machine::try_switch_process).
    pub fn spawn_process(&mut self) -> usize {
        self.record_op(|| MachineOp::SpawnProcess);
        self.kernel.spawn_process()
    }

    /// Context-switches to `pid`, purging replaceable TLB state on this
    /// core, shooting down the other cores' TLBs, and charging the
    /// scheduler cost.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::NoSuchProcess`] when `pid` was never spawned;
    /// the machine is unchanged (and nothing is charged) in that case.
    pub fn try_switch_process(&mut self, pid: usize) -> Result<(), Fault> {
        self.record_op(|| MachineOp::SwitchProcess { pid: pid as u64 });
        let c = self.kernel.switch_process(&mut kctx!(self), pid)?;
        self.kernel_exit(Bucket::Kernel, c);
        Ok(())
    }

    /// The private heap-window base of a process (for mapping regions
    /// that do not collide across processes).
    #[must_use]
    pub fn process_heap_base(pid: usize) -> VirtAddr {
        Kernel::heap_base(pid)
    }

    /// The cache color of the bus address backing a mapped page
    /// (meaningful on physically-indexed caches).
    ///
    /// # Panics
    ///
    /// Panics when `vpn` is unmapped.
    #[must_use]
    pub fn page_color(&self, vpn: Vpn) -> u64 {
        #[expect(
            clippy::panic,
            reason = "Documented contract: `# Panics` on the public accessor — asking for the color of an unmapped page is caller error."
        )]
        let info = self
            .kernel
            .aspace()
            .page(vpn)
            .unwrap_or_else(|| panic!("page_color of unmapped vpn {vpn}"));
        self.cfg.cache.color_of(info.backing.frame().base_addr())
    }

    /// No-copy page recoloring via shadow memory (§6 extension): moves
    /// the page to a shadow bus address of the requested cache color.
    pub fn recolor_page(&mut self, vpn: Vpn, color: u64) {
        self.record_op(|| MachineOp::RecolorPage { vpn, color });
        let c = self.kernel.recolor_page(&mut kctx!(self), vpn, color);
        self.kernel_exit(Bucket::Kernel, c);
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::testing::*;
    use mtlb_types::{Fault, PageSize, Prot, PAGE_SIZE};

    #[test]
    fn per_page_dirty_bits_visible_to_os() {
        let mut m = mtlb_machine();
        m.map_region(DATA, 64 * 1024, Prot::RW);
        m.remap(DATA, 64 * 1024);
        // Write pages 2 and 9; read page 5.
        m.try_write::<u32>(DATA + 2 * PAGE_SIZE, 1).unwrap();
        m.try_write::<u32>(DATA + 9 * PAGE_SIZE, 1).unwrap();
        m.try_read::<u32>(DATA + 5 * PAGE_SIZE).unwrap();
        let bits = m.page_bits(DATA.vpn());
        assert_eq!(bits.len(), 16);
        for (i, (_, referenced, dirty)) in bits.iter().enumerate() {
            let expect_dirty = i == 2 || i == 9;
            let expect_ref = expect_dirty || i == 5;
            assert_eq!(*dirty, expect_dirty, "page {i} dirty bit");
            assert_eq!(*referenced, expect_ref, "page {i} referenced bit");
        }
    }

    #[test]
    fn sbrk_heap_is_usable_immediately() {
        let mut m = mtlb_machine();
        let p = m.sbrk(100_000);
        for i in 0..100u64 {
            m.try_write::<u32>(p + i * 1000 / 4 * 4, i as u32).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(m.try_read::<u32>(p + i * 1000 / 4 * 4).unwrap(), i as u32);
        }
        assert!(m.kernel().stats().superpages_created > 0);
    }

    #[test]
    fn superpage_sizes_observed_in_aspace() {
        let mut m = mtlb_machine();
        m.map_region(DATA, (1 << 20) + 64 * 1024, Prot::RW);
        m.remap(DATA, (1 << 20) + 64 * 1024);
        let sizes: Vec<PageSize> = m.kernel().aspace().superpages().map(|sp| sp.size).collect();
        assert_eq!(sizes, vec![PageSize::Size1M, PageSize::Size64K]);
    }

    #[test]
    fn switching_to_unknown_pid_is_a_clean_fault() {
        let mut m = mtlb_machine();
        let cycles_before = m.report().total_cycles;
        assert_eq!(
            m.try_switch_process(42),
            Err(Fault::NoSuchProcess { pid: 42 })
        );
        assert_eq!(m.report().total_cycles, cycles_before);
    }
}
