//! The batch planner and the block and stream entry points: the
//! access engine's second half. Every batched operation runs as the
//! sequence of scalar accesses and instruction batches its caller's
//! loop would have issued, cycle-identical to it, and fast-forwards the
//! runs it can prove identical.

use mtlb_mem::GuestMemory;
use mtlb_types::{
    AccessKind, Cycles, Fault, PhysAddr, PrivilegeLevel, VirtAddr, CACHE_LINE_SIZE, PAGE_SIZE,
};

use crate::machine::Machine;
use crate::ops::MachineOp;
use crate::report::Bucket;
use crate::Scalar;

/// One access stream of a batched operation: item `j` accesses
/// `base + j * size` (naturally aligned, `size` a [`Scalar`] width).
#[derive(Clone, Copy, Debug)]
struct Lane {
    base: VirtAddr,
    size: u64,
    write: bool,
}

impl Lane {
    /// A lane of `T` loads (or stores) from `base`, which must be
    /// naturally aligned for `T`.
    fn of<T: Scalar>(base: VirtAddr, write: bool) -> Lane {
        let size = u64::from(T::SIZE);
        assert!(
            base.is_aligned(size),
            "batched lane bases must be naturally aligned"
        );
        Lane { base, size, write }
    }
}

impl Machine {
    /// The batched-access engine. Runs `count` items; item `j` performs
    /// one aligned access per lane (in lane order) at `base + j * size`,
    /// then `instr` single-cycle instructions — exactly the sequence the
    /// caller's scalar loop would have issued, and cycle-identical to it.
    ///
    /// Per item it executes the slow scalar path once, then plans the
    /// longest run of following items that provably behave identically —
    /// every lane stays on its current 4 KB page with permission intact,
    /// every touched cache line is resident (so no bus traffic, no
    /// faults), and the fetch stream stays inside the micro-ITLB'd text
    /// page without wrapping — and replays that run in bulk: data moves
    /// through the real-address anchors, hit counters and NRU/MRU bits
    /// advance exactly as `k` slow iterations would have advanced them,
    /// and one summed charge lands in the user bucket where the slow
    /// path would have made `k × (lanes + instr)` single-cycle charges.
    ///
    /// `io` is invoked once per item per lane (item-major, lane-minor,
    /// matching the scalar order) with the guest memory, the lane index
    /// and the access's real address.
    fn stream<const LANES: usize, IO>(
        &mut self,
        lanes: [Lane; LANES],
        count: u64,
        instr: u64,
        mut io: IO,
    ) -> Result<(), Fault>
    where
        IO: FnMut(&mut GuestMemory, usize, PhysAddr, u64),
    {
        let mut anchors = [(PhysAddr::new(0), PhysAddr::new(0)); LANES];
        let mut slots = [0usize; LANES];
        let mut i = 0u64;
        while i < count {
            // One reference (slow-path) item: per-lane scalar access
            // plus the instruction batch.
            for (l, lane) in lanes.iter().enumerate() {
                let va = lane.base + i * lane.size;
                let (bus, real) = self.data_access(va, lane.size, lane.write)?;
                io(&mut self.mem, l, real, i);
                anchors[l] = (bus, real);
            }
            if instr > 0 {
                self.execute_inner(instr)?;
            }
            i += 1;
            if !self.fast_paths || i >= count {
                continue;
            }

            // Plan the longest provably-identical run starting at `i`.
            // Bound 1: every lane stays on the page item `i-1` proved.
            let mut k = count - i;
            for lane in &lanes {
                let prev = lane.base + (i - 1) * lane.size;
                let next = lane.base + i * lane.size;
                if next.vpn() != prev.vpn() {
                    k = 0;
                    break;
                }
                k = k.min((PAGE_SIZE - next.page_offset()) / lane.size);
            }
            // Bound 2: the fetch stream stays inside the current text
            // page (micro-ITLB hit per item) and does not wrap.
            let core = &mut self.cores[self.active];
            if k > 0 && instr > 0 {
                let text_va = core.code_base + core.pc_offset;
                if core.itlb.covers(text_va) {
                    let window =
                        (PAGE_SIZE - text_va.page_offset()).min(core.code_len - core.pc_offset);
                    k = k.min(window / instr.saturating_mul(4));
                } else {
                    k = 0;
                }
            }
            // Bound 3: the TLB still holds a permitting entry per lane
            // (the item's own ifetch may have evicted one).
            if k > 0 {
                for (l, lane) in lanes.iter().enumerate() {
                    let page_va = lane.base + i * lane.size;
                    let kind = if lane.write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    match core.tlb.slot_for(page_va.vpn()) {
                        Some((slot, entry)) if entry.prot().permits(kind, PrivilegeLevel::User) => {
                            // Mappings cannot change mid-loop (no
                            // syscalls), so any covering entry agrees
                            // with the anchor translation.
                            debug_assert_eq!(
                                entry.translate(page_va),
                                Some(anchors[l].0 + lane.size)
                            );
                            slots[l] = slot;
                        }
                        _ => {
                            k = 0;
                            break;
                        }
                    }
                }
            }
            // Bound 4: every cache line the run touches is resident, so
            // no access reaches the bus (no stalls, no shadow faults).
            for (l, lane) in lanes.iter().enumerate() {
                if k == 0 {
                    break;
                }
                let mut resident = 0u64;
                let mut va = lane.base + i * lane.size;
                let mut bus = anchors[l].0 + lane.size;
                while resident < k {
                    if !core.cache.probe(va, bus) {
                        break;
                    }
                    let line_off = bus.get() % CACHE_LINE_SIZE;
                    let in_line = ((CACHE_LINE_SIZE - line_off) / lane.size).min(k - resident);
                    resident += in_line;
                    va += in_line * lane.size;
                    bus += in_line * lane.size;
                }
                k = k.min(resident);
            }
            if k == 0 {
                continue;
            }

            // Commit: replay `k` items in bulk. Data still moves
            // per-item (item-major, lane-minor, like the slow path).
            for j in 0..k {
                for (l, lane) in lanes.iter().enumerate() {
                    let real = anchors[l].1 + (j + 1) * lane.size;
                    io(&mut self.mem, l, real, i + j);
                }
            }
            for (l, lane) in lanes.iter().enumerate() {
                if lane.write {
                    core.stores = core.stores.saturating_add(k);
                } else {
                    core.loads = core.loads.saturating_add(k);
                }
                core.tlb.note_fast_hits(slots[l], k);
                // Per-line hit accounting, mirroring the residency walk.
                let mut done = 0u64;
                let mut va = lane.base + i * lane.size;
                let mut bus = anchors[l].0 + lane.size;
                while done < k {
                    let line_off = bus.get() % CACHE_LINE_SIZE;
                    let in_line = ((CACHE_LINE_SIZE - line_off) / lane.size).min(k - done);
                    core.cache.note_fast_hits(va, bus, in_line, lane.write);
                    done += in_line;
                    va += in_line * lane.size;
                    bus += in_line * lane.size;
                }
            }
            if instr > 0 {
                core.instructions = core.instructions.saturating_add(k * instr);
                core.itlb.note_fast_hits(k);
                core.pc_offset = (core.pc_offset + k * instr * 4) % core.code_len;
            }
            let accesses = k * LANES as u64;
            let instructions = k * instr;
            self.ledger
                .charge(Bucket::User, Cycles::new(accesses + instructions));
            i += k;
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `va` — one byte load plus
    /// `instr` instructions per byte, cycle-identical to the equivalent
    /// [`try_read::<u8>`](Machine::try_read) + [`try_execute`] loop but
    /// fast-forwarding cache-resident same-page runs.
    ///
    /// [`try_execute`]: Machine::try_execute
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_read_block(
        &mut self,
        va: VirtAddr,
        buf: &mut [u8],
        instr: u64,
    ) -> Result<(), Fault> {
        let len = buf.len() as u64;
        self.record_op(|| MachineOp::ReadBlock { va, len, instr });
        let lane = Lane::of::<u8>(va, false);
        self.stream([lane], len, instr, |mem, _, real, item| {
            buf[item as usize] = mem.read_u8(real);
        })
    }

    /// Writes `data` starting at `va` — one byte store plus `instr`
    /// instructions per byte. See [`try_read_block`](Machine::try_read_block).
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_write_block(&mut self, va: VirtAddr, data: &[u8], instr: u64) -> Result<(), Fault> {
        let len = data.len() as u64;
        self.record_op(|| MachineOp::WriteBlock { va, len, instr });
        let lane = Lane::of::<u8>(va, true);
        self.stream([lane], len, instr, |mem, _, real, item| {
            mem.write_u8(real, data[item as usize]);
        })
    }

    /// Streams `count` aligned `u32` loads from `base`, `instr`
    /// instructions after each, handing each `(item, value)` to `f`.
    /// Cycle-identical to the equivalent scalar loop.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_stream_read_u32(
        &mut self,
        base: VirtAddr,
        count: u64,
        instr: u64,
        mut f: impl FnMut(u64, u32),
    ) -> Result<(), Fault> {
        self.record_op(|| MachineOp::StreamReadU32 { base, count, instr });
        let lane = Lane::of::<u32>(base, false);
        self.stream([lane], count, instr, |mem, _, real, item| {
            f(item, mem.read_u32(real));
        })
    }

    /// Streams `count` aligned `u32` stores to `base`, `instr`
    /// instructions after each, with `f(item)` producing each value.
    /// Cycle-identical to the equivalent scalar loop.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_stream_write_u32(
        &mut self,
        base: VirtAddr,
        count: u64,
        instr: u64,
        mut f: impl FnMut(u64) -> u32,
    ) -> Result<(), Fault> {
        self.record_op(|| MachineOp::StreamWriteU32 { base, count, instr });
        let lane = Lane::of::<u32>(base, true);
        self.stream([lane], count, instr, |mem, _, real, item| {
            mem.write_u32(real, f(item));
        })
    }

    /// Streams paired aligned `u32` stores: item `j` writes
    /// `f(j).0` to `a + j*4` then `f(j).1` to `b + j*4`, then runs
    /// `instr` instructions. The two destination ranges must not
    /// overlap. Cycle-identical to the equivalent scalar loop.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_stream_write_u32_pair(
        &mut self,
        a: VirtAddr,
        b: VirtAddr,
        count: u64,
        instr: u64,
        f: impl FnMut(u64) -> (u32, u32),
    ) -> Result<(), Fault> {
        self.record_op(|| MachineOp::StreamWritePairU32 { a, b, count, instr });
        self.stream_pair(a, b, count, instr, f)
    }

    /// Streams paired stores of an aligned `u32` (at `a + j*4`) and an
    /// aligned `f64` (at `b + j*8`) per item, then `instr` instructions.
    /// The two destination ranges must not overlap. Cycle-identical to
    /// the equivalent scalar loop.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for unmapped or protection-violating
    /// accesses.
    pub fn try_stream_write_u32_f64(
        &mut self,
        a: VirtAddr,
        b: VirtAddr,
        count: u64,
        instr: u64,
        f: impl FnMut(u64) -> (u32, f64),
    ) -> Result<(), Fault> {
        self.record_op(|| MachineOp::StreamWriteU32F64 { a, b, count, instr });
        self.stream_pair(a, b, count, instr, f)
    }

    /// The two-lane store stream: item `j` stores `f(j).0` at
    /// `a + j * A::SIZE`, then `f(j).1` at `b + j * B::SIZE`.
    fn stream_pair<A: Scalar, B: Scalar>(
        &mut self,
        a: VirtAddr,
        b: VirtAddr,
        count: u64,
        instr: u64,
        mut f: impl FnMut(u64) -> (A, B),
    ) -> Result<(), Fault> {
        let lanes = [Lane::of::<A>(a, true), Lane::of::<B>(b, true)];
        debug_assert!(
            a + count * lanes[0].size <= b || b + count * lanes[1].size <= a,
            "paired stream lanes must not overlap"
        );
        let mut pending = B::from_bits(0);
        self.stream(lanes, count, instr, |mem, lane, real, item| {
            if lane == 0 {
                let (va, vb) = f(item);
                pending = vb;
                mem.write_scalar(real, &va.to_bits().to_le_bytes()[..A::SIZE.into()]);
            } else {
                mem.write_scalar(real, &pending.to_bits().to_le_bytes()[..B::SIZE.into()]);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::testing::*;
    use crate::Machine;
    use mtlb_types::{Prot, PAGE_SIZE};

    /// Drives the same logical program through the batch APIs on one
    /// machine and the equivalent scalar loops on another; every cycle
    /// and every counter must agree — the batch engine's bit-identity claim
    /// in one test.
    #[test]
    fn batched_streams_are_cycle_identical_to_scalar_loops() {
        let program = |m: &mut Machine, batch: bool| {
            m.map_region(DATA, 64 * 1024, Prot::RW);
            m.remap(DATA, 64 * 1024);
            m.load_program(8 * PAGE_SIZE, false);
            let n = 3000u64;
            if batch {
                m.try_stream_write_u32(DATA, n, 2, |i| i as u32).unwrap();
                let mut sum = 0u64;
                m.try_stream_read_u32(DATA, n, 1, |_, v| sum += u64::from(v))
                    .unwrap();
                let bytes: Vec<u8> = (0..500).map(|i| i as u8).collect();
                m.try_write_block(DATA + 16 * 1024, &bytes, 3).unwrap();
                let mut back = vec![0u8; 500];
                m.try_read_block(DATA + 16 * 1024, &mut back, 1).unwrap();
                m.try_stream_write_u32_pair(DATA + 32 * 1024, DATA + 40 * 1024, 800, 3, |i| {
                    (i as u32, !i as u32)
                })
                .unwrap();
                m.try_stream_write_u32_f64(DATA + 44 * 1024, DATA + 48 * 1024, 500, 4, |i| {
                    (i as u32, i as f64)
                })
                .unwrap();
                (sum, back)
            } else {
                for i in 0..n {
                    m.try_write::<u32>(DATA + i * 4, i as u32).unwrap();
                    m.try_execute(2).unwrap();
                }
                let mut sum = 0u64;
                for i in 0..n {
                    sum += u64::from(m.try_read::<u32>(DATA + i * 4).unwrap());
                    m.try_execute(1).unwrap();
                }
                for i in 0..500u64 {
                    m.try_write::<u8>(DATA + 16 * 1024 + i, i as u8).unwrap();
                    m.try_execute(3).unwrap();
                }
                let mut back = vec![0u8; 500];
                for (i, b) in back.iter_mut().enumerate() {
                    *b = m.try_read::<u8>(DATA + 16 * 1024 + i as u64).unwrap();
                    m.try_execute(1).unwrap();
                }
                for i in 0..800u64 {
                    m.try_write::<u32>(DATA + 32 * 1024 + i * 4, i as u32)
                        .unwrap();
                    m.try_write::<u32>(DATA + 40 * 1024 + i * 4, !i as u32)
                        .unwrap();
                    m.try_execute(3).unwrap();
                }
                for i in 0..500u64 {
                    m.try_write::<u32>(DATA + 44 * 1024 + i * 4, i as u32)
                        .unwrap();
                    m.try_write::<f64>(DATA + 48 * 1024 + i * 8, i as f64)
                        .unwrap();
                    m.try_execute(4).unwrap();
                }
                (sum, back)
            }
        };
        let mut fast = mtlb_machine();
        let mut slow = mtlb_machine();
        slow.set_fast_paths(false);
        let a = program(&mut fast, true);
        let b = program(&mut slow, false);
        assert_eq!(a, b, "computed values must agree");
        assert_eq!(
            fast.report().to_json(),
            slow.report().to_json(),
            "batched and scalar execution must be cycle- and counter-identical"
        );
        assert_eq!(
            fast.guest_memory().content_digest(),
            slow.guest_memory().content_digest()
        );
    }
}
