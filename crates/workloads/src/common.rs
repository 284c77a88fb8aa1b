//! Shared workload plumbing: the `malloc`-on-`sbrk` heap and typed
//! accessors over simulated memory.

use mtlb_sim::Machine;
use mtlb_types::VirtAddr;

use crate::access::AccessExt;

/// A C-library-style allocator over the kernel's (modified, §2.3)
/// `sbrk()`. Allocations are bump-style and never freed — exactly how the
/// paper's benchmarks consume memory via their patched `sbrk`, which
/// satisfies small requests from large pre-mapped regions.
#[derive(Debug, Default, Clone, Copy)]
pub struct Heap;

impl Heap {
    /// Allocates `bytes`, 8-byte aligned, charging a handful of
    /// allocator instructions.
    ///
    /// The benchmarks model 32-bit programs and store heap pointers as
    /// `u32` fields in simulated memory, so allocations must stay below
    /// 4 GB — which holds for process 0's heap window but not for later
    /// processes'. The assertion catches that misuse early.
    ///
    /// # Panics
    ///
    /// Panics when the allocation would not be addressable as a 32-bit
    /// pointer (run the workloads in process 0).
    pub fn malloc(machine: &mut Machine, bytes: u64) -> VirtAddr {
        machine.execute(12); // malloc bookkeeping
        let rounded = bytes.div_ceil(8) * 8;
        let p = machine.sbrk(rounded);
        assert!(
            p.get() + rounded <= u32::MAX as u64,
            "workload heap pointers are 32-bit; run benchmarks in process 0"
        );
        debug_assert!(p.is_aligned(8));
        p
    }
}

/// FNV-1a accumulation, used for workload checksums.
#[must_use]
pub(crate) fn fnv1a(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for byte in value.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub(crate) const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_sim::MachineConfig;

    #[test]
    fn malloc_returns_aligned_usable_memory() {
        let mut m = Machine::new(MachineConfig::paper_mtlb(64));
        let a = Heap::malloc(&mut m, 100);
        let b = Heap::malloc(&mut m, 100);
        assert!(b.get() >= a.get() + 100);
        assert!(a.is_aligned(8) && b.is_aligned(8));
        m.write::<u64>(a, 7);
        m.write::<u64>(b, 9);
        assert_eq!(m.read::<u64>(a), 7);
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        let a = fnv1a(FNV_SEED, 1);
        let b = fnv1a(FNV_SEED, 2);
        assert_ne!(a, b);
        assert_eq!(a, fnv1a(FNV_SEED, 1));
    }
}
