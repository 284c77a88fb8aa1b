//! Infallible access sugar for workload code.
//!
//! [`Machine`](mtlb_sim::Machine)'s access API is fallible (`try_*`
//! methods returning [`Fault`]) because the simulator core must never
//! panic on guest behaviour — faults are architecture events. Workloads
//! are different: they own their address spaces, and a fault is a bug in
//! the *workload*, not a condition to recover from. [`AccessExt`] wraps
//! every fallible access in a panic with a message naming the fault, so
//! benchmark code reads like the straight-line C it models.
//!
//! Keeping the panics here — in workload-support code, outside the core
//! crates' clippy panic gate — is what lets the simulator crates
//! themselves stay panic-free on guest faults.

use mtlb_sim::{Machine, Scalar};
use mtlb_types::{Fault, VirtAddr};

/// Converts a data-access fault into the workload-bug panic it means.
fn data<T>(r: Result<T, Fault>) -> T {
    match r {
        Ok(v) => v,
        Err(f @ Fault::PageNotMapped { .. }) => panic!("access to unmapped memory: {f}"),
        Err(f) => panic!("protection fault: {f}"),
    }
}

/// Converts an instruction-fetch fault into the workload-bug panic it
/// means.
fn fetch<T>(r: Result<T, Fault>) -> T {
    match r {
        Ok(v) => v,
        Err(f @ Fault::PageNotMapped { .. }) => {
            panic!("instruction fetch from unmapped memory: {f}")
        }
        Err(f) => panic!("instruction fetch fault: {f}"),
    }
}

/// Infallible access methods for workload code: each wraps the
/// corresponding `try_*` method on [`Machine`] and panics on a fault,
/// because a fault in a workload's own mapped memory is a workload bug.
///
/// Implemented for [`Machine`] only.
pub trait AccessExt {
    /// Executes `n` instructions ([`Machine::try_execute`]).
    fn execute(&mut self, n: u64);
    /// Reads a [`Scalar`] ([`Machine::try_read`]).
    fn read<T: Scalar>(&mut self, va: VirtAddr) -> T;
    /// Writes a [`Scalar`] ([`Machine::try_write`]).
    fn write<T: Scalar>(&mut self, va: VirtAddr, v: T);
    /// Bulk byte read with `instr` interleaved instructions per byte
    /// ([`Machine::try_read_block`]).
    fn read_block(&mut self, va: VirtAddr, buf: &mut [u8], instr: u64);
    /// Bulk byte write with `instr` interleaved instructions per byte
    /// ([`Machine::try_write_block`]).
    fn write_block(&mut self, va: VirtAddr, bytes: &[u8], instr: u64);
    /// Streaming `u32` loads ([`Machine::try_stream_read_u32`]).
    fn stream_read_u32(&mut self, base: VirtAddr, count: u64, instr: u64, f: impl FnMut(u64, u32));
    /// Streaming `u32` stores ([`Machine::try_stream_write_u32`]).
    fn stream_write_u32(
        &mut self,
        base: VirtAddr,
        count: u64,
        instr: u64,
        f: impl FnMut(u64) -> u32,
    );
    /// Two parallel streaming `u32` stores
    /// ([`Machine::try_stream_write_u32_pair`]).
    fn stream_write_u32_pair(
        &mut self,
        a: VirtAddr,
        b: VirtAddr,
        count: u64,
        instr: u64,
        f: impl FnMut(u64) -> (u32, u32),
    );
    /// Parallel streaming `u32` + `f64` stores
    /// ([`Machine::try_stream_write_u32_f64`]).
    fn stream_write_u32_f64(
        &mut self,
        a: VirtAddr,
        b: VirtAddr,
        count: u64,
        instr: u64,
        f: impl FnMut(u64) -> (u32, f64),
    );
}

impl AccessExt for Machine {
    fn execute(&mut self, n: u64) {
        fetch(self.try_execute(n));
    }
    fn read<T: Scalar>(&mut self, va: VirtAddr) -> T {
        data(self.try_read(va))
    }
    fn write<T: Scalar>(&mut self, va: VirtAddr, v: T) {
        data(self.try_write(va, v));
    }
    fn read_block(&mut self, va: VirtAddr, buf: &mut [u8], instr: u64) {
        data(self.try_read_block(va, buf, instr));
    }
    fn write_block(&mut self, va: VirtAddr, bytes: &[u8], instr: u64) {
        data(self.try_write_block(va, bytes, instr));
    }
    fn stream_read_u32(&mut self, base: VirtAddr, count: u64, instr: u64, f: impl FnMut(u64, u32)) {
        data(self.try_stream_read_u32(base, count, instr, f));
    }
    fn stream_write_u32(
        &mut self,
        base: VirtAddr,
        count: u64,
        instr: u64,
        f: impl FnMut(u64) -> u32,
    ) {
        data(self.try_stream_write_u32(base, count, instr, f));
    }
    fn stream_write_u32_pair(
        &mut self,
        a: VirtAddr,
        b: VirtAddr,
        count: u64,
        instr: u64,
        f: impl FnMut(u64) -> (u32, u32),
    ) {
        data(self.try_stream_write_u32_pair(a, b, count, instr, f));
    }
    fn stream_write_u32_f64(
        &mut self,
        a: VirtAddr,
        b: VirtAddr,
        count: u64,
        instr: u64,
        f: impl FnMut(u64) -> (u32, f64),
    ) {
        data(self.try_stream_write_u32_f64(a, b, count, instr, f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_sim::MachineConfig;
    use mtlb_types::Prot;

    #[test]
    fn infallible_sugar_roundtrips() {
        let mut m = Machine::new(MachineConfig::paper_mtlb(64));
        let base = VirtAddr::new(0x1000_0000);
        m.map_region(base, 4096, Prot::RW);
        m.write::<u32>(base, 7);
        assert_eq!(m.read::<u32>(base), 7);
        m.execute(3);
    }

    #[test]
    #[should_panic(expected = "access to unmapped memory")]
    fn unmapped_access_panics_with_the_classic_message() {
        let mut m = Machine::new(MachineConfig::paper_mtlb(64));
        let _ = m.read::<u32>(VirtAddr::new(0x7000_0000));
    }

    #[test]
    #[should_panic(expected = "protection fault")]
    fn readonly_write_panics_as_protection_fault() {
        let mut m = Machine::new(MachineConfig::paper_mtlb(64));
        let base = VirtAddr::new(0x1000_0000);
        m.map_region(base, 4096, Prot::READ);
        m.write::<u32>(base, 7);
    }
}
