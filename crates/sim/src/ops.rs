//! The machine's operation vocabulary for trace record/replay.
//!
//! Every *public* [`Machine`](crate::Machine) entry point that can
//! affect simulated state or timing is describable as one [`MachineOp`]
//! value. With an [`OpSink`] attached
//! ([`set_op_sink`](crate::Machine::set_op_sink)), the machine records
//! one op per public call — at the API boundary, before any internal
//! dispatch — so a recorded stream replayed through the same public API
//! reproduces the exact same sequence of internal events, cycle for
//! cycle and counter for counter.
//!
//! Ops deliberately carry *addresses and shapes, not data values*:
//! simulated timing depends only on the address stream (translations,
//! cache placement, residency), never on the bytes moved, so a replay
//! that stores dummy values is cycle-identical to the recorded run.
//! Consequences: guest memory *contents* after a replay differ from the
//! recorded run (so content digests are not comparable), and a
//! workload's computed checksum cannot be regenerated — the
//! `mtlb-trace` format stores the recorded outcome in its header
//! instead.
//!
//! Pure getters (`cycles`, `config`, `guest_memory`, …) are not
//! recorded: they have no simulated side effects. A scalar records
//! only its width, so an `f64` access replays as the `u64` access of
//! the same address, which takes the same path and costs the same.

use std::any::Any;
use std::fmt;

use mtlb_types::{Prot, VirtAddr, Vpn};

/// One public-API operation on a [`Machine`](crate::Machine).
///
/// Field meanings mirror the corresponding `Machine` method exactly;
/// see each method's documentation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variants mirror Machine methods 1:1
pub enum MachineOp {
    /// `try_execute(n)`.
    Execute { n: u64 },
    /// An aligned or misaligned scalar load of `size` bytes (`try_read`).
    Read { va: VirtAddr, size: u8 },
    /// An aligned or misaligned scalar store of `size` bytes (`try_write`).
    Write { va: VirtAddr, size: u8 },
    /// `try_read_block(va, buf, instr)` with `len = buf.len()`.
    ReadBlock { va: VirtAddr, len: u64, instr: u64 },
    /// `try_write_block(va, data, instr)` with `len = data.len()`.
    WriteBlock { va: VirtAddr, len: u64, instr: u64 },
    /// `try_stream_read_u32(base, count, instr, …)`.
    StreamReadU32 {
        base: VirtAddr,
        count: u64,
        instr: u64,
    },
    /// `try_stream_write_u32(base, count, instr, …)`.
    StreamWriteU32 {
        base: VirtAddr,
        count: u64,
        instr: u64,
    },
    /// `try_stream_write_u32_pair(a, b, count, instr, …)`.
    StreamWritePairU32 {
        a: VirtAddr,
        b: VirtAddr,
        count: u64,
        instr: u64,
    },
    /// `try_stream_write_u32_f64(a, b, count, instr, …)`.
    StreamWriteU32F64 {
        a: VirtAddr,
        b: VirtAddr,
        count: u64,
        instr: u64,
    },
    /// `map_region(start, len, prot)`.
    MapRegion {
        start: VirtAddr,
        len: u64,
        prot: Prot,
    },
    /// `remap(start, len)`.
    Remap { start: VirtAddr, len: u64 },
    /// `sbrk(increment)`.
    Sbrk { increment: u64 },
    /// `swap_out_superpage(vpn)`.
    SwapOutSuperpage { vpn: Vpn },
    /// `demote_superpage(vpn)`.
    DemoteSuperpage { vpn: Vpn },
    /// `page_bits(vpn)` (recorded because harvesting referenced bits
    /// may adjust TLB state).
    PageBits { vpn: Vpn },
    /// `spawn_process()`.
    SpawnProcess,
    /// `switch_process(pid)`.
    SwitchProcess { pid: u64 },
    /// `recolor_page(vpn, color)`.
    RecolorPage { vpn: Vpn, color: u64 },
    /// `load_program(len, remap_text)`.
    LoadProgram { len: u64, remap_text: bool },
    /// `reset_stats()`.
    ResetStats,
}

/// A consumer of recorded [`MachineOp`]s, attachable to a
/// [`Machine`](crate::Machine) via
/// [`set_op_sink`](crate::Machine::set_op_sink).
///
/// `Debug` is a supertrait so an attached sink never breaks the
/// machine's own `Debug`; `into_any` lets callers downcast a sink they
/// take back (e.g. to a `TraceWriter`) without the machine knowing the
/// concrete type.
pub trait OpSink: fmt::Debug {
    /// Called once per public-API operation, before the machine acts on
    /// it.
    fn record(&mut self, op: &MachineOp);
    /// Consuming downcast support for retrieving a concrete sink.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// The trivial [`OpSink`]: collects every op into a `Vec` (useful for
/// tests and for in-memory replay without an encoding step).
#[derive(Debug, Default)]
pub struct VecOpSink {
    /// The recorded operations, in call order.
    pub ops: Vec<MachineOp>,
}

impl OpSink for VecOpSink {
    fn record(&mut self, op: &MachineOp) {
        self.ops.push(*op);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecOpSink::default();
        sink.record(&MachineOp::Execute { n: 3 });
        sink.record(&MachineOp::Read {
            va: VirtAddr::new(0x1000),
            size: 4,
        });
        assert_eq!(
            sink.ops,
            vec![
                MachineOp::Execute { n: 3 },
                MachineOp::Read {
                    va: VirtAddr::new(0x1000),
                    size: 4
                }
            ]
        );
        let boxed: Box<dyn OpSink> = Box::new(sink);
        let back = boxed.into_any().downcast::<VecOpSink>().unwrap();
        assert_eq!(back.ops.len(), 2);
    }
}
