//! The machine's operation vocabulary: what a co-run mirrors onto its
//! other cores (`mtlb_trace::corun_with`), and what the MTR1 trace codec
//! encodes.
//!
//! Every *public* [`Machine`] entry point that can
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

use mtlb_types::{Prot, VirtAddr, Vpn, PAGE_SIZE};

use crate::Machine;

/// One public-API operation on a [`Machine`].
///
/// Field meanings mirror the corresponding `Machine` method exactly;
/// see each method's documentation.
///
/// The tag is a whole word (`repr(u64)`), so copying an op moves
/// whole words. With the default layout the one-byte fields shared the
/// tag's word, and the copy each [`relocated`](MachineOp::relocated)
/// call makes moved bytes 1..8 as two overlapping 4-byte stores whose
/// reload stalled store forwarding: 17 % of the host time of a
/// compress95 co-run on 8 cores, which relocates every op 7 times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variants mirror Machine methods 1:1
#[repr(u64)]
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
    /// `page_bits(vpn)` (recorded because each bit read is an MMC
    /// control op the report counts).
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

impl MachineOp {
    /// This op as issued by a copy of the program whose address stream
    /// sits `delta` bytes higher (a co-running instance in its own
    /// process's window): addresses move by `delta`, page numbers by
    /// `delta / PAGE_SIZE`, other fields stay (`sbrk` and
    /// `load_program` are per-process already). `None` for the
    /// host-level `SpawnProcess`, `SwitchProcess` and `ResetStats`.
    #[must_use]
    #[inline]
    pub fn relocated(mut self, delta: u64) -> Option<Self> {
        match &mut self {
            MachineOp::Read { va, .. }
            | MachineOp::Write { va, .. }
            | MachineOp::ReadBlock { va, .. }
            | MachineOp::WriteBlock { va, .. } => *va += delta,
            MachineOp::StreamReadU32 { base, .. } | MachineOp::StreamWriteU32 { base, .. } => {
                *base += delta;
            }
            MachineOp::StreamWritePairU32 { a, b, .. }
            | MachineOp::StreamWriteU32F64 { a, b, .. } => {
                *a += delta;
                *b += delta;
            }
            MachineOp::MapRegion { start, .. } | MachineOp::Remap { start, .. } => *start += delta,
            MachineOp::SwapOutSuperpage { vpn }
            | MachineOp::DemoteSuperpage { vpn }
            | MachineOp::PageBits { vpn }
            | MachineOp::RecolorPage { vpn, .. } => *vpn = vpn.offset(delta / PAGE_SIZE),
            MachineOp::Execute { .. } | MachineOp::Sbrk { .. } | MachineOp::LoadProgram { .. } => {}
            MachineOp::SpawnProcess | MachineOp::SwitchProcess { .. } | MachineOp::ResetStats => {
                return None;
            }
        }
        Some(self)
    }
}

/// A consumer of recorded [`MachineOp`]s, attachable to a
/// [`Machine`] via
/// [`set_op_sink`](crate::Machine::set_op_sink).
///
/// `Debug` is a supertrait so an attached sink never breaks the
/// machine's own `Debug`; `into_any` lets callers downcast a sink they
/// take back (e.g. to a `TraceWriter`) without the machine knowing the
/// concrete type.
pub trait OpSink: fmt::Debug {
    /// Called once per public-API operation, before the machine acts on
    /// it. The sink is detached while it runs, so it may drive
    /// `machine` itself (the co-run mirror applies the previous op on
    /// the other cores): nothing it does is recorded or re-enters it.
    fn record(&mut self, machine: &mut Machine, op: &MachineOp);
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
    fn record(&mut self, _: &mut Machine, op: &MachineOp) {
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
    fn an_op_is_five_words() {
        assert_eq!(std::mem::size_of::<MachineOp>(), 40);
        assert_eq!(std::mem::size_of::<Option<MachineOp>>(), 40);
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut m = Machine::new(crate::MachineConfig::paper_mtlb(64));
        let mut sink = VecOpSink::default();
        sink.record(&mut m, &MachineOp::Execute { n: 3 });
        sink.record(
            &mut m,
            &MachineOp::Read {
                va: VirtAddr::new(0x1000),
                size: 4,
            },
        );
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

    /// A sink that drives the machine from `record` (as the co-run
    /// mirror does) sees none of its own calls: it is detached while it
    /// runs, and attached again afterwards.
    #[derive(Debug, Default)]
    struct Echo {
        seen: Vec<MachineOp>,
    }

    impl OpSink for Echo {
        fn record(&mut self, machine: &mut Machine, op: &MachineOp) {
            self.seen.push(*op);
            machine.try_execute(1).unwrap();
        }

        fn into_any(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    }

    #[test]
    fn a_sink_driving_the_machine_is_not_re_entered() {
        let mut m = Machine::new(crate::MachineConfig::paper_mtlb(64));
        m.load_program(4096, false);
        m.set_op_sink(Box::new(Echo::default()));
        m.try_execute(5).unwrap();
        m.try_execute(7).unwrap();
        let echo = m.take_op_sink().unwrap().into_any().downcast::<Echo>();
        let seen = echo.unwrap().seen;
        assert_eq!(
            seen,
            [MachineOp::Execute { n: 5 }, MachineOp::Execute { n: 7 }]
        );
        assert_eq!(m.report().instructions, 5 + 7 + 2);
    }

    /// `op`'s fields by kind: `(addresses, page numbers, everything
    /// else)`. The match is exhaustive, so a new variant fails to
    /// compile until it is sorted here and listed in `one_of_each`.
    fn fields(op: &MachineOp) -> [Vec<u64>; 3] {
        let (none, vpn) = (Vec::new(), |v: &Vpn| vec![v.index()]);
        match op {
            MachineOp::Execute { n } => [none.clone(), none, vec![*n]],
            MachineOp::Read { va, size } | MachineOp::Write { va, size } => {
                [vec![va.get()], none, vec![u64::from(*size)]]
            }
            MachineOp::ReadBlock { va, len, instr } | MachineOp::WriteBlock { va, len, instr } => {
                [vec![va.get()], none, vec![*len, *instr]]
            }
            MachineOp::StreamReadU32 { base, count, instr }
            | MachineOp::StreamWriteU32 { base, count, instr } => {
                [vec![base.get()], none, vec![*count, *instr]]
            }
            MachineOp::StreamWritePairU32 { a, b, count, instr }
            | MachineOp::StreamWriteU32F64 { a, b, count, instr } => {
                [vec![a.get(), b.get()], none, vec![*count, *instr]]
            }
            MachineOp::MapRegion { start, len, prot } => {
                [vec![start.get()], none, vec![*len, u64::from(prot.bits())]]
            }
            MachineOp::Remap { start, len } => [vec![start.get()], none, vec![*len]],
            MachineOp::Sbrk { increment } => [none.clone(), none, vec![*increment]],
            MachineOp::SwapOutSuperpage { vpn: v }
            | MachineOp::DemoteSuperpage { vpn: v }
            | MachineOp::PageBits { vpn: v } => [none.clone(), vpn(v), none],
            MachineOp::RecolorPage { vpn: v, color } => [none, vpn(v), vec![*color]],
            MachineOp::LoadProgram { len, remap_text } => {
                [none.clone(), none, vec![*len, u64::from(*remap_text)]]
            }
            MachineOp::SpawnProcess | MachineOp::ResetStats => [none.clone(), none.clone(), none],
            MachineOp::SwitchProcess { pid } => [none.clone(), none, vec![*pid]],
        }
    }

    /// One op of every variant.
    fn one_of_each() -> Vec<MachineOp> {
        let (va, b) = (VirtAddr::new(0x4000_1230), VirtAddr::new(0x4800_0008));
        let vpn = Vpn::new(0x4_0001);
        vec![
            MachineOp::Execute { n: 3 },
            MachineOp::Read { va, size: 4 },
            MachineOp::Write { va, size: 8 },
            MachineOp::ReadBlock {
                va,
                len: 64,
                instr: 5,
            },
            MachineOp::WriteBlock {
                va,
                len: 96,
                instr: 6,
            },
            MachineOp::StreamReadU32 {
                base: va,
                count: 7,
                instr: 2,
            },
            MachineOp::StreamWriteU32 {
                base: b,
                count: 9,
                instr: 1,
            },
            MachineOp::StreamWritePairU32 {
                a: va,
                b,
                count: 4,
                instr: 3,
            },
            MachineOp::StreamWriteU32F64 {
                a: va,
                b,
                count: 5,
                instr: 4,
            },
            MachineOp::MapRegion {
                start: va,
                len: 1 << 20,
                prot: Prot::READ,
            },
            MachineOp::Remap {
                start: b,
                len: 1 << 16,
            },
            MachineOp::Sbrk { increment: 4096 },
            MachineOp::SwapOutSuperpage { vpn },
            MachineOp::DemoteSuperpage { vpn },
            MachineOp::PageBits { vpn },
            MachineOp::SpawnProcess,
            MachineOp::SwitchProcess { pid: 2 },
            MachineOp::RecolorPage { vpn, color: 11 },
            MachineOp::LoadProgram {
                len: 8192,
                remap_text: true,
            },
            MachineOp::ResetStats,
        ]
    }

    #[test]
    fn relocation_moves_addresses_and_page_numbers_only() {
        let ops = one_of_each();
        let variants: Vec<_> = ops.iter().map(std::mem::discriminant).collect();
        for (i, v) in variants.iter().enumerate() {
            assert!(!variants[..i].contains(v), "{:?} listed twice", ops[i]);
        }
        let delta = 3 << 32;
        for op in ops {
            let host_level = matches!(
                op,
                MachineOp::SpawnProcess | MachineOp::SwitchProcess { .. } | MachineOp::ResetStats
            );
            let Some(moved) = op.relocated(delta) else {
                assert!(host_level, "{op:?} must relocate");
                continue;
            };
            assert!(!host_level, "{op:?} is host-level");
            let [addrs, vpns, rest] = fields(&op);
            let shift = |v: Vec<u64>, by: u64| v.into_iter().map(|x| x + by).collect::<Vec<_>>();
            assert_eq!(
                fields(&moved),
                [shift(addrs, delta), shift(vpns, delta / PAGE_SIZE), rest],
                "{op:?}"
            );
        }
    }
}
