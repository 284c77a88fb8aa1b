//! The MTR1 bytes, pinned.
//!
//! The round-trip proptest in `codec_roundtrip.rs` passes whenever the
//! writer and the reader agree, including when both drift together.
//! `repro --replay-traces` reads files that older binaries wrote, so
//! the encoding itself is fixed here: one op of every tag, encoded and
//! compared with a checked-in byte literal, then decoded back.

use mtlb_sim::MachineOp;
use mtlb_trace::{TraceHeader, TraceReader, TraceWriter};
use mtlb_types::{Prot, VirtAddr, Vpn};

/// One op of each of the 20 tags, in tag order. Addresses move both
/// ways so the ZigZag deltas take positive and negative values.
fn one_op_per_tag() -> [MachineOp; 20] {
    let va = VirtAddr::new;
    [
        MachineOp::Execute { n: 300 },
        MachineOp::Read {
            va: va(0x1000_2468),
            size: 4,
        },
        MachineOp::Write {
            va: va(0x1000_2460),
            size: 8,
        },
        MachineOp::ReadBlock {
            va: va(0x1000_3000),
            len: 5000,
            instr: 1,
        },
        MachineOp::WriteBlock {
            va: va(0x1000_3000),
            len: 16,
            instr: 0,
        },
        MachineOp::StreamReadU32 {
            base: va(0x1000_0000),
            count: 256,
            instr: 2,
        },
        MachineOp::StreamWriteU32 {
            base: va(0x1000_0400),
            count: 64,
            instr: 0,
        },
        MachineOp::StreamWritePairU32 {
            a: va(0x1000_0000),
            b: va(0x1000_8000),
            count: 8,
            instr: 1,
        },
        MachineOp::StreamWriteU32F64 {
            a: va(0x1000_0000),
            b: va(0x1000_c000),
            count: 8,
            instr: 3,
        },
        MachineOp::MapRegion {
            start: va(0x2000_0000),
            len: 65536,
            prot: Prot::RW,
        },
        MachineOp::Remap {
            start: va(0x2000_0000),
            len: 65536,
        },
        MachineOp::Sbrk { increment: 8192 },
        MachineOp::SwapOutSuperpage {
            vpn: Vpn::new(0x2_0000),
        },
        MachineOp::DemoteSuperpage {
            vpn: Vpn::new(0x2_0000),
        },
        MachineOp::PageBits {
            vpn: Vpn::new(0x2_0001),
        },
        MachineOp::SpawnProcess,
        MachineOp::SwitchProcess { pid: 1 },
        MachineOp::RecolorPage {
            vpn: Vpn::new(0x2_0002),
            color: 17,
        },
        MachineOp::LoadProgram {
            len: 40960,
            remap_text: true,
        },
        MachineOp::ResetStats,
    ]
}

/// The trace of [`one_op_per_tag`] under the header `("pin", 1,
/// 0x0123_4567_89ab_cdef, true)`, one line per field group.
#[rustfmt::skip]
const PINNED: [u8; 115] = [
    // magic "MTR1", name length 3, "pin", scale 1
    0x4d, 0x54, 0x52, 0x31, 0x03, 0x70, 0x69, 0x6e, 0x01,
    // checksum (little-endian), verified, op count 20
    0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x01, 0x14,
    // 0 Execute: n
    0x00, 0xac, 0x02,
    // 1 Read: va delta, size
    0x01, 0xd0, 0x91, 0x81, 0x80, 0x02, 0x04,
    // 2 Write: va delta (-8), size
    0x02, 0x0f, 0x08,
    // 3 ReadBlock: va delta, len, instr
    0x03, 0xc0, 0x2e, 0x88, 0x27, 0x01,
    // 4 WriteBlock: va delta (0), len, instr
    0x04, 0x00, 0x10, 0x00,
    // 5 StreamReadU32: base delta, count, instr
    0x05, 0xff, 0xbf, 0x01, 0x80, 0x02, 0x02,
    // 6 StreamWriteU32: base delta, count, instr
    0x06, 0x80, 0x10, 0x40, 0x00,
    // 7 StreamWritePairU32: a delta, b delta, count, instr
    0x07, 0xff, 0x0f, 0x80, 0x80, 0x04, 0x08, 0x01,
    // 8 StreamWriteU32F64: a delta, b delta, count, instr
    0x08, 0xff, 0xff, 0x03, 0x80, 0x80, 0x06, 0x08, 0x03,
    // 9 MapRegion: start delta, len, prot bits
    0x09, 0x80, 0x80, 0xfa, 0xff, 0x01, 0x80, 0x80, 0x04, 0x03,
    // 10 Remap: start delta, len
    0x0a, 0x00, 0x80, 0x80, 0x04,
    // 11 Sbrk: increment
    0x0b, 0x80, 0x40,
    // 12 SwapOutSuperpage, 13 DemoteSuperpage, 14 PageBits: vpn
    0x0c, 0x80, 0x80, 0x08,
    0x0d, 0x80, 0x80, 0x08,
    0x0e, 0x81, 0x80, 0x08,
    // 15 SpawnProcess
    0x0f,
    // 16 SwitchProcess: pid
    0x10, 0x01,
    // 17 RecolorPage: vpn, color
    0x11, 0x82, 0x80, 0x08, 0x11,
    // 18 LoadProgram: len, remap_text byte
    0x12, 0x80, 0xc0, 0x02, 0x01,
    // 19 ResetStats
    0x13,
];

#[test]
fn every_tag_encodes_to_the_pinned_bytes() {
    let mut w = TraceWriter::new();
    for op in &one_op_per_tag() {
        w.push(op);
    }
    let bytes = w.finish("pin", 1, 0x0123_4567_89ab_cdef, true);
    assert_eq!(bytes, PINNED, "the MTR1 encoding changed");
}

#[test]
fn the_pinned_bytes_decode_to_every_tag() {
    let mut r = TraceReader::new(&PINNED).expect("header parses");
    assert_eq!(
        r.header(),
        &TraceHeader {
            name: "pin".into(),
            scale: 1,
            checksum: 0x0123_4567_89ab_cdef,
            verified: true,
        }
    );
    let mut decoded = Vec::new();
    while let Some(op) = r.next_op().expect("body decodes") {
        decoded.push(op);
    }
    assert_eq!(decoded, one_op_per_tag());
}
