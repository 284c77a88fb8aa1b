//! Property test: the MTR1 codec round-trips arbitrary op streams —
//! including misaligned scalar accesses, cross-page block and stream
//! runs, huge forward/backward address jumps and every op kind — and
//! the header survives arbitrary name/outcome values.

use mtlb_sim::{Machine, MachineConfig, MachineOp, OpSink};
use mtlb_trace::{TraceError, TraceReader, TraceWriter};
use mtlb_types::{Prot, VirtAddr, Vpn};
use proptest::prelude::*;

/// Addresses across the whole 2^62 practical range, deliberately
/// including misaligned values and page/superpage boundary straddles.
fn va_strategy() -> impl Strategy<Value = VirtAddr> {
    prop_oneof![
        // Anywhere, any alignment.
        (0u64..1 << 62).prop_map(VirtAddr::new),
        // Hugging a page boundary (cross-page scalar/block starts).
        (0u64..1 << 40, 0u64..16).prop_map(|(page, off)| VirtAddr::new((page << 12) + 0xff8 + off)),
    ]
}

fn prot_strategy() -> impl Strategy<Value = Prot> {
    (0u8..8).prop_map(Prot::from_bits_truncate)
}

fn op_strategy() -> impl Strategy<Value = MachineOp> {
    let size = prop_oneof![Just(1u8), Just(2u8), Just(4u8), Just(8u8)];
    let size2 = prop_oneof![Just(1u8), Just(2u8), Just(4u8), Just(8u8)];
    prop_oneof![
        (0u64..1 << 32).prop_map(|n| MachineOp::Execute { n }),
        (va_strategy(), size).prop_map(|(va, size)| MachineOp::Read { va, size }),
        (va_strategy(), size2).prop_map(|(va, size)| MachineOp::Write { va, size }),
        (va_strategy(), 0u64..1 << 20, 0u64..64)
            .prop_map(|(va, len, instr)| MachineOp::ReadBlock { va, len, instr }),
        (va_strategy(), 0u64..1 << 20, 0u64..64)
            .prop_map(|(va, len, instr)| MachineOp::WriteBlock { va, len, instr }),
        (va_strategy(), 0u64..1 << 20, 0u64..64)
            .prop_map(|(base, count, instr)| MachineOp::StreamReadU32 { base, count, instr }),
        (va_strategy(), 0u64..1 << 20, 0u64..64)
            .prop_map(|(base, count, instr)| MachineOp::StreamWriteU32 { base, count, instr }),
        (va_strategy(), va_strategy(), 0u64..1 << 20, 0u64..64)
            .prop_map(|(a, b, count, instr)| MachineOp::StreamWritePairU32 { a, b, count, instr }),
        (va_strategy(), va_strategy(), 0u64..1 << 20, 0u64..64)
            .prop_map(|(a, b, count, instr)| MachineOp::StreamWriteU32F64 { a, b, count, instr }),
        (va_strategy(), 0u64..1 << 30, prot_strategy())
            .prop_map(|(start, len, prot)| MachineOp::MapRegion { start, len, prot }),
        (va_strategy(), 0u64..1 << 30).prop_map(|(start, len)| MachineOp::Remap { start, len }),
        (0u64..1 << 40).prop_map(|increment| MachineOp::Sbrk { increment }),
        (0u64..1 << 50).prop_map(|v| MachineOp::SwapOutSuperpage { vpn: Vpn::new(v) }),
        (0u64..1 << 50).prop_map(|v| MachineOp::DemoteSuperpage { vpn: Vpn::new(v) }),
        (0u64..1 << 50).prop_map(|v| MachineOp::PageBits { vpn: Vpn::new(v) }),
        Just(MachineOp::SpawnProcess),
        (0u64..1 << 16).prop_map(|pid| MachineOp::SwitchProcess { pid }),
        (0u64..1 << 50, 0u64..1 << 16).prop_map(|(v, color)| MachineOp::RecolorPage {
            vpn: Vpn::new(v),
            color
        }),
        (0u64..1 << 30, 0u64..2).prop_map(|(len, rt)| MachineOp::LoadProgram {
            len,
            remap_text: rt == 1
        }),
        Just(MachineOp::ResetStats),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_round_trips_any_stream(
        ops in proptest::collection::vec(op_strategy(), 0..200),
        name_idx in 0usize..4,
        scale in 0u8..2,
        checksum in any::<u64>(),
        verified in 0u64..2,
    ) {
        let mut w = TraceWriter::new();
        for op in &ops {
            w.record(op);
        }
        prop_assert_eq!(w.ops(), ops.len() as u64);
        let name = ["", "em3d", "synth_stride", "compress95"][name_idx];
        let verified = verified == 1;
        let bytes = w.finish(name, scale, checksum, verified);

        let mut r = TraceReader::new(&bytes).unwrap();
        prop_assert_eq!(&r.header().name, name);
        prop_assert_eq!(r.header().scale, scale);
        prop_assert_eq!(r.header().checksum, checksum);
        prop_assert_eq!(r.header().verified, verified);
        prop_assert_eq!(r.remaining(), ops.len() as u64);

        let mut decoded = Vec::with_capacity(ops.len());
        while let Some(op) = r.next_op().unwrap() {
            decoded.push(op);
        }
        prop_assert_eq!(decoded, ops);
    }

    #[test]
    fn decoder_never_panics_on_corrupt_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Whatever the input, decoding must return an error or a
        // finite op stream — never panic or hang.
        if let Ok(mut r) = TraceReader::new(&bytes) {
            for _ in 0..4096 {
                match r.next_op() {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }
}

/// Replays `ops` as a well-formed MTR1 trace on a fresh MTLB machine.
fn replay_ops(ops: &[MachineOp]) -> Result<(), TraceError> {
    replay_ops_on(MachineConfig::paper_mtlb(64), ops)
}

/// Replays `ops` as a well-formed MTR1 trace on a fresh `cfg` machine.
fn replay_ops_on(cfg: MachineConfig, ops: &[MachineOp]) -> Result<(), TraceError> {
    let mut w = TraceWriter::new();
    for op in ops {
        w.record(op);
    }
    let bytes = w.finish("hostile", 0, 0, true);
    let mut m = Machine::new(cfg);
    mtlb_trace::replay(&mut m, &bytes).map(drop)
}

/// Well-formed traces whose ops violate a `Machine` API precondition
/// are rejected with a typed error, not forwarded into the assert
/// (release builds abort on panic, taking a whole sweep down).
#[test]
fn replay_rejects_ops_the_machine_would_panic_on() {
    let text = Machine::new(MachineConfig::paper_mtlb(64)).program_base();
    assert_eq!(
        replay_ops(&[MachineOp::LoadProgram {
            len: 0,
            remap_text: false,
        }]),
        Err(TraceError::Unmappable {
            start: text,
            len: 0
        })
    );
    let heap = VirtAddr::new(0x1000_0000);
    let map = MachineOp::MapRegion {
        start: heap,
        len: 64 * 1024,
        prot: Prot::RW,
    };
    let (count, instr) = (8, 1);
    let odd = heap + 2;
    for (op, base, size) in [
        (
            MachineOp::StreamReadU32 {
                base: odd,
                count,
                instr,
            },
            odd,
            4,
        ),
        (
            MachineOp::StreamWriteU32 {
                base: odd,
                count,
                instr,
            },
            odd,
            4,
        ),
        (
            MachineOp::StreamWritePairU32 {
                a: heap,
                b: odd + 4096,
                count,
                instr,
            },
            odd + 4096,
            4,
        ),
        (
            // 4-aligned but not 8-aligned: only the f64 lane objects.
            MachineOp::StreamWriteU32F64 {
                a: heap,
                b: heap + 4100,
                count,
                instr,
            },
            heap + 4100,
            8,
        ),
    ] {
        assert_eq!(
            replay_ops(&[map, op]),
            Err(TraceError::MisalignedStream { base, size })
        );
    }

    // Kernel-service preconditions, checked against the machine's
    // read-only state before the service runs. The region is mapped
    // but never remapped, so no superpage exists.
    let vpn = heap.vpn();
    let colors = MachineConfig::paper_mtlb(64).cache.page_colors();
    let far = heap + 1024 * 1024;
    let low = VirtAddr::new(0x1000); // inside the kernel's reserved window
    let region = |start: VirtAddr, len: u64| MachineOp::MapRegion {
        start,
        len,
        prot: Prot::RW,
    };
    let unmappable = |start: VirtAddr, len: u64| TraceError::Unmappable { start, len };
    let recolor = |vpn: Vpn, color: u64| MachineOp::RecolorPage { vpn, color };
    let not_recolorable = |vpn: Vpn, color: u64| TraceError::NotRecolorable { vpn, color };
    let outside = TraceError::NotInSuperpage { vpn };
    for (op, err) in [
        (MachineOp::PageBits { vpn }, outside),
        (MachineOp::DemoteSuperpage { vpn }, outside),
        (MachineOp::SwapOutSuperpage { vpn }, outside),
        (recolor(vpn, colors), not_recolorable(vpn, colors)),
        (recolor(far.vpn(), 0), not_recolorable(far.vpn(), 0)),
        (region(heap + 4096, 4096), unmappable(heap + 4096, 4096)),
        (region(far + 2, 4096), unmappable(far + 2, 4096)),
        (region(far, 0), unmappable(far, 0)),
        (region(low, 4096), unmappable(low, 4096)),
    ] {
        assert_eq!(replay_ops(&[map, op]), Err(err), "{op:?}");
    }

    // A second program load in one process would map its text twice.
    let program = MachineOp::LoadProgram {
        len: 4096,
        remap_text: false,
    };
    assert_eq!(replay_ops(&[program, program]), Err(unmappable(text, 4096)));
    // Recoloring installs a shadow address, which only an MTLB
    // translates; and a remapped page is no longer real-backed.
    assert_eq!(
        replay_ops_on(MachineConfig::paper_base(64), &[map, recolor(vpn, 1)]),
        Err(not_recolorable(vpn, 1))
    );
    let remap = MachineOp::Remap {
        start: heap,
        len: 64 * 1024,
    };
    assert_eq!(
        replay_ops(&[map, remap, recolor(vpn, 1)]),
        Err(not_recolorable(vpn, 1))
    );
    // The same services replay where their preconditions hold.
    assert_eq!(replay_ops(&[map, recolor(vpn, 1)]), Ok(()));
    assert_eq!(
        replay_ops(&[
            map,
            remap,
            MachineOp::PageBits { vpn },
            MachineOp::SwapOutSuperpage { vpn },
            MachineOp::DemoteSuperpage { vpn },
            region(far, 4096),
            program,
        ]),
        Ok(())
    );
}

/// A scalar op's size must be a width the machine has an accessor for:
/// a size varint of 260 must not truncate to a 4-byte access at decode,
/// and a hand-built op of 3 or 0 bytes must not replay as an 8-byte one.
#[test]
fn replay_rejects_scalar_sizes_the_machine_has_no_accessor_for() {
    let heap = VirtAddr::new(0x1000_0000);
    let map = MachineOp::MapRegion {
        start: heap,
        len: 64 * 1024,
        prot: Prot::RW,
    };
    let mut w = TraceWriter::new();
    w.record(&map);
    w.record(&MachineOp::Read { va: heap, size: 4 });
    let mut bytes = w.finish("hostile", 0, 0, true);
    // The size is the trace's last byte; widen it to the two-byte
    // varint of 260 (= 4 mod 256).
    assert_eq!(bytes.pop(), Some(4));
    let at = bytes.len() as u64;
    bytes.extend_from_slice(&[0x84, 0x02]);
    let mut m = Machine::new(MachineConfig::paper_mtlb(64));
    assert_eq!(
        mtlb_trace::replay(&mut m, &bytes).map(drop),
        Err(TraceError::BadScalarSize { size: 260, at })
    );

    let mut m = Machine::new(MachineConfig::paper_mtlb(64));
    mtlb_trace::apply_op(&mut m, &map, 0).expect("the region maps");
    for (op, size) in [
        (MachineOp::Read { va: heap, size: 3 }, 3),
        (MachineOp::Write { va: heap, size: 0 }, 0),
    ] {
        assert_eq!(
            mtlb_trace::apply_op(&mut m, &op, 7),
            Err(TraceError::BadScalarSize { size, at: 7 })
        );
    }
    assert_eq!(m.report().loads + m.report().stores, 0);
}
