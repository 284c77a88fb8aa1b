//! Differential property test for the fast-forward access engine.
//!
//! The tentpole claim of the host-performance layer is that the memoized
//! translation path, the flat guest-memory arena and the batched stream
//! engine are *observably absent*: a machine with fast paths enabled must
//! produce bit-identical simulated state to a machine that takes the
//! slow path on every access. This test drives random operation
//! sequences — mapping, promotion, scalar access of every width
//! (aligned and misaligned), instruction fetch, batched streams, swap-out, demotion,
//! recoloring, context switches and core switches — through a fast
//! machine and a slow-path reference on one- to four-core
//! configurations and requires the *entire* serialized run report
//! (every cycle bucket, every counter, every TLB-miss interval) and the
//! final guest memory contents to match.
//!
//! Some ops fault: scalars and streams running past the region's end
//! onto the unmapped page there, and writes to a read-only page mapped
//! after it. Both machines must return the same [`Fault`], and a
//! faulting access is neither counted nor charged, which the debug
//! build's attribution audit inside `report()` checks.
//!
//! Agreement between the two machines cannot catch a bug both share, so
//! every read on both is also checked against a flat host image of the
//! region — a byte vector with no TLB, cache, MMC or paging behind it —
//! that every write op updates.
//!
//! On the one-core cases the op stream recorded from the fast machine
//! is additionally replayed (`mtlb-trace` round trip) through a fresh
//! machine with fast paths randomly on or off, which must raise the
//! same faults and reproduce the same report byte-for-byte
//! (`set_active_core` is a host-level call, not a recorded op, so
//! multi-core runs have no trace form).
//! Replay writes zeros instead of data, so guest-memory digests are
//! compared between the live machines only.

use mtlb_os::Backing;
use mtlb_sim::{Machine, MachineConfig, Scalar, VecOpSink};
use mtlb_trace::{apply_op, TraceError, TraceReader};
use mtlb_types::{Fault, Prot, VirtAddr};
use proptest::prelude::*;

const BASE: VirtAddr = VirtAddr::new(0x1000_0000);
const REGION: u64 = 128 * 1024;
/// A read-only page one unmapped page past the region's end.
const READ_ONLY: VirtAddr = VirtAddr::new(BASE.get() + REGION + 4096);

#[derive(Clone, Debug)]
enum Op {
    Execute(u64),
    /// A load, or a store of the low `width` bytes of `value`, of
    /// `width` 1, 2, 4 or 8 bytes at an arbitrary offset: most wider
    /// ones are misaligned two-access scalars.
    Scalar {
        off: u64,
        width: u64,
        write: bool,
        value: u64,
    },
    StreamWrite32 {
        off: u64,
        count: u64,
        instr: u64,
    },
    StreamRead32 {
        off: u64,
        count: u64,
        instr: u64,
    },
    WriteBlock {
        off: u64,
        len: u64,
        instr: u64,
        fill: u8,
    },
    ReadBlock {
        off: u64,
        len: u64,
        instr: u64,
    },
    StreamPair {
        off_a: u64,
        count: u64,
        instr: u64,
    },
    StreamMixed {
        off_a: u64,
        count: u64,
        instr: u64,
    },
    Remap,
    SwapOut,
    Demote,
    /// Recolors one page of the region (when it is a real-backed base
    /// page on an MTLB machine).
    Recolor {
        page: u64,
        color: u64,
    },
    ContextSwitchAwayAndBack,
    /// Moves execution to the next core (a no-op on one core): memos,
    /// remote shootdowns and bus arbitration across `set_active_core`.
    SwitchCore,
    Sbrk(u64),
    /// A scalar at region offset `REGION - 8 + off`: inside the region,
    /// straddling its end (the second half faults) or on the unmapped
    /// page after it.
    PastEnd {
        off: u64,
        width: u64,
        write: bool,
        value: u64,
    },
    /// A `u32` stream from `back` words before the region's end that
    /// runs `count` items, onto the unmapped page when `count > back`.
    StreamPastEnd {
        back: u64,
        count: u64,
        write: bool,
    },
    /// A scalar on the read-only page: loads read zero, stores fault.
    ReadOnly {
        off: u64,
        width: u64,
        write: bool,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Half the scalar offsets land in two hot pages, so same-page runs
    // (live memos) are common enough to straddle a core switch.
    let off =
        (0u64..2 * (REGION - 8)).prop_map(|o| if o < REGION - 8 { o } else { o % (2 * 4096) });
    // Stream lanes stay inside the region: `off` in the first quarter,
    // counts bounded so even the two-lane ops (second lane at +48 KB)
    // fit.
    let soff = 0u64..(REGION / 4);
    prop_oneof![
        2 => (1u64..300).prop_map(Op::Execute),
        8 => (off, 0u32..4, 0u8..2, any::<u64>()).prop_map(|(off, log, write, value)| {
            Op::Scalar { off, width: 1 << log, write: write == 1, value }
        }),
        2 => (soff.clone(), 1u64..3000, 0u64..4).prop_map(|(off, count, instr)| {
            Op::StreamWrite32 { off: off / 4 * 4, count, instr }
        }),
        2 => (soff.clone(), 1u64..3000, 0u64..4).prop_map(|(off, count, instr)| {
            Op::StreamRead32 { off: off / 4 * 4, count, instr }
        }),
        1 => (soff.clone(), 1u64..5000, 0u64..3, any::<u8>()).prop_map(|(off, len, instr, fill)| {
            Op::WriteBlock { off, len, instr, fill }
        }),
        1 => (soff.clone(), 1u64..5000, 0u64..3).prop_map(|(off, len, instr)| {
            Op::ReadBlock { off, len, instr }
        }),
        1 => (soff.clone(), 1u64..2000, 0u64..4).prop_map(|(off_a, count, instr)| {
            Op::StreamPair { off_a: off_a / 4 * 4, count, instr }
        }),
        1 => (soff, 1u64..2000, 0u64..4).prop_map(|(off_a, count, instr)| {
            Op::StreamMixed { off_a: off_a / 8 * 8, count, instr }
        }),
        1 => Just(Op::Remap),
        1 => Just(Op::SwapOut),
        1 => Just(Op::Demote),
        1 => (0u64..REGION / 4096, any::<u64>()).prop_map(|(page, color)| Op::Recolor { page, color }),
        1 => Just(Op::ContextSwitchAwayAndBack),
        2 => Just(Op::SwitchCore),
        1 => (1u64..3).prop_map(|n| Op::Sbrk(n * 4096)),
        1 => (0u64..16, 0u32..4, 0u8..2, any::<u64>()).prop_map(|(off, log, write, value)| {
            Op::PastEnd { off, width: 1 << log, write: write == 1, value }
        }),
        1 => (1u64..8, 1u64..16, 0u8..2).prop_map(|(back, count, write)| {
            Op::StreamPastEnd { back, count, write: write == 1 }
        }),
        1 => (0u64..4088, 0u32..4, 0u8..2).prop_map(|(off, log, write)| {
            Op::ReadOnly { off, width: 1 << log, write: write == 1 }
        }),
    ]
}

/// Stream store values: item `i` of each write stream.
fn stream_word(i: u64) -> u32 {
    i as u32 ^ 0x5a5a_5a5a
}

fn pair_words(i: u64) -> (u32, u32) {
    (i as u32, !i as u32)
}

fn mixed_words(i: u64) -> (u32, f64) {
    (i as u32, i as f64 * 0.5)
}

/// Asserts that `got` is what the flat image holds at region offset
/// `off`.
fn check(image: &[u8], off: u64, got: &[u8], op: &Op) {
    let off = off as usize;
    assert_eq!(
        got,
        &image[off..off + got.len()],
        "read at +{off:#x}: {op:?}"
    );
}

/// Mirrors a write into the flat image.
fn store(image: &mut [u8], off: u64, bytes: &[u8]) {
    let off = off as usize;
    image[off..off + bytes.len()].copy_from_slice(bytes);
}

/// One scalar access of width `T` on `m`, a store of `value` when
/// given; returns the value moved, zero-extended.
fn scalar<T: Scalar>(m: &mut Machine, va: VirtAddr, value: Option<T>) -> Result<u64, Fault> {
    match value {
        Some(v) => m.try_write(va, v).map(|()| v.to_bits()),
        None => m.try_read::<T>(va).map(Scalar::to_bits),
    }
}

/// [`scalar`] at `width` bytes.
fn scalar_of_width(
    m: &mut Machine,
    va: VirtAddr,
    width: u64,
    write: bool,
    value: u64,
) -> Result<u64, Fault> {
    match width {
        1 => scalar(m, va, write.then_some(value as u8)),
        2 => scalar(m, va, write.then_some(value as u16)),
        4 => scalar(m, va, write.then_some(value as u32)),
        _ => scalar(m, va, write.then_some(value)),
    }
}

/// Applies `op` to `m`. Every read is checked against `image`, the flat
/// host copy of the region (no TLB, cache, MMC or paging), and every
/// write is mirrored into it. Writes are deterministic, so mirroring the
/// same op twice (once per machine) leaves the image as mirroring it
/// once. Returns a digest of the op's non-data result, or the fault it
/// raised.
fn apply(m: &mut Machine, op: &Op, image: &mut [u8]) -> Result<u64, Fault> {
    let mut digest = 0u64;
    match *op {
        Op::Execute(n) => m.try_execute(n).unwrap(),
        Op::Scalar {
            off,
            width,
            write,
            value,
        } => {
            let moved = scalar_of_width(m, BASE + off, width, write, value).unwrap();
            let bytes = &moved.to_le_bytes()[..width as usize];
            if write {
                store(image, off, bytes);
            } else {
                check(image, off, bytes, op);
            }
        }
        Op::StreamWrite32 { off, count, instr } => {
            let count = count.min((REGION / 4 - off) / 4);
            m.try_stream_write_u32(BASE + off, count, instr, stream_word)
                .unwrap();
            for i in 0..count {
                store(image, off + i * 4, &stream_word(i).to_le_bytes());
            }
        }
        Op::StreamRead32 { off, count, instr } => {
            let count = count.min((REGION / 4 - off) / 4);
            let mut seen = 0;
            m.try_stream_read_u32(BASE + off, count, instr, |i, v| {
                check(image, off + i * 4, &v.to_le_bytes(), op);
                seen += 1;
            })
            .unwrap();
            assert_eq!(seen, count, "{op:?}");
        }
        Op::WriteBlock {
            off,
            len,
            instr,
            fill,
        } => {
            let len = len.min(REGION / 4 - off) as usize;
            let bytes: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
            m.try_write_block(BASE + off, &bytes, instr).unwrap();
            store(image, off, &bytes);
        }
        Op::ReadBlock { off, len, instr } => {
            let len = len.min(REGION / 4 - off) as usize;
            let mut buf = vec![0u8; len];
            m.try_read_block(BASE + off, &mut buf, instr).unwrap();
            check(image, off, &buf, op);
        }
        Op::StreamPair {
            off_a,
            count,
            instr,
        } => {
            let count = count.min((REGION / 4 - off_a) / 4);
            // Second lane in the third quarter of the region: disjoint
            // from lane A's first quarter.
            let off_b = REGION / 2 + off_a;
            m.try_stream_write_u32_pair(BASE + off_a, BASE + off_b, count, instr, pair_words)
                .unwrap();
            for i in 0..count {
                let (a, b) = pair_words(i);
                store(image, off_a + i * 4, &a.to_le_bytes());
                store(image, off_b + i * 4, &b.to_le_bytes());
            }
        }
        Op::StreamMixed {
            off_a,
            count,
            instr,
        } => {
            let count = count.min((REGION / 4 - off_a) / 8);
            let off_b = REGION / 2 + off_a;
            m.try_stream_write_u32_f64(BASE + off_a, BASE + off_b, count, instr, mixed_words)
                .unwrap();
            for i in 0..count {
                let (a, b) = mixed_words(i);
                store(image, off_a + i * 4, &a.to_le_bytes());
                store(image, off_b + i * 8, &b.to_bits().to_le_bytes());
            }
        }
        Op::Remap => {
            let rep = m.remap(BASE, REGION);
            digest = rep.superpages.len() as u64;
        }
        // The page-moving services run only where they apply (never on
        // the baseline kernel, where remap is a no-op); the same
        // deterministic guard runs on both machines.
        Op::SwapOut => {
            if m.kernel().aspace().superpage_of(BASE.vpn()).is_some() {
                digest = m.swap_out_superpage(BASE.vpn()).pages_written;
            }
        }
        Op::Demote => {
            if m.kernel().aspace().superpage_of(BASE.vpn()).is_some() {
                m.demote_superpage(BASE.vpn());
            }
        }
        Op::Recolor { page, color } => {
            let vpn = (BASE + page * 4096).vpn();
            let real = m
                .kernel()
                .aspace()
                .page(vpn)
                .is_some_and(|info| matches!(info.backing, Backing::Real(_)));
            if real && m.config().mmc.mtlb.is_some() {
                m.recolor_page(vpn, color % m.config().cache.page_colors());
                digest = m.page_color(vpn);
            }
        }
        Op::ContextSwitchAwayAndBack => {
            let pid = m.spawn_process();
            m.try_switch_process(pid).expect("pid was spawned");
            m.try_switch_process(0).expect("pid 0 always exists");
        }
        Op::SwitchCore => m.set_active_core((m.active_core() + 1) % m.num_cores()),
        Op::Sbrk(n) => digest = m.sbrk(n).get(),
        Op::PastEnd {
            off,
            width,
            write,
            value,
        } => {
            let off = REGION - 8 + off;
            let moved = scalar_of_width(m, BASE + off, width, write, value);
            let bytes = &value.to_le_bytes()[..width as usize];
            match moved {
                Ok(v) if !write => check(image, off, &v.to_le_bytes()[..width as usize], op),
                // A misaligned store commits its low half before the
                // high half faults.
                _ if write && off < REGION => {
                    store(
                        image,
                        off,
                        &bytes[..bytes.len().min((REGION - off) as usize)],
                    );
                }
                _ => {}
            }
            moved?;
        }
        Op::StreamPastEnd { back, count, write } => {
            let off = REGION - back * 4;
            let done = count.min(back);
            let result = if write {
                m.try_stream_write_u32(BASE + off, count, 0, stream_word)
            } else {
                let mut seen = 0;
                let result = m.try_stream_read_u32(BASE + off, count, 0, |i, v| {
                    check(image, off + i * 4, &v.to_le_bytes(), op);
                    seen += 1;
                });
                assert_eq!(seen, done, "{op:?}");
                result
            };
            if write {
                for i in 0..done {
                    store(image, off + i * 4, &stream_word(i).to_le_bytes());
                }
            }
            result?;
        }
        Op::ReadOnly { off, width, write } => {
            let moved = scalar_of_width(m, READ_ONLY + off, width, write, u64::MAX)?;
            assert_eq!(moved, 0, "{op:?}");
        }
    }
    Ok(digest)
}

/// Maps the region read-write and the read-only page past it, and loads
/// a program.
fn setup(m: &mut Machine) {
    m.map_region(BASE, REGION, Prot::RW);
    m.map_region(READ_ONLY, 4096, Prot::READ);
    m.load_program(16 * 4096, false);
}

/// Replays the trace `bytes` on `m` op by op; the ops that fault must
/// raise exactly `faults`, in order.
fn replay_with_faults(m: &mut Machine, bytes: &[u8], faults: &[Fault]) {
    let mut reader = TraceReader::new(bytes).expect("header decodes");
    let mut raised = Vec::new();
    let mut i = 0;
    while let Some(op) = reader.next_op().expect("op decodes") {
        match apply_op(m, &op, i) {
            Ok(()) => {}
            Err(TraceError::ReplayFault { fault, .. }) => raised.push(fault),
            Err(e) => panic!("op {i} does not replay: {e}"),
        }
        i += 1;
    }
    assert_eq!(raised, faults, "replayed faults");
}

/// The fast machine and the slow-path reference stay bit-identical —
/// total cycles, every counter and interval in the serialized report,
/// and the full guest memory image — across `ops` on the MTLB or the
/// baseline configuration with `cores` cores; every read on both
/// returns what the flat image holds; and on one core a trace-replayed
/// machine (fast paths on when `replay_fast`) reproduces the same
/// report.
fn differential(mtlb: bool, cores: usize, replay_fast: bool, ops: &[Op]) {
    let cfg = if mtlb {
        MachineConfig::paper_mtlb(16)
    } else {
        MachineConfig::paper_base(16)
    }
    .with_cores(cores);
    // The fast machine records the op stream for the replay leg.
    let mut fast = Machine::new(cfg.clone());
    fast.set_op_sink(Box::new(mtlb_trace::TraceWriter::new()));
    let mut slow = Machine::new(cfg.clone());
    slow.set_fast_paths(false);
    setup(&mut fast);
    setup(&mut slow);
    // map_region hands out zeroed pages.
    let mut image = vec![0u8; REGION as usize];
    let mut faults = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let result = apply(&mut fast, op, &mut image);
        assert_eq!(
            result,
            apply(&mut slow, op, &mut image),
            "op {} result divergence: {:?}",
            i,
            op
        );
        faults.extend(result.err());
    }
    let reference_json = slow.report().to_json();
    assert_eq!(
        &fast.report().to_json(),
        &reference_json,
        "cycle/counter divergence"
    );
    assert_eq!(
        fast.guest_memory().content_digest(),
        slow.guest_memory().content_digest(),
        "guest memory divergence"
    );

    // Replay leg (one core only): the recorded stream, replayed
    // through a fresh machine in either mode, must reproduce the
    // reference report byte-for-byte (data digests excluded:
    // replay writes zeros).
    if cores == 1 {
        let writer = fast
            .take_op_sink()
            .expect("sink still attached")
            .into_any()
            .downcast::<mtlb_trace::TraceWriter>()
            .expect("trace writer");
        let bytes = writer.finish("differential", 0, 0, true);
        let mut replayed = Machine::new(cfg);
        replayed.set_fast_paths(replay_fast);
        replay_with_faults(&mut replayed, &bytes, &faults);
        assert_eq!(
            &replayed.report().to_json(),
            &reference_json,
            "replay divergence (fast={})",
            replay_fast
        );
    }
}

/// Memos across `sbrk`: the first call grows the heap (map, and on the
/// MTLB machine a remap whose shootdown moves the TLB generation), so
/// it must kill the hot page's memo; the later calls stay inside the
/// mapped heap and leave the memos alive. The hot page is read and
/// written between every pair of calls, so a memo minted before each
/// `sbrk` is used after it — and a memo that outlived the growing call
/// trips the memo's TLB-generation assertion.
#[test]
fn memos_outlive_an_sbrk_inside_the_heap() {
    let touch = |off: u64, write: bool| Op::Scalar {
        off,
        width: 4,
        write,
        value: off ^ 0xdead_beef,
    };
    let mut ops = Vec::new();
    for _ in 0..4 {
        ops.extend([
            touch(0x40, true),
            touch(0x40, false),
            Op::Sbrk(4096),
            touch(0x44, false),
            touch(0x48, true),
        ]);
    }
    for mtlb in [false, true] {
        for cores in [1, 2] {
            differential(mtlb, cores, true, &ops);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// [`differential`] over random op sequences on the MTLB and
    /// baseline configurations with one to four cores.
    #[test]
    fn fast_paths_are_observably_absent(
        mtlb in (0u8..2).prop_map(|b| b == 1),
        cores in 1usize..5,
        replay_fast in (0u8..2).prop_map(|b| b == 1),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        differential(mtlb, cores, replay_fast, &ops);
    }

    /// The in-memory op record (no encoding) also replays to identical
    /// state: guards the recording hooks themselves, independent of the
    /// trace codec.
    #[test]
    fn recorded_ops_replay_identically_in_memory(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let cfg = MachineConfig::paper_mtlb(16);
        let mut recorded = Machine::new(cfg.clone());
        recorded.set_op_sink(Box::new(VecOpSink::default()));
        setup(&mut recorded);
        let mut image = vec![0u8; REGION as usize];
        let faults: Vec<Fault> = ops
            .iter()
            .filter_map(|op| apply(&mut recorded, op, &mut image).err())
            .collect();
        let reference_json = recorded.report().to_json();
        let sink = recorded
            .take_op_sink()
            .expect("sink")
            .into_any()
            .downcast::<VecOpSink>()
            .expect("vec sink");

        let mut fresh = Machine::new(cfg);
        let mut w = mtlb_trace::TraceWriter::new();
        for op in &sink.ops {
            w.push(op);
        }
        let bytes = w.finish("mem", 0, 0, true);
        replay_with_faults(&mut fresh, &bytes, &faults);
        prop_assert_eq!(fresh.report().to_json(), reference_json);
    }
}
