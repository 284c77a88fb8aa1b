//! Per-layer host probes on real op streams.
//!
//! Each probe times calls into one layer's long-lived public entry
//! points, from here, over columns extracted from paper-scale op
//! streams: the full machine (`apply_op`), the trace codec, the
//! translation schemes, the cache, the MMC and guest memory. Nothing
//! the roadmap means to delete (`replay_batched`, `loop_fast_forward`,
//! `set_fast_paths`, `TraceWriter::capturing`, …) is called, so the
//! change that deletes them can be measured with this file unchanged.
//!
//! The streams are vortex and cc1 — the two `perop_fig5_fig6` replays —
//! because the five paper streams together are 75 M ops (3 GB as
//! `Vec<MachineOp>`) and one traced run has about 15 s for this part.

use mtlb_bench::experiments::workload_by_name;
use mtlb_cache::{AccessResult, CacheConfig, DataCache, FillKind};
use mtlb_mem::GuestMemory;
use mtlb_mmc::{BusOp, Mmc, MmcConfig, ShadowPte, ShadowRange};
use mtlb_schemes::SchemeConfig;
use mtlb_sim::{Machine, MachineConfig, MachineOp, VecOpSink};
use mtlb_tlb::{
    ContigInfo, HashedPageTable, HptConfig, LookupOutcome, Pte, PteMemory, TlbEntry,
    TranslationScheme,
};
use mtlb_trace::{TraceReader, TraceWriter};
use mtlb_types::{
    AccessKind, PageSize, PhysAddr, Ppn, PrivilegeLevel, Prot, VirtAddr, Vpn, PAGE_SIZE,
};
use mtlb_workloads::Scale;

use crate::spans::Tracer;
use crate::units::sim_instructions;

pub const STREAMS: [&str; 2] = ["vortex", "cc1"];
/// Timed passes per probe; the reported value is their median.
pub const PASSES: usize = 3;

const DRAM: u64 = 256 << 20;
const LINE: u64 = 32;
/// The coalescing window the kernel's contiguity scan uses.
const CONTIG_PAGES: u64 = 8;

/// One recorded op stream and the columns the probes walk.
pub struct Stream {
    pub name: &'static str,
    pub ops: Vec<MachineOp>,
    /// The MTR1 encoding of the same stream.
    pub bytes: Vec<u8>,
    /// Simulated instructions (memory operations included) of one run.
    pub instructions: u64,
    /// Every data address the stream touches, one per cache line for
    /// block and stream operations, with whether it is written.
    pub data: Vec<(u64, bool)>,
    /// The distinct pages `data` touches, ascending.
    pub pages: Vec<u64>,
}

fn push_lines(data: &mut Vec<(u64, bool)>, start: u64, len: u64, write: bool) {
    if len == 0 {
        return;
    }
    let mut line = start / LINE * LINE;
    while line < start + len {
        data.push((line.max(start), write));
        line += LINE;
    }
}

fn data_column(ops: &[MachineOp]) -> Vec<(u64, bool)> {
    let mut data = Vec::new();
    for op in ops {
        match *op {
            MachineOp::Read { va, .. } => data.push((va.get(), false)),
            MachineOp::Write { va, .. } => data.push((va.get(), true)),
            MachineOp::ReadBlock { va, len, .. } => push_lines(&mut data, va.get(), len, false),
            MachineOp::WriteBlock { va, len, .. } => push_lines(&mut data, va.get(), len, true),
            MachineOp::StreamReadU32 { base, count, .. } => {
                push_lines(&mut data, base.get(), count * 4, false);
            }
            MachineOp::StreamWriteU32 { base, count, .. } => {
                push_lines(&mut data, base.get(), count * 4, true);
            }
            MachineOp::StreamWritePairU32 { a, b, count, .. } => {
                push_lines(&mut data, a.get(), count * 4, true);
                push_lines(&mut data, b.get(), count * 4, true);
            }
            MachineOp::StreamWriteU32F64 { a, b, count, .. } => {
                push_lines(&mut data, a.get(), count * 4, true);
                push_lines(&mut data, b.get(), count * 8, true);
            }
            _ => {}
        }
    }
    data
}

/// Runs `name` live on the paper machine with `sink` attached (if any)
/// and returns the machine. The caller times it.
fn run_live(name: &str, scale: Scale, sink: Option<Box<dyn mtlb_sim::OpSink>>) -> Machine {
    let mut machine = Machine::new(MachineConfig::paper_mtlb(64));
    if let Some(sink) = sink {
        machine.set_op_sink(sink);
    }
    let outcome = workload_by_name(name, scale).run(&mut machine);
    assert!(outcome.verified, "{name} failed its self-check");
    machine
}

/// Records `name` once into a `Vec<MachineOp>` and its columns.
pub fn record(name: &'static str, scale: Scale, tracer: &mut Tracer) -> Stream {
    let (mut machine, _) = tracer.span("probe.record_vec", name, |_| {
        run_live(name, scale, Some(Box::new(VecOpSink::default())))
    });
    let ops = machine
        .take_op_sink()
        .expect("the sink is still attached")
        .into_any()
        .downcast::<VecOpSink>()
        .expect("a VecOpSink was attached")
        .ops;
    let data = data_column(&ops);
    let pages = distinct_sorted(data.iter().map(|&(va, _)| va / PAGE_SIZE).collect());
    Stream {
        name,
        instructions: sim_instructions(&machine.report()),
        ops,
        bytes: Vec::new(),
        data,
        pages,
    }
}

/// Host nanoseconds of one pass of the machine-level probes over one
/// stream, and the exact counts that come with them.
#[derive(Clone, Copy, Debug, Default)]
pub struct MachinePass {
    pub run_plain_ns: f64,
    pub run_recording_ns: f64,
    pub apply_mtlb64_ns: f64,
    pub apply_base64_ns: f64,
    pub apply_base128_ns: f64,
    pub decode_ns: f64,
    pub replay_ns: f64,
    pub misses_base64: u64,
    pub misses_base128: u64,
}

fn apply_all(
    cfg: MachineConfig,
    stream: &Stream,
    span: &'static str,
    tracer: &mut Tracer,
) -> (u64, f64) {
    let mut machine = Machine::new(cfg);
    let ((), ns) = tracer.span(span, stream.name, |_| {
        for (i, op) in stream.ops.iter().enumerate() {
            mtlb_trace::apply_op(&mut machine, op, i as u64).expect("the stream replays");
        }
    });
    (machine.report().tlb.misses, ns as f64)
}

/// One pass of the machine-level probes. The first pass also keeps the
/// encoded trace for the decode and replay probes.
pub fn machine_pass(stream: &mut Stream, scale: Scale, tracer: &mut Tracer) -> MachinePass {
    let name = stream.name;
    let (_, run_plain_ns) = tracer.span("workloads.run", name, |_| run_live(name, scale, None));
    let (mut machine, run_recording_ns) = tracer.span("trace.record_run", name, |_| {
        run_live(name, scale, Some(Box::new(TraceWriter::new())))
    });
    let writer = machine
        .take_op_sink()
        .expect("the sink is still attached")
        .into_any()
        .downcast::<TraceWriter>()
        .expect("a TraceWriter was attached");
    assert_eq!(
        writer.ops(),
        stream.ops.len() as u64,
        "both sinks saw one stream"
    );
    stream.bytes = writer.finish(name, 1, 0, true);

    let (_, apply_mtlb64_ns) =
        apply_all(MachineConfig::paper_mtlb(64), stream, "sim.apply", tracer);
    let (misses_base64, apply_base64_ns) = apply_all(
        MachineConfig::paper_base(64),
        stream,
        "sim.apply_base64",
        tracer,
    );
    let (misses_base128, apply_base128_ns) = apply_all(
        MachineConfig::paper_base(128),
        stream,
        "sim.apply_base128",
        tracer,
    );

    let (decoded, decode_ns) = tracer.span("trace.decode", name, |_| {
        let mut reader = TraceReader::new(&stream.bytes).expect("a trace just written");
        let mut ops = 0u64;
        while let Some(op) = reader.next_op().expect("a trace just written") {
            std::hint::black_box(op);
            ops += 1;
        }
        ops
    });
    assert_eq!(decoded, stream.ops.len() as u64);

    let mut machine = Machine::new(MachineConfig::paper_mtlb(64));
    let (_, replay_ns) = tracer.span("trace.replay", name, |_| {
        mtlb_trace::replay(&mut machine, &stream.bytes).expect("the stream replays")
    });

    MachinePass {
        run_plain_ns: run_plain_ns as f64,
        run_recording_ns: run_recording_ns as f64,
        apply_mtlb64_ns,
        apply_base64_ns,
        apply_base128_ns,
        decode_ns: decode_ns as f64,
        replay_ns: replay_ns as f64,
        misses_base64,
        misses_base128,
    }
}

/// Host nanoseconds and exact counts of one pass of the column probes
/// over one stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct ColumnPass {
    pub accesses: u64,
    pub tlb_translate_ns: f64,
    pub tlb_hits: u64,
    pub hpt_lookups: u64,
    pub hpt_lookup_ns: f64,
    pub coalesced_translate_ns: f64,
    pub coalesced_hits: u64,
    pub split_translate_ns: f64,
    pub split_hits: u64,
    pub cache_access_ns: f64,
    pub cache_hits: u64,
    pub cache_flushes: u64,
    pub cache_flush_ns: f64,
    pub mmc_mappings: u64,
    pub mmc_set_mapping_ns: f64,
    pub mmc_accesses: u64,
    pub mmc_bus_access_ns: f64,
    pub mmc_mtlb_hits: u64,
    pub mem_rw_ns: f64,
}

/// Walks the data column through a translation scheme, filling on every
/// miss with an identity 4 KB mapping (and the 8-page identity run
/// around it, which is what lets the coalescing scheme coalesce).
/// Returns hits and the miss VPN sequence.
fn translate_column(scheme: &mut dyn TranslationScheme, data: &[(u64, bool)]) -> (u64, Vec<u64>) {
    let mut misses = Vec::new();
    let mut hits = 0u64;
    for &(va, write) in data {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        match scheme.translate(VirtAddr::new(va), kind, PrivilegeLevel::User) {
            LookupOutcome::Hit(pa) => {
                std::hint::black_box(pa);
                hits += 1;
            }
            LookupOutcome::Miss => {
                let vpn = va / PAGE_SIZE;
                let entry = TlbEntry::new(Vpn::new(vpn), Ppn::new(vpn), PageSize::Base4K, Prot::RW)
                    .expect("base pages are always aligned");
                let run = vpn / CONTIG_PAGES * CONTIG_PAGES;
                scheme.fill(
                    entry,
                    &ContigInfo {
                        base: Vpn::new(run),
                        pfn: Ppn::new(run),
                        pages: CONTIG_PAGES,
                    },
                );
                misses.push(vpn);
            }
            LookupOutcome::Fault(fault) => panic!("identity RW mappings cannot fault: {fault:?}"),
        }
    }
    (hits, misses)
}

struct FlatMem(GuestMemory);

impl PteMemory for FlatMem {
    fn read_u64(&mut self, pa: PhysAddr) -> u64 {
        self.0.read_u64(pa)
    }
    fn write_u64(&mut self, pa: PhysAddr, value: u64) {
        self.0.write_u64(pa, value);
    }
}

fn distinct_sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values.dedup();
    values
}

/// One pass of the column probes.
pub fn column_pass(stream: &Stream, tracer: &mut Tracer) -> ColumnPass {
    let name = stream.name;
    let (data, pages) = (&stream.data, &stream.pages);
    let mut pass = ColumnPass {
        accesses: data.len() as u64,
        ..ColumnPass::default()
    };

    // tlb: the paper's 64-entry TLB through the scheme trait.
    let mut cpu = SchemeConfig::Cpu.build(64);
    let ((hits, miss_vpns), ns) = tracer.span("tlb.translate", name, |_| {
        translate_column(cpu.as_mut(), data)
    });
    pass.tlb_translate_ns = ns as f64;
    pass.tlb_hits = hits;

    // tlb: the hashed page table over that miss sequence.
    let mut hpt = HashedPageTable::new(HptConfig::paper_default(PhysAddr::new(0x10_0000)));
    let mut pte_mem = FlatMem(GuestMemory::new(64 << 20));
    for &vpn in &distinct_sorted(miss_vpns.clone()) {
        hpt.insert(
            Pte {
                vpn: Vpn::new(vpn),
                pfn: Ppn::new(vpn),
                size: PageSize::Base4K,
                prot: Prot::RW,
            },
            &mut pte_mem,
        )
        .expect("two paper workloads fit the paper's page table");
    }
    let ((), ns) = tracer.span("tlb.hpt_lookup", name, |_| {
        for &vpn in &miss_vpns {
            std::hint::black_box(hpt.lookup(Vpn::new(vpn), &mut pte_mem));
        }
    });
    pass.hpt_lookups = miss_vpns.len() as u64;
    pass.hpt_lookup_ns = ns as f64;

    // schemes: the rival front ends over the same column.
    let mut coalesced = SchemeConfig::Coalesced.build(64);
    let ((hits, _), ns) = tracer.span("schemes.coalesced_translate", name, |_| {
        translate_column(coalesced.as_mut(), data)
    });
    pass.coalesced_translate_ns = ns as f64;
    pass.coalesced_hits = hits;
    let mut split = SchemeConfig::Split.build(0);
    let ((hits, _), ns) = tracer.span("schemes.split_translate", name, |_| {
        translate_column(split.as_mut(), data)
    });
    pass.split_translate_ns = ns as f64;
    pass.split_hits = hits;

    // cache: paper geometry, identity physical addresses.
    let mut cache = DataCache::new(CacheConfig::paper_default());
    let mut miss_lines: Vec<(u64, bool)> = Vec::new();
    let ((), ns) = tracer.span("cache.access", name, |_| {
        for &(va, write) in data {
            let (va, pa) = (VirtAddr::new(va), PhysAddr::new(va));
            let result = if write {
                cache.access_write(va, pa)
            } else {
                cache.access_read(va, pa)
            };
            if let AccessResult::Miss { fill, .. } = result {
                miss_lines.push((va.get(), fill == FillKind::Exclusive));
            }
        }
    });
    pass.cache_access_ns = ns as f64;
    pass.cache_hits = cache.stats().hits;
    let ((), ns) = tracer.span("cache.flush_page", name, |_| {
        for &page in pages {
            std::hint::black_box(cache.flush_page(Vpn::new(page), Ppn::new(page)));
        }
    });
    pass.cache_flushes = pages.len() as u64;
    pass.cache_flush_ns = ns as f64;

    // mmc: the cache's miss lines, rebased into shadow space.
    let shadow = ShadowRange::paper_default();
    let mut mmc = Mmc::new(MmcConfig::paper_default(DRAM));
    let mut mem = GuestMemory::new(DRAM);
    let first_user_frame = (16 << 20) / PAGE_SIZE;
    let user_frames = DRAM / PAGE_SIZE - first_user_frame;
    let index_of = |page: u64| {
        pages
            .binary_search(&page)
            .expect("every miss line lies in a touched page") as u64
            % shadow.pages()
    };
    let ((), ns) = tracer.span("mmc.set_mapping", name, |_| {
        for i in 0..(pages.len() as u64).min(shadow.pages()) {
            let frame = Ppn::new(first_user_frame + i % user_frames);
            mmc.set_mapping(i, ShadowPte::present(frame), &mut mem);
        }
    });
    pass.mmc_mappings = (pages.len() as u64).min(shadow.pages());
    pass.mmc_set_mapping_ns = ns as f64;
    let shadow_base = shadow.base().get();
    let bus: Vec<(u64, BusOp)> = miss_lines
        .iter()
        .map(|&(va, exclusive)| {
            let pa = shadow_base + index_of(va / PAGE_SIZE) * PAGE_SIZE + va % PAGE_SIZE;
            let op = if exclusive {
                BusOp::FillExclusive
            } else {
                BusOp::FillShared
            };
            (pa, op)
        })
        .collect();
    let ((), ns) = tracer.span("mmc.bus_access", name, |_| {
        for &(pa, op) in &bus {
            let response = mmc
                .bus_access(PhysAddr::new(pa), op, &mut mem)
                .expect("every page was mapped");
            std::hint::black_box(response);
        }
    });
    pass.mmc_accesses = bus.len() as u64;
    pass.mmc_bus_access_ns = ns as f64;
    pass.mmc_mtlb_hits = mmc.stats().mtlb_hits;

    // mem: guest memory over the (identity) physical column.
    let mut guest = GuestMemory::new(DRAM);
    let ((), ns) = tracer.span("mem.rw", name, |_| {
        for &(va, write) in data {
            let pa = PhysAddr::new((va % DRAM) & !3);
            if write {
                guest.write_u32(pa, va as u32);
            } else {
                std::hint::black_box(guest.read_u32(pa));
            }
        }
    });
    pass.mem_rw_ns = ns as f64;
    pass
}

/// Host nanoseconds per `set_active_core` call, alternating over a
/// four-core machine whose every core has touched memory.
pub fn core_switch_ns(tracer: &mut Tracer) -> f64 {
    const SWITCHES: u64 = 200_000;
    let mut machine = Machine::new(MachineConfig::paper_mtlb(96).with_cores(4));
    let base = Machine::process_heap_base(0);
    machine.map_region(base, 64 * PAGE_SIZE, Prot::RW);
    for core in 0..4 {
        machine.set_active_core(core);
        for page in 0..64 {
            machine
                .try_write_u32(base + page * PAGE_SIZE, page as u32)
                .expect("the region was just mapped");
        }
    }
    let ((), ns) = tracer.span("sim.core_switch", "4-core", |_| {
        for i in 0..SWITCHES {
            machine.set_active_core((i % 4) as usize);
        }
    });
    ns as f64 / SWITCHES as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ops_expand_to_one_address_per_line() {
        let mut data = Vec::new();
        push_lines(&mut data, 40, 60, true);
        assert_eq!(data, [(40, true), (64, true), (96, true)]);
        data.clear();
        push_lines(&mut data, 64, 32, false);
        assert_eq!(data, [(64, false)]);
        data.clear();
        push_lines(&mut data, 64, 0, false);
        assert!(data.is_empty());
    }

    #[test]
    fn probes_run_on_a_test_scale_stream() {
        let mut tracer = Tracer::default();
        let mut stream = record("vortex", Scale::Test, &mut tracer);
        assert!(!stream.ops.is_empty() && !stream.data.is_empty());
        let machine = machine_pass(&mut stream, Scale::Test, &mut tracer);
        assert!(!stream.bytes.is_empty());
        assert!(machine.misses_base64 >= machine.misses_base128);
        let columns = column_pass(&stream, &mut tracer);
        assert_eq!(columns.accesses, stream.data.len() as u64);
        assert!(columns.tlb_hits > 0 && columns.tlb_hits < columns.accesses);
        // Coalescing can only remove misses from an identity mapping.
        assert!(columns.coalesced_hits >= columns.tlb_hits);
        assert!(columns.cache_hits > 0 && columns.mmc_accesses > 0);
        assert!(columns.mmc_mtlb_hits <= columns.mmc_accesses);
        assert!(core_switch_ns(&mut tracer) > 0.0);
    }
}
