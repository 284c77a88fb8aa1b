//! The experiment drivers. See the [crate docs](crate) for the mapping
//! from paper artefacts to functions.
//!
//! Every sweep takes a [`Runner`] and expresses its work as independent
//! `(workload, MachineConfig)` jobs; the runner decides how many OS
//! threads execute them. Results are assembled in a fixed order, so
//! rows are identical whatever the parallelism. The experiments that
//! drive a machine by hand (paging, multiprogramming, promotion,
//! recoloring, stream buffers) take no runner and run in place.

use std::fmt::Display;

use mtlb_cache::{CacheConfig, CacheIndexing, DataCache};
use mtlb_mem::{FrameOrder, GuestMemory};
use mtlb_mmc::{Mmc, MmcConfig};
use mtlb_os::{
    BucketAllocator, BucketPartition, BuddyAllocator, Kernel, KernelConfig, KernelCtx,
    PagingPolicy, ShadowAllocator, UserLayout,
};
use mtlb_schemes::SchemeConfig;
use mtlb_sim::{Machine, MachineConfig, RunReport};
use mtlb_tlb::{CpuTlb, MicroItlb};
use mtlb_types::{PageSize, Ppn, Prot, VirtAddr, PAGE_SIZE};
use mtlb_workloads::{AccessExt, Cc1, Compress95, Em3d, Oltp, Radix, Scale, Vortex, Workload};

use crate::runner::{JobResult, JobSpec, Runner};

/// The five benchmark names, in the paper's Figure 3 order.
pub const WORKLOADS: [&str; 5] = ["compress95", "em3d", "radix", "vortex", "cc1"];

/// Constructs a workload by its paper name.
///
/// # Panics
///
/// Panics on an unknown name.
#[must_use]
pub fn workload_by_name(name: &str, scale: Scale) -> Box<dyn Workload> {
    match name {
        "compress95" => Box::new(Compress95::new(scale)),
        "em3d" => Box::new(Em3d::new(scale)),
        "radix" => Box::new(Radix::new(scale)),
        "vortex" => Box::new(Vortex::new(scale)),
        "cc1" => Box::new(Cc1::new(scale)),
        "oltp" => Box::new(Oltp::new(scale)),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Runs every `(workload, machine)` pair as one [`Runner::run`] batch,
/// each job labelled `<prefix>/<workload>/<machine>`, and returns each
/// workload's results in `machines` order.
fn grid(
    runner: &Runner,
    scale: Scale,
    prefix: &str,
    workloads: &[&'static str],
    machines: &[(impl Display, MachineConfig)],
) -> Vec<Vec<JobResult>> {
    let specs: Vec<JobSpec> = workloads
        .iter()
        .flat_map(|&name| {
            machines.iter().map(move |(machine, cfg)| {
                JobSpec::new(
                    format!("{prefix}/{name}/{machine}"),
                    name,
                    scale,
                    cfg.clone(),
                )
            })
        })
        .collect();
    let mut results = runner.run(&specs).into_iter();
    workloads
        .iter()
        .map(|_| results.by_ref().take(machines.len()).collect())
        .collect()
}

/// Panics naming the first job whose workload failed its self-check.
fn assert_verified<'a>(results: impl IntoIterator<Item = &'a JobResult>) {
    for r in results {
        assert!(r.outcome.verified, "{}: self-check failed", r.label);
    }
}

/// One row of Figure 2: a size class of the static shadow partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig2Row {
    /// Superpage size.
    pub size: PageSize,
    /// Number of pre-allocated regions of this size.
    pub count: u64,
    /// Address-space extent consumed by the class.
    pub extent_bytes: u64,
}

/// Figure 2: the paper's example partitioning of a 512 MB shadow space.
#[must_use]
pub fn fig2() -> Vec<Fig2Row> {
    let p = BucketPartition::paper_default();
    p.counts()
        .iter()
        .map(|(size, count)| Fig2Row {
            size: *size,
            count: *count,
            extent_bytes: p.extent_of(*size),
        })
        .collect()
}

/// One run of Figure 3: a workload on one machine configuration.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Workload name.
    pub workload: &'static str,
    /// CPU TLB entries.
    pub tlb_entries: usize,
    /// Whether the 128-entry 2-way MTLB was fitted.
    pub mtlb: bool,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Cycles in the software TLB miss handler.
    pub tlb_miss_cycles: u64,
    /// `tlb_miss_cycles / total_cycles`.
    pub tlb_fraction: f64,
    /// Runtime normalised to the 96-entry no-MTLB base system (§3.4).
    pub normalized: f64,
    /// Workload self-check passed.
    pub verified: bool,
    /// Full statistics snapshot of the run, for `--json-dir` export.
    pub report: RunReport,
}

/// Figure 3: runtimes for each TLB size with and without the MTLB,
/// normalised per-workload to the 96-entry no-MTLB base system.
///
/// `tlb_sizes` defaults in the paper to `[64, 96, 128]` (radix is also
/// cited at 256).
#[must_use]
pub fn fig3(
    runner: &Runner,
    scale: Scale,
    tlb_sizes: &[usize],
    workloads: &[&'static str],
) -> Vec<Fig3Row> {
    fig3_labelled(runner, scale, tlb_sizes, workloads, "fig3", 1)
}

/// [`fig3`] with an explicit job-label prefix and core count. Auxiliary
/// sweeps reusing the Figure 3 machinery (e.g. the §3.4 radix-at-256
/// run) must pass a distinct prefix so every job label is unique —
/// [`JobRecord`](crate::runner::JobRecord)s and the repo benchmark's
/// per-unit pins in `benchmark/expected.json` are keyed by label. The
/// prefix changes only labels, never simulated results. `cores == 1`
/// is the paper's machine and is bit-identical to the sweep before
/// cores existed; larger counts run the workload on core 0 of an
/// `N`-core machine (the extra cores idle but still receive
/// shootdowns).
#[must_use]
pub fn fig3_labelled(
    runner: &Runner,
    scale: Scale,
    tlb_sizes: &[usize],
    workloads: &[&'static str],
    label_prefix: &str,
    cores: usize,
) -> Vec<Fig3Row> {
    // The base-96 machine (the normalization base) plus one machine per
    // (size, mtlb) cell. The 96-entry no-MTLB cell repeats the base's
    // configuration; the runner's result cache serves it.
    let mut machines = vec![(
        "base96".to_string(),
        MachineConfig::paper_base(96).with_cores(cores),
    )];
    for &entries in tlb_sizes {
        machines.push((
            format!("tlb{entries}"),
            MachineConfig::paper_base(entries).with_cores(cores),
        ));
        machines.push((
            format!("tlb{entries}+mtlb"),
            MachineConfig::paper_mtlb(entries).with_cores(cores),
        ));
    }
    let results = grid(runner, scale, label_prefix, workloads, &machines);

    let mut rows = Vec::new();
    for (&name, cells) in workloads.iter().zip(&results) {
        let base_total = cells[0].report.total_cycles.get() as f64;
        let layout = tlb_sizes.iter().flat_map(|&e| [(e, false), (e, true)]);
        for ((entries, mtlb), r) in layout.zip(&cells[1..]) {
            rows.push(Fig3Row {
                workload: name,
                tlb_entries: entries,
                mtlb,
                total_cycles: r.report.total_cycles.get(),
                tlb_miss_cycles: r.report.buckets.tlb_miss.get(),
                tlb_fraction: r.report.tlb_miss_fraction(),
                normalized: r.report.total_cycles.get() as f64 / base_total,
                verified: r.outcome.verified,
                report: r.report.clone(),
            });
        }
    }
    rows
}

/// One em3d run of Figure 4 (§3.5): an MTLB geometry (or the no-MTLB
/// reference) on the 128-entry CPU TLB machine.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// `None` for the no-MTLB reference, else `(entries, assoc)`.
    pub geometry: Option<(usize, usize)>,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Runtime normalised to the no-MTLB reference.
    pub normalized: f64,
    /// Average MMC cycles per demand cache fill (Figure 4B).
    pub avg_fill_mmc_cycles: f64,
    /// Added delay per fill relative to the no-MTLB reference
    /// (Figure 4B's reported quantity; ≥ 1 cycle by construction).
    pub added_delay: f64,
    /// MTLB hit rate (0 for the reference).
    pub mtlb_hit_rate: f64,
    /// Full statistics snapshot of the run, for `--json-dir` export and
    /// the Figure 4B fill-latency histogram.
    pub report: RunReport,
}

/// Figure 4 (A and B): em3d sensitivity to MTLB size and associativity,
/// against the 128-entry-TLB no-MTLB system.
#[must_use]
pub fn fig4(runner: &Runner, scale: Scale, sizes: &[usize], assocs: &[usize]) -> Vec<Fig4Row> {
    let mut machines = vec![("no-mtlb".to_string(), MachineConfig::paper_base(128))];
    let mut geometries = Vec::new();
    for &entries in sizes {
        for &assoc in assocs {
            machines.push((
                format!("mtlb{entries}x{assoc}"),
                MachineConfig::paper_mtlb(128).with_mtlb_geometry(entries, assoc),
            ));
            geometries.push((entries, assoc));
        }
    }
    let results = grid(runner, scale, "fig4", &["em3d"], &machines).remove(0);
    assert_verified(&results);
    let reference = &results[0].report;
    let ref_total = reference.total_cycles.get() as f64;
    let ref_fill = reference.avg_fill_mmc_cycles();
    let mut rows = vec![Fig4Row {
        geometry: None,
        total_cycles: reference.total_cycles.get(),
        normalized: 1.0,
        avg_fill_mmc_cycles: ref_fill,
        added_delay: 0.0,
        mtlb_hit_rate: 0.0,
        report: reference.clone(),
    }];
    for (geometry, r) in geometries.into_iter().zip(&results[1..]) {
        rows.push(Fig4Row {
            geometry: Some(geometry),
            total_cycles: r.report.total_cycles.get(),
            normalized: r.report.total_cycles.get() as f64 / ref_total,
            avg_fill_mmc_cycles: r.report.avg_fill_mmc_cycles(),
            added_delay: r.report.avg_fill_mmc_cycles() - ref_fill,
            mtlb_hit_rate: r.report.mmc.mtlb_hit_rate(),
            report: r.report.clone(),
        });
    }
    rows
}

/// §3.3 initialisation-cost measurements.
#[derive(Debug, Clone)]
pub struct CostsReport {
    /// Pages remapped in the em3d-style measurement.
    pub remap_pages: u64,
    /// Total cycles of the remap syscall.
    pub remap_total_cycles: u64,
    /// Cycles spent flushing the cache (the paper's 1.497 M of 1.659 M).
    pub remap_flush_cycles: u64,
    /// All remaining remap overhead (the paper's 162 087).
    pub remap_other_cycles: u64,
    /// Average flush cycles per 4 KB page (the paper's ~1400).
    pub flush_cycles_per_page: f64,
    /// Cycles to copy one warm 4 KB page (the paper's ~11 400) — the cost
    /// conventional superpage coalescing pays per page and remapping
    /// avoids.
    pub copy_warm_page_cycles: u64,
}

/// §3.3: the em3d-style remap cost breakdown plus the warm page-copy
/// comparison. `pages` is the region size (the paper's em3d remapped
/// 1120 initialised pages).
#[must_use]
pub fn init_costs(pages: u64) -> CostsReport {
    let mut m = Machine::new(MachineConfig::paper_mtlb(128));
    let base = UserLayout::DATA_BASE;
    m.map_region(base, pages * PAGE_SIZE, Prot::RW);
    // Initialise every page so some lines are cached and dirty, as em3d's
    // explicitly-initialised dynamic memory was.
    for p in 0..pages {
        for line in 0..4 {
            m.write::<u64>(base + p * PAGE_SIZE + line * 512, p + line);
        }
    }
    let rep = m.remap(base, pages * PAGE_SIZE);
    assert_eq!(rep.pages_remapped + rep.pages_skipped, pages);

    // Warm page copy on a bare rig (kernel service measured in isolation).
    let mmc_cfg = MmcConfig::paper_default(128 << 20);
    let mut tlb = CpuTlb::new(128);
    let mut itlb = MicroItlb::new();
    let mut cache = DataCache::new(CacheConfig::paper_default());
    let mut mmc = Mmc::new(mmc_cfg);
    let mut mem = GuestMemory::new(128 << 20);
    let mut kernel = Kernel::new(mmc_cfg, KernelConfig::default(), 1);
    let mut ctx = KernelCtx {
        tlb: &mut tlb,
        itlb: &mut itlb,
        cache: &mut cache,
        mmc: &mut mmc,
        mem: &mut mem,
    };
    kernel.boot(&mut ctx);
    let (src, dst) = (Ppn::new(0x5000), Ppn::new(0x5010));
    // Warm the source page; the block ends tm's borrow of ctx before
    // handing ctx to the kernel.
    {
        let mut tm = mtlb_os::TimedMem::new(ctx.cache, ctx.mmc, ctx.mem);
        for w in 0..(PAGE_SIZE / 4) {
            tm.charge_access(src.base_addr() + w * 4, false);
        }
    }
    let copy = kernel.copy_page_timed(&mut ctx, src, dst);

    CostsReport {
        remap_pages: rep.pages_remapped,
        remap_total_cycles: rep.total_cycles().get(),
        remap_flush_cycles: rep.flush_cycles.get(),
        remap_other_cycles: rep.other_cycles.get(),
        flush_cycles_per_page: rep.flush_cycles.get() as f64 / rep.pages_remapped as f64,
        copy_warm_page_cycles: copy.get(),
    }
}

/// One row of the §2.5 paging experiment.
#[derive(Debug, Clone)]
pub struct PagingRow {
    /// Paging policy under test.
    pub policy: PagingPolicy,
    /// Fraction of the superpage's base pages dirtied before eviction.
    pub dirty_fraction: f64,
    /// Base pages in the superpage.
    pub pages_total: u64,
    /// Pages written to swap at the steady-state eviction.
    pub pages_written: u64,
    /// Swap reads needed to service `touched_pages` scattered re-touches.
    pub pages_read_back: u64,
    /// Shadow faults the re-touches raised.
    pub faults: u64,
}

/// §2.5: swap traffic of shadow-superpage (per-base-page) paging versus
/// conventional whole-superpage paging, as the dirty fraction varies.
///
/// Uses a 1 MB superpage; steady state (every page already has a swap
/// copy); after eviction, 32 scattered pages are re-touched to measure
/// the fault-back traffic.
#[must_use]
pub fn paging(dirty_fractions: &[f64]) -> Vec<PagingRow> {
    fn one(policy: PagingPolicy, f: f64) -> PagingRow {
        let mut cfg = MachineConfig::paper_mtlb(64);
        cfg.kernel.paging = policy;
        let mut m = Machine::new(cfg);
        let base = UserLayout::DATA_BASE;
        let len = 1 << 20; // one 1 MB superpage
        let pages = len / PAGE_SIZE;
        m.map_region(base, len, Prot::RW);
        m.remap(base, len);

        // Generation 1: populate, evict (writes everything — no swap
        // copies exist), fault everything back to reach steady state.
        for p in 0..pages {
            m.write::<u64>(base + p * PAGE_SIZE, p);
        }
        m.swap_out_superpage(base.vpn());
        for p in 0..pages {
            let _ = m.read::<u64>(base + p * PAGE_SIZE);
        }

        // Dirty the prescribed fraction (scattered across the range).
        let dirty = ((pages as f64) * f).round() as u64;
        for i in 0..dirty {
            let p = (i * 97) % pages; // co-prime stride scatters them
            m.write::<u64>(base + p * PAGE_SIZE + 8, i);
        }

        // Steady-state eviction: the §2.5 measurement.
        let before_writes = m.kernel().swap().writes();
        let rep = m.swap_out_superpage(base.vpn());
        let written = m.kernel().swap().writes() - before_writes;
        assert_eq!(written, rep.pages_written);

        // Scattered re-touches.
        let before_reads = m.kernel().swap().reads();
        let before_faults = m.kernel().stats().shadow_faults_serviced;
        for i in 0..32u64 {
            let p = (i * 31) % pages;
            let _ = m.read::<u64>(base + p * PAGE_SIZE);
        }
        PagingRow {
            policy,
            dirty_fraction: f,
            pages_total: rep.pages_total,
            pages_written: written,
            pages_read_back: m.kernel().swap().reads() - before_reads,
            faults: m.kernel().stats().shadow_faults_serviced - before_faults,
        }
    }

    [PagingPolicy::PerBasePage, PagingPolicy::WholeSuperpage]
        .into_iter()
        .flat_map(|policy| dirty_fractions.iter().map(move |&f| one(policy, f)))
        .collect()
}

/// Result of the §2.4 allocator comparison.
#[derive(Debug, Clone)]
pub struct AllocatorReport {
    /// 4 MB regions obtainable by the *bucket* allocator after the 16 KB
    /// churn (limited to its static 4 MB class).
    pub bucket_4m_after_churn: u64,
    /// 4 MB regions obtainable by the *buddy* allocator after the same
    /// churn (freed 16 KB regions recombine).
    pub buddy_4m_after_churn: u64,
    /// Static capacity of the bucket 4 MB class, for reference.
    pub bucket_4m_static: u64,
}

/// §2.4: buckets cannot move freed space between size classes; a buddy
/// system can. Both allocators suffer the same churn — consume every
/// 16 KB region, free them all — and are then asked for 4 MB regions.
#[must_use]
pub fn allocator_ablation() -> AllocatorReport {
    let range = mtlb_mmc::ShadowRange::paper_default();
    let partition = BucketPartition::paper_default();

    let mut bucket = BucketAllocator::new(range, &partition);
    let churn = |a: &mut dyn ShadowAllocator| {
        let mut regions = Vec::new();
        while let Some(r) = a.alloc(PageSize::Size16K) {
            regions.push(r);
        }
        for r in regions {
            a.free(r, PageSize::Size16K);
        }
        let mut got = 0;
        while a.alloc(PageSize::Size4M).is_some() {
            got += 1;
        }
        got
    };
    let bucket_static = bucket.available(PageSize::Size4M);
    let bucket_4m = churn(&mut bucket);

    let mut buddy = BuddyAllocator::new(range);
    let buddy_4m = churn(&mut buddy);

    AllocatorReport {
        bucket_4m_after_churn: bucket_4m,
        buddy_4m_after_churn: buddy_4m,
        bucket_4m_static: bucket_static,
    }
}

/// §3.4's note that writing updated reference/dirty bits back to the
/// mapping table "should have a negligible effect on performance":
/// em3d cycles with and without the charge.
#[must_use]
pub fn bit_writeback_ablation(runner: &Runner, scale: Scale) -> (u64, u64) {
    let mut off = MachineConfig::paper_mtlb(64);
    let mut on = off.clone();
    off.mmc.mtlb.as_mut().expect("mtlb").charge_bit_writeback = false;
    on.mmc.mtlb.as_mut().expect("mtlb").charge_bit_writeback = true;
    let results = runner.run(&[
        JobSpec::new("ablation/bit-writeback-off", "em3d", scale, off),
        JobSpec::new("ablation/bit-writeback-on", "em3d", scale, on),
    ]);
    assert_verified(&results);
    (
        results[0].report.total_cycles.get(),
        results[1].report.total_cycles.get(),
    )
}

/// The §1 premise: shadow superpages make physical fragmentation free.
/// Runs radix on the MTLB machine with sequentially-allocated frames
/// (a fresh-boot machine, the conventional-superpage best case) and with
/// deliberately scrambled frames (a long-running machine, impossible for
/// conventional superpages); returns the two cycle counts, which should
/// be nearly identical.
#[must_use]
pub fn fragmentation_ablation(runner: &Runner, scale: Scale) -> (u64, u64) {
    let mut seq = MachineConfig::paper_mtlb(64);
    seq.kernel.frame_order = FrameOrder::Sequential;
    let mut scrambled = MachineConfig::paper_mtlb(64);
    scrambled.kernel.frame_order = FrameOrder::Scrambled { seed: 0xfa15e };
    let results = runner.run(&[
        JobSpec::new("ablation/frames-sequential", "radix", scale, seq),
        JobSpec::new("ablation/frames-scrambled", "radix", scale, scrambled),
    ]);
    assert_verified(&results);
    let (r1, r2) = (&results[0], &results[1]);
    assert_eq!(
        r1.outcome.checksum, r2.outcome.checksum,
        "frame order must not change results"
    );
    (r1.report.total_cycles.get(), r2.report.total_cycles.get())
}

/// One row of the multiprogramming experiment.
#[derive(Debug, Clone)]
pub struct MultiprogramRow {
    /// Machine label.
    pub machine: &'static str,
    /// Accesses between context switches.
    pub quantum: u64,
    /// Total cycles for the interleaved run.
    pub cycles: u64,
    /// TLB-miss fraction.
    pub tlb_fraction: f64,
}

/// Multiprogramming: two processes, each with a working set that fits
/// the 64-entry TLB (48 pages = 192 KB), time-slice on one CPU. Every
/// context switch purges the replaceable TLB entries, so at short quanta
/// the baseline re-takes ~48 misses per switch while the superpage
/// machine refills its whole working set with a single TLB miss — a
/// benefit of TLB reach the paper's single-process runs cannot show.
#[must_use]
pub fn multiprogramming(quanta: &[u64]) -> Vec<MultiprogramRow> {
    fn one(machine: &'static str, cfg: MachineConfig, quantum: u64) -> MultiprogramRow {
        let mut m = Machine::new(cfg);
        let pages = 48u64; // 192 KB per process: fits a 64-entry TLB
        let p1 = m.spawn_process();
        let bases = [
            Machine::process_heap_base(0),
            Machine::process_heap_base(p1),
        ];
        for (pid, base) in bases.iter().enumerate() {
            m.try_switch_process(pid).expect("pid was spawned");
            m.map_region(*base, pages * PAGE_SIZE, Prot::RW);
            m.remap(*base, pages * PAGE_SIZE);
        }
        m.reset_stats();
        let mut x = [1u64, 99];
        let total_accesses = 200_000u64;
        let mut done = 0u64;
        let mut pid = 0usize;
        while done < total_accesses {
            m.try_switch_process(pid).expect("pid was spawned");
            for _ in 0..quantum.min(total_accesses - done) {
                let xs = &mut x[pid];
                *xs = xs
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let page = (*xs >> 33) % pages;
                m.read::<u32>(bases[pid] + page * PAGE_SIZE);
                m.execute(8);
            }
            done += quantum.min(total_accesses - done);
            pid = 1 - pid;
        }
        let r = m.report();
        MultiprogramRow {
            machine,
            quantum,
            cycles: r.total_cycles.get(),
            tlb_fraction: r.tlb_miss_fraction(),
        }
    }

    [
        ("base 64", MachineConfig::paper_base(64)),
        ("64 + MTLB", MachineConfig::paper_mtlb(64)),
    ]
    .into_iter()
    .flat_map(|(machine, cfg)| quanta.iter().map(move |&q| one(machine, cfg.clone(), q)))
    .collect()
}

/// One row of the §5 online-promotion experiment.
#[derive(Debug, Clone)]
pub struct PromotionRow {
    /// Policy label.
    pub policy: &'static str,
    /// Total cycles for the walk.
    pub cycles: u64,
    /// Superpages in the address space at the end.
    pub superpages: u64,
    /// Of which created by the online policy.
    pub auto_promotions: u64,
}

/// §5 extension — online superpage promotion (Romer et al., adapted to
/// shadow promotion's copy-free cost): a random walk over 2 MB of mapped
/// memory that never calls `remap()`, on (a) the baseline, (b) a machine
/// whose program remapped explicitly, and (c) a machine whose kernel
/// promotes hot regions automatically.
#[must_use]
pub fn promotion() -> Vec<PromotionRow> {
    fn walk(m: &mut Machine, base: VirtAddr, pages: u64) {
        let mut x = 3u64;
        for _ in 0..pages * 400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m.read::<u32>(base + ((x >> 33) % pages) * PAGE_SIZE);
            m.execute(12);
        }
    }
    fn one(policy: &'static str, cfg: MachineConfig) -> PromotionRow {
        let pages = 512u64; // 2 MB
        let base = UserLayout::DATA_BASE;
        let mut m = Machine::new(cfg);
        m.map_region(base, pages * PAGE_SIZE, Prot::RW);
        // Count from here so the rows compare the *policies'* costs —
        // explicit remap and online promotion both pay their promotion
        // work inside the measured window.
        m.reset_stats();
        if policy == "explicit remap()" {
            m.remap(base, pages * PAGE_SIZE);
        }
        walk(&mut m, base, pages);
        PromotionRow {
            policy,
            cycles: m.cycles().get(),
            superpages: m.kernel().aspace().superpages().count() as u64,
            auto_promotions: m.kernel().stats().auto_promotions,
        }
    }

    [
        ("no superpages", MachineConfig::paper_base(64)),
        ("explicit remap()", MachineConfig::paper_mtlb(64)),
        ("online promotion", {
            let mut cfg = MachineConfig::paper_mtlb(64);
            cfg.kernel.promotion = Some(mtlb_os::PromotionConfig::default());
            cfg
        }),
    ]
    .into_iter()
    .map(|(policy, cfg)| one(policy, cfg))
    .collect()
}

/// Result of the §6 no-copy recoloring experiment (PIPT cache).
#[derive(Debug, Clone)]
pub struct RecoloringReport {
    /// Cycles for the ping-pong loop while the two hot pages conflict.
    pub conflict_cycles: u64,
    /// Cache miss rate during the conflict phase.
    pub conflict_miss_rate: f64,
    /// Cycles for the identical loop after recoloring one page.
    pub recolored_cycles: u64,
    /// Cache miss rate after recoloring.
    pub recolored_miss_rate: f64,
}

/// §6 extension — no-copy page recoloring: on a physically-indexed
/// cache, two hot pages whose frames share a color thrash; remapping one
/// of them to a shadow address of a different color fixes the conflict
/// without copying.
#[must_use]
pub fn recoloring() -> RecoloringReport {
    let mut cfg = MachineConfig::paper_mtlb(64);
    cfg.cache = CacheConfig::paper_default().with_indexing(CacheIndexing::Physical);
    // Sequential frames so page colors are predictable.
    cfg.kernel.frame_order = FrameOrder::Sequential;
    let mut m = Machine::new(cfg);
    let base = UserLayout::DATA_BASE;
    let colors = m.config().cache.page_colors();
    // Map colors+1 pages: with sequential frames, page 0 and page
    // `colors` receive frames of the same color.
    m.map_region(base, (colors + 1) * PAGE_SIZE, Prot::RW);
    let hot_a = base;
    let hot_b = base + colors * PAGE_SIZE;
    assert_eq!(
        m.page_color(hot_a.vpn()),
        m.page_color(hot_b.vpn()),
        "test setup: the two hot pages must conflict"
    );

    let ping_pong = |m: &mut Machine| {
        m.reset_stats();
        for i in 0..10_000u64 {
            let off = (i % 64) * 8;
            m.read::<u64>(hot_a + off);
            m.read::<u64>(hot_b + off);
            m.execute(10);
        }
        let r = m.report();
        (r.total_cycles.get(), 1.0 - r.cache.hit_rate())
    };

    let (conflict_cycles, conflict_miss_rate) = ping_pong(&mut m);
    // Recolor one of the combatants to the next color over.
    let new_color = (m.page_color(hot_b.vpn()) + 1) % colors;
    m.recolor_page(hot_b.vpn(), new_color);
    assert_ne!(m.page_color(hot_a.vpn()), m.page_color(hot_b.vpn()));
    let (recolored_cycles, recolored_miss_rate) = ping_pong(&mut m);

    RecoloringReport {
        conflict_cycles,
        conflict_miss_rate,
        recolored_cycles,
        recolored_miss_rate,
    }
}

/// Result of the §1-prediction experiment: the OLTP workload on the
/// usual machine pair.
#[derive(Debug, Clone)]
pub struct CommercialReport {
    /// Baseline (64-entry TLB, no MTLB) cycles.
    pub base_cycles: u64,
    /// MTLB (64-entry TLB + 128/2 MTLB) cycles.
    pub mtlb_cycles: u64,
    /// Baseline TLB-miss fraction.
    pub base_tlb_fraction: f64,
    /// MTLB speedup over the baseline.
    pub speedup: f64,
}

/// §1's closing prediction: applications with significantly larger
/// working sets (databases, commercial codes) should benefit even more.
/// Runs the ~26 MB OLTP workload on the 64-entry machines.
#[must_use]
pub fn commercial(runner: &Runner, scale: Scale) -> CommercialReport {
    let results = runner.run(&[
        JobSpec::new(
            "commercial/oltp/base64",
            "oltp",
            scale,
            MachineConfig::paper_base(64),
        ),
        JobSpec::new(
            "commercial/oltp/mtlb64",
            "oltp",
            scale,
            MachineConfig::paper_mtlb(64),
        ),
    ]);
    assert_verified(&results);
    let (b, m) = (&results[0], &results[1]);
    assert_eq!(b.outcome.checksum, m.outcome.checksum);
    CommercialReport {
        base_cycles: b.report.total_cycles.get(),
        mtlb_cycles: m.report.total_cycles.get(),
        base_tlb_fraction: b.report.tlb_miss_fraction(),
        speedup: b.report.total_cycles.get() as f64 / m.report.total_cycles.get() as f64,
    }
}

/// One row of the §4 all-shadow experiment.
#[derive(Debug, Clone)]
pub struct AllShadowRow {
    /// Configuration label.
    pub label: String,
    /// Total cycles for the workload.
    pub cycles: u64,
    /// Normalised to the conventional baseline.
    pub normalized: f64,
    /// MTLB hit rate (0 for the baseline).
    pub mtlb_hit_rate: f64,
}

/// §4 extension — machines with *no* free physical addresses can route
/// every virtual access through shadow memory. The MTLB then carries all
/// traffic of programs that never asked for superpages; the paper
/// predicts "it might be necessary to expand its size and/or
/// associativity … to maintain performance". Runs em3d (no
/// superpages anywhere; the worst cache behaviour, so the heaviest
/// MTLB load) on the conventional baseline and on all-shadow
/// machines with the default and an enlarged MTLB.
#[must_use]
pub fn all_shadow_sensitivity(runner: &Runner, scale: Scale) -> Vec<AllShadowRow> {
    let geometries = [
        ("all-shadow, 128-entry 2-way MTLB", 128, 2),
        ("all-shadow, 512-entry 4-way MTLB", 512, 4),
        ("all-shadow, 2048-entry 4-way MTLB", 2048, 4),
    ];
    let mut machines = vec![("base96", MachineConfig::paper_base(96))];
    for (label, entries, assoc) in geometries {
        let mut cfg = MachineConfig::paper_mtlb(96).with_mtlb_geometry(entries, assoc);
        cfg.kernel.all_shadow = true;
        cfg.kernel.use_superpages = false;
        machines.push((label, cfg));
    }
    let results = grid(runner, scale, "all-shadow", &["em3d"], &machines).remove(0);
    assert_verified(&results);
    let base_total = results[0].report.total_cycles.get();
    let mut rows = vec![AllShadowRow {
        label: "conventional (no MTLB)".to_string(),
        cycles: base_total,
        normalized: 1.0,
        mtlb_hit_rate: 0.0,
    }];
    for ((label, _, _), r) in geometries.into_iter().zip(&results[1..]) {
        rows.push(AllShadowRow {
            label: label.to_string(),
            cycles: r.report.total_cycles.get(),
            normalized: r.report.total_cycles.get() as f64 / base_total as f64,
            mtlb_hit_rate: r.report.mmc.mtlb_hit_rate(),
        });
    }
    rows
}

/// Result of the §6 stream-buffer experiment.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Sequential-sweep cycles without stream buffers.
    pub sweep_without: u64,
    /// Sequential-sweep cycles with four 4-deep buffers.
    pub sweep_with: u64,
    /// Stream-buffer hit rate during the sweep.
    pub sweep_hit_rate: f64,
    /// Random-walk cycles without buffers.
    pub random_without: u64,
    /// Random-walk cycles with buffers (should be ≈ equal: no streams).
    pub random_with: u64,
}

/// §6 extension — MMC stream buffers: a sequential sweep through a
/// shadow superpage streams from the buffers (despite the discontiguous
/// real frames behind it); random traffic gains nothing.
#[must_use]
pub fn stream_buffers() -> StreamReport {
    fn run(stream: bool, random: bool) -> (u64, f64) {
        let mut cfg = MachineConfig::paper_mtlb(64);
        cfg.mmc.stream_buffers = stream;
        let mut m = Machine::new(cfg);
        let base = UserLayout::DATA_BASE;
        let len = 4 << 20;
        m.map_region(base, len, Prot::RW);
        m.remap(base, len);
        m.reset_stats();
        let mut x = 9u64;
        for i in 0..(len / 32) {
            let off = if random {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 24) % (len / 32)) * 32
            } else {
                i * 32
            };
            m.read::<u32>(base + off / 4 * 4);
            m.execute(4);
        }
        let hits = {
            let s = m.mmc_stream_stats();
            s.hit_rate()
        };
        (m.cycles().get(), hits)
    }
    let (sweep_without, _) = run(false, false);
    let (sweep_with, sweep_hit_rate) = run(true, false);
    let (random_without, _) = run(false, true);
    let (random_with, _) = run(true, true);
    StreamReport {
        sweep_without,
        sweep_with,
        sweep_hit_rate,
        random_without,
        random_with,
    }
}

/// One cell of the §5 related-work table: a paper workload on one of
/// the machines [`subblock`] sets the complete-subblock TLB against.
#[derive(Debug, Clone)]
pub struct SubblockRow {
    /// Workload name.
    pub workload: &'static str,
    /// Machine: `cpu 64`, `cpu 128`, `subblock 64` or `64 + MTLB`.
    pub machine: &'static str,
    /// TLB misses (= software miss-handler invocations).
    pub tlb_misses: u64,
    /// Share of the runtime spent in the TLB miss handler.
    pub tlb_fraction: f64,
    /// Runtime normalised to the 96-entry conventional machine, as in
    /// Figure 3.
    pub normalized: f64,
}

/// §5 related work: Talluri & Hill's complete-subblock TLB (64 entries
/// of 16 subblocks, on 4 KB pages) against the conventional TLB at 64
/// and 128 entries and the paper's 64-entry TLB + MTLB, on the paper
/// workloads and the kernel's own miss handler. The subblock TLB maps
/// discontiguous frames too, but its reach is bounded by the frames an
/// on-processor entry can hold; the MTLB keeps the per-page mappings in
/// the memory controller instead. Every cell but the subblock one has
/// the `(workload, scale, config)` of a Figure 3 cell, so a runner that
/// already ran [`fig3`] serves it from its result cache.
#[must_use]
pub fn subblock(runner: &Runner, scale: Scale, workloads: &[&'static str]) -> Vec<SubblockRow> {
    let subblock64 = MachineConfig::paper_base(64).with_scheme(SchemeConfig::Subblock);
    let machines = [
        ("base96", MachineConfig::paper_base(96)),
        ("cpu 64", MachineConfig::paper_base(64)),
        ("cpu 128", MachineConfig::paper_base(128)),
        ("subblock 64", subblock64),
        ("64 + MTLB", MachineConfig::paper_mtlb(64)),
    ];
    let results = grid(runner, scale, "subblock", workloads, &machines);
    let mut rows = Vec::new();
    for (&workload, cells) in workloads.iter().zip(&results) {
        assert_verified(cells);
        let base = cells[0].report.total_cycles.get() as f64;
        for ((machine, _), r) in machines.iter().zip(cells).skip(1) {
            rows.push(SubblockRow {
                workload,
                machine,
                tlb_misses: r.report.tlb.misses,
                tlb_fraction: r.report.tlb_miss_fraction(),
                normalized: r.report.total_cycles.get() as f64 / base,
            });
        }
    }
    rows
}

/// One cell of the fig6 multi-core co-scheduling experiment: `instances`
/// copies of one workload sharing the bus, MMC and MTLB.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Workload name.
    pub workload: &'static str,
    /// Co-running instances (= cores).
    pub instances: usize,
    /// Single-instance cycles on the 1-core machine (the C1 baseline).
    pub baseline_cycles: u64,
    /// Total cycles for the co-scheduled run.
    pub corun_cycles: u64,
    /// `instances × baseline / corun` — 1.0 means the shared MTLB added
    /// no interference over running the instances back to back.
    pub efficiency: f64,
    /// Inter-processor TLB shootdowns delivered.
    pub shootdowns: u64,
    /// Cycles spent delivering them.
    pub shootdown_cycles: u64,
    /// Bus-arbitration (MTLB contention) stalls.
    pub contention_events: u64,
    /// Cycles those stalls cost.
    pub contention_cycles: u64,
    /// Shared-MTLB hit rate under the combined working sets.
    pub mtlb_hit_rate: f64,
    /// TLB-miss fraction of the co-run.
    pub tlb_fraction: f64,
    /// Full statistics snapshot of the co-run, for `--json-dir` export.
    pub report: RunReport,
}

/// The fig6 experiment: co-run 2/4/8 instances of each workload on a
/// multi-core machine sharing one bus, MMC and MTLB, and compare
/// against the single-core baseline. Per workload, one batch of
/// [`JobSpec`]s: `fig6/<w>/record`, the paper's 96-entry MTLB machine
/// (the C1 baseline — the same run as fig3's `tlb96+mtlb` cell, so the
/// runner's result cache may serve it), then one `fig6/<w>/x<n>`
/// [co-run](JobSpec::corun) per instance count, which runs the workload
/// live on core 0 and mirrors each op round-robin across the other
/// cores. Nothing is recorded: the `record` label names the baseline
/// job only because `benchmark/expected.json` keys its pins on it. Rows
/// are assembled in a fixed order, so the output is byte-identical at
/// every `--jobs` level.
#[must_use]
pub fn fig6(
    runner: &Runner,
    scale: Scale,
    instance_counts: &[usize],
    workloads: &[&'static str],
) -> Vec<Fig6Row> {
    let cfg = MachineConfig::paper_mtlb(96);
    let mut specs = Vec::new();
    for &name in workloads {
        let job = |m: String| JobSpec::new(format!("fig6/{name}/{m}"), name, scale, cfg.clone());
        specs.push(job("record".into()));
        for &n in instance_counts {
            specs.push(job(format!("x{n}")).corun(n));
        }
    }
    let results = runner.run(&specs);
    assert_verified(&results);

    let mut rows = Vec::new();
    for (&name, results) in workloads
        .iter()
        .zip(results.chunks(1 + instance_counts.len()))
    {
        let baseline = results[0].report.total_cycles.get();
        for (&n, r) in instance_counts.iter().zip(&results[1..]) {
            let report = r.report.clone();
            rows.push(Fig6Row {
                workload: name,
                instances: n,
                baseline_cycles: baseline,
                corun_cycles: report.total_cycles.get(),
                efficiency: (n as f64 * baseline as f64) / report.total_cycles.get() as f64,
                shootdowns: report.kernel.shootdowns,
                shootdown_cycles: report.kernel.shootdown_cycles.get(),
                contention_events: report.mtlb_contention_events,
                contention_cycles: report.mtlb_contention_cycles.get(),
                mtlb_hit_rate: report.mmc.mtlb_hit_rate(),
                tlb_fraction: report.tlb_miss_fraction(),
                report,
            });
        }
    }
    rows
}

/// One cell of the fig5 rival-scheme comparison: one translation front
/// end at one capacity, running one workload.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Workload name.
    pub workload: &'static str,
    /// Translation-scheme name (`cpu`, `mtlb`, `coalesced`, `split`).
    pub scheme: &'static str,
    /// Front-end entry count (the split scheme's is fixed by design).
    pub tlb_entries: usize,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Cycles in the software TLB miss handler.
    pub tlb_miss_cycles: u64,
    /// `tlb_miss_cycles / total_cycles`.
    pub tlb_fraction: f64,
    /// Front-end misses (= software miss-handler invocations).
    pub misses: u64,
    /// `misses / (hits + misses)`.
    pub miss_rate: f64,
    /// Runtime normalised to the 96-entry conventional-TLB base cell.
    pub normalized: f64,
    /// Full statistics snapshot of the run, for `--json-dir` export.
    pub report: RunReport,
}

/// The fig5 matrix columns for one size sweep: `(scheme, entries,
/// machine)`. Scheme pairing follows what each design needs from the
/// OS: the conventional TLB and the coalescing TLB run on 4 KB mappings
/// with no MTLB; the paper's machine and the split TLB run with shadow
/// superpages and the MTLB, where multi-page-size entries actually
/// occur. The coalescing TLB additionally gets a fresh-boot sequential
/// frame allocator — its premise is that the OS produces
/// physically-contiguous runs, which the default deliberately-scrambled
/// allocator (the paper's fragmented-memory model, see the
/// fragmentation ablation) never does; under fragmentation it
/// degenerates to the conventional TLB exactly.
fn fig5_cells(tlb_sizes: &[usize]) -> Vec<(&'static str, usize, MachineConfig)> {
    let coalesced = |e| {
        let mut cfg = MachineConfig::paper_base(e).with_scheme(SchemeConfig::Coalesced);
        cfg.kernel.frame_order = FrameOrder::Sequential;
        cfg
    };
    let mut cells = Vec::new();
    cells.extend(
        tlb_sizes
            .iter()
            .map(|&e| ("cpu", e, MachineConfig::paper_base(e))),
    );
    cells.extend(
        tlb_sizes
            .iter()
            .map(|&e| ("mtlb", e, MachineConfig::paper_mtlb(e))),
    );
    cells.extend(tlb_sizes.iter().map(|&e| ("coalesced", e, coalesced(e))));
    cells.push((
        "split",
        SchemeConfig::Split.build(0).capacity(),
        MachineConfig::paper_mtlb(96).with_scheme(SchemeConfig::Split),
    ));
    cells
}

/// The fig5 experiment: rival TLB-reach designs head-to-head on
/// identical address streams. The workloads are deterministic programs
/// whose op stream does not depend on the machine configuration
/// (`tests/stream_identity.rs` pins it), so every cell sees the stream
/// the `fig5/<w>/record` reference run on the paper's 96-entry MTLB
/// machine saw — and each cell's retired-op counts are checked against
/// the reference's as the runtime witness. References and cells are
/// [`JobSpec`]s: the runner's result cache serves the `mtlb`/96 cell
/// (the reference's configuration) and every cell a [`fig3`] sweep on
/// the same runner already ran. Every cell runs live and nothing is
/// recorded: the `record` label names the reference job only because
/// `benchmark/expected.json` keys its pins on it. Runtimes are
/// normalised per-workload to the 96-entry conventional (`cpu`) cell, or
/// the first `cpu` cell.
#[must_use]
pub fn fig5(
    runner: &Runner,
    scale: Scale,
    tlb_sizes: &[usize],
    workloads: &[&'static str],
) -> Vec<Fig5Row> {
    let reference = [("record", MachineConfig::paper_mtlb(96))];
    let references: Vec<JobResult> = grid(runner, scale, "fig5", workloads, &reference)
        .into_iter()
        .flatten()
        .collect();
    let cells = fig5_cells(tlb_sizes);
    let machines: Vec<_> = cells
        .iter()
        .map(|(scheme, entries, cfg)| (format!("{scheme}{entries}"), cfg.clone()))
        .collect();
    let results = grid(runner, scale, "fig5", workloads, &machines);
    assert_verified(references.iter().chain(results.iter().flatten()));

    let op_counts = |r: &RunReport| (r.instructions, r.loads, r.stores);
    let mut rows = Vec::new();
    for ((&name, reference), results) in workloads.iter().zip(&references).zip(&results) {
        let base_total = cells
            .iter()
            .zip(results)
            .filter(|((scheme, ..), _)| *scheme == "cpu")
            .min_by_key(|((_, entries, _), _)| *entries != 96)
            .map_or(1.0, |(_, r)| r.report.total_cycles.get() as f64);
        for (&(scheme, entries, _), r) in cells.iter().zip(results) {
            assert_eq!(
                op_counts(&r.report),
                op_counts(&reference.report),
                "{}: (instructions, loads, stores) differ from the reference \
                 run's — the op stream depended on the machine configuration",
                r.label
            );
            let report = &r.report;
            rows.push(Fig5Row {
                workload: name,
                scheme,
                tlb_entries: entries,
                total_cycles: report.total_cycles.get(),
                tlb_miss_cycles: report.buckets.tlb_miss.get(),
                tlb_fraction: report.tlb_miss_fraction(),
                misses: report.tlb.misses,
                miss_rate: report.tlb.miss_rate(),
                normalized: report.total_cycles.get() as f64 / base_total,
                report: report.clone(),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_matches_the_paper_exactly() {
        let rows = fig2();
        let expect = [
            (PageSize::Size16K, 1024u64, 16u64 << 20),
            (PageSize::Size64K, 256, 16 << 20),
            (PageSize::Size256K, 128, 32 << 20),
            (PageSize::Size1M, 64, 64 << 20),
            (PageSize::Size4M, 32, 128 << 20),
            (PageSize::Size16M, 16, 256 << 20),
        ];
        assert_eq!(rows.len(), expect.len());
        for (row, (size, count, extent)) in rows.iter().zip(expect) {
            assert_eq!(
                (row.size, row.count, row.extent_bytes),
                (size, count, extent)
            );
        }
    }

    #[test]
    fn fig3_small_run_shapes() {
        let rows = fig3(&Runner::with_jobs(2), Scale::Test, &[64], &["radix"]);
        assert_eq!(rows.len(), 2);
        let base = rows.iter().find(|r| !r.mtlb).unwrap();
        let mtlb = rows.iter().find(|r| r.mtlb).unwrap();
        assert!(base.verified && mtlb.verified);
        assert!(
            mtlb.tlb_fraction < base.tlb_fraction,
            "the MTLB must cut TLB miss time"
        );
    }

    #[test]
    fn fig5_small_run_shapes() {
        let rows = fig5(&Runner::with_jobs(2), Scale::Test, &[64, 96], &["radix"]);
        // 2 cpu + 2 mtlb + 2 coalesced + 1 split cells.
        assert_eq!(rows.len(), 7);
        let cell = |scheme: &str, entries: usize| {
            rows.iter()
                .find(|r| r.scheme == scheme && r.tlb_entries == entries)
                .expect("cell present")
        };
        // The cpu/96 cell is the normalization base.
        assert!((cell("cpu", 96).normalized - 1.0).abs() < 1e-12);
        // All schemes saw lookups and kept their counters sane.
        for r in &rows {
            assert!(r.total_cycles > 0);
            assert!(r.report.tlb_reach_bytes > 0);
            assert!((0.0..=1.0).contains(&r.miss_rate), "{r:?}");
        }
        // The split scheme's geometry is fixed regardless of the sweep.
        assert_eq!(cell("split", 104).scheme, "split");
        // Coalescing on a fresh-boot allocator cannot miss more often
        // than the conventional TLB at the same capacity.
        assert!(cell("coalesced", 64).misses <= cell("cpu", 64).misses);
        // The mtlb/96 cell is the paper machine: its report matches a
        // fresh run of `paper_mtlb(96)` bit-for-bit.
        let paper = JobSpec::new("paper", "radix", Scale::Test, MachineConfig::paper_mtlb(96));
        let paper = Runner::serial().run(&[paper]);
        assert_eq!(cell("mtlb", 96).report.to_json(), paper[0].report.to_json());
    }

    #[test]
    fn fig4_reference_row_is_first() {
        let rows = fig4(&Runner::serial(), Scale::Test, &[64], &[1, 2]);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].geometry.is_none());
        assert!((rows[0].normalized - 1.0).abs() < 1e-12);
        for r in &rows[1..] {
            assert!(r.added_delay >= 1.0, "the detect cycle is a floor");
            assert!(r.mtlb_hit_rate > 0.0);
        }
    }

    #[test]
    fn init_costs_land_in_paper_bands() {
        let c = init_costs(128);
        assert!(
            (1100.0..1800.0).contains(&c.flush_cycles_per_page),
            "flush {:.0}/page",
            c.flush_cycles_per_page
        );
        assert!(
            (9_000..14_000).contains(&c.copy_warm_page_cycles),
            "copy {}",
            c.copy_warm_page_cycles
        );
        assert!(c.remap_flush_cycles > c.remap_other_cycles);
    }

    #[test]
    fn paging_traffic_shapes() {
        let rows = paging(&[0.1]);
        let per = rows
            .iter()
            .find(|r| r.policy == PagingPolicy::PerBasePage)
            .unwrap();
        let whole = rows
            .iter()
            .find(|r| r.policy == PagingPolicy::WholeSuperpage)
            .unwrap();
        assert_eq!(per.pages_total, 256);
        // Per-base-page writes ≈ dirty pages; whole writes everything.
        assert!(per.pages_written <= 30 && per.pages_written >= 20);
        assert_eq!(whole.pages_written, 256);
        // Re-touch traffic: selective vs everything.
        assert!(per.pages_read_back <= 32);
        assert_eq!(whole.pages_read_back, 256);
        assert_eq!(whole.faults, 1, "one fault brings the whole superpage in");
    }

    #[test]
    fn allocator_ablation_shows_buddy_flexibility() {
        let r = allocator_ablation();
        assert_eq!(r.bucket_4m_after_churn, r.bucket_4m_static);
        assert!(
            r.buddy_4m_after_churn > r.bucket_4m_after_churn,
            "buddy reuses freed 16 KB space for large regions"
        );
    }

    #[test]
    fn recoloring_removes_conflict_misses() {
        let r = recoloring();
        assert!(r.conflict_miss_rate > 0.9, "ping-pong must thrash: {r:?}");
        assert!(r.recolored_miss_rate < 0.1, "recolor must fix it: {r:?}");
        assert!(r.recolored_cycles * 2 < r.conflict_cycles);
    }

    #[test]
    fn stream_buffers_help_sweeps_not_randoms() {
        let r = stream_buffers();
        assert!(r.sweep_with < r.sweep_without, "{r:?}");
        assert!(r.sweep_hit_rate > 0.8, "{r:?}");
        let ratio = r.random_with as f64 / r.random_without as f64;
        assert!(
            (0.98..1.05).contains(&ratio),
            "random traffic unchanged: {r:?}"
        );
    }

    #[test]
    fn multiprogramming_hurts_the_baseline_more_at_short_quanta() {
        let rows = multiprogramming(&[500, 20_000]);
        let get = |machine: &str, q: u64| {
            rows.iter()
                .find(|r| r.machine == machine && r.quantum == q)
                .expect("row")
                .cycles
        };
        // The MTLB machine wins at both quanta...
        assert!(get("64 + MTLB", 500) < get("base 64", 500));
        // ...and the baseline's short-quantum penalty (refilling hundreds
        // of 4 KB entries after every switch) exceeds the MTLB machine's.
        let base_penalty = get("base 64", 500) as f64 / get("base 64", 20_000) as f64;
        let mtlb_penalty = get("64 + MTLB", 500) as f64 / get("64 + MTLB", 20_000) as f64;
        assert!(base_penalty > mtlb_penalty, "{rows:?}");
    }

    #[test]
    fn online_promotion_approaches_explicit_remap() {
        let rows = promotion();
        let base = rows.iter().find(|r| r.policy == "no superpages").unwrap();
        let explicit = rows
            .iter()
            .find(|r| r.policy == "explicit remap()")
            .unwrap();
        let auto = rows
            .iter()
            .find(|r| r.policy == "online promotion")
            .unwrap();
        assert!(auto.auto_promotions > 0, "{rows:?}");
        assert!(
            auto.cycles < base.cycles,
            "promotion must beat the baseline"
        );
        // Within 25% of the explicit-remap machine (warmup misses cost).
        assert!(
            (auto.cycles as f64) < explicit.cycles as f64 * 1.25,
            "{rows:?}"
        );
    }

    #[test]
    fn commercial_workload_runs_and_agrees() {
        // At Test scale the 8 MB sbrk preallocation's remap flush
        // dominates the tiny run, so no speedup is asserted here (the
        // paper-scale win is recorded in EXPERIMENTS.md); `commercial`
        // itself asserts checksum equality across machines.
        let r = commercial(&Runner::serial(), Scale::Test);
        assert!(r.base_cycles > 0 && r.mtlb_cycles > 0);
        assert!(r.base_tlb_fraction > 0.0);
    }

    #[test]
    fn all_shadow_mode_works_and_bigger_mtlbs_recover() {
        let rows = all_shadow_sensitivity(&Runner::serial(), Scale::Test);
        assert_eq!(rows.len(), 4);
        // All-shadow traffic really hits the MTLB.
        assert!(rows[1].mtlb_hit_rate > 0.0);
        // A larger MTLB performs no worse than the default one.
        assert!(rows[3].cycles <= rows[1].cycles);
    }

    #[test]
    fn subblock_tlb_misses_less_than_the_conventional_tlb() {
        let rows = subblock(&Runner::with_jobs(2), Scale::Test, &WORKLOADS);
        assert_eq!(rows.len(), 4 * WORKLOADS.len());
        let misses = |machine: &str| -> u64 {
            let cells = rows.iter().filter(|r| r.machine == machine);
            cells.map(|r| r.tlb_misses).sum()
        };
        assert!(misses("subblock 64") < misses("cpu 64"), "{rows:?}");
    }

    #[test]
    fn fragmentation_is_free_under_shadow_superpages() {
        let (seq, scrambled) = fragmentation_ablation(&Runner::serial(), Scale::Test);
        let ratio = scrambled as f64 / seq as f64;
        assert!(
            (0.99..1.01).contains(&ratio),
            "scrambled frames cost {ratio:.4}x"
        );
    }
}
