//! Machine-level conformance of the rival translation schemes.
//!
//! The scheme-local contract is pinned in `mtlb-schemes`' own
//! conformance suite; these tests drive each rival through the whole
//! machine instead:
//!
//! * a representative run under every scheme passes the debug-build
//!   cycle-attribution audit, which reconciles the scheme-specific fill
//!   counters (`CoalescedStats`, `SplitStats`) against the shared
//!   `TlbStats` on every core;
//! * the host fast paths (access memos, batched streams) are
//!   observably absent under the rivals too — the
//!   generation-counter contract is what makes the memo layer sound
//!   per scheme, so this differential is the end-to-end proof;
//! * multi-core TLB shootdowns flow through the trait's purge path:
//!   every kernel service that re-points a translation on one core
//!   invalidates the other core's entries, and its own micro-ITLB,
//!   whatever scheme both cores run, and the services the design exempts
//!   (fresh mappings, §2.5's per-base-page paging) leave them valid.

use std::convert::identity;

use mtlb_os::{PagingPolicy, PromotionConfig};
use mtlb_schemes::SchemeConfig;
use mtlb_sim::{Machine, MachineConfig};
use mtlb_types::{PageSize, Prot, VirtAddr, PAGE_SIZE};

const BASE: VirtAddr = VirtAddr::new(0x1000_0000);
const REGION: u64 = 128 * 1024;

const RIVALS: [SchemeConfig; 2] = [SchemeConfig::Coalesced, SchemeConfig::Split];

/// A deterministic mixed workload touching every machine subsystem the
/// schemes interact with: scalar access, instruction fetch, batched
/// streams, superpage remap + demotion, and a context switch round
/// trip.
fn drive(m: &mut Machine) {
    m.map_region(BASE, REGION, Prot::RW);
    m.load_program(16 * 4096, false);
    for i in 0..32u64 {
        m.try_write::<u32>(BASE + i * 4096, i as u32)
            .expect("mapped");
    }
    m.try_execute(200).expect("program loaded");
    m.try_stream_write_u32(BASE, 4096, 2, |i| i as u32)
        .expect("mapped");
    let mut sum = 0u64;
    m.try_stream_read_u32(BASE, 4096, 2, |_, v| sum += u64::from(v))
        .expect("mapped");
    m.remap(BASE, REGION);
    for i in 0..32u64 {
        // Pages 0..4 were overwritten by the stream; beyond that the
        // scalar writes must read back intact through the superpage.
        let v = m.try_read::<u32>(BASE + i * 4096).expect("mapped");
        if i >= 4 {
            assert_eq!(v, i as u32);
        }
    }
    m.demote_superpage(BASE.vpn());
    let pid = m.spawn_process();
    m.try_switch_process(pid).expect("spawned");
    m.try_switch_process(0).expect("pid 0 exists");
    m.try_read::<u32>(BASE + 8)
        .expect("mapped again after switch back");
}

/// Every scheme completes the representative run and produces a report
/// — in debug builds this passes the full cycle-attribution audit,
/// including the per-scheme fill-class reconciliation.
#[test]
fn every_scheme_survives_the_attribution_audit() {
    for scheme in [
        SchemeConfig::Cpu,
        SchemeConfig::Coalesced,
        SchemeConfig::Split,
    ] {
        let mut m = Machine::new(MachineConfig::paper_mtlb(64).with_scheme(scheme));
        assert_eq!(m.scheme_name(), scheme.name());
        drive(&mut m);
        let r = m.report();
        assert!(r.total_cycles.get() > 0, "{}: run happened", scheme.name());
        assert!(r.tlb.fills > 0, "{}: misses were served", scheme.name());
        assert!(
            m.tlb_reach_bytes() > 0,
            "{}: entries resident",
            scheme.name()
        );
    }
}

/// The fast paths must be observably absent under the rivals exactly as
/// they are under the paper TLB: same report, same memory image.
#[test]
fn fast_paths_are_observably_absent_under_rival_schemes() {
    for scheme in RIVALS {
        let cfg = MachineConfig::paper_mtlb(64).with_scheme(scheme);
        let mut fast = Machine::new(cfg.clone());
        fast.set_fast_paths(true);
        let mut slow = Machine::new(cfg);
        slow.set_fast_paths(false);
        drive(&mut fast);
        drive(&mut slow);
        assert_eq!(
            fast.report().to_json(),
            slow.report().to_json(),
            "{}: fast paths changed observable state",
            scheme.name()
        );
        assert_eq!(
            fast.guest_memory().content_digest(),
            slow.guest_memory().content_digest(),
            "{}: fast paths changed guest memory",
            scheme.name()
        );
        // Non-vacuous: the fast machine really took fast paths.
        assert!(fast.report().tlb.hits > 0);
    }
}

/// What core 0 writes to [`WARM`] before the service.
const MINE: u32 = 0x5eed_c0de;

/// What every service row has core 1 write for core 0 to read.
const THEIRS: u32 = 0x0ddb_a11e;

/// The page core 0 writes to before the service runs on core 1.
const WARM: VirtAddr = VirtAddr::new(BASE.get() + 2 * PAGE_SIZE);

/// One kernel service, run on core 1 of a two-core machine while core 0
/// holds a translation of [`WARM`] in its TLB, a dirty line of it in its
/// L1 and its text page in its micro-ITLB, and core 1 holds its own text
/// page in its own micro-ITLB.
struct Service {
    name: &'static str,
    /// Whether the service must deliver a shootdown to core 0.
    shoots: bool,
    config: fn(MachineConfig) -> MachineConfig,
    /// Runs on core 0 before it writes [`WARM`]; maps the region.
    prepare: fn(&mut Machine),
    /// Runs on core 1; leaves [`THEIRS`] at the returned address, which
    /// core 0 then reads.
    run: fn(&mut Machine) -> VirtAddr,
}

fn map(m: &mut Machine) {
    m.map_region(BASE, 64 * 1024, Prot::RW);
}

fn map_and_remap(m: &mut Machine) {
    map(m);
    m.remap(BASE, 64 * 1024);
}

/// Writes [`THEIRS`] into `WARM`'s page, next to core 0's line.
fn write_value(m: &mut Machine) -> VirtAddr {
    let probe = WARM + 64;
    m.try_write::<u32>(probe, THEIRS).expect("mapped");
    probe
}

/// Every kernel service that re-points a translation, and the ones the
/// design exempts from shooting down.
const SERVICES: [Service; 10] = [
    Service {
        name: "remap",
        shoots: true,
        config: identity,
        prepare: map,
        run: |m| {
            let probe = write_value(m);
            m.remap(BASE, 64 * 1024);
            probe
        },
    },
    Service {
        name: "promoting sbrk",
        shoots: true,
        config: identity,
        prepare: map,
        run: |m| {
            let heap = m.sbrk(64 * 1024);
            assert!(m.kernel().aspace().superpage_of(heap.vpn()).is_some());
            let probe = heap + 64;
            m.try_write::<u32>(probe, THEIRS).expect("heap is mapped");
            probe
        },
    },
    Service {
        name: "auto-promotion on a TLB miss",
        shoots: true,
        // Core 0's miss on WARM is the first of two; core 1's is the
        // second and promotes the region inside the miss handler.
        config: |mut cfg| {
            cfg.kernel.promotion = Some(PromotionConfig {
                miss_threshold: 2,
                region: PageSize::Size64K,
            });
            cfg
        },
        prepare: map,
        run: |m| {
            let probe = write_value(m);
            assert_eq!(m.kernel().stats().auto_promotions, 1);
            probe
        },
    },
    Service {
        name: "whole-superpage swap_out_superpage",
        shoots: true,
        config: |mut cfg| {
            cfg.kernel.paging = PagingPolicy::WholeSuperpage;
            cfg
        },
        prepare: map_and_remap,
        run: |m| {
            let probe = write_value(m);
            m.swap_out_superpage(WARM.vpn());
            probe
        },
    },
    Service {
        name: "recolor_page",
        shoots: true,
        config: identity,
        prepare: map,
        run: |m| {
            let probe = write_value(m);
            let colors = m.config().cache.page_colors();
            let color = (m.page_color(WARM.vpn()) + 1) % colors;
            m.recolor_page(WARM.vpn(), color);
            probe
        },
    },
    Service {
        name: "demote_superpage",
        shoots: true,
        config: identity,
        prepare: map_and_remap,
        run: |m| {
            let probe = write_value(m);
            m.demote_superpage(WARM.vpn());
            probe
        },
    },
    Service {
        name: "try_switch_process",
        shoots: true,
        config: identity,
        prepare: map,
        run: |m| {
            let probe = write_value(m);
            let pid = m.spawn_process();
            m.try_switch_process(pid).expect("spawned");
            assert_eq!(m.kernel().current_process(), pid);
            probe
        },
    },
    Service {
        name: "map_region (fresh mappings)",
        shoots: false,
        config: identity,
        prepare: map,
        run: |m| {
            let probe = write_value(m);
            m.map_region(BASE + 64 * 1024, 64 * 1024, Prot::RW);
            probe
        },
    },
    Service {
        name: "per-base-page swap-out (§2.5)",
        shoots: false,
        config: identity,
        prepare: map_and_remap,
        run: |m| {
            let probe = write_value(m);
            m.swap_out_superpage(WARM.vpn());
            probe
        },
    },
    Service {
        name: "shadow-fault swap-in (§2.5)",
        shoots: false,
        config: identity,
        // Core 0 pages the superpage out; its write to WARM then faults
        // that one page back in, so the page after it is still out when
        // core 1 touches it.
        prepare: |m| {
            map_and_remap(m);
            m.swap_out_superpage(BASE.vpn());
        },
        run: |m| {
            let probe = WARM + PAGE_SIZE + 64;
            let faults = m.kernel().stats().shadow_faults_serviced;
            m.try_write::<u32>(probe, THEIRS).expect("mapped");
            assert_eq!(m.kernel().stats().shadow_faults_serviced, faults + 1);
            probe
        },
    },
];

/// Shootdown completeness, service by service, under every scheme: each
/// service that re-points a translation delivers a shootdown through
/// `TranslationScheme::purge_*` and the micro-ITLB purge, so core 0
/// re-misses in both; fresh mappings and §2.5's per-base-page paging
/// deliver none, and core 0's superpage entry survives them. Either way
/// core 0 reads back what it wrote and what core 1 wrote: the service's
/// page flushes reached core 0's L1 too. Core 1, which ran the service,
/// re-misses in its own micro-ITLB exactly when the service shot down:
/// the local purge is the remote one.
#[test]
fn shootdowns_invalidate_remote_cores_under_every_scheme() {
    for scheme in [
        SchemeConfig::Cpu,
        SchemeConfig::Coalesced,
        SchemeConfig::Split,
    ] {
        for service in &SERVICES {
            let label = format!("{} / {}", scheme.name(), service.name);
            let cfg = MachineConfig::paper_mtlb(64)
                .with_cores(2)
                .with_scheme(scheme);
            let mut m = Machine::new((service.config)(cfg));
            (service.prepare)(&mut m);
            m.try_write::<u32>(WARM, MINE).expect("mapped");
            m.try_execute(1).expect("boot text page");
            let core0 = m.per_core_stats()[0];
            let before = m.report().kernel;

            m.set_active_core(1);
            m.try_execute(1).expect("boot text page");
            let core1 = m.per_core_stats()[1];
            let probe = (service.run)(&mut m);
            let after = m.report().kernel;
            let delivered = after.shootdowns - before.shootdowns;
            m.try_execute(1).expect("boot text page");
            let local_itlb_remiss = m.per_core_stats()[1].itlb_misses > core1.itlb_misses;
            assert_eq!(
                local_itlb_remiss, service.shoots,
                "{label}: core 1's micro-ITLB purge disagrees with the shootdown it sent"
            );

            m.set_active_core(0);
            assert_eq!(m.kernel().current_process(), 0, "{label}");
            assert_eq!(m.try_read::<u32>(WARM).expect("mapped"), MINE, "{label}");
            assert_eq!(m.try_read::<u32>(probe).expect("mapped"), THEIRS, "{label}");
            m.try_execute(1).expect("boot text page");
            let now = m.per_core_stats()[0];
            let tlb_remiss = now.tlb.misses > core0.tlb.misses;
            let itlb_remiss = now.itlb_misses > core0.itlb_misses;
            if service.shoots {
                assert!(delivered > 0, "{label}: no shootdown delivered");
                assert!(
                    after.shootdown_cycles > before.shootdown_cycles,
                    "{label}: delivery was not charged"
                );
                assert!(tlb_remiss, "{label}: core 0 kept a stale TLB entry");
                assert!(itlb_remiss, "{label}: core 0 kept a stale micro-ITLB entry");
            } else {
                assert_eq!(delivered, 0, "{label}: exempt service shot down");
                assert!(!tlb_remiss, "{label}: core 0 lost its TLB entry");
                assert!(!itlb_remiss, "{label}: core 0 lost its micro-ITLB entry");
            }
        }
    }
}
