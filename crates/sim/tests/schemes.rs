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
//!   a demotion on one core invalidates the other core's entries
//!   whatever scheme both cores run.

use mtlb_schemes::SchemeConfig;
use mtlb_sim::{Machine, MachineConfig};
use mtlb_types::{Prot, VirtAddr};

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
        m.try_write_u32(BASE + i * 4096, i as u32).expect("mapped");
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
        let v = m.try_read_u32(BASE + i * 4096).expect("mapped");
        if i >= 4 {
            assert_eq!(v, i as u32);
        }
    }
    m.demote_superpage(BASE.vpn());
    let pid = m.spawn_process();
    m.try_switch_process(pid).expect("spawned");
    m.try_switch_process(0).expect("pid 0 exists");
    m.try_read_u32(BASE + 8)
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

/// Shootdowns reach remote cores through `TranslationScheme::purge_*`
/// whatever the scheme: a demotion on core 1 must invalidate core 0's
/// entry for the superpage.
#[test]
fn shootdowns_invalidate_remote_cores_under_every_scheme() {
    for scheme in [
        SchemeConfig::Cpu,
        SchemeConfig::Coalesced,
        SchemeConfig::Split,
    ] {
        let mut m = Machine::new(
            MachineConfig::paper_mtlb(64)
                .with_cores(2)
                .with_scheme(scheme),
        );
        m.map_region(BASE, 64 * 1024, Prot::RW);
        m.remap(BASE, 64 * 1024);
        // Warm both cores on the superpage.
        m.try_read_u32(BASE + 4).expect("mapped");
        m.set_active_core(1);
        m.try_read_u32(BASE + 4).expect("mapped");
        let shootdowns_before = m.report().kernel.shootdowns;
        let purges_before = m.per_core_stats()[0].tlb.purges;
        m.demote_superpage(BASE.vpn());
        let r = m.report();
        assert!(
            r.kernel.shootdowns > shootdowns_before,
            "{}: demotion from core 1 raises a shootdown",
            scheme.name()
        );
        assert!(
            m.per_core_stats()[0].tlb.purges > purges_before,
            "{}: remote core's entry was purged through the trait",
            scheme.name()
        );
        // The remote core re-misses and still reads coherent data.
        m.set_active_core(0);
        let misses_before = m.per_core_stats()[0].tlb.misses;
        m.try_read_u32(BASE + 4).expect("mapped");
        assert!(
            m.per_core_stats()[0].tlb.misses > misses_before,
            "{}: stale entry is gone",
            scheme.name()
        );
    }
}
