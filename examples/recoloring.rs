//! No-copy page recoloring (paper §6 / Bershad et al.): on a
//! physically-indexed cache, fix a conflict between two hot pages by
//! giving one of them a shadow address of a different color — without
//! copying a byte of data.
//!
//! ```text
//! cargo run --release --example recoloring
//! ```

use mtlb_cache::{CacheConfig, CacheIndexing};
use mtlb_mem::FrameOrder;
use mtlb_sim::{Machine, MachineConfig};
use mtlb_types::{Prot, VirtAddr, PAGE_SIZE};
use mtlb_workloads::AccessExt;

fn main() {
    // A machine with a physically-indexed 512 KB cache and predictable
    // (sequential) frame allocation.
    let mut cfg = MachineConfig::paper_mtlb(64);
    cfg.cache = CacheConfig::paper_default().with_indexing(CacheIndexing::Physical);
    cfg.kernel.frame_order = FrameOrder::Sequential;
    let mut m = Machine::new(cfg);

    let base = VirtAddr::new(0x1000_0000);
    let colors = m.config().cache.page_colors();
    m.map_region(base, (colors + 1) * PAGE_SIZE, Prot::RW);

    // With sequential frames, pages 0 and `colors` land on the same
    // cache color: every alternating access evicts the other's lines.
    let a = base;
    let b = base + colors * PAGE_SIZE;
    println!(
        "page A color = {}, page B color = {} (cache has {} colors)",
        m.page_color(a.vpn()),
        m.page_color(b.vpn()),
        colors,
    );

    let ping_pong = |m: &mut Machine| {
        m.reset_stats();
        for i in 0..20_000u64 {
            let off = (i % 64) * 8;
            m.read::<u64>(a + off);
            m.read::<u64>(b + off);
            m.execute(10);
        }
        let r = m.report();
        (r.total_cycles.get(), 1.0 - r.cache.hit_rate())
    };

    let (before_cycles, before_miss) = ping_pong(&mut m);
    println!(
        "conflicting:  {before_cycles:>10} cycles, {:.1}% cache misses",
        before_miss * 100.0
    );

    // Recolor page B: its real frame is untouched; only its *shadow*
    // address changes, and with it its cache placement.
    let new_color = (m.page_color(b.vpn()) + 1) % colors;
    m.recolor_page(b.vpn(), new_color);
    println!(
        "recolored page B to color {} (no bytes copied)",
        m.page_color(b.vpn())
    );

    let (after_cycles, after_miss) = ping_pong(&mut m);
    println!(
        "recolored:    {after_cycles:>10} cycles, {:.1}% cache misses",
        after_miss * 100.0
    );
    println!(
        "speedup: {:.1}x",
        before_cycles as f64 / after_cycles as f64
    );
}
