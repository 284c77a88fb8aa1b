//! `kernel_churn`: a benchmark-owned driver that mutates mappings as
//! fast as it looks them up.
//!
//! One `paper_mtlb(64)` machine, four processes, each with an 8 MB data
//! region (mapped page by page, so the driver knows every page's state)
//! and an `sbrk` heap (whose first call maps the kernel's 8 MB initial
//! chunk). Each round switches to the next process round-robin, touches
//! 256 random words (reads and writes 1:1) and performs one mapping
//! mutation. Every kernel service bumps the machine's memo generations
//! and purges TLB / MTLB / cache state, so a host-side cache that makes
//! the paper workloads faster and invalidation dearer shows up here.
//!
//! The script is a pure function of `--seed`; the machine receives only
//! the generated calls. Every read is checked against a host-side
//! VA→u32 oracle, which is what makes a remap / swap / demote / recolor
//! interleaving that loses guest data a benchmark failure.
//!
//! The script stays inside the machine's limits (hashed page table,
//! 16 KB shadow bucket, DRAM): resource exhaustion aborts the process
//! today and is not this benchmark's subject.
//!
//! It also keeps paging and demotion apart. The kernel's swap device
//! keys its slots by shadow page index and never drops one, so a
//! superpage that was swapped out, demoted, and whose shadow region was
//! then reused by another superpage hands the new tenant the old
//! tenant's swap copy on its first clean eviction: guest data is lost.
//! (Found by this driver's oracle; see `README.md`, "Known simulator
//! defect".) Each data region is therefore split: the last eighth is
//! the *paging area*, promoted once at set-up into 64 KB superpages
//! that are swapped out and faulted back in but never demoted; the
//! rest is the *promotion area*, remapped, demoted and recolored but
//! never swapped.

use std::time::Instant;

use mtlb_sim::{Machine, MachineConfig, RunReport};
use mtlb_types::{Prot, VirtAddr, PAGE_SIZE};
use mtlb_workloads::Scale;

use crate::contention;
use crate::units::{counters_digest, fnv1a, sim_instructions, Unit, UnitKind};

pub const PROCESSES: usize = 4;
/// Pages in each process's data region (8 MB).
const DATA_PAGES: u64 = 2048;
/// Words touched per round.
pub const BURST: u64 = 256;
const SBRK_INCREMENT: u64 = 64 * 1024;
/// How far `sbrk` may grow a heap, in words: the kernel's 8 MB initial
/// chunk plus one 2 MB later chunk, which keeps the four heaps inside
/// the hashed page table with room to spare.
const HEAP_WORDS_MAX: u64 = 160 * SBRK_INCREMENT / 4;
/// Recolored pages are never demoted (the bucket allocator has no 4 KB
/// class to free them into), so their number is capped; together with
/// the 16 KB-superpage ceiling this keeps the 1024-region 16 KB shadow
/// bucket from running dry, which `recolor_page` cannot survive.
const RECOLORS_MAX: usize = 256;
const LIVE_16K_MAX: usize = 536;
/// Pages `[0, PROMOTION_PAGES)` of a data region are the promotion
/// area, the rest is the paging area.
const PROMOTION_PAGES: u64 = 1792;
const PAGING_SUPERPAGE_PAGES: u64 = 16;
/// The data region sits 1 GB above the heap base in each process's
/// private 4 GB window, clear of the sbrk heap and the stack.
const DATA_OFFSET: u64 = 0x4000_0000;
const WORDS_PER_PAGE: u64 = PAGE_SIZE / 4;

/// How much work one rep does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    pub rounds: usize,
    /// The rounds are cut into this many units, each timed and pinned
    /// on its own, so best-of-R works within the workload too.
    pub segments: usize,
}

impl Params {
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Params {
                rounds: 15_000,
                segments: 16,
            },
            Scale::Test => Params {
                rounds: 1_200,
                segments: 4,
            },
        }
    }
}

/// The kernel services a round can end with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    Remap,
    SwapOut,
    Demote,
    Recolor,
    PageBits,
    Sbrk,
}

/// What the hooks time: the context switch, the touch burst, and each
/// mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Switch,
    Burst,
    Service(Mutation),
}

impl Phase {
    pub const ALL: [Phase; 8] = [
        Phase::Switch,
        Phase::Burst,
        Phase::Service(Mutation::Remap),
        Phase::Service(Mutation::SwapOut),
        Phase::Service(Mutation::Demote),
        Phase::Service(Mutation::Recolor),
        Phase::Service(Mutation::PageBits),
        Phase::Service(Mutation::Sbrk),
    ];

    pub fn index(self) -> usize {
        Phase::ALL
            .iter()
            .position(|p| *p == self)
            .expect("ALL lists every phase")
    }
}

/// One round of the script: raw draws, resolved against the driver's
/// model of the mapping state when the round runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Round {
    burst_seed: u64,
    mutation: Mutation,
    a: u64,
    b: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    pub rounds: Vec<Round>,
    /// FNV-1a over every field of every round.
    pub hash: u64,
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Generates the script for `seed`. The generator is the benchmark's
/// own (not the vendored `rand`), so pins survive changes to `vendor/`.
///
/// Mutations are dealt from a shuffled deck, one deck per twelve
/// rounds, so every seed performs the same number of each service and
/// seeds differ in order and operands only: drawn independently, the
/// swap-out count alone moved simulated cycles by ±4 % between seeds.
pub fn generate(seed: u64, rounds: usize) -> Script {
    // Remaps are dealt most often: they are what rebuilds the
    // superpages the other services consume.
    const DECK: [Mutation; 12] = [
        Mutation::Remap,
        Mutation::Remap,
        Mutation::Remap,
        Mutation::Remap,
        Mutation::SwapOut,
        Mutation::Demote,
        Mutation::Demote,
        Mutation::Demote,
        Mutation::Recolor,
        Mutation::PageBits,
        Mutation::PageBits,
        Mutation::Sbrk,
    ];
    let mut rng = SplitMix64(seed);
    let mut deck = DECK;
    let mut hash_input = Vec::with_capacity(rounds * 25);
    let rounds = (0..rounds)
        .map(|i| {
            let card = i % DECK.len();
            if card == 0 {
                for top in (1..deck.len()).rev() {
                    deck.swap(top, (rng.next() % (top as u64 + 1)) as usize);
                }
            }
            let round = Round {
                burst_seed: rng.next() | 1,
                mutation: deck[card],
                a: rng.next(),
                b: rng.next(),
            };
            hash_input.extend_from_slice(&round.burst_seed.to_le_bytes());
            hash_input.push(round.mutation as u8);
            hash_input.extend_from_slice(&round.a.to_le_bytes());
            hash_input.extend_from_slice(&round.b.to_le_bytes());
            round
        })
        .collect();
    Script {
        rounds,
        hash: fnv1a(&hash_input),
    }
}

/// Receives the duration of each phase. The untraced pass uses
/// [`NoHook`], which compiles to nothing.
pub trait Hook {
    fn time<T>(&mut self, phase: Phase, work: impl FnOnce() -> T) -> T;
}

pub struct NoHook;

impl Hook for NoHook {
    #[inline(always)]
    fn time<T>(&mut self, _phase: Phase, work: impl FnOnce() -> T) -> T {
        work()
    }
}

/// Collects every phase's durations, for the traced pass.
#[derive(Default)]
pub struct PhaseTimes {
    /// Nanoseconds of each call, indexed by [`Phase::index`].
    pub samples: [Vec<f64>; 8],
}

impl Hook for PhaseTimes {
    fn time<T>(&mut self, phase: Phase, work: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = work();
        self.samples[phase.index()].push(start.elapsed().as_nanos() as f64);
        value
    }
}

/// The driver's model of one process.
struct Proc {
    data: VirtAddr,
    heap: VirtAddr,
    heap_words: u64,
    /// Per data page: still an ordinary 4 KB mapping (neither inside a
    /// superpage nor recolored), so `recolor_page` may take it.
    real: Vec<bool>,
    /// Promotion-area superpages: `(first data page, base pages)`.
    supers: Vec<(u64, u64)>,
    /// First data page of each paging-area superpage.
    paged: Vec<u64>,
    data_oracle: Vec<u32>,
    heap_oracle: Vec<u32>,
}

/// A machine with four processes and the driver's model of them.
pub struct Churn {
    machine: Machine,
    procs: Vec<Proc>,
    live_16k: usize,
    recolored: usize,
    colors: u64,
    /// Reads that disagreed with the oracle.
    pub oracle_mismatches: u64,
}

impl Churn {
    /// Boots the machine, spawns the processes, maps their data regions
    /// and promotes the paging areas.
    pub fn build() -> Self {
        let mut machine = Machine::new(MachineConfig::paper_mtlb(64));
        let colors = machine.config().cache.page_colors();
        let mut procs = Vec::with_capacity(PROCESSES);
        for pid in 0..PROCESSES {
            if pid > 0 {
                let spawned = machine.spawn_process();
                assert_eq!(spawned, pid, "pids are handed out in order");
            }
            machine
                .try_switch_process(pid)
                .expect("the pid was just spawned");
            let heap = Machine::process_heap_base(pid);
            let data = heap + DATA_OFFSET;
            machine.map_region(data, DATA_PAGES * PAGE_SIZE, Prot::RW);
            let mut real = vec![true; DATA_PAGES as usize];
            let mut paged = Vec::new();
            for first in (PROMOTION_PAGES..DATA_PAGES).step_by(PAGING_SUPERPAGE_PAGES as usize) {
                let start = data + first * PAGE_SIZE;
                let report = machine.remap(start, PAGING_SUPERPAGE_PAGES * PAGE_SIZE);
                assert_eq!(
                    report.superpages.len(),
                    1,
                    "a fresh machine has a 64 KB shadow region for every paging superpage"
                );
                real[first as usize..(first + PAGING_SUPERPAGE_PAGES) as usize].fill(false);
                paged.push(first);
            }
            procs.push(Proc {
                data,
                heap,
                heap_words: 0,
                real,
                supers: Vec::new(),
                paged,
                data_oracle: vec![0; (DATA_PAGES * WORDS_PER_PAGE) as usize],
                heap_oracle: vec![0; HEAP_WORDS_MAX as usize],
            });
        }
        Churn {
            machine,
            procs,
            live_16k: 0,
            recolored: 0,
            colors,
            oracle_mismatches: 0,
        }
    }

    /// Runs the whole script, one unit per segment.
    pub fn run(&mut self, script: &Script, params: Params, hook: &mut impl Hook) -> Vec<Unit> {
        let per_segment = script.rounds.len().div_ceil(params.segments);
        let mut units = Vec::with_capacity(params.segments);
        let mut before = self.machine.report();
        for (segment, rounds) in script.rounds.chunks(per_segment).enumerate() {
            let first_round = segment * per_segment;
            let mismatches_before = self.oracle_mismatches;
            let start_s = contention::now_s();
            let start = Instant::now();
            let mut digest = 0u64;
            for (i, round) in rounds.iter().enumerate() {
                digest = self.round((first_round + i) % PROCESSES, round, digest, hook);
            }
            let wall_s = start.elapsed().as_secs_f64();
            let after = self.machine.report();
            units.push(Unit {
                label: format!("churn/seg{segment:02}"),
                kind: UnitKind::Churn,
                wall_s,
                span_s: (start_s, start_s + wall_s),
                slowdown: 1.0,
                host_s: wall_s,
                cycles: after.total_cycles.get() - before.total_cycles.get(),
                checksum: digest ^ counters_digest(&after),
                instructions: sim_instructions(&after) - sim_instructions(&before),
                verified: self.oracle_mismatches == mismatches_before,
            });
            before = after;
        }
        units
    }

    /// The machine's report so far (simulated counters for the traced
    /// pass).
    pub fn report(&mut self) -> RunReport {
        self.machine.report()
    }

    fn round(&mut self, pid: usize, round: &Round, digest: u64, hook: &mut impl Hook) -> u64 {
        let machine = &mut self.machine;
        hook.time(Phase::Switch, || {
            machine
                .try_switch_process(pid)
                .expect("every pid was spawned")
        });
        let digest = hook.time(Phase::Burst, || self.burst(pid, round.burst_seed, digest));
        let effect = self.mutate(pid, round, hook);
        digest.wrapping_mul(0x100_0000_01b3).wrapping_add(effect)
    }

    /// 256 random word accesses, alternating read and write; one in
    /// four goes to the sbrk heap once it exists.
    fn burst(&mut self, pid: usize, seed: u64, mut digest: u64) -> u64 {
        let proc = &mut self.procs[pid];
        let mut x = seed;
        for i in 0..BURST {
            // xorshift64*: cheap enough that the generator is noise
            // beside a simulated access.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let (base, oracle, word) = if r & 3 == 0 && proc.heap_words > 0 {
                let word = (r >> 8) % proc.heap_words;
                (proc.heap, &mut proc.heap_oracle, word)
            } else {
                let word = (r >> 8) % (DATA_PAGES * WORDS_PER_PAGE);
                (proc.data, &mut proc.data_oracle, word)
            };
            let va = base + word * 4;
            if i % 2 == 0 {
                let value = (r >> 32) as u32;
                self.machine
                    .try_write_u32(va, value)
                    .expect("the script touches mapped words only");
                oracle[word as usize] = value;
            } else {
                let got = self
                    .machine
                    .try_read_u32(va)
                    .expect("the script touches mapped words only");
                if got != oracle[word as usize] {
                    self.oracle_mismatches += 1;
                }
                digest = digest
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(u64::from(got));
            }
        }
        digest
    }

    /// Resolves the round's draw against the model and performs it.
    /// A draw that does not apply (nothing to demote, the recolor cap
    /// reached, …) falls back to one that does, deterministically.
    /// Returns a number describing what the kernel did, for the digest.
    fn mutate(&mut self, pid: usize, round: &Round, hook: &mut impl Hook) -> u64 {
        let proc = &self.procs[pid];
        let mut mutation = round.mutation;
        if mutation == Mutation::Sbrk && proc.heap_words >= HEAP_WORDS_MAX {
            mutation = Mutation::PageBits;
        }
        let mut recolor_target = None;
        if mutation == Mutation::Recolor {
            if self.recolored < RECOLORS_MAX {
                recolor_target = (0..64)
                    .map(|step| (round.b + step) % PROMOTION_PAGES)
                    .find(|&page| proc.real[page as usize]);
            }
            if recolor_target.is_none() {
                mutation = Mutation::PageBits;
            }
        }
        if mutation == Mutation::Demote && proc.supers.is_empty() {
            // No superpage means no 16 KB superpage either, so the
            // remap is allowed.
            mutation = Mutation::Remap;
        }
        if mutation == Mutation::Remap && self.live_16k > LIVE_16K_MAX {
            mutation = Mutation::Demote;
        }

        let machine = &mut self.machine;
        let proc = &mut self.procs[pid];
        let phase = Phase::Service(mutation);
        match mutation {
            Mutation::Remap => {
                // A 16 KB … 1 MB naturally aligned sub-range of the
                // promotion area.
                let pages = 4u64 << (2 * (round.a % 4));
                let first = (round.b % (PROMOTION_PAGES / pages)) * pages;
                let start = proc.data + first * PAGE_SIZE;
                let report = hook.time(phase, || machine.remap(start, pages * PAGE_SIZE));
                for &(va, size) in &report.superpages {
                    let first = va.offset_from(proc.data) / PAGE_SIZE;
                    let pages = size.base_pages();
                    proc.real[first as usize..(first + pages) as usize].fill(false);
                    proc.supers.push((first, pages));
                    if pages == 4 {
                        self.live_16k += 1;
                    }
                }
                report.pages_remapped
            }
            Mutation::SwapOut => {
                let first = proc.paged[(round.a % proc.paged.len() as u64) as usize];
                let vpn = (proc.data + first * PAGE_SIZE).vpn();
                hook.time(phase, || machine.swap_out_superpage(vpn))
                    .pages_written
            }
            Mutation::Demote => {
                let at = (round.a % proc.supers.len() as u64) as usize;
                let (first, pages) = proc.supers.swap_remove(at);
                let vpn = (proc.data + first * PAGE_SIZE).vpn();
                hook.time(phase, || machine.demote_superpage(vpn));
                proc.real[first as usize..(first + pages) as usize].fill(true);
                if pages == 4 {
                    self.live_16k -= 1;
                }
                pages
            }
            Mutation::Recolor => {
                let page = recolor_target.expect("resolved above");
                let vpn = (proc.data + page * PAGE_SIZE).vpn();
                let color = round.a % self.colors;
                hook.time(phase, || machine.recolor_page(vpn, color));
                proc.real[page as usize] = false;
                self.recolored += 1;
                color
            }
            Mutation::PageBits => {
                let at = (round.a % (proc.supers.len() + proc.paged.len()) as u64) as usize;
                let first = match proc.supers.get(at) {
                    Some(&(first, _)) => first,
                    None => proc.paged[at - proc.supers.len()],
                };
                let vpn = (proc.data + first * PAGE_SIZE).vpn();
                let bits = hook.time(phase, || machine.page_bits(vpn));
                bits.iter()
                    .map(|&(_, referenced, dirty)| u64::from(referenced) + 2 * u64::from(dirty))
                    .sum()
            }
            Mutation::Sbrk => {
                let old = hook.time(phase, || machine.sbrk(SBRK_INCREMENT));
                assert_eq!(
                    old,
                    proc.heap + proc.heap_words * 4,
                    "sbrk hands out the heap contiguously"
                );
                proc.heap_words += SBRK_INCREMENT / 4;
                old.get()
            }
        }
    }
}

/// One rep on a fresh machine: building it is the first unit
/// (`churn/build`: a boot, four 8 MB `map_region`s and 64 remaps), the
/// script's segments are the rest. Returns the machine too, for its
/// final report.
pub fn rep(script: &Script, params: Params, hook: &mut impl Hook) -> (Vec<Unit>, Churn) {
    let start_s = contention::now_s();
    let start = Instant::now();
    let mut churn = Churn::build();
    let wall_s = start.elapsed().as_secs_f64();
    let report = churn.report();
    let mut units = vec![Unit {
        label: "churn/build".to_string(),
        kind: UnitKind::Churn,
        wall_s,
        span_s: (start_s, start_s + wall_s),
        slowdown: 1.0,
        host_s: wall_s,
        cycles: report.total_cycles.get(),
        checksum: counters_digest(&report),
        instructions: sim_instructions(&report),
        verified: true,
    }];
    units.extend(churn.run(script, params, hook));
    (units, churn)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_once(seed: u64) -> (u64, Vec<Unit>, u64) {
        let params = Params::for_scale(Scale::Test);
        let script = generate(seed, params.rounds);
        let (units, churn) = rep(&script, params, &mut NoHook);
        (script.hash, units, churn.oracle_mismatches)
    }

    #[test]
    fn same_seed_same_script_same_cycles() {
        let (hash_a, units_a, mismatches_a) = run_once(7);
        let (hash_b, units_b, mismatches_b) = run_once(7);
        assert_eq!(hash_a, hash_b);
        assert_eq!((mismatches_a, mismatches_b), (0, 0));
        assert_eq!(units_a.len(), 1 + Params::for_scale(Scale::Test).segments);
        assert_eq!(units_a[0].label, "churn/build");
        for (a, b) in units_a.iter().zip(&units_b) {
            assert_eq!(
                (a.cycles, a.checksum, a.instructions),
                (b.cycles, b.checksum, b.instructions)
            );
            assert!(a.verified && a.cycles > 0);
        }
        assert!(units_a[1..].iter().all(|u| u.instructions > 0));
    }

    #[test]
    fn another_seed_gives_another_script() {
        let (hash_a, units_a, _) = run_once(7);
        let (hash_b, units_b, mismatches_b) = run_once(8);
        assert_ne!(hash_a, hash_b);
        assert_eq!(mismatches_b, 0);
        assert_ne!(
            units_a.iter().map(|u| u.cycles).sum::<u64>(),
            units_b.iter().map(|u| u.cycles).sum::<u64>()
        );
    }

    #[test]
    fn traced_and_untraced_runs_simulate_the_same_thing() {
        let params = Params::for_scale(Scale::Test);
        let script = generate(3, params.rounds);
        let mut times = PhaseTimes::default();
        let (a, _) = rep(&script, params, &mut NoHook);
        let (b, _) = rep(&script, params, &mut times);
        assert_eq!(
            a.iter().map(|u| u.cycles).collect::<Vec<_>>(),
            b.iter().map(|u| u.cycles).collect::<Vec<_>>()
        );
        assert_eq!(times.samples[Phase::Burst.index()].len(), params.rounds);
        // Every service the script can draw is exercised even at test
        // scale, so every `os.*_us` metric has samples.
        for phase in Phase::ALL {
            assert!(!times.samples[phase.index()].is_empty(), "{phase:?}");
        }
    }
}
