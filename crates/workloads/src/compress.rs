//! `compress95` — the SPECint95 LZW compressor (§3.1).
//!
//! The working set is dominated by the hash table and code table
//! (~440 KB combined) probed "in a relatively random manner", plus three
//! ~1 MB buffers holding the original, compressed and decompressed
//! "files". Following the paper's instrumentation, the table region and
//! the buffers are `remap()`ed to shadow superpages; the buffers start at
//! deliberately unaligned offsets, mirroring the paper's observation that
//! differing alignments yield different superpage counts (13/7/13).

use mtlb_sim::Machine;
use mtlb_types::{Prot, VirtAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::access::AccessExt;
use crate::common::{fnv1a, FNV_SEED};
use crate::{Outcome, Scale, Workload};

/// Hash table slots — the classic `compress(1)` prime for 16-bit codes.
const HSIZE: u64 = 69001;
/// First code after the 256 literals and the (unused) CLEAR code.
const FIRST_CODE: u32 = 257;
/// Code space for 16-bit codes.
const MAX_CODES: u32 = 1 << 16;
/// Empty hash slot marker.
const EMPTY: u32 = u32::MAX;

const DATA_BASE: VirtAddr = VirtAddr::new(0x1000_0000);
/// Table region: htab (69001 × u32) + codetab (69001 × u16) + misc state,
/// padded to the paper's exact 557 056-byte region.
const TABLE_REGION_BYTES: u64 = 557_056;
/// Each buffer is the paper's 999 424 bytes.
const BUFFER_BYTES: u64 = 999_424;

/// The compress95 workload. See the module-level documentation for the modelled behaviour.
#[derive(Debug, Clone)]
pub struct Compress95 {
    input_len: u64,
    rounds: u32,
    seed: u64,
}

impl Compress95 {
    /// Creates the workload at the given scale (paper: 1 000 000 chars,
    /// 2 compress/decompress cycles).
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Compress95 {
                // The paper says "an initial 1,000,000 characters" into
                // 999 424-byte buffers; we use the buffer size exactly.
                input_len: 999_424,
                rounds: 2,
                seed: 0xc0_c0_95,
            },
            Scale::Test => Compress95 {
                input_len: 20_000,
                rounds: 1,
                seed: 0xc0_c0_95,
            },
        }
    }

    fn htab(&self) -> VirtAddr {
        DATA_BASE
    }

    fn codetab(&self) -> VirtAddr {
        DATA_BASE + HSIZE * 4
    }

    /// Buffers sit at page-but-not-superpage-aligned offsets, as in the
    /// paper's runs.
    fn orig(&self) -> VirtAddr {
        DATA_BASE + (2 << 20) + 0x1000
    }

    fn comp(&self) -> VirtAddr {
        DATA_BASE + (4 << 20) + 0x3000
    }

    fn decomp(&self) -> VirtAddr {
        DATA_BASE + (6 << 20) + 0x1000
    }

    /// Deterministic pseudo-text: words drawn zipf-ishly from a small
    /// vocabulary, so LZW finds realistic repeated strings.
    fn generate_input(&self, m: &mut Machine) -> u64 {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let vocab: Vec<&[u8]> = vec![
            b"the",
            b"of",
            b"and",
            b"a",
            b"to",
            b"in",
            b"is",
            b"memory",
            b"page",
            b"table",
            b"cache",
            b"shadow",
            b"super",
            b"controller",
            b"translation",
            b"buffer",
            b"physical",
            b"virtual",
            b"address",
            b"entry",
        ];
        let mut checksum = FNV_SEED;
        // Compose the pseudo-text host-side, then stream it into the
        // simulated buffer as one block write (the same per-byte store +
        // 2-instruction budget the byte-at-a-time loop charged).
        let mut text = Vec::with_capacity(self.input_len as usize);
        while (text.len() as u64) < self.input_len {
            // Zipf-ish: squaring biases toward low indices.
            let r: f64 = rng.gen();
            let idx = ((r * r) * vocab.len() as f64) as usize;
            let word = vocab[idx.min(vocab.len() - 1)];
            for &b in word.iter().chain(b" ".iter()) {
                if text.len() as u64 >= self.input_len {
                    break;
                }
                text.push(b);
                checksum = fnv1a(checksum, u64::from(b));
            }
        }
        m.write_block(self.orig(), &text, 2);
        checksum
    }

    /// One LZW compression pass; returns the number of 16-bit codes
    /// emitted.
    fn compress(&self, m: &mut Machine) -> u64 {
        // Clear the hash table (the classic memset; a big sequential
        // write burst, streamed).
        m.stream_write_u32(self.htab(), HSIZE, 1, |_| EMPTY);
        let mut free_ent = FIRST_CODE;
        let mut out = 0u64;
        let emit = |m: &mut Machine, code: u32, out: &mut u64| {
            assert!(
                (*out + 1) * 2 <= BUFFER_BYTES,
                "compressed output would overflow the {BUFFER_BYTES}-byte buffer                  (incompressible input?)"
            );
            m.write::<u16>(self.comp() + *out * 2, code as u16);
            *out += 1;
            m.execute(14); // code packing and buffer management
        };

        let mut ent = u32::from(m.read::<u8>(self.orig()));
        for i in 1..self.input_len {
            let c = u32::from(m.read::<u8>(self.orig() + i));
            m.execute(26); // loop, hash computation, variable-width bit packing
            let fcode = (c << 16) | ent;
            let mut h = ((c << 8) ^ ent) as u64 % HSIZE;
            // Secondary-probe displacement, fixed from the initial hash as
            // in compress(1); coprime to the prime table size, so the
            // probe sequence visits every slot.
            let disp = if h == 0 { 1 } else { HSIZE - h };
            let found = loop {
                let v = m.read::<u32>(self.htab() + h * 4);
                m.execute(3);
                if v == fcode {
                    break true;
                }
                if v == EMPTY {
                    break false;
                }
                h = if h >= disp {
                    h - disp
                } else {
                    h + HSIZE - disp
                };
            };
            if found {
                ent = u32::from(m.read::<u16>(self.codetab() + h * 2));
            } else {
                emit(m, ent, &mut out);
                if free_ent < MAX_CODES {
                    m.write::<u16>(self.codetab() + h * 2, free_ent as u16);
                    m.write::<u32>(self.htab() + h * 4, fcode);
                    free_ent += 1;
                }
                ent = c;
            }
        }
        emit(m, ent, &mut out);
        out
    }

    /// LZW decompression of `codes` 16-bit codes; returns the output
    /// length and checksum.
    fn decompress(&self, m: &mut Machine, codes: u64) -> (u64, u64) {
        // The decoder reuses the table region: prefix (u32 × 65536) over
        // the htab, suffix (u8 × 65536) over the codetab — as the real
        // benchmark reuses its static tables.
        let prefix = self.htab();
        let suffix = self.codetab();
        let mut free = FIRST_CODE;
        let mut out = 0u64;
        let mut checksum = FNV_SEED;
        let push_out = |m: &mut Machine, byte: u8, out: &mut u64, checksum: &mut u64| {
            m.write::<u8>(self.decomp() + *out, byte);
            *checksum = fnv1a(*checksum, u64::from(byte));
            *out += 1;
            m.execute(2);
        };

        let first = u32::from(m.read::<u16>(self.comp()));
        debug_assert!(first < 256, "first code is a literal");
        let mut prev = first;
        let mut finchar = first as u8;
        push_out(m, finchar, &mut out, &mut checksum);

        let mut stack: Vec<u8> = Vec::with_capacity(64);
        for ci in 1..codes {
            let incode = u32::from(m.read::<u16>(self.comp() + ci * 2));
            m.execute(6);
            let mut code = incode;
            if code >= free {
                // KwKwK: the code being defined right now.
                stack.push(finchar);
                code = prev;
            }
            while code >= 256 {
                stack.push(m.read::<u8>(suffix + u64::from(code)));
                code = m.read::<u32>(prefix + u64::from(code) * 4);
                m.execute(3);
            }
            finchar = code as u8;
            push_out(m, finchar, &mut out, &mut checksum);
            while let Some(b) = stack.pop() {
                push_out(m, b, &mut out, &mut checksum);
            }
            if free < MAX_CODES {
                m.write::<u32>(prefix + u64::from(free) * 4, prev);
                m.write::<u8>(suffix + u64::from(free), finchar);
                free += 1;
            }
            prev = incode;
        }
        (out, checksum)
    }
}

impl Workload for Compress95 {
    fn name(&self) -> &'static str {
        "compress95"
    }

    fn run(&mut self, m: &mut Machine) -> Outcome {
        m.load_program(96 * 1024, true);
        m.map_region(DATA_BASE, TABLE_REGION_BYTES, Prot::RW);
        for buf in [self.orig(), self.comp(), self.decomp()] {
            m.map_region(buf, BUFFER_BYTES, Prot::RW);
        }
        // The paper's four remapped regions: tables + the three buffers.
        m.remap(DATA_BASE, TABLE_REGION_BYTES);
        for buf in [self.orig(), self.comp(), self.decomp()] {
            m.remap(buf, BUFFER_BYTES);
        }

        let input_checksum = self.generate_input(m);
        let mut checksum = FNV_SEED;
        let mut verified = true;
        for _ in 0..self.rounds {
            let codes = self.compress(m);
            let (out_len, out_checksum) = self.decompress(m, codes);
            verified &= out_len == self.input_len && out_checksum == input_checksum;
            checksum = fnv1a(checksum, codes);
            checksum = fnv1a(checksum, out_checksum);
        }
        Outcome { checksum, verified }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_sim::MachineConfig;

    #[test]
    fn round_trips_losslessly() {
        let mut w = Compress95::new(Scale::Test);
        let mut m = Machine::new(MachineConfig::paper_mtlb(64));
        let out = w.run(&mut m);
        assert!(out.verified, "decompressed text must equal the original");
    }

    #[test]
    fn compression_actually_compresses() {
        let mut w = Compress95::new(Scale::Test);
        let mut m = Machine::new(MachineConfig::paper_mtlb(64));
        w.run(&mut m);
        // 20 000 chars of zipf text should emit far fewer than 20 000
        // codes; stores to the comp buffer bound the code count.
        let r = m.report();
        assert!(r.stores > 0);
    }

    #[test]
    fn same_answer_on_mtlb_and_base_machines() {
        let a = crate::run_on(Compress95::new(Scale::Test), MachineConfig::paper_mtlb(64));
        let b = crate::run_on(Compress95::new(Scale::Test), MachineConfig::paper_base(64));
        assert_eq!(a.0, b.0, "computation must be machine-independent");
    }

    #[test]
    fn table_region_matches_paper_byte_count() {
        // htab + codetab must fit the paper's 557 056-byte region, and
        // the decoder's reuse of the same region must fit too. Constant
        // folding makes these compile-time facts; the consts keep them
        // checked if the geometry ever changes.
        const _: () = assert!(HSIZE * 4 + HSIZE * 2 <= TABLE_REGION_BYTES);
        const _: () = assert!(65536 * 4 <= HSIZE * 4);
        const _: () = assert!(65536 <= HSIZE * 2);
    }
}
