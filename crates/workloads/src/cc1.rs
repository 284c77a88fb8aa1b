//! `cc1` — the compiler proper of gcc 2.5.3 (§3.1).
//!
//! Models the passes that dominate cc1's memory behaviour when compiling
//! a large file (the paper uses `insn-recog.c`): a lexer streaming
//! through a mapped source buffer, a parser building pointer-linked AST
//! nodes on the heap, a symbol table probed by hash, a constant-folding
//! tree walk, and an RTL-generation pass that allocates further records
//! per node. As in the paper, all superpage creation happens through the
//! modified `sbrk()`.

use mtlb_sim::Machine;
use mtlb_types::{Prot, VirtAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::access::AccessExt;
use crate::common::{fnv1a, Heap, FNV_SEED};
use crate::{Outcome, Scale, Workload};

/// AST node: kind, value, left child VA, right child VA (16 bytes).
const NODE_KIND: u64 = 0;
const NODE_VAL: u64 = 4;
const NODE_LEFT: u64 = 8;
const NODE_RIGHT: u64 = 12;
const NODE_BYTES: u64 = 16;

/// Node kinds.
const K_LITERAL: u32 = 0;
const K_SYMBOL: u32 = 1;
const K_OP: u32 = 2;

/// RTL record: opcode, src, dst (12 bytes).
const RTL_BYTES: u64 = 12;

/// Symbol-table buckets.
const SYM_BUCKETS: u64 = 8 * 1024;

const SOURCE_BASE: VirtAddr = VirtAddr::new(0x1800_0000);

/// The cc1 workload. See the module-level documentation for the modelled behaviour.
#[derive(Debug, Clone)]
pub struct Cc1 {
    functions: u64,
    stmts_per_function: u64,
    seed: u64,
}

impl Cc1 {
    /// Creates the workload (paper scale sized to a large generated
    /// source like `insn-recog.c`: a multi-megabyte AST + RTL heap).
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Cc1 {
                functions: 220,
                stmts_per_function: 120,
                seed: 0xcc1,
            },
            Scale::Test => Cc1 {
                functions: 8,
                stmts_per_function: 12,
                seed: 0xcc1,
            },
        }
    }

    fn source_bytes(&self) -> u64 {
        // ~24 source bytes per statement.
        (self.functions * self.stmts_per_function * 24).div_ceil(4096) * 4096
    }
}

/// Per-run compiler state (all addresses point into simulated memory).
struct Compiler {
    symtab: VirtAddr,
    rtl_head: Vec<VirtAddr>,
    /// Literal leaf nodes seen so far; later statements reference them as
    /// shared type/constant nodes (as gcc shares tree nodes), which makes
    /// the optimisation passes chase pointers across the whole AST heap.
    literal_pool: Vec<VirtAddr>,
}

impl Cc1 {
    fn new_node(m: &mut Machine, kind: u32, val: u32, left: u64, right: u64) -> VirtAddr {
        let n = Heap::malloc(m, NODE_BYTES);
        m.write::<u32>(n + NODE_KIND, kind);
        m.write::<u32>(n + NODE_VAL, val);
        m.write::<u32>(n + NODE_LEFT, left as u32);
        m.write::<u32>(n + NODE_RIGHT, right as u32);
        m.execute(8);
        n
    }

    /// Symbol interning: hash probe over the bucket array; symbols chain
    /// through AST nodes (left = next, val = name hash).
    fn intern(m: &mut Machine, symtab: VirtAddr, name: u32) -> u32 {
        let bucket = symtab + u64::from(name % SYM_BUCKETS as u32) * 4;
        let mut cur = m.read::<u32>(bucket);
        m.execute(6);
        while cur != 0 {
            let node = VirtAddr::new(u64::from(cur));
            if m.read::<u32>(node + NODE_VAL) == name {
                m.execute(3);
                return cur;
            }
            cur = m.read::<u32>(node + NODE_LEFT);
            m.execute(3);
        }
        let head = m.read::<u32>(bucket);
        let node = Self::new_node(m, K_SYMBOL, name, u64::from(head), 0);
        m.write::<u32>(bucket, node.get() as u32);
        node.get() as u32
    }

    /// Lex + parse one function: stream bytes from the source buffer,
    /// build one statement tree per ~24 bytes.
    fn parse_function(
        &self,
        m: &mut Machine,
        c: &mut Compiler,
        src_off: &mut u64,
        rng: &mut StdRng,
    ) -> Vec<VirtAddr> {
        let mut stmts = Vec::new();
        for _ in 0..self.stmts_per_function {
            // Lex ~24 bytes: one block read (split only when the token
            // window wraps past the end of the source buffer).
            let mut tok = [0u8; 24];
            let start = *src_off % self.source_bytes();
            if start + 24 <= self.source_bytes() {
                m.read_block(SOURCE_BASE + start, &mut tok, 3);
            } else {
                let first = (self.source_bytes() - start) as usize;
                m.read_block(SOURCE_BASE + start, &mut tok[..first], 3);
                m.read_block(SOURCE_BASE, &mut tok[first..], 3);
            }
            *src_off += 24;
            let mut tok_acc = 0u32;
            for &b in &tok {
                tok_acc = tok_acc.wrapping_mul(31).wrapping_add(u32::from(b));
            }
            // Parse: a small expression tree with literals, interned
            // symbols and operators. Some leaves are *shared* nodes from
            // the literal pool (gcc shares constant/type tree nodes), so
            // later passes dereference into much older heap pages.
            let leaf = |m: &mut Machine, c: &mut Compiler, rng: &mut StdRng, v: u32| {
                if !c.literal_pool.is_empty() && rng.gen::<f64>() < 0.5 {
                    let i = rng.gen_range(0..c.literal_pool.len());
                    c.literal_pool[i]
                } else {
                    let n = Self::new_node(m, K_LITERAL, v & 0xffff, 0, 0);
                    c.literal_pool.push(n);
                    n
                }
            };
            let sym = Self::intern(m, c.symtab, tok_acc % 50_021);
            let lit1 = leaf(m, c, rng, tok_acc);
            let lit2 = leaf(m, c, rng, tok_acc >> 8);
            let add = Self::new_node(m, K_OP, 0, lit1.get(), lit2.get());
            let use_sym = Self::new_node(m, K_OP, 1, u64::from(sym), add.get());
            // Deeper random chain, mimicking nested expressions.
            let mut top = use_sym;
            for _ in 0..rng.gen_range(2..6) {
                let v = rng.gen::<u32>();
                let lit = leaf(m, c, rng, v);
                top = Self::new_node(m, K_OP, rng.gen_range(0..4), top.get(), lit.get());
            }
            stmts.push(top);
        }
        stmts
    }

    /// Constant folding: explicit-stack DFS; OP nodes over two literal
    /// children fold into literals (a read-mostly pointer walk with
    /// occasional writes).
    fn fold(m: &mut Machine, root: VirtAddr) -> u64 {
        let mut folded = 0u64;
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let kind = m.read::<u32>(n + NODE_KIND);
            m.execute(4);
            if kind != K_OP {
                continue;
            }
            let l = m.read::<u32>(n + NODE_LEFT);
            let r = m.read::<u32>(n + NODE_RIGHT);
            let (mut lk, mut lv) = (K_LITERAL, 0);
            if l != 0 {
                let ln = VirtAddr::new(u64::from(l));
                lk = m.read::<u32>(ln + NODE_KIND);
                lv = m.read::<u32>(ln + NODE_VAL);
                m.execute(2);
            }
            let (mut rk, mut rv) = (K_LITERAL, 0);
            if r != 0 {
                let rn = VirtAddr::new(u64::from(r));
                rk = m.read::<u32>(rn + NODE_KIND);
                rv = m.read::<u32>(rn + NODE_VAL);
                m.execute(2);
            }
            if lk == K_LITERAL && rk == K_LITERAL && l != 0 && r != 0 {
                m.write::<u32>(n + NODE_KIND, K_LITERAL);
                m.write::<u32>(n + NODE_VAL, lv.wrapping_add(rv));
                folded += 1;
                m.execute(4);
            } else {
                if l != 0 {
                    stack.push(VirtAddr::new(u64::from(l)));
                }
                if r != 0 {
                    stack.push(VirtAddr::new(u64::from(r)));
                }
            }
        }
        folded
    }

    /// RTL generation: another DFS emitting one 12-byte record per node
    /// visited, allocated from the heap.
    fn codegen(m: &mut Machine, c: &mut Compiler, root: VirtAddr) -> u64 {
        let mut emitted = 0u64;
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let kind = m.read::<u32>(n + NODE_KIND);
            let val = m.read::<u32>(n + NODE_VAL);
            m.execute(5);
            let rtl = Heap::malloc(m, RTL_BYTES);
            m.write::<u32>(rtl, kind);
            m.write::<u32>(rtl + 4, val);
            m.write::<u32>(rtl + 8, n.get() as u32);
            emitted += 1;
            if kind == K_OP {
                let l = m.read::<u32>(n + NODE_LEFT);
                let r = m.read::<u32>(n + NODE_RIGHT);
                m.execute(2);
                if l != 0 {
                    stack.push(VirtAddr::new(u64::from(l)));
                }
                if r != 0 {
                    stack.push(VirtAddr::new(u64::from(r)));
                }
            }
            c.rtl_head.push(rtl);
        }
        emitted
    }
}

impl Workload for Cc1 {
    fn name(&self) -> &'static str {
        "cc1"
    }

    fn run(&mut self, m: &mut Machine) -> Outcome {
        // cc1 has the largest text segment of the five.
        m.load_program(512 * 1024, true);
        let mut rng = StdRng::seed_from_u64(self.seed);

        // "Read" the source file into a mapped buffer.
        m.map_region(SOURCE_BASE, self.source_bytes(), Prot::RW);
        m.remap(SOURCE_BASE, self.source_bytes());
        m.stream_write_u32(SOURCE_BASE, self.source_bytes() / 4, 1, |_| rng.gen());

        let symtab = Heap::malloc(m, SYM_BUCKETS * 4);
        let mut c = Compiler {
            symtab,
            rtl_head: Vec::new(),
            literal_pool: Vec::new(),
        };

        // Phase 1: parse the whole translation unit (gcc parses the file
        // before the per-function passes run over the full AST heap).
        let mut src_off = 0u64;
        let mut all_stmts: Vec<Vec<VirtAddr>> = Vec::new();
        for _ in 0..self.functions {
            all_stmts.push(self.parse_function(m, &mut c, &mut src_off, &mut rng));
        }

        let mut checksum = FNV_SEED;
        let mut total_folded = 0u64;
        let mut total_rtl = 0u64;
        // Phase 2: tree optimisation passes over every function (gcc
        // runs several such walks; two capture the pattern).
        for _ in 0..2 {
            for stmts in &all_stmts {
                for &s in stmts {
                    total_folded += Self::fold(m, s);
                }
            }
        }
        // Phase 3: RTL generation over every function.
        for stmts in &all_stmts {
            for &s in stmts {
                total_rtl += Self::codegen(m, &mut c, s);
            }
        }

        // "Register allocation": a linear re-read of the emitted RTL.
        for &rtl in &c.rtl_head {
            let op = m.read::<u32>(rtl);
            checksum = fnv1a(checksum, u64::from(op));
            m.execute(3);
        }

        checksum = fnv1a(checksum, total_folded);
        checksum = fnv1a(checksum, total_rtl);
        let verified = total_rtl > 0 && total_folded > 0;
        Outcome { checksum, verified }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_sim::MachineConfig;

    #[test]
    fn compiles_and_folds() {
        let (out, _) = crate::run_on(Cc1::new(Scale::Test), MachineConfig::paper_mtlb(64));
        assert!(out.verified, "some constants must fold and RTL must emit");
    }

    #[test]
    fn same_answer_on_both_machines() {
        let a = crate::run_on(Cc1::new(Scale::Test), MachineConfig::paper_mtlb(64));
        let b = crate::run_on(Cc1::new(Scale::Test), MachineConfig::paper_base(96));
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn heap_superpages_created_via_sbrk() {
        let mut m = Machine::new(MachineConfig::paper_mtlb(64));
        Cc1::new(Scale::Test).run(&mut m);
        assert!(m.kernel().stats().superpages_created > 0);
    }
}
