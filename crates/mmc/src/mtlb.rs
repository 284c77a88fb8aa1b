//! The memory-controller TLB proper: a set-associative cache of shadow
//! page table entries.

use crate::ShadowPte;

/// Geometry of the MTLB.
///
/// The paper's default configuration is 128 entries, 2-way set
/// associative, with not-recently-used replacement (§3.4); §3.5 sweeps
/// sizes 64–512 and associativities 1–4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MtlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Ways per set. Use `entries` for full associativity.
    pub assoc: usize,
    /// Charge a DRAM write when evicted entries carry updated
    /// referenced/dirty bits. The paper's simulations left this off
    /// ("does not write back updated reference/modification information",
    /// §3.4) and argue the cost is negligible; the bits themselves are
    /// always merged into the table functionally.
    pub charge_bit_writeback: bool,
}

impl MtlbConfig {
    /// The paper's default: 128 entries, 2-way, no charged bit writeback.
    #[must_use]
    pub const fn paper_default() -> Self {
        MtlbConfig {
            entries: 128,
            assoc: 2,
            charge_bit_writeback: false,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is inconsistent (see [`Mtlb::new`]).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(
            self.assoc > 0 && self.entries > 0 && self.entries.is_multiple_of(self.assoc),
            "MTLB entries must be a positive multiple of associativity"
        );
        let sets = self.entries / self.assoc;
        assert!(
            sets.is_power_of_two(),
            "MTLB set count must be a power of two"
        );
        sets
    }
}

impl Default for MtlbConfig {
    fn default() -> Self {
        MtlbConfig::paper_default()
    }
}

#[derive(Clone, Copy, Debug)]
struct Way {
    /// Shadow page index this way caches.
    tag: u64,
    pte: ShadowPte,
    /// NRU use bit.
    used: bool,
}

/// An entry evicted from the MTLB, carrying possibly-updated state bits
/// that must be merged back into the in-memory table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Evicted {
    pub index: u64,
    pub pte: ShadowPte,
}

/// The set-associative MTLB cache.
///
/// This type is purely the cache structure; the surrounding
/// [`Mmc`](crate::Mmc) drives fills, fault generation and bit
/// maintenance.
#[derive(Debug, Clone)]
pub struct Mtlb {
    config: MtlbConfig,
    sets: Vec<Vec<Option<Way>>>,
    hands: Vec<usize>,
    /// Host-side acceleration only: `(tag, set, way)` of the most recent
    /// hit, checked before the way scan. Re-validated against the stored
    /// tag on every use, so stale values after invalidate/insert are
    /// harmless and behaviour matches the plain scan exactly.
    mru: Option<(u64, usize, usize)>,
}

impl Mtlb {
    /// Creates an empty MTLB.
    ///
    /// # Panics
    ///
    /// Panics when `entries` is not a positive multiple of `assoc`, or the
    /// resulting set count is not a power of two.
    #[must_use]
    pub fn new(config: MtlbConfig) -> Self {
        let sets = config.sets();
        Mtlb {
            config,
            sets: vec![vec![None; config.assoc]; sets],
            hands: vec![0; sets],
            mru: None,
        }
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> MtlbConfig {
        self.config
    }

    /// Number of valid entries currently cached.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.sets.iter().flatten().flatten().count()
    }

    #[inline]
    fn set_of(&self, index: u64) -> usize {
        // Set counts are asserted powers of two at construction, so the
        // modulo is a mask (avoids a hardware division per bus access).
        (index & (self.sets.len() as u64 - 1)) as usize
    }

    /// Looks up the entry for a shadow page index, setting its NRU use
    /// bit on a hit. Returns a mutable reference so the controller can
    /// update referenced/dirty bits in place.
    pub(crate) fn lookup(&mut self, index: u64) -> Option<&mut ShadowPte> {
        let set = self.set_of(index);
        let way = self.find(index)?;
        self.sets[set][way].as_mut().map(|w| &mut w.pte)
    }

    /// The entry for a shadow page index, as [`lookup`](Self::lookup)
    /// finds it, or else filled from the table entry `read` returns
    /// (a hardware fill), evicting an NRU victim if the set is full.
    /// Returns the entry and, on a miss, the fill's eviction (with any
    /// accumulated bit updates, for merging into the in-memory table).
    pub(crate) fn lookup_or_fill(
        &mut self,
        index: u64,
        read: impl FnOnce() -> ShadowPte,
    ) -> (&mut ShadowPte, Option<Option<Evicted>>) {
        let set = self.set_of(index);
        let (way, fill) = match self.find(index) {
            Some(way) => (way, None),
            None => {
                let (way, evicted) = self.make_room(set);
                self.mru = Some((index, set, way));
                (way, Some(evicted))
            }
        };
        // Empty exactly when `make_room` just emptied it.
        let w = self.sets[set][way].get_or_insert_with(|| Way {
            tag: index,
            pte: read(),
            used: true,
        });
        (&mut w.pte, fill)
    }

    /// The way of `index`'s set holding it, setting its NRU use bit and
    /// the MRU memo.
    fn find(&mut self, index: u64) -> Option<usize> {
        let set = self.set_of(index);
        let way = match self.mru {
            // Fast path: the most recently hit way, if it still holds this
            // tag (its set is `set` by construction: same index, same hash).
            Some((tag, _, w))
                if tag == index && matches!(&self.sets[set][w], Some(way) if way.tag == index) =>
            {
                Some(w)
            }
            _ => self.sets[set]
                .iter()
                .position(|w| matches!(w, Some(way) if way.tag == index)),
        }?;
        self.mru = Some((index, set, way));
        if let Some(w) = self.sets[set][way].as_mut() {
            w.used = true;
        }
        Some(way)
    }

    /// Read-only probe without NRU side effects (tests, OS inspection).
    #[must_use]
    pub fn probe(&self, index: u64) -> Option<ShadowPte> {
        let set = self.set_of(index);
        self.sets[set]
            .iter()
            .flatten()
            .find(|w| w.tag == index)
            .map(|w| w.pte)
    }

    /// Installs a just-filled entry, evicting an NRU victim if the set is
    /// full, and returns the victim.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, index: u64, pte: ShadowPte) -> Option<Evicted> {
        debug_assert!(
            self.probe(index).is_none(),
            "inserting an entry that is already cached"
        );
        self.lookup_or_fill(index, || pte).1.flatten()
    }

    /// Empties a way of `set` for a fill: a free way, else the NRU
    /// victim, which is returned.
    fn make_room(&mut self, set: usize) -> (usize, Option<Evicted>) {
        if let Some(way) = self.sets[set].iter().position(Option::is_none) {
            return (way, None);
        }
        // NRU within the set, with a rotating hand, mirroring the CPU TLB.
        let assoc = self.config.assoc;
        #[expect(
            clippy::unreachable,
            reason = "Structure invariant: same NRU argument as the CPU TLB — the reset round precedes the scan."
        )]
        let victim = 'found: {
            for round in 0..2 {
                for i in 0..assoc {
                    let idx = (self.hands[set] + i) % assoc;
                    if let Some(w) = &self.sets[set][idx] {
                        if !w.used {
                            break 'found idx;
                        }
                    }
                }
                if round == 0 {
                    for w in self.sets[set].iter_mut().flatten() {
                        w.used = false;
                    }
                }
            }
            unreachable!("after an NRU reset some way must be unused");
        };
        #[expect(
            clippy::expect_used,
            reason = "Structure invariant: the victim way was selected from occupied ways in the same pass."
        )]
        let old = self.sets[set][victim].take().expect("victim exists");
        self.hands[set] = (victim + 1) % assoc;
        let evicted = Evicted {
            index: old.tag,
            pte: old.pte,
        };
        (victim, Some(evicted))
    }

    /// Removes the entry for `index` (OS updated the mapping). Returns
    /// the cached entry so accumulated bits survive.
    pub(crate) fn invalidate(&mut self, index: u64) -> Option<Evicted> {
        let set = self.set_of(index);
        for slot in &mut self.sets[set] {
            if matches!(slot, Some(w) if w.tag == index) {
                #[expect(
                    clippy::expect_used,
                    reason = "Structure invariant: the slot matched the predicate one line earlier; `take` cannot observe `None`."
                )]
                let w = slot.take().expect("matched above");
                return Some(Evicted {
                    index: w.tag,
                    pte: w.pte,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_types::Ppn;

    fn pte(rpfn: u64) -> ShadowPte {
        ShadowPte::present(Ppn::new(rpfn))
    }

    #[test]
    fn paper_default_geometry() {
        let m = Mtlb::new(MtlbConfig::paper_default());
        assert_eq!(m.config().entries, 128);
        assert_eq!(m.config().assoc, 2);
        assert_eq!(m.config().sets(), 64);
    }

    #[test]
    fn insert_lookup_hit() {
        let mut m = Mtlb::new(MtlbConfig {
            entries: 8,
            assoc: 2,
            charge_bit_writeback: false,
        });
        assert!(m.lookup(5).is_none());
        assert_eq!(m.insert(5, pte(0x42)), None);
        assert_eq!(m.lookup(5).map(|p| p.rpfn.index()), Some(0x42));
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn set_conflicts_evict_nru_victim() {
        // 4 sets, 2 ways: indices 0, 4, 8 share set 0.
        let mut m = Mtlb::new(MtlbConfig {
            entries: 8,
            assoc: 2,
            charge_bit_writeback: false,
        });
        m.insert(0, pte(10));
        m.insert(4, pte(14));
        let ev = m.insert(8, pte(18)).expect("set full, someone evicted");
        assert!(ev.index == 0 || ev.index == 4);
        assert!(m.probe(8).is_some());
        assert_eq!(m.occupancy(), 2);
    }

    #[test]
    fn nru_spares_recently_used_way() {
        let mut m = Mtlb::new(MtlbConfig {
            entries: 4,
            assoc: 2,
            charge_bit_writeback: false,
        });
        m.insert(0, pte(10));
        m.insert(2, pte(12));
        // Both used; the first conflict insert resets the generation and
        // evicts one of them; the freshly-inserted entry is marked used.
        let first = m.insert(4, pte(14)).unwrap();
        let survivor = if first.index == 0 { 2 } else { 0 };
        // The survivor's use bit was cleared by the reset while entry 4 is
        // recently used, so the next insert must victimise the survivor.
        let second = m.insert(6, pte(16)).unwrap();
        assert_eq!(second.index, survivor);
        assert!(m.probe(4).is_some(), "recently-used entry 4 is spared");
    }

    #[test]
    fn direct_mapped_config_works() {
        let mut m = Mtlb::new(MtlbConfig {
            entries: 4,
            assoc: 1,
            charge_bit_writeback: false,
        });
        m.insert(1, pte(11));
        let ev = m.insert(5, pte(15)).expect("same set in direct-mapped");
        assert_eq!(ev.index, 1);
    }

    #[test]
    fn fully_associative_config_works() {
        let mut m = Mtlb::new(MtlbConfig {
            entries: 4,
            assoc: 4,
            charge_bit_writeback: false,
        });
        for i in 0..4 {
            assert!(m.insert(i * 7, pte(i)).is_none());
        }
        assert!(m.insert(100, pte(5)).is_some());
        assert_eq!(m.occupancy(), 4);
    }

    #[test]
    fn invalidate_returns_accumulated_bits() {
        let mut m = Mtlb::new(MtlbConfig {
            entries: 4,
            assoc: 2,
            charge_bit_writeback: false,
        });
        m.insert(3, pte(13));
        m.lookup(3).unwrap().dirty = true;
        let ev = m.invalidate(3).unwrap();
        assert!(ev.pte.dirty);
        assert!(m.probe(3).is_none());
        assert!(m.invalidate(3).is_none());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Mtlb::new(MtlbConfig {
            entries: 12,
            assoc: 2,
            charge_bit_writeback: false,
        });
    }
}
