//! Machine stub whose `audit` exhaustively destructures the fixture's
//! stats struct (keeping the counter-symmetry lint quiet), with the
//! sanctioned fast-hit replay sites, a complete `service_shootdowns`
//! drain, and the stats structs `UNAUDITED_STATS` names.

pub struct Machine;

pub struct HptStats;
pub struct StreamStats;
pub struct SubblockStats;

impl Machine {
    fn audit(&self, s: &FixtureStats) {
        let FixtureStats { hits, misses } = s;
        let _ = (hits, misses);
    }

    fn memo_access(&mut self) {}

    fn stream(&mut self) {}

    fn service_shootdowns(&mut self) {
        for core in self.cores.iter_mut() {
            match req {
                Request::All => core.tlb.purge_all(),
                Request::Range { vpn, pages } => core.tlb.purge_range(vpn, pages),
            };
            core.itlb.purge();
        }
    }
}
