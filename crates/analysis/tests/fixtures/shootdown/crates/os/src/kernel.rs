//! Seeded shootdown-completeness cases: one violation, the two methods
//! `SHOOTDOWN_EXEMPT` names, one clean method that reaches the queue
//! through helpers.

pub struct Kernel;

impl Kernel {
    /// VIOLATION: mutates mapping state through a helper but never
    /// reaches `queue_shootdown` on any path.
    pub fn leak_mapping(&mut self) {
        self.write_map();
    }

    fn write_map(&mut self) {
        self.hpt.insert(pte, tm);
    }

    /// EXEMPT: a fresh mapping, named in `SHOOTDOWN_EXEMPT`.
    pub fn map_region(&mut self) {
        self.hpt.insert(pte, tm);
    }

    /// EXEMPT: the paper's §2.5 per-base-page swap-in, named in
    /// `SHOOTDOWN_EXEMPT`.
    pub fn handle_shadow_fault(&mut self, ctx: &mut Ctx) {
        ctx.mmc.set_mapping(index, pte, mem);
    }

    /// CLEAN: the mutation and the shootdown are both two calls deep;
    /// the call graph must connect them.
    pub fn good_remap(&mut self) {
        self.mutate_and_notify();
    }

    fn mutate_and_notify(&mut self) {
        self.shadow_regions.insert(region);
        self.invalidate();
    }

    fn invalidate(&mut self) {
        self.queue_shootdown(req);
    }

    fn queue_shootdown(&mut self, req: Req) {
        self.pending.push(req);
    }
}
