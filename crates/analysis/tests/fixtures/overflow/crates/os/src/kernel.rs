//! Kernel stub: the pub methods `SHOOTDOWN_EXEMPT` names, each writing
//! mapping state, so the exemptions are not stale.

pub struct Kernel;

impl Kernel {
    pub fn map_region(&mut self) {
        self.hpt.insert(pte, tm);
    }

    pub fn handle_shadow_fault(&mut self, ctx: &mut Ctx) {
        ctx.mmc.set_mapping(index, pte, mem);
    }
}
