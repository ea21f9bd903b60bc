//! Ring demo — the paper's Figure 2 example: every rank asynchronously
//! receives from the left and sends to the right, 1000 iterations.

use crate::util::compute_phase;
use crate::{App, AppParams, Class};
use mpisim::ctx::Ctx;
use mpisim::time::SimDuration;
use mpisim::types::{Src, TagSel};

fn config(class: Class) -> (u64, usize) {
    // (message bytes, iterations)
    match class {
        Class::S => (256, 50),
        Class::W => (512, 200),
        Class::A => (1024, 500),
        Class::B => (1024, 1000),
        Class::C => (2048, 1000),
    }
}

/// Run the skeleton on one rank (called by the registry).
pub fn run(ctx: &mut Ctx, params: &AppParams) {
    let (bytes, iters) = config(params.class);
    let iters = params.iters(iters);
    let w = ctx.world();
    let right = (ctx.rank() + 1) % ctx.size();
    let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
    for i in 0..iters {
        let r = ctx.irecv(Src::Rank(left), TagSel::Is(0), bytes, &w);
        let s = ctx.isend(right, 0, bytes, &w);
        compute_phase(ctx, params, SimDuration::from_usecs(50), 0x1107, i as u64);
        ctx.waitall_ignore(&[r, s]);
    }
    ctx.finalize();
}

/// Registry entry for this application.
pub const APP: App = App {
    name: "ring",
    description: "nearest-neighbour ring (the paper's Figure 2 example)",
    run,
    valid_ranks: |n| n >= 2,
    fig6_ranks: &[16, 32, 64, 128],
};

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::network;
    use mpisim::world::World;

    #[test]
    fn runs_and_message_count_matches() {
        let params = AppParams::quick();
        let report = World::new(4)
            .network(network::ideal())
            .run(move |ctx| run(ctx, &params))
            .unwrap();
        assert_eq!(report.stats.messages, 4 * 3);
    }
}
