//! NPB MG (Multigrid) communication skeleton.
//!
//! MG runs V-cycles over a hierarchy of grids. At each level, every rank
//! exchanges halo faces with its neighbours in the (hypercube-factored)
//! process layout; face sizes shrink by 4x per coarser level until the
//! grid is coarser than the process count, after which fewer ranks stay
//! active. Each iteration ends with an `MPI_Allreduce` residual norm.
//! Memory-bound in the original (§5.1).

use crate::util::{compute_phase, is_pow2, mem_time};
use crate::{App, AppParams, Class};
use mpisim::ctx::Ctx;
use mpisim::types::{Src, TagSel};

struct Config {
    /// grid dimension (S=32, W=128, A/B=256, C=512)
    n: usize,
    iters: usize,
}

fn config(class: Class) -> Config {
    match class {
        Class::S => Config { n: 32, iters: 4 },
        Class::W => Config { n: 128, iters: 4 },
        Class::A => Config { n: 256, iters: 4 },
        Class::B => Config { n: 256, iters: 10 },
        Class::C => Config { n: 512, iters: 10 },
    }
}

/// Run the skeleton on one rank (called by the registry).
pub fn run(ctx: &mut Ctx, params: &AppParams) {
    let cfg = config(params.class);
    let iters = params.iters(cfg.iters);
    let w = ctx.world();
    let p = ctx.size();
    let me = ctx.rank();
    let log2p = p.trailing_zeros() as usize;
    let levels = (cfg.n.trailing_zeros() as usize).min(8);

    ctx.bcast(0, 4 * 8, &w);

    for iter in 0..iters {
        // V-cycle: restrict down the hierarchy, then prolongate back up.
        for half in 0..2usize {
            for step in 0..levels {
                let level = if half == 0 { step } else { levels - 1 - step };
                // local grid at this level
                let local_n = (cfg.n >> level).max(2) / (1 << (log2p / 3).min(4));
                let face_bytes = ((local_n * local_n * 8) as u64).max(64);
                let smooth = mem_time((local_n * local_n * local_n * 8 * 4) as f64);
                compute_phase(
                    ctx,
                    params,
                    smooth,
                    0x3600 + half as u64,
                    (iter * levels + level) as u64,
                );
                // halo exchange with hypercube neighbours, one per
                // dimension that is still distributed at this level
                let dims = log2p.min(3);
                for d in 0..dims {
                    // coarser levels deactivate dimensions
                    if level >= levels.saturating_sub(d) {
                        continue;
                    }
                    let partner = me ^ (1 << d);
                    let tag = (half * 8 + d) as i32;
                    let r = ctx.irecv(Src::Rank(partner), TagSel::Is(tag), face_bytes, &w);
                    let s = ctx.isend(partner, tag, face_bytes, &w);
                    ctx.waitall_ignore(&[r, s]);
                }
            }
        }
        ctx.allreduce(8, &w);
    }
    ctx.allreduce(8, &w);
    ctx.finalize();
}

/// Registry entry for this application.
pub const APP: App = App {
    name: "mg",
    description: "NPB MG: V-cycle halo exchanges with level-dependent sizes",
    run,
    valid_ranks: is_pow2,
    fig6_ranks: &[16, 32, 64, 128],
};

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::network;
    use mpisim::world::World;

    #[test]
    fn v_cycles_run() {
        let params = AppParams::quick();
        let report = World::new(8)
            .network(network::blue_gene_l())
            .run(move |ctx| run(ctx, &params))
            .unwrap();
        assert!(report.stats.messages > 0);
        assert!(report.stats.collectives >= 5);
    }
}
