//! NPB SP (Scalar Pentadiagonal) communication skeleton.
//!
//! Same multipartition layout and pipelined wavefront solves as BT
//! (see [`crate::bt`]) but with scalar (not 5x5 block) line solves:
//! smaller messages, less computation per k-block, and roughly twice the
//! iteration count — which is why SP is more communication-sensitive than
//! BT in the paper's Figure 6.

use crate::bt::{pipelined_sweep, sweep_dims};
use crate::util::{compute_phase, flops_time, Grid2d};
use crate::{App, AppParams, Class};
use mpisim::ctx::Ctx;
use mpisim::types::{Src, TagSel};

struct Config {
    n: usize,
    iters: usize,
}

fn config(class: Class) -> Config {
    // published sizes (S=12, W=36, A=64, B=102, C=162); iterations /5
    match class {
        Class::S => Config { n: 12, iters: 20 },
        Class::W => Config { n: 36, iters: 40 },
        Class::A => Config { n: 64, iters: 80 },
        Class::B => Config { n: 102, iters: 80 },
        Class::C => Config { n: 162, iters: 80 },
    }
}

/// Run the skeleton on one rank (called by the registry).
pub fn run(ctx: &mut Ctx, params: &AppParams) {
    let cfg = config(params.class);
    let iters = params.iters(cfg.iters);
    let w = ctx.world();
    let grid = Grid2d::square(ctx.size());
    let me = ctx.rank();
    // scalar solves: 2 variables per face point
    let dims = sweep_dims(cfg.n, grid.rows, 2);
    let block_work = flops_time((dims.cell * dims.cell) as f64 * 60.0);
    let rhs_work = flops_time((dims.cell * dims.cell * dims.cell) as f64 * 180.0);

    ctx.bcast(0, 3 * 8, &w);

    for iter in 0..iters {
        compute_phase(ctx, params, rhs_work, 0x5b00, iter as u64);

        // copy faces
        let mut reqs = Vec::new();
        for (d, (dr, dc)) in [(0isize, 1isize), (1, 0)].into_iter().enumerate() {
            let next = grid.torus(me, dr, dc);
            let prev = grid.torus(me, -dr, -dc);
            reqs.push(ctx.irecv(Src::Rank(prev), TagSel::Is(20 + d as i32), dims.face, &w));
            reqs.push(ctx.isend(next, 20 + d as i32, dims.face, &w));
        }
        ctx.waitall_ignore(&reqs);

        let dirs: [(Option<usize>, Option<usize>); 3] = [
            (grid.west(me), grid.east(me)),
            (grid.north(me), grid.south(me)),
            (grid.east(me), grid.west(me)),
        ];
        for (d, (up, down)) in dirs.into_iter().enumerate() {
            let sends = pipelined_sweep(
                ctx,
                params,
                up,
                down,
                d as i32,
                dims.face,
                dims.blocks,
                block_work,
                0x5b10 + d as u64,
                (iter * dims.blocks) as u64,
            );
            if !sends.is_empty() {
                ctx.waitall_ignore(&sends);
            }
        }
    }
    ctx.allreduce(5 * 8, &w);
    ctx.finalize();
}

/// Registry entry for this application.
pub const APP: App = App {
    name: "sp",
    description: "NPB SP: multipartition ADI with scalar pentadiagonal solves",
    run,
    valid_ranks: crate::util::is_square,
    fig6_ranks: &[16, 36, 64, 121],
};

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::network;
    use mpisim::world::World;

    #[test]
    fn runs_and_is_deterministic() {
        let go = || {
            let params = AppParams::quick();
            World::new(9)
                .network(network::blue_gene_l())
                .run(move |ctx| run(ctx, &params))
                .unwrap()
        };
        let a = go();
        let b = go();
        assert_eq!(a.total_time, b.total_time);
        assert!(a.stats.messages > 0);
    }
}
