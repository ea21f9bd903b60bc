//! NPB BT (Block Tridiagonal) communication skeleton.
//!
//! BT uses the *multipartition* decomposition on a square process grid:
//! each ADI iteration performs three directional line-solve sweeps, each a
//! *pipelined wavefront* — a rank receives the incoming face for a k-block,
//! solves it, and forwards the outgoing face downstream, so ranks along the
//! sweep direction run staggered by one block — plus a copy-faces halo
//! exchange. "BT is a stencil code consisting almost exclusively of
//! asynchronous point-to-point communication operations, with only a few
//! collectives at the beginning and end of the execution" (paper §5.4).
//!
//! The staggering matters for the paper's Figure 7: receives are posted as
//! the pipeline needs them, so when computation shrinks, upstream ranks run
//! ahead and messages land in the receiver's unexpected queue (extra copy)
//! and eventually exhaust its buffering (flow-control stalls) — the
//! mechanisms behind the non-monotonic what-if curve.
//!
//! Class sizes use the published mesh dimensions; iteration counts are the
//! published counts divided by 5 (documented scaling).

use crate::util::{compute_phase, flops_time, Grid2d};
use crate::{App, AppParams, Class};
use mpisim::ctx::Ctx;
use mpisim::types::{ReqHandle, Src, TagSel};

struct Config {
    /// global mesh dimension (class table: S=12, W=24, A=64, B=102, C=162)
    n: usize,
    iters: usize,
}

fn config(class: Class) -> Config {
    match class {
        Class::S => Config { n: 12, iters: 12 },
        Class::W => Config { n: 24, iters: 20 },
        Class::A => Config { n: 64, iters: 40 },
        Class::B => Config { n: 102, iters: 40 },
        Class::C => Config { n: 162, iters: 40 },
    }
}

/// Solve-sweep faces carry 5 variables per point of one k-plane of the
/// tile; per-plane flop counts follow the 5x5 block solves.
pub(crate) struct SweepDims {
    pub cell: usize,
    pub face: u64,
    pub blocks: usize,
}

pub(crate) fn sweep_dims(n: usize, c: usize, vars: u64) -> SweepDims {
    let cell = (n / c.max(1)).max(2);
    SweepDims {
        cell,
        face: (cell * cell) as u64 * vars * 8,
        blocks: cell,
    }
}

/// One pipelined directional sweep: receive the incoming face per k-block
/// (posted when needed, as the solve does), solve, forward downstream.
/// Returns outstanding send handles to be completed by the caller.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pipelined_sweep(
    ctx: &mut Ctx,
    params: &AppParams,
    up: Option<usize>,
    down: Option<usize>,
    tag: i32,
    face: u64,
    blocks: usize,
    block_work: mpisim::time::SimDuration,
    salt: u64,
    step_base: u64,
) -> Vec<ReqHandle> {
    let w = ctx.world();
    let mut sends = Vec::new();
    for blk in 0..blocks {
        if let Some(src) = up {
            ctx.recv_ignore(Src::Rank(src), TagSel::Is(tag), face, &w);
        }
        compute_phase(ctx, params, block_work, salt, step_base + blk as u64);
        if let Some(dst) = down {
            sends.push(ctx.isend(dst, tag, face, &w));
        }
    }
    sends
}

/// Run the skeleton on one rank (called by the registry).
pub fn run(ctx: &mut Ctx, params: &AppParams) {
    let cfg = config(params.class);
    let iters = params.iters(cfg.iters);
    let w = ctx.world();
    let grid = Grid2d::square(ctx.size());
    let me = ctx.rank();
    let dims = sweep_dims(cfg.n, grid.rows, 5);
    // per-k-block solve work: 5x5 block tridiagonal over one plane
    let block_work = flops_time((dims.cell * dims.cell) as f64 * 250.0);
    let rhs_work = flops_time((dims.cell * dims.cell * dims.cell) as f64 * 350.0);

    // initialization: parameter broadcast from rank 0
    ctx.bcast(0, 3 * 8, &w);
    ctx.bcast(0, 5 * 8, &w);

    for iter in 0..iters {
        // compute_rhs
        compute_phase(ctx, params, rhs_work, 0xb700, iter as u64);

        // copy faces: halo exchange with the four torus neighbours
        let mut reqs = Vec::new();
        for (d, (dr, dc)) in [(0isize, 1isize), (1, 0)].into_iter().enumerate() {
            let next = grid.torus(me, dr, dc);
            let prev = grid.torus(me, -dr, -dc);
            reqs.push(ctx.irecv(Src::Rank(prev), TagSel::Is(20 + d as i32), dims.face, &w));
            reqs.push(ctx.isend(next, 20 + d as i32, dims.face, &w));
        }
        ctx.waitall_ignore(&reqs);

        // three pipelined solve sweeps: west→east, north→south, east→west
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
                0xb710 + d as u64,
                (iter * dims.blocks) as u64,
            );
            if !sends.is_empty() {
                ctx.waitall_ignore(&sends);
            }
        }
    }
    // verification
    ctx.allreduce(5 * 8, &w);
    ctx.finalize();
}

/// Registry entry for this application.
pub const APP: App = App {
    name: "bt",
    description: "NPB BT: multipartition ADI, pipelined wavefront solves",
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
    fn runs_on_square_grids() {
        for n in [4, 9, 16] {
            let params = AppParams::quick();
            let report = World::new(n)
                .network(network::blue_gene_l())
                .run(move |ctx| run(ctx, &params))
                .unwrap();
            assert!(report.stats.messages > 0, "n={n}");
        }
    }

    #[test]
    fn compute_scaling_reduces_time_monotonically_at_high_scales() {
        let time_at = |scale: f64| {
            let params = AppParams {
                class: crate::Class::S,
                iterations: Some(3),
                compute_scale: scale,
            };
            World::new(9)
                .network(network::blue_gene_l())
                .run(move |ctx| run(ctx, &params))
                .unwrap()
                .total_time
        };
        assert!(
            time_at(1.0) > time_at(0.5),
            "less compute must be faster here"
        );
    }
}
