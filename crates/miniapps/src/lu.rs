//! NPB LU (SSOR for Navier-Stokes) communication skeleton.
//!
//! LU decomposes the grid over a 2-D process mesh and performs, per SSOR
//! iteration, a *lower-triangular* wavefront sweep (data flows from the
//! north-west corner) followed by an *upper-triangular* sweep (flowing
//! back). The published implementation receives the incoming north/west
//! faces with **`MPI_ANY_SOURCE`** — "nodes use MPI_ANY_SOURCE to receive
//! messages in arbitrary order from their neighbors in a 2-D stencil"
//! (paper §4.4) — making LU the motivating application for Algorithm 2.

use crate::util::{compute_phase, flops_time, is_pow2, Grid2d};
use crate::{App, AppParams, Class};
use mpisim::ctx::Ctx;
use mpisim::types::{Src, TagSel};

struct Config {
    n: usize,
    iters: usize,
}

fn config(class: Class) -> Config {
    // published sizes (S=12, W=33, A=64, B=102, C=162); iterations are the
    // published counts (50..250) divided by 10
    match class {
        Class::S => Config { n: 12, iters: 5 },
        Class::W => Config { n: 33, iters: 15 },
        Class::A => Config { n: 64, iters: 25 },
        Class::B => Config { n: 102, iters: 25 },
        Class::C => Config { n: 162, iters: 25 },
    }
}

/// LU's process grid: npcols = 2^(log2(p)/2), rows get the remainder.
fn lu_grid(p: usize) -> Grid2d {
    let log2p = p.trailing_zeros() as usize;
    let cols = 1usize << (log2p / 2);
    Grid2d::new(p / cols, cols)
}

/// Run the skeleton on one rank (called by the registry).
pub fn run(ctx: &mut Ctx, params: &AppParams) {
    let cfg = config(params.class);
    let iters = params.iters(cfg.iters);
    let w = ctx.world();
    let grid = lu_grid(ctx.size());
    let me = ctx.rank();

    // faces carry 5 variables per boundary point of the local tile
    let tile = cfg.n / grid.cols.max(1);
    let face = (tile * 5 * 8) as u64;
    let cell_work = flops_time((tile * tile) as f64 * 150.0);

    ctx.bcast(0, 5 * 8, &w); // parameters

    for iter in 0..iters {
        // lower-triangular sweep: wait for north+west, compute, send
        // south+east. Receives use MPI_ANY_SOURCE as in the original.
        let upstream_lower =
            usize::from(grid.north(me).is_some()) + usize::from(grid.west(me).is_some());
        for _ in 0..upstream_lower {
            ctx.recv_ignore(Src::Any, TagSel::Is(10), face, &w);
        }
        compute_phase(ctx, params, cell_work, 0x1a00, iter as u64);
        if let Some(s) = grid.south(me) {
            ctx.send(s, 10, face, &w);
        }
        if let Some(e) = grid.east(me) {
            ctx.send(e, 10, face, &w);
        }

        // upper-triangular sweep: the wavefront flows back from south-east
        let upstream_upper =
            usize::from(grid.south(me).is_some()) + usize::from(grid.east(me).is_some());
        for _ in 0..upstream_upper {
            ctx.recv_ignore(Src::Any, TagSel::Is(11), face, &w);
        }
        compute_phase(ctx, params, cell_work, 0x1a01, iter as u64);
        if let Some(n) = grid.north(me) {
            ctx.send(n, 11, face, &w);
        }
        if let Some(wst) = grid.west(me) {
            ctx.send(wst, 11, face, &w);
        }

        // residual norm every 5 iterations (the original checks every
        // inorm steps)
        if iter % 5 == 4 {
            ctx.allreduce(5 * 8, &w);
        }
    }
    ctx.allreduce(5 * 8, &w);
    ctx.finalize();
}

/// Registry entry for this application.
pub const APP: App = App {
    name: "lu",
    description: "NPB LU: SSOR wavefront sweeps with MPI_ANY_SOURCE receives",
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
    fn wavefront_completes_with_wildcards() {
        for n in [4, 8, 16] {
            let params = AppParams::quick();
            let report = World::new(n)
                .network(network::blue_gene_l())
                .run(move |ctx| run(ctx, &params))
                .unwrap();
            assert!(report.stats.messages > 0, "n={n}");
        }
    }

    #[test]
    fn traced_lu_contains_wildcards() {
        let params = AppParams::quick();
        let traced = scalatrace_probe(4, move |ctx| run(ctx, &params));
        assert!(traced);
    }

    /// Small helper to avoid a dev-dependency cycle: trace via hooks and
    /// look for ANY_SOURCE events directly.
    fn scalatrace_probe(n: usize, body: impl Fn(&mut Ctx) + Send + Sync + 'static) -> bool {
        use mpisim::hooks::{EventKind, RecordingHook};
        let (_, hooks) = World::new(n)
            .network(network::ideal())
            .run_hooked(|_| RecordingHook::default(), body)
            .unwrap();
        hooks.iter().any(|h| {
            h.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::Recv { from: Src::Any, .. }))
        })
    }
}
