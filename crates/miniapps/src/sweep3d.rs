//! Sweep3D (discrete-ordinates neutron transport) communication skeleton.
//!
//! Sweep3D performs wavefront sweeps over a 2-D process grid, one per
//! octant pair of the angular domain: data flows from a corner across the
//! grid in pipelined k-blocks, with blocking face sends/receives to the
//! downstream neighbours (Koch/Baker/Alcouffe; Wasserman et al.). After
//! the sweeps, convergence is checked with an `MPI_Allreduce` that the
//! original source invokes from *different code paths* on different ranks
//! — the paper lists Sweep3D as the code that "require\[s\] collective
//! alignment (Section 4.3)", so this skeleton deliberately calls the final
//! collectives from distinct call sites depending on the rank.

use crate::util::{compute_phase, flops_time, near_square_grid, Grid2d};
use crate::{App, AppParams, Class};
use mpisim::ctx::Ctx;
use mpisim::types::{Src, TagSel};

struct Config {
    /// global grid (classes map onto the published 50^3..1000^3 range)
    n: usize,
    /// k-blocking factor (pipeline depth)
    mk: usize,
    iters: usize,
}

fn config(class: Class) -> Config {
    match class {
        Class::S => Config {
            n: 20,
            mk: 2,
            iters: 2,
        },
        Class::W => Config {
            n: 50,
            mk: 4,
            iters: 3,
        },
        Class::A => Config {
            n: 100,
            mk: 5,
            iters: 4,
        },
        Class::B => Config {
            n: 200,
            mk: 5,
            iters: 4,
        },
        Class::C => Config {
            n: 400,
            mk: 10,
            iters: 4,
        },
    }
}

/// Run the skeleton on one rank (called by the registry).
pub fn run(ctx: &mut Ctx, params: &AppParams) {
    let cfg = config(params.class);
    let iters = params.iters(cfg.iters);
    let w = ctx.world();
    let (rows, cols) = near_square_grid(ctx.size());
    let grid = Grid2d::new(rows, cols);
    let me = ctx.rank();

    let tile_i = cfg.n / rows.max(1);
    let tile_j = cfg.n / cols.max(1);
    let kblocks = (cfg.n / cfg.mk).max(1);
    // faces per k-block: angular flux on the tile boundary
    let face_i = ((tile_j * cfg.mk * 6 * 8) as u64).max(64);
    let face_j = ((tile_i * cfg.mk * 6 * 8) as u64).max(64);
    let block_work = flops_time((tile_i * tile_j * cfg.mk) as f64 * 60.0);

    ctx.bcast(0, 8 * 8, &w); // input deck

    // Octant sweep directions: the wavefront origin corner.
    let octants: [(isize, isize); 4] = [(1, 1), (1, -1), (-1, 1), (-1, -1)];

    for iter in 0..iters {
        for (o, (di, dj)) in octants.iter().enumerate() {
            let up_i = if *di > 0 {
                grid.north(me)
            } else {
                grid.south(me)
            };
            let down_i = if *di > 0 {
                grid.south(me)
            } else {
                grid.north(me)
            };
            let up_j = if *dj > 0 {
                grid.west(me)
            } else {
                grid.east(me)
            };
            let down_j = if *dj > 0 {
                grid.east(me)
            } else {
                grid.west(me)
            };
            let tag_i = (o * 2) as i32;
            let tag_j = (o * 2 + 1) as i32;
            for kb in 0..kblocks {
                if let Some(src) = up_i {
                    ctx.recv_ignore(Src::Rank(src), TagSel::Is(tag_i), face_i, &w);
                }
                if let Some(src) = up_j {
                    ctx.recv_ignore(Src::Rank(src), TagSel::Is(tag_j), face_j, &w);
                }
                compute_phase(
                    ctx,
                    params,
                    block_work,
                    0x53d0 + o as u64,
                    (iter * kblocks + kb) as u64,
                );
                if let Some(dst) = down_i {
                    ctx.send(dst, tag_i, face_i, &w);
                }
                if let Some(dst) = down_j {
                    ctx.send(dst, tag_j, face_j, &w);
                }
            }
        }
        // Convergence check: the collective is reached through different
        // call sites depending on the rank — the paper's Figure 3
        // situation, exercising Algorithm 1.
        if me == 0 {
            ctx.allreduce(8, &w); // call site A (master path)
        } else if me.is_multiple_of(2) {
            ctx.allreduce(8, &w); // call site B (even workers)
        } else {
            ctx.allreduce(8, &w); // call site C (odd workers)
        }
    }
    // final flux balance, again from split call sites (the branches are
    // deliberately identical: what differs is the *call site*)
    #[allow(clippy::if_same_then_else, clippy::branches_sharing_code)]
    if me < ctx.size() / 2 {
        ctx.barrier(&w);
    } else {
        ctx.barrier(&w);
    }
    ctx.finalize();
}

/// Registry entry for this application.
pub const APP: App = App {
    name: "sweep3d",
    description: "Sweep3D: 8-octant pipelined wavefronts, split-call-site collectives",
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
    fn sweeps_complete_on_rectangular_grids() {
        for n in [4, 6, 8, 12] {
            let params = AppParams::quick();
            let report = World::new(n)
                .network(network::blue_gene_l())
                .run(move |ctx| run(ctx, &params))
                .unwrap();
            assert!(report.stats.messages > 0, "n={n}");
        }
    }
}
