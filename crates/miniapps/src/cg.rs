//! NPB CG (Conjugate Gradient) communication skeleton.
//!
//! CG distributes the sparse matrix over a 2-D grid of `nprows x npcols`
//! processes (powers of two). Each iteration performs a sparse
//! matrix-vector product — reduced across each process *row* via a
//! butterfly of point-to-point exchanges and a transpose exchange — plus
//! two dot-product `MPI_Allreduce`s over row/column subcommunicators
//! created by `MPI_Comm_split`. CG is memory-bound in the original suite
//! (§5.1), so the compute model is bandwidth-based.

use crate::util::{compute_phase, is_pow2, mem_time};
use crate::{App, AppParams, Class};
use mpisim::ctx::Ctx;
use mpisim::types::{Src, TagSel};

struct Config {
    /// matrix dimension (S=1400, W=7000, A=14000, B=75000, C=150000)
    na: usize,
    /// published iterations (15 or 75), scaled /3 for B and C
    iters: usize,
    nonzeros_per_row: usize,
}

fn config(class: Class) -> Config {
    match class {
        Class::S => Config {
            na: 1_400,
            iters: 15,
            nonzeros_per_row: 7,
        },
        Class::W => Config {
            na: 7_000,
            iters: 15,
            nonzeros_per_row: 8,
        },
        Class::A => Config {
            na: 14_000,
            iters: 15,
            nonzeros_per_row: 11,
        },
        Class::B => Config {
            na: 75_000,
            iters: 25,
            nonzeros_per_row: 13,
        },
        Class::C => Config {
            na: 150_000,
            iters: 25,
            nonzeros_per_row: 15,
        },
    }
}

/// Run the skeleton on one rank (called by the registry).
pub fn run(ctx: &mut Ctx, params: &AppParams) {
    let cfg = config(params.class);
    let iters = params.iters(cfg.iters);
    let w = ctx.world();
    let p = ctx.size();
    let me = ctx.rank();

    // process grid: npcols = 2^ceil(log2(p)/2), nprows = p / npcols
    let log2p = p.trailing_zeros() as usize;
    let npcols = 1usize << log2p.div_ceil(2);
    let nprows = p / npcols;
    let (row, col) = (me / npcols, me % npcols);

    // row and column subcommunicators (MPI_Comm_split in the original)
    let row_comm = ctx.comm_split(&w, row as i64, col as i64);
    let col_comm = ctx.comm_split(&w, 1000 + col as i64, row as i64);

    // vector segment held per process
    let seg = cfg.na / npcols.max(1);
    let seg_bytes = (seg * 8) as u64;
    let spmv_work = mem_time((cfg.na / nprows.max(1) * cfg.nonzeros_per_row * 20) as f64);
    let axpy_work = mem_time((seg * 8 * 6) as f64);

    for iter in 0..iters {
        // sparse mat-vec
        compute_phase(ctx, params, spmv_work, 0xc600, iter as u64);
        // row-wise butterfly sum-reduction of the partial result vector
        let mut d = 1;
        while d < npcols {
            let partner_col = col ^ d;
            let partner = row * npcols + partner_col;
            let r = ctx.irecv(Src::Rank(partner), TagSel::Is(1), seg_bytes, &w);
            let s = ctx.isend(partner, 1, seg_bytes, &w);
            ctx.waitall_ignore(&[r, s]);
            compute_phase(ctx, params, axpy_work, 0xc610, (iter * 32 + d) as u64);
            d <<= 1;
        }
        // transpose exchange on square grids: (row,col) <-> (col,row) is an
        // involution, so the pairing is symmetric
        if nprows == npcols && nprows > 1 {
            let transpose = col * npcols + row;
            if transpose != me {
                let r = ctx.irecv(Src::Rank(transpose), TagSel::Is(2), seg_bytes, &w);
                let s = ctx.isend(transpose, 2, seg_bytes, &w);
                ctx.waitall_ignore(&[r, s]);
            }
        }
        // two dot products per iteration
        ctx.allreduce(8, &row_comm);
        compute_phase(ctx, params, axpy_work, 0xc620, iter as u64);
        ctx.allreduce(8, &col_comm);
    }
    // final residual norm
    ctx.allreduce(8, &w);
    ctx.finalize();
}

/// Registry entry for this application.
pub const APP: App = App {
    name: "cg",
    description: "NPB CG: row-butterfly reductions, transpose exchange, split communicators",
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
    fn runs_on_powers_of_two() {
        for n in [2, 4, 8, 16] {
            let params = AppParams::quick();
            let report = World::new(n)
                .network(network::blue_gene_l())
                .run(move |ctx| run(ctx, &params))
                .unwrap();
            assert!(report.stats.collectives > 0, "n={n}");
        }
    }
}
