//! FROZEN. The applications the files beside this one were captured from.
//!
//! A stack signature hashes the call site's file, line and column, and the
//! v1 segments and checkpoints in this directory hold the signatures of the
//! calls below. A test that continues one of those captures (resume from
//! the checkpoints, seal the rest of a segment chain) must issue its events
//! from the very same call sites, so tests `#[path]`-include this file
//! instead of keeping a copy — and nobody edits, reorders or reformats it.
#![allow(dead_code)]

use mpisim::time::SimDuration;
use mpisim::types::{Src, TagSel};

/// Ring exchange, an allreduce on a split communicator every third
/// iteration, a closing barrier: `checkpoint.rs`'s application.
pub fn ring_app(iters: usize, bytes: u64) -> impl Fn(&mut mpisim::Ctx) + Send + Sync + 'static {
    move |ctx| {
        let w = ctx.world();
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        let half = ctx.comm_split(&w, (ctx.rank() % 2) as i64, ctx.rank() as i64);
        for i in 0..iters {
            let r = ctx.irecv(Src::Rank(left), TagSel::Is(0), bytes, &w);
            let s = ctx.isend(right, 0, bytes, &w);
            ctx.compute(SimDuration::from_usecs(3));
            ctx.waitall(&[r, s]);
            if i % 3 == 0 {
                ctx.allreduce(64, &half);
            }
        }
        ctx.barrier(&w);
    }
}

/// A ring whose message size changes every iteration: nothing folds, so a
/// streamed capture seals a stable multi-segment chain.
pub fn unfoldable_app(iters: usize) -> impl Fn(&mut mpisim::Ctx) + Send + Sync + 'static {
    move |ctx| {
        let w = ctx.world();
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        for i in 0..iters {
            let r = ctx.irecv(Src::Rank(left), TagSel::Is(0), 256 + i as u64, &w);
            let s = ctx.isend(right, 0, 256 + i as u64, &w);
            ctx.compute(SimDuration::from_usecs(2 + i as u64));
            ctx.waitall(&[r, s]);
        }
        ctx.barrier(&w);
    }
}

/// `segments/`: world size, iterations, resident budget, fold window.
pub const SEG_RANKS: usize = 2;
pub const SEG_ITERS: usize = 4;
pub const SEG_BUDGET: usize = 6;
pub const SEG_WINDOW: usize = 1;

/// `checkpoints/`: world size, iterations, message bytes, cadence, and the
/// crash (fault seed, dying rank, the event it dies at).
pub const CKPT_RANKS: usize = 4;
pub const CKPT_ITERS: usize = 7;
pub const CKPT_BYTES: u64 = 256;
pub const CKPT_EVERY: u64 = 3;
pub const CKPT_SEED: u64 = 5;
pub const CKPT_VICTIM: usize = 2;
pub const CKPT_AFTER: u64 = 11;
