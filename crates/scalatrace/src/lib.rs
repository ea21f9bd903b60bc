#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # scalatrace — lossless, structure-aware communication tracing
//!
//! A reproduction of the ScalaTrace framework the paper builds on (Noeth,
//! Mueller, Schulz, de Supinski): per-rank PMPI interposition, on-the-fly
//! intra-rank loop compression into RSDs/PRSDs, histogram-compressed
//! computation times, and inter-rank structural merging into a single,
//! near constant-size global trace — plus ScalaReplay-style trace replay.
//!
//! Pipeline:
//!
//! ```text
//! run_hooked(Tracer) ──► per-rank Vec<TraceNode>  (compress::append_compressed)
//!                  merge::merge_tracers ──► Trace (RSDs with rank sets + unified params)
//!                  cursor::Cursor        ──► concrete per-rank event streams
//!                  replay::replay        ──► re-execution on mpisim
//! ```
//!
//! ```
//! use mpisim::{network, time::SimDuration, types::{Src, TagSel}};
//!
//! // Trace a 1000-iteration ring (the paper's Figure 2 example):
//! let traced = scalatrace::trace_app(8, network::ideal(), |ctx| {
//!     let w = ctx.world();
//!     let right = (ctx.rank() + 1) % ctx.size();
//!     let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
//!     for _ in 0..1000 {
//!         let r = ctx.irecv(Src::Rank(left), TagSel::Is(0), 1024, &w);
//!         let s = ctx.isend(right, 0, 1024, &w);
//!         ctx.waitall(&[r, s]);
//!     }
//! }).unwrap();
//!
//! // 8 ranks x 1000 iterations x 3 calls = 24000 events ...
//! assert_eq!(traced.trace.concrete_event_count(), 24_000);
//! // ... compressed to a handful of trace nodes, independent of rank count.
//! assert!(traced.trace.node_count() <= 8);
//! ```

pub mod collect;
pub mod compress;
pub mod cursor;
pub mod extrap;
pub mod fingerprint;
pub mod frame;
pub mod merge;
pub mod params;
pub mod rankset;
pub mod replay;
pub mod snapshot;
pub mod stats;
pub mod stream;
pub mod text;
pub mod timestats;
pub mod trace;

pub use collect::{
    trace_app, trace_world, trace_world_partial, PartialTracedRun, TracedRun, Tracer,
};
pub use compress::TailCompressor;
pub use cursor::{events_for_rank, semantically_equal, ConcreteEvent, ConcreteOp, Cursor};
pub use merge::{MergeStats, MergeStrategy};
pub use rankset::RankSet;
pub use snapshot::SnapshotError;
pub use stream::{
    fsck_dir, salvage_dir, trace_world_streamed, RankSalvage, SalvageReport, StreamConfig,
    StreamCounters, StreamFsckReport, StreamedRun, StreamingTracer,
};
pub use timestats::TimeStats;
pub use trace::{CommTable, OpTemplate, Prsd, Rsd, Trace, TraceNode};
