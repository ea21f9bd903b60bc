#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # mpisim — a deterministic discrete-event MPI runtime
//!
//! This crate is the hardware/MPI substrate for the benchmark-generation
//! pipeline. It executes SPMD "rank programs" (plain Rust closures receiving
//! a [`ctx::Ctx`]) under a sequential virtual-time scheduler, providing:
//!
//! * **Point-to-point messaging** — blocking and nonblocking sends/receives
//!   with tags, `MPI_ANY_SOURCE`/`MPI_ANY_TAG` wildcards, MPI-conformant
//!   matching order (posted-receive FIFO, unexpected-message queue), an
//!   eager/rendezvous protocol switch, and credit-based flow control with
//!   sender stalls — the mechanisms the paper invokes to explain the
//!   non-monotonic behaviour in its Figure 7.
//! * **Collectives** — every collective in the paper's Table 1 (barrier,
//!   bcast, reduce, allreduce, gather(v), scatter(v), allgather(v),
//!   alltoall(v), reduce_scatter), with log-tree cost models.
//! * **Communicators** — `comm_split`/`comm_dup` with rank renumbering and
//!   translation back to absolute (world) ranks.
//! * **Virtual time** — each rank owns a clock advanced by computation
//!   ([`ctx::Ctx::compute`]) and by the [`network::NetworkModel`] costs of
//!   communication; the engine schedules ranks lowest-clock-first, so runs
//!   are bit-deterministic for a fixed [`engine::MatchPolicy`].
//! * **PMPI-style interposition** — a [`hooks::Hook`] layer that observes
//!   every MPI-level event with call-site and virtual-timestamp information;
//!   the `scalatrace` crate and the [`profile::MpiP`] profiler are both
//!   implemented as hooks.
//! * **Runtime deadlock detection** — if no rank can make progress the run
//!   aborts with a diagnostic ([`error::SimError::Deadlock`]) listing each
//!   rank's blocked operation and the wait-for edge (which ranks it was
//!   blocked on).
//! * **Fault injection** — a seed-reproducible [`faults::FaultPlan`] can
//!   jitter and skew latencies, legally reorder wildcard matches, slow or
//!   stall ranks, and crash ranks mid-run; a crash degrades gracefully into
//!   a partial run with [`error::SimError::RankFailed`] diagnostics.
//!   Deterministic op-count / virtual-time budgets
//!   ([`error::SimError::BudgetExceeded`]) cut off livelocks reproducibly.
//!
//! ## Example
//!
//! ```
//! use mpisim::{network, time::SimDuration, world::World};
//!
//! // A 4-rank ring: everyone sends 1 KiB to the right, receives from the left.
//! let report = World::new(4)
//!     .network(network::ethernet_cluster())
//!     .run(|ctx| {
//!         let w = ctx.world();
//!         let right = (ctx.rank() + 1) % ctx.size();
//!         let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
//!         let s = ctx.isend(right, 0, 1024, &w);
//!         let r = ctx.irecv(mpisim::types::Src::Rank(left), mpisim::types::TagSel::Is(0),
//!                           1024, &w);
//!         ctx.compute(SimDuration::from_usecs(50));
//!         ctx.waitall(&[s, r]);
//!     })
//!     .unwrap();
//! assert!(report.total_time.as_nanos() > 0);
//! ```

pub mod comm;
pub mod ctx;
pub mod engine;
pub mod error;
pub mod faults;
#[allow(unsafe_code)]
mod fiber;
pub mod hooks;
pub mod network;
pub mod profile;
pub mod time;
pub mod types;
pub mod world;

pub use ctx::Ctx;
pub use error::SimError;
pub use faults::FaultPlan;
pub use time::{SimDuration, SimTime};
pub use world::{RunReport, World};
