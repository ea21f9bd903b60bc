#![forbid(unsafe_code)]
//! `commspec-server`: a long-running trace-and-generation service over
//! the campaign runner.
//!
//! The batch tools (`commgen`, `commbench`) pay the full pipeline cost on
//! every invocation. This crate fronts the same library calls with a
//! daemon: a versioned line-delimited JSON protocol ([`protocol`]), a
//! multi-tenant FIFO job queue with per-client admission control
//! ([`queue`]), the campaign's trace cache shared by every job kind
//! ([`jobs`]), async job handles, and a JSONL journal as the durability
//! layer ([`server`]): a killed server replays completed jobs on restart
//! instead of rerunning them. Every job runs under a lease: a
//! lease-based coordinator ([`fleet`]) hands jobs to fleet workers
//! ([`worker`]) over the same wire protocol, detects dead workers by
//! missed heartbeats, and reassigns their jobs with capped backoff. The
//! server's own workers are fleet workers on in-memory connections;
//! standalone worker processes join over TCP or stdio.
//!
//! Everything a served job produces is byte-identical to what the batch
//! CLI produces for the same configuration, because both sides call the
//! exact same library functions with the same defaults ([`jobs`]).
//!
//! See `DESIGN.md` §13 for the protocol grammar and the durability
//! argument.

pub mod client;
pub mod fleet;
pub mod jobs;
pub mod queue;
pub mod server;
pub mod sync;
pub mod worker;

pub use client::Client;
pub use fleet::{Fleet, FleetConfig};
pub use jobs::JobKind;
pub use queue::{JobQueue, QueueLimits, Reject};
pub use server::{Server, ServerOptions};
pub use worker::{run_worker, WorkerOptions};
