#![forbid(unsafe_code)]
//! # campaign — parallel, fault-isolated experiment fleets
//!
//! The paper's evaluation is a *grid* of experiments: applications × rank
//! counts × problem classes × network models, each run through the full
//! trace → generate → execute → verify pipeline. This crate turns that grid
//! into a declarative **job matrix** and executes it as a fleet:
//!
//! * [`matrix`] — the matrix format, its expansion into concrete
//!   [`matrix::JobSpec`]s, stable hashed job identities, and the one
//!   validator and set of conversions ([`matrix::JobSpec::validate`],
//!   `params`, `gen_options`, `network_model`, `trace`) every front end
//!   turns a job description into a pipeline run with.
//! * [`hash`] — deterministic, order-independent FNV-1a config hashing.
//! * [`cache`] — a disk trace cache keyed by trace-config hash, so reruns
//!   skip the (expensive) traced application entirely.
//! * [`telemetry`] — structured JSONL events (`queued`/`started`/`cached`/
//!   `retried`/`finished`) for machine consumption.
//! * [`executor`] — the std-only worker pool with per-job fault isolation:
//!   panics are caught and transient failures retry with capped
//!   exponential backoff. Hangs are not its business: every world a job
//!   builds runs under [`benchgen::OP_BUDGET`], so a job ends, and an
//!   over-budget one ends in the same permanent error every time.
//! * [`journal`] — the write-ahead view of the telemetry log: crash-safe
//!   atomic writes, torn-line-tolerant decoding, and the per-job resume
//!   classification (replay vs rerun).
//! * [`runner`] — the per-job pipeline, the aggregate
//!   [`runner::CampaignReport`], and [`runner::resume_campaign`].
//!
//! The `commbench` binary is the command-line front end.

pub mod cache;
pub mod executor;
pub mod hash;
pub mod journal;
pub mod matrix;
pub mod runner;
pub mod telemetry;

pub use cache::{CachedTrace, FsckReport, TraceCache};
pub use executor::{FailureCause, FleetOptions, JobError, Outcome};
pub use journal::{Journal, ResumeAction};
pub use matrix::{CampaignSpec, JobSpec, JobTrace, SpecError};
pub use runner::{
    resume_campaign, run_campaign, run_jobs, CampaignReport, ChaosSummary, JobOutput, JobRow,
};
pub use telemetry::Telemetry;
