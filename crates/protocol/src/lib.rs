#![forbid(unsafe_code)]
//! The `commspec-server` wire protocol.
//!
//! This crate is deliberately dependency-free: it holds the one JSON codec
//! the workspace shares ([`json`]; the campaign's telemetry and journals
//! use it too) and the typed,
//! versioned message vocabulary ([`wire`]) the daemon and its clients speak
//! over line-delimited JSON. Keeping it leaf-level means a client can link
//! against the protocol without pulling in the simulator, the generator, or
//! the campaign runner.
//!
//! See `DESIGN.md` §13 for the protocol grammar and compatibility rules.

pub mod json;
pub mod wire;

pub use wire::{
    Artifact, ClientStats, FleetStats, JobParams, JobRef, JobResult, Request, Response,
    StatsReport, WireError, PROTO_VERSION,
};
